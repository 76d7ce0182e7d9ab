//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload live|bulk|offline --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object carrying every
//! end-to-end metric; with `--trace 1` it carries every per-layer metric
//! instead, and the client-side spans are written as a Chrome trace under
//! `perfbench/out/`. The run exits nonzero when any output disagrees with
//! its oracle. See `perfbench/README.md` for the definitions.

mod bulk;
mod common;
mod layers;
mod live;
mod offline;
mod wireio;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Writes a traced run's client spans next to the benchmark sources.
pub fn save_trace(workload: &str, seed: u64, spans: &mut [wireio::Span]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-seed{seed}.trace.json"));
    match wireio::write_trace(&path, spans) {
        Ok(()) => eprintln!(
            "{workload}: wrote {} spans to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("{workload}: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("bench_environment {}", echowrite_bench::bench_environment());
    let mut outcome = match args.workload.as_str() {
        "live" => live::run(args.seed, args.seconds, args.trace),
        "bulk" => bulk::run(args.seed, args.seconds, args.trace),
        "offline" => offline::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (live, bulk, offline)");
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        outcome.push("peak_rss_mb", common::peak_rss_mb(), "MiB");
    }
    for e in &outcome.errors {
        eprintln!("perfbench: {}: {e}", args.workload);
    }
    println!("{}", outcome.to_json());
    if outcome.errors.is_empty() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
