//! The tracing overhead gate (CI's `trace-overhead` job).
//!
//! Measures the steady-state per-push latency of the incremental streaming
//! path twice in the same process — tracing disabled vs the recording sink
//! — and **fails (exit 1) when the recording sink costs more than 5%**.
//! Each round times both modes back to back and yields one paired ratio
//! (recording over disabled); the gate decides on the median ratio over
//! all rounds, so drift slower than a round cancels within each pair and
//! a few disturbed rounds cannot move the verdict.
//! In-process A/B is the only comparison that is meaningful across CI
//! runner generations; the committed `BENCH_streaming.json` baseline is
//! reported alongside for context and enforced only when
//! `TRACE_GATE_STRICT=1` (same-machine reruns).
//!
//! With `--trace-out <path>` the gate also streams one full session under
//! the recording sink and writes the Chrome `trace_event` JSON there, so
//! CI can upload the trace as an artifact.
//!
//! ```sh
//! cargo run --release -p echowrite-bench --bin trace_gate -- --trace-out trace.json
//! ```

use echowrite::{EchoWrite, EchoWriteConfig, StreamingRecognizer};
use echowrite_gesture::{Stroke, Writer, WriterParams};
use echowrite_synth::{DeviceProfile, EnvironmentProfile, Scene};
use echowrite_trace::ScopedMode;
use std::time::Instant;

const SAMPLE_RATE: usize = 44_100;
const SESSION_SECONDS: usize = 12;
/// Five STFT hops per push — the chunk an audio callback would hand over.
const CHUNK: usize = 5 * 1024;
/// Pushes measured per round (steady state, cycling the session audio).
const PUSHES_PER_ROUND: usize = 120;
/// Paired rounds (odd, so the median is one round's ratio). Which mode
/// runs first alternates by round, so neither gains from going second.
const ROUNDS: usize = 101;
/// The budget: recording-sink pushes may cost at most 5% over disabled.
const MAX_RATIO: f64 = 1.05;

/// The 12 s four-stroke session `BENCH_streaming.json` was measured on.
fn session_audio() -> Vec<f64> {
    let strokes = [Stroke::S2, Stroke::S4, Stroke::S1, Stroke::S3];
    let perf = Writer::new(WriterParams::nominal(), 7).write_sequence(&strokes);
    let mut audio = Scene::new(DeviceProfile::mate9(), EnvironmentProfile::meeting_room(), 7)
        .render(&perf.trajectory);
    audio.resize(SESSION_SECONDS * SAMPLE_RATE, 0.0);
    audio
}

/// Mean per-push nanoseconds for one round under `mode`: 6 s prefill, then
/// `PUSHES_PER_ROUND` timed pushes cycling the audio.
fn round_mean_ns(engine: &EchoWrite, audio: &[f64], mode: ScopedMode) -> f64 {
    let _scope = echowrite_trace::scoped(mode);
    let mut stream = StreamingRecognizer::new(engine);
    let mut pos = 0;
    while pos < 6 * SAMPLE_RATE {
        let end = (pos + CHUNK).min(audio.len());
        let _ = stream.push(&audio[pos..end]);
        pos = end;
    }
    let start = Instant::now();
    for _ in 0..PUSHES_PER_ROUND {
        if pos + CHUNK > audio.len() {
            pos = 0;
        }
        let _ = stream.push(&audio[pos..pos + CHUNK]);
        pos += CHUNK;
    }
    start.elapsed().as_nanos() as f64 / PUSHES_PER_ROUND as f64
}

/// Extracts `"mean_ns": <f64>` for the named result from a committed bench
/// JSON file (hand-rolled: the repo vendors no JSON parser).
fn baseline_mean_ns(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    let entry = json.split('{').find(|chunk| chunk.contains(&needle))?;
    let after = entry.split("\"mean_ns\":").nth(1)?;
    let number: String = after
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    number.parse().ok()
}

/// Streams one full session under the recording sink and writes the Chrome
/// trace JSON to `path`.
fn write_trace_artifact(engine: &EchoWrite, audio: &[f64], path: &str) {
    let scope = echowrite_trace::scoped(ScopedMode::Recording(echowrite_trace::DEFAULT_CAPACITY));
    let mut stream = StreamingRecognizer::new(engine);
    let mut strokes = Vec::new();
    for chunk in audio.chunks(CHUNK) {
        strokes.extend(stream.push(chunk));
    }
    strokes.extend(stream.finish());
    let observed: Vec<Stroke> = strokes.iter().map(|ev| ev.classification.stroke).collect();
    let _ = engine.decode_sequence(&observed);
    let rec = scope.recording().expect("recording scope has a sink");
    std::fs::write(path, rec.to_chrome_json()).expect("write trace artifact");
    println!("{}", rec.summary_text());
    println!("trace artifact: {} events -> {path}", rec.len());
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut trace_out = None;
    while let Some(arg) = args.next() {
        if arg == "--trace-out" {
            trace_out = Some(args.next().expect("--trace-out requires a path"));
        }
    }

    let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
    let audio = session_audio();

    // Warm-up: fault in templates, FFT plans, and the page cache.
    let _ = round_mean_ns(&engine, &audio, ScopedMode::Disabled);

    let disabled = || round_mean_ns(&engine, &audio, ScopedMode::Disabled);
    let recording = || round_mean_ns(&engine, &audio, ScopedMode::Recording(1 << 16));
    let mut ratios = Vec::with_capacity(ROUNDS);
    let mut recording_min = f64::INFINITY;
    for round in 0..ROUNDS {
        let (d, r) = if round % 2 == 0 {
            let d = disabled();
            (d, recording())
        } else {
            let r = recording();
            (disabled(), r)
        };
        recording_min = recording_min.min(r);
        ratios.push(r / d);
        println!(
            "round {round}: disabled {d:.0} ns/push, recording {r:.0} ns/push (ratio {:.3})",
            r / d
        );
    }
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ROUNDS / 2];
    println!(
        "median paired ratio {ratio:.3} over {ROUNDS} rounds (quartiles {:.3} / {:.3}, \
         budget {MAX_RATIO})",
        ratios[ROUNDS / 4],
        ratios[3 * ROUNDS / 4]
    );

    // Context: the committed cross-machine baseline. Informational unless
    // TRACE_GATE_STRICT=1 (absolute nanoseconds are machine-specific).
    let strict = std::env::var("TRACE_GATE_STRICT").is_ok_and(|v| v == "1");
    let mut baseline_failed = false;
    match std::fs::read_to_string("BENCH_streaming.json")
        .ok()
        .as_deref()
        .and_then(|json| baseline_mean_ns(json, "streaming_push/incremental/12s"))
    {
        Some(base) => {
            let vs = recording_min / base;
            println!(
                "vs BENCH_streaming.json streaming_push/incremental/12s ({base:.0} ns): \
                 {vs:.3}x{}",
                if strict { " [strict]" } else { " [informational]" }
            );
            if strict && vs > MAX_RATIO {
                baseline_failed = true;
            }
        }
        None => println!("BENCH_streaming.json baseline not found; skipping comparison"),
    }

    if let Some(path) = trace_out {
        write_trace_artifact(&engine, &audio, &path);
    }

    if ratio > MAX_RATIO {
        eprintln!(
            "FAIL: recording sink costs {:.1}% per push (budget {:.0}%)",
            (ratio - 1.0) * 100.0,
            (MAX_RATIO - 1.0) * 100.0
        );
        std::process::exit(1);
    }
    if baseline_failed {
        eprintln!("FAIL: per-push latency regressed >5% vs BENCH_streaming.json (strict mode)");
        std::process::exit(1);
    }
    println!("PASS: tracing overhead within budget");
}
