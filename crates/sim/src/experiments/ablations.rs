//! Ablation studies beyond the paper's published figures.
//!
//! Three design dimensions the paper discusses but does not evaluate:
//!
//! 1. **Front-end decimation** (Sec. VII-A): the proposed down-sampling
//!    optimization — recognition accuracy and processing cost versus the
//!    full-rate STFT.
//! 2. **Burst suppression** (Sec. VII-B): the proposed short-duration
//!    wideband-noise defence, tested in a burst-heavy resting zone.
//! 3. **Candidate-list length k**: the paper fixes k = 5 and observes
//!    saturation beyond k = 3; the sweep quantifies it.

use super::strokes::shared_engine;
use super::words::run_word_trials;
use super::Scale;
use crate::calibrate::stroke_trial;
use crate::report::{f2, pct, Table};
use echowrite::{EchoWrite, EchoWriteConfig};
use echowrite_gesture::{Stroke, WriterParams};
use echowrite_spectro::EnhanceConfig;
use echowrite_synth::{DeviceProfile, EnvironmentProfile, Scene};
use std::time::Instant;

/// Accuracy and mean per-trial processing time of an engine on
/// single-stroke trials.
fn engine_accuracy(
    engine: &EchoWrite,
    environment: &EnvironmentProfile,
    scale: Scale,
) -> (f64, f64) {
    let device = DeviceProfile::mate9();
    let writer = WriterParams::nominal();
    let mut ok = 0usize;
    let mut total = 0usize;
    let mut proc_ms = 0.0;
    for stroke in Stroke::ALL {
        for rep in 0..scale.reps as u64 {
            let seed = scale.seed.wrapping_add(stroke.index() as u64 * 971 + rep * 13);
            let t0 = Instant::now();
            let observed = stroke_trial(engine, &writer, &device, environment, stroke, seed);
            proc_ms += t0.elapsed().as_secs_f64() * 1e3;
            total += 1;
            if observed == Some(stroke) {
                ok += 1;
            }
        }
    }
    (ok as f64 / total as f64, proc_ms / total as f64)
}

/// Front-end ablation result: `(label, accuracy, mean pipeline ms)`.
pub fn frontend_ablation(scale: Scale) -> Vec<(String, f64, f64)> {
    let env = EnvironmentProfile::meeting_room();
    let decimated: Vec<(usize, EchoWrite)> = [8usize, 16, 32]
        .into_iter()
        .map(|factor| (factor, EchoWrite::with_config(EchoWriteConfig::downsampled(factor))))
        .collect();
    let mut engines = vec![("full STFT".to_string(), shared_engine())];
    engines.extend(decimated.iter().map(|(factor, e)| (format!("decimated ÷{factor}"), e)));
    let costs = pipeline_ms(&engines, scale);
    engines
        .into_iter()
        .zip(costs)
        .map(|((label, engine), ms)| (label, engine_accuracy(engine, &env, scale).0, ms))
        .collect()
}

/// Timing runs per engine in [`pipeline_ms`].
const TIMING_RUNS: usize = 5;

/// *Pipeline-only* time (excludes synthesis) of each engine on a fixed
/// stroke trace, min-of-runs to reject scheduler noise. The engines take
/// turns run by run, so a burst of host load slows every front-end's
/// runs alike instead of whichever engine happened to be timed during it.
fn pipeline_ms(engines: &[(String, &EchoWrite)], scale: Scale) -> Vec<f64> {
    let perf = echowrite_gesture::Writer::new(WriterParams::nominal(), scale.seed)
        .write_stroke(Stroke::S3);
    let mic = Scene::new(
        DeviceProfile::mate9(),
        EnvironmentProfile::meeting_room(),
        scale.seed,
    )
    .render(&perf.trajectory);
    let mut best = vec![f64::INFINITY; engines.len()];
    for _ in 0..TIMING_RUNS {
        for (ms, (_, engine)) in best.iter_mut().zip(engines) {
            *ms = ms.min(engine.recognize_strokes(&mic).timing.total_ms());
        }
    }
    best
}

/// Fig. A1 — accuracy and cost per front-end.
pub fn ablation_frontend(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation A1 — Sec. VII-A down-sampling: accuracy and pipeline cost per front-end",
        &["front-end", "stroke accuracy", "pipeline ms/stroke"],
    );
    for (label, acc, ms) in frontend_ablation(scale) {
        t.push_row(vec![label, pct(acc), f2(ms)]);
    }
    t
}

/// Burst-suppression ablation in a burst-heavy room:
/// `(label, accuracy)`.
///
/// The hostile room is the meeting room plus frequent knocks, so the
/// measured difference isolates the burst defence (the resting zone's
/// walker would confound it).
pub fn burst_ablation(scale: Scale) -> Vec<(String, f64)> {
    let mut hostile = EnvironmentProfile::meeting_room();
    hostile.rubbing_rate = 1.2; // knock-heavy table

    let baseline = shared_engine();
    let mut cfg = EchoWriteConfig::paper();
    cfg.enhance = EnhanceConfig::with_burst_suppression();
    let suppressed = EchoWrite::with_config(cfg);

    let (acc_base, _) = engine_accuracy(baseline, &hostile, scale);
    let (acc_supp, _) = engine_accuracy(&suppressed, &hostile, scale);
    vec![
        ("paper pipeline".to_string(), acc_base),
        ("with burst suppression".to_string(), acc_supp),
    ]
}

/// Fig. A2 — burst suppression on/off under knock-heavy interference.
pub fn ablation_burst(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation A2 — Sec. VII-B burst suppression under knock-heavy interference",
        &["pipeline", "stroke accuracy"],
    );
    for (label, acc) in burst_ablation(scale) {
        t.push_row(vec![label, pct(acc)]);
    }
    t
}

/// Fig. A4 — substitution-only correction (the paper's pruning) versus
/// general edit-distance-1 decoding (insertions + deletions + substitutions).
///
/// The paper argues the general case is not worth its cost; this table
/// quantifies both sides: accuracy gained and decode work per word.
pub fn ablation_full_edit(scale: Scale) -> Table {
    let trials = run_word_trials(scale);
    let mut t = Table::new(
        "Ablation A4 — substitution-only vs general edit-distance-1 decoding",
        &["k", "substitution-only (paper)", "general edit-1"],
    );
    for k in 1..=5 {
        t.push_row(vec![
            k.to_string(),
            pct(trials.top_k_accuracy(None, k, true)),
            pct(trials.top_k_full_edit(None, k)),
        ]);
    }
    t
}

/// Fig. A3 — top-k saturation (reuses the Fig. 14 word trials).
pub fn ablation_topk(scale: Scale) -> Table {
    let trials = run_word_trials(scale);
    let mut t = Table::new(
        "Ablation A3 — candidate-list length: top-k word accuracy",
        &["k", "accuracy", "gain over k−1"],
    );
    let mut prev = 0.0;
    for k in 1..=5 {
        let acc = trials.top_k_accuracy(None, k, true);
        t.push_row(vec![k.to_string(), pct(acc), pct(acc - prev)]);
        prev = acc;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale { reps: 2, seed: 3 }
    }

    #[test]
    fn decimated_frontends_hold_accuracy() {
        let results = frontend_ablation(tiny());
        assert_eq!(results.len(), 4);
        let full_acc = results[0].1;
        for (label, acc, _) in &results[1..] {
            assert!(
                *acc >= full_acc - 0.25,
                "{label} accuracy collapsed: {acc} vs full {full_acc}"
            );
        }
        // The paper's motivation: decimation must reduce pipeline cost.
        let full_ms = results[0].2;
        let d32_ms = results[3].2;
        assert!(
            d32_ms < full_ms,
            "decimation did not reduce cost: {d32_ms} vs {full_ms}"
        );
    }

    #[test]
    fn burst_suppression_does_not_hurt() {
        let results = burst_ablation(tiny());
        let base = results[0].1;
        let supp = results[1].1;
        assert!(
            supp >= base - 0.10,
            "suppression made things notably worse: {supp} vs {base}"
        );
    }

    #[test]
    fn tables_render() {
        assert_eq!(ablation_burst(tiny()).rows.len(), 2);
        assert_eq!(ablation_topk(tiny()).rows.len(), 5);
        assert_eq!(ablation_full_edit(tiny()).rows.len(), 5);
    }

    #[test]
    fn general_edit_decoding_is_at_least_as_accurate() {
        let trials = run_word_trials(tiny());
        let sub_only = trials.top_k_accuracy(None, 5, true);
        let general = trials.top_k_full_edit(None, 5);
        assert!(
            general >= sub_only - 0.05,
            "general edit-1 {general} clearly below substitution-only {sub_only}"
        );
    }
}
