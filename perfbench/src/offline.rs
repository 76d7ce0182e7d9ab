//! `offline`: in-process batch recognition of dictionary words, the path
//! the paper's evaluation runs.
//!
//! Seeded words are rendered across the three paper rooms and recognized
//! with `EchoWrite::recognize_word` under the paper configuration (full
//! STFT, non-causal enhancement, frame-parallel spectrogram capped at the
//! host's worker count), cycling through the list until the run's time is
//! up. A fixed sample is checked bitwise against a serial engine.

use crate::common::{
    edit_distance, latencies, nproc, par_map, pick_words, quantile, render_word, setup_thrice,
    windowed_quantile, Outcome, Rng, Sample,
};
use crate::layers::{self, LayerReport, StreamLayers};
use crate::wireio::Span;
use echowrite::{EchoWrite, EchoWriteConfig, Parallelism, StageTiming, WordRecognition};
use echowrite_gesture::Stroke;
use echowrite_synth::EnvironmentProfile;
use std::hint::black_box;
use std::time::Instant;

const WORDS_PER_ROOM: usize = 15;
/// Every this many words of the list is checked against the serial engine.
const CHECK_EVERY: usize = 6;

struct Setup {
    engine: EchoWrite,
    serial: EchoWrite,
    /// Each word with its rendered audio and typed strokes.
    words: Vec<(String, Vec<f64>, Vec<Stroke>)>,
}

fn paper(parallelism: Parallelism) -> EchoWrite {
    EchoWrite::with_config(EchoWriteConfig {
        parallelism,
        ..EchoWriteConfig::paper()
    })
}

fn timed_setup(seed: u64) -> (Setup, f64) {
    let t = Instant::now();
    let engine = paper(Parallelism::Threads(nproc()));
    let serial = paper(Parallelism::Threads(1));
    let mut rng = Rng::new(seed ^ 0x0FF1);
    let mut jobs = Vec::new();
    for room in EnvironmentProfile::all_paper_rooms() {
        for w in pick_words(&mut rng, WORDS_PER_ROOM, 1000, 6) {
            jobs.push((w, room.clone(), rng.next_u64()));
        }
    }
    let words = par_map(&jobs, |(w, room, seed)| {
        let (audio, typed) = render_word(&engine, w, room.clone(), *seed);
        (w.clone(), audio, typed)
    });
    (
        Setup {
            engine,
            serial,
            words,
        },
        t.elapsed().as_secs_f64(),
    )
}

#[derive(Default)]
struct Pass {
    latency_ms: Vec<Sample>,
    timings: Vec<StageTiming>,
    /// Top-1 hits and stroke edit errors over the first pass.
    top1: usize,
    stroke_errors: usize,
    /// First-pass results of the words checked against the serial engine.
    sample: Vec<(usize, WordRecognition)>,
    audio_s: f64,
    wall_s: f64,
    spans: Vec<Span>,
}

impl Pass {
    fn words_per_s(&self) -> f64 {
        self.latency_ms.len() as f64 / self.wall_s
    }
}

fn run_pass(s: &Setup, seconds: f64, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let sample_rate = s.engine.config().stft.sample_rate;
    let t0 = Instant::now();
    let n = s.words.len();
    let mut i = 0usize;
    while i < n || t0.elapsed().as_secs_f64() < seconds {
        let (word, audio, typed) = &s.words[i % n];
        let start = t0.elapsed();
        let r = s.engine.recognize_word(black_box(audio));
        let took = t0.elapsed() - start;
        pass.latency_ms
            .push((start.as_nanos() as u64, took.as_secs_f64() * 1e3));
        pass.audio_s += audio.len() as f64 / sample_rate;
        let timing = r.strokes.timing;
        pass.timings.push(timing);
        if traced {
            let (mut ts, id) = (start.as_micros() as u64, i as u64 + 1);
            pass.spans
                .push(("recognize_word", id, ts, took.as_micros() as u64));
            for (name, ms) in [
                ("stft", timing.stft_ms),
                ("enhance", timing.enhance_ms),
                ("profile", timing.profile_ms),
                ("segment", timing.segment_ms),
                ("dtw", timing.dtw_ms),
                ("decode", timing.decode_ms),
            ] {
                let dur = (ms * 1e3) as u64;
                pass.spans.push((name, id, ts, dur));
                ts += dur;
            }
        }
        if i < n {
            pass.top1 += usize::from(r.top1() == Some(word.as_str()));
            pass.stroke_errors += edit_distance(typed, &r.strokes.strokes());
            if i.is_multiple_of(CHECK_EVERY) {
                pass.sample.push((i, r));
            }
        }
        i += 1;
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass
}

fn same(a: &WordRecognition, b: &WordRecognition) -> bool {
    let bits = |r: &WordRecognition| -> Vec<u64> {
        r.strokes
            .classifications
            .iter()
            .flat_map(|c| c.distances.iter().chain(&c.scores).map(|v| v.to_bits()))
            .chain(r.candidates.iter().map(|c| c.posterior.to_bits()))
            .collect()
    };
    let spans = |r: &WordRecognition| -> Vec<(usize, usize)> {
        r.strokes
            .segments
            .iter()
            .map(|s| (s.start, s.end))
            .collect()
    };
    let words = |r: &WordRecognition| -> Vec<String> {
        r.candidates.iter().map(|c| c.word.clone()).collect()
    };
    spans(a) == spans(b) && bits(a) == bits(b) && words(a) == words(b)
}

/// Checks the sample against the serial engine; returns the divergences.
fn serial_check(s: &Setup, pass: &Pass) -> u64 {
    pass.sample
        .iter()
        .filter(|(i, r)| !same(r, &s.serial.recognize_word(&s.words[*i].1)))
        .count() as u64
}

fn stage_means(timings: &[StageTiming]) -> StageTiming {
    let n = timings.len().max(1) as f64;
    let sum = |f: fn(&StageTiming) -> f64| timings.iter().map(f).sum::<f64>() / n;
    StageTiming {
        stft_ms: sum(|t| t.stft_ms),
        enhance_ms: sum(|t| t.enhance_ms),
        profile_ms: sum(|t| t.profile_ms),
        segment_ms: sum(|t| t.segment_ms),
        dtw_ms: sum(|t| t.dtw_ms),
        decode_ms: sum(|t| t.decode_ms),
    }
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let (s, setup_s) = setup_thrice(|| timed_setup(seed));
    eprintln!(
        "offline: in-process batch, {} words over 3 rooms, {} spectrogram workers",
        s.words.len(),
        nproc()
    );
    let plain = run_pass(&s, seconds as f64, false);
    let mut out = Outcome::default();
    let checked = plain.sample.len() as u64;
    out.attempted = plain.latency_ms.len() as u64;
    out.failed = serial_check(&s, &plain);
    if out.failed > 0 {
        out.error(format!(
            "{}/{checked} sampled words diverge from the serial engine",
            out.failed
        ));
    }
    eprintln!(
        "offline: {} words recognized, {checked} checked serially",
        plain.latency_ms.len()
    );
    if !traced {
        let typed: usize = s.words.iter().map(|w| w.2.len()).sum();
        out.push(
            "latency_p50_ms",
            windowed_quantile(&plain.latency_ms, 0.5),
            "ms",
        );
        out.push(
            "latency_p90_ms",
            windowed_quantile(&plain.latency_ms, 0.9),
            "ms",
        );
        out.push("audio_rtf", plain.audio_s / plain.wall_s, "audio-s/s");
        out.push("words_per_s", plain.words_per_s(), "words/s");
        out.push(
            "accuracy",
            1.0 - plain.stroke_errors as f64 / typed as f64,
            "fraction",
        );
        out.push("setup_s", setup_s, "s");
        return out;
    }

    let mut t = run_pass(&s, seconds as f64, true);
    crate::save_trace("offline", seed, &mut t.spans);
    let stages = stage_means(&t.timings);
    LayerReport {
        tail_p99_ms: quantile(&latencies(&plain.latency_ms), 0.99),
        stream: StreamLayers {
            dtw_share: stages.dtw_ms / stages.total_ms(),
            pruned_ratio: layers::pruned_ratio(&s.engine, s.words.iter().map(|w| w.1.as_slice())),
            ..StreamLayers::default()
        },
        stages,
        top1: plain.top1 as f64 / s.words.len() as f64,
        overhead_share: 1.0 - t.words_per_s() / plain.words_per_s(),
        ..LayerReport::default()
    }
    .report(&mut out);
    out
}
