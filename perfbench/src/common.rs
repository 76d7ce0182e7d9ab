//! Pieces every workload shares: the seeded generator, rendered clips with
//! their in-process oracle, quantiles, and the metric record printed at
//! the end of a run.

use echowrite::{EchoWrite, SegmentEvent, StreamingSession};
use echowrite_corpus::Lexicon;
use echowrite_gesture::{Stroke, Writer, WriterParams};
use echowrite_synth::{DeviceProfile, EnvironmentProfile, Scene};
use std::time::Instant;

/// The Android app's 5-frame push size, in samples.
pub const CHUNK: usize = 5 * 1024;

/// A transcript row as the wire carries it; scores compare bitwise.
pub type Row = (u64, u64, Stroke, [u64; 6]);

/// splitmix64: small, seedable, and identical on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Draws `n` distinct dictionary words from the `top` most frequent
/// entries of the embedded lexicon, cycling through the lengths
/// 2..=`max_len` so every seed gets the same length mix.
pub fn pick_words(rng: &mut Rng, n: usize, top: usize, max_len: usize) -> Vec<String> {
    let by_len: Vec<Vec<&str>> = (2..=max_len)
        .map(|len| {
            Lexicon::embedded()
                .top(top)
                .iter()
                .map(|e| e.word.as_str())
                .filter(|w| w.len() == len)
                .collect()
        })
        .collect();
    let mut out: Vec<String> = Vec::with_capacity(n);
    for i in 0..n {
        let pool = &by_len[i % by_len.len()];
        loop {
            let w = pool[rng.below(pool.len())];
            if !out.iter().any(|o| o == w) {
                out.push(w.to_string());
                break;
            }
        }
    }
    out
}

/// Renders `word` written in `room`, returning the audio and the typed
/// stroke sequence.
pub fn render_word(
    engine: &EchoWrite,
    word: &str,
    room: EnvironmentProfile,
    seed: u64,
) -> (Vec<f64>, Vec<Stroke>) {
    let typed = engine
        .scheme()
        .encode_word(word)
        .expect("lexicon words are letters only");
    let perf = Writer::new(WriterParams::nominal(), seed).write_sequence(&typed);
    let audio = Scene::new(DeviceProfile::mate9(), room, seed).render(&perf.trajectory);
    (audio, typed)
}

/// One rendered session input, a single word, with its oracle transcript.
#[derive(Debug, Clone)]
pub struct Clip {
    pub audio: Vec<f64>,
    pub typed: Vec<Stroke>,
    /// The transcript an isolated in-process session produces.
    pub rows: Vec<Row>,
    /// For each row, the command that emitted it: push `k` is `k`, the
    /// finish is `pushes()`.
    pub emit: Vec<usize>,
}

impl Clip {
    pub fn pushes(&self) -> usize {
        self.audio.len().div_ceil(CHUNK)
    }

    pub fn chunk(&self, k: usize) -> &[f64] {
        let lo = k * CHUNK;
        &self.audio[lo..(lo + CHUNK).min(self.audio.len())]
    }

    pub fn seconds(&self, sample_rate: f64) -> f64 {
        self.audio.len() as f64 / sample_rate
    }

    /// The push a pausing typist stops before: the one that emits the
    /// clip's second stroke (its first when it has only one), if that push
    /// has audio before it.
    pub fn pause_push(&self) -> Option<usize> {
        let k = *self.emit.get(1).or(self.emit.first())?;
        (k >= 1 && k < self.pushes()).then_some(k)
    }
}

pub fn row_of(ev: &SegmentEvent) -> Row {
    let c = ev.classification.as_ref().expect("oracle pushes classify");
    (
        ev.start_frame as u64,
        ev.end_frame as u64,
        c.stroke,
        c.scores.map(f64::to_bits),
    )
}

/// Runs `audio` through an isolated streaming session with the serving
/// chunking, recording each row and the command that emitted it.
pub fn make_clip(engine: &EchoWrite, audio: Vec<f64>, typed: Vec<Stroke>) -> Clip {
    let mut session = StreamingSession::new(engine);
    let (mut rows, mut emit, mut events) = (Vec::new(), Vec::new(), Vec::new());
    for (k, chunk) in audio.chunks(CHUNK).enumerate() {
        session.push_events(engine, chunk, true, &mut events);
        for ev in events.drain(..) {
            rows.push(row_of(&ev));
            emit.push(k);
        }
    }
    session.finish_events(engine, true, &mut events);
    let n = audio.len().div_ceil(CHUNK);
    for ev in events.drain(..) {
        rows.push(row_of(&ev));
        emit.push(n);
    }
    Clip {
        audio,
        typed,
        rows,
        emit,
    }
}

/// Maps `f` over `items` on [`nproc`] scoped threads, keeping order.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let per = items.len().div_ceil(nproc()).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(per)
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<U>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("render thread"))
            .collect()
    })
}

/// Renders `n` distinct short dictionary words in the meeting room, each
/// with its oracle.
pub fn render_pool(engine: &EchoWrite, seed: u64, n: usize) -> Vec<Clip> {
    let mut rng = Rng::new(seed);
    let jobs: Vec<(String, u64)> = pick_words(&mut rng, n, 300, 4)
        .into_iter()
        .map(|w| (w, rng.next_u64()))
        .collect();
    par_map(&jobs, |(word, seed)| {
        let (audio, typed) = render_word(engine, word, EnvironmentProfile::meeting_room(), *seed);
        make_clip(engine, audio, typed)
    })
}

/// Levenshtein distance between two stroke sequences.
pub fn edit_distance(a: &[Stroke], b: &[Stroke]) -> usize {
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, x) in a.iter().enumerate() {
        let mut cur = vec![i + 1; b.len() + 1];
        for (j, y) in b.iter().enumerate() {
            cur[j + 1] = (prev[j] + usize::from(x != y))
                .min(prev[j + 1] + 1)
                .min(cur[j] + 1);
        }
        prev = cur;
    }
    prev[b.len()]
}

/// Stroke accuracy of the pool's oracle transcripts against what was
/// typed: 1 − edit distance / typed strokes.
pub fn stroke_accuracy(clips: &[Clip]) -> f64 {
    let (mut errors, mut typed) = (0usize, 0usize);
    for c in clips {
        let seen: Vec<Stroke> = c.rows.iter().map(|r| r.2).collect();
        errors += edit_distance(&c.typed, &seen);
        typed += c.typed.len();
    }
    1.0 - errors as f64 / typed.max(1) as f64
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// A latency sample: when its request was due (or sent), in ns since the
/// run began, and the latency in ms.
pub type Sample = (u64, f64);

/// Width of the windows [`windowed_quantile`] takes its median over.
const WINDOW_NS: u64 = 2_000_000_000;

/// Windows with fewer samples than this (a partial last window) are left
/// out of [`windowed_quantile`].
const MIN_WINDOW_SAMPLES: usize = 10;

/// The median, over the run's two-second windows, of each window's `q`
/// quantile: a stall on a shared host moves one window, not the result.
pub fn windowed_quantile(samples: &[Sample], q: f64) -> f64 {
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(t, ms) in samples {
        windows.entry(t / WINDOW_NS).or_default().push(ms);
    }
    let per_window: Vec<f64> = windows
        .into_values()
        .filter(|v| v.len() >= MIN_WINDOW_SAMPLES)
        .map(|v| quantile(&sorted(v), q))
        .collect();
    median(&per_window)
}

/// The latencies of `samples`, ascending.
pub fn latencies(samples: &[Sample]) -> Vec<f64> {
    sorted(samples.iter().map(|s| s.1).collect())
}

/// Runs `setup` three times, keeping the last result and the median time;
/// each previous result is dropped first so the peak holds one copy.
pub fn setup_thrice<S>(setup: impl Fn() -> (S, f64)) -> (S, f64) {
    let (mut kept, mut times) = (None, Vec::new());
    for _ in 0..3 {
        drop(kept.take());
        let (s, t) = setup();
        times.push(t);
        kept = Some(s);
    }
    (kept.expect("three setups"), median(&times))
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Worker count the workloads size themselves by.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is invalid, if it is.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Counts a serving pass's failures: shed requests, sessions that never
    /// finished, and transcripts that differ from the oracle.
    pub fn sessions(
        &mut self,
        shed: u64,
        unfinished: u64,
        mismatched: u64,
        errors: &[&Option<String>],
    ) {
        self.failed += shed + unfinished + mismatched;
        self.errors
            .extend(errors.iter().filter_map(|e| (*e).clone()));
        if mismatched > 0 {
            self.error(format!("{mismatched} transcripts differ from the oracle"));
        }
        if unfinished > 0 {
            self.error(format!("{unfinished} sessions never finished"));
        }
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
