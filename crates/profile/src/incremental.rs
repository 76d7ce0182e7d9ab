//! Frame-at-a-time profile extraction and segmentation for the incremental
//! streaming path.
//!
//! Three cooperating pieces, each emitting values only once they are final
//! (bitwise equal to the batch pipeline run over the whole session):
//!
//! - [`ProfileBuilder`] — MVCE contour + guard deadzone + the window-3
//!   moving average. A smoothed value is final two frames behind the raw
//!   contour (the shrinking-edge values are resolved by
//!   [`ProfileBuilder::finish`]).
//! - [`IncrementalDiff`] — Holoborodko's noise-robust first difference.
//!   `acc[j]` is final three frames behind the smoothed profile; the
//!   replicated edge values and the `n < 5` all-zeros rule are resolved at
//!   finish.
//! - [`StreamingSegmenter`] — a resumable interpreter of
//!   [`Segmenter::segment`](crate::Segmenter::segment)'s scan loop. It consumes shift/acceleration
//!   frames one at a time, decides arm/end checks as soon as their windows
//!   are decidable for *every* possible session length, suspends otherwise,
//!   and on [`StreamingSegmenter::finish`] replays the batch loop verbatim
//!   from its checkpoint — so the concatenation of segments emitted early
//!   and at finish equals the offline segmentation exactly.

use crate::mvce::{column_contour_row, deadzone_hz};
use crate::segment::{SegmentConfig, StrokeSegment};

/// Incremental MVCE + moving average: push binary columns, receive final
/// smoothed Doppler shifts (Hz).
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    carrier_row: usize,
    guard_bins: usize,
    bin_hz: f64,
    /// Last raw (deadzoned) contour values, newest last; at most 3 kept.
    tail: [f64; 3],
    /// Raw contour values received.
    m: usize,
    finished: bool,
}

impl ProfileBuilder {
    /// Creates a builder. `bin_hz` converts contour rows to Hz (use 1.0 for
    /// metadata-free matrices, matching the batch extractor's fallback).
    pub fn new(carrier_row: usize, guard_bins: usize, bin_hz: f64) -> Self {
        ProfileBuilder {
            carrier_row,
            guard_bins,
            bin_hz,
            tail: [0.0; 3],
            m: 0,
            finished: false,
        }
    }

    /// Raw columns consumed so far.
    pub fn columns_in(&self) -> usize {
        self.m
    }

    /// Restores the builder to its fresh state in place (the carrier
    /// geometry and bin scale are session-invariant and kept).
    pub fn reset(&mut self) {
        self.tail = [0.0; 3];
        self.m = 0;
        self.finished = false;
    }

    /// Pushes one binary column; returns the next smoothed shift once it is
    /// final (the value at index `m − 2` after the `m`-th column).
    pub fn push_column(&mut self, column: &[f64]) -> Option<f64> {
        debug_assert!(!self.finished, "push_column after finish");
        let row = column_contour_row(column, self.carrier_row, self.guard_bins);
        let hz = deadzone_hz(row, self.guard_bins, self.bin_hz);
        // echolint: allow(no-panic-path) -- constant indices into a fixed [f64; 3] array are compile-checked
        self.tail = [self.tail[1], self.tail[2], hz];
        self.m += 1;
        let out = if self.m >= 2 {
            // smoothed[i] for i = m−2: window [max(i−1,0), i+2) is fully
            // available and can no longer grow on the right (i+2 = m ≤ n).
            let i = self.m - 2;
            if i == 0 {
                Some(self.mean_of_newest(2, 2))
            } else {
                Some(self.mean_of_newest(3, 3))
            }
        } else {
            None
        };
        if echowrite_trace::enabled() {
            if let Some(hz) = out {
                echowrite_trace::counter(
                    echowrite_trace::Stage::Profile,
                    "shift_hz",
                    echowrite_trace::TICK_UNSET,
                    hz,
                );
            }
        }
        out
    }

    /// Resolves the last smoothed value (the shrinking right edge);
    /// `None` only if no column was ever pushed.
    pub fn finish(&mut self) -> Option<f64> {
        if self.finished {
            return None;
        }
        self.finished = true;
        match self.m {
            0 => None,
            // smoothed[0] with n = 1: window [0, 1).
            1 => Some(self.mean_of_newest(1, 1)),
            // smoothed[n−1]: window [n−2, n).
            _ => Some(self.mean_of_newest(2, 2)),
        }
    }

    /// Mean of the newest `take` raw values over a window of `count`
    /// (ascending order, matching `x[lo..hi].iter().sum()`).
    fn mean_of_newest(&self, take: usize, count: usize) -> f64 {
        let mut sum = 0.0;
        for v in &self.tail[3 - take..] {
            sum += *v;
        }
        sum / count as f64
    }

    /// Captures the dynamic state (retained tail, column count, finish
    /// flag); the carrier geometry and bin scale are config-derived and not
    /// included.
    pub fn export_state(&self) -> ProfileBuilderState {
        ProfileBuilderState { tail: self.tail, m: self.m, finished: self.finished }
    }

    /// Overwrites the dynamic state with a previously exported one. Every
    /// field combination is memory-safe, so this cannot fail.
    pub fn restore_state(&mut self, state: &ProfileBuilderState) {
        self.tail = state.tail;
        self.m = state.m;
        self.finished = state.finished;
    }
}

/// Plan-independent dynamic state of a [`ProfileBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProfileBuilderState {
    /// Last raw (deadzoned) contour values, newest last.
    pub tail: [f64; 3],
    /// Raw contour values received.
    pub m: usize,
    /// Whether `finish` has run.
    pub finished: bool,
}

/// Incremental Holoborodko first difference, bitwise equal to
/// [`echowrite_dsp::filters::holoborodko_diff`] over the full sequence.
#[derive(Debug, Clone)]
pub struct IncrementalDiff {
    /// Last five inputs, newest last.
    tail: [f64; 5],
    /// Inputs received.
    m: usize,
    /// Outputs emitted.
    emitted: usize,
    finished: bool,
}

impl IncrementalDiff {
    /// Creates a differentiator.
    pub fn new() -> Self {
        IncrementalDiff { tail: [0.0; 5], m: 0, emitted: 0, finished: false }
    }

    /// Restores the differentiator to its fresh state.
    pub fn reset(&mut self) {
        self.tail = [0.0; 5];
        self.m = 0;
        self.emitted = 0;
        self.finished = false;
    }

    /// The 5-point stencil on the retained tail: `y[m−5..m]`, index `j`
    /// being the stencil centre `m − 3`.
    fn stencil(&self) -> f64 {
        let y = &self.tail;
        // echolint: allow(no-panic-path) -- constant indices into a fixed [f64; 5] array are compile-checked
        (2.0 * (y[3] - y[1]) + (y[4] - y[0])) / 8.0
    }

    /// Pushes one smoothed shift, appending every newly final acceleration
    /// value to `out` (zero or more; three when the fifth input arrives,
    /// resolving the replicated left edge).
    pub fn push(&mut self, y: f64, out: &mut Vec<f64>) {
        debug_assert!(!self.finished, "push after finish");
        // echolint: allow(no-panic-path) -- constant indices into a fixed [f64; 5] array are compile-checked
        self.tail = [self.tail[1], self.tail[2], self.tail[3], self.tail[4], y];
        self.m += 1;
        if self.m == 5 {
            // acc[2] is the first interior value; acc[0] and acc[1]
            // replicate it.
            let v = self.stencil();
            out.push(v);
            out.push(v);
            out.push(v);
            self.emitted = 3;
        } else if self.m > 5 {
            out.push(self.stencil());
            self.emitted += 1;
        }
    }

    /// Flushes the right edge: for `n ≥ 5` the replicated `acc[n−2]` and
    /// `acc[n−1]`; for `n < 5` the all-zeros sequence.
    pub fn finish(&mut self, out: &mut Vec<f64>) {
        if self.finished {
            return;
        }
        self.finished = true;
        if self.m < 5 {
            debug_assert_eq!(self.emitted, 0);
            for _ in 0..self.m {
                out.push(0.0);
            }
            return;
        }
        // acc[n−2] = acc[n−1] = acc[n−3] (the newest interior value).
        let v = self.stencil();
        out.push(v);
        out.push(v);
        self.emitted += 2;
        debug_assert_eq!(self.emitted, self.m);
    }

    /// Captures the dynamic state (retained tail, input/output counts,
    /// finish flag).
    pub fn export_state(&self) -> IncrementalDiffState {
        IncrementalDiffState {
            tail: self.tail,
            m: self.m,
            emitted: self.emitted,
            finished: self.finished,
        }
    }

    /// Overwrites the dynamic state with a previously exported one. Every
    /// field combination is memory-safe, so this cannot fail.
    pub fn restore_state(&mut self, state: &IncrementalDiffState) {
        self.tail = state.tail;
        self.m = state.m;
        self.emitted = state.emitted;
        self.finished = state.finished;
    }
}

/// Dynamic state of an [`IncrementalDiff`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IncrementalDiffState {
    /// Last five inputs, newest last.
    pub tail: [f64; 5],
    /// Inputs received.
    pub m: usize,
    /// Outputs emitted.
    pub emitted: usize,
    /// Whether `finish` has run.
    pub finished: bool,
}

impl Default for IncrementalDiff {
    fn default() -> Self {
        IncrementalDiff::new()
    }
}

/// A stroke segment decided by the streaming segmenter, carrying its own
/// copy of the smoothed shifts so the caller can classify it even after the
/// segmenter trims its internal windows.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedStroke {
    /// The decided span in absolute frames.
    pub segment: StrokeSegment,
    /// `shifts[start..end]` of the session profile.
    pub shifts: Vec<f64>,
}

/// Absolute-indexed, lazily trimmed tape of f64 frames.
#[derive(Debug, Clone, Default)]
struct Tape {
    data: Vec<f64>,
    base: usize,
}

impl Tape {
    fn push(&mut self, v: f64) {
        self.data.push(v);
    }

    /// Total frames ever pushed (absolute length).
    fn len(&self) -> usize {
        self.base + self.data.len()
    }

    fn get(&self, i: usize) -> f64 {
        self.data[i - self.base]
    }

    fn range(&self, lo: usize, hi: usize) -> &[f64] {
        &self.data[lo - self.base..hi - self.base]
    }

    /// Marks frames below `lo` dead; physically compacts only when the dead
    /// prefix dominates, so the amortized cost is O(1) per frame.
    fn trim_to(&mut self, lo: usize) {
        if lo <= self.base {
            return;
        }
        let dead = lo - self.base;
        if dead > self.data.len() / 2 && dead > 256 {
            self.data.drain(..dead);
            self.base = lo;
        }
    }

    /// Retained physical length (for boundedness tests).
    fn retained(&self) -> usize {
        self.data.len()
    }

    /// Empties the tape in place, keeping its allocation.
    fn clear(&mut self) {
        self.data.clear();
        self.base = 0;
    }
}

/// A [`Segmenter`](crate::Segmenter) that consumes profile frames one at a
/// time.
///
/// Feed each frame with [`StreamingSegmenter::push_shift`] and (as they
/// become available from [`IncrementalDiff`])
/// [`StreamingSegmenter::push_acc`], then call
/// [`StreamingSegmenter::poll`]. Segments are emitted as soon as their end
/// is decidable for every possible continuation of the stream;
/// [`StreamingSegmenter::finish`] resolves the checks that needed the final
/// length. Emitted segments (early + finish) are exactly the offline
/// [`Segmenter::segment`](crate::Segmenter::segment) output.
#[derive(Debug, Clone)]
pub struct StreamingSegmenter {
    cfg: SegmentConfig,
    beta: f64,
    gamma: f64,
    t_gate: usize,
    /// Column period in µs — converts frame indices to trace ticks.
    hop_us: f64,
    shifts: Tape,
    acc: Tape,
    /// Interpreter position inside the batch scan loop.
    phase: SegmenterPhase,
    finished: bool,
}

impl StreamingSegmenter {
    /// Creates a streaming segmenter; `hop_s` is the profile's column
    /// period (thresholds scale with it exactly as in the batch segmenter).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `hop_s` is not positive.
    pub fn new(cfg: SegmentConfig, hop_s: f64) -> Self {
        if let Err(msg) = cfg.validate() {
            // echolint: allow(no-panic-path) -- documented `# Panics` contract of StreamingSegmenter::new
            panic!("invalid segmenter config: {msg}");
        }
        assert!(hop_s > 0.0, "hop period must be positive, got {hop_s}");
        let beta = cfg.beta_hz_per_s * hop_s;
        StreamingSegmenter {
            beta,
            gamma: beta * cfg.gamma_ratio,
            t_gate: cfg.min_frames.max(5),
            hop_us: hop_s * 1_000_000.0,
            cfg,
            shifts: Tape::default(),
            acc: Tape::default(),
            phase: SegmenterPhase::Scan { i: 0 },
            finished: false,
        }
    }

    /// Restores the segmenter to its fresh state in place, reusing the tape
    /// allocations (the thresholds are config-derived and kept).
    pub fn reset(&mut self) {
        self.shifts.clear();
        self.acc.clear();
        self.phase = SegmenterPhase::Scan { i: 0 };
        self.finished = false;
    }

    /// Appends one smoothed shift frame (Hz).
    pub fn push_shift(&mut self, hz: f64) {
        debug_assert!(!self.finished, "push_shift after finish");
        self.shifts.push(hz);
    }

    /// Appends one acceleration frame (Hz/frame). Must be fed in order and
    /// must trail or match the shift tape.
    pub fn push_acc(&mut self, a: f64) {
        debug_assert!(!self.finished, "push_acc after finish");
        self.acc.push(a);
        debug_assert!(self.acc.len() <= self.shifts.len(), "acceleration ahead of shifts");
    }

    /// Shift frames consumed so far.
    pub fn frames(&self) -> usize {
        self.shifts.len()
    }

    /// Physically retained frames (both tapes), for boundedness checks.
    pub fn retained_frames(&self) -> usize {
        self.shifts.retained().max(self.acc.retained())
    }

    /// Advances the interpreter as far as mid-stream decidability allows,
    /// appending every newly decided (and filter-passing) segment.
    pub fn poll(&mut self, out: &mut Vec<SegmentedStroke>) {
        if self.finished || self.shifts.len() < self.t_gate {
            return;
        }
        let n_sh = self.shifts.len();
        let n_ac = self.acc.len();
        loop {
            match self.phase {
                SegmenterPhase::Scan { i } => {
                    let run_end = i + self.cfg.arm_run;
                    let avail = n_ac.min(run_end);
                    // Any below-β frame inside the window kills this arm
                    // point for every possible n.
                    let failed = i < avail
                        && self.acc.range(i, avail).iter().any(|a| a.abs() <= self.beta);
                    if failed {
                        self.phase = SegmenterPhase::Scan { i: i + 1 };
                        continue;
                    }
                    if n_ac < run_end {
                        return; // window incomplete, all hot so far
                    }
                    let (start, best) = self.backtrack(i);
                    if best > self.cfg.start_max_hz {
                        self.phase = SegmenterPhase::Scan { i: i + 1 };
                        continue;
                    }
                    self.phase = SegmenterPhase::Forward { i, start, k: i + 1 };
                }
                SegmenterPhase::Forward { i, start, k } => {
                    // Quiet check: any hot frame in the available prefix
                    // fails it for every n; a complete all-quiet window
                    // passes it for every n.
                    let q_end = k + self.cfg.end_run;
                    let q_avail = n_ac.min(q_end);
                    let hot = k < q_avail
                        && self.acc.range(k, q_avail).iter().any(|a| a.abs() >= self.gamma);
                    let quiet_pass = !hot && n_ac >= q_end;
                    let end_decided = if quiet_pass {
                        true
                    } else {
                        // Rest check: a violation in the available prefix
                        // fails it whether or not the window fits before n;
                        // a complete violation-free window passes — and if
                        // the quiet window was truncated-but-clean, *either*
                        // check ends the stroke at k, so the end is decided
                        // even though the quiet check itself is not.
                        let r_end = k + self.cfg.rest_run;
                        let r_avail = n_sh.min(r_end);
                        let viol = k < r_avail
                            && self
                                .shifts
                                .range(k, r_avail)
                                .iter()
                                .any(|s| s.abs() > self.cfg.rest_max_hz);
                        let rest_pass = !viol && n_sh >= r_end;
                        if rest_pass && n_ac >= k {
                            true
                        } else if hot && viol {
                            self.phase = SegmenterPhase::Forward { i, start, k: k + 1 };
                            continue;
                        } else {
                            return; // undecidable until more data or finish
                        }
                    };
                    if end_decided {
                        let end = k;
                        self.emit(start, end, out);
                        self.phase = SegmenterPhase::Gap { end };
                    }
                }
                SegmenterPhase::Gap { end } => {
                    // Resume index needs min(end_run, n − end); decidable
                    // once the full quiet run fits before the tape head.
                    if n_sh < end + self.cfg.end_run {
                        return;
                    }
                    let next = end + self.cfg.end_run;
                    self.phase = SegmenterPhase::Scan { i: next };
                    let low = next.saturating_sub(self.cfg.max_backtrack);
                    self.shifts.trim_to(low);
                    self.acc.trim_to(low);
                }
            }
        }
    }

    /// Ends the session: replays the batch loop verbatim from the
    /// checkpoint, with the final length known. All acceleration frames
    /// must have been fed (the diff's own `finish` output included).
    pub fn finish(&mut self, out: &mut Vec<SegmentedStroke>) {
        if self.finished {
            return;
        }
        self.finished = true;
        let n = self.shifts.len();
        if n < self.t_gate {
            return;
        }
        debug_assert_eq!(self.acc.len(), n, "acceleration not fully fed before finish");
        match self.phase {
            SegmenterPhase::Scan { i } => self.batch_from(i, n, out),
            SegmenterPhase::Forward { i, start, k } => {
                let end = self.forward_from(k, n);
                self.emit(start, end, out);
                let next = end.max(i + 1) + self.cfg.end_run.min(n - end.min(n));
                self.batch_from(next, n, out);
            }
            SegmenterPhase::Gap { end } => {
                let next = end + self.cfg.end_run.min(n - end);
                self.batch_from(next, n, out);
            }
        }
    }

    /// The batch backward search for the near-zero start (final data only).
    fn backtrack(&self, i: usize) -> (usize, f64) {
        let lo = i.saturating_sub(self.cfg.max_backtrack);
        let mut start = i;
        let mut best = self.shifts.get(i).abs();
        let mut j = i;
        while j > lo && best > self.cfg.zero_shift_eps {
            j -= 1;
            let v = self.shifts.get(j).abs();
            if v < best {
                best = v;
                start = j;
            } else {
                break;
            }
        }
        (start, best)
    }

    /// The batch forward end search from `k`, with the final `n` known.
    fn forward_from(&self, mut k: usize, n: usize) -> usize {
        let mut end = n;
        while k < n {
            let quiet_end = (k + self.cfg.end_run).min(n);
            if self.acc.range(k, quiet_end).iter().all(|a| a.abs() < self.gamma) {
                end = k;
                break;
            }
            let rest_end = k + self.cfg.rest_run;
            if rest_end <= n
                && self
                    .shifts
                    .range(k, rest_end)
                    .iter()
                    .all(|s| s.abs() <= self.cfg.rest_max_hz)
            {
                end = k;
                break;
            }
            k += 1;
        }
        end
    }

    /// The batch scan loop from `i` with the final `n` known.
    fn batch_from(&mut self, mut i: usize, n: usize, out: &mut Vec<SegmentedStroke>) {
        while i < n {
            let run_end = i + self.cfg.arm_run;
            if run_end > n || self.acc.range(i, run_end).iter().any(|a| a.abs() <= self.beta) {
                i += 1;
                continue;
            }
            let (start, best) = self.backtrack(i);
            if best > self.cfg.start_max_hz {
                i += 1;
                continue;
            }
            let end = self.forward_from(i + 1, n);
            self.emit(start, end, out);
            i = end.max(i + 1) + self.cfg.end_run.min(n - end.min(n));
        }
    }

    /// Captures the dynamic state of this segmenter (both tapes with their
    /// absolute bases, the interpreter position, and the finish flag); the
    /// thresholds are config-derived and not included.
    pub fn export_state(&self) -> StreamingSegmenterState {
        StreamingSegmenterState {
            shifts_base: self.shifts.base,
            shifts: self.shifts.data.clone(),
            acc_base: self.acc.base,
            acc: self.acc.data.clone(),
            phase: self.phase,
            finished: self.finished,
        }
    }

    /// Overwrites this segmenter's dynamic state with a previously exported
    /// one, validating the interpreter position against the tapes first so
    /// a corrupted state is rejected instead of panicking on a later poll.
    /// The segmenter must have been built with the same config and hop the
    /// state was exported under.
    pub fn restore_state(&mut self, state: &StreamingSegmenterState) -> Result<(), &'static str> {
        let (Some(n_sh), Some(n_ac)) = (
            state.shifts_base.checked_add(state.shifts.len()),
            state.acc_base.checked_add(state.acc.len()),
        ) else {
            return Err("segmenter state: tape length overflows");
        };
        if n_ac > n_sh {
            return Err("segmenter state: acceleration tape ahead of shifts");
        }
        let bases_ok = |limit: usize| state.shifts_base <= limit && state.acc_base <= limit;
        match state.phase {
            SegmenterPhase::Scan { i } => {
                if i > n_sh {
                    return Err("segmenter state: scan position past the shift tape");
                }
                if !bases_ok(i.saturating_sub(self.cfg.max_backtrack)) {
                    return Err("segmenter state: tapes trimmed past the scan window");
                }
            }
            SegmenterPhase::Forward { i, start, k } => {
                if start > i || k <= i || k > n_ac {
                    return Err("segmenter state: inconsistent forward-search position");
                }
                if !bases_ok(start.min(i.saturating_sub(self.cfg.max_backtrack))) {
                    return Err("segmenter state: tapes trimmed past the armed stroke");
                }
            }
            SegmenterPhase::Gap { end } => {
                if end > n_sh || !bases_ok(end.saturating_sub(self.cfg.max_backtrack)) {
                    return Err("segmenter state: inconsistent gap position");
                }
            }
        }
        self.shifts.data.clear();
        self.shifts.data.extend_from_slice(&state.shifts);
        self.shifts.base = state.shifts_base;
        self.acc.data.clear();
        self.acc.data.extend_from_slice(&state.acc);
        self.acc.base = state.acc_base;
        self.phase = state.phase;
        self.finished = state.finished;
        Ok(())
    }

    /// The batch acceptance filters; pushes the segment (with its shifts)
    /// when they pass.
    fn emit(&mut self, start: usize, end: usize, out: &mut Vec<SegmentedStroke>) {
        let e = end.min(self.shifts.len());
        let active = self
            .acc
            .range(start, e)
            .iter()
            .filter(|a| a.abs() > self.gamma)
            .count();
        let peak = self.shifts.range(start, e).iter().fold(0.0f64, |m, s| m.max(s.abs()));
        let accepted = end - start >= self.cfg.min_frames
            && active >= self.cfg.min_active
            && peak >= self.cfg.min_peak_hz;
        if echowrite_trace::enabled() {
            let tick = (e as f64 * self.hop_us) as u64;
            let name = if accepted { "stroke_emitted" } else { "stroke_filtered" };
            echowrite_trace::annotated(
                echowrite_trace::Stage::Segment,
                name,
                tick,
                (end - start) as f64,
                echowrite_trace::SmallStr::from_display(format_args!("frames {start}..{end}")),
            );
        }
        if accepted {
            out.push(SegmentedStroke {
                segment: StrokeSegment { start, end },
                shifts: self.shifts.range(start, e).to_vec(),
            });
        }
    }
}

/// The streaming segmenter's interpreter position inside the batch scan
/// loop; exported as-is (see [`StreamingSegmenter::export_state`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmenterPhase {
    /// Outer loop at index `i`, not armed.
    Scan {
        /// Current scan index.
        i: usize,
    },
    /// Armed at `i` with backtracked `start`; forward end search at `k`.
    Forward {
        /// Arm index.
        i: usize,
        /// Backtracked stroke start.
        start: usize,
        /// Forward search position.
        k: usize,
    },
    /// Segment ended at `end` (already emitted or filtered); waiting to
    /// learn `min(end_run, n − end)` for the resume index.
    Gap {
        /// Frame the stroke ended at.
        end: usize,
    },
}

impl Default for SegmenterPhase {
    fn default() -> Self {
        SegmenterPhase::Scan { i: 0 }
    }
}

/// Plan-independent dynamic state of a [`StreamingSegmenter`]: both tapes
/// captured verbatim with their absolute base offsets (trimming is lazy, so
/// the physical window shape matters for bitwise replay), plus the
/// interpreter position.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamingSegmenterState {
    /// Absolute frame index of the first retained shift.
    pub shifts_base: usize,
    /// Retained smoothed shift frames.
    pub shifts: Vec<f64>,
    /// Absolute frame index of the first retained acceleration frame.
    pub acc_base: usize,
    /// Retained acceleration frames.
    pub acc: Vec<f64>,
    /// Interpreter position inside the scan loop.
    pub phase: SegmenterPhase,
    /// Whether `finish` has run.
    pub finished: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvce::{extract_profile_with_guard, DEFAULT_GUARD_BINS};
    use crate::profile::DopplerProfile;
    use crate::segment::Segmenter;
    use echowrite_dsp::filters::holoborodko_diff;
    use echowrite_spectro::Spectrogram;

    const HOP: f64 = 0.0232;

    fn add_stroke(shifts: &mut [f64], at: usize, len: usize, peak: f64) {
        for i in 0..len {
            let tau = i as f64 / (len - 1) as f64;
            shifts[at + i] += peak * (std::f64::consts::PI * tau).sin();
        }
    }

    /// Runs the full incremental chain (diff + segmenter) over a smoothed
    /// profile and returns (early segments, finish segments).
    fn run_streaming(profile: &[f64]) -> (Vec<SegmentedStroke>, Vec<SegmentedStroke>) {
        let mut seg = StreamingSegmenter::new(SegmentConfig::paper(), HOP);
        let mut diff = IncrementalDiff::new();
        let mut accs = Vec::new();
        let mut early = Vec::new();
        for &s in profile {
            seg.push_shift(s);
            accs.clear();
            diff.push(s, &mut accs);
            for &a in &accs {
                seg.push_acc(a);
            }
            seg.poll(&mut early);
        }
        accs.clear();
        diff.finish(&mut accs);
        for &a in &accs {
            seg.push_acc(a);
        }
        let mut late = Vec::new();
        seg.finish(&mut late);
        (early, late)
    }

    fn assert_matches_batch(profile: &[f64], label: &str) {
        let batch =
            Segmenter::default().segment(&DopplerProfile::new(profile.to_vec(), HOP));
        let (early, late) = run_streaming(profile);
        let streamed: Vec<SegmentedStroke> =
            early.into_iter().chain(late).collect();
        let spans: Vec<StrokeSegment> = streamed.iter().map(|s| s.segment).collect();
        assert_eq!(spans, batch, "{label}: segment spans diverge");
        for s in &streamed {
            assert_eq!(
                s.shifts,
                &profile[s.segment.start..s.segment.end],
                "{label}: carried shifts diverge"
            );
        }
    }

    #[test]
    fn incremental_diff_matches_batch_bitwise() {
        for n in 0..40usize {
            let y: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.7).sin() * 40.0 + (i as f64 * 2.3).cos() * 5.0)
                .collect();
            let batch = holoborodko_diff(&y);
            let mut diff = IncrementalDiff::new();
            let mut got = Vec::new();
            for &v in &y {
                diff.push(v, &mut got);
            }
            diff.finish(&mut got);
            assert_eq!(got.len(), batch.len(), "n = {n}");
            for (i, (a, b)) in got.iter().zip(&batch).enumerate() {
                assert!(a == b, "n = {n}, acc[{i}]: {a} vs {b}");
            }
        }
    }

    #[test]
    fn profile_builder_matches_batch_bitwise() {
        for cols in 0..25usize {
            let rows = 15;
            let mut spec = Spectrogram::zeros(rows, cols);
            for c in 0..cols {
                // A wandering blob above/below the carrier.
                let r = (7 + ((c * 5) % 11) as i64 - 5).clamp(0, rows as i64 - 1) as usize;
                spec.set(r, c, 1.0);
                if c % 3 == 0 && r + 1 < rows {
                    spec.set(r + 1, c, 1.0);
                }
            }
            let batch = extract_profile_with_guard(&spec, DEFAULT_GUARD_BINS);
            let mut builder =
                ProfileBuilder::new(spec.carrier_row(), DEFAULT_GUARD_BINS, 1.0);
            let mut got = Vec::new();
            for c in 0..cols {
                if let Some(v) = builder.push_column(&spec.column(c)) {
                    got.push(v);
                }
            }
            if let Some(v) = builder.finish() {
                got.push(v);
            }
            assert_eq!(got.len(), batch.len(), "cols = {cols}");
            for (i, (a, b)) in got.iter().zip(batch.shifts()).enumerate() {
                assert!(a == b, "cols = {cols}, smoothed[{i}]: {a} vs {b}");
            }
        }
    }

    #[test]
    fn quiet_profile_segments_match() {
        assert_matches_batch(&[0.0; 80], "quiet");
    }

    #[test]
    fn short_profiles_segments_match() {
        for n in 0..8usize {
            assert_matches_batch(&vec![100.0; n], &format!("short-{n}"));
        }
    }

    #[test]
    fn single_stroke_segments_match_and_emit_early() {
        let mut p = vec![0.0; 80];
        add_stroke(&mut p, 20, 14, 60.0);
        assert_matches_batch(&p, "single");
        // The stroke sits well before the tail: it must be decided early.
        let (early, late) = run_streaming(&p);
        assert_eq!(early.len(), 1, "stroke not emitted mid-stream");
        assert!(late.is_empty());
    }

    #[test]
    fn stroke_series_segments_match() {
        let mut p = vec![0.0; 300];
        for k in 0..5 {
            add_stroke(&mut p, 30 + k * 50, 14, if k % 2 == 0 { 55.0 } else { -65.0 });
        }
        assert_matches_batch(&p, "series");
    }

    #[test]
    fn stroke_at_stream_end_is_resolved_at_finish() {
        // The quiet window after the stroke is truncated by the session end:
        // only the finish replay can decide it.
        let mut p = vec![0.0; 40];
        add_stroke(&mut p, 24, 14, 60.0);
        assert_matches_batch(&p, "tail-stroke");
        let (early, late) = run_streaming(&p);
        assert_eq!(early.len() + late.len(), 1);
        assert_eq!(late.len(), 1, "tail stroke should resolve at finish");
    }

    #[test]
    fn rest_terminated_stroke_matches() {
        // After the stroke the shift jitters at ±5 Hz (inside rest_max) with
        // period-4 alternation, keeping |acc| above γ so the quiet check
        // keeps failing — only the rest rule can end the stroke.
        let mut p = vec![0.0; 120];
        add_stroke(&mut p, 20, 14, 60.0);
        for (j, v) in p.iter_mut().enumerate().skip(38).take(60) {
            *v = if (j / 2) % 2 == 0 { 5.0 } else { -5.0 };
        }
        assert_matches_batch(&p, "rest-tail");
    }

    #[test]
    fn interference_profiles_match() {
        let mut p = vec![0.0; 200];
        add_stroke(&mut p, 10, 70, 15.0); // slow drift
        add_stroke(&mut p, 100, 14, 65.0); // real stroke
        assert_matches_batch(&p, "interference");
        // Hot-everywhere profile: the forward search never breaks (end = n).
        let hot: Vec<f64> = (0..60).map(|i| ((i * 37) % 100) as f64 - 50.0).collect();
        assert_matches_batch(&hot, "hot-everywhere");
    }

    #[test]
    fn long_sessions_stay_bounded_and_match() {
        let mut p = vec![0.0; 4000];
        for k in 0..70 {
            add_stroke(&mut p, 25 + k * 55, 14, if k % 2 == 0 { 58.0 } else { -62.0 });
        }
        assert_matches_batch(&p, "long");
        // Retained window must not scale with session length.
        let mut seg = StreamingSegmenter::new(SegmentConfig::paper(), HOP);
        let mut diff = IncrementalDiff::new();
        let mut accs = Vec::new();
        let mut out = Vec::new();
        let mut max_retained = 0usize;
        for &s in &p {
            seg.push_shift(s);
            accs.clear();
            diff.push(s, &mut accs);
            for &a in &accs {
                seg.push_acc(a);
            }
            seg.poll(&mut out);
            max_retained = max_retained.max(seg.retained_frames());
        }
        assert_eq!(out.len(), 70);
        assert!(max_retained < 1200, "retained window grew to {max_retained}");
    }

    #[test]
    fn reset_stages_replay_bitwise() {
        let mut p = vec![0.0; 200];
        add_stroke(&mut p, 30, 14, 55.0);
        add_stroke(&mut p, 120, 14, -65.0);

        let mut seg = StreamingSegmenter::new(SegmentConfig::paper(), HOP);
        let mut diff = IncrementalDiff::new();
        let run = |seg: &mut StreamingSegmenter, diff: &mut IncrementalDiff| {
            let mut accs = Vec::new();
            let mut out = Vec::new();
            for &s in &p {
                seg.push_shift(s);
                accs.clear();
                diff.push(s, &mut accs);
                for &a in &accs {
                    seg.push_acc(a);
                }
                seg.poll(&mut out);
            }
            accs.clear();
            diff.finish(&mut accs);
            for &a in &accs {
                seg.push_acc(a);
            }
            seg.finish(&mut out);
            out
        };
        let first = run(&mut seg, &mut diff);
        seg.reset();
        diff.reset();
        let second = run(&mut seg, &mut diff);
        assert_eq!(first, second, "reset segmenter/diff must replay bitwise");
        assert_eq!(first.len(), 2);
    }

    #[test]
    fn state_roundtrip_resumes_bitwise() {
        let mut p = vec![0.0; 260];
        add_stroke(&mut p, 30, 14, 55.0);
        add_stroke(&mut p, 110, 14, -65.0);
        add_stroke(&mut p, 200, 14, 60.0);
        let (we, wl) = run_streaming(&p);
        let want: Vec<SegmentedStroke> = we.into_iter().chain(wl).collect();

        // Suspend while scanning, mid-stroke (armed), and inside the gap.
        for cut in [10usize, 36, 118, 205, 255] {
            let mut seg = StreamingSegmenter::new(SegmentConfig::paper(), HOP);
            let mut diff = IncrementalDiff::new();
            let mut builder_out = Vec::new();
            let mut accs = Vec::new();
            let mut feed = |seg: &mut StreamingSegmenter,
                            diff: &mut IncrementalDiff,
                            out: &mut Vec<SegmentedStroke>,
                            s: f64| {
                seg.push_shift(s);
                accs.clear();
                diff.push(s, &mut accs);
                for &a in &accs {
                    seg.push_acc(a);
                }
                seg.poll(out);
            };
            for &s in &p[..cut] {
                feed(&mut seg, &mut diff, &mut builder_out, s);
            }
            let seg_state = seg.export_state();
            let diff_state = diff.export_state();
            drop(seg);
            let mut seg = StreamingSegmenter::new(SegmentConfig::paper(), HOP);
            seg.restore_state(&seg_state).expect("valid exported state");
            let mut diff = IncrementalDiff::new();
            diff.restore_state(&diff_state);
            for &s in &p[cut..] {
                feed(&mut seg, &mut diff, &mut builder_out, s);
            }
            accs.clear();
            diff.finish(&mut accs);
            for &a in &accs {
                seg.push_acc(a);
            }
            seg.finish(&mut builder_out);
            assert_eq!(builder_out, want, "cut {cut} diverged after restore");
        }
    }

    #[test]
    fn segmenter_restore_rejects_corrupt_state() {
        let mut p = vec![0.0; 120];
        add_stroke(&mut p, 30, 14, 55.0);
        let mut seg = StreamingSegmenter::new(SegmentConfig::paper(), HOP);
        let mut diff = IncrementalDiff::new();
        let mut accs = Vec::new();
        let mut out = Vec::new();
        for &s in &p {
            seg.push_shift(s);
            accs.clear();
            diff.push(s, &mut accs);
            for &a in &accs {
                seg.push_acc(a);
            }
            seg.poll(&mut out);
        }
        let good = seg.export_state();
        let mut fresh = StreamingSegmenter::new(SegmentConfig::paper(), HOP);
        assert!(fresh.restore_state(&good).is_ok());

        let mut bad = good.clone();
        for _ in 0..4 {
            bad.acc.push(0.0);
        }
        assert!(fresh.restore_state(&bad).is_err(), "acc ahead of shifts accepted");

        let mut bad = good.clone();
        bad.shifts_base = usize::MAX / 2;
        assert!(fresh.restore_state(&bad).is_err(), "wild tape base accepted");

        let mut bad = good;
        bad.phase = SegmenterPhase::Forward { i: 5, start: 9, k: 6 };
        assert!(fresh.restore_state(&bad).is_err(), "start past arm accepted");
    }

    #[test]
    fn poll_before_gate_emits_nothing() {
        let mut seg = StreamingSegmenter::new(SegmentConfig::paper(), HOP);
        let mut out = Vec::new();
        for _ in 0..3 {
            seg.push_shift(100.0);
            seg.push_acc(100.0);
            seg.poll(&mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid segmenter config")]
    fn rejects_bad_config() {
        StreamingSegmenter::new(
            SegmentConfig { beta_hz_per_s: -1.0, ..SegmentConfig::paper() },
            HOP,
        );
    }
}
