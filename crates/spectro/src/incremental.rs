//! Column-at-a-time enhancement for the incremental streaming path.
//!
//! [`IncrementalEnhancer`] consumes raw ROI spectrogram columns one at a
//! time and emits finished binary columns as soon as they can no longer
//! change, producing output bitwise identical to running the offline
//! [`Enhancer::enhance`](crate::Enhancer::enhance) chain over the whole
//! session at once. Per-stage finality:
//!
//! - **median 3×3** — column `m` is an order statistic of a clamped window;
//!   final once raw column `m+1` exists (the last column clamps at finish).
//! - **background** — the per-row mean of the first `static_frames` median
//!   columns; frozen as soon as those columns are final, after which
//!   subtraction and the α threshold are pointwise.
//! - **Gaussian 5×5** — separable; the horizontal pass needs two columns of
//!   lookahead, the vertical pass is column-local.
//! - **binarization** — requires [`Normalization::FixedScale`]: the paper's
//!   global-max normalization is non-causal, so the streaming configuration
//!   trades it for a calibrated constant full-scale (see
//!   [`EnhanceConfig::streaming`]).
//! - **hole filling** — incremental union-find over per-column runs of
//!   background pixels. Border contact is monotone (once a region touches
//!   the border it stays unfillable) and regions are decided the moment
//!   they close (no run in the newest column), so columns are emitted in
//!   order with bounded delay: a column waits only while a hole spanning it
//!   is still open.

use crate::enhance::{EnhanceConfig, Normalization};
use crate::spectrogram::Spectrogram;
use echowrite_dsp::filters::gaussian_kernel;
use echowrite_dsp::kernels;
use std::collections::VecDeque;

/// Streaming counterpart of [`Enhancer`](crate::Enhancer): push raw ROI
/// columns, receive finished binary columns, batch-equivalent bitwise.
///
/// # Example
///
/// ```
/// use echowrite_spectro::{EnhanceConfig, IncrementalEnhancer};
/// let mut inc = IncrementalEnhancer::new(EnhanceConfig::streaming(), 16);
/// let mut got = Vec::new();
/// inc.push_column(&vec![1.0; 16], &mut |_, col| got.push(col.to_vec()));
/// inc.finish(&mut |_, col| got.push(col.to_vec()));
/// assert_eq!(got.len(), 1);
/// ```
#[derive(Debug)]
pub struct IncrementalEnhancer {
    cfg: EnhanceConfig,
    rows: usize,
    /// Effective binarization threshold on raw smoothed magnitudes.
    binarize_at: f64,
    kernel: Vec<f64>,
    ghalf: usize,
    /// Raw columns retained for the median window; its end is the count of
    /// raw columns received.
    raw: ColumnRing,
    /// Median columns finalized.
    med_n: usize,
    /// Median columns buffered until the background freezes.
    pre_bg: Vec<Vec<f64>>,
    background: Option<Vec<f64>>,
    /// Subtracted+thresholded columns retained for the Gaussian window; its
    /// end is the count of thresholded columns produced.
    thr: ColumnRing,
    /// Columns fully smoothed, binarized, and handed to hole filling.
    h_n: usize,
    holes: HoleFiller,
    /// Scratch for the Gaussian's horizontal pass.
    hcol: Vec<f64>,
    finished: bool,
}

impl IncrementalEnhancer {
    /// Creates an incremental enhancer for columns of `rows` bins.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation, uses
    /// [`Normalization::GlobalZeroOne`] (non-causal), or enables burst
    /// suppression (not yet streamable), or if `rows` is zero.
    pub fn new(cfg: EnhanceConfig, rows: usize) -> Self {
        if let Err(msg) = cfg.validate() {
            // echolint: allow(no-panic-path) -- documented `# Panics` contract of IncrementalEnhancer::new
            panic!("invalid enhancement config: {msg}");
        }
        assert!(rows > 0, "columns need at least one row");
        let scale = match cfg.normalization {
            Normalization::FixedScale(s) => s,
            Normalization::GlobalZeroOne => {
                // echolint: allow(no-panic-path) -- documented `# Panics` contract of IncrementalEnhancer::new
                panic!("incremental enhancement requires Normalization::FixedScale")
            }
        };
        assert!(
            cfg.burst_suppression.is_none(),
            "incremental enhancement does not support burst suppression"
        );
        let kernel = gaussian_kernel(cfg.gaussian_size, None);
        let ghalf = kernel.len() / 2;
        // Each ring holds its filter's window, the incoming column's slot
        // included; a background freeze flushes the whole lead-in into the
        // thresholded ring at once.
        let thr_cap = kernel.len().max(cfg.static_frames);
        IncrementalEnhancer {
            binarize_at: cfg.binarize_threshold * scale,
            rows,
            ghalf,
            raw: ColumnRing::new(rows, 3),
            med_n: 0,
            pre_bg: Vec::new(),
            background: None,
            thr: ColumnRing::new(rows, thr_cap),
            h_n: 0,
            holes: HoleFiller::new(rows),
            hcol: vec![0.0; rows],
            kernel,
            cfg,
            finished: false,
        }
    }

    /// Raw columns received so far.
    pub fn columns_in(&self) -> usize {
        self.raw.end()
    }

    /// Whether the static background has been frozen (the lead-in has
    /// completed or a warm reset carried one over).
    pub fn background_frozen(&self) -> bool {
        self.background.is_some()
    }

    /// Restores the enhancer to its fresh state in place, reusing every
    /// allocation. The next session re-estimates the static background from
    /// its own opening frames.
    pub fn reset(&mut self) {
        self.background = None;
        self.reset_keeping_background();
    }

    /// Like [`IncrementalEnhancer::reset`], but retains the frozen static
    /// background so the next session skips the `static_frames` lead-in:
    /// its opening columns are subtracted against the carried-over
    /// background immediately instead of being buffered for estimation.
    pub fn reset_keeping_background(&mut self) {
        self.raw.clear();
        self.med_n = 0;
        self.pre_bg.clear();
        self.thr.clear();
        self.h_n = 0;
        self.holes.reset();
        self.finished = false;
    }

    /// Binary columns emitted so far.
    pub fn columns_out(&self) -> usize {
        self.holes.next_emit
    }

    /// Appends one raw ROI column; `sink` receives `(column_index, binary
    /// column)` for every output column that became final.
    ///
    /// Magnitudes must be finite and `+0.0` or greater, the domain on which
    /// the median kernel is bitwise (debug builds assert it).
    ///
    /// # Panics
    ///
    /// Panics if `raw.len() != rows` or the enhancer is already finished.
    pub fn push_column(&mut self, raw: &[f64], sink: &mut impl FnMut(usize, &[f64])) {
        assert!(!self.finished, "push_column after finish");
        assert_eq!(raw.len(), self.rows, "column length mismatch");
        debug_assert!(
            raw.iter().all(|v| v.is_finite() && v.is_sign_positive()),
            "raw column holds a magnitude that is not finite and non-negative"
        );
        self.raw.push_slot().copy_from_slice(raw);
        let (frozen_before, out_before) = (self.background.is_some(), self.columns_out());
        self.advance(None, sink);
        if echowrite_trace::enabled() {
            use echowrite_trace::{SmallStr, Stage, TICK_UNSET};
            if !frozen_before && self.background.is_some() {
                echowrite_trace::instant(
                    Stage::Enhance,
                    "background_frozen",
                    TICK_UNSET,
                    SmallStr::empty(),
                );
            }
            echowrite_trace::counter(
                Stage::Enhance,
                "columns_out",
                TICK_UNSET,
                (self.columns_out() - out_before) as f64,
            );
        }
    }

    /// Ends the session: flushes edge-clamped columns and closes every open
    /// hole region. Output columns emitted before and during `finish`
    /// concatenate to exactly the offline enhancement of the whole session.
    pub fn finish(&mut self, sink: &mut impl FnMut(usize, &[f64])) {
        if self.finished {
            return;
        }
        self.finished = true;
        if self.raw.end() == 0 {
            return;
        }
        self.advance(Some(self.raw.end()), sink);
        self.holes.finish(sink);
    }

    /// Runs every stage as far as finality allows; `total` is the session
    /// column count once known (at finish).
    fn advance(&mut self, total: Option<usize>, sink: &mut impl FnMut(usize, &[f64])) {
        // Stage 1: median columns, then background freeze + subtraction + α.
        loop {
            let m = self.med_n;
            let computable = match total {
                Some(t) => m < t,
                // Column m clamps columns up to m + 1; final once the
                // window's rightmost real column exists.
                None => m + 1 < self.raw.end(),
            };
            if !computable {
                break;
            }
            self.median_column(m, total);
            self.med_n += 1;
            self.raw.trim_to(self.med_n.saturating_sub(1));
            let freeze = self.background.is_none()
                && (self.pre_bg.len() == self.cfg.static_frames || total == Some(self.med_n));
            if freeze {
                self.freeze_background();
            }
        }
        // Stage 2: Gaussian smoothing (two-column lookahead), binarization,
        // and incremental hole filling.
        loop {
            let c = self.h_n;
            let computable = match total {
                Some(t) => c < t,
                None => c + self.ghalf < self.thr.end(),
            };
            if !computable {
                break;
            }
            let col = self.smooth_binarize_column(c, total);
            self.h_n += 1;
            self.thr.trim_to(self.h_n.saturating_sub(self.ghalf));
            self.holes.push_column(col, sink);
        }
    }

    /// The 3×3 median of the clamped window centred on column `m` — the
    /// kernel [`crate::image::median_filter_2d`] runs along rows, here over
    /// raw columns `m−1`, `m`, `m+1` — buffered for the background
    /// estimate, or, once it is frozen, subtracted and thresholded straight
    /// into the thresholded ring.
    fn median_column(&mut self, m: usize, total: Option<usize>) {
        let last = total.unwrap_or(self.raw.end()) - 1;
        let lines = [
            self.raw.col(m.saturating_sub(1)),
            self.raw.col(m),
            self.raw.col((m + 1).min(last)),
        ];
        match &self.background {
            Some(bg) => {
                let col = self.thr.push_slot();
                kernels::median3x3(col, lines);
                subtract_and_threshold(col, bg, self.cfg.alpha);
            }
            None => {
                let mut col = vec![0.0; self.rows];
                kernels::median3x3(&mut col, lines);
                self.pre_bg.push(col);
            }
        }
    }

    /// Freezes the background as the per-row mean (ascending column order,
    /// matching `row[..n].iter().sum()`) of the buffered median columns,
    /// then flushes them through subtraction and the α threshold.
    fn freeze_background(&mut self) {
        let n = self.pre_bg.len();
        debug_assert!(n > 0);
        let mut bg = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let mut sum = 0.0;
            for col in &self.pre_bg {
                sum += col[r];
            }
            bg.push(sum / n as f64);
        }
        for buffered in self.pre_bg.drain(..) {
            let col = self.thr.push_slot();
            col.copy_from_slice(&buffered);
            subtract_and_threshold(col, &bg, self.cfg.alpha);
        }
        self.background = Some(bg);
    }

    /// Horizontal then vertical Gaussian pass for column `c` (accumulation
    /// order identical to [`crate::image::gaussian_filter_2d_in_place`]),
    /// then fixed-scale binarization.
    fn smooth_binarize_column(&mut self, c: usize, total: Option<usize>) -> Vec<f64> {
        let half = self.ghalf as isize;
        let hi_col = total.map(|t| t as isize - 1);
        // Horizontal pass as one axpy per tap: each element accumulates its
        // taps in ascending k from zero, exactly like the scalar per-row loop
        // (and the offline pass), so the result is bitwise identical.
        self.hcol.fill(0.0);
        for (k, &kv) in self.kernel.iter().enumerate() {
            let mut cc = (c as isize + k as isize - half).max(0);
            if let Some(hi) = hi_col {
                cc = cc.min(hi);
            }
            kernels::axpy(&mut self.hcol, self.thr.col(cc as usize), kv);
        }
        // Vertical pass: clamped convolution down the column, then the
        // fixed-scale binarization, both SIMD-dispatched.
        let mut out = vec![0.0; self.rows];
        kernels::conv1d_clamped_into(&mut out, &self.hcol, &self.kernel);
        kernels::binarize(&mut out, self.binarize_at);
        out
    }

    /// Captures the dynamic state of this enhancer, detached from its
    /// config-derived plan (kernel, thresholds, scratch). Paired with an
    /// identically configured enhancer via
    /// [`IncrementalEnhancer::restore_state`], further pushes emit bitwise
    /// the same columns an uninterrupted enhancer would.
    pub fn export_state(&self) -> EnhancerState {
        EnhancerState {
            raw_base: self.raw.base,
            raw_cols: self.raw.export(),
            raw_n: self.raw.end(),
            med_n: self.med_n,
            pre_bg: self.pre_bg.clone(),
            background: self.background.clone(),
            thr_base: self.thr.base,
            thr_cols: self.thr.export(),
            thr_n: self.thr.end(),
            h_n: self.h_n,
            holes: self.holes.export_state(),
            finished: self.finished,
        }
    }

    /// Overwrites this enhancer's dynamic state with a previously exported
    /// one, validating every internal invariant first so a corrupted or
    /// hand-built state is rejected with an error instead of panicking (or
    /// looping, or reading a column its ring no longer holds) later. The
    /// enhancer must have been built with the same config and row count the
    /// state was exported under.
    pub fn restore_state(&mut self, state: &EnhancerState) -> Result<(), &'static str> {
        let rows = self.rows;
        let col_ok = |cols: &[Vec<f64>]| cols.iter().all(|c| c.len() == rows);
        if !col_ok(&state.raw_cols) || !col_ok(&state.pre_bg) || !col_ok(&state.thr_cols) {
            return Err("enhancer state: column length differs from row count");
        }
        if let Some(bg) = &state.background {
            if bg.len() != rows {
                return Err("enhancer state: background length differs from row count");
            }
            if !state.pre_bg.is_empty() {
                return Err("enhancer state: frozen background with buffered lead-in");
            }
            if state.thr_n != state.med_n {
                return Err("enhancer state: thresholded count differs from the median count");
            }
        } else {
            if state.thr_n != 0 || state.h_n != 0 {
                return Err("enhancer state: thresholded columns before background froze");
            }
            if state.pre_bg.len() >= self.cfg.static_frames {
                return Err("enhancer state: lead-in buffer at or past the freeze point");
            }
            if state.pre_bg.len() != state.med_n {
                return Err("enhancer state: lead-in buffer differs from the median count");
            }
        }
        // A retained window must leave the slot its next column is written
        // to; no exported state comes near, but a hand-built one can.
        if state.raw_cols.len() >= self.raw.cap || state.thr_cols.len() >= self.thr.cap {
            return Err("enhancer state: retained window does not fit the column ring");
        }
        // An exported state sits exactly where `advance` stops: each stage
        // as far as its lookahead allows while streaming, caught up once
        // finished, and each window trimmed to what the next column reads.
        // A state anywhere else would overrun a ring or read a trimmed
        // column on a later push.
        let (med_end, h_end) = if state.finished {
            (state.raw_n, state.thr_n)
        } else {
            (state.raw_n.saturating_sub(1), state.thr_n.saturating_sub(self.ghalf))
        };
        if state.raw_base.checked_add(state.raw_cols.len()) != Some(state.raw_n)
            || state.med_n != med_end
            || state.raw_base != state.med_n.saturating_sub(1)
        {
            return Err("enhancer state: inconsistent raw column window");
        }
        if state.thr_base.checked_add(state.thr_cols.len()) != Some(state.thr_n)
            || state.h_n != h_end
            || state.thr_base != state.h_n.saturating_sub(self.ghalf)
        {
            return Err("enhancer state: inconsistent thresholded column window");
        }
        if state.h_n != state.holes.pushed {
            return Err("enhancer state: hole-filler input count mismatch");
        }
        self.holes.restore_state(&state.holes, rows)?;
        self.raw.restore(state.raw_base, &state.raw_cols);
        self.med_n = state.med_n;
        self.pre_bg = state.pre_bg.clone();
        self.background = state.background.clone();
        self.thr.restore(state.thr_base, &state.thr_cols);
        self.h_n = state.h_n;
        self.finished = state.finished;
        Ok(())
    }
}

/// Plan-independent dynamic state of an [`IncrementalEnhancer`]: retained
/// column windows with their absolute base offsets, the (possibly frozen)
/// static background, per-stage column counters, and the hole filler's
/// union-find arena, captured verbatim so a restored enhancer replays
/// bitwise. Config-derived fields (kernel, thresholds, scratch) are absent
/// and rebuilt from the receiving enhancer's configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnhancerState {
    /// Absolute index of the first retained raw column.
    pub raw_base: usize,
    /// Raw columns retained for the median window.
    pub raw_cols: Vec<Vec<f64>>,
    /// Raw columns received.
    pub raw_n: usize,
    /// Median columns finalized.
    pub med_n: usize,
    /// Median columns buffered until the background freezes.
    pub pre_bg: Vec<Vec<f64>>,
    /// The frozen per-row static background, once estimated.
    pub background: Option<Vec<f64>>,
    /// Absolute index of the first retained thresholded column.
    pub thr_base: usize,
    /// Subtracted + thresholded columns retained for the Gaussian window.
    pub thr_cols: Vec<Vec<f64>>,
    /// Thresholded columns produced.
    pub thr_n: usize,
    /// Columns handed to hole filling.
    pub h_n: usize,
    /// Hole-filler union-find state.
    pub holes: HoleFillerState,
    /// Whether `finish` has run.
    pub finished: bool,
}

/// Background runs `(r0, r1, node)` of one spectrogram column.
pub type ColumnRuns = Vec<(usize, usize, usize)>;

/// An undecided column held back by the hole filler: its pixel data plus
/// its background runs.
pub type PendingColumn = (Vec<f64>, ColumnRuns);

/// Dynamic state of the incremental hole filler: the union-find arena
/// (captured verbatim — compaction only runs on push, so the arena shape is
/// part of the bitwise-replay contract), the newest column's runs, and the
/// undecided column queue.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HoleFillerState {
    /// Union-find parent array (entries always point at equal or higher
    /// ids, so lookups terminate).
    pub parent: Vec<usize>,
    /// Root-indexed: component touches the border.
    pub border: Vec<bool>,
    /// Root-indexed: newest column holding one of the component's runs.
    pub last_col: Vec<usize>,
    /// Background runs `(r0, r1, node)` of the newest pushed column.
    pub frontier: ColumnRuns,
    /// Undecided columns awaiting emission, oldest first.
    pub pending: Vec<PendingColumn>,
    /// Columns pushed so far.
    pub pushed: usize,
    /// Next output column index.
    pub next_emit: usize,
}

/// Background subtraction (clamped at zero) plus the α threshold,
/// pointwise as in the offline chain.
fn subtract_and_threshold(col: &mut [f64], background: &[f64], alpha: f64) {
    kernels::subtract_clamp_bg(col, background);
    kernels::threshold_zero(col, alpha);
}

/// Absolute-indexed window of the newest columns in one flat `rows × cap`
/// buffer allocated at construction: column `i` lives in slot `i % cap`,
/// so pushing and trimming never allocate and every column is a
/// contiguous slice.
#[derive(Debug)]
struct ColumnRing {
    rows: usize,
    cap: usize,
    data: Vec<f64>,
    /// Absolute index of the first retained column.
    base: usize,
    /// Retained columns.
    len: usize,
}

impl ColumnRing {
    fn new(rows: usize, cap: usize) -> Self {
        ColumnRing { rows, cap, data: vec![0.0; rows * cap], base: 0, len: 0 }
    }

    /// One past the newest column's absolute index.
    fn end(&self) -> usize {
        self.base + self.len
    }

    /// Column `i`, which must still be retained: a slot outside the window
    /// holds an older or newer column.
    fn col(&self, i: usize) -> &[f64] {
        assert!(i >= self.base && i < self.end(), "column {i} not retained");
        let start = i % self.cap * self.rows;
        &self.data[start..start + self.rows]
    }

    /// Appends a column and returns its slot for the caller to fill.
    fn push_slot(&mut self) -> &mut [f64] {
        assert!(self.len < self.cap, "column ring overflow");
        let start = self.end() % self.cap * self.rows;
        self.len += 1;
        &mut self.data[start..start + self.rows]
    }

    /// Drops retained columns below absolute index `lo`.
    fn trim_to(&mut self, lo: usize) {
        let drop = lo.saturating_sub(self.base).min(self.len);
        self.base += drop;
        self.len -= drop;
    }

    fn clear(&mut self) {
        self.base = 0;
        self.len = 0;
    }

    fn export(&self) -> Vec<Vec<f64>> {
        (self.base..self.end()).map(|i| self.col(i).to_vec()).collect()
    }

    /// Replaces the window with `cols` starting at absolute index `base`;
    /// the caller has checked that they fit.
    fn restore(&mut self, base: usize, cols: &[Vec<f64>]) {
        self.base = base;
        self.len = 0;
        for col in cols {
            self.push_slot().copy_from_slice(col);
        }
    }
}

/// Incremental hole filling: union-find over per-column background runs.
///
/// Equivalent to [`crate::image::fill_holes_in_place`]: a background pixel
/// is filled iff its 4-connected background component never touches the
/// image border. Components are decided as soon as they either touch the
/// border (decision "keep 0", monotone) or close (no run in the newest
/// column — nothing later can reconnect, decision "fill"). Finished columns
/// are emitted strictly in order.
#[derive(Debug)]
struct HoleFiller {
    rows: usize,
    parent: Vec<usize>,
    /// Root-indexed: component touches the border.
    border: Vec<bool>,
    /// Root-indexed: newest column holding one of the component's runs.
    last_col: Vec<usize>,
    /// Background runs `(r0, r1, node)` of the newest pushed column.
    frontier: Vec<(usize, usize, usize)>,
    pending: VecDeque<PendingCol>,
    pushed: usize,
    next_emit: usize,
}

#[derive(Debug)]
struct PendingCol {
    data: Vec<f64>,
    runs: Vec<(usize, usize, usize)>,
}

impl HoleFiller {
    fn new(rows: usize) -> Self {
        HoleFiller {
            rows,
            parent: Vec::new(),
            border: Vec::new(),
            last_col: Vec::new(),
            frontier: Vec::new(),
            pending: VecDeque::new(),
            pushed: 0,
            next_emit: 0,
        }
    }

    /// Clears every component and pending column, reusing the allocations.
    fn reset(&mut self) {
        self.parent.clear();
        self.border.clear();
        self.last_col.clear();
        self.frontier.clear();
        self.pending.clear();
        self.pushed = 0;
        self.next_emit = 0;
    }

    /// Root of `x`, halving the path on the way (an associated function so
    /// callers can hold other fields borrowed).
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = Self::find(&mut self.parent, a);
        let rb = Self::find(&mut self.parent, b);
        if ra == rb {
            return;
        }
        self.parent[rb] = ra;
        self.border[ra] |= self.border[rb];
        self.last_col[ra] = self.last_col[ra].max(self.last_col[rb]);
    }

    fn new_node(&mut self, col: usize, border: bool) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        self.border.push(border);
        self.last_col.push(col);
        id
    }

    fn push_column(&mut self, data: Vec<f64>, sink: &mut impl FnMut(usize, &[f64])) {
        let c = self.pushed;
        self.pushed += 1;
        let mut runs: Vec<(usize, usize, usize)> = Vec::new();
        let mut r = 0;
        while r < self.rows {
            if data[r] == 0.0 {
                let r0 = r;
                while r + 1 < self.rows && data[r + 1] == 0.0 {
                    r += 1;
                }
                let r1 = r;
                let touches_border = r0 == 0 || r1 == self.rows - 1 || c == 0;
                let node = self.new_node(c, touches_border);
                // 4-connectivity: union with row-overlapping runs of the
                // previous column.
                let prev = std::mem::take(&mut self.frontier);
                for &(p0, p1, pn) in &prev {
                    if p0 <= r1 && r0 <= p1 {
                        self.union(node, pn);
                        let root = Self::find(&mut self.parent, node);
                        self.last_col[root] = c;
                    }
                }
                self.frontier = prev;
                runs.push((r0, r1, node));
            }
            r += 1;
        }
        self.frontier.clear();
        self.frontier.extend_from_slice(&runs);
        self.pending.push_back(PendingCol { data, runs });
        self.drain(false, sink);
        self.maybe_compact();
    }

    /// Emits pending columns from the front while every run in them is
    /// decided (border, or closed before the newest column).
    fn drain(&mut self, final_flush: bool, sink: &mut impl FnMut(usize, &[f64])) {
        let newest = self.pushed.wrapping_sub(1);
        loop {
            let HoleFiller { parent, border, last_col, pending, .. } = self;
            let Some(front) = pending.front() else { break };
            let decided = front.runs.iter().all(|&(_, _, node)| {
                let root = Self::find(parent, node);
                border[root] || final_flush || last_col[root] < newest
            });
            if !decided {
                break;
            }
            if let Some(mut front) = self.pending.pop_front() {
                for &(r0, r1, node) in &front.runs {
                    let root = Self::find(&mut self.parent, node);
                    if !self.border[root] {
                        for v in &mut front.data[r0..=r1] {
                            *v = 1.0;
                        }
                    }
                }
                sink(self.next_emit, &front.data);
                self.next_emit += 1;
            }
        }
    }

    /// Marks the final column's runs as border-connected (the right image
    /// edge) and flushes everything still pending.
    fn finish(&mut self, sink: &mut impl FnMut(usize, &[f64])) {
        let frontier = std::mem::take(&mut self.frontier);
        for &(_, _, node) in &frontier {
            let root = Self::find(&mut self.parent, node);
            self.border[root] = true;
        }
        self.drain(true, sink);
        debug_assert!(self.pending.is_empty());
    }

    fn export_state(&self) -> HoleFillerState {
        HoleFillerState {
            parent: self.parent.clone(),
            border: self.border.clone(),
            last_col: self.last_col.clone(),
            frontier: self.frontier.clone(),
            pending: self
                .pending
                .iter()
                .map(|p| (p.data.clone(), p.runs.clone()))
                .collect(),
            pushed: self.pushed,
            next_emit: self.next_emit,
        }
    }

    /// Validating restore: rejects arenas whose parent pointers could make
    /// `find` loop or index out of bounds, runs outside `[0, rows)`, and
    /// column counters that disagree with the pending queue.
    fn restore_state(&mut self, state: &HoleFillerState, rows: usize) -> Result<(), &'static str> {
        let n = state.parent.len();
        if state.border.len() != n || state.last_col.len() != n {
            return Err("hole filler state: arena array lengths disagree");
        }
        // Live arenas only ever point at equal-or-higher ids (unions root
        // older components under the newest node), which is also exactly
        // what makes the path-halving `find` terminate.
        if state.parent.iter().enumerate().any(|(i, &p)| p < i || p >= n) {
            return Err("hole filler state: parent pointer out of range");
        }
        let runs_ok = |runs: &[(usize, usize, usize)]| {
            runs.iter().all(|&(r0, r1, node)| r0 <= r1 && r1 < rows && node < n)
        };
        if !runs_ok(&state.frontier) {
            return Err("hole filler state: frontier run out of range");
        }
        for (data, runs) in &state.pending {
            if data.len() != rows || !runs_ok(runs) {
                return Err("hole filler state: pending column out of range");
            }
        }
        if state.next_emit.checked_add(state.pending.len()) != Some(state.pushed) {
            return Err("hole filler state: column counters disagree");
        }
        self.parent = state.parent.clone();
        self.border = state.border.clone();
        self.last_col = state.last_col.clone();
        self.frontier = state.frontier.clone();
        self.pending.clear();
        self.pending.extend(
            state
                .pending
                .iter()
                .map(|(data, runs)| PendingCol { data: data.clone(), runs: runs.clone() }),
        );
        self.pushed = state.pushed;
        self.next_emit = state.next_emit;
        Ok(())
    }

    /// Rebuilds the union-find arena once nothing but the frontier is live,
    /// bounding memory over arbitrarily long sessions.
    fn maybe_compact(&mut self) {
        if !self.pending.is_empty() || self.parent.len() < 4096 {
            return;
        }
        let frontier = std::mem::take(&mut self.frontier);
        let mut roots: Vec<(usize, usize)> = Vec::new();
        let mut fresh: Vec<(usize, usize, usize)> = Vec::with_capacity(frontier.len());
        let mut parent = Vec::new();
        let mut border = Vec::new();
        let mut last_col = Vec::new();
        for &(r0, r1, node) in &frontier {
            let root = Self::find(&mut self.parent, node);
            let id = match roots.iter().find(|&&(old, _)| old == root) {
                Some(&(_, id)) => id,
                None => {
                    let id = parent.len();
                    parent.push(id);
                    border.push(self.border[root]);
                    last_col.push(self.last_col[root]);
                    roots.push((root, id));
                    id
                }
            };
            fresh.push((r0, r1, id));
        }
        self.parent = parent;
        self.border = border;
        self.last_col = last_col;
        self.frontier = fresh;
    }
}

/// Convenience: runs a whole spectrogram through the incremental enhancer
/// and reassembles the result (testing / diagnostics; the streaming path
/// consumes columns directly).
pub fn enhance_incrementally(cfg: EnhanceConfig, spec: &Spectrogram) -> Spectrogram {
    let mut out = Spectrogram::zeros(spec.rows(), spec.cols());
    out.set_carrier_row(spec.carrier_row());
    if spec.cols() == 0 {
        return out;
    }
    let mut inc = IncrementalEnhancer::new(cfg, spec.rows());
    let mut cols: Vec<Vec<f64>> = Vec::new();
    let mut sink = |_idx: usize, col: &[f64]| cols.push(col.to_vec());
    for c in 0..spec.cols() {
        inc.push_column(&spec.column(c), &mut sink);
    }
    inc.finish(&mut sink);
    assert_eq!(cols.len(), spec.cols(), "incremental enhancer lost columns");
    for (c, col) in cols.iter().enumerate() {
        for (r, &v) in col.iter().enumerate() {
            out.set(r, c, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enhance::Enhancer;

    /// Synthetic ROI spectrogram with a carrier, noise floor, a stroke blob,
    /// and a deliberate enclosed hole after binarization.
    fn synthetic(rows: usize, cols: usize, seed: u64) -> Spectrogram {
        let mut s = Spectrogram::zeros(rows, cols);
        let cf = s.carrier_row();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for c in 0..cols {
            for r in 0..rows {
                s.set(r, c, next() * 2.0);
            }
            s.set(cf, c, 900.0);
            if c >= 8 && cols > 14 && c < cols - 4 {
                let k = (c - 8) as f64 / (cols - 12) as f64;
                let peak = cf + 3 + (10.0 * (std::f64::consts::PI * k).sin()) as usize;
                for r in cf + 1..=peak.min(rows - 1) {
                    // Carve a hole in the middle of the blob.
                    let v = if r == cf + 2 && (10..14).contains(&c) { 0.0 } else { 60.0 };
                    s.set(r, c, v);
                }
            }
        }
        s
    }

    fn assert_bitwise_equal(a: &Spectrogram, b: &Spectrogram, label: &str) {
        assert_eq!(a.rows(), b.rows(), "{label}: rows");
        assert_eq!(a.cols(), b.cols(), "{label}: cols");
        for c in 0..a.cols() {
            for r in 0..a.rows() {
                assert!(
                    a.get(r, c) == b.get(r, c),
                    "{label}: cell ({r}, {c}) diverges: {} vs {}",
                    a.get(r, c),
                    b.get(r, c)
                );
            }
        }
    }

    #[test]
    fn incremental_matches_batch_across_shapes() {
        let cfg = EnhanceConfig::streaming();
        let batch = Enhancer::new(cfg);
        for cols in [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 40] {
            for rows in [9usize, 32] {
                let spec = synthetic(rows, cols, (rows * 100 + cols) as u64);
                let offline = batch.enhance(&spec);
                let streamed = enhance_incrementally(cfg, &spec);
                assert_bitwise_equal(&streamed, &offline, &format!("{rows}×{cols}"));
            }
        }
    }

    #[test]
    fn incremental_matches_batch_on_quiet_input() {
        let cfg = EnhanceConfig::streaming();
        let spec = Spectrogram::zeros(24, 30);
        let offline = Enhancer::new(cfg).enhance(&spec);
        let streamed = enhance_incrementally(cfg, &spec);
        assert_bitwise_equal(&streamed, &offline, "quiet");
    }

    #[test]
    fn holes_enclosed_across_many_columns_still_fill() {
        // A long horizontal tube: 1-borders above and below, open for many
        // columns, sealed at both ends — must fill exactly like the batch
        // flood fill, exercising the long-pending drain path.
        let rows = 11;
        let cols = 60;
        let mut spec = Spectrogram::zeros(rows, cols);
        for c in 4..50 {
            for r in 3..8 {
                spec.set(r, c, if (4..7).contains(&r) && (5..49).contains(&c) { 0.0 } else { 60.0 });
            }
        }
        // Feed pre-binarized data through the shared hole filler directly.
        let mut filler = HoleFiller::new(rows);
        let mut got: Vec<Vec<f64>> = Vec::new();
        for c in 0..cols {
            let col: Vec<f64> = (0..rows)
                .map(|r| if spec.get(r, c) > 0.0 { 1.0 } else { 0.0 })
                .collect();
            filler.push_column(col, &mut |_, col| got.push(col.to_vec()));
        }
        filler.finish(&mut |_, col| got.push(col.to_vec()));
        assert_eq!(got.len(), cols);
        let mut bin = Spectrogram::zeros(rows, cols);
        for (c, col) in got.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                bin.set(r, c, v);
            }
        }
        let mut reference = Spectrogram::zeros(rows, cols);
        for c in 0..cols {
            for r in 0..rows {
                reference.set(r, c, if spec.get(r, c) > 0.0 { 1.0 } else { 0.0 });
            }
        }
        let expected = crate::image::fill_holes(&reference);
        assert_bitwise_equal(&bin, &expected, "tube");
    }

    #[test]
    fn compaction_keeps_long_sessions_bounded_and_correct() {
        let rows = 9;
        let mut filler = HoleFiller::new(rows);
        let mut emitted = 0usize;
        // Alternate small blobs and quiet gaps for many columns; quiet
        // columns are border-connected, so pending drains and compaction
        // can run.
        for c in 0..30_000usize {
            let col: Vec<f64> = (0..rows)
                .map(|r| if c % 7 < 3 && (3..6).contains(&r) { 1.0 } else { 0.0 })
                .collect();
            filler.push_column(col, &mut |_, _| emitted += 1);
        }
        filler.finish(&mut |_, _| emitted += 1);
        assert_eq!(emitted, 30_000);
        assert!(
            filler.parent.len() < 10_000,
            "union-find arena grew to {}",
            filler.parent.len()
        );
    }

    #[test]
    fn reset_replays_bitwise_and_warm_reset_keeps_background() {
        let cfg = EnhanceConfig::streaming();
        let spec = synthetic(24, 30, 77);
        let fresh = enhance_incrementally(cfg, &spec);

        let mut inc = IncrementalEnhancer::new(cfg, spec.rows());
        let mut sink_null = |_: usize, _: &[f64]| {};
        for c in 0..spec.cols() {
            inc.push_column(&spec.column(c), &mut sink_null);
        }
        inc.finish(&mut sink_null);
        assert!(inc.background_frozen());

        // Cold reset: a second session through the same enhancer is bitwise
        // the fresh run.
        inc.reset();
        assert!(!inc.background_frozen());
        let mut cols: Vec<Vec<f64>> = Vec::new();
        let mut sink = |_: usize, col: &[f64]| cols.push(col.to_vec());
        for c in 0..spec.cols() {
            inc.push_column(&spec.column(c), &mut sink);
        }
        inc.finish(&mut sink);
        assert_eq!(cols.len(), fresh.cols());
        for (c, col) in cols.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                assert!(v == fresh.get(r, c), "cold reset diverges at ({r}, {c})");
            }
        }

        // Warm reset: the background survives, so the same audio replays
        // bitwise (the frozen estimate equals what a fresh lead-in computes).
        inc.reset_keeping_background();
        assert!(inc.background_frozen(), "warm reset must keep the background");
        let mut cols: Vec<Vec<f64>> = Vec::new();
        let mut sink = |_: usize, col: &[f64]| cols.push(col.to_vec());
        for c in 0..spec.cols() {
            inc.push_column(&spec.column(c), &mut sink);
        }
        inc.finish(&mut sink);
        assert_eq!(cols.len(), fresh.cols());
        for (c, col) in cols.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                assert!(v == fresh.get(r, c), "warm reset diverges at ({r}, {c})");
            }
        }
    }

    #[test]
    fn state_roundtrip_resumes_bitwise() {
        let cfg = EnhanceConfig::streaming();
        let spec = synthetic(24, 60, 99);
        let fresh = enhance_incrementally(cfg, &spec);

        // Suspend at points before and after the background freezes and
        // while holes are pending, restore into a fresh enhancer, finish:
        // the concatenated output must be bitwise the uninterrupted run.
        for cut in [1usize, 5, 12, 30, 55] {
            let mut first = IncrementalEnhancer::new(cfg, spec.rows());
            let mut cols: Vec<Vec<f64>> = Vec::new();
            let mut sink = |_: usize, col: &[f64]| cols.push(col.to_vec());
            for c in 0..cut {
                first.push_column(&spec.column(c), &mut sink);
            }
            let state = first.export_state();
            drop(first);
            let mut resumed = IncrementalEnhancer::new(cfg, spec.rows());
            resumed.restore_state(&state).expect("valid exported state");
            for c in cut..spec.cols() {
                resumed.push_column(&spec.column(c), &mut sink);
            }
            resumed.finish(&mut sink);
            assert_eq!(cols.len(), fresh.cols(), "cut {cut}");
            for (c, col) in cols.iter().enumerate() {
                for (r, &v) in col.iter().enumerate() {
                    assert!(v == fresh.get(r, c), "cut {cut} diverges at ({r}, {c})");
                }
            }
        }
    }

    /// `restore_state` demands exactly the counters `advance` leaves, so it
    /// must accept the state of every point a session can be exported at:
    /// before each push and after finish, cold and warm, for sessions
    /// shorter and longer than the background lead-in.
    #[test]
    fn every_exported_state_restores() {
        let cfg = EnhanceConfig::streaming();
        let spec = synthetic(24, 30, 5);
        let mut inc = IncrementalEnhancer::new(cfg, spec.rows());
        let mut fresh = IncrementalEnhancer::new(cfg, spec.rows());
        let mut sink = |_: usize, _: &[f64]| {};
        for warm in [false, true] {
            for cols in [0usize, 1, 2, 3, 30] {
                if warm {
                    inc.reset_keeping_background();
                } else {
                    inc.reset();
                }
                for c in 0..cols {
                    let state = inc.export_state();
                    assert_eq!(fresh.restore_state(&state), Ok(()), "warm {warm}, column {c}");
                    inc.push_column(&spec.column(c), &mut sink);
                }
                inc.finish(&mut sink);
                let state = inc.export_state();
                assert_eq!(fresh.restore_state(&state), Ok(()), "warm {warm}, {cols} finished");
            }
        }
    }

    #[test]
    fn restore_rejects_corrupt_state() {
        let cfg = EnhanceConfig::streaming();
        let spec = synthetic(24, 30, 7);
        let mut inc = IncrementalEnhancer::new(cfg, spec.rows());
        let mut sink = |_: usize, _: &[f64]| {};
        for c in 0..20 {
            inc.push_column(&spec.column(c), &mut sink);
        }
        let good = inc.export_state();
        let mut fresh = IncrementalEnhancer::new(cfg, spec.rows());
        assert!(fresh.restore_state(&good).is_ok());

        let mut bad = good.clone();
        bad.raw_cols[0].pop();
        assert!(fresh.restore_state(&bad).is_err(), "short column accepted");

        let mut bad = good.clone();
        bad.med_n = bad.raw_n + 1;
        assert!(fresh.restore_state(&bad).is_err(), "counter overrun accepted");

        // Windows that fit their rings but not where `advance` stops: the
        // Gaussian stage past its lookahead (pushes would fill the ring
        // before it computed again), and a thresholded count short of the
        // median count (finish would read a slot the ring never wrote).
        let mut bad = good.clone();
        bad.h_n = bad.thr_n;
        bad.thr_base = bad.h_n - 3;
        bad.thr_cols = bad.thr_cols[bad.thr_cols.len() - 3..].to_vec();
        bad.holes.next_emit += bad.h_n - bad.holes.pushed;
        bad.holes.pushed = bad.h_n;
        assert_eq!(
            fresh.restore_state(&bad),
            Err("enhancer state: inconsistent thresholded column window"),
            "Gaussian stage past its lookahead accepted"
        );
        let mut bad = good.clone();
        bad.med_n += 1;
        bad.raw_n += 1;
        bad.raw_base += 1;
        bad.raw_cols.rotate_left(1);
        assert_eq!(
            fresh.restore_state(&bad),
            Err("enhancer state: thresholded count differs from the median count"),
            "median column missing from the thresholded ring accepted"
        );

        // Windows that start further back: consistent counters and bases,
        // but more columns than the rings hold.
        let mut bad = good.clone();
        bad.raw_base -= 2;
        bad.raw_cols.splice(0..0, bad.raw_cols[..2].to_vec());
        assert_eq!(
            fresh.restore_state(&bad),
            Err("enhancer state: retained window does not fit the column ring"),
            "oversized raw window accepted"
        );
        let mut bad = good.clone();
        bad.thr_base -= 3;
        bad.thr_cols.splice(0..0, bad.thr_cols[..3].to_vec());
        assert_eq!(
            fresh.restore_state(&bad),
            Err("enhancer state: retained window does not fit the column ring"),
            "oversized thresholded window accepted"
        );

        // Before the freeze, every finalized median sits in the lead-in.
        let mut early = IncrementalEnhancer::new(cfg, spec.rows());
        for c in 0..3 {
            early.push_column(&spec.column(c), &mut sink);
        }
        let mut bad = early.export_state();
        assert!(fresh.restore_state(&bad).is_ok());
        bad.pre_bg.pop();
        assert!(fresh.restore_state(&bad).is_err(), "lost lead-in column accepted");

        let mut bad = good.clone();
        if !bad.holes.parent.is_empty() {
            bad.holes.parent[0] = usize::MAX;
            assert!(fresh.restore_state(&bad).is_err(), "wild parent accepted");
        }

        let mut bad = good;
        bad.holes.pushed += 1;
        assert!(fresh.restore_state(&bad).is_err(), "queue mismatch accepted");
    }

    #[test]
    #[should_panic(expected = "requires Normalization::FixedScale")]
    fn rejects_global_normalization() {
        IncrementalEnhancer::new(EnhanceConfig::paper(), 8);
    }

    #[test]
    #[should_panic(expected = "burst suppression")]
    fn rejects_burst_suppression() {
        let cfg = EnhanceConfig {
            burst_suppression: Some(crate::burst::BurstConfig::nominal()),
            ..EnhanceConfig::streaming()
        };
        IncrementalEnhancer::new(cfg, 8);
    }
}
