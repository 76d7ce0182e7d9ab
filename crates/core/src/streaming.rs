//! Streaming (chunked) recognition, mirroring the Android app's buffer
//! loop: "a process … stores collected data in buffer with a size of
//! 5 frames. When the buffer is full, data are fed to the following
//! processing flowchart" (Sec. IV-A).
//!
//! Two implementations live behind [`StreamingRecognizer`], selected by
//! [`StreamingMode`]:
//!
//! - **Incremental** (the default for causal configurations such as
//!   [`EchoWriteConfig::streaming`](crate::EchoWriteConfig::streaming)):
//!   each [`push`](StreamingRecognizer::push) does O(chunk) work with
//!   bounded memory — completed STFT hops flow through column-at-a-time
//!   enhancement, MVCE profile extraction, noise-robust differentiation,
//!   and a resumable segmenter state machine; nothing is ever re-analyzed.
//!   The emitted stroke sequence (pushes plus
//!   [`finish`](StreamingRecognizer::finish)) is bitwise identical to the
//!   offline [`recognize_strokes`](crate::EchoWrite::recognize_strokes) on
//!   the concatenated audio, for *any* chunking.
//! - **Replay** (the original implementation, kept as the differential
//!   oracle and for non-causal configurations): every push re-analyzes the
//!   buffered window and emits strokes once they have been stable for a
//!   safety margin. Emitted strokes are remembered by their absolute
//!   segment interval (with a small frame tolerance), so re-analyses whose
//!   boundaries wobble after a buffer trim neither duplicate nor drop
//!   strokes.
//!
//! For multi-session serving the state machinery is factored out as
//! [`StreamingSession`]: the same implementations without the engine
//! borrow, so sessions are `'static`, [`Send`], and can be pinned to the
//! worker shards of `echowrite-serve`'s `SessionManager`. A session is
//! reusable via the cheap in-place [`StreamingSession::reset`] (every
//! allocation is retained), and [`StreamingSession::reset_keep_background`]
//! additionally carries the frozen static background over so the next
//! session on the same device/scene skips the background-estimation
//! lead-in.

use crate::config::Frontend;
use crate::engine::EchoWrite;
use crate::pipeline::{make_downconvert, roi_bins};
use crate::session_state::{
    ChainState, DownState, FrontState, IncrementalState, ReplayState, RestoreError, SessionBody,
    SessionState,
};
use echowrite_dsp::downconvert::{BasebandScratch, BasebandStft, StreamingDownconverter};
use echowrite_dsp::stft::{StftScratch, StreamingStft};
use echowrite_dsp::Complex;
use echowrite_dtw::Classification;
use echowrite_profile::{IncrementalDiff, ProfileBuilder, SegmentedStroke, StreamingSegmenter};
use echowrite_spectro::IncrementalEnhancer;

/// An emitted streaming event: one recognized stroke.
#[derive(Debug, Clone)]
pub struct StrokeEvent {
    /// Classification of the stroke.
    pub classification: Classification,
    /// Segment start, in frames since the session began.
    pub start_frame: usize,
    /// Segment end, in frames since the session began.
    pub end_frame: usize,
}

/// A decided stroke segment, with the DTW classification optional: a
/// degraded (deadline-missed) push in the serving layer skips the DTW
/// matching and reports the segment boundaries alone.
#[derive(Debug, Clone)]
pub struct SegmentEvent {
    /// Segment start, in frames since the session began.
    pub start_frame: usize,
    /// Segment end, in frames since the session began.
    pub end_frame: usize,
    /// DTW classification, absent when the caller requested segment-only
    /// output.
    pub classification: Option<Classification>,
}

/// Frames of slack when matching a re-analyzed segment against an already
/// emitted one: boundaries may wobble slightly after a buffer trim because
/// the replay path's normalization and backtrack windows change.
const DEDUP_TOLERANCE_FRAMES: usize = 3;

/// Shard-shared DSP workspace for batched session pushes.
///
/// A serve shard that drains several sessions' pushes in one batch hands
/// every session the same scratch via
/// [`StreamingSession::push_events_shared`]: the packed-FFT buffer stays
/// hot in cache across the batch instead of ping-ponging between
/// per-session arenas. The scratch is pure workspace —
/// it carries no state between frames or sessions — so the shared path is
/// bitwise identical to the per-session one.
///
/// Buffers are sized lazily from the first pushing session's plan, so every
/// session sharing one scratch must run the same engine configuration (true
/// by construction for a serve shard, which owns exactly one engine).
#[derive(Debug, Default)]
pub struct SharedDspScratch {
    stft: Option<StftScratch>,
}

impl SharedDspScratch {
    /// Creates an empty scratch; buffers are allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A streaming wrapper around an [`EchoWrite`] engine.
///
/// # Example
///
/// ```
/// use echowrite::{EchoWrite, StreamingRecognizer};
/// let engine = EchoWrite::new();
/// let mut stream = StreamingRecognizer::new(&engine);
/// // Feeding silence produces no events.
/// let events = stream.push(&vec![0.0; 44_100]);
/// assert!(events.is_empty());
/// ```
#[derive(Debug)]
pub struct StreamingRecognizer<'a> {
    engine: &'a EchoWrite,
    session: StreamingSession,
    /// Scratch reused across pushes for the session's segment events.
    scratch: Vec<SegmentEvent>,
}

impl<'a> StreamingRecognizer<'a> {
    /// Creates a streaming recognizer over an engine, picking the
    /// incremental or replay implementation per the engine's
    /// [`StreamingMode`](crate::StreamingMode).
    pub fn new(engine: &'a EchoWrite) -> Self {
        StreamingRecognizer {
            engine,
            session: StreamingSession::new(engine),
            scratch: Vec::new(),
        }
    }

    /// Whether this recognizer runs the incremental path.
    pub fn is_incremental(&self) -> bool {
        self.session.is_incremental()
    }

    /// Overrides the replay path's maximum buffered window (seconds). The
    /// incremental path has no window; the argument is validated but
    /// otherwise ignored.
    ///
    /// # Panics
    ///
    /// Panics if the window cannot cover the background-estimation lead-in
    /// (`fft_size + (static_frames − 1) · hop` samples): a shorter window
    /// would trim the session's opening frames before the static background
    /// could ever freeze.
    pub fn with_window_seconds(mut self, seconds: f64) -> Self {
        self.session.set_window_seconds(self.engine, seconds);
        self
    }

    /// Appends audio and returns any newly decided strokes. After
    /// [`StreamingRecognizer::finish`] this is a no-op until
    /// [`StreamingRecognizer::reset`].
    // echolint: entry
    pub fn push(&mut self, chunk: &[f64]) -> Vec<StrokeEvent> {
        self.scratch.clear();
        self.session.push_events(self.engine, chunk, true, &mut self.scratch);
        collect_stroke_events(&mut self.scratch)
    }

    /// Ends the session, emitting every remaining stroke: the incremental
    /// path flushes its edge-clamped stages and replays the segmenter's
    /// end-of-stream checks; the replay path analyzes the final window
    /// without the stability margin.
    pub fn finish(&mut self) -> Vec<StrokeEvent> {
        self.scratch.clear();
        self.session.finish_events(self.engine, true, &mut self.scratch);
        collect_stroke_events(&mut self.scratch)
    }

    /// The absolute frame up to which strokes have been emitted.
    pub fn emitted_until(&self) -> usize {
        self.session.emitted_until()
    }

    /// Samples currently retained by the recognizer (the replay window, or
    /// the incremental front-end's pending audio; input-equivalent samples
    /// for the decimated front-end).
    pub fn buffered_samples(&self) -> usize {
        self.session.buffered_samples()
    }

    /// Total frames of the session processed so far (absolute frame clock).
    pub fn frames_processed(&self) -> usize {
        self.session.frames_processed(self.engine)
    }

    /// Whether the static background has been frozen (the lead-in is done).
    pub fn background_frozen(&self) -> bool {
        self.session.background_frozen()
    }

    /// Clears all state for a new session, in place: allocations are kept
    /// and nothing is re-planned, so a reset recognizer is bitwise
    /// equivalent to — but much cheaper to obtain than — a fresh one.
    pub fn reset(&mut self) {
        self.session.reset(self.engine);
    }

    /// Like [`StreamingRecognizer::reset`], but keeps the frozen static
    /// background, so the next session (same device, same scene) skips the
    /// background-estimation lead-in entirely.
    pub fn reset_keep_background(&mut self) {
        self.session.reset_keep_background(self.engine);
    }

    /// Consumes the recognizer, returning the engine-free session state
    /// (e.g. to hand it to a serving shard).
    pub fn into_session(self) -> StreamingSession {
        self.session
    }
}

/// Classifies one stroke's shift profile, wrapping the DTW match in a
/// [`Stage::Dtw`](echowrite_trace::Stage) span (wall time from a caller-side
/// stopwatch; the dtw crate itself never reads a clock).
fn classify_traced(engine: &EchoWrite, shifts: &[f64]) -> Classification {
    let timer = echowrite_trace::enabled().then(echowrite_profile::Stopwatch::start);
    let classification = engine.classifier().classify(shifts);
    if let Some(t) = timer {
        echowrite_trace::span(
            echowrite_trace::Stage::Dtw,
            "classify_stroke",
            echowrite_trace::TICK_UNSET,
            (t.elapsed_ms() * 1_000.0) as u64,
            shifts.len() as f64,
        );
    }
    classification
}

/// Maps classified segment events to [`StrokeEvent`]s (events without a
/// classification are impossible when `classify` was true and are skipped).
fn collect_stroke_events(events: &mut Vec<SegmentEvent>) -> Vec<StrokeEvent> {
    events
        .drain(..)
        .filter_map(|ev| {
            ev.classification.map(|classification| StrokeEvent {
                classification,
                start_frame: ev.start_frame,
                end_frame: ev.end_frame,
            })
        })
        .collect()
}

/// The engine-free state of one streaming recognition session.
///
/// [`StreamingRecognizer`] pairs this with a borrowed engine for the
/// single-session API; `echowrite-serve` keeps many of these pinned to
/// worker shards, passing the shared engine into every call. The caller
/// must pass the *same* engine (or an identically configured one) to every
/// method of a given session — the session's internal geometry is derived
/// from the engine's configuration at construction.
#[derive(Debug)]
pub struct StreamingSession {
    inner: Inner,
    finished: bool,
    /// Total input samples pushed — the session's logical clock for trace
    /// timestamps (audio time, not wall time).
    samples_in: u64,
}

#[derive(Debug)]
enum Inner {
    Replay(Replay),
    Incremental(Box<Incremental>),
}

impl StreamingSession {
    /// Creates session state for an engine, picking the incremental or
    /// replay implementation per the engine's
    /// [`StreamingMode`](crate::StreamingMode).
    pub fn new(engine: &EchoWrite) -> Self {
        let inner = if engine.config().streaming_is_incremental() {
            Inner::Incremental(Box::new(Incremental::new(engine)))
        } else {
            Inner::Replay(Replay::new(engine))
        };
        StreamingSession { inner, finished: false, samples_in: 0 }
    }

    /// Whether this session runs the incremental path.
    pub fn is_incremental(&self) -> bool {
        matches!(self.inner, Inner::Incremental(_))
    }

    /// Whether [`StreamingSession::finish_events`] has been called.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Overrides the replay path's maximum buffered window (seconds); see
    /// [`StreamingRecognizer::with_window_seconds`].
    ///
    /// # Panics
    ///
    /// Panics if the window cannot cover the background-estimation lead-in.
    pub fn set_window_seconds(&mut self, engine: &EchoWrite, seconds: f64) {
        let cfg = engine.config();
        let samples = (seconds * cfg.stft.sample_rate) as usize;
        let min = cfg.stft.fft_size + (cfg.enhance.static_frames - 1) * cfg.stft.hop;
        assert!(
            samples >= min,
            "window of {samples} samples cannot cover the {min}-sample background lead-in"
        );
        if let Inner::Replay(r) = &mut self.inner {
            r.max_samples = samples;
        }
    }

    /// Appends audio, pushing every newly decided segment onto `events`.
    /// With `classify` false the DTW matching is skipped and events carry
    /// boundaries only (the serving layer's degraded mode). A no-op after
    /// [`StreamingSession::finish_events`] until [`StreamingSession::reset`].
    // echolint: entry
    pub fn push_events(
        &mut self,
        engine: &EchoWrite,
        chunk: &[f64],
        classify: bool,
        events: &mut Vec<SegmentEvent>,
    ) {
        self.push_events_impl(engine, chunk, classify, None, events);
    }

    /// Like [`StreamingSession::push_events`], but STFT frames run through
    /// a caller-owned [`SharedDspScratch`] instead of the session's embedded
    /// arena — the batched-shard entry point. Output is bitwise identical to
    /// [`StreamingSession::push_events`]; sessions whose front-end has no
    /// shared-scratch path (the replay oracle, the decimating front-end)
    /// fall back to their per-session state transparently.
    // echolint: entry
    pub fn push_events_shared(
        &mut self,
        engine: &EchoWrite,
        chunk: &[f64],
        classify: bool,
        scratch: &mut SharedDspScratch,
        events: &mut Vec<SegmentEvent>,
    ) {
        self.push_events_impl(engine, chunk, classify, Some(scratch), events);
    }

    fn push_events_impl(
        &mut self,
        engine: &EchoWrite,
        chunk: &[f64],
        classify: bool,
        shared: Option<&mut SharedDspScratch>,
        events: &mut Vec<SegmentEvent>,
    ) {
        if self.finished {
            return;
        }
        let before = events.len();
        let timer = echowrite_trace::enabled().then(echowrite_profile::Stopwatch::start);
        match &mut self.inner {
            Inner::Replay(r) => r.push(engine, chunk, classify, events),
            Inner::Incremental(inc) => {
                inc.push_audio(chunk, shared);
                inc.drain_events(engine, classify, events);
            }
        }
        self.samples_in += chunk.len() as u64;
        if let Some(t) = timer {
            echowrite_trace::span(
                echowrite_trace::Stage::Stream,
                "push",
                echowrite_trace::samples_to_us(self.samples_in, engine.config().stft.sample_rate),
                (t.elapsed_ms() * 1_000.0) as u64,
                (events.len() - before) as f64,
            );
        }
    }

    /// Ends the session, pushing every remaining segment onto `events`; see
    /// [`StreamingRecognizer::finish`].
    pub fn finish_events(
        &mut self,
        engine: &EchoWrite,
        classify: bool,
        events: &mut Vec<SegmentEvent>,
    ) {
        if self.finished {
            return;
        }
        self.finished = true;
        let before = events.len();
        let timer = echowrite_trace::enabled().then(echowrite_profile::Stopwatch::start);
        match &mut self.inner {
            Inner::Replay(r) => r.finish(engine, classify, events),
            Inner::Incremental(inc) => inc.finish(engine, classify, events),
        }
        if let Some(t) = timer {
            echowrite_trace::span(
                echowrite_trace::Stage::Stream,
                "finish",
                echowrite_trace::samples_to_us(self.samples_in, engine.config().stft.sample_rate),
                (t.elapsed_ms() * 1_000.0) as u64,
                (events.len() - before) as f64,
            );
        }
    }

    /// The absolute frame up to which strokes have been emitted.
    pub fn emitted_until(&self) -> usize {
        match &self.inner {
            Inner::Replay(r) => r.emitted_until,
            Inner::Incremental(inc) => inc.emitted_until,
        }
    }

    /// Samples currently retained by the session; see
    /// [`StreamingRecognizer::buffered_samples`].
    pub fn buffered_samples(&self) -> usize {
        match &self.inner {
            Inner::Replay(r) => r.buffer.len(),
            Inner::Incremental(inc) => match &inc.front {
                Front::Full { sstft, .. } => sstft.pending(),
                Front::Down(d) => d.baseband.len() * d.sdc.inner().factor(),
            },
        }
    }

    /// Total frames of the session processed so far (absolute frame clock).
    pub fn frames_processed(&self, engine: &EchoWrite) -> usize {
        match &self.inner {
            Inner::Replay(r) => {
                let cfg = engine.config();
                let fft = cfg.stft.fft_size;
                let hop = cfg.stft.hop;
                let in_buffer = if r.buffer.len() < fft {
                    0
                } else {
                    (r.buffer.len() - fft) / hop + 1
                };
                r.dropped_frames + in_buffer
            }
            Inner::Incremental(inc) => inc.frames_in,
        }
    }

    /// Whether the static background has been frozen (the lead-in has
    /// completed, or a [`StreamingSession::reset_keep_background`] carried
    /// one over).
    pub fn background_frozen(&self) -> bool {
        match &self.inner {
            Inner::Replay(r) => r.background.is_some(),
            Inner::Incremental(inc) => inc.chain.enhancer.background_frozen(),
        }
    }

    /// Clears all state for a new session, in place. Every stage is reset
    /// without reallocating or re-planning, so this is cheap enough to run
    /// per-session in a serving shard, and a reset session's output is
    /// bitwise identical to a fresh one's on the same audio.
    pub fn reset(&mut self, engine: &EchoWrite) {
        self.reset_inner(engine, false);
    }

    /// Like [`StreamingSession::reset`], but restores the background-frozen
    /// state: the frozen static background survives, so the next session
    /// skips the `static_frames` lead-in instead of re-estimating. Only
    /// sound when the next session continues the same acoustic scene.
    pub fn reset_keep_background(&mut self, engine: &EchoWrite) {
        self.reset_inner(engine, true);
    }

    fn reset_inner(&mut self, engine: &EchoWrite, keep_background: bool) {
        // A mode flip (config changed between sessions of a pooled slot)
        // falls back to a rebuild; the common case resets in place.
        let want_incremental = engine.config().streaming_is_incremental();
        if want_incremental != self.is_incremental() {
            let window = match &self.inner {
                Inner::Replay(r) => Some(r.max_samples),
                Inner::Incremental(_) => None,
            };
            self.inner = if want_incremental {
                Inner::Incremental(Box::new(Incremental::new(engine)))
            } else {
                let mut r = Replay::new(engine);
                if let Some(w) = window {
                    r.max_samples = w;
                }
                Inner::Replay(r)
            };
            self.finished = false;
            self.samples_in = 0;
            return;
        }
        match &mut self.inner {
            Inner::Replay(r) => r.reset_in_place(keep_background),
            Inner::Incremental(inc) => inc.reset_in_place(keep_background),
        }
        self.finished = false;
        self.samples_in = 0;
    }

    /// Rebuilds a session from a previously exported [`SessionState`] — the
    /// suspend/resume entry point. Equivalent to restoring onto a fresh
    /// [`StreamingSession::new`]; see [`StreamingSession::restore_state`].
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] when the state disagrees with the engine's
    /// configuration or violates a structural invariant.
    pub fn from_state(engine: &EchoWrite, state: &SessionState) -> Result<Self, RestoreError> {
        let mut session = StreamingSession::new(engine);
        session.restore_state(engine, state)?;
        Ok(session)
    }

    /// Overwrites this session's dynamic state with a previously exported
    /// one, in place (allocations and plans are reused — the pooled-slot
    /// thaw path). The engine must be configured identically to the one the
    /// state was exported under; further pushes then emit bitwise the same
    /// events an uninterrupted session would.
    ///
    /// Every structural invariant of the state is validated before use, so
    /// a corrupted or hand-built state is rejected instead of panicking
    /// later. Validation is not a substitute for the config pairing: a
    /// state restored under a *different-but-compatible-looking* config
    /// yields well-defined but meaningless output.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`]; on error the session is left in an
    /// unspecified (but memory-safe) state and must be
    /// [`reset`](StreamingSession::reset) before reuse.
    pub fn restore_state(
        &mut self,
        engine: &EchoWrite,
        state: &SessionState,
    ) -> Result<(), RestoreError> {
        let want_incremental = matches!(state.body, SessionBody::Incremental(_));
        if want_incremental != engine.config().streaming_is_incremental() {
            return Err(RestoreError::ModeMismatch);
        }
        match &state.body {
            SessionBody::Replay(rs) => {
                if let Inner::Replay(r) = &mut self.inner {
                    r.restore_state(engine, rs)?;
                } else {
                    let mut r = Replay::new(engine);
                    r.restore_state(engine, rs)?;
                    self.inner = Inner::Replay(r);
                }
            }
            SessionBody::Incremental(is) => {
                if let Inner::Incremental(inc) = &mut self.inner {
                    inc.restore_state(is)?;
                } else {
                    let mut inc = Box::new(Incremental::new(engine));
                    inc.restore_state(is)?;
                    self.inner = Inner::Incremental(inc);
                }
            }
        }
        self.finished = state.finished;
        self.samples_in = state.samples_in;
        Ok(())
    }

    /// Captures every dynamic field of this session into a plain-data
    /// [`SessionState`] — the suspend half of
    /// [`StreamingSession::from_state`]/[`StreamingSession::restore_state`].
    /// Config-derived plans are not captured; they are rebuilt from the
    /// restoring engine.
    pub fn export_state(&self) -> SessionState {
        let body = match &self.inner {
            Inner::Replay(r) => SessionBody::Replay(r.export_state()),
            Inner::Incremental(inc) => SessionBody::Incremental(inc.export_state()),
        };
        SessionState { finished: self.finished, samples_in: self.samples_in, body }
    }
}

/// Converts a `u64` state field back to the in-memory `usize`, rejecting
/// values that cannot round-trip (32-bit hosts) or that are so large that
/// downstream index arithmetic could overflow.
fn restore_usize(v: u64, what: &'static str) -> Result<usize, RestoreError> {
    match usize::try_from(v) {
        Ok(u) if u <= usize::MAX / 4 => Ok(u),
        _ => Err(RestoreError::Invalid(what)),
    }
}

// ---------------------------------------------------------------------------
// Replay path (full re-analysis per push — the differential oracle)
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Replay {
    buffer: Vec<f64>,
    /// Frozen static background captured from the session's opening frames.
    background: Option<Vec<f64>>,
    /// Frames already dropped from the front of the buffer.
    dropped_frames: usize,
    /// Absolute `(start, end)` intervals of emitted strokes, pruned as the
    /// window moves past them.
    emitted: Vec<(usize, usize)>,
    /// Largest emitted end frame.
    emitted_until: usize,
    /// Frames a segment must precede the buffer tail by to be stable.
    stability_margin: usize,
    /// Maximum buffered duration in samples before old audio is trimmed.
    max_samples: usize,
}

impl Replay {
    fn new(engine: &EchoWrite) -> Self {
        let cfg = engine.config();
        Replay {
            buffer: Vec::new(),
            background: None,
            dropped_frames: 0,
            emitted: Vec::new(),
            emitted_until: 0,
            stability_margin: cfg.segment.end_run + 2,
            // Default window: 12 s of audio.
            max_samples: (12.0 * cfg.stft.sample_rate) as usize,
        }
    }

    /// In-place counterpart of [`Replay::new`]: clears the session state,
    /// keeps the window override and all allocations, and optionally the
    /// frozen background (skipping the next session's estimation lead-in).
    fn reset_in_place(&mut self, keep_background: bool) {
        self.buffer.clear();
        if !keep_background {
            self.background = None;
        }
        self.dropped_frames = 0;
        self.emitted.clear();
        self.emitted_until = 0;
    }

    /// Captures every dynamic field (the stability margin is config-derived
    /// and rebuilt at restore).
    fn export_state(&self) -> ReplayState {
        ReplayState {
            buffer: self.buffer.clone(),
            background: self.background.clone(),
            dropped_frames: self.dropped_frames as u64,
            emitted: self.emitted.iter().map(|&(s, e)| (s as u64, e as u64)).collect(),
            emitted_until: self.emitted_until as u64,
            max_samples: self.max_samples as u64,
        }
    }

    /// Validating counterpart of [`Replay::export_state`].
    fn restore_state(&mut self, engine: &EchoWrite, state: &ReplayState) -> Result<(), RestoreError> {
        let cfg = engine.config();
        if let Some(bg) = &state.background {
            let (lo, hi, _) = roi_bins(cfg);
            if bg.len() != hi - lo + 1 {
                return Err(RestoreError::Invalid("replay background row count"));
            }
        }
        let max_samples = restore_usize(state.max_samples, "replay window out of range")?;
        let lead_in = cfg.stft.fft_size + (cfg.enhance.static_frames - 1) * cfg.stft.hop;
        if max_samples < lead_in {
            return Err(RestoreError::Invalid("replay window below the background lead-in"));
        }
        let dropped = restore_usize(state.dropped_frames, "replay dropped_frames out of range")?;
        self.buffer.clear();
        self.buffer.extend_from_slice(&state.buffer);
        self.background = state.background.clone();
        self.dropped_frames = dropped;
        self.emitted.clear();
        for &(s, e) in &state.emitted {
            self.emitted.push((
                restore_usize(s, "replay emitted interval out of range")?,
                restore_usize(e, "replay emitted interval out of range")?,
            ));
        }
        self.emitted_until = restore_usize(state.emitted_until, "replay emitted_until out of range")?;
        self.stability_margin = cfg.segment.end_run + 2;
        self.max_samples = max_samples;
        Ok(())
    }

    /// Whether `[start, end)` matches a stroke that was already emitted,
    /// within [`DEDUP_TOLERANCE_FRAMES`] of boundary wobble.
    fn already_emitted(&self, start: usize, end: usize) -> bool {
        self.emitted
            .iter()
            .any(|&(s, e)| start < e + DEDUP_TOLERANCE_FRAMES && s < end + DEDUP_TOLERANCE_FRAMES)
    }

    fn record(&mut self, start: usize, end: usize) {
        self.emitted.push((start, end));
        self.emitted_until = self.emitted_until.max(end);
    }

    fn push(
        &mut self,
        engine: &EchoWrite,
        chunk: &[f64],
        classify: bool,
        events: &mut Vec<SegmentEvent>,
    ) {
        self.buffer.extend_from_slice(chunk);
        let cfg = engine.config();
        // Freeze the static background from the session's opening frames
        // (only while the front of the buffer still *is* the opening).
        if self.background.is_none() && self.dropped_frames == 0 {
            let needed = cfg.stft.fft_size + (cfg.enhance.static_frames - 1) * cfg.stft.hop;
            if self.buffer.len() >= needed {
                self.background = engine.pipeline().estimate_background(&self.buffer);
            }
        }
        let analysis = engine
            .pipeline()
            .analyze_with_background(&self.buffer, self.background.as_deref());
        let total_frames = analysis.profile.len();

        for seg in &analysis.segments {
            let abs_start = seg.start + self.dropped_frames;
            let abs_end = seg.end + self.dropped_frames;
            if self.already_emitted(abs_start, abs_end) {
                continue;
            }
            if seg.end + self.stability_margin > total_frames {
                continue; // may still grow
            }
            let classification = classify.then(|| {
                let sub = analysis.profile.slice(seg.start, seg.end);
                classify_traced(engine, sub.shifts())
            });
            events.push(SegmentEvent {
                classification,
                start_frame: abs_start,
                end_frame: abs_end,
            });
            self.record(abs_start, abs_end);
        }

        // Trim the front if the buffer outgrew the window, keeping frame
        // alignment (whole hops only) and never cutting into a segment that
        // has not been emitted yet (including its backtrack slack).
        if self.buffer.len() > self.max_samples && self.background.is_some() {
            let hop = cfg.stft.hop;
            let excess = self.buffer.len() - self.max_samples;
            let mut limit = total_frames.saturating_sub(self.stability_margin);
            for seg in &analysis.segments {
                let abs_start = seg.start + self.dropped_frames;
                let abs_end = seg.end + self.dropped_frames;
                if !self.already_emitted(abs_start, abs_end) {
                    limit = limit.min(seg.start.saturating_sub(cfg.segment.max_backtrack));
                }
            }
            let drop_frames = (excess / hop).min(limit);
            if drop_frames > 0 {
                self.buffer.drain(..drop_frames * hop);
                self.dropped_frames += drop_frames;
                // Forget emitted intervals that fell behind the window.
                let floor = self.dropped_frames;
                self.emitted.retain(|&(_, e)| e + DEDUP_TOLERANCE_FRAMES > floor);
            }
        }
    }

    /// Final analysis of the remaining window, with the stability margin
    /// waived — the session is over, nothing can still grow.
    fn finish(&mut self, engine: &EchoWrite, classify: bool, events: &mut Vec<SegmentEvent>) {
        let analysis = engine
            .pipeline()
            .analyze_with_background(&self.buffer, self.background.as_deref());
        for seg in &analysis.segments {
            let abs_start = seg.start + self.dropped_frames;
            let abs_end = seg.end + self.dropped_frames;
            if self.already_emitted(abs_start, abs_end) {
                continue;
            }
            let classification = classify.then(|| {
                let sub = analysis.profile.slice(seg.start, seg.end);
                classify_traced(engine, sub.shifts())
            });
            events.push(SegmentEvent {
                classification,
                start_frame: abs_start,
                end_frame: abs_end,
            });
            self.record(abs_start, abs_end);
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental path (O(chunk) per push, batch-equivalent bitwise)
// ---------------------------------------------------------------------------

/// Per-column processing chain: enhancement → MVCE/SMA → differentiation →
/// segmentation, every stage emitting values only once final.
#[derive(Debug)]
struct Chain {
    enhancer: IncrementalEnhancer,
    builder: ProfileBuilder,
    diff: IncrementalDiff,
    segmenter: StreamingSegmenter,
    /// Scratch for the differentiator's output.
    acc: Vec<f64>,
}

/// Feeds one final smoothed shift through differentiation into the
/// segmenter (a free function so disjoint `&mut` borrows survive the
/// enhancer's sink closure).
fn feed_shift(
    diff: &mut IncrementalDiff,
    segmenter: &mut StreamingSegmenter,
    acc: &mut Vec<f64>,
    shift: f64,
) {
    segmenter.push_shift(shift);
    acc.clear();
    diff.push(shift, acc);
    for &a in acc.iter() {
        segmenter.push_acc(a);
    }
}

impl Chain {
    /// Consumes one raw ROI column.
    fn consume_column(&mut self, raw: &[f64]) {
        let Chain { enhancer, builder, diff, segmenter, acc } = self;
        enhancer.push_column(raw, &mut |_, col| {
            if let Some(s) = builder.push_column(col) {
                feed_shift(diff, segmenter, acc, s);
            }
        });
    }

    /// Flushes every stage's edge-clamped tail, in dependency order.
    fn finish(&mut self) {
        let Chain { enhancer, builder, diff, segmenter, acc } = self;
        enhancer.finish(&mut |_, col| {
            if let Some(s) = builder.push_column(col) {
                feed_shift(diff, segmenter, acc, s);
            }
        });
        if let Some(s) = builder.finish() {
            feed_shift(diff, segmenter, acc, s);
        }
        acc.clear();
        diff.finish(acc);
        for &a in acc.iter() {
            segmenter.push_acc(a);
        }
    }

    /// Resets every stage in place, reusing the allocations.
    fn reset(&mut self, keep_background: bool) {
        if keep_background {
            self.enhancer.reset_keeping_background();
        } else {
            self.enhancer.reset();
        }
        self.builder.reset();
        self.diff.reset();
        self.segmenter.reset();
        self.acc.clear();
    }
}

/// The decimating streaming front-end's state.
#[derive(Debug)]
struct Down {
    sdc: StreamingDownconverter,
    bb: BasebandStft,
    scratch: BasebandScratch,
    /// Baseband samples not yet fully consumed by framing.
    baseband: Vec<Complex>,
    /// Absolute index of `baseband[0]`.
    base: usize,
    /// Next baseband frame to extract.
    next_frame: usize,
    row_lo: usize,
    row_hi: usize,
    /// Scratch for one ROI column.
    band: Vec<f64>,
}

#[derive(Debug)]
enum Front {
    Full { sstft: Box<StreamingStft>, lo: usize, hi: usize },
    Down(Box<Down>),
}

#[derive(Debug)]
struct Incremental {
    front: Front,
    chain: Chain,
    /// Raw spectrogram columns produced by the front-end.
    frames_in: usize,
    emitted_until: usize,
    /// Scratch for segments decided by a poll/finish.
    seg_scratch: Vec<SegmentedStroke>,
}

impl Incremental {
    fn new(engine: &EchoWrite) -> Self {
        let cfg = engine.config();
        let (lo, hi, carrier_bin) = roi_bins(cfg);
        let band = hi - lo + 1;
        let carrier_row = carrier_bin - lo;
        // The exact expressions the batch pipeline stores as spectrogram
        // metadata — bitwise-identical profile scaling.
        let bin_hz = cfg.stft.sample_rate / cfg.stft.fft_size as f64;
        let chain = Chain {
            enhancer: IncrementalEnhancer::new(cfg.enhance, band),
            builder: ProfileBuilder::new(carrier_row, cfg.guard_bins, bin_hz),
            diff: IncrementalDiff::new(),
            segmenter: StreamingSegmenter::new(cfg.segment, cfg.stft.hop_seconds()),
            acc: Vec::new(),
        };
        let front = match cfg.frontend {
            Frontend::FullStft => Front::Full {
                // Sessions share the engine's plan: twiddle tables and the
                // window are built once per configuration, not per session.
                sstft: Box::new(StreamingStft::with_shared_plan(engine.pipeline().shared_stft())),
                lo,
                hi,
            },
            Frontend::Downconverted { factor } => {
                let (dc, bb) = make_downconvert(cfg, factor);
                // Same row geometry as Pipeline::roi_spectrogram.
                let centre = bb.fft_size() / 2;
                let (row_lo, row_hi) = (centre - carrier_row, centre + (hi - carrier_bin));
                Front::Down(Box::new(Down {
                    sdc: StreamingDownconverter::new(dc),
                    scratch: bb.make_scratch(),
                    bb,
                    baseband: Vec::new(),
                    base: 0,
                    next_frame: 0,
                    row_lo,
                    row_hi,
                    band: vec![0.0; band],
                }))
            }
        };
        Incremental { front, chain, frames_in: 0, emitted_until: 0, seg_scratch: Vec::new() }
    }

    /// In-place counterpart of [`Incremental::new`]: every stage resets
    /// without reallocating; the frozen background optionally survives.
    fn reset_in_place(&mut self, keep_background: bool) {
        match &mut self.front {
            Front::Full { sstft, .. } => sstft.reset(),
            Front::Down(d) => {
                d.sdc.reset();
                d.baseband.clear();
                d.base = 0;
                d.next_frame = 0;
            }
        }
        self.chain.reset(keep_background);
        self.frames_in = 0;
        self.emitted_until = 0;
        self.seg_scratch.clear();
    }

    /// Captures every dynamic field of the front-end and the chain.
    fn export_state(&self) -> IncrementalState {
        let front = match &self.front {
            Front::Full { sstft, .. } => FrontState::Full(sstft.export_state()),
            Front::Down(d) => FrontState::Down(DownState {
                sdc: d.sdc.export_state(),
                baseband: d.baseband.clone(),
                base: d.base as u64,
                next_frame: d.next_frame as u64,
            }),
        };
        IncrementalState {
            front,
            chain: ChainState {
                enhancer: self.chain.enhancer.export_state(),
                builder: self.chain.builder.export_state(),
                diff: self.chain.diff.export_state(),
                segmenter: self.chain.segmenter.export_state(),
            },
            frames_in: self.frames_in as u64,
            emitted_until: self.emitted_until as u64,
        }
    }

    /// Validating counterpart of [`Incremental::export_state`]: the stage
    /// crates validate their own sections where their restore is fallible;
    /// this layer validates the front-end cursors (whose stage-level
    /// restores are infallible) and the cross-stage column accounting.
    fn restore_state(&mut self, state: &IncrementalState) -> Result<(), RestoreError> {
        let frames_in = Self::validate_chain(state)?;
        match (&mut self.front, &state.front) {
            (Front::Full { sstft, .. }, FrontState::Full(fs)) => sstft.restore_state(fs),
            (Front::Down(d), FrontState::Down(ds)) => {
                Self::validate_down(d, ds)?;
                d.sdc.restore_state(&ds.sdc);
                d.baseband.clear();
                d.baseband.extend_from_slice(&ds.baseband);
                d.base = restore_usize(ds.base, "baseband base out of range")?;
                d.next_frame = restore_usize(ds.next_frame, "baseband frame cursor out of range")?;
            }
            _ => return Err(RestoreError::FrontendMismatch),
        }
        self.chain
            .enhancer
            .restore_state(&state.chain.enhancer)
            .map_err(RestoreError::Invalid)?;
        self.chain.builder.restore_state(&state.chain.builder);
        self.chain.diff.restore_state(&state.chain.diff);
        self.chain
            .segmenter
            .restore_state(&state.chain.segmenter)
            .map_err(RestoreError::Invalid)?;
        self.chain.acc.clear();
        self.frames_in = frames_in;
        self.emitted_until = restore_usize(state.emitted_until, "emitted_until out of range")?;
        self.seg_scratch.clear();
        Ok(())
    }

    /// Cross-stage accounting: each stage's counters must agree with its
    /// neighbours' exactly as the push path keeps them, which ties every
    /// counter to `frames_in` (itself bounded by [`restore_usize`]). Returns
    /// the validated frame counter.
    fn validate_chain(state: &IncrementalState) -> Result<usize, RestoreError> {
        let frames_in = restore_usize(state.frames_in, "frame counter out of range")?;
        let ChainState { enhancer, builder, diff, segmenter } = &state.chain;
        // The builder emits a smoothed shift per column once two are in,
        // and the last one at finish.
        let shifts = if builder.finished { builder.m } else { builder.m.saturating_sub(1) };
        // A finish below five inputs flushes `m` zeros without counting them.
        let accs = if diff.finished && diff.m < 5 { diff.m } else { diff.emitted };
        let checks = [
            (frames_in == enhancer.raw_n, "frame counter disagrees with enhancer columns"),
            (
                builder.m == enhancer.holes.next_emit,
                "profile columns disagree with enhancer output",
            ),
            (diff.m == shifts, "differentiator inputs disagree with profile output"),
            (
                segmenter.shifts_base.checked_add(segmenter.shifts.len()) == Some(diff.m),
                "segmenter shifts disagree with differentiator inputs",
            ),
            (
                segmenter.acc_base.checked_add(segmenter.acc.len()) == Some(accs),
                "segmenter accelerations disagree with differentiator output",
            ),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            Some(&(_, what)) => Err(RestoreError::Invalid(what)),
            None => Ok(frames_in),
        }
    }

    /// Structural checks for the decimating front-end: the stage-level
    /// down-converter restore is infallible, so the index invariants its
    /// push path relies on (absolute cursors never behind the retained
    /// buffers, counters that add up) are enforced here.
    fn validate_down(d: &Down, ds: &DownState) -> Result<(), RestoreError> {
        let factor = d.sdc.inner().factor() as u128;
        let half = d.sdc.inner().half_taps() as u128;
        let hop = d.bb.hop() as u128;
        let sdc = &ds.sdc;
        if sdc.total_in != sdc.base + sdc.buffer.len() as u64 {
            return Err(RestoreError::Invalid("down-converter buffer does not cover its input"));
        }
        let emit_floor = (sdc.k as u128 * factor).saturating_sub(half);
        if sdc.base as u128 > emit_floor {
            return Err(RestoreError::Invalid("down-converter buffer behind the emit cursor"));
        }
        if ds.base + ds.baseband.len() as u64 != sdc.k {
            return Err(RestoreError::Invalid("baseband buffer does not cover emitted samples"));
        }
        let frame_pos = ds.next_frame as u128 * hop;
        if frame_pos < ds.base as u128 || frame_pos > ds.base as u128 + ds.baseband.len() as u128 {
            return Err(RestoreError::Invalid("baseband frame cursor outside the buffer"));
        }
        restore_usize(sdc.total_in, "down-converter input counter out of range")?;
        restore_usize(sdc.k, "down-converter output counter out of range")?;
        Ok(())
    }

    fn push_audio(&mut self, chunk: &[f64], shared: Option<&mut SharedDspScratch>) {
        let chain = &mut self.chain;
        let frames = &mut self.frames_in;
        match &mut self.front {
            Front::Full { sstft, lo, hi } => {
                let (lo, hi) = (*lo, *hi);
                let mut on_frame = |row: &[f64]| {
                    *frames += 1;
                    chain.consume_column(row);
                };
                match shared {
                    Some(sh) => {
                        let scratch =
                            sh.stft.get_or_insert_with(|| sstft.stft().make_scratch());
                        sstft.push_band_into_with_scratch(chunk, lo, hi, scratch, &mut on_frame);
                    }
                    None => sstft.push_band_into(chunk, lo, hi, &mut on_frame),
                }
            }
            Front::Down(d) => {
                // Straggler path: the decimating front-end keeps its
                // per-session scratch (its baseband geometry is per-stream).
                d.sdc.push(chunk, &mut d.baseband);
                Self::drain_down(d, frames, chain);
            }
        }
    }

    /// Extracts every completed baseband frame, then compacts the dead
    /// prefix so memory stays bounded.
    fn drain_down(d: &mut Down, frames: &mut usize, chain: &mut Chain) {
        let (size, hop) = (d.bb.fft_size(), d.bb.hop());
        while d.next_frame * hop + size <= d.base + d.baseband.len() {
            let start = d.next_frame * hop - d.base;
            d.bb.frame_rows_into(
                &d.baseband[start..start + size],
                d.row_lo,
                d.row_hi,
                &mut d.scratch,
                &mut d.band,
            );
            *frames += 1;
            chain.consume_column(&d.band);
            d.next_frame += 1;
        }
        let dead = d.next_frame * hop - d.base;
        if dead > 4096 && dead > d.baseband.len() - dead {
            d.baseband.drain(..dead);
            d.base += dead;
        }
    }

    /// Polls the segmenter and classifies every newly decided stroke.
    fn drain_events(&mut self, engine: &EchoWrite, classify: bool, events: &mut Vec<SegmentEvent>) {
        self.seg_scratch.clear();
        self.chain.segmenter.poll(&mut self.seg_scratch);
        for stroke in self.seg_scratch.drain(..) {
            let classification = classify.then(|| classify_traced(engine, &stroke.shifts));
            self.emitted_until = self.emitted_until.max(stroke.segment.end);
            events.push(SegmentEvent {
                classification,
                start_frame: stroke.segment.start,
                end_frame: stroke.segment.end,
            });
        }
    }

    fn finish(&mut self, engine: &EchoWrite, classify: bool, events: &mut Vec<SegmentEvent>) {
        // The full-rate front drops trailing partial frames exactly like the
        // offline framer; the decimated front must flush the edge-tap
        // baseband samples the causal filter was still holding back.
        if let Front::Down(d) = &mut self.front {
            d.sdc.finish(&mut d.baseband);
            Self::drain_down(d, &mut self.frames_in, &mut self.chain);
        }
        self.chain.finish();
        self.seg_scratch.clear();
        self.chain.segmenter.finish(&mut self.seg_scratch);
        for stroke in self.seg_scratch.drain(..) {
            let classification = classify.then(|| classify_traced(engine, &stroke.shifts));
            self.emitted_until = self.emitted_until.max(stroke.segment.end);
            events.push(SegmentEvent {
                classification,
                start_frame: stroke.segment.start,
                end_frame: stroke.segment.end,
            });
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EchoWriteConfig;
    use echowrite_gesture::{Stroke, Writer, WriterParams};
    use echowrite_synth::{DeviceProfile, EnvironmentProfile, Scene};
    use std::sync::OnceLock;

    fn engine() -> &'static EchoWrite {
        static E: OnceLock<EchoWrite> = OnceLock::new();
        E.get_or_init(EchoWrite::new)
    }

    fn streaming_engine() -> &'static EchoWrite {
        static E: OnceLock<EchoWrite> = OnceLock::new();
        E.get_or_init(|| EchoWrite::with_config(EchoWriteConfig::streaming()))
    }

    fn render(strokes: &[Stroke], seed: u64) -> Vec<f64> {
        let perf = Writer::new(WriterParams::nominal(), seed).write_sequence(strokes);
        Scene::new(DeviceProfile::mate9(), EnvironmentProfile::meeting_room(), seed)
            .render(&perf.trajectory)
    }

    /// Renders a stroke sequence followed by `tail` seconds of rest (finger
    /// held still, carrier still on — digital zeros would be an unphysical
    /// carrier cutoff).
    fn render_with_tail(strokes: &[Stroke], seed: u64, tail: f64) -> Vec<f64> {
        let perf = Writer::new(WriterParams::nominal(), seed).write_sequence(strokes);
        let mut traj = perf.trajectory;
        let last = *traj.points().last().expect("non-empty");
        traj.hold(last, tail);
        Scene::new(DeviceProfile::mate9(), EnvironmentProfile::meeting_room(), seed)
            .render(&traj)
    }

    #[test]
    fn streaming_matches_offline_for_a_sequence() {
        let e = engine();
        let strokes = [Stroke::S2, Stroke::S5, Stroke::S1];
        let audio = render_with_tail(&strokes, 21, 1.2);
        let offline = e.recognize_strokes(&audio);

        let mut stream = StreamingRecognizer::new(e);
        let mut streamed: Vec<Stroke> = Vec::new();
        // The Android app reads 5-frame buffers = 5 × 1024 samples.
        for chunk in audio.chunks(5 * 1024) {
            for ev in stream.push(chunk) {
                streamed.push(ev.classification.stroke);
            }
        }
        assert_eq!(streamed, offline.strokes(), "streaming vs offline mismatch");
    }

    /// The tentpole guarantee on the incremental path: pushes + finish give
    /// exactly the offline stroke sequence *and* segment boundaries.
    #[test]
    fn incremental_matches_offline_exactly() {
        let e = streaming_engine();
        let strokes = [Stroke::S2, Stroke::S5, Stroke::S1];
        let audio = render_with_tail(&strokes, 21, 1.2);
        let offline = e.recognize_strokes(&audio);

        let mut stream = StreamingRecognizer::new(e);
        assert!(stream.is_incremental());
        let mut events = Vec::new();
        for chunk in audio.chunks(5 * 1024) {
            events.extend(stream.push(chunk));
        }
        events.extend(stream.finish());
        assert_eq!(events.len(), offline.segments.len());
        for (ev, (seg, cls)) in events
            .iter()
            .zip(offline.segments.iter().zip(&offline.classifications))
        {
            assert_eq!(ev.start_frame, seg.start);
            assert_eq!(ev.end_frame, seg.end);
            assert_eq!(ev.classification.stroke, cls.stroke);
            assert_eq!(ev.classification.scores, cls.scores, "DTW scores must be bitwise equal");
        }
        // Pushing after finish is inert.
        assert!(stream.push(&[0.0; 4096]).is_empty());
    }

    /// A stroke ending right at the session end is only decidable at
    /// finish — and must still match offline.
    #[test]
    fn incremental_finish_flushes_tail_stroke() {
        let e = streaming_engine();
        let audio = render(&[Stroke::S3], 9); // no rest tail
        let offline = e.recognize_strokes(&audio);
        let mut stream = StreamingRecognizer::new(e);
        let mut pushed = Vec::new();
        for chunk in audio.chunks(4096) {
            pushed.extend(stream.push(chunk));
        }
        let finished = stream.finish();
        let all: Vec<Stroke> = pushed
            .iter()
            .chain(&finished)
            .map(|ev| ev.classification.stroke)
            .collect();
        assert_eq!(all, offline.strokes());
        assert!(!offline.strokes().is_empty(), "scenario must contain a stroke");
    }

    #[test]
    fn incremental_reset_clears_state() {
        let e = streaming_engine();
        let mut stream = StreamingRecognizer::new(e);
        stream.push(&render(&[Stroke::S2], 3));
        stream.finish();
        stream.reset();
        assert_eq!(stream.emitted_until(), 0);
        assert_eq!(stream.frames_processed(), 0);
        // Usable again after reset.
        assert!(stream.push(&vec![0.0; 44_100]).is_empty());
    }

    #[test]
    fn replay_mode_can_be_forced() {
        let cfg = EchoWriteConfig {
            streaming: crate::config::StreamingMode::Replay,
            ..EchoWriteConfig::streaming()
        };
        let e = EchoWrite::with_config(cfg);
        let stream = StreamingRecognizer::new(&e);
        assert!(!stream.is_incremental());
    }

    #[test]
    fn events_carry_monotone_frames() {
        let e = engine();
        let audio = render_with_tail(&[Stroke::S3, Stroke::S6], 5, 1.2);
        let mut stream = StreamingRecognizer::new(e);
        let mut last_end = 0;
        let mut all = Vec::new();
        for chunk in audio.chunks(4096) {
            all.extend(stream.push(chunk));
        }
        assert!(!all.is_empty());
        for ev in &all {
            assert!(ev.start_frame >= last_end);
            assert!(ev.end_frame > ev.start_frame);
            last_end = ev.end_frame;
        }
        assert_eq!(stream.emitted_until(), last_end);
    }

    #[test]
    fn silence_emits_nothing() {
        let e = engine();
        let mut stream = StreamingRecognizer::new(e);
        assert!(stream.push(&vec![0.0; 88_200]).is_empty());
    }

    #[test]
    fn buffer_stays_bounded() {
        let e = engine();
        let mut stream = StreamingRecognizer::new(e).with_window_seconds(2.0);
        let audio = render(&[Stroke::S2], 13);
        for chunk in audio.chunks(8192) {
            stream.push(chunk);
        }
        // Push a long silent tail; the buffer must not grow unboundedly.
        for _ in 0..20 {
            stream.push(&vec![0.0; 22_050]);
        }
        assert!(
            stream.buffered_samples() <= (2.5 * 44_100.0) as usize,
            "buffer grew to {}",
            stream.buffered_samples()
        );
    }

    #[test]
    fn incremental_buffer_stays_bounded() {
        let e = streaming_engine();
        let mut stream = StreamingRecognizer::new(e);
        let audio = render(&[Stroke::S2], 13);
        for chunk in audio.chunks(8192) {
            stream.push(chunk);
        }
        for _ in 0..40 {
            stream.push(&vec![0.0; 22_050]);
        }
        // The incremental front-end holds at most ~1 FFT window of audio.
        assert!(
            stream.buffered_samples() <= 4 * e.config().stft.fft_size,
            "front-end retained {} samples",
            stream.buffered_samples()
        );
    }

    /// Satellite regression for the dedup rule: a small window forces a
    /// buffer trim between strokes; re-analysis boundaries then wobble, and
    /// the old `abs_start < emitted_until` test either duplicated or
    /// dropped strokes. Interval identity with tolerance must keep the
    /// streamed sequence equal to offline.
    #[test]
    fn trim_between_strokes_neither_duplicates_nor_drops() {
        let e = engine();
        let strokes = [Stroke::S2, Stroke::S5];
        let audio = render_with_tail(&strokes, 17, 1.2);
        let offline = e.recognize_strokes(&audio);
        assert_eq!(offline.strokes().len(), 2, "scenario needs two offline strokes");

        let mut stream = StreamingRecognizer::new(e).with_window_seconds(1.2);
        let mut events = Vec::new();
        for chunk in audio.chunks(2048) {
            events.extend(stream.push(chunk));
        }
        assert!(
            stream.buffered_samples() <= (1.2 * 44_100.0) as usize + 2048,
            "scenario must actually trim the window"
        );
        events.extend(stream.finish());

        // No duplicates: re-analyses after a trim wobble segment boundaries
        // (the window's normalization changes), and the old scalar
        // `abs_start < emitted_until` check re-emitted or dropped such
        // strokes. Interval identity must keep every emitted span disjoint.
        for (i, a) in events.iter().enumerate() {
            for b in &events[i + 1..] {
                assert!(
                    a.end_frame + DEDUP_TOLERANCE_FRAMES <= b.start_frame
                        || b.end_frame + DEDUP_TOLERANCE_FRAMES <= a.start_frame,
                    "duplicate emission: {}..{} vs {}..{}",
                    a.start_frame,
                    a.end_frame,
                    b.start_frame,
                    b.end_frame
                );
            }
        }
        // No drops: every offline stroke appears, in order (renormalization
        // of the shrunken window may add spurious detections between
        // strokes, but must never lose one).
        let streamed: Vec<Stroke> = events.iter().map(|ev| ev.classification.stroke).collect();
        let mut it = streamed.iter();
        for want in offline.strokes() {
            assert!(
                it.any(|&s| s == want),
                "offline stroke {want:?} missing from streamed {streamed:?}"
            );
        }
    }

    #[test]
    fn reset_clears_state() {
        let e = engine();
        let mut stream = StreamingRecognizer::new(e);
        stream.push(&render(&[Stroke::S2], 3));
        stream.push(&vec![0.0; 44_100]);
        stream.reset();
        assert_eq!(stream.buffered_samples(), 0);
        assert_eq!(stream.emitted_until(), 0);
    }

    #[test]
    #[should_panic(expected = "background lead-in")]
    fn rejects_tiny_window() {
        let e = engine();
        let _ = StreamingRecognizer::new(e).with_window_seconds(0.01);
    }

    /// The window minimum is exactly the background lead-in: one frame plus
    /// `static_frames − 1` hops.
    #[test]
    fn window_minimum_is_background_lead_in() {
        let e = engine();
        let cfg = e.config();
        let min = cfg.stft.fft_size + (cfg.enhance.static_frames - 1) * cfg.stft.hop;
        let rate = cfg.stft.sample_rate;
        // Half a sample above/below the boundary avoids float truncation
        // ambiguity in the seconds → samples conversion.
        let _ = StreamingRecognizer::new(e).with_window_seconds((min as f64 + 0.5) / rate);
        let result = std::panic::catch_unwind(|| {
            let _ = StreamingRecognizer::new(e).with_window_seconds((min as f64 - 0.5) / rate);
        });
        assert!(result.is_err(), "one sample short of the lead-in must be rejected");
    }

    /// Streams `audio` in 5-hop chunks, returning every event from pushes
    /// plus finish.
    fn full_stream(stream: &mut StreamingRecognizer<'_>, audio: &[f64]) -> Vec<StrokeEvent> {
        let mut events = Vec::new();
        for chunk in audio.chunks(5 * 1024) {
            events.extend(stream.push(chunk));
        }
        events.extend(stream.finish());
        events
    }

    fn assert_bitwise_equal(a: &[StrokeEvent], b: &[StrokeEvent]) {
        assert_eq!(a.len(), b.len(), "event counts differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.start_frame, y.start_frame);
            assert_eq!(x.end_frame, y.end_frame);
            assert_eq!(x.classification.stroke, y.classification.stroke);
            assert_eq!(
                x.classification.distances, y.classification.distances,
                "DTW distances must be bitwise equal"
            );
            assert_eq!(
                x.classification.scores, y.classification.scores,
                "DTW scores must be bitwise equal"
            );
        }
    }

    /// Satellite regression: a recognizer reused via the cheap in-place
    /// `reset()` is bitwise-equal to a fresh one — on the incremental path
    /// every stage (front-end, enhancer, profile, diff, segmenter) must
    /// come back to its construction state without reallocating.
    #[test]
    fn incremental_reset_session_is_bitwise_equal_to_fresh() {
        let e = streaming_engine();
        let first = render_with_tail(&[Stroke::S4, Stroke::S1], 11, 1.2);
        let second = render_with_tail(&[Stroke::S2, Stroke::S5, Stroke::S6], 23, 1.2);

        let mut fresh = StreamingRecognizer::new(e);
        let want = full_stream(&mut fresh, &second);
        assert!(!want.is_empty(), "scenario must produce strokes");

        let mut reused = StreamingRecognizer::new(e);
        let _ = full_stream(&mut reused, &first); // dirty every stage
        reused.reset();
        assert_eq!(reused.emitted_until(), 0);
        assert_eq!(reused.frames_processed(), 0);
        assert!(!reused.background_frozen(), "cold reset must drop the background");
        let got = full_stream(&mut reused, &second);
        assert_bitwise_equal(&got, &want);
    }

    /// Same regression on the replay path: reset must clear the window,
    /// dedup intervals, and frame offset.
    #[test]
    fn replay_reset_session_is_bitwise_equal_to_fresh() {
        let e = engine();
        let first = render_with_tail(&[Stroke::S3], 31, 1.2);
        let second = render_with_tail(&[Stroke::S2, Stroke::S5], 17, 1.2);

        let mut fresh = StreamingRecognizer::new(e);
        let want = full_stream(&mut fresh, &second);
        assert!(!want.is_empty(), "scenario must produce strokes");

        let mut reused = StreamingRecognizer::new(e);
        let _ = full_stream(&mut reused, &first);
        reused.reset();
        assert!(!reused.background_frozen());
        let got = full_stream(&mut reused, &second);
        assert_bitwise_equal(&got, &want);
    }

    /// Warm reset keeps the frozen background, so the next session skips the
    /// lead-in; replaying the *same* scene must still be bitwise-equal to a
    /// fresh session (the retained background equals the one a fresh lead-in
    /// over the same audio would estimate).
    #[test]
    fn warm_reset_keeps_background_and_replays_bitwise() {
        for e in [streaming_engine(), engine()] {
            let audio = render_with_tail(&[Stroke::S2, Stroke::S5], 19, 1.2);
            let mut fresh = StreamingRecognizer::new(e);
            let want = full_stream(&mut fresh, &audio);
            assert!(!want.is_empty(), "scenario must produce strokes");

            let mut warm = StreamingRecognizer::new(e);
            let _ = full_stream(&mut warm, &audio);
            assert!(warm.background_frozen());
            warm.reset_keep_background();
            assert!(warm.background_frozen(), "warm reset must keep the background");
            assert_eq!(warm.emitted_until(), 0);
            let got = full_stream(&mut warm, &audio);
            assert_bitwise_equal(&got, &want);
        }
    }

    /// The batched-shard entry point: interleaved sessions pushed through
    /// one [`SharedDspScratch`] are bitwise identical to sessions running on
    /// their embedded per-session arenas.
    #[test]
    fn shared_scratch_sessions_are_bitwise_equal() {
        let e = streaming_engine();
        let a = render_with_tail(&[Stroke::S2, Stroke::S5], 41, 1.2);
        let b = render_with_tail(&[Stroke::S3, Stroke::S1], 43, 1.2);

        let reference = |audio: &[f64]| {
            let mut s = StreamingSession::new(e);
            let mut ev = Vec::new();
            for chunk in audio.chunks(5 * 1024) {
                s.push_events(e, chunk, true, &mut ev);
            }
            s.finish_events(e, true, &mut ev);
            ev
        };
        let want_a = reference(&a);
        let want_b = reference(&b);
        assert!(!want_a.is_empty() && !want_b.is_empty(), "scenarios must produce strokes");

        let mut shared = SharedDspScratch::new();
        let mut sa = StreamingSession::new(e);
        let mut sb = StreamingSession::new(e);
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        let (mut ca, mut cb) = (a.chunks(5 * 1024), b.chunks(5 * 1024));
        loop {
            let (x, y) = (ca.next(), cb.next());
            if x.is_none() && y.is_none() {
                break;
            }
            if let Some(c) = x {
                sa.push_events_shared(e, c, true, &mut shared, &mut got_a);
            }
            if let Some(c) = y {
                sb.push_events_shared(e, c, true, &mut shared, &mut got_b);
            }
        }
        sa.finish_events(e, true, &mut got_a);
        sb.finish_events(e, true, &mut got_b);
        for (got, want) in [(&got_a, &want_a), (&got_b, &want_b)] {
            assert_eq!(got.len(), want.len(), "event counts differ");
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(g.start_frame, w.start_frame);
                assert_eq!(g.end_frame, w.end_frame);
                let gc = g.classification.as_ref().expect("classified run");
                let wc = w.classification.as_ref().expect("classified run");
                assert_eq!(gc.stroke, wc.stroke);
                assert_eq!(gc.scores, wc.scores, "DTW scores must be bitwise equal");
            }
        }
    }

    /// Streams a session over `audio` in fixed chunks, with an optional
    /// suspend (export → drop → [`StreamingSession::from_state`]) at chunk
    /// boundary `cut_chunk`.
    fn session_events_with_cut(
        e: &EchoWrite,
        audio: &[f64],
        chunk: usize,
        cut_chunk: Option<usize>,
    ) -> Vec<SegmentEvent> {
        let mut s = StreamingSession::new(e);
        let mut ev = Vec::new();
        for (i, c) in audio.chunks(chunk).enumerate() {
            if cut_chunk == Some(i) {
                let state = s.export_state();
                s = StreamingSession::from_state(e, &state).expect("restore must succeed");
            }
            s.push_events(e, c, true, &mut ev);
        }
        s.finish_events(e, true, &mut ev);
        ev
    }

    fn assert_segment_events_bitwise(got: &[SegmentEvent], want: &[SegmentEvent]) {
        assert_eq!(got.len(), want.len(), "event counts differ");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.start_frame, w.start_frame);
            assert_eq!(g.end_frame, w.end_frame);
            let (Some(gc), Some(wc)) = (&g.classification, &w.classification) else {
                panic!("classified runs must classify every event");
            };
            assert_eq!(gc.stroke, wc.stroke);
            assert_eq!(gc.distances, wc.distances, "DTW distances must be bitwise equal");
            assert_eq!(gc.scores, wc.scores, "DTW scores must be bitwise equal");
        }
    }

    /// The tentpole guarantee of the snapshot layer: suspending a session at
    /// any push boundary (including mid-stroke) and resuming from the
    /// exported state yields bitwise the transcript of the uninterrupted
    /// session — on the incremental path for both front-ends, and on the
    /// replay oracle.
    #[test]
    fn session_state_roundtrip_resumes_bitwise() {
        let down = EchoWrite::with_config(EchoWriteConfig::streaming_downsampled(32));
        for e in [streaming_engine(), engine(), &down] {
            let audio = render_with_tail(&[Stroke::S2, Stroke::S5], 29, 1.2);
            let want = session_events_with_cut(e, &audio, 5 * 1024, None);
            assert!(!want.is_empty(), "scenario must produce strokes");
            let n_chunks = audio.len().div_ceil(5 * 1024);
            for cut in [1, n_chunks / 2, n_chunks - 1] {
                let got = session_events_with_cut(e, &audio, 5 * 1024, Some(cut));
                assert_segment_events_bitwise(&got, &want);
            }
        }
    }

    /// On the incremental path the resumed session is chunking-invariant:
    /// the cut may fall anywhere, not only on a reference chunk boundary.
    #[test]
    fn incremental_roundtrip_survives_misaligned_cut() {
        let e = streaming_engine();
        let audio = render_with_tail(&[Stroke::S4, Stroke::S1], 11, 1.2);
        let want = session_events_with_cut(e, &audio, 5 * 1024, None);
        assert!(!want.is_empty());
        for cut in [997usize, audio.len() / 2 + 13, audio.len() - 777] {
            let mut first = StreamingSession::new(e);
            let mut ev = Vec::new();
            for c in audio[..cut].chunks(3 * 1024 + 7) {
                first.push_events(e, c, true, &mut ev);
            }
            let state = first.export_state();
            drop(first);
            let mut resumed = StreamingSession::from_state(e, &state).expect("restore");
            for c in audio[cut..].chunks(2 * 1024 + 1) {
                resumed.push_events(e, c, true, &mut ev);
            }
            resumed.finish_events(e, true, &mut ev);
            assert_segment_events_bitwise(&ev, &want);
        }
    }

    /// Restore also works in place onto a dirty pooled session (the serve
    /// thaw path), overwriting whatever the slot held before.
    #[test]
    fn restore_overwrites_dirty_pooled_session() {
        let e = streaming_engine();
        let audio = render_with_tail(&[Stroke::S3, Stroke::S6], 5, 1.2);
        let want = session_events_with_cut(e, &audio, 4096, None);
        assert!(!want.is_empty());

        let cut = 5 * 4096;
        let mut first = StreamingSession::new(e);
        let mut ev = Vec::new();
        for c in audio[..cut].chunks(4096) {
            first.push_events(e, c, true, &mut ev);
        }
        let state = first.export_state();

        // Dirty a different session with unrelated audio, then thaw into it.
        let mut pooled = StreamingSession::new(e);
        let mut junk = Vec::new();
        pooled.push_events(e, &render(&[Stroke::S2], 3), true, &mut junk);
        pooled.restore_state(e, &state).expect("in-place restore");
        for c in audio[cut..].chunks(4096) {
            pooled.push_events(e, c, true, &mut ev);
        }
        pooled.finish_events(e, true, &mut ev);
        assert_segment_events_bitwise(&ev, &want);
    }

    #[test]
    fn restore_rejects_mismatched_engine() {
        let state = StreamingSession::new(streaming_engine()).export_state();
        assert_eq!(
            StreamingSession::from_state(engine(), &state).unwrap_err(),
            RestoreError::ModeMismatch,
            "incremental state must not restore under a replay engine"
        );
        let down = EchoWrite::with_config(EchoWriteConfig::streaming_downsampled(32));
        assert_eq!(
            StreamingSession::from_state(&down, &state).unwrap_err(),
            RestoreError::FrontendMismatch,
            "full-STFT state must not restore onto the decimating front-end"
        );
    }

    #[test]
    fn restore_rejects_corrupt_state() {
        let e = streaming_engine();
        let mut s = StreamingSession::new(e);
        let mut ev = Vec::new();
        s.push_events(e, &render(&[Stroke::S2], 3), true, &mut ev);
        // Frame counter disagreeing with the enhancer's column count.
        let mut bad = s.export_state();
        if let SessionBody::Incremental(is) = &mut bad.body {
            is.frames_in += 1;
        }
        assert!(matches!(StreamingSession::from_state(e, &bad), Err(RestoreError::Invalid(_))));

        // Down-converter cursors that do not add up.
        let down_e = EchoWrite::with_config(EchoWriteConfig::streaming_downsampled(32));
        let mut ds = StreamingSession::new(&down_e);
        ds.push_events(&down_e, &render(&[Stroke::S2], 3), true, &mut ev);
        let mut bad = ds.export_state();
        if let SessionBody::Incremental(is) = &mut bad.body {
            if let FrontState::Down(d) = &mut is.front {
                d.sdc.total_in += 7;
            }
        }
        assert!(matches!(
            StreamingSession::from_state(&down_e, &bad),
            Err(RestoreError::Invalid(_))
        ));

        // Replay: a frozen background with the wrong row count.
        let e = engine();
        let mut r = StreamingSession::new(e);
        r.push_events(e, &render_with_tail(&[Stroke::S2], 3, 1.2), true, &mut ev);
        let mut bad = r.export_state();
        if let SessionBody::Replay(rs) = &mut bad.body {
            let bg = rs.background.as_mut().expect("background must be frozen");
            bg.pop();
        }
        assert!(matches!(StreamingSession::from_state(e, &bad), Err(RestoreError::Invalid(_))));
    }

    /// Counters crafted to overflow the push path's index arithmetic (one
    /// wire `Import` frame can carry any of them) are refused at restore,
    /// instead of panicking there or on the next push.
    #[test]
    fn restore_rejects_crafted_counters() {
        let e = streaming_engine();
        let mut s = StreamingSession::new(e);
        let mut ev = Vec::new();
        s.push_events(e, &render(&[Stroke::S2], 3), true, &mut ev);
        let good = s.export_state();
        use echowrite_profile::SegmenterPhase;
        type Craft = fn(&mut ChainState);
        let crafted: [(&str, Craft); 6] = [
            ("enhancer.raw_base", |c| c.enhancer.raw_base = usize::MAX),
            ("segmenter.shifts_base", |c| c.segmenter.shifts_base = usize::MAX),
            ("builder.m", |c| c.builder.m = usize::MAX),
            ("diff.m", |c| c.diff.m = usize::MAX),
            ("segmenter scan past a wrapped tape", |c| {
                c.segmenter.shifts_base = usize::MAX - 100;
                c.segmenter.shifts = vec![0.0; 200];
                c.segmenter.phase = SegmenterPhase::Scan { i: usize::MAX };
            }),
            ("segmenter scan past its tape", |c| {
                c.segmenter.phase = SegmenterPhase::Scan { i: usize::MAX };
            }),
        ];
        for (what, craft) in crafted {
            let mut bad = good.clone();
            let SessionBody::Incremental(is) = &mut bad.body else {
                panic!("streaming() sessions are incremental");
            };
            craft(&mut is.chain);
            assert!(
                matches!(StreamingSession::from_state(e, &bad), Err(RestoreError::Invalid(_))),
                "{what}: crafted state restored"
            );
            let mut pooled = StreamingSession::new(e);
            assert!(
                matches!(pooled.restore_state(e, &bad), Err(RestoreError::Invalid(_))),
                "{what}: crafted state restored in place"
            );
        }
    }

    /// The serving layer's degraded mode: with `classify` false a session
    /// reports segment boundaries only (no DTW), and the boundaries are
    /// identical to the classified run's.
    #[test]
    fn degraded_push_emits_segment_only_events() {
        for e in [streaming_engine(), engine()] {
            let audio = render_with_tail(&[Stroke::S3, Stroke::S6], 5, 1.2);
            let mut classified = StreamingRecognizer::new(e);
            let want = full_stream(&mut classified, &audio);
            assert!(!want.is_empty());

            let mut session = StreamingSession::new(e);
            let mut events = Vec::new();
            for chunk in audio.chunks(5 * 1024) {
                session.push_events(e, chunk, false, &mut events);
            }
            session.finish_events(e, false, &mut events);
            assert_eq!(events.len(), want.len());
            for (ev, w) in events.iter().zip(&want) {
                assert!(ev.classification.is_none(), "degraded events must skip DTW");
                assert_eq!(ev.start_frame, w.start_frame);
                assert_eq!(ev.end_frame, w.end_frame);
            }
        }
    }
}
