//! Plain-data snapshots of [`StreamingSession`](crate::StreamingSession)
//! state.
//!
//! A [`SessionState`] captures every *dynamic* field of a session — the
//! front-end's pending audio, the enhancement windows and frozen
//! background, the profile/differentiation tails, the segmenter's
//! interpreter position, the replay oracle's buffered window and dedup
//! intervals, and the per-session sample clock — and nothing that is
//! derived from the engine configuration (FFT plans, FIR taps, thresholds,
//! window coefficients). Restoring a state onto a session built from an
//! identically configured engine therefore resumes *bitwise* where the
//! exported session left off: no wall clocks or other ambient inputs exist
//! anywhere in the captured state, so `restore(export(s))` is deterministic
//! by construction.
//!
//! The types here are deliberately plain data with public fields: the
//! `echowrite-snapshot` crate encodes them into a compact versioned binary
//! form for eviction to disk, shard migration, and crash recovery, and a
//! decoder must be able to build them field by field. All structural
//! invariants are re-validated at restore time
//! ([`StreamingSession::restore_state`](crate::StreamingSession::restore_state)
//! returns [`RestoreError`] instead of panicking on garbage), so a decoded
//! state is never trusted.

use echowrite_dsp::downconvert::StreamingDownconverterState;
use echowrite_dsp::stft::StreamingStftState;
use echowrite_dsp::Complex;
use echowrite_profile::{IncrementalDiffState, ProfileBuilderState, StreamingSegmenterState};
use echowrite_spectro::EnhancerState;
use std::fmt;

/// Complete dynamic state of one [`StreamingSession`](crate::StreamingSession).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// Whether `finish_events` has run.
    pub finished: bool,
    /// Total input samples pushed — the session's logical clock.
    pub samples_in: u64,
    /// Implementation-specific state (incremental or replay).
    pub body: SessionBody,
}

/// The per-implementation half of a [`SessionState`].
// A session export is a short-lived value moved straight into the codec;
// both variants' real weight is in their heap buffers, so boxing the
// larger one would add indirection without shrinking anything that matters.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum SessionBody {
    /// State of the full-window replay oracle.
    Replay(ReplayState),
    /// State of the incremental path.
    Incremental(IncrementalState),
}

/// Dynamic state of the replay (full re-analysis) streaming path.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayState {
    /// The buffered audio window.
    pub buffer: Vec<f64>,
    /// Frozen static background captured from the session's opening frames.
    pub background: Option<Vec<f64>>,
    /// Frames already dropped from the front of the buffer.
    pub dropped_frames: u64,
    /// Absolute `(start, end)` intervals of emitted strokes.
    pub emitted: Vec<(u64, u64)>,
    /// Largest emitted end frame.
    pub emitted_until: u64,
    /// Maximum buffered duration in samples (the window override survives
    /// suspension).
    pub max_samples: u64,
}

/// Dynamic state of the incremental streaming path.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalState {
    /// Front-end state (full-rate STFT or decimating down-converter).
    pub front: FrontState,
    /// Per-column processing chain state.
    pub chain: ChainState,
    /// Raw spectrogram columns produced by the front-end.
    pub frames_in: u64,
    /// The absolute frame up to which strokes have been emitted.
    pub emitted_until: u64,
}

/// State of the incremental path's spectrogram front-end.
#[derive(Debug, Clone, PartialEq)]
pub enum FrontState {
    /// Full-rate streaming STFT state.
    Full(StreamingStftState),
    /// Decimating down-converter front-end state.
    Down(DownState),
}

/// State of the decimating front-end: the streaming down-converter plus the
/// baseband framing cursor.
#[derive(Debug, Clone, PartialEq)]
pub struct DownState {
    /// Streaming down-converter state.
    pub sdc: StreamingDownconverterState,
    /// Baseband samples not yet fully consumed by framing.
    pub baseband: Vec<Complex>,
    /// Absolute baseband index of `baseband[0]`.
    pub base: u64,
    /// Next baseband frame to extract.
    pub next_frame: u64,
}

/// State of the per-column chain: enhancement → MVCE/SMA → differentiation
/// → segmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainState {
    /// Incremental enhancer state.
    pub enhancer: EnhancerState,
    /// Profile builder (MVCE + SMA) state.
    pub builder: ProfileBuilderState,
    /// Noise-robust differentiator state.
    pub diff: IncrementalDiffState,
    /// Segmenter state machine.
    pub segmenter: StreamingSegmenterState,
}

/// Why restoring a [`SessionState`] was refused. The receiving session is
/// left in an unspecified (but memory-safe) state on error; reset it before
/// reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// The state's flavor (incremental vs replay) disagrees with the
    /// engine's resolved streaming mode.
    ModeMismatch,
    /// The state's front-end disagrees with the engine's configured
    /// front-end.
    FrontendMismatch,
    /// A section violates a structural invariant; the message names the
    /// failed check.
    Invalid(&'static str),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::ModeMismatch => {
                write!(f, "session state flavor disagrees with the engine's streaming mode")
            }
            RestoreError::FrontendMismatch => {
                write!(f, "session state front-end disagrees with the engine's front-end")
            }
            RestoreError::Invalid(msg) => write!(f, "invalid session state: {msg}"),
        }
    }
}

impl std::error::Error for RestoreError {}
