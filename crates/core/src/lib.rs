//! # EchoWrite
//!
//! A full reproduction of *EchoWrite: An Acoustic-based Finger Input System
//! Without Training* (ICDCS 2019). EchoWrite turns a commodity speaker +
//! microphone pair into a touch-free text-entry device: the speaker emits
//! an inaudible 20 kHz tone, the user writes one of six basic strokes per
//! letter in the air, and the Doppler signature each stroke imprints on the
//! echo is recognized — without any per-user training — and decoded into
//! words T9-style.
//!
//! The pipeline (paper Fig. 7):
//!
//! ```text
//! audio 44.1 kHz
//!   └─ STFT (8192-pt Hann, 1024 hop)          echowrite-dsp
//!       └─ ROI crop [19 530, 20 470] Hz        echowrite-spectro
//!           └─ enhancement (median, spectral
//!              subtraction, α-threshold,
//!              Gaussian, binarize, fill)       echowrite-spectro
//!               └─ MVCE Doppler profile        echowrite-profile
//!                   └─ acceleration-based
//!                      stroke segmentation     echowrite-profile
//!                       └─ DTW vs 6 templates  echowrite-dtw
//!                           └─ Bayesian word
//!                              decoding + 2-gram
//!                              prediction      echowrite-lang
//! ```
//!
//! # Quickstart
//!
//! ```
//! use echowrite::EchoWrite;
//! use echowrite_gesture::{Writer, WriterParams, Stroke};
//! use echowrite_synth::{Scene, DeviceProfile, EnvironmentProfile};
//!
//! // Simulate a user writing "S2" near a phone in a meeting room …
//! let perf = Writer::new(WriterParams::nominal(), 1).write_stroke(Stroke::S2);
//! let scene = Scene::new(DeviceProfile::mate9(), EnvironmentProfile::meeting_room(), 1);
//! let mic = scene.render(&perf.trajectory);
//!
//! // … and recognize it from the raw microphone samples.
//! let engine = EchoWrite::new();
//! let rec = engine.recognize_strokes(&mic);
//! assert_eq!(rec.strokes(), vec![Stroke::S2]);
//! ```

pub mod config;
pub mod engine;
pub mod pipeline;
pub mod session_state;
pub mod streaming;
pub mod templates;
pub mod text_session;

pub use config::{EchoWriteConfig, Frontend, Parallelism, StreamingMode};
pub use engine::{EchoWrite, EngineError, StrokeRecognition, WordRecognition};
pub use pipeline::{Pipeline, StageTiming};
pub use session_state::{
    ChainState, DownState, FrontState, IncrementalState, ReplayState, RestoreError, SessionBody,
    SessionState,
};
pub use streaming::{
    SegmentEvent, SharedDspScratch, StreamingRecognizer, StreamingSession, StrokeEvent,
};
pub use text_session::{SessionEvent, TextSession};
