//! `echowrite-wire` — a dependency-free TCP front-end over the
//! [`echowrite_serve::SessionManager`] (DESIGN.md §6.9).
//!
//! Four modules:
//!
//! - [`frame`] — the length-prefixed binary grammar: `Open`/`Push`/
//!   `Finish` requests; `Enqueued`/`QueueFull`/`Shedding` verdicts and
//!   `Segment`/`Finished`/`Reaped` events as responses, with audio and
//!   DTW scores carried as raw IEEE-754 bits so wire transcripts are
//!   bitwise identical to in-process [`echowrite_serve::SessionManager::submit`]
//!   transcripts.
//! - [`listener`] — [`listener::Listener`]: the bind / accept /
//!   thread-per-connection / shutdown scaffold shared with the
//!   `echowrite-obs` admin plane. It sets `TCP_NODELAY` on every accepted
//!   socket and joins finished handler threads as it accepts new ones.
//! - [`server`] — [`server::WireServer`]: reader/writer/router threads on
//!   the shared listener, propagating every
//!   [`echowrite_serve::SubmitVerdict`] back to the socket in request
//!   order and shedding backpressure through bounded per-connection
//!   write queues.
//! - [`client`] — [`client::WireClient`]: the blocking client used by
//!   the loopback, admin-plane and stitched-trace tests and by the demo.
//!
//! The crate is part of the echolint pipeline scope: no panic paths, no
//! wall-clock reads outside the quarantined `Stopwatch`, deterministic
//! collections only.

pub mod client;
pub mod frame;
pub mod listener;
pub mod server;

pub use client::{ClientError, WireClient};
pub use frame::{
    encode_request, encode_response, FrameDecoder, FrameError, Request, Response, MAX_FRAME_LEN,
};
pub use listener::Listener;
pub use server::WireServer;
