//! The wire frame grammar (DESIGN.md §6.9).
//!
//! Every frame is length-prefixed binary, all integers little-endian,
//! floats carried as raw IEEE-754 bit patterns (the wire path must be
//! bitwise-transparent to the DSP results):
//!
//! ```text
//! frame   := len:u32  kind:u8  payload
//! len     — byte length of `kind + payload` (so an empty-payload frame
//!           has len = 1); capped at MAX_FRAME_LEN
//! ```
//!
//! Request payloads (client → server) all begin with a *client-assigned*
//! `req:u64` correlation id (layout v2 — the id was added for the
//! observability plane's trace stitching, DESIGN.md §6.11):
//!
//! ```text
//! 0x01 Open      req:u64  session:u64
//! 0x02 Push      req:u64  session:u64  n:u32  samples:f64[n]
//! 0x03 Finish    req:u64  session:u64
//! 0x04 Export    req:u64  session:u64
//! 0x05 Import    req:u64  session:u64  n:u32  snapshot:u8[n]
//! ```
//!
//! Response payloads (server → client); verdict frames echo the request's
//! `req`, event frames carry none:
//!
//! ```text
//! 0x81 Enqueued   req:u64  session:u64
//! 0x82 QueueFull  req:u64  session:u64  retry_after_chunks:u64
//! 0x83 Shedding   req:u64  session:u64
//! 0x84 Segment    session:u64  start:u64  end:u64  flag:u8
//!                 [stroke:u8  distances:f64[6]  scores:f64[6]]  (flag = 1)
//! 0x85 Finished   session:u64
//! 0x86 Reaped     session:u64
//! 0x87 Exported   req:u64  session:u64  flag:u8  [n:u32  snapshot:u8[n]]  (flag = 1)
//! 0x88 Imported   req:u64  session:u64  ok:u8
//! ```
//!
//! `Enqueued`/`QueueFull`/`Shedding`/`Exported`/`Imported` are *verdict*
//! frames: exactly one is written per request, in request order, so a
//! client can correlate them positionally — the echoed `req` additionally
//! lets post-hoc tooling (flight-recorder dumps, stitched Chrome traces)
//! correlate without observing the order. `Segment`/`Finished`/`Reaped`
//! are *event* frames routed from the serve event channel; they interleave
//! arbitrarily with verdicts but carry their session id.
//!
//! `Export`/`Import` carry `echowrite-snapshot` session checkpoints for
//! cross-process migration: an `Export` removes the session from the
//! serving manager and returns its encoded snapshot (flag = 0 when the id
//! is unknown); an `Import` installs previously exported bytes under the
//! id (ok = 0 when the id is live, admission sheds it, or the bytes fail
//! to decode under the server's engine). Snapshots are a few hundred KiB
//! at most, comfortably under [`MAX_FRAME_LEN`].
//!
//! Anything that violates the grammar — a length past [`MAX_FRAME_LEN`], an
//! unknown kind byte, a payload whose size disagrees with its kind — is a
//! [`FrameError`]: the connection is counted malformed and closed rather
//! than resynchronized (a desynced length-prefixed stream cannot be trusted
//! again).

use echowrite_dtw::Classification;
use echowrite_gesture::stroke::STROKE_COUNT;
use echowrite_gesture::Stroke;
use echowrite_serve::{ServeEvent, SessionId, SubmitVerdict};

/// Hard cap on `len` (bytes after the length prefix). Generous for audio
/// pushes — 2 MiB is ~26 s of 8-byte samples at 10 kHz — while bounding
/// what a malformed or hostile length prefix can make the server buffer.
pub const MAX_FRAME_LEN: usize = 2 * 1024 * 1024;

/// A request frame, client → server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Start (or idempotently re-open) a session.
    Open {
        /// The session to open.
        session: u64,
    },
    /// Append audio samples to a live session.
    Push {
        /// The session pushed to.
        session: u64,
        /// The audio chunk, bit-exact f64 samples.
        samples: Vec<f64>,
    },
    /// End a session, flushing every remaining segment.
    Finish {
        /// The session to finish.
        session: u64,
    },
    /// Remove the session from the server and return its encoded
    /// `echowrite-snapshot` checkpoint (migration source side).
    Export {
        /// The session to export.
        session: u64,
    },
    /// Install a previously exported checkpoint under the session id
    /// (migration destination side).
    Import {
        /// The session to install.
        session: u64,
        /// The exported snapshot bytes.
        snapshot: Vec<u8>,
    },
}

impl Request {
    /// The session id every request variant carries.
    pub fn session(&self) -> u64 {
        match self {
            Request::Open { session }
            | Request::Push { session, .. }
            | Request::Finish { session }
            | Request::Export { session }
            | Request::Import { session, .. } => *session,
        }
    }
}

/// A response frame, server → client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Verdict: the request was accepted into its shard queue.
    Enqueued {
        /// Echo of the request's client-assigned correlation id.
        request_id: u64,
        /// Session the verdict answers for.
        session: u64,
    },
    /// Verdict: the shard queue was full; retry after roughly this many
    /// queued commands have drained.
    QueueFull {
        /// Echo of the request's client-assigned correlation id.
        request_id: u64,
        /// Session the verdict answers for.
        session: u64,
        /// Queue depth of the rejecting shard.
        retry_after_chunks: u64,
    },
    /// Verdict: rejected by admission control (or the server is shutting
    /// down).
    Shedding {
        /// Echo of the request's client-assigned correlation id.
        request_id: u64,
        /// Session the verdict answers for.
        session: u64,
    },
    /// Event: a decided stroke segment. `classification` is `None` when
    /// the producing push was degraded by a missed deadline.
    Segment {
        /// Session that produced the segment.
        session: u64,
        /// Segment start, in the session's absolute frame clock.
        start_frame: u64,
        /// Segment end, in the session's absolute frame clock.
        end_frame: u64,
        /// DTW classification, absent for degraded pushes.
        classification: Option<Classification>,
    },
    /// Event: the session finished; all its segments have been emitted.
    Finished {
        /// The finished session.
        session: u64,
    },
    /// Event: the idle reaper reclaimed the session.
    Reaped {
        /// The reaped session.
        session: u64,
    },
    /// Verdict for [`Request::Export`]: the session's snapshot bytes, or
    /// `None` when the id was unknown to the server.
    Exported {
        /// Echo of the request's client-assigned correlation id.
        request_id: u64,
        /// Session the verdict answers for.
        session: u64,
        /// The encoded snapshot; `None` for an unknown id.
        snapshot: Option<Vec<u8>>,
    },
    /// Verdict for [`Request::Import`]: whether the snapshot was
    /// installed.
    Imported {
        /// Echo of the request's client-assigned correlation id.
        request_id: u64,
        /// Session the verdict answers for.
        session: u64,
        /// `false` when the id is live, admission sheds it, or the bytes
        /// fail to decode under the server's engine.
        ok: bool,
    },
}

impl Response {
    /// Whether this is a verdict frame (one per request, in request
    /// order), as opposed to an asynchronous event frame.
    pub fn is_verdict(&self) -> bool {
        matches!(
            self,
            Response::Enqueued { .. }
                | Response::QueueFull { .. }
                | Response::Shedding { .. }
                | Response::Exported { .. }
                | Response::Imported { .. }
        )
    }

    /// Maps a submit verdict to its wire frame for `session`, echoing the
    /// request's correlation id.
    pub fn from_verdict(request_id: u64, session: u64, verdict: SubmitVerdict) -> Response {
        match verdict {
            SubmitVerdict::Enqueued => Response::Enqueued { request_id, session },
            SubmitVerdict::QueueFull { retry_after_chunks } => Response::QueueFull {
                request_id,
                session,
                retry_after_chunks: retry_after_chunks as u64,
            },
            SubmitVerdict::Shedding => Response::Shedding { request_id, session },
        }
    }

    /// Maps a serve event to its wire frame.
    pub fn from_event(event: ServeEvent) -> Response {
        match event {
            ServeEvent::Segment { session, segment } => Response::Segment {
                session: session.0,
                start_frame: segment.start_frame as u64,
                end_frame: segment.end_frame as u64,
                classification: segment.classification,
            },
            ServeEvent::Finished { session } => Response::Finished { session: session.0 },
            ServeEvent::Reaped { session } => Response::Reaped { session: session.0 },
        }
    }

    /// The session id of the frame. Mirrors [`SessionId`] on the serve
    /// side.
    pub fn session(&self) -> SessionId {
        match self {
            Response::Enqueued { session, .. }
            | Response::QueueFull { session, .. }
            | Response::Shedding { session, .. }
            | Response::Segment { session, .. }
            | Response::Finished { session }
            | Response::Reaped { session }
            | Response::Exported { session, .. }
            | Response::Imported { session, .. } => SessionId(*session),
        }
    }

    /// The echoed correlation id for verdict frames, `None` for events.
    pub fn request_id(&self) -> Option<u64> {
        match self {
            Response::Enqueued { request_id, .. }
            | Response::QueueFull { request_id, .. }
            | Response::Shedding { request_id, .. }
            | Response::Exported { request_id, .. }
            | Response::Imported { request_id, .. } => Some(*request_id),
            Response::Segment { .. } | Response::Finished { .. } | Response::Reaped { .. } => None,
        }
    }
}

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`] or is zero.
    BadLength(usize),
    /// The kind byte names no known frame.
    UnknownKind(u8),
    /// The payload size disagrees with the frame kind's grammar.
    Truncated {
        /// The offending frame's kind byte.
        kind: u8,
    },
    /// A stroke byte outside the 6-stroke alphabet.
    BadStroke(u8),
    /// A boolean flag byte that is neither 0 nor 1.
    BadFlag(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadLength(n) => write!(f, "frame length {n} outside 1..={MAX_FRAME_LEN}"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::Truncated { kind } => {
                write!(f, "payload size disagrees with frame kind {kind:#04x}")
            }
            FrameError::BadStroke(b) => write!(f, "stroke byte {b} outside the 6-stroke alphabet"),
            FrameError::BadFlag(b) => write!(f, "flag byte {b} is neither 0 nor 1"),
        }
    }
}

impl std::error::Error for FrameError {}

const KIND_OPEN: u8 = 0x01;
const KIND_PUSH: u8 = 0x02;
const KIND_FINISH: u8 = 0x03;
const KIND_EXPORT: u8 = 0x04;
const KIND_IMPORT: u8 = 0x05;
const KIND_ENQUEUED: u8 = 0x81;
const KIND_QUEUE_FULL: u8 = 0x82;
const KIND_SHEDDING: u8 = 0x83;
const KIND_SEGMENT: u8 = 0x84;
const KIND_FINISHED: u8 = 0x85;
const KIND_REAPED: u8 = 0x86;
const KIND_EXPORTED: u8 = 0x87;
const KIND_IMPORTED: u8 = 0x88;

/// Little-endian payload writer over a growable byte buffer.
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a push's samples as little-endian IEEE-754 bit patterns: the
/// buffer grows once, then one pass converts every sample.
fn put_samples(out: &mut Vec<u8>, samples: &[f64]) {
    out.reserve(samples.len() * 8);
    out.extend(samples.iter().flat_map(|s| s.to_le_bytes()));
}

/// Little-endian payload cursor; every read is length-checked so a
/// truncated payload surfaces as an error, never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    kind: u8,
}

impl<'a> Cursor<'a> {
    fn new(kind: u8, buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0, kind }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated { kind: self.kind })?;
        let Some(slice) = self.buf.get(self.pos..end) else {
            return Err(FrameError::Truncated { kind: self.kind });
        };
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        let b = self.take(1)?;
        b.first().copied().ok_or(FrameError::Truncated { kind: self.kind })
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// The payload must be fully consumed: trailing bytes mean the sender
    /// and receiver disagree on the grammar.
    fn done(&self) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::Truncated { kind: self.kind })
        }
    }
}

/// Appends the encoded frame (length prefix included) to `out`.
fn encode_frame(out: &mut Vec<u8>, kind: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    put_u32(out, 0); // patched below
    out.push(kind);
    payload(out);
    let len = (out.len() - len_at - 4) as u32;
    if let Some(slot) = out.get_mut(len_at..len_at + 4) {
        slot.copy_from_slice(&len.to_le_bytes());
    }
}

/// Appends `request` to `out` in wire encoding under the client-assigned
/// correlation id `request_id` (echoed by the answering verdict frame).
pub fn encode_request(out: &mut Vec<u8>, request: &Request, request_id: u64) {
    match request {
        Request::Open { session } => encode_frame(out, KIND_OPEN, |p| {
            put_u64(p, request_id);
            put_u64(p, *session);
        }),
        Request::Push { session, samples } => encode_frame(out, KIND_PUSH, |p| {
            put_u64(p, request_id);
            put_u64(p, *session);
            put_u32(p, samples.len() as u32);
            put_samples(p, samples);
        }),
        Request::Finish { session } => encode_frame(out, KIND_FINISH, |p| {
            put_u64(p, request_id);
            put_u64(p, *session);
        }),
        Request::Export { session } => encode_frame(out, KIND_EXPORT, |p| {
            put_u64(p, request_id);
            put_u64(p, *session);
        }),
        Request::Import { session, snapshot } => encode_frame(out, KIND_IMPORT, |p| {
            put_u64(p, request_id);
            put_u64(p, *session);
            put_u32(p, snapshot.len() as u32);
            p.extend_from_slice(snapshot);
        }),
    }
}

/// Appends `response` to `out` in wire encoding.
pub fn encode_response(out: &mut Vec<u8>, response: &Response) {
    match response {
        Response::Enqueued { request_id, session } => {
            encode_frame(out, KIND_ENQUEUED, |p| {
                put_u64(p, *request_id);
                put_u64(p, *session);
            });
        }
        Response::QueueFull { request_id, session, retry_after_chunks } => {
            encode_frame(out, KIND_QUEUE_FULL, |p| {
                put_u64(p, *request_id);
                put_u64(p, *session);
                put_u64(p, *retry_after_chunks);
            });
        }
        Response::Shedding { request_id, session } => {
            encode_frame(out, KIND_SHEDDING, |p| {
                put_u64(p, *request_id);
                put_u64(p, *session);
            });
        }
        Response::Segment { session, start_frame, end_frame, classification } => {
            encode_frame(out, KIND_SEGMENT, |p| {
                put_u64(p, *session);
                put_u64(p, *start_frame);
                put_u64(p, *end_frame);
                match classification {
                    Some(cls) => {
                        p.push(1);
                        p.push(cls.stroke.index() as u8);
                        for &d in &cls.distances {
                            put_f64(p, d);
                        }
                        for &s in &cls.scores {
                            put_f64(p, s);
                        }
                    }
                    None => p.push(0),
                }
            });
        }
        Response::Finished { session } => {
            encode_frame(out, KIND_FINISHED, |p| put_u64(p, *session));
        }
        Response::Reaped { session } => encode_frame(out, KIND_REAPED, |p| put_u64(p, *session)),
        Response::Exported { request_id, session, snapshot } => {
            encode_frame(out, KIND_EXPORTED, |p| {
                put_u64(p, *request_id);
                put_u64(p, *session);
                match snapshot {
                    Some(bytes) => {
                        p.push(1);
                        put_u32(p, bytes.len() as u32);
                        p.extend_from_slice(bytes);
                    }
                    None => p.push(0),
                }
            });
        }
        Response::Imported { request_id, session, ok } => {
            encode_frame(out, KIND_IMPORTED, |p| {
                put_u64(p, *request_id);
                put_u64(p, *session);
                p.push(u8::from(*ok));
            });
        }
    }
}

fn decode_request(kind: u8, payload: &[u8]) -> Result<(u64, Request), FrameError> {
    let mut c = Cursor::new(kind, payload);
    let request_id = match kind {
        KIND_OPEN | KIND_PUSH | KIND_FINISH | KIND_EXPORT | KIND_IMPORT => c.u64()?,
        other => return Err(FrameError::UnknownKind(other)),
    };
    let req = match kind {
        KIND_OPEN => Request::Open { session: c.u64()? },
        KIND_PUSH => {
            let session = c.u64()?;
            let n = c.u32()? as usize;
            // The sample count must agree with the remaining payload size
            // before anything is allocated for it.
            if payload.len() != 8 + 8 + 4 + n * 8 {
                return Err(FrameError::Truncated { kind });
            }
            // One pass from the payload's bytes into a buffer allocated
            // once (`chunks_exact` knows its length).
            let samples = c
                .take(n * 8)?
                .chunks_exact(8)
                .map(|b| {
                    let mut a = [0u8; 8];
                    a.copy_from_slice(b);
                    f64::from_le_bytes(a)
                })
                .collect();
            Request::Push { session, samples }
        }
        KIND_FINISH => Request::Finish { session: c.u64()? },
        KIND_EXPORT => Request::Export { session: c.u64()? },
        KIND_IMPORT => {
            let session = c.u64()?;
            let n = c.u32()? as usize;
            // Like Push: the byte count must agree with the remaining
            // payload size before anything is allocated for it.
            if payload.len() != 8 + 8 + 4 + n {
                return Err(FrameError::Truncated { kind });
            }
            let snapshot = c.take(n)?.to_vec();
            Request::Import { session, snapshot }
        }
        other => return Err(FrameError::UnknownKind(other)),
    };
    c.done()?;
    Ok((request_id, req))
}

fn decode_response(kind: u8, payload: &[u8]) -> Result<Response, FrameError> {
    let mut c = Cursor::new(kind, payload);
    let resp = match kind {
        KIND_ENQUEUED => Response::Enqueued { request_id: c.u64()?, session: c.u64()? },
        KIND_QUEUE_FULL => Response::QueueFull {
            request_id: c.u64()?,
            session: c.u64()?,
            retry_after_chunks: c.u64()?,
        },
        KIND_SHEDDING => Response::Shedding { request_id: c.u64()?, session: c.u64()? },
        KIND_SEGMENT => {
            let session = c.u64()?;
            let start_frame = c.u64()?;
            let end_frame = c.u64()?;
            let classification = match c.u8()? {
                0 => None,
                1 => {
                    let stroke_byte = c.u8()?;
                    let Some(stroke) = Stroke::from_index(stroke_byte as usize) else {
                        return Err(FrameError::BadStroke(stroke_byte));
                    };
                    let mut distances = [0.0f64; STROKE_COUNT];
                    for d in &mut distances {
                        *d = c.f64()?;
                    }
                    let mut scores = [0.0f64; STROKE_COUNT];
                    for s in &mut scores {
                        *s = c.f64()?;
                    }
                    Some(Classification { stroke, distances, scores })
                }
                other => return Err(FrameError::BadFlag(other)),
            };
            Response::Segment { session, start_frame, end_frame, classification }
        }
        KIND_FINISHED => Response::Finished { session: c.u64()? },
        KIND_REAPED => Response::Reaped { session: c.u64()? },
        KIND_EXPORTED => {
            let request_id = c.u64()?;
            let session = c.u64()?;
            let snapshot = match c.u8()? {
                0 => None,
                1 => {
                    let n = c.u32()? as usize;
                    if payload.len() != 8 + 8 + 1 + 4 + n {
                        return Err(FrameError::Truncated { kind });
                    }
                    Some(c.take(n)?.to_vec())
                }
                other => return Err(FrameError::BadFlag(other)),
            };
            Response::Exported { request_id, session, snapshot }
        }
        KIND_IMPORTED => {
            let request_id = c.u64()?;
            let session = c.u64()?;
            let ok = match c.u8()? {
                0 => false,
                1 => true,
                other => return Err(FrameError::BadFlag(other)),
            };
            Response::Imported { request_id, session, ok }
        }
        other => return Err(FrameError::UnknownKind(other)),
    };
    c.done()?;
    Ok(resp)
}

/// An incremental frame decoder over an arbitrarily fragmented byte
/// stream: feed it whatever a socket read returned — one byte or a dozen
/// frames — and pop complete frames as they materialize. Decoding is a
/// pure function of the byte sequence, so any fragmentation of the same
/// stream decodes to the same frames (property-tested in
/// `tests/framing.rs`).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by popped frames; compacted
    /// wholesale once everything buffered has been consumed.
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw socket bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` is dead.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a popped frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete raw frame as `(kind, payload)`, or `None`
    /// if the buffer holds only a partial frame.
    fn next_raw(&mut self) -> Result<Option<(u8, std::ops::Range<usize>)>, FrameError> {
        let avail = &self.buf[self.pos..];
        let Some(prefix) = avail.get(..4) else {
            return Ok(None);
        };
        let mut a = [0u8; 4];
        a.copy_from_slice(prefix);
        let len = u32::from_le_bytes(a) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(FrameError::BadLength(len));
        }
        let Some(frame) = avail.get(4..4 + len) else {
            return Ok(None);
        };
        let Some(&kind) = frame.first() else {
            return Err(FrameError::BadLength(len));
        };
        let payload = (self.pos + 5)..(self.pos + 4 + len);
        self.pos += 4 + len;
        Ok(Some((kind, payload)))
    }

    /// Pops the next complete request frame as `(request_id, request)`,
    /// `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Any grammar violation; the stream must be abandoned afterwards.
    pub fn next_request(&mut self) -> Result<Option<(u64, Request)>, FrameError> {
        match self.next_raw()? {
            Some((kind, payload)) => {
                let payload = self.buf.get(payload).unwrap_or(&[]);
                decode_request(kind, payload).map(Some)
            }
            None => Ok(None),
        }
    }

    /// Pops the next complete response frame, `Ok(None)` when more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// Any grammar violation; the stream must be abandoned afterwards.
    pub fn next_response(&mut self) -> Result<Option<Response>, FrameError> {
        match self.next_raw()? {
            Some((kind, payload)) => {
                let payload = self.buf.get(payload).unwrap_or(&[]);
                decode_response(kind, payload).map(Some)
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request, request_id: u64) -> (u64, Request) {
        let mut bytes = Vec::new();
        encode_request(&mut bytes, req, request_id);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let got = dec.next_request().expect("valid frame").expect("complete frame");
        assert_eq!(dec.buffered(), 0);
        got
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let mut bytes = Vec::new();
        encode_response(&mut bytes, resp);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let got = dec.next_response().expect("valid frame").expect("complete frame");
        assert_eq!(dec.buffered(), 0);
        got
    }

    #[test]
    fn request_frames_round_trip() {
        for (i, req) in [
            Request::Open { session: 7 },
            Request::Push { session: u64::MAX, samples: vec![0.0, -1.5, f64::MIN_POSITIVE] },
            Request::Push { session: 0, samples: Vec::new() },
            Request::Finish { session: 42 },
            Request::Export { session: 17 },
            Request::Import { session: 17, snapshot: vec![0x45, 0x57, 0x53, 0x4e, 0x01] },
            Request::Import { session: 0, snapshot: Vec::new() },
        ]
        .into_iter()
        .enumerate()
        {
            // The correlation id rides the header untouched, including the
            // extremes.
            let id = [0u64, 1, u64::MAX][i % 3];
            assert_eq!(roundtrip_request(&req, id), (id, req));
        }
    }

    #[test]
    fn response_frames_round_trip() {
        let cls = Classification {
            stroke: Stroke::S5,
            distances: [0.25, 1.0, -0.0, 3.5e-300, f64::MAX, 6.0],
            scores: [0.1, 0.2, 0.3, 0.15, 0.15, 0.1],
        };
        for resp in [
            Response::Enqueued { request_id: 901, session: 1 },
            Response::QueueFull { request_id: 902, session: 2, retry_after_chunks: 9 },
            Response::Shedding { request_id: u64::MAX, session: 3 },
            Response::Segment {
                session: 4,
                start_frame: 100,
                end_frame: 180,
                classification: Some(cls),
            },
            Response::Segment { session: 5, start_frame: 0, end_frame: 1, classification: None },
            Response::Finished { session: 6 },
            Response::Reaped { session: 7 },
            Response::Exported { request_id: 903, session: 8, snapshot: Some(vec![1, 2, 3, 255]) },
            Response::Exported { request_id: 0, session: 9, snapshot: None },
            Response::Imported { request_id: 904, session: 10, ok: true },
            Response::Imported { request_id: 905, session: 11, ok: false },
        ] {
            assert_eq!(roundtrip_response(&resp), resp);
        }
    }

    #[test]
    fn verdicts_echo_request_ids_and_events_carry_none() {
        assert_eq!(Response::Enqueued { request_id: 7, session: 1 }.request_id(), Some(7));
        assert_eq!(
            Response::Shedding { request_id: 8, session: 1 }.request_id(),
            Some(8)
        );
        assert_eq!(Response::Finished { session: 1 }.request_id(), None);
        assert_eq!(Response::Reaped { session: 1 }.request_id(), None);
    }

    #[test]
    fn snapshot_frames_are_verdicts() {
        assert!(Response::Exported { request_id: 1, session: 1, snapshot: None }.is_verdict());
        assert!(Response::Imported { request_id: 2, session: 1, ok: false }.is_verdict());
        assert!(!Response::Reaped { session: 1 }.is_verdict());
    }

    #[test]
    fn malformed_snapshot_frames_are_rejected() {
        // Import whose byte count disagrees with the payload size.
        let mut payload = Vec::new();
        payload.push(KIND_IMPORT);
        payload.extend_from_slice(&77u64.to_le_bytes()); // request id
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1000u32.to_le_bytes()); // claims 1000 bytes
        payload.push(0xab); // carries 1
        let mut dec = FrameDecoder::new();
        dec.extend(&(payload.len() as u32).to_le_bytes());
        dec.extend(&payload);
        assert!(matches!(dec.next_request(), Err(FrameError::Truncated { kind: KIND_IMPORT })));

        // Exported with a flag byte outside {0, 1}.
        let mut payload = Vec::new();
        payload.push(KIND_EXPORTED);
        payload.extend_from_slice(&77u64.to_le_bytes()); // request id
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(7);
        let mut dec = FrameDecoder::new();
        dec.extend(&(payload.len() as u32).to_le_bytes());
        dec.extend(&payload);
        assert!(matches!(dec.next_response(), Err(FrameError::BadFlag(7))));

        // Exported whose byte count disagrees with the payload size.
        let mut payload = Vec::new();
        payload.push(KIND_EXPORTED);
        payload.extend_from_slice(&77u64.to_le_bytes()); // request id
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(1);
        payload.extend_from_slice(&9u32.to_le_bytes()); // claims 9 bytes
        payload.push(0xcd); // carries 1
        let mut dec = FrameDecoder::new();
        dec.extend(&(payload.len() as u32).to_le_bytes());
        dec.extend(&payload);
        assert!(matches!(
            dec.next_response(),
            Err(FrameError::Truncated { kind: KIND_EXPORTED })
        ));

        // Imported with an ok byte outside {0, 1}.
        let mut payload = Vec::new();
        payload.push(KIND_IMPORTED);
        payload.extend_from_slice(&77u64.to_le_bytes()); // request id
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(2);
        let mut dec = FrameDecoder::new();
        dec.extend(&(payload.len() as u32).to_le_bytes());
        dec.extend(&payload);
        assert!(matches!(dec.next_response(), Err(FrameError::BadFlag(2))));
    }

    #[test]
    fn nan_sample_bits_survive_the_wire() {
        // f64 equality would pass NaN through as "not equal"; the wire
        // contract is on the *bits*.
        let pattern = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut bytes = Vec::new();
        encode_request(&mut bytes, &Request::Push { session: 1, samples: vec![pattern] }, 1);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let Ok(Some((_, Request::Push { samples, .. }))) = dec.next_request() else {
            panic!("expected a push frame");
        };
        assert_eq!(samples[0].to_bits(), pattern.to_bits());
    }

    #[test]
    fn partial_frame_waits_for_more_bytes() {
        let mut bytes = Vec::new();
        encode_request(&mut bytes, &Request::Open { session: 9 }, 31);
        let mut dec = FrameDecoder::new();
        for &b in &bytes[..bytes.len() - 1] {
            dec.extend(&[b]);
            assert_eq!(dec.next_request().expect("no error on partial"), None);
        }
        dec.extend(&bytes[bytes.len() - 1..]);
        assert_eq!(
            dec.next_request().expect("valid"),
            Some((31, Request::Open { session: 9 }))
        );
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Oversized length prefix.
        let mut dec = FrameDecoder::new();
        dec.extend(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        dec.extend(&[0u8; 8]);
        assert!(matches!(dec.next_request(), Err(FrameError::BadLength(_))));

        // Zero length.
        let mut dec = FrameDecoder::new();
        dec.extend(&0u32.to_le_bytes());
        assert!(matches!(dec.next_request(), Err(FrameError::BadLength(0))));

        // Unknown kind.
        let mut dec = FrameDecoder::new();
        dec.extend(&9u32.to_le_bytes());
        dec.extend(&[0x77]);
        dec.extend(&7u64.to_le_bytes());
        assert!(matches!(dec.next_request(), Err(FrameError::UnknownKind(0x77))));

        // Truncated payload: an Open with a 4-byte session id.
        let mut dec = FrameDecoder::new();
        dec.extend(&5u32.to_le_bytes());
        dec.extend(&[0x01]);
        dec.extend(&[0u8; 4]);
        assert!(matches!(dec.next_request(), Err(FrameError::Truncated { kind: 0x01 })));

        // Push whose sample count disagrees with the payload size.
        let mut payload = Vec::new();
        payload.push(KIND_PUSH);
        payload.extend_from_slice(&77u64.to_le_bytes()); // request id
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1000u32.to_le_bytes()); // claims 1000 samples
        payload.extend_from_slice(&0f64.to_bits().to_le_bytes()); // carries 1
        let mut dec = FrameDecoder::new();
        dec.extend(&(payload.len() as u32).to_le_bytes());
        dec.extend(&payload);
        assert!(matches!(dec.next_request(), Err(FrameError::Truncated { kind: KIND_PUSH })));

        // Bad stroke byte in a Segment.
        let mut seg = Vec::new();
        encode_response(
            &mut seg,
            &Response::Segment {
                session: 1,
                start_frame: 0,
                end_frame: 1,
                classification: Some(Classification {
                    stroke: Stroke::S1,
                    distances: [0.0; STROKE_COUNT],
                    scores: [0.0; STROKE_COUNT],
                }),
            },
        );
        seg[4 + 1 + 24 + 1] = 6; // stroke byte → outside the alphabet
        let mut dec = FrameDecoder::new();
        dec.extend(&seg);
        assert!(matches!(dec.next_response(), Err(FrameError::BadStroke(6))));
    }

    #[test]
    fn pipelined_frames_pop_in_order() {
        let mut bytes = Vec::new();
        encode_request(&mut bytes, &Request::Open { session: 1 }, 10);
        encode_request(&mut bytes, &Request::Push { session: 1, samples: vec![1.0, 2.0] }, 11);
        encode_request(&mut bytes, &Request::Finish { session: 1 }, 12);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert!(matches!(dec.next_request(), Ok(Some((10, Request::Open { session: 1 })))));
        assert!(matches!(dec.next_request(), Ok(Some((11, Request::Push { .. })))));
        assert!(matches!(dec.next_request(), Ok(Some((12, Request::Finish { session: 1 })))));
        assert!(matches!(dec.next_request(), Ok(None)));
    }
}
