//! The versioned binary snapshot codec.
//!
//! # Wire grammar
//!
//! All integers are little-endian; `f64` values are their IEEE-754 bit
//! patterns as `u64` (bitwise, not lossy-printed); `usize` counters travel
//! as `u64`. A `vec` is a `u64` element count followed by that many
//! elements; decode pre-checks the count against the remaining payload
//! before allocating, so a forged count cannot balloon memory.
//!
//! ```text
//! snapshot    := header body
//! header      := magic:"EWSN" version:u16 fingerprint:u64
//!                flavor:u8 finished:bool samples_in:u64
//! body        := replay | incremental          -- selected by flavor
//! front       := 0x01 stft | 0x02 down
//! phase       := 0x01 i:u64 | 0x02 i:u64 start:u64 k:u64 | 0x03 end:u64
//! struct      := its fields in field-table order, nothing between them
//! vec<T>      := count:u64 T*count
//! opt<T>      := 0x00 | 0x01 T
//! (A, B, ..)  := A B ..                        -- tuples and [T; N] alike
//! bool        := 0x00 | 0x01
//! ```
//!
//! Every other section (`replay`, `incremental`, `stft`, `down`, the
//! enhancer, …) is a plain struct: its wire layout is the field table in
//! this file, one `Type as "name" { field: wire_type, … }` entry per state
//! type, read and written in the listed order.
//!
//! # Version and compatibility policy
//!
//! The header carries a format [`VERSION`] and a fingerprint of the engine
//! configuration that produced the state ([`config_fingerprint`]). Decoding
//! refuses any version other than the current one
//! ([`SnapshotError::UnsupportedVersion`]) and any fingerprint that
//! disagrees with the restoring engine's
//! ([`SnapshotError::ConfigMismatch`]): a snapshot only guarantees bitwise
//! resumption under the exact configuration that produced it, so silently
//! restoring across configs would trade a loud error for wrong output. The
//! format has no forward- or backward-compat shims by design — a version
//! bump is a migration event, not a negotiation.
//!
//! Decoding is strict: every section length-checks before reading, trailing
//! bytes are an error, and no input — truncated, bit-flipped, or
//! adversarial — panics. Structural invariants (cursor monotonicity,
//! window geometry, cross-stage accounting) are then re-validated by
//! [`StreamingSession::restore_state`], whose refusals surface as
//! [`SnapshotError::Restore`].

use echowrite::{
    ChainState, DownState, EchoWrite, EchoWriteConfig, FrontState, IncrementalState, ReplayState,
    RestoreError, SessionBody, SessionState, StreamingSession,
};
use echowrite_dsp::downconvert::StreamingDownconverterState;
use echowrite_dsp::stft::StreamingStftState;
use echowrite_dsp::Complex;
use echowrite_profile::{
    IncrementalDiffState, ProfileBuilderState, SegmenterPhase, StreamingSegmenterState,
};
use echowrite_spectro::{EnhancerState, HoleFillerState};
use echowrite_trace::{samples_to_us, span, Stage};
use std::fmt;

/// The four magic bytes opening every snapshot: `"EWSN"`.
pub const MAGIC: [u8; 4] = *b"EWSN";

/// Current snapshot format version. Bumped on any grammar change; decode
/// accepts exactly this version.
pub const VERSION: u16 = 1;

const FLAVOR_REPLAY: u8 = 0x01;
const FLAVOR_INCREMENTAL: u8 = 0x02;
const FRONT_FULL: u8 = 0x01;
const FRONT_DOWN: u8 = 0x02;
const PHASE_SCAN: u8 = 0x01;
const PHASE_FORWARD: u8 = 0x02;
const PHASE_GAP: u8 = 0x03;

/// Why a snapshot could not be decoded or restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// The payload does not start with [`MAGIC`].
    BadMagic,
    /// The header's format version is not [`VERSION`].
    UnsupportedVersion(u16),
    /// The header's configuration fingerprint disagrees with the restoring
    /// engine's — the snapshot was taken under a different configuration.
    ConfigMismatch {
        /// Fingerprint of the restoring engine's configuration.
        expected: u64,
        /// Fingerprint recorded in the snapshot header.
        found: u64,
    },
    /// The header's flavor byte is neither replay nor incremental.
    BadFlavor(u8),
    /// The payload ended before a section was complete, or a length prefix
    /// exceeded the remaining payload.
    Truncated,
    /// A section decoded but carried an ill-formed value; the message names
    /// the offending field.
    Malformed(&'static str),
    /// The state decoded cleanly but the session refused to restore it.
    Restore(RestoreError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot was taken under a different configuration \
                 (fingerprint {found:#018x}, engine has {expected:#018x})"
            ),
            SnapshotError::BadFlavor(b) => write!(f, "unknown snapshot flavor byte {b:#04x}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot field: {what}"),
            SnapshotError::Restore(e) => write!(f, "snapshot refused by session: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Restore(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RestoreError> for SnapshotError {
    fn from(e: RestoreError) -> Self {
        SnapshotError::Restore(e)
    }
}

/// FNV-1a 64 fingerprint of an engine configuration's `Debug` rendering.
///
/// Every field of [`EchoWriteConfig`] (including nested sub-configs)
/// participates via `#[derive(Debug)]`, so any configuration change — even
/// one added after this crate was written — perturbs the fingerprint
/// without this function knowing the field exists. The rendering is
/// deterministic (no pointers, no hash iteration) and `f64` fields print
/// with round-trip precision, so equal configs always fingerprint equally.
pub fn config_fingerprint(config: &EchoWriteConfig) -> u64 {
    fnv1a(format!("{config:?}").as_bytes())
}

/// FNV-1a 64 of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Length-checked sequential reader over the snapshot payload. Every read
/// validates bounds first; no method panics on any input.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| SnapshotError::Truncated)
    }

    fn done(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::Malformed("trailing bytes after body"))
        }
    }
}

/// A value with a place in the wire grammar.
///
/// `what` names the field being read, for [`SnapshotError::Malformed`].
/// The method names are deliberately unlike any hot-path method: echolint
/// resolves a call on an unknown receiver to every method of that name.
trait Wire: Sized {
    /// The fewest bytes one encoded value occupies. A `vec` count is
    /// checked against `count × MIN_BYTES ≤ remaining` before anything is
    /// allocated.
    const MIN_BYTES: usize;

    /// Appends the encoding of `self`.
    fn wire_put(&self, out: &mut Vec<u8>);

    /// Reads one value strictly: truncation and ill-formed values are
    /// typed errors, never panics.
    fn wire_read(r: &mut Reader<'_>, what: &'static str) -> Result<Self, SnapshotError>;
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            fn wire_put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn wire_read(r: &mut Reader<'_>, _: &'static str) -> Result<Self, SnapshotError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

wire_int!(u8, u16, u64);

impl Wire for usize {
    const MIN_BYTES: usize = 8;

    fn wire_put(&self, out: &mut Vec<u8>) {
        (*self as u64).wire_put(out);
    }

    fn wire_read(r: &mut Reader<'_>, what: &'static str) -> Result<Self, SnapshotError> {
        usize::try_from(u64::wire_read(r, what)?).map_err(|_| SnapshotError::Malformed(what))
    }
}

impl Wire for f64 {
    const MIN_BYTES: usize = 8;

    fn wire_put(&self, out: &mut Vec<u8>) {
        self.to_bits().wire_put(out);
    }

    fn wire_read(r: &mut Reader<'_>, what: &'static str) -> Result<Self, SnapshotError> {
        Ok(f64::from_bits(u64::wire_read(r, what)?))
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;

    fn wire_put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn wire_read(r: &mut Reader<'_>, what: &'static str) -> Result<Self, SnapshotError> {
        match u8::wire_read(r, what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed(what)),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;

    fn wire_put(&self, out: &mut Vec<u8>) {
        self.len().wire_put(out);
        for x in self {
            x.wire_put(out);
        }
    }

    fn wire_read(r: &mut Reader<'_>, what: &'static str) -> Result<Self, SnapshotError> {
        let n = usize::wire_read(r, what)?;
        match n.checked_mul(T::MIN_BYTES.max(1)) {
            Some(bytes) if bytes <= r.remaining() => {}
            _ => return Err(SnapshotError::Truncated),
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::wire_read(r, what)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;

    fn wire_put(&self, out: &mut Vec<u8>) {
        self.is_some().wire_put(out);
        if let Some(x) = self {
            x.wire_put(out);
        }
    }

    fn wire_read(r: &mut Reader<'_>, what: &'static str) -> Result<Self, SnapshotError> {
        Ok(if bool::wire_read(r, what)? { Some(T::wire_read(r, what)?) } else { None })
    }
}

macro_rules! wire_tuple {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)+;

            fn wire_put(&self, out: &mut Vec<u8>) {
                $(self.$i.wire_put(out);)+
            }

            fn wire_read(r: &mut Reader<'_>, what: &'static str) -> Result<Self, SnapshotError> {
                Ok(($($t::wire_read(r, what)?,)+))
            }
        }
    )*};
}

wire_tuple!((A 0, B 1) (A 0, B 1, C 2));

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = T::MIN_BYTES * N;

    fn wire_put(&self, out: &mut Vec<u8>) {
        for x in self {
            x.wire_put(out);
        }
    }

    fn wire_read(r: &mut Reader<'_>, what: &'static str) -> Result<Self, SnapshotError> {
        let mut a = [T::default(); N];
        for x in &mut a {
            *x = T::wire_read(r, what)?;
        }
        Ok(a)
    }
}

/// The field tables: one entry per state struct, listing every field with
/// its wire type in wire order. The struct literal in `wire_read` names
/// every field, so a field missing from a table, or a type that disagrees
/// with the struct's, does not compile. Adding a field here changes the
/// bytes: bump [`VERSION`] and re-record the golden hashes in the tests.
macro_rules! wire_structs {
    ($($ty:ident as $name:literal { $($field:ident: $fty:ty),+ $(,)? })*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as Wire>::MIN_BYTES)+;

            fn wire_put(&self, out: &mut Vec<u8>) {
                $(<$fty as Wire>::wire_put(&self.$field, out);)+
            }

            fn wire_read(r: &mut Reader<'_>, _: &'static str) -> Result<Self, SnapshotError> {
                // Struct-literal fields evaluate in the order written.
                Ok($ty {
                    $($field: <$fty as Wire>::wire_read(
                        r,
                        concat!($name, ".", stringify!($field)),
                    )?,)+
                })
            }
        }
    )*};
}

/// Background runs `(r0, r1, node)` of one hole-filler column.
type Runs = Vec<(usize, usize, usize)>;

wire_structs! {
    ReplayState as "replay" {
        buffer: Vec<f64>, background: Option<Vec<f64>>, dropped_frames: u64,
        emitted: Vec<(u64, u64)>, emitted_until: u64, max_samples: u64,
    }
    IncrementalState as "incremental" {
        front: FrontState, chain: ChainState, frames_in: u64, emitted_until: u64,
    }
    StreamingStftState as "stft" { pending: Vec<f64>, total_in: u64 }
    DownState as "down" {
        sdc: StreamingDownconverterState, baseband: Vec<Complex>, base: u64, next_frame: u64,
    }
    StreamingDownconverterState as "sdc" {
        buffer: Vec<f64>, base: u64, total_in: u64, k: u64, rotator: Complex,
    }
    Complex as "complex" { re: f64, im: f64 }
    ChainState as "chain" {
        enhancer: EnhancerState, builder: ProfileBuilderState, diff: IncrementalDiffState,
        segmenter: StreamingSegmenterState,
    }
    EnhancerState as "enhancer" {
        raw_base: usize, raw_cols: Vec<Vec<f64>>, raw_n: usize, med_n: usize,
        pre_bg: Vec<Vec<f64>>, background: Option<Vec<f64>>,
        thr_base: usize, thr_cols: Vec<Vec<f64>>, thr_n: usize, h_n: usize,
        holes: HoleFillerState, finished: bool,
    }
    HoleFillerState as "holes" {
        parent: Vec<usize>, border: Vec<bool>, last_col: Vec<usize>, frontier: Runs,
        pending: Vec<(Vec<f64>, Runs)>, pushed: usize, next_emit: usize,
    }
    ProfileBuilderState as "builder" { tail: [f64; 3], m: usize, finished: bool }
    IncrementalDiffState as "diff" { tail: [f64; 5], m: usize, emitted: usize, finished: bool }
    StreamingSegmenterState as "segmenter" {
        shifts_base: usize, shifts: Vec<f64>, acc_base: usize, acc: Vec<f64>,
        phase: SegmenterPhase, finished: bool,
    }
}

impl Wire for FrontState {
    const MIN_BYTES: usize = 1 + StreamingStftState::MIN_BYTES;

    fn wire_put(&self, out: &mut Vec<u8>) {
        match self {
            FrontState::Full(stft) => {
                FRONT_FULL.wire_put(out);
                stft.wire_put(out);
            }
            FrontState::Down(down) => {
                FRONT_DOWN.wire_put(out);
                down.wire_put(out);
            }
        }
    }

    fn wire_read(r: &mut Reader<'_>, what: &'static str) -> Result<Self, SnapshotError> {
        match u8::wire_read(r, what)? {
            FRONT_FULL => Ok(FrontState::Full(Wire::wire_read(r, what)?)),
            FRONT_DOWN => Ok(FrontState::Down(Wire::wire_read(r, what)?)),
            _ => Err(SnapshotError::Malformed("front tag")),
        }
    }
}

impl Wire for SegmenterPhase {
    const MIN_BYTES: usize = 9;

    fn wire_put(&self, out: &mut Vec<u8>) {
        match *self {
            SegmenterPhase::Scan { i } => (PHASE_SCAN, i).wire_put(out),
            SegmenterPhase::Forward { i, start, k } => (PHASE_FORWARD, (i, start, k)).wire_put(out),
            SegmenterPhase::Gap { end } => (PHASE_GAP, end).wire_put(out),
        }
    }

    fn wire_read(r: &mut Reader<'_>, what: &'static str) -> Result<Self, SnapshotError> {
        match u8::wire_read(r, what)? {
            PHASE_SCAN => Ok(SegmenterPhase::Scan { i: Wire::wire_read(r, what)? }),
            PHASE_FORWARD => {
                let (i, start, k) = Wire::wire_read(r, what)?;
                Ok(SegmenterPhase::Forward { i, start, k })
            }
            PHASE_GAP => Ok(SegmenterPhase::Gap { end: Wire::wire_read(r, what)? }),
            _ => Err(SnapshotError::Malformed("segmenter.phase tag")),
        }
    }
}

/// Encodes a session state into the versioned binary snapshot form, stamped
/// with the fingerprint of `config`.
pub fn encode(state: &SessionState, config: &EchoWriteConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(&MAGIC);
    VERSION.wire_put(&mut out);
    config_fingerprint(config).wire_put(&mut out);
    let flavor = match &state.body {
        SessionBody::Replay(_) => FLAVOR_REPLAY,
        SessionBody::Incremental(_) => FLAVOR_INCREMENTAL,
    };
    (flavor, state.finished, state.samples_in).wire_put(&mut out);
    match &state.body {
        SessionBody::Replay(r) => r.wire_put(&mut out),
        SessionBody::Incremental(i) => i.wire_put(&mut out),
    }
    out
}

/// Decodes a snapshot back into a session state, verifying the header
/// against `config` (the configuration of the engine that will restore it).
///
/// Strict on every axis: wrong magic, version, fingerprint, flavor,
/// truncation, ill-formed values, and trailing bytes each produce their
/// own [`SnapshotError`]; no input panics.
pub fn decode(bytes: &[u8], config: &EchoWriteConfig) -> Result<SessionState, SnapshotError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u16::wire_read(&mut r, "header.version")?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let found = u64::wire_read(&mut r, "header.fingerprint")?;
    let expected = config_fingerprint(config);
    if found != expected {
        return Err(SnapshotError::ConfigMismatch { expected, found });
    }
    let flavor = u8::wire_read(&mut r, "header.flavor")?;
    let finished = bool::wire_read(&mut r, "header.finished")?;
    let samples_in = u64::wire_read(&mut r, "header.samples_in")?;
    let body = match flavor {
        FLAVOR_REPLAY => SessionBody::Replay(Wire::wire_read(&mut r, "replay")?),
        FLAVOR_INCREMENTAL => SessionBody::Incremental(Wire::wire_read(&mut r, "incremental")?),
        other => return Err(SnapshotError::BadFlavor(other)),
    };
    r.done()?;
    Ok(SessionState { finished, samples_in, body })
}

// ---------------------------------------------------------------------------
// Session conveniences

/// Captures `session`'s complete dynamic state and encodes it under
/// `engine`'s configuration fingerprint.
pub fn snapshot_session(session: &StreamingSession, engine: &EchoWrite) -> Vec<u8> {
    let state = session.export_state();
    let bytes = encode(&state, engine.config());
    trace_span(engine, "encode", &state, &bytes);
    bytes
}

/// Decodes `bytes` and builds a fresh session that resumes bitwise where
/// the snapshotted one left off.
pub fn restore_session(bytes: &[u8], engine: &EchoWrite) -> Result<StreamingSession, SnapshotError> {
    let state = decode(bytes, engine.config())?;
    let session = StreamingSession::from_state(engine, &state)?;
    trace_span(engine, "restore", &state, bytes);
    Ok(session)
}

/// Decodes `bytes` into an existing (e.g. pooled) session, overwriting its
/// state in place. On error the session is unspecified and must be reset
/// before reuse.
pub fn restore_in_place(
    session: &mut StreamingSession,
    bytes: &[u8],
    engine: &EchoWrite,
) -> Result<(), SnapshotError> {
    let state = decode(bytes, engine.config())?;
    session.restore_state(engine, &state)?;
    trace_span(engine, "restore", &state, bytes);
    Ok(())
}

/// One `snapshot`-lane span at the session's audio clock, valued by the
/// snapshot's size in bytes.
fn trace_span(engine: &EchoWrite, name: &'static str, state: &SessionState, bytes: &[u8]) {
    let tick = samples_to_us(state.samples_in, engine.config().stft.sample_rate);
    span(Stage::Snapshot, name, tick, 0, bytes.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use echowrite::SegmentEvent;
    use echowrite_gesture::{Stroke, Writer, WriterParams};
    use echowrite_synth::{DeviceProfile, EnvironmentProfile, Scene};

    fn render(strokes: &[Stroke], seed: u64) -> Vec<f64> {
        let perf = Writer::new(WriterParams::nominal(), seed).write_sequence(strokes);
        Scene::new(DeviceProfile::mate9(), EnvironmentProfile::meeting_room(), seed)
            .render(&perf.trajectory)
    }

    fn engines() -> Vec<EchoWrite> {
        vec![
            EchoWrite::with_config(EchoWriteConfig::streaming()),
            EchoWrite::new(),
            EchoWrite::with_config(EchoWriteConfig::streaming_downsampled(32)),
        ]
    }

    fn mid_session_state(engine: &EchoWrite, audio: &[f64]) -> SessionState {
        let mut s = StreamingSession::new(engine);
        let mut ev = Vec::new();
        // Stop mid-stream so the captured state is as "live" as possible.
        for chunk in audio[..2 * audio.len() / 3].chunks(5 * 1024) {
            s.push_events(engine, chunk, true, &mut ev);
        }
        s.export_state()
    }

    fn assert_events_bitwise(got: &[SegmentEvent], want: &[SegmentEvent]) {
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

    #[test]
    fn roundtrip_is_identity_for_all_engine_flavors() {
        let audio = render(&[Stroke::S2, Stroke::S6], 7);
        for engine in engines() {
            let state = mid_session_state(&engine, &audio);
            let bytes = encode(&state, engine.config());
            let back = decode(&bytes, engine.config()).expect("decode");
            assert_eq!(back, state);
        }
    }

    #[test]
    fn roundtrip_of_fresh_and_finished_sessions() {
        let audio = render(&[Stroke::S1], 3);
        let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
        let fresh = StreamingSession::new(&engine).export_state();
        let bytes = encode(&fresh, engine.config());
        assert_eq!(decode(&bytes, engine.config()).expect("fresh"), fresh);

        let mut s = StreamingSession::new(&engine);
        let mut ev = Vec::new();
        s.push_events(&engine, &audio, true, &mut ev);
        s.finish_events(&engine, true, &mut ev);
        let done = s.export_state();
        let bytes = encode(&done, engine.config());
        let back = decode(&bytes, engine.config()).expect("finished");
        assert!(back.finished);
        assert_eq!(back, done);
    }

    #[test]
    fn truncation_at_every_prefix_is_a_typed_error() {
        let audio = render(&[Stroke::S4], 11);
        for engine in engines() {
            let state = mid_session_state(&engine, &audio);
            let bytes = encode(&state, engine.config());
            // Every strict prefix must fail loudly — never panic, never
            // succeed (no section is self-delimiting short of the full
            // payload).
            let step = (bytes.len() / 257).max(1);
            for cut in (0..bytes.len()).step_by(step) {
                let err = decode(&bytes[..cut], engine.config())
                    .expect_err("truncated prefix decoded");
                assert!(
                    matches!(
                        err,
                        SnapshotError::Truncated
                            | SnapshotError::Malformed(_)
                            | SnapshotError::BadMagic
                    ),
                    "unexpected error at cut {cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn header_corruption_is_rejected() {
        let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
        let state = StreamingSession::new(&engine).export_state();
        let good = encode(&state, engine.config());

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode(&bad, engine.config()), Err(SnapshotError::BadMagic)));

        let mut bad = good.clone();
        bad[4] = 0xFF; // version
        assert!(matches!(
            decode(&bad, engine.config()),
            Err(SnapshotError::UnsupportedVersion(_))
        ));

        let mut bad = good.clone();
        bad[6] ^= 0x01; // fingerprint
        assert!(matches!(
            decode(&bad, engine.config()),
            Err(SnapshotError::ConfigMismatch { .. })
        ));

        let mut bad = good.clone();
        bad[14] = 0x7F; // flavor
        assert!(matches!(decode(&bad, engine.config()), Err(SnapshotError::BadFlavor(0x7F))));

        let mut bad = good.clone();
        bad[15] = 9; // finished must be 0/1
        assert!(matches!(decode(&bad, engine.config()), Err(SnapshotError::Malformed(_))));

        let mut bad = good;
        bad.push(0);
        assert!(matches!(decode(&bad, engine.config()), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn forged_length_prefix_cannot_balloon_memory() {
        let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
        let state = StreamingSession::new(&engine).export_state();
        let mut bytes = encode(&state, engine.config());
        // The streaming() flavor body is front tag (byte 24) then the
        // STFT pending-vec length; forge that length to an absurd count
        // and require a loud, allocation-free error.
        let forged = u64::MAX / 2;
        bytes[25..33].copy_from_slice(&forged.to_le_bytes());
        assert!(matches!(
            decode(&bytes, engine.config()),
            Err(SnapshotError::Truncated | SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn config_mismatch_is_detected_across_engines() {
        let a = EchoWrite::with_config(EchoWriteConfig::streaming());
        let b = EchoWrite::with_config(EchoWriteConfig::streaming_downsampled(32));
        assert_ne!(config_fingerprint(a.config()), config_fingerprint(b.config()));
        let bytes = encode(&StreamingSession::new(&a).export_state(), a.config());
        assert!(matches!(
            decode(&bytes, b.config()),
            Err(SnapshotError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn session_convenience_roundtrip_resumes_bitwise() {
        let audio = render(&[Stroke::S3, Stroke::S5], 21);
        let engine = EchoWrite::with_config(EchoWriteConfig::streaming());

        let mut oracle = StreamingSession::new(&engine);
        let mut live = StreamingSession::new(&engine);
        let mut ev_o = Vec::new();
        let mut ev_r = Vec::new();
        let cut = audio.len() / 2 + 13; // deliberately frame-misaligned
        for chunk in audio[..cut].chunks(997) {
            oracle.push_events(&engine, chunk, true, &mut ev_o);
            live.push_events(&engine, chunk, true, &mut ev_r);
        }
        let bytes = snapshot_session(&live, &engine);
        drop(live);
        let mut resumed = restore_session(&bytes, &engine).expect("restore");
        for chunk in audio[cut..].chunks(501) {
            oracle.push_events(&engine, chunk, true, &mut ev_o);
            resumed.push_events(&engine, chunk, true, &mut ev_r);
        }
        oracle.finish_events(&engine, true, &mut ev_o);
        resumed.finish_events(&engine, true, &mut ev_r);
        assert!(!ev_o.is_empty(), "scenario must produce strokes");
        assert_events_bitwise(&ev_r, &ev_o);
    }

    #[test]
    fn restore_in_place_overwrites_a_dirty_session() {
        let audio = render(&[Stroke::S2], 5);
        let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
        let mut ev = Vec::new();
        let mut clean = StreamingSession::new(&engine);
        clean.push_events(&engine, &audio[..audio.len() / 3], true, &mut ev);
        let bytes = snapshot_session(&clean, &engine);

        let mut dirty = StreamingSession::new(&engine);
        dirty.push_events(&engine, &audio, true, &mut ev); // unrelated state
        restore_in_place(&mut dirty, &bytes, &engine).expect("restore_in_place");
        assert_eq!(dirty.export_state(), clean.export_state());
    }

    /// A counter that decodes cleanly but would overflow the push path is
    /// refused by the session at restore, not by a panic on the next push.
    #[test]
    fn restore_in_place_refuses_crafted_counters() {
        let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
        let mut state = mid_session_state(&engine, &render(&[Stroke::S2], 3));
        let SessionBody::Incremental(is) = &mut state.body else {
            panic!("streaming() sessions are incremental");
        };
        is.chain.diff.m = usize::MAX;
        let bytes = encode(&state, engine.config());
        let mut session = StreamingSession::new(&engine);
        assert!(matches!(
            restore_in_place(&mut session, &bytes, &engine),
            Err(SnapshotError::Restore(RestoreError::Invalid(_)))
        ));
    }

    /// Distinct, exactly representable sample values; `i` picks one.
    fn val(i: usize) -> f64 {
        [0.5, -1.25, 3.0e-7, 4096.0, -0.0, 1.0e300, f64::MIN_POSITIVE, -7.75][i % 8]
    }

    fn vals(from: usize, n: usize) -> Vec<f64> {
        (from..from + n).map(val).collect()
    }

    /// A hand-built chain state touching every field of every stage. With
    /// `frozen` the background is set; otherwise the lead-in is buffering.
    fn golden_chain(phase: SegmenterPhase, frozen: bool) -> ChainState {
        ChainState {
            enhancer: EnhancerState {
                raw_base: 17,
                raw_cols: vec![vals(0, 3), vals(3, 3)],
                raw_n: 19,
                med_n: 18,
                pre_bg: if frozen { Vec::new() } else { vec![vals(5, 3)] },
                background: frozen.then(|| vals(1, 3)),
                thr_base: 11,
                thr_cols: vec![vals(2, 3), vals(6, 3), vals(7, 3)],
                thr_n: 14,
                h_n: 12,
                holes: HoleFillerState {
                    parent: vec![0, 2, 2, 5, 4, 5],
                    border: vec![true, false, true, false, false, true],
                    last_col: vec![9, 10, 11, 11, 12, 12],
                    frontier: vec![(0, 1, 4), (2, 2, 5)],
                    pending: vec![(vals(4, 3), vec![(1, 2, 3)]), (vals(1, 3), Vec::new())],
                    pushed: 12,
                    next_emit: 10,
                },
                finished: false,
            },
            builder: ProfileBuilderState { tail: [val(0), val(1), val(3)], m: 13, finished: false },
            diff: IncrementalDiffState {
                tail: [val(1), val(2), val(3), val(4), val(7)],
                m: 12,
                emitted: 10,
                finished: frozen,
            },
            segmenter: StreamingSegmenterState {
                shifts_base: 2,
                shifts: vals(0, 10),
                acc_base: 1,
                acc: vals(3, 9),
                phase,
                finished: false,
            },
        }
    }

    /// One hand-built state per body flavour and segmenter phase, so the
    /// pin does not depend on the SIMD backend's DSP output.
    fn golden_states() -> Vec<(&'static str, SessionState)> {
        let replay = |background, emitted| {
            SessionBody::Replay(ReplayState {
                buffer: vals(2, 7),
                background,
                dropped_frames: 7,
                emitted,
                emitted_until: 30,
                max_samples: 576_000,
            })
        };
        let stft = StreamingStftState { pending: vals(1, 5), total_in: 81_920 };
        let full = |phase| {
            SessionBody::Incremental(IncrementalState {
                front: FrontState::Full(stft.clone()),
                chain: golden_chain(phase, true),
                frames_in: 19,
                emitted_until: 9,
            })
        };
        let rotator = Complex { re: val(0), im: val(7) };
        let down = SessionBody::Incremental(IncrementalState {
            front: FrontState::Down(DownState {
                sdc: StreamingDownconverterState {
                    buffer: vals(4, 6),
                    base: 65_000,
                    total_in: 65_006,
                    k: 2_031,
                    rotator,
                },
                baseband: vec![rotator, Complex { re: val(3), im: val(5) }],
                base: 2_029,
                next_frame: 15,
            }),
            chain: golden_chain(SegmenterPhase::Forward { i: 8, start: 6, k: 10 }, false),
            frames_in: 19,
            emitted_until: 0,
        });
        let session = |finished, samples_in, body| SessionState { finished, samples_in, body };
        let emitted = vec![(1, 9), (12, 30)];
        vec![
            ("replay, background", session(false, 12_345, replay(Some(vals(0, 4)), emitted))),
            ("replay, no background", session(true, 99, replay(None, Vec::new()))),
            ("full-rate, scan", session(false, 81_920, full(SegmenterPhase::Scan { i: 4 }))),
            ("down-converted, forward", session(false, 65_006, down)),
            ("full-rate, gap", session(true, 81_920, full(SegmenterPhase::Gap { end: 7 }))),
        ]
    }

    /// Pins the wire format: `decode(encode(s)) == s` holds for any
    /// self-consistent grammar, so a byte change without a `VERSION` bump
    /// would otherwise pass every test. The fingerprint bytes are zeroed so
    /// the pin is about the grammar, not the configuration's `Debug` text.
    #[test]
    fn wire_format_is_pinned_by_golden_hashes() {
        let config = EchoWriteConfig::streaming();
        let mut got = Vec::new();
        for (name, state) in golden_states() {
            let mut bytes = encode(&state, &config);
            assert_eq!(decode(&bytes, &config).expect(name), state, "{name}: round trip");
            bytes[6..14].fill(0);
            got.push((name, fnv1a(&bytes)));
        }
        let want = [
            ("replay, background", 0xbcdf_6324_aa4b_3242),
            ("replay, no background", 0x082d_c782_07cf_7f48),
            ("full-rate, scan", 0xc6c6_5f1a_7d33_a06e),
            ("down-converted, forward", 0x0173_92d0_4577_fa9d),
            ("full-rate, gap", 0xd99c_2de0_65c4_2250),
        ];
        assert_eq!(got, want, "snapshot bytes changed: bump VERSION and re-record these hashes");
    }
}
