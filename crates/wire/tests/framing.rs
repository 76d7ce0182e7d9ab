//! Property tests for the wire frame grammar: any frame sequence, sliced
//! into arbitrary read fragments — 1-byte reads up to whole-stream reads —
//! decodes to exactly the original frames, every sample bit included, and
//! a push whose sample count disagrees with its frame stops the stream
//! with `Truncated` after every frame before it. This is the contract the
//! server's read loop depends on: TCP makes no framing promises, so the
//! decoder must make them.

use echowrite_dtw::Classification;
use echowrite_gesture::stroke::STROKE_COUNT;
use echowrite_gesture::Stroke;
use echowrite_wire::{
    encode_request, encode_response, FrameDecoder, FrameError, Request, Response,
};
use proptest::prelude::*;

/// The push frame's kind byte.
const KIND_PUSH: u8 = 0x02;
/// Byte offset of a push frame's `n:u32` field: length prefix, kind,
/// request id, session.
const PUSH_COUNT_AT: usize = 4 + 1 + 8 + 8;

/// One sample's bit pattern from a generated `(class, raw)` pair: raw
/// `u64` bits, or raw bits forced into a class that random bits almost
/// never hit — quiet and signalling NaNs with payloads, ±0.0, subnormals
/// and ±∞. The sign comes from `raw` throughout.
fn sample_bits((class, raw): (u8, u64)) -> u64 {
    const SIGN: u64 = 1 << 63;
    const EXP: u64 = 0x7ff << 52;
    const QUIET: u64 = 1 << 51;
    const PAYLOAD: u64 = QUIET - 1;
    let sign = raw & SIGN;
    match class % 6 {
        0 => raw,
        1 => sign | EXP | QUIET | (raw & PAYLOAD),
        2 => sign | EXP | (raw & PAYLOAD).max(1),
        3 => sign,
        4 => sign | (raw & (QUIET | PAYLOAD)).max(1),
        _ => sign | EXP,
    }
}

/// Builds a request from a generated spec: selector picks the variant,
/// `session` the id, `bits` the push's samples.
fn request_from_spec(selector: u8, session: u64, bits: &[(u8, u64)]) -> Request {
    match selector % 3 {
        0 => Request::Open { session },
        1 => Request::Push {
            session,
            samples: bits.iter().map(|&b| f64::from_bits(sample_bits(b))).collect(),
        },
        _ => Request::Finish { session },
    }
}

/// A decoded request as it must match bitwise: id, variant and session,
/// and each sample's bit pattern. `PartialEq` on `f64` would call
/// `-0.0` equal to `0.0` and no NaN equal to itself.
fn request_bits((id, req): &(u64, Request)) -> (u64, Request, Vec<u64>) {
    match req {
        Request::Push { session, samples } => (
            *id,
            Request::Push { session: *session, samples: Vec::new() },
            samples.iter().map(|s| s.to_bits()).collect(),
        ),
        other => (*id, other.clone(), Vec::new()),
    }
}

/// Appends a push frame of `bits` samples whose `n` field disagrees with
/// the frame by `mismatch`: 1 claims one sample fewer than it carries, 2
/// one more, 3 so many that `n·8` runs past the frame. 0 appends nothing.
fn push_count_mismatch(bytes: &mut Vec<u8>, mismatch: u8, bits: &[(u8, u64)]) {
    let n = bits.len() as u32;
    let claimed = match mismatch {
        0 => return,
        1 => n.wrapping_sub(1),
        2 => n + 1,
        _ => n + 0x0100_0000,
    };
    let at = bytes.len() + PUSH_COUNT_AT;
    encode_request(bytes, &request_from_spec(1, 7, bits), 1);
    bytes[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
}

/// Decodes a request stream (see [`decode_fragmented`]) and checks it
/// against `frames` bit for bit; a stream that ends in a count-mismatched
/// push must stop there with `Truncated`.
fn check_request_stream(bytes: &[u8], cuts: &[usize], frames: &[(u64, Request)], mismatch: u8) {
    let (got, err) = decode_fragmented(bytes, cuts, FrameDecoder::next_request);
    let got: Vec<_> = got.iter().map(request_bits).collect();
    let want: Vec<_> = frames.iter().map(request_bits).collect();
    assert_eq!(got, want);
    let truncated = Some(FrameError::Truncated { kind: KIND_PUSH });
    assert_eq!(err, if mismatch == 0 { None } else { truncated });
}

/// Builds a response from a generated spec. Verdict variants carry a
/// request id derived from the spec (events carry none by design).
fn response_from_spec(selector: u8, session: u64, n: usize) -> Response {
    let request_id = session.wrapping_mul(31).wrapping_add(n as u64);
    match selector % 6 {
        0 => Response::Enqueued { request_id, session },
        1 => Response::QueueFull { request_id, session, retry_after_chunks: n as u64 },
        2 => Response::Shedding { request_id, session },
        3 => {
            let classification = if n.is_multiple_of(2) {
                let mut distances = [0.0f64; STROKE_COUNT];
                let mut scores = [0.0f64; STROKE_COUNT];
                for (i, d) in distances.iter_mut().enumerate() {
                    *d = (n as f64) * 0.1 + i as f64;
                }
                for (i, s) in scores.iter_mut().enumerate() {
                    *s = 1.0 / (i as f64 + 1.0);
                }
                Stroke::from_index(n % STROKE_COUNT)
                    .map(|stroke| Classification { stroke, distances, scores })
            } else {
                None
            };
            Response::Segment {
                session,
                start_frame: n as u64,
                end_frame: n as u64 + 40,
                classification,
            }
        }
        4 => Response::Finished { session },
        _ => Response::Reaped { session },
    }
}

/// Feeds `bytes` to a decoder in fragments of the sizes in `cuts`
/// (cycled), draining complete frames after every fragment via `pop`,
/// until the stream ends or a frame fails to decode; returns the frames
/// and the failure.
fn decode_fragmented<T>(
    bytes: &[u8],
    cuts: &[usize],
    mut pop: impl FnMut(&mut FrameDecoder) -> Result<Option<T>, FrameError>,
) -> (Vec<T>, Option<FrameError>) {
    let mut decoder = FrameDecoder::new();
    let mut got = Vec::new();
    let mut pos = 0usize;
    let mut k = 0usize;
    while pos < bytes.len() {
        let step = cuts[k % cuts.len()].max(1);
        k += 1;
        let end = (pos + step).min(bytes.len());
        decoder.extend(&bytes[pos..end]);
        pos = end;
        loop {
            match pop(&mut decoder) {
                Ok(Some(frame)) => got.push(frame),
                Ok(None) => break,
                Err(err) => return (got, Some(err)),
            }
        }
    }
    assert_eq!(decoder.buffered(), 0, "no partial frame may remain");
    (got, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Request streams survive arbitrary fragmentation bitwise, whatever
    /// the samples' bit patterns, up to a trailing count-mismatched push.
    #[test]
    fn fragmented_request_stream_decodes_identically(
        specs in prop::collection::vec(
            (0u8..255, 0u64..u64::MAX, prop::collection::vec((any::<u8>(), any::<u64>()), 0..70)),
            1..24,
        ),
        cuts in prop::collection::vec(1usize..96, 1..32),
        (mismatch, tail) in (0u8..4, prop::collection::vec((any::<u8>(), any::<u64>()), 0..9)),
    ) {
        let frames: Vec<(u64, Request)> = specs
            .iter()
            .enumerate()
            .map(|(i, (s, id, bits))| (1_000 + i as u64, request_from_spec(*s, *id, bits)))
            .collect();
        let mut bytes = Vec::new();
        for (req_id, f) in &frames {
            encode_request(&mut bytes, f, *req_id);
        }
        push_count_mismatch(&mut bytes, mismatch, &tail);
        check_request_stream(&bytes, &cuts, &frames, mismatch);
    }

    /// Response streams survive arbitrary fragmentation bitwise.
    #[test]
    fn fragmented_response_stream_decodes_identically(
        specs in prop::collection::vec((0u8..255, 0u64..u64::MAX, 0usize..70), 1..24),
        cuts in prop::collection::vec(1usize..96, 1..32),
    ) {
        let frames: Vec<Response> =
            specs.iter().map(|&(s, id, n)| response_from_spec(s, id, n)).collect();
        let mut bytes = Vec::new();
        for f in &frames {
            encode_response(&mut bytes, f);
        }
        let (got, err) = decode_fragmented(&bytes, &cuts, FrameDecoder::next_response);
        prop_assert_eq!(err, None);
        prop_assert_eq!(got, frames);
    }

    /// One-byte reads — the worst fragmentation TCP can produce — still
    /// decode every frame, and a count-mismatched push still fails only
    /// once it is whole.
    #[test]
    fn byte_at_a_time_reads_decode_every_frame(
        specs in prop::collection::vec(
            (0u8..255, 0u64..1000, prop::collection::vec((any::<u8>(), any::<u64>()), 0..12)),
            1..8,
        ),
        (mismatch, tail) in (0u8..4, prop::collection::vec((any::<u8>(), any::<u64>()), 0..4)),
    ) {
        let frames: Vec<(u64, Request)> = specs
            .iter()
            .enumerate()
            .map(|(i, (s, id, bits))| (i as u64, request_from_spec(*s, *id, bits)))
            .collect();
        let mut bytes = Vec::new();
        for (req_id, f) in &frames {
            encode_request(&mut bytes, f, *req_id);
        }
        push_count_mismatch(&mut bytes, mismatch, &tail);
        check_request_stream(&bytes, &[1], &frames, mismatch);
    }
}
