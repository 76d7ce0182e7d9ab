//! Property tests for the wire frame grammar: any frame sequence, sliced
//! into arbitrary read fragments — 1-byte reads up to whole-stream reads —
//! decodes to exactly the original frames. This is the contract the
//! server's read loop depends on: TCP makes no framing promises, so the
//! decoder must make them.

use echowrite_dtw::Classification;
use echowrite_gesture::stroke::STROKE_COUNT;
use echowrite_gesture::Stroke;
use echowrite_wire::{encode_request, encode_response, FrameDecoder, Request, Response};
use proptest::prelude::*;

/// Builds a request from a generated spec: selector picks the variant,
/// `session` the id, `n` the push payload size.
fn request_from_spec(selector: u8, session: u64, n: usize) -> Request {
    match selector % 3 {
        0 => Request::Open { session },
        1 => Request::Push {
            session,
            // Deterministic but varied sample bits, including negatives
            // and subnormal-ish magnitudes.
            samples: (0..n)
                .map(|i| ((i as f64) - (n as f64) / 2.0) * 1.37e-3 * if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
        },
        _ => Request::Finish { session },
    }
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
/// (cycled), draining complete frames after every fragment via `pop`.
fn decode_fragmented<T>(
    bytes: &[u8],
    cuts: &[usize],
    mut pop: impl FnMut(&mut FrameDecoder) -> Option<T>,
) -> Vec<T> {
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
        while let Some(frame) = pop(&mut decoder) {
            got.push(frame);
        }
    }
    assert_eq!(decoder.buffered(), 0, "no partial frame may remain");
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Request streams survive arbitrary fragmentation bitwise.
    #[test]
    fn fragmented_request_stream_decodes_identically(
        specs in prop::collection::vec((0u8..255, 0u64..u64::MAX, 0usize..70), 1..24),
        cuts in prop::collection::vec(1usize..96, 1..32),
    ) {
        let frames: Vec<(u64, Request)> = specs
            .iter()
            .enumerate()
            .map(|(i, &(s, id, n))| (1_000 + i as u64, request_from_spec(s, id, n)))
            .collect();
        let mut bytes = Vec::new();
        for (req_id, f) in &frames {
            encode_request(&mut bytes, f, *req_id);
        }
        let got = decode_fragmented(&bytes, &cuts, |d| {
            d.next_request().expect("stream is well-formed")
        });
        prop_assert_eq!(got, frames);
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
        let got = decode_fragmented(&bytes, &cuts, |d| {
            d.next_response().expect("stream is well-formed")
        });
        prop_assert_eq!(got, frames);
    }

    /// One-byte reads — the worst fragmentation TCP can produce — still
    /// decode every frame.
    #[test]
    fn byte_at_a_time_reads_decode_every_frame(
        specs in prop::collection::vec((0u8..255, 0u64..1000, 0usize..12), 1..8),
    ) {
        let frames: Vec<(u64, Request)> = specs
            .iter()
            .enumerate()
            .map(|(i, &(s, id, n))| (i as u64, request_from_spec(s, id, n)))
            .collect();
        let mut bytes = Vec::new();
        for (req_id, f) in &frames {
            encode_request(&mut bytes, f, *req_id);
        }
        let got = decode_fragmented(&bytes, &[1], |d| {
            d.next_request().expect("stream is well-formed")
        });
        prop_assert_eq!(got, frames);
    }
}
