//! The stitched-trace contract over real sockets (DESIGN.md §6.11): a
//! forced shed makes the flight recorder write a Chrome-trace artifact,
//! and every nonzero request id in it must stitch 1:1 against the ids the
//! wire client assigned.

use echowrite::{EchoWrite, EchoWriteConfig, Parallelism};
use echowrite_bench::stitch::{correlate, stitch_traces, ClientTrace};
use echowrite_serve::{FlightOptions, ServeConfig, SessionManager};
use echowrite_wire::{Request, Response, WireClient, WireServer};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Five STFT hops per push — the chunk an audio callback hands over.
const CHUNK: usize = 5 * 1024;

/// The shed artifact in `dir`, once the shard worker has written it.
fn shed_artifact(dir: &Path) -> Option<PathBuf> {
    std::fs::read_dir(dir).ok()?.flatten().map(|e| e.path()).find(|p| {
        p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("flight-") && n.contains("-shed-"))
    })
}

/// A one-session admission limit sheds the second open; the shed latch
/// dumps the flight rings. Every verdict arrives from the submit path, so
/// no call here waits on a shard worker except the bounded artifact poll.
#[test]
fn forced_shed_flight_artifact_stitches_one_to_one() {
    let dir = std::env::temp_dir().join(format!("ewsn-stitch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manager = SessionManager::new(
        EchoWrite::with_config(EchoWriteConfig::streaming_downsampled(32)),
        ServeConfig {
            shards: Parallelism::Threads(1),
            max_sessions: 1,
            high_water: 1,
            flight: FlightOptions { artifact_dir: Some(dir.clone()), ..FlightOptions::default() },
            ..ServeConfig::default()
        },
    )
    .expect("valid serve config");
    let server = WireServer::bind("127.0.0.1:0", manager).expect("loopback bind");
    let mut client = WireClient::connect(server.local_addr()).expect("loopback connect");
    client.set_next_request_id(9_000);

    // Open and two pushes on the admitted session, an open that must
    // shed, then one more push so the shard polls the dump trigger.
    let silence = vec![0.0f64; CHUNK];
    let push = || Request::Push { session: 71, samples: silence.clone() };
    let script = [
        ("open", Request::Open { session: 71 }),
        ("push", push()),
        ("push", push()),
        ("open_shed", Request::Open { session: 72 }),
        ("push", push()),
        ("finish", Request::Finish { session: 71 }),
    ];
    let mut trace = ClientTrace::new();
    for (ts_us, (name, req)) in (0u64..).step_by(1_000).zip(&script) {
        let id = client.peek_next_request_id();
        match client.request(req).expect("verdict") {
            Response::Shedding { request_id, .. } => {
                assert_eq!(*name, "open_shed", "unexpected shed");
                trace.instant("shed_verdict", request_id, ts_us);
            }
            Response::Enqueued { .. } => trace.span(name, id, ts_us, 100),
            other => panic!("{name}: unexpected verdict {other:?}"),
        }
    }

    let artifact = (0..2_000).find_map(|_| {
        shed_artifact(&dir).or_else(|| {
            std::thread::sleep(Duration::from_millis(10));
            None
        })
    });
    drop(client);
    let _ = server.shutdown();
    let artifact = artifact.expect("the shed wrote a flight artifact");
    let server_json = std::fs::read_to_string(&artifact).expect("readable artifact");
    let _ = std::fs::remove_dir_all(&dir);

    let client_json = trace.to_chrome_json();
    let merged = stitch_traces(&client_json, &server_json).expect("both are Chrome traces");
    assert_eq!(merged.matches('{').count(), merged.matches('}').count(), "well-formed merge");
    let report = correlate(&client_json, &server_json);
    assert!(
        report.is_one_to_one(),
        "stitch not 1:1: {} matched, server-only ids {:?}",
        report.matched,
        report.server_only
    );
}
