//! End-to-end tests of the admin plane over real loopback sockets: all
//! five endpoint groups, readiness under shed, the trace lifecycle, and
//! the malformed-request fuzz contract (a bad request closes only its
//! own connection and bumps `obs_malformed_requests`).

use echowrite::{EchoWrite, EchoWriteConfig, Parallelism};
use echowrite_obs::ObsServer;
use echowrite_serve::{ReapPolicy, Request, ServeConfig, SessionId, SessionManager};
use echowrite_snapshot::{MemoryStore, SnapshotStore, StoreError};
use echowrite_wire::{FrameDecoder, Response, WireClient, WireServer};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn manager(cfg: ServeConfig) -> Arc<SessionManager> {
    let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
    Arc::new(SessionManager::new(engine, cfg).expect("valid config"))
}

fn one_shard() -> ServeConfig {
    ServeConfig { shards: Parallelism::Threads(1), ..ServeConfig::default() }
}

/// Sends raw bytes and returns (status line, full body) once the server
/// closes the connection.
fn raw(addr: SocketAddr, bytes: &[u8]) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("write");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    let status = response.lines().next().unwrap_or_default().to_string();
    let body = response.split("\r\n\r\n").nth(1).unwrap_or_default().to_string();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    raw(addr, format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
}

fn post(addr: SocketAddr, path: &str) -> (String, String) {
    raw(addr, format!("POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n").as_bytes())
}

fn status_code(status_line: &str) -> u16 {
    status_line.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("status code")
}

/// The Prometheus text-exposition contract on a live `/metrics` body:
/// every sample's family is announced by `# HELP` and then `# TYPE`, every
/// histogram carries its `+Inf` bucket, `_sum` and `_count`, and the
/// families below are present.
fn assert_exposition(text: &str) {
    let mut helped = BTreeSet::new();
    let mut typed = BTreeSet::new();
    let mut histograms = BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helped.insert(rest.split(' ').next().unwrap_or_default());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap_or_default();
            assert!(helped.contains(name), "`# TYPE {name}` without a preceding `# HELP`");
            if parts.next() == Some("histogram") {
                histograms.insert(name);
            }
            typed.insert(name);
        } else if !line.is_empty() {
            let raw = line.split([' ', '{']).next().unwrap_or_default();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| raw.strip_suffix(suffix))
                .filter(|f| histograms.contains(f))
                .unwrap_or(raw);
            assert!(typed.contains(family), "sample `{raw}` has no `# TYPE` announcement");
        }
    }
    for h in &histograms {
        for part in ["_bucket{le=\"+Inf\"}", "_sum", "_count"] {
            assert!(text.contains(&format!("{h}{part}")), "histogram {h} lacks {part}");
        }
    }
    for required in [
        "echowrite_serve_pushes_total",
        "echowrite_serve_obs_requests_total",
        "echowrite_serve_obs_malformed_requests_total",
        "echowrite_serve_flight_dumps_total",
        "echowrite_serve_push_latency_us",
        "echowrite_serve_push_latency_p50_us",
        "echowrite_serve_push_latency_p95_us",
        "echowrite_serve_push_latency_p99_us",
    ] {
        assert!(typed.contains(required), "required family {required} missing:\n{text}");
    }
}

#[test]
fn serves_metrics_health_sessions_and_flight() {
    let m = manager(one_shard());
    let obs = ObsServer::bind("127.0.0.1:0", Arc::downgrade(&m)).expect("bind");
    let addr = obs.local_addr();

    // Traffic with a tagged request id so flight dumps carry it.
    assert!(matches!(
        m.submit_tagged(Request::Open(SessionId(7)), 600),
        echowrite_serve::SubmitVerdict::Enqueued
    ));
    let _ = m.submit_tagged(Request::Push(SessionId(7), &[0.0; 2048]), 601);
    m.quiesce();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status_code(&status), 200);
    assert_eq!(body, "ok\n");

    let (status, body) = get(addr, "/readyz");
    assert_eq!(status_code(&status), 200, "not shedding: {body}");

    let (status, body) = get(addr, "/metrics");
    assert_eq!(status_code(&status), 200);
    assert!(body.contains("# TYPE echowrite_serve_sessions_opened_total counter"));
    assert!(
        body.contains("echowrite_serve_obs_requests_total"),
        "admin plane must count itself: {body}"
    );
    assert_exposition(&body);

    let (status, body) = get(addr, "/sessions");
    assert_eq!(status_code(&status), 200);
    assert!(body.starts_with('[') && body.ends_with(']'), "a JSON array: {body}");
    assert!(body.contains("\"session\":7"), "live session listed: {body}");
    assert!(body.contains("\"samples_in\":2048"), "ingest counter: {body}");
    assert!(body.contains("\"suspended\":false"));

    let (status, body) = get(addr, "/flight");
    assert_eq!(status_code(&status), 200);
    assert!(body.starts_with("{\"displayTimeUnit\""), "Chrome-trace shape: {body}");
    assert!(body.contains("\"req\":601"), "flight entries carry request ids: {body}");

    let (status, body) = get(addr, "/flight/7");
    assert_eq!(status_code(&status), 200);
    assert!(body.contains("\"sid\":7"));
    let (status, body) = get(addr, "/flight/999");
    assert_eq!(status_code(&status), 200);
    assert!(!body.contains("\"sid\":7"), "filtered dump must exclude other sessions: {body}");
    let (status, _) = get(addr, "/flight/not-a-number");
    assert_eq!(status_code(&status), 400);

    let (status, _) = get(addr, "/nope");
    assert_eq!(status_code(&status), 404);
    let (status, _) = post(addr, "/nope");
    assert_eq!(status_code(&status), 405);
    assert_eq!(m.metrics().obs_malformed_requests.get(), 0, "every request was well-formed");

    obs.shutdown();
}

#[test]
fn readyz_reflects_shed_state_and_manager_loss() {
    let m = manager(ServeConfig { max_sessions: 1, high_water: 1, ..one_shard() });
    let obs = ObsServer::bind("127.0.0.1:0", Arc::downgrade(&m)).expect("bind");
    let addr = obs.local_addr();

    let _ = m.open(SessionId(1));
    m.quiesce();
    let (status, _) = get(addr, "/readyz");
    assert_eq!(status_code(&status), 200, "below high water");

    // The second open trips the hysteresis latch: not ready.
    let _ = m.open(SessionId(2));
    let (status, body) = get(addr, "/readyz");
    assert_eq!(status_code(&status), 503, "shedding must fail readiness");
    assert_eq!(body, "shedding\n");
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status_code(&status), 200, "liveness is not readiness");

    // Drop the manager: every manager-backed endpoint degrades to 503,
    // liveness still answers.
    m.quiesce();
    drop(m);
    for path in ["/readyz", "/metrics", "/sessions", "/flight"] {
        let (status, _) = get(addr, path);
        assert_eq!(status_code(&status), 503, "{path} after manager shutdown");
    }
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status_code(&status), 200);
    obs.shutdown();

    // A shard whose worker has exited fails readiness: here the worker
    // panics reading the store for a push to an unknown id.
    let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
    let m = Arc::new(
        SessionManager::with_snapshot_store(engine, one_shard(), Arc::new(PanickingStore))
            .expect("valid config"),
    );
    let obs = ObsServer::bind("127.0.0.1:0", Arc::downgrade(&m)).expect("bind");
    let addr = obs.local_addr();
    let (status, _) = get(addr, "/readyz");
    assert_eq!(status_code(&status), 200, "every shard worker running");
    let _ = m.push(SessionId(9), &[0.0; 1024]);
    let deadline = Instant::now() + Duration::from_secs(20);
    let (status, body) = loop {
        let (status, body) = get(addr, "/readyz");
        if status_code(&status) == 503 || Instant::now() > deadline {
            break (status, body);
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(status_code(&status), 503, "a dead shard must fail readiness: {body}");
    assert_eq!(body, "shard worker exited\n");
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status_code(&status), 200, "liveness is not readiness");

    obs.shutdown();
}

/// A store whose every read panics, to kill the shard worker that reads it.
#[derive(Debug)]
struct PanickingStore;

impl SnapshotStore for PanickingStore {
    fn put(&self, _: u64, _: Vec<u8>) -> Result<(), StoreError> {
        Ok(())
    }

    fn remove(&self, _: u64) -> Result<Option<Vec<u8>>, StoreError> {
        panic!("store read panicked")
    }

    fn contains(&self, _: u64) -> Result<bool, StoreError> {
        Ok(false)
    }

    fn sessions(&self) -> Result<Vec<u64>, StoreError> {
        Ok(Vec::new())
    }
}

#[test]
fn trace_lifecycle_records_without_restart() {
    let m = manager(one_shard());
    let obs = ObsServer::bind("127.0.0.1:0", Arc::downgrade(&m)).expect("bind");
    let addr = obs.local_addr();

    let (status, _) = get(addr, "/trace/dump");
    assert_eq!(status_code(&status), 404, "nothing recorded yet");
    let (status, _) = post(addr, "/trace/stop");
    assert_eq!(status_code(&status), 409, "stop before start");

    let (status, _) = post(addr, "/trace/start");
    assert_eq!(status_code(&status), 200);
    let (status, _) = post(addr, "/trace/start");
    assert_eq!(status_code(&status), 409, "double start");

    // Traffic while the gate is on lands in the recording.
    let _ = m.open(SessionId(3));
    let _ = m.push(SessionId(3), &[0.0; 2048]);
    m.quiesce();

    let (status, _) = post(addr, "/trace/stop");
    assert_eq!(status_code(&status), 200);
    assert!(!echowrite_trace::enabled(), "stop must gate tracing off");

    let (status, body) = get(addr, "/trace/dump");
    assert_eq!(status_code(&status), 200);
    assert!(body.contains("\"traceEvents\""), "Chrome-trace dump: {body}");
    assert!(body.contains("\"push\""), "serve spans recorded: {body}");

    obs.shutdown();
}

/// A snapshot that will not restore under this engine stays in the store,
/// so a manager restarted under the engine that wrote it can still resume
/// the session, and the failed thaw shows in `/metrics`.
#[test]
fn failed_thaw_keeps_the_snapshot_and_shows_in_metrics() {
    let store = Arc::new(MemoryStore::new());
    let id = SessionId(23);
    let corrupt = b"EWSN torn mid-write".to_vec();
    store.put(id.0, corrupt.clone()).expect("memory put");
    let cfg = ServeConfig {
        reap_policy: ReapPolicy::SuspendToStore,
        idle_timeout_samples: Some(1 << 20),
        ..one_shard()
    };
    let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
    let m = Arc::new(
        SessionManager::with_snapshot_store(engine, cfg, store.clone()).expect("valid config"),
    );
    let obs = ObsServer::bind("127.0.0.1:0", Arc::downgrade(&m)).expect("bind");

    // The push finds no live session, so the shard tries to thaw one.
    let _ = m.push(id, &[0.0; 1024]);
    m.quiesce();
    assert_eq!(store.sessions().expect("store list"), vec![id.0]);
    assert_eq!(
        store.remove(id.0).expect("store read"),
        Some(corrupt),
        "a failed thaw must leave the snapshot's bytes in the store"
    );
    let (status, body) = get(obs.local_addr(), "/metrics");
    assert_eq!(status_code(&status), 200);
    assert!(
        body.contains("echowrite_serve_thaw_failures_total 1\n"),
        "failed thaw not reported:\n{body}"
    );
}

/// An event whose session's opener has disconnected is an orphan: the
/// wire router counts it, and `/metrics` shows it while the server runs.
#[test]
fn wire_orphan_events_show_in_metrics_before_shutdown() {
    let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
    let manager = SessionManager::new(engine, one_shard()).expect("valid config");
    let wire = WireServer::bind("127.0.0.1:0", manager).expect("bind wire");
    let obs = ObsServer::bind("127.0.0.1:0", wire.manager_handle()).expect("bind obs");
    let session = 41;

    // Connection A opens the session and half-closes. Reading to EOF
    // waits until the server has closed A, which it does only after
    // dropping A's routing entries.
    let mut a = TcpStream::connect(wire.local_addr()).expect("connect A");
    let mut frame = Vec::new();
    echowrite_wire::encode_request(&mut frame, &echowrite_wire::Request::Open { session }, 1);
    a.write_all(&frame).expect("write open");
    a.shutdown(Shutdown::Write).expect("half-close A");
    let mut bytes = Vec::new();
    a.read_to_end(&mut bytes).expect("read A to EOF");
    let mut decoder = FrameDecoder::new();
    decoder.extend(&bytes);
    let verdict = decoder.next_response().expect("well-formed verdict");
    assert!(matches!(verdict, Some(Response::Enqueued { .. })), "{verdict:?}");

    // Connection B finishes a session it never opened: its `Finished`
    // event has no connection to go to.
    let mut b = WireClient::connect(wire.local_addr()).expect("connect B");
    let verdict = b.request(&echowrite_wire::Request::Finish { session }).expect("verdict");
    assert!(matches!(verdict, Response::Enqueued { .. }), "{verdict:?}");

    let want = "echowrite_serve_wire_orphan_events_total 1\n";
    let deadline = Instant::now() + Duration::from_secs(20);
    let body = loop {
        let (status, body) = get(obs.local_addr(), "/metrics");
        assert_eq!(status_code(&status), 200);
        if body.contains(want) || Instant::now() > deadline {
            break body;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(body.contains(want), "orphan not counted on the running server:\n{body}");

    drop(b);
    obs.shutdown();
    let report = wire.shutdown();
    assert_eq!(report.metrics.wire_orphan_events, 1);
    assert_eq!(report.metrics.sessions_finished, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite (c): any malformed request line gets a 400 (or a plain
    /// close), closes only its own connection, bumps the malformed
    /// counter, and leaves the plane serving other connections.
    #[test]
    fn malformed_requests_are_isolated(
        junk in prop::collection::vec(1u8..255, 1..64),
    ) {
        let m = manager(one_shard());
        let obs = ObsServer::bind("127.0.0.1:0", Arc::downgrade(&m)).expect("bind");
        let addr = obs.local_addr();

        // Force the request line to be malformed regardless of the drawn
        // bytes: prefix a method no route accepts.
        let mut request = b"XQ-".to_vec();
        request.extend(junk.iter().copied().filter(|&b| b != b'\r' && b != b'\n'));
        request.extend_from_slice(b"\r\n\r\n");
        let before = m.metrics().obs_malformed_requests.get();
        let (status, _) = raw(addr, &request);
        // Either a 400 answer or (for non-UTF-8 garbage) the same 400 —
        // never a success, never a hang.
        prop_assert_eq!(status_code(&status), 400);
        prop_assert_eq!(m.metrics().obs_malformed_requests.get(), before + 1);

        // The plane is unharmed: a well-formed request on a fresh
        // connection still succeeds.
        let (status, body) = get(addr, "/healthz");
        prop_assert_eq!(status_code(&status), 200);
        prop_assert_eq!(body.as_str(), "ok\n");

        obs.shutdown();
        m.quiesce();
    }
}
