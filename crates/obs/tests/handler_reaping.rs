//! Regression: both serving planes reap connection handler threads while
//! they run. A finished thread that is never joined keeps its stack
//! mapping, so a server that joined its handlers only at shutdown grew by
//! two memory maps and several kB of RSS per connection — on the admin
//! plane, per request — until the kernel's map limit aborted the process.
//!
//! Linux only (`/proc/self`). This is a test binary of its own, and its
//! two tests take turns, so no other test's threads move the counts.
#![cfg(target_os = "linux")]

use echowrite::{EchoWrite, EchoWriteConfig, Parallelism};
use echowrite_obs::ObsServer;
use echowrite_serve::{ServeConfig, SessionManager};
use echowrite_wire::{Request, Response, WireClient, WireServer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};

/// Memory-map entries a run may add: arenas and caches the allocator
/// creates on demand. The leak added two per connection.
const MAP_SLACK: usize = 256;
/// Resident growth a run may show, kB. The leak added about 8 kB per
/// connection.
const RSS_SLACK_KB: u64 = 8 * 1024;

/// Both tests measure the whole process, so they must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn manager() -> SessionManager {
    let engine = EchoWrite::with_config(EchoWriteConfig::streaming_downsampled(32));
    let cfg = ServeConfig { shards: Parallelism::Threads(1), ..ServeConfig::default() };
    SessionManager::new(engine, cfg).expect("valid config")
}

/// (memory-map entries, VmRSS in kB) of this process.
fn footprint() -> (usize, u64) {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("read maps").lines().count();
    let status = std::fs::read_to_string("/proc/self/status").expect("read status");
    let rss = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line");
    (maps, rss)
}

/// Runs `warmup` then `n` iterations of `op`, and asserts that the
/// measured `n` left the map count and RSS flat.
fn assert_flat(what: &str, warmup: u64, n: u64, mut op: impl FnMut(u64)) {
    for i in 0..warmup {
        op(i);
    }
    let (maps0, rss0) = footprint();
    for i in warmup..warmup + n {
        op(i);
    }
    let (maps1, rss1) = footprint();
    eprintln!("{what}: maps {maps0} -> {maps1}, VmRSS {rss0} -> {rss1} kB");
    assert!(maps1 <= maps0 + MAP_SLACK, "{what}: memory maps grew {maps0} -> {maps1}");
    assert!(rss1 <= rss0 + RSS_SLACK_KB, "{what}: VmRSS grew {rss0} -> {rss1} kB");
}

fn healthz(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n").expect("write");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 200"), "unexpected response: {response}");
}

#[test]
fn admin_requests_leave_maps_and_rss_flat() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = Arc::new(manager());
    let obs = ObsServer::bind("127.0.0.1:0", Arc::downgrade(&m)).expect("bind");
    let addr = obs.local_addr();
    assert_flat("10 000 GET /healthz", 500, 10_000, |_| healthz(addr));
    obs.shutdown();
}

#[test]
fn wire_connection_churn_leaves_maps_and_rss_flat() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = WireServer::bind("127.0.0.1:0", manager()).expect("bind");
    let addr = server.local_addr();
    // One cycle: connect, open and finish a session (a verdict through the
    // reader and writer, an event through the router), disconnect.
    let cycle = |session: u64| {
        let mut client = WireClient::connect(addr).expect("connect");
        for request in [Request::Open { session }, Request::Finish { session }] {
            let verdict = client.request(&request).expect("verdict");
            assert!(matches!(verdict, Response::Enqueued { .. }), "{verdict:?}");
        }
        let event = client.next_event().expect("event");
        assert!(matches!(event, Response::Finished { .. }), "{event:?}");
    };
    assert_flat("1 000 wire connections", 100, 1_000, cycle);
    let report = server.shutdown();
    assert_eq!(report.metrics.wire_connections, 1_100);
}
