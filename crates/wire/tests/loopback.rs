//! Loopback round-trips through a real [`WireServer`]: wire transcripts
//! must be bitwise identical to isolated in-process recognizers — across
//! many connections and shards, and across a reaper suspend plus a thaw —
//! the idempotent re-open contract must hold across a lost-ack retry,
//! shedding verdicts must propagate to the socket, and malformed bytes
//! must close the connection and count.

use echowrite::{EchoWrite, EchoWriteConfig, Parallelism, StreamingRecognizer};
use echowrite_gesture::{Stroke, Writer, WriterParams};
use echowrite_serve::{ReapPolicy, ServeConfig, SessionManager};
use echowrite_snapshot::{MemoryStore, SnapshotStore};
use echowrite_synth::{DeviceProfile, EnvironmentProfile, Scene};
use echowrite_wire::{Request, Response, WireClient, WireServer};
use std::collections::BTreeMap;
use std::io::{Read, Write as _};
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, Barrier, OnceLock};
use std::time::Duration;

/// The Android app's 5-frame push size at the 32× downsampled rate is
/// still 5 * 1024 input samples per push.
const CHUNK: usize = 5 * 1024;

/// The fleet tests' shape: sessions spread over connections, each
/// connection multiplexing its share, against [`serve_config`]'s shards.
const FLEET_SESSIONS: usize = 64;
const FLEET_CONNS: usize = 8;

/// How long a fleet's clients may take before the test fails. A session
/// whose `Finished` never arrives would block `WireClient::next_event`
/// forever; the watchdog turns that hang into a failure.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Idle threshold for the suspend test, on the shard's logical sample
/// clock. Large enough that round-robin resume traffic (≈ sessions/shard
/// × CHUNK samples between a session's consecutive pushes) never re-reaps
/// a session mid-resume, small against the pump phase's aging traffic.
const SUSPEND_IDLE_TIMEOUT: u64 = 1_000_000;

/// Silence chunks each pump session of the suspend test pushes: per shard
/// this is far more than `SUSPEND_IDLE_TIMEOUT / CHUNK` commands and clock
/// samples even if the id hash distributes pump sessions unevenly.
const PUMP_PUSHES: usize = 80;

/// A transcript row, scores compared bitwise.
type Row = (u64, u64, Stroke, [f64; 6]);

/// The down-converted serving engine (cheap enough for many sessions).
fn engine() -> &'static EchoWrite {
    static E: OnceLock<EchoWrite> = OnceLock::new();
    E.get_or_init(|| EchoWrite::with_config(EchoWriteConfig::streaming_downsampled(32)))
}

fn render(strokes: &[Stroke], seed: u64, tail: f64) -> Vec<f64> {
    let perf = Writer::new(WriterParams::nominal(), seed).write_sequence(strokes);
    let mut traj = perf.trajectory;
    if tail > 0.0 {
        let last = *traj.points().last().expect("non-empty trajectory");
        traj.hold(last, tail);
    }
    Scene::new(DeviceProfile::mate9(), EnvironmentProfile::meeting_room(), seed).render(&traj)
}

/// Session audios plus their isolated-recognizer oracle transcripts.
fn sessions() -> &'static Vec<(Vec<f64>, Vec<Row>)> {
    static S: OnceLock<Vec<(Vec<f64>, Vec<Row>)>> = OnceLock::new();
    S.get_or_init(|| {
        let audios = [
            render(&[Stroke::S2, Stroke::S5], 11, 1.2),
            render(&[Stroke::S4], 23, 1.0),
            render(&[Stroke::S3, Stroke::S6], 31, 0.0),
            render(&[Stroke::S1, Stroke::S2], 47, 1.1),
        ];
        audios.into_iter().map(|audio| {
            let rows = oracle_rows(&audio);
            (audio, rows)
        }).collect()
    })
}

/// The audio and oracle transcript a fleet session id plays.
fn session(id: u64) -> &'static (Vec<f64>, Vec<Row>) {
    &sessions()[id as usize % sessions().len()]
}

/// The in-process oracle: one isolated streaming recognizer over the
/// whole audio in CHUNK pushes.
fn oracle_rows(audio: &[f64]) -> Vec<Row> {
    let mut rec = StreamingRecognizer::new(engine());
    let mut rows = Vec::new();
    for chunk in audio.chunks(CHUNK) {
        for ev in rec.push(chunk) {
            rows.push((
                ev.start_frame as u64,
                ev.end_frame as u64,
                ev.classification.stroke,
                ev.classification.scores,
            ));
        }
    }
    for ev in rec.finish() {
        rows.push((
            ev.start_frame as u64,
            ev.end_frame as u64,
            ev.classification.stroke,
            ev.classification.scores,
        ));
    }
    rows
}

fn serve_config() -> ServeConfig {
    ServeConfig { shards: Parallelism::Threads(4), ..ServeConfig::default() }
}

fn start_server() -> WireServer {
    let manager =
        SessionManager::new(engine().clone(), serve_config()).expect("valid serve config");
    WireServer::bind("127.0.0.1:0", manager).expect("loopback bind")
}

/// Sends `req` until it is enqueued, backing off 2 ms per `QueueFull` so
/// a loaded host's shards drain before the retry budget runs out.
fn must_enqueue(client: &mut WireClient, req: &Request) {
    for _ in 0..1000 {
        match client.request(req).expect("verdict") {
            Response::Enqueued { .. } => return,
            Response::QueueFull { retry_after_chunks, .. } => {
                assert!(retry_after_chunks >= 1);
                std::thread::sleep(Duration::from_millis(2));
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }
    panic!("queue never drained");
}

/// Runs `clients` on a thread of its own and fails the test if it has not
/// returned within [`WATCHDOG`]; a panic inside it fails the test as is.
fn under_watchdog<T: Send + 'static>(clients: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, returned) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = done.send(clients());
    });
    match returned.recv_timeout(WATCHDOG) {
        Ok(out) => {
            runner.join().expect("the client runner returned");
            out
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("fleet clients did not finish within {WATCHDOG:?}")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match runner.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the runner sends before it returns"),
        },
    }
}

/// Drives [`FLEET_CONNS`] connections to `addr` at once, connection `c`
/// owning the session ids `k < FLEET_SESSIONS` with `k % FLEET_CONNS == c`,
/// and returns every session's wire transcript.
fn run_fleet<F>(addr: SocketAddr, connection: F) -> BTreeMap<u64, Vec<Row>>
where
    F: Fn(&mut WireClient, &[u64]) -> BTreeMap<u64, Vec<Row>> + Sync,
{
    std::thread::scope(|scope| {
        let connection = &connection;
        let handles: Vec<_> = (0..FLEET_CONNS)
            .map(|c| {
                let ids: Vec<u64> =
                    (c..FLEET_SESSIONS).step_by(FLEET_CONNS).map(|k| k as u64).collect();
                scope.spawn(move || {
                    let mut client = WireClient::connect(addr).expect("loopback connect");
                    connection(&mut client, &ids)
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("connection thread")).collect()
    })
}

/// Pushes `ids` round-robin, one CHUNK per turn, from each id's cursor up
/// to `end(id)`; with `finish`, sends each id's `Finish` once it is there.
fn drive(
    client: &mut WireClient,
    cursors: &mut BTreeMap<u64, usize>,
    ids: &[u64],
    end: impl Fn(u64) -> usize,
    finish: bool,
) {
    let mut live = ids.to_vec();
    while !live.is_empty() {
        live.retain(|&id| {
            let pos = cursors[&id];
            let to = (pos + CHUNK).min(end(id));
            if pos < to {
                let samples = session(id).0[pos..to].to_vec();
                must_enqueue(client, &Request::Push { session: id, samples });
                cursors.insert(id, to);
            }
            to < end(id)
        });
    }
    if finish {
        for &id in ids {
            must_enqueue(client, &Request::Finish { session: id });
        }
    }
}

/// Reads events until `finished` sessions have finished, returning the
/// segment rows of `ids` (other sessions' rows are dropped).
fn drain(client: &mut WireClient, ids: &[u64], finished: usize) -> BTreeMap<u64, Vec<Row>> {
    let mut transcripts: BTreeMap<u64, Vec<Row>> =
        ids.iter().map(|&id| (id, Vec::new())).collect();
    let mut seen = 0usize;
    while seen < finished {
        match client.next_event().expect("event stream") {
            Response::Segment { session, start_frame, end_frame, classification } => {
                let cls = classification.expect("no degradation configured");
                if let Some(rows) = transcripts.get_mut(&session) {
                    rows.push((start_frame, end_frame, cls.stroke, cls.scores));
                }
            }
            Response::Finished { .. } => seen += 1,
            other => panic!("unexpected event {other:?}"),
        }
    }
    transcripts
}

/// Asserts every fleet session's wire transcript equals its oracle.
fn assert_fleet_transcripts(transcripts: &BTreeMap<u64, Vec<Row>>) {
    assert_eq!(transcripts.len(), FLEET_SESSIONS, "a transcript per session");
    for (&id, got) in transcripts {
        assert_eq!(got, &session(id).1, "session {id}: wire transcript diverged");
    }
}

/// Sixty-four sessions over eight connections and four shards, each
/// connection multiplexing its share round-robin by chunk: every wire
/// transcript must equal the isolated in-process recognizer bitwise.
#[test]
fn wire_transcripts_match_in_process_recognizers() {
    let server = start_server();
    let addr = server.local_addr();
    let transcripts = under_watchdog(move || {
        run_fleet(addr, |client, ids| {
            let mut cursors = ids.iter().map(|&id| (id, 0)).collect();
            for &id in ids {
                must_enqueue(client, &Request::Open { session: id });
            }
            drive(client, &mut cursors, ids, |id| session(id).0.len(), true);
            drain(client, ids, ids.len())
        })
    });
    assert_fleet_transcripts(&transcripts);
    let report = server.shutdown();
    assert_eq!(report.metrics.sessions_finished, FLEET_SESSIONS as u64);
    assert!(report.metrics.wire_connections >= FLEET_CONNS as u64);
    assert!(report.metrics.wire_frames_read > 0);
    assert!(report.metrics.wire_frames_written > 0);
    assert_eq!(report.metrics.wire_malformed_frames, 0);
}

/// The reaper's suspend path over the wire. Every odd session pauses
/// mid-word while the even half finishes; pump traffic then ages the
/// shards' clocks past the idle threshold so the reaper suspends the odd
/// half into the store, and a bare late `Push` — no re-`Open`, no replay —
/// thaws each one. The two barriers order the phases across connections:
/// all idle sessions quiet before any pumping, all pumping done before any
/// resume. Transcripts must still equal the oracle bitwise.
#[test]
fn reaper_suspends_idle_sessions_and_a_late_push_thaws_them_bitwise() {
    let store = Arc::new(MemoryStore::new());
    let manager = SessionManager::with_snapshot_store(
        engine().clone(),
        ServeConfig {
            idle_timeout_samples: Some(SUSPEND_IDLE_TIMEOUT),
            reap_policy: ReapPolicy::SuspendToStore,
            ..serve_config()
        },
        store.clone(),
    )
    .expect("valid serve config");
    let server = WireServer::bind("127.0.0.1:0", manager).expect("loopback bind");
    let addr = server.local_addr();
    let barrier = Arc::new(Barrier::new(FLEET_CONNS));
    let transcripts = under_watchdog(move || {
        run_fleet(addr, |client, ids| {
            // One throwaway pump session per fleet session, spread across
            // shards by the same id hash: pushing silence while the idle
            // half waits, they advance every shard's logical clock past
            // the idle threshold so the reaper provably visits the idle half.
            let pumps: Vec<u64> = ids.iter().map(|id| id + FLEET_SESSIONS as u64).collect();
            for &id in ids.iter().chain(&pumps) {
                must_enqueue(client, &Request::Open { session: id });
            }
            let (idle, busy): (Vec<u64>, Vec<u64>) = ids.iter().partition(|&&id| id % 2 == 1);
            let full = |id: u64| session(id).0.len();
            // The last whole-chunk boundary before the midpoint: mid-word,
            // and mid-stroke for most of the base audios.
            let pause = |id: u64| full(id) / 2 / CHUNK * CHUNK;
            let mut cursors = ids.iter().map(|&id| (id, 0)).collect();
            drive(client, &mut cursors, ids, pause, false);
            drive(client, &mut cursors, &busy, full, true);
            barrier.wait();

            let silence = vec![0.0f64; CHUNK];
            for _ in 0..PUMP_PUSHES {
                for &id in &pumps {
                    let samples = silence.clone();
                    must_enqueue(client, &Request::Push { session: id, samples });
                }
            }
            for &id in &pumps {
                must_enqueue(client, &Request::Finish { session: id });
            }
            barrier.wait();

            drive(client, &mut cursors, &idle, full, true);
            drain(client, ids, ids.len() + pumps.len())
        })
    });
    assert_fleet_transcripts(&transcripts);
    let m = server.shutdown().metrics;
    let idle_half = FLEET_SESSIONS as u64 / 2;
    assert!(
        m.sessions_suspended >= idle_half && m.sessions_resumed >= idle_half,
        "every idle session must be suspended and thawed: {} suspended, {} resumed, of {}",
        m.sessions_suspended,
        m.sessions_resumed,
        idle_half
    );
    assert_eq!(m.orphan_commands, 0);
    assert_eq!(store.sessions().expect("memory store list"), Vec::<u64>::new());
}

/// The lost-ack retry over the wire: a client that re-sends `Open` after
/// pushing (because it never saw the first ack) must keep the session's
/// in-flight DSP state — the final transcript still matches the
/// continuous oracle, and the re-open is counted.
#[test]
fn reopen_after_lost_ack_over_wire_keeps_state() {
    let server = start_server();
    let addr = server.local_addr();
    let mut client = WireClient::connect(addr).expect("loopback connect");
    let (audio, want) = &sessions()[0];
    let id = 77u64;

    must_enqueue(&mut client, &Request::Open { session: id });
    let half = (audio.len() / 2 / CHUNK) * CHUNK;
    for chunk in audio[..half].chunks(CHUNK) {
        must_enqueue(&mut client, &Request::Push { session: id, samples: chunk.to_vec() });
    }
    // The retry: the client never saw the first Open's ack and sends it
    // again. The server must treat it as a touch, not a reset.
    must_enqueue(&mut client, &Request::Open { session: id });
    for chunk in audio[half..].chunks(CHUNK) {
        must_enqueue(&mut client, &Request::Push { session: id, samples: chunk.to_vec() });
    }
    must_enqueue(&mut client, &Request::Finish { session: id });

    let mut rows: Vec<Row> = Vec::new();
    loop {
        match client.next_event().expect("event stream") {
            Response::Segment { session, start_frame, end_frame, classification } => {
                assert_eq!(session, id);
                let cls = classification.expect("no degradation configured");
                rows.push((start_frame, end_frame, cls.stroke, cls.scores));
            }
            Response::Finished { session } => {
                assert_eq!(session, id);
                break;
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(&rows, want, "re-open reset in-flight session state");
    drop(client);
    let report = server.shutdown();
    assert_eq!(report.metrics.sessions_reopened, 1);
    assert_eq!(report.metrics.sessions_opened, 1);
    assert_eq!(report.metrics.sessions_finished, 1);
}

/// Admission control propagates to the socket: opens past the session cap
/// come back as `Shedding` frames.
#[test]
fn shedding_verdict_propagates_over_wire() {
    let manager = SessionManager::new(
        engine().clone(),
        ServeConfig {
            shards: Parallelism::Threads(1),
            max_sessions: 2,
            high_water: 2,
            deadline_chunks: None,
            idle_timeout_samples: None,
            ..ServeConfig::default()
        },
    )
    .expect("valid serve config");
    let server = WireServer::bind("127.0.0.1:0", manager).expect("loopback bind");
    let mut client = WireClient::connect(server.local_addr()).expect("loopback connect");
    must_enqueue(&mut client, &Request::Open { session: 1 });
    must_enqueue(&mut client, &Request::Open { session: 2 });
    match client.request(&Request::Open { session: 3 }).expect("verdict") {
        Response::Shedding { session, .. } => assert_eq!(session, 3),
        other => panic!("expected Shedding, got {other:?}"),
    }
    drop(client);
    let report = server.shutdown();
    assert_eq!(report.metrics.sessions_shed, 1);
}

/// Wire trace correlation: every verdict echoes the client-assigned
/// request id, so client- and server-side traces stitch 1:1.
#[test]
fn verdicts_echo_client_assigned_request_ids() {
    let server = start_server();
    let mut client = WireClient::connect(server.local_addr()).expect("loopback connect");
    client.set_next_request_id(5_000);
    let sent = client.peek_next_request_id();
    let resp = client.request(&Request::Open { session: 31 }).expect("verdict");
    assert_eq!(resp.request_id(), Some(sent), "verdict must echo the request id");
    let resp = client
        .request_with_id(&Request::Push { session: 31, samples: vec![0.0; 64] }, 9_999)
        .expect("verdict");
    assert_eq!(resp.request_id(), Some(9_999));
    let resp = client.request(&Request::Finish { session: 31 }).expect("verdict");
    assert_eq!(resp.request_id(), Some(5_001), "auto ids advance by one per send");
    match client.next_event().expect("event stream") {
        Response::Finished { session } => {
            assert_eq!(session, 31);
        }
        other => panic!("unexpected event {other:?}"),
    }
    assert_eq!(
        Response::Finished { session: 31 }.request_id(),
        None,
        "event frames carry no request id"
    );
    drop(client);
    server.shutdown();
}

/// Garbage bytes close the connection and count as a malformed frame;
/// other connections keep working.
#[test]
fn malformed_bytes_close_only_their_connection() {
    let server = start_server();
    let addr = server.local_addr();

    let mut good = WireClient::connect(addr).expect("loopback connect");
    must_enqueue(&mut good, &Request::Open { session: 5 });

    let mut evil = std::net::TcpStream::connect(addr).expect("loopback connect");
    // A length prefix far past MAX_FRAME_LEN.
    evil.write_all(&u32::MAX.to_le_bytes()).expect("write garbage");
    evil.write_all(&[0u8; 16]).expect("write garbage");
    let mut sink = Vec::new();
    // The server closes the stream; read drains to EOF.
    let closed = evil.read_to_end(&mut sink);
    assert!(closed.map_or(true, |_| true));

    // The well-behaved connection is unaffected.
    must_enqueue(&mut good, &Request::Finish { session: 5 });
    match good.next_event().expect("event stream") {
        Response::Finished { session } => assert_eq!(session, 5),
        other => panic!("unexpected event {other:?}"),
    }
    drop(good);
    let report = server.shutdown();
    assert_eq!(report.metrics.wire_malformed_frames, 1);
    assert!(report.metrics.wire_connections >= 2);
}

/// Snapshot migration over the wire: a session exported mid-word from one
/// server imports into another (fresh manager, same engine config) and
/// finishes there with a transcript bitwise equal to the continuous
/// oracle — the `Export`/`Import` frames carry everything the session is.
#[test]
fn export_import_migrates_session_between_servers() {
    let (audio, want) = &sessions()[1];
    let id = 640u64;
    let half = (audio.len() / 2 / CHUNK) * CHUNK;

    let src = start_server();
    let mut src_client = WireClient::connect(src.local_addr()).expect("loopback connect");
    must_enqueue(&mut src_client, &Request::Open { session: id });
    for chunk in audio[..half].chunks(CHUNK) {
        must_enqueue(&mut src_client, &Request::Push { session: id, samples: chunk.to_vec() });
    }
    let snapshot = src_client.export(id).expect("export verdict").expect("live session");
    assert!(src_client.export(id).expect("export verdict").is_none(), "export removed it");
    // Events produced before the export still belong to the source server.
    let mut rows: Vec<Row> = Vec::new();
    while let Some(ev) = src_client.try_event() {
        if let Response::Segment { session, start_frame, end_frame, classification } = ev {
            assert_eq!(session, id);
            let cls = classification.expect("no degradation configured");
            rows.push((start_frame, end_frame, cls.stroke, cls.scores));
        }
    }
    drop(src_client);
    let src_report = src.shutdown();
    assert_eq!(src_report.metrics.sessions_live, 0, "export released the session");

    let dst = start_server();
    let mut dst_client = WireClient::connect(dst.local_addr()).expect("loopback connect");
    assert!(
        !dst_client.import(id, b"not a snapshot".to_vec()).expect("import verdict"),
        "garbage bytes must be refused"
    );
    assert!(dst_client.import(id, snapshot).expect("import verdict"), "snapshot imports");
    for chunk in audio[half..].chunks(CHUNK) {
        must_enqueue(&mut dst_client, &Request::Push { session: id, samples: chunk.to_vec() });
    }
    must_enqueue(&mut dst_client, &Request::Finish { session: id });
    loop {
        match dst_client.next_event().expect("event stream") {
            Response::Segment { session, start_frame, end_frame, classification } => {
                assert_eq!(session, id);
                let cls = classification.expect("no degradation configured");
                rows.push((start_frame, end_frame, cls.stroke, cls.scores));
            }
            Response::Finished { session } => {
                assert_eq!(session, id);
                break;
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(&rows, want, "migrated wire transcript diverged");
    drop(dst_client);
    let dst_report = dst.shutdown();
    assert_eq!(dst_report.metrics.sessions_resumed, 1);
    assert_eq!(dst_report.metrics.sessions_finished, 1);
    assert_eq!(dst_report.metrics.wire_malformed_frames, 0);
}

/// Shutdown with live connections neither hangs nor loses the report.
#[test]
fn shutdown_with_live_connections_is_clean() {
    let server = start_server();
    let addr = server.local_addr();
    let mut client = WireClient::connect(addr).expect("loopback connect");
    must_enqueue(&mut client, &Request::Open { session: 8 });
    // Client left open on purpose: shutdown must kick it off its socket.
    let report = server.shutdown();
    assert_eq!(report.metrics.sessions_opened, 1);
    assert!(client.next_event().is_err(), "socket must be closed by shutdown");
}
