//! Thread-per-connection TCP server over a [`SessionManager`].
//!
//! Threads (all plain `std::thread`, no runtime):
//!
//! - **accept** — the shared [`Listener`]: binds, accepts, and runs one
//!   connection handler per socket, reaping handlers as they finish.
//! - **reader** (per connection, the handler) — reads raw bytes into a
//!   [`FrameDecoder`], submits each decoded request to the shared
//!   manager, and forwards the [`SubmitVerdict`] to the connection's
//!   writer — so verdicts leave the socket in request order. It spawns
//!   its writer and joins it before the connection ends.
//! - **writer** (per connection) — drains a bounded response channel and
//!   writes encoded frames to the socket. The bounded channel is the
//!   backpressure boundary: a slow socket fills it, producers fall back
//!   from `try_send` to a blocking send, and every such fallback counts
//!   as a write stall.
//! - **router** — owns the manager's detached [`EventStream`] and routes
//!   `Segment`/`Finished`/`Reaped` events to whichever connection opened
//!   the session (last opener wins on cross-connection id reuse). The
//!   router deliberately holds **no** reference to the manager, only to
//!   its metric registry, so [`WireServer::shutdown`] can reclaim sole
//!   ownership and shut the manager down — which disconnects the event
//!   stream and ends the router.
//!
//! A malformed byte stream (bad length, unknown kind, grammar mismatch)
//! closes its connection: a desynced length-prefixed stream cannot be
//! re-synchronized, so the server never guesses.
//!
//! [`SubmitVerdict`]: echowrite_serve::SubmitVerdict

use crate::frame::{FrameDecoder, Request as WireRequest, Response};
use crate::listener::Listener;
use echowrite_profile::Stopwatch;
use echowrite_serve::{
    EventStream, FlightReason, Request, ServeMetrics, SessionId, SessionManager, ShutdownReport,
};
use echowrite_trace::{SmallStr, Stage, TICK_UNSET};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Response frames buffered per connection before producers stall.
const WRITE_QUEUE: usize = 256;
/// Socket read buffer size.
const READ_BUF: usize = 64 * 1024;

/// session id → (conn id, response channel) of the connection that
/// opened it; shared by the connection handlers and the router.
type Registry = Mutex<BTreeMap<u64, (u64, SyncSender<Response>)>>;

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sends a response to a connection's writer, falling back from
/// `try_send` to a blocking send (counted as a write stall) when the
/// bounded queue is full. Returns `false` when the writer is gone
/// (connection closed).
fn send_counted(tx: &SyncSender<Response>, resp: Response, metrics: &ServeMetrics) -> bool {
    match tx.try_send(resp) {
        Ok(()) => true,
        Err(TrySendError::Disconnected(_)) => false,
        Err(TrySendError::Full(resp)) => {
            metrics.wire_write_stalls.inc();
            tx.send(resp).is_ok()
        }
    }
}

/// A TCP front-end over one [`SessionManager`], serving the frame grammar
/// of [`crate::frame`] on a loopback or LAN socket with only `std::net`.
pub struct WireServer {
    manager: Arc<SessionManager>,
    listener: Listener,
    router: JoinHandle<()>,
}

impl WireServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port)
    /// and starts serving `manager`.
    ///
    /// # Errors
    ///
    /// Socket bind failures, and a manager whose event stream was already
    /// detached (the server must own event routing).
    pub fn bind(addr: &str, manager: SessionManager) -> std::io::Result<WireServer> {
        let Some(events) = manager.detach_events() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "manager event stream already detached",
            ));
        };
        let manager = Arc::new(manager);
        let registry: Arc<Registry> = Arc::new(Mutex::new(BTreeMap::new()));
        let listener = {
            let manager = Arc::clone(&manager);
            let registry = Arc::clone(&registry);
            Listener::bind(addr, move |stream, conn_id| {
                serve_conn(stream, conn_id, &manager, &registry);
            })?
        };
        let router = {
            let metrics = manager.metrics_handle();
            std::thread::spawn(move || route_events(&events, &registry, &metrics))
        };
        Ok(WireServer { manager, listener, router })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The underlying manager's metrics (includes the `wire_*` counters).
    pub fn metrics(&self) -> &ServeMetrics {
        self.manager.metrics()
    }

    /// A weak handle to the underlying manager, for side-car planes such
    /// as `echowrite-obs` that must observe the manager without keeping it
    /// alive — [`WireServer::shutdown`] reclaims sole ownership via
    /// `Arc::try_unwrap`, which a strong clone would defeat.
    pub fn manager_handle(&self) -> std::sync::Weak<SessionManager> {
        Arc::downgrade(&self.manager)
    }

    /// Stops accepting, closes every connection, shuts the manager down,
    /// and returns its [`ShutdownReport`]. Idempotent with respect to
    /// clients: connections in flight observe a closed socket.
    pub fn shutdown(self) -> ShutdownReport {
        let WireServer { manager, listener, router } = self;
        // Joins every connection handler (each joins its own writer) and
        // drops the handler closure with its manager clone.
        listener.shutdown();
        // The router never had a manager reference, so this is the sole
        // remaining handle.
        let report = match Arc::try_unwrap(manager) {
            Ok(manager) => manager.shutdown(),
            // Unreachable after the joins above; return an empty report
            // rather than panicking in a shutdown path.
            Err(still_shared) => ShutdownReport {
                metrics: still_shared.metrics().snapshot(),
                events: Vec::new(),
            },
        };
        // Manager shutdown dropped the event senders, so the router's
        // stream has disconnected and the router has exited.
        let _ = router.join();
        report
    }
}

/// One connection: counts it, runs the writer on a scoped thread and the
/// reader on this one, and returns once both have finished.
// echolint: entry
fn serve_conn(stream: TcpStream, conn_id: u64, manager: &SessionManager, registry: &Registry) {
    let metrics = manager.metrics();
    metrics.wire_connections.inc();
    if echowrite_trace::enabled() {
        echowrite_trace::instant(
            Stage::Wire,
            "conn_accept",
            TICK_UNSET,
            SmallStr::from_display(conn_id),
        );
    }
    let Ok(write_half) = stream.try_clone() else { return };
    let (tx, rx) = sync_channel::<Response>(WRITE_QUEUE);
    std::thread::scope(|scope| {
        scope.spawn(move || write_loop(write_half, &rx, metrics));
        // The reader owns `tx`; dropping it at the end of the read loop
        // (after the registry is clean) disconnects the writer.
        read_loop(stream, conn_id, tx, manager, registry);
    });
}

/// The per-connection read half: socket bytes → frames → manager
/// submissions → verdict frames back through `tx`.
// echolint: entry
fn read_loop(
    mut stream: TcpStream,
    conn_id: u64,
    tx: SyncSender<Response>,
    manager: &SessionManager,
    registry: &Registry,
) {
    let metrics = manager.metrics();
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; READ_BUF];
    // Sessions this connection opened, for registry cleanup at close.
    let mut owned: BTreeSet<u64> = BTreeSet::new();
    'conn: loop {
        let timer = Stopwatch::start();
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break 'conn,
            Ok(n) => n,
        };
        let Some(bytes) = buf.get(..n) else { break 'conn };
        decoder.extend(bytes);
        if echowrite_trace::enabled() {
            echowrite_trace::span(
                Stage::Wire,
                "conn_read",
                TICK_UNSET,
                (timer.elapsed_ms() * 1_000.0) as u64,
                n as f64,
            );
        }
        loop {
            let decode_timer = Stopwatch::start();
            let (request_id, req) = match decoder.next_request() {
                Ok(Some(req)) => req,
                Ok(None) => break,
                Err(err) => {
                    metrics.wire_malformed_frames.inc();
                    // A malformed frame is a flight-recorder anomaly: dump
                    // the recent-event rings for the postmortem.
                    manager.trigger_flight_dump(FlightReason::MalformedFrame);
                    if echowrite_trace::enabled() {
                        echowrite_trace::instant(
                            Stage::Wire,
                            "frame_malformed",
                            TICK_UNSET,
                            SmallStr::from_display(format_args!("conn {conn_id}: {err}")),
                        );
                    }
                    break 'conn;
                }
            };
            metrics.wire_frames_read.inc();
            if echowrite_trace::enabled() {
                echowrite_trace::span(
                    Stage::Wire,
                    "frame_decode",
                    TICK_UNSET,
                    (decode_timer.elapsed_ms() * 1_000.0) as u64,
                    1.0,
                );
            }
            let session = req.session();
            if matches!(req, WireRequest::Open { .. } | WireRequest::Import { .. }) {
                // Register before submitting: events for this session may
                // arrive as soon as the shard processes the open (an
                // imported session emits events the same way).
                owned.insert(session);
                lock(registry).insert(session, (conn_id, tx.clone()));
            }
            let response = match req {
                WireRequest::Open { .. } => Response::from_verdict(
                    request_id,
                    session,
                    manager.submit_tagged(Request::Open(SessionId(session)), request_id),
                ),
                WireRequest::Push { ref samples, .. } => Response::from_verdict(
                    request_id,
                    session,
                    manager.submit_tagged(Request::Push(SessionId(session), samples), request_id),
                ),
                WireRequest::Finish { .. } => Response::from_verdict(
                    request_id,
                    session,
                    manager.submit_tagged(Request::Finish(SessionId(session)), request_id),
                ),
                // Export/Import block this connection's reader until the
                // owning shard processes them — the snapshot must reflect
                // every previously enqueued push — without stalling any
                // other connection.
                WireRequest::Export { .. } => Response::Exported {
                    request_id,
                    session,
                    snapshot: manager.export_session(SessionId(session)),
                },
                WireRequest::Import { snapshot, .. } => Response::Imported {
                    request_id,
                    session,
                    ok: manager.import_session(SessionId(session), snapshot),
                },
            };
            if !send_counted(&tx, response, metrics) {
                break 'conn;
            }
        }
    }
    let mut registry = lock(registry);
    for session in owned {
        // Only remove entries still pointing at this connection — a
        // reconnecting client may have re-registered the session already.
        if registry.get(&session).is_some_and(|(owner, _)| *owner == conn_id) {
            registry.remove(&session);
        }
    }
}

/// The per-connection write half: response channel → encoded frames →
/// socket.
// echolint: entry
fn write_loop(mut stream: TcpStream, rx: &Receiver<Response>, metrics: &ServeMetrics) {
    let mut out = Vec::with_capacity(4096);
    while let Ok(resp) = rx.recv() {
        let timer = Stopwatch::start();
        out.clear();
        crate::frame::encode_response(&mut out, &resp);
        if stream.write_all(&out).is_err() {
            return;
        }
        metrics.wire_frames_written.inc();
        if echowrite_trace::enabled() {
            echowrite_trace::span(
                Stage::Wire,
                "frame_write",
                TICK_UNSET,
                (timer.elapsed_ms() * 1_000.0) as u64,
                out.len() as f64,
            );
        }
    }
    let _ = stream.flush();
}

/// The event router: serve events → the owning connection's writer. Holds
/// no manager reference — exits when the manager's shutdown disconnects
/// the stream.
// echolint: entry
fn route_events(events: &EventStream, registry: &Registry, metrics: &ServeMetrics) {
    while let Some(event) = events.recv() {
        let resp = Response::from_event(event);
        let session = resp.session().0;
        let Some((_, tx)) = lock(registry).get(&session).cloned() else {
            metrics.wire_orphan_events.inc();
            continue;
        };
        let _ = send_counted(&tx, resp, metrics);
    }
}
