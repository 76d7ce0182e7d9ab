//! The admin HTTP server: one request per connection (`Connection:
//! close`) on the listener it shares with the wire front-end
//! ([`echowrite_wire::Listener`]), observing a
//! [`SessionManager`] through a [`Weak`] handle so the plane never keeps
//! the serving layer alive — `WireServer::shutdown` still reclaims sole
//! ownership, and every manager-backed endpoint degrades to `503` once
//! the manager is gone.
//!
//! Endpoints (DESIGN.md §6.11):
//!
//! | route                  | method | body                                    |
//! |------------------------|--------|-----------------------------------------|
//! | `/metrics`             | GET    | Prometheus text exposition              |
//! | `/healthz`             | GET    | process liveness (always `200` while up)|
//! | `/readyz`              | GET    | `503` while shedding, while a shard     |
//! |                        |        | worker has exited, or shutting down     |
//! | `/sessions`            | GET    | live + suspended session table, JSON    |
//! | `/trace/start`         | POST   | install the global recording sink       |
//! | `/trace/stop`          | POST   | gate off, keep the sink for dumping     |
//! | `/trace/dump`          | GET    | Chrome-trace JSON of the recording      |
//! | `/flight`              | GET    | all shards' flight rings, Chrome-trace  |
//! | `/flight/{session}`    | GET    | one session's flight entries            |

use crate::http::{self, HttpRequest, Method, RequestError};
use echowrite_serve::{flight_to_chrome_json, SessionInfo, SessionManager};
use echowrite_trace::RecordingSink;
use echowrite_wire::Listener;
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, Weak};

/// Capacity of the recording sink installed by `POST /trace/start`.
const TRACE_CAPACITY: usize = 65_536;
/// Content type for Prometheus text exposition.
const PROM_TYPE: &str = "text/plain; version=0.0.4";
/// Content type for JSON bodies.
const JSON_TYPE: &str = "application/json";
/// Content type for plain-text bodies.
const TEXT_TYPE: &str = "text/plain";

/// The on-demand tracing state machine driven by `/trace/*`.
enum TraceState {
    /// Never started (or never restarted after a dump): nothing to dump.
    Off,
    /// The global gate is on and this sink is installed.
    Recording(Arc<RecordingSink>),
    /// The gate is off again; the sink is retained for `/trace/dump`.
    Stopped(Arc<RecordingSink>),
}

/// State shared by the connection handlers.
struct Shared {
    manager: Weak<SessionManager>,
    trace: Mutex<TraceState>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The admin plane: binds beside the wire listener and serves live
/// introspection over plain HTTP/1.1 with only `std::net`.
pub struct ObsServer {
    listener: Listener,
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer").field("addr", &self.local_addr()).finish_non_exhaustive()
    }
}

impl ObsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving the admin endpoints over `manager`. Pass the handle
    /// from `WireServer::manager_handle`, or `Arc::downgrade` of a
    /// manager you own.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(addr: &str, manager: Weak<SessionManager>) -> std::io::Result<ObsServer> {
        let shared = Arc::new(Shared { manager, trace: Mutex::new(TraceState::Off) });
        let listener = Listener::bind(addr, move |stream, _| serve_conn(stream, &shared))?;
        Ok(ObsServer { listener })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops accepting, closes in-flight admin connections, and joins
    /// every handler thread. Does not touch the manager — the admin
    /// plane only ever observed it.
    pub fn shutdown(self) {
        self.listener.shutdown();
    }
}

/// Serves exactly one request on `stream`, then closes it. A malformed
/// request answers `400` and terminates *this* connection only — the
/// fuzz tests pin that isolation down.
// echolint: entry
fn serve_conn(mut stream: TcpStream, shared: &Shared) {
    let (status, content_type, body) = match http::read_request(&mut stream) {
        Ok(request) => {
            if let Some(manager) = shared.manager.upgrade() {
                manager.metrics().obs_requests.inc();
            }
            route(shared, &request)
        }
        Err(RequestError::Disconnected) => {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        Err(RequestError::Malformed(why)) => {
            if let Some(manager) = shared.manager.upgrade() {
                manager.metrics().obs_malformed_requests.inc();
            }
            (400, TEXT_TYPE, format!("malformed request: {why}\n"))
        }
    };
    let mut out = Vec::with_capacity(body.len() + 128);
    http::encode_response(&mut out, status, content_type, body.as_bytes());
    let _ = stream.write_all(&out);
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Maps one parsed request to `(status, content type, body)`.
fn route(shared: &Shared, request: &HttpRequest) -> (u16, &'static str, String) {
    let manager = shared.manager.upgrade();
    match (request.method, request.path.as_str()) {
        (Method::Get, "/metrics") => match manager {
            Some(m) => (200, PROM_TYPE, m.metrics().to_prometheus()),
            None => (503, TEXT_TYPE, "manager has shut down\n".to_string()),
        },
        // Liveness is about this process: while the plane answers at
        // all, it answers 200 — readiness is the manager-state probe.
        (Method::Get, "/healthz") => (200, TEXT_TYPE, "ok\n".to_string()),
        (Method::Get, "/readyz") => match manager {
            Some(m) if m.dead_shards() > 0 => (503, TEXT_TYPE, "shard worker exited\n".to_string()),
            Some(m) if m.is_shedding() => (503, TEXT_TYPE, "shedding\n".to_string()),
            Some(_) => (200, TEXT_TYPE, "ready\n".to_string()),
            None => (503, TEXT_TYPE, "manager has shut down\n".to_string()),
        },
        (Method::Get, "/sessions") => match manager {
            Some(m) => (200, JSON_TYPE, sessions_json(&m.introspect())),
            None => (503, TEXT_TYPE, "manager has shut down\n".to_string()),
        },
        (Method::Post, "/trace/start") => {
            let mut trace = lock(&shared.trace);
            match &*trace {
                TraceState::Recording(_) => {
                    (409, TEXT_TYPE, "already recording\n".to_string())
                }
                TraceState::Off | TraceState::Stopped(_) => {
                    *trace = TraceState::Recording(echowrite_trace::install_recording(
                        TRACE_CAPACITY,
                    ));
                    (200, TEXT_TYPE, "recording\n".to_string())
                }
            }
        }
        (Method::Post, "/trace/stop") => {
            let mut trace = lock(&shared.trace);
            match std::mem::replace(&mut *trace, TraceState::Off) {
                TraceState::Recording(sink) => {
                    echowrite_trace::disable();
                    *trace = TraceState::Stopped(sink);
                    (200, TEXT_TYPE, "stopped\n".to_string())
                }
                prev => {
                    *trace = prev;
                    (409, TEXT_TYPE, "not recording\n".to_string())
                }
            }
        }
        (Method::Get, "/trace/dump") => match &*lock(&shared.trace) {
            TraceState::Recording(sink) | TraceState::Stopped(sink) => {
                (200, JSON_TYPE, sink.to_chrome_json())
            }
            TraceState::Off => (404, TEXT_TYPE, "no recording; POST /trace/start\n".to_string()),
        },
        (Method::Get, "/flight") => match manager {
            Some(m) => (200, JSON_TYPE, flight_to_chrome_json(&m.flight_snapshot(None))),
            None => (503, TEXT_TYPE, "manager has shut down\n".to_string()),
        },
        (Method::Get, path) if path.starts_with("/flight/") => {
            let id = path.strip_prefix("/flight/").unwrap_or_default();
            match (id.parse::<u64>(), manager) {
                (Ok(session), Some(m)) => {
                    (200, JSON_TYPE, flight_to_chrome_json(&m.flight_snapshot(Some(session))))
                }
                (Ok(_), None) => (503, TEXT_TYPE, "manager has shut down\n".to_string()),
                (Err(_), _) => (400, TEXT_TYPE, "session id must be a u64\n".to_string()),
            }
        }
        (Method::Post, _) => (405, TEXT_TYPE, "POST is for /trace/start|stop\n".to_string()),
        (Method::Get, _) => (404, TEXT_TYPE, "unknown admin endpoint\n".to_string()),
    }
}

/// Renders the session table as a stable JSON array: fixed key order,
/// rows sorted by session id (the manager already sorts), no floats.
fn sessions_json(rows: &[SessionInfo]) -> String {
    let mut out = String::with_capacity(rows.len() * 96 + 2);
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"session\":{},\"shard\":{},\"samples_in\":{},\"backlog\":{},\
             \"suspended\":{},\"last_active_tick_us\":{}}}",
            row.session,
            row.shard,
            row.samples_in,
            row.backlog,
            row.suspended,
            row.last_active_tick_us
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_table_renders_stable_json() {
        let rows = vec![
            SessionInfo {
                session: 3,
                shard: 0,
                samples_in: 8192,
                backlog: 2,
                suspended: false,
                last_active_tick_us: 185_759,
            },
            SessionInfo {
                session: 9,
                shard: 1,
                samples_in: 0,
                backlog: 0,
                suspended: true,
                last_active_tick_us: 0,
            },
        ];
        assert_eq!(
            sessions_json(&rows),
            "[{\"session\":3,\"shard\":0,\"samples_in\":8192,\"backlog\":2,\
             \"suspended\":false,\"last_active_tick_us\":185759},\
             {\"session\":9,\"shard\":1,\"samples_in\":0,\"backlog\":0,\
             \"suspended\":true,\"last_active_tick_us\":0}]"
        );
        assert_eq!(sessions_json(&[]), "[]");
    }
}
