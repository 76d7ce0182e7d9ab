//! The TCP listener both serving planes run on: the wire front-end
//! ([`crate::server::WireServer`]) and the `echowrite-obs` admin plane.
//!
//! One accept thread binds the socket and spawns one handler thread per
//! accepted connection. Every accepted socket gets `TCP_NODELAY`: verdict
//! and event frames are small writes that Nagle's algorithm would
//! otherwise hold back behind unacknowledged data. The listener keeps a
//! clone of each open socket so [`Listener::shutdown`] can kick parked
//! handlers off their blocking reads, and it joins finished handler
//! threads on every accept — an exited thread that is never joined keeps
//! its stack mapping, so without the reaping a long-lived server would
//! leak a thread stack per connection until the process runs out of
//! memory maps.

use std::collections::BTreeMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// State shared between the accept thread, handler threads, and shutdown.
struct Shared {
    /// Set once; the accept loop exits when it observes it.
    shutting_down: AtomicBool,
    /// conn id → socket of every connection whose handler is still
    /// running, so shutdown can unblock it.
    open: Mutex<BTreeMap<u64, TcpStream>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A bound TCP listener running `handler(stream, conn_id)` on its own
/// thread for every accepted connection. Connection ids count up from 0.
pub struct Listener {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The accept thread; it returns the handlers still unreaped when it
    /// exits.
    accept: JoinHandle<Vec<JoinHandle<()>>>,
}

impl Listener {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind<H>(addr: &str, handler: H) -> std::io::Result<Listener>
    where
        H: Fn(TcpStream, u64) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            shutting_down: AtomicBool::new(false),
            open: Mutex::new(BTreeMap::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared, &Arc::new(handler)))
        };
        Ok(Listener { addr, shared, accept })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, shuts down every open connection's socket, and
    /// joins every handler thread. On return no handler is running and
    /// the handler closure has been dropped.
    pub fn shutdown(self) {
        // ordering: Release pairs with the Acquire loads in the accept
        // loop — once it observes the flag it also observes everything
        // written before shutdown began.
        self.shared.shutting_down.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection; it checks
        // the flag before serving what it accepted.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            drop(stream);
        }
        let handlers = self.accept.join().unwrap_or_default();
        // The accept loop has exited, so no socket is added after this
        // kick.
        for stream in lock(&self.shared.open).values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for handler in handlers {
            let _ = handler.join();
        }
    }
}

// echolint: entry
fn accept_loop<H>(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handler: &Arc<H>,
) -> Vec<JoinHandle<()>>
where
    H: Fn(TcpStream, u64) + Send + Sync + 'static,
{
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_conn: u64 = 0;
    loop {
        let accepted = listener.accept();
        // ordering: Acquire pairs with the Release store in shutdown.
        if shared.shutting_down.load(Ordering::Acquire) {
            return handlers;
        }
        let Ok((stream, _)) = accepted else { continue };
        for finished in handlers.extract_if(.., |h| h.is_finished()) {
            let _ = finished.join();
        }
        let _ = stream.set_nodelay(true);
        let Ok(kick) = stream.try_clone() else { continue };
        let conn_id = next_conn;
        next_conn += 1;
        lock(&shared.open).insert(conn_id, kick);
        let shared = Arc::clone(shared);
        let handler = Arc::clone(handler);
        handlers.push(std::thread::spawn(move || {
            handler(stream, conn_id);
            lock(&shared.open).remove(&conn_id);
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Server-side `TCP_NODELAY`: the handler's stream already has it set.
    #[test]
    fn handler_streams_have_nodelay() {
        let (tx, rx) = mpsc::channel();
        let listener = Listener::bind("127.0.0.1:0", move |stream, _| {
            let _ = tx.send(stream.nodelay().ok());
        })
        .expect("bind");
        let _client = TcpStream::connect(listener.local_addr()).expect("connect");
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(Some(true)));
        listener.shutdown();
    }
}
