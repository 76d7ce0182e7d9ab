//! A blocking TCP client for the wire protocol — used by the loopback,
//! admin-plane and stitched-trace tests and by the demo.
//!
//! The client is deliberately thin: one socket, one [`FrameDecoder`], no
//! threads. Callers choose their own concurrency (the loopback fleet test
//! multiplexes many sessions over one client per connection).

use crate::frame::{encode_request, FrameDecoder, FrameError, Request, Response};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed or closed mid-frame.
    Io(std::io::Error),
    /// The server sent bytes violating the frame grammar.
    Frame(FrameError),
    /// The server closed the connection cleanly between frames.
    Closed,
    /// A verdict frame arrived when no request was outstanding.
    UnexpectedVerdict,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Frame(e) => write!(f, "protocol error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::UnexpectedVerdict => {
                write!(f, "verdict frame arrived with no request outstanding")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A blocking wire-protocol client over one TCP connection.
pub struct WireClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Event frames received while waiting for a verdict; drained by
    /// [`WireClient::next_event`] / [`WireClient::try_event`].
    buffered_events: VecDeque<Response>,
    /// The next auto-assigned correlation id (see
    /// [`WireClient::set_next_request_id`]).
    next_request_id: u64,
}

impl WireClient {
    /// Connects to a [`crate::server::WireServer`] at `addr`.
    ///
    /// # Errors
    ///
    /// Socket connect failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient {
            stream,
            decoder: FrameDecoder::new(),
            read_buf: vec![0u8; 64 * 1024],
            write_buf: Vec::with_capacity(4096),
            buffered_events: VecDeque::new(),
            next_request_id: 1,
        })
    }

    /// Overrides the next auto-assigned correlation id. Ids are client
    /// chosen and only echoed by the server, so callers multiplexing many
    /// connections can carve out disjoint ranges per connection to keep
    /// ids globally unique across a run.
    pub fn set_next_request_id(&mut self, id: u64) {
        self.next_request_id = id;
    }

    /// The correlation id the next request frame will carry.
    pub fn peek_next_request_id(&self) -> u64 {
        self.next_request_id
    }

    /// Sends one request frame without waiting for anything back
    /// (pipelining building block). Returns the auto-assigned correlation
    /// id the frame carried; the answering verdict echoes it.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send(&mut self, request: &Request) -> std::io::Result<u64> {
        let id = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1);
        self.send_with_id(request, id)?;
        Ok(id)
    }

    /// Sends one request frame under an explicit correlation id.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send_with_id(&mut self, request: &Request, request_id: u64) -> std::io::Result<()> {
        self.write_buf.clear();
        encode_request(&mut self.write_buf, request, request_id);
        self.stream.write_all(&self.write_buf)
    }

    /// Receives the next frame of any kind, blocking until one decodes.
    /// Buffered events are returned first, in arrival order.
    ///
    /// # Errors
    ///
    /// Socket failures, grammar violations, or a clean server close.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        if let Some(ev) = self.buffered_events.pop_front() {
            return Ok(ev);
        }
        self.recv_from_wire()
    }

    /// Receives the next frame directly off the wire, ignoring the
    /// buffered-event queue.
    fn recv_from_wire(&mut self) -> Result<Response, ClientError> {
        loop {
            if let Some(resp) = self.decoder.next_response()? {
                return Ok(resp);
            }
            let n = self.stream.read(&mut self.read_buf)?;
            if n == 0 {
                return Err(ClientError::Closed);
            }
            let Some(bytes) = self.read_buf.get(..n) else {
                return Err(ClientError::Closed);
            };
            self.decoder.extend(bytes);
        }
    }

    /// Sends `request` and blocks until its verdict frame arrives,
    /// buffering any event frames that land in between. The server
    /// guarantees verdicts come back in request order, so with one
    /// request outstanding the next verdict is this request's.
    ///
    /// # Errors
    ///
    /// Socket failures, grammar violations, or a clean server close.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        loop {
            let resp = self.recv_from_wire()?;
            if resp.is_verdict() {
                return Ok(resp);
            }
            self.buffered_events.push_back(resp);
        }
    }

    /// Like [`WireClient::request`] but under an explicit correlation id.
    ///
    /// # Errors
    ///
    /// Socket failures, grammar violations, or a clean server close.
    pub fn request_with_id(
        &mut self,
        request: &Request,
        request_id: u64,
    ) -> Result<Response, ClientError> {
        self.send_with_id(request, request_id)?;
        loop {
            let resp = self.recv_from_wire()?;
            if resp.is_verdict() {
                return Ok(resp);
            }
            self.buffered_events.push_back(resp);
        }
    }

    /// Blocks until the next *event* frame (`Segment`/`Finished`/
    /// `Reaped`), draining the buffer first.
    ///
    /// # Errors
    ///
    /// Socket failures, grammar violations, a clean server close, or a
    /// verdict frame arriving while no request is outstanding.
    pub fn next_event(&mut self) -> Result<Response, ClientError> {
        if let Some(ev) = self.buffered_events.pop_front() {
            return Ok(ev);
        }
        let resp = self.recv_from_wire()?;
        if resp.is_verdict() {
            return Err(ClientError::UnexpectedVerdict);
        }
        Ok(resp)
    }

    /// Pops a buffered event without touching the socket.
    pub fn try_event(&mut self) -> Option<Response> {
        self.buffered_events.pop_front()
    }

    /// Exports `session` off the server: the session is removed there and
    /// its `echowrite-snapshot` checkpoint returned, `None` for an
    /// unknown id. Events arriving while waiting are buffered as usual.
    ///
    /// # Errors
    ///
    /// Socket failures, grammar violations, a clean server close, or a
    /// non-`Exported` verdict answering the request.
    pub fn export(&mut self, session: u64) -> Result<Option<Vec<u8>>, ClientError> {
        match self.request(&Request::Export { session })? {
            Response::Exported { snapshot, .. } => Ok(snapshot),
            _ => Err(ClientError::UnexpectedVerdict),
        }
    }

    /// Installs an exported checkpoint under `session` on the server,
    /// returning whether it stuck (see [`Response::Imported`]).
    ///
    /// # Errors
    ///
    /// Socket failures, grammar violations, a clean server close, or a
    /// non-`Imported` verdict answering the request.
    pub fn import(&mut self, session: u64, snapshot: Vec<u8>) -> Result<bool, ClientError> {
        match self.request(&Request::Import { session, snapshot })? {
            Response::Imported { ok, .. } => Ok(ok),
            _ => Err(ClientError::UnexpectedVerdict),
        }
    }

    /// Half-closes the write side, telling the server this client is done
    /// sending (the server keeps streaming events until the client drops).
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn finish_writes(&mut self) -> std::io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }
}
