//! A pipelined wire client split into its two halves, so one thread can
//! send on schedule while another timestamps every frame that comes back.
//! Built only from `echowrite-wire`'s public frame codec.

use echowrite_wire::{encode_request, FrameDecoder, Request, Response};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A span recorded by the benchmark around one call into a layer:
/// `(name, wire request id, start µs since the run began, duration µs)`.
pub type Span = (&'static str, u64, u64, u64);

/// The sending half: encodes into a reused buffer and writes whole frames.
pub struct FrameWriter {
    stream: TcpStream,
    buf: Vec<u8>,
    push: Request,
}

impl FrameWriter {
    /// Sends `req` under correlation id `id`; returns the nanoseconds spent
    /// encoding.
    pub fn send(&mut self, req: &Request, id: u64) -> std::io::Result<u64> {
        let t = Instant::now();
        self.buf.clear();
        encode_request(&mut self.buf, req, id);
        let encode_ns = t.elapsed().as_nanos() as u64;
        self.stream.write_all(&self.buf)?;
        Ok(encode_ns)
    }

    /// Sends one audio chunk without allocating a fresh request.
    pub fn send_push(&mut self, session: u64, chunk: &[f64], id: u64) -> std::io::Result<u64> {
        let mut req = std::mem::replace(&mut self.push, Request::Finish { session: 0 });
        if let Request::Push {
            session: s,
            samples,
        } = &mut req
        {
            *s = session;
            samples.clear();
            samples.extend_from_slice(chunk);
        }
        let out = self.send(&req, id);
        self.push = req;
        out
    }
}

/// The receiving half.
pub struct FrameReader {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl FrameReader {
    /// Blocks until at least one frame decodes or the read timeout passes;
    /// appends every decoded frame to `out` and returns when the bytes
    /// arrived (`None` on timeout).
    pub fn read_frames(&mut self, out: &mut Vec<Response>) -> Result<Option<Instant>, String> {
        loop {
            match self.decoder.next_response() {
                Ok(Some(resp)) => {
                    out.push(resp);
                    while let Ok(Some(resp)) = self.decoder.next_response() {
                        out.push(resp);
                    }
                    return Ok(Some(Instant::now()));
                }
                Ok(None) => {}
                Err(e) => return Err(format!("malformed response: {e}")),
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.decoder.extend(&self.buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

/// Connects and splits the socket. Reads time out every 100 ms so the
/// receiving thread can notice the end of a run.
pub fn connect(addr: SocketAddr) -> std::io::Result<(FrameWriter, FrameReader)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let read = stream.try_clone()?;
    Ok((
        FrameWriter {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            push: Request::Push {
                session: 0,
                samples: Vec::new(),
            },
        },
        FrameReader {
            stream: read,
            decoder: FrameDecoder::new(),
            buf: vec![0u8; 64 * 1024],
        },
    ))
}

/// An HTTP GET against the admin plane, polled without blocking so a slow
/// endpoint never holds up the schedule of the thread that issued it.
pub struct Scrape {
    path: &'static str,
    stream: TcpStream,
    started: Instant,
    response: Vec<u8>,
}

impl Scrape {
    pub fn start(addr: SocketAddr, path: &'static str) -> Result<Scrape, String> {
        let started = Instant::now();
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
            .and_then(|()| stream.set_nonblocking(true))
            .map_err(|e| format!("GET {path}: {e}"))?;
        Ok(Scrape {
            path,
            stream,
            started,
            response: Vec::new(),
        })
    }

    /// The request's duration in ms once the server has sent the whole
    /// response (it closes the connection), `None` while it has not.
    pub fn poll(&mut self) -> Result<Option<f64>, String> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => self.response.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(format!("read {}: {e}", self.path)),
            }
        }
        let ms = self.started.elapsed().as_secs_f64() * 1e3;
        if !self.response.starts_with(b"HTTP/1.1 200") {
            return Err(format!("{}: not 200 OK", self.path));
        }
        Ok(Some(ms))
    }

    /// Blocks until the response is complete.
    pub fn wait(mut self) -> Result<f64, String> {
        self.stream
            .set_nonblocking(false)
            .map_err(|e| format!("{}: {e}", self.path))?;
        self.poll().map(|ms| ms.unwrap_or_default())
    }
}

/// Writes recorded spans as a Chrome trace in the `echowrite_bench::stitch`
/// client format, so a server flight dump can be stitched onto it.
pub fn write_trace(path: &std::path::Path, spans: &mut [Span]) -> std::io::Result<()> {
    spans.sort_by_key(|s| (s.2, s.1));
    let mut trace = echowrite_bench::stitch::ClientTrace::new();
    for &(name, id, ts, dur) in spans.iter() {
        trace.span(name, id, ts, dur);
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, trace.to_chrome_json())
}
