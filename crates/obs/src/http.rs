//! A deliberately tiny HTTP/1.1 subset — exactly what an admin plane
//! needs and nothing more: parse one request head, discard a bounded
//! body, write one `Connection: close` response. No keep-alive, no
//! chunked encoding, no TLS; the server closes the socket after every
//! response, so the connection lifecycle is the response framing.
//!
//! Grammar violations are *terminal per connection*: a desynced byte
//! stream cannot be trusted for a second request, so the caller answers
//! `400` (when the line was readable at all) and closes — other
//! connections are unaffected, which the fuzz tests pin down.

use std::io::Read;

/// Maximum bytes of request head (request line + headers) accepted.
pub const MAX_HEAD: usize = 8 * 1024;
/// Maximum request body accepted (bodies are read and discarded).
pub const MAX_BODY: usize = 64 * 1024;

/// The request methods the admin plane serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read-only endpoints.
    Get,
    /// State-changing endpoints (trace start/stop).
    Post,
}

/// One parsed request: the method and the path with any query stripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method.
    pub method: Method,
    /// Absolute path, query string removed.
    pub path: String,
}

/// Why a request could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// The peer closed (or errored) before a full head arrived. Not a
    /// protocol violation — browsers probe and hang up — so it is not
    /// counted as malformed.
    Disconnected,
    /// The bytes violate the HTTP grammar this subset accepts; the
    /// payload names the first violated rule.
    Malformed(&'static str),
}

/// Reads and parses one request from `stream`, then discards any
/// `Content-Length` body so a subsequent response is not interleaved
/// with unread input.
///
/// # Errors
///
/// [`RequestError::Disconnected`] on EOF/IO before a full head,
/// [`RequestError::Malformed`] on grammar violations (oversized head or
/// body included — a peer that overruns the bounds is indistinguishable
/// from a hostile one).
pub fn read_request(stream: &mut impl Read) -> Result<HttpRequest, RequestError> {
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    // Byte-at-a-time until the blank line: the head is tiny and arrives
    // in one segment in practice; simplicity beats a lookahead buffer
    // that would have to be pushed back before the body.
    let end = loop {
        match stream.read(&mut byte) {
            Ok(0) | Err(_) => return Err(RequestError::Disconnected),
            Ok(_) => head.extend_from_slice(&byte),
        }
        if head.ends_with(b"\r\n\r\n") {
            break head.len();
        }
        if head.len() >= MAX_HEAD {
            return Err(RequestError::Malformed("request head exceeds 8 KiB"));
        }
    };
    let Ok(text) = std::str::from_utf8(head.get(..end).unwrap_or_default()) else {
        return Err(RequestError::Malformed("request head is not UTF-8"));
    };
    let (request, content_length) = parse_head(text)?;
    if content_length > MAX_BODY {
        return Err(RequestError::Malformed("request body exceeds 64 KiB"));
    }
    // Drain the body so the response does not race unread input through
    // the socket's buffers.
    let mut remaining = content_length;
    let mut chunk = [0u8; 1024];
    while remaining > 0 {
        let want = remaining.min(chunk.len());
        let Some(buf) = chunk.get_mut(..want) else { break };
        match stream.read(buf) {
            Ok(0) | Err(_) => return Err(RequestError::Disconnected),
            Ok(n) => remaining = remaining.saturating_sub(n),
        }
    }
    Ok(request)
}

/// Parses a complete request head (terminated by the blank line) into
/// the request plus the declared `Content-Length` (0 when absent).
///
/// # Errors
///
/// [`RequestError::Malformed`] naming the first violated grammar rule.
pub fn parse_head(head: &str) -> Result<(HttpRequest, usize), RequestError> {
    let mut lines = head.split("\r\n");
    let request_line = match lines.next() {
        Some(line) if !line.is_empty() => line,
        _ => return Err(RequestError::Malformed("empty request line")),
    };
    let mut parts = request_line.split(' ');
    let method = match parts.next() {
        Some("GET") => Method::Get,
        Some("POST") => Method::Post,
        _ => return Err(RequestError::Malformed("method must be GET or POST")),
    };
    let Some(target) = parts.next() else {
        return Err(RequestError::Malformed("request line lacks a target"));
    };
    match parts.next() {
        Some(version) if version.starts_with("HTTP/1.") => {}
        _ => return Err(RequestError::Malformed("version must be HTTP/1.x")),
    }
    if parts.next().is_some() {
        return Err(RequestError::Malformed("request line has trailing fields"));
    }
    if !target.starts_with('/') {
        return Err(RequestError::Malformed("target must be an absolute path"));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            break; // the blank line terminating the head
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed("header line lacks a colon"));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = match value.trim().parse::<usize>() {
                Ok(n) => n,
                Err(_) => return Err(RequestError::Malformed("unparseable Content-Length")),
            };
        }
    }
    Ok((HttpRequest { method, path }, content_length))
}

/// The reason phrase for the status codes this plane emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes one `Connection: close` response into `out` (separated
/// from socket writes so tests can inspect the exact bytes).
pub fn encode_response(out: &mut Vec<u8>, status: u16, content_type: &str, body: &[u8]) {
    out.extend_from_slice(b"HTTP/1.1 ");
    out.extend_from_slice(status.to_string().as_bytes());
    out.push(b' ');
    out.extend_from_slice(reason(status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    out.extend_from_slice(body.len().to_string().as_bytes());
    out.extend_from_slice(b"\r\nConnection: close\r\n\r\n");
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(head: &str) -> Result<(HttpRequest, usize), RequestError> {
        parse_head(head)
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let (req, len) =
            parse("GET /sessions?verbose=1 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/sessions", "query must be stripped");
        assert_eq!(len, 0);
    }

    #[test]
    fn parses_post_with_content_length() {
        let (req, len) =
            parse("POST /trace/start HTTP/1.1\r\nContent-Length: 12\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(len, 12);
    }

    #[test]
    fn rejects_grammar_violations() {
        for (head, why) in [
            ("", "empty"),
            ("\r\n\r\n", "blank request line"),
            ("BREW /pot HTTP/1.1\r\n\r\n", "unknown method"),
            ("GET HTTP/1.1\r\n\r\n", "missing target"),
            ("GET / SIP/2.0\r\n\r\n", "wrong protocol"),
            ("GET / HTTP/1.1 extra\r\n\r\n", "trailing fields"),
            ("GET metrics HTTP/1.1\r\n\r\n", "relative target"),
            ("GET / HTTP/1.1\r\nno-colon-header\r\n\r\n", "bad header"),
            ("GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n", "bad length"),
        ] {
            assert!(
                matches!(parse(head), Err(RequestError::Malformed(_))),
                "{why} must be malformed: {head:?}"
            );
        }
    }

    #[test]
    fn read_request_drains_declared_body() {
        let bytes = b"POST /trace/start HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut cursor = &bytes[..];
        let req = read_request(&mut cursor).unwrap();
        assert_eq!(req.path, "/trace/start");
        assert!(cursor.is_empty(), "body must be consumed");
    }

    #[test]
    fn read_request_bounds_head_and_body() {
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEAD));
        let mut cursor = huge.as_bytes();
        assert!(matches!(read_request(&mut cursor), Err(RequestError::Malformed(_))));
        let big_body = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        let mut cursor = big_body.as_bytes();
        assert!(matches!(read_request(&mut cursor), Err(RequestError::Malformed(_))));
    }

    #[test]
    fn truncated_stream_is_disconnected_not_malformed() {
        let mut cursor = &b"GET /healthz HT"[..];
        assert_eq!(read_request(&mut cursor), Err(RequestError::Disconnected));
    }

    #[test]
    fn response_wire_shape() {
        let mut out = Vec::new();
        encode_response(&mut out, 200, "text/plain", b"ok\n");
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
    }
}
