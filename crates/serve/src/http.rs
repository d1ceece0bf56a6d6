//! A minimal, strictly-parsed HTTP/1.1 layer over `std::net`.
//!
//! The build environment is offline, so the server cannot pull `hyper`;
//! this module implements exactly the subset the sweep service needs and
//! rejects everything else *before* any simulator state is touched:
//!
//! * request line `METHOD SP PATH SP HTTP/1.1`, `GET`/`POST` only;
//! * headers up to [`Limits::max_head`] bytes, bodies up to
//!   [`Limits::max_body`] bytes, announced by a single well-formed
//!   `Content-Length` (request bodies in `Transfer-Encoding` are refused);
//! * per-connection read/write timeouts, so one stalled peer can never
//!   wedge a handler thread forever;
//! * one request per connection — every response carries
//!   `Connection: close`, which keeps connection state trivial and load
//!   shedding exact.
//!
//! Responses are either fixed bodies ([`write_response`]) or chunked
//! streams ([`ChunkedWriter`]) — the `/v1/sweep` endpoint streams one JSONL
//! record per chunk so clients see results as jobs finish.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard per-connection parsing limits.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes for the request line + headers.
    pub max_head: usize,
    /// Maximum request-body bytes.
    pub max_body: usize,
    /// Socket read timeout.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head: 16 * 1024,
            max_body: 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// A parse/IO failure mapped to the HTTP status the peer should see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// Status code to answer with (4xx for peer mistakes, 408 for
    /// timeouts, 500 for local I/O trouble).
    pub status: u16,
    /// One-line diagnostic (becomes the response body).
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError { status, message: message.into() }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for HttpError {}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET` or `POST` (anything else is rejected while parsing).
    pub method: String,
    /// Path component, query string stripped.
    pub path: String,
    /// Raw query string (without the `?`), empty when absent.
    pub query: String,
    /// Header pairs in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty for bodyless requests).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }
}

/// The canonical reason phrase for the statuses this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn io_error(e: &std::io::Error) -> HttpError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => HttpError::new(408, "read timed out"),
        _ => HttpError::new(400, format!("connection error: {e}")),
    }
}

/// A length field from the wire: digits of `radix` only. Rust's unsigned
/// parsers also accept a leading `+`, which no HTTP grammar allows, so the
/// bytes are checked before converting.
fn parse_digits(field: &str, radix: u32) -> Option<usize> {
    if !field.bytes().all(|b| char::from(b).is_digit(radix)) {
        return None;
    }
    usize::from_str_radix(field, radix).ok()
}

/// Reads and strictly parses one request from the stream. Applies the
/// read/write timeouts to the socket as a side effect.
pub fn read_request(stream: &mut TcpStream, limits: &Limits) -> Result<Request, HttpError> {
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    let _ = stream.set_write_timeout(Some(limits.write_timeout));

    // Read until the blank line that ends the head, byte-capped.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= limits.max_head {
            return Err(HttpError::new(431, "request head too large"));
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).map_err(|e| io_error(&e))?;
        if n == 0 {
            return Err(HttpError::new(400, "connection closed mid-request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::new(400, "request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();

    // `METHOD SP PATH SP HTTP/1.1`, nothing more, nothing less.
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::new(400, "malformed request line")),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::new(400, format!("unsupported version `{version}`")));
    }
    match method {
        "GET" | "POST" => {}
        "HEAD" | "PUT" | "DELETE" | "OPTIONS" | "PATCH" | "TRACE" | "CONNECT" => {
            return Err(HttpError::new(405, format!("method `{method}` not allowed")));
        }
        _ => return Err(HttpError::new(400, format!("unknown method `{method}`"))),
    }
    if !target.starts_with('/') {
        return Err(HttpError::new(400, "request target must be an absolute path"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, format!("malformed header line `{line}`")));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::new(400, format!("malformed header name `{name}`")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut req = Request { method: method.to_owned(), path, query, headers, body: Vec::new() };

    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::new(501, "request bodies must use Content-Length"));
    }
    // Two lengths are invalid framing whatever they say (RFC 9112 §6.3).
    let mut lengths = req.headers.iter().filter(|(k, _)| k == "content-length");
    let content_length = match (lengths.next(), lengths.next()) {
        (None, _) => 0usize,
        (Some((_, raw)), None) => parse_digits(raw, 10)
            .ok_or_else(|| HttpError::new(400, format!("malformed Content-Length `{raw}`")))?,
        (Some(_), Some(_)) => return Err(HttpError::new(400, "more than one Content-Length")),
    };
    if req.method == "GET" && content_length > 0 {
        return Err(HttpError::new(400, "GET requests must not carry a body"));
    }
    if content_length > limits.max_body {
        return Err(HttpError::new(
            413,
            format!("body of {content_length} bytes exceeds the {} limit", limits.max_body),
        ));
    }

    // Bytes past the head already read belong to the body.
    let mut body = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        return Err(HttpError::new(400, "body longer than Content-Length"));
    }
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want]).map_err(|e| io_error(&e))?;
        if n == 0 {
            return Err(HttpError::new(400, "connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    req.body = body;
    Ok(req)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes a complete response with a fixed body and closes the exchange
/// (`Connection: close`). `extra_headers` are emitted verbatim.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n",
        status_text(status),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a plain-text error response; I/O failures are ignored (the peer
/// may already be gone).
pub fn write_error(stream: &mut TcpStream, err: &HttpError) {
    let body = format!("{}\n", err.message);
    let retry: &[(&str, &str)] = if err.status == 503 { &[("Retry-After", "1")] } else { &[] };
    let _ = write_response(stream, err.status, "text/plain", retry, body.as_bytes());
}

/// A chunked-transfer response in progress: one [`ChunkedWriter::chunk`]
/// call per JSONL record, then [`ChunkedWriter::finish`].
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
    /// One chunk's bytes on the wire (size line, data, CRLF), reused.
    frame: Vec<u8>,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the response head and returns the chunk writer.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
    ) -> std::io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status_text(status)
        );
        stream.write_all(head.as_bytes())?;
        Ok(ChunkedWriter { stream, frame: Vec::new() })
    }

    /// Writes one chunk in one write and flushes it, so the peer sees it
    /// immediately.
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        self.frame.clear();
        write!(self.frame, "{:x}\r\n", data.len())?;
        self.frame.extend_from_slice(data);
        self.frame.extend_from_slice(b"\r\n");
        self.stream.write_all(&self.frame)?;
        self.stream.flush()
    }

    /// Terminates the chunk stream.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// A parsed response (client side).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The de-chunked body.
    pub body: Vec<u8>,
}

impl Response {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads a full response: status line, headers, then a body framed by
/// `Content-Length`, chunked encoding, or connection close.
pub fn read_response(stream: &mut TcpStream, limits: &Limits) -> Result<Response, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= limits.max_head {
            return Err(HttpError::new(431, "response head too large"));
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).map_err(|e| io_error(&e))?;
        if n == 0 {
            return Err(HttpError::new(400, "connection closed mid-response"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::new(400, "response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| HttpError::new(400, format!("malformed status line `{status_line}`")))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    let mut rest = buf[head_end + 4..].to_vec();
    let response = Response { status, headers, body: Vec::new() };

    let chunked =
        response.header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        read_chunked_body(stream, &mut rest)?
    } else if let Some(len) = response.header("content-length") {
        let len = parse_digits(len, 10)
            .ok_or_else(|| HttpError::new(400, "malformed response Content-Length"))?;
        while rest.len() < len {
            let mut chunk = [0u8; 4096];
            let n = stream.read(&mut chunk).map_err(|e| io_error(&e))?;
            if n == 0 {
                return Err(HttpError::new(400, "connection closed mid-response-body"));
            }
            rest.extend_from_slice(&chunk[..n]);
        }
        rest.truncate(len);
        rest
    } else {
        // Framed by connection close.
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => rest.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(io_error(&e)),
            }
        }
        rest
    };
    Ok(Response { body, ..response })
}

/// Decodes a chunked body; `rest` holds bytes already read past the head.
fn read_chunked_body(stream: &mut TcpStream, rest: &mut Vec<u8>) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        // Ensure a full size line is buffered.
        let line_end = loop {
            if let Some(pos) = rest.windows(2).position(|w| w == b"\r\n") {
                break pos;
            }
            let mut chunk = [0u8; 1024];
            let n = stream.read(&mut chunk).map_err(|e| io_error(&e))?;
            if n == 0 {
                return Err(HttpError::new(400, "connection closed mid-chunk-size"));
            }
            rest.extend_from_slice(&chunk[..n]);
        };
        let size_line = std::str::from_utf8(&rest[..line_end])
            .map_err(|_| HttpError::new(400, "chunk size is not UTF-8"))?;
        let size = parse_digits(size_line.trim(), 16)
            .ok_or_else(|| HttpError::new(400, format!("malformed chunk size `{size_line}`")))?;
        rest.drain(..line_end + 2);
        // Buffer chunk data + trailing CRLF.
        while rest.len() < size + 2 {
            let mut chunk = [0u8; 4096];
            let n = stream.read(&mut chunk).map_err(|e| io_error(&e))?;
            if n == 0 {
                return Err(HttpError::new(400, "connection closed mid-chunk"));
            }
            rest.extend_from_slice(&chunk[..n]);
        }
        if size == 0 {
            return Ok(body);
        }
        body.extend_from_slice(&rest[..size]);
        rest.drain(..size + 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Runs `read` against a raw byte payload served as one connection.
    fn read_bytes<T>(
        payload: &[u8],
        read: fn(&mut TcpStream, &Limits) -> Result<T, HttpError>,
    ) -> Result<T, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let payload = payload.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&payload).unwrap();
            // Keep the socket open briefly so a short read sees a timeout
            // path only when the payload is truncated mid-head.
            s.shutdown(std::net::Shutdown::Write).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let limits = Limits { read_timeout: Duration::from_millis(500), ..Limits::default() };
        let out = read(&mut conn, &limits);
        writer.join().unwrap();
        out
    }

    fn parse_bytes(payload: &[u8]) -> Result<Request, HttpError> {
        read_bytes(payload, read_request)
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = parse_bytes(
            b"POST /v1/sweep?dry=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sweep");
        assert_eq!(req.query, "dry=1");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn rejects_garbage_cleanly() {
        assert_eq!(parse_bytes(b"BLAH /x HTTP/1.1\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse_bytes(b"DELETE /x HTTP/1.1\r\n\r\n").unwrap_err().status, 405);
        assert_eq!(parse_bytes(b"GET nopath HTTP/1.1\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse_bytes(b"GET /x HTTP/2\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse_bytes(b"POST /x HTTP/1.1\r\nContent-Length: zork\r\n\r\n").unwrap_err().status,
            400
        );
        assert_eq!(
            parse_bytes(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status,
            501
        );
        assert_eq!(parse_bytes(b"\x00\x01\x02\xff\r\n\r\n").unwrap_err().status, 400);
        // A leading `+` is not a digit, whatever `usize::from_str` thinks.
        assert_eq!(
            parse_bytes(b"POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello").unwrap_err().status,
            400
        );
        let response = |payload: &[u8]| read_bytes(payload, read_response);
        assert_eq!(
            response(b"HTTP/1.1 200 OK\r\nContent-Length: +5\r\n\r\nhello").unwrap_err().status,
            400
        );
        let chunked =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n+5\r\nhello\r\n0\r\n\r\n";
        assert_eq!(response(chunked).unwrap_err().status, 400);
    }

    /// A second `Content-Length` is refused, not ignored: whichever one a
    /// proxy in front honours, the two disagree on where the body ends.
    #[test]
    fn refuses_more_than_one_content_length() {
        let conflicting =
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 999\r\n\r\nabcd";
        let err = parse_bytes(conflicting).unwrap_err();
        assert_eq!((err.status, err.message.as_str()), (400, "more than one Content-Length"));
        let repeated = b"POST /x HTTP/1.1\r\ncontent-length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        assert_eq!(parse_bytes(repeated).unwrap_err().status, 400);
    }

    #[test]
    fn caps_oversized_bodies_and_heads() {
        let huge = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX / 2);
        assert_eq!(parse_bytes(huge.as_bytes()).unwrap_err().status, 413);
        let mut head = b"GET /x HTTP/1.1\r\n".to_vec();
        head.extend(std::iter::repeat_n(b'a', 64 * 1024));
        assert_eq!(parse_bytes(&head).unwrap_err().status, 431);
    }

    #[test]
    fn chunked_response_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut w = ChunkedWriter::start(&mut conn, 200, "application/jsonl").unwrap();
            w.chunk(b"{\"a\":1}\n").unwrap();
            w.chunk(b"{\"b\":2}\n").unwrap();
            w.finish().unwrap();
        });
        let mut s = TcpStream::connect(addr).unwrap();
        let resp = read_response(&mut s, &Limits::default()).unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text(), "{\"a\":1}\n{\"b\":2}\n");
    }

    #[test]
    fn content_length_response_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            write_response(&mut conn, 503, "text/plain", &[("Retry-After", "1")], b"busy\n")
                .unwrap();
        });
        let mut s = TcpStream::connect(addr).unwrap();
        let resp = read_response(&mut s, &Limits::default()).unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.text(), "busy\n");
    }
}
