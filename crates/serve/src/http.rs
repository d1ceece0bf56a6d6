//! A minimal, strictly-parsed HTTP/1.1 layer over `std::net`.
//!
//! The build environment is offline, so the server cannot pull `hyper`;
//! this module implements exactly the subset the sweep service needs and
//! rejects everything else *before* any simulator state is touched:
//!
//! * request line `METHOD SP PATH SP HTTP/1.1`, `GET`/`POST` only;
//! * one reader for requests and responses: a head up to
//!   [`Limits::max_head`] bytes, every field line named, and a body up to
//!   [`Limits::max_body`] bytes in all, framed by one `Content-Length` or,
//!   in a response only, by chunks or connection close;
//! * per-connection read/write timeouts, so one stalled peer can never
//!   wedge a handler thread forever;
//! * one request per connection — every response carries
//!   `Connection: close`, which keeps connection state trivial.
//!
//! Every head is built by [`message`] and leaves with its fixed body in one
//! write; a chunked stream ([`ChunkedWriter`]) queues one chunk per JSONL
//! record of `/v1/sweep` and writes the queue in one write whenever the
//! stream would otherwise wait.

use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard per-connection parsing limits.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes for the start line + headers.
    pub max_head: usize,
    /// Maximum body bytes of a request or a response, however framed.
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
    /// Status to answer with: 4xx peer mistakes, 408 timeouts, 5xx ours.
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

/// A parsed response (client side).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header pairs in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The de-chunked body.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A parsed message of either kind, and the one header lookup.
pub trait Message {
    /// Header pairs in arrival order, names lowercased.
    fn headers(&self) -> &[(String, String)];

    /// First header with this (case-insensitive) name.
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers().iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }
}

impl Message for Request {
    fn headers(&self) -> &[(String, String)] {
        &self.headers
    }
}

impl Message for Response {
    fn headers(&self) -> &[(String, String)] {
        &self.headers
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

/// Bytes pulled from the peer per read.
const READ_BUF: usize = 4096;

/// How a body ends: after `Content-Length` bytes, at the zero-size chunk,
/// or when the peer closes the connection.
enum Framing {
    Length(usize),
    Chunked,
    Close,
}

/// One message's bytes as they arrive: what was read from the peer and not
/// yet used, and whether it is a `request` or a `response` (for the
/// diagnostics). [`Reader::fill`] holds this module's only read.
struct Reader<'a, R: Read> {
    stream: &'a mut R,
    buf: Vec<u8>,
    what: &'static str,
}

impl<R: Read> Reader<'_, R> {
    /// Reads until at least `n` bytes are buffered; `false` when the
    /// stream ends first.
    fn fill(&mut self, n: usize) -> Result<bool, HttpError> {
        let mut chunk = [0u8; READ_BUF];
        while self.buf.len() < n {
            let read = self.stream.read(&mut chunk).map_err(|e| match e.kind() {
                WouldBlock | TimedOut => HttpError::new(408, "read timed out"),
                _ => HttpError::new(400, format!("connection error: {e}")),
            })?;
            if read == 0 {
                return Ok(false);
            }
            self.buf.extend_from_slice(&chunk[..read]);
        }
        Ok(true)
    }

    /// [`Reader::fill`], where the stream ending first is a 400.
    fn need(&mut self, n: usize) -> Result<(), HttpError> {
        match self.fill(n)? {
            true => Ok(()),
            false => Err(HttpError::new(400, format!("connection closed mid-{}", self.what))),
        }
    }

    /// The bytes before the next `delim`, which is used up too; `None` when
    /// more than `max` bytes come before it. Each byte is searched once,
    /// however finely the peer cuts its writes.
    fn until(&mut self, delim: &[u8], max: usize) -> Result<Option<Vec<u8>>, HttpError> {
        let mut from = 0;
        loop {
            if let Some(at) = self.buf[from..].windows(delim.len()).position(|w| w == delim) {
                let line = self.exact(from + at)?;
                self.buf.drain(..delim.len());
                return Ok((line.len() <= max).then_some(line));
            }
            if self.buf.len() > max {
                return Ok(None);
            }
            // A delimiter may still start in the last `delim.len() - 1` bytes.
            from = (self.buf.len() + 1).saturating_sub(delim.len());
            self.need(self.buf.len() + 1)?;
        }
    }

    /// Exactly the next `n` bytes.
    fn exact(&mut self, n: usize) -> Result<Vec<u8>, HttpError> {
        self.need(n)?;
        Ok(self.buf.drain(..n).collect())
    }

    /// Every byte up to the end of the stream; `None` past `max` bytes.
    fn until_eof(&mut self, max: usize) -> Result<Option<Vec<u8>>, HttpError> {
        let ended = !self.fill(max.saturating_add(1))?;
        Ok(ended.then(|| std::mem::take(&mut self.buf)))
    }

    /// A head: its start line, read by `start`, and its fields, names
    /// lowercased. Over `max` bytes it is a 431; a nameless field, a 400.
    fn head<T>(
        &mut self,
        max: usize,
        start: impl FnOnce(&str) -> Result<T, HttpError>,
    ) -> Result<(T, Vec<(String, String)>), HttpError> {
        let what = self.what;
        let head = self
            .until(b"\r\n\r\n", max)?
            .ok_or_else(|| HttpError::new(431, format!("{what} head too large")))?;
        let head = String::from_utf8(head)
            .map_err(|_| HttpError::new(400, format!("{what} head is not UTF-8")))?;
        let mut lines = head.split("\r\n");
        let start = start(lines.next().unwrap_or_default())?;
        let fields = lines.map(|line| match line.split_once(':') {
            Some((name, value)) if !name.is_empty() && !name.contains(' ') => {
                Ok((name.to_ascii_lowercase(), value.trim().to_owned()))
            }
            _ => Err(HttpError::new(400, format!("malformed header line `{line}`"))),
        });
        Ok((start, fields.collect::<Result<_, _>>()?))
    }

    /// A body as `framing` ends it, at most [`Limits::max_body`] bytes in
    /// all: a longer one is refused before more than one read past the
    /// limit is buffered. Bytes after a `Content-Length` body are not read
    /// as part of it, whether or not they came in the same read: every
    /// message this tier exchanges is `Connection: close`, and RFC 9112
    /// §6.3 leaves such bytes to a next message, which is never read.
    fn body(&mut self, framing: Framing, limits: &Limits) -> Result<Vec<u8>, HttpError> {
        let max = limits.max_body;
        let too_large =
            |n: String| HttpError::new(413, format!("body of {n} bytes exceeds the {max} limit"));
        match framing {
            Framing::Length(n) if n > max => Err(too_large(n.to_string())),
            Framing::Length(n) => self.exact(n),
            Framing::Close => {
                self.until_eof(max)?.ok_or_else(|| too_large(format!("more than {max}")))
            }
            Framing::Chunked => {
                let mut body = Vec::new();
                loop {
                    let line = self
                        .until(b"\r\n", limits.max_head)?
                        .ok_or_else(|| HttpError::new(400, "chunk size line too long"))?;
                    let line = String::from_utf8_lossy(&line);
                    let size = parse_digits(line.trim(), 16).ok_or_else(|| {
                        HttpError::new(400, format!("malformed chunk size `{line}`"))
                    })?;
                    // The running total counts, not only this chunk.
                    if size > max - body.len() {
                        let message = format!("chunk size `{line}` exceeds the {max} limit");
                        return Err(HttpError::new(400, message));
                    }
                    body.extend(self.exact(size)?);
                    if self.exact(2)? != b"\r\n" {
                        return Err(HttpError::new(400, "chunk data not followed by CRLF"));
                    }
                    if size == 0 {
                        return Ok(body);
                    }
                }
            }
        }
    }
}

/// The one `Content-Length` among `fields`, if there is one. Two are
/// invalid framing whatever they say (RFC 9112 §6.3).
fn content_length(fields: &[(String, String)]) -> Result<Option<usize>, HttpError> {
    let mut lengths = fields.iter().filter(|(k, _)| k == "content-length");
    match (lengths.next(), lengths.next()) {
        (None, _) => Ok(None),
        (Some((_, raw)), None) => parse_digits(raw, 10)
            .map(Some)
            .ok_or_else(|| HttpError::new(400, format!("malformed Content-Length `{raw}`"))),
        (Some(_), Some(_)) => Err(HttpError::new(400, "more than one Content-Length")),
    }
}

/// Reads and strictly parses one request from the stream. Applies the
/// read/write timeouts to the socket as a side effect.
pub fn read_request(stream: &mut TcpStream, limits: &Limits) -> Result<Request, HttpError> {
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    parse_request(stream, limits)
}

/// [`read_request`] on any byte source.
fn parse_request(stream: &mut impl Read, limits: &Limits) -> Result<Request, HttpError> {
    let mut reader = Reader { stream, buf: Vec::new(), what: "request" };
    let ((method, path, query), headers) = reader.head(limits.max_head, request_line)?;
    let mut req = Request { method, path, query, headers, body: Vec::new() };
    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::new(501, "request bodies must use Content-Length"));
    }
    let length = content_length(&req.headers)?.unwrap_or(0);
    if req.method == "GET" && length > 0 {
        return Err(HttpError::new(400, "GET requests must not carry a body"));
    }
    req.body = reader.body(Framing::Length(length), limits)?;
    Ok(req)
}

/// `METHOD SP PATH SP HTTP/1.1`, nothing more, nothing less: the method,
/// the path and the query.
fn request_line(line: &str) -> Result<(String, String, String), HttpError> {
    let mut parts = line.split(' ');
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
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Ok((method.to_owned(), path.to_owned(), query.to_owned()))
}

/// Reads a full response: status line, headers, then a body framed by
/// `Content-Length`, chunked encoding, or connection close.
pub fn read_response(stream: &mut impl Read, limits: &Limits) -> Result<Response, HttpError> {
    let mut reader = Reader { stream, buf: Vec::new(), what: "response" };
    let (status, headers) = reader.head(limits.max_head, |line| {
        let status = line.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok());
        status.ok_or_else(|| HttpError::new(400, format!("malformed status line `{line}`")))
    })?;
    let mut response = Response { status, headers, body: Vec::new() };
    let framing = match response.header("transfer-encoding") {
        Some(coding) if coding.eq_ignore_ascii_case("chunked") => Framing::Chunked,
        _ => content_length(&response.headers)?.map_or(Framing::Close, Framing::Length),
    };
    response.body = reader.body(framing, limits)?;
    Ok(response)
}

/// The start line of a message this tier writes.
pub enum Start<'a> {
    /// `METHOD SP PATH SP HTTP/1.1`.
    Request(&'a str, &'a str),
    /// `HTTP/1.1 SP STATUS SP REASON`.
    Response(u16),
}

/// A message's bytes: the head (the start line, one `name: value` line per
/// field in the order given, the blank line), then `body`. Every head this
/// tier sends is built here; the caller writes it.
pub fn message(start: Start<'_>, fields: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    // Writes into a `Vec` cannot fail.
    let mut out = Vec::with_capacity(256 + body.len());
    let _ = match start {
        Start::Request(method, path) => write!(out, "{method} {path} HTTP/1.1\r\n"),
        Start::Response(status) => {
            let reason = match status {
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
            };
            write!(out, "HTTP/1.1 {status} {reason}\r\n")
        }
    };
    for (name, value) in fields {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// Writes a response with a fixed body, head and body in one write, closing
/// the exchange (`Connection: close`); `extra_headers` follow verbatim.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let length = body.len().to_string();
    let fixed = [
        ("Content-Type", content_type),
        ("Content-Length", length.as_str()),
        ("Connection", "close"),
    ];
    stream.write_all(&message(
        Start::Response(status),
        &[&fixed[..], extra_headers].concat(),
        body,
    ))?;
    stream.flush()
}

/// Writes a plain-text error response; I/O failures are ignored (the peer
/// may already be gone).
pub fn write_error(stream: &mut TcpStream, err: &HttpError) {
    let body = format!("{}\n", err.message);
    let retry: &[(&str, &str)] = if err.status == 503 { &[("Retry-After", "1")] } else { &[] };
    let _ = write_response(stream, err.status, "text/plain", retry, body.as_bytes());
}

/// A chunked-transfer response in progress: [`ChunkedWriter::start`]
/// writes the head, [`ChunkedWriter::push`] queues one chunk per JSONL
/// record, [`ChunkedWriter::flush`] writes the queue in one write and
/// [`ChunkedWriter::finish`] adds the terminator. The bytes on the wire are
/// the same however the pushes are grouped into flushes.
pub struct ChunkedWriter<'a, W: Write> {
    stream: &'a mut W,
    /// Framed chunks (size line, data, CRLF each) not yet written.
    queued: Vec<u8>,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Writes the response head at once, so a peer that is already gone
    /// fails the response here, and returns the chunk writer.
    pub fn start(stream: &'a mut W, status: u16, content_type: &str) -> std::io::Result<Self> {
        let fields = [
            ("Content-Type", content_type),
            ("Transfer-Encoding", "chunked"),
            ("Connection", "close"),
        ];
        stream.write_all(&message(Start::Response(status), &fields, &[]))?;
        Ok(ChunkedWriter { stream, queued: Vec::new() })
    }

    /// Queues `data` as one chunk; nothing is written until
    /// [`ChunkedWriter::flush`].
    pub fn push(&mut self, data: &[u8]) {
        if data.is_empty() {
            return; // an empty chunk would terminate the stream
        }
        let _ = write!(self.queued, "{:x}\r\n", data.len()); // infallible into a Vec
        self.queued.extend_from_slice(data);
        self.queued.extend_from_slice(b"\r\n");
    }

    /// Writes every queued chunk in one write. The queue is emptied even
    /// when the write fails: a gone peer takes no more bytes.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.queued.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.queued).and_then(|()| self.stream.flush());
        self.queued.clear();
        written
    }

    /// Queues the terminating chunk and flushes.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.queued.extend_from_slice(b"0\r\n\r\n");
        self.flush()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sms_harness::{CacheKey, Event, RunRequest, SIM_VERSION_SALT};
    use sms_sim::geom::check::{for_cases, mutate, replay, Gen};
    use sms_sim::gpu::SimStats;
    use sms_sim::rtunit::StackConfig;
    use sms_sim::scene::SceneId;
    use sms_sim::RenderConfig;
    use std::net::{TcpListener, TcpStream};

    /// A peer that keeps every byte and counts the writes that brought them.
    #[derive(Debug, Default)]
    pub(crate) struct Wire {
        pub bytes: Vec<u8>,
        pub writes: usize,
    }

    impl Write for Wire {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The chunked framing as it was written before chunks were queued: the
    /// head, then one write per non-empty chunk, then the terminator.
    pub(crate) fn one_write_per_chunk<T: AsRef<[u8]>>(lines: &[T]) -> Vec<u8> {
        let mut out = b"HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\n\
                        Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
            .to_vec();
        for line in lines.iter().map(AsRef::as_ref).filter(|line| !line.is_empty()) {
            out.extend_from_slice(format!("{:x}\r\n", line.len()).as_bytes());
            out.extend_from_slice(line);
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"0\r\n\r\n");
        out
    }

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
            w.push(b"{\"a\":1}\n");
            w.flush().unwrap();
            w.push(b"{\"b\":2}\n");
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

    /// However pushes are grouped into flushes, the bytes are the one-write-
    /// per-chunk framing, and each flush that has anything queued is one
    /// write.
    #[test]
    fn queued_chunks_are_the_per_chunk_framing_in_one_write_per_flush() {
        for_cases(300, 48, |g| {
            let lines: Vec<Vec<u8>> =
                g.vec(0, 40, |g| (0..g.size(0, 300)).map(|_| g.int(0x20, 0x7e) as u8).collect());
            let mut wire = Wire::default();
            let mut writer = ChunkedWriter::start(&mut wire, 200, "application/jsonl").unwrap();
            let mut flushes = 0;
            for line in &lines {
                writer.push(line);
                if g.chance(0.3) {
                    flushes += usize::from(!writer.queued.is_empty());
                    writer.flush().unwrap();
                }
            }
            writer.finish().unwrap();
            assert_eq!(wire.bytes, one_write_per_chunk(&lines));
            assert_eq!(wire.writes, 1 + flushes + 1, "head, flushes, terminator");
        });
    }

    /// A fixed response is one write: head and body together.
    #[test]
    fn a_fixed_response_is_one_write() {
        let mut wire = Wire::default();
        write_response(&mut wire, 503, "text/plain", &[("Retry-After", "1")], b"busy\n").unwrap();
        assert_eq!(wire.writes, 1);
        assert_eq!(
            wire.bytes,
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\
              Connection: close\r\nRetry-After: 1\r\n\r\nbusy\n"
        );
    }

    /// A chunk size past `usize` once made `size + 2` overflow: a panic
    /// under overflow checks, a slice past the buffer without them.
    #[test]
    fn a_huge_chunk_size_is_a_400_not_an_overflow() {
        let huge = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n";
        let err = read_bytes(huge, read_response).unwrap_err();
        assert_eq!(err.status, 400, "{err}");
        // A chunk above the body limit is refused before any of it is read.
        let big = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n40000000\r\nab";
        assert_eq!(read_bytes(big, read_response).unwrap_err().status, 400);
        // Chunk data must end in CRLF.
        let unterminated =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXY0\r\n\r\n";
        assert_eq!(read_bytes(unterminated, read_response).unwrap_err().status, 400);
    }

    /// The `serve_e2e` rows of the golden table: one fixed-body response
    /// per case, as both tiers write them.
    fn golden_responses() -> Vec<Vec<u8>> {
        let mut cases: Vec<(&str, String)> = Vec::new();
        for row in include_str!("../../../goldens.txt").lines() {
            let Some(rest) = row.strip_prefix("serve_e2e.") else { continue };
            let (name, value) = rest.split_once(' ').unwrap_or((rest, ""));
            let case = name.split(':').next().unwrap_or_default();
            let line = value.replace("\\r", "\r");
            match cases.last_mut() {
                Some((last, text)) if *last == case => {
                    text.push('\n');
                    text.push_str(&line);
                }
                _ => cases.push((case, line)),
            }
        }
        cases.into_iter().map(|(_, text)| text.into_bytes()).collect()
    }

    /// A 4-cell warm sweep's stream as `stream_sweep` frames it: queued
    /// lines, finished lines, `batch_end`, terminator.
    fn sweep_stream() -> Vec<u8> {
        let stats = SimStats { cycles: 424_242, node_visits: 7, ..Default::default() };
        let cells: Vec<RunRequest> = [SceneId::Wknd, SceneId::Ship]
            .into_iter()
            .flat_map(|scene| {
                [StackConfig::baseline8(), StackConfig::sms_default()]
                    .map(|stack| RunRequest::new(scene, stack, RenderConfig::tiny()))
            })
            .collect();
        let mut events: Vec<(Event, Option<&str>)> = Vec::new();
        for (job, req) in cells.iter().enumerate() {
            events.push((Event::queued(job, req, &CacheKey::new(req, SIM_VERSION_SALT)), None));
        }
        for job in 0..cells.len() {
            events.push((Event::settled(job, Some(1), 17, Ok((&stats, true, None))), Some("hit")));
        }
        let end = Event::BatchEnd {
            jobs: cells.len(),
            cache_hits: cells.len(),
            cache_misses: 0,
            failed: 0,
            duration_us: 321,
            sim_cycles: 0,
            breakdown: None,
            metrics: None,
            builds: Vec::new(),
        };
        events.push((end, None));
        let mut wire = Wire::default();
        let mut writer = ChunkedWriter::start(&mut wire, 200, "application/jsonl").unwrap();
        for (event, tier) in &events {
            let mut line = String::new();
            event.write_with_cache(&mut line, *tier);
            line.push('\n');
            writer.push(line.as_bytes());
        }
        writer.finish().unwrap();
        wire.bytes
    }

    /// Requests as the client sends them: health, a traced sweep, a probe.
    fn client_requests() -> Vec<Vec<u8>> {
        let sweep =
            br#"{"scenes":["WKND","SHIP"],"configs":["RB_8","RB_8+SH_8+SK+RA"],"render":"tiny"}"#;
        let head = |method: &str, path: &str, len: usize, extra: &str| {
            format!(
                "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1:4000\r\nContent-Length: {len}\r\n\
                 {extra}Connection: close\r\n\r\n"
            )
            .into_bytes()
        };
        let mut traced = head(
            "POST",
            "/v1/sweep",
            sweep.len(),
            "x-sms-trace: 00000000c0ffee42-0000000000000001\r\n",
        );
        traced.extend_from_slice(sweep);
        vec![
            head("GET", "/healthz", 0, ""),
            traced,
            head("GET", "/v1/jobs/WKND/RB_8?render=tiny", 0, ""),
        ]
    }

    /// One generated input: a real request or response, damaged by
    /// [`mutate`], and sometimes given a size line no `usize` or no body
    /// limit holds at one of its line ends.
    fn garbage(g: &mut Gen, requests: &[Vec<u8>], responses: &[Vec<u8>]) -> (bool, Vec<u8>) {
        let is_request = g.chance(0.4);
        let pool = if is_request { requests } else { responses };
        let donors: Vec<&[u8]> = requests.iter().chain(responses).map(Vec::as_slice).collect();
        let seed = &pool[g.int(0, pool.len() - 1)];
        let mut bytes = mutate(g, seed, &donors);
        if g.chance(0.3) {
            let ends: Vec<usize> = bytes
                .windows(2)
                .enumerate()
                .filter(|(_, w)| w == b"\r\n")
                .map(|(i, _)| i + 2)
                .collect();
            if let Some(&at) = ends.get(g.int(0, ends.len().max(1) - 1)) {
                let size = match g.int(0, 3) {
                    0 => usize::MAX,
                    1 => usize::MAX - 1,
                    2 => 1 << g.int(20, 62),
                    _ => g.rng.next_u64() as usize,
                };
                let line = format!("{size:x}\r\n");
                bytes.splice(at..at, line.bytes());
            }
        }
        (is_request, bytes)
    }

    /// The property: parsing never panics and never allocates for a size it
    /// was only told (an allocation that large would abort the run), an
    /// accepted message's body is bytes it was sent, and a refusal is a
    /// 4xx — or the 501 for a request body framed by `Transfer-Encoding`.
    fn accepted_or_4xx(is_request: bool, bytes: &[u8]) {
        let shown = String::from_utf8_lossy(&bytes[..bytes.len().min(200)]).into_owned();
        let limits = Limits::default();
        let (body, refused) = if is_request {
            match parse_request(&mut &bytes[..], &limits) {
                Ok(request) => (request.body.len(), None),
                Err(e) if e.status == 501 => {
                    assert_eq!(e.message, "request bodies must use Content-Length", "{shown:?}");
                    return;
                }
                Err(e) => (0, Some(e)),
            }
        } else {
            match read_response(&mut &bytes[..], &limits) {
                Ok(response) => (response.body.len(), None),
                Err(e) => (0, Some(e)),
            }
        };
        assert!(body <= bytes.len(), "a body longer than its input: {shown:?}");
        if let Some(e) = refused {
            assert!((400..500).contains(&e.status), "{e} for {shown:?}");
        }
    }

    /// The seeds of [`garbage`]: the client's requests, and the
    /// `serve_e2e` golden rows followed by a sweep's chunked stream.
    fn seeds() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let mut responses = golden_responses();
        responses.push(sweep_stream());
        (client_requests(), responses)
    }

    /// Generated garbage against both parsers, seeded from real bytes.
    /// Every seed parses as sent.
    #[test]
    fn garbage_framing_is_accepted_or_a_4xx() {
        let (requests, responses) = seeds();
        assert_eq!(responses.len(), 5, "the four serve_e2e cases and the stream");
        for request in &requests {
            parse_request(&mut &request[..], &Limits::default()).unwrap();
        }
        for response in &responses {
            let response = read_response(&mut &response[..], &Limits::default()).unwrap();
            let lines = response.text().lines().count();
            let length = response.header("content-length").map(|n| n.parse().unwrap());
            assert_eq!(length.unwrap_or(response.body.len()), response.body.len());
            assert!(length.is_some() || lines == 9, "the stream's 9 lines");
        }
        for_cases(20_000, 48, |g| {
            let (is_request, bytes) = garbage(g, &requests, &responses);
            accepted_or_4xx(is_request, &bytes);
        });
    }

    /// A peer whose every byte arrives in a read of its own.
    struct OneByteReads<'a>(&'a [u8]);

    impl Read for OneByteReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&byte, rest)), Some(out)) => {
                    *out = byte;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    /// What the reader makes of `bytes` as a request or a response, when
    /// they arrive as `stream` cuts them: the message or the refusal.
    fn verdict(is_request: bool, stream: &mut impl Read) -> String {
        let limits = Limits::default();
        if is_request {
            format!("{:?}", parse_request(stream, &limits))
        } else {
            format!("{:?}", read_response(stream, &limits))
        }
    }

    /// The bytes with which a running `sms-serve` answered `400 body longer
    /// than Content-Length` when they came in one write, and the route's
    /// 404 when the `X` came in a later one: now the body is `abcd` both
    /// ways, and so is a response's.
    #[test]
    fn bytes_past_a_content_length_body_are_not_read_as_body() {
        let sent = b"POST /nope HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdX";
        let request = parse_request(&mut &sent[..], &Limits::default()).unwrap();
        assert_eq!((request.path.as_str(), request.body.as_slice()), ("/nope", &b"abcd"[..]));
        assert_eq!(verdict(true, &mut &sent[..]), verdict(true, &mut OneByteReads(sent)));
        let sent = b"HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n\r\nabcdX";
        let response = read_response(&mut &sent[..], &Limits::default()).unwrap();
        assert_eq!((response.status, response.body.as_slice()), (404, &b"abcd"[..]));
        assert_eq!(verdict(false, &mut &sent[..]), verdict(false, &mut OneByteReads(sent)));
    }

    /// How the peer's bytes were cut into reads changes no verdict: the
    /// generated garbage read in one read and one byte per read gives the
    /// same message or the same refusal.
    #[test]
    fn garbage_gets_one_verdict_however_its_reads_are_cut() {
        let (requests, responses) = seeds();
        for_cases(20_000, 49, |g| {
            let (is_request, bytes) = garbage(g, &requests, &responses);
            let whole = verdict(is_request, &mut &bytes[..]);
            let shown = String::from_utf8_lossy(&bytes[..bytes.len().min(200)]).into_owned();
            assert_eq!(whole, verdict(is_request, &mut OneByteReads(&bytes)), "{shown:?}");
        });
    }

    /// The shrunk case with which the suite found the chunk-size overflow
    /// (`attempt to add with overflow` in `read_chunked_body`).
    #[test]
    fn garbage_case_seed_48_case_98_overflowed_the_chunk_size() {
        let (requests, responses) = seeds();
        replay(48, 98, 0, |g| {
            let (is_request, bytes) = garbage(g, &requests, &responses);
            accepted_or_4xx(is_request, &bytes);
        });
    }
}
