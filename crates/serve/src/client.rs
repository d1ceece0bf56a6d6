//! The sweep client: one-connection-per-request HTTP with bounded,
//! deadline-capped retries.
//!
//! Transport errors and 5xx responses are retried with exponential
//! backoff plus jitter (a `Retry-After` header, as the server sends on
//! load shed, overrides the computed backoff). 4xx responses are the
//! caller's mistake and are returned immediately — retrying a malformed
//! sweep can never fix it. A hard per-request deadline caps the whole
//! retry loop, sleeps included, so a dead server costs a bounded wait.

use crate::http::{self, Limits, Response};
use crate::protocol::SweepOutcome;
use sms_harness::json::Json;
use sms_harness::{TraceContext, TRACE_HEADER};
use sms_sim::Env;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Client-side knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Retries after the first attempt (on connect errors and 5xx only).
    pub retries: u32,
    /// First backoff; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Hard wall-clock budget for one request, attempts and sleeps
    /// included.
    pub deadline: Duration,
    /// Socket limits (timeouts, response size caps).
    pub limits: Limits,
    /// Distributed-tracing context to attach as the `x-sms-trace` header
    /// on every attempt (retries carry the same context, so their
    /// server-side spans all land in one trace). `None` sends no header,
    /// which keeps the serving tier's journals byte-identical to an
    /// untraced run.
    pub trace: Option<TraceContext>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: "127.0.0.1:7745".to_owned(),
            retries: 3,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(2),
            deadline: Duration::from_secs(600),
            limits: Limits::default(),
            trace: None,
        }
    }
}

impl ClientConfig {
    /// The defaults overridden by the snapshot's `client` rows of
    /// `sms_sim::env::DECLS` (the table in `EXPERIMENTS.md`).
    pub fn from_env(env: &Env) -> Self {
        let d = ClientConfig::default();
        let ms = |var| env.positive(var).map(Duration::from_millis);
        let read_timeout = ms("SMS_CLIENT_TIMEOUT_MS").unwrap_or(d.limits.read_timeout);
        ClientConfig {
            addr: env.text("SMS_SERVE_ADDR").map_or(d.addr, str::to_owned),
            retries: env.non_negative("SMS_CLIENT_RETRIES").map_or(d.retries, |n| n as u32),
            deadline: ms("SMS_CLIENT_DEADLINE_MS").unwrap_or(d.deadline),
            limits: Limits { read_timeout, ..d.limits },
            trace: TraceContext::from_env(env),
            ..d
        }
    }
}

/// A request that could not be satisfied within the retry budget.
#[derive(Debug, Clone)]
pub struct ClientError {
    /// Status of the last response, when one was received at all.
    pub status: Option<u16>,
    /// Diagnostic for the last failure.
    pub message: String,
    /// Attempts made before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.status {
            Some(s) => write!(f, "{} after {} attempt(s): {}", s, self.attempts, self.message),
            None => write!(f, "after {} attempt(s): {}", self.attempts, self.message),
        }
    }
}

impl std::error::Error for ClientError {}

/// The sweep-service client.
#[derive(Debug, Clone)]
pub struct Client {
    config: ClientConfig,
}

impl Client {
    /// A client for `addr` with default retry policy.
    pub fn new(addr: impl Into<String>) -> Self {
        Client { config: ClientConfig { addr: addr.into(), ..ClientConfig::default() } }
    }

    /// A client with explicit knobs.
    pub fn with_config(config: ClientConfig) -> Self {
        Client { config }
    }

    /// The configured retry policy (for callers that report it).
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// `GET path`, with retries.
    pub fn get(&self, path: &str) -> Result<Response, ClientError> {
        self.request("GET", path, &[])
    }

    /// `POST path` with a body, with retries.
    pub fn post(&self, path: &str, body: &[u8]) -> Result<Response, ClientError> {
        self.request("POST", path, body)
    }

    /// Runs a sweep and parses the JSONL stream. A non-200 response or an
    /// interrupted/unparseable stream is an error.
    pub fn sweep(
        &self,
        scenes: &[&str],
        configs: &[&str],
        render: &str,
    ) -> Result<SweepOutcome, ClientError> {
        // Built as a `Json` value, so a label holding `"` or `\` is escaped
        // and reaches the server's label check intact.
        let list = |xs: &[&str]| Json::Arr(xs.iter().map(|x| Json::Str((*x).to_owned())).collect());
        let body = Json::Obj(vec![
            ("scenes".to_owned(), list(scenes)),
            ("configs".to_owned(), list(configs)),
            ("render".to_owned(), Json::Str(render.to_owned())),
        ]);
        let resp = self.post("/v1/sweep", body.to_string().as_bytes())?;
        if resp.status != 200 {
            return Err(ClientError {
                status: Some(resp.status),
                message: resp.text().trim().to_owned(),
                attempts: 1,
            });
        }
        SweepOutcome::parse(&resp.text()).map_err(|message| ClientError {
            status: Some(200),
            message,
            attempts: 1,
        })
    }

    /// One request with the full retry loop: `Retry-After` drives the next
    /// backoff, and the overall deadline bounds every attempt and sleep.
    fn request(&self, method: &str, path: &str, body: &[u8]) -> Result<Response, ClientError> {
        let start = Instant::now();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let (mut err, retry_after) = match self.attempt(method, path, body, start) {
                Ok(resp) if resp.status < 500 => return Ok(resp),
                Ok(resp) => {
                    let retry_after = resp
                        .header("retry-after")
                        .and_then(|v| v.trim().parse::<u64>().ok())
                        .map(Duration::from_secs);
                    let err = ClientError {
                        status: Some(resp.status),
                        message: resp.text().trim().to_owned(),
                        attempts,
                    };
                    (err, retry_after)
                }
                Err(message) => (ClientError { status: None, message, attempts }, None),
            };
            if attempts > self.config.retries {
                return Err(err);
            }
            if !self.sleep_backoff(attempts, retry_after, start) {
                err.message.push_str(" (deadline exhausted)");
                return Err(err);
            }
        }
    }

    /// One wire attempt; transport-level failures come back as `Err`.
    fn attempt(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
        start: Instant,
    ) -> Result<Response, String> {
        let remaining = self
            .config
            .deadline
            .checked_sub(start.elapsed())
            .ok_or_else(|| "request deadline exhausted".to_owned())?;
        let addr = self
            .config
            .addr
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve `{}`: {e}", self.config.addr))?
            .next()
            .ok_or_else(|| format!("`{}` resolves to nothing", self.config.addr))?;
        let connect_budget = remaining.min(self.config.limits.read_timeout);
        let mut stream = TcpStream::connect_timeout(&addr, connect_budget)
            .map_err(|e| format!("connect to {addr}: {e}"))?;
        // Send and read must also land inside the request deadline, so the
        // socket timeouts are clipped to what is left of it after the
        // connect — not the full configured timeout, which would let a
        // hung response body overshoot the deadline by up to a whole
        // `read_timeout`. Zero means "no timeout" to the socket API (and
        // is rejected by `set_read_timeout`), so an exhausted budget turns
        // into an error rather than an unbounded read.
        let remaining = self
            .config
            .deadline
            .checked_sub(start.elapsed())
            .filter(|r| !r.is_zero())
            .ok_or_else(|| "request deadline exhausted".to_owned())?;
        stream
            .set_read_timeout(Some(self.config.limits.read_timeout.min(remaining)))
            .map_err(|e| format!("set read timeout: {e}"))?;
        stream
            .set_write_timeout(Some(self.config.limits.write_timeout.min(remaining)))
            .map_err(|e| format!("set write timeout: {e}"))?;
        let trace_header = match &self.config.trace {
            Some(ctx) => format!("{TRACE_HEADER}: {}\r\n", ctx.header_value()),
            None => String::new(),
        };
        // Head and body leave in one write.
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n{trace_header}Connection: close\r\n\r\n",
            self.config.addr,
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);
        stream.write_all(&request).map_err(|e| format!("send request: {e}"))?;
        http::read_response(&mut stream, &self.config.limits).map_err(|e| e.to_string())
    }

    /// Sleeps the backoff for this attempt (never past the deadline).
    /// Returns `false` when the deadline leaves no room to retry.
    fn sleep_backoff(&self, attempt: u32, retry_after: Option<Duration>, start: Instant) -> bool {
        let exp = self
            .config
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.config.max_backoff);
        let backoff = retry_after.unwrap_or_else(|| jittered(exp));
        let Some(remaining) = self.config.deadline.checked_sub(start.elapsed()) else {
            return false;
        };
        if backoff >= remaining {
            return false;
        }
        std::thread::sleep(backoff);
        true
    }
}

/// `d` plus up to 50% random jitter, so a fleet of shed clients does not
/// come back in lockstep. The randomness only decorrelates peers; a weak
/// clock-seeded LCG is plenty (no `rand` in the offline build).
fn jittered(d: Duration) -> Duration {
    let seed =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|t| t.subsec_nanos() as u64).unwrap_or(0)
            ^ (std::process::id() as u64) << 32;
    let lcg = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let frac = (lcg >> 33) as f64 / (1u64 << 31) as f64; // [0, 1)
    d + d.mul_f64(frac * 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn quick_client(addr: std::net::SocketAddr, retries: u32) -> Client {
        Client::with_config(ClientConfig {
            addr: addr.to_string(),
            retries,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            deadline: Duration::from_secs(5),
            ..ClientConfig::default()
        })
    }

    /// A server that 503s `fail` times, then answers 200. With
    /// `retry_after` the 503s carry `Retry-After: 0` (instant retries);
    /// without it the client's own backoff schedule applies.
    fn flaky_server(fail: u32, retry_after: bool) -> (std::net::SocketAddr, Arc<AtomicU32>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&hits);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { break };
                let mut buf = [0u8; 1024];
                let _ = conn.read(&mut buf);
                let n = seen.fetch_add(1, Ordering::SeqCst);
                let resp: &[u8] = if n < fail && retry_after {
                    b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0\r\n\
                      Content-Length: 5\r\nConnection: close\r\n\r\nbusy\n"
                } else if n < fail {
                    b"HTTP/1.1 503 Service Unavailable\r\n\
                      Content-Length: 5\r\nConnection: close\r\n\r\nbusy\n"
                } else {
                    b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nok\n"
                };
                let _ = conn.write_all(resp);
            }
        });
        (addr, hits)
    }

    #[test]
    fn retries_5xx_until_success() {
        let (addr, hits) = flaky_server(2, true);
        let resp = quick_client(addr, 3).get("/healthz").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn bounded_retries_then_error() {
        let (addr, hits) = flaky_server(u32::MAX, true);
        let err = quick_client(addr, 2).get("/healthz").unwrap_err();
        assert_eq!(err.status, Some(503));
        assert_eq!(err.attempts, 3); // 1 initial + 2 retries
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn refused_connection_errors_without_server() {
        // Bind-then-drop guarantees an unused port.
        let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let err = quick_client(addr, 1).get("/healthz").unwrap_err();
        assert_eq!(err.status, None);
        assert_eq!(err.attempts, 2);
    }

    #[test]
    fn deadline_caps_the_retry_loop() {
        // No Retry-After from the server, so the client's own 50ms
        // backoff applies — a 120ms deadline admits only a couple of
        // attempts out of the 100 configured retries.
        let (addr, _) = flaky_server(u32::MAX, false);
        let client = Client::with_config(ClientConfig {
            addr: addr.to_string(),
            retries: 100,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(50),
            deadline: Duration::from_millis(120),
            ..ClientConfig::default()
        });
        let t0 = Instant::now();
        let err = client.get("/healthz").unwrap_err();
        assert!(t0.elapsed() < Duration::from_secs(2), "deadline must cut retries short");
        assert!(err.attempts < 100);
        assert!(err.message.contains("deadline"), "error should name the deadline: {err}");
    }

    #[test]
    fn deadline_caps_a_stalling_response_body() {
        // A server that accepts, reads the request, then never answers.
        // The read timeout must be clipped to the remaining request
        // deadline: with the default 10s socket timeout left unclipped, a
        // 250ms budget would overshoot 40x waiting on the silent body.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut parked = Vec::new();
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { break };
                let mut buf = [0u8; 1024];
                let _ = conn.read(&mut buf);
                parked.push(conn); // hold the connection open, never respond
            }
        });
        let client = Client::with_config(ClientConfig {
            addr: addr.to_string(),
            retries: 0,
            deadline: Duration::from_millis(250),
            ..ClientConfig::default()
        });
        let t0 = Instant::now();
        let err = client.get("/healthz").unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "stalled read must end near the 250ms deadline, not the 10s socket timeout"
        );
        assert_eq!(err.status, None, "a stalled body is a transport error: {err}");
    }

    #[test]
    fn jitter_stays_in_range() {
        for _ in 0..32 {
            let d = jittered(Duration::from_millis(100));
            assert!(d >= Duration::from_millis(100) && d <= Duration::from_millis(150));
        }
    }
}
