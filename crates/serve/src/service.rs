//! The HTTP service skeleton `sms-serve` and `sms-fleet` both instantiate.
//!
//! [`ServiceCore`] is the state either tier holds; [`Service`] owns the
//! listener and runs the one accept → door-shed → thread-per-connection →
//! drain-wait loop. The route table answers `/healthz`, `/metrics`,
//! `/v1/drain` and the `/v1/jobs/…` cache probe itself and hands only
//! `POST /v1/sweep` to the [`Tier`], whose handler is `plan_sweep`, its
//! own admission check, then `stream_sweep` around its own executor.
//!
//! The accept loop blocks in `accept` and never sleeps on the request
//! path. What ends it — a drain request, SIGTERM in the binaries, an
//! injected kill — wakes it by connecting to the listener's own port
//! (`ServiceCore::wake`); the loop drops that connection uncounted.
//!
//! Shutdown is a drain: `POST /v1/drain` (or SIGTERM in the binaries)
//! stops the accept loop, lets in-flight connections finish, flushes the
//! journal, and returns from [`Service::run`]. An abrupt kill instead
//! loses at most the journal line being written (every line is flushed as
//! written); each cell it finished is already in the result cache, so a
//! re-run simulates only the rest.

use crate::http::{self, ChunkedWriter, HttpError, Limits, Request};
use crate::metrics::{inc, HttpCounters};
use crate::protocol::{self, parse_render};
use sms_harness::json::Object;
use sms_harness::trace::wall_us;
use sms_harness::{
    log, CacheKey, Event, FaultPlan, Journal, KeyTail, ResultCache, RunError, RunRequest,
    TraceContext, SIM_VERSION_SALT,
};
use sms_sim::gpu::SimStats;
use sms_sim::rtunit::StackConfig;
use std::io::Write;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the accept loop backs off after `accept` reports the process
/// out of descriptors or buffers: the pending connection stays in the
/// backlog, so an immediate retry would fail the same way at once.
const EXHAUSTED_BACKOFF: Duration = Duration::from_millis(10);
/// How often the binaries' SIGTERM watcher reads [`SIGNAL_DRAIN`]. No
/// request waits on it.
const SIGNAL_CHECK: Duration = Duration::from_millis(50);

/// Process-wide drain request flag, for the SIGTERM handler (a signal
/// handler cannot reach into an [`Arc`]). Every accept loop reads it
/// alongside its own flag; the binaries' watcher thread turns it into a
/// wake-up.
static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

/// Registers a SIGTERM handler that flips the drain flag. Pure-libc FFI:
/// the handler only does an atomic store, which is async-signal-safe.
#[cfg(unix)]
fn install_sigterm() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_sigterm(_signum: i32) {
        SIGNAL_DRAIN.store(true, Ordering::SeqCst);
    }
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the libc prototype, and `on_sigterm` only
    // performs an atomic store, which is async-signal-safe.
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm() {}

/// The state both tiers share.
pub struct ServiceCore {
    limits: Limits,
    max_conns: usize,
    max_jobs_per_request: usize,
    pub(crate) cache: Option<ResultCache>,
    pub(crate) journal: Journal,
    /// Deterministic fault injection (`SMS_FAULT`); `None` (always, for
    /// the fleet) means no fault code runs at all.
    pub(crate) faults: Option<Arc<FaultPlan>>,
    pub(crate) http: HttpCounters,
    started: Instant,
    /// Process-unique job ids for the journal (stream ids are per-request).
    job_seq: AtomicU64,
    draining: AtomicBool,
    /// The bound listener's address, the target of [`ServiceCore::wake`].
    addr: OnceLock<SocketAddr>,
    /// Connections in their handler threads; the drain waits on
    /// `conns_idle` until it reaches zero.
    active_conns: Mutex<usize>,
    conns_idle: Condvar,
}

impl ServiceCore {
    pub(crate) fn new(
        limits: Limits,
        max_conns: usize,
        max_jobs_per_request: usize,
        cache_dir: Option<PathBuf>,
        journal_path: Option<PathBuf>,
        journal_sync: bool,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        ServiceCore {
            limits,
            max_conns,
            max_jobs_per_request,
            cache: cache_dir.map(|dir| ResultCache::new(dir).with_faults(faults.clone())),
            // Write-through: a resident process serves without end, so it
            // keeps no in-memory copy of what it journals.
            journal: Journal::write_through(journal_path, journal_sync),
            faults,
            http: HttpCounters::default(),
            started: Instant::now(),
            job_seq: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            addr: OnceLock::new(),
            active_conns: Mutex::new(0),
            conns_idle: Condvar::new(),
        }
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || SIGNAL_DRAIN.load(Ordering::SeqCst)
    }

    /// Raises the drain flag and wakes the accept loop.
    fn request_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// Wakes the accept loop out of its blocking `accept` by connecting to
    /// its own listener; call it after setting whatever ends the loop. The
    /// loop drops the connection uncounted. A no-op before the listener is
    /// bound and after it is gone.
    fn wake(&self) {
        if let Some(&addr) = self.addr.get() {
            wake_listener(addr);
        }
    }

    fn lock_conns(&self) -> MutexGuard<'_, usize> {
        self.active_conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// `true` once an injected kill budget has run out.
    pub(crate) fn killed(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.killed())
    }
}

/// What a tier adds on top of the skeleton. Implemented by the backend
/// ([`crate::server::ServerState`]) and the fleet
/// ([`crate::fleet::FleetState`]) and nothing else.
pub trait Tier: Send + Sync + Sized + 'static {
    /// `server` or `fleet`: names the tier in the door-shed reply.
    const NAME: &'static str;
    /// The tier's construction-time knobs.
    type Config;
    /// The bind address in `config` (`127.0.0.1:0` picks an ephemeral port).
    fn addr(config: &Self::Config) -> &str;
    /// Builds the tier's shared state; runs once the listener is bound.
    fn new(config: Self::Config) -> Self;
    /// The skeleton's share of the state.
    fn core(&self) -> &ServiceCore;
    /// The live `/metrics` payload.
    fn render_metrics(&self) -> String;
    /// `POST /v1/sweep`.
    fn handle_sweep(
        self: &Arc<Self>,
        request: &Request,
        stream: &mut TcpStream,
    ) -> Result<(), HttpError>;
    /// `(cache_hits, cache_misses, failed)` over the process lifetime, for
    /// the `batch_end` the drain writes.
    fn drain_totals(&self) -> (u64, u64, u64);
    /// One routed request's wall clock; only the backend keeps that
    /// histogram.
    fn observe_request(&self, _micros: u64) {}
}

/// A bound (ready-to-run) tier.
pub struct Service<T: Tier> {
    listener: TcpListener,
    tier: Arc<T>,
}

/// A remote control for a running service: request a drain, read the
/// bound address, inspect metrics.
pub struct Handle<T: Tier> {
    tier: Arc<T>,
    addr: SocketAddr,
}

impl<T: Tier> Handle<T> {
    /// The address the service is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain: stop accepting, finish in-flight work.
    pub fn request_drain(&self) {
        self.tier.core().request_drain();
    }

    /// Renders the live Prometheus metrics (same payload as `/metrics`).
    pub fn render_metrics(&self) -> String {
        self.tier.render_metrics()
    }
}

impl<T: Tier> Service<T> {
    /// Binds the listener and prepares the shared state. No connection is
    /// accepted until [`Service::run`] is called.
    pub fn bind(config: T::Config) -> std::io::Result<Self> {
        let addr = T::addr(&config);
        let listener = TcpListener::bind(addr)
            .map_err(|e| std::io::Error::new(e.kind(), format!("cannot bind {addr}: {e}")))?;
        let tier = Arc::new(T::new(config));
        let _ = tier.core().addr.set(listener.local_addr()?);
        Ok(Service { listener, tier })
    }

    /// The bound address (useful with `addr = 127.0.0.1:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Binds, then runs the accept loop on a background thread. Returns
    /// the handle plus the join handle whose `Ok(())` is the drained exit.
    pub fn spawn(
        config: T::Config,
    ) -> std::io::Result<(Handle<T>, JoinHandle<std::io::Result<()>>)> {
        let service = Self::bind(config)?;
        let handle = Handle { tier: Arc::clone(&service.tier), addr: service.local_addr()? };
        Ok((handle, std::thread::spawn(move || service.run())))
    }

    /// Accepts connections until a drain is requested, then waits for all
    /// in-flight connections, flushes the journal, and returns. Each
    /// connection is handled on its own thread, one request per
    /// connection. The loop blocks in `accept`; whatever ends it connects
    /// once to wake it (`ServiceCore::wake`).
    pub fn run(self) -> std::io::Result<()> {
        let core = self.tier.core();
        loop {
            let mut stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) => match accept_failure(&e) {
                    AcceptFailure::Retry => continue,
                    AcceptFailure::Exhausted => {
                        inc(&core.http.shed);
                        std::thread::sleep(EXHAUSTED_BACKOFF);
                        continue;
                    }
                    AcceptFailure::Fatal => return Err(e),
                },
            };
            // The wake-up connection (and any connection that raced it)
            // is dropped here, before anything counts it.
            if core.killed() {
                // The injected-kill exit: no drain, no `batch_end`, no
                // flush; the listener drops, so further connects are
                // refused. The error makes the binary exit nonzero like a
                // crashed process.
                return Err(std::io::Error::other("fault injection: killed after job budget"));
            }
            if core.draining() {
                break;
            }
            if core.faults.as_ref().is_some_and(|f| f.should_drop_conn()) {
                continue; // injected fault: connection reset, no reply
            }
            let Some(slot) = ConnSlot::take(&self.tier) else {
                // Load shed at the door: bounded accept queue.
                inc(&core.http.shed);
                let message = format!("{} at connection capacity; retry", T::NAME);
                http::write_error(&mut stream, &HttpError { status: 503, message });
                continue;
            };
            std::thread::spawn(move || handle_connection(&slot.0, stream));
        }
        // Drain: finish in-flight connections, then flush the journal.
        let mut active = core.lock_conns();
        while *active > 0 {
            active = core.conns_idle.wait(active).unwrap_or_else(PoisonError::into_inner);
        }
        drop(active);
        let (cache_hits, cache_misses, failed) = self.tier.drain_totals();
        core.journal.record(Event::BatchEnd {
            jobs: core.job_seq.load(Ordering::SeqCst) as usize,
            cache_hits: cache_hits as usize,
            cache_misses: cache_misses as usize,
            failed: failed as usize,
            duration_us: 0,
            sim_cycles: 0,
            breakdown: None,
            metrics: None,
            builds: Vec::new(),
        });
        core.journal.flush();
        Ok(())
    }

    /// The binaries' `main` tail, logging as `name`: SIGTERM handler, bind,
    /// `--addr-file`, the `banner` line, the accept loop, then `after_drain`
    /// (the fleet reaps its spawned backends there) and the exit status.
    pub fn run_to_exit(
        name: &str,
        config: T::Config,
        addr_file: Option<&str>,
        banner: impl FnOnce(SocketAddr) -> String,
        after_drain: impl FnOnce(),
    ) {
        let fail = |what: String| -> ! {
            log::error(name, &what, &[]);
            std::process::exit(1);
        };
        install_sigterm();
        let service = Self::bind(config).unwrap_or_else(|e| fail(e.to_string()));
        let addr = service
            .local_addr()
            .unwrap_or_else(|e| fail(format!("cannot read bound address: {e}")));
        // The SIGTERM handler can only store a flag; this thread turns the
        // flag into the loop's wake-up.
        std::thread::spawn(move || {
            while !SIGNAL_DRAIN.load(Ordering::SeqCst) {
                std::thread::sleep(SIGNAL_CHECK);
            }
            wake_listener(addr);
        });
        if let Some(path) = addr_file {
            if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
                fail(format!("cannot write {path}: {e}"));
            }
        }
        log::info(name, &banner(addr), &[]);
        let outcome = service.run();
        after_drain();
        match outcome {
            Ok(()) => log::info(name, "drained, exiting", &[]),
            Err(e) => fail(format!("accept loop failed: {e}")),
        }
    }
}

/// Connects once to the listener at `addr`, over loopback when it is
/// bound to an unspecified address. Refused once the listener is gone.
fn wake_listener(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr);
}

/// One connection's place in `active_conns`: taken at the door, given back
/// on drop on the handler thread, so a handler that unwinds gives it back
/// too, and the last one out wakes the drain.
struct ConnSlot<T: Tier>(Arc<T>);

impl<T: Tier> ConnSlot<T> {
    /// `None` when `max_conns` connections are already in their handlers.
    fn take(tier: &Arc<T>) -> Option<Self> {
        let core = tier.core();
        let mut active = core.lock_conns();
        (*active < core.max_conns).then(|| {
            *active += 1;
            ConnSlot(Arc::clone(tier))
        })
    }
}

impl<T: Tier> Drop for ConnSlot<T> {
    fn drop(&mut self) {
        let core = self.0.core();
        let mut active = core.lock_conns();
        *active -= 1;
        if *active == 0 {
            core.conns_idle.notify_all();
        }
    }
}

/// What the accept loop does about a failed `accept`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcceptFailure {
    /// The error belongs to one pending connection (accept(2):
    /// `ECONNABORTED` and the pending network errors): take the next one.
    Retry,
    /// The process is out of descriptors or buffers: count a shed and back
    /// off, since the connection stays in the backlog.
    Exhausted,
    /// The listener itself is broken: end the loop.
    Fatal,
}

/// The accept-error policy, by `ErrorKind` and, for the errnos without a
/// kind of their own, by Linux errno value.
fn accept_failure(e: &std::io::Error) -> AcceptFailure {
    use std::io::ErrorKind as K;
    // EPROTO, ENOPROTOOPT, EHOSTDOWN, ENONET, EOPNOTSUPP; then ENFILE,
    // EMFILE, ENOBUFS.
    #[cfg(target_os = "linux")]
    let (retry, exhausted): (&[i32], &[i32]) = (&[71, 92, 112, 64, 95], &[23, 24, 105]);
    #[cfg(not(target_os = "linux"))]
    let (retry, exhausted): (&[i32], &[i32]) = (&[], &[]);
    let errno = e.raw_os_error().unwrap_or(0);
    match e.kind() {
        K::ConnectionAborted
        | K::ConnectionReset
        | K::Interrupted
        | K::WouldBlock
        | K::NetworkDown
        | K::NetworkUnreachable
        | K::HostUnreachable => AcceptFailure::Retry,
        K::OutOfMemory => AcceptFailure::Exhausted,
        _ if retry.contains(&errno) => AcceptFailure::Retry,
        _ if exhausted.contains(&errno) => AcceptFailure::Exhausted,
        _ => AcceptFailure::Fatal,
    }
}

/// A binary's positive-integer flag value; anything else is a usage
/// error (exit status 2) naming `bin` and `flag`.
pub fn positive_arg(bin: &str, flag: &str, raw: &str) -> usize {
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("{bin}: {flag} needs a positive integer, got `{raw}`");
            std::process::exit(2);
        }
    }
}

/// Counts a refusal (4xx only) and answers it.
fn refuse(core: &ServiceCore, stream: &mut TcpStream, e: &HttpError) {
    if (400..500).contains(&e.status) {
        inc(&core.http.bad_requests);
    }
    http::write_error(stream, e);
}

/// Routes one connection's single request.
fn handle_connection<T: Tier>(tier: &Arc<T>, mut stream: TcpStream) {
    let core = tier.core();
    let t0 = Instant::now();
    let request = match http::read_request(&mut stream, &core.limits) {
        Ok(request) => request,
        Err(e) => return refuse(core, &mut stream, &e),
    };
    inc(&core.http.requests);
    if let Err(e) = route(tier, &request, &mut stream) {
        refuse(core, &mut stream, &e);
    }
    tier.observe_request(t0.elapsed().as_micros() as u64);
}

fn route<T: Tier>(
    tier: &Arc<T>,
    request: &Request,
    stream: &mut TcpStream,
) -> Result<(), HttpError> {
    let core = tier.core();
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            if core.draining() {
                Err(HttpError { status: 503, message: "draining".to_owned() })
            } else {
                write_ok(stream, "text/plain", b"ok\n")
            }
        }
        ("GET", "/metrics") => {
            write_ok(stream, "text/plain; version=0.0.4", tier.render_metrics().as_bytes())
        }
        ("POST", "/v1/drain") => {
            core.request_drain();
            write_ok(stream, "text/plain", b"draining\n")
        }
        ("POST", "/v1/sweep") => tier.handle_sweep(request, stream),
        ("GET", path) if path.starts_with("/v1/jobs/") => handle_probe(core, request, stream),
        _ => Err(HttpError {
            status: 404,
            message: format!("no route for {} {}", request.method, request.path),
        }),
    }
}

fn write_ok(stream: &mut TcpStream, content_type: &str, body: &[u8]) -> Result<(), HttpError> {
    http::write_response(stream, 200, content_type, &[], body)
        .map_err(|e| HttpError { status: 500, message: e.to_string() })
}

/// `GET /v1/jobs/<scene>/<config>[?render=<mode>]` — a pure cache probe:
/// never simulates, answers 200 with the cached stats or 404.
fn handle_probe(
    core: &ServiceCore,
    request: &Request,
    stream: &mut TcpStream,
) -> Result<(), HttpError> {
    let bad = |message: String| HttpError { status: 400, message };
    let (scene, config) = request
        .path
        .strip_prefix("/v1/jobs/")
        .and_then(|rest| rest.split_once('/'))
        .ok_or_else(|| bad("probe path must be /v1/jobs/<scene>/<config>".to_owned()))?;
    let scene_id = scene.parse::<sms_sim::scene::SceneId>().map_err(|e| bad(e.to_string()))?;
    let stack = config.parse::<StackConfig>().map_err(bad)?;
    let mut render_name = None;
    for pair in request.query.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some(("render", _)) if render_name.is_some() => {
                return Err(bad("duplicate query parameter `render`".to_owned()))
            }
            Some(("render", mode)) => render_name = Some(mode.to_owned()),
            _ => return Err(bad(format!("unknown query parameter `{pair}`"))),
        }
    }
    let render_name = render_name.unwrap_or_else(|| "fast".to_owned());
    let render = parse_render(&render_name).map_err(bad)?;
    let key = CacheKey::new(&RunRequest::new(scene_id, stack, render), SIM_VERSION_SALT);
    match core.cache.as_ref().and_then(|c| c.load(&key)) {
        Some(stats) => {
            let mut body = String::new();
            let mut doc = Object::new(&mut body);
            doc.str("key", &key.canonical).str("scene", scene_id.name());
            doc.str("config", &stack.label()).str("render", &render_name);
            sms_harness::cache::write_stats(doc.key("stats"), &stats);
            doc.end();
            body.push('\n');
            write_ok(stream, "application/json", body.as_bytes())
        }
        None => Err(HttpError {
            status: 404,
            message: format!("no cached result for {scene}/{config}"),
        }),
    }
}

/// A parsed, deduplicated sweep, ready for the tier's admission check.
pub(crate) struct SweepPlan {
    /// One entry per unique cell, in request order.
    pub jobs: Vec<(RunRequest, CacheKey)>,
    /// The render mode name as sent.
    pub render_name: String,
    /// The sweep span's context when the request arrived traced; job and
    /// cell spans parent under it.
    pub ctx: Option<TraceContext>,
    start_us: u64,
}

/// The front half of `POST /v1/sweep`: drain check, body parse, trace
/// context, request-level dedup.
pub(crate) fn plan_sweep(core: &ServiceCore, request: &Request) -> Result<SweepPlan, HttpError> {
    if core.draining() {
        inc(&core.http.shed);
        return Err(HttpError {
            status: 503,
            message: "draining; not accepting sweeps".to_owned(),
        });
    }
    let sweep = protocol::parse_sweep(&request.body, core.max_jobs_per_request)
        .map_err(|message| HttpError { status: 400, message })?;

    // Distributed tracing: only requests that carry an `x-sms-trace`
    // header get span events, so untraced journals stay byte-identical to
    // pre-tracing runs. The sweep span parents on the sender's span id.
    let ctx = request
        .header(sms_harness::TRACE_HEADER)
        .and_then(TraceContext::parse)
        .map(|peer| peer.child());

    // Request-level dedup on the canonical key (same identity as the
    // cache and the single-flight table); duplicate cells coalesce into
    // one streamed job, exactly like `Harness::try_run_batch`.
    // The keys share one `KeyTail`: every cell of a sweep has the same GPU
    // and render tail, most of its key. Hashes are compared first, so a
    // string is read only for a duplicate.
    let mut jobs: Vec<(RunRequest, CacheKey)> = Vec::new();
    let mut tail = KeyTail::default();
    for req in &sweep.requests {
        let key = CacheKey::with_tail(req, SIM_VERSION_SALT, &mut tail);
        if !jobs.iter().any(|(_, k)| k.hash == key.hash && k.canonical == key.canonical) {
            jobs.push((*req, key));
        }
    }
    Ok(SweepPlan { jobs, render_name: sweep.render_name, ctx, start_us: wall_us() })
}

/// How a job settled: its stats and cache tier (`hit`, `miss`, `shared`),
/// or why it has none (`RunError::Fleet` on a fleet).
pub(crate) type Settled = Result<(SimStats, String), RunError>;

/// Where a tier's executor reports each job it settles, in any order.
pub(crate) struct JobSink<'a> {
    core: &'a ServiceCore,
    journal_base: usize,
    // Behind a mutex because the executors share the sink across worker
    // threads (`mpsc::Sender` is not `Sync` on older toolchains); one
    // uncontended lock per settled job is noise next to a simulation.
    tx: Mutex<mpsc::Sender<(Settled, Event)>>,
}

impl JobSink<'_> {
    /// The process-unique journal id of local job `local`.
    pub(crate) fn journal_id(&self, local: usize) -> usize {
        self.journal_base + local
    }

    /// Mirrors the job into the journal under its process-unique id on the
    /// caller's thread — the record is durable before anything else can
    /// happen to the process — then queues its stream line under the
    /// request-local id, for the stream to write. `worker` is the pool
    /// worker on a backend and the backend index on a fleet (`None` for a
    /// degraded-mode cache hit); `us` is the job's wall time.
    pub(crate) fn settle(&self, local: usize, worker: Option<usize>, us: u64, result: Settled) {
        let finished = result.as_ref().map(|(stats, cache)| (stats, cache != "miss", None));
        let event = |job| Event::settled(job, worker, us, finished);
        self.core.journal.record(event(self.journal_id(local)));
        let line = event(local);
        // Kill budget: the K-th finished job takes the process down *with*
        // its own result — journaled (and cached) but never streamed, just
        // as a crash between simulate and send would lose it.
        if self.core.faults.as_ref().is_some_and(|f| f.on_job_finished()) {
            self.core.wake();
            return;
        }
        let _ = self.tx.lock().unwrap_or_else(PoisonError::into_inner).send((result, line));
    }
}

/// The back half of `POST /v1/sweep`: start the chunked stream, announce
/// every job on stream and journal, run `execute` (which settles each job
/// on the [`JobSink`]), stream each record as it arrives, then close with
/// the `batch_end` summary.
///
/// Each stream line is one chunk, queued on the [`ChunkedWriter`]; the
/// queue leaves in one write just before the stream would wait for the
/// next settled job, and before it returns. So every line that is ready
/// leaves together: a warm sweep, whose jobs all settle at once, costs a
/// few writes instead of one per line, and a slow job's line still leaves
/// the moment it settles.
///
/// `execute` is dropped unrun when the response head cannot be written.
pub(crate) fn stream_sweep(
    core: &ServiceCore,
    plan: &SweepPlan,
    stream: &mut impl Write,
    execute: impl FnOnce(&JobSink<'_>) + Send,
) -> Result<(), HttpError> {
    let t0 = Instant::now();
    let mut writer = ChunkedWriter::start(stream, 200, "application/jsonl")
        .map_err(|e| HttpError { status: 500, message: e.to_string() })?;

    // Every stream line is rendered into this one buffer, then queued as
    // one chunk.
    let mut line = String::new();
    let mut push = |writer: &mut ChunkedWriter<'_, _>, event: &Event, tier: Option<&str>| {
        line.clear();
        event.write_with_cache(&mut line, tier);
        line.push('\n');
        writer.push(line.as_bytes());
    };
    // The stream uses request-local ids (a self-contained journal
    // fragment); the process journal uses process-unique ids so concurrent
    // requests' lines cannot collide when a reader pairs them up.
    let jobs = &plan.jobs;
    let journal_base = core.job_seq.fetch_add(jobs.len() as u64, Ordering::SeqCst) as usize;
    for (local, (req, key)) in jobs.iter().enumerate() {
        push(&mut writer, &Event::queued(local, req, key), None);
        core.journal.record(Event::queued(journal_base + local, req, key));
    }

    // Injected mid-stream cut: when the per-sweep counter fires, this
    // response stops after its first finished-job line, leaving an
    // unterminated chunked body (the client sees an interrupted stream).
    // Execution continues regardless — the cells still land in the shared
    // cache, which is exactly what makes fleet retries cheap.
    let mut stream_cut_after =
        core.faults.as_ref().filter(|f| f.should_drop_stream()).map(|_| 1usize);
    let (tx, rx) = mpsc::channel();
    let sink = JobSink { core, journal_base, tx: Mutex::new(tx) };
    let (mut hits, mut misses, mut failed, mut sim_cycles) = (0usize, 0usize, 0usize, 0u64);
    std::thread::scope(|scope| {
        // The sink (and its sender) drops with the executor, ending `rx`.
        scope.spawn(move || execute(&sink));
        // Lines in completion order: take every settled job there is, and
        // write the queue only when there is none to take yet.
        loop {
            let (result, event) = match rx.try_recv() {
                Ok(settled) => settled,
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {
                    let _ = writer.flush();
                    match rx.recv() {
                        Ok(settled) => settled,
                        Err(_) => break,
                    }
                }
            };
            match &result {
                Ok((stats, cache)) if cache == "miss" => {
                    misses += 1;
                    sim_cycles += stats.cycles;
                }
                Ok(_) => hits += 1,
                Err(_) => failed += 1,
            }
            if !core.killed() && stream_cut_after != Some(0) {
                // A closed peer is not an error: keep settling jobs so the
                // cache and journal still warm up for the next request. The
                // stream's `cache` is the tier as given: `shared` included,
                // which the journal codec itself renders as `hit`.
                let tier = result.as_ref().ok().map(|(_, cache)| cache.as_str());
                push(&mut writer, &event, tier);
                if let Some(n) = &mut stream_cut_after {
                    *n -= 1;
                }
            }
        }
    });

    if core.killed() || stream_cut_after == Some(0) {
        // Crashed or cut: the lines queued so far, then no batch_end and no
        // terminating chunk — the client must see an interrupted stream,
        // never a clean short sweep.
        let _ = writer.flush();
        return Ok(());
    }
    let summary = Event::BatchEnd {
        jobs: jobs.len(),
        cache_hits: hits,
        cache_misses: misses,
        failed,
        duration_us: t0.elapsed().as_micros() as u64,
        sim_cycles,
        breakdown: None,
        metrics: None,
        builds: Vec::new(),
    };
    core.journal.record(summary.clone());
    if let Some(ctx) = &plan.ctx {
        core.journal.record(Event::span(
            ctx,
            "sweep",
            "server",
            plan.start_us,
            t0.elapsed().as_micros() as u64,
            vec![
                ("jobs".to_owned(), jobs.len().to_string()),
                ("failed".to_owned(), failed.to_string()),
            ],
        ));
    }
    push(&mut writer, &summary, None);
    let _ = writer.finish();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientConfig};
    use crate::fleet::{FleetConfig, FleetServer};
    use crate::server::{ServeConfig, Server};
    use std::io::{Error, ErrorKind};

    /// How long a test waits for a loop to end before calling it hung. A
    /// failure detector only: every loop here ends at once when it works.
    const HUNG: Duration = Duration::from_secs(5);

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sms-service-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The loop's exit, or a panic once it has not come within [`HUNG`].
    fn ended(join: JoinHandle<std::io::Result<()>>) -> std::io::Result<()> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(join.join().unwrap()));
        rx.recv_timeout(HUNG).expect("the accept loop is still blocked in accept")
    }

    /// A peer whose second write — the stream's first flush — returns only
    /// once `settled` says every job has settled.
    struct HeldWire {
        wire: crate::http::tests::Wire,
        settled: Option<mpsc::Receiver<()>>,
    }

    impl Write for HeldWire {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.wire.writes == 1 {
                if let Some(settled) = self.settled.take() {
                    let _ = settled.recv_timeout(HUNG);
                }
            }
            self.wire.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A sweep's stream is the one-write-per-chunk framing of its lines,
    /// byte for byte; and the lines of a warm sweep, whose jobs all settle
    /// at once, leave in at most 3 writes after the head. Holding the first
    /// flush until every job has settled makes that bound hold however the
    /// two threads interleave: one flush, one before the wait that ends the
    /// loop, and the terminating one.
    #[test]
    fn a_warm_sweep_leaves_in_a_few_writes_with_the_per_chunk_bytes() {
        let core = ServiceCore::new(Limits::default(), 8, 64, None, None, false, None);
        let render = sms_sim::RenderConfig::tiny();
        let stacks = [StackConfig::baseline8(), StackConfig::sms_default()];
        let jobs: Vec<(RunRequest, CacheKey)> = sms_sim::scene::SceneId::ALL[..8]
            .iter()
            .flat_map(|&scene| stacks.map(|stack| RunRequest::new(scene, stack, render)))
            .map(|req| (req, CacheKey::new(&req, SIM_VERSION_SALT)))
            .collect();
        let cells = jobs.len();
        let plan = SweepPlan { jobs, render_name: "tiny".to_owned(), ctx: None, start_us: 0 };
        let (settled_tx, settled) = mpsc::channel();
        let mut peer = HeldWire { wire: Default::default(), settled: Some(settled) };
        let stats = SimStats { cycles: 99, ..Default::default() };
        stream_sweep(&core, &plan, &mut peer, |sink| {
            for job in 0..cells {
                sink.settle(job, Some(0), 5, Ok((stats, "hit".to_owned())));
            }
            let _ = settled_tx.send(());
        })
        .unwrap();

        let wire = peer.wire;
        let body = http::read_response(&mut &wire.bytes[..], &Limits::default()).unwrap().text();
        let lines: Vec<&str> = body.split_inclusive('\n').collect();
        assert_eq!(wire.bytes, crate::http::tests::one_write_per_chunk(&lines));
        let events: Vec<&str> =
            lines.iter().map(|line| line.split('"').nth(3).unwrap_or_default()).collect();
        assert_eq!(events[..cells], vec!["job_queued"; cells]);
        assert_eq!(events[cells..2 * cells], vec!["job_finished"; cells]);
        assert_eq!(events[2 * cells..], ["batch_end"]);
        assert!(wire.writes - 1 <= 3, "{cells} cells' lines left in {} writes", wire.writes - 1);
    }

    #[test]
    fn drain_wakes_an_idle_listener() {
        let (handle, join) =
            Server::spawn(ServeConfig { cache_dir: None, ..Default::default() }).expect("bind");
        handle.request_drain();
        ended(join).expect("a drained loop returns Ok");
    }

    #[test]
    fn injected_kill_ends_the_loop_without_traffic() {
        let config = ServeConfig {
            workers: 1,
            cache_dir: None,
            faults: Some(Arc::new(FaultPlan::parse("kill:jobs=1").unwrap())),
            ..Default::default()
        };
        let (handle, join) = Server::spawn(config).expect("bind");
        let once =
            ClientConfig { addr: handle.addr().to_string(), retries: 0, ..Default::default() };
        let cut = Client::with_config(once).sweep(&["WKND"], &["RB_8"], "tiny");
        assert!(cut.is_err(), "the killing job's line is never streamed: {cut:?}");
        let err = ended(join).expect_err("a killed loop returns Err");
        assert!(err.to_string().contains("killed"), "{err}");
    }

    /// A backend and a fleet each write every line to their JSONL file and
    /// keep none in memory, however many sweeps they serve.
    #[test]
    fn resident_journal_keeps_no_history() {
        const SWEEPS: usize = 50;
        let dir = temp_dir("journal");
        let (backend_file, fleet_file) = (dir.join("backend.jsonl"), dir.join("fleet.jsonl"));
        let (backend, join_backend) = Server::spawn(ServeConfig {
            cache_dir: Some(dir.join("cache")),
            journal_path: Some(backend_file.clone()),
            ..Default::default()
        })
        .expect("bind backend");
        let (fleet, join_fleet) = FleetServer::spawn(FleetConfig {
            addr: "127.0.0.1:0".to_owned(),
            backends: vec![backend.addr().to_string()],
            journal_path: Some(fleet_file.clone()),
            ..FleetConfig::default()
        })
        .expect("bind fleet");
        let client = Client::new(fleet.addr().to_string());
        // One cold sweep, then the warm ones.
        for _ in 0..=SWEEPS {
            let outcome = client.sweep(&["WKND"], &["RB_8"], "tiny").expect("sweep");
            assert!(outcome.records[0].outcome.is_ok());
        }
        for core in [backend.tier.core(), fleet.tier.core()] {
            assert_eq!(core.journal.events(), Vec::new(), "a service journal retains nothing");
        }
        fleet.request_drain();
        backend.request_drain();
        ended(join_fleet).unwrap();
        ended(join_backend).unwrap();

        // Per sweep a backend writes job_queued, job_started, job_finished
        // and batch_end, a fleet all but job_started; each file opens with
        // batch_start and closes with the drain's batch_end.
        let sweeps = SWEEPS + 1;
        for (file, per_sweep) in [(&backend_file, 4), (&fleet_file, 3)] {
            let text = std::fs::read_to_string(file).unwrap();
            assert_eq!(text.lines().count(), 2 + per_sweep * sweeps, "{}", file.display());
            let records = crate::protocol::SweepOutcome::parse(&text).unwrap().records;
            assert_eq!(records.len(), sweeps, "{}", file.display());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn accept_errors_retry_one_connection_back_off_on_exhaustion_else_end_the_loop() {
        let kinds = [
            (ErrorKind::ConnectionAborted, AcceptFailure::Retry),
            (ErrorKind::ConnectionReset, AcceptFailure::Retry),
            (ErrorKind::Interrupted, AcceptFailure::Retry),
            (ErrorKind::WouldBlock, AcceptFailure::Retry),
            (ErrorKind::NetworkDown, AcceptFailure::Retry),
            (ErrorKind::NetworkUnreachable, AcceptFailure::Retry),
            (ErrorKind::HostUnreachable, AcceptFailure::Retry),
            (ErrorKind::OutOfMemory, AcceptFailure::Exhausted),
            (ErrorKind::InvalidInput, AcceptFailure::Fatal),
            (ErrorKind::PermissionDenied, AcceptFailure::Fatal),
            (ErrorKind::Other, AcceptFailure::Fatal),
        ];
        for (kind, want) in kinds {
            assert_eq!(accept_failure(&Error::from(kind)), want, "{kind:?}");
        }
        #[cfg(target_os = "linux")]
        {
            let errnos = [
                ("ECONNABORTED", 103, AcceptFailure::Retry),
                ("EPROTO", 71, AcceptFailure::Retry),
                ("ENOPROTOOPT", 92, AcceptFailure::Retry),
                ("EHOSTDOWN", 112, AcceptFailure::Retry),
                ("ENONET", 64, AcceptFailure::Retry),
                ("EHOSTUNREACH", 113, AcceptFailure::Retry),
                ("EOPNOTSUPP", 95, AcceptFailure::Retry),
                ("ENETDOWN", 100, AcceptFailure::Retry),
                ("ENETUNREACH", 101, AcceptFailure::Retry),
                ("EINTR", 4, AcceptFailure::Retry),
                ("EAGAIN", 11, AcceptFailure::Retry),
                ("ENFILE", 23, AcceptFailure::Exhausted),
                ("EMFILE", 24, AcceptFailure::Exhausted),
                ("ENOBUFS", 105, AcceptFailure::Exhausted),
                ("ENOMEM", 12, AcceptFailure::Exhausted),
                ("EBADF", 9, AcceptFailure::Fatal),
                ("EINVAL", 22, AcceptFailure::Fatal),
                ("ENOTSOCK", 88, AcceptFailure::Fatal),
                ("EFAULT", 14, AcceptFailure::Fatal),
                ("EPERM", 1, AcceptFailure::Fatal),
            ];
            for (name, errno, want) in errnos {
                assert_eq!(accept_failure(&Error::from_raw_os_error(errno)), want, "{name}");
            }
        }
    }
}
