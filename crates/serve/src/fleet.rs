//! `sms-fleet`: the fault-tolerant front tier over a pool of `sms-serve`
//! backends.
//!
//! A fleet speaks the same wire protocol as a single server — `POST
//! /v1/sweep` in, journal-codec JSONL out — but instead of simulating it
//! *routes*. Each deduplicated `(scene, config)` cell is first read from
//! the shared result cache: a hit is answered by the fleet itself, with no
//! dispatch. Each miss becomes one single-cell sweep dispatched to a
//! backend, with the failure handling a multi-process deployment needs
//! layered on top:
//!
//! * **Scene affinity** — a stack configuration changes the simulation,
//!   never the prepared scene, so each `(scene, render)` has a *home*
//!   backend: the least-loaded one when the scene was first routed (ties
//!   to the backend with fewer homes). Its cells go home while the home's
//!   breaker is closed and it has at most [`HOME_SLACK`] more dispatches
//!   in flight than the least-loaded backend; otherwise they spill to the
//!   least-loaded one and the home stays put. Each scene is then built,
//!   and kept resident, on one backend instead of on every backend. A
//!   pick reserves its backend's in-flight slot under the same lock, so a
//!   burst of concurrent picks sees its own dispatches.
//! * **Work stealing** — cells live in one shared queue; any worker may
//!   pick up a retried cell and send it to a different backend than the
//!   one that failed it.
//! * **Circuit breakers** — per-backend consecutive-failure breakers.
//!   An open breaker removes the backend from routing for a cooldown;
//!   the first dispatch after the cooldown is a half-open probe whose
//!   outcome re-closes (success) or re-opens (failure) the breaker.
//! * **Bounded retries** — a cell is attempted at most
//!   [`FleetConfig::cell_attempts`] times across all backends; transport
//!   failures, 5xx and interrupted streams are retryable, a *structured*
//!   simulation failure is the simulator's deterministic verdict and is
//!   reported as-is (retrying it elsewhere would produce the same
//!   failure and waste a healthy backend's time).
//! * **Hedged dispatch** — when a cell has not answered after
//!   [`FleetConfig::hedge_after`], a duplicate dispatch goes to a second
//!   backend and the first success wins. The backends' single-flight
//!   tables and the shared on-disk cache make hedges idempotent: the
//!   losing dispatch is either coalesced or a cache hit, never a second
//!   simulation.
//! * **Graceful degradation** — with every breaker open, a sweep with a
//!   miss is shed with `503` and a `Retry-After` derived from the breaker
//!   cooldown, so clients come back exactly when a half-open probe could
//!   have recovered a backend. An all-hit sweep needs no backend and is
//!   served as always.
//!
//! The fleet keeps its own journal (cells keyed like any harness run) and
//! a `sms_fleet_*` metrics registry with
//! per-backend labeled families. Fault injection lives in the
//! *backends* (`SMS_FAULT` on `sms-serve`); the fleet's behaviour under
//! those faults is what the chaos tests pin down.
//!
//! Accepting, routing, the sweep stream and the drain are the shared
//! [`crate::service`] skeleton; this module is what the fleet adds: the
//! read-first cache step, breakers, dispatch with retries and hedging, and
//! degraded mode.

use crate::client::{Client, ClientConfig};
use crate::http::{self, HttpError, Limits, Request};
use crate::metrics::{inc, HttpCounters};
use crate::protocol::JobRecord;
use crate::service::{self, JobSink, Service, ServiceCore, SweepPlan, Tier};
use sms_harness::trace::wall_us;
use sms_harness::{Event, RunError, TraceContext};
use sms_metrics::{Histogram, Registry};
use sms_sim::config::RenderConfig;
use sms_sim::gpu::SimStats;
use sms_sim::scene::SceneId;
use sms_sim::Env;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How many more dispatches in flight than the least-loaded backend a
/// scene's home may have and still take the scene's cell: past one, an
/// idle backend's parallelism is worth more than not building the scene
/// twice.
const HOME_SLACK: u64 = 1;

/// A backend's scene-table key (`Executor::scene`): what one preparation
/// serves.
type SceneKey = (SceneId, RenderConfig);

/// Construction-time fleet knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Backend `host:port` addresses to route over.
    pub backends: Vec<String>,
    /// Concurrent cell dispatches (worker threads per sweep request).
    pub workers: usize,
    /// Active-connection bound; connections beyond it are shed with 503.
    pub max_conns: usize,
    /// Per-request job cap (`scenes × configs`); larger sweeps get a 400.
    pub max_jobs_per_request: usize,
    /// Consecutive failures that open a backend's circuit breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker keeps a backend out of routing before a
    /// half-open probe is allowed. Also drives the degraded-mode
    /// `Retry-After`.
    pub breaker_cooldown: Duration,
    /// Total dispatch attempts per cell (first try included) before the
    /// cell is reported as failed.
    pub cell_attempts: u32,
    /// Hedge threshold: a cell still unanswered after this long gets a
    /// duplicate dispatch on a second backend. `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Per-dispatch deadline; must comfortably exceed one simulation
    /// (a single-cell sweep streams nothing between `job_queued` and the
    /// finished line).
    pub cell_timeout: Duration,
    /// HTTP parsing limits and socket timeouts for the *front* side.
    pub limits: Limits,
    /// Shared result-cache directory: cells found there are answered
    /// without a dispatch. Should be the directory the backends write.
    pub cache_dir: Option<PathBuf>,
    /// Fleet journal path; `None` writes none (a service journal keeps
    /// no events in memory).
    pub journal_path: Option<PathBuf>,
    /// fsync the journal after every event (`SMS_JOURNAL_SYNC`).
    pub journal_sync: bool,
    /// The `git_hash` label of `sms_build_info` (`SMS_GIT_HASH`).
    pub git_hash: String,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            addr: "127.0.0.1:0".to_owned(),
            backends: Vec::new(),
            workers: 8,
            max_conns: 64,
            max_jobs_per_request: 256,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            cell_attempts: 4,
            hedge_after: None,
            cell_timeout: Duration::from_secs(600),
            limits: Limits::default(),
            cache_dir: None,
            journal_path: None,
            journal_sync: false,
            git_hash: "unknown".to_owned(),
        }
    }
}

impl FleetConfig {
    /// The defaults overridden by the snapshot's `fleet` rows of
    /// `sms_sim::env::DECLS` (the table in `EXPERIMENTS.md`).
    pub fn from_env(env: &Env) -> Self {
        let d = FleetConfig::default();
        let ms = |var| env.positive(var).map(Duration::from_millis);
        let (cache_dir, journal_path) =
            sms_harness::storage_from_env(env, sms_harness::FLEET_JOURNAL_FILE, d.cache_dir);
        FleetConfig {
            addr: env.text("SMS_FLEET_ADDR").unwrap_or("127.0.0.1:7746").to_owned(),
            backends: env.list("SMS_FLEET_BACKENDS").into_iter().map(str::to_owned).collect(),
            cell_attempts: env.positive("SMS_FLEET_ATTEMPTS").map_or(d.cell_attempts, |n| n as u32),
            breaker_cooldown: ms("SMS_FLEET_COOLDOWN_MS").unwrap_or(d.breaker_cooldown),
            hedge_after: ms("SMS_FLEET_HEDGE_MS"),
            cell_timeout: ms("SMS_FLEET_CELL_TIMEOUT_MS").unwrap_or(d.cell_timeout),
            cache_dir,
            journal_path,
            journal_sync: env.flag("SMS_JOURNAL_SYNC"),
            git_hash: env.text("SMS_GIT_HASH").map_or(d.git_hash, str::to_owned),
            ..d
        }
    }
}

/// One backend's circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    /// Routing normally; `fails` consecutive failures so far.
    Closed { fails: u32 },
    /// Out of routing until the cooldown expires.
    Open { until: Instant },
    /// One probe dispatch is out; its outcome decides the next state.
    HalfOpen,
}

/// Live routing state for one backend.
struct BackendState {
    addr: String,
    breaker: Mutex<Breaker>,
    /// Dispatches picked and not yet ended (see [`Reservation`]).
    inflight: Arc<AtomicU64>,
    /// Cells this backend answered successfully.
    jobs_done: AtomicU64,
    /// Dispatches this backend failed (transport, 5xx, bad stream).
    failures: AtomicU64,
}

/// One dispatch's slot in its backend's in-flight count: taken by
/// [`FleetState::pick_backend`] and given back on drop, so no way out of a
/// dispatch (error, panic, hedge loser) leaks it.
struct Reservation {
    backend: usize,
    inflight: Arc<AtomicU64>,
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The scene → home-backend table, with each backend's home count.
struct Homes {
    table: Vec<(SceneKey, usize)>,
    count: Vec<usize>,
}

impl Homes {
    fn get(&self, scene: SceneKey) -> Option<usize> {
        self.table.iter().find(|(k, _)| *k == scene).map(|&(_, b)| b)
    }

    fn set(&mut self, scene: SceneKey, backend: usize) {
        match self.table.iter_mut().find(|(k, _)| *k == scene) {
            Some((_, home)) => {
                self.count[*home] -= 1;
                *home = backend;
            }
            None => self.table.push((scene, backend)),
        }
        self.count[backend] += 1;
    }
}

/// The routing rule over one snapshot of the pool. `loads[i]` is backend
/// `i`'s in-flight count while its breaker is closed, `None` otherwise;
/// `homes[i]` counts the scenes homed on it; `home` is the cell's scene's.
/// Returns the backend to dispatch to and whether it becomes the scene's
/// home, or `None` when nothing but `exclude` is routable.
fn route(
    loads: &[Option<u64>],
    homes: &[usize],
    home: Option<usize>,
    exclude: Option<usize>,
) -> Option<(usize, bool)> {
    let load = |i: usize| loads[i].filter(|_| Some(i) != exclude);
    let (least, _, best) = (0..loads.len()).filter_map(|i| Some((load(i)?, homes[i], i))).min()?;
    match home {
        Some(h) if load(h).is_some_and(|l| l <= least + HOME_SLACK) => Some((h, false)),
        // A spill-over leaves a routable home in place and a hedge never
        // moves one; a new scene, or one whose home is out of routing,
        // moves in.
        _ => Some((best, exclude.is_none() && home.is_none_or(|h| loads[h].is_none()))),
    }
}

/// A point-in-time view of one backend, for `/metrics`.
#[derive(Debug, Clone)]
pub struct BackendSnapshot {
    /// The backend's `host:port` (the `backend` label value).
    pub addr: String,
    /// `false` while the breaker is open.
    pub up: bool,
    /// Cells answered successfully.
    pub jobs: u64,
    /// Failed dispatches.
    pub failures: u64,
    /// Breaker state as a gauge value: 0 closed, 1 half-open, 2 open.
    pub breaker_state: u8,
}

/// The fleet's own instrument set (`sms_fleet_*`).
#[derive(Debug, Default)]
pub struct FleetMetrics {
    /// Sweep requests admitted.
    pub sweeps: AtomicU64,
    /// Cells admitted (after request-level dedup).
    pub cells: AtomicU64,
    /// Cells that exhausted their attempts or failed structurally.
    pub cells_failed: AtomicU64,
    /// Dispatch rounds that failed on every contacted backend.
    pub retries: AtomicU64,
    /// Retried cells that moved to a different backend.
    pub steals: AtomicU64,
    /// Duplicate dispatches fired for straggling cells.
    pub hedges: AtomicU64,
    /// Hedged cells won by the duplicate, not the original.
    pub hedge_wins: AtomicU64,
    /// Cells answered from the shared cache without a dispatch.
    pub cache_hits: AtomicU64,
    /// The cache hits served while no backend was usable.
    pub degraded_hits: AtomicU64,
    /// Breaker transitions into the open state.
    pub breaker_opens: AtomicU64,
    /// Wall-clock per settled cell, microseconds.
    pub cell_latency_us: Mutex<Histogram>,
}

impl FleetMetrics {
    /// Records one settled cell's wall-clock latency.
    pub fn observe_cell(&self, micros: u64) {
        self.cell_latency_us.lock().unwrap_or_else(PoisonError::into_inner).record(micros);
    }

    /// Snapshots every instrument into a registry (tests pin `uptime_secs`
    /// for golden output).
    pub fn registry(
        &self,
        uptime_secs: f64,
        http: &HttpCounters,
        backends: &[BackendSnapshot],
        git_hash: &str,
    ) -> Registry {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut reg = Registry::new();
        reg.gauge("sms_fleet_uptime_seconds", "Seconds since the fleet started", uptime_secs);
        reg.counter(
            "sms_fleet_requests_total",
            "HTTP requests accepted for processing",
            get(&http.requests),
        );
        reg.counter(
            "sms_fleet_bad_requests_total",
            "Requests refused with a 4xx status",
            get(&http.bad_requests),
        );
        reg.counter("sms_fleet_sweeps_total", "Sweep requests admitted", get(&self.sweeps));
        reg.counter("sms_fleet_cells_total", "Cells admitted after dedup", get(&self.cells));
        reg.counter(
            "sms_fleet_cells_failed_total",
            "Cells that exhausted their attempts or failed structurally",
            get(&self.cells_failed),
        );
        reg.counter(
            "sms_fleet_retries_total",
            "Dispatch rounds that failed on every contacted backend",
            get(&self.retries),
        );
        reg.counter(
            "sms_fleet_steals_total",
            "Retried cells that moved to a different backend",
            get(&self.steals),
        );
        reg.counter(
            "sms_fleet_hedges_total",
            "Duplicate dispatches fired for straggling cells",
            get(&self.hedges),
        );
        reg.counter(
            "sms_fleet_hedge_wins_total",
            "Hedged cells won by the duplicate dispatch",
            get(&self.hedge_wins),
        );
        reg.counter(
            "sms_fleet_cache_hits_total",
            "Cells answered from the shared cache without a dispatch",
            get(&self.cache_hits),
        );
        reg.counter(
            "sms_fleet_degraded_hits_total",
            "Cells served from cache with no healthy backend",
            get(&self.degraded_hits),
        );
        reg.counter("sms_fleet_shed_total", "Requests shed with 503", get(&http.shed));
        reg.counter(
            "sms_fleet_breaker_opens_total",
            "Circuit-breaker transitions into the open state",
            get(&self.breaker_opens),
        );
        reg.gauge("sms_fleet_backends", "Configured backends", backends.len() as f64);
        for b in backends {
            reg.labeled_gauge(
                "sms_fleet_backend_up",
                "Backend routability (0 while its breaker is open)",
                &[("backend", &b.addr)],
                if b.up { 1.0 } else { 0.0 },
            );
        }
        for b in backends {
            reg.labeled_counter(
                "sms_fleet_backend_jobs_total",
                "Cells answered successfully, per backend",
                &[("backend", &b.addr)],
                b.jobs,
            );
        }
        for b in backends {
            reg.labeled_counter(
                "sms_fleet_backend_failures_total",
                "Failed dispatches, per backend",
                &[("backend", &b.addr)],
                b.failures,
            );
        }
        for b in backends {
            reg.labeled_gauge(
                "sms_fleet_breaker_state",
                "Circuit-breaker state per backend (0 closed, 1 half-open, 2 open)",
                &[("backend", &b.addr)],
                f64::from(b.breaker_state),
            );
        }
        reg.labeled_gauge(
            "sms_build_info",
            "Build metadata; the value is always 1",
            &[("version", env!("CARGO_PKG_VERSION")), ("git_hash", git_hash)],
            1.0,
        );
        reg.histogram(
            "sms_fleet_cell_latency_us",
            "Wall-clock per settled cell, microseconds",
            self.cell_latency_us.lock().unwrap_or_else(PoisonError::into_inner).clone(),
        );
        reg
    }
}

/// The fleet [`Tier`]: what the handler threads share beyond the
/// [`ServiceCore`].
pub struct FleetState {
    core: ServiceCore,
    config: FleetConfig,
    backends: Vec<BackendState>,
    /// Scene affinity; every pick reads and reserves under this lock.
    homes: Mutex<Homes>,
    metrics: FleetMetrics,
}

/// A bound (or running) fleet front tier.
pub type FleetServer = Service<FleetState>;

impl FleetState {
    fn lock_breaker(&self, i: usize) -> std::sync::MutexGuard<'_, Breaker> {
        self.backends[i].breaker.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Picks and reserves a backend for one dispatch of a `scene` cell:
    /// a closed-breaker backend by [`route`], or else one expired open
    /// breaker promoted to a half-open probe (which never becomes a home).
    /// `exclude` keeps a hedge off the backend already trying the cell.
    fn pick_backend(
        &self,
        scene: SceneKey,
        exclude: Option<usize>,
        now: Instant,
    ) -> Option<Reservation> {
        let mut homes = self.homes.lock().unwrap_or_else(PoisonError::into_inner);
        let loads: Vec<Option<u64>> = (0..self.backends.len())
            .map(|i| {
                matches!(*self.lock_breaker(i), Breaker::Closed { .. })
                    .then(|| self.backends[i].inflight.load(Ordering::SeqCst))
            })
            .collect();
        let picked = match route(&loads, &homes.count, homes.get(scene), exclude) {
            Some((i, rehome)) => {
                if rehome {
                    homes.set(scene, i);
                }
                i
            }
            None => self.promote_probe(exclude, now)?,
        };
        let inflight = Arc::clone(&self.backends[picked].inflight);
        inflight.fetch_add(1, Ordering::SeqCst);
        Some(Reservation { backend: picked, inflight })
    }

    /// With no closed breaker, lets at most one half-open probe through.
    fn promote_probe(&self, exclude: Option<usize>, now: Instant) -> Option<usize> {
        for i in 0..self.backends.len() {
            if Some(i) == exclude {
                continue;
            }
            let mut breaker = self.lock_breaker(i);
            if let Breaker::Open { until } = *breaker {
                if until <= now {
                    *breaker = Breaker::HalfOpen;
                    return Some(i);
                }
            }
        }
        None
    }

    /// `true` when at least one backend could take a dispatch right now
    /// (closed, probing, or past its cooldown).
    fn any_backend_usable(&self, now: Instant) -> bool {
        (0..self.backends.len()).any(|i| match *self.lock_breaker(i) {
            Breaker::Closed { .. } | Breaker::HalfOpen => true,
            Breaker::Open { until } => until <= now,
        })
    }

    /// Counts one cell answered from the shared cache without a dispatch,
    /// as degraded when no backend could have taken it.
    fn count_hit(&self, usable: bool) {
        inc(&self.metrics.cache_hits);
        if !usable {
            inc(&self.metrics.degraded_hits);
        }
    }

    /// A successful dispatch closes the backend's breaker outright.
    fn on_backend_success(&self, i: usize) {
        self.backends[i].jobs_done.fetch_add(1, Ordering::Relaxed);
        *self.lock_breaker(i) = Breaker::Closed { fails: 0 };
    }

    /// A failed dispatch counts toward the threshold; at the threshold —
    /// or on a failed half-open probe — the breaker opens.
    fn on_backend_failure(&self, i: usize, now: Instant) {
        self.backends[i].failures.fetch_add(1, Ordering::Relaxed);
        let mut breaker = self.lock_breaker(i);
        let open = Breaker::Open { until: now + self.config.breaker_cooldown };
        match *breaker {
            Breaker::Closed { fails } if fails + 1 >= self.config.breaker_threshold => {
                *breaker = open;
                inc(&self.metrics.breaker_opens);
            }
            Breaker::Closed { fails } => *breaker = Breaker::Closed { fails: fails + 1 },
            Breaker::HalfOpen => {
                *breaker = open;
                inc(&self.metrics.breaker_opens);
            }
            Breaker::Open { .. } => {}
        }
    }

    fn backend_snapshots(&self) -> Vec<BackendSnapshot> {
        self.backends
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let breaker = *self.lock_breaker(i);
                BackendSnapshot {
                    addr: b.addr.clone(),
                    up: matches!(breaker, Breaker::Closed { .. } | Breaker::HalfOpen),
                    jobs: b.jobs_done.load(Ordering::Relaxed),
                    failures: b.failures.load(Ordering::Relaxed),
                    breaker_state: match breaker {
                        Breaker::Closed { .. } => 0,
                        Breaker::HalfOpen => 1,
                        Breaker::Open { .. } => 2,
                    },
                }
            })
            .collect()
    }

    /// The breaker label value for dispatch-span attribution, read at
    /// dispatch time (after `pick_backend`, so open never appears here).
    fn breaker_label(&self, i: usize) -> &'static str {
        match *self.lock_breaker(i) {
            Breaker::Closed { .. } => "closed",
            Breaker::HalfOpen => "half_open",
            Breaker::Open { .. } => "open",
        }
    }

    /// A client for one single-cell dispatch: no client-side retries (the
    /// fleet owns retries and hedging), socket read timeout stretched to the
    /// cell deadline (a single-cell sweep streams nothing while the
    /// simulation runs). `trace` is the dispatch span context; it rides
    /// the wire as `x-sms-trace` so the backend parents under it.
    fn cell_client(&self, backend: &str, trace: Option<TraceContext>) -> Client {
        let mut limits = self.config.limits;
        limits.read_timeout = self.config.cell_timeout;
        Client::with_config(ClientConfig {
            addr: backend.to_owned(),
            retries: 0,
            deadline: self.config.cell_timeout,
            limits,
            trace,
            ..ClientConfig::default()
        })
    }
}

/// One dispatch of one cell to one backend, as a single-cell sweep.
/// Transport errors, non-200s, interrupted streams and malformed record
/// counts all come back as `Err` (retryable); a structured simulation
/// failure comes back as `Ok` with the record's own `Err` outcome.
fn dispatch_once(
    state: &Arc<FleetState>,
    reservation: Reservation,
    req: &sms_harness::RunRequest,
    render_name: &str,
    trace: Option<TraceContext>,
) -> Result<JobRecord, String> {
    let backend = &state.backends[reservation.backend];
    let client = state.cell_client(&backend.addr, trace);
    let config_label = req.stack.label();
    let outcome = client.sweep(&[req.scene.name()], &[&config_label], render_name);
    // Before the result is sent: the next pick sees this dispatch ended.
    drop(reservation);
    match outcome {
        Ok(sweep) => {
            let n = sweep.records.len();
            let mut records = sweep.records;
            match records.pop() {
                Some(record) if n == 1 => Ok(record),
                _ => Err(format!("backend {}: {n} records for a single-cell sweep", backend.addr)),
            }
        }
        Err(e) => Err(format!("backend {}: {e}", backend.addr)),
    }
}

/// How one cell finally settled.
enum CellOutcome {
    /// A usable result (a dispatch, or a hit answered by the fleet).
    Done { stats: Box<SimStats>, cache: String, backend: Option<usize> },
    /// A terminal failure (structured, or attempts exhausted).
    Fail { error: String, backend: Option<usize> },
}

impl CellOutcome {
    /// A cell the fleet answered from the shared cache, with no backend.
    fn hit(stats: SimStats) -> Self {
        CellOutcome::Done { stats: Box::new(stats), cache: "hit".to_owned(), backend: None }
    }
}

/// One queue entry: a cell and its attempt history.
struct CellTask {
    idx: usize,
    /// When the cell's first round started: its latency covers every
    /// round, failed dispatches and back-offs included.
    started: Option<Instant>,
    attempts: u32,
    last_backend: Option<usize>,
    /// The cell's span context when the sweep arrived traced; every
    /// dispatch span (retries and hedges included) parents under it.
    ctx: Option<TraceContext>,
}

/// Everything needed to record one in-flight dispatch's span when its
/// outcome (or cancellation) is decided.
struct DispatchSpan {
    backend: usize,
    ctx: TraceContext,
    start_us: u64,
    attempt: u32,
    hedge: bool,
    breaker: &'static str,
}

/// Records one settled dispatch span into the fleet journal. `outcome` is
/// `ok`, `error`, or `cancelled` (the hedge loser at the decision point).
fn record_dispatch_span(state: &FleetState, d: &DispatchSpan, outcome: &str) {
    let attrs = vec![
        ("backend".to_owned(), state.backends[d.backend].addr.clone()),
        ("attempt".to_owned(), d.attempt.to_string()),
        ("hedge".to_owned(), if d.hedge { "1" } else { "0" }.to_owned()),
        ("breaker_state".to_owned(), d.breaker.to_owned()),
        ("outcome".to_owned(), outcome.to_owned()),
    ];
    let dur = wall_us().saturating_sub(d.start_us);
    state.core.journal.record(Event::span(&d.ctx, "dispatch", "client", d.start_us, dur, attrs));
}

enum RoundResult {
    Settled(CellOutcome),
    Requeue,
}

/// One dispatch round for one missed cell: re-read it on a retry, pick a
/// backend (or wait out degraded mode), fire the primary, hedge on a
/// straggle, attribute breaker outcomes, and decide settle-vs-requeue.
fn run_cell_round(state: &Arc<FleetState>, task: &mut CellTask, plan: &SweepPlan) -> RoundResult {
    let (req, key) = &plan.jobs[task.idx];
    let scene = (req.scene, req.render);
    task.attempts += 1;
    // A retry first re-reads its cell: another request may have finished
    // it since the sweep's read, and then it needs no backend.
    if task.attempts > 1 {
        if let Some(stats) = state.core.cache.as_ref().and_then(|c| c.load(key)) {
            state.count_hit(state.any_backend_usable(Instant::now()));
            return RoundResult::Settled(CellOutcome::hit(stats));
        }
    }
    let Some(reservation) = state.pick_backend(scene, None, Instant::now()) else {
        // Degraded mode: no routable backend. The cell waits for a breaker
        // to half-open, then fails once the attempt budget runs out —
        // never hangs.
        if task.attempts >= state.config.cell_attempts {
            return RoundResult::Settled(CellOutcome::Fail {
                error: format!("no healthy backend within {} attempts", task.attempts),
                backend: None,
            });
        }
        std::thread::sleep(state.config.breaker_cooldown.min(Duration::from_millis(50)));
        return RoundResult::Requeue;
    };
    let primary = reservation.backend;
    if task.attempts > 1 && task.last_backend.is_some_and(|last| last != primary) {
        // A retry moving to a different backend is a successful steal.
        inc(&state.metrics.steals);
    }
    task.last_backend = Some(primary);

    let (tx, rx) = mpsc::channel::<(usize, Result<JobRecord, String>)>();
    let mut spans: Vec<DispatchSpan> = Vec::new();
    let mut spawn_dispatch =
        |reservation: Reservation,
         hedged: bool,
         tx: mpsc::Sender<(usize, Result<JobRecord, String>)>| {
            let idx = reservation.backend;
            let ctx = task.ctx.map(|cell| cell.child());
            if let Some(ctx) = ctx {
                spans.push(DispatchSpan {
                    backend: idx,
                    ctx,
                    start_us: wall_us(),
                    attempt: task.attempts,
                    hedge: hedged,
                    breaker: state.breaker_label(idx),
                });
            }
            let state = Arc::clone(state);
            let req = *req;
            let render = plan.render_name.clone();
            std::thread::spawn(move || {
                let result = dispatch_once(&state, reservation, &req, &render, ctx);
                let _ = tx.send((idx, result));
            });
        };
    spawn_dispatch(reservation, false, tx.clone());
    let mut outstanding = 1u32;
    let mut hedge: Option<usize> = None;
    // Hold the first message when it beat the hedge threshold, so the
    // collection loop below is the only place results are interpreted.
    let mut first = match state.config.hedge_after {
        Some(hedge_after) => match rx.recv_timeout(hedge_after) {
            Ok(msg) => Some(msg),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if let Some(second) = state.pick_backend(scene, Some(primary), Instant::now()) {
                    inc(&state.metrics.hedges);
                    hedge = Some(second.backend);
                    spawn_dispatch(second, true, tx.clone());
                    outstanding += 1;
                }
                None
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => None,
        },
        None => None,
    };
    drop(tx);

    let mut last_error = "no backend contacted".to_owned();
    while outstanding > 0 {
        let Some((idx, result)) = first.take().or_else(|| rx.recv().ok()) else { break };
        outstanding -= 1;
        match result {
            Ok(record) => {
                state.on_backend_success(idx);
                if hedge == Some(idx) {
                    inc(&state.metrics.hedge_wins);
                }
                // The winner settles the cell; any still-outstanding
                // dispatch is the hedge race's loser. Its detached thread
                // runs on, but this is the decision point — record the
                // loser's span as cancelled here.
                for d in &spans {
                    let outcome = if d.backend == idx { "ok" } else { "cancelled" };
                    record_dispatch_span(state, d, outcome);
                }
                return RoundResult::Settled(match record.outcome {
                    Ok(stats) => CellOutcome::Done {
                        stats: Box::new(stats),
                        cache: record.cache,
                        backend: Some(idx),
                    },
                    // A structured failure is the simulator's own verdict:
                    // deterministic, so another backend would fail it the
                    // same way. Report it; don't burn the retry budget.
                    Err(error) => CellOutcome::Fail { error, backend: Some(idx) },
                });
            }
            Err(e) => {
                state.on_backend_failure(idx, Instant::now());
                if let Some(pos) = spans.iter().position(|d| d.backend == idx) {
                    record_dispatch_span(state, &spans.remove(pos), "error");
                }
                last_error = e;
            }
        }
    }
    // Both contacted backends failed (their spans are already recorded),
    // or the channel closed with nothing in flight.
    for d in &spans {
        record_dispatch_span(state, d, "error");
    }
    // Every contacted backend failed this round.
    inc(&state.metrics.retries);
    if task.attempts >= state.config.cell_attempts {
        return RoundResult::Settled(CellOutcome::Fail {
            error: format!("cell failed after {} attempts: {last_error}", task.attempts),
            backend: task.last_backend,
        });
    }
    RoundResult::Requeue
}

/// One sweep's cells waiting for a worker, and how many have not settled.
struct CellQueue {
    /// The waiting cells, and the count of cells not yet settled.
    state: Mutex<(VecDeque<CellTask>, usize)>,
    /// Signalled when a cell is requeued (one worker) and when the last
    /// cell settles (every worker).
    ready: Condvar,
}

impl CellQueue {
    fn lock(&self) -> std::sync::MutexGuard<'_, (VecDeque<CellTask>, usize)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next cell, waiting while another worker may still requeue one;
    /// `None` once every cell has settled.
    fn pop(&self) -> Option<CellTask> {
        let mut state = self.lock();
        loop {
            if state.1 == 0 {
                return None;
            }
            if let Some(task) = state.0.pop_front() {
                return Some(task);
            }
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn requeue(&self, task: CellTask) {
        self.lock().0.push_back(task);
        self.ready.notify_one();
    }

    fn settled(&self) {
        let mut state = self.lock();
        state.1 -= 1;
        if state.1 == 0 {
            self.ready.notify_all();
        }
    }
}

/// A worker thread: pop cells, run rounds, settle or requeue, until every
/// cell of the sweep has settled.
fn worker_loop(
    state: &Arc<FleetState>,
    queue: &CellQueue,
    plan: &SweepPlan,
    cell_start_us: u64,
    sink: &JobSink<'_>,
) {
    while let Some(mut task) = queue.pop() {
        let t0 = *task.started.get_or_insert_with(Instant::now);
        let outcome = match run_cell_round(state, &mut task, plan) {
            RoundResult::Settled(outcome) => outcome,
            RoundResult::Requeue => {
                queue.requeue(task);
                continue;
            }
        };
        let duration_us = t0.elapsed().as_micros() as u64;
        settle_cell(state, plan, &task, cell_start_us, duration_us, outcome, sink);
        queue.settled();
    }
}

/// A settled cell, from a dispatch or from the cache, is counted, gets its
/// `cell` span (when traced) and goes to the sweep frame.
fn settle_cell(
    state: &FleetState,
    plan: &SweepPlan,
    task: &CellTask,
    cell_start_us: u64,
    duration_us: u64,
    outcome: CellOutcome,
    sink: &JobSink<'_>,
) {
    state.metrics.observe_cell(duration_us);
    let (worker, result) = match outcome {
        CellOutcome::Done { stats, cache, backend } => (backend, Ok((*stats, cache))),
        CellOutcome::Fail { error, backend } => {
            inc(&state.metrics.cells_failed);
            (backend, Err(RunError::Fleet { message: error }))
        }
    };
    if let Some(ctx) = &task.ctx {
        let (req, _) = &plan.jobs[task.idx];
        let mut attrs =
            vec![("cell".to_owned(), format!("{}/{}", req.scene.name(), req.stack.label()))];
        match &result {
            Ok((_, cache)) => {
                attrs.push(("cache".to_owned(), cache.clone()));
                if let Some(b) = worker {
                    attrs.push(("backend".to_owned(), state.backends[b].addr.clone()));
                }
            }
            Err(e) => attrs.push(("error".to_owned(), e.to_string())),
        }
        let dur = wall_us().saturating_sub(cell_start_us);
        let span = Event::span(ctx, "cell", "internal", cell_start_us, dur, attrs);
        state.core.journal.record(span);
    }
    sink.settle(task.idx, worker, duration_us, result);
}

impl Tier for FleetState {
    const NAME: &'static str = "fleet";
    type Config = FleetConfig;

    fn addr(config: &FleetConfig) -> &str {
        &config.addr
    }

    fn new(config: FleetConfig) -> Self {
        let core = ServiceCore::new(
            config.limits,
            config.max_conns,
            config.max_jobs_per_request,
            config.cache_dir.clone(),
            config.journal_path.clone(),
            config.journal_sync,
            None,
        );
        core.journal.record(Event::BatchStart { jobs: 0, unique: 0, workers: 0 });
        let backends = config
            .backends
            .iter()
            .map(|addr| BackendState {
                addr: addr.clone(),
                breaker: Mutex::new(Breaker::Closed { fails: 0 }),
                inflight: Arc::default(),
                jobs_done: AtomicU64::new(0),
                failures: AtomicU64::new(0),
            })
            .collect();
        let homes = Mutex::new(Homes { table: Vec::new(), count: vec![0; config.backends.len()] });
        FleetState { core, backends, homes, metrics: FleetMetrics::default(), config }
    }

    fn core(&self) -> &ServiceCore {
        &self.core
    }

    fn render_metrics(&self) -> String {
        let (core, backends) = (&self.core, self.backend_snapshots());
        self.metrics
            .registry(core.uptime_secs(), &core.http, &backends, &self.config.git_hash)
            .render_prometheus()
    }

    fn drain_totals(&self) -> (u64, u64, u64) {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        (get(&self.metrics.cache_hits), 0, get(&self.metrics.cells_failed))
    }

    /// `POST /v1/sweep` — answer the cached cells and fan the misses out
    /// over the backends inside the shared sweep frame; records stream as
    /// cells settle.
    fn handle_sweep(
        self: &Arc<Self>,
        request: &Request,
        stream: &mut TcpStream,
    ) -> Result<(), HttpError> {
        let plan = service::plan_sweep(&self.core, request)?;
        let jobs = &plan.jobs;
        inc(&self.metrics.sweeps);

        // Read first: each cell is read from the shared cache once, here,
        // with its read time. A hit is answered by the fleet itself; only
        // the misses are dispatched.
        let cache = self.core.cache.as_ref();
        let reads: Vec<Option<(SimStats, u64)>> = jobs
            .iter()
            .map(|(_, key)| {
                let t0 = Instant::now();
                let stats = cache.and_then(|c| c.load(key))?;
                Some((stats, t0.elapsed().as_micros() as u64))
            })
            .collect();
        let misses = reads.iter().filter(|read| read.is_none()).count();

        // Degraded admission: with no routable backend, a sweep with a miss
        // is shed *before* the stream starts, with a Retry-After matched to
        // the breaker cooldown. An all-hit sweep needs no backend.
        let usable = self.any_backend_usable(Instant::now());
        if !usable && misses > 0 {
            inc(&self.core.http.shed);
            let secs = self.config.breaker_cooldown.as_secs().max(1).to_string();
            return http::write_response(
                stream,
                503,
                "text/plain",
                &[("Retry-After", &secs)],
                b"no healthy backend and sweep is not fully cached; retry\n",
            )
            .map_err(|e| HttpError { status: 500, message: e.to_string() });
        }

        service::stream_sweep(&self.core, &plan, stream, |sink| {
            self.metrics.cells.fetch_add(jobs.len() as u64, Ordering::Relaxed);
            let cell_start_us = wall_us();
            // Tracing is armed per request: each cell parents under the
            // sweep span, each dispatch under its cell.
            let mut queued = VecDeque::with_capacity(misses);
            for (idx, read) in reads.into_iter().enumerate() {
                let task = CellTask {
                    idx,
                    started: None,
                    attempts: 0,
                    last_backend: None,
                    ctx: plan.ctx.map(|sweep| sweep.child()),
                };
                let Some((stats, read_us)) = read else {
                    queued.push_back(task);
                    continue;
                };
                self.count_hit(usable);
                let outcome = CellOutcome::hit(stats);
                settle_cell(self, &plan, &task, cell_start_us, read_us, outcome, sink);
            }
            // One worker per miss at most: an all-hit sweep starts none.
            let queue = CellQueue { state: Mutex::new((queued, misses)), ready: Condvar::new() };
            let n_workers = self.config.workers.max(1).min(misses);
            std::thread::scope(|scope| {
                for _ in 0..n_workers {
                    let (queue, plan) = (&queue, &plan);
                    scope.spawn(move || worker_loop(self, queue, plan, cell_start_us, sink));
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state(backends: &[&str], threshold: u32, cooldown: Duration) -> Arc<FleetState> {
        Arc::new(FleetState::new(FleetConfig {
            backends: backends.iter().map(|s| (*s).to_owned()).collect(),
            breaker_threshold: threshold,
            breaker_cooldown: cooldown,
            ..FleetConfig::default()
        }))
    }

    fn scene(i: usize) -> SceneKey {
        (SceneId::ALL[i], RenderConfig::tiny())
    }

    /// One pick at `now` whose reservation ends at once, as if its dispatch
    /// did.
    fn pick(state: &FleetState, exclude: Option<usize>, now: Instant) -> Option<usize> {
        state.pick_backend(scene(0), exclude, now).map(|r| r.backend)
    }

    #[test]
    fn breaker_opens_at_threshold_and_probes_after_cooldown() {
        let cooldown = Duration::from_millis(30);
        let state = test_state(&["a:1"], 2, cooldown);
        let now = Instant::now();
        assert_eq!(pick(&state, None, now), Some(0));
        state.on_backend_failure(0, now);
        assert_eq!(pick(&state, None, now), Some(0), "one failure is below the threshold");
        state.on_backend_failure(0, now);
        assert_eq!(pick(&state, None, now), None, "breaker must open at the threshold");
        assert!(!state.any_backend_usable(now));
        assert_eq!(state.metrics.breaker_opens.load(Ordering::Relaxed), 1);

        let later = now + cooldown;
        assert!(state.any_backend_usable(later), "cooldown expiry re-admits the backend");
        assert_eq!(pick(&state, None, later), Some(0), "first pick is the half-open probe");
        assert_eq!(pick(&state, None, later), None, "only one probe may be outstanding");

        // A successful probe re-closes the breaker; routing resumes.
        state.on_backend_success(0);
        assert_eq!(pick(&state, None, later), Some(0));
        assert_eq!(pick(&state, None, later), Some(0), "closed breaker routes freely");
    }

    #[test]
    fn failed_halfopen_probe_reopens_immediately() {
        let cooldown = Duration::from_millis(30);
        let state = test_state(&["a:1"], 1, cooldown);
        let now = Instant::now();
        state.on_backend_failure(0, now);
        let later = now + cooldown;
        assert_eq!(pick(&state, None, later), Some(0));
        state.on_backend_failure(0, later);
        assert_eq!(pick(&state, None, later), None, "failed probe must reopen the breaker");
        assert_eq!(state.metrics.breaker_opens.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn routing_prefers_least_loaded_and_respects_exclude() {
        let state = test_state(&["a:1", "b:2"], 3, Duration::from_secs(1));
        state.backends[0].inflight.store(5, Ordering::SeqCst);
        let now = Instant::now();
        let held = state.pick_backend(scene(0), None, now).expect("two closed backends");
        assert_eq!(held.backend, 1, "least-loaded backend wins");
        assert_eq!(state.backends[1].inflight.load(Ordering::SeqCst), 1, "the pick reserves");
        assert_eq!(pick(&state, Some(1), now), Some(0), "exclude forces the other backend");
        drop(held);
        assert_eq!(state.backends[1].inflight.load(Ordering::SeqCst), 0, "the drop releases");
        state.on_backend_failure(1, now);
        state.on_backend_failure(1, now);
        state.on_backend_failure(1, now);
        assert_eq!(pick(&state, None, now), Some(0), "open breaker drops out of routing");
        assert_eq!(pick(&state, Some(0), now), None, "no hedge target left");
    }

    /// A sweep's workers pick together, before any dispatch starts: each
    /// pick must count the ones before it. A third scene homed on backend
    /// 1 evens the home counts after the first pick, so only the first
    /// pick's reservation can send the second one to backend 1.
    #[test]
    fn consecutive_picks_spread_over_idle_backends() {
        let state = test_state(&["a:1", "b:2"], 3, Duration::from_secs(1));
        state.homes.lock().unwrap().set(scene(2), 1);
        let now = Instant::now();
        let first = state.pick_backend(scene(0), None, now).expect("idle pool");
        let second = state.pick_backend(scene(1), None, now).expect("idle pool");
        assert_eq!((first.backend, second.backend), (0, 1));
    }

    /// The routing rule through `pick_backend`, over random in-flight
    /// counts, breaker states, homes and hedges.
    #[test]
    fn routing_goes_home_within_the_slack_and_only_routing_moves_homes() {
        sms_sim::geom::check::for_cases(2_000, 27, |g| {
            let n = g.int(1, 4);
            let addrs: Vec<String> = (0..n).map(|i| format!("b:{i}")).collect();
            let addrs: Vec<&str> = addrs.iter().map(String::as_str).collect();
            let state = test_state(&addrs, 3, Duration::from_secs(3600));
            let now = Instant::now();
            let far = now + Duration::from_secs(3600);
            let mut loads = Vec::new();
            for i in 0..n {
                let closed = g.chance(0.7);
                if !closed {
                    let open = g.chance(0.5);
                    *state.lock_breaker(i) =
                        if open { Breaker::Open { until: far } } else { Breaker::HalfOpen };
                }
                let load = g.int(0, 4) as u64;
                state.backends[i].inflight.store(load, Ordering::SeqCst);
                loads.push(closed.then_some(load));
            }
            let home = g.chance(0.7).then(|| g.int(0, n - 1));
            let exclude = g.chance(0.3).then(|| g.int(0, n - 1));
            let count = {
                let mut homes = state.homes.lock().unwrap();
                for s in 1..g.int(1, 8) {
                    homes.set(scene(s), g.int(0, n - 1));
                }
                if let Some(h) = home {
                    homes.set(scene(0), h);
                }
                homes.count.clone()
            };

            let eligible = |i: usize| loads[i].filter(|_| Some(i) != exclude);
            let least = (0..n).filter_map(eligible).min();
            let picked = state.pick_backend(scene(0), exclude, now);
            let homes = state.homes.lock().unwrap();
            let after = homes.get(scene(0));
            for (b, &c) in homes.count.iter().enumerate() {
                assert_eq!(c, homes.table.iter().filter(|e| e.1 == b).count(), "count of {b}");
            }
            let (Some(least), Some(r)) = (least, &picked) else {
                assert!(picked.is_none() && least.is_none(), "a pick iff a routable backend");
                assert_eq!(after, home, "no pick moves no home");
                return;
            };
            let c = r.backend;
            let load = eligible(c).expect("the pick is routable and not excluded");
            assert!(load <= least + HOME_SLACK, "load {load} past the least {least}");
            assert_eq!(state.backends[c].inflight.load(Ordering::SeqCst), load + 1, "reserved");
            let qualifies = |h: usize| eligible(h).is_some_and(|l| l <= least + HOME_SLACK);
            match home {
                Some(h) if qualifies(h) => assert_eq!(c, h, "a qualifying home takes the cell"),
                _ => assert!(
                    (0..n).all(|i| eligible(i).is_none_or(|l| (load, count[c]) <= (l, count[i]))),
                    "otherwise the least loaded, ties to fewer homes"
                ),
            }
            let want = match (exclude, home) {
                (Some(_), _) => home,
                (None, Some(h)) if loads[h].is_some() => home,
                (None, _) => Some(c),
            };
            assert_eq!(after, want, "hedges and spills keep the home; a dead one is replaced");
        });
    }

    #[test]
    fn breaker_success_resets_the_failure_count() {
        let state = test_state(&["a:1"], 3, Duration::from_secs(1));
        let now = Instant::now();
        state.on_backend_failure(0, now);
        state.on_backend_failure(0, now);
        state.on_backend_success(0);
        state.on_backend_failure(0, now);
        state.on_backend_failure(0, now);
        assert_eq!(pick(&state, None, now), Some(0), "success must reset consecutive failures");
        state.on_backend_failure(0, now);
        assert_eq!(pick(&state, None, now), None);
    }

    #[test]
    fn metrics_schema_is_strict_and_labeled_per_backend() {
        let (m, http) = (FleetMetrics::default(), HttpCounters::default());
        inc(&http.requests);
        inc(&m.hedges);
        m.observe_cell(1234);
        let backends = vec![
            BackendSnapshot {
                addr: "127.0.0.1:1".to_owned(),
                up: true,
                jobs: 3,
                failures: 0,
                breaker_state: 0,
            },
            BackendSnapshot {
                addr: "127.0.0.1:2".to_owned(),
                up: false,
                jobs: 1,
                failures: 4,
                breaker_state: 2,
            },
        ];
        let text = m.registry(12.5, &http, &backends, "unknown").render_prometheus();
        sms_metrics::prom::validate(&text).expect("strict parse");
        let families = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
        assert_eq!(families, 21, "every family renders its header exactly once");
        assert!(text.contains("sms_fleet_backend_up{backend=\"127.0.0.1:1\"} 1"));
        assert!(text.contains("sms_fleet_backend_up{backend=\"127.0.0.1:2\"} 0"));
        assert!(text.contains("sms_fleet_backend_failures_total{backend=\"127.0.0.1:2\"} 4"));
        assert!(text.contains("sms_fleet_breaker_state{backend=\"127.0.0.1:1\"} 0"));
        assert!(text.contains("sms_fleet_breaker_state{backend=\"127.0.0.1:2\"} 2"));
        assert!(text.contains("sms_build_info{version=\""));
        assert!(text.contains("sms_fleet_uptime_seconds 12.5"));
    }
}
