//! The resident sweep server.
//!
//! One process holds the warm state a fleet of one-shot CLI sweeps keeps
//! rebuilding: prepared scenes (BVH included), the shared on-disk result
//! cache, the JSONL journal, and a live metrics registry. Requests are
//! split into `(scene, config, render)` jobs, deduplicated two ways —
//! within a request (like `Harness::try_run_batch`) and *across* requests
//! via a single-flight table, so two clients sweeping the same cell share
//! one execution — then run on the `sms-harness` worker pool with global
//! admission permits bounding concurrent simulations.
//!
//! Failure containment mirrors the harness: a panicking or
//! watchdog-aborted job becomes a structured `run_failed`/`run_timeout`
//! stream record, never a dropped connection; a stalled peer hits the
//! per-connection socket timeouts; an overloaded server sheds connections
//! and over-quota job batches with `503` + `Retry-After` instead of
//! queueing unboundedly.
//!
//! Accepting, routing, the sweep stream and the drain are the shared
//! [`crate::service`] skeleton; this module is what the backend adds:
//! the admission gate, the single-flight table, the simulation permits
//! and the warm scene tier.

use crate::http::{HttpError, Limits, Request};
use crate::metrics::{inc, ServerMetrics};
use crate::protocol::{JobFailure, JobOutcome};
use crate::service::{self, Service, ServiceCore, Tier};
use sms_harness::trace::wall_us;
use sms_harness::{pool, CacheKey, Event, RunError};
use sms_sim::config::RenderConfig;
use sms_sim::experiments::{try_run_exporting, RunExports};
use sms_sim::gpu::SimStats;
use sms_sim::render::PreparedScene;
use sms_sim::sim::RunLimits;
use sms_sim::Env;
use std::collections::HashMap;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Construction-time server knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads per sweep request *and* the global cap on
    /// concurrently executing simulations across all requests.
    pub workers: usize,
    /// Active-connection bound; connections beyond it are shed with 503.
    pub max_conns: usize,
    /// Per-request job cap (`scenes × configs`); larger sweeps get a 400.
    pub max_jobs_per_request: usize,
    /// Global in-flight job bound; sweeps that would exceed it are shed
    /// with 503 + `Retry-After`.
    pub max_inflight_jobs: usize,
    /// HTTP parsing limits and socket timeouts.
    pub limits: Limits,
    /// Shared result-cache directory; `None` disables the warm disk tier.
    pub cache_dir: Option<PathBuf>,
    /// JSONL journal path; `None` keeps the journal in memory only.
    pub journal_path: Option<PathBuf>,
    /// Watchdog limits applied to every served run. The observation
    /// arms (`breakdown`/`metrics`) are ignored: served streams carry
    /// `SimStats` only, byte-identical either way.
    pub run_limits: RunLimits,
    /// Deterministic fault-injection plan (`SMS_FAULT`), threaded through
    /// the accept/respond paths and the cache. `None` (the default) means
    /// no fault code runs at all — behaviour is byte-identical to a build
    /// without the chaos layer.
    pub faults: Option<Arc<sms_harness::FaultPlan>>,
    /// The files every simulated (never a cached) job writes: `SMS_TRACE`
    /// timelines, stamped with the `SMS_TRACE_CTX` trace id for
    /// `sms-trace merge --sim`. The default writes none.
    pub exports: RunExports,
    /// fsync the journal after every event (`SMS_JOURNAL_SYNC`).
    pub journal_sync: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            max_conns: 64,
            max_jobs_per_request: 256,
            max_inflight_jobs: (workers * 8).max(64),
            limits: Limits::default(),
            cache_dir: Some(sms_harness::default_cache_dir()),
            journal_path: None,
            run_limits: RunLimits::none(),
            faults: None,
            exports: RunExports::default(),
            journal_sync: false,
        }
    }
}

impl ServeConfig {
    /// The defaults overridden by the snapshot's `serve` rows of
    /// `sms_sim::env::DECLS` (the table in `EXPERIMENTS.md`). Bounds and
    /// timeouts have no variable: `--workers` is a flag, the rest are the
    /// fields above.
    pub fn from_env(env: &Env) -> Self {
        let d = ServeConfig::default();
        let (cache_dir, journal_path) =
            sms_harness::storage_from_env(env, "SMS_SERVE_JOURNAL", d.cache_dir);
        // Served streams carry `SimStats` only: the observation arms stay
        // off whatever `SMS_BREAKDOWN` / `SMS_METRICS` say.
        let run_limits = RunLimits { breakdown: false, metrics: false, ..RunLimits::from_env(env) };
        ServeConfig {
            addr: env.text("SMS_SERVE_ADDR").unwrap_or("127.0.0.1:7745").to_owned(),
            cache_dir,
            journal_path,
            run_limits,
            faults: sms_harness::FaultPlan::from_env(env),
            exports: sms_harness::exports_from_env(env),
            journal_sync: env.flag("SMS_JOURNAL_SYNC"),
            ..d
        }
    }
}

/// How a job's result was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    /// Loaded from the shared on-disk cache.
    Hit,
    /// Simulated by this request.
    Miss,
    /// Attached to another request's in-flight execution (single-flight).
    Shared,
}

impl Served {
    fn label(self) -> &'static str {
        match self {
            Served::Hit => "hit",
            Served::Miss => "miss",
            Served::Shared => "shared",
        }
    }
}

/// A single-flight cell: the leader publishes exactly once, followers
/// block on the condvar.
#[derive(Default)]
struct JobCell {
    done: Mutex<Option<Result<SimStats, RunError>>>,
    cv: Condvar,
}

impl JobCell {
    fn publish(&self, result: Result<SimStats, RunError>) {
        let mut slot = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<SimStats, RunError> {
        let mut slot = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.cv.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One prepared scene, or why its build failed (a failed slot is dropped
/// from the table as soon as its waiters have the error).
type SceneSlot = OnceLock<Result<Arc<PreparedScene>, RunError>>;

/// Counting semaphore bounding concurrent simulations server-wide.
struct SimPermits {
    free: Mutex<usize>,
    cv: Condvar,
}

impl SimPermits {
    fn new(n: usize) -> Self {
        SimPermits { free: Mutex::new(n.max(1)), cv: Condvar::new() }
    }

    fn acquire(&self) {
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        while *free == 0 {
            free = self.cv.wait(free).unwrap_or_else(PoisonError::into_inner);
        }
        *free -= 1;
    }

    fn release(&self) {
        *self.free.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.cv.notify_one();
    }
}

/// The backend [`Tier`]: what the handler threads share beyond the
/// [`ServiceCore`].
pub struct ServerState {
    core: ServiceCore,
    config: ServeConfig,
    metrics: ServerMetrics,
    /// Warm prepared-scene tier, keyed by `(scene, render)` debug string.
    /// A slot is filled once, by whoever asked first (`prepare_once`).
    scenes: Mutex<HashMap<String, Arc<SceneSlot>>>,
    /// Scene builds started, for the single-flight tests: a statistic, so
    /// `Relaxed`.
    pub(crate) scene_builds: AtomicU64,
    /// Single-flight table, keyed by canonical cache key.
    inflight: Mutex<HashMap<String, Arc<JobCell>>>,
    permits: SimPermits,
}

/// A bound (or running) sweep server.
pub type Server = Service<ServerState>;

/// `n` admitted jobs' share of `max_inflight_jobs`, given back on drop so
/// no early return between admission and the end of the sweep leaks it.
struct Admitted<'a> {
    metrics: &'a ServerMetrics,
    n: u64,
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.metrics.jobs_in_flight.fetch_sub(self.n, Ordering::SeqCst);
    }
}

impl ServerState {
    /// Global admission: shed rather than queue unboundedly.
    fn admit(&self, jobs: usize) -> Result<Admitted<'_>, HttpError> {
        let (n, max) = (jobs as u64, self.config.max_inflight_jobs as u64);
        self.metrics
            .jobs_in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |now| {
                (now + n <= max).then_some(now + n)
            })
            .map_err(|now| {
                inc(&self.core.http.shed);
                HttpError { status: 503, message: format!("{now} jobs in flight; retry later") }
            })?;
        Ok(Admitted { metrics: &self.metrics, n })
    }

    /// Fetches (building and retaining on first use) a prepared scene.
    fn prepared_scene(
        &self,
        scene: sms_sim::scene::SceneId,
        render: &RenderConfig,
    ) -> Result<Arc<PreparedScene>, RunError> {
        self.prepare_once(format!("{scene:?}|{render:?}"), || PreparedScene::build(scene, render))
    }

    /// Single-flight preparation: the first requester of `key` runs `build`
    /// and every concurrent one blocks on it — preparation happens before a
    /// simulation permit is taken, so a cold scene would otherwise be built
    /// once per connection thread that misses. A build panic surfaces as a
    /// structured error to every waiter, and a failed build is *not*
    /// retained, so a later request retries it.
    fn prepare_once(
        &self,
        key: String,
        build: impl FnOnce() -> PreparedScene,
    ) -> Result<Arc<PreparedScene>, RunError> {
        let lock = || self.scenes.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = Arc::clone(lock().entry(key.clone()).or_default());
        let outcome = slot.get_or_init(|| {
            self.scene_builds.fetch_add(1, Ordering::Relaxed);
            catch_unwind(AssertUnwindSafe(|| Arc::new(build()))).map_err(|payload| {
                RunError::Panicked {
                    worker: 0,
                    message: format!(
                        "scene preparation panicked: {}",
                        pool::panic_message(payload)
                    ),
                }
            })
        });
        if outcome.is_err() {
            let mut table = lock();
            if table.get(&key).is_some_and(|current| Arc::ptr_eq(current, &slot)) {
                table.remove(&key);
            }
        }
        outcome.clone()
    }

    /// Runs one job through cache, single-flight table and simulator.
    /// Never panics outward; always publishes to followers.
    fn execute(
        &self,
        req: &sms_harness::RunRequest,
        key: &CacheKey,
    ) -> (Result<SimStats, RunError>, Served) {
        // Cached cells never need coalescing: probe before touching the
        // single-flight table, so concurrent warm requests all report a
        // plain hit instead of racing one of them into a leader slot.
        if let Some(cache) = &self.core.cache {
            if let Some(stats) = cache.load(key) {
                return (Ok(stats), Served::Hit);
            }
        }
        // Single-flight: first requester of a key becomes the leader.
        let cell = {
            let mut table = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
            match table.get(&key.canonical) {
                Some(cell) => {
                    let cell = Arc::clone(cell);
                    drop(table);
                    inc(&self.metrics.singleflight_shared);
                    return (cell.wait(), Served::Shared);
                }
                None => {
                    let cell = Arc::new(JobCell::default());
                    table.insert(key.canonical.clone(), Arc::clone(&cell));
                    cell
                }
            }
        };

        // Leader path. The catch_unwind turns any panic below into a
        // structured error so followers can never be left waiting.
        let outcome = catch_unwind(AssertUnwindSafe(|| self.execute_leader(req, key)))
            .unwrap_or_else(|payload| {
                (
                    Err(RunError::Panicked { worker: 0, message: pool::panic_message(payload) }),
                    Served::Miss,
                )
            });
        cell.publish(outcome.0.clone());
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner).remove(&key.canonical);
        outcome
    }

    fn execute_leader(
        &self,
        req: &sms_harness::RunRequest,
        key: &CacheKey,
    ) -> (Result<SimStats, RunError>, Served) {
        if let Some(cache) = &self.core.cache {
            if let Some(stats) = cache.load(key) {
                return (Ok(stats), Served::Hit);
            }
        }
        let scene = match self.prepared_scene(req.scene, &req.render) {
            Ok(scene) => scene,
            Err(e) => return (Err(e), Served::Miss),
        };
        self.permits.acquire();
        let limits = req.limits.or(self.config.run_limits);
        let exports = &self.config.exports;
        let result = try_run_exporting(&scene, req.stack, req.gpu, &req.render, &limits, exports);
        self.permits.release();
        match result {
            Ok(run) => {
                if let Some(cache) = &self.core.cache {
                    cache.store(key, &run.stats);
                }
                (Ok(run.stats), Served::Miss)
            }
            Err(fault) => (Err(RunError::from_fault(fault)), Served::Miss),
        }
    }
}

impl Tier for ServerState {
    const NAME: &'static str = "server";
    type Config = ServeConfig;

    fn addr(config: &ServeConfig) -> &str {
        &config.addr
    }

    fn new(config: ServeConfig) -> Self {
        let core = ServiceCore::new(
            config.limits,
            config.max_conns,
            config.max_jobs_per_request,
            config.cache_dir.clone(),
            config.journal_path.clone(),
            config.journal_sync,
            config.faults.clone(),
        );
        let workers = config.workers.max(1);
        // One batch_start at process scope: every later job_queued /
        // job_finished pair keys the journal for SMS_RESUME replay.
        core.journal.record(Event::BatchStart { jobs: 0, unique: 0, workers });
        ServerState {
            core,
            metrics: ServerMetrics::default(),
            scenes: Mutex::new(HashMap::new()),
            scene_builds: AtomicU64::new(0),
            inflight: Mutex::new(HashMap::new()),
            permits: SimPermits::new(workers),
            config,
        }
    }

    fn core(&self) -> &ServiceCore {
        &self.core
    }

    fn render_metrics(&self) -> String {
        self.metrics.registry(self.core.uptime_secs(), &self.core.http).render_prometheus()
    }

    fn drain_totals(&self) -> (u64, u64, u64) {
        let get = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        (
            get(&self.metrics.cache_hits),
            get(&self.metrics.cache_misses),
            get(&self.metrics.jobs_failed),
        )
    }

    fn observe_request(&self, micros: u64) {
        self.metrics.observe_request(micros);
    }

    /// `POST /v1/sweep` — admit, then execute on the pool inside the shared
    /// sweep frame.
    fn handle_sweep(
        self: &Arc<Self>,
        request: &Request,
        stream: &mut TcpStream,
    ) -> Result<(), HttpError> {
        let plan = service::plan_sweep(&self.core, request)?;
        let jobs = &plan.jobs;
        let admitted = self.admit(jobs.len())?;
        service::stream_sweep(&self.core, &plan, stream, move |sink| {
            // Held until the last job settles, then released before the
            // frame writes its summary.
            let _admitted = admitted;
            self.metrics.jobs.fetch_add(jobs.len() as u64, Ordering::Relaxed);
            pool::try_run_indexed(self.config.workers, jobs.len(), |i, worker| {
                // A killed worker does nothing more, like a dead process.
                if self.core.killed() {
                    return;
                }
                let (req, key) = &jobs[i];
                self.core.journal.record(Event::JobStarted { job: sink.journal_id(i), worker });
                let job_start = Instant::now();
                let job_start_us = wall_us();
                let (outcome, served) = self.execute(req, key);
                let duration_us = job_start.elapsed().as_micros() as u64;
                self.metrics.observe_job(duration_us);
                if let Some(sweep_ctx) = &plan.ctx {
                    let mut attrs = vec![(
                        "cell".to_owned(),
                        format!("{}/{}", req.scene.name(), req.stack.label()),
                    )];
                    match &outcome {
                        Ok(_) => attrs.push(("cache".to_owned(), served.label().to_owned())),
                        Err(e) => attrs.push(("error".to_owned(), e.kind().to_owned())),
                    }
                    attrs.push(("worker".to_owned(), worker.to_string()));
                    self.core.journal.record(Event::span(
                        &sweep_ctx.child(),
                        "job",
                        "internal",
                        job_start_us,
                        duration_us,
                        attrs,
                    ));
                }
                match (&outcome, served) {
                    (Err(_), _) => inc(&self.metrics.jobs_failed),
                    (Ok(_), Served::Hit) => inc(&self.metrics.cache_hits),
                    (Ok(_), Served::Miss) => inc(&self.metrics.cache_misses),
                    (Ok(_), Served::Shared) => {}
                }
                let result = outcome.map(|stats| (stats, served.label().to_owned())).map_err(|e| {
                    JobFailure {
                        kind: e.kind().to_owned(),
                        error: e.to_string(),
                        timeout: e.is_timeout(),
                    }
                });
                sink.settle(i, JobOutcome { worker: Some(worker), duration_us, result });
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sms_sim::scene::SceneId;

    /// A sweep whose peer is gone before the response head can be written
    /// errors out *after* admission; its share of `max_inflight_jobs` must
    /// come back, or enough such sweeps make the backend shed everything.
    #[test]
    fn error_after_admission_releases_jobs_in_flight() {
        let state = Arc::new(ServerState::new(ServeConfig::default()));
        // A socket pair by hand; the skeleton's accept loop is not involved.
        let pair = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(pair.local_addr().unwrap()).unwrap();
        let (mut stream, _) = pair.accept().unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let request = Request {
            method: "POST".to_owned(),
            path: "/v1/sweep".to_owned(),
            query: String::new(),
            headers: Vec::new(),
            body: br#"{"scenes":["WKND","SHIP"],"configs":["RB_8"],"render":"tiny"}"#.to_vec(),
        };
        let err = state.handle_sweep(&request, &mut stream).unwrap_err();
        assert_eq!(err.status, 500, "the response head cannot be written: {err}");
        assert_eq!(state.metrics.jobs_in_flight.load(Ordering::SeqCst), 0);
        assert!(state.render_metrics().contains("sms_serve_jobs_in_flight 0\n"));
    }

    /// Runs `request` on `n` threads released together; their results.
    fn race<T: Send>(n: usize, request: impl Fn() -> T + Sync) -> Vec<T> {
        let barrier = std::sync::Barrier::new(n);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        request()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("requester panicked")).collect()
        })
    }

    /// The fleet keeps up to four single-cell sweeps open per backend, and
    /// preparation runs before a permit is taken: a table that is only
    /// checked and then filled lets every thread that misses build the
    /// scene for itself.
    #[test]
    fn concurrent_requests_for_a_cold_scene_share_one_build() {
        let state = ServerState::new(ServeConfig { cache_dir: None, ..ServeConfig::default() });
        let render = RenderConfig::tiny();
        let scenes = race(6, || state.prepared_scene(SceneId::Fox, &render).expect("FOX builds"));
        assert_eq!(state.scene_builds.load(Ordering::Relaxed), 1, "one build for six requesters");
        assert!(scenes.iter().all(|s| Arc::ptr_eq(s, &scenes[0])), "and one scene shared");
        // Retained: a later request builds nothing.
        state.prepared_scene(SceneId::Fox, &render).expect("warm");
        assert_eq!(state.scene_builds.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_panicking_build_fails_every_waiter_and_is_not_retained() {
        let state = ServerState::new(ServeConfig { cache_dir: None, ..ServeConfig::default() });
        let failures = race(6, || state.prepare_once("k".to_owned(), || panic!("no such mesh")));
        for failure in failures {
            let Err(RunError::Panicked { message, .. }) = failure else {
                panic!("a waiter was handed a scene from a build that panicked");
            };
            assert_eq!(message, "scene preparation panicked: no such mesh");
        }
        assert!(state.scenes.lock().unwrap().is_empty(), "the failed slot was dropped");
        let builds = state.scene_builds.load(Ordering::Relaxed);
        let render = RenderConfig::tiny();
        let retried =
            state.prepare_once("k".to_owned(), || PreparedScene::build(SceneId::Wknd, &render));
        assert!(retried.is_ok(), "a later request retries the build");
        assert_eq!(state.scene_builds.load(Ordering::Relaxed), builds + 1);
    }
}
