//! The resident sweep server.
//!
//! One process holds the warm state a fleet of one-shot CLI sweeps keeps
//! rebuilding: prepared scenes (BVH included), the shared on-disk result
//! cache, the JSONL journal, and a live metrics registry. Requests are
//! split into `(scene, config, render)` jobs, deduplicated two ways —
//! within a request (like `Harness::try_run_batch`) and *across* requests
//! via a single-flight table, so two clients sweeping the same cell share
//! one execution — then run on the `sms-harness` worker pool through the
//! harness's own cell executor, held resident.
//!
//! Failure containment mirrors the harness: a panicking or
//! watchdog-aborted job becomes a structured `run_failed`/`run_timeout`
//! stream record, never a dropped connection; a stalled peer hits the
//! per-connection socket timeouts; an overloaded server sheds connections
//! and over-quota job batches with `503` + `Retry-After` instead of
//! queueing unboundedly.
//!
//! Accepting, routing, the sweep stream and the drain are the shared
//! [`crate::service`] skeleton; the scene table, the simulation permits
//! and the simulate step are [`sms_harness::Executor`]'s. This module is
//! what the backend adds: the admission gate and cross-request sharing of
//! a cell (a [`Flight`]).

use crate::http::{HttpError, Limits, Request};
use crate::metrics::{inc, ServerMetrics};
use crate::service::{self, Service, ServiceCore, Tier};
use sms_harness::trace::wall_us;
use sms_harness::{pool, CacheKey, Event, Executor, Flight, RunError, RunRequest};
use sms_sim::experiments::RunExports;
use sms_sim::gpu::SimStats;
use sms_sim::sim::RunLimits;
use sms_sim::Env;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
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
    /// JSONL journal path; `None` writes none (a service journal keeps
    /// no events in memory).
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
    /// The files every simulated (never a cached) job writes into the
    /// `SMS_OUT` run directory: `SMS_TRACE` timelines, stamped with the
    /// `SMS_TRACE_CTX` trace id for `sms-trace merge --sim`. The default
    /// writes none.
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
            sms_harness::storage_from_env(env, sms_harness::JOURNAL_FILE, d.cache_dir);
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

/// The backend [`Tier`]: what the handler threads share beyond the
/// [`ServiceCore`].
pub struct ServerState {
    core: ServiceCore,
    config: ServeConfig,
    metrics: ServerMetrics,
    /// The harness's cell executor, resident: scene table, simulation
    /// permits, simulate step.
    exec: Executor,
    /// Cross-request single flight, keyed by canonical cache key.
    inflight: Flight<(SimStats, &'static str)>,
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

    /// Runs one job through cache, single-flight table and executor: its
    /// stats and cache tier (`hit`, `miss`, or `shared` for a follower).
    /// Never panics outward; a follower always gets the leader's result.
    fn execute(
        &self,
        req: &RunRequest,
        key: &CacheKey,
    ) -> Result<(SimStats, &'static str), RunError> {
        let probe = || self.exec.cache().and_then(|cache| cache.load(key)).map(|s| (s, "hit"));
        // Cached cells never need coalescing: probe before touching the
        // single-flight table, so concurrent warm requests all report a
        // plain hit instead of racing one of them into a leader slot.
        if let Some(hit) = probe() {
            return Ok(hit);
        }
        let (outcome, led) = self.inflight.run(&key.canonical, || match probe() {
            Some(hit) => Ok(hit),
            None => {
                let scene = self.exec.scene(req.scene, &req.render).0?;
                Ok((self.exec.simulate(&scene, req, key)?.stats, "miss"))
            }
        });
        if led {
            return outcome;
        }
        inc(&self.metrics.singleflight_shared);
        outcome.map(|(stats, _)| (stats, "shared"))
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
        // job_finished pair shares its process-unique job id.
        core.journal.record(Event::BatchStart { jobs: 0, unique: 0, workers });
        let (limits, exports) = (config.run_limits, config.exports.clone());
        ServerState {
            exec: Executor::new(core.cache.clone(), workers, limits, exports)
                .with_faults(config.faults.clone()),
            core,
            metrics: ServerMetrics::default(),
            inflight: Flight::new(false, ""),
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
                let outcome = self.execute(req, key);
                let duration_us = job_start.elapsed().as_micros() as u64;
                self.metrics.observe_job(duration_us);
                if let Some(sweep_ctx) = &plan.ctx {
                    let mut attrs = vec![(
                        "cell".to_owned(),
                        format!("{}/{}", req.scene.name(), req.stack.label()),
                    )];
                    match &outcome {
                        Ok((_, cache)) => attrs.push(("cache".to_owned(), cache.to_string())),
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
                match &outcome {
                    Err(_) => inc(&self.metrics.jobs_failed),
                    Ok((_, "hit")) => inc(&self.metrics.cache_hits),
                    Ok((_, "miss")) => inc(&self.metrics.cache_misses),
                    Ok(_) => {}
                }
                let result = outcome.map(|(stats, cache)| (stats, cache.to_owned()));
                sink.settle(i, Some(worker), duration_us, result);
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
