//! `sms-harness`: the experiment-execution subsystem.
//!
//! Every paper figure/table is a sweep of `(scene, stack config)` runs of
//! the deterministic cycle simulator. This crate turns those sweeps from
//! serial loops into scheduled batches:
//!
//! * **Deduplication** — identical requests in one batch run once (the
//!   `RB_8` baseline appears in nearly every figure's matrix).
//! * **Parallel execution** — a `std::thread` worker pool sized to the
//!   available cores (`SMS_JOBS=N` overrides), running each cell through
//!   the [`Executor`], whose scene table builds each [`PreparedScene`]
//!   once and shares it across workers and batches via [`Arc`].
//! * **Result caching** — a content-addressed on-disk cache
//!   ([`ResultCache`]) makes re-running a figure harness a set of cache
//!   hits (`SMS_NO_CACHE=1` bypasses it).
//! * **Observability** — a structured JSONL run [`Journal`] plus an
//!   end-of-batch [`BatchSummary`].
//!
//! Results are merged in *request order* regardless of completion order,
//! and the simulator is deterministic, so a parallel batch is exactly equal
//! to the serial loop it replaces (`tests/parallel_vs_serial.rs` asserts
//! this).
//!
//! ```no_run
//! use sms_harness::{Harness, RunRequest};
//! use sms_sim::config::RenderConfig;
//! use sms_sim::rtunit::StackConfig;
//! use sms_sim::scene::SceneId;
//!
//! let harness = Harness::from_env(&sms_harness::capture_env());
//! let render = RenderConfig::fast();
//! let reqs = vec![
//!     RunRequest::new(SceneId::Ship, StackConfig::baseline8(), render),
//!     RunRequest::new(SceneId::Ship, StackConfig::sms_default(), render),
//! ];
//! let (results, summary) = harness.run_batch(&reqs);
//! eprintln!("{summary}");
//! assert_eq!(results[0].scene, SceneId::Ship);
//! ```

// A failed sweep job must surface as a `RunError`, never abort the
// process: no unwrap/expect in library code (tests are exempt via
// clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod error;
pub mod executor;
pub mod faultinject;
pub mod journal;
pub mod json;
pub mod log;
pub mod pool;
pub mod trace;

pub use cache::{CacheKey, KeyTail, ResultCache, SIM_VERSION_SALT};
pub use error::RunError;
pub use executor::{Executor, Flight};
pub use faultinject::{CacheFault, FaultPlan};
pub use journal::{Event, Journal};
pub use pool::JobPanic;
pub use sms_sim::sim::{RunLimits, SimFault};
pub use trace::{TraceContext, TRACE_HEADER};

use sms_metrics::HistSummary;
use sms_sim::config::RenderConfig;
use sms_sim::experiments::{RunExports, RunResult};
use sms_sim::gpu::{GpuConfig, StallBreakdown};
use sms_sim::render::PreparedScene;
use sms_sim::rtunit::StackConfig;
use sms_sim::rtunit::StackMetrics;
use sms_sim::scene::SceneId;
use sms_sim::Env;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `(scene, stack, gpu, render)` simulation job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunRequest {
    /// The scene to simulate.
    pub scene: SceneId,
    /// The traversal-stack architecture under test.
    pub stack: StackConfig,
    /// GPU parameters; the stack's shared-memory carveout is applied on
    /// top, exactly as in `experiments::run_prepared`.
    pub gpu: GpuConfig,
    /// Workload sizing.
    pub render: RenderConfig,
    /// Per-request watchdog limits and validation, layered over the
    /// harness-wide limits field by field. Deliberately *not* part of the
    /// cache key: limits and validation never change simulation results,
    /// only whether a run is allowed to finish.
    pub limits: RunLimits,
}

impl RunRequest {
    /// A request on the Table I GPU.
    pub fn new(scene: SceneId, stack: StackConfig, render: RenderConfig) -> Self {
        RunRequest { scene, stack, gpu: GpuConfig::default(), render, limits: RunLimits::none() }
    }

    /// The same request with an explicit GPU configuration (L1 sweeps etc.).
    pub fn with_gpu(mut self, gpu: GpuConfig) -> Self {
        self.gpu = gpu;
        self
    }

    /// The same request with per-run watchdog limits / validation.
    pub fn with_limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
        self
    }
}

/// Construction-time knobs for a [`Harness`].
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Worker threads for the pool. Defaults to the available parallelism.
    pub workers: usize,
    /// Result-cache directory; `None` disables caching entirely.
    pub cache_dir: Option<PathBuf>,
    /// JSONL journal sink; `None` keeps the journal in memory only.
    pub journal_path: Option<PathBuf>,
    /// Harness-wide watchdog limits / validation, applied to every run
    /// (per-request limits take precedence field by field).
    pub limits: RunLimits,
    /// The files every simulated run writes into the run directory
    /// (`SMS_OUT`: `SMS_TRACE` timelines, `SMS_METRICS` dumps); the default
    /// writes none. An armed trace export arms attribution, so such
    /// batches always simulate (see [`Harness::try_run_batch`]).
    pub exports: RunExports,
    /// fsync the journal after every event (`SMS_JOURNAL_SYNC`).
    pub journal_sync: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            workers: default_workers(),
            cache_dir: Some(default_cache_dir()),
            journal_path: None,
            limits: RunLimits::none(),
            exports: RunExports::default(),
            journal_sync: false,
        }
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The workspace-level `target/sms-cache`, anchored at compile time so
/// every binary (tests, benches, examples) shares one cache no matter
/// which package directory cargo runs it from.
pub fn default_cache_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/sms-cache"))
}

/// The journal's name in the run directory, for the CLI harness and a
/// backend (one process per directory).
pub const JOURNAL_FILE: &str = "journal.jsonl";
/// The fleet's journal name, so a fleet and a backend may share a
/// directory.
pub const FLEET_JOURNAL_FILE: &str = "fleet.journal.jsonl";
/// The structured log's name in the run directory.
pub const LOG_FILE: &str = "log.jsonl";

/// The process edge of every binary built on the harness: snapshots the
/// environment, creates the `SMS_OUT` run directory, configures the logger
/// (which may write into it) and emits the snapshot's warnings, once. Call
/// first thing in `main` and pass the snapshot down.
pub fn capture_env() -> Env {
    let env = Env::capture();
    let out = env.path("SMS_OUT");
    let made = out.as_ref().map(|dir| std::fs::create_dir_all(dir).map_err(|e| (dir, e)));
    log::init(&env);
    if let Some(Err((dir, e))) = made {
        log::warn("env", &format!("SMS_OUT: cannot create {}: {e}", dir.display()), &[]);
    }
    if env.flag("SMS_TRACE") && out.is_none() {
        log::warn("env", "SMS_TRACE: no SMS_OUT run directory to write to — not tracing", &[]);
    }
    env
}

/// `(cache_dir, journal_path)`, read the same way by the CLI harness and
/// both serving tiers: `SMS_NO_CACHE` disables the cache, otherwise
/// `SMS_CACHE_DIR` relocates it from `default_cache_dir`; the journal is
/// the tier's `journal_file` ([`JOURNAL_FILE`] or [`FLEET_JOURNAL_FILE`])
/// in the `SMS_OUT` run directory, and none without one.
pub fn storage_from_env(
    env: &Env,
    journal_file: &str,
    default_cache_dir: Option<PathBuf>,
) -> (Option<PathBuf>, Option<PathBuf>) {
    let no_cache = env.flag("SMS_NO_CACHE");
    let cache_dir = env.path("SMS_CACHE_DIR").or(default_cache_dir).filter(|_| !no_cache);
    (cache_dir, env.path("SMS_OUT").map(|dir| dir.join(journal_file)))
}

/// The files every run of this process writes into the `SMS_OUT` run
/// directory: an `SMS_TRACE` timeline, and the dumps of every run
/// `SMS_METRICS` arms. Timelines are stamped with the trace id of an
/// explicit `SMS_TRACE_CTX=<trace>-<span>`; `1`/`auto` mint a context only
/// a client can propagate, so they stamp nothing.
pub fn exports_from_env(env: &Env) -> RunExports {
    let ctx = env.text("SMS_TRACE_CTX").and_then(TraceContext::parse);
    RunExports {
        dir: env.path("SMS_OUT"),
        trace: env.flag("SMS_TRACE"),
        trace_id: ctx.map(|ctx| ctx.trace_hex()),
    }
}

impl HarnessConfig {
    /// The defaults overridden by the snapshot's `harness` rows of
    /// `sms_sim::env::DECLS` (the table in `EXPERIMENTS.md`).
    pub fn from_env(env: &Env) -> Self {
        let d = HarnessConfig::default();
        let (cache_dir, journal_path) = storage_from_env(env, JOURNAL_FILE, d.cache_dir);
        HarnessConfig {
            workers: env.positive("SMS_JOBS").map_or(d.workers, |n| n as usize),
            cache_dir,
            journal_path,
            limits: RunLimits::from_env(env),
            exports: exports_from_env(env),
            journal_sync: env.flag("SMS_JOURNAL_SYNC"),
        }
    }
}

/// Wall time spent building one scene's BVH during batch preparation —
/// the build-throughput counterpart to the runs/s plumbing, carried on
/// [`BatchSummary::builds`] and the journal's `batch_end` line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SceneBuild {
    /// Scene name (paper spelling, e.g. `SHIP`).
    pub scene: String,
    /// Primitive count the builder consumed.
    pub prims: u64,
    /// BVH build wall time (binary build + collapse + flatten), µs.
    pub build_us: u64,
}

/// End-of-batch accounting, also emitted as the journal's `batch_end`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSummary {
    /// Requests submitted (before deduplication).
    pub jobs: usize,
    /// Distinct jobs after deduplication.
    pub unique_jobs: usize,
    /// Jobs served from the result cache.
    pub cache_hits: usize,
    /// Jobs that ran the simulator.
    pub cache_misses: usize,
    /// Jobs that failed or were aborted by the watchdog.
    pub failed: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Batch wall-clock time.
    pub wall: Duration,
    /// Total simulated cycles across the deduplicated jobs.
    pub sim_cycles: u64,
    /// Aggregated stall attribution over the jobs that produced one
    /// (`SMS_BREAKDOWN` / `SMS_TRACE`, or per-request limits). `None` when
    /// no job was armed.
    pub breakdown: Option<StallBreakdown>,
    /// Aggregated stack-telemetry digest over the jobs that produced a
    /// metrics report (`SMS_METRICS`, or per-request limits). Per-job
    /// histograms are merged first, then summarized — so the percentiles
    /// are batch-wide, not averages of per-job percentiles. `None` when no
    /// job was armed.
    pub metrics: Option<BatchMetrics>,
    /// Per-scene BVH build wall times for the scenes this batch built
    /// (empty when every job was a cache hit or found its scene built by
    /// an earlier batch of the same [`Harness`]).
    pub builds: Vec<SceneBuild>,
}

/// Batch-wide digest of the merged [`StackMetrics`] histograms: the
/// distributional headlines (`p50`/`p95`/`p99`) that make a journal line
/// or summary printout useful without shipping full bucket vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchMetrics {
    /// Traversal-stack depth observed at every push.
    pub stack_depth: HistSummary,
    /// Per-ray RT-unit residency latency in cycles.
    pub ray_latency: HistSummary,
    /// Total stack entries spilled to the global backing stack.
    pub spills: u64,
    /// Total stack entries reloaded from the global backing stack.
    pub reloads: u64,
}

impl BatchMetrics {
    /// Digests merged per-job stack metrics into the batch summary form.
    pub fn from_stacks(stacks: &StackMetrics) -> Self {
        let total = |h: &sms_metrics::Histogram| u64::try_from(h.sum()).unwrap_or(u64::MAX);
        BatchMetrics {
            stack_depth: stacks.depth_at_push.summary(),
            ray_latency: stacks.ray_latency.summary(),
            spills: total(&stacks.ray_spills),
            reloads: total(&stacks.ray_reloads),
        }
    }
}

impl BatchSummary {
    /// Aggregate throughput in deduplicated runs per wall-clock second.
    pub fn runs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.unique_jobs as f64 / secs
        } else {
            0.0
        }
    }

    /// Aggregate throughput in simulated cycles per wall-clock second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.sim_cycles as f64 / secs
        } else {
            0.0
        }
    }
}

impl fmt::Display for BatchSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs ({} unique) on {} workers: {} cache hits, {} simulated, \
             {} failed, {:.2}s ({:.1} runs/s, {:.2e} sim-cycles/s)",
            self.jobs,
            self.unique_jobs,
            self.workers,
            self.cache_hits,
            self.cache_misses,
            self.failed,
            self.wall.as_secs_f64(),
            self.runs_per_sec(),
            self.sim_cycles_per_sec()
        )
    }
}

/// The experiment-execution engine. Cheap to construct; hold one per
/// process and feed it batches. Its [`Executor`]'s scene table lives as
/// long as it does, so a scene is built once per harness, not per batch.
pub struct Harness {
    workers: usize,
    journal: Journal,
    exec: Executor,
}

impl Harness {
    /// A harness from explicit configuration.
    pub fn new(config: HarnessConfig) -> Self {
        let workers = config.workers.max(1);
        let cache = config.cache_dir.map(ResultCache::new);
        Harness {
            workers,
            journal: Journal::new(config.journal_path, config.journal_sync),
            exec: Executor::new(cache, workers, config.limits, config.exports),
        }
    }

    /// A harness configured by [`HarnessConfig::from_env`].
    pub fn from_env(env: &Env) -> Self {
        Harness::new(HarnessConfig::from_env(env))
    }

    /// The run journal (in-memory event stream).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The result cache, if enabled.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.exec.cache()
    }

    /// Executes a batch. Identical requests are deduplicated, scenes are
    /// prepared once each, cache hits skip simulation — and the returned
    /// results are positionally aligned with `requests`, with stats equal
    /// to what the serial `experiments` loops produce.
    ///
    /// # Panics
    ///
    /// Panics on the first failed run, like the serial loop it replaces
    /// would. Sweeps that must survive individual failures use
    /// [`Harness::try_run_batch`].
    pub fn run_batch(&self, requests: &[RunRequest]) -> (Vec<RunResult>, BatchSummary) {
        let (results, summary) = self.try_run_batch(requests);
        let results = results
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|e| panic!("batch request {i} failed: {e}")))
            .collect();
        (results, summary)
    }

    /// Fault-tolerant batch execution: every request yields either its
    /// result or the [`RunError`] that stopped it, positionally aligned
    /// with `requests`. One panicking, livelocked or invariant-violating
    /// run cannot take down the rest of the batch — it is journalled as
    /// `run_failed` / `run_timeout` and isolated to its own slot.
    pub fn try_run_batch(
        &self,
        requests: &[RunRequest],
    ) -> (Vec<Result<RunResult, RunError>>, BatchSummary) {
        let t0 = Instant::now();
        let exec = &self.exec;
        let micros = |since: Instant| since.elapsed().as_micros() as u64;

        // 1. Dedupe on the canonical cache key (also the identity used for
        //    the on-disk cache, so "same key" always means "same stats") —
        //    plus the limits, which are *not* in the cache key but can
        //    change how a job ends (aborted vs completed), so requests
        //    differing only in limits stay distinct jobs.
        //    The keys share one `KeyTail`: the GPU and render tail is most
        //    of a key and rarely changes within a batch. Hashes are
        //    compared first, so a string is read only for a duplicate.
        let mut job_of_request = Vec::with_capacity(requests.len());
        let mut jobs: Vec<(RunRequest, CacheKey)> = Vec::new();
        let mut tail = KeyTail::default();
        for req in requests {
            let key = exec.key(req, &mut tail);
            let same = jobs.iter().position(|(other, k)| {
                k.hash == key.hash && other.limits == req.limits && k.canonical == key.canonical
            });
            let job = same.unwrap_or_else(|| {
                jobs.push((*req, key));
                jobs.len() - 1
            });
            job_of_request.push(job);
        }

        self.journal.record(Event::BatchStart {
            jobs: requests.len(),
            unique: jobs.len(),
            workers: self.workers,
        });
        for (j, (req, key)) in jobs.iter().enumerate() {
            self.journal.record(Event::queued(j, req, key));
        }

        // Jobs whose effective limits (or the harness's trace export) arm
        // stall attribution or metrics telemetry must actually *run*: the
        // cache stores only `SimStats` — byte-identical with observation on
        // or off — so a hit could not supply the breakdown or metrics
        // report (or write the trace file). Such jobs skip the probe below;
        // their stats still land in the cache afterwards for unarmed future
        // sweeps.
        let trace_armed = exec.exports.traced();
        let armed = |req: &RunRequest| {
            let limits = req.limits.or(exec.limits);
            trace_armed || limits.breakdown || limits.metrics
        };

        // 2. Probe the cache on the scheduler thread (tiny JSON reads).
        let mut slots: Vec<Option<Result<RunResult, RunError>>> = vec![None; jobs.len()];
        let mut hits = 0usize;
        if let Some(cache) = exec.cache() {
            for (j, (req, key)) in jobs.iter().enumerate().filter(|(_, (req, _))| !armed(req)) {
                let probe_start = Instant::now();
                if let Some(stats) = cache.load(key) {
                    hits += 1;
                    let finished = Ok((&stats, true, None));
                    self.journal.record(Event::settled(j, None, micros(probe_start), finished));
                    let (scene, stack) = (req.scene, req.stack);
                    let result = RunResult { scene, stack, stats, breakdown: None, metrics: None };
                    slots[j] = Some(Ok(result));
                }
            }
        }
        let misses: Vec<usize> = (0..jobs.len()).filter(|&j| slots[j].is_none()).collect();

        // 3. Warm the executor's scene table with each distinct (scene,
        //    render) of the misses, in parallel; step 4 reads it back. A
        //    panicking build is not kept, so it fails only the jobs that
        //    need that scene, when their step 4 retries it.
        let mut scene_keys: Vec<(SceneId, RenderConfig)> = Vec::new();
        for &j in &misses {
            let key = (jobs[j].0.scene, jobs[j].0.render);
            if !scene_keys.contains(&key) {
                scene_keys.push(key);
            }
        }
        let prepared = pool::run_indexed(self.workers, scene_keys.len(), |i, _| {
            let (id, render) = scene_keys[i];
            (id, exec.scene(id, &render))
        });
        let builds: Vec<SceneBuild> = prepared
            .iter()
            .filter_map(|(id, (scene, built))| {
                let p = scene.as_ref().ok().filter(|_| *built)?;
                let (prims, build_us) = (p.scene.prims.len() as u64, p.build_us);
                Some(SceneBuild { scene: id.name().to_owned(), prims, build_us })
            })
            .collect();

        // 4. Simulate the misses on the pool; slot by job id, so merge
        //    order is deterministic regardless of completion order. The
        //    pool's own `catch_unwind` nets a panic that escapes the
        //    simulator.
        let journal = &self.journal;
        let sim_results = pool::try_run_indexed(self.workers, misses.len(), |i, worker| {
            let job = misses[i];
            let (req, key) = &jobs[job];
            journal.record(Event::JobStarted { job, worker });
            let job_start = Instant::now();
            let scene = exec.scene(req.scene, &req.render).0;
            let outcome = scene.and_then(|scene| exec.simulate(&scene, req, key));
            let finished = outcome.as_ref().map(|r| (&r.stats, false, r.breakdown));
            journal.record(Event::settled(job, Some(worker), micros(job_start), finished));
            outcome
        });
        for (&j, outcome) in misses.iter().zip(sim_results) {
            // A panic that escaped the closure before it could journal —
            // journal it here so the record is complete.
            slots[j] = Some(outcome.unwrap_or_else(|p| {
                let err = RunError::Panicked { worker: p.worker, message: p.message };
                self.journal.record(Event::settled(j, Some(p.worker), 0, Err(&err)));
                Err(err)
            }));
        }

        let done = || slots.iter().flatten().filter_map(|r| r.as_ref().ok());
        let failed = slots.iter().flatten().filter(|r| r.is_err()).count();
        let sim_cycles: u64 = done().map(|r| r.stats.cycles).sum();
        let mut batch_breakdown: Option<StallBreakdown> = None;
        let mut batch_stacks: Option<StackMetrics> = None;
        for r in done() {
            if let Some(b) = &r.breakdown {
                batch_breakdown.get_or_insert_with(StallBreakdown::default).merge(b);
            }
            if let Some(m) = &r.metrics {
                batch_stacks.get_or_insert_with(StackMetrics::default).merge(&m.stacks);
            }
        }
        let batch_metrics = batch_stacks.as_ref().map(BatchMetrics::from_stacks);
        let summary = BatchSummary {
            jobs: requests.len(),
            unique_jobs: jobs.len(),
            cache_hits: hits,
            cache_misses: misses.len(),
            failed,
            workers: self.workers,
            wall: t0.elapsed(),
            sim_cycles,
            breakdown: batch_breakdown,
            metrics: batch_metrics,
            builds,
        };
        self.journal.record(Event::BatchEnd {
            jobs: jobs.len(),
            cache_hits: hits,
            cache_misses: misses.len(),
            failed,
            duration_us: summary.wall.as_micros() as u64,
            sim_cycles,
            breakdown: batch_breakdown,
            metrics: batch_metrics,
            builds: summary.builds.clone(),
        });

        // Every job is a hit or a miss that step 4
        // slotted; requests sharing a job share its scene and stack.
        let results = job_of_request
            .iter()
            .map(|&j| slots[j].clone().unwrap_or_else(|| unreachable!("batch job never resolved")))
            .collect();
        (results, summary)
    }

    /// Runs every `(scene, config)` pair on the Table I GPU; results are
    /// grouped per scene in the order given — the parallel, cached
    /// equivalent of `sms_sim::experiments::run_suite`.
    pub fn run_suite(
        &self,
        scenes: &[SceneId],
        configs: &[StackConfig],
        render: &RenderConfig,
    ) -> (Vec<Vec<RunResult>>, BatchSummary) {
        let requests: Vec<RunRequest> = scenes
            .iter()
            .flat_map(|&id| configs.iter().map(move |&stack| RunRequest::new(id, stack, *render)))
            .collect();
        let (flat, summary) = self.run_batch(&requests);
        let grouped = flat.chunks(configs.len().max(1)).map(<[RunResult]>::to_vec).collect();
        (grouped, summary)
    }

    /// Fault-tolerant [`Harness::run_suite`]: each `(scene, config)` cell
    /// is its own `Result`, so one failed run leaves the rest of the matrix
    /// usable.
    pub fn try_run_suite(
        &self,
        scenes: &[SceneId],
        configs: &[StackConfig],
        render: &RenderConfig,
    ) -> (Vec<Vec<Result<RunResult, RunError>>>, BatchSummary) {
        let requests: Vec<RunRequest> = scenes
            .iter()
            .flat_map(|&id| configs.iter().map(move |&stack| RunRequest::new(id, stack, *render)))
            .collect();
        let (flat, summary) = self.try_run_batch(&requests);
        let mut grouped = Vec::with_capacity(scenes.len());
        let mut it = flat.into_iter();
        for _ in scenes {
            grouped.push(it.by_ref().take(configs.len()).collect());
        }
        (grouped, summary)
    }

    /// The scenes (BVH included) from the executor's scene table, built on
    /// the worker pool where missing, one build per distinct scene (a
    /// build that panics panics here); duplicates share the same [`Arc`].
    /// Returned in input order.
    pub fn prepare_scenes(
        &self,
        scenes: &[SceneId],
        render: &RenderConfig,
    ) -> Vec<Arc<PreparedScene>> {
        pool::run_indexed(self.workers, scenes.len(), |i, _| {
            self.exec.scene(scenes[i], render).0.unwrap_or_else(|e| panic!("{e}"))
        })
    }
}
