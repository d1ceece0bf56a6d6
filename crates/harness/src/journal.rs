//! Structured run journal: one JSONL event per scheduler transition.
//!
//! A harness batch's journal also keeps its events in memory (a batch is
//! finite, and tests and callers assert on them); a resident service's is
//! write-through and keeps none. When an `SMS_OUT=<dir>` run directory is
//! set (`<dir>/journal.jsonl`; a fleet's is `<dir>/fleet.journal.jsonl`) —
//! or a path is configured explicitly — each event is appended to that file as
//! one JSON line, giving the repo its first machine-readable observability
//! stream:
//!
//! ```text
//! {"event":"batch_start","jobs":80,"unique":80,"workers":8}
//! {"event":"job_queued","job":0,"scene":"WKND","config":"RB_8","workload":"32x32x1","key":"sms-sim salt=1|..."}
//! {"event":"job_started","job":0,"worker":2}
//! {"event":"job_finished","job":0,"worker":2,"cache":"miss","cycles":184223,"duration_us":5120,"stats":{...}}
//! {"event":"run_failed","job":3,"worker":1,"kind":"panic","error":"...","duration_us":90}
//! {"event":"batch_end","jobs":80,"cache_hits":0,"cache_misses":80,"failed":1,"duration_us":412000}
//! ```
//!
//! `job_finished` lines carry the full counter set, so a served stream
//! (which is this codec) hands its client every cell's stats. No program
//! reads a journal back to recover state: a killed sweep's finished cells
//! are already in the result cache, and a re-run on that cache simulates
//! only the rest.

use crate::cache::{builds_to_json, metrics_to_json, record_to_json, stats_to_json};
use crate::json::Json;
use crate::{BatchMetrics, CacheKey, RunError, RunRequest, SceneBuild};
use sms_sim::gpu::{SimStats, StallBreakdown};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

/// One journal event. `job` ids index the batch's *deduplicated* job list;
/// `worker` is `None` for work the scheduler thread did itself (cache
/// probes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A batch was submitted.
    BatchStart {
        /// Requests in the batch, before deduplication.
        jobs: usize,
        /// Distinct jobs after deduplication.
        unique: usize,
        /// Worker threads the pool will use.
        workers: usize,
    },
    /// A deduplicated job entered the queue.
    JobQueued {
        /// Job id within the batch.
        job: usize,
        /// Scene name (paper spelling, e.g. `CHSNT`).
        scene: String,
        /// Stack-configuration label (e.g. `RB_8+SH_8+SK+RA`).
        config: String,
        /// Workload as `WxHxSPP`.
        workload: String,
        /// Canonical cache key — the job's stable identity across
        /// processes, the same one the result cache files it under.
        key: String,
    },
    /// A worker picked the job up.
    JobStarted {
        /// Job id within the batch.
        job: usize,
        /// Worker index.
        worker: usize,
    },
    /// The job's result is available.
    JobFinished {
        /// Job id within the batch.
        job: usize,
        /// Worker index; `None` when served from cache by the scheduler.
        worker: Option<usize>,
        /// Whether the result came from the on-disk cache.
        cache_hit: bool,
        /// Simulated cycles of the result.
        cycles: u64,
        /// Wall-clock microseconds spent on this job.
        duration_us: u64,
        /// The full counter set, when available: what a served stream's
        /// client reads as the cell's result.
        stats: Option<SimStats>,
        /// Stall attribution, when the run was armed (`SMS_BREAKDOWN` /
        /// `SMS_TRACE`). Cache hits never carry one — the cache stores
        /// only `SimStats`, byte-identical with attribution on or off.
        breakdown: Option<StallBreakdown>,
    },
    /// The job was aborted by the per-run watchdog (budget or stall).
    RunTimeout {
        /// Job id within the batch.
        job: usize,
        /// Worker index that ran the job.
        worker: usize,
        /// Watchdog class: `cycle_budget` or `stalled`.
        kind: String,
        /// Full diagnostic rendering (includes the state snapshot).
        error: String,
        /// Wall-clock microseconds spent before the abort.
        duration_us: u64,
    },
    /// The job failed (panic, deadlock or invariant violation).
    RunFailed {
        /// Job id within the batch.
        job: usize,
        /// Worker index that ran the job.
        worker: usize,
        /// Failure class: `panic`, `deadlock` or `invariant`.
        kind: String,
        /// Full diagnostic rendering.
        error: String,
        /// Wall-clock microseconds spent before the failure.
        duration_us: u64,
    },
    /// One completed tracing span (client → fleet → backend request
    /// correlation). Only recorded for requests that carried an
    /// `x-sms-trace` header, so untraced journals are byte-identical to
    /// pre-tracing ones. Unknown to older readers, which skip it — the
    /// codec passes unrecognized event lines through.
    Span {
        /// Trace id, 16 lowercase hex digits; shared by every span of one
        /// request end to end.
        trace: String,
        /// This span's id, 16 lowercase hex digits, never all-zero.
        span: String,
        /// Parent span id (16 hex digits); `None` for a root span.
        parent: Option<String>,
        /// Span name from the fixed taxonomy (`sweep`, `cell`, `dispatch`,
        /// `job`, `client`).
        name: String,
        /// Role of this node: `client` (outbound request), `server`
        /// (inbound request), or `internal`.
        kind: String,
        /// Wall-clock start, microseconds since the Unix epoch — one
        /// timebase across processes so merged timelines line up.
        start_us: u64,
        /// Span duration in microseconds.
        dur_us: u64,
        /// Free-form string attributes (`cell`, `backend`, `attempt`,
        /// `cache`, `breaker_state`, `outcome`, ...), rendered
        /// as a JSON object in insertion order.
        attrs: Vec<(String, String)>,
    },
    /// The batch completed; counters cover the deduplicated jobs.
    BatchEnd {
        /// Deduplicated jobs executed or served.
        jobs: usize,
        /// Jobs served from the cache.
        cache_hits: usize,
        /// Jobs that re-simulated.
        cache_misses: usize,
        /// Jobs that failed or timed out.
        failed: usize,
        /// Batch wall-clock microseconds.
        duration_us: u64,
        /// Total simulated cycles across the deduplicated jobs.
        sim_cycles: u64,
        /// Aggregated stall attribution over the jobs that produced one.
        breakdown: Option<StallBreakdown>,
        /// Batch-wide stack-telemetry digest over the metrics-armed jobs
        /// (`SMS_METRICS`): merged-histogram percentiles, not averages.
        metrics: Option<BatchMetrics>,
        /// Per-scene BVH build wall times for the scenes this batch
        /// prepared (cache-only batches prepare none, so this is empty).
        builds: Vec<SceneBuild>,
    },
}

impl Event {
    /// `job_queued` for job `job`: `req` under its cache key.
    pub fn queued(job: usize, req: &RunRequest, key: &CacheKey) -> Event {
        let (w, h, spp) = req.render.workload(req.scene);
        Event::JobQueued {
            job,
            scene: req.scene.name().to_owned(),
            config: req.stack.label(),
            workload: format!("{w}x{h}x{spp}"),
            key: key.canonical.clone(),
        }
    }

    /// The line that settles job `job`, for every tier: `job_finished` for
    /// `(stats, cache_hit, breakdown)`, else `run_timeout` for a watchdog
    /// abort and `run_failed` for anything else (worker 0 when there was
    /// none).
    pub fn settled(
        job: usize,
        worker: Option<usize>,
        duration_us: u64,
        outcome: Result<(&SimStats, bool, Option<StallBreakdown>), &RunError>,
    ) -> Event {
        match outcome {
            Ok((stats, cache_hit, breakdown)) => Event::JobFinished {
                job,
                worker,
                cache_hit,
                cycles: stats.cycles,
                duration_us,
                stats: Some(*stats),
                breakdown,
            },
            Err(err) => {
                let (worker, kind, error) =
                    (worker.unwrap_or(0), err.kind().to_owned(), err.to_string());
                if err.is_timeout() {
                    Event::RunTimeout { job, worker, kind, error, duration_us }
                } else {
                    Event::RunFailed { job, worker, kind, error, duration_us }
                }
            }
        }
    }

    /// A span event from a [`TraceContext`](crate::TraceContext) — the
    /// hex rendering and parent plumbing in one place, so recording sites
    /// stay one call.
    pub fn span(
        ctx: &crate::TraceContext,
        name: &str,
        kind: &str,
        start_us: u64,
        dur_us: u64,
        attrs: Vec<(String, String)>,
    ) -> Event {
        Event::Span {
            trace: ctx.trace_hex(),
            span: ctx.span_hex(),
            parent: ctx.parent_hex(),
            name: name.to_owned(),
            kind: kind.to_owned(),
            start_us,
            dur_us,
            attrs,
        }
    }

    /// The event as one JSON object (the journal line, sans newline).
    pub fn to_json(&self) -> Json {
        let own = |s: &str| s.to_owned();
        let stalls = |b: &Option<StallBreakdown>| {
            b.map_or(Json::Null, |b| record_to_json(&StallBreakdown::FIELDS, b.values()))
        };
        match self {
            Event::BatchStart { jobs, unique, workers } => Json::Obj(vec![
                (own("event"), Json::Str(own("batch_start"))),
                (own("jobs"), Json::U64(*jobs as u64)),
                (own("unique"), Json::U64(*unique as u64)),
                (own("workers"), Json::U64(*workers as u64)),
            ]),
            Event::JobQueued { job, scene, config, workload, key } => Json::Obj(vec![
                (own("event"), Json::Str(own("job_queued"))),
                (own("job"), Json::U64(*job as u64)),
                (own("scene"), Json::Str(scene.clone())),
                (own("config"), Json::Str(config.clone())),
                (own("workload"), Json::Str(workload.clone())),
                (own("key"), Json::Str(key.clone())),
            ]),
            Event::JobStarted { job, worker } => Json::Obj(vec![
                (own("event"), Json::Str(own("job_started"))),
                (own("job"), Json::U64(*job as u64)),
                (own("worker"), Json::U64(*worker as u64)),
            ]),
            Event::JobFinished {
                job,
                worker,
                cache_hit,
                cycles,
                duration_us,
                stats,
                breakdown,
            } => Json::Obj(vec![
                (own("event"), Json::Str(own("job_finished"))),
                (own("job"), Json::U64(*job as u64)),
                (own("worker"), worker.map_or(Json::Null, |w| Json::U64(w as u64))),
                (own("cache"), Json::Str(own(if *cache_hit { "hit" } else { "miss" }))),
                (own("cycles"), Json::U64(*cycles)),
                (own("duration_us"), Json::U64(*duration_us)),
                (own("stats"), stats.as_ref().map_or(Json::Null, stats_to_json)),
                (own("breakdown"), stalls(breakdown)),
            ]),
            Event::RunTimeout { job, worker, kind, error, duration_us } => Json::Obj(vec![
                (own("event"), Json::Str(own("run_timeout"))),
                (own("job"), Json::U64(*job as u64)),
                (own("worker"), Json::U64(*worker as u64)),
                (own("kind"), Json::Str(kind.clone())),
                (own("error"), Json::Str(error.clone())),
                (own("duration_us"), Json::U64(*duration_us)),
            ]),
            Event::RunFailed { job, worker, kind, error, duration_us } => Json::Obj(vec![
                (own("event"), Json::Str(own("run_failed"))),
                (own("job"), Json::U64(*job as u64)),
                (own("worker"), Json::U64(*worker as u64)),
                (own("kind"), Json::Str(kind.clone())),
                (own("error"), Json::Str(error.clone())),
                (own("duration_us"), Json::U64(*duration_us)),
            ]),
            Event::Span { trace, span, parent, name, kind, start_us, dur_us, attrs } => {
                Json::Obj(vec![
                    (own("event"), Json::Str(own("span"))),
                    (own("trace"), Json::Str(trace.clone())),
                    (own("span"), Json::Str(span.clone())),
                    (own("parent"), parent.as_ref().map_or(Json::Null, |p| Json::Str(p.clone()))),
                    (own("name"), Json::Str(name.clone())),
                    (own("kind"), Json::Str(kind.clone())),
                    (own("start_us"), Json::U64(*start_us)),
                    (own("dur_us"), Json::U64(*dur_us)),
                    (
                        own("attrs"),
                        Json::Obj(
                            attrs.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect(),
                        ),
                    ),
                ])
            }
            Event::BatchEnd {
                jobs,
                cache_hits,
                cache_misses,
                failed,
                duration_us,
                sim_cycles,
                breakdown,
                metrics,
                builds,
            } => {
                // Aggregate throughput is derived at serialization time so
                // the event itself stays integral (and `Eq`).
                let secs = *duration_us as f64 / 1e6;
                let rate = |n: u64| if secs > 0.0 { n as f64 / secs } else { 0.0 };
                Json::Obj(vec![
                    (own("event"), Json::Str(own("batch_end"))),
                    (own("jobs"), Json::U64(*jobs as u64)),
                    (own("cache_hits"), Json::U64(*cache_hits as u64)),
                    (own("cache_misses"), Json::U64(*cache_misses as u64)),
                    (own("failed"), Json::U64(*failed as u64)),
                    (own("duration_us"), Json::U64(*duration_us)),
                    (own("sim_cycles"), Json::U64(*sim_cycles)),
                    (own("runs_per_sec"), Json::F64(rate(*jobs as u64))),
                    (own("sim_cycles_per_sec"), Json::F64(rate(*sim_cycles))),
                    (own("breakdown"), stalls(breakdown)),
                    (own("metrics"), metrics.as_ref().map_or(Json::Null, metrics_to_json)),
                    (own("builds"), builds_to_json(builds)),
                ])
            }
        }
    }
}

struct Inner {
    /// Every event so far; `None` for a write-through journal.
    events: Option<Vec<Event>>,
    sink: Option<File>,
    /// `SMS_JOURNAL_SYNC=1`: fsync after every line (crash-safe against
    /// power loss, not just process death).
    sync: bool,
}

/// Thread-safe event collector; workers record through a shared reference.
pub struct Journal {
    inner: Mutex<Inner>,
}

impl Journal {
    /// A journal that keeps every event in memory and optionally appends
    /// JSONL to `path`, fsyncing every line when `sync`. An unopenable path
    /// disables the file sink (the in-memory journal still works).
    pub fn new(path: Option<PathBuf>, sync: bool) -> Self {
        Self::open(path, sync, Some(Vec::new()))
    }

    /// A journal that only writes `path` (as [`Journal::new`] does) and
    /// keeps nothing in memory: [`Journal::events`] stays empty. For a
    /// process that journals without end.
    pub fn write_through(path: Option<PathBuf>, sync: bool) -> Self {
        Self::open(path, sync, None)
    }

    fn open(path: Option<PathBuf>, sync: bool, events: Option<Vec<Event>>) -> Self {
        let sink = path.and_then(|p| OpenOptions::new().create(true).append(true).open(p).ok());
        Journal { inner: Mutex::new(Inner { events, sink, sync }) }
    }

    /// Records one event (and writes its JSONL line, if a sink is set).
    ///
    /// The line is rendered first and written with a single `write_all`
    /// (one syscall on the happy path, line + newline together), so a
    /// process killed mid-sweep loses at most the line being written —
    /// never interleaved fragments of two lines, and never a line sitting
    /// in a userspace buffer. With `SMS_JOURNAL_SYNC=1` each line is also
    /// fsynced before `record` returns.
    pub fn record(&self, event: Event) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let sync = inner.sync;
        if let Some(f) = inner.sink.as_mut() {
            let line = format!("{}\n", event.to_json());
            let _ = f.write_all(line.as_bytes());
            let _ = f.flush();
            if sync {
                let _ = f.sync_data();
            }
        }
        if let Some(events) = inner.events.as_mut() {
            events.push(event);
        }
    }

    /// Forces the sink to stable storage (drain/shutdown path). A no-op
    /// without a file sink.
    pub fn flush(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(f) = inner.sink.as_mut() {
            let _ = f.flush();
            let _ = f.sync_data();
        }
    }

    /// Snapshot of all events recorded so far (none for a write-through
    /// journal).
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).events.clone().unwrap_or_default()
    }

    /// Events recorded since (and including) the most recent `BatchStart`.
    pub fn last_batch(&self) -> Vec<Event> {
        let events = self.events();
        let start = events.iter().rposition(|e| matches!(e, Event::BatchStart { .. })).unwrap_or(0);
        events[start..].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_to_one_object_each() {
        let e = Event::JobFinished {
            job: 3,
            worker: None,
            cache_hit: true,
            cycles: 99,
            duration_us: 12,
            stats: Some(SimStats { cycles: 99, ..Default::default() }),
            breakdown: Some(StallBreakdown { compute: 7, ..Default::default() }),
        };
        let line = e.to_json().to_string();
        let doc = crate::json::parse(&line).unwrap();
        assert_eq!(doc.get("event").unwrap().as_str(), Some("job_finished"));
        assert_eq!(doc.get("worker").unwrap(), &Json::Null);
        assert_eq!(doc.u64_field("cycles"), Some(99));
        let stats = crate::cache::stats_from_json(doc.get("stats").unwrap()).unwrap();
        assert_eq!(stats.cycles, 99);
        let b =
            crate::cache::record_from_json(doc.get("breakdown").unwrap(), &StallBreakdown::FIELDS);
        assert_eq!(b.map(StallBreakdown::from_values).unwrap().compute, 7);
    }

    #[test]
    fn failure_events_serialize() {
        let e = Event::RunFailed {
            job: 1,
            worker: 2,
            kind: "panic".to_owned(),
            error: "boom".to_owned(),
            duration_us: 7,
        };
        let doc = crate::json::parse(&e.to_json().to_string()).unwrap();
        assert_eq!(doc.get("event").unwrap().as_str(), Some("run_failed"));
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("panic"));
        let e = Event::RunTimeout {
            job: 1,
            worker: 2,
            kind: "stalled".to_owned(),
            error: "no progress".to_owned(),
            duration_us: 7,
        };
        let doc = crate::json::parse(&e.to_json().to_string()).unwrap();
        assert_eq!(doc.get("event").unwrap().as_str(), Some("run_timeout"));
    }

    #[test]
    fn zero_duration_batch_end_serializes_finite_rates() {
        // Regression guard: a batch served entirely from cache can finish
        // in 0µs at the journal's clock resolution; the derived throughput
        // fields must come out as 0, not NaN (which would render the line
        // unparseable if it ever slipped past the writer's null guard).
        let e = Event::BatchEnd {
            jobs: 5,
            cache_hits: 5,
            cache_misses: 0,
            failed: 0,
            duration_us: 0,
            sim_cycles: 1_000,
            breakdown: None,
            metrics: None,
            builds: vec![SceneBuild { scene: "SHIP".to_owned(), prims: 6321, build_us: 480 }],
        };
        let doc = crate::json::parse(&e.to_json().to_string()).unwrap();
        assert_eq!(doc.get("runs_per_sec").unwrap().as_f64(), Some(0.0));
        assert_eq!(doc.get("sim_cycles_per_sec").unwrap().as_f64(), Some(0.0));
        assert_eq!(doc.get("breakdown"), Some(&Json::Null));
        let builds = crate::cache::builds_from_json(doc.get("builds").unwrap()).unwrap();
        assert_eq!(builds.len(), 1);
        assert_eq!(builds[0].scene, "SHIP");
        assert_eq!(builds[0].build_us, 480);
    }

    #[test]
    fn journal_written_through_sink_survives_truncated_tail() {
        // The durability contract end to end: events written through the
        // real file sink (one flushed `write_all` per line), the process is
        // then "killed" mid-write — simulated by truncating the file inside
        // the final line — and every fully-written line must still parse.
        let dir = std::env::temp_dir().join(format!("sms-durab-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        {
            let j = Journal::new(Some(path.clone()), false);
            j.record(Event::BatchStart { jobs: 2, unique: 2, workers: 1 });
            for (job, key) in [(0usize, "k0"), (1, "k1")] {
                j.record(Event::JobQueued {
                    job,
                    scene: "A".to_owned(),
                    config: "c".to_owned(),
                    workload: "w".to_owned(),
                    key: key.to_owned(),
                });
                j.record(Event::JobFinished {
                    job,
                    worker: Some(0),
                    cache_hit: false,
                    cycles: 5,
                    duration_us: 1,
                    stats: Some(SimStats { cycles: 5, ..Default::default() }),
                    breakdown: None,
                });
            }
            j.flush();
        }
        // SIGKILL mid-line: chop the file 20 bytes into the last line.
        let text = std::fs::read_to_string(&path).unwrap();
        let last_line_start = text.trim_end().rfind('\n').unwrap() + 1;
        std::fs::write(&path, &text.as_bytes()[..last_line_start + 20]).unwrap();
        let torn = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = torn.lines().collect();
        assert_eq!(lines.len(), 5, "four whole lines and the torn one");
        let (last, whole) = lines.split_last().unwrap();
        for line in whole {
            crate::json::parse(line).unwrap_or_else(|e| panic!("whole line must parse: {e}"));
        }
        assert!(crate::json::parse(last).is_err(), "the torn line must not parse: `{last}`");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn last_batch_cuts_at_latest_start() {
        let j = Journal::new(None, false);
        j.record(Event::BatchStart { jobs: 1, unique: 1, workers: 1 });
        j.record(Event::BatchEnd {
            jobs: 1,
            cache_hits: 0,
            cache_misses: 1,
            failed: 0,
            duration_us: 5,
            sim_cycles: 42,
            breakdown: None,
            metrics: None,
            builds: Vec::new(),
        });
        j.record(Event::BatchStart { jobs: 2, unique: 2, workers: 1 });
        let last = j.last_batch();
        assert_eq!(last.len(), 1);
        assert!(matches!(last[0], Event::BatchStart { jobs: 2, .. }));
    }
}
