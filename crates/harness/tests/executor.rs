//! The batch path through the shared cell executor: the journal keeps the
//! order it had before the executor existed, and the scene table outlives
//! a batch.

use sms_harness::{Event, Harness, HarnessConfig, RunRequest};
use sms_sim::config::RenderConfig;
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;

fn requests() -> Vec<RunRequest> {
    let render = RenderConfig::tiny();
    let mut reqs = Vec::new();
    for scene in [SceneId::Wknd, SceneId::Ship] {
        for stack in ["RB_8", "RB_8+SH_8+SK+RA"] {
            reqs.push(RunRequest::new(scene, stack.parse::<StackConfig>().unwrap(), render));
        }
    }
    reqs
}

/// `(event, job, worker, cache)`: the journal minus timings and payloads.
type Shape = (&'static str, Option<usize>, Option<usize>, Option<&'static str>);

fn shape(e: &Event) -> Shape {
    let hit = |h: bool| Some(if h { "hit" } else { "miss" });
    match *e {
        Event::BatchStart { .. } => ("batch_start", None, None, None),
        Event::JobQueued { job, .. } => ("job_queued", Some(job), None, None),
        Event::JobStarted { job, worker } => ("job_started", Some(job), Some(worker), None),
        Event::JobFinished { job, worker, cache_hit, .. } => {
            ("job_finished", Some(job), worker, hit(cache_hit))
        }
        Event::JobResumed { job, .. } => ("job_resumed", Some(job), None, None),
        Event::RunFailed { job, worker, .. } => ("run_failed", Some(job), Some(worker), None),
        Event::RunTimeout { job, worker, .. } => ("run_timeout", Some(job), Some(worker), None),
        Event::Span { .. } => ("span", None, None, None),
        Event::BatchEnd { .. } => ("batch_end", None, None, None),
    }
}

/// Captured from the parent commit, before any edit: a cold batch starts
/// and finishes each job on worker 0 in job order; a warm one answers every
/// job from the scheduler thread's probe (`worker: null`, no
/// `job_started`).
#[test]
fn cold_then_warm_journal_keeps_the_parent_order() {
    let dir = std::env::temp_dir().join(format!("sms-executor-{}-journal", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let harness = Harness::new(HarnessConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });
    harness.try_run_batch(&requests());
    harness.try_run_batch(&requests());

    let mut golden: Vec<Shape> = vec![("batch_start", None, None, None)];
    golden.extend((0..4).map(|j| ("job_queued", Some(j), None, None)));
    for j in 0..4 {
        golden.push(("job_started", Some(j), Some(0), None));
        golden.push(("job_finished", Some(j), Some(0), Some("miss")));
    }
    golden.push(("batch_end", None, None, None));
    golden.push(("batch_start", None, None, None));
    golden.extend((0..4).map(|j| ("job_queued", Some(j), None, None)));
    golden.extend((0..4).map(|j| ("job_finished", Some(j), None, Some("hit"))));
    golden.push(("batch_end", None, None, None));
    let journal: Vec<Shape> = harness.journal().events().iter().map(shape).collect();
    assert_eq!(journal, golden);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scene table lives as long as its harness: a second cold batch
/// (cache off) simulates again, equal stats, and builds nothing.
#[test]
fn a_second_cold_batch_reuses_the_scene_table() {
    let harness = Harness::new(HarnessConfig { workers: 2, cache_dir: None, ..Default::default() });
    let (first, first_summary) = harness.try_run_batch(&requests());
    let (second, second_summary) = harness.try_run_batch(&requests());
    let stats = |results: Vec<Result<sms_sim::experiments::RunResult, _>>| {
        results.into_iter().map(|r| r.unwrap().stats).collect::<Vec<_>>()
    };
    assert_eq!(stats(first), stats(second));
    assert_eq!(second_summary.cache_misses, 4, "the cache is off: both batches simulate");
    let scenes: Vec<&str> = first_summary.builds.iter().map(|b| b.scene.as_str()).collect();
    assert_eq!(scenes, ["WKND", "SHIP"]);
    assert!(second_summary.builds.is_empty(), "{:?}", second_summary.builds);
}
