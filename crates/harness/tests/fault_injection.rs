//! Fault injection: one poisoned run must never take down a sweep.
//!
//! Each test injects a different failure class — a panicking run, a
//! watchdog abort (cycle budget / stall), a corrupt cache entry, a killed
//! sweep re-run on its cache — and asserts the exact batch-level
//! contract: every other job completes, results stay positionally aligned
//! with the requests, and the journal records the failure as a structured
//! `run_failed` / `run_timeout` event.

use sms_harness::{Event, Harness, HarnessConfig, RunError, RunLimits, RunRequest};
use sms_sim::config::RenderConfig;
use sms_sim::gpu::GpuConfig;
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sms-fault-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quiet_harness(workers: usize, cache: Option<PathBuf>) -> Harness {
    Harness::new(HarnessConfig {
        workers,
        cache_dir: cache,
        journal_path: None,
        ..HarnessConfig::default()
    })
}

fn good(scene: SceneId, stack: StackConfig) -> RunRequest {
    RunRequest::new(scene, stack, RenderConfig::tiny())
}

/// A request whose simulation panics before retiring anything: zero SMs
/// makes the warp-distribution `wid % num_sms` divide by zero.
fn panicking() -> RunRequest {
    good(SceneId::Wknd, StackConfig::baseline8())
        .with_gpu(GpuConfig { num_sms: 0, ..GpuConfig::default() })
}

#[test]
fn injected_panic_is_isolated_and_journalled() {
    let reqs = [
        good(SceneId::Wknd, StackConfig::baseline8()),
        panicking(),
        good(SceneId::Wknd, StackConfig::sms_default()),
    ];
    for workers in [1, 4] {
        let harness = quiet_harness(workers, None);
        let (results, summary) = harness.try_run_batch(&reqs);

        // Partial results, in request order.
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap().scene, SceneId::Wknd);
        assert_eq!(results[0].as_ref().unwrap().stack, StackConfig::baseline8());
        assert_eq!(results[2].as_ref().unwrap().stack, StackConfig::sms_default());
        let err = results[1].as_ref().unwrap_err();
        assert_eq!(err.kind(), "panic");
        assert!(!err.is_timeout());
        assert!(
            matches!(err, RunError::Panicked { message, .. } if message.contains("divisor of zero")),
            "panic payload must survive to the caller: {err}"
        );

        assert_eq!(summary.failed, 1);
        assert_eq!(summary.cache_misses, 3, "the failed job still counted as scheduled");

        // Exactly one run_failed event, for the panicking job, kind=panic.
        let failures: Vec<Event> = harness
            .journal()
            .last_batch()
            .into_iter()
            .filter(|e| matches!(e, Event::RunFailed { .. }))
            .collect();
        assert_eq!(failures.len(), 1);
        assert!(matches!(
            &failures[0],
            Event::RunFailed { job: 1, kind, error, .. }
                if kind == "panic" && error.contains("divisor of zero")
        ));
        // And the healthy jobs finished normally.
        let finished = harness
            .journal()
            .last_batch()
            .iter()
            .filter(|e| matches!(e, Event::JobFinished { .. }))
            .count();
        assert_eq!(finished, 2);
    }
}

#[test]
fn cycle_budget_watchdog_aborts_with_snapshot() {
    let limits = RunLimits {
        max_cycles: Some(50),
        stall_cycles: None,
        validate: false,
        breakdown: false,
        metrics: false,
    };
    let reqs = [
        good(SceneId::Wknd, StackConfig::baseline8()).with_limits(limits),
        good(SceneId::Wknd, StackConfig::sms_default()),
    ];
    let harness = quiet_harness(2, None);
    let (results, summary) = harness.try_run_batch(&reqs);

    let err = results[0].as_ref().unwrap_err();
    assert_eq!(err.kind(), "cycle_budget");
    assert!(err.is_timeout());
    match err {
        RunError::CycleBudget { limit, at_cycle, snapshot } => {
            assert_eq!(*limit, 50);
            assert!(*at_cycle >= 50);
            assert!(snapshot.contains("SM"), "diagnostic snapshot must describe SM state");
        }
        other => panic!("expected CycleBudget, got {other}"),
    }
    assert!(results[1].is_ok(), "unlimited request must complete");
    assert_eq!(summary.failed, 1);

    let timeouts: Vec<Event> = harness
        .journal()
        .last_batch()
        .into_iter()
        .filter(|e| matches!(e, Event::RunTimeout { .. }))
        .collect();
    assert_eq!(timeouts.len(), 1);
    assert!(matches!(
        &timeouts[0],
        Event::RunTimeout { job: 0, kind, .. } if kind == "cycle_budget"
    ));
}

#[test]
fn stall_watchdog_aborts_livelocked_run() {
    // A 1-cycle stall tolerance treats the first memory-latency bubble as
    // a livelock — exactly the forward-progress detector firing.
    let limits = RunLimits {
        max_cycles: None,
        stall_cycles: Some(1),
        validate: false,
        breakdown: false,
        metrics: false,
    };
    let reqs = [
        good(SceneId::Wknd, StackConfig::baseline8()).with_limits(limits),
        good(SceneId::Wknd, StackConfig::baseline8()),
    ];
    let harness = quiet_harness(2, None);
    let (results, summary) = harness.try_run_batch(&reqs);

    let err = results[0].as_ref().unwrap_err();
    assert_eq!(err.kind(), "stalled");
    assert!(err.is_timeout());
    assert!(matches!(err, RunError::Stalled { stall_cycles: 1, .. }));
    assert!(results[1].is_ok(), "identical request without limits completes normally");
    assert_eq!(summary.failed, 1);
    assert_eq!(
        summary.unique_jobs, 2,
        "limits are not part of the dedupe key, but these differ in nothing else — \
         the watchdogged request and the free one must still be distinct jobs"
    );
}

#[test]
fn tight_stall_window_survives_long_but_live_run() {
    // Forward progress is counted in completed RT micro-events (fetch
    // responses, node-op commits, stack micro-ops), not just retired
    // traces: a stall window far below a single trace's duration — but
    // above the longest single memory round-trip (~400 cycles) — must let
    // a long-but-live run finish instead of flagging it as livelocked.
    // Two RB entries force constant spill traffic, stretching every trace.
    let limits = RunLimits {
        max_cycles: None,
        stall_cycles: Some(2_000),
        validate: false,
        breakdown: false,
        metrics: false,
    };
    let reqs = [good(SceneId::Ship, StackConfig::Baseline { rb_entries: 2 }).with_limits(limits)];
    let harness = quiet_harness(1, None);
    let (results, summary) = harness.try_run_batch(&reqs);

    let run = results[0].as_ref().expect("live run must survive the tight window");
    assert_eq!(summary.failed, 0);
    assert!(
        run.stats.cycles > 10 * 2_000,
        "run must be much longer than the stall window to prove the point (got {} cycles)",
        run.stats.cycles
    );
}

#[test]
fn corrupt_cache_entry_mid_sweep_heals_and_batch_completes() {
    let dir = temp_dir("corrupt");
    let reqs = [
        good(SceneId::Wknd, StackConfig::baseline8()),
        good(SceneId::Wknd, StackConfig::sms_default()),
        good(SceneId::Wknd, StackConfig::FullOnChip),
    ];
    let harness = quiet_harness(2, Some(dir.clone()));
    let (first, _) = harness.try_run_batch(&reqs);
    assert!(first.iter().all(Result::is_ok));

    // Corrupt one entry on disk, as a crashed writer or bad sector would.
    let cache = harness.cache().unwrap();
    let victim = cache.entry_path(&cache.key(&reqs[1]));
    std::fs::write(&victim, "\0\0not json").unwrap();

    let (second, summary) = harness.try_run_batch(&reqs);
    assert_eq!(summary.cache_hits, 2);
    assert_eq!(summary.cache_misses, 1, "only the corrupt entry re-simulates");
    assert_eq!(summary.failed, 0);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.as_ref().unwrap().stats, b.as_ref().unwrap().stats);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The in-process twin of `fleet_chaos`'s killed-backend re-run: a
/// finished cell is in the result cache, so a new harness on that cache
/// simulates only what did not finish.
#[test]
fn a_killed_sweeps_finished_cells_are_not_simulated_again() {
    let dir = temp_dir("rerun");

    // First sweep: two healthy runs and one injected failure.
    let reqs = [
        good(SceneId::Wknd, StackConfig::baseline8()),
        panicking(),
        good(SceneId::Wknd, StackConfig::sms_default()),
    ];
    let (before, _) = quiet_harness(2, Some(dir.clone())).try_run_batch(&reqs);
    assert!(before[0].is_ok() && before[2].is_ok() && before[1].is_err());

    // Second sweep, on a new harness over the same cache: the two finished
    // runs hit; the failed one — now fixed (a sane GPU config) — and a
    // brand-new request simulate.
    let fixed = good(SceneId::Wknd, StackConfig::baseline8())
        .with_gpu(GpuConfig { num_sms: 4, ..GpuConfig::default() });
    let reqs2 = [reqs[0], fixed, reqs[2], good(SceneId::Wknd, StackConfig::FullOnChip)];
    let (after, summary) = quiet_harness(2, Some(dir.clone())).try_run_batch(&reqs2);
    assert!(after.iter().all(Result::is_ok));
    assert_eq!(summary.cache_hits, 2, "both finished runs come from the cache");
    assert_eq!(summary.cache_misses, 2, "only the fixed and the new request simulate");

    // Stats equal an uncached run of the same requests.
    let (direct, _) = quiet_harness(2, None).try_run_batch(&reqs2);
    for (a, d) in after.iter().zip(&direct) {
        assert_eq!(a.as_ref().unwrap().stats, d.as_ref().unwrap().stats);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_batch_still_panics_on_failure() {
    let caught = std::panic::catch_unwind(|| {
        let harness = quiet_harness(1, None);
        harness.run_batch(&[panicking()]);
    });
    assert!(caught.is_err(), "the strict API keeps fail-fast semantics");
}
