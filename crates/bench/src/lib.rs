//! Shared plumbing for the per-figure bench harnesses.
//!
//! Every `benches/figNN_*.rs` target (built with `harness = false`)
//! regenerates one table or figure of the paper: same rows, same series,
//! printed as plain text. Absolute numbers come from our simulator; the
//! *shape* (who wins, by roughly what factor) is what reproduces the paper.
//!
//! Runs execute on the `sms-harness` subsystem: `(scene, config)` matrices
//! are deduplicated, scheduled on a worker pool, and served from the
//! on-disk result cache when the same run was simulated before. Result
//! ordering (and therefore every printed table) is byte-identical to the
//! old serial loops.
//!
//! Environment knobs honoured by all harnesses:
//!
//! * `SMS_PAPER=1` — paper-sized workloads (128×128×2spp) instead of the
//!   default fast ones (32×32×1spp; trends are resolution-stable, §VII-A).
//! * `SMS_SCENES=SHIP,PARTY` — restrict to a scene subset.
//! * `SMS_JOBS=N` — worker threads (default: available cores).
//! * `SMS_NO_CACHE=1` — bypass the result cache.
//! * `SMS_CACHE_DIR=path` — cache location (default `target/sms-cache`).
//! * `SMS_JOURNAL=path` — append JSONL run-journal events to `path`.
//! * `SMS_MAX_CYCLES=N` / `SMS_STALL_CYCLES=N` — per-run watchdog.
//! * `SMS_VALIDATE=1` — run the stack invariant validator.
//! * `SMS_RETRIES=N` — transient cache-I/O retries.
//! * `SMS_RESUME=journal.jsonl` — resume a killed sweep from its journal.
//! * `SMS_BREAKDOWN=1` — arm cycle attribution (stall taxonomy in the
//!   journal and `BatchSummary`; see `breakdown_stalls`).
//! * `SMS_TRACE=out.json` / `SMS_TRACE_PERIOD=N` — per-run Chrome-trace
//!   timeline export (implies attribution).
//! * `SMS_STACKLESS=0` / `SMS_PREDICT=0` — drop the stackless (`SL`) or
//!   predictor (`PRED_*`) competitor column from the sweeps that carry
//!   them; with both off the matrices are exactly the pre-competitor
//!   sweeps. `SMS_PREDICT_BITS=N` sizes the predictor table (default 12).
//!
//! Batches run on the fault-tolerant path: a panicking, livelocked or
//! invariant-violating run is reported per cell (and journalled as
//! `run_failed`/`run_timeout`) while the rest of the matrix completes; the
//! harness then exits with status 2 since the figure cannot be fully
//! reproduced.
//!
//! These targets reproduce figures; they do not measure the host. Wall
//! time, throughput and memory are the job of `benchmark/` (`bash
//! benchmark/run.sh`, see `benchmark/README.md`), the one instrument.

use sms_sim::config::RenderConfig;
use sms_sim::experiments::{self, RunResult};
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;

pub use sms_harness::{Harness, RunRequest};
pub use sms_sim::report::{fmt_improvement, fmt_pct, geomean, Table};

/// Prints the standard harness banner and returns the execution engine
/// plus `(scenes, render)`.
pub fn setup(figure: &str, description: &str) -> (Harness, Vec<SceneId>, RenderConfig) {
    let render = RenderConfig::from_env();
    let scenes = experiments::scene_list();
    println!("=== {figure}: {description} ===");
    println!(
        "workload: {:?} mode, {} scenes{}\n",
        render.mode,
        scenes.len(),
        if scenes.len() < 16 { " (SMS_SCENES subset)" } else { "" }
    );
    (Harness::from_env(), scenes, render)
}

/// The stack-elimination competitor columns appended to the sweeps that
/// compare against SMS: stackless traversal (`SL`) and the hash-based leaf
/// predictor (`PRED_<bits>`). `SMS_STACKLESS=0` / `SMS_PREDICT=0` drop a
/// column; `SMS_PREDICT_BITS=N` (1..=20) sizes the predictor table. Both
/// default on. Dropping them restores the pre-competitor matrix — the
/// remaining cells' stats and cache entries are byte-identical either way,
/// since a run's configuration fully determines its outcome.
pub fn competitor_configs() -> Vec<StackConfig> {
    let on = |var: &str| std::env::var(var).as_deref() != Ok("0");
    let mut configs = Vec::new();
    if on("SMS_STACKLESS") {
        configs.push(StackConfig::stackless());
    }
    if on("SMS_PREDICT") {
        let bits = match std::env::var("SMS_PREDICT_BITS") {
            Ok(s) => s.parse::<u32>().unwrap_or_else(|e| panic!("SMS_PREDICT_BITS: {e}")),
            Err(_) => 12,
        };
        assert!(
            (1..=sms_sim::rtunit::predictor::MAX_TABLE_BITS).contains(&bits),
            "SMS_PREDICT_BITS must be in 1..=20, got {bits}"
        );
        configs.push(StackConfig::Predictor { table_bits: bits });
    }
    configs
}

/// Runs `configs` on every scene through the execution engine (parallel,
/// deduplicated, cached); returns results grouped per scene in input
/// order and prints the batch summary.
///
/// Failed runs do not abort the batch: every failure is reported on stderr
/// with its diagnostic once all other cells completed, then the process
/// exits with status 2 — a figure with holes in its matrix is not a
/// reproduction.
pub fn run_matrix(
    harness: &Harness,
    scenes: &[SceneId],
    configs: &[StackConfig],
    render: &RenderConfig,
) -> Vec<Vec<RunResult>> {
    let (results, summary) = harness.try_run_suite(scenes, configs, render);
    eprintln!("  {summary}");
    let mut rows = Vec::with_capacity(results.len());
    let mut failed = 0usize;
    for (s, row) in results.into_iter().enumerate() {
        let mut ok_row = Vec::with_capacity(row.len());
        for (c, cell) in row.into_iter().enumerate() {
            match cell {
                Ok(r) => ok_row.push(r),
                Err(e) => {
                    failed += 1;
                    eprintln!("  FAILED {} / {}: {e}", scenes[s], configs[c].label());
                }
            }
        }
        rows.push(ok_row);
    }
    if failed > 0 {
        eprintln!("  {failed} run(s) failed; figure cannot be reproduced");
        std::process::exit(2);
    }
    rows
}

/// Prints a per-scene normalized-IPC table: first config is the baseline.
/// Returns the per-config geometric means (including the baseline's 1.0).
pub fn print_normalized_ipc(scenes: &[SceneId], results: &[Vec<RunResult>]) -> Vec<f64> {
    let configs = &results[0];
    let mut headers = vec!["scene".to_owned()];
    headers.extend(configs.iter().map(|r| r.stack.label()));
    let mut table = Table::new(headers);
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    for (i, id) in scenes.iter().enumerate() {
        let base = &results[i][0];
        let mut row = vec![id.name().to_owned()];
        for (c, r) in results[i].iter().enumerate() {
            let ratio = r.normalized_ipc(base);
            ratios[c].push(ratio);
            row.push(format!("{:.3}", ratio));
        }
        table.row(row);
    }
    let mut gmeans = Vec::with_capacity(configs.len());
    let mut row = vec!["gmean".to_owned()];
    for r in &ratios {
        let g = geomean(r);
        gmeans.push(g);
        row.push(format!("{:.3}", g));
    }
    table.row(row);
    println!("{table}");
    gmeans
}
