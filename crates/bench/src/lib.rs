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
//! Every harness honours the `bench` and `harness` rows of the
//! environment table in `EXPERIMENTS.md` (declared once, in
//! `sms_sim::env::DECLS`): `SMS_SCENES`, `SMS_PAPER`, `SMS_JOBS`, the
//! cache / journal / resume locations, the watchdogs and the observation
//! arms. [`env`] is the process's one snapshot of them.
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
use sms_sim::Env;
use std::sync::OnceLock;

pub use sms_harness::{Harness, RunRequest};
pub use sms_sim::report::{fmt_improvement, fmt_pct, geomean, Table};

/// The process edge of every bench target: the environment, snapshotted
/// (and its warnings logged) on first use.
pub fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(sms_harness::capture_env)
}

/// Prints the standard harness banner and returns the execution engine
/// plus `(scenes, render)`.
pub fn setup(figure: &str, description: &str) -> (Harness, Vec<SceneId>, RenderConfig) {
    let render = RenderConfig::from_env(env());
    let scenes = experiments::scene_list(env()).unwrap_or_else(|e| panic!("{e}"));
    println!("=== {figure}: {description} ===");
    println!(
        "workload: {:?} mode, {} scenes{}\n",
        render.mode,
        scenes.len(),
        if scenes.len() < 16 { " (SMS_SCENES subset)" } else { "" }
    );
    (Harness::from_env(env()), scenes, render)
}

/// The stack-elimination competitor columns appended to the sweeps that
/// compare against SMS: stackless traversal (`SL`, `SMS_STACKLESS`) and
/// the hash-based leaf predictor (`PRED_<SMS_PREDICT_BITS>`,
/// `SMS_PREDICT`), both on by default. Dropping them restores the
/// pre-competitor matrix — the remaining cells' stats and cache entries
/// are byte-identical either way.
pub fn competitor_configs() -> Vec<StackConfig> {
    let mut configs = Vec::new();
    if env().flag("SMS_STACKLESS") {
        configs.push(StackConfig::stackless());
    }
    if env().flag("SMS_PREDICT") {
        let bits = env().positive("SMS_PREDICT_BITS").unwrap_or(12);
        assert!(
            bits <= u64::from(sms_sim::rtunit::predictor::MAX_TABLE_BITS),
            "SMS_PREDICT_BITS must be in 1..=20, got {bits}"
        );
        configs.push(StackConfig::Predictor { table_bits: bits as u32 });
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
