//! Sweeps RB/SH stack sizes on one scene, printing the full design space —
//! a combined view of the paper's Figs. 6a, 8 and 15.
//!
//! The sweep runs as one deduplicated `sms-harness` batch: configs fan out
//! across the worker pool and a re-run of the same sweep is served entirely
//! from the on-disk result cache (`SMS_JOBS`, `SMS_NO_CACHE`, `SMS_JOURNAL`
//! apply, see DESIGN.md).
//!
//! ```text
//! cargo run --release --example config_sweep [SCENE]
//! ```

use sms_harness::{Harness, RunRequest};
use sms_sim::config::RenderConfig;
use sms_sim::report::{fmt_improvement, Table};
use sms_sim::rtunit::{SmsParams, StackConfig};
use sms_sim::scene::SceneId;

fn main() {
    let scene: SceneId = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("unknown scene name"))
        .unwrap_or(SceneId::Party);
    let env = sms_harness::capture_env();
    let render = RenderConfig::from_env(&env);
    println!("Sweeping stack configurations on {scene}...\n");

    let mut configs = vec![
        StackConfig::Baseline { rb_entries: 2 },
        StackConfig::Baseline { rb_entries: 4 },
        StackConfig::baseline8(),
        StackConfig::Baseline { rb_entries: 16 },
        StackConfig::Baseline { rb_entries: 32 },
    ];
    for rb in [2, 4, 8] {
        for sh in [4, 8, 16] {
            configs.push(StackConfig::Sms(
                SmsParams { rb_entries: rb, sh_entries: sh, ..SmsParams::default() }
                    .with_skewed(true)
                    .with_realloc(true),
            ));
        }
    }
    configs.push(StackConfig::FullOnChip);

    let harness = Harness::from_env(&env);
    let requests: Vec<RunRequest> =
        configs.iter().map(|&stack| RunRequest::new(scene, stack, render)).collect();
    let (outcomes, summary) = harness.try_run_batch(&requests);
    eprintln!("{summary}");

    // Failed configs are reported and dropped from the table; the rest of
    // the sweep is still printed (unless the baseline itself died).
    let mut results = Vec::with_capacity(outcomes.len());
    let mut failed = 0usize;
    for (cfg, outcome) in configs.iter().zip(outcomes) {
        match outcome {
            Ok(r) => results.push(r),
            Err(e) => {
                failed += 1;
                eprintln!("FAILED {}: {e}", cfg.label());
            }
        }
    }
    let Some(base) = results.iter().find(|r| r.stack == StackConfig::baseline8()) else {
        eprintln!("baseline RB_8 run failed; nothing to normalize against");
        std::process::exit(2);
    };
    let mut table = Table::new(["config", "cycles", "norm. IPC", "off-chip", "spills"]);
    for r in &results {
        table.row([
            r.stack.label(),
            r.stats.cycles.to_string(),
            fmt_improvement(r.normalized_ipc(base)),
            r.stats.mem.offchip_accesses().to_string(),
            (r.stats.rb_spills + r.stats.sh_spills).to_string(),
        ]);
    }
    println!("\n{table}");
    if failed > 0 {
        eprintln!("{failed} config(s) failed; sweep is partial");
        std::process::exit(2);
    }
}
