//! Quickstart: simulate one scene under the baseline and the SMS
//! architecture and print the headline comparison.
//!
//! ```text
//! cargo run --release --example quickstart [SCENE]
//! ```

use sms_sim::config::RenderConfig;
use sms_sim::experiments::{run_prepared, RunResult};
use sms_sim::render::PreparedScene;
use sms_sim::report::{fmt_improvement, Table};
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;

fn main() {
    let scene: SceneId = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("unknown scene name"))
        .unwrap_or(SceneId::Chsnt);
    let env = sms_sim::Env::capture().reported();
    let render = RenderConfig::from_env(&env);

    println!("Building {scene} and its BVH6...");
    let prepared = PreparedScene::build(scene, &render);
    println!(
        "  {} primitives, {} BVH nodes, image {}x{}",
        prepared.scene.prims.len(),
        prepared.bvh.nodes.len(),
        prepared.scene.camera.width,
        prepared.scene.camera.height,
    );

    let gpu = sms_sim::gpu::GpuConfig::default();
    let configs = [StackConfig::baseline8(), StackConfig::sms_default(), StackConfig::FullOnChip];
    let mut results: Vec<RunResult> = Vec::new();
    for stack in configs {
        println!("Simulating {stack}...");
        results.push(run_prepared(&prepared, stack, gpu, &render));
    }

    let base = &results[0];
    let mut table = Table::new(["config", "cycles", "IPC", "vs RB_8", "off-chip accesses"]);
    for r in &results {
        table.row([
            r.stack.label(),
            r.stats.cycles.to_string(),
            format!("{:.3}", r.ipc()),
            fmt_improvement(r.normalized_ipc(base)),
            r.stats.mem.offchip_accesses().to_string(),
        ]);
    }
    println!("\n{table}");
    println!(
        "SMS removed {} of {} baseline off-chip stack transactions.",
        base.stats.mem.stack_transactions.saturating_sub(results[1].stats.mem.stack_transactions),
        base.stats.mem.stack_transactions,
    );
}
