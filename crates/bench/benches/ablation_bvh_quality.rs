//! Ablation — BVH build quality vs stack pressure.
//!
//! The evaluated system uses a fast median-split builder (DESIGN.md
//! substitution note); this ablation builds the same scenes with a binned
//! SAH builder and compares traversal work, stack depths, and the SMS gain,
//! showing how stack pressure depends on tree quality.

use sms_bench::{fmt_improvement, setup, Table};
use sms_sim::bvh::{builder::SplitMethod, BuildParams};
use sms_sim::experiments::run_prepared;
use sms_sim::gpu::GpuConfig;
use sms_sim::render::PreparedScene;
use sms_sim::rtunit::StackConfig;

fn main() {
    let (_, mut scenes, render) = setup("Ablation", "median-split vs binned-SAH BVHs");
    if scenes.len() > 4 {
        scenes.retain(|s| matches!(s.name(), "SHIP" | "CHSNT" | "PARTY" | "BUNNY"));
    }

    let mut table =
        Table::new(["scene", "builder", "node visits", "max depth", "mean depth", "SMS gain"]);
    for &id in &scenes {
        for (label, split) in
            [("median", SplitMethod::Median), ("binned-SAH", SplitMethod::BinnedSah)]
        {
            eprint!("  {id} ({label}) ...");
            let params = BuildParams { split, ..BuildParams::default() };
            let prepared = PreparedScene::build_with(id, &render, &params);

            // Depth statistics from the functional renderer.
            let out = sms_sim::render::render(&prepared, &render);
            let d = &out.depths;

            let gpu = GpuConfig::default();
            let base = run_prepared(&prepared, StackConfig::baseline8(), gpu, &render);
            let sms = run_prepared(&prepared, StackConfig::sms_default(), gpu, &render);
            eprintln!(" done");
            table.row([
                id.name().to_owned(),
                label.to_owned(),
                base.stats.node_visits.to_string(),
                d.max().to_string(),
                format!("{:.2}", d.mean()),
                fmt_improvement(sms.normalized_ipc(&base)),
            ]);
        }
    }
    println!("{table}");
    println!(
        "expected: SAH trees are cheaper to traverse but also shallower-stacked, \
         so the SMS gain shrinks — stack pressure tracks tree overlap."
    );
}
