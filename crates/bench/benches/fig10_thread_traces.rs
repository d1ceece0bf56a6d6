//! Fig. 10 — per-thread traversal-stack depth traces for two PARTY warps.
//!
//! The paper plots stack depth (colour) against stack-access index (x) for
//! each thread (y) of two warps, showing (1) threads finish traversal at
//! different times and (2) a few threads need much deeper stacks — the two
//! observations motivating dynamic intra-warp reallocation.
//!
//! This harness prints a per-thread summary and writes the full series to
//! the workspace's `target/fig10_traces.csv` for plotting.

use sms_bench::Table;
use sms_sim::config::{RenderConfig, SimConfig};
use sms_sim::render::PreparedScene;
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;

fn main() {
    let render = RenderConfig::from_env(sms_bench::env());
    println!("=== Fig. 10: per-thread stack depth traces (PARTY, 2 warps) ===\n");
    let prepared = PreparedScene::build(SceneId::Party, &render);
    let sim =
        sms_sim::GpuSim::new(&prepared, SimConfig::with_stack(StackConfig::FullOnChip, render))
            .trace_warps(2)
            .run();

    // Summarize per thread: accesses until done, max depth.
    let mut table = Table::new(["warp", "lane", "stack accesses", "max depth"]);
    for warp in 0..2u32 {
        for lane in 0..32u8 {
            let mut accesses = 0u32;
            let mut max_depth = 0u16;
            for &(w, l, idx, d) in &sim.thread_traces {
                if w == warp && l == lane {
                    accesses = accesses.max(idx + 1);
                    max_depth = max_depth.max(d);
                }
            }
            table.row([
                warp.to_string(),
                lane.to_string(),
                accesses.to_string(),
                max_depth.to_string(),
            ]);
        }
    }
    println!("{table}");

    let (min_acc, max_acc) = (0..64)
        .map(|t| {
            let (w, l) = ((t / 32) as u32, (t % 32) as u8);
            sim.thread_traces.iter().filter(|(sw, sl, _, _)| *sw == w && *sl == l).count()
        })
        .fold((usize::MAX, 0), |(lo, hi), n| (lo.min(n), hi.max(n)));
    println!(
        "observation 1 (divergent completion): accesses per thread range {min_acc}..{max_acc}"
    );
    let deep = sim.thread_traces.iter().filter(|(_, _, _, d)| *d > 8).count();
    println!("observation 2 (divergent depth): {deep} accesses exceeded the 8-entry RB stack");

    let mut csv = sms_metrics::Table::new(["warp", "lane", "access_index", "depth"]);
    for (w, l, i, d) in &sim.thread_traces {
        csv.row([w.to_string(), l.to_string(), i.to_string(), d.to_string()]);
    }
    // `cargo bench` runs this with the package directory as CWD, so a
    // relative `target/` would land under `crates/bench/`.
    let target = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"));
    std::fs::create_dir_all(target).expect("create target dir");
    let path = target.canonicalize().expect("resolve target dir").join("fig10_traces.csv");
    std::fs::write(&path, csv.to_csv()).expect("write csv");
    println!("full series written to {}", path.display());
}
