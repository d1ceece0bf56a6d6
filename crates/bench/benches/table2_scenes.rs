//! Table II — benchmark scenes: triangle counts and BVH sizes.
//!
//! Our procedural stand-ins scale the paper's triangle counts down (about
//! 1/100; small scenes less) while preserving the relative ordering; the
//! "paper" columns print the original Table II values for comparison.

use sms_bench::{Harness, Table};
use sms_sim::bvh::BvhStats;
use sms_sim::config::RenderConfig;
use sms_sim::scene::SceneId;

/// Table II reference values: (triangles, BVH MB).
fn paper_row(id: SceneId) -> (&'static str, f64) {
    match id {
        SceneId::Wknd => ("0", 0.2),
        SceneId::Sprng => ("1.9M", 178.0),
        SceneId::Fox => ("1.6M", 648.5),
        SceneId::Lands => ("3.3M", 303.5),
        SceneId::Crnvl => ("449.6K", 60.7),
        SceneId::Spnza => ("262.3K", 22.8),
        SceneId::Bath => ("423.6K", 112.8),
        SceneId::Robot => ("20.6M", 1869.0),
        SceneId::Car => ("12.7M", 1328.2),
        SceneId::Party => ("1.7M", 156.1),
        SceneId::Frst => ("4.2M", 380.5),
        SceneId::Bunny => ("144.1K", 13.2),
        SceneId::Ship => ("6.3K", 0.5),
        SceneId::Ref => ("448.9K", 40.4),
        SceneId::Chsnt => ("313.2K", 28.3),
        SceneId::Park => ("6.0M", 542.5),
    }
}

fn main() {
    println!("=== Table II: Benchmark scenes ===\n");
    let mut table = Table::new([
        "scene",
        "# tris (ours)",
        "# tris (paper)",
        "BVH MB (ours)",
        "BVH MB (paper)",
        "nodes",
        "depth",
    ]);
    // Scene + BVH construction fan out across the harness's worker pool
    // (the camera resolution the render config picks is irrelevant here).
    let harness = Harness::from_env(sms_bench::env());
    let prepared = harness.prepare_scenes(&SceneId::ALL, &RenderConfig::fast());
    for (id, p) in SceneId::ALL.into_iter().zip(&prepared) {
        let stats = BvhStats::measure(&p.bvh);
        let (ptris, pmb) = paper_row(id);
        table.row([
            id.name().to_owned(),
            p.scene.triangle_count().to_string(),
            ptris.to_owned(),
            format!("{:.2}", stats.size_mb()),
            format!("{pmb:.1}"),
            stats.nodes.to_string(),
            stats.depth.to_string(),
        ]);
    }
    println!("{table}");
    println!("(ours/paper triangle ratios are the documented ~1/100 scaling; see DESIGN.md)");
}
