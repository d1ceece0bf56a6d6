//! Extension (§VIII-A) — stackless restart-trail traversal vs traversal
//! stacks.
//!
//! The paper positions stackless traversal as orthogonal to SMS: it removes
//! stack memory traffic entirely but pays *extra node visits* on every
//! backtrack (restarting from the root). This harness quantifies that
//! computational overhead on our scenes: the node-visit inflation of the
//! restart trail is the work SMS would save if the two were combined
//! (restarts only past the SH stack), as the paper suggests.

use sms_bench::{fmt_pct, setup, Table};
use sms_sim::bvh::traverse::NodeStep;
use sms_sim::bvh::{intersect_nearest_restart, FlatBvh};
use sms_sim::render::PreparedScene;
use sms_sim::scene::ScenePrimitive;

/// Stack traversal with an exact node-visit counter (same order as
/// `intersect_nearest`).
fn count_stack_visits(bvh: &FlatBvh, prims: &[ScenePrimitive], ray: &sms_sim::geom::Ray) -> u64 {
    let mut visits = 0u64;
    let mut stack: Vec<u32> = Vec::with_capacity(64);
    let mut current = Some(0u32);
    let mut limit = f32::INFINITY;
    while let Some(node) = current {
        visits += 1;
        match bvh.node_step(prims, ray, node, 0.0, limit) {
            NodeStep::Inner(hits) => {
                if hits.is_empty() {
                    current = stack.pop();
                } else {
                    for i in (1..hits.len()).rev() {
                        stack.push(hits.get(i).1);
                    }
                    current = Some(hits.get(0).1);
                }
            }
            NodeStep::Leaf(hit) => {
                if let Some(h) = hit {
                    limit = limit.min(h.t);
                }
                current = stack.pop();
            }
        }
    }
    visits
}

fn main() {
    let (_, mut scenes, render) = setup("Extension", "restart-trail (stackless) visit overhead");
    if scenes.len() > 8 {
        scenes.truncate(8);
    }

    let mut table =
        Table::new(["scene", "visits (stack)", "visits (restart)", "restarts", "visit inflation"]);
    for &id in &scenes {
        eprint!("  {id} ...");
        let prepared = PreparedScene::build(id, &render);
        let cam = &prepared.scene.camera;
        let mut stack_visits = 0u64;
        let mut restart_visits = 0u64;
        let mut restarts = 0u64;
        for py in 0..cam.height {
            for px in 0..cam.width {
                let ray = cam.primary_ray(px, py, 0);
                stack_visits += count_stack_visits(&prepared.bvh, prepared.prims(), &ray);
                let (_, s) = intersect_nearest_restart(
                    &prepared.bvh,
                    prepared.prims(),
                    &ray,
                    0.0,
                    f32::INFINITY,
                );
                restart_visits += s.node_visits;
                restarts += s.restarts;
            }
        }
        eprintln!(" done");
        let inflation = if stack_visits > 0 {
            restart_visits as f64 / stack_visits.max(1) as f64 - 1.0
        } else {
            0.0
        };
        table.row([
            id.name().to_owned(),
            stack_visits.to_string(),
            restart_visits.to_string(),
            restarts.to_string(),
            fmt_pct(inflation),
        ]);
    }
    println!("{table}");
    println!(
        "interpretation: the restart trail trades all stack traffic for this much \
         extra traversal work; combining it with an SH stack (SMS) would confine \
         restarts to overflows past the shared-memory level (paper §VIII-A)."
    );
}
