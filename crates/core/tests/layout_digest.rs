//! Layout golden: an FNV-1a digest of every `FlatBvh` array for every
//! Table 2 scene under both builders, the `layout_digest.<scene>.<builder>`
//! rows of the golden table (`goldens.txt`, `sms_geom::golden`).
//!
//! The rows were recorded by running the retired two-pass path
//! (`BinaryBvh` → enum-node wide tree → flatten) at the commit before
//! `FlatBvh::from_binary` started emitting the arrays directly, so they
//! pin the one-pass build to what the two-pass build produced: node
//! numbering, child-pool order, every `f32` plane bit, the primitive
//! permutation and the escape links. A node's bounds are hashed through
//! `FlatBvh::own_aabb`, wherever the layout keeps them, so the rows
//! outlive a change of where a node's box is stored.

use sms_bvh::{BuildParams, FlatBvh, NodeId};
use sms_sim::config::RenderConfig;
use sms_sim::geom::golden::{self, fnv1a64_extend, FNV_OFFSET};
use sms_sim::render::PreparedScene;
use sms_sim::scene::SceneId;

fn word(h: &mut u64, w: u32) {
    *h = fnv1a64_extend(*h, &w.to_le_bytes());
}

/// A length-prefixed array, so moving a word between arrays changes the
/// digest.
fn words(h: &mut u64, ws: impl ExactSizeIterator<Item = u32>) {
    word(h, ws.len() as u32);
    ws.for_each(|w| word(h, w));
}

fn floats(h: &mut u64, fs: &[f32]) {
    words(h, fs.iter().map(|f| f.to_bits()));
}

fn digest(bvh: &FlatBvh) -> u64 {
    let mut hash = FNV_OFFSET;
    let h = &mut hash;
    word(h, bvh.nodes.len() as u32);
    for (id, n) in bvh.nodes.iter().enumerate() {
        let own = bvh.own_aabb(id as NodeId);
        [own.min.x, own.min.y, own.min.z, own.max.x, own.max.y, own.max.z]
            .iter()
            .for_each(|f| word(h, f.to_bits()));
        word(h, n.first);
        word(h, n.count_kind);
    }
    words(h, bvh.child_node.iter().copied());
    for plane in [
        &bvh.child_min_x,
        &bvh.child_min_y,
        &bvh.child_min_z,
        &bvh.child_max_x,
        &bvh.child_max_y,
        &bvh.child_max_z,
    ] {
        floats(h, plane);
    }
    words(h, bvh.prim_order.iter().copied());
    let (lo, hi) = (bvh.root_aabb.min, bvh.root_aabb.max);
    floats(h, &[lo.x, lo.y, lo.z, hi.x, hi.y, hi.z]);
    words(h, bvh.nodes.iter().map(|n| n.escape));
    hash
}

#[test]
fn flat_layout_digests_match_recorded_two_pass_build() {
    let render = RenderConfig::tiny();
    let mut rows = Vec::new();
    for id in SceneId::ALL {
        let default = PreparedScene::build(id, &render);
        let hlbvh = PreparedScene::build_with(id, &render, &BuildParams::hlbvh(1));
        for (builder, prepared) in [("default", default), ("hlbvh", hlbvh)] {
            let d = digest(&prepared.bvh);
            rows.push((format!("{}.{builder}", id.name()), format!("{d:#018x}")));
        }
    }
    golden::check("layout_digest", &rows);
}
