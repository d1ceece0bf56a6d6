//! The functional renderer and the cycle simulator traverse the one
//! `FlatBvh` through the same `node_step` kernel: every rendered pixel
//! must agree. (The layout itself is pinned by `layout_digest.rs`; the
//! batched slab test is checked against its scalar reference in
//! `sms-bvh`'s `flat` tests.)

use std::collections::HashMap;

use sms_bvh::builder::BinaryNode;
use sms_bvh::{BinaryBvh, BuildParams, FlatBvh, NodeId};
use sms_geom::Aabb;
use sms_sim::config::{RenderConfig, SimConfig};
use sms_sim::render::PreparedScene;
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;

/// The functional renderer stays in agreement with the simulator's
/// per-ray results.
#[test]
fn functional_render_matches_simulator_through_flat_layout() {
    let render = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Ship, &render);
    let config = SimConfig::with_stack(StackConfig::sms_default(), render);
    let sim = sms_sim::sim::run_to_image(&prepared, &config);
    let func = sms_sim::render::render(&prepared, &render);
    assert_eq!(sim.image, func.image);
}

/// Each node box is stored once, in the parent's child record: on every
/// scene, every node but the root is named by exactly one child record,
/// that record names the node back, and the box read through it is the
/// binary node's box bit for bit (the root's is `root_aabb`).
#[test]
fn every_node_box_lives_in_exactly_one_child_record() {
    let render = RenderConfig::tiny();
    let params = BuildParams::default();
    for id in SceneId::ALL {
        let prepared = PreparedScene::build(id, &render);
        let binary = BinaryBvh::build(prepared.prims(), &params);
        let bvh = FlatBvh::from_binary(&binary, params.branching_factor);
        assert_eq!(bvh, prepared.bvh, "{id}: the pipeline's tree");

        let records = bvh.nodes.len() - 1;
        let mut named = vec![0u32; bvh.nodes.len()];
        for (slot, &child) in bvh.child_node[..records].iter().enumerate() {
            named[child as usize] += 1;
            assert_eq!(bvh.nodes[child as usize].own_record(), Some(slot), "{id}: node {child}");
        }
        assert_eq!(bvh.nodes[0].own_record(), None, "{id}: the root has no record");
        assert_eq!(named[0], 0, "{id}: the root is nobody's child");
        assert!(named[1..].iter().all(|&n| n == 1), "{id}: a node named twice or never");

        // A subtree of either tree covers one contiguous run of primitive
        // slots, and the collapse keeps subtrees whole: that run names the
        // binary node each wide node came from.
        let mut by_range = HashMap::new();
        binary_ranges(&binary, 0, &mut by_range);
        let mut ranges = vec![(0, 0); bvh.nodes.len()];
        wide_range(&bvh, 0, &mut ranges);
        for (node, range) in ranges.iter().enumerate() {
            let bin = by_range[range];
            let want = binary.nodes[bin as usize].aabb();
            let got = bvh.own_aabb(node as NodeId);
            assert_eq!(bits(&got), bits(&want), "{id}: node {node}'s box");
        }
        assert_eq!(bits(&bvh.root_aabb), bits(&binary.nodes[0].aabb()));
    }
}

fn bits(b: &Aabb) -> [u32; 6] {
    [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z].map(f32::to_bits)
}

/// Records the primitive run of binary node `id`'s subtree, and returns it.
fn binary_ranges(bvh: &BinaryBvh, id: u32, out: &mut HashMap<(u32, u32), u32>) -> (u32, u32) {
    let range = match &bvh.nodes[id as usize] {
        BinaryNode::Leaf { first, count, .. } => (*first, first + count),
        BinaryNode::Inner { left, right, .. } => {
            let (l, r) = (binary_ranges(bvh, *left, out), binary_ranges(bvh, *right, out));
            (l.0.min(r.0), l.1.max(r.1))
        }
    };
    assert!(out.insert(range, id).is_none(), "binary nodes {id} and another share {range:?}");
    range
}

/// The primitive run of wide node `id`'s subtree, for it and every node
/// below it.
fn wide_range(bvh: &FlatBvh, id: NodeId, out: &mut [(u32, u32)]) -> (u32, u32) {
    let n = bvh.nodes[id as usize];
    let range = if n.is_leaf() {
        (n.first, n.first + n.count())
    } else {
        let children = &bvh.child_node[n.first as usize..(n.first + n.count()) as usize];
        children.iter().fold((u32::MAX, 0), |(lo, hi), &c| {
            let r = wide_range(bvh, c, out);
            (lo.min(r.0), hi.max(r.1))
        })
    };
    out[id as usize] = range;
    range
}
