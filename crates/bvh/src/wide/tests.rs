use crate::builder::{BinaryBvh, BuildParams};
use crate::flat::tests::{children, grid};
use crate::flat::{FlatBvh, NodeId};
use crate::stats::BvhStats;
use sms_geom::Aabb;

fn with_width(width: usize) -> BuildParams {
    BuildParams { branching_factor: width, ..BuildParams::default() }
}

#[test]
fn children_within_branching_factor() {
    for width in [2, 4, 6, 8] {
        let bvh = FlatBvh::build(&grid(300), &with_width(width));
        for n in bvh.nodes.iter().filter(|n| !n.is_leaf()) {
            assert!(n.count() >= 2);
            assert!(n.count() as usize <= width, "node has {} > {width}", n.count());
        }
    }
}

#[test]
fn all_primitives_reachable_once() {
    let bvh = FlatBvh::build(&grid(257), &BuildParams::default());
    let mut seen = vec![0u32; 257];
    fn walk(bvh: &FlatBvh, id: NodeId, seen: &mut [u32]) {
        if let Some((first, count)) = bvh.leaf_range(id) {
            for i in first..first + count {
                seen[bvh.prim_order[i as usize] as usize] += 1;
            }
        }
        for &c in children(bvh, id) {
            walk(bvh, c, seen);
        }
    }
    walk(&bvh, 0, &mut seen);
    assert!(seen.iter().all(|&c| c == 1), "every primitive exactly once");
}

#[test]
fn wider_trees_are_shallower() {
    let prims = grid(1024);
    let d2 = FlatBvh::build(&prims, &with_width(2)).depth();
    let d6 = FlatBvh::build(&prims, &BuildParams::default()).depth();
    assert!(d6 <= d2, "BVH6 depth {d6} should not exceed BVH2 depth {d2}");
}

#[test]
fn depth_is_the_longest_root_to_leaf_path() {
    fn rec(bvh: &FlatBvh, id: NodeId) -> usize {
        children(bvh, id).iter().map(|&c| 1 + rec(bvh, c)).max().unwrap_or(0)
    }
    for width in [2, 6] {
        let bvh = FlatBvh::build(&grid(700), &with_width(width));
        assert_eq!(bvh.depth(), rec(&bvh, 0), "BVH{width}");
    }
}

#[test]
fn child_bounds_match_subtrees() {
    let prims = grid(300);
    let bvh = FlatBvh::build(&prims, &BuildParams::default());
    // Every node's box, and every primitive's, lies inside the bounds of
    // every node above it.
    fn check(bvh: &FlatBvh, prims: &[impl crate::Primitive], id: NodeId, above: &mut Vec<Aabb>) {
        let own = bvh.own_aabb(id);
        assert!(above.iter().all(|a| a.contains(&own)), "node {id} pokes out of an ancestor");
        above.push(own);
        if let Some((first, count)) = bvh.leaf_range(id) {
            for i in first..first + count {
                let prim = prims[bvh.prim_order[i as usize] as usize].aabb();
                assert!(above.iter().all(|a| a.contains(&prim)), "node {id} leaks a primitive");
            }
        }
        for &c in children(bvh, id) {
            check(bvh, prims, c, above);
        }
        above.pop();
    }
    check(&bvh, &prims, 0, &mut Vec::new());
}

#[test]
fn single_leaf_scene() {
    let params = BuildParams { max_leaf_size: 4, ..BuildParams::default() };
    let bvh = FlatBvh::build(&grid(3), &params);
    assert_eq!(bvh.nodes.len(), 1);
    assert_eq!(bvh.leaf_range(0), Some((0, 3)));
    assert_eq!(bvh.depth(), 0);
    assert_eq!(bvh.nodes[0].escape, crate::NO_NODE);
}

#[test]
#[should_panic(expected = "branching factor")]
fn width_one_rejected() {
    let binary = BinaryBvh::build(&grid(10), &BuildParams::default());
    let _ = FlatBvh::from_binary(&binary, 1);
}

/// `ChildHits` and the batched slab test hold `MAX_WIDTH` lanes; a wider
/// tree used to build and then index out of bounds mid-simulation.
#[test]
#[should_panic(expected = "branching factor")]
fn width_above_max_rejected() {
    let _ = FlatBvh::build(&grid(100), &with_width(crate::traverse::MAX_WIDTH + 1));
}

#[test]
fn node_counts_consistent() {
    let bvh = FlatBvh::build(&grid(500), &BuildParams::default());
    let stats = BvhStats::measure(&bvh);
    assert_eq!(stats.inner_nodes + stats.leaf_nodes, bvh.nodes.len());
    assert!(stats.inner_nodes > 0);
    assert_eq!(stats.leaf_nodes, 500, "single-primitive leaves");
    assert_eq!(stats.depth, bvh.depth());
}
