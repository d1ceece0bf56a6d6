//! Stackless BVH traversal with a restart trail (paper §VIII-A).
//!
//! The paper's related work discusses stackless traversal (Laine's restart
//! trail, extended to wide BVHs by Vaidyanathan et al.) as the *other*
//! answer to traversal-stack pressure: instead of spilling stack entries to
//! memory, keep only a per-level progress trail and **restart from the
//! root** whenever backtracking is needed, re-descending along the trail.
//! That trades off-chip stack traffic for extra node visits — the
//! computational overhead the paper notes SMS could reduce when combined.
//!
//! This module implements the trail traversal for our wide BVH so the
//! trade-off can be quantified (`extension_restart_trail` bench): the
//! restart variant performs zero stack memory traffic but inflates node
//! visits; the hierarchical stack keeps visits minimal at the cost of
//! spill traffic.
//!
//! Children are enumerated in *fixed node order* (not distance-sorted), the
//! deterministic order a trail can replay; the nearest hit is still exact
//! because every un-pruned leaf is tested under a shrinking `t_max`.

use crate::flat::{FlatBvh, NodeId};
use crate::traverse::{Hit, RayQuery};
use crate::Primitive;

/// Work counters of one restart-trail traversal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestartStats {
    /// Nodes visited, including re-descents after restarts.
    pub node_visits: u64,
    /// Restarts from the root (each replaces a stack pop).
    pub restarts: u64,
}

/// Nearest-hit traversal without any traversal stack.
///
/// Returns the nearest hit of [`crate::traverse_stackless`], primitive and
/// `t` (asserted by tests): both visit the leaves in DFS pre-order under
/// the same shrinking `t_max` and apply the same leaf rule
/// ([`RayQuery::apply_leaf`]). The work counters come with it.
pub fn intersect_nearest_restart<P: Primitive>(
    bvh: &FlatBvh,
    prims: &[P],
    ray: &sms_geom::Ray,
    t_min: f32,
    t_max: f32,
) -> (Option<Hit>, RestartStats) {
    let query = RayQuery { ray: *ray, t_min, t_max, any_hit: false };
    let mut state = query.start();
    let mut stats = RestartStats::default();
    let mut trail: Vec<u32> = vec![0; bvh.depth() + 2];
    let mut level = 0usize;
    let mut current: NodeId = 0;

    'traverse: loop {
        stats.node_visits += 1;
        let n = &bvh.nodes[current as usize];
        if n.is_leaf() {
            let hit = bvh.leaf_nearest(n, prims, ray, t_min, state.t_max);
            query.apply_leaf(&mut state, hit);
        } else {
            // Advance over completed/missed children in fixed order.
            while trail[level] < n.count() {
                let slot = (n.first + trail[level]) as usize;
                if bvh.child_aabb(slot).intersect(ray, t_min, state.t_max).is_some() {
                    current = bvh.child_node[slot];
                    level += 1;
                    trail[level] = 0;
                    continue 'traverse;
                }
                trail[level] += 1;
            }
            // Node exhausted: back up (via restart).
        }

        // Backtrack: mark this child completed on the parent's trail and
        // restart from the root, re-descending along the trail.
        if level == 0 {
            break;
        }
        trail[level] = 0;
        level -= 1;
        trail[level] += 1;
        stats.restarts += 1;
        let target = level;
        current = 0;
        level = 0;
        while level < target {
            stats.node_visits += 1;
            let n = &bvh.nodes[current as usize];
            debug_assert!(!n.is_leaf(), "trail paths only run through internal nodes");
            current = bvh.child_node[(n.first + trail[level]) as usize];
            level += 1;
        }
    }
    (state.best, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BuildParams;
    use crate::traverse::TraversalScratch;
    use crate::PrimHit;
    use sms_geom::{Aabb, DeterministicRng, Ray, SplitMix64, Triangle, Vec3};

    struct Tri(Triangle);
    impl Primitive for Tri {
        fn aabb(&self) -> Aabb {
            self.0.aabb()
        }
        fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<PrimHit> {
            self.0.intersect(ray, t_min, t_max).map(|h| PrimHit { t: h.t, u: h.u, v: h.v })
        }
    }

    fn scene(n: usize) -> Vec<Tri> {
        let mut rng = SplitMix64::new(0xAB);
        (0..n)
            .map(|_| {
                let c = rng.unit_vector() * rng.range_f32(1.0, 15.0);
                let a = rng.unit_vector() * rng.range_f32(0.4, 2.0);
                let b = rng.unit_vector() * rng.range_f32(0.4, 2.0);
                Tri(Triangle::new(c, c + a, c + b))
            })
            .collect()
    }

    #[test]
    fn matches_stack_traversal_hit_distance() {
        let prims = scene(4000);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        let mut rng = SplitMix64::new(7);
        let mut hits = 0;
        for _ in 0..300 {
            let origin = rng.unit_vector() * 25.0;
            let target = rng.unit_vector() * 2.0;
            let ray = Ray::new(origin, target - origin);
            let query = RayQuery::nearest(ray, 0.0);
            let reference =
                crate::traverse(&bvh, &prims, &query, &mut (), &mut TraversalScratch::new()).hit;
            let (restart, _) = intersect_nearest_restart(&bvh, &prims, &ray, 0.0, f32::INFINITY);
            match (reference, restart) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    hits += 1;
                    assert!((a.t - b.t).abs() < 1e-4, "distance mismatch: {} vs {}", a.t, b.t);
                }
                (a, b) => panic!("hit/miss mismatch: {a:?} vs {b:?}"),
            }
        }
        assert!(hits > 50, "test needs real hits, got {hits}");
    }

    #[test]
    fn restart_inflates_node_visits() {
        let prims = scene(4000);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        let mut rng = SplitMix64::new(9);
        let mut stack_visits = 0u64;
        let mut restart_visits = 0u64;
        let mut restarts = 0u64;
        for _ in 0..100 {
            let origin = rng.unit_vector() * 25.0;
            let ray = Ray::new(origin, -origin);
            let query = RayQuery::nearest(ray, 0.0);
            stack_visits +=
                crate::traverse(&bvh, &prims, &query, &mut (), &mut TraversalScratch::new()).visits;
            let (_, s) = intersect_nearest_restart(&bvh, &prims, &ray, 0.0, f32::INFINITY);
            restart_visits += s.node_visits;
            restarts += s.restarts;
        }
        assert!(restarts > 0, "deep traversals must restart");
        assert!(
            restart_visits > stack_visits,
            "restarting must cost extra visits ({restart_visits} vs {stack_visits})"
        );
    }

    #[test]
    fn an_exact_t_tie_across_leaves_keeps_the_first_leafs_primitive() {
        // Two coplanar triangles both hold the ray at t = 2, one per leaf.
        let tri = |x: f32| {
            Tri(Triangle::new(
                Vec3::new(x - 1.0, -1.0, 2.0),
                Vec3::new(x + 1.0, -1.0, 2.0),
                Vec3::new(x, 1.0, 2.0),
            ))
        };
        let prims = [tri(-0.25), tri(0.0)];
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        assert_eq!(bvh.node_count(), 3, "a root over two single-primitive leaves");
        let ray = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0));
        let query = RayQuery::nearest(ray, 0.0);
        let key = |hit: Option<Hit>| hit.map(|h| (h.prim, h.t));
        let stacked = crate::traverse(&bvh, &prims, &query, &mut (), &mut TraversalScratch::new());
        let stackless = crate::traverse_stackless(&bvh, &prims, &query);
        let (restart, _) = intersect_nearest_restart(&bvh, &prims, &ray, 0.0, f32::INFINITY);
        assert_eq!(key(stacked.hit), Some((0, 2.0)));
        assert_eq!(key(stackless.hit), Some((0, 2.0)));
        assert_eq!(key(restart), Some((0, 2.0)), "the restart trail kept the later hit");
    }

    #[test]
    fn single_leaf_and_miss_edge_cases() {
        let prims = scene(2);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        let ray = Ray::new(Vec3::new(100.0, 100.0, 100.0), Vec3::new(0.0, 1.0, 0.0));
        let (hit, stats) = intersect_nearest_restart(&bvh, &prims, &ray, 0.0, f32::INFINITY);
        assert!(hit.is_none());
        assert!(stats.node_visits >= 1);
    }
}
