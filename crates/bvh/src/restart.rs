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
use crate::traverse::Hit;
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
/// Returns the same nearest hit as [`crate::intersect_nearest`] (asserted
/// by tests) along with the work counters.
pub fn intersect_nearest_restart<P: Primitive>(
    bvh: &FlatBvh,
    prims: &[P],
    ray: &sms_geom::Ray,
    t_min: f32,
    t_max: f32,
) -> (Option<Hit>, RestartStats) {
    let mut stats = RestartStats::default();
    let mut trail: Vec<u32> = vec![0; bvh.depth() + 2];
    let mut level = 0usize;
    let mut current: NodeId = 0;
    let mut best: Option<Hit> = None;
    let mut limit = t_max;

    'traverse: loop {
        stats.node_visits += 1;
        let n = &bvh.nodes[current as usize];
        if n.is_leaf() {
            if let Some(hit) = bvh.leaf_nearest(n, prims, ray, t_min, limit) {
                limit = hit.t;
                best = Some(hit);
            }
        } else {
            // Advance over completed/missed children in fixed order.
            while trail[level] < n.count() {
                let slot = (n.first + trail[level]) as usize;
                if bvh.child_aabb(slot).intersect(ray, t_min, limit).is_some() {
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
    (best, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BuildParams;
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
            let reference =
                crate::intersect_nearest(&bvh, &prims, &ray, 0.0, f32::INFINITY, &mut ());
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
            // Count reference visits via the observer (pushes+pops ~ visits).
            let mut counter = sms_metrics::Histogram::new();
            let _ = crate::intersect_nearest(&bvh, &prims, &ray, 0.0, f32::INFINITY, &mut counter);
            stack_visits += counter.count();
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
    fn single_leaf_and_miss_edge_cases() {
        let prims = scene(2);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        let ray = Ray::new(Vec3::new(100.0, 100.0, 100.0), Vec3::new(0.0, 1.0, 0.0));
        let (hit, stats) = intersect_nearest_restart(&bvh, &prims, &ray, 0.0, f32::INFINITY);
        assert!(hit.is_none());
        assert!(stats.node_visits >= 1);
    }
}
