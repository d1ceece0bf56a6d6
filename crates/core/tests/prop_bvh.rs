//! Properties: every traversal of a `FlatBvh` — stacked, restart-trail and
//! stackless, over all three builders at any branching factor and leaf
//! size — reports what brute force over the primitives reports; and the
//! default (median) build, which selects, yields the tree of a reference
//! that sorts at every node.

mod common;

use common::{aimed_ray, brute_hits, build_params, nearest, soup, stacked};
use sms_bvh::builder::{BinaryBvh, BinaryNode};
use sms_bvh::{
    intersect_nearest_restart, traverse_stackless, BuildParams, FlatBvh, Hit, PrimHit, Primitive,
    RayQuery,
};
use sms_geom::check::{for_cases, Gen};
use sms_geom::{Aabb, Ray, Vec3};
use std::cmp::Ordering;

const CASES: u64 = 10_000;
const INF: f32 = f32::INFINITY;

#[test]
fn traversal_matches_brute_force() {
    let (mut hit_one, mut hit_two) = (0u64, 0u64);
    for_cases(CASES, 0xB5B5, |g| {
        let prims = soup(g);
        let params = build_params(g);
        let bvh = FlatBvh::build(&prims, &params);
        let ray = aimed_ray(g, &prims);
        let hits = brute_hits(&prims, &ray, 0.0, INF);
        hit_one += u64::from(!hits.is_empty());
        hit_two += u64::from(hits.len() >= 2);
        let expected = hits.iter().copied().reduce(f32::min);
        let ctx = || format!("{} prims, {params:?}, {ray:?}", prims.len());

        let query = RayQuery::nearest(ray, 0.0);
        let found = stacked(&bvh, &prims, &query);
        assert_eq!(found.hit.map(|h| h.t), expected, "stacked vs brute force: {}", ctx());
        assert!(found.visits >= 1, "every walk visits at least the root");
        // The two stack-free walks visit the same tree in another order:
        // bit-equal to the stacked answer on `t`, not merely close. Both
        // visit the leaves in DFS pre-order under the same shrinking
        // `t_max`, so they also agree on the primitive of an exact tie.
        let t_bits = |hit: Option<Hit>| hit.map(|h| h.t.to_bits());
        let key = |hit: Option<Hit>| hit.map(|h| (h.prim, h.t.to_bits()));
        let stackless = traverse_stackless(&bvh, &prims, &query);
        assert_eq!(t_bits(stackless.hit), t_bits(found.hit), "stackless: {}", ctx());
        assert!(stackless.visits >= 1, "every walk visits at least the root");
        let (restart, _) = intersect_nearest_restart(&bvh, &prims, &ray, 0.0, INF);
        assert_eq!(key(restart), key(stackless.hit), "restart trail vs stackless: {}", ctx());
        // Any-hit agrees with existence, on both drivers.
        let any = RayQuery::occlusion(ray, 0.0, INF);
        assert_eq!(stacked(&bvh, &prims, &any).occluded, expected.is_some());
        assert_eq!(traverse_stackless(&bvh, &prims, &any).occluded, expected.is_some());
    });
    // A generator that drifts back to vacuity (uniform rays: 2.5 % hit
    // anything, 0.35 % hit two) must fail here instead of passing above.
    assert!(hit_one * 10 >= CASES * 7, "only {hit_one} of {CASES} rays hit a primitive");
    assert!(hit_two * 10 >= CASES, "only {hit_two} of {CASES} rays hit two primitives");
}

#[test]
fn t_range_restriction_is_monotone() {
    for_cases(CASES, 0x7C07, |g| {
        let prims = soup(g);
        let bvh = FlatBvh::build(&prims, &build_params(g));
        let ray = aimed_ray(g, &prims);
        let cut = g.rng.range_f32(0.1, 40.0);
        let unbounded = stacked(&bvh, &prims, &nearest(ray, 0.0, INF)).hit;
        let bounded = stacked(&bvh, &prims, &nearest(ray, 0.0, cut)).hit;
        match (unbounded, bounded) {
            // A bounded hit is the unbounded one, and inside the bound.
            (Some(u), Some(b)) => {
                assert!(u.t == b.t && b.t <= cut, "{} vs {} (cut {cut})", u.t, b.t)
            }
            (Some(u), None) => assert!(u.t > cut, "lost an in-range hit at {} (cut {cut})", u.t),
            (None, Some(b)) => panic!("bounded found {} where unbounded found nothing", b.t),
            (None, None) => {}
        }
    });
}

/// A primitive that is nothing but its box: the builders read no more.
#[derive(Debug, Clone, Copy)]
struct BoxPrim(Aabb);

impl Primitive for BoxPrim {
    fn aabb(&self) -> Aabb {
        self.0
    }
    fn intersect(&self, _: &Ray, _: f32, _: f32) -> Option<PrimHit> {
        None
    }
}

/// The median build as it was before it selected: a full sort along the
/// widest centroid axis at every inner node, bounds from a pass over the
/// range. Kept as the reference the selecting build must equal.
struct SortingReference {
    /// `(primitive index, centroid, box)` in build order.
    info: Vec<(u32, Vec3, Aabb)>,
    nodes: Vec<BinaryNode>,
    max_leaf_size: usize,
    /// Whether some range's order was observed (a leaf of two or more, or a
    /// coincident range's cut) below a node that had sorted it — where the
    /// selecting build has to restore the order first.
    order_observed: bool,
}

impl SortingReference {
    fn build(prims: &[BoxPrim], max_leaf_size: usize) -> (BinaryBvh, bool) {
        let info = (0..).zip(prims).map(|(i, p)| (i, p.0.centroid(), p.0)).collect();
        let placeholder = BinaryNode::Leaf { aabb: Aabb::EMPTY, first: 0, count: 0 };
        let mut this = SortingReference {
            info,
            nodes: vec![placeholder],
            max_leaf_size,
            order_observed: false,
        };
        if !prims.is_empty() {
            this.recurse(0, 0, prims.len(), false);
        }
        let prim_order = this.info.iter().map(|p| p.0).collect();
        (BinaryBvh { nodes: this.nodes, prim_order }, this.order_observed)
    }

    fn recurse(&mut self, node_id: usize, first: usize, count: usize, below_a_sort: bool) {
        let slice = &mut self.info[first..first + count];
        let (mut bounds, mut centroid_bounds) = (Aabb::EMPTY, Aabb::EMPTY);
        for (_, centroid, aabb) in slice.iter() {
            bounds.grow(aabb);
            centroid_bounds.grow_point(*centroid);
        }
        let leaf = BinaryNode::Leaf { aabb: bounds, first: first as u32, count: count as u32 };
        let extent = centroid_bounds.extent();
        let coincident = extent.max_component() <= 1e-9;
        if count <= self.max_leaf_size || coincident {
            self.order_observed |= below_a_sort && count >= 2;
        }
        if count <= self.max_leaf_size || (coincident && count <= self.max_leaf_size * 4) {
            self.nodes[node_id] = leaf;
            return;
        }
        if !coincident {
            let axis = extent.max_axis();
            slice.sort_by(|a, b| {
                a.1[axis].partial_cmp(&b.1[axis]).unwrap_or(Ordering::Equal).then(a.0.cmp(&b.0))
            });
        }
        let (mid, left) = (count / 2, self.nodes.len());
        self.nodes.extend([leaf.clone(), leaf]); // two slots; each recursion fills its own
        self.nodes[node_id] =
            BinaryNode::Inner { aabb: bounds, left: left as u32, right: left as u32 + 1 };
        self.recurse(left, first, mid, below_a_sort || !coincident);
        self.recurse(left + 1, first + mid, count - mid, below_a_sort || !coincident);
    }
}

/// A coordinate on a half-unit grid in -3..=3, so that centroids tie and
/// repeat; a zero is `-0.0` half the time.
fn grid_coord(g: &mut Gen) -> f32 {
    let x = (g.int(0, 12) as f32 - 6.0) * 0.5;
    if x == 0.0 && g.chance(0.5) {
        -0.0
    } else {
        x
    }
}

/// A box whose centroid is exactly `c`: the point itself (the one way to a
/// `-0.0` centroid) or `c ± h` for a half-extent on a quarter-unit grid.
fn box_around(g: &mut Gen, c: Vec3) -> BoxPrim {
    let h = Vec3::new(g.int(0, 4) as f32, g.int(0, 4) as f32, g.int(0, 4) as f32) * 0.25;
    BoxPrim(if g.chance(0.25) { Aabb::from_point(c) } else { Aabb::new(c - h, c + h) })
}

/// Up to ~250 boxes with centroids on [`grid_coord`]'s grid, in runs: one
/// run in three repeats a single centroid up to 40 times (longer than any
/// `4 * max_leaf_size`), one in ten spreads it by less than the 1e-9 the
/// builders call coincident, so that a coincident range holds distinct keys.
fn snapped_soup(g: &mut Gen) -> Vec<BoxPrim> {
    let mut prims = Vec::new();
    for _ in 0..g.size(1, 60) {
        let c = Vec3::new(grid_coord(g), grid_coord(g), grid_coord(g));
        let run = if g.chance(0.33) { g.int(2, 40) } else { 1 };
        let jitter = g.chance(0.1) && c.x == 0.0;
        for _ in 0..run {
            let dx = if jitter { g.int(0, 4) as f32 * 2e-10 } else { 0.0 };
            prims.push(box_around(g, Vec3::new(c.x + dx, c.y, c.z)));
        }
    }
    prims
}

fn median_params(g: &mut Gen) -> BuildParams {
    BuildParams {
        max_leaf_size: g.int(1, 8),
        branching_factor: g.int(2, 8),
        ..BuildParams::default()
    }
}

#[test]
fn median_build_equals_the_sorting_reference() {
    let mut observed = 0u64;
    for_cases(CASES, 0x5E1EC7, |g| {
        let prims = snapped_soup(g);
        let params = median_params(g);
        let (reference, order_observed) = SortingReference::build(&prims, params.max_leaf_size);
        observed += u64::from(order_observed);
        // `BinaryBvh: PartialEq`: links, leaf ranges and `prim_order`
        // exactly, bounds with `==`.
        let built = BinaryBvh::build(&prims, &params);
        assert_eq!(built, reference, "{} prims, {params:?}", prims.len());
        let flat = FlatBvh::from_binary(&reference, params.branching_factor);
        assert_eq!(FlatBvh::build(&prims, &params), flat, "flattened, {params:?}");
    });
    // The equality above is only hard where the order inside a half shows.
    assert!(observed * 10 >= CASES, "only {observed} of {CASES} cases observed an order");
}

/// Centroids that overflowed to ±∞ are ordered by `partial_cmp` and by the
/// integer keys alike, so the reference still holds. A NaN centroid (a box
/// from -∞ to +∞) has no place in the reference's order — `partial_cmp`
/// calls it equal to everything, which is no total order, and `sort_by` may
/// panic on one — so there is no tree to equal: the selecting build orders
/// a NaN past an infinity, and must stay a valid tree.
#[test]
fn non_finite_centroids_build_without_panicking() {
    const HUGE: f32 = 3.0e38; // HUGE + HUGE overflows
    for_cases(CASES / 10, 0x1AF, |g| {
        let mut prims = snapped_soup(g);
        let params = median_params(g);
        for _ in 0..g.int(1, 12) {
            let axis = g.int(0, 2);
            let sign = if g.chance(0.5) { 1.0 } else { -1.0 };
            let mut corner = [grid_coord(g), grid_coord(g), grid_coord(g)];
            corner[axis] = sign * if g.chance(0.5) { HUGE } else { INF };
            let at = g.int(0, prims.len());
            let [x, y, z] = corner;
            prims.insert(at, BoxPrim(Aabb::from_point(Vec3::new(x, y, z))));
        }
        let (reference, _) = SortingReference::build(&prims, params.max_leaf_size);
        assert_eq!(BinaryBvh::build(&prims, &params), reference, "±inf, {params:?}");

        let everything = Aabb { min: Vec3::splat(-INF), max: Vec3::splat(INF) };
        assert!(everything.centroid().x.is_nan());
        for _ in 0..g.int(1, 12) {
            let at = g.int(0, prims.len());
            prims.insert(at, BoxPrim(everything));
        }
        let built = BinaryBvh::build(&prims, &params);
        let mut order = built.prim_order.clone();
        order.sort_unstable();
        assert!(order.iter().copied().eq(0..prims.len() as u32), "every primitive once");
        assert!(built.depth() <= 64, "depth {}", built.depth());
        for node in &built.nodes {
            if let BinaryNode::Leaf { count, .. } = node {
                assert!(*count as usize <= params.max_leaf_size * 4, "leaf of {count}");
            }
        }
    });
}
