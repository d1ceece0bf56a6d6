//! Properties: every traversal of a `FlatBvh` — stacked, restart-trail and
//! stackless, over all three builders at any branching factor and leaf
//! size — reports what brute force over the primitives reports.

mod common;

use common::{aimed_ray, brute_hits, build_params, soup};
use sms_bvh::{
    intersect_any, intersect_any_stackless, intersect_nearest, intersect_nearest_restart,
    intersect_nearest_stackless, FlatBvh,
};
use sms_geom::check::for_cases;

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

        let stacked = intersect_nearest(&bvh, &prims, &ray, 0.0, INF, &mut ()).map(|h| h.t);
        assert_eq!(stacked, expected, "stacked vs brute force: {}", ctx());
        // The two stack-free walks visit the same tree in another order:
        // bit-equal to the stacked answer, not merely close.
        let stacked = stacked.map(f32::to_bits);
        let (restart, _) = intersect_nearest_restart(&bvh, &prims, &ray, 0.0, INF);
        assert_eq!(restart.map(|h| h.t.to_bits()), stacked, "restart trail: {}", ctx());
        let mut visits = 0u64;
        let stackless =
            intersect_nearest_stackless(&bvh, &prims, &ray, 0.0, INF, Some(&mut visits));
        assert_eq!(stackless.map(|h| h.t.to_bits()), stacked, "stackless: {}", ctx());
        assert!(visits >= 1, "every walk visits at least the root");
        // Any-hit agrees with existence, on both drivers.
        assert_eq!(intersect_any(&bvh, &prims, &ray, 0.0, INF, &mut ()), expected.is_some());
        assert_eq!(intersect_any_stackless(&bvh, &prims, &ray, 0.0, INF, None), expected.is_some());
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
        let unbounded = intersect_nearest(&bvh, &prims, &ray, 0.0, INF, &mut ());
        let bounded = intersect_nearest(&bvh, &prims, &ray, 0.0, cut, &mut ());
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
