//! Property tests: BVH traversal (stack and restart variants, both split
//! methods) must agree with brute force on random scenes and rays.

use proptest::prelude::*;
use sms_bvh::builder::SplitMethod;
use sms_bvh::{intersect_nearest_restart, BuildParams, FlatBvh, PrimHit, Primitive};
use sms_geom::{Aabb, Ray, Triangle, Vec3};

#[derive(Debug)]
struct Tri(Triangle);
impl Primitive for Tri {
    fn aabb(&self) -> Aabb {
        self.0.aabb()
    }
    fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<PrimHit> {
        self.0.intersect(ray, t_min, t_max).map(|h| PrimHit { t: h.t, u: h.u, v: h.v })
    }
}

fn v3(lo: f32, hi: f32) -> impl Strategy<Value = Vec3> {
    (lo..hi, lo..hi, lo..hi).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn tri() -> impl Strategy<Value = Tri> {
    (v3(-10.0, 10.0), v3(-3.0, 3.0), v3(-3.0, 3.0))
        .prop_map(|(c, a, b)| Tri(Triangle::new(c, c + a, c + b)))
}

fn brute(prims: &[Tri], ray: &Ray, t_min: f32, t_max: f32) -> Option<f32> {
    let mut best: Option<f32> = None;
    let mut limit = t_max;
    for p in prims {
        if let Some(h) = p.intersect(ray, t_min, limit) {
            limit = h.t;
            best = Some(h.t);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn traversal_matches_brute_force(
        prims in prop::collection::vec(tri(), 1..150),
        origin in v3(-25.0, 25.0),
        dir in v3(-1.0, 1.0),
        width in 2usize..8,
        sah in any::<bool>(),
    ) {
        prop_assume!(dir.length() > 0.1);
        let params = BuildParams {
            branching_factor: width,
            split: if sah { SplitMethod::BinnedSah } else { SplitMethod::Median },
            ..BuildParams::default()
        };
        let bvh = FlatBvh::build(&prims, &params);
        let ray = Ray::new(origin, dir);
        let expected = brute(&prims, &ray, 0.0, f32::INFINITY);
        let got = sms_bvh::intersect_nearest(&bvh, &prims, &ray, 0.0, f32::INFINITY, &mut ())
            .map(|h| h.t);
        match (expected, got) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}"),
            (a, b) => prop_assert!(false, "hit mismatch: {a:?} vs {b:?}"),
        }
        // Restart-trail traversal agrees too.
        let (rh, _) = intersect_nearest_restart(&bvh, &prims, &ray, 0.0, f32::INFINITY);
        match (expected, rh.map(|h| h.t)) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-3, "restart {a} vs {b}"),
            (a, b) => prop_assert!(false, "restart mismatch: {a:?} vs {b:?}"),
        }
        // Any-hit agrees with existence.
        let any = sms_bvh::intersect_any(&bvh, &prims, &ray, 0.0, f32::INFINITY, &mut ());
        prop_assert_eq!(any, expected.is_some());
    }

    #[test]
    fn t_range_restriction_is_monotone(
        prims in prop::collection::vec(tri(), 1..80),
        origin in v3(-25.0, 25.0),
        dir in v3(-1.0, 1.0),
        cut in 0.1f32..40.0,
    ) {
        prop_assume!(dir.length() > 0.1);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        let ray = Ray::new(origin, dir);
        let unbounded =
            sms_bvh::intersect_nearest(&bvh, &prims, &ray, 0.0, f32::INFINITY, &mut ());
        let bounded = sms_bvh::intersect_nearest(&bvh, &prims, &ray, 0.0, cut, &mut ());
        match (unbounded, bounded) {
            // A bounded hit must equal the unbounded one (if within range).
            (Some(u), Some(b)) => {
                prop_assert!((u.t - b.t).abs() < 1e-3);
                prop_assert!(b.t <= cut + 1e-3);
            }
            (Some(u), None) => prop_assert!(u.t > cut - 1e-3, "lost an in-range hit"),
            (None, Some(_)) => prop_assert!(false, "bounded found what unbounded missed"),
            (None, None) => {}
        }
    }
}
