//! Property tests: the HLBVH building blocks. Morton encoding must be a
//! bijection on the 10-bit lattice, the radix sort must agree with a
//! known-stable reference sort (order *and* tie order), and the full
//! builder must report every primitive hit that brute force finds.

use proptest::prelude::*;
use sms_bvh::{
    morton_decode, morton_encode, radix_sort_pairs, BuildParams, FlatBvh, PrimHit, Primitive,
};
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
    fn morton_roundtrips_on_the_lattice(
        x in 0u32..1024, y in 0u32..1024, z in 0u32..1024,
    ) {
        let code = morton_encode(x, y, z);
        prop_assert!(code < 1 << 30, "code {code:#x} exceeds 30 bits");
        prop_assert_eq!(morton_decode(code), (x, y, z));
    }

    #[test]
    fn morton_is_injective(
        a in (0u32..1024, 0u32..1024, 0u32..1024),
        b in (0u32..1024, 0u32..1024, 0u32..1024),
    ) {
        prop_assert_eq!(
            morton_encode(a.0, a.1, a.2) == morton_encode(b.0, b.1, b.2),
            a == b
        );
    }

    #[test]
    fn radix_sort_is_sorted_and_stable(
        keys in prop::collection::vec(0u32..(1 << 30), 0..400),
        workers in 1usize..6,
    ) {
        // Payload = original position, so stability is observable: equal
        // keys must keep their input order, exactly like the std stable
        // sort the reference uses.
        let mut got: Vec<(u32, u32)> =
            keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        let mut want = got.clone();
        radix_sort_pairs(&mut got, workers);
        want.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn hlbvh_traversal_matches_brute_force(
        prims in prop::collection::vec(tri(), 1..150),
        origin in v3(-25.0, 25.0),
        dir in v3(-1.0, 1.0),
        workers in 1usize..5,
    ) {
        prop_assume!(dir.length() > 0.1);
        let bvh = FlatBvh::build(&prims, &BuildParams::hlbvh(workers));
        let ray = Ray::new(origin, dir);
        let expected = brute(&prims, &ray, 0.0, f32::INFINITY);
        let got = sms_bvh::intersect_nearest(&bvh, &prims, &ray, 0.0, f32::INFINITY, &mut ())
            .map(|h| h.t);
        match (expected, got) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}"),
            (a, b) => prop_assert!(false, "hit mismatch: {a:?} vs {b:?}"),
        }
        let any = sms_bvh::intersect_any(&bvh, &prims, &ray, 0.0, f32::INFINITY, &mut ());
        prop_assert_eq!(any, expected.is_some());
    }
}
