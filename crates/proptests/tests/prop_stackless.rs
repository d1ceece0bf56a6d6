//! Property tests for the stack-elimination competitors: escape-index
//! (stackless) traversal must agree with brute force and with the stacked
//! drivers on random scenes, the predictor's speculative t_max priming
//! must never change a nearest-hit answer, and the direct-mapped
//! prediction table must behave exactly like its reference model
//! (tag-checked, last-writer-wins per index).

use proptest::prelude::*;
use sms_bvh::builder::SplitMethod;
use sms_bvh::{
    intersect_any_stackless, intersect_nearest_stackless, BuildParams, FlatBvh, PrimHit, Primitive,
};
use sms_geom::{Aabb, Ray, Triangle, Vec3};
use sms_rtunit::RayPredictor;
use std::collections::HashMap;

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
    fn stackless_matches_brute_force_and_stacked(
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
        let flat = FlatBvh::build(&prims, &params);
        let ray = Ray::new(origin, dir);
        let expected = brute(&prims, &ray, 0.0, f32::INFINITY);
        let mut visits = 0u64;
        let got =
            intersect_nearest_stackless(&flat, &prims, &ray, 0.0, f32::INFINITY, Some(&mut visits))
                .map(|h| h.t);
        match (expected, got) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-3, "{} vs {}", a, b),
            (a, b) => prop_assert!(false, "hit mismatch: {:?} vs {:?}", a, b),
        }
        prop_assert!(visits >= 1, "every walk visits at least the root");
        // Bit-exact agreement with the stacked driver over the same tree.
        let stacked = sms_bvh::intersect_nearest(&flat, &prims, &ray, 0.0, f32::INFINITY, &mut ())
            .map(|h| h.t.to_bits());
        prop_assert_eq!(got.map(f32::to_bits), stacked, "stackless vs stacked diverged");
        // Any-hit agrees with existence.
        let any = intersect_any_stackless(&flat, &prims, &ray, 0.0, f32::INFINITY, None);
        prop_assert_eq!(any, expected.is_some());
    }

    #[test]
    fn speculative_prime_preserves_the_nearest_hit(
        prims in prop::collection::vec(tri(), 1..100),
        origin in v3(-25.0, 25.0),
        dir in v3(-1.0, 1.0),
        probe in any::<prop::sample::Index>(),
    ) {
        prop_assume!(dir.length() > 0.1);
        let flat = FlatBvh::build(&prims, &BuildParams::default());
        let ray = Ray::new(origin, dir);
        let full = sms_bvh::intersect_nearest(&flat, &prims, &ray, 0.0, f32::INFINITY, &mut ());
        // The predictor's fallback protocol: a speculative probe that hits
        // some primitive primes (best, t_max), then traversal restarts from
        // the root with the tightened interval. Whatever primitive the
        // probe picked, the final answer must equal the unprimed nearest.
        if let Some(h) = prims[probe.index(prims.len())].intersect(&ray, 0.0, f32::INFINITY) {
            let rest = sms_bvh::intersect_nearest(&flat, &prims, &ray, 0.0, h.t, &mut ());
            let primed_t = rest.map(|r| r.t).unwrap_or(h.t);
            prop_assert_eq!(
                Some(primed_t.to_bits()),
                full.map(|f| f.t.to_bits()),
                "priming with a probe hit changed the nearest-hit answer"
            );
        }
    }

    #[test]
    fn prediction_table_matches_reference_model(
        bits in 1u32..10,
        ops in prop::collection::vec((any::<u64>(), any::<u32>(), any::<bool>()), 0..200),
    ) {
        let mut table = RayPredictor::new(bits);
        // Reference: index -> (full-hash tag, leaf), last writer wins.
        let mut model: HashMap<u64, (u64, u32)> = HashMap::new();
        let mask = (1u64 << bits) - 1;
        for (hash, leaf, is_update) in ops {
            if is_update {
                table.update(hash, leaf);
                model.insert(hash & mask, (hash, leaf));
            } else {
                let want = match model.get(&(hash & mask)) {
                    Some(&(tag, l)) if tag == hash => Some(l),
                    _ => None, // tag mismatch: aliased index reads as miss
                };
                prop_assert_eq!(table.predict(hash), want);
            }
        }
    }

    #[test]
    fn quantized_hash_is_locality_sensitive(
        origin in v3(-10.0, 10.0),
        dir in v3(-1.0, 1.0),
    ) {
        prop_assume!(dir.length() > 0.1);
        let a = Ray::new(origin, dir);
        let h = RayPredictor::hash(&a);
        // The hash reads only quantized components, so it is a pure
        // function of them: re-deriving the ray from its own components
        // cannot change the hash.
        let b = Ray::new(origin, dir);
        prop_assert_eq!(h, RayPredictor::hash(&b));
    }
}
