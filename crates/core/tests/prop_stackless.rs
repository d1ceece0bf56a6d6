//! Properties of the predictor competitor (the stackless walk's hit
//! equality is one more check in `prop_bvh`): priming `t_max` from a
//! speculative probe never changes a nearest-hit answer, and the
//! direct-mapped prediction table behaves exactly like its reference
//! model (tag-checked, last writer wins per index).

mod common;

use common::{aimed_ray, brute_hits, build_params, nearest, soup, stacked};
use sms_bvh::FlatBvh;
use sms_geom::check::for_cases;
use sms_rtunit::RayPredictor;
use std::collections::HashMap;

const CASES: u64 = 10_000;

#[test]
fn speculative_prime_preserves_the_nearest_hit() {
    for_cases(CASES, 0x5EC, |g| {
        let prims = soup(g);
        let bvh = FlatBvh::build(&prims, &build_params(g));
        let ray = aimed_ray(g, &prims);
        let full = stacked(&bvh, &prims, &nearest(ray, 0.0, f32::INFINITY)).hit;
        // The predictor's fallback protocol: a speculative probe that hits
        // some primitive primes (best, t_max), then traversal restarts
        // from the root with the tightened interval. Whichever primitive
        // on the ray the probe picked, the answer is the unprimed nearest.
        let on_ray = brute_hits(&prims, &ray, 0.0, f32::INFINITY);
        if on_ray.is_empty() {
            return;
        }
        let probe_t = on_ray[g.int(0, on_ray.len() - 1)];
        let rest = stacked(&bvh, &prims, &nearest(ray, 0.0, probe_t)).hit;
        let primed_t = rest.map_or(probe_t, |r| r.t);
        assert_eq!(
            Some(primed_t.to_bits()),
            full.map(|f| f.t.to_bits()),
            "priming at {probe_t} changed the nearest hit ({} prims, {ray:?})",
            prims.len()
        );
    });
}

#[test]
fn prediction_table_matches_reference_model() {
    for_cases(CASES, 0x7AB, |g| {
        let bits = g.int(1, 9) as u32;
        let mask = (1u64 << bits) - 1;
        let mut table = RayPredictor::new(bits);
        // Reference: index -> (full-hash tag, leaf), last writer wins.
        let mut model: HashMap<u64, (u64, u32)> = HashMap::new();
        // Half the hashes come from 64 values, so a lookup meets earlier
        // updates of its own hash and of hashes aliasing its index.
        let pool: Vec<u64> = (0..64).map(|_| g.rng.next_u64()).collect();
        for _ in 0..g.size(0, 200) {
            let hash = if g.chance(0.5) { pool[g.int(0, 63)] } else { g.rng.next_u64() };
            if g.chance(0.5) {
                let leaf = g.rng.next_u32();
                table.update(hash, leaf);
                model.insert(hash & mask, (hash, leaf));
            } else {
                let want = match model.get(&(hash & mask)) {
                    Some(&(tag, leaf)) if tag == hash => Some(leaf),
                    _ => None, // tag mismatch: an aliased index reads as a miss
                };
                assert_eq!(table.predict(hash), want, "PRED_{bits} hash {hash:#x}");
            }
        }
    });
}
