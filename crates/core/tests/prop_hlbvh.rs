//! Properties of the HLBVH building blocks: Morton encoding is a
//! bijection on the 10-bit lattice, the radix sort agrees with the std
//! stable sort (order *and* tie order) at any worker count, and the full
//! parallel builder reports every nearest hit brute force finds.

mod common;

use common::{aimed_ray, brute_hits, build_params, soup, stacked};
use sms_bvh::{
    morton_decode, morton_encode, radix_sort_pairs, BuildParams, FlatBvh, RayQuery, SplitMethod,
};
use sms_geom::check::for_cases;

const CASES: u64 = 10_000;
/// The two properties that spawn worker threads per case (0.9 ms and
/// 1.4 ms a case, thread-spawn-bound).
const THREADED_CASES: u64 = 2_000;

#[test]
fn morton_roundtrips_on_the_lattice() {
    for_cases(CASES, 0x30, |g| {
        let (x, y, z) = (g.int(0, 1023) as u32, g.int(0, 1023) as u32, g.int(0, 1023) as u32);
        let code = morton_encode(x, y, z);
        assert!(code < 1 << 30, "code {code:#x} exceeds 30 bits");
        assert_eq!(morton_decode(code), (x, y, z));
    });
}

#[test]
fn morton_is_injective() {
    for_cases(CASES, 0x31, |g| {
        let a = [g.int(0, 1023) as u32, g.int(0, 1023) as u32, g.int(0, 1023) as u32];
        // Equal, or one bit of one axis apart: the nearest distinct inputs.
        let mut b = a;
        if g.chance(0.75) {
            b[g.int(0, 2)] ^= 1 << g.int(0, 9);
        }
        let same_code = morton_encode(a[0], a[1], a[2]) == morton_encode(b[0], b[1], b[2]);
        assert_eq!(same_code, a == b, "{a:?} vs {b:?}");
    });
}

#[test]
fn radix_sort_is_sorted_and_stable() {
    for_cases(THREADED_CASES, 0x32, |g| {
        // Half the keys repeat one of eight values, so ties are common and
        // the payload (the input position) makes their order observable.
        let pool: Vec<u32> = (0..8).map(|_| g.rng.next_u32() >> 2).collect();
        let keys = g.vec(0, 400, |g| match g.int(0, 15) {
            i @ 0..=7 => pool[i],
            _ => g.rng.next_u32() >> 2,
        });
        let workers = g.int(1, 5);
        let mut got: Vec<(u32, u32)> = keys.into_iter().zip(0..).collect();
        let mut want = got.clone();
        radix_sort_pairs(&mut got, workers);
        want.sort_by_key(|&(k, _)| k);
        assert_eq!(got, want, "{workers} workers");
    });
}

#[test]
fn hlbvh_traversal_matches_brute_force() {
    for_cases(THREADED_CASES, 0x33, |g| {
        let prims = soup(g);
        let params =
            BuildParams { split: SplitMethod::Hlbvh, workers: g.int(1, 4), ..build_params(g) };
        let bvh = FlatBvh::build(&prims, &params);
        let ray = aimed_ray(g, &prims);
        let expected = brute_hits(&prims, &ray, 0.0, f32::INFINITY).into_iter().reduce(f32::min);
        let got = stacked(&bvh, &prims, &RayQuery::nearest(ray, 0.0)).hit.map(|h| h.t);
        assert_eq!(got, expected, "{} prims, {params:?}, {ray:?}", prims.len());
        let any = stacked(&bvh, &prims, &RayQuery::occlusion(ray, 0.0, f32::INFINITY)).occluded;
        assert_eq!(any, expected.is_some());
    });
}
