//! Edge cases for the RT unit: degenerate requests, tiny scenes, extreme
//! ray parameters, and warp-lifecycle corner cases.

use sms_bvh::{BuildParams, FlatBvh, PrimHit, Primitive};
use sms_geom::{Aabb, Ray, Triangle, Vec3};
use sms_gpu::SimStats;
use sms_mem::{GlobalMemory, GlobalMemoryConfig, L1Config, SharedMem, SharedMemConfig, SmL1};
use sms_rtunit::{RayQuery, RtUnit, RtUnitConfig, StackConfig, TraceRequest};

struct Tri(Triangle);
impl Primitive for Tri {
    fn aabb(&self) -> Aabb {
        self.0.aabb()
    }
    fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<PrimHit> {
        self.0.intersect(ray, t_min, t_max).map(|h| PrimHit { t: h.t, u: h.u, v: h.v })
    }
}

fn tiny_scene() -> Vec<Tri> {
    vec![
        Tri(Triangle::new(
            Vec3::new(-5.0, -5.0, 10.0),
            Vec3::new(5.0, -5.0, 10.0),
            Vec3::new(0.0, 5.0, 10.0),
        )),
        Tri(Triangle::new(
            Vec3::new(-5.0, -5.0, 20.0),
            Vec3::new(5.0, -5.0, 20.0),
            Vec3::new(0.0, 5.0, 20.0),
        )),
    ]
}

fn run_warp(
    prims: &[Tri],
    queries: Vec<Option<RayQuery>>,
    config: StackConfig,
) -> sms_rtunit::TraceResult {
    let bvh = FlatBvh::build(prims, &BuildParams::default());
    let mut unit = RtUnit::new(RtUnitConfig::new(config));
    let mut l1 = SmL1::new(L1Config::default());
    let mut shared = SharedMem::new(SharedMemConfig::default());
    let mut global = GlobalMemory::new(GlobalMemoryConfig::default());
    let mut stats = SimStats::default();
    unit.try_admit(0, TraceRequest::new(0, queries.try_into().unwrap()), &mut stats).unwrap();
    let mut now = 0;
    loop {
        let mut results =
            unit.tick(now, &bvh, prims, &mut l1, &mut shared, &mut global, &mut stats);
        if let Some(r) = results.pop() {
            return r;
        }
        now += 1;
        assert!(now < 1_000_000, "failed to converge");
    }
}

#[test]
fn all_lanes_inactive_retires_immediately() {
    let prims = tiny_scene();
    let res = run_warp(&prims, vec![None; 32], StackConfig::sms_default());
    assert!(res.hits.iter().all(Option::is_none));
    assert!(res.occluded.iter().all(|&o| !o));
}

#[test]
fn single_active_lane() {
    let prims = tiny_scene();
    let ray = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0));
    let mut queries: Vec<Option<RayQuery>> = vec![None; 32];
    queries[17] = Some(RayQuery::nearest(ray, 0.0));
    let res = run_warp(&prims, queries, StackConfig::baseline8());
    assert_eq!(res.hits.iter().filter(|h| h.is_some()).count(), 1);
    assert!((res.hits[17].unwrap().t - 10.0).abs() < 1e-4);
}

#[test]
fn t_max_zero_never_hits() {
    let prims = tiny_scene();
    let ray = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0));
    let queries: Vec<Option<RayQuery>> =
        (0..32).map(|_| Some(RayQuery::occlusion(ray, 0.0, 0.0))).collect();
    let res = run_warp(&prims, queries, StackConfig::sms_default());
    assert!(res.occluded.iter().all(|&o| !o), "zero-length segments see nothing");
}

#[test]
fn t_min_beyond_scene_misses() {
    let prims = tiny_scene();
    let ray = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0));
    let queries: Vec<Option<RayQuery>> = (0..32)
        .map(|_| Some(RayQuery { ray, t_min: 100.0, t_max: f32::INFINITY, any_hit: false }))
        .collect();
    let res = run_warp(&prims, queries, StackConfig::baseline8());
    assert!(res.hits.iter().all(Option::is_none));
}

#[test]
fn t_min_skips_first_surface() {
    let prims = tiny_scene();
    let ray = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0));
    let queries: Vec<Option<RayQuery>> = (0..32)
        .map(|_| Some(RayQuery { ray, t_min: 15.0, t_max: f32::INFINITY, any_hit: false }))
        .collect();
    let res = run_warp(&prims, queries, StackConfig::sms_default());
    assert!((res.hits[0].unwrap().t - 20.0).abs() < 1e-4, "skips the z=10 wall");
}

#[test]
fn single_primitive_scene() {
    let prims = vec![Tri(Triangle::new(
        Vec3::new(-1.0, -1.0, 3.0),
        Vec3::new(1.0, -1.0, 3.0),
        Vec3::new(0.0, 1.0, 3.0),
    ))];
    let ray = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0));
    let queries: Vec<Option<RayQuery>> =
        (0..32).map(|_| Some(RayQuery::nearest(ray, 0.0))).collect();
    let res = run_warp(&prims, queries, StackConfig::sms_default());
    assert!(res.hits.iter().all(|h| h.is_some()));
}

#[test]
fn mixed_nearest_and_occlusion_in_one_warp() {
    let prims = tiny_scene();
    let ray = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0));
    let queries: Vec<Option<RayQuery>> = (0..32)
        .map(|lane| {
            if lane % 2 == 0 {
                Some(RayQuery::nearest(ray, 0.0))
            } else {
                Some(RayQuery::occlusion(ray, 0.0, 50.0))
            }
        })
        .collect();
    let res = run_warp(&prims, queries, StackConfig::sms_default());
    for lane in 0..32 {
        if lane % 2 == 0 {
            assert!(res.hits[lane].is_some(), "lane {lane}");
        } else {
            assert!(res.occluded[lane], "lane {lane}");
        }
    }
}

#[test]
fn successive_traces_reuse_slots() {
    // Admit, retire, and re-admit many warps through one unit: slot reuse
    // must reset stack state (fresh WarpStacks per trace).
    let prims = tiny_scene();
    let bvh = FlatBvh::build(&prims, &BuildParams::default());
    let mut unit = RtUnit::new(RtUnitConfig::new(StackConfig::sms_default()));
    let mut l1 = SmL1::new(L1Config::default());
    let mut shared = SharedMem::new(SharedMemConfig::default());
    let mut global = GlobalMemory::new(GlobalMemoryConfig::default());
    let mut stats = SimStats::default();
    let ray = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0));
    let mut now = 0;
    let mut retired = 0;
    let mut next_warp = 0u32;
    while retired < 20 {
        while next_warp < 20 && unit.has_free_slot() {
            let queries: Vec<Option<RayQuery>> =
                (0..32).map(|_| Some(RayQuery::nearest(ray, 0.0))).collect();
            unit.try_admit(
                0,
                TraceRequest::new(next_warp, queries.try_into().unwrap()),
                &mut stats,
            )
            .unwrap();
            next_warp += 1;
        }
        for r in unit.tick(now, &bvh, &prims, &mut l1, &mut shared, &mut global, &mut stats) {
            assert!((r.hits[0].unwrap().t - 10.0).abs() < 1e-4);
            retired += 1;
        }
        now += 1;
        assert!(now < 1_000_000);
    }
    assert_eq!(stats.rays_traced, 20 * 32);
}
