//! The cycle-level RT unit must produce exactly the reference traversal's
//! results for every stack configuration, and its cycle counts must order
//! the way the paper's architecture argument predicts.

use sms_bvh::{BuildParams, FlatBvh, Hit, PrimHit, Primitive, TraversalScratch};
use sms_geom::{Aabb, Ray, SplitMix64, Triangle, Vec3};
use sms_gpu::SimStats;
use sms_mem::{GlobalMemory, GlobalMemoryConfig, L1Config, SharedMem, SharedMemConfig, SmL1};
use sms_metrics::Histogram;
use sms_rtunit::{
    RayQuery, RtUnit, RtUnitConfig, SmsParams, StackConfig, ThreadTraceRecorder, TraceRequest,
    TraceResult,
};

struct Tri(Triangle);
impl Primitive for Tri {
    fn aabb(&self) -> Aabb {
        self.0.aabb()
    }
    fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<PrimHit> {
        self.0.intersect(ray, t_min, t_max).map(|h| PrimHit { t: h.t, u: h.u, v: h.v })
    }
}

/// A scene with heavy bound overlap so stacks actually go deep: layered
/// rings of triangles around the origin.
fn cluttered_scene(n: usize) -> Vec<Tri> {
    let mut rng = SplitMix64::new(0xBEEF);
    let mut prims = Vec::with_capacity(n);
    for _ in 0..n {
        use sms_geom::DeterministicRng;
        let c = rng.unit_vector() * rng.range_f32(1.0, 20.0);
        let a = rng.unit_vector() * rng.range_f32(0.3, 3.0);
        let b = rng.unit_vector() * rng.range_f32(0.3, 3.0);
        prims.push(Tri(Triangle::new(c, c + a, c + b)));
    }
    prims
}

fn rays(n: usize) -> Vec<Ray> {
    let mut rng = SplitMix64::new(0xF00D);
    (0..n)
        .map(|_| {
            use sms_geom::DeterministicRng;
            let origin = rng.unit_vector() * 30.0;
            let target = rng.unit_vector() * 3.0;
            Ray::new(origin, target - origin)
        })
        .collect()
}

/// How the driver picks the next cycle to tick.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Clock {
    /// `tick` on every cycle.
    EveryCycle,
    /// `tick` at `now + 1` while something is issuable, else jump to
    /// `next_completion()` — the SM loop's idle skip.
    EventDriven,
}

/// Everything observable about one drive of an RT unit.
#[derive(Debug, PartialEq)]
struct Drive {
    /// `(retire cycle, result)` in retirement order.
    retired: Vec<(u64, TraceResult)>,
    stats: SimStats,
}

/// Runs up to four warps of rays through one RT unit to completion. After
/// every `tick(now)` the unit must report no completion at or before
/// `now`: the idle skip and `tick`'s own nothing-due return rest on it.
fn drive(
    config: StackConfig,
    bvh: &FlatBvh,
    prims: &[Tri],
    all_rays: &[Ray],
    clock: Clock,
) -> Drive {
    assert!(all_rays.len() <= 128, "one RT unit holds at most 4 warps");
    let mut unit = RtUnit::new(RtUnitConfig::new(config));
    let mut l1 = SmL1::new(L1Config::default());
    let mut shared = SharedMem::new(SharedMemConfig::default());
    let mut global = GlobalMemory::new(GlobalMemoryConfig::default());
    let mut stats = SimStats::default();

    let warps = all_rays.chunks(32).count();
    for (w, chunk) in all_rays.chunks(32).enumerate() {
        let mut queries: Vec<Option<RayQuery>> = vec![None; 32];
        for (i, r) in chunk.iter().enumerate() {
            queries[i] = Some(RayQuery::nearest(*r, 0.0));
        }
        unit.try_admit(0, TraceRequest::new(w as u32, queries.try_into().unwrap()), &mut stats)
            .expect("free slot");
    }

    let mut now = 0u64;
    let mut retired = Vec::new();
    loop {
        for res in unit.tick(now, bvh, prims, &mut l1, &mut shared, &mut global, &mut stats) {
            retired.push((now, res));
        }
        let next = unit.next_completion();
        assert!(next.is_none_or(|c| c > now), "{config} {clock:?}: {next:?} left due at {now}");
        if retired.len() == warps {
            break;
        }
        now = match clock {
            Clock::EventDriven if !unit.has_issuable() => next.expect("a waiting lane"),
            _ => now + 1,
        };
        assert!(now < 50_000_000, "RT unit failed to converge");
    }
    stats.cycles = now + 1;
    Drive { retired, stats }
}

/// [`drive`] on every cycle; returns per-ray hits (in input order) and the
/// total cycle count.
fn run_unit(
    config: StackConfig,
    bvh: &FlatBvh,
    prims: &[Tri],
    all_rays: &[Ray],
) -> (Vec<Option<Hit>>, u64, SimStats) {
    let Drive { retired, stats } = drive(config, bvh, prims, all_rays, Clock::EveryCycle);
    let mut hits: Vec<Option<Hit>> = vec![None; all_rays.len()];
    for (_, res) in retired {
        let base = res.warp as usize * 32;
        for lane in 0..32 {
            if base + lane < hits.len() {
                hits[base + lane] = res.hits[lane];
            }
        }
    }
    (hits, stats.cycles, stats)
}

#[test]
fn ticking_only_when_something_is_due_is_exact() {
    let prims = cluttered_scene(12_000);
    let bvh = FlatBvh::build(&prims, &BuildParams::default());
    let rays = rays(128);
    for config in [StackConfig::baseline8(), StackConfig::sms_default()] {
        let every = drive(config, &bvh, &prims, &rays, Clock::EveryCycle);
        let event = drive(config, &bvh, &prims, &rays, Clock::EventDriven);
        assert_eq!(every.retired.len(), 4, "{config}: four warps retire");
        assert!(every.stats.rb_spills > 0, "{config}: workload must reach the spill path");
        assert_eq!(every, event, "{config}: skipped cycles must be cycles with nothing to do");
    }
}

#[test]
fn results_match_reference_for_all_configs() {
    let prims = cluttered_scene(3000);
    let bvh = FlatBvh::build(&prims, &BuildParams::default());
    let rays = rays(32);

    let mut scratch = TraversalScratch::new();
    let reference: Vec<Option<Hit>> = rays
        .iter()
        .map(|r| {
            let query = RayQuery::nearest(*r, 0.0);
            sms_bvh::traverse(&bvh, &prims, &query, &mut (), &mut scratch).hit
        })
        .collect();

    for config in [
        StackConfig::baseline8(),
        StackConfig::Baseline { rb_entries: 2 },
        StackConfig::FullOnChip,
        StackConfig::Sms(SmsParams::default()),
        StackConfig::Sms(SmsParams::default().with_skewed(true)),
        StackConfig::sms_default(),
    ] {
        let (hits, _, _) = run_unit(config, &bvh, &prims, &rays);
        for lane in 0..32 {
            assert_eq!(
                hits[lane].map(|h| h.prim),
                reference[lane].map(|h| h.prim),
                "{config}: lane {lane} hit mismatch"
            );
        }
    }
}

#[test]
fn traversal_work_is_identical_across_configs() {
    let prims = cluttered_scene(2000);
    let bvh = FlatBvh::build(&prims, &BuildParams::default());
    let rays = rays(32);
    let mut visits = Vec::new();
    for config in [StackConfig::baseline8(), StackConfig::sms_default(), StackConfig::FullOnChip] {
        let (_, _, stats) = run_unit(config, &bvh, &prims, &rays);
        visits.push(stats.node_visits);
    }
    assert_eq!(visits[0], visits[1], "node visits must not depend on stack config");
    assert_eq!(visits[0], visits[2]);
}

#[test]
fn cycle_counts_order_as_the_paper_predicts() {
    // Deep-stack workload with enough concurrent threads and geometry to
    // pressure the 64KB L1 (the regime the paper studies): full on-chip <=
    // SMS < small baseline.
    let prims = cluttered_scene(24_000);
    let bvh = FlatBvh::build(&prims, &BuildParams::default());
    let rays = rays(128);

    let (_, cycles_base2, _) =
        run_unit(StackConfig::Baseline { rb_entries: 2 }, &bvh, &prims, &rays);
    let (_, cycles_base8, stats8) = run_unit(StackConfig::baseline8(), &bvh, &prims, &rays);
    let (_, cycles_sms, stats_sms) = run_unit(
        StackConfig::Sms(SmsParams { rb_entries: 2, ..SmsParams::default() }),
        &bvh,
        &prims,
        &rays,
    );
    let (_, cycles_full, stats_full) = run_unit(StackConfig::FullOnChip, &bvh, &prims, &rays);

    assert!(stats8.rb_spills > 0, "workload must stress the 8-entry stack");
    assert_eq!(stats_full.rb_spills, 0);
    assert!(
        cycles_base2 > cycles_base8,
        "smaller baseline stack must be slower ({cycles_base2} vs {cycles_base8})"
    );
    assert!(
        cycles_sms < cycles_base2,
        "SMS on RB_2 must beat baseline RB_2 ({cycles_sms} vs {cycles_base2})"
    );
    assert!(cycles_full <= cycles_sms, "full stack is the upper bound");
    assert!(stats_sms.sh_spills <= stats_sms.rb_spills);
}

#[test]
fn occlusion_queries_match_reference() {
    let prims = cluttered_scene(1500);
    let bvh = FlatBvh::build(&prims, &BuildParams::default());
    let rays = rays(32);

    let mut unit = RtUnit::new(RtUnitConfig::new(StackConfig::sms_default()));
    let mut l1 = SmL1::new(L1Config::default());
    let mut shared = SharedMem::new(SharedMemConfig::default());
    let mut global = GlobalMemory::new(GlobalMemoryConfig::default());
    let mut stats = SimStats::default();
    let queries: Vec<Option<RayQuery>> =
        rays.iter().map(|r| Some(RayQuery::occlusion(*r, 0.0, 25.0))).collect();
    let request = TraceRequest::new(0, queries.clone().try_into().unwrap());
    unit.try_admit(0, request, &mut stats).unwrap();
    let mut now = 0;
    let mut results = Vec::new();
    while results.is_empty() {
        results = unit.tick(now, &bvh, &prims, &mut l1, &mut shared, &mut global, &mut stats);
        now += 1;
        assert!(now < 20_000_000);
    }
    let res = results.pop().unwrap();
    let mut scratch = TraversalScratch::new();
    for (lane, query) in queries.iter().enumerate() {
        let expected = sms_bvh::traverse(&bvh, &prims, &query.unwrap(), &mut (), &mut scratch);
        assert_eq!(res.occluded[lane], expected.occluded, "lane {lane}");
        assert_eq!(res.hits[lane], None, "lane {lane}: an any-hit query keeps no hit");
    }
    assert_eq!(stats.shadow_rays, 32);
}

#[test]
fn warp_buffer_capacity_enforced() {
    let prims = cluttered_scene(100);
    let bvh = FlatBvh::build(&prims, &BuildParams::default());
    let _ = bvh;
    let mut unit = RtUnit::new(RtUnitConfig::new(StackConfig::baseline8()));
    let mut stats = SimStats::default();
    let mk = |w| {
        let r = Ray::new(Vec3::new(0.0, 0.0, -30.0), Vec3::new(0.0, 0.0, 1.0));
        TraceRequest::new(w, [Some(RayQuery::nearest(r, 0.0)); 32])
    };
    for w in 0..4 {
        assert!(unit.try_admit(0, mk(w), &mut stats).is_ok());
    }
    assert!(!unit.has_free_slot());
    assert!(unit.try_admit(0, mk(4), &mut stats).is_err(), "5th warp must bounce");
    assert_eq!(unit.busy_warps(), 4);
}

#[test]
fn skew_reduces_bank_conflict_cycles() {
    let prims = cluttered_scene(12_000);
    let bvh = FlatBvh::build(&prims, &BuildParams::default());
    let rays = rays(128);
    let (_, _, plain) = run_unit(StackConfig::Sms(SmsParams::default()), &bvh, &prims, &rays);
    let (_, _, skewed) =
        run_unit(StackConfig::Sms(SmsParams::default().with_skewed(true)), &bvh, &prims, &rays);
    assert!(plain.mem.bank_conflict_cycles > 0, "workload must generate SH traffic");
    assert!(
        skewed.mem.bank_conflict_cycles < plain.mem.bank_conflict_cycles,
        "skewing must reduce conflicts ({} vs {})",
        skewed.mem.bank_conflict_cycles,
        plain.mem.bank_conflict_cycles
    );
}

#[test]
fn depth_recorder_sees_pushes() {
    // The Fig. 10 thread-trace recorder sees every push and pop at the
    // depths the functional driver's observer sees.
    let prims = cluttered_scene(2000);
    let bvh = FlatBvh::build(&prims, &BuildParams::default());
    let rays = rays(32);
    let mut unit = RtUnit::new(RtUnitConfig::new(StackConfig::FullOnChip));
    unit.thread_traces = Some(ThreadTraceRecorder::new(u32::MAX));
    let mut l1 = SmL1::new(L1Config::default());
    let mut shared = SharedMem::new(SharedMemConfig::default());
    let mut global = GlobalMemory::new(GlobalMemoryConfig::default());
    let mut stats = SimStats::default();
    let queries: Vec<Option<RayQuery>> =
        rays.iter().map(|r| Some(RayQuery::nearest(*r, 0.0))).collect();
    unit.try_admit(0, TraceRequest::new(0, queries.try_into().unwrap()), &mut stats).unwrap();
    let mut now = 0;
    while unit.busy_warps() > 0 {
        unit.tick(now, &bvh, &prims, &mut l1, &mut shared, &mut global, &mut stats);
        now += 1;
        assert!(now < 20_000_000);
    }
    let mut depths = Histogram::new();
    for &(_, _, _, depth) in &unit.thread_traces.expect("armed").samples {
        depths.record(u64::from(depth));
    }
    let mut functional = Histogram::new();
    let mut scratch = TraversalScratch::new();
    for r in &rays {
        let query = RayQuery::nearest(*r, 0.0);
        sms_bvh::traverse(&bvh, &prims, &query, &mut functional, &mut scratch);
    }
    assert!(depths.count() > 0);
    assert!(depths.max() > 2);
    assert_eq!(depths, functional);
}
