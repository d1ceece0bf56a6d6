//! Criterion micro-benchmarks of the simulator's own hot kernels:
//! intersection tests, BVH construction, cache model, shared-memory bank
//! model, and stack-manager operations.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sms_sim::bvh::{BuildParams, FlatBvh};
use sms_sim::geom::{Aabb, DeterministicRng, Ray, SplitMix64, Triangle, Vec3};
use sms_sim::gpu::SimStats;
use sms_sim::mem::{Cache, CacheConfig, SharedMem, SharedMemConfig};
use sms_sim::rtunit::{StackConfig, WarpStacks};
use sms_sim::scene::{Scene, SceneId};
use std::hint::black_box;

fn rays(n: usize, seed: u64) -> Vec<Ray> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| Ray::new(rng.unit_vector() * 30.0, rng.unit_vector())).collect()
}

fn bench_intersections(c: &mut Criterion) {
    let tri = Triangle::new(
        Vec3::new(-1.0, -1.0, 5.0),
        Vec3::new(1.0, -1.0, 5.0),
        Vec3::new(0.0, 1.0, 5.0),
    );
    let aabb = Aabb::new(Vec3::new(-1.0, -1.0, 4.0), Vec3::new(1.0, 1.0, 6.0));
    let rs = rays(1024, 1);
    c.bench_function("ray_triangle_1k", |b| {
        b.iter(|| {
            let mut hits = 0;
            for r in &rs {
                if tri.intersect(black_box(r), 0.0, f32::INFINITY).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    c.bench_function("ray_aabb_1k", |b| {
        b.iter(|| {
            let mut hits = 0;
            for r in &rs {
                if aabb.intersect(black_box(r), 0.0, f32::INFINITY).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

fn bench_bvh(c: &mut Criterion) {
    let scene = Scene::build(SceneId::Bunny);
    c.bench_function("bvh6_build_bunny", |b| {
        b.iter(|| black_box(FlatBvh::build(&scene.prims, &BuildParams::default())))
    });
    let bvh = FlatBvh::build(&scene.prims, &BuildParams::default());
    let rs = rays(256, 2);
    c.bench_function("bvh6_traverse_256", |b| {
        b.iter(|| {
            let mut hits = 0;
            for r in &rs {
                if sms_sim::bvh::intersect_nearest(
                    &bvh,
                    &scene.prims,
                    r,
                    0.0,
                    f32::INFINITY,
                    &mut (),
                )
                .is_some()
                {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("l1_cache_probe_fill", |b| {
        b.iter_batched(
            || Cache::new(CacheConfig::l1_default()),
            |mut cache| {
                for i in 0..2048u64 {
                    let line = (i * 7919) % 4096 * 128;
                    if !cache.probe(line) {
                        cache.fill(line);
                    }
                }
                black_box(cache)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_shared(c: &mut Criterion) {
    c.bench_function("shared_warp_access", |b| {
        b.iter_batched(
            || SharedMem::new(SharedMemConfig::default()),
            |mut sh| {
                let mut t = 0;
                for round in 0..64u64 {
                    let accesses: Vec<(u64, u32)> =
                        (0..32).map(|l| (l * 64 + round * 8, 8u32)).collect();
                    t = sh.access_warp(t, accesses);
                }
                black_box(t)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_stacks(c: &mut Criterion) {
    for config in [StackConfig::baseline8(), StackConfig::sms_default()] {
        c.bench_function(&format!("stack_push_pop_{}", config.label()), |b| {
            b.iter_batched(
                || WarpStacks::new(&config, 0, 0),
                |mut stacks| {
                    let mut stats = SimStats::default();
                    let mut ops = Vec::new();
                    for lane in 0..32 {
                        for i in 0..24 {
                            stacks.push(lane, i, &mut stats, &mut ops);
                        }
                        while !stacks.is_empty(lane) {
                            black_box(stacks.pop(lane, &mut stats, &mut ops));
                        }
                        ops.clear();
                    }
                    black_box(stats)
                },
                BatchSize::SmallInput,
            )
        });
    }
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_intersections, bench_bvh, bench_cache, bench_shared, bench_stacks
);
criterion_main!(kernels);
