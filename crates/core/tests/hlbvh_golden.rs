//! HLBVH golden regression: the parallel Morton-order builder produces a
//! *different* tree than binned SAH, but it must be a *correct* tree —
//! every camera ray reports the same nearest-hit distance and the same
//! occlusion answer on every Table 2 scene. And because the build fans
//! out deterministically, the worker count must never change a byte of
//! the flattened layout.

use sms_bvh::{BuildParams, RayQuery};
use sms_sim::config::RenderConfig;
use sms_sim::driver::PathState;
use sms_sim::render::PreparedScene;
use sms_sim::scene::SceneId;

/// Nearest-hit distances and any-hit answers agree bit-for-bit between the
/// HLBVH tree and the binned-SAH reference tree over all camera primary
/// rays of every scene.
#[test]
fn hlbvh_hits_match_binned_sah_on_every_scene() {
    let render = RenderConfig::tiny();
    let sah = BuildParams { split: sms_bvh::SplitMethod::BinnedSah, ..BuildParams::default() };
    for id in SceneId::ALL {
        let reference = PreparedScene::build_with(id, &render, &sah);
        let hlbvh = PreparedScene::build_with(id, &render, &BuildParams::hlbvh(1));
        let (w, h, _) = render.workload(id);
        let mut rays = 0u32;
        for py in 0..h {
            for px in 0..w {
                let ray = PathState::new(px, py, 0, render.seed).primary_ray(&reference.scene);
                let nearest = RayQuery::nearest(ray, 0.0);
                let want = reference.trace(&nearest).hit.map(|hit| hit.t.to_bits());
                let got = hlbvh.trace(&nearest).hit.map(|hit| hit.t.to_bits());
                assert_eq!(want, got, "nearest-hit diverged on {id:?} pixel ({px},{py})");
                let t = want.map(f32::from_bits).unwrap_or(1.0e4);
                let shadow = RayQuery::occlusion(ray, 1.0e-3, t * 0.999);
                assert_eq!(
                    reference.trace(&shadow).occluded,
                    hlbvh.trace(&shadow).occluded,
                    "any-hit diverged on {id:?} pixel ({px},{py})"
                );
                rays += 1;
            }
        }
        assert!(rays > 0, "workload for {id:?} produced no rays");
    }
}

/// The worker count is a pure wall-clock knob: 1-worker and 8-worker HLBVH
/// builds flatten to byte-identical layouts on every scene.
#[test]
fn hlbvh_flat_layout_is_identical_across_worker_counts() {
    let render = RenderConfig::tiny();
    for id in SceneId::ALL {
        let one = PreparedScene::build_with(id, &render, &BuildParams::hlbvh(1));
        for workers in [2, 8] {
            let many = PreparedScene::build_with(id, &render, &BuildParams::hlbvh(workers));
            assert_eq!(one.bvh, many.bvh, "{id:?} flat layout changed at {workers} workers");
            assert_eq!(
                one.bvh.host_bytes(),
                many.bvh.host_bytes(),
                "{id:?} footprint changed at {workers} workers"
            );
        }
    }
}
