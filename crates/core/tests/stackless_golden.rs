//! Stackless-traversal golden regression: the escape-index path visits
//! nodes in a fixed pre-order (no nearest-first reordering, no stack), yet
//! it must report the same nearest-hit distance bit-for-bit and the same
//! occlusion answer as the stacked driver for every camera ray of every
//! Table 2 scene. The visit counter also proves the overhead is real: stackless
//! touches at least as many nodes as it has to, and the escape links
//! terminate every walk (no cycles).

use sms_bvh::RayQuery;
use sms_sim::config::RenderConfig;
use sms_sim::driver::PathState;
use sms_sim::render::PreparedScene;
use sms_sim::scene::SceneId;

#[test]
fn stackless_hits_match_stacked_on_every_scene() {
    let render = RenderConfig::tiny();
    for id in SceneId::ALL {
        let prepared = PreparedScene::build(id, &render);
        let prims = prepared.prims();
        let (w, h, _) = render.workload(id);
        let mut rays = 0u32;
        let mut stackless_visits = 0u64;
        for py in 0..h {
            for px in 0..w {
                let ray = PathState::new(px, py, 0, render.seed).primary_ray(&prepared.scene);
                let nearest = RayQuery::nearest(ray, 0.0);
                let stacked = prepared.trace(&nearest).hit.map(|hit| hit.t.to_bits());
                let sl = sms_bvh::traverse_stackless(&prepared.bvh, prims, &nearest);
                assert_eq!(
                    stacked,
                    sl.hit.map(|hit| hit.t.to_bits()),
                    "stackless nearest diverged on {id:?} pixel ({px},{py})"
                );
                assert!(sl.visits >= 1, "stackless walk must at least visit the root");
                stackless_visits += sl.visits;

                let t = stacked.map(f32::from_bits).unwrap_or(1.0e4);
                let shadow = RayQuery::occlusion(ray, 1.0e-3, t * 0.999);
                let occluded = prepared.trace(&shadow).occluded;
                let sl_occluded =
                    sms_bvh::traverse_stackless(&prepared.bvh, prims, &shadow).occluded;
                assert_eq!(
                    occluded, sl_occluded,
                    "stackless any-hit diverged on {id:?} pixel ({px},{py})"
                );
                rays += 1;
            }
        }
        assert!(rays > 0, "workload for {id:?} produced no rays");
        assert!(stackless_visits >= rays as u64, "{id:?}: fewer visits than rays");
    }
}
