//! The functional renderer and the cycle simulator traverse the one
//! `FlatBvh` through the same `node_step` kernel: every rendered pixel
//! must agree. (The layout itself is pinned by `layout_digest.rs`; the
//! batched slab test is checked against its scalar reference in
//! `sms-bvh`'s `flat` tests.)

use sms_sim::config::{RenderConfig, SimConfig};
use sms_sim::render::PreparedScene;
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;

/// The functional renderer stays in agreement with the simulator's
/// per-ray results.
#[test]
fn functional_render_matches_simulator_through_flat_layout() {
    let render = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Ship, &render);
    let config = SimConfig::with_stack(StackConfig::sms_default(), render);
    let sim = sms_sim::sim::run_to_image(&prepared, &config);
    let func = sms_sim::render::render(&prepared, &render);
    assert_eq!(sim.image, func.image);
}
