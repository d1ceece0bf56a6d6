//! Workspace-level integration tests spanning every crate: scene
//! generation → BVH → functional render → cycle simulation → experiment
//! plumbing, checking the end-to-end invariants the reproduction rests on.

use sms_sim::bvh::{BuildParams, BvhStats};
use sms_sim::config::{RenderConfig, SimConfig};
use sms_sim::experiments::{run_prepared, scene_list};
use sms_sim::gpu::GpuConfig;
use sms_sim::render::{render, PreparedScene};
use sms_sim::rtunit::{SmsParams, StackConfig};
use sms_sim::scene::{Scene, SceneId};

/// Every scene builds, has a valid BVH, and renders non-trivially.
#[test]
fn all_scenes_build_and_render() {
    let cfg = RenderConfig::tiny();
    for id in SceneId::ALL {
        let prepared = PreparedScene::build(id, &cfg);
        let stats = BvhStats::measure(&prepared.bvh);
        assert!(stats.nodes > 0, "{id}: empty BVH");
        assert!(stats.depth < 64, "{id}: runaway BVH depth {}", stats.depth);
        let out = render(&prepared, &cfg);
        assert!(out.rays >= (16 * 16) as u64, "{id}: no rays traced");
        assert!(out.image.iter().all(|p| p.is_finite()), "{id}: NaN radiance");
    }
}

/// The documented Table II relative ordering survives workload scaling.
#[test]
fn scene_sizes_ordering() {
    let count = |id| Scene::build(id).triangle_count();
    assert!(count(SceneId::Robot) > count(SceneId::Car));
    assert!(count(SceneId::Car) > count(SceneId::Party));
    assert!(count(SceneId::Ship) < count(SceneId::Spnza));
    assert_eq!(count(SceneId::Wknd), 0, "WKND is the sphere scene");
}

/// The headline experiment (Fig. 13 shape) on one deep-stack scene:
/// baseline < SMS <= full, with identical traversal work.
#[test]
fn headline_ordering_chsnt() {
    let render_cfg = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Chsnt, &render_cfg);
    let gpu = GpuConfig::default();
    let base = run_prepared(&prepared, StackConfig::baseline8(), gpu, &render_cfg);
    let sms = run_prepared(&prepared, StackConfig::sms_default(), gpu, &render_cfg);
    let full = run_prepared(&prepared, StackConfig::FullOnChip, gpu, &render_cfg);

    assert_eq!(base.stats.node_visits, sms.stats.node_visits);
    assert_eq!(base.stats.node_visits, full.stats.node_visits);
    assert!(base.stats.rb_spills > 0, "workload must spill");
    assert!(
        sms.stats.cycles < base.stats.cycles,
        "SMS ({}) must beat baseline ({})",
        sms.stats.cycles,
        base.stats.cycles
    );
    assert!(full.stats.cycles <= sms.stats.cycles, "full stack is the bound");
    // SMS moves stack traffic on-chip: off-chip accesses drop.
    assert!(sms.stats.mem.offchip_accesses() < base.stats.mem.offchip_accesses());
    assert!(sms.stats.mem.shared_accesses > 0);
}

/// Smaller RB stacks hurt the baseline but SMS recovers them (Fig. 15a).
#[test]
fn rb2_with_sms_beats_plain_rb2() {
    let render_cfg = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Ship, &render_cfg);
    let gpu = GpuConfig::default();
    let rb2 = run_prepared(&prepared, StackConfig::Baseline { rb_entries: 2 }, gpu, &render_cfg);
    let rb8 = run_prepared(&prepared, StackConfig::baseline8(), gpu, &render_cfg);
    let rb2_sms = run_prepared(
        &prepared,
        StackConfig::Sms(
            SmsParams { rb_entries: 2, ..SmsParams::default() }
                .with_skewed(true)
                .with_realloc(true),
        ),
        gpu,
        &render_cfg,
    );
    assert!(rb2.stats.cycles > rb8.stats.cycles, "RB_2 must be slower than RB_8");
    assert!(rb2_sms.stats.cycles < rb2.stats.cycles, "SMS must rescue RB_2");
    assert!(
        rb2.stats.mem.offchip_accesses() > rb8.stats.mem.offchip_accesses(),
        "RB_2 must raise off-chip traffic (Fig. 15b)"
    );
}

/// Skewed bank access reduces conflict delay cycles (Fig. 14).
#[test]
fn skew_reduces_conflicts_end_to_end() {
    let render_cfg = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Party, &render_cfg);
    let gpu = GpuConfig::default();
    let plain = run_prepared(&prepared, StackConfig::Sms(SmsParams::default()), gpu, &render_cfg);
    let skewed = run_prepared(
        &prepared,
        StackConfig::Sms(SmsParams::default().with_skewed(true)),
        gpu,
        &render_cfg,
    );
    assert!(plain.stats.mem.bank_conflict_cycles > 0);
    assert!(
        skewed.stats.mem.bank_conflict_cycles < plain.stats.mem.bank_conflict_cycles,
        "skew: {} -> {}",
        plain.stats.mem.bank_conflict_cycles,
        skewed.stats.mem.bank_conflict_cycles
    );
}

/// The BVH-quality ablation knob works end to end and SAH produces
/// cheaper traversal.
#[test]
fn sah_builder_traverses_fewer_nodes() {
    let cfg = RenderConfig::tiny();
    let visits = |params: &BuildParams| {
        let prepared = PreparedScene::build_with(SceneId::Bunny, &cfg, params);
        render(&prepared, &cfg).depths.count()
    };
    let vm = visits(&BuildParams::default());
    let vs = visits(&BuildParams::sah());
    assert!(vs < vm, "SAH stack ops {vs} should undercut median {vm}");
}

/// The paper-size configuration plumbs through (without running a full
/// simulation): workloads and spp match §VII-A.
#[test]
fn paper_workload_sizes() {
    let cfg = RenderConfig::paper();
    assert_eq!(cfg.workload(SceneId::Party), (128, 128, 2));
    assert_eq!(cfg.workload(SceneId::Park), (32, 32, 1));
    let sim = SimConfig::with_stack(StackConfig::sms_default(), cfg);
    assert_eq!(sim.gpu.l1.size_bytes, 56 * 1024);
}

/// `scene_list` returns the full Table II suite by default.
#[test]
fn default_scene_list_is_full_suite() {
    assert_eq!(scene_list(&sms_sim::Env::default()), Ok(SceneId::ALL.to_vec()));
}
