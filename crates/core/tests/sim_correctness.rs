//! End-to-end correctness: the cycle simulator must be functionally exact
//! (bit-identical images to the reference renderer) under every stack
//! configuration, and its relative performance must follow the paper.

use sms_rtunit::{SmsParams, StackConfig};
use sms_scene::SceneId;
use sms_sim::config::{RenderConfig, SimConfig};
use sms_sim::render::{render, PreparedScene};
use sms_sim::sim::run_to_image;

#[test]
fn sim_image_matches_functional_render_every_config() {
    let cfg = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Ship, &cfg);
    let reference = render(&prepared, &cfg);

    for stack in [
        StackConfig::baseline8(),
        StackConfig::Baseline { rb_entries: 2 },
        StackConfig::FullOnChip,
        StackConfig::Sms(SmsParams::default()),
        StackConfig::sms_default(),
    ] {
        let sim = run_to_image(&prepared, &SimConfig::with_stack(stack, cfg));
        assert_eq!(sim.width, reference.width);
        assert_eq!(sim.image.len(), reference.image.len());
        for (i, (a, b)) in sim.image.iter().zip(&reference.image).enumerate() {
            assert!(
                (*a - *b).length() < 1e-6,
                "{stack}: pixel {i} differs: sim {a} vs reference {b}"
            );
        }
    }
}

#[test]
fn sim_image_matches_on_sphere_scene() {
    // WKND exercises the analytic-sphere primitive path end to end.
    let cfg = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Wknd, &cfg);
    let reference = render(&prepared, &cfg);
    let sim = run_to_image(&prepared, &SimConfig::with_stack(StackConfig::sms_default(), cfg));
    for (a, b) in sim.image.iter().zip(&reference.image) {
        assert!((*a - *b).length() < 1e-6);
    }
}

#[test]
fn work_counters_are_stack_invariant() {
    let cfg = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Party, &cfg);
    let mut reference: Option<(u64, u64, u64)> = None;
    for stack in [StackConfig::baseline8(), StackConfig::sms_default(), StackConfig::FullOnChip] {
        let run = sms_sim::GpuSim::new(&prepared, SimConfig::with_stack(stack, cfg)).run();
        let key = (run.stats.node_visits, run.stats.rays_traced, run.stats.thread_instructions);
        match &reference {
            None => reference = Some(key),
            Some(r) => assert_eq!(*r, key, "{stack} changed traversal/compute work"),
        }
    }
}

#[test]
fn paper_ordering_holds_on_party() {
    // PARTY is a deep-stack scene; the headline ordering must hold:
    // RB_FULL >= SMS > baseline RB_8 in IPC (i.e. reversed in cycles).
    let cfg = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Party, &cfg);
    let cycles = |stack| {
        sms_sim::GpuSim::new(&prepared, SimConfig::with_stack(stack, cfg)).run().stats.cycles
    };
    let base = cycles(StackConfig::baseline8());
    let sms = cycles(StackConfig::sms_default());
    let full = cycles(StackConfig::FullOnChip);
    assert!(sms < base, "SMS must beat the baseline (sms {sms} vs base {base})");
    assert!(full <= sms, "full on-chip stack is the bound (full {full} vs sms {sms})");
}

#[test]
fn depth_recording_in_sim_matches_functional() {
    // The depths recorded by the cycle model equal the functional ones:
    // the same pushes/pops happen at the same logical depths.
    let cfg = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Bunny, &cfg);
    // The Fig. 10 thread-trace recorder, armed on every warp, sees them.
    let functional = render(&prepared, &cfg).depths;
    let sim = sms_sim::GpuSim::new(&prepared, SimConfig::with_stack(StackConfig::FullOnChip, cfg))
        .trace_warps(u32::MAX)
        .run();
    let mut depths = sms_metrics::Histogram::new();
    for &(_, _, _, depth) in &sim.thread_traces {
        depths.record(u64::from(depth));
    }
    assert_eq!(depths.count(), functional.count());
    assert_eq!(depths.max(), functional.max());
    assert_eq!(depths, functional);
}

#[test]
fn thread_traces_recorded_for_fig10() {
    let cfg = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Ship, &cfg);
    let sim = sms_sim::GpuSim::new(&prepared, SimConfig::with_stack(StackConfig::baseline8(), cfg))
        .trace_warps(2)
        .run();
    assert!(!sim.thread_traces.is_empty());
    assert!(sim.thread_traces.iter().all(|(w, lane, _, _)| *w < 2 && (*lane as usize) < 32));
    // Access indices are per-lane monotone starting at 0.
    let lane0: Vec<u32> = sim
        .thread_traces
        .iter()
        .filter(|(w, l, _, _)| *w == 0 && *l == 0)
        .map(|(_, _, i, _)| *i)
        .collect();
    assert!(!lane0.is_empty());
    assert_eq!(lane0[0], 0);
    assert!(lane0.windows(2).all(|p| p[1] == p[0] + 1));
}

#[test]
fn fig10_access_index_runs_per_thread_across_the_run() {
    // Each warp of a tiny PARTY render issues several traces (primary,
    // shadow and bounce rays); a thread numbers its stack accesses across
    // all of them, so every (warp, lane, index) key is unique and each
    // thread's indices run 0, 1, 2, … with no restart.
    let cfg = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Party, &cfg);
    let sim = sms_sim::GpuSim::new(&prepared, SimConfig::with_stack(StackConfig::FullOnChip, cfg))
        .trace_warps(2)
        .run();
    assert!(sim.stats.shadow_rays > 0, "the warps trace more than once");
    let mut per_thread: std::collections::BTreeMap<(u32, u8), Vec<u32>> = Default::default();
    for &(warp, lane, index, _) in &sim.thread_traces {
        per_thread.entry((warp, lane)).or_default().push(index);
    }
    assert!(!per_thread.is_empty());
    for ((warp, lane), indices) in per_thread {
        let restart = indices.iter().zip(0..).find(|&(&index, expected)| index != expected);
        assert_eq!(restart, None, "warp {warp} lane {lane}: (index, expected) of its first gap");
    }
}
