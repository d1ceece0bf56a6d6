//! Observation purity and conservation of the stall-attribution layer.
//!
//! The two properties `ISSUE`/`DESIGN.md §14` promise:
//!
//! * **purity** — arming attribution (or the trace export, which implies
//!   it) changes no [`SimStats`] counter: the run is bit-identical to an
//!   unattributed one;
//! * **conservation** — every resident warp-cycle and every RT-resident
//!   lane-cycle is charged to exactly one bucket (the simulator asserts
//!   this internally; here we re-check on the returned value and that the
//!   interesting buckets are actually populated).

use sms_sim::gpu::GpuConfig;
use sms_sim::render::PreparedScene;
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;
use sms_sim::sim::{GpuSim, RunLimits, SimRun};
use sms_sim::trace::TraceSpec;
use sms_sim::{RenderConfig, SimConfig};

fn run(prepared: &PreparedScene, stack: StackConfig, breakdown: bool) -> SimRun {
    let config = SimConfig::new(GpuConfig::default(), stack, RenderConfig::tiny());
    let limits = RunLimits { breakdown, ..RunLimits::none() };
    GpuSim::new(prepared, config).with_limits(limits).run()
}

#[test]
fn attribution_is_pure_observation() {
    let render = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Ship, &render);
    for stack in [StackConfig::baseline8(), StackConfig::sms_default(), StackConfig::FullOnChip] {
        let off = run(&prepared, stack, false);
        let on = run(&prepared, stack, true);
        assert_eq!(off.stats, on.stats, "{}: attribution must not perturb stats", stack.label());
        assert!(off.breakdown.is_none());
        assert!(on.breakdown.is_some());
    }
}

#[test]
fn breakdown_is_conserved_and_populated() {
    let render = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Ship, &render);
    let b = run(&prepared, StackConfig::sms_default(), true).breakdown.unwrap();
    assert!(b.is_conserved(), "{b:?}");
    assert_eq!(b.in_rt * 32, b.rt_lane_cycles, "{b:?}");
    // A path-traced scene exercises every warp-level phase...
    assert!(b.compute > 0 && b.in_rt > 0, "{b:?}");
    // ...and traversal keeps lanes busy on fetches and intersection ops.
    assert!(b.fetch_wait_total() > 0 && b.op_wait > 0, "{b:?}");
}

#[test]
fn tight_rb_stack_shows_stack_wait() {
    // Two RB entries force constant spill traffic to global memory; the
    // taxonomy must surface it as blocking stack waits.
    let render = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Ship, &render);
    let b = run(&prepared, StackConfig::Baseline { rb_entries: 2 }, true).breakdown.unwrap();
    assert!(b.stack_wait_sh_global > 0, "{b:?}");
    assert!(b.is_conserved(), "{b:?}");
}

#[test]
fn trace_export_writes_wellformed_file_without_perturbing_stats() {
    let render = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Ship, &render);
    let stack = StackConfig::sms_default();
    let off = run(&prepared, stack, false);

    let path = std::env::temp_dir().join("sms_attr_test_trace.json");
    let _ = std::fs::remove_file(&path);
    let config = SimConfig::new(GpuConfig::default(), stack, RenderConfig::tiny());
    let spec = TraceSpec { path: path.clone(), trace_id: None };
    let traced = GpuSim::new(&prepared, config).with_trace(spec).with_sample_period(64).run();

    assert_eq!(off.stats, traced.stats, "tracing must not perturb stats");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
    for key in
        ["\"traceEvents\"", "\"stallBreakdown\"", "\"ph\":\"X\"", "\"ph\":\"C\"", "\"ph\":\"M\""]
    {
        assert!(text.contains(key), "trace file missing {key}");
    }
    assert!(text.contains(&format!("\"cycles\":{}", traced.stats.cycles)));
    assert!(!text.contains("traceId"), "an unstamped spec must not stamp the file");
    let _ = std::fs::remove_file(&path);
}
