//! Observation purity and ledger consistency of the metrics layer.
//!
//! The properties `DESIGN.md §15` promises:
//!
//! * **purity** — arming `RunLimits::metrics` changes no [`SimStats`]
//!   counter and no image pixel: the run is bit-identical to an
//!   uninstrumented one;
//! * **ledger consistency** — the per-ray spill/reload histograms total
//!   exactly the side counters the simulator already keeps
//!   (`rb_spills`/`rb_reloads` for the baseline, `sh_spills`/`sh_reloads`
//!   for SMS), and every traced ray lands in the latency histogram;
//! * **series integrity** — with a 1-cycle sampling period the sampled
//!   rt-busy series integrates to exactly the attribution layer's `in_rt`
//!   warp-cycle count: two independent observers, one truth.

use sms_sim::gpu::GpuConfig;
use sms_sim::render::PreparedScene;
use sms_sim::rtunit::{SmsParams, StackConfig};
use sms_sim::scene::SceneId;
use sms_sim::sim::{GpuSim, RunLimits, SimRun};
use sms_sim::{RenderConfig, SimConfig};

fn run(prepared: &PreparedScene, stack: StackConfig, limits: RunLimits, period: u64) -> SimRun {
    let config = SimConfig::new(GpuConfig::default(), stack, RenderConfig::tiny());
    GpuSim::new(prepared, config).with_limits(limits).with_sample_period(period).run()
}

fn tight_sms() -> StackConfig {
    // Two SH entries force constant spill traffic to the global stack.
    StackConfig::Sms(SmsParams {
        rb_entries: 2,
        sh_entries: 2,
        skewed: false,
        realloc: false,
        borrow_limit: 0,
        flush_limit: 0,
    })
}

#[test]
fn metrics_is_pure_observation() {
    let render = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Ship, &render);
    let armed = RunLimits { metrics: true, ..RunLimits::none() };
    for stack in [StackConfig::baseline8(), StackConfig::sms_default(), StackConfig::FullOnChip] {
        let off = run(&prepared, stack, RunLimits::none(), 1024);
        let on = run(&prepared, stack, armed, 1024);
        assert_eq!(off.stats, on.stats, "{}: metrics must not perturb stats", stack.label());
        assert_eq!(off.image, on.image, "{}: metrics must not perturb the image", stack.label());
        assert!(off.metrics.is_none());
        assert!(on.metrics.is_some());
    }
}

#[test]
fn spill_reload_histograms_match_side_counters() {
    let render = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Ship, &render);
    let armed = RunLimits { metrics: true, ..RunLimits::none() };

    // Baseline: overflow spills come out of the register-backed stack.
    let base = run(&prepared, StackConfig::Baseline { rb_entries: 2 }, armed, 1024);
    let m = base.metrics.as_ref().unwrap();
    assert!(base.stats.rb_spills > 0, "2-entry RB must spill");
    assert_eq!(m.stacks.ray_spills.sum(), base.stats.rb_spills as u128);
    assert_eq!(m.stacks.ray_reloads.sum(), base.stats.rb_reloads as u128);

    // SMS: overflow spills come out of the shared-memory stack.
    for stack in [StackConfig::sms_default(), tight_sms()] {
        let sms = run(&prepared, stack, armed, 1024);
        let m = sms.metrics.as_ref().unwrap();
        assert_eq!(m.stacks.ray_spills.sum(), sms.stats.sh_spills as u128, "{}", stack.label());
        assert_eq!(m.stacks.ray_reloads.sum(), sms.stats.sh_reloads as u128, "{}", stack.label());
    }
    let tight = run(&prepared, tight_sms(), armed, 1024);
    assert!(tight.stats.sh_spills > 0, "2-entry SH must spill");
}

#[test]
fn every_ray_lands_in_the_latency_histogram() {
    let render = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Ship, &render);
    let armed = RunLimits { metrics: true, ..RunLimits::none() };
    for stack in [StackConfig::baseline8(), StackConfig::sms_default()] {
        let out = run(&prepared, stack, armed, 1024);
        let m = out.metrics.as_ref().unwrap();
        assert_eq!(
            m.stacks.ray_latency.count(),
            out.stats.rays_traced + out.stats.shadow_rays,
            "{}: one latency observation per traced ray",
            stack.label()
        );
        assert!(m.stacks.depth_at_push.count() > 0);
    }
}

#[test]
fn rt_busy_series_integrates_to_attribution_in_rt() {
    // Sampling every cycle makes the step-function integral exact: it must
    // reproduce the attribution layer's `in_rt` warp-cycle count, though
    // the two observers share no code path.
    let render = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Wknd, &render);
    let armed = RunLimits { metrics: true, breakdown: true, ..RunLimits::none() };
    let out = run(&prepared, StackConfig::sms_default(), armed, 1);
    let m = out.metrics.as_ref().unwrap();
    let b = out.breakdown.as_ref().unwrap();
    let integral = m.series.integrate("rt_busy", out.stats.cycles).unwrap();
    assert_eq!(integral as u64, b.in_rt, "rt-busy integral vs in_rt warp-cycles");
    assert!(b.in_rt > 0);
}

#[test]
fn sampled_series_has_schema_columns_and_sane_rates() {
    let render = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Ship, &render);
    let armed = RunLimits { metrics: true, ..RunLimits::none() };
    let out = run(&prepared, StackConfig::sms_default(), armed, 256);
    let m = out.metrics.as_ref().unwrap();
    assert_eq!(m.period, 256);
    let columns: Vec<&str> = m.series.columns().iter().map(String::as_str).collect();
    assert_eq!(columns, sms_sim::metrics::SERIES_COLUMNS);
    assert!(!m.series.is_empty(), "a multi-thousand-cycle run must sample");
    for idx in 0..m.series.len() {
        for rate in ["l1_hit_rate", "l2_hit_rate"] {
            let v = m.series.value(idx, rate).unwrap();
            assert!((0.0..=1.0).contains(&v), "{rate}[{idx}] = {v}");
        }
        assert!(m.series.value(idx, "ipc").unwrap() >= 0.0);
    }
}
