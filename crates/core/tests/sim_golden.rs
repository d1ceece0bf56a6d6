//! Exact simulated statistics, pinned in tier-1.
//!
//! A host-side speed-up of the cycle model must leave every simulated
//! counter untouched. Each `sim_golden.<scene>.<stack>` row of the golden
//! table (`goldens.txt`, `sms_geom::golden`) is an FNV-1a digest over
//! `SimStats::values()` followed by `MemStats::values()` (the
//! `counter_record!` field lists, so a new counter joins the digest by
//! being declared) for one `RenderConfig::tiny()` cell. The rows were
//! recorded at the commit before the RT unit's event index and the flat
//! cache model landed; a row that moves means the *model* changed, not
//! just the bookkeeping, and needs a re-bless with an explanation.
//!
//! The same cells, run with the metrics layer and the Fig. 10 recorder
//! armed over every warp, pin what those observers produce: each
//! `sim_observers.<scene>.<stack>.{prom,csv,traces}` row is the FNV-1a of
//! the rendered Prometheus text, of the series CSV and of the thread-trace
//! samples in `(warp, lane, index)` order.

use sms_sim::geom::golden::{self, fnv1a64, fnv1a64_extend, FNV_OFFSET};
use sms_sim::gpu::{GpuConfig, SimStats};
use sms_sim::render::PreparedScene;
use sms_sim::rtunit::{SmsParams, StackConfig};
use sms_sim::scene::SceneId;
use sms_sim::sim::{GpuSim, RunLimits};
use sms_sim::{experiments, RenderConfig, SimConfig};

fn digest(stats: &SimStats) -> u64 {
    let values = stats.values().into_iter().chain(stats.mem.values());
    values.fold(FNV_OFFSET, |h, v| fnv1a64_extend(h, &v.to_le_bytes()))
}

/// SMS with one borrow allowed: reallocation runs into the limit, so
/// flushes and their multi-entry micro-ops are timed.
fn limited_sms() -> StackConfig {
    StackConfig::Sms(SmsParams {
        rb_entries: 2,
        sh_entries: 4,
        skewed: true,
        realloc: true,
        borrow_limit: 1,
    })
}

fn configs() -> [StackConfig; 6] {
    [
        StackConfig::baseline8(),
        StackConfig::sms_default(),
        limited_sms(),
        StackConfig::FullOnChip,
        StackConfig::stackless(),
        StackConfig::predictor_default(),
    ]
}

fn run(prepared: &PreparedScene, stack: StackConfig, limits: &RunLimits) -> SimStats {
    let render = RenderConfig::tiny();
    experiments::try_run_prepared(prepared, stack, GpuConfig::default(), &render, limits)
        .unwrap_or_else(|fault| panic!("{}: {fault}", stack.label()))
        .stats
}

/// The scenes of the recorded cells, each under every entry of [`configs`].
/// FOX rides along because it is the tiny workload on which `PRED_12` both
/// hits and mispredicts (on SHIP, WKND and ROBOT the table never fires and
/// the `PRED_12` digest equals `RB_8`'s).
const SCENES: [SceneId; 4] = [SceneId::Ship, SceneId::Wknd, SceneId::Robot, SceneId::Fox];

#[test]
fn stats_digests_match_the_recorded_cells() {
    let render = RenderConfig::tiny();
    let mut rows = Vec::new();
    for scene in SCENES {
        let prepared = PreparedScene::build(scene, &render);
        for stack in configs() {
            let d = digest(&run(&prepared, stack, &RunLimits::none()));
            rows.push((format!("{}.{}", scene.name(), stack.label()), format!("{d:#018x}")));
        }
    }
    golden::check("sim_golden", &rows);
}

#[test]
fn observer_digests_match_the_recorded_cells() {
    let render = RenderConfig::tiny();
    let armed = RunLimits { metrics: true, ..RunLimits::none() };
    let mut rows = Vec::new();
    for scene in SCENES {
        let prepared = PreparedScene::build(scene, &render);
        for stack in configs() {
            let config = SimConfig::new(GpuConfig::default(), stack, render);
            let run = GpuSim::new(&prepared, config).with_limits(armed).trace_warps(u32::MAX).run();
            let metrics = run.metrics.expect("metrics armed");
            let cell = format!("{}.{}", scene.name(), stack.label());
            let prom =
                metrics.registry(scene.name(), &stack.label(), &run.stats).render_prometheus();
            // A thread's index is unique, so the depth never decides the order.
            let mut samples = run.thread_traces;
            samples.sort_unstable();
            let traces = samples.iter().fold(FNV_OFFSET, |h, &(warp, lane, index, depth)| {
                let h = fnv1a64_extend(h, &warp.to_le_bytes());
                let h = fnv1a64_extend(h, &[lane]);
                fnv1a64_extend(fnv1a64_extend(h, &index.to_le_bytes()), &depth.to_le_bytes())
            });
            for (what, d) in [
                ("prom", fnv1a64(prom.as_bytes())),
                ("csv", fnv1a64(metrics.series.to_csv().as_bytes())),
                ("traces", traces),
            ] {
                rows.push((format!("{cell}.{what}"), format!("{d:#018x}")));
            }
        }
    }
    golden::check("sim_observers", &rows);
}

#[test]
fn armed_observers_leave_the_digest_alone() {
    let render = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Ship, &render);
    let armed = RunLimits { validate: true, breakdown: true, metrics: true, ..RunLimits::none() };
    for stack in [StackConfig::sms_default(), limited_sms()] {
        let plain = run(&prepared, stack, &RunLimits::none());
        assert_eq!(
            digest(&run(&prepared, stack, &armed)),
            digest(&plain),
            "{}: validator + attribution + metrics must not move a counter",
            stack.label()
        );
        assert!(plain.ra_borrows > 0 && plain.ra_flushes > 0, "{}: {plain:?}", stack.label());
    }
}
