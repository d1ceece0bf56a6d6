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
//! samples in `(warp, lane, index)` order. Two more rows per cell pin the
//! cycle-attribution layer: `<cell>.breakdown` is the FNV-1a of every
//! `StallBreakdown` field from a run with only `breakdown` armed, and
//! `<cell>.timeline` that of the Chrome-trace file a traced run writes
//! (residency slices, sampled counters and the breakdown).
//!
//! The event-skipping loop visits an SM only when it can change state.
//! `GpuSim::dense_schedule` visits every SM on every cycle instead, and
//! `the_dense_schedule_writes_the_recorded_rows` holds it to every row of
//! every cell, the sampled `.csv` and `.timeline` rows included: each
//! sample reads the state at its period boundary, whichever cycles the
//! loop visits.

use sms_sim::geom::golden::{self, fnv1a64, fnv1a64_extend, FNV_OFFSET};
use sms_sim::gpu::{GpuConfig, SimStats};
use sms_sim::render::PreparedScene;
use sms_sim::rtunit::{SmsParams, StackConfig};
use sms_sim::scene::SceneId;
use sms_sim::sim::{GpuSim, RunLimits};
use sms_sim::trace::TraceSpec;
use sms_sim::{experiments, RenderConfig, SimConfig};
use std::path::{Path, PathBuf};

fn fold(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(FNV_OFFSET, |h, v| fnv1a64_extend(h, &v.to_le_bytes()))
}

fn digest(stats: &SimStats) -> u64 {
    fold(stats.values().into_iter().chain(stats.mem.values()))
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

/// The simulator for one tiny cell: the event-skipping loop, or with
/// `dense` the reference schedule that visits every SM on every cycle.
fn sim(prepared: &PreparedScene, stack: StackConfig, dense: bool) -> GpuSim<'_> {
    let sim =
        GpuSim::new(prepared, SimConfig::new(GpuConfig::default(), stack, RenderConfig::tiny()));
    if dense {
        sim.dense_schedule()
    } else {
        sim
    }
}

fn cell(prepared: &PreparedScene, stack: StackConfig) -> String {
    format!("{}.{}", prepared.scene.id.name(), stack.label())
}

/// The cell's `sim_golden` row.
fn stats_row(prepared: &PreparedScene, stack: StackConfig, dense: bool) -> (String, String) {
    let d = digest(&sim(prepared, stack, dense).run().stats);
    (cell(prepared, stack), format!("{d:#018x}"))
}

/// The cell's five `sim_observers` rows; the traced run writes its file
/// into `dir`.
fn observer_rows(
    prepared: &PreparedScene,
    stack: StackConfig,
    dense: bool,
    dir: &Path,
) -> Vec<(String, String)> {
    let (scene, cell) = (prepared.scene.id.name(), cell(prepared, stack));
    let armed = RunLimits { metrics: true, ..RunLimits::none() };
    let run = sim(prepared, stack, dense).with_limits(armed).trace_warps(u32::MAX).run();
    let metrics = run.metrics.expect("metrics armed");
    let prom = metrics.registry(scene, &stack.label(), &run.stats).render_prometheus();
    // A thread's index is unique, so the depth never decides the order.
    let mut samples = run.thread_traces;
    samples.sort_unstable();
    let traces = samples.iter().fold(FNV_OFFSET, |h, &(warp, lane, index, depth)| {
        let h = fnv1a64_extend(h, &warp.to_le_bytes());
        let h = fnv1a64_extend(h, &[lane]);
        fnv1a64_extend(fnv1a64_extend(h, &index.to_le_bytes()), &depth.to_le_bytes())
    });
    let attributed = RunLimits { breakdown: true, ..RunLimits::none() };
    let run = sim(prepared, stack, dense).with_limits(attributed).run();
    let breakdown = fold(run.breakdown.expect("breakdown armed").values());
    let path = dir.join(format!("{cell}.trace.json"));
    let spec = TraceSpec { path: path.clone(), trace_id: None };
    sim(prepared, stack, dense).with_trace(spec).run();
    let timeline = std::fs::read(&path).expect("the traced run wrote its file");
    [
        ("prom", fnv1a64(prom.as_bytes())),
        ("csv", fnv1a64(metrics.series.to_csv().as_bytes())),
        ("traces", traces),
        ("breakdown", breakdown),
        ("timeline", fnv1a64(&timeline)),
    ]
    .into_iter()
    .map(|(what, d)| (format!("{cell}.{what}"), format!("{d:#018x}")))
    .collect()
}

/// A fresh directory for one test's trace files.
fn trace_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sms-golden-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the trace directory");
    dir
}

#[test]
fn stats_digests_match_the_recorded_cells() {
    let render = RenderConfig::tiny();
    let mut rows = Vec::new();
    for scene in SCENES {
        let prepared = PreparedScene::build(scene, &render);
        rows.extend(configs().map(|stack| stats_row(&prepared, stack, false)));
    }
    golden::check("sim_golden", &rows);
}

#[test]
fn observer_digests_match_the_recorded_cells() {
    let render = RenderConfig::tiny();
    let dir = trace_dir("timeline");
    let mut rows = Vec::new();
    for scene in SCENES {
        let prepared = PreparedScene::build(scene, &render);
        for stack in configs() {
            rows.extend(observer_rows(&prepared, stack, false, &dir));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    golden::check("sim_observers", &rows);
}

#[test]
fn the_dense_schedule_writes_the_recorded_rows() {
    // Visiting every SM on every cycle is the reference the event-skipping
    // loop must reproduce: a cycle it skips changes no state.
    let render = RenderConfig::tiny();
    let dir = trace_dir("dense");
    let (mut stats, mut observed) = (Vec::new(), Vec::new());
    for scene in SCENES {
        let prepared = PreparedScene::build(scene, &render);
        for stack in configs() {
            stats.push([true, false].map(|dense| stats_row(&prepared, stack, dense)));
            let [dense, skipping] =
                [true, false].map(|dense| observer_rows(&prepared, stack, dense, &dir));
            observed.extend(dense.into_iter().zip(skipping).map(|(d, s)| [d, s]));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let differ: String = (stats.iter().chain(&observed))
        .filter(|[dense, skipping]| dense != skipping)
        .map(|[d, s]| format!("  {}: {} dense, {} event-skipping\n", d.0, d.1, s.1))
        .collect();
    assert!(differ.is_empty(), "the dense schedule moved rows:\n{differ}");
    let dense =
        |pairs: &[[(String, String); 2]]| pairs.iter().map(|[d, _]| d.clone()).collect::<Vec<_>>();
    golden::check("sim_golden", &dense(&stats));
    golden::check("sim_observers", &dense(&observed));
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
