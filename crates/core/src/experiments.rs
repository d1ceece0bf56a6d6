//! Reusable experiment entry points for the paper's tables and figures.
//!
//! These are the *serial* primitives: one `(scene, config)` run at a time,
//! in call order. Production sweeps (the `crates/bench` harnesses and
//! `examples/config_sweep.rs`) go through the `sms-harness` crate instead,
//! which layers deduplication, a worker pool and an on-disk result cache on
//! top of [`run_prepared`] — the simulator is deterministic, so both paths
//! produce identical `SimStats` (asserted by
//! `crates/harness/tests/parallel_vs_serial.rs`, which uses [`run_suite`]
//! as its reference). See `DESIGN.md` for the experiment index.

use crate::config::{RenderConfig, SimConfig};
use crate::env::Env;
use crate::metrics::{MetricsReport, MetricsSpec};
use crate::render::PreparedScene;
use crate::sim::{GpuSim, RunLimits, SimFault};
use crate::trace::TraceSpec;
use sms_gpu::{GpuConfig, SimStats, StallBreakdown};
use sms_rtunit::StackConfig;
use sms_scene::SceneId;

/// The outcome of one `(scene, configuration)` cycle-level run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The scene simulated.
    pub scene: SceneId,
    /// The stack architecture simulated.
    pub stack: StackConfig,
    /// All counters.
    pub stats: SimStats,
    /// Stall attribution (when [`RunLimits::breakdown`] or a trace export
    /// was armed for the run; `None` otherwise).
    pub breakdown: Option<StallBreakdown>,
    /// Metrics report (when [`RunLimits::metrics`] was armed for the run;
    /// `None` otherwise).
    pub metrics: Option<Box<MetricsReport>>,
}

impl RunResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// This run's speedup over a baseline run of the same scene (the
    /// inverse cycle ratio: both runs trace the same rays).
    ///
    /// For the stack-architecture configurations traversal work is also
    /// identical instruction-for-instruction, making this exactly the
    /// normalized IPC of the paper's figures; the traversal-changing
    /// competitors (`SL`, `PRED_*`) revisit or probe extra nodes by
    /// design, so for them the instruction-equality check is skipped and
    /// this stays a per-ray-workload speedup (extra node visits are
    /// overhead, not useful work).
    pub fn normalized_ipc(&self, baseline: &RunResult) -> f64 {
        assert_eq!(self.scene, baseline.scene, "normalize within one scene");
        if self.stack.preserves_traversal_work() && baseline.stack.preserves_traversal_work() {
            debug_assert_eq!(
                self.stats.instructions(),
                baseline.stats.instructions(),
                "work must be configuration-independent"
            );
        }
        baseline.stats.cycles as f64 / self.stats.cycles as f64
    }
}

/// Runs one scene under one stack configuration on the Table I GPU.
pub fn run_scene(id: SceneId, stack: StackConfig, render: &RenderConfig) -> RunResult {
    run_scene_on(id, stack, GpuConfig::default(), render)
}

/// Runs one scene with an explicit GPU configuration (L1 sweeps etc.).
/// The stack's shared-memory carveout is applied on top of `gpu`.
pub fn run_scene_on(
    id: SceneId,
    stack: StackConfig,
    gpu: GpuConfig,
    render: &RenderConfig,
) -> RunResult {
    let prepared = PreparedScene::build(id, render);
    run_prepared(&prepared, stack, gpu, render)
}

/// Runs an already-prepared scene (reuse the BVH across configurations).
pub fn run_prepared(
    prepared: &PreparedScene,
    stack: StackConfig,
    gpu: GpuConfig,
    render: &RenderConfig,
) -> RunResult {
    try_run_prepared(prepared, stack, gpu, render, &RunLimits::none())
        .unwrap_or_else(|fault| panic!("{fault}"))
}

/// Fault-aware variant of [`run_prepared`]: runs with the given watchdog
/// limits and surfaces aborts as structured [`SimFault`]s instead of
/// panicking. With `RunLimits::none()` the statistics are bit-identical to
/// [`run_prepared`] — the watchdog only observes. Writes no file and reads
/// no environment: this is [`try_run_exporting`] with no exports.
pub fn try_run_prepared(
    prepared: &PreparedScene,
    stack: StackConfig,
    gpu: GpuConfig,
    render: &RenderConfig,
    limits: &RunLimits,
) -> Result<RunResult, SimFault> {
    try_run_exporting(prepared, stack, gpu, render, limits, &RunExports::default())
}

/// The files a run writes besides returning its result. Filled once at
/// the process edge (`sms_harness::exports_from_env`) and carried as data
/// on `HarnessConfig` / `ServeConfig` down to [`try_run_exporting`]; the
/// default exports nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunExports {
    /// Chrome-trace export (`SMS_TRACE`); arms attribution on every run.
    pub trace: Option<TraceSpec>,
    /// Metrics dumps and sampling period, for runs with
    /// [`RunLimits::metrics`] armed.
    pub metrics: MetricsSpec,
}

/// The one job-running function: [`try_run_prepared`] plus `exports`.
///
/// Every configured path is suffixed with the scene and stack-config
/// labels (`<stem>.<SCENE>.<CONFIG>.json`, inserted before a metrics
/// path's own extension) so sweep jobs — possibly running in parallel —
/// never clobber each other.
pub fn try_run_exporting(
    prepared: &PreparedScene,
    stack: StackConfig,
    gpu: GpuConfig,
    render: &RenderConfig,
    limits: &RunLimits,
    exports: &RunExports,
) -> Result<RunResult, SimFault> {
    let config = SimConfig::new(gpu, stack, *render);
    let job = || format!("{}.{}", prepared.scene.id, stack.label());
    let mut sim = GpuSim::new(prepared, config)
        .with_limits(*limits)
        .with_metrics_period(exports.metrics.period);
    if let Some(spec) = &exports.trace {
        sim = sim.with_trace(spec.for_job(&job()));
    }
    let run = sim.try_run()?;
    if let Some(m) = &run.metrics {
        let out = exports.metrics.for_job(&job());
        let write =
            |path: &std::path::Path, text: String, var: &str| match std::fs::write(path, text) {
                Ok(()) => eprintln!("{var}: wrote {}", path.display()),
                Err(e) => eprintln!("warning: {var}: failed to write {}: {e}", path.display()),
            };
        if let Some(p) = &out.prom_out {
            let reg = m.registry(&prepared.scene.id.to_string(), &stack.label(), &run.stats);
            write(p, reg.render_prometheus(), "SMS_METRICS_OUT");
        }
        if let Some(p) = &out.csv_out {
            write(p, m.series.to_csv(), "SMS_METRICS_CSV");
        }
    }
    Ok(RunResult {
        scene: prepared.scene.id,
        stack,
        stats: run.stats,
        breakdown: run.breakdown,
        metrics: run.metrics,
    })
}

/// The scene list a harness should evaluate: all 16 by default, or the
/// comma-separated subset in `SMS_SCENES` (e.g. `SMS_SCENES=SHIP,BUNNY`).
/// An unknown name is an error naming the variable and the token: a
/// figure over the wrong scene set is not a reproduction.
pub fn scene_list(env: &Env) -> Result<Vec<SceneId>, String> {
    let names = env.list("SMS_SCENES");
    if names.is_empty() {
        return Ok(SceneId::ALL.to_vec());
    }
    names.iter().map(|n| n.parse().map_err(|e| format!("SMS_SCENES: `{n}`: {e}"))).collect()
}

/// Runs every `(scene, config)` pair serially, reusing each scene's BVH.
/// Results are grouped per scene in the order given.
///
/// This is the reference implementation the parallel harness is checked
/// against; sweeps that want caching/parallelism should prefer
/// `sms_harness::Harness::run_suite`, which returns identical results.
pub fn run_suite(
    scenes: &[SceneId],
    configs: &[StackConfig],
    render: &RenderConfig,
) -> Vec<Vec<RunResult>> {
    scenes
        .iter()
        .map(|&id| {
            let prepared = PreparedScene::build(id, render);
            configs
                .iter()
                .map(|&stack| run_prepared(&prepared, stack, GpuConfig::default(), render))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_scene_produces_cycles_and_work() {
        let r = run_scene(SceneId::Ship, StackConfig::baseline8(), &RenderConfig::tiny());
        assert!(r.stats.cycles > 0);
        assert!(r.stats.node_visits > 0);
        assert!(r.stats.rays_traced >= 256);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn normalized_ipc_is_inverse_cycle_ratio() {
        let render = RenderConfig::tiny();
        let prepared = PreparedScene::build(SceneId::Ship, &render);
        let base = run_prepared(&prepared, StackConfig::baseline8(), GpuConfig::default(), &render);
        let full = run_prepared(&prepared, StackConfig::FullOnChip, GpuConfig::default(), &render);
        let n = full.normalized_ipc(&base);
        let expected = base.stats.cycles as f64 / full.stats.cycles as f64;
        assert!((n - expected).abs() < 1e-12);
    }

    #[test]
    fn scene_list_env_parsing() {
        let list = |v: &str| scene_list(&Env::from_pairs(&[("SMS_SCENES", v)]));
        assert_eq!(list("SHIP,BUNNY"), Ok(vec![SceneId::Ship, SceneId::Bunny]));
        assert_eq!(list("  SHIP , ,BUNNY  "), Ok(vec![SceneId::Ship, SceneId::Bunny]));
        assert_eq!(list(""), Ok(SceneId::ALL.to_vec()));
        assert_eq!(list(" , "), Ok(SceneId::ALL.to_vec()));
        assert_eq!(scene_list(&Env::default()), Ok(SceneId::ALL.to_vec()));
        let err = list("SHIP,SHPI").unwrap_err();
        assert!(err.contains("SMS_SCENES") && err.contains("`SHPI`"), "{err}");
    }

    #[test]
    fn determinism_across_runs() {
        let render = RenderConfig::tiny();
        let a = run_scene(SceneId::Bunny, StackConfig::sms_default(), &render);
        let b = run_scene(SceneId::Bunny, StackConfig::sms_default(), &render);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.node_visits, b.stats.node_visits);
        assert_eq!(a.stats.mem, b.stats.mem);
    }
}
