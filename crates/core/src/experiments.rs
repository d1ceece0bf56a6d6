//! The experiment table and the serial entry points under it.
//!
//! **The table.** Every table and figure of the paper (and each ablation
//! of ours) is one row of [`EXPERIMENTS`]: an id, the scenes, the columns
//! — stack labels as every table prints them, each with an optional GPU
//! tweak, [`RunLimits`] arm and normalisation base — the [`Reduction`],
//! the grid cells it reports, the paper's numbers and the [`Verdict`]
//! rules. `sms-bench`'s `figures` target is the one runner over it; the
//! rows that are not a (scene × column) matrix are bound to a function
//! there.
//!
//! **The primitives.** One `(scene, config)` run at a time, in call order.
//! Production sweeps (the runner and `examples/config_sweep.rs`) go through
//! the `sms-harness` crate instead, which layers deduplication, a worker
//! pool and an on-disk result cache on top of [`run_prepared`] — the
//! simulator is deterministic, so both paths produce identical `SimStats`
//! (asserted by `crates/harness/tests/parallel_vs_serial.rs`, which uses
//! [`run_suite`] as its reference). See `DESIGN.md` §6 for the experiment
//! index.

use crate::config::{RenderConfig, SimConfig};
use crate::env::Env;
use crate::metrics::MetricsReport;
use crate::render::PreparedScene;
use crate::sim::{GpuSim, RunLimits, SimFault};
use crate::trace::TraceSpec;
use sms_gpu::{GpuConfig, SimStats, StallBreakdown};
use sms_rtunit::{SmsParams, StackConfig};
use sms_scene::SceneId;
use std::path::PathBuf;
use std::sync::LazyLock;

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
    try_run_exporting(prepared, stack, gpu, render, limits, &RunExports::default(), 0)
}

/// The files a run writes besides returning its result, all into one run
/// directory. Filled once at the process edge
/// (`sms_harness::exports_from_env`) and carried as data on
/// `HarnessConfig` / `ServeConfig` down to [`try_run_exporting`]; the
/// default writes nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunExports {
    /// The run directory (`SMS_OUT`); `None` writes no file.
    pub dir: Option<PathBuf>,
    /// A Chrome-trace timeline per run (`SMS_TRACE`); with a directory to
    /// write it to, arms attribution on every run.
    pub trace: bool,
    /// The trace id every timeline is stamped with ([`TraceSpec::trace_id`]).
    pub trace_id: Option<String>,
}

impl RunExports {
    /// Whether runs write timelines: `trace`, and a directory to hold them.
    pub fn traced(&self) -> bool {
        self.trace && self.dir.is_some()
    }

    /// `<dir>/<job>.<ext>`, the one name of a run's `ext` file, with `job`
    /// sanitized to `[A-Za-z0-9._-]` (`SHIP.RB_8+SH_8` →
    /// `SHIP.RB_8_SH_8`); `None` without a directory.
    pub fn file(&self, job: &str, ext: &str) -> Option<PathBuf> {
        let clean: String = job
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '.' || c == '-' { c } else { '_' })
            .collect();
        Some(self.dir.as_ref()?.join(format!("{clean}.{ext}")))
    }
}

/// The one job-running function: [`try_run_prepared`] plus `exports`.
///
/// A traced run writes `<scene>.<config>.<id>.trace.json` and a run with
/// [`RunLimits::metrics`] armed writes `<scene>.<config>.<id>.prom` and
/// `.csv`, all into the run directory ([`RunExports::file`]). `<id>` is
/// the first 8 hex digits of `key`, the run's identity (the harness passes
/// its cache key's hash), so parallel runs whose labels collide — another
/// `GpuConfig`, other RA limits — never share a file.
pub fn try_run_exporting(
    prepared: &PreparedScene,
    stack: StackConfig,
    gpu: GpuConfig,
    render: &RenderConfig,
    limits: &RunLimits,
    exports: &RunExports,
    key: u64,
) -> Result<RunResult, SimFault> {
    let config = SimConfig::new(gpu, stack, *render);
    let job = format!("{}.{}.{:08x}", prepared.scene.id, stack.label(), key >> 32);
    let mut sim = GpuSim::new(prepared, config).with_limits(*limits);
    if let Some(path) = exports.file(&job, "trace.json").filter(|_| exports.trace) {
        sim = sim.with_trace(TraceSpec { path, trace_id: exports.trace_id.clone() });
    }
    let run = sim.try_run()?;
    if let (Some(m), Some(prom)) = (&run.metrics, exports.file(&job, "prom")) {
        let reg = m.registry(&prepared.scene.id.to_string(), &stack.label(), &run.stats);
        let csv = prom.with_extension("csv");
        for (path, text) in [(prom, reg.render_prometheus()), (csv, m.series.to_csv())] {
            match std::fs::write(&path, text) {
                Ok(()) => eprintln!("SMS_METRICS: wrote {}", path.display()),
                Err(e) => {
                    eprintln!("warning: SMS_METRICS: failed to write {}: {e}", path.display())
                }
            }
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
/// An unknown name, or one that repeats an earlier name (names match
/// case-insensitively), is an error naming the variable and the token: a
/// figure over the wrong scene set is not a reproduction, and a repeated
/// scene would weigh double in every summary row.
pub fn scene_list(env: &Env) -> Result<Vec<SceneId>, String> {
    let names = env.list("SMS_SCENES");
    if names.is_empty() {
        return Ok(SceneId::ALL.to_vec());
    }
    let mut scenes = Vec::with_capacity(names.len());
    for n in names {
        let id: SceneId = n.parse().map_err(|e| format!("SMS_SCENES: `{n}`: {e}"))?;
        if scenes.contains(&id) {
            return Err(format!("SMS_SCENES: `{n}` repeats scene {}", id.name()));
        }
        scenes.push(id);
    }
    Ok(scenes)
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

// ---- The experiment table -------------------------------------------------
//
// Every table and figure the reproduction regenerates is one row of
// [`EXPERIMENTS`]. `sms-bench`'s `figures` target is the one runner over it.

/// One column of an experiment's (scene × column) matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// The stack architecture to simulate.
    pub stack: StackConfig,
    /// The GPU to simulate it on.
    pub gpu: GpuConfig,
    /// Watchdogs and observation arms for this column's runs.
    pub limits: RunLimits,
    /// The column header.
    pub label: String,
    /// Index of the column this one is normalised to.
    pub base: usize,
}

/// The stack `label` names (the label every table prints, parsed by
/// `StackConfig`'s `FromStr`) on the Table I GPU, normalised to column 0.
///
/// # Panics
///
/// Panics if `label` is not a stack label.
fn col(label: &str) -> Column {
    let stack = label.parse().unwrap_or_else(|e| panic!("{e}"));
    let (gpu, limits) = (GpuConfig::default(), RunLimits::none());
    Column { stack, gpu, limits, label: label.to_owned(), base: 0 }
}

fn cols(labels: &[&str]) -> Vec<Column> {
    labels.iter().map(|l| col(l)).collect()
}

/// What the runner computes from a matrix of results. Every variant but
/// `Custom` yields a [`Grid`](crate::report::Grid): a row per scene and a summary row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Reduction {
    /// IPC normalised to each column's base (`x.xxx`), `gmean` summary.
    Ipc,
    /// [`Reduction::Ipc`] with cells printed as gains (`+x.x%`).
    IpcGain,
    /// [`Reduction::Ipc`] plus column 0's reallocation activity counters.
    RaLimits,
    /// `offchip_accesses` relative to each column's base, `gmean` summary.
    Offchip,
    /// `bank_conflict_cycles` of columns 0 and 1 and their ratio; the
    /// summary is the geometric-mean ratio over scenes with conflicts.
    Conflicts,
    /// Stack-wait share of active lane-cycles per scene (suite total as the
    /// summary), plus the per-bucket lane shares and the D2 diagnosis.
    LaneShare,
    /// Not a matrix reduction: the runner binds a function to the id.
    #[default]
    Custom,
}

/// When a run's reduced numbers still reproduce the experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Every value prints exactly as its `experiments/fast.json` record.
    Exact,
    /// Every value's number is within this many units (percentage points
    /// for a value printed in percent) of its record's.
    WithinPp(f64),
    /// On the named scene's grid row, the cells at these column indices
    /// rise strictly, smallest first; holds at any workload size, checked
    /// whenever the scene ran.
    Ordering(&'static str, &'static [usize]),
}

/// One table or figure of the paper (or one ablation of ours), as data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Experiment {
    /// What selects it on the command line and prefixes its JSON keys.
    pub id: &'static str,
    /// The paper's name for it (`Fig. 13`): the banner and the bold lead
    /// of its EXPERIMENTS.md row.
    pub figure: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The scenes it is restricted to when more than these are selected;
    /// empty for every selected scene.
    pub subset: &'static [&'static str],
    /// Matrix columns; column 0 is the default normalisation base.
    pub columns: Vec<Column>,
    /// Append the `SL` and `PRED_12` competitor columns, run under
    /// column 0's limits.
    pub competitors: bool,
    /// What is computed from the results.
    pub reduction: Reduction,
    /// The grid cells it reports, as `(row, column index)`: a key of
    /// `experiments/fast.json` (`<id>.<row>.<column label>`) and an entry of
    /// the `ours:` line each. A `Custom` function names its own.
    pub values: &'static [(&'static str, usize)],
    /// When those numbers still reproduce it.
    pub verdicts: Vec<Verdict>,
    /// The paper's numbers, as the `paper:` line prints them.
    pub paper: &'static str,
    /// Printed after the numbers: what the paper says beyond them.
    pub note: &'static str,
}

impl Experiment {
    /// The scenes to run out of those `selected`.
    pub fn scenes(&self, selected: &[SceneId]) -> Vec<SceneId> {
        let mut scenes = selected.to_vec();
        if !self.subset.is_empty() && scenes.len() > self.subset.len() {
            scenes.retain(|s| self.subset.contains(&s.name()));
        }
        scenes
    }
}

/// An experiment with no matrix: a `Custom` function, every selected
/// scene, an `Exact` verdict on whatever it reports.
pub fn experiment(id: &'static str, figure: &'static str, title: &'static str) -> Experiment {
    Experiment { id, figure, title, verdicts: vec![Verdict::Exact], ..Experiment::default() }
}

/// `RB_{2,4,8,16}` with and without SMS, against the `RB_8` baseline: the
/// one column list of Fig. 15a (IPC) and Fig. 15b (off-chip accesses).
pub const RB_SWEEP: [&str; 8] = [
    "RB_8",
    "RB_2",
    "RB_2+SH_8+SK+RA",
    "RB_4",
    "RB_4+SH_8+SK+RA",
    "RB_8+SH_8+SK+RA",
    "RB_16",
    "RB_16+SH_8+SK+RA",
];

/// The scenes whose stand-ins match the paper's depth statistics (D1); a
/// grid that ran them all carries their geometric mean as a `deep` row.
pub const DEEP: (&str, &[&str]) = ("deep", &["SHIP", "PARTY", "CHSNT", "BATH"]);

/// Every experiment, in paper order.
pub static EXPERIMENTS: LazyLock<Vec<Experiment>> = LazyLock::new(|| {
    const SMS: &str = "RB_8+SH_8+SK+RA";
    let l1 = |kb: u64| Column {
        gpu: GpuConfig::default().with_l1_size(kb * 1024),
        label: format!("{kb}KB"),
        ..col("RB_8")
    };
    // Labelled by the borrow limit; `*` marks the paper's 4.
    let ra = |borrow_limit: usize| {
        let sms = SmsParams::default().with_skewed(true).with_realloc(true);
        let label = match borrow_limit {
            4 => "borrow4*".to_owned(),
            borrow => format!("borrow{borrow}"),
        };
        Column { stack: StackConfig::Sms(SmsParams { borrow_limit, ..sms }), label, ..col(SMS) }
    };
    let spills_cached_in_l1 = |stack: &str| {
        let mut column = Column { label: format!("{stack} (L1-cached spills)"), ..col(stack) };
        column.gpu.l1.stack_bypasses_l1 = false;
        column
    };
    let breakdown = RunLimits { breakdown: true, ..RunLimits::none() };
    vec![
        experiment("table1", "Table I", "baseline GPU parameters"),
        Experiment {
            note: "(ours/paper triangle ratios are the documented ~1/100 scaling; see DESIGN.md)",
            ..experiment("table2", "Table II", "benchmark scenes: triangle counts and BVH sizes")
        },
        Experiment {
            paper: "avg/median 4-5, max ~30 across workloads",
            ..experiment("fig04", "Fig. 4", "stack depth summary per workload")
        },
        Experiment {
            paper: "1-4 ~52%   5-8 ~29%   9-16 17.0%   >16 1.9%",
            note: "paper §III-A: beyond 16 entries is not cost-effective; spills concentrate at 8-16",
            ..experiment("fig05", "Fig. 5", "stack depth distribution (all workloads)")
        },
        Experiment {
            columns: cols(&["RB_8", "RB_4", "RB_16", "RB_32", "RB_64", "RB_FULL"]),
            reduction: Reduction::Ipc,
            values: &[("gmean", 1), ("gmean", 2), ("gmean", 3), ("gmean", 4), ("gmean", 5)],
            paper: "RB_4 -18.4%   RB_16 +19.9%   RB_32 +25.2%   (beyond 32: marginal)",
            ..experiment("fig06a", "Fig. 6a", "IPC vs RB stack size (baseline architecture)")
        },
        Experiment {
            columns: [64, 16, 32, 128, 256].map(l1).to_vec(),
            reduction: Reduction::Ipc,
            values: &[("gmean", 1), ("gmean", 2), ("gmean", 3), ("gmean", 4)],
            paper: "16KB -9.6%   32KB -4.5%   128KB +4.5%   256KB +12.6%",
            note: "paper: flatter than Fig. 6a, which motivates trading a little L1D for SH stacks",
            ..experiment("fig06b", "Fig. 6b", "IPC vs L1D size (baseline RB_8)")
        },
        Experiment {
            columns: cols(&["RB_8", "RB_8+SH_4", "RB_8+SH_8", "RB_8+SH_16", "RB_FULL"]),
            reduction: Reduction::Ipc,
            values: &[("gmean", 1), ("gmean", 2), ("gmean", 3), ("gmean", 4)],
            paper: "+SH_4 +11.0%   +SH_8 +17.4%   +SH_16 +21.2%   FULL +25.3%",
            note: "resource note: SH_8 x 4 warps = 8KB shared (56KB L1D left); SH_16 = 16KB (48KB)",
            ..experiment("fig08", "Fig. 8", "IPC of RB_8+SH_M splits vs full stack")
        },
        Experiment {
            paper: "threads finish at different times, and a few need much deeper stacks",
            ..experiment("fig10", "Fig. 10", "per-thread stack depth traces (PARTY, 2 warps)")
        },
        Experiment {
            columns: cols(&["RB_8", "RB_8+SH_8", "RB_8+SH_8+SK", SMS, "RB_FULL"]),
            competitors: true,
            reduction: Reduction::Ipc,
            values: &[
                ("gmean", 1),
                ("gmean", 2),
                ("gmean", 3),
                ("gmean", 4),
                ("deep", 1),
                ("deep", 3),
                ("deep", 4),
                ("SHIP", 3),
                ("CHSNT", 3),
            ],
            paper: "+SH_8 +15.1%   +SK +19.4%   +RA (full SMS) +23.2%   FULL +25.3%",
            note: "paper §VII-B: deep scenes (SHIP, CHSNT, PARTY, ROBOT) gain most, REF and WKND least",
            ..experiment("fig13", "Fig. 13", "IPC improvements of SMS (SH_8 / +SK / +RA)")
        },
        Experiment {
            columns: cols(&["RB_8+SH_8", "RB_8+SH_8+SK"]),
            reduction: Reduction::Conflicts,
            values: &[("gmean", 2)],
            verdicts: vec![Verdict::Exact, Verdict::Ordering("SHIP", &[1, 0])],
            paper: "-27.3% delay cycles",
            ..experiment("fig14", "Fig. 14", "bank-conflict delay cycles, SH_8 vs SH_8+SK")
        },
        Experiment {
            columns: cols(&RB_SWEEP),
            reduction: Reduction::Ipc,
            values: &[("gmean", 1), ("gmean", 2), ("gmean", 3), ("gmean", 4), ("gmean", 6), ("gmean", 7)],
            verdicts: vec![Verdict::Exact, Verdict::Ordering("SHIP", &[1, 0, 2])],
            paper: "RB_2 -28.3% -> RB_2+SMS +11.4%;  RB_16 +SMS gains only +3.5pp",
            note: "key claim: RB_2+SMS ends above the RB_8 baseline — SMS enables smaller primary stacks",
            ..experiment("fig15a", "Fig. 15a", "IPC for RB_{2,4,8,16} with and without SMS")
        },
        Experiment {
            columns: cols(&RB_SWEEP),
            reduction: Reduction::Offchip,
            values: &[("gmean", 1), ("gmean", 2), ("gmean", 5), ("gmean", 6)],
            verdicts: vec![Verdict::Exact, Verdict::Ordering("SHIP", &[2, 0])],
            paper: "RB_2 1.62x the RB_8 baseline; RB_2+SMS drops ~79pp below that",
            ..experiment("fig15b", "Fig. 15b", "off-chip accesses for RB sweeps ± SMS")
        },
        Experiment {
            subset: &["SHIP", "CHSNT", "PARTY", "ROBOT"],
            columns: [4, 0, 1, 2, 8].map(ra).to_vec(),
            reduction: Reduction::RaLimits,
            values: &[("SHIP", 1), ("CHSNT", 1)],
            verdicts: vec![Verdict::WithinPp(1.0)],
            note: "(* = paper's configuration; values are IPC relative to it)",
            ..experiment("ablation_ra_limits", "Ablation", "intra-warp reallocation limits")
        },
        Experiment {
            subset: &["SHIP", "CHSNT", "PARTY", "BATH", "FRST", "SPNZA"],
            columns: vec![
                col("RB_8"),
                col(SMS),
                col("RB_FULL"),
                Column { base: 3, ..spills_cached_in_l1("RB_8") },
                Column { base: 3, ..spills_cached_in_l1(SMS) },
            ],
            reduction: Reduction::IpcGain,
            values: &[("gmean", 1), ("gmean", 4)],
            verdicts: vec![Verdict::WithinPp(1.0)],
            note: "off-chip spills are the paper's model; the L1D is a poor secondary stack (§III-B)",
            ..experiment("ablation_stack_bypass", "Ablation", "spill traffic: off-chip vs L1-cached")
        },
        Experiment {
            subset: &["SHIP", "CHSNT", "PARTY", "BUNNY"],
            columns: cols(&["RB_8", SMS]),
            verdicts: vec![Verdict::WithinPp(1.0)],
            note: "expected: SAH trees are shallower-stacked too, so the SMS gain shrinks with overlap",
            ..experiment("ablation_bvh_quality", "Ablation", "median-split vs binned-SAH BVHs")
        },
        Experiment {
            subset: &["WKND", "SPRNG", "FOX", "LANDS", "CRNVL", "SPNZA", "BATH", "ROBOT"],
            verdicts: vec![Verdict::WithinPp(1.0)],
            note: "paper §VIII-A: behind an SH stack, the trail would pay this only on SH overflow",
            ..experiment("extension_restart_trail", "Extension", "restart-trail visit overhead")
        },
        Experiment {
            columns: cols(&["RB_8", "RB_8+SH_8", "RB_8+SH_8+SK", SMS])
                .into_iter()
                .map(|c| Column { limits: breakdown, ..c })
                .collect(),
            competitors: true,
            reduction: Reduction::LaneShare,
            values: &[("ALL", 0), ("SHIP", 0), ("SHIP", 3)],
            verdicts: vec![Verdict::WithinPp(1.0)],
            note: "D1 prices the spill path; D2 is why killing conflicts (Fig. 14) buys little IPC here",
            ..experiment("breakdown_stalls", "Stall breakdown", "cycle attribution (D1/D2 diagnosis)")
        },
    ]
});

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
        let err = list("SHIP,BUNNY,ship").unwrap_err(); // a repeat would weigh SHIP double
        assert!(err.contains("SMS_SCENES") && err.contains("`ship`"), "{err}");
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
