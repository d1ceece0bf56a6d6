//! The one runner over the experiment table.
//!
//! Every table and figure of the paper is a row of
//! [`sms_sim::experiments::EXPERIMENTS`]; the `figures` bench target
//! (`cargo bench --bench figures -- fig13 fig14`; no id = every experiment
//! in paper order) regenerates them as plain text. Absolute numbers come
//! from our simulator; the *shape* (who wins, by roughly what factor) is
//! what reproduces the paper.
//!
//! A matrix row goes columns → [`RunRequest`]s → [`Harness::try_run_batch`]
//! (deduplicated, scheduled on a worker pool, served from the on-disk
//! result cache) → its [`Reduction`] → a [`Grid`] → the `ours:` line and
//! the `figures.json` keys, both read from the grid cells the row declares,
//! beside the row's `paper:` line. A `Custom` row is a plain function over
//! the same [`Ctx`].
//!
//! Every experiment honours the `bench` and `harness` rows of the
//! environment table in `EXPERIMENTS.md` (declared once, in
//! `sms_sim::env::DECLS`): `SMS_SCENES`, `SMS_PAPER`, `SMS_JOBS`, the
//! cache and journal locations, the watchdogs and the observation
//! arms. [`figures`] takes the process's one snapshot of them.
//!
//! Batches run on the fault-tolerant path: a panicking, livelocked or
//! invariant-violating run is reported per cell (and journalled as
//! `run_failed`/`run_timeout`) while the rest of the matrix — and the
//! other experiments — complete; `figures` then exits with status 2 since
//! that figure cannot be reproduced. Two kinds of cell cannot go through a
//! batch and are simulated directly: Fig. 10's traced run (a batch returns
//! no per-thread trace) and `ablation_bvh_quality`'s binned-SAH half (the
//! harness builds default trees only), which runs under the harness-wide
//! limits and reports failures in the same form.
//!
//! The reduced numbers of a run land in the workspace's
//! `target/figures.json`. A fast-tier run over all 16 scenes is also
//! checked against the committed `experiments/fast.json`, each experiment
//! by its [`Verdict`]s: a number that left its rule is named with its
//! figure and the exit status is 1. `cp target/figures.json
//! experiments/fast.json` re-blesses.
//!
//! These targets reproduce figures; they do not measure the host. Wall
//! time, throughput and memory are the job of `benchmark/` (`bash
//! benchmark/run.sh`, see `benchmark/README.md`), the one instrument.

use sms_harness::json::{self, Json};
use sms_harness::{Harness, HarnessConfig, RunError, RunLimits, RunRequest};
use sms_sim::analyze::{depth_buckets, depth_fraction_at, measure_all};
use sms_sim::bvh::traverse::NodeStep;
use sms_sim::bvh::{intersect_nearest_restart, BuildParams, BvhStats, SplitMethod};
use sms_sim::config::{RenderConfig, SimConfig};
use sms_sim::experiments::{
    try_run_prepared, Column, Experiment, Reduction, RunResult, Verdict, DEEP, EXPERIMENTS,
};
use sms_sim::gpu::{GpuConfig, StallBreakdown};
use sms_sim::render::{render, PreparedScene};
use sms_sim::report::{fmt_improvement, fmt_pct, geomean, Grid, Table};
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;
use sms_sim::Env;
use std::iter::once;
use std::path::PathBuf;

/// The stack-elimination competitor columns appended to the sweeps that
/// compare against SMS: stackless traversal (`SL`, `SMS_STACKLESS`) and
/// the hash-based leaf predictor (`PRED_<SMS_PREDICT_BITS>`,
/// `SMS_PREDICT`), both on by default. Dropping them restores the
/// pre-competitor matrix — the remaining cells' stats and cache entries
/// are byte-identical either way.
pub fn competitor_configs(env: &Env) -> Vec<StackConfig> {
    let mut configs = Vec::new();
    if env.flag("SMS_STACKLESS") {
        configs.push(StackConfig::stackless());
    }
    if env.flag("SMS_PREDICT") {
        let bits = env.positive("SMS_PREDICT_BITS").unwrap_or(12);
        assert!(
            bits <= u64::from(sms_sim::rtunit::predictor::MAX_TABLE_BITS),
            "SMS_PREDICT_BITS must be in 1..=20, got {bits}"
        );
        configs.push(StackConfig::Predictor { table_bits: bits as u32 });
    }
    configs
}

/// What every experiment runs against.
pub struct Ctx {
    /// The execution engine, shared by all experiments of a process.
    pub harness: Harness,
    /// The selected scenes (`SMS_SCENES`), before an experiment's subset.
    pub scenes: Vec<SceneId>,
    /// Workload sizing (`SMS_PAPER`).
    pub render: RenderConfig,
    /// The competitor columns ([`competitor_configs`]).
    pub competitors: Vec<StackConfig>,
    /// The harness-wide limits, for the cells simulated outside a batch.
    pub limits: RunLimits,
}

/// What one experiment produced, besides what it printed.
pub struct Report {
    /// The numeric grid of a matrix experiment.
    pub grid: Option<Grid>,
    /// Its reduced numbers as `(key, printed value)`: what `figures.json`
    /// records under `<id>.<key>`. A cell whose scene did not run is absent.
    pub values: Vec<(String, String)>,
}

/// One result per (scene, column), or the error that stopped that cell.
pub type Cells = Vec<Vec<Result<RunResult, RunError>>>;

/// Runs `exp`'s columns (plus the competitors, if it takes them) on
/// `scenes` as one fault-tolerant batch; returns the column headers and
/// the cells grouped per scene, and prints the batch summary.
pub fn run_cells(ctx: &Ctx, exp: &Experiment, scenes: &[SceneId]) -> (Vec<String>, Cells) {
    let mut columns = exp.columns.clone();
    if exp.competitors {
        let competitor = |s: &StackConfig| {
            let (gpu, limits) = (GpuConfig::default(), exp.columns[0].limits);
            Column { stack: *s, gpu, limits, label: s.label(), base: 0 }
        };
        columns.extend(ctx.competitors.iter().map(competitor));
    }
    let request = |id, c: &Column| {
        RunRequest::new(id, c.stack, ctx.render).with_gpu(c.gpu).with_limits(c.limits)
    };
    let requests: Vec<RunRequest> =
        scenes.iter().flat_map(|&id| columns.iter().map(move |c| request(id, c))).collect();
    let (flat, summary) = ctx.harness.try_run_batch(&requests);
    eprintln!("  {summary}");
    let mut flat = flat.into_iter();
    let cells = scenes.iter().map(|_| flat.by_ref().take(columns.len()).collect()).collect();
    (columns.into_iter().map(|c| c.label).collect(), cells)
}

/// The results of a matrix without holes, or one `FAILED scene / column`
/// line per failed cell: a figure with holes is not a reproduction.
pub fn complete(
    scenes: &[SceneId],
    labels: &[String],
    cells: Cells,
) -> Result<Vec<Vec<RunResult>>, Vec<String>> {
    let mut failures = Vec::new();
    let mut keep = |scene, label, cell: Result<RunResult, RunError>| {
        cell.map_err(|e| failures.push(format!("FAILED {scene} / {label}: {e}"))).ok()
    };
    let rows = scenes
        .iter()
        .zip(cells)
        .map(|(s, row)| labels.iter().zip(row).filter_map(|(l, cell)| keep(s, l, cell)).collect())
        .collect();
    if failures.is_empty() {
        Ok(rows)
    } else {
        Err(failures)
    }
}

/// Applies `exp.reduction` to a complete matrix: prints its tables and
/// returns the grid its values and orderings are read from.
fn reduce(
    exp: &Experiment,
    labels: Vec<String>,
    scenes: &[SceneId],
    results: &[Vec<RunResult>],
) -> Grid {
    let base = |c: usize| exp.columns.get(c).map_or(0, |col| col.base);
    let per_scene = |cell: &dyn Fn(&[RunResult], usize) -> f64| -> Vec<(String, Vec<f64>)> {
        let cells = |row: &Vec<RunResult>| (0..row.len()).map(|c| cell(row, c)).collect();
        scenes.iter().map(|s| s.name().to_owned()).zip(results.iter().map(cells)).collect()
    };
    match exp.reduction {
        Reduction::Ipc | Reduction::IpcGain | Reduction::RaLimits | Reduction::Offchip => {
            let offchip = |r: &RunResult| r.stats.mem.offchip_accesses() as f64;
            let rows = per_scene(&|row, c| match exp.reduction {
                Reduction::Offchip => offchip(&row[c]) / offchip(&row[base(c)]),
                _ => row[c].normalized_ipc(&row[base(c)]),
            });
            let grid = Grid::with_gmean(labels, rows, &[DEEP]);
            let gains = exp.reduction == Reduction::IpcGain;
            println!(
                "{}",
                grid.table(|_, v| if gains { fmt_improvement(v) } else { format!("{v:.3}") })
            );
            if exp.reduction == Reduction::RaLimits {
                let mut activity = Table::new(["scene", "borrows", "flushes", "global spills"]);
                for (id, row) in scenes.iter().zip(results) {
                    let s = &row[0].stats;
                    let counts = [s.ra_borrows, s.ra_flushes, s.sh_spills].map(|n| n.to_string());
                    activity.row(once(id.name().to_owned()).chain(counts));
                }
                println!("{activity}");
            }
            grid
        }
        Reduction::Conflicts => {
            let mut rows = per_scene(&|row, c| row[c].stats.mem.bank_conflict_cycles as f64);
            let mut keep = Vec::new();
            for (_, row) in &mut rows {
                let (before, after) = (row[0], row[1]);
                row.push(if before > 0.0 { after / before } else { f64::NAN });
                if before > 0.0 {
                    keep.push((after + 1.0) / (before + 1.0));
                }
            }
            let change = if keep.is_empty() { f64::NAN } else { geomean(&keep) };
            rows.push(("gmean".to_owned(), vec![f64::NAN, f64::NAN, change]));
            let labels = labels.into_iter().chain(once("change".to_owned())).collect();
            let grid = Grid { labels, rows };
            let cell = |c, v: f64| match (c, v.is_nan()) {
                (2, true) => "n/a (no conflicts)".to_owned(),
                (2, false) => fmt_improvement(v),
                (_, true) => "-".to_owned(),
                (_, false) => format!("{v:.0}"),
            };
            println!("bank-conflict delay cycles:\n{}", grid.table(cell));
            grid
        }
        Reduction::LaneShare => lane_shares(labels, scenes, results),
        Reduction::Custom => unreachable!("custom experiments have no matrix reduction"),
    }
}

/// The three tables of `breakdown_stalls`; the grid is the D1 one.
fn lane_shares(labels: Vec<String>, scenes: &[SceneId], results: &[Vec<RunResult>]) -> Grid {
    let breakdown = |r: &RunResult| match r.breakdown {
        Some(breakdown) => breakdown,
        None => panic!("armed run {} / {} returned no breakdown", r.scene, r.stack),
    };
    // Share of active RT lane-cycles: idle and scheduler-wait excluded.
    let share = |n: u64, b: &StallBreakdown| match b.lane_sum() - b.rt_idle - b.rt_sched_wait {
        0 => f64::NAN,
        active => n as f64 / active as f64,
    };
    let pct = |share: f64| if share.is_nan() { "-".to_owned() } else { fmt_pct(share) };
    let mut totals = vec![StallBreakdown::default(); labels.len()];
    for row in results {
        totals.iter_mut().zip(row).for_each(|(total, r)| total.merge(&breakdown(r)));
    }

    // The lane buckets of active time: `fetch_wait_l1` up to `rt_idle`.
    let buckets = StallBreakdown::FIELDS.iter().enumerate();
    let buckets = buckets.skip_while(|b| *b.1 != "fetch_wait_l1").take_while(|b| *b.1 != "rt_idle");
    let mut agg = Table::new(once("lane bucket").chain(labels.iter().map(|l| &**l)));
    for (i, name) in buckets {
        agg.row(once(name.to_string()).chain(totals.iter().map(|t| pct(share(t.values()[i], t)))));
    }
    println!("lane-cycle share of active RT time (idle/sched-wait excluded), all scenes:\n{agg}");

    let stack_wait = |b: &StallBreakdown| share(b.stack_wait_total(), b);
    let d1_row = |row: &Vec<RunResult>| row.iter().map(|r| stack_wait(&breakdown(r))).collect();
    let mut rows: Vec<(String, Vec<f64>)> =
        scenes.iter().map(|s| s.name().to_owned()).zip(results.iter().map(d1_row)).collect();
    rows.push(("ALL".to_owned(), totals.iter().map(stack_wait).collect()));
    let d1 = Grid { labels, rows };
    println!("D1 — stack-wait share of active lane-cycles (spill-path cost):");
    println!("{}", d1.table(|_, v| pct(v)));

    // recovered = replay(+SH_8) - replay(+SK); re-absorbed = growth of
    // fetch+op waits over the same pair. re-absorbed/recovered near 1.0
    // means SK converts conflicts into other stalls, not retired work.
    let mut d2 =
        Table::new(["scene", "replay +SH_8", "replay +SK", "recovered", "re-absorbed", "ratio"]);
    for (id, row) in scenes.iter().zip(results) {
        let (sh, sk) = (breakdown(&row[1]), breakdown(&row[2]));
        let recovered = sh.bank_conflict_replay.saturating_sub(sk.bank_conflict_replay);
        let waits = |b: &StallBreakdown| b.fetch_wait_total() + b.op_wait;
        let reabsorbed = waits(&sk).saturating_sub(waits(&sh));
        let ratio = match recovered {
            0 => "-".to_owned(),
            _ => format!("{:.2}", reabsorbed as f64 / recovered as f64),
        };
        let counts = [sh.bank_conflict_replay, sk.bank_conflict_replay, recovered, reabsorbed];
        d2.row(once(id.name().to_owned()).chain(counts.map(|n| n.to_string())).chain([ratio]));
    }
    println!("D2 — SK-recovered conflict replay cycles vs growth in fetch/op waits (lane-cycles):");
    println!("{d2}");
    d1
}

/// Runs one experiment and prints it. `Err` carries one line per failed
/// cell.
pub fn run(ctx: &Ctx, exp: &Experiment) -> Result<Report, Vec<String>> {
    println!("=== {}: {} ===", exp.figure, exp.title);
    let subset = if ctx.scenes.len() < 16 { " (SMS_SCENES subset)" } else { "" };
    println!("workload: {:?} mode, {} scenes{subset}\n", ctx.render.mode, ctx.scenes.len());
    let scenes = exp.scenes(&ctx.scenes);

    let (grid, values) = if exp.reduction == Reduction::Custom {
        let values = custom(exp.id)(ctx, exp, &scenes)?;
        (None, values.into_iter().map(|(key, value)| (key.to_owned(), value)).collect())
    } else {
        let (labels, cells) = run_cells(ctx, exp, &scenes);
        let results = complete(&scenes, &labels, cells)?;
        (Some(reduce(exp, labels, &scenes, &results)), Vec::new())
    };
    let mut report = Report { grid, values };
    let mut ours: Vec<String> = report.values.iter().map(|(k, v)| format!("{k} {v}")).collect();
    if let Some(grid) = &report.grid {
        let print: fn(f64) -> String = match exp.reduction {
            Reduction::Offchip => |x| format!("{x:.2}x"),
            Reduction::LaneShare => fmt_pct,
            _ => fmt_improvement,
        };
        let (summary, of_summary) = grid.rows.last().expect("a grid has a summary row");
        for &(row, col) in exp.values {
            if let Some(x) = grid.cell(row, col) {
                let name = if row == summary { String::new() } else { format!("{row} ") };
                ours.push(format!("{name}{} {}", grid.labels[col], print(x)));
                report.values.push((format!("{row}.{}", grid.labels[col]), print(x)));
            }
        }
        // The competitors' summaries ride along on the `ours:` line.
        if exp.competitors {
            let competitors = grid.labels.iter().zip(of_summary).skip(exp.columns.len());
            ours.extend(competitors.map(|(label, &x)| format!("{label} {}", print(x))));
        }
    }
    if !exp.paper.is_empty() {
        println!("paper:  {}", exp.paper);
    }
    if !ours.is_empty() {
        println!("ours:   {}", ours.join("   "));
    }
    if !exp.note.is_empty() {
        println!("{}", exp.note);
    }
    println!();
    Ok(report)
}

/// The numbers of `report` that left `exp`'s verdict rules, one line each.
/// `recorded` is the parsed `experiments/fast.json` when the run is
/// comparable to it (fast tier, all scenes); orderings are checked on any
/// run that has the scene.
pub fn check(exp: &Experiment, report: &Report, recorded: Option<&Json>) -> Vec<String> {
    let mut strayed = Vec::new();
    for verdict in &exp.verdicts {
        if let Verdict::Ordering(scene, rising) = *verdict {
            let cell = |c: &usize| report.grid.as_ref().and_then(|g| g.cell(scene, *c));
            let cells: Vec<f64> = rising.iter().filter_map(cell).collect();
            if cells.len() == rising.len() && !cells.windows(2).all(|w| w[0] < w[1]) {
                strayed.push(format!("{scene}: columns {rising:?} do not rise: {cells:?}"));
            }
        } else if let Some(recorded) = recorded {
            // `+8.7%`, `1.84x`, `30`: the number a printed value carries.
            let number = |s: &str| s.trim_end_matches(['%', 'x']).parse::<f64>().ok();
            for (key, now) in &report.values {
                let record = recorded.get(&format!("{}.{key}", exp.id)).and_then(Json::as_str);
                let holds = match (verdict, record.and_then(number), number(now)) {
                    (Verdict::WithinPp(pp), Some(was), Some(now)) => (now - was).abs() <= *pp,
                    _ => record == Some(now),
                };
                if !holds {
                    let record = record.unwrap_or("nothing");
                    strayed
                        .push(format!("{key} = {now} left {verdict:?} of the recorded {record}"));
                }
            }
        }
    }
    strayed
}

fn workspace_path(relative: &str) -> PathBuf {
    // `cargo bench` runs with the package directory as CWD.
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    root.canonicalize().unwrap_or(root).join(relative)
}

/// The experiments `ids` name, in the order given; all of them, in paper
/// order, for no id.
pub fn select(ids: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let known = || EXPERIMENTS.iter().map(|e| e.id).collect::<Vec<_>>().join(", ");
    let find = |id: &String| {
        let found = EXPERIMENTS.iter().find(|e| e.id == id);
        found.ok_or_else(|| format!("unknown experiment `{id}` (known: {})", known()))
    };
    if ids.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    ids.iter().map(find).collect()
}

/// The `figures` target: runs the experiments named by `args` (all, in
/// paper order, when none is; `--flags` such as cargo's `--bench` are
/// ignored), writes `target/figures.json` and returns the exit status: 2
/// if a run failed or an id is unknown, 1 if a number left its verdict
/// rule, else 0.
pub fn figures(args: impl Iterator<Item = String>) -> i32 {
    let selected = match select(&args.filter(|a| !a.starts_with("--")).collect::<Vec<_>>()) {
        Ok(selected) => selected,
        Err(unknown) => {
            eprintln!("{unknown}");
            return 2;
        }
    };
    let env = sms_harness::capture_env();
    let config = HarnessConfig::from_env(&env);
    let ctx = Ctx {
        limits: config.limits,
        harness: Harness::new(config),
        scenes: sms_sim::experiments::scene_list(&env).unwrap_or_else(|e| panic!("{e}")),
        render: RenderConfig::from_env(&env),
        competitors: competitor_configs(&env),
    };
    let recorded = (ctx.render == RenderConfig::fast() && ctx.scenes == SceneId::ALL).then(|| {
        // Unreadable records hold nothing: every number then strays, by name.
        let path = workspace_path("experiments/fast.json");
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string());
        text.and_then(|t| json::parse(&t).map_err(|e| format!("{e:?}"))).unwrap_or_else(|e| {
            eprintln!("warning: {}: {e}", path.display());
            Json::Null
        })
    });
    let (mut failed, mut strayed, mut numbers) = (false, false, Vec::new());
    for exp in selected {
        match run(&ctx, exp) {
            Ok(report) => {
                for line in check(exp, &report, recorded.as_ref()) {
                    eprintln!("  {} ({}): {line}", exp.figure, exp.id);
                    strayed = true;
                }
                let keyed = |(key, value): (String, String)| {
                    format!("  {}: {}", Json::Str(format!("{}.{key}", exp.id)), Json::Str(value))
                };
                numbers.extend(report.values.into_iter().map(keyed));
            }
            Err(failures) => {
                failures.iter().for_each(|f| eprintln!("  {f}"));
                eprintln!(
                    "  {} run(s) failed; {} cannot be reproduced",
                    failures.len(),
                    exp.figure
                );
                failed = true;
            }
        }
    }
    let path = workspace_path("target/figures.json");
    match std::fs::write(&path, format!("{{\n{}\n}}\n", numbers.join(",\n"))) {
        Ok(()) => println!("reduced numbers written to {}", path.display()),
        Err(e) => eprintln!("warning: {}: {e}", path.display()),
    }
    i32::from(strayed).max(2 * i32::from(failed))
}

// ---- The experiments that are not a (scene × column) matrix ----

/// A custom experiment's reduced numbers as `(key, printed value)`, or its
/// failed cells.
type Outcome = Result<Vec<(&'static str, String)>, Vec<String>>;

fn custom(id: &str) -> fn(&Ctx, &Experiment, &[SceneId]) -> Outcome {
    match id {
        "table1" => table1,
        "table2" => table2,
        "fig04" => fig04,
        "fig05" => fig05,
        "fig10" => fig10,
        "ablation_bvh_quality" => bvh_quality,
        "extension_restart_trail" => restart_trail,
        other => panic!("experiment `{other}` is declared Custom but has no function"),
    }
}

fn table1(_: &Ctx, _: &Experiment, _: &[SceneId]) -> Outcome {
    let base = GpuConfig::default();
    let sms = StackConfig::sms_default();
    let carve = sms.shared_carveout(base.max_warps_per_rt_unit);
    let l1 = base.with_shared_carveout(carve).l1.size_bytes;
    println!("{base}\n\nSMS default resource split (§IV-B):");
    println!("  {sms} -> {} KB shared memory for SH stacks, {} KB L1D", carve / 1024, l1 / 1024);
    assert_eq!((carve, l1), (8 * 1024, 56 * 1024), "paper: 8KB shared / 56KB L1D");
    println!("\nOK: matches the paper's 56KB L1D + 8KB shared split.");
    Ok(Vec::new())
}

/// Table II reference values: (scene, triangles, BVH MB).
const TABLE2_PAPER: [(&str, &str, f64); 16] = [
    ("WKND", "0", 0.2),
    ("SPRNG", "1.9M", 178.0),
    ("FOX", "1.6M", 648.5),
    ("LANDS", "3.3M", 303.5),
    ("CRNVL", "449.6K", 60.7),
    ("SPNZA", "262.3K", 22.8),
    ("BATH", "423.6K", 112.8),
    ("ROBOT", "20.6M", 1869.0),
    ("CAR", "12.7M", 1328.2),
    ("PARTY", "1.7M", 156.1),
    ("FRST", "4.2M", 380.5),
    ("BUNNY", "144.1K", 13.2),
    ("SHIP", "6.3K", 0.5),
    ("REF", "448.9K", 40.4),
    ("CHSNT", "313.2K", 28.3),
    ("PARK", "6.0M", 542.5),
];

/// Always all 16 scenes: the table is the suite, not a sweep over it (and
/// the camera resolution a render config picks is irrelevant here).
fn table2(ctx: &Ctx, _: &Experiment, _: &[SceneId]) -> Outcome {
    let mut table = Table::new([
        "scene",
        "# tris",
        "# tris (paper)",
        "BVH MB",
        "BVH MB (paper)",
        "nodes",
        "depth",
    ]);
    let prepared = ctx.harness.prepare_scenes(&SceneId::ALL, &RenderConfig::fast());
    for ((id, p), (name, paper_tris, paper_mb)) in
        SceneId::ALL.into_iter().zip(&prepared).zip(TABLE2_PAPER)
    {
        assert_eq!(id.name(), name, "TABLE2_PAPER is in SceneId::ALL order");
        let stats = BvhStats::measure(&p.bvh);
        table.row([
            name.to_owned(),
            p.scene.triangle_count().to_string(),
            paper_tris.to_owned(),
            format!("{:.2}", stats.size_mb()),
            format!("{paper_mb:.1}"),
            stats.nodes.to_string(),
            stats.depth.to_string(),
        ]);
    }
    println!("{table}");
    Ok(Vec::new())
}

fn fig04(ctx: &Ctx, _: &Experiment, scenes: &[SceneId]) -> Outcome {
    let (rows, total) = measure_all(&ctx.render, scenes);
    let mut table = Table::new(["scene", "max", "average", "median", "ops"]);
    for (name, h) in rows.iter().map(|r| (r.id.name(), &r.recorder)).chain([("ALL", &total)]) {
        let (mean, median) = (format!("{:.2}", h.mean()), h.quantile(0.5).to_string());
        table.row([name.to_owned(), h.max().to_string(), mean, median, h.count().to_string()]);
    }
    println!("{table}");
    let (median, max) = (total.quantile(0.5).to_string(), total.max().to_string());
    Ok(vec![("all_avg", format!("{:.1}", total.mean())), ("all_median", median), ("all_max", max)])
}

fn fig05(ctx: &Ctx, _: &Experiment, scenes: &[SceneId]) -> Outcome {
    let (_, total) = measure_all(&ctx.render, scenes);
    // Fine-grained distribution for the figure's x-axis.
    let mut fine = Table::new(["depth", "fraction"]);
    for d in 0..=total.max() {
        fine.row([d.to_string(), fmt_pct(depth_fraction_at(&total, d))]);
    }
    println!("{fine}");
    let keys = ["depth_1_4", "depth_5_8", "depth_9_16", "depth_gt16"];
    Ok(keys.into_iter().zip(depth_buckets(&total).map(fmt_pct)).collect())
}

/// PARTY only, on the full stack: the paper plots stack depth against
/// stack-access index for each thread of two warps. Prints a per-thread
/// summary and writes the full series to the workspace's
/// `target/fig10_traces.csv` for plotting.
fn fig10(ctx: &Ctx, _: &Experiment, _: &[SceneId]) -> Outcome {
    let prepared = PreparedScene::build(SceneId::Party, &ctx.render);
    let config = SimConfig::with_stack(StackConfig::FullOnChip, ctx.render);
    let traces = sms_sim::GpuSim::new(&prepared, config).trace_warps(2).run().thread_traces;

    let mut table = Table::new(["warp", "lane", "stack accesses", "max depth"]);
    let (mut fewest, mut most) = (usize::MAX, 0);
    for (warp, lane) in (0..2u32).flat_map(|w| (0..32u8).map(move |l| (w, l))) {
        let of_thread = || traces.iter().filter(move |t| (t.0, t.1) == (warp, lane));
        let accesses = of_thread().map(|t| t.2 + 1).max().unwrap_or(0);
        let max_depth = of_thread().map(|t| t.3).max().unwrap_or(0);
        table.row([warp, u32::from(lane), accesses, u32::from(max_depth)].map(|n| n.to_string()));
        (fewest, most) = (fewest.min(of_thread().count()), most.max(of_thread().count()));
    }
    println!("{table}");
    let deep = traces.iter().filter(|t| t.3 > 8).count();
    println!("observation 1 (divergent completion): accesses per thread range {fewest}..{most}");
    println!("observation 2 (divergent depth): {deep} accesses exceeded the 8-entry RB stack");

    let mut csv = sms_metrics::Table::new(["warp", "lane", "access_index", "depth"]);
    for (w, l, i, d) in &traces {
        csv.row([w.to_string(), l.to_string(), i.to_string(), d.to_string()]);
    }
    let path = workspace_path("target/fig10_traces.csv");
    std::fs::create_dir_all(path.with_file_name("")).expect("create target dir");
    std::fs::write(&path, csv.to_csv()).expect("write csv");
    println!("full series written to {}", path.display());
    let keys = ["min_accesses", "max_accesses", "deep_accesses"];
    Ok(keys.into_iter().zip([fewest, most, deep].map(|n| n.to_string())).collect())
}

/// The same scenes under a binned-SAH build: traversal work, stack depths
/// and the SMS gain against the evaluated median-split trees. The median
/// cells are `exp.columns` through the harness like any matrix; it builds
/// default trees only, so the SAH cells are simulated here, under its
/// limits, uncached.
fn bvh_quality(ctx: &Ctx, exp: &Experiment, scenes: &[SceneId]) -> Outcome {
    let (labels, cells) = run_cells(ctx, exp, scenes);
    let median = complete(scenes, &labels, cells)?;
    let mut table =
        Table::new(["scene", "builder", "node visits", "max depth", "mean depth", "SMS gain"]);
    let (mut failures, mut chsnt) = (Vec::new(), Vec::new());
    for (&id, median) in scenes.iter().zip(median) {
        let builders = [
            ("chsnt_median_gain", "median", SplitMethod::Median),
            ("chsnt_sah_gain", "binned-SAH", SplitMethod::BinnedSah),
        ];
        for (key, builder, split) in builders {
            let params = BuildParams { split, ..BuildParams::default() };
            let prepared = PreparedScene::build_with(id, &ctx.render, &params);
            // Depth statistics from the functional renderer.
            let depths = render(&prepared, &ctx.render).depths;
            let sah =
                |c: &Column| try_run_prepared(&prepared, c.stack, c.gpu, &ctx.render, &ctx.limits);
            let runs = match split {
                SplitMethod::Median => Ok(median.clone()),
                _ => exp.columns.iter().map(sah).collect::<Result<Vec<_>, _>>(),
            };
            let runs = match runs {
                Ok(runs) => runs,
                Err(fault) => {
                    failures.push(format!("FAILED {id} / {builder}: {fault}"));
                    continue;
                }
            };
            let gain = runs[1].normalized_ipc(&runs[0]);
            let (visits, mean) = (runs[0].stats.node_visits, format!("{:.2}", depths.mean()));
            let name = [id.name(), builder].map(str::to_owned);
            let numbers =
                [visits.to_string(), depths.max().to_string(), mean, fmt_improvement(gain)];
            table.row(name.into_iter().chain(numbers));
            if id == SceneId::Chsnt {
                chsnt.push((key, fmt_improvement(gain)));
            }
        }
    }
    if !failures.is_empty() {
        return Err(failures);
    }
    println!("{table}");
    Ok(chsnt)
}

/// Stack traversal with an exact node-visit counter (same order as
/// `intersect_nearest`).
fn count_stack_visits(prepared: &PreparedScene, ray: &sms_sim::geom::Ray) -> u64 {
    let mut visits = 0u64;
    let mut stack: Vec<u32> = Vec::with_capacity(64);
    let mut current = Some(0u32);
    let mut limit = f32::INFINITY;
    while let Some(node) = current {
        visits += 1;
        match prepared.bvh.node_step(prepared.prims(), ray, node, 0.0, limit) {
            NodeStep::Inner(hits) if hits.is_empty() => current = stack.pop(),
            NodeStep::Inner(hits) => {
                stack.extend((1..hits.len()).rev().map(|i| hits.get(i).1));
                current = Some(hits.get(0).1);
            }
            NodeStep::Leaf(hit) => {
                limit = hit.map_or(limit, |h| limit.min(h.t));
                current = stack.pop();
            }
        }
    }
    visits
}

/// §VIII-A: stackless restart-trail traversal removes stack traffic
/// entirely but pays extra node visits on every backtrack (restarting from
/// the root); the inflation is the work SMS would save if the two were
/// combined (restarts only past the SH stack), as the paper suggests.
fn restart_trail(ctx: &Ctx, _: &Experiment, scenes: &[SceneId]) -> Outcome {
    let mut table =
        Table::new(["scene", "visits (stack)", "visits (restart)", "restarts", "visit inflation"]);
    let (mut least, mut most) = (f64::INFINITY, f64::NEG_INFINITY);
    for &id in scenes {
        let prepared = PreparedScene::build(id, &ctx.render);
        let cam = &prepared.scene.camera;
        let (mut stack_visits, mut restart_visits, mut restarts) = (0u64, 0u64, 0u64);
        for (px, py) in (0..cam.height).flat_map(|py| (0..cam.width).map(move |px| (px, py))) {
            let ray = cam.primary_ray(px, py, 0);
            stack_visits += count_stack_visits(&prepared, &ray);
            let (bvh, prims) = (&prepared.bvh, prepared.prims());
            let (_, s) = intersect_nearest_restart(bvh, prims, &ray, 0.0, f32::INFINITY);
            restart_visits += s.node_visits;
            restarts += s.restarts;
        }
        let inflation = match stack_visits {
            0 => 0.0,
            visits => restart_visits as f64 / visits as f64 - 1.0,
        };
        (least, most) = (least.min(inflation), most.max(inflation));
        let counts = [stack_visits, restart_visits, restarts].map(|n| n.to_string());
        table.row(once(id.name().to_owned()).chain(counts).chain([fmt_pct(inflation)]));
    }
    println!("{table}");
    Ok(vec![("min_inflation", fmt_pct(least)), ("max_inflation", fmt_pct(most))])
}
