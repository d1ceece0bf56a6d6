//! `sim_fast` and `sim_wide`: the cycle model, called directly.
//!
//! Modelled caches start empty in every cell: `try_run_prepared` builds a
//! fresh `GpuSim` per call, so no cell sees another's L1/L2 contents.

use super::{
    alias, note_coverage, overhead_pct, ratio, split_overhead, Ctx, Passes, Report, Series,
};
use crate::golden::{stats_digest, Checker};
use crate::host;
use crate::pace::{Paced, Pacer};
use crate::span::Tracer;
use crate::stats::median;
use sms_harness::{Harness, HarnessConfig};
use sms_sim::config::RenderConfig;
use sms_sim::experiments;
use sms_sim::gpu::{GpuConfig, SimStats, StallBreakdown};
use sms_sim::render::PreparedScene;
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::{Scene, SceneId};
use sms_sim::RunLimits;

/// The paper's Fig. 13 headline: SMS over `RB_8`, geometric mean, percent.
const PAPER_IPC_GAIN_PCT: f64 = 23.2;

/// A fixed scene × configuration matrix at one workload size.
pub struct Matrix {
    pub render: RenderConfig,
    /// `fast`, `tiny` or `WxHxS`: the first component of every digest key.
    pub render_label: String,
    pub rows: Vec<(SceneId, Vec<StackConfig>)>,
    /// How often setup is repeated (its median is `setup_s`).
    pub setup_passes: usize,
    /// The matrix is the paper's headline pair over all scenes, so its
    /// gain is comparable with Fig. 13, and small enough to push through
    /// a cold harness in the traced run.
    pub headline: bool,
}

pub fn sim_fast_matrix(seed: u64, smoke: bool) -> Matrix {
    let pair = vec![StackConfig::baseline8(), StackConfig::sms_default()];
    let (mut render, label, scenes) = if smoke {
        (RenderConfig::tiny(), "tiny", vec![SceneId::Wknd, SceneId::Bunny, SceneId::Ship])
    } else {
        (RenderConfig::fast(), "fast", SceneId::ALL.to_vec())
    };
    render.seed = seed;
    Matrix {
        render,
        render_label: label.to_owned(),
        rows: scenes.into_iter().map(|id| (id, pair.clone())).collect(),
        setup_passes: 3,
        headline: true,
    }
}

pub fn sim_wide_matrix(seed: u64, smoke: bool) -> Matrix {
    // SHIP spills the most, RB_FULL never spills, SL does no stack work at
    // all but revisits nodes of the deep scene's large BVH.
    let (side, deep) = if smoke { (24, SceneId::Bunny) } else { (64, SceneId::Robot) };
    let mut render = RenderConfig::custom(side, side, 1);
    render.seed = seed;
    let spill = vec![StackConfig::baseline8(), StackConfig::sms_default(), StackConfig::FullOnChip];
    let walk = vec![StackConfig::baseline8(), StackConfig::sms_default(), StackConfig::stackless()];
    Matrix {
        render,
        render_label: format!("{side}x{side}x1"),
        rows: vec![(SceneId::Ship, spill), (deep, walk)],
        setup_passes: 5,
        headline: false,
    }
}

/// One cell's observations over all passes.
struct Cell {
    /// Index into the prepared scenes (and `Matrix::rows`).
    row: usize,
    stack: StackConfig,
    /// Labelled `SCENE/CONFIG`.
    times: Series,
    stats: SimStats,
}

/// Builds every scene of the matrix once: `Scene::build` alone (the scene
/// layer's share) and `PreparedScene::build` (what a user pays). Returns
/// the prepared scenes with the paced seconds of the two.
fn prepare_all(
    tracer: &mut Tracer,
    pacer: &mut Pacer,
    m: &Matrix,
) -> (Vec<PreparedScene>, f64, f64) {
    let mut prepared = Vec::with_capacity(m.rows.len());
    let (mut gen_s, mut prep_s) = (0.0, 0.0);
    for (id, _) in &m.rows {
        let (scene, t) = pacer.cell(tracer, "scene.gen", id.name(), |_| Scene::build(*id));
        gen_s += t.paced;
        drop(std::hint::black_box(scene));
        let (p, t) =
            pacer.cell(tracer, "bvh.prepare", id.name(), |_| PreparedScene::build(*id, &m.render));
        prep_s += t.paced;
        prepared.push(p);
    }
    (prepared, gen_s, prep_s)
}

/// One pass over the matrix, cells in fixed order. `limits` arms the stall
/// breakdown for the (T) pass; returns the pass's breakdown sum then.
#[allow(clippy::too_many_arguments)]
fn pass(
    tracer: &mut Tracer,
    pacer: &mut Pacer,
    check: &mut Checker,
    m: &Matrix,
    prepared: &[PreparedScene],
    cells: &mut [Cell],
    limits: &RunLimits,
    pinned: bool,
) -> (Vec<Paced>, Option<StallBreakdown>) {
    let mut times = Vec::with_capacity(cells.len());
    let mut breakdown: Option<StallBreakdown> = None;
    for cell in cells.iter_mut() {
        let (result, t) = pacer.cell(tracer, "sim.cell", &cell.times.label, |_| {
            experiments::try_run_prepared(
                &prepared[cell.row],
                cell.stack,
                GpuConfig::default(),
                &m.render,
                limits,
            )
        });
        times.push(t);
        match result {
            Ok(run) => {
                let key = format!("{}/{}", m.render_label, cell.times.label);
                let ok = check.digest(&key, stats_digest(&run.stats), pinned);
                check.op(ok, || format!("{key}: SimStats digest mismatch"));
                cell.stats = run.stats;
                if let Some(b) = run.breakdown {
                    breakdown.get_or_insert_with(StallBreakdown::default).merge(&b);
                }
            }
            Err(fault) => check.op(false, || format!("{}: {}", cell.times.label, fault.kind())),
        }
    }
    (times, breakdown)
}

pub fn run(ctx: &mut Ctx, m: &Matrix) -> Report {
    let mut report = Report::default();
    let pinned = ctx.pinned();
    let traced = ctx.traced;

    // --- setup: repeated, each time from nothing -------------------------
    let rss_before = host::own_rss_mib();
    let mut resident_mb = 0.0;
    let (mut gen_times, mut prep_times) = (Vec::new(), Vec::new());
    let mut prepared: Vec<PreparedScene> = Vec::new();
    ctx.tracer.set_armed(traced);
    for rep in 0..m.setup_passes {
        prepared.clear(); // peak memory is one set of scenes, not two
        ctx.tracer.set_rep(rep as u32);
        let pacer = &mut ctx.pacer;
        let ((scenes, gen_s, prep_s), _) =
            ctx.tracer.timed("setup", "", |t| prepare_all(t, pacer, m));
        if rep == 0 {
            resident_mb = (host::own_rss_mib() - rss_before).max(0.0);
        }
        prepared = scenes;
        gen_times.push(gen_s);
        prep_times.push(prep_s);
    }
    let setup_times: Vec<f64> = gen_times.iter().zip(&prep_times).map(|(g, p)| g + p).collect();
    let setup_s = median(&setup_times);

    let mut cells: Vec<Cell> = m
        .rows
        .iter()
        .enumerate()
        .flat_map(|(row, (id, stacks))| {
            stacks.iter().map(move |&stack| Cell {
                row,
                stack,
                times: Series::new(format!("{}/{}", id.name(), stack.label())),
                stats: SimStats::default(),
            })
        })
        .collect();

    // --- measuring window --------------------------------------------------
    // Pass 0 warms up and is discarded. In the traced run the passes
    // alternate between kept and dropped spans (the difference is the
    // tracing overhead) and the window keeps room for the (T) work: one
    // breakdown-armed pass and, on the headline matrix, one cold harness
    // batch (scene preparation + one pass).
    let armed_share = if traced { 1.3 } else { 0.0 };
    let harness_share = if traced && m.headline { 1.0 } else { 0.0 };
    let mut passes = Passes::open(ctx, 1);
    let mut pass_times: Vec<f64> = Vec::new();
    loop {
        let index = passes.begin(&mut ctx.tracer);
        let (check, pacer) = (&mut ctx.check, &mut ctx.pacer);
        let ((times, _), wall) = ctx.tracer.timed("rep", "", |t| {
            pass(t, pacer, check, m, &prepared, &mut cells, &RunLimits::none(), pinned)
        });
        for (cell, t) in cells.iter_mut().zip(&times) {
            cell.times.push(*t);
        }
        pass_times.push(times.iter().map(|t| t.paced).sum());
        if index == 0 {
            // Now that a pass's length is known, keep room for the (T) work.
            passes.reserve(wall * (armed_share + harness_share) + harness_share * setup_s);
        }
        if !passes.again(wall) {
            break;
        }
    }
    let measured = passes.measured();

    // --- host time -----------------------------------------------------------
    let cell_median = |c: &Cell| c.times.median();
    let busy: f64 = cells.iter().map(cell_median).sum();
    let raw_busy: f64 = cells.iter().map(|c| c.times.raw_median()).sum();
    let busy_of = |a: &str| {
        cells.iter().filter(|c| alias(&c.stack) == a).map(cell_median).fold(0.0, |sum, s| sum + s)
    };
    let time_of = |row: usize, a: &str| {
        cells.iter().find(|c| c.row == row && alias(&c.stack) == a).map(cell_median)
    };
    for cell in &cells {
        report.timing(format!("sim.cell {}", cell.times.label), &cell.times.paced[1..]);
    }
    report.timing("rep", &pass_times[1..]);
    report.timing("setup", &setup_times);

    let sum = |f: fn(&SimStats) -> u64| cells.iter().map(|c| f(&c.stats)).sum::<u64>() as f64;
    let cycles = sum(|s| s.cycles);
    let visits = sum(|s| s.node_visits);
    let transactions = sum(|s| s.mem.stack_transactions + s.mem.data_transactions);

    report.e2e("setup_s", setup_s);
    report.e2e("cells_per_s", ratio(cells.len() as f64, busy));
    report.e2e("sweep_p50_ms", median(&pass_times[1..]) * 1e3);
    report.e2e("peak_rss_mb", host::own_peak_rss_mib());

    let gen_s = median(&gen_times);
    report.layer("scene.gen_s", gen_s);
    report.layer("scene.prims", prepared.iter().map(|p| p.scene.prims.len()).sum::<usize>() as f64);
    report.layer("bvh.build_default_s", (median(&prep_times) - gen_s).max(0.0));
    report.layer("bvh.resident_mb", resident_mb);
    for (name, a) in [
        ("sim.busy_s.rb8", "rb8"),
        ("sim.busy_s.sms", "sms"),
        ("sim.busy_s.full", "full"),
        ("sim.busy_s.sl", "sl"),
    ] {
        if cells.iter().any(|c| alias(&c.stack) == a) {
            report.layer(name, busy_of(a));
        }
    }
    report.layer("sim.cycles", cycles);
    report.layer("sim.cycles_per_s", ratio(cycles, busy));
    report.layer("sim.ns_per_cycle", ratio(busy * 1e9, cycles));
    report.layer("rtunit.ns_per_node_visit", ratio(busy * 1e9, visits));
    report.layer("mem.ns_per_transaction", ratio(busy * 1e9, transactions));
    // Row 0 is the spill-heavy scene (SHIP) when the matrix has RB_FULL.
    if let (Some(rb8), Some(sms), Some(full)) =
        (time_of(0, "rb8"), time_of(0, "sms"), time_of(0, "full"))
    {
        report.layer("rtunit.stack_path_s", sms - full);
        report.layer("mem.spill_path_s", rb8 - full);
    }
    report.layer("bench.passes", measured as f64);

    // --- simulated results (exact) -------------------------------------------
    report.layer("gpu.instructions", sum(|s| s.instructions()));
    report.layer("rtunit.node_visits", visits);
    report.layer("rtunit.rb_spills", sum(|s| s.rb_spills));
    report.layer("rtunit.rb_reloads", sum(|s| s.rb_reloads));
    report.layer("rtunit.sh_spills", sum(|s| s.sh_spills));
    report.layer("rtunit.sh_reloads", sum(|s| s.sh_reloads));
    report.layer("rtunit.ra_borrows", sum(|s| s.ra_borrows));
    report.layer("rtunit.ra_flushes", sum(|s| s.ra_flushes));
    let (l1_hits, l1_misses) = (sum(|s| s.mem.l1_hits), sum(|s| s.mem.l1_misses));
    let (l2_hits, l2_misses) = (sum(|s| s.mem.l2_hits), sum(|s| s.mem.l2_misses));
    report.layer("mem.l1_accesses", l1_hits + l1_misses);
    report.layer("mem.l1_hit_ratio", ratio(l1_hits, l1_hits + l1_misses));
    report.layer("mem.l2_accesses", l2_hits + l2_misses);
    report.layer("mem.l2_hit_ratio", ratio(l2_hits, l2_hits + l2_misses));
    report.layer("mem.dram_accesses", l2_misses);
    report.layer("mem.stack_transactions", sum(|s| s.mem.stack_transactions));
    report.layer("mem.data_transactions", sum(|s| s.mem.data_transactions));
    report.layer("mem.shared_accesses", sum(|s| s.mem.shared_accesses));
    report.layer("mem.bank_conflict_cycles", sum(|s| s.mem.bank_conflict_cycles));

    let stats_of = |row: usize, a: &str| {
        cells.iter().find(|c| c.row == row && alias(&c.stack) == a).map(|c| c.stats)
    };
    // Geometric mean over the scenes that ran both RB_8 and SMS.
    let gains: Vec<f64> = (0..m.rows.len())
        .filter_map(|row| Some((stats_of(row, "rb8")?, stats_of(row, "sms")?)))
        .map(|(rb8, sms)| ratio(rb8.cycles as f64, sms.cycles as f64).ln())
        .collect();
    let gain_pct = 100.0 * ((gains.iter().sum::<f64>() / gains.len().max(1) as f64).exp() - 1.0);
    report.layer("gpu.ipc_gain_sms_pct", gain_pct);
    if m.headline {
        report.layer("gpu.repro_err_pp", (gain_pct - PAPER_IPC_GAIN_PCT).abs());
    }
    if let (Some(rb8), Some(full)) = (stats_of(0, "rb8"), stats_of(0, "full")) {
        let gain = ratio(rb8.cycles as f64, full.cycles as f64) - 1.0;
        report.layer("gpu.ipc_gain_full_pct", 100.0 * gain);
    }
    if let (Some(rb8), Some(sl)) = (stats_of(1, "rb8"), stats_of(1, "sl")) {
        report.layer("gpu.sl_ipc_norm", ratio(rb8.cycles as f64, sl.cycles as f64));
    }

    // --- invariants that hold at every seed ------------------------------------
    for (row, (scene, _)) in m.rows.iter().enumerate() {
        let of_row: Vec<&Cell> = cells.iter().filter(|c| c.row == row).collect();
        let rays_equal = of_row.windows(2).all(|w| {
            w[0].stats.rays_traced == w[1].stats.rays_traced
                && w[0].stats.shadow_rays == w[1].stats.shadow_rays
        });
        let stacked: Vec<&&Cell> =
            of_row.iter().filter(|c| c.stack.preserves_traversal_work()).collect();
        let work_equal = stacked.windows(2).all(|w| {
            w[0].stats.node_visits == w[1].stats.node_visits
                && w[0].stats.instructions() == w[1].stats.instructions()
        });
        ctx.check.op(rays_equal, || format!("{scene}: rays differ between configurations"));
        ctx.check.op(work_equal, || {
            format!("{scene}: traversal work differs between stack configurations")
        });
    }

    if traced {
        traced_rows(ctx, m, &prepared, &mut cells, &mut report, busy, setup_s);
        let overhead = split_overhead(cells.iter().map(|c| &c.times), &passes.kept);
        report.layer("bench.trace_overhead_pct", overhead);
        note_coverage(ctx, &mut report);
    }
    report.layer("bench.speed_factor", ctx.pacer.speed_factor());
    report.notes.push(format!(
        "{} cells x {measured} measured passes after 1 warm-up; modelled caches start empty in every cell",
        cells.len()
    ));
    report.notes.push(format!(
        "paced {busy:.4} s a pass (sum of the cells' medians); as measured {raw_busy:.4} s"
    ));
    report
}

/// The (T) rows: one pass with the stall breakdown armed, and on the
/// headline matrix one cold batch through a 1-worker `Harness`.
fn traced_rows(
    ctx: &mut Ctx,
    m: &Matrix,
    prepared: &[PreparedScene],
    cells: &mut [Cell],
    report: &mut Report,
    busy: f64,
    setup_s: f64,
) {
    let pinned = ctx.pinned();
    let armed = RunLimits { breakdown: true, ..RunLimits::none() };
    ctx.tracer.set_armed(true);
    let (check, pacer) = (&mut ctx.check, &mut ctx.pacer);
    let ((times, breakdown), _) = ctx
        .tracer
        .timed("rep.breakdown", "", |t| pass(t, pacer, check, m, prepared, cells, &armed, pinned));
    let armed_s: f64 = times.iter().map(|t| t.paced).sum();
    report.layer("sim.breakdown_overhead_pct", overhead_pct(armed_s, busy));
    let b = breakdown.unwrap_or_default();
    ctx.check.op(b.warp_sum() == b.warp_cycles && b.lane_sum() == b.rt_lane_cycles, || {
        "stall breakdown does not conserve cycles".to_owned()
    });
    let warp = |bucket: u64| ratio(bucket as f64, b.warp_cycles as f64);
    let lane = |bucket: u64| ratio(bucket as f64, b.rt_lane_cycles as f64);
    report.layer("sim.ns_per_warp_cycle", ratio(busy * 1e9, b.warp_cycles as f64));
    report.layer("gpu.warp.compute_frac", warp(b.compute));
    report.layer("gpu.warp.mem_wait_frac", warp(b.mem_wait));
    report.layer("gpu.warp.rt_admit_frac", warp(b.rt_admit));
    report.layer("gpu.warp.in_rt_frac", warp(b.in_rt));
    report.layer("rtunit.lane.fetch_wait_frac", lane(b.fetch_wait_total()));
    report.layer(
        "rtunit.lane.stack_wait_frac",
        lane(b.stack_wait_rb_sh + b.stack_wait_sh_global + b.stack_wait_flush),
    );
    report.layer("rtunit.lane.op_wait_frac", lane(b.op_wait));
    report.layer("rtunit.lane.sched_wait_frac", lane(b.rt_sched_wait));
    report.layer("rtunit.lane.bank_conflict_frac", lane(b.bank_conflict_replay));
    report.layer("rtunit.lane.idle_frac", lane(b.rt_idle));

    if !m.headline {
        return;
    }
    // Cold harness: fresh cache and journal, one worker, the same cells.
    // Against preparing the scenes and running the cells directly, the
    // difference is what pool, cache writes, journal and codecs cost.
    let dir = match ctx.scratch.subdir("harness-cold") {
        Ok(dir) => dir,
        Err(e) => return ctx.check.op(false, || e),
    };
    let harness = Harness::new(HarnessConfig {
        workers: 1,
        cache_dir: Some(dir.join("cache")),
        journal_path: Some(dir.join("journal.jsonl")),
        ..HarnessConfig::default()
    });
    let scenes: Vec<SceneId> = m.rows.iter().map(|(id, _)| *id).collect();
    let stacks = &m.rows[0].1;
    let ((grid, summary), t) = ctx.pacer.cell(&mut ctx.tracer, "harness.batch", "cold", |_| {
        harness.try_run_suite(&scenes, stacks, &m.render)
    });
    report.layer("harness.cold_overhead_pct", overhead_pct(t.paced, setup_s + busy));
    ctx.check.op(summary.cache_misses == cells.len() && summary.failed == 0, || {
        format!("cold harness batch: {} misses, {} failed", summary.cache_misses, summary.failed)
    });
    for (result, cell) in grid.into_iter().flatten().zip(cells.iter()) {
        let same = result.as_ref().is_ok_and(|r| r.stats == cell.stats);
        ctx.check.op(same, || {
            format!("{}: harness result differs from the direct run", cell.times.label)
        });
    }
}
