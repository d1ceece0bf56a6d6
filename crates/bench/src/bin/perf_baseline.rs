//! Host-performance baseline: times a cold, single-worker sweep of the
//! Table 2 scene set and emits machine-readable throughput numbers.
//!
//! This does not reproduce a paper figure — it benchmarks the *simulator
//! host* (wall-clock per run, runs/s, simulated cycles/s) so host-side
//! regressions are visible in CI. The cache is always bypassed (a cached
//! batch measures disk reads, not the simulator) and the worker count
//! defaults to 1 for stable numbers; `SMS_JOBS`/`SMS_SCENES` still apply.
//!
//! Appends one timestamped entry to `BENCH_core.json` (an append-only JSON
//! array, so successive runs build a throughput history; a pre-history
//! single-object file is converted in place). Override the path with
//! `SMS_BENCH_OUT`.
//!
//! A second, metrics-armed pass then writes `BENCH_metrics.json`
//! (`SMS_BENCH_METRICS_OUT`): per-`(scene, config)` stack-depth and
//! ray-latency percentile digests plus spill/reload totals. The passes are
//! separate so the timed numbers measure the bare simulator, never the
//! telemetry.

use sms_harness::json::Json;
use sms_harness::{cache, BatchMetrics, Event, Harness, HarnessConfig};
use sms_sim::bvh::{BuildParams, FlatBvh, SplitMethod};
use sms_sim::config::RenderConfig;
use sms_sim::experiments;
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::{Scene, SceneId};

fn unix_timestamp() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Times one `FlatBvh` build — what a prepared scene builds — over the
/// scene's primitives, in microseconds.
fn time_build(scene: &Scene, params: &BuildParams) -> u64 {
    let start = std::time::Instant::now();
    std::hint::black_box(FlatBvh::build(&scene.prims, params));
    start.elapsed().as_micros() as u64
}

/// BVH build-throughput matrix: binned SAH vs parallel HLBVH on scenes
/// scaled to paper-class triangle counts (`Scene::build_scaled`). Returns
/// one JSON row per scene with wall times and tris/s for both builders.
/// Skipped when `SMS_BUILD_BENCH=0` (CI smokes that only exercise the
/// sweep path set it, keeping those steps fast).
fn build_bench() -> Vec<Json> {
    let own = |s: &str| s.to_owned();
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // SHIP at detail 20 crosses one million triangles; ROBOT at detail 3
    // doubles that — both paper-scale anchors, ROBOT the largest.
    let matrix = [(SceneId::Ship, 20u32), (SceneId::Robot, 3u32)];
    let mut rows = Vec::new();
    for (id, detail) in matrix {
        let scene = Scene::build_scaled(id, detail);
        let tris = scene.prims.len() as u64;
        let sah = BuildParams { split: SplitMethod::BinnedSah, ..BuildParams::default() };
        let sah_us = time_build(&scene, &sah).max(1);
        let hlbvh_us = time_build(&scene, &BuildParams::hlbvh(workers)).max(1);
        let per_sec = |us: u64| tris as f64 / (us as f64 / 1.0e6);
        let speedup = sah_us as f64 / hlbvh_us as f64;
        println!(
            "build {:>5} detail {detail:>2}: {tris:>8} tris | sah {:>9} us ({:>12.0} tris/s) | \
             hlbvh {:>9} us ({:>12.0} tris/s) | {speedup:.1}x",
            id.name(),
            sah_us,
            per_sec(sah_us),
            hlbvh_us,
            per_sec(hlbvh_us),
        );
        rows.push(Json::Obj(vec![
            (own("scene"), Json::Str(id.name().to_owned())),
            (own("detail"), Json::U64(detail as u64)),
            (own("tris"), Json::U64(tris)),
            (own("workers"), Json::U64(workers as u64)),
            (own("sah_build_us"), Json::U64(sah_us)),
            (own("hlbvh_build_us"), Json::U64(hlbvh_us)),
            (own("sah_tris_per_sec"), Json::F64(per_sec(sah_us))),
            (own("hlbvh_tris_per_sec"), Json::F64(per_sec(hlbvh_us))),
            (own("speedup"), Json::F64(speedup)),
        ]));
    }
    rows
}

fn quiet_config() -> HarnessConfig {
    let mut cfg = HarnessConfig::from_env();
    cfg.cache_dir = None;
    if std::env::var("SMS_JOBS").is_err() {
        cfg.workers = 1;
    }
    cfg
}

fn main() {
    let render = RenderConfig::from_env();
    let scenes = experiments::scene_list();
    let mut configs = vec![StackConfig::baseline8(), StackConfig::sms_default()];
    // Competitor columns (SL / PRED_*); SMS_STACKLESS=0 / SMS_PREDICT=0
    // restore the two-config pre-competitor baseline matrix.
    configs.extend(sms_bench::competitor_configs());
    let harness = Harness::new(quiet_config());

    println!("=== perf_baseline: host throughput on the Table 2 scene set ===");
    println!(
        "workload: {:?} mode, {} scenes x {} configs, {} worker(s), cache off\n",
        render.mode,
        scenes.len(),
        configs.len(),
        if std::env::var("SMS_JOBS").is_ok() { "SMS_JOBS".to_owned() } else { "1".to_owned() }
    );

    let (results, summary) = harness.try_run_suite(&scenes, &configs, &render);
    println!("{summary}");
    let failures: Vec<String> =
        results.iter().flatten().filter_map(|r| r.as_ref().err()).map(|e| e.to_string()).collect();
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    if !failures.is_empty() {
        eprintln!("{} run(s) failed; baseline numbers would be partial", failures.len());
        std::process::exit(2);
    }

    // Per-run wall clock from the journal's job_finished events.
    let own = |s: &str| s.to_owned();
    let mut runs = Vec::new();
    let mut queued: Vec<(usize, String, String)> = Vec::new();
    for ev in harness.journal().last_batch() {
        match ev {
            Event::JobQueued { job, scene, config, .. } => queued.push((job, scene, config)),
            Event::JobFinished { job, cycles, duration_us, .. } => {
                let (scene, config) = queued
                    .iter()
                    .find(|(j, _, _)| *j == job)
                    .map(|(_, s, c)| (s.clone(), c.clone()))
                    .unwrap_or_default();
                runs.push(Json::Obj(vec![
                    (own("scene"), Json::Str(scene)),
                    (own("config"), Json::Str(config)),
                    (own("cycles"), Json::U64(cycles)),
                    (own("duration_us"), Json::U64(duration_us)),
                ]));
            }
            _ => {}
        }
    }

    let builds = if std::env::var("SMS_BUILD_BENCH").as_deref() == Ok("0") {
        Vec::new()
    } else {
        println!("\n--- BVH build throughput (binned SAH vs HLBVH, scaled scenes) ---");
        build_bench()
    };

    let timestamp = unix_timestamp();
    let doc = Json::Obj(vec![
        (own("bench"), Json::Str(own("perf_baseline"))),
        (own("timestamp"), Json::U64(timestamp)),
        (own("mode"), Json::Str(format!("{:?}", render.mode))),
        (own("scenes"), Json::U64(scenes.len() as u64)),
        (own("unique_jobs"), Json::U64(summary.unique_jobs as u64)),
        (own("workers"), Json::U64(summary.workers as u64)),
        (own("wall_us"), Json::U64(summary.wall.as_micros() as u64)),
        (own("sim_cycles"), Json::U64(summary.sim_cycles)),
        (own("runs_per_sec"), Json::F64(summary.runs_per_sec())),
        (own("sim_cycles_per_sec"), Json::F64(summary.sim_cycles_per_sec())),
        (own("runs"), Json::Arr(runs)),
        (own("builds"), Json::Arr(builds)),
    ]);
    let out = std::env::var("SMS_BENCH_OUT").unwrap_or_else(|_| "BENCH_core.json".to_owned());
    let mut history = sms_bench::load_bench_history(&out);
    history.push(doc);
    std::fs::write(&out, format!("{}\n", Json::Arr(history))).expect("write benchmark output");
    println!("\nappended entry to {out}");

    // Metrics-armed pass: distributional digests per (scene, config).
    let mut mcfg = quiet_config();
    mcfg.limits.metrics = true;
    let mharness = Harness::new(mcfg);
    let (mresults, _) = mharness.try_run_suite(&scenes, &configs, &render);
    let mut entries = Vec::new();
    for r in mresults.iter().flatten().filter_map(|r| r.as_ref().ok()) {
        if let Some(m) = &r.metrics {
            entries.push(Json::Obj(vec![
                (own("scene"), Json::Str(r.scene.name().to_owned())),
                (own("config"), Json::Str(r.stack.label())),
                (own("metrics"), cache::metrics_to_json(&BatchMetrics::from_stacks(&m.stacks))),
            ]));
        }
    }
    let mdoc = Json::Obj(vec![
        (own("bench"), Json::Str(own("perf_baseline_metrics"))),
        (own("timestamp"), Json::U64(timestamp)),
        (own("mode"), Json::Str(format!("{:?}", render.mode))),
        (own("entries"), Json::Arr(entries)),
    ]);
    let mout =
        std::env::var("SMS_BENCH_METRICS_OUT").unwrap_or_else(|_| "BENCH_metrics.json".to_owned());
    std::fs::write(&mout, format!("{mdoc}\n")).expect("write metrics output");
    println!("wrote {mout}");
}
