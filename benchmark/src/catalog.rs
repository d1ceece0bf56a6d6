//! Every name the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics, with what `BENCHMARK.json` has no key for — the
//! layer, whether a value repeats bit-for-bit, whether it needs the traced
//! run, and the end-to-end metric it is expected to move. A test checks
//! this table against `BENCHMARK.json` name by name.

/// One benchmark workload and its fixed parameters.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Scenes, configurations, resolution, repetition rule, client count.
    pub params: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "sim_fast",
        why: "many short cells over all 16 scenes: fixed per-cycle and per-run costs of sim/rtunit/mem dominate; the paper's headline pair",
        params: "16 Table-II scenes x {RB_8, RB_8+SH_8+SK+RA}, RenderConfig::fast() (32 warps, all resident), try_run_prepared on GpuConfig::default(), one thread; setup = Scene::build + PreparedScene::build of all 16, 3x (median); 1 warm-up pass, then passes until --seconds is used",
    },
    WorkloadSpec {
        name: "sim_wide",
        why: "128 warps (admission queueing, L1 thrash) and the three extreme stack behaviours: heavy spill, no spill, stackless",
        params: "SHIP x {RB_8, RB_8+SH_8+SK+RA, RB_FULL} and ROBOT x {RB_8, RB_8+SH_8+SK+RA, SL} at RenderConfig::custom(64,64,1), same entry point; setup = PreparedScene::build of both, 5x (median); 1 warm-up pass, then passes until --seconds is used",
    },
    WorkloadSpec {
        name: "build_trace",
        why: "scene+bvh do all the work and the cycle model none: build and traverse are the write and read side of one structure",
        params: "LANDS, ROBOT, CAR, FRST, PARK (912k prims): PreparedScene::build and build_with(BuildParams::hlbvh(1)); render::render at custom(256,256,1) on the 5 default-built scenes + SHIP + WKND; setup = Scene::build of the 5 + preparing SHIP and WKND, 5x (median); 1 warm-up pass, then passes until --seconds is used",
    },
    WorkloadSpec {
        name: "serve_warm",
        why: "the simulator is idle: HTTP framing, accept/dispatch, journal codec and cache reads are everything; four nested measurements separate the hops",
        params: "2x sms-serve --workers 1 sharing one fresh SMS_CACHE_DIR + 1x sms-fleet --backends a,b; setup = spawn + one populating sweep; closed loop, 2 client threads, request = {WKND,BUNNY,SHIP,REF} x {RB_8, RB_8+SH_8+SK+RA, RB_FULL, SL} fast (16 cells, all hits): 45% of --seconds via the fleet, 25% direct to backend a, 15% sequential GET /healthz, 10% in-process Harness::try_run_suite on the same cache dir",
    },
    WorkloadSpec {
        name: "serve_cold",
        why: "the full user path client->fleet->backend->harness->sim with the cache write side: only dispatch balance, duplicated scene preparation and queueing can move it",
        params: "same topology restarted with a fresh cache dir every repetition; one client sends one sweep of sim_fast's 32 cells through the fleet; setup = spawn until all three addr files exist (median over repetitions); repetitions until --seconds is used",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system sees. Defined on every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub definition: &'static str,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        definition: "time before the first timed operation, as defined per workload; build time excluded",
    },
    EndToEnd {
        name: "cells_per_s",
        unit: "1/s",
        better: Better::Higher,
        definition: "matrix cells completed per host second. In-process: cells / sum over cells of the cell's median wall across passes. serve_warm: cells returned in the via-fleet phase / its wall. serve_cold: 32 / median sweep wall",
    },
    EndToEnd {
        name: "sweep_p50_ms",
        unit: "ms",
        better: Better::Lower,
        definition: "median wall time of one pass over the workload's matrix. In-process: one measured pass. serve_*: one client-observed sweep request through the fleet",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        definition: "VmHWM of the workload process; serve workloads: sum over the backend and fleet processes, read before shutdown (median over repetitions on serve_cold)",
    },
];

/// A metric of one layer, measured from outside the program.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    /// Repeats bit-for-bit at a fixed seed (a count made by the program,
    /// or a ratio of such counts).
    pub exact: bool,
    /// Only measured in the traced run (`--trace 1`); 0 otherwise.
    pub traced: bool,
    /// The end-to-end metric@workload this is expected to move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    exact: bool,
    traced: bool,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, layer, exact, traced, moves }
}

use Better::{Higher as H, Lower as L};

const SIM_TIME: &str = "simulated time only (gpu.repro_err_pp, gpu.sl_ipc_norm)";
const FLEET_ZERO: &str = "expected 0 (defaults, no faults); non-zero explains a cells_per_s move";

pub const PER_LAYER: [PerLayer; 89] = [
    // scene
    layer("scene.gen_s", "s", L, "scene", false, false, "setup_s@sim_fast,build_trace"),
    layer("scene.prims", "count", L, "scene", true, false, "cells_per_s@build_trace"),
    // bvh
    layer("bvh.build_default_s", "s", L, "bvh", false, false, "cells_per_s@build_trace; setup_s@sim_fast,sim_wide"),
    layer("bvh.build_hlbvh_s", "s", L, "bvh", false, false, "cells_per_s@build_trace"),
    layer("bvh.build_prims_per_s", "1/s", H, "bvh", false, false, "cells_per_s@build_trace"),
    layer("bvh.trace_s", "s", L, "bvh", false, false, "cells_per_s@build_trace"),
    layer("bvh.trace_rays_per_s", "1/s", H, "bvh", false, false, "cells_per_s@build_trace"),
    layer("bvh.ns_per_ray", "ns", L, "bvh", false, false, "cells_per_s@build_trace"),
    layer("bvh.rays", "count", L, "bvh", true, false, "cells_per_s@build_trace"),
    layer("bvh.depth_p50", "count", L, "bvh", true, false, "any move means the tree or visit order changed"),
    layer("bvh.depth_p99", "count", L, "bvh", true, false, "any move means the tree or visit order changed"),
    layer("bvh.depth_max", "count", L, "bvh", true, false, "any move means the tree or visit order changed"),
    layer("bvh.resident_mb", "MiB", L, "bvh", false, false, "peak_rss_mb@build_trace,sim_fast,sim_wide,serve_*"),
    // sim
    layer("sim.busy_s.rb8", "s", L, "sim", false, false, "cells_per_s@sim_fast,sim_wide"),
    layer("sim.busy_s.sms", "s", L, "sim", false, false, "cells_per_s@sim_fast,sim_wide"),
    layer("sim.busy_s.full", "s", L, "sim", false, false, "cells_per_s@sim_wide"),
    layer("sim.busy_s.sl", "s", L, "sim", false, false, "cells_per_s@sim_wide"),
    layer("sim.cycles", "count", L, "sim", true, false, "host time moves with events simulated: compare ns_per_cycle for host speed"),
    layer("sim.cycles_per_s", "1/s", H, "sim", false, false, "cells_per_s@sim_fast,sim_wide"),
    layer("sim.ns_per_cycle", "ns", L, "sim", false, false, "cells_per_s@sim_fast,sim_wide"),
    layer("sim.ns_per_warp_cycle", "ns", L, "sim", false, true, "explains sim_fast vs sim_wide"),
    layer("sim.breakdown_overhead_pct", "%", L, "sim", false, true, "cost of observation; moves no end-to-end metric"),
    // gpu
    layer("gpu.instructions", "count", H, "gpu", true, false, SIM_TIME),
    layer("gpu.ipc_gain_sms_pct", "%", H, "gpu", true, false, "gpu.repro_err_pp@sim_fast"),
    layer("gpu.ipc_gain_full_pct", "%", H, "gpu", true, false, SIM_TIME),
    layer("gpu.repro_err_pp", "pp", L, "gpu", true, false, "distance from the paper's Fig. 13 headline (23.2%) on sim_fast"),
    layer("gpu.sl_ipc_norm", "ratio", H, "gpu", true, false, "cycles(ROBOT,RB_8)/cycles(ROBOT,SL) on sim_wide"),
    layer("gpu.warp.compute_frac", "ratio", H, "gpu", true, true, SIM_TIME),
    layer("gpu.warp.mem_wait_frac", "ratio", L, "gpu", true, true, SIM_TIME),
    layer("gpu.warp.rt_admit_frac", "ratio", L, "gpu", true, true, "< 0.001 on sim_fast, > 0.3 on sim_wide"),
    layer("gpu.warp.in_rt_frac", "ratio", L, "gpu", true, true, SIM_TIME),
    // rtunit
    layer("rtunit.node_visits", "count", L, "rtunit", true, false, "gpu.sl_ipc_norm@sim_wide; host: cells_per_s"),
    layer("rtunit.rb_spills", "count", L, "rtunit", true, false, "gpu.repro_err_pp@sim_fast"),
    layer("rtunit.rb_reloads", "count", L, "rtunit", true, false, "gpu.repro_err_pp@sim_fast"),
    layer("rtunit.sh_spills", "count", L, "rtunit", true, false, "gpu.repro_err_pp@sim_fast"),
    layer("rtunit.sh_reloads", "count", L, "rtunit", true, false, "gpu.repro_err_pp@sim_fast"),
    layer("rtunit.ra_borrows", "count", H, "rtunit", true, false, "gpu.repro_err_pp@sim_fast"),
    layer("rtunit.ra_flushes", "count", L, "rtunit", true, false, "gpu.repro_err_pp@sim_fast"),
    layer("rtunit.ns_per_node_visit", "ns", L, "rtunit", false, false, "cells_per_s@sim_fast,sim_wide"),
    layer("rtunit.stack_path_s", "s", L, "rtunit", false, false, "cells_per_s@sim_wide; predicted no change on sim_fast"),
    layer("rtunit.lane.fetch_wait_frac", "ratio", L, "rtunit", true, true, SIM_TIME),
    layer("rtunit.lane.stack_wait_frac", "ratio", L, "rtunit", true, true, SIM_TIME),
    layer("rtunit.lane.op_wait_frac", "ratio", L, "rtunit", true, true, SIM_TIME),
    layer("rtunit.lane.sched_wait_frac", "ratio", L, "rtunit", true, true, SIM_TIME),
    layer("rtunit.lane.bank_conflict_frac", "ratio", L, "rtunit", true, true, SIM_TIME),
    layer("rtunit.lane.idle_frac", "ratio", L, "rtunit", true, true, SIM_TIME),
    // mem
    layer("mem.l1_accesses", "count", L, "mem", true, false, SIM_TIME),
    layer("mem.l1_hit_ratio", "ratio", H, "mem", true, false, SIM_TIME),
    layer("mem.l2_accesses", "count", L, "mem", true, false, SIM_TIME),
    layer("mem.l2_hit_ratio", "ratio", H, "mem", true, false, SIM_TIME),
    layer("mem.dram_accesses", "count", L, "mem", true, false, SIM_TIME),
    layer("mem.stack_transactions", "count", L, "mem", true, false, SIM_TIME),
    layer("mem.data_transactions", "count", L, "mem", true, false, SIM_TIME),
    layer("mem.shared_accesses", "count", L, "mem", true, false, SIM_TIME),
    layer("mem.bank_conflict_cycles", "count", L, "mem", true, false, SIM_TIME),
    layer("mem.spill_path_s", "s", L, "mem", false, false, "cells_per_s@sim_wide"),
    layer("mem.ns_per_transaction", "ns", L, "mem", false, false, "cells_per_s@sim_fast,sim_wide"),
    // harness
    layer("harness.warm_cells_per_s", "1/s", H, "harness", false, false, "cells_per_s,sweep_p50_ms@serve_warm (today < 2% of the sweep)"),
    layer("harness.cache_hits", "count", H, "harness", true, false, "cells_per_s@serve_warm"),
    layer("harness.cache_misses", "count", L, "harness", true, false, "cells_per_s@serve_warm"),
    layer("harness.cache_entry_bytes", "B", L, "harness", false, false, "cells_per_s@serve_warm"),
    layer("harness.cold_overhead_pct", "%", L, "harness", false, true, "cells_per_s@serve_cold"),
    // serve
    layer("serve.sweep_p50_ms", "ms", L, "serve", false, false, "sweep_p50_ms@serve_warm"),
    layer("serve.sweep_p95_ms", "ms", L, "serve", false, false, "sweep_p50_ms@serve_warm"),
    layer("serve.cells_per_s", "1/s", H, "serve", false, false, "cells_per_s@serve_warm"),
    layer("serve.healthz_p50_ms", "ms", L, "serve", false, false, "sweep_p50_ms@serve_warm (one accept wake per hop)"),
    layer("serve.job_busy_s", "s", L, "serve", false, false, "cells_per_s@serve_cold; CPU seconds of the backend processes"),
    layer("serve.job_latency_s", "s", L, "serve", false, false, "cells_per_s@serve_cold; above job_busy_s when jobs queue for the simulation permit"),
    layer("serve.cache_hit_ratio", "ratio", H, "serve", true, false, "1 on serve_warm after setup, 0 on serve_cold"),
    layer("serve.singleflight_shared", "count", L, "serve", false, false, "cells_per_s@serve_cold"),
    layer("serve.shed", "count", L, "serve", true, false, "expected 0; non-zero explains a cells_per_s move"),
    layer("serve.jobs_failed", "count", L, "serve", true, false, "expected 0; non-zero explains a cells_per_s move"),
    layer("serve.rss_mb", "MiB", L, "serve", false, false, "peak_rss_mb@serve_cold (each backend prepares its own scenes)"),
    // fleet
    layer("fleet.sweep_p95_ms", "ms", L, "fleet", false, false, "sweep_p50_ms@serve_warm"),
    layer("fleet.hop_p50_ms", "ms", L, "fleet", false, false, "sweep_p50_ms@serve_warm"),
    layer("fleet.busy_s", "s", L, "fleet", false, false, "cells_per_s,sweep_p50_ms@serve_warm; CPU seconds of the fleet process"),
    layer("fleet.cell_wait_s", "s", L, "fleet", false, false, "cells_per_s@serve_cold"),
    layer("fleet.parallel_efficiency", "ratio", H, "fleet", false, false, "cells_per_s@serve_cold; ceiling is 2 x sim_fast's cells/s"),
    layer("fleet.dispatch_imbalance", "ratio", L, "fleet", false, false, "cells_per_s@serve_cold"),
    layer("fleet.hedges", "count", L, "fleet", true, false, FLEET_ZERO),
    layer("fleet.retries", "count", L, "fleet", true, false, FLEET_ZERO),
    layer("fleet.steals", "count", L, "fleet", true, false, FLEET_ZERO),
    layer("fleet.breaker_opens", "count", L, "fleet", true, false, FLEET_ZERO),
    layer("fleet.cells_failed", "count", L, "fleet", true, false, FLEET_ZERO),
    // the benchmark itself
    layer("bench.rep_self_pct", "%", L, "bench", false, true, "share of a pass not covered by spans; must stay < 2"),
    layer("bench.trace_overhead_pct", "%", L, "bench", false, true, "none; reported so the traced numbers can be trusted"),
    layer("bench.speed_factor", "ratio", L, "bench", false, false, "none; reference-loop time around the cells / its time on the quiet reference machine: raw wall = paced x this"),
    layer("bench.steal_pct", "%", L, "bench", false, false, "none; share of the VM's CPU time the host took during the workload: a run above a few percent was disturbed (wall-clock rows: serve_*)"),
    layer("bench.passes", "count", H, "bench", false, false, "none; measured passes that fitted into --seconds"),
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `sms-benchmark list`: what `BENCHMARK.json` has no keys for — each
/// workload's fixed parameters, each end-to-end metric's definition, each
/// per-layer metric's layer, flags and the metric it should move.
pub fn print() {
    println!("workloads");
    for w in &WORKLOADS {
        println!("  {}\n    why: {}\n    parameters: {}", w.name, w.why, w.params);
    }
    println!("end-to-end metrics (defined on every workload)");
    for m in &END_TO_END {
        println!(
            "  {} [{}], {} is better\n    {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.definition
        );
    }
    println!("per-layer metrics (= repeats exactly at a fixed seed, T only in the traced run)");
    for m in &PER_LAYER {
        let flags =
            format!("{}{}", if m.exact { "=" } else { " " }, if m.traced { "T" } else { " " });
        println!(
            "  {:<32} {:<6} {flags} {:<8} {:<6} moves: {}",
            m.name,
            m.unit,
            m.layer,
            m.better.as_str(),
            m.moves
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn spec() -> Json {
        json::read_file(&crate::host::repo_root().join("BENCHMARK.json")).unwrap()
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("`{key}` missing in {entry:?}"))
    }

    fn keys(entry: &Json) -> Vec<&str> {
        entry.as_obj().iter().map(|(k, _)| k.as_str()).collect()
    }

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_has_exactly_the_contracted_keys() {
        let spec = spec();
        assert_eq!(
            keys(&spec),
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let paths: Vec<&str> =
            spec.get("paths").unwrap().as_arr().iter().filter_map(Json::as_str).collect();
        assert_eq!(paths, ["benchmark"]);
        let seconds = spec.get("run_seconds").unwrap().as_f64().unwrap();
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        for arg in spec.get("command").unwrap().as_arr().iter().filter_map(Json::as_str) {
            assert!(
                !arg.starts_with('/') && !arg.contains(".."),
                "`{arg}` leads out of the checkout"
            );
        }
    }

    #[test]
    fn workloads_match_the_catalog() {
        let spec = spec();
        let listed = spec.get("workloads").unwrap().as_arr();
        assert!((2..=8).contains(&listed.len()));
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, known) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(keys(entry), ["name", "why"]);
            assert_eq!(field(entry, "name"), known.name);
            assert_eq!(field(entry, "why"), known.why);
            assert!(is_name(known.name));
            assert!(
                known.why.len() <= 200 && !known.why.contains('\n'),
                "{}: why is one line of <= 200",
                known.name
            );
            assert!(!known.params.is_empty());
        }
    }

    #[test]
    fn end_to_end_metrics_match_the_catalog() {
        let spec = spec();
        let listed = spec.get("end_to_end").unwrap().as_arr();
        assert!((1..=16).contains(&listed.len()));
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, known) in listed.iter().zip(&END_TO_END) {
            assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
            assert_eq!(field(entry, "name"), known.name);
            assert_eq!(field(entry, "unit"), known.unit);
            assert_eq!(field(entry, "better"), known.better.as_str());
            let bound = entry.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", known.name);
            assert!(is_name(known.name) && is_unit(known.unit));
            assert!(!known.definition.is_empty());
        }
        let setup = &END_TO_END[0];
        assert_eq!((setup.name, setup.unit, setup.better), ("setup_s", "s", Better::Lower));
    }

    #[test]
    fn per_layer_metrics_match_the_catalog() {
        let spec = spec();
        let listed = spec.get("per_layer").unwrap().as_arr();
        assert!((1..=128).contains(&listed.len()));
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, known) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(keys(entry), ["name", "unit", "better"]);
            assert_eq!(field(entry, "name"), known.name);
            assert_eq!(field(entry, "unit"), known.unit);
            assert_eq!(field(entry, "better"), known.better.as_str());
            assert!(is_name(known.name) && is_unit(known.unit), "{}", known.name);
            assert!(
                known.name.starts_with(known.layer),
                "{} belongs to layer {}",
                known.name,
                known.layer
            );
            assert!(!known.moves.is_empty());
        }
    }

    #[test]
    fn every_name_is_used_once() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
