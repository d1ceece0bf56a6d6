//! The pinned benchmark: five workloads, four end-to-end metrics defined
//! on every workload, and per-layer attribution measured from outside.
//!
//! ```text
//! sms-benchmark --workload W --seed N --seconds S --trace 0|1   one workload (the driver's contract)
//! sms-benchmark [--seed N] [--seconds S] [--trace 0|1|FILE] [--out FILE]   all five, each in its own process
//! sms-benchmark compare A1.json[,A2.json,...] B1.json[,...]     medians of two sets against the bounds
//! sms-benchmark list                                            what BENCHMARK.json has no keys for
//! ```
//!
//! See README.md for the tables, the noise figures and the public surface
//! of the repository this program depends on.

mod catalog;
mod compare;
mod golden;
mod host;
mod json;
mod pace;
mod prom;
mod span;
mod stats;
mod workloads;

use golden::{Checker, Golden, GOLDEN_SEED};
use json::{num, obj, text, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Ctx, Report};

/// Everything the command line can say.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    /// Where to write the Chrome trace (`--trace FILE`).
    trace_file: Option<PathBuf>,
    smoke: bool,
    bless: bool,
    golden: PathBuf,
    bin_dir: Option<PathBuf>,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: sms-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE] \
[--out FILE] [--smoke] [--bless] [--golden FILE] [--bin-dir DIR]\n       sms-benchmark compare A.json[,A2.json..] B.json[,B2.json..] [--spec BENCHMARK.json]\n       sms-benchmark list";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: GOLDEN_SEED,
        seconds: None,
        traced: false,
        trace_file: None,
        smoke: false,
        bless: false,
        golden: Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/seed7.json"),
        bin_dir: None,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if catalog::workload(&name).is_none() {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs a whole number")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                args.seconds = Some(s);
            }
            "--trace" => match value()?.as_str() {
                "0" => args.traced = false,
                "1" => args.traced = true,
                file => {
                    args.traced = true;
                    args.trace_file = Some(PathBuf::from(file));
                }
            },
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            "--golden" => args.golden = PathBuf::from(value()?),
            "--bin-dir" => args.bin_dir = Some(PathBuf::from(value()?)),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.bless {
        if args.seed != GOLDEN_SEED {
            return Err(format!("--bless records the seed-{GOLDEN_SEED} goldens; drop --seed"));
        }
        args.traced = true; // the (T) counts are part of the goldens
    }
    Ok(args)
}

/// Where `sms-serve` and `sms-fleet` are: next to this executable when
/// both were built into one target directory (run.sh), in that target
/// directory's `release/` when this is a test build, else in the root's
/// `target/release`.
fn find_bin_dir(explicit: Option<&Path>) -> Result<PathBuf, String> {
    let candidates: Vec<PathBuf> = match explicit {
        Some(dir) => vec![dir.to_path_buf()],
        None => {
            let beside = std::env::current_exe().ok().and_then(|p| Some(p.parent()?.to_path_buf()));
            let sibling = host::target_dir().ok().map(|t| t.join("release"));
            let root = host::repo_root().join("target/release");
            beside.into_iter().chain(sibling).chain([root]).collect()
        }
    };
    candidates
        .iter()
        .find(|dir| dir.join("sms-serve").is_file() && dir.join("sms-fleet").is_file())
        .cloned()
        .ok_or_else(|| {
            format!(
                "sms-serve and sms-fleet not found in {candidates:?}: run `cargo build --release` at the \
                 repository root (benchmark/run.sh does) or pass --bin-dir"
            )
        })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => compare::main(&argv[1..]),
        Some("list") => {
            catalog::print();
            Ok(true)
        }
        _ => parse_args(&argv).and_then(run),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sms-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(true)`: everything ran and checked out. `Ok(false)`: it ran, and
/// operations failed. `Err`: it could not run.
fn run(args: Args) -> Result<bool, String> {
    let scrubbed = host::scrub_sms_env();
    if host::nproc() < 2 {
        return Err("needs at least 2 CPUs (two backends, two clients)".to_owned());
    }
    let bin_dir = find_bin_dir(args.bin_dir.as_deref())?;
    let seconds = args.seconds.unwrap_or(if args.smoke { 1.0 } else { default_seconds() });
    let header = host::header(args.seed, seconds, args.traced, args.smoke, &scrubbed);
    match args.workload.clone() {
        Some(name) => run_one(&args, &name, seconds, bin_dir, header),
        None => run_all(&args, seconds, &bin_dir, header),
    }
}

/// `run_seconds` of `BENCHMARK.json`, so a plain run measures what the
/// acceptance runs measure.
fn default_seconds() -> f64 {
    json::read_file(&host::repo_root().join("BENCHMARK.json"))
        .ok()
        .and_then(|spec| spec.get("run_seconds")?.as_f64())
        .unwrap_or(20.0)
}

fn run_one(
    args: &Args,
    name: &str,
    seconds: f64,
    bin_dir: PathBuf,
    header: Json,
) -> Result<bool, String> {
    let golden = if args.bless { None } else { Some(Golden::load(&args.golden)?) };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds,
        traced: args.traced,
        smoke: args.smoke,
        bless: args.bless,
        bin_dir,
        scratch: host::Scratch::create()?,
        tracer: span::Tracer::new(args.traced),
        pacer: pace::Pacer::default(),
        check: Checker::new(golden),
    };
    let ticks_before = host::vm_cpu_ticks();
    let mut report = match name {
        "sim_fast" => {
            workloads::sim::run(&mut ctx, &workloads::sim::sim_fast_matrix(args.seed, args.smoke))
        }
        "sim_wide" => {
            workloads::sim::run(&mut ctx, &workloads::sim::sim_wide_matrix(args.seed, args.smoke))
        }
        "build_trace" => workloads::build_trace::run(&mut ctx),
        "serve_warm" => workloads::serve::run_warm(&mut ctx),
        "serve_cold" => workloads::serve::run_cold(&mut ctx),
        other => return Err(format!("unknown workload `{other}`")),
    };

    let ticks_after = host::vm_cpu_ticks();
    let stolen = workloads::ratio(ticks_after.0 - ticks_before.0, ticks_after.1 - ticks_before.1);
    report.layer("bench.steal_pct", stolen * 100.0);

    // Exact counts of one pass: pinned by the goldens wherever they apply
    // (records served over the wire are always seed-7 renders).
    let served = name.starts_with("serve_");
    let count_key = if args.smoke { format!("smoke.{name}") } else { name.to_owned() };
    for (metric, value) in &report.per_layer {
        let spec = catalog::per_layer(metric)
            .ok_or_else(|| format!("`{metric}` is not in the catalog"))?;
        if spec.exact {
            ctx.check.count(&count_key, metric, *value, served || ctx.pinned());
        }
    }
    for spec in &catalog::END_TO_END {
        let value = report.e2e_value(spec.name);
        if !(value.is_finite() && value > 0.0) {
            ctx.check.fail(format!(
                "{}: end-to-end metric missing or not positive ({value})",
                spec.name
            ));
        }
    }
    if ctx.check.attempted == 0 {
        ctx.check.fail("no operation was attempted".to_owned());
    }
    // A layer the workload does not exercise did no work: it reads 0.
    let measured: Vec<&str> = report.per_layer.iter().map(|(n, _)| *n).collect();
    for spec in &catalog::PER_LAYER {
        if report.layer_value(spec.name).is_none() {
            report.per_layer.push((spec.name, 0.0));
        }
    }

    if let Some(file) = &args.trace_file {
        write_file(file, &ctx.tracer.chrome_json(name).render())?;
    }
    print_report(name, &report, &measured, &ctx.check, args.traced);
    let correct = ctx.check.failed == 0;
    let doc = result_json(&report, &ctx.check, args.bless);
    if let Some(out) = &args.out {
        let result =
            obj([("header", header), ("workloads", Json::Obj(vec![(name.to_owned(), doc)]))]);
        write_file(out, &result.pretty())?;
    }

    // The contract's last line: end-to-end metrics untraced, per-layer traced.
    let metrics: Vec<(String, Json)> = if args.traced {
        catalog::PER_LAYER
            .iter()
            .map(|m| {
                (m.name.to_owned(), metric_json(report.layer_value(m.name).unwrap_or(0.0), m.unit))
            })
            .collect()
    } else {
        catalog::END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), metric_json(report.e2e_value(m.name), m.unit)))
            .collect()
    };
    let line = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", num(ctx.check.attempted as f64)),
        ("failed", num(ctx.check.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    drop(ctx); // removes the scratch directory before the result is announced
    println!("{}", line.render());
    Ok(correct)
}

fn metric_json(value: f64, unit: &str) -> Json {
    obj([("value", num(value)), ("unit", text(unit))])
}

fn write_file(path: &Path, content: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn result_json(report: &Report, check: &Checker, bless: bool) -> Json {
    let pairs = |items: &[(&'static str, f64)]| {
        Json::Obj(items.iter().map(|(n, v)| ((*n).to_owned(), num(*v))).collect())
    };
    let mut doc = obj([
        ("correct", Json::Bool(check.failed == 0)),
        ("attempted", num(check.attempted as f64)),
        ("failed", num(check.failed as f64)),
        ("end_to_end", pairs(&report.end_to_end)),
        ("per_layer", pairs(&report.per_layer)),
        (
            "timings_s",
            Json::Obj(report.timings.iter().map(|(n, s)| (n.clone(), s.to_json())).collect()),
        ),
        ("notes", Json::Arr(report.notes.iter().map(|n| text(n.as_str())).collect())),
        ("failures", Json::Arr(check.failures.iter().map(|f| text(f.as_str())).collect())),
    ]);
    if bless {
        doc.set("observed", check.observed.to_json());
    }
    doc
}

/// `measured` names the per-layer metrics the workload produced itself.
fn print_report(name: &str, report: &Report, measured: &[&str], check: &Checker, traced: bool) {
    println!(
        "== {name} ({})",
        if traced { "traced run: per-layer metrics" } else { "untraced run: end-to-end metrics" }
    );
    for spec in &catalog::END_TO_END {
        println!(
            "  {:<34} {:>16.4} {:<6} ({} is better)",
            spec.name,
            report.e2e_value(spec.name),
            spec.unit,
            spec.better.as_str()
        );
    }
    println!(
        "  -- per layer: the layers this workload exercises (the others read 0); `=` repeats exactly{}",
        if traced { ", `T` only in the traced run" } else { "; the T rows need --trace 1" }
    );
    for spec in catalog::PER_LAYER.iter().filter(|m| measured.contains(&m.name)) {
        let value = report.layer_value(spec.name).unwrap_or(0.0);
        let flags = format!(
            "{}{}",
            if spec.exact { "=" } else { " " },
            if spec.traced { "T" } else { " " }
        );
        println!("  {:<34} {:>16.4} {:<6} {flags} {}", spec.name, value, spec.unit, spec.layer);
    }
    println!("  -- timings [s]: median (q1 .. q3) [min .. max] n, and the highest percentile with >= 10 samples beyond it");
    for (label, s) in &report.timings {
        let tail = s.tail.map_or(String::new(), |(p, v)| format!(" p{p} {v:.4}"));
        println!(
            "  {:<44} {:>9.4} ({:.4} .. {:.4}) [{:.4} .. {:.4}] n={}{tail}",
            label, s.median, s.q1, s.q3, s.min, s.max, s.n
        );
    }
    for note in &report.notes {
        println!("  note: {note}");
    }
    for failure in &check.failures {
        println!("  FAILED: {failure}");
    }
    println!("  ops_attempted {}  ops_failed {}", check.attempted, check.failed);
}

/// All five workloads, each in a child process of its own so that `VmHWM`
/// is per workload, merged into one result file.
fn run_all(args: &Args, seconds: f64, bin_dir: &Path, header: Json) -> Result<bool, String> {
    if args.bless {
        refuse_dirty_tree()?;
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let scratch = host::Scratch::create()?;
    let mut merged: Vec<(String, Json)> = Vec::new();
    let mut all_ok = true;
    for spec in &catalog::WORKLOADS {
        let part = scratch.path().join(format!("{}.json", spec.name));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", spec.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .arg("--bin-dir")
            .arg(bin_dir)
            .arg("--golden")
            .arg(&args.golden)
            .arg("--out")
            .arg(&part);
        match &args.trace_file {
            Some(file) => cmd.arg("--trace").arg(format!("{}.{}.json", file.display(), spec.name)),
            None => cmd.args(["--trace", if args.traced { "1" } else { "0" }]),
        };
        if args.smoke {
            cmd.arg("--smoke");
        }
        if args.bless {
            cmd.arg("--bless");
        }
        let status = cmd.status().map_err(|e| format!("cannot re-run {}: {e}", exe.display()))?;
        all_ok &= status.success();
        match json::read_file(&part) {
            Ok(doc) => merged
                .extend(doc.get("workloads").map(Json::as_obj).unwrap_or_default().iter().cloned()),
            Err(e) => {
                all_ok = false;
                eprintln!("sms-benchmark: {}: no result ({e})", spec.name);
            }
        }
    }
    let result = obj([("header", header), ("workloads", Json::Obj(merged))]);

    println!("== summary: end-to-end metrics (untraced run values are the ones to compare)");
    for (name, doc) in result.get("workloads").map(Json::as_obj).unwrap_or_default() {
        let line: Vec<String> = catalog::END_TO_END
            .iter()
            .map(|m| {
                let v = doc
                    .get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                format!("{} {:.4} {}", m.name, v, m.unit)
            })
            .collect();
        let failed = doc.get("failed").and_then(Json::as_f64).unwrap_or(-1.0);
        println!("  {name:<12} {}  ops_failed {failed}", line.join("  "));
    }
    if args.traced && !args.smoke {
        all_ok &= print_predictions(&result); // smoke sizes are too small for them to hold
    }
    if args.bless {
        if !all_ok {
            return Err("not blessing: a workload failed".to_owned());
        }
        let mut golden = Golden::load(&args.golden).unwrap_or_default();
        for (_, doc) in result.get("workloads").map(Json::as_obj).unwrap_or_default() {
            golden.merge(&Golden::from_json(doc.get("observed").unwrap_or(&Json::Null))?);
        }
        write_file(&args.golden, &golden.to_json().pretty())?;
        println!(
            "blessed {} digests and {} counts into {}",
            golden.digests.len(),
            golden.counts.len(),
            args.golden.display()
        );
    }
    if let Some(out) = &args.out {
        write_file(out, &result.pretty())?;
    }
    Ok(all_ok)
}

/// Goldens may only be recorded from a tree whose program is what git has:
/// any modified or untracked file outside `benchmark/` refuses, except the
/// root's own notes (`*.md`, `.gitignore`, `BENCHMARK.json`), which no
/// build reads.
fn refuse_dirty_tree() -> Result<(), String> {
    let modified = host::git_modified_paths(&host::repo_root())
        .ok_or("--bless needs a git checkout to prove that only benchmark/ is modified")?;
    let is_note = |p: &str| {
        !p.contains('/') && (p.ends_with(".md") || p == ".gitignore" || p == "BENCHMARK.json")
    };
    let outside: Vec<&String> =
        modified.iter().filter(|p| !p.starts_with("benchmark/") && !is_note(p)).collect();
    if outside.is_empty() {
        Ok(())
    } else {
        Err(format!("--bless refused: files outside benchmark/ are modified: {outside:?}"))
    }
}

/// The differential predictions of the design, checked on a traced run of
/// all workloads. They are properties of the program at the commit that
/// defined the benchmark; a later change that breaks one must say why.
fn print_predictions(result: &Json) -> bool {
    let value = |workload: &str, metric: &str| {
        result
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("per_layer"))
            .and_then(|p| p.get(metric))
            .and_then(Json::as_f64)
    };
    // One claim about one metric on two workloads; an absent value (a
    // workload that produced no result) breaks the claim.
    let mut all = true;
    let mut claim = |metric: &str, a: &str, b: &str, what: &str, holds: fn(f64, f64) -> bool| {
        let (va, vb) = (value(a, metric), value(b, metric));
        let ok = va.zip(vb).is_some_and(|(va, vb)| holds(va, vb));
        all &= ok;
        let show = |v: Option<f64>| v.map_or("absent".to_owned(), |v| format!("{v:.6}"));
        println!(
            "  {metric} {what}: {a} {}, {b} {}: {}",
            show(va),
            show(vb),
            if ok { "holds" } else { "BROKEN" }
        );
    };
    println!("== differential predictions");
    claim(
        "gpu.warp.rt_admit_frac",
        "sim_fast",
        "sim_wide",
        "< 0.001 with 32 warps, > 0.3 with 128",
        |fast, wide| fast < 0.001 && wide > 0.3,
    );
    claim("sim.ns_per_cycle", "sim_fast", "sim_wide", "is higher with 128 warps", |fast, wide| {
        wide > fast
    });
    claim(
        "serve.cache_hit_ratio",
        "serve_warm",
        "serve_cold",
        "is 1 after setup when warm, 0 when cold",
        |warm, cold| warm == 1.0 && cold == 0.0,
    );
    for metric in [
        "fleet.hedges",
        "fleet.retries",
        "fleet.steals",
        "fleet.breaker_opens",
        "fleet.cells_failed",
    ] {
        claim(metric, "serve_warm", "serve_cold", "is 0 without faults", |warm, cold| {
            warm == 0.0 && cold == 0.0
        });
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a =
            args(&["--workload", "sim_wide", "--seed", "11", "--seconds", "20", "--trace", "1"])
                .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sim_wide"));
        assert_eq!((a.seed, a.seconds, a.traced), (11, Some(20.0), true));
        assert!(a.trace_file.is_none());
        let a = args(&["--trace", "out/trace.json"]).unwrap();
        assert!(a.traced && a.trace_file.is_some() && a.workload.is_none());
        assert_eq!(a.seed, GOLDEN_SEED);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(args(&["--bless", "--seed", "11"]).is_err(), "goldens are seed 7 only");
        assert!(args(&["--bless"]).unwrap().traced, "blessing records the (T) counts too");
    }
}
