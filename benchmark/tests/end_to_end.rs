//! Runs the benchmark binary end to end at `--smoke` sizes.
//!
//! Needs `sms-serve` and `sms-fleet` from a release build of the root
//! workspace (`cargo build --release` at the repository root, which tier-1
//! does anyway): the serve workloads drive real processes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_sms-benchmark");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().to_path_buf()
}

fn tmp(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn sms-benchmark")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Every name between `"` and `":{"value"` of a result line.
fn metric_names(line: &str) -> Vec<String> {
    line.split("\":{\"value\"")
        .filter_map(|chunk| chunk.rsplit('"').next())
        .filter(|name| !name.is_empty() && !name.contains('}'))
        .map(str::to_owned)
        .collect()
}

/// The `name`s of one array of `BENCHMARK.json`, by plain text search (the
/// file is checked structurally by the unit tests of `catalog`).
fn spec_names(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let start = spec.find(&format!("\"{section}\"")).unwrap();
    let body = &spec[start..start + spec[start..].find(']').unwrap()];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_owned()).collect()
}

#[test]
fn smoke_runs_every_workload_and_prints_the_contracted_names() {
    let dir = tmp("smoke");
    let result = dir.join("result.json");
    let out = run(
        &["--smoke", "--out", result.to_str().unwrap()],
        &[("SMS_TRACE", "stray"), ("SMS_FAULT", "seed=1")],
    );
    let text = stdout(&out);
    assert!(
        out.status.success(),
        "smoke run failed:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // One contract line per workload, each with exactly the end-to-end names.
    let lines: Vec<&str> = text.lines().filter(|l| l.starts_with("{\"correct\":")).collect();
    assert_eq!(lines.len(), 5, "one result line per workload:\n{text}");
    let want = spec_names("end_to_end");
    for line in &lines {
        assert!(line.starts_with("{\"correct\":true,\"attempted\":"), "{line}");
        assert!(line.contains("\"failed\":0,"), "{line}");
        assert_eq!(metric_names(line), want, "{line}");
    }

    // The merged result file: header, five workloads, scrubbed variables named.
    let doc = std::fs::read_to_string(&result).unwrap();
    for workload in spec_names("workloads") {
        assert!(
            doc.contains(&format!("\"{workload}\": {{")),
            "{workload} missing from the result file"
        );
    }
    for key in [
        "git_hash",
        "git_dirty",
        "rustc",
        "cpu",
        "nproc",
        "kernel",
        "seed",
        "seconds",
        "scrubbed_env",
    ] {
        assert!(doc.contains(&format!("\"{key}\"")), "{key} missing from the header");
    }
    assert!(
        doc.contains("\"SMS_TRACE\"") && doc.contains("\"SMS_FAULT\""),
        "scrubbed names are recorded"
    );

    // Nothing is left behind: no scratch directory, no server process.
    let target = Path::new(BIN).parent().unwrap().parent().unwrap();
    let leftovers: Vec<_> = std::fs::read_dir(target)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("benchmark-"))
        .collect();
    assert!(leftovers.is_empty(), "scratch directories left behind: {leftovers:?}");
}

#[test]
fn traced_smoke_prints_every_per_layer_name_and_writes_a_trace() {
    let dir = tmp("traced");
    let trace = dir.join("trace.json");
    let out = run(&["--workload", "sim_fast", "--smoke", "--trace", trace.to_str().unwrap()], &[]);
    let text = stdout(&out);
    assert!(
        out.status.success(),
        "traced smoke run failed:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = text.lines().last().unwrap();
    let names = metric_names(line);
    assert_eq!(names, spec_names("per_layer"));
    for name in &names {
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name `{name}`"
        );
    }
    let events = std::fs::read_to_string(&trace).unwrap();
    for span in [
        "\"setup\"",
        "\"scene.gen\"",
        "\"bvh.prepare\"",
        "\"rep\"",
        "\"sim.cell\"",
        "\"harness.batch\"",
    ] {
        assert!(events.contains(span), "span {span} missing from the trace");
    }
    assert!(
        text.contains("child spans cover >= 9"),
        "coverage of the kept passes is printed:\n{text}"
    );
}

#[test]
fn a_flipped_golden_digest_counts_as_failed_and_exits_non_zero() {
    let dir = tmp("flipped");
    let golden = std::fs::read_to_string(repo_root().join("benchmark/golden/seed7.json")).unwrap();
    let key = "\"tiny/SHIP/RB_8\": \"";
    let at = golden.find(key).expect("the smoke goldens hold tiny/SHIP/RB_8") + key.len();
    let flipped_digit = if &golden[at..at + 1] == "0" { "1" } else { "0" };
    let flipped = format!("{}{}{}", &golden[..at], flipped_digit, &golden[at + 1..]);
    let path = dir.join("golden.json");
    std::fs::write(&path, flipped).unwrap();

    let out = run(&["--workload", "sim_fast", "--smoke", "--golden", path.to_str().unwrap()], &[]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "a failed check is exit code 1:\n{text}");
    let line = text.lines().last().unwrap();
    assert!(line.starts_with("{\"correct\":false,"), "{line}");
    assert!(!line.contains("\"failed\":0,"), "{line}");
    assert!(text.contains("FAILED: tiny/SHIP/RB_8: SimStats digest mismatch"), "{text}");

    // The untouched goldens pass on the same command line.
    let out = run(&["--workload", "sim_fast", "--smoke"], &[]);
    assert!(out.status.success(), "{}", stdout(&out));
}

#[test]
fn another_seed_runs_under_the_invariant_checks() {
    let out = run(&["--workload", "sim_wide", "--smoke", "--seed", "11"], &[]);
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    assert!(text.lines().last().unwrap().contains("\"failed\":0,"));
}

#[test]
fn refuses_to_start_without_the_server_binaries() {
    let out = run(&["--workload", "sim_fast", "--smoke", "--bin-dir", "/nonexistent"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("sms-serve and sms-fleet not found"));
}

#[test]
fn compare_applies_the_bounds_and_demands_equal_exact_values() {
    let dir = tmp("compare");
    let file = |name: &str, cells_per_s: f64, cycles: u64| {
        let path = dir.join(name);
        let doc = format!(
            "{{\"header\":{{\"seed\":7}},\"workloads\":{{\"sim_fast\":{{\"end_to_end\":{{\"setup_s\":1.5,\
             \"cells_per_s\":{cells_per_s},\"sweep_p50_ms\":3700,\"peak_rss_mb\":277}},\
             \"per_layer\":{{\"sim.cycles\":{cycles}}}}}}}}}"
        );
        std::fs::write(&path, doc).unwrap();
        path.to_str().unwrap().to_owned()
    };
    let base =
        [file("a1.json", 8.6, 100), file("a2.json", 8.7, 100), file("a3.json", 8.5, 100)].join(",");
    let same =
        [file("b1.json", 8.4, 100), file("b2.json", 8.8, 100), file("b3.json", 8.6, 100)].join(",");
    let slow =
        [file("c1.json", 4.1, 100), file("c2.json", 4.0, 100), file("c3.json", 4.2, 100)].join(",");
    let other = [file("d1.json", 8.6, 101)].join(",");

    let ok = run(&["compare", &base, &same], &[]);
    assert!(ok.status.success(), "{}", stdout(&ok));
    assert!(stdout(&ok).contains("ok"));
    for (new, needle) in [(&slow, "worse"), (&other, "differs")] {
        let out = run(&["compare", &base, new], &[]);
        assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
        assert!(stdout(&out).contains(needle), "{}", stdout(&out));
    }
    assert_eq!(run(&["compare", &base], &[]).status.code(), Some(2), "two sets are required");
}
