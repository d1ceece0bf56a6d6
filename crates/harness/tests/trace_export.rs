//! End-to-end `SMS_TRACE` smoke: arm tracing the way a process edge does
//! (a snapshot handed to `HarnessConfig`), run a sweep, and strictly parse
//! the emitted Chrome-trace JSON with our own parser. Substring checks
//! live in `sms-sim`'s tests; this one proves the whole file is
//! well-formed and that the embedded breakdown conserves (Σ buckets ==
//! cycles). No test here touches the process environment: exports reach
//! the simulator as configuration only.

use sms_harness::json::{parse, Json};
use sms_harness::{
    cache, exports_from_env, CacheKey, Harness, HarnessConfig, RunRequest, SIM_VERSION_SALT,
};
use sms_sim::config::RenderConfig;
use sms_sim::gpu::{GpuConfig, StallBreakdown};
use sms_sim::rtunit::{SmsParams, StackConfig};
use sms_sim::scene::SceneId;
use sms_sim::Env;
use std::path::{Path, PathBuf};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sms-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny(stack: StackConfig) -> RunRequest {
    RunRequest::new(SceneId::Wknd, stack, RenderConfig::tiny())
}

/// `SMS_OUT=<dir> SMS_TRACE=1` plus `extra`, as `HarnessConfig` exports.
fn traced(dir: &Path, extra: &[(&str, &str)]) -> HarnessConfig {
    let mut pairs = vec![("SMS_OUT", dir.to_str().unwrap()), ("SMS_TRACE", "1")];
    pairs.extend_from_slice(extra);
    let env = Env::from_pairs(&pairs);
    assert!(env.warnings.is_empty(), "{:?}", env.warnings);
    HarnessConfig {
        workers: 2,
        cache_dir: None,
        exports: exports_from_env(&env),
        ..HarnessConfig::default()
    }
}

/// The stem of a cell's files: `<scene>.<config>.<id>`, `<id>` the first
/// 8 hex digits of the cell's cache key hash (no cache: the default salt).
fn stem(req: &RunRequest) -> String {
    let hash = format!("{:016x}", CacheKey::new(req, SIM_VERSION_SALT).hash);
    format!("{}.{}.{}", req.scene, req.stack.label().replace('+', "_"), &hash[..8])
}

/// The names in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn sms_trace_emits_wellformed_conserving_json() {
    let dir = fresh_dir("smoke");
    let config = traced(&dir, &[]);
    assert!(config.exports.traced());
    let harness = Harness::new(config);
    let reqs = [tiny(StackConfig::baseline8()), tiny(StackConfig::sms_default())];
    let (results, summary) = harness.try_run_batch(&reqs);
    assert_eq!(summary.failed, 0);
    assert!(summary.breakdown.is_some(), "tracing arms attribution batch-wide");

    for (req, result) in reqs.iter().zip(&results) {
        let run = result.as_ref().unwrap();
        let path = dir.join(format!("{}.trace.json", stem(req)));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("trace file {} must exist: {e}", path.display()));
        let doc = parse(&text).expect("trace must be valid JSON end to end");

        // Chrome trace-event envelope.
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(evs)) => evs,
            other => panic!("traceEvents must be an array, got {other:?}"),
        };
        assert!(!events.is_empty());
        let mut phases = [0usize; 3]; // M, X, C
        for ev in events {
            let ph = match ev.get("ph") {
                Some(Json::Str(s)) => s.as_str(),
                other => panic!("every event needs a ph string, got {other:?}"),
            };
            assert!(ev.get("pid").is_some() && ev.get("name").is_some(), "pid/name required");
            match ph {
                "M" => phases[0] += 1,
                "X" => {
                    phases[1] += 1;
                    assert!(ev.get("ts").is_some() && ev.get("dur").is_some());
                }
                "C" => {
                    phases[2] += 1;
                    assert!(matches!(ev.get("args"), Some(Json::Obj(_))));
                }
                other => panic!("unexpected event phase {other:?}"),
            }
        }
        assert!(phases.iter().all(|&n| n > 0), "need M, X and C events, got {phases:?}");

        // Σ buckets == cycles, re-checked from the serialized form.
        assert_eq!(doc.u64_field("cycles"), Some(run.stats.cycles));
        let b =
            cache::record_from_json(doc.get("stallBreakdown").unwrap(), &StallBreakdown::FIELDS)
                .map(StallBreakdown::from_values)
                .expect("stallBreakdown must round-trip through the journal codec");
        assert!(b.is_conserved(), "serialized breakdown must conserve: {b:?}");
        assert_eq!(Some(&b), run.breakdown.as_ref(), "trace and RunResult must agree");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `SMS_TRACE_CTX` parser: the trace id reaches the file only through
/// `TraceContext::parse`, so the reserved span id 0 — which the client
/// refuses to propagate — stamps nothing, and a well-formed context does.
#[test]
fn trace_id_is_stamped_only_by_a_context_the_one_parser_accepts() {
    for (ctx, stamped) in [
        ("00000000c0ffee42-0000000000000001", true),
        ("00000000c0ffee42-0000000000000000", false),
        ("auto", false),
    ] {
        let dir = fresh_dir("ctx");
        let harness = Harness::new(traced(&dir, &[("SMS_TRACE_CTX", ctx)]));
        let req = tiny(StackConfig::baseline8());
        let (_, summary) = harness.try_run_batch(std::slice::from_ref(&req));
        assert_eq!(summary.failed, 0);
        let text = std::fs::read_to_string(dir.join(format!("{}.trace.json", stem(&req)))).unwrap();
        let id = parse(&text).unwrap().get("traceId").and_then(Json::as_str).map(str::to_owned);
        assert_eq!(id.as_deref(), stamped.then_some("00000000c0ffee42"), "SMS_TRACE_CTX={ctx}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Runs `reqs` as one traced, metrics-armed, uncached batch writing into
/// `dir`, and checks the directory holds exactly the journal and each
/// cell's timeline and both metrics dumps, all parsing strictly.
fn assert_every_artefact(dir: &Path, reqs: &[RunRequest]) {
    let env = Env::from_pairs(&[
        ("SMS_OUT", dir.to_str().unwrap()),
        ("SMS_TRACE", "1"),
        ("SMS_METRICS", "1"),
        ("SMS_NO_CACHE", "1"),
        ("SMS_JOBS", "2"),
    ]);
    assert!(env.warnings.is_empty(), "{:?}", env.warnings);
    let harness = Harness::from_env(&env);
    let (_, summary) = harness.try_run_batch(reqs);
    assert_eq!((summary.cache_misses, summary.failed), (reqs.len(), 0));
    assert!(summary.breakdown.is_some() && summary.metrics.is_some(), "{summary:?}");

    let mut want = vec!["journal.jsonl".to_owned()];
    for cell in reqs.iter().map(stem) {
        want.extend(["csv", "prom", "trace.json"].map(|ext| format!("{cell}.{ext}")));
    }
    want.sort();
    assert_eq!(listing(dir), want);
    let journal = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
    let finished = journal.matches("\"event\":\"job_finished\"").count();
    assert_eq!(finished, reqs.len(), "{journal}");
    for cell in reqs.iter().map(stem) {
        let prom = std::fs::read_to_string(dir.join(format!("{cell}.prom"))).unwrap();
        sms_metrics::prom::validate(&prom).expect("the dump parses strictly");
        let csv = std::fs::read_to_string(dir.join(format!("{cell}.csv"))).unwrap();
        sms_metrics::series::validate_csv(&csv).expect("the series parses strictly");
    }
}

/// One run directory holds every artefact of a run, under its fixed name:
/// the journal, and per simulated cell its timeline and both metrics dumps.
#[test]
fn one_run_directory_holds_every_artefact_of_a_sweep() {
    let dir = fresh_dir("out");
    assert_every_artefact(
        &dir,
        &[tiny(StackConfig::baseline8()), tiny(StackConfig::sms_default())],
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cells that share a label — Fig. 6b's L1 sizes under one `RB_8`, the RA
/// limit variants under one `RB_8+SH_8+SK+RA` — each keep their own files:
/// the stem carries the run's cache key, not only its label.
#[test]
fn cells_whose_labels_collide_keep_their_own_files() {
    let dir = fresh_dir("collide");
    let small_l1 = GpuConfig::default().with_l1_size(32 * 1024);
    let limited = SmsParams { borrow_limit: 1, ..SmsParams::default() };
    let reqs = [
        tiny(StackConfig::baseline8()),
        tiny(StackConfig::baseline8()).with_gpu(small_l1),
        tiny(StackConfig::sms_default()),
        tiny(StackConfig::Sms(limited.with_skewed(true).with_realloc(true))),
    ];
    assert_eq!(reqs[0].stack.label(), reqs[1].stack.label());
    assert_eq!(reqs[2].stack.label(), reqs[3].stack.label());
    assert_every_artefact(&dir, &reqs);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The property the old lazy reads could not offer: an unarmed
/// `HarnessConfig::default()` batch reports no breakdown and no metrics.
/// Run directly it sees the suite's own environment; the test below
/// re-runs it under a hostile one.
#[test]
fn unarmed_default_batch_reports_no_observation() {
    let harness =
        Harness::new(HarnessConfig { workers: 1, cache_dir: None, ..HarnessConfig::default() });
    let (results, summary) = harness.try_run_batch(&[tiny(StackConfig::baseline8())]);
    assert_eq!((summary.cache_misses, summary.failed), (1, 0));
    assert!(summary.breakdown.is_none() && summary.metrics.is_none(), "{summary:?}");
    let run = results[0].as_ref().unwrap();
    assert!(run.breakdown.is_none() && run.metrics.is_none());
}

/// ... whatever the ambient environment holds: the same test in a child
/// process with every export and observation arm set writes no file.
#[test]
fn unarmed_default_batch_ignores_the_ambient_environment() {
    let dir = fresh_dir("ambient");
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "unarmed_default_batch_reports_no_observation"])
        .env("SMS_OUT", &dir)
        .env("SMS_TRACE", "1")
        .env("SMS_TRACE_CTX", "00000000c0ffee42-0000000000000001")
        .env("SMS_BREAKDOWN", "1")
        .env("SMS_METRICS", "1")
        .output()
        .unwrap();
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success() && stdout.contains("1 passed"), "{stdout}\n{stderr}");
    let written = listing(&dir);
    assert!(written.is_empty(), "an unarmed batch wrote {written:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
