//! End-to-end `SMS_TRACE` smoke: arm tracing the way a process edge does
//! (a snapshot handed to `HarnessConfig`), run a sweep, and strictly parse
//! the emitted Chrome-trace JSON with our own parser. Substring checks
//! live in `sms-sim`'s tests; this one proves the whole file is
//! well-formed and that the embedded breakdown conserves (Σ buckets ==
//! cycles). No test here touches the process environment: exports reach
//! the simulator as configuration only.

use sms_harness::json::{parse, Json};
use sms_harness::{cache, exports_from_env, Harness, HarnessConfig, RunRequest};
use sms_sim::config::RenderConfig;
use sms_sim::gpu::StallBreakdown;
use sms_sim::rtunit::StackConfig;
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

/// `SMS_TRACE=<dir>/run.json` plus `extra`, as `HarnessConfig` exports.
fn traced(dir: &Path, extra: &[(&str, &str)]) -> HarnessConfig {
    let trace = dir.join("run.json");
    let mut pairs = vec![("SMS_TRACE", trace.to_str().unwrap())];
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

#[test]
fn sms_trace_emits_wellformed_conserving_json() {
    let dir = fresh_dir("smoke");
    let config = traced(&dir, &[("SMS_TRACE_PERIOD", "256")]);
    assert_eq!(config.exports.trace.as_ref().map(|t| t.period), Some(256));
    let harness = Harness::new(config);
    let reqs = [tiny(StackConfig::baseline8()), tiny(StackConfig::sms_default())];
    let (results, summary) = harness.try_run_batch(&reqs);
    assert_eq!(summary.failed, 0);
    assert!(summary.breakdown.is_some(), "tracing arms attribution batch-wide");

    for (req, result) in reqs.iter().zip(&results) {
        let run = result.as_ref().unwrap();
        let path =
            dir.join(format!("run.{}.{}.json", req.scene, req.stack.label().replace('+', "_")));
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
        let (_, summary) = harness.try_run_batch(&[tiny(StackConfig::baseline8())]);
        assert_eq!(summary.failed, 0);
        let doc = parse(&std::fs::read_to_string(dir.join("run.WKND.RB_8.json")).unwrap()).unwrap();
        let id = doc.get("traceId").and_then(Json::as_str);
        assert_eq!(id, stamped.then_some("00000000c0ffee42"), "SMS_TRACE_CTX={ctx}");
        let _ = std::fs::remove_dir_all(&dir);
    }
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
        .env("SMS_TRACE", dir.join("run.json"))
        .env("SMS_TRACE_CTX", "00000000c0ffee42-0000000000000001")
        .env("SMS_BREAKDOWN", "1")
        .env("SMS_METRICS", "1")
        .env("SMS_METRICS_OUT", dir.join("m.prom"))
        .env("SMS_METRICS_CSV", dir.join("m.csv"))
        .env("SMS_JOURNAL", dir.join("journal.jsonl"))
        .output()
        .unwrap();
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success() && stdout.contains("1 passed"), "{stdout}\n{stderr}");
    let written: Vec<_> =
        std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert!(written.is_empty(), "an unarmed batch wrote {written:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
