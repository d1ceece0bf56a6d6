//! End-to-end `SMS_TRACE` smoke: arm tracing through the environment (the
//! same path a user takes), run a sweep, and strictly parse the emitted
//! Chrome-trace JSON with our own parser. Substring checks live in
//! `sms-sim`'s tests; this one proves the whole file is well-formed and
//! that the embedded breakdown conserves (Σ buckets == cycles).
//!
//! Kept to a single `#[test]` on purpose: it mutates process-wide
//! environment variables, which would race against sibling tests in the
//! same binary.

use sms_harness::json::{parse, Json};
use sms_harness::{cache, Harness, HarnessConfig, RunRequest};
use sms_sim::config::RenderConfig;
use sms_sim::gpu::StallBreakdown;
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;

#[test]
fn sms_trace_emits_wellformed_conserving_json() {
    let dir = std::env::temp_dir().join(format!("sms-trace-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("SMS_TRACE", dir.join("run.json"));
    std::env::set_var("SMS_TRACE_PERIOD", "256");

    let harness = Harness::new(HarnessConfig {
        workers: 2,
        cache_dir: None,
        journal_path: None,
        ..HarnessConfig::default()
    });
    let reqs = [
        RunRequest::new(SceneId::Wknd, StackConfig::baseline8(), RenderConfig::tiny()),
        RunRequest::new(SceneId::Wknd, StackConfig::sms_default(), RenderConfig::tiny()),
    ];
    let (results, summary) = harness.try_run_batch(&reqs);
    std::env::remove_var("SMS_TRACE");
    std::env::remove_var("SMS_TRACE_PERIOD");
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
