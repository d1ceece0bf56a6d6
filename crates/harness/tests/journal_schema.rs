//! Journal schema stability: every event kind serializes to the exact
//! JSONL line downstream tooling (the served stream's client, `sms-trace`,
//! `breakdown_stalls`, external dashboards) parses.
//!
//! Each test's line is the `journal_schema.<test>` row of the golden table
//! (`goldens.txt`, `sms_geom::golden`), and that row is the schema. A row
//! that moves on purpose is a schema migration: confirm
//! `sms_serve::protocol::SweepOutcome::parse` still reads old streams (new
//! fields must be additive/optional) and update the examples in
//! `journal.rs`'s module docs.

use sms_harness::json::{parse, Json};
use sms_harness::{cache, BatchMetrics, Event, SceneBuild};
use sms_metrics::HistSummary;
use sms_sim::geom::golden;
use sms_sim::gpu::{SimStats, StallBreakdown};

/// Serializes, checks the line against row `case` of the golden table,
/// parses the line back, and returns the parsed document for field-level
/// spot checks.
fn golden(case: &str, event: &Event) -> Json {
    let line = event.to_string();
    golden::check("journal_schema", &[(case, &line)]);
    parse(&line).unwrap_or_else(|e| panic!("journal line must reparse: {e}\n{line}"))
}

fn breakdown_from_json(doc: &Json) -> Option<StallBreakdown> {
    cache::record_from_json(doc, &StallBreakdown::FIELDS).map(StallBreakdown::from_values)
}

#[test]
fn batch_start_line() {
    let doc = golden("batch_start_line", &Event::BatchStart { jobs: 80, unique: 64, workers: 8 });
    assert_eq!(doc.u64_field("unique"), Some(64));
}

#[test]
fn job_queued_line() {
    golden(
        "job_queued_line",
        &Event::JobQueued {
            job: 0,
            scene: "WKND".to_owned(),
            config: "RB_8+SH_8+SK+RA".to_owned(),
            workload: "32x32x1".to_owned(),
            key: "sms-sim salt=1|scene=WKND".to_owned(),
        },
    );
}

#[test]
fn job_started_line() {
    golden("job_started_line", &Event::JobStarted { job: 1, worker: 3 });
}

#[test]
fn job_finished_line_roundtrips_stats_and_breakdown() {
    let stats =
        SimStats { cycles: 42, thread_instructions: 9_007_199_254_740_993, ..Default::default() };
    let breakdown = StallBreakdown {
        compute: 30,
        in_rt: 12,
        warp_cycles: 42,
        rt_idle: 384,
        rt_lane_cycles: 384,
        ..Default::default()
    };
    let e = Event::JobFinished {
        job: 4,
        worker: Some(1),
        cache_hit: false,
        cycles: 42,
        duration_us: 1_234,
        stats: Some(stats),
        breakdown: Some(breakdown),
    };
    let doc = golden("job_finished_line_roundtrips_stats_and_breakdown", &e);
    // The payloads round-trip through the same codecs clients/tools use —
    // u64 fidelity beyond 2^53 included.
    assert_eq!(cache::stats_from_json(doc.get("stats").unwrap()), Some(stats));
    let b = breakdown_from_json(doc.get("breakdown").unwrap()).unwrap();
    assert_eq!(b, breakdown);
    assert!(b.is_conserved());
}

#[test]
fn job_finished_cache_hit_has_null_worker_and_breakdown() {
    let e = Event::JobFinished {
        job: 0,
        worker: None,
        cache_hit: true,
        cycles: 7,
        duration_us: 0,
        stats: None,
        breakdown: None,
    };
    let doc = golden("job_finished_cache_hit_has_null_worker_and_breakdown", &e);
    assert_eq!(doc.get("worker"), Some(&Json::Null));
}

#[test]
fn run_timeout_line() {
    golden(
        "run_timeout_line",
        &Event::RunTimeout {
            job: 3,
            worker: 0,
            kind: "stalled".to_owned(),
            error: "no progress\nSM0: ...".to_owned(),
            duration_us: 99,
        },
    );
}

#[test]
fn run_failed_line() {
    golden(
        "run_failed_line",
        &Event::RunFailed {
            job: 5,
            worker: 2,
            kind: "panic".to_owned(),
            error: "boom \"quoted\"".to_owned(),
            duration_us: 7,
        },
    );
}

#[test]
fn span_line() {
    golden(
        "span_line",
        &Event::Span {
            trace: "00000000deadbeef".to_owned(),
            span: "0000000000000002".to_owned(),
            parent: Some("0000000000000001".to_owned()),
            name: "dispatch".to_owned(),
            kind: "client".to_owned(),
            start_us: 1_700_000_000_000_000,
            dur_us: 4_200,
            attrs: vec![
                ("backend".to_owned(), "127.0.0.1:7745".to_owned()),
                ("attempt".to_owned(), "1".to_owned()),
                ("hedge".to_owned(), "1".to_owned()),
                ("breaker_state".to_owned(), "closed".to_owned()),
                ("outcome".to_owned(), "cancelled".to_owned()),
            ],
        },
    );
}

#[test]
fn span_line_root_has_null_parent_and_ctx_constructor_matches() {
    let ctx = sms_harness::TraceContext { trace_id: 0xdead_beef, span_id: 0x1, parent: None };
    let e = Event::span(&ctx, "sweep", "server", 10, 20, vec![("jobs".to_owned(), "2".to_owned())]);
    let doc = golden("span_line_root_has_null_parent_and_ctx_constructor_matches", &e);
    assert_eq!(doc.get("parent"), Some(&Json::Null));
}

#[test]
fn batch_end_line_with_breakdown() {
    let breakdown = StallBreakdown { compute: 1, warp_cycles: 1, ..Default::default() };
    let e = Event::BatchEnd {
        jobs: 2,
        cache_hits: 1,
        cache_misses: 1,
        failed: 0,
        duration_us: 2_000_000,
        sim_cycles: 100,
        breakdown: Some(breakdown),
        metrics: None,
        builds: vec![SceneBuild { scene: "SHIP".to_owned(), prims: 6321, build_us: 480 }],
    };
    let doc = golden("batch_end_line_with_breakdown", &e);
    assert_eq!(breakdown_from_json(doc.get("breakdown").unwrap()), Some(breakdown));
    assert_eq!(
        cache::builds_from_json(doc.get("builds").unwrap()),
        Some(vec![SceneBuild { scene: "SHIP".to_owned(), prims: 6321, build_us: 480 }])
    );
}

#[test]
fn batch_end_line_with_metrics() {
    let metrics = BatchMetrics {
        stack_depth: HistSummary { count: 640, sum: 3200, p50: 5, p95: 11, p99: 14, max: 19 },
        ray_latency: HistSummary { count: 256, sum: 51200, p50: 180, p95: 420, p99: 504, max: 611 },
        spills: 12,
        reloads: 12,
    };
    let e = Event::BatchEnd {
        jobs: 1,
        cache_hits: 0,
        cache_misses: 1,
        failed: 0,
        duration_us: 1_000_000,
        sim_cycles: 50,
        breakdown: None,
        metrics: Some(metrics),
        builds: Vec::new(),
    };
    let doc = golden("batch_end_line_with_metrics", &e);
    assert_eq!(cache::metrics_from_json(doc.get("metrics").unwrap()), Some(metrics));
}
