//! Journal schema stability: every event kind serializes to the exact
//! JSONL line downstream tooling (resume, `breakdown_stalls`, external
//! dashboards) parses.
//!
//! The golden strings below ARE the schema. If a change here is
//! intentional, it is a schema migration: confirm `resume.rs` still parses
//! old journals (new fields must be additive/optional) and update the
//! examples in `journal.rs`'s module docs.

use sms_harness::json::{parse, Json};
use sms_harness::{cache, BatchMetrics, Event, SceneBuild};
use sms_metrics::HistSummary;
use sms_sim::gpu::{SimStats, StallBreakdown};

/// Serializes, checks against the golden line, parses the line back, and
/// returns the parsed document for field-level spot checks.
fn golden(event: &Event, want: &str) -> Json {
    let line = event.to_json().to_string();
    assert_eq!(line, want, "schema drift for {event:?}");
    parse(&line).unwrap_or_else(|e| panic!("journal line must reparse: {e}\n{line}"))
}

fn breakdown_from_json(doc: &Json) -> Option<StallBreakdown> {
    cache::record_from_json(doc, &StallBreakdown::FIELDS).map(StallBreakdown::from_values)
}

#[test]
fn batch_start_line() {
    let doc = golden(
        &Event::BatchStart { jobs: 80, unique: 64, workers: 8 },
        r#"{"event":"batch_start","jobs":80,"unique":64,"workers":8}"#,
    );
    assert_eq!(doc.u64_field("unique"), Some(64));
}

#[test]
fn job_queued_line() {
    golden(
        &Event::JobQueued {
            job: 0,
            scene: "WKND".to_owned(),
            config: "RB_8+SH_8+SK+RA".to_owned(),
            workload: "32x32x1".to_owned(),
            key: "sms-sim salt=1|scene=WKND".to_owned(),
        },
        r#"{"event":"job_queued","job":0,"scene":"WKND","config":"RB_8+SH_8+SK+RA","workload":"32x32x1","key":"sms-sim salt=1|scene=WKND"}"#,
    );
}

#[test]
fn job_resumed_line() {
    golden(
        &Event::JobResumed { job: 2, cycles: 184_223 },
        r#"{"event":"job_resumed","job":2,"cycles":184223}"#,
    );
}

#[test]
fn job_started_line() {
    golden(
        &Event::JobStarted { job: 1, worker: 3 },
        r#"{"event":"job_started","job":1,"worker":3}"#,
    );
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
    let doc = golden(
        &e,
        concat!(
            r#"{"event":"job_finished","job":4,"worker":1,"cache":"miss","cycles":42,"duration_us":1234,"#,
            r#""stats":{"cycles":42,"thread_instructions":9007199254740993,"node_visits":0,"rays_traced":0,"shadow_rays":0,"rb_spills":0,"rb_reloads":0,"sh_spills":0,"sh_reloads":0,"ra_flushes":0,"ra_borrows":0,"mem":{"l1_hits":0,"l1_misses":0,"l2_hits":0,"l2_misses":0,"stores":0,"stack_transactions":0,"stack_l1_hits":0,"stack_l1_misses":0,"data_transactions":0,"shared_accesses":0,"bank_conflict_cycles":0}},"#,
            r#""breakdown":{"compute":30,"mem_wait":0,"rt_admit":0,"in_rt":12,"warp_cycles":42,"rt_sched_wait":0,"fetch_wait_l1":0,"fetch_wait_l2":0,"fetch_wait_dram":0,"op_wait":0,"stack_wait_rb_sh":0,"stack_wait_sh_global":0,"stack_wait_flush":0,"bank_conflict_replay":0,"predictor_wait":0,"rt_idle":384,"rt_lane_cycles":384}}"#,
        ),
    );
    // The payloads round-trip through the same codecs resume/tools use —
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
    let doc = golden(
        &e,
        r#"{"event":"job_finished","job":0,"worker":null,"cache":"hit","cycles":7,"duration_us":0,"stats":null,"breakdown":null}"#,
    );
    assert_eq!(doc.get("worker"), Some(&Json::Null));
}

#[test]
fn run_timeout_line() {
    golden(
        &Event::RunTimeout {
            job: 3,
            worker: 0,
            kind: "stalled".to_owned(),
            error: "no progress\nSM0: ...".to_owned(),
            duration_us: 99,
        },
        r#"{"event":"run_timeout","job":3,"worker":0,"kind":"stalled","error":"no progress\nSM0: ...","duration_us":99}"#,
    );
}

#[test]
fn run_failed_line() {
    golden(
        &Event::RunFailed {
            job: 5,
            worker: 2,
            kind: "panic".to_owned(),
            error: "boom \"quoted\"".to_owned(),
            duration_us: 7,
        },
        r#"{"event":"run_failed","job":5,"worker":2,"kind":"panic","error":"boom \"quoted\"","duration_us":7}"#,
    );
}

#[test]
fn span_line() {
    golden(
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
        concat!(
            r#"{"event":"span","trace":"00000000deadbeef","span":"0000000000000002","parent":"0000000000000001","#,
            r#""name":"dispatch","kind":"client","start_us":1700000000000000,"dur_us":4200,"#,
            r#""attrs":{"backend":"127.0.0.1:7745","attempt":"1","hedge":"1","breaker_state":"closed","outcome":"cancelled"}}"#,
        ),
    );
}

#[test]
fn span_line_root_has_null_parent_and_ctx_constructor_matches() {
    let ctx = sms_harness::TraceContext { trace_id: 0xdead_beef, span_id: 0x1, parent: None };
    let e = Event::span(&ctx, "sweep", "server", 10, 20, vec![("jobs".to_owned(), "2".to_owned())]);
    let doc = golden(
        &e,
        concat!(
            r#"{"event":"span","trace":"00000000deadbeef","span":"0000000000000001","parent":null,"#,
            r#""name":"sweep","kind":"server","start_us":10,"dur_us":20,"attrs":{"jobs":"2"}}"#,
        ),
    );
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
    let doc = golden(
        &e,
        concat!(
            r#"{"event":"batch_end","jobs":2,"cache_hits":1,"cache_misses":1,"failed":0,"duration_us":2000000,"sim_cycles":100,"runs_per_sec":1,"sim_cycles_per_sec":50,"#,
            r#""breakdown":{"compute":1,"mem_wait":0,"rt_admit":0,"in_rt":0,"warp_cycles":1,"rt_sched_wait":0,"fetch_wait_l1":0,"fetch_wait_l2":0,"fetch_wait_dram":0,"op_wait":0,"stack_wait_rb_sh":0,"stack_wait_sh_global":0,"stack_wait_flush":0,"bank_conflict_replay":0,"predictor_wait":0,"rt_idle":0,"rt_lane_cycles":0},"#,
            r#""metrics":null,"builds":[{"scene":"SHIP","prims":6321,"build_us":480}]}"#,
        ),
    );
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
    let doc = golden(
        &e,
        concat!(
            r#"{"event":"batch_end","jobs":1,"cache_hits":0,"cache_misses":1,"failed":0,"duration_us":1000000,"sim_cycles":50,"runs_per_sec":1,"sim_cycles_per_sec":50,"breakdown":null,"#,
            r#""metrics":{"stack_depth":{"count":640,"sum":3200,"p50":5,"p95":11,"p99":14,"max":19},"ray_latency":{"count":256,"sum":51200,"p50":180,"p95":420,"p99":504,"max":611},"spills":12,"reloads":12},"builds":[]}"#,
        ),
    );
    assert_eq!(cache::metrics_from_json(doc.get("metrics").unwrap()), Some(metrics));
}
