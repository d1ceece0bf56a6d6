//! `/metrics` schema stability, in the style of
//! `crates/core/tests/metrics_schema.rs`: the exact Prometheus rendering
//! is the interface dashboards scrape, so it is pinned as a golden
//! string. If a change is intentional, it is a schema migration — update
//! the serving metric rows in `EXPERIMENTS.md` and any scrape configs.

use sms_serve::metrics::{inc, HttpCounters, ServerMetrics};

/// A deterministic instrument state: every counter distinct (so a swapped
/// rendering cannot pass), both histograms populated, uptime pinned.
fn sample_metrics() -> (ServerMetrics, HttpCounters) {
    let (m, http) = (ServerMetrics::default(), HttpCounters::default());
    let bump = |c: &std::sync::atomic::AtomicU64, n: u64| {
        for _ in 0..n {
            inc(c);
        }
    };
    bump(&http.requests, 9);
    bump(&http.bad_requests, 2);
    bump(&http.shed, 1);
    bump(&m.jobs, 8);
    bump(&m.jobs_in_flight, 3);
    bump(&m.cache_hits, 4);
    bump(&m.cache_misses, 3);
    bump(&m.singleflight_shared, 1);
    bump(&m.jobs_failed, 1);
    m.observe_request(250);
    m.observe_request(900);
    m.observe_job(1000);
    (m, http)
}

const GOLDEN_PROM: &str = r#"# HELP sms_serve_uptime_seconds Seconds since the server started
# TYPE sms_serve_uptime_seconds gauge
sms_serve_uptime_seconds 12.5
# HELP sms_serve_requests_total HTTP requests accepted for processing
# TYPE sms_serve_requests_total counter
sms_serve_requests_total 9
# HELP sms_serve_bad_requests_total Requests refused with a 4xx status
# TYPE sms_serve_bad_requests_total counter
sms_serve_bad_requests_total 2
# HELP sms_serve_shed_total Connections shed with 503 at the admission gate
# TYPE sms_serve_shed_total counter
sms_serve_shed_total 1
# HELP sms_serve_jobs_total Sweep jobs admitted
# TYPE sms_serve_jobs_total counter
sms_serve_jobs_total 8
# HELP sms_serve_jobs_in_flight Jobs currently executing or queued
# TYPE sms_serve_jobs_in_flight gauge
sms_serve_jobs_in_flight 3
# HELP sms_serve_cache_hits_total Jobs served from the shared result cache
# TYPE sms_serve_cache_hits_total counter
sms_serve_cache_hits_total 4
# HELP sms_serve_cache_misses_total Jobs that ran the simulator
# TYPE sms_serve_cache_misses_total counter
sms_serve_cache_misses_total 3
# HELP sms_serve_singleflight_shared_total Jobs that attached to another request's in-flight execution
# TYPE sms_serve_singleflight_shared_total counter
sms_serve_singleflight_shared_total 1
# HELP sms_serve_jobs_failed_total Jobs that ended in a structured error
# TYPE sms_serve_jobs_failed_total counter
sms_serve_jobs_failed_total 1
# HELP sms_serve_request_latency_us Wall-clock per handled request, microseconds
# TYPE sms_serve_request_latency_us histogram
sms_serve_request_latency_us_bucket{le="255"} 1
sms_serve_request_latency_us_bucket{le="959"} 2
sms_serve_request_latency_us_bucket{le="+Inf"} 2
sms_serve_request_latency_us_sum 1150
sms_serve_request_latency_us_count 2
# HELP sms_serve_job_latency_us Wall-clock per finished job, microseconds
# TYPE sms_serve_job_latency_us histogram
sms_serve_job_latency_us_bucket{le="1023"} 1
sms_serve_job_latency_us_bucket{le="+Inf"} 1
sms_serve_job_latency_us_sum 1000
sms_serve_job_latency_us_count 1
"#;

#[test]
fn serve_metrics_match_golden() {
    let (m, http) = sample_metrics();
    let text = m.registry(12.5, &http).render_prometheus();
    if text != GOLDEN_PROM {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/serve_metrics_actual.prom");
        let _ = std::fs::write(path, &text);
        panic!("serve metrics schema drift — actual dump written to {path}");
    }
    // The golden parses under the strict promlint validator, like every
    // live scrape must.
    let samples = sms_metrics::prom::validate(GOLDEN_PROM).expect("golden must parse strictly");
    assert!(samples > 0);
}
