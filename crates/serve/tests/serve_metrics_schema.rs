//! `/metrics` schema stability, in the style of
//! `crates/core/tests/metrics_schema.rs`: the exact Prometheus rendering
//! is the interface dashboards scrape, so it is pinned as the
//! `serve_metrics_schema.prometheus` rows of the golden table
//! (`goldens.txt`, `sms_geom::golden`). If a row moves on purpose, it is a
//! schema migration — update the serving metric rows in `EXPERIMENTS.md`
//! and any scrape configs.

use sms_serve::metrics::{inc, HttpCounters, ServerMetrics};
use sms_sim::geom::golden;

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

#[test]
fn serve_metrics_match_golden() {
    let (m, http) = sample_metrics();
    let text = m.registry(12.5, &http).render_prometheus();
    golden::check("serve_metrics_schema", &[("prometheus", &text)]);
    // The golden parses under the strict promlint validator, like every
    // live scrape must.
    let samples = sms_metrics::prom::validate(&text).expect("golden must parse strictly");
    assert!(samples > 0);
}
