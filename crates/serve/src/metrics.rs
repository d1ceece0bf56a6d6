//! Live backend instrumentation behind `GET /metrics`.
//!
//! Counters are lock-free atomics bumped on the request path; the two
//! latency [`Histogram`]s sit behind a mutex (one `record` per request /
//! job, far off any simulator hot loop). A scrape snapshots everything
//! into a fresh [`Registry`] and renders the strict Prometheus text the
//! existing `promlint` parser validates — the metric *names* below are
//! schema, pinned by `tests/serve_metrics_schema.rs`.

use sms_metrics::{Histogram, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Bumps a counter.
pub fn inc(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The counters the shared service skeleton bumps for either tier.
#[derive(Debug, Default)]
pub struct HttpCounters {
    /// HTTP requests accepted for processing (any endpoint).
    pub requests: AtomicU64,
    /// Requests refused with a 4xx (parse or validation failures).
    pub bad_requests: AtomicU64,
    /// Requests shed with `503` (connection cap, drain, or admission).
    pub shed: AtomicU64,
}

/// The backend's own instrument set.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Sweep jobs admitted (after request-level dedup).
    pub jobs: AtomicU64,
    /// Jobs currently executing or queued on the pool; also the value the
    /// admission gate bounds.
    pub jobs_in_flight: AtomicU64,
    /// Jobs served from the on-disk result cache.
    pub cache_hits: AtomicU64,
    /// Jobs that ran the simulator.
    pub cache_misses: AtomicU64,
    /// Jobs that attached to another request's in-flight execution.
    pub singleflight_shared: AtomicU64,
    /// Jobs that ended in a structured error.
    pub jobs_failed: AtomicU64,
    /// Wall-clock per handled request, microseconds.
    pub request_latency_us: Mutex<Histogram>,
    /// Wall-clock per finished job, microseconds.
    pub job_latency_us: Mutex<Histogram>,
}

impl ServerMetrics {
    /// Records one request's wall-clock latency.
    pub fn observe_request(&self, micros: u64) {
        self.request_latency_us.lock().unwrap_or_else(PoisonError::into_inner).record(micros);
    }

    /// Records one job's wall-clock latency.
    pub fn observe_job(&self, micros: u64) {
        self.job_latency_us.lock().unwrap_or_else(PoisonError::into_inner).record(micros);
    }

    /// Snapshots every instrument into a registry (tests pin `uptime_secs`
    /// for golden output).
    pub fn registry(&self, uptime_secs: f64, http: &HttpCounters) -> Registry {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut reg = Registry::new();
        reg.gauge("sms_serve_uptime_seconds", "Seconds since the server started", uptime_secs);
        reg.counter(
            "sms_serve_requests_total",
            "HTTP requests accepted for processing",
            get(&http.requests),
        );
        reg.counter(
            "sms_serve_bad_requests_total",
            "Requests refused with a 4xx status",
            get(&http.bad_requests),
        );
        reg.counter(
            "sms_serve_shed_total",
            "Connections shed with 503 at the admission gate",
            get(&http.shed),
        );
        reg.counter("sms_serve_jobs_total", "Sweep jobs admitted", get(&self.jobs));
        reg.gauge(
            "sms_serve_jobs_in_flight",
            "Jobs currently executing or queued",
            get(&self.jobs_in_flight) as f64,
        );
        reg.counter(
            "sms_serve_cache_hits_total",
            "Jobs served from the shared result cache",
            get(&self.cache_hits),
        );
        reg.counter(
            "sms_serve_cache_misses_total",
            "Jobs that ran the simulator",
            get(&self.cache_misses),
        );
        reg.counter(
            "sms_serve_singleflight_shared_total",
            "Jobs that attached to another request's in-flight execution",
            get(&self.singleflight_shared),
        );
        reg.counter(
            "sms_serve_jobs_failed_total",
            "Jobs that ended in a structured error",
            get(&self.jobs_failed),
        );
        let hist = |m: &Mutex<Histogram>| m.lock().unwrap_or_else(PoisonError::into_inner).clone();
        reg.histogram(
            "sms_serve_request_latency_us",
            "Wall-clock per handled request, microseconds",
            hist(&self.request_latency_us),
        );
        reg.histogram(
            "sms_serve_job_latency_us",
            "Wall-clock per finished job, microseconds",
            hist(&self.job_latency_us),
        );
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_strictly_parseable() {
        let (m, http) = (ServerMetrics::default(), HttpCounters::default());
        inc(&http.requests);
        inc(&m.cache_hits);
        m.observe_request(1234);
        m.observe_job(99);
        let text = m.registry(1.0, &http).render_prometheus();
        sms_metrics::prom::validate(&text).expect("strict parse");
        let families = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
        assert_eq!(families, 12, "every instrument renders exactly once");
        assert!(text.contains("sms_serve_requests_total 1"));
    }
}
