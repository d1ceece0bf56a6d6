//! Opt-in run metrics: stack/traversal distributions plus a sampled
//! time series, with Prometheus and CSV export.
//!
//! Setting `SMS_METRICS=1` (or [`crate::sim::RunLimits::metrics`]) arms
//! the layer: the RT units record the distributions described in
//! [`sms_rtunit::StackMetrics`], and the simulator's main loop samples a
//! fleet-wide time series every [`crate::sim::SAMPLE_PERIOD`] cycles. The
//! run returns a [`MetricsReport`] on [`crate::sim::SimRun::metrics`]; with
//! an `SMS_OUT` run directory the experiment entry points export it there:
//!
//! * `<scene>.<config>.prom` — Prometheus text dump (strictly parseable by
//!   `sms_metrics::prom::validate`);
//! * `<scene>.<config>.csv` — the sampled series as CSV;
//! * with `SMS_TRACE` also set, the series rides along as a counter track
//!   in the Chrome-trace file.
//!
//! Like the validator, the stall-attribution taxonomy and the tracer, the
//! whole layer is **pure observation**: armed or not, `SimStats` and the
//! rendered image are byte-identical (asserted by
//! `crates/core/tests/metrics_observation.rs`).

use sms_gpu::SimStats;
use sms_mem::Cycle;
use sms_metrics::{Registry, SeriesRecorder};
use sms_rtunit::StackMetrics;

/// The fleet-wide counters one time-series sample is computed from.
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleCounts {
    /// Warps resident on all SMs (compute side).
    pub resident_warps: usize,
    /// Occupied RT-unit warp slots across all SMs.
    pub rt_busy: usize,
    /// Pending entries across all SMs' memory completion heaps.
    pub mem_queue: usize,
    /// Cumulative committed instructions (compute + traversal).
    pub instructions: u64,
    /// Cumulative L1 hits / misses across all SMs.
    pub l1_hits: u64,
    /// Cumulative L1 misses.
    pub l1_misses: u64,
    /// Cumulative L2 hits.
    pub l2_hits: u64,
    /// Cumulative L2 misses.
    pub l2_misses: u64,
}

/// The columns of the sampled series, in order.
pub const SERIES_COLUMNS: [&str; 6] =
    ["resident_warps", "rt_busy", "mem_queue", "l1_hit_rate", "l2_hit_rate", "ipc"];

/// Samples the fleet-wide time series at period boundaries, turning the
/// cumulative counters into per-window rates (hit rates, IPC) against the
/// previous sample's snapshot.
#[derive(Debug)]
pub struct SeriesSampler {
    period: Cycle,
    next_sample: Cycle,
    series: SeriesRecorder,
    prev_cycle: Cycle,
    prev: SampleCounts,
}

impl SeriesSampler {
    /// A sampler with the given period; the first sample is due at cycle 0.
    pub fn new(period: Cycle) -> Self {
        SeriesSampler {
            period,
            next_sample: 0,
            series: SeriesRecorder::new(&SERIES_COLUMNS),
            prev_cycle: 0,
            prev: SampleCounts::default(),
        }
    }

    /// `true` when `now` has reached the next sampling boundary (same
    /// jump-tolerant re-arming as the trace recorder's counter sampler).
    pub fn sample_due(&self, now: Cycle) -> bool {
        now >= self.next_sample
    }

    /// Appends one sample row at `now` and re-arms the boundary past it.
    pub fn sample(&mut self, now: Cycle, c: SampleCounts) {
        let rate = |hits: u64, misses: u64, ph: u64, pm: u64| {
            let (h, m) = (hits - ph, misses - pm);
            if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            }
        };
        let ipc = if now > self.prev_cycle {
            (c.instructions - self.prev.instructions) as f64 / (now - self.prev_cycle) as f64
        } else {
            0.0
        };
        self.series.push(
            now,
            &[
                c.resident_warps as f64,
                c.rt_busy as f64,
                c.mem_queue as f64,
                rate(c.l1_hits, c.l1_misses, self.prev.l1_hits, self.prev.l1_misses),
                rate(c.l2_hits, c.l2_misses, self.prev.l2_hits, self.prev.l2_misses),
                ipc,
            ],
        );
        self.prev_cycle = now;
        self.prev = c;
        self.next_sample = (now / self.period + 1) * self.period;
    }

    /// The recorded series.
    pub fn into_series(self) -> SeriesRecorder {
        self.series
    }
}

/// Everything the metrics layer recorded during one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Stack/traversal distributions, merged across all RT units.
    pub stacks: StackMetrics,
    /// The sampled fleet-wide time series.
    pub series: SeriesRecorder,
    /// The sampling period the series was recorded with.
    pub period: Cycle,
}

impl MetricsReport {
    /// Builds the full metric registry for this run: end-of-run counters
    /// and gauges from `stats`, plus every recorded distribution, labelled
    /// `scene`/`config`. Registration order is fixed, so the Prometheus
    /// rendering is deterministic and golden-testable.
    pub fn registry(&self, scene: &str, config: &str, stats: &SimStats) -> Registry {
        let mut reg = Registry::new();
        reg.set_base_labels(&[("scene", scene), ("config", config)]);
        reg.counter("sms_cycles_total", "Simulated cycles", stats.cycles);
        reg.counter(
            "sms_instructions_total",
            "Committed instructions (compute + traversal)",
            stats.instructions(),
        );
        reg.counter("sms_rays_traced_total", "Nearest-hit rays traced", stats.rays_traced);
        reg.counter("sms_shadow_rays_total", "Occlusion rays traced", stats.shadow_rays);
        reg.counter("sms_node_visits_total", "BVH node visits", stats.node_visits);
        reg.counter(
            "sms_stack_spills_total",
            "Traversal-stack entries spilled to global memory",
            stats.rb_spills + stats.sh_spills,
        );
        reg.counter(
            "sms_stack_reloads_total",
            "Traversal-stack entries reloaded from global memory",
            stats.rb_reloads + stats.sh_reloads,
        );
        reg.counter("sms_ra_flushes_total", "Reallocation whole-stack flushes", stats.ra_flushes);
        reg.counter("sms_ra_borrows_total", "Reallocation SH-stack borrows", stats.ra_borrows);
        reg.gauge("sms_ipc", "Instructions per cycle", stats.ipc());
        reg.histogram(
            "sms_stack_depth",
            "Logical stack depth after every push",
            self.stacks.depth_at_push.clone(),
        );
        reg.histogram(
            "sms_sh_occupancy",
            "SH-level entries of the pushing lane, after every push",
            self.stacks.sh_occupancy.clone(),
        );
        reg.histogram(
            "sms_borrow_chain",
            "SH stacks linked into the pushing lane's chain",
            self.stacks.borrow_chain.clone(),
        );
        reg.histogram(
            "sms_flush_run",
            "Consecutive-flush counter of reallocation-flushed segments",
            self.stacks.flush_runs.clone(),
        );
        reg.histogram(
            "sms_ray_latency_cycles",
            "Per-ray traversal latency (admission to lane completion)",
            self.stacks.ray_latency.clone(),
        );
        reg.histogram(
            "sms_ray_spills",
            "Per-ray entries spilled to global memory",
            self.stacks.ray_spills.clone(),
        );
        reg.histogram(
            "sms_ray_reloads",
            "Per-ray entries reloaded from global memory",
            self.stacks.ray_reloads.clone(),
        );
        reg
    }

    /// One-line distributional summary for logs: count, p50/p95/p99, max.
    pub fn summary_line(&self) -> String {
        let h = &self.stacks.depth_at_push;
        format!(
            "stack depth p50/p95/p99 {}/{}/{} max {} over {} pushes; \
             ray latency p50/p95 {}/{} cycles over {} rays; {} samples",
            h.quantile(0.5),
            h.quantile(0.95),
            h.quantile(0.99),
            h.max(),
            h.count(),
            self.stacks.ray_latency.quantile(0.5),
            self.stacks.ray_latency.quantile(0.95),
            self.stacks.ray_latency.count(),
            self.series.len(),
        )
    }
}

/// Formats a sample value for the Chrome-trace counter track: plain `{}`
/// for finite values (shortest round-trip, valid JSON), `0` otherwise.
pub(crate) fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::RunExports;
    use std::path::PathBuf;

    #[test]
    fn spec_suffix_preserves_extension() {
        let exports = RunExports { dir: Some(PathBuf::from("/tmp/m")), ..RunExports::default() };
        let file = |ext| exports.file("SHIP.SMS_8+SK", ext);
        assert_eq!(file("prom"), Some(PathBuf::from("/tmp/m/SHIP.SMS_8_SK.prom")));
        assert_eq!(file("csv"), Some(PathBuf::from("/tmp/m/SHIP.SMS_8_SK.csv")));
        assert_eq!(RunExports::default().file("SHIP.SMS_8+SK", "prom"), None);
    }

    #[test]
    fn sampler_computes_window_rates() {
        let mut s = SeriesSampler::new(100);
        assert!(s.sample_due(0));
        s.sample(0, SampleCounts::default());
        assert!(!s.sample_due(99));
        assert!(s.sample_due(100));
        s.sample(
            250,
            SampleCounts {
                resident_warps: 8,
                rt_busy: 3,
                mem_queue: 2,
                instructions: 500,
                l1_hits: 30,
                l1_misses: 10,
                l2_hits: 5,
                l2_misses: 5,
            },
        );
        // Jumped past two boundaries: one sample, re-armed past now.
        assert!(!s.sample_due(299));
        assert!(s.sample_due(300));
        let series = s.into_series();
        assert_eq!(series.len(), 2);
        assert_eq!(series.value(1, "l1_hit_rate"), Some(0.75));
        assert_eq!(series.value(1, "l2_hit_rate"), Some(0.5));
        assert_eq!(series.value(1, "ipc"), Some(2.0));
        assert_eq!(series.value(1, "rt_busy"), Some(3.0));
    }

    #[test]
    fn registry_renders_and_validates() {
        let mut report = MetricsReport::default();
        report.stacks.depth_at_push.record(3);
        report.stacks.ray_latency.record(900);
        let stats = SimStats { cycles: 100, node_visits: 50, ..SimStats::default() };
        let reg = report.registry("SHIP", "RB_8+SH_8", &stats);
        let text = reg.render_prometheus();
        assert!(text.contains("sms_cycles_total{scene=\"SHIP\",config=\"RB_8+SH_8\"} 100"));
        sms_metrics::prom::validate(&text).expect("dump must parse strictly");
    }
}
