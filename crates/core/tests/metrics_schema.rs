//! Export schema stability: the Prometheus and CSV renderings are the
//! interface external tooling scrapes, so their exact shape is pinned the
//! same way `crates/harness/tests/journal_schema.rs` pins the journal.
//!
//! The renderings are the `metrics_schema.*` rows of the golden table
//! (`goldens.txt`, `sms_geom::golden`), one row per line, and those rows
//! are the schema. A row that moves on purpose is a schema migration:
//! update the metric rows in `EXPERIMENTS.md` and re-check any dashboards
//! scraping the dumps.

use sms_sim::geom::golden;
use sms_sim::gpu::SimStats;
use sms_sim::metrics::{MetricsReport, SeriesSampler, Snapshot};
use sms_sim::trace::SmCounters;

/// A tiny, fully-determined report: every histogram populated, clean
/// rates, so the rendering exercises each metric type.
fn sample_report() -> MetricsReport {
    let mut report = MetricsReport { period: 100, ..MetricsReport::default() };
    report.stacks.depth_at_push.record_n(2, 3);
    report.stacks.depth_at_push.record(5);
    report.stacks.sh_occupancy.record_n(1, 4);
    report.stacks.borrow_chain.record_n(0, 4);
    report.stacks.flush_runs.record(2);
    report.stacks.ray_latency.record(900);
    report.stacks.ray_spills.record_n(0, 1);
    report.stacks.ray_reloads.record_n(0, 1);
    let mut sampler = SeriesSampler::default();
    sampler.sample(0, &Snapshot::default());
    let sm = SmCounters { resident_warps: 8, rt_busy: 3, mem_queue: 2, conflict_cycles: 0 };
    sampler.sample(
        100,
        &Snapshot {
            sms: vec![sm],
            instructions: 150,
            l1_hits: 30,
            l1_misses: 10,
            l2_hits: 5,
            l2_misses: 5,
        },
    );
    report.series = sampler.into_series();
    report
}

fn sample_stats() -> SimStats {
    SimStats {
        cycles: 1000,
        thread_instructions: 1500,
        node_visits: 50,
        rays_traced: 4,
        shadow_rays: 1,
        sh_spills: 2,
        sh_reloads: 2,
        ra_flushes: 1,
        ra_borrows: 3,
        ..SimStats::default()
    }
}

#[test]
fn prometheus_dump_matches_golden() {
    let text = sample_report().registry("SHIP", "RB_8+SH_8", &sample_stats()).render_prometheus();
    golden::check("metrics_schema", &[("prometheus", &text)]);
    // The golden dump parses under the strict validator, like every
    // production dump must.
    let samples = sms_metrics::prom::validate(&text).expect("golden must parse strictly");
    assert!(samples > 0);
}

#[test]
fn series_csv_matches_golden() {
    let csv = sample_report().series.to_csv();
    golden::check("metrics_schema", &[("csv", &csv)]);
    sms_metrics::series::validate_csv(&csv).expect("golden must validate");
}

#[test]
fn summary_line_is_stable() {
    golden::check("metrics_schema", &[("summary", sample_report().summary_line())]);
}
