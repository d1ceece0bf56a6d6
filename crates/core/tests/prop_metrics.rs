//! Properties of the `sms-metrics` histogram: the aggregation laws the
//! harness relies on (merging per-job histograms batch-wide must be
//! order-independent) and the accuracy contract of the bucket layout
//! (exact below `LINEAR_CUTOFF`, bounded relative error above).

use sms_geom::check::{for_cases, Gen};
use sms_metrics::Histogram;

const CASES: u64 = 10_000;

/// Value mix matching real telemetry: mostly small (stack depths,
/// occupancies — the exact linear region) with occasional large outliers
/// (ray latencies — the log region).
fn values(g: &mut Gen) -> Vec<u64> {
    g.vec(0, 200, |g| match g.int(0, 6) {
        0..=3 => g.rng.below(64),
        4..=5 => 64 + g.rng.below(10_000 - 64),
        _ => g.rng.next_u64(),
    })
}

fn linear_values(g: &mut Gen, min_len: usize) -> Vec<u64> {
    g.vec(min_len, 200, |g| g.rng.below(64))
}

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// The textbook `q`-quantile of a sorted, non-empty sample: the smallest
/// value with cumulative count `>= ceil(q * n)`.
fn textbook_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

#[test]
fn merge_is_commutative_and_associative() {
    for_cases(CASES, 0x3E, |g| {
        let (a, b, c) = (values(g), values(g), values(g));
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));

        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        assert_eq!(ab, ba, "merge must be commutative");

        let mut ab_c = ab;
        ab_c.merge(&hc);
        let mut bc = hb;
        bc.merge(&hc);
        let mut a_bc = ha;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");

        // Merging equals recording the concatenation directly.
        assert_eq!(ab_c, hist_of(&[a, b, c].concat()));
    });
}

#[test]
fn moments_match_naive_reference() {
    for_cases(CASES, 0x3F, |g| {
        let values = values(g);
        let h = hist_of(&values);
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.sum(), values.iter().map(|&v| v as u128).sum::<u128>());
        assert_eq!(h.min(), values.iter().copied().min().unwrap_or(0));
        assert_eq!(h.max(), values.iter().copied().max().unwrap_or(0));
    });
}

#[test]
fn buckets_partition_the_recorded_set() {
    for_cases(CASES, 0x40, |g| {
        let values = values(g);
        let h = hist_of(&values);
        // Every bucket's count is the number of recorded values inside its
        // [lo, hi] range — buckets tile the value space without overlap.
        let mut total = 0u64;
        for (lo, hi, count) in h.buckets() {
            let expect = values.iter().filter(|&&v| lo <= v && v <= hi).count() as u64;
            assert_eq!(count, expect, "bucket [{lo}, {hi}]");
            total += count;
        }
        assert_eq!(total, h.count());
    });
}

#[test]
fn linear_region_is_value_exact() {
    for_cases(CASES, 0x41, |g| {
        let values = linear_values(g, 0);
        let h = hist_of(&values);
        for v in 0..64u64 {
            let expect = values.iter().filter(|&&x| x == v).count() as u64;
            assert_eq!(h.count_at(v), expect);
        }
    });
}

#[test]
fn quantiles_are_monotone_in_q() {
    for_cases(CASES, 0x42, |g| {
        let h = hist_of(&values(g));
        let mut qs = g.vec(2, 7, |g| g.rng.next_f32() as f64);
        qs.push(1.0);
        qs.sort_by(f64::total_cmp);
        let quantiles: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
        assert!(quantiles.windows(2).all(|w| w[0] <= w[1]), "not monotone: {quantiles:?}");
        assert!(h.quantile(1.0) <= h.max());
    });
}

#[test]
fn median_matches_textbook_on_linear_data() {
    for_cases(CASES, 0x43, |g| {
        let mut sorted = linear_values(g, 1);
        let h = hist_of(&sorted);
        sorted.sort_unstable();
        // Exact in the unit-width linear region.
        assert_eq!(h.quantile(0.5), textbook_quantile(&sorted, 0.5));
        assert_eq!(h.quantile(1.0), sorted[sorted.len() - 1]);
    });
}

#[test]
fn quantile_never_under_reports_and_stays_in_bucket() {
    for_cases(CASES, 0x44, |g| {
        let mut sorted = values(g);
        sorted.push(g.rng.below(64)); // never empty
        let q = g.rng.next_f32() as f64;
        let h = hist_of(&sorted);
        sorted.sort_unstable();
        let t = textbook_quantile(&sorted, q);
        let r = h.quantile(q);
        // The representative is the upper bound of t's bucket clamped to
        // the observed max: never below the true quantile, never past its
        // bucket.
        assert!(r >= t, "quantile must not under-report: {r} < {t}");
        let (_, hi) = Histogram::bucket_bounds(Histogram::bucket_index(t));
        assert!(r <= hi.min(h.max()), "quantile {r} left t's bucket [..{hi}]");
    });
}

#[test]
fn log_region_relative_error_is_bounded() {
    for_cases(CASES, 0x45, |g| {
        // Every octave, not only the top one a uniform `u64` lands in.
        let h = hist_of(&g.vec(1, 50, |g| (g.rng.next_u64() >> g.int(0, 57)).max(64)));
        // Each value lands in a bucket whose width is at most lo/8 — the
        // 1/SUB_BUCKETS relative-error contract of the log region.
        for (lo, hi, _) in h.buckets() {
            let width = hi.saturating_sub(lo).saturating_add(1);
            assert!(width as f64 / lo as f64 <= 0.125 + 1e-12, "bucket [{lo}, {hi}]");
        }
    });
}

#[test]
fn summary_is_consistent() {
    for_cases(CASES, 0x46, |g| {
        let h = hist_of(&values(g));
        let s = h.summary();
        assert_eq!(s.count, h.count());
        assert_eq!(s.sum, u64::try_from(h.sum()).unwrap_or(u64::MAX));
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    });
}
