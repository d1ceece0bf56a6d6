//! Log-bucketed (HDR-style) value histogram.
//!
//! Bucket layout (see DESIGN.md §15):
//!
//! * values `0..LINEAR_CUTOFF` get one bucket each (exact);
//! * values `>= LINEAR_CUTOFF` fall into power-of-two octaves
//!   `[2^m, 2^(m+1))`, each split into [`SUB_BUCKETS`] equal-width
//!   sub-buckets — relative bucket width is bounded by `1/SUB_BUCKETS`
//!   (12.5%), the classic HDR trade of precision for fixed memory.
//!
//! The layout is total over `u64`: every value maps to exactly one of the
//! [`NUM_BUCKETS`] buckets, so [`Histogram::merge`] is a plain
//! element-wise add and is associative and commutative (`prop_metrics.rs`
//! in `crates/core/tests`). Count, sum, min and max are tracked exactly on the
//! side, so `mean()` never suffers bucket quantization.

use crate::fmt_f64;

/// Values below this are their own (exact, unit-width) bucket.
///
/// Chosen so every distribution the simulator cares about bucket-exactly:
/// logical stack depths (≤ ~40 on the paper's scenes), SH occupancies
/// (≤ 8 entries × 5 chained stacks) and chain lengths (≤ 5) all sit below
/// it; only cycle-valued distributions (latencies) reach the log region.
pub const LINEAR_CUTOFF: u64 = 64;

/// Sub-buckets per power-of-two octave above the linear region.
pub const SUB_BUCKETS: usize = 8;

/// log2 of [`LINEAR_CUTOFF`].
const LINEAR_BITS: u32 = 6;

/// Total bucket count: the linear region plus 8 sub-buckets for each of the
/// `64 - LINEAR_BITS` octaves a `u64` value can fall in.
pub const NUM_BUCKETS: usize = LINEAR_CUTOFF as usize + (64 - LINEAR_BITS as usize) * SUB_BUCKETS;

/// A mergeable log-bucketed histogram over `u64` values.
///
/// # Example
///
/// ```
/// use sms_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for d in [3u64, 3, 7, 12, 12, 12] {
///     h.record(d);
/// }
/// assert_eq!(h.count(), 6);
/// assert_eq!(h.sum(), 49);
/// assert_eq!(h.max(), 12);
/// assert_eq!(h.quantile(0.5), 7);
/// assert_eq!(h.count_at(12), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { counts: vec![0; NUM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// The bucket index `value` falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value < LINEAR_CUTOFF {
            return value as usize;
        }
        let m = 63 - value.leading_zeros(); // value >= 64, so m >= LINEAR_BITS
        let sub = (value >> (m - 3)) & (SUB_BUCKETS as u64 - 1);
        LINEAR_CUTOFF as usize + (m - LINEAR_BITS) as usize * SUB_BUCKETS + sub as usize
    }

    /// The inclusive `[lower, upper]` value range of bucket `idx`.
    pub fn bucket_bounds(idx: usize) -> (u64, u64) {
        assert!(idx < NUM_BUCKETS, "bucket index out of range");
        if (idx as u64) < LINEAR_CUTOFF {
            return (idx as u64, idx as u64);
        }
        let rel = idx - LINEAR_CUTOFF as usize;
        let m = LINEAR_BITS + (rel / SUB_BUCKETS) as u32;
        let sub = (rel % SUB_BUCKETS) as u64;
        let width = 1u64 << (m - 3);
        let lower = (1u64 << m) + sub * width;
        (lower, lower + (width - 1))
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::bucket_index(value)] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values (not bucket-quantized).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum recorded value; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`): a representative of the first
    /// bucket whose cumulative count reaches `ceil(q * count)` — the
    /// bucket's upper bound, clamped to the exact observed maximum. Exact
    /// for values below [`LINEAR_CUTOFF`] (unit-width buckets), where
    /// `quantile(0.5)` equals the textbook "smallest value with cumulative
    /// count ≥ half" median. In the log region the representative sits at
    /// most one bucket width (≤ 1/8 relative) above the true quantile,
    /// honouring the two-sided relative-error contract — the bucket *lower*
    /// bound would systematically under-report by up to 12.5% instead.
    /// Returns 0 when empty; `quantile(1.0)` equals [`Histogram::max`].
    /// Monotone in `q` by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let threshold = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut acc = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= threshold {
                return Self::bucket_bounds(idx).1.min(self.max);
            }
        }
        self.max
    }

    /// Observations with value exactly `v` (requires `v < LINEAR_CUTOFF`,
    /// where buckets are unit-width).
    pub fn count_at(&self, v: u64) -> u64 {
        assert!(v < LINEAR_CUTOFF, "count_at is exact only in the linear region");
        self.counts[v as usize]
    }

    /// Observations in the inclusive value range `[lo, hi]`, counted by
    /// bucket lower bound. Exact when `hi < LINEAR_CUTOFF`.
    pub fn count_in_range(&self, lo: u64, hi: u64) -> u64 {
        let (a, b) = (Self::bucket_index(lo), Self::bucket_index(hi));
        self.counts[a..=b].iter().sum()
    }

    /// Observations strictly above `v` (exact when `v < LINEAR_CUTOFF`).
    pub fn count_above(&self, v: u64) -> u64 {
        self.count - self.count_in_range(0, v)
    }

    /// Element-wise merge: afterwards `self` reports the union of both
    /// observation sets. Associative and commutative.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Compact fixed-width digest: count, sum and key percentiles. This is
    /// what aggregation layers embed in `Copy` summary structs and JSON
    /// lines when shipping the full bucket vector is too heavy.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: u64::try_from(self.sum).unwrap_or(u64::MAX),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }

    /// Iterates the non-empty buckets as `(lower, upper, count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(idx, &c)| {
            let (lo, hi) = Self::bucket_bounds(idx);
            (lo, hi, c)
        })
    }

    /// Renders the Prometheus `_bucket`/`_sum`/`_count` sample lines for a
    /// histogram named `name` with pre-rendered label pairs `labels`
    /// (`""` or `key="v",...`). Cumulative `le` bounds use each non-empty
    /// bucket's inclusive upper bound, closing with `+Inf`.
    pub(crate) fn render_prometheus(&self, name: &str, labels: &str, out: &mut String) {
        use std::fmt::Write as _;
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cum = 0u64;
        for (_, hi, c) in self.buckets() {
            cum += c;
            let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{hi}\"}} {cum}");
        }
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", self.count);
        let braces = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
        let _ = writeln!(out, "{name}_sum{braces} {}", fmt_f64(self.sum as f64));
        let _ = writeln!(out, "{name}_count{braces} {}", self.count);
    }
}

/// Fixed-width digest of a [`Histogram`] — all integral so containing
/// structs can stay `Copy + Eq`. `sum` saturates at `u64::MAX` (the exact
/// sum is `u128`; stack-shaped distributions never get close).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, saturated to `u64`.
    pub sum: u64,
    /// Median ([`Histogram::quantile`]`(0.5)`); 0 when empty.
    pub p50: u64,
    /// 95th percentile; 0 when empty.
    pub p95: u64,
    /// 99th percentile; 0 when empty.
    pub p99: u64,
    /// Exact maximum observed value; 0 when empty.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_digest_matches_accessors() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.p50, h.quantile(0.5));
        assert_eq!(s.p99, h.quantile(0.99));
        assert_eq!(s.max, 100);
        assert_eq!(Histogram::new().summary(), HistSummary::default());
    }

    #[test]
    fn linear_region_is_exact() {
        for v in 0..LINEAR_CUTOFF {
            assert_eq!(Histogram::bucket_index(v), v as usize);
            assert_eq!(Histogram::bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_partition_u64() {
        // Consecutive buckets tile the value space with no gaps or overlap.
        let mut expected_lo = 0u64;
        for idx in 0..NUM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert_eq!(lo, expected_lo, "bucket {idx} must start where the previous ended");
            assert!(hi >= lo);
            if idx + 1 == NUM_BUCKETS {
                assert_eq!(hi, u64::MAX);
                break;
            }
            expected_lo = hi + 1;
        }
    }

    #[test]
    fn every_value_lands_in_its_bucket() {
        for v in [0, 1, 63, 64, 65, 100, 127, 128, 1000, 1 << 20, u64::MAX / 3, u64::MAX] {
            let idx = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "{v} not inside bucket {idx} [{lo}, {hi}]");
        }
    }

    #[test]
    fn relative_error_bounded_in_log_region() {
        for v in [64u64, 100, 999, 12345, 1 << 30] {
            let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_index(v));
            assert!((hi - lo + 1) as f64 / lo as f64 <= 1.0 / SUB_BUCKETS as f64);
        }
    }

    #[test]
    fn quantiles_match_reference_on_linear_data() {
        let mut h = Histogram::new();
        let data = [1u64, 2, 2, 3, 3, 3, 10, 10, 40, 41];
        for &v in &data {
            h.record(v);
        }
        // Reference median: smallest value with cumulative count >= ceil(n/2).
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 41);
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), data.iter().sum::<u64>() as u128);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 41);
    }

    #[test]
    fn quantile_is_monotone() {
        let mut h = Histogram::new();
        for v in [5u64, 80, 80, 900, 7, 7, 7, 1_000_000] {
            h.record(v);
        }
        let mut last = 0;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0);
            assert!(q >= last, "quantile must be monotone in q");
            last = q;
        }
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let data_a = [0u64, 5, 63, 64, 200, 200];
        let data_b = [3u64, 64, 1 << 22, u64::MAX];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for &v in &data_a {
            a.record(v);
            all.record(v);
        }
        for &v in &data_b {
            b.record(v);
            all.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all, "merge must be commutative");
    }

    #[test]
    fn range_counts_are_exact_below_cutoff() {
        let mut h = Histogram::new();
        for v in 0..50u64 {
            h.record_n(v, v + 1);
        }
        assert_eq!(h.count_in_range(0, 4), 1 + 2 + 3 + 4 + 5);
        assert_eq!(h.count_at(10), 11);
        assert_eq!(h.count_above(48), 50);
        assert_eq!(h.count_above(49), 0);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.buckets().count(), 0);
    }
}
