//! Order statistics for timings: medians, quartiles, percentiles.

use crate::json::{num, obj, Json};

/// Median of `samples` (mean of the two middle values for even counts).
/// Empty input yields 0 so a workload that never ran reports a metric the
/// caller's non-zero check will reject.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(samples, n=4)` (the "exclusive" method) so the
/// spreads printed here are the ones the acceptance procedure computes.
/// Fewer than two samples have no spread: both quartiles are the sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it; `None` below 20 samples (not even the median's upper
/// half holds ten).
pub fn highest_supported_percentile(count: usize) -> Option<f64> {
    // Per mille, so the count beyond is exact integer arithmetic.
    [999usize, 990, 950, 900, 500]
        .into_iter()
        .find(|p| count * (1000 - p) / 1000 >= 10)
        .map(|p| p as f64 / 10.0)
}

/// Median, quartiles, extremes and count of one timing series, with the
/// highest percentile the sample supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// `(percentile, value)` of the highest percentile that has at least
    /// ten samples beyond it, when it is above the median.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, q3) = quartiles(samples);
        let (min, max) = samples
            .iter()
            .fold(None, |acc: Option<(f64, f64)>, &v| {
                Some(acc.map_or((v, v), |(lo, hi)| (lo.min(v), hi.max(v))))
            })
            .unwrap_or((0.0, 0.0));
        let tail = highest_supported_percentile(samples.len())
            .filter(|p| *p > 50.0)
            .map(|p| (p, percentile(samples, p)));
        Summary { n: samples.len(), min, q1, median: median(samples), q3, max, tail }
    }

    pub fn to_json(self) -> Json {
        let mut doc = obj([
            ("n", num(self.n as f64)),
            ("min", num(self.min)),
            ("q1", num(self.q1)),
            ("median", num(self.median)),
            ("q3", num(self.q3)),
            ("max", num(self.max)),
        ]);
        if let Some((p, value)) = self.tail {
            doc.set("tail_percentile", num(p));
            doc.set("tail", num(value));
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 95.0), 95.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_extremes_and_count() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (3, 2.0, 4.0, 9.0));
        assert_eq!(s.tail, None, "three samples support no percentile");
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(Summary::of(&many).tail, Some((95.0, 190.0)));
    }
}
