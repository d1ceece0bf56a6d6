//! Stack-depth and BVH-size statistics (paper Figs. 4–5, Table II).
//!
//! Depth distributions are recorded straight into an
//! [`sms_metrics::Histogram`] — logical stack depths sit far below the
//! histogram's linear-bucket cutoff, so every count, mean, median and
//! bucket fraction the paper's figures need is exact.

use crate::flat::FlatBvh;
use crate::layout::BvhLayout;
use crate::traverse::StackObserver;
use sms_metrics::Histogram;

/// The paper records "the stack depth … at every push and pop operation
/// across all rays" (Figs. 4/5): a [`Histogram`] observing a traversal
/// does exactly that, symmetrically for pushes and pops.
///
/// # Example
///
/// ```
/// use sms_bvh::traverse::StackObserver;
/// use sms_metrics::Histogram;
/// let mut r = Histogram::new();
/// r.on_push(1);
/// r.on_push(2);
/// r.on_pop(1);
/// assert_eq!(r.max(), 2);
/// assert_eq!(r.count(), 3);
/// ```
impl StackObserver for Histogram {
    #[inline]
    fn on_push(&mut self, depth: usize) {
        self.record(depth as u64);
    }
    #[inline]
    fn on_pop(&mut self, depth: usize) {
        self.record(depth as u64);
    }
}

/// Structural statistics of a built BVH (Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BvhStats {
    /// Total node count.
    pub nodes: usize,
    /// Internal node count.
    pub inner_nodes: usize,
    /// Leaf node count.
    pub leaf_nodes: usize,
    /// Maximum node depth.
    pub depth: usize,
    /// Memory image size in bytes.
    pub size_bytes: u64,
}

impl BvhStats {
    /// Measures a built BVH.
    pub fn measure(bvh: &FlatBvh) -> Self {
        let leaf_nodes = bvh.nodes.iter().filter(|n| n.is_leaf()).count();
        BvhStats {
            nodes: bvh.nodes.len(),
            inner_nodes: bvh.nodes.len() - leaf_nodes,
            leaf_nodes,
            depth: bvh.depth(),
            size_bytes: BvhLayout::size_bytes(bvh),
        }
    }

    /// Memory image size in megabytes.
    pub fn size_mb(&self) -> f64 {
        self.size_bytes as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_observer_records_both_ops() {
        let mut r = Histogram::new();
        for &d in &[1usize, 2, 3, 4, 30] {
            r.on_push(d);
        }
        assert_eq!(r.max(), 30);
        assert_eq!(r.mean(), 8.0);
        assert_eq!(r.quantile(0.5), 3);
        r.on_pop(2);
        assert_eq!(r.count(), 6);
    }

    #[test]
    fn fig5_bucket_fractions_are_exact() {
        let mut r = Histogram::new();
        for &d in &[1u64, 3, 5, 7, 9, 12, 17, 40] {
            r.record(d);
        }
        let n = r.count() as f64;
        assert_eq!(r.count_in_range(0, 4) as f64 / n, 2.0 / 8.0);
        assert_eq!(r.count_in_range(5, 8) as f64 / n, 2.0 / 8.0);
        assert_eq!(r.count_in_range(9, 16) as f64 / n, 2.0 / 8.0);
        assert_eq!(r.count_above(16) as f64 / n, 2.0 / 8.0);
    }
}
