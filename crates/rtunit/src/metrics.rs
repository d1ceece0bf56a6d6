//! Stack and traversal distributions, recorded by the stack manager.
//!
//! Armed via [`crate::RtUnitConfig::metrics`]: each admitted warp's
//! [`crate::WarpStacks`] records its own pushes, flushes and finished rays,
//! and the RT unit merges a retiring warp's record into its
//! [`StackMetrics`]. Like the validator this is **pure observation**: a run
//! with metrics on is byte-identical to one with metrics off.
//!
//! Depths, occupancies and chain lengths are all far below the histogram's
//! linear-bucket cutoff, so those distributions are exact; only per-ray
//! traversal latency uses the log-bucketed region.

use sms_metrics::Histogram;

/// Distributions over stack behaviour: one trace's, recorded by its
/// stacks, or those of every retired trace of one RT unit (merged across
/// SMs by the simulator at end of run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StackMetrics {
    /// Logical stack depth after every push.
    pub depth_at_push: Histogram,
    /// Entries resident in the pushing lane's SH level, after every push.
    pub sh_occupancy: Histogram,
    /// SH stacks linked into the pushing lane's chain, after every push
    /// (1 = dedicated only; >1 = borrows held).
    pub borrow_chain: Histogram,
    /// Consecutive-flush counter of the segment a reallocation flush just
    /// evicted (the paper's §VI-B `Flush` field), one per flush.
    pub flush_runs: Histogram,
    /// Per-ray traversal latency: admission to lane completion, in cycles.
    pub ray_latency: Histogram,
    /// Per-ray entries spilled to the global-memory stack level.
    pub ray_spills: Histogram,
    /// Per-ray entries reloaded from the global-memory stack level.
    pub ray_reloads: Histogram,
}

impl StackMetrics {
    /// Folds another trace's or unit's distributions into this one.
    pub fn merge(&mut self, other: &StackMetrics) {
        // Exhaustive destructuring: adding a field without merging it is a
        // compile error.
        let StackMetrics {
            depth_at_push,
            sh_occupancy,
            borrow_chain,
            flush_runs,
            ray_latency,
            ray_spills,
            ray_reloads,
        } = other;
        self.depth_at_push.merge(depth_at_push);
        self.sh_occupancy.merge(sh_occupancy);
        self.borrow_chain.merge(borrow_chain);
        self.flush_runs.merge(flush_runs);
        self.ray_latency.merge(ray_latency);
        self.ray_spills.merge(ray_spills);
        self.ray_reloads.merge(ray_reloads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_fieldwise() {
        let mut a = StackMetrics::default();
        a.depth_at_push.record(3);
        a.ray_latency.record(1000);
        let mut b = StackMetrics::default();
        b.depth_at_push.record(5);
        b.ray_spills.record(2);
        a.merge(&b);
        assert_eq!(a.depth_at_push.count(), 2);
        assert_eq!(a.ray_latency.count(), 1);
        assert_eq!(a.ray_spills.sum(), 2);
    }
}
