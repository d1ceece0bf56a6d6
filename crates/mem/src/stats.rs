//! Memory-system counters collected during simulation.

crate::counter_record! {
    /// Counters for one memory hierarchy (merge per-SM instances with
    /// [`MemStats::merge`]).
    pub struct MemStats {
        /// L1D load/store lookups that hit.
        pub l1_hits: u64,
        /// L1D lookups that missed.
        pub l1_misses: u64,
        /// L2 lookups that hit.
        pub l2_hits: u64,
        /// L2 lookups that missed (DRAM accesses).
        pub l2_misses: u64,
        /// Store transactions written through to L2.
        pub stores: u64,
        /// Line transactions issued for traversal-stack spill/reload traffic.
        pub stack_transactions: u64,
        /// Stack-traffic loads that hit in L1.
        pub stack_l1_hits: u64,
        /// Stack-traffic loads that missed in L1.
        pub stack_l1_misses: u64,
        /// Line transactions issued for scene data (nodes, primitives, shading).
        pub data_transactions: u64,
        /// Warp-level shared-memory transactions.
        pub shared_accesses: u64,
        /// Extra cycles lost to shared-memory bank conflicts.
        pub bank_conflict_cycles: u64,
    }
}

impl MemStats {
    /// Total accesses that had to leave the SM (L1 misses plus write-through
    /// stores): the paper's "off-chip memory accesses" (Fig. 15b) as seen
    /// from the SM.
    pub fn offchip_accesses(&self) -> u64 {
        self.l1_misses + self.stores
    }

    /// L1 hit rate in `[0, 1]`; `0` when there were no accesses.
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = MemStats { l1_hits: 1, l1_misses: 2, ..Default::default() };
        let b = MemStats { l1_hits: 10, stores: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.l1_hits, 11);
        assert_eq!(a.l1_misses, 2);
        assert_eq!(a.stores, 5);
        assert_eq!(a.offchip_accesses(), 7);
    }

    #[test]
    fn hit_rate_edges() {
        assert_eq!(MemStats::default().l1_hit_rate(), 0.0);
        let s = MemStats { l1_hits: 3, l1_misses: 1, ..Default::default() };
        assert_eq!(s.l1_hit_rate(), 0.75);
    }
}
