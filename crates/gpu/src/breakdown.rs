//! Cycle-attribution taxonomy: where every simulated cycle goes.
//!
//! [`StallBreakdown`] is the pure-observation companion to [`SimStats`]:
//! when attribution is armed, the simulator charges every resident cycle of
//! every warp to exactly one *warp-level* bucket, and every cycle of every
//! lane of an RT-resident warp to exactly one *lane-level* bucket. The two
//! conservation laws are checked by the accounting code itself
//! ([`StallBreakdown::warp_sum`] / [`StallBreakdown::lane_sum`] against the
//! recorded totals), so a bucket that silently leaks cycles is a loud
//! failure rather than a skewed table.
//!
//! Units differ between the two levels on purpose:
//!
//! * warp-level buckets count **warp-cycles** (one per warp per cycle the
//!   warp is resident on an SM) — this is the SM scheduler's view and the
//!   level at which IPC differences between stack configurations appear;
//! * lane-level buckets count **lane-cycles** (one per lane per cycle the
//!   warp sits in an RT-unit slot, 32 per warp-cycle) — this is where the
//!   paper's stack traffic, bank conflicts and memory latencies live.
//!
//! All counters are additive under [`StallBreakdown::merge`], so per-SM and
//! per-run instances aggregate the same way [`SimStats`] does.
//!
//! [`SimStats`]: crate::SimStats

sms_mem::counter_record! {
    /// Per-run stall/attribution counters. Observation-only: arming the
    /// attribution layer changes no scheduling decision and no [`SimStats`]
    /// counter (asserted by `crates/core/tests/` and the fig13 sweep check).
    ///
    /// [`SimStats`]: crate::SimStats
    pub struct StallBreakdown {
        // --- Warp-level buckets (warp-cycles, SM view). ---
        /// Cycles in a compute phase (ray-gen / shade / accumulate), including
        /// cycles lost to issue-width arbitration between compute warps.
        pub compute: u64,
        /// Cycles waiting on non-stack memory (material-record loads).
        pub mem_wait: u64,
        /// Cycles holding a trace request while the RT unit's warp buffer is
        /// full (admission wait).
        pub rt_admit: u64,
        /// Cycles resident in an RT-unit warp slot.
        pub in_rt: u64,
        /// Total warp-resident cycles: launch-to-retire per warp, summed.
        /// Invariant: `warp_sum() == warp_cycles`.
        pub warp_cycles: u64,

        // --- Lane-level buckets (lane-cycles, RT-unit view). ---
        /// Issuable (node fetch or stack op pending) but not yet picked by the
        /// RT unit's GTO scheduler.
        pub rt_sched_wait: u64,
        /// Node/primitive fetch in flight, served by the L1.
        pub fetch_wait_l1: u64,
        /// Node/primitive fetch in flight, served by the L2.
        pub fetch_wait_l2: u64,
        /// Node/primitive fetch in flight, served by DRAM.
        pub fetch_wait_dram: u64,
        /// Ray-box / ray-triangle operation unit busy.
        pub op_wait: u64,
        /// Blocking stack micro-op between the RB stack and the SH level
        /// (shared-memory refill reads), minus bank-conflict replay cycles.
        pub stack_wait_rb_sh: u64,
        /// Blocking stack micro-op between the SH level (or the RB stack in
        /// baseline configurations) and global memory: spill reloads.
        pub stack_wait_sh_global: u64,
        /// Blocking phase of an intra-warp reallocation flush (the warp-wide
        /// shared-memory burst read; the global burst store is posted).
        pub stack_wait_flush: u64,
        /// Shared-memory bank-conflict replay cycles charged to blocked lanes
        /// (carved out of the stack-wait buckets above).
        pub bank_conflict_replay: u64,
        /// Lane-cycles spent on ray-path-predictor probes: the fetch and
        /// operation waits of the speculative predicted-leaf visit, confirmed
        /// or mispredicted (`SimStats::pred_hits` / `pred_misses` split the
        /// two). Zero unless a `PRED_*` configuration is in use.
        pub predictor_wait: u64,
        /// Lane idle inside a resident warp: traversal finished early, or the
        /// lane was inactive in the trace request.
        pub rt_idle: u64,
        /// Total lane-cycles of RT residency (`32 ×` the warp-level `in_rt`).
        /// Invariant: `lane_sum() == rt_lane_cycles`.
        pub rt_lane_cycles: u64,
    }
}

impl StallBreakdown {
    /// Sum of the warp-level buckets; equals [`StallBreakdown::warp_cycles`]
    /// on any complete run (every resident cycle attributed exactly once).
    pub fn warp_sum(&self) -> u64 {
        self.compute + self.mem_wait + self.rt_admit + self.in_rt
    }

    /// Sum of the lane-level buckets; equals
    /// [`StallBreakdown::rt_lane_cycles`] on any complete run.
    pub fn lane_sum(&self) -> u64 {
        self.rt_sched_wait
            + self.fetch_wait_l1
            + self.fetch_wait_l2
            + self.fetch_wait_dram
            + self.op_wait
            + self.stack_wait_rb_sh
            + self.stack_wait_sh_global
            + self.stack_wait_flush
            + self.bank_conflict_replay
            + self.predictor_wait
            + self.rt_idle
    }

    /// All blocking stack-wait lane-cycles (all levels + conflict replay).
    pub fn stack_wait_total(&self) -> u64 {
        self.stack_wait_rb_sh
            + self.stack_wait_sh_global
            + self.stack_wait_flush
            + self.bank_conflict_replay
    }

    /// All node/primitive fetch-wait lane-cycles.
    pub fn fetch_wait_total(&self) -> u64 {
        self.fetch_wait_l1 + self.fetch_wait_l2 + self.fetch_wait_dram
    }

    /// `true` when both conservation laws hold.
    pub fn is_conserved(&self) -> bool {
        self.warp_sum() == self.warp_cycles && self.lane_sum() == self.rt_lane_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_cover_every_bucket() {
        // Fill every field with a distinct value; the sums must see each
        // bucket exactly once and the totals not at all.
        let b = StallBreakdown {
            compute: 1,
            mem_wait: 2,
            rt_admit: 4,
            in_rt: 8,
            warp_cycles: 15,
            rt_sched_wait: 16,
            fetch_wait_l1: 32,
            fetch_wait_l2: 64,
            fetch_wait_dram: 128,
            op_wait: 256,
            stack_wait_rb_sh: 512,
            stack_wait_sh_global: 1024,
            stack_wait_flush: 2048,
            bank_conflict_replay: 4096,
            predictor_wait: 8192,
            rt_idle: 16384,
            rt_lane_cycles: 32752,
        };
        assert_eq!(b.warp_sum(), 15);
        assert_eq!(b.lane_sum(), 32752);
        assert!(b.is_conserved());
        assert_eq!(b.stack_wait_total(), 512 + 1024 + 2048 + 4096);
        assert_eq!(b.fetch_wait_total(), 32 + 64 + 128);
    }

    #[test]
    fn merge_is_fieldwise_addition() {
        let mut a = StallBreakdown { compute: 1, rt_idle: 2, ..Default::default() };
        let b = StallBreakdown { compute: 10, bank_conflict_replay: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.compute, 11);
        assert_eq!(a.rt_idle, 2);
        assert_eq!(a.bank_conflict_replay, 3);
    }

    #[test]
    fn default_is_conserved() {
        assert!(StallBreakdown::default().is_conserved());
    }
}
