//! Whole-simulation statistics.

use sms_mem::MemStats;

sms_mem::counter_record! {
    /// Counters accumulated over one simulation run.
    ///
    /// `thread_instructions + node_visits` is the committed-instruction count
    /// used for IPC. Traversal work (`node_visits`, per-thread) is identical
    /// across stack configurations by construction, so normalized IPC between
    /// two configurations reduces to their inverse cycle ratio — the paper's
    /// methodology for Figs. 6, 8, 13 and 15.
    pub struct SimStats {
        /// Total cycles simulated. Merges by maximum, not sum: per-SM partial
        /// stats cover the same wall of cycles.
        pub cycles: u64 => max,
        /// Thread-level compute instructions committed by the SIMT core model.
        pub thread_instructions: u64,
        /// BVH node visits committed by RT units (thread-level).
        pub node_visits: u64,
        /// Rays fully traced (nearest-hit queries).
        pub rays_traced: u64,
        /// Shadow/occlusion rays traced.
        pub shadow_rays: u64,
        /// Traversal-stack spills from the RB stack to the level below.
        pub rb_spills: u64,
        /// Traversal-stack reloads into the RB stack from the level below.
        pub rb_reloads: u64,
        /// Spills from shared memory to global memory (SMS only).
        pub sh_spills: u64,
        /// Reloads from global memory into shared memory (SMS only).
        pub sh_reloads: u64,
        /// Whole-stack flushes performed by intra-warp reallocation.
        pub ra_flushes: u64,
        /// SH stacks borrowed by intra-warp reallocation.
        pub ra_borrows: u64,
        /// Ray-path predictor probes that confirmed (predicted leaf hit).
        /// Zero unless a `PRED_*` stack configuration is in use.
        pub pred_hits: u64,
        /// Ray-path predictor probes that mispredicted (fell back to the full
        /// stacked traversal). Zero unless a `PRED_*` configuration is in use.
        pub pred_misses: u64,
        nested {
            /// Aggregated memory-system counters.
            pub mem: MemStats,
        }
    }
}

impl SimStats {
    /// Committed instructions (compute + traversal).
    pub fn instructions(&self) -> u64 {
        self.thread_instructions + self.node_visits
    }

    /// Instructions per cycle; `0` for an empty run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions() as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_zero_cycles() {
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn ipc_counts_compute_and_traversal() {
        let s = SimStats {
            cycles: 100,
            thread_instructions: 300,
            node_visits: 200,
            ..Default::default()
        };
        assert_eq!(s.instructions(), 500);
        assert_eq!(s.ipc(), 5.0);
    }

    #[test]
    fn merge_maxes_cycles_sums_work() {
        let mut a = SimStats { cycles: 10, node_visits: 1, ..Default::default() };
        let b = SimStats { cycles: 25, node_visits: 2, rb_spills: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.cycles, 25);
        assert_eq!(a.node_visits, 3);
        assert_eq!(a.rb_spills, 3);
    }
}
