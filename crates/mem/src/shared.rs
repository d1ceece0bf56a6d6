//! Banked shared memory with conflict serialization (paper §V-A).
//!
//! Shared memory is divided into 32 banks of 4-byte words. A warp-wide
//! access in which multiple threads touch *different words in the same
//! bank* serializes: the transaction takes `max(words per bank)` bank
//! cycles. An 8-byte traversal-stack entry spans two adjacent banks, so an
//! `SH_8` stack occupies 16 banks and naive entry-0-first access patterns
//! collide heavily — the motivation for the skewed mapping.

use crate::space::{Addr, Cycle};

/// Shared-memory geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedMemConfig {
    /// Number of banks (32 on all modern GPUs).
    pub banks: u32,
    /// Bank word width in bytes (4).
    pub bank_width: u32,
    /// Conflict-free access latency in cycles (same array as L1: 20).
    pub latency: Cycle,
    /// Cycles between warp transactions (port bandwidth).
    pub interval: Cycle,
    /// Cycles each serialized bank pass beyond the first adds: conflicting
    /// accesses replay through the load/store pipe (GPGPU-Sim-style warp
    /// instruction replay), so a pass costs a pipe slot, not one cycle.
    pub conflict_replay_cycles: Cycle,
}

impl Default for SharedMemConfig {
    fn default() -> Self {
        SharedMemConfig {
            banks: 32,
            bank_width: 4,
            latency: 20,
            interval: 1,
            conflict_replay_cycles: 8,
        }
    }
}

/// One SM's shared-memory array (timing model only; stack *contents* are
/// tracked functionally by the RT unit).
#[derive(Debug)]
pub struct SharedMem {
    config: SharedMemConfig,
    port: crate::global::Port,
    bank_words: Vec<Vec<Addr>>,
    /// Warp transactions serviced.
    pub accesses: u64,
    /// Total extra cycles spent serializing bank conflicts (Fig. 14's
    /// "delay cycles").
    pub conflict_cycles: u64,
}

impl SharedMem {
    /// Creates the array.
    pub fn new(config: SharedMemConfig) -> Self {
        SharedMem {
            port: crate::global::Port::new(config.interval),
            bank_words: vec![Vec::new(); config.banks as usize],
            config,
            accesses: 0,
            conflict_cycles: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SharedMemConfig {
        &self.config
    }

    /// Services one warp-wide shared-memory transaction at cycle `at`.
    ///
    /// `accesses` are the per-thread `(byte address, size)` pairs collected
    /// by the memory scheduler for the scheduled warp. Returns the
    /// completion cycle: `latency` plus `conflict_replay_cycles` for every
    /// serialized bank pass beyond the first. Threads reading the *same
    /// word* broadcast and do not conflict.
    pub fn access_warp(
        &mut self,
        at: Cycle,
        accesses: impl IntoIterator<Item = (Addr, u32)>,
    ) -> Cycle {
        for b in &mut self.bank_words {
            b.clear();
        }
        let mut any = false;
        for (addr, size) in accesses {
            if size == 0 {
                continue;
            }
            any = true;
            let first_word = addr / self.config.bank_width as u64;
            let last_word = (addr + size as u64 - 1) / self.config.bank_width as u64;
            for w in first_word..=last_word {
                let bank = (w % self.config.banks as u64) as usize;
                // Same word accessed twice = broadcast, not a conflict.
                if !self.bank_words[bank].contains(&w) {
                    self.bank_words[bank].push(w);
                }
            }
        }
        if !any {
            return at;
        }
        self.accesses += 1;
        let passes = self.bank_words.iter().map(Vec::len).max().unwrap_or(1).max(1) as u64;
        let extra = (passes - 1) * self.config.conflict_replay_cycles;
        self.conflict_cycles += extra;
        // Serialized passes replay through the pipe back to back, costing
        // both latency on this access and bandwidth for the warps behind it.
        let start = self.port.issue_n(at, passes);
        start + self.config.latency + extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sm() -> SharedMem {
        SharedMem::new(SharedMemConfig::default())
    }

    #[test]
    fn conflict_free_access_costs_latency() {
        let mut m = sm();
        // 32 threads, each touching one distinct 4B word in its own bank.
        let accesses: Vec<(Addr, u32)> = (0..32).map(|t| (t as u64 * 4, 4)).collect();
        let done = m.access_warp(0, accesses);
        assert_eq!(done, 20);
        assert_eq!(m.conflict_cycles, 0);
    }

    #[test]
    fn full_conflict_serializes() {
        let mut m = sm();
        // 32 threads touching 32 different words of bank 0 (stride 128B).
        let accesses: Vec<(Addr, u32)> = (0..32).map(|t| (t as u64 * 128, 4)).collect();
        let done = m.access_warp(0, accesses);
        assert_eq!(done, 20 + 31 * 8);
        assert_eq!(m.conflict_cycles, 31 * 8);
    }

    #[test]
    fn broadcast_same_word_is_free() {
        let mut m = sm();
        let accesses: Vec<(Addr, u32)> = (0..32).map(|_| (64u64, 4)).collect();
        let done = m.access_warp(0, accesses);
        assert_eq!(done, 20);
        assert_eq!(m.conflict_cycles, 0);
    }

    #[test]
    fn eight_byte_entries_span_two_banks() {
        let mut m = sm();
        // Two threads at addresses 0 and 128: words 0,1 and 32,33 → banks
        // 0,1 twice → 2 passes.
        let done = m.access_warp(0, [(0u64, 8u32), (128, 8)]);
        assert_eq!(done, 20 + 8);
        assert_eq!(m.conflict_cycles, 8);
    }

    #[test]
    fn skewed_entries_avoid_the_conflict() {
        let mut m = sm();
        // Same two threads, second one offset by one entry (8B): banks 0,1
        // and 2,3 → conflict-free.
        let done = m.access_warp(0, [(0u64, 8u32), (136, 8)]);
        assert_eq!(done, 20);
        assert_eq!(m.conflict_cycles, 0);
    }

    #[test]
    fn empty_transaction_is_free() {
        let mut m = sm();
        let done = m.access_warp(7, std::iter::empty());
        assert_eq!(done, 7);
        assert_eq!(m.accesses, 0);
    }

    #[test]
    fn port_backpressure() {
        let mut m = sm();
        let a = m.access_warp(0, [(0u64, 4u32)]);
        let b = m.access_warp(0, [(4u64, 4u32)]);
        assert_eq!(b, a + 1, "second warp transaction starts one interval later");
    }
}
