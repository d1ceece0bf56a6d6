//! The shared L2 cache and DRAM behind all SMs.
//!
//! Misses in flight merge through MSHRs that live in the L2's tag store:
//! each way slot of the [`Cache`] keeps the completion cycle of the load
//! miss that filled it, so an access finds its line once and learns from
//! that one lookup whether it merges, hits or misses. Unlike an L1, the L2
//! sees the SMs' accesses out of time order, so an entry that is complete
//! for one SM can still be merged into by another that is behind it, and
//! when entries are dropped is observable. They therefore live exactly as
//! long as in a table of their own: an access that finds its line's entry
//! complete drops it; a line evicted with an entry keeps it in a side
//! table; and once more than `MSHR_PRUNE` (4 096) entries are kept, in slots and
//! side table together, every one complete at the current access is
//! dropped.

use crate::cache::{Cache, CacheConfig};
use crate::linemap::LineMap;
use crate::space::{AccessKind, Addr, Cycle};
use crate::stats::MemStats;

/// A bandwidth-limited pipeline stage: at most one transaction per
/// `interval` cycles.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Port {
    next_free: Cycle,
    interval: Cycle,
}

impl Port {
    pub(crate) fn new(interval: Cycle) -> Self {
        Port { next_free: 0, interval }
    }

    /// Reserves the port at or after `at`; returns the actual start cycle.
    pub(crate) fn issue(&mut self, at: Cycle) -> Cycle {
        self.issue_n(at, 1)
    }

    /// Reserves the port for `n` back-to-back transaction slots (bank-
    /// conflict replays occupy the pipe for every serialized pass).
    pub(crate) fn issue_n(&mut self, at: Cycle, n: u64) -> Cycle {
        let start = at.max(self.next_free);
        self.next_free = start + self.interval * n.max(1);
        start
    }
}

/// Configuration of the shared memory-side hierarchy (L2 + DRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalMemoryConfig {
    /// L2 geometry (Table I: 3 MB, 16-way).
    pub l2: CacheConfig,
    /// L2 access latency in cycles (Table I: 160, inclusive of interconnect).
    pub l2_latency: Cycle,
    /// Cycles between transactions per L2 slice (bandwidth).
    pub l2_interval: Cycle,
    /// Number of address-interleaved L2 slices (independent ports).
    pub l2_slices: u32,
    /// DRAM access latency in cycles beyond L2.
    pub dram_latency: Cycle,
    /// Cycles between DRAM line transfers per channel (bandwidth).
    pub dram_interval: Cycle,
    /// Number of address-interleaved DRAM channels.
    pub dram_channels: u32,
}

impl Default for GlobalMemoryConfig {
    fn default() -> Self {
        GlobalMemoryConfig {
            l2: CacheConfig::l2_default(),
            l2_latency: 160,
            l2_interval: 1,
            l2_slices: 8,
            dram_latency: 200,
            dram_interval: 2,
            dram_channels: 4,
        }
    }
}

/// MSHR entries beyond which completed ones are pruned.
const MSHR_PRUNE: usize = 4096;

/// The device-level memory system shared by all SMs: L2 cache + DRAM.
///
/// Line-granular. Misses are merged through MSHR entries kept in the L2's
/// way slots, so concurrent requests for an in-flight line share one DRAM
/// transfer.
#[derive(Debug)]
pub struct GlobalMemory {
    config: GlobalMemoryConfig,
    l2: Cache,
    l2_ports: Vec<Port>,
    dram_ports: Vec<Port>,
    /// Line → MSHR entry of lines evicted from the L2 with one.
    evicted: LineMap,
    /// Device-level counters (L2/DRAM only; L1 counters live per SM).
    pub stats: MemStats,
}

impl GlobalMemory {
    /// Creates the memory system.
    pub fn new(config: GlobalMemoryConfig) -> Self {
        assert!(config.l2_slices > 0 && config.dram_channels > 0, "need at least one port");
        GlobalMemory {
            l2: Cache::new(config.l2),
            l2_ports: (0..config.l2_slices).map(|_| Port::new(config.l2_interval)).collect(),
            dram_ports: (0..config.dram_channels)
                .map(|_| Port::new(config.dram_interval))
                .collect(),
            evicted: LineMap::with_capacity(64),
            config,
            stats: MemStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GlobalMemoryConfig {
        &self.config
    }

    /// Accesses one line at L2 level at cycle `at`; returns the completion
    /// cycle (when data would be back at the requesting SM's L1).
    pub fn access_line(&mut self, line: Addr, kind: AccessKind, at: Cycle) -> Cycle {
        let slot = self.l2.find(line);
        // MSHR merge: if this line is already being fetched, ride along.
        let entry = match slot {
            Some(slot) => self.l2.fill_of(slot),
            None if self.evicted.is_empty() => None,
            None => self.evicted.get(line),
        };
        if let Some(done) = entry {
            if done > at {
                return done;
            }
            match slot {
                Some(slot) => self.l2.clear_fill(slot),
                None => self.evicted.remove(line),
            }
        }

        let slice = ((line / crate::space::LINE_SIZE) % self.config.l2_slices as u64) as usize;
        let start = self.l2_ports[slice].issue(at);
        if let Some(slot) = slot {
            self.l2.promote(slot);
            self.stats.l2_hits += 1;
            return start + self.config.l2_latency;
        }
        self.stats.l2_misses += 1;
        let chan = ((line / crate::space::LINE_SIZE) % self.config.dram_channels as u64) as usize;
        let dram_start = self.dram_ports[chan].issue(start + self.config.l2_latency);
        let done = dram_start + self.config.dram_latency;
        let entry = matches!(kind, AccessKind::Load).then_some(done);
        if let Some((evicted, entry)) = self.l2.install(line, entry) {
            self.evicted.insert(evicted, entry);
        }
        // Periodically prune stale MSHR entries to bound memory.
        if self.l2.fill_count() + self.evicted.len() > MSHR_PRUNE {
            self.l2.clear_fills_done_by(at);
            self.evicted.retain(|done| done > at);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gm() -> GlobalMemory {
        GlobalMemory::new(GlobalMemoryConfig::default())
    }

    #[test]
    fn l2_hit_faster_than_miss() {
        let mut m = gm();
        let miss = m.access_line(0, AccessKind::Load, 0);
        let hit = m.access_line(0, AccessKind::Load, miss);
        assert!(miss > 160, "cold miss goes to DRAM");
        assert_eq!(hit - miss, 160, "L2 hit costs exactly l2_latency");
        assert_eq!(m.stats.l2_hits, 1);
        assert_eq!(m.stats.l2_misses, 1);
    }

    #[test]
    fn mshr_merges_inflight_lines() {
        let mut m = gm();
        let first = m.access_line(0, AccessKind::Load, 0);
        let second = m.access_line(0, AccessKind::Load, 5);
        assert_eq!(first, second, "second requester shares the fetch");
        assert_eq!(m.stats.l2_misses, 1);
    }

    #[test]
    fn dram_bandwidth_serializes() {
        let mut m = gm();
        // Two distinct cold lines at the same cycle: second DRAM transfer
        // starts dram_interval later.
        let a = m.access_line(0, AccessKind::Load, 0);
        let b = m.access_line(4096, AccessKind::Load, 0);
        // DRAM is the binding constraint: transfers are dram_interval apart.
        assert_eq!(b - a, m.config.dram_interval);
    }

    #[test]
    fn monotonic_time() {
        let mut m = gm();
        let mut t = 0;
        for i in 0..100u64 {
            let done = m.access_line(i * 128, AccessKind::Load, i);
            assert!(done > i);
            t = t.max(done);
        }
        assert!(t > 0);
    }
}
