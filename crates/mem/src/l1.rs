//! The per-SM L1 data cache (the L1D half of the unified L1/shared array).
//!
//! Misses in flight merge through MSHRs that live in the tag store: each
//! way slot of the [`Cache`] keeps the completion cycle of the fill that
//! brought its line in, so a load finds its line once and learns from that
//! one lookup whether it hits, merges into a fill in flight or misses. A
//! line evicted while its fill is in flight keeps the fill in a side table
//! until the fill completes. An SM presents its accesses in time order (the
//! simulator's loop passes its `now`), so a fill complete at one access is
//! complete at every later one: which complete fills are still recorded
//! cannot be observed, and none is kept past its eviction.

use crate::cache::{Cache, CacheConfig};
use crate::global::GlobalMemory;
use crate::linemap::LineMap;
use crate::space::{AccessKind, Addr, Cycle, LINE_SIZE};
use crate::stats::MemStats;

/// Configuration of one SM's L1D slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Capacity in bytes. Table I: 64 KB unified; SMS configurations carve
    /// shared-memory bytes out of this (e.g. 56 KB L1D + 8 KB shared).
    pub size_bytes: u64,
    /// L1 hit latency (Table I: 20 cycles).
    pub latency: Cycle,
    /// Cycles between L1 transactions (port bandwidth).
    pub interval: Cycle,
    /// Traversal-stack spill/reload traffic bypasses the L1 and is serviced
    /// by L2/DRAM. This matches the paper's model, which consistently
    /// accounts spill traffic as *off-chip* (§II-C "frequent off-chip
    /// memory accesses for stack maintenance", Fig. 7 "older addresses
    /// migrate to slower, off-chip global memory", and Fig. 15b where spill
    /// traffic directly moves the off-chip access count). Set to `false`
    /// for the cached-spills ablation bench.
    pub stack_bypasses_l1: bool,
}

impl Default for L1Config {
    fn default() -> Self {
        L1Config { size_bytes: 64 * 1024, latency: 20, interval: 1, stack_bypasses_l1: true }
    }
}

/// The side table of lines evicted in flight is first swept of complete
/// fills once it holds more than this many; after a sweep, once it holds
/// twice what the sweep kept.
const EVICTED_SWEEP: usize = 64;

/// One SM's L1 data cache, backed by the shared [`GlobalMemory`].
///
/// Policy: loads allocate; stores are write-through without allocation
/// (they update the line if present), the common GPU L1 policy. This is why
/// spill *stores* always produce off-chip traffic in the baseline.
#[derive(Debug)]
pub struct SmL1 {
    config: L1Config,
    cache: Cache,
    port: crate::global::Port,
    /// Line → completion cycle of fills in flight whose line was evicted.
    evicted: LineMap,
    /// `evicted`'s size at which it is next swept.
    sweep_at: usize,
    /// The latest `at` passed to `access_line`: the fill cycles are exact
    /// only while no access comes earlier than one before it.
    last_at: Cycle,
    /// Per-SM counters (L1 hits/misses, stores, transaction classes).
    pub stats: MemStats,
}

impl SmL1 {
    /// Creates an empty L1.
    pub fn new(config: L1Config) -> Self {
        SmL1 {
            cache: Cache::new(CacheConfig {
                size_bytes: config.size_bytes,
                assoc: 0, // Table I: fully associative
                line_size: LINE_SIZE,
            }),
            port: crate::global::Port::new(config.interval),
            evicted: LineMap::with_capacity(EVICTED_SWEEP),
            sweep_at: EVICTED_SWEEP,
            last_at: 0,
            config,
            stats: MemStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &L1Config {
        &self.config
    }

    /// Accesses one line-aligned address at cycle `at`; returns the cycle at
    /// which the access completes (data available / store accepted).
    ///
    /// `is_stack` tags the transaction as traversal-stack spill/reload
    /// traffic for the Fig. 15b off-chip accounting. Calls must come in
    /// time order: `at` never below the `at` of an earlier call (checked in
    /// debug builds).
    pub fn access_line(
        &mut self,
        global: &mut GlobalMemory,
        line: Addr,
        kind: AccessKind,
        at: Cycle,
        is_stack: bool,
    ) -> Cycle {
        debug_assert!(at >= self.last_at, "L1 access at {at} after one at {}", self.last_at);
        self.last_at = at;
        if is_stack {
            self.stats.stack_transactions += 1;
        } else {
            self.stats.data_transactions += 1;
        }
        let start = self.port.issue(at);
        if is_stack && self.config.stack_bypasses_l1 {
            // Off-chip spill path: through the L1 port/crossbar but not the
            // cache. Stores stay posted; loads pay the L2/DRAM round trip.
            if matches!(kind, AccessKind::Store) {
                self.stats.stores += 1;
            } else {
                self.stats.l1_misses += 1;
                self.stats.stack_l1_misses += 1;
            }
            return global.access_line(line, kind, start + self.config.latency);
        }
        match kind {
            AccessKind::Store => {
                // Write-through, no-allocate: update if present, always send
                // down. The store completes (for dependence purposes) when
                // accepted by L2.
                self.stats.stores += 1;
                if let Some(slot) = self.cache.find(line) {
                    self.cache.promote(slot);
                }
                global.access_line(line, AccessKind::Store, start + self.config.latency)
            }
            AccessKind::Load => {
                let slot = self.cache.find(line);
                // MSHR merge: a load of a line in flight rides along.
                let fill = match slot {
                    Some(slot) => self.cache.fill_of(slot),
                    None if self.evicted.is_empty() => None,
                    None => self.evicted.get(line),
                };
                if let Some(done) = fill.filter(|&done| done > at) {
                    return done;
                }
                if let Some(slot) = slot {
                    self.cache.promote(slot);
                    self.stats.l1_hits += 1;
                    if is_stack {
                        self.stats.stack_l1_hits += 1;
                    }
                    return start + self.config.latency;
                }
                if fill.is_some() {
                    self.evicted.remove(line);
                }
                self.stats.l1_misses += 1;
                if is_stack {
                    self.stats.stack_l1_misses += 1;
                }
                let done = global.access_line(line, AccessKind::Load, start + self.config.latency);
                if let Some((evicted, fill)) = self.cache.install(line, Some(done)) {
                    if fill > at {
                        self.evicted.insert(evicted, fill);
                        if self.evicted.len() > self.sweep_at {
                            self.evicted.retain(|done| done > at);
                            self.sweep_at = EVICTED_SWEEP.max(2 * self.evicted.len());
                        }
                    }
                }
                done
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::GlobalMemoryConfig;

    fn setup() -> (SmL1, GlobalMemory) {
        (SmL1::new(L1Config::default()), GlobalMemory::new(GlobalMemoryConfig::default()))
    }

    #[test]
    fn load_miss_then_hit() {
        let (mut l1, mut gm) = setup();
        let miss = l1.access_line(&mut gm, 0, AccessKind::Load, 0, false);
        let hit = l1.access_line(&mut gm, 0, AccessKind::Load, miss, false);
        assert!(miss > 20 + 160, "cold miss reaches DRAM");
        assert_eq!(hit - miss, 20, "L1 hit costs l1 latency");
        assert_eq!(l1.stats.l1_hits, 1);
        assert_eq!(l1.stats.l1_misses, 1);
    }

    #[test]
    fn store_is_write_through() {
        let (mut l1, mut gm) = setup();
        let done = l1.access_line(&mut gm, 0, AccessKind::Store, 0, true);
        assert!(done > 20, "store passes through to L2");
        assert_eq!(l1.stats.stores, 1);
        assert_eq!(l1.stats.l1_hits + l1.stats.l1_misses, 0, "stores are not load lookups");
        // Store did not allocate: a following load misses.
        let load = l1.access_line(&mut gm, 0, AccessKind::Load, done, true);
        assert_eq!(l1.stats.l1_misses, 1);
        assert!(load > done + 20);
    }

    #[test]
    fn mshr_merges_concurrent_loads() {
        let (mut l1, mut gm) = setup();
        let a = l1.access_line(&mut gm, 0, AccessKind::Load, 0, false);
        let b = l1.access_line(&mut gm, 0, AccessKind::Load, 1, false);
        assert_eq!(a, b);
        assert_eq!(l1.stats.l1_misses, 1);
        assert_eq!(l1.stats.l1_hits, 0, "merged, not a hit");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "L1 access at 5 after one at 6")]
    fn an_access_before_an_earlier_one_is_refused_in_debug_builds() {
        let (mut l1, mut gm) = setup();
        l1.access_line(&mut gm, 0, AccessKind::Load, 6, false);
        l1.access_line(&mut gm, 128, AccessKind::Load, 5, false);
    }

    #[test]
    fn stack_vs_data_transaction_classes() {
        let (mut l1, mut gm) = setup();
        l1.access_line(&mut gm, 0, AccessKind::Load, 0, true);
        l1.access_line(&mut gm, 128, AccessKind::Load, 0, false);
        assert_eq!(l1.stats.stack_transactions, 1);
        assert_eq!(l1.stats.data_transactions, 1);
    }

    #[test]
    fn capacity_eviction_causes_remisses() {
        let mut l1 = SmL1::new(L1Config { size_bytes: 1024, ..Default::default() }); // 8 lines
        let mut gm = GlobalMemory::new(GlobalMemoryConfig::default());
        let mut t = 0;
        for i in 0..16u64 {
            t = l1.access_line(&mut gm, i * 128, AccessKind::Load, t, false);
        }
        // Line 0 was evicted by the working set overflow.
        l1.access_line(&mut gm, 0, AccessKind::Load, t + 10_000, false);
        assert_eq!(l1.stats.l1_misses, 17);
    }
}
