//! A set-associative LRU cache model.
//!
//! Tracks only tags (the simulator moves data functionally); used for both
//! the fully associative L1D and the 16-way L2 of Table I. The whole cache
//! is one array of way slots (`set × ways + way`), each one record of the
//! line it holds, the completion cycle of the fill that brought the line in
//! while the owner keeps one, and its links in an intrusive doubly-linked
//! LRU list per set, plus one line → slot table for the whole cache, so an
//! access is one integer hash and a few writes whether the set has 16 ways
//! or 512.
//!
//! The fill cycles are the MSHRs of [`SmL1`](crate::SmL1) and
//! [`GlobalMemory`](crate::GlobalMemory): a level finds a line's slot once
//! and reads from it both whether the line is resident and whether its
//! fill is still in flight. Each level keeps the fills of lines evicted in
//! flight in a side table of its own. The public `probe`/`fill` pair leaves
//! the fill cycles alone.

use crate::linemap::LineMap;
use crate::space::{Addr, Cycle, LINE_SIZE};

/// Static configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity; `0` means fully associative.
    pub assoc: u32,
    /// Line size in bytes.
    pub line_size: u64,
}

impl CacheConfig {
    /// The paper's baseline L1D: 64 KB, fully associative.
    pub fn l1_default() -> Self {
        CacheConfig { size_bytes: 64 * 1024, assoc: 0, line_size: LINE_SIZE }
    }

    /// The paper's L2: 3 MB, 16-way.
    pub fn l2_default() -> Self {
        CacheConfig { size_bytes: 3 * 1024 * 1024, assoc: 16, line_size: LINE_SIZE }
    }

    /// Number of lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_size
    }

    /// Number of sets (1 for fully associative).
    pub fn sets(&self) -> u64 {
        if self.assoc == 0 {
            1
        } else {
            (self.lines() / self.assoc as u64).max(1)
        }
    }

    /// Ways per set.
    pub fn ways(&self) -> u64 {
        if self.assoc == 0 {
            self.lines()
        } else {
            self.assoc as u64
        }
    }
}

const NIL: u32 = u32::MAX;
/// The line number of a slot that holds nothing yet.
const INVALID: u64 = u64::MAX;
/// The fill cycle of a slot whose owner keeps none for it.
const NO_FILL: Cycle = Cycle::MAX;
/// One way slot: the line it holds, the completion
/// cycle of its fill and its links in the set's LRU list, in one record.
#[derive(Debug, Clone, Copy)]
struct Way {
    /// Line number held; `INVALID` = empty.
    line: u64,
    /// Completion cycle of the fill; `NO_FILL` = none kept.
    fill: Cycle,
    /// The neighbouring slots toward the MRU (`prev`) and LRU (`next`) end.
    prev: u32,
    next: u32,
}

/// A tag-only set-associative LRU cache.
///
/// # Example
///
/// ```
/// use sms_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { size_bytes: 256, assoc: 2, line_size: 128 });
/// assert!(!c.probe(0));      // cold miss
/// c.fill(0);
/// assert!(c.probe(0));       // hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    set_count: u64,
    ways: u32,
    /// Way slot `set × ways + way`.
    slots: Vec<Way>,
    /// Most recently used slot of each set.
    head: Vec<u32>,
    /// Least recently used slot of each set.
    tail: Vec<u32>,
    /// Resident line number → slot.
    lookup: LineMap,
    /// Slots whose fill cycle is not `NO_FILL`.
    fill_count: usize,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not describe at least one full set
    /// (size must be a multiple of `line_size * ways`).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways();
        assert!(ways >= 1 && sets >= 1, "degenerate cache config {config:?}");
        assert!(
            sets * ways * config.line_size == config.size_bytes,
            "cache size {} not divisible into {} sets x {} ways x {}B lines",
            config.size_bytes,
            sets,
            ways,
            config.line_size
        );
        assert!(sets * ways < NIL as u64, "way slots are indexed by u32");
        let slots = (sets * ways) as u32;
        // Each set's list starts as its slots in descending order, all
        // empty: the first fills take slot 0, 1, 2, … of the set.
        let ways = ways as u32;
        let first = |slot: u32| slot.is_multiple_of(ways);
        let way = |s: u32| Way {
            line: INVALID,
            fill: NO_FILL,
            prev: if first(s + 1) { NIL } else { s + 1 },
            next: if first(s) { NIL } else { s - 1 },
        };
        Cache {
            config,
            set_count: sets,
            ways,
            slots: (0..slots).map(way).collect(),
            head: (0..slots).step_by(ways as usize).map(|s| s + ways - 1).collect(),
            tail: (0..slots).step_by(ways as usize).collect(),
            lookup: LineMap::with_capacity(slots as usize),
            fill_count: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Looks up the line containing `line_addr`; `true` on hit (promotes to
    /// MRU).
    pub fn probe(&mut self, line_addr: Addr) -> bool {
        match self.find(line_addr) {
            Some(slot) => {
                self.promote(slot);
                true
            }
            None => false,
        }
    }

    /// Installs the line containing `line_addr`, evicting the set's LRU line
    /// if needed. Returns the evicted line address, if any.
    pub fn fill(&mut self, line_addr: Addr) -> Option<Addr> {
        if self.probe(line_addr) {
            return None;
        }
        let (evicted, fill) = self.replace(line_addr / self.config.line_size, NO_FILL);
        self.fill_count -= (fill != NO_FILL) as usize;
        (evicted != INVALID).then(|| evicted * self.config.line_size)
    }

    /// The way slot holding the line containing `line_addr`, if resident.
    /// The LRU order is left alone.
    #[inline]
    pub(crate) fn find(&self, line_addr: Addr) -> Option<u32> {
        self.lookup.get(line_addr / self.config.line_size).map(|slot| slot as u32)
    }

    /// Makes `slot` its set's most recently used.
    #[inline]
    pub(crate) fn promote(&mut self, slot: u32) {
        self.touch((slot / self.ways) as usize, slot);
    }

    /// Moves `slot` to the MRU end of `set`'s list.
    fn touch(&mut self, set: usize, slot: u32) {
        let head = self.head[set];
        if head == slot {
            return;
        }
        let Way { prev: p, next: n, .. } = self.slots[slot as usize];
        // Not the head, so `p` is a slot.
        self.slots[p as usize].next = n;
        if n != NIL {
            self.slots[n as usize].prev = p;
        } else {
            self.tail[set] = p;
        }
        let way = &mut self.slots[slot as usize];
        way.prev = NIL;
        way.next = head;
        self.slots[head as usize].prev = slot;
        self.head[set] = slot;
    }

    /// The completion cycle of `slot`'s fill, if one is kept.
    #[inline]
    pub(crate) fn fill_of(&self, slot: u32) -> Option<Cycle> {
        let done = self.slots[slot as usize].fill;
        (done != NO_FILL).then_some(done)
    }

    /// Forgets `slot`'s fill cycle.
    pub(crate) fn clear_fill(&mut self, slot: u32) {
        let fill = std::mem::replace(&mut self.slots[slot as usize].fill, NO_FILL);
        self.fill_count -= (fill != NO_FILL) as usize;
    }

    /// Slots that keep a fill cycle.
    pub(crate) fn fill_count(&self) -> usize {
        self.fill_count
    }

    /// Forgets every fill cycle at or before `at`.
    pub(crate) fn clear_fills_done_by(&mut self, at: Cycle) {
        for way in &mut self.slots {
            if way.fill <= at {
                way.fill = NO_FILL;
                self.fill_count -= 1;
            }
        }
    }

    /// Installs the line containing `line_addr`, which must not be
    /// resident, as its set's most recently used, with `fill` as its fill
    /// cycle. Returns the line it evicted and that line's fill cycle when
    /// one was kept.
    pub(crate) fn install(
        &mut self,
        line_addr: Addr,
        fill: Option<Cycle>,
    ) -> Option<(Addr, Cycle)> {
        debug_assert!(self.find(line_addr).is_none(), "installing a resident line");
        let fill = fill.unwrap_or(NO_FILL);
        let (evicted, evicted_fill) = self.replace(line_addr / self.config.line_size, fill);
        self.fill_count += (fill != NO_FILL) as usize;
        if evicted_fill == NO_FILL {
            return None;
        }
        self.fill_count -= 1;
        Some((evicted * self.config.line_size, evicted_fill))
    }

    /// Puts line number `line`, which is not resident, in its set's LRU
    /// slot with fill cycle `fill` and makes it the MRU; returns the line
    /// number the slot held (`INVALID` if none) and its fill cycle. The
    /// caller keeps `fill_count`.
    fn replace(&mut self, line: u64, fill: Cycle) -> (u64, Cycle) {
        let set = (line % self.set_count) as usize;
        let victim = self.tail[set];
        let way = &mut self.slots[victim as usize];
        let evicted = std::mem::replace(&mut way.line, line);
        let evicted_fill = std::mem::replace(&mut way.fill, fill);
        if evicted != INVALID {
            self.lookup.remove(evicted);
        }
        self.lookup.insert(line, victim as u64);
        self.touch(set, victim);
        (evicted, evicted_fill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(assoc: u32) -> Cache {
        Cache::new(CacheConfig { size_bytes: 512, assoc, line_size: 128 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(0);
        assert!(!c.probe(0));
        c.fill(0);
        assert!(c.probe(0));
        assert!(c.probe(64), "same line, different offset");
        assert!(!c.probe(128));
    }

    #[test]
    fn lru_eviction_order_fully_associative() {
        let mut c = tiny(0); // 4 lines
        for i in 0..4u64 {
            c.fill(i * 128);
        }
        // Touch line 0 to make line 1 the LRU.
        assert!(c.probe(0));
        let evicted = c.fill(4 * 128);
        assert_eq!(evicted, Some(128));
        assert!(c.probe(0));
        assert!(!c.probe(128));
        assert!(c.probe(4 * 128));
    }

    #[test]
    fn set_associative_conflicts() {
        // 2 sets x 2 ways. Lines 0, 2, 4 map to set 0.
        let mut c = tiny(2);
        c.fill(0);
        c.fill(2 * 128);
        c.fill(4 * 128); // evicts line 0 (LRU of set 0)
        assert!(!c.probe(0));
        assert!(c.probe(2 * 128));
        assert!(c.probe(4 * 128));
        // Set 1 lines unaffected.
        c.fill(128);
        assert!(c.probe(128));
    }

    #[test]
    fn refill_same_line_is_idempotent() {
        let mut c = tiny(0);
        c.fill(0);
        assert_eq!(c.fill(0), None);
        assert!(c.probe(0));
    }

    #[test]
    fn capacity_eviction_count() {
        let mut c = Cache::new(CacheConfig { size_bytes: 64 * 1024, assoc: 0, line_size: 128 });
        // Fill 512 lines; none evicted.
        let mut evictions = 0;
        for i in 0..512u64 {
            if c.fill(i * 128).is_some() {
                evictions += 1;
            }
        }
        assert_eq!(evictions, 0);
        // The 513th evicts exactly one.
        assert!(c.fill(512 * 128).is_some());
    }

    #[test]
    fn non_power_of_two_set_count_works() {
        // The Table I L2 (3MB, 16-way) has 1536 sets; indexing is modulo.
        let mut c = Cache::new(CacheConfig { size_bytes: 3 * 128 * 2, assoc: 2, line_size: 128 });
        for i in 0..6u64 {
            c.fill(i * 128);
        }
        for i in 0..6u64 {
            assert!(c.probe(i * 128), "line {i} must still be resident");
        }
    }

    #[test]
    fn default_configs_are_valid() {
        let _ = Cache::new(CacheConfig::l1_default());
        let _ = Cache::new(CacheConfig::l2_default());
        assert_eq!(CacheConfig::l1_default().lines(), 512);
        assert_eq!(CacheConfig::l2_default().sets(), 1536);
    }
}
