//! A set-associative LRU cache model.
//!
//! Tracks only tags (the simulator moves data functionally); used for both
//! the fully associative L1D and the 16-way L2 of Table I. The whole cache
//! is a handful of flat arrays indexed by way slot (`set × ways + way`):
//! the line each slot holds, an intrusive doubly-linked LRU list per set
//! threaded through `prev`/`next`, and one line → slot table for the whole
//! cache, so an access is one integer hash and a few array writes whether
//! the set has 16 ways or 512.

use crate::linemap::LineMap;
use crate::space::{Addr, LINE_SIZE};

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
    /// Line number held by each way slot; `INVALID` = empty.
    lines: Vec<u64>,
    /// LRU list links between the slots of one set.
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Most recently used slot of each set.
    head: Vec<u32>,
    /// Least recently used slot of each set.
    tail: Vec<u32>,
    /// Resident line number → slot.
    lookup: LineMap,
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
        Cache {
            config,
            set_count: sets,
            lines: vec![INVALID; slots as usize],
            prev: (0..slots).map(|s| if first(s + 1) { NIL } else { s + 1 }).collect(),
            next: (0..slots).map(|s| if first(s) { NIL } else { s - 1 }).collect(),
            head: (0..slots).step_by(ways as usize).map(|s| s + ways - 1).collect(),
            tail: (0..slots).step_by(ways as usize).collect(),
            lookup: LineMap::with_capacity(slots as usize),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Moves `slot` to the MRU end of `set`'s list.
    fn touch(&mut self, set: usize, slot: u32) {
        if self.head[set] == slot {
            return;
        }
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        // Not the head, so `p` is a slot.
        self.next[p as usize] = n;
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail[set] = p;
        }
        let head = self.head[set];
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = head;
        self.prev[head as usize] = slot;
        self.head[set] = slot;
    }

    /// Looks up the line containing `line_addr`; `true` on hit (promotes to
    /// MRU).
    pub fn probe(&mut self, line_addr: Addr) -> bool {
        let line = line_addr / self.config.line_size;
        match self.lookup.get(line) {
            Some(slot) => {
                self.touch((line % self.set_count) as usize, slot as u32);
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
        let line = line_addr / self.config.line_size;
        let set = (line % self.set_count) as usize;
        let victim = self.tail[set];
        let evicted = std::mem::replace(&mut self.lines[victim as usize], line);
        if evicted != INVALID {
            self.lookup.remove(evicted);
        }
        self.lookup.insert(line, victim as u64);
        self.touch(set, victim);
        (evicted != INVALID).then(|| evicted * self.config.line_size)
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
