//! `SmL1` and `GlobalMemory` against a reference two-table MSHR model.
//!
//! The reference keeps, at each level, the misses in flight in a line →
//! completion map of its own beside the tag store, as the memory model
//! once did: an L1 load asks its map, then the tags; an L2 access asks its
//! map, then the tags, and a load miss adds an entry; a stale entry is
//! dropped when a lookup finds it, and the L2 map is pruned of every entry
//! complete at `at` once it holds more than 4 096. It is built on the
//! public `Cache::{probe, fill}` and a std `HashMap`.
//!
//! Several L1s share one L2. Each L1 sees its accesses in time order, as
//! the simulator's loop presents them; the L2 sees the SMs' accesses out of
//! order, so when its entries are dropped is observable. Every returned
//! cycle and every `MemStats` field must agree.

use std::collections::{HashMap, HashSet};

use sms_mem::{
    AccessKind, Addr, Cache, CacheConfig, Cycle, GlobalMemory, GlobalMemoryConfig, L1Config,
    MemStats, SmL1, LINE_SIZE,
};

/// SplitMix64, in-file: `sms-mem` has no dependencies, dev or otherwise.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// At most one transaction per `interval` cycles.
#[derive(Debug, Clone, Copy)]
struct Port {
    next_free: Cycle,
    interval: Cycle,
}

impl Port {
    fn new(interval: Cycle) -> Self {
        Port { next_free: 0, interval }
    }

    fn issue(&mut self, at: Cycle) -> Cycle {
        let start = at.max(self.next_free);
        self.next_free = start + self.interval;
        start
    }
}

/// Entries beyond which the reference L1 sweeps out completed ones.
const L1_PRUNE: usize = 1024;
/// Entries beyond which the reference L2 sweeps out completed ones.
const L2_PRUNE: usize = 4096;

/// How often the reference met the cases the stream is meant to reach.
#[derive(Debug, Default)]
struct Tally {
    /// Loads merged into the fill of a line no longer in the cache.
    l1_evicted_merges: u64,
    l2_evicted_merges: u64,
    /// L2 accesses merged into a fill issued at a later cycle.
    l2_out_of_order_merges: u64,
    l2_prunes: u64,
}

struct RefGlobal {
    config: GlobalMemoryConfig,
    l2: Cache,
    l2_ports: Vec<Port>,
    dram_ports: Vec<Port>,
    mshr: HashMap<Addr, (Cycle, Cycle)>,
    stats: MemStats,
    /// Lines the tag store holds, kept from `fill`'s evictions.
    resident: HashSet<Addr>,
}

impl RefGlobal {
    fn new(config: GlobalMemoryConfig) -> Self {
        RefGlobal {
            l2: Cache::new(config.l2),
            l2_ports: (0..config.l2_slices).map(|_| Port::new(config.l2_interval)).collect(),
            dram_ports: (0..config.dram_channels)
                .map(|_| Port::new(config.dram_interval))
                .collect(),
            mshr: HashMap::new(),
            config,
            stats: MemStats::default(),
            resident: HashSet::new(),
        }
    }

    fn access_line(&mut self, line: Addr, kind: AccessKind, at: Cycle, tally: &mut Tally) -> Cycle {
        if let Some(&(done, issued)) = self.mshr.get(&line) {
            if done > at {
                tally.l2_evicted_merges += !self.resident.contains(&line) as u64;
                tally.l2_out_of_order_merges += (issued > at) as u64;
                return done;
            }
            self.mshr.remove(&line);
        }

        let slice = ((line / LINE_SIZE) % self.config.l2_slices as u64) as usize;
        let start = self.l2_ports[slice].issue(at);
        let hit = self.l2.probe(line);
        if hit {
            self.stats.l2_hits += 1;
            return start + self.config.l2_latency;
        }
        self.stats.l2_misses += 1;
        let chan = ((line / LINE_SIZE) % self.config.dram_channels as u64) as usize;
        let dram_start = self.dram_ports[chan].issue(start + self.config.l2_latency);
        let done = dram_start + self.config.dram_latency;
        if let Some(evicted) = self.l2.fill(line) {
            self.resident.remove(&evicted);
        }
        self.resident.insert(line);
        if matches!(kind, AccessKind::Load) {
            self.mshr.insert(line, (done, at));
        }
        if self.mshr.len() > L2_PRUNE {
            self.mshr.retain(|_, &mut (done, _)| done > at);
            tally.l2_prunes += 1;
        }
        done
    }
}

struct RefL1 {
    config: L1Config,
    cache: Cache,
    port: Port,
    mshr: HashMap<Addr, Cycle>,
    stats: MemStats,
    resident: HashSet<Addr>,
}

impl RefL1 {
    fn new(config: L1Config) -> Self {
        RefL1 {
            cache: Cache::new(CacheConfig {
                size_bytes: config.size_bytes,
                assoc: 0,
                line_size: LINE_SIZE,
            }),
            port: Port::new(config.interval),
            mshr: HashMap::new(),
            config,
            stats: MemStats::default(),
            resident: HashSet::new(),
        }
    }

    fn access_line(
        &mut self,
        global: &mut RefGlobal,
        line: Addr,
        kind: AccessKind,
        at: Cycle,
        is_stack: bool,
        tally: &mut Tally,
    ) -> Cycle {
        if is_stack {
            self.stats.stack_transactions += 1;
        } else {
            self.stats.data_transactions += 1;
        }
        let start = self.port.issue(at);
        if is_stack && self.config.stack_bypasses_l1 {
            if matches!(kind, AccessKind::Store) {
                self.stats.stores += 1;
            } else {
                self.stats.l1_misses += 1;
                self.stats.stack_l1_misses += 1;
            }
            return global.access_line(line, kind, start + self.config.latency, tally);
        }
        match kind {
            AccessKind::Store => {
                self.stats.stores += 1;
                let _present = self.cache.probe(line);
                global.access_line(line, AccessKind::Store, start + self.config.latency, tally)
            }
            AccessKind::Load => {
                if let Some(&done) = self.mshr.get(&line) {
                    if done > at {
                        tally.l1_evicted_merges += !self.resident.contains(&line) as u64;
                        return done;
                    }
                    self.mshr.remove(&line);
                }
                if self.cache.probe(line) {
                    self.stats.l1_hits += 1;
                    if is_stack {
                        self.stats.stack_l1_hits += 1;
                    }
                    return start + self.config.latency;
                }
                self.stats.l1_misses += 1;
                if is_stack {
                    self.stats.stack_l1_misses += 1;
                }
                let done =
                    global.access_line(line, AccessKind::Load, start + self.config.latency, tally);
                if let Some(evicted) = self.cache.fill(line) {
                    self.resident.remove(&evicted);
                }
                self.resident.insert(line);
                self.mshr.insert(line, done);
                if self.mshr.len() > L1_PRUNE {
                    self.mshr.retain(|_, &mut done| done > at);
                }
                done
            }
        }
    }
}

/// One stream's shape.
struct Stream {
    sms: usize,
    l1: L1Config,
    global: GlobalMemoryConfig,
    /// Lines the cold quarter of the accesses is drawn from.
    lines: u64,
    /// Lines the hot three quarters are drawn from.
    hot: u64,
    ops: u32,
    seed: u64,
}

/// Drives the model and the reference with one stream and returns how
/// often the reference met each case. Each SM's clock advances by 0–7
/// cycles per access of its own (sometimes by a few hundred, so fills
/// complete), so the clocks wander apart and the L2 sees them out of order.
fn check(s: &Stream) -> Tally {
    let mut global = GlobalMemory::new(s.global);
    let mut l1s: Vec<SmL1> = (0..s.sms).map(|_| SmL1::new(s.l1)).collect();
    let mut ref_global = RefGlobal::new(s.global);
    let mut ref_l1s: Vec<RefL1> = (0..s.sms).map(|_| RefL1::new(s.l1)).collect();
    let mut clocks = vec![0; s.sms];
    let mut tally = Tally::default();
    let mut rng = Rng(s.seed);
    for op in 0..s.ops {
        let sm = rng.below(s.sms as u64) as usize;
        clocks[sm] += if rng.below(64) == 0 { 300 + rng.below(300) } else { rng.below(8) };
        let line = if rng.below(4) < 3 { rng.below(s.hot) } else { rng.below(s.lines) };
        let kind = if rng.below(4) == 0 { AccessKind::Store } else { AccessKind::Load };
        let is_stack = rng.below(3) == 0;
        let (at, addr) = (clocks[sm], line * LINE_SIZE);
        let got = l1s[sm].access_line(&mut global, addr, kind, at, is_stack);
        let want = ref_l1s[sm].access_line(&mut ref_global, addr, kind, at, is_stack, &mut tally);
        assert_eq!(got, want, "op {op}: SM {sm} {kind:?} of line {line} at {at}");
    }
    for (sm, (l1, reference)) in l1s.iter().zip(&ref_l1s).enumerate() {
        assert_eq!(l1.stats, reference.stats, "SM {sm}'s L1 counters");
    }
    assert_eq!(global.stats, ref_global.stats, "L2 counters");
    tally
}

fn tiny_global() -> GlobalMemoryConfig {
    GlobalMemoryConfig {
        l2: CacheConfig { size_bytes: 2 * 4 * LINE_SIZE, assoc: 2, line_size: LINE_SIZE },
        l2_slices: 2,
        dram_channels: 2,
        ..GlobalMemoryConfig::default()
    }
}

/// Four-line L1s and an eight-line L2: lines are evicted while their fills
/// are in flight at both levels, and loads merge into those fills.
#[test]
fn tiny_caches_evict_in_flight_lines_and_match_the_reference() {
    let tally = check(&Stream {
        sms: 4,
        l1: L1Config { size_bytes: 4 * LINE_SIZE, ..L1Config::default() },
        global: tiny_global(),
        lines: 1 << 16,
        hot: 12,
        ops: 120_000,
        seed: 0x61,
    });
    assert!(tally.l1_evicted_merges > 100, "{tally:?}");
    assert!(tally.l2_evicted_merges > 100, "{tally:?}");
    assert!(tally.l2_out_of_order_merges > 100, "{tally:?}");
    assert!(tally.l2_prunes > 0, "{tally:?}");
}

/// Cached stack traffic, a 3-set L2 (modulo indexing) and DRAM with one
/// channel: the same cases under other port and geometry arithmetic.
#[test]
fn cached_stack_traffic_and_odd_sets_match_the_reference() {
    let tally = check(&Stream {
        sms: 3,
        l1: L1Config {
            size_bytes: 16 * LINE_SIZE,
            stack_bypasses_l1: false,
            ..L1Config::default()
        },
        global: GlobalMemoryConfig {
            l2: CacheConfig { size_bytes: 4 * 3 * LINE_SIZE, assoc: 4, line_size: LINE_SIZE },
            l2_slices: 3,
            dram_channels: 1,
            ..GlobalMemoryConfig::default()
        },
        lines: 1 << 14,
        hot: 40,
        ops: 120_000,
        seed: 0x62,
    });
    assert!(tally.l1_evicted_merges > 100, "{tally:?}");
    assert!(tally.l2_evicted_merges > 100, "{tally:?}");
    assert!(tally.l2_prunes > 0, "{tally:?}");
}

/// Table I's geometry, with the 8 KB shared-memory carve-out, on eight SMs:
/// more than 4 096 live L2 entries, so the prune runs and drops entries an
/// SM behind in time would still have merged into.
#[test]
fn table_one_geometry_matches_the_reference() {
    let tally = check(&Stream {
        sms: 8,
        l1: L1Config { size_bytes: 56 * 1024, ..L1Config::default() },
        global: GlobalMemoryConfig::default(),
        lines: 1 << 20,
        hot: 2048,
        ops: 200_000,
        seed: 0x63,
    });
    assert!(tally.l2_out_of_order_merges > 100, "{tally:?}");
    assert!(tally.l2_prunes > 0, "{tally:?}");
}

/// A line evicted while its fill is in flight still merges a later load,
/// in the L1 and in the L2, and costs no second miss.
#[test]
fn a_line_evicted_in_flight_still_merges_a_later_load() {
    let mut global = GlobalMemory::new(GlobalMemoryConfig::default());
    let mut l1 = SmL1::new(L1Config { size_bytes: 2 * LINE_SIZE, ..L1Config::default() });
    let first = l1.access_line(&mut global, 0, AccessKind::Load, 0, false);
    l1.access_line(&mut global, LINE_SIZE, AccessKind::Load, 1, false);
    // Line 0 is the LRU line of the two-line L1, and its fill is in flight.
    l1.access_line(&mut global, 2 * LINE_SIZE, AccessKind::Load, 2, false);
    assert!(first > 3);
    assert_eq!(l1.access_line(&mut global, 0, AccessKind::Load, 3, false), first);
    assert_eq!((l1.stats.l1_misses, l1.stats.l1_hits), (3, 0));

    // The same at the L2: one set of two ways.
    let mut global = GlobalMemory::new(GlobalMemoryConfig {
        l2: CacheConfig { size_bytes: 2 * LINE_SIZE, assoc: 2, line_size: LINE_SIZE },
        ..GlobalMemoryConfig::default()
    });
    let first = global.access_line(0, AccessKind::Load, 0);
    global.access_line(LINE_SIZE, AccessKind::Load, 1);
    global.access_line(2 * LINE_SIZE, AccessKind::Load, 2);
    assert_eq!(global.access_line(0, AccessKind::Load, 3), first);
    assert_eq!((global.stats.l2_misses, global.stats.l2_hits), (3, 0));
}

/// The L2 keeps at most 4 096 entries before it prunes the complete ones.
/// An SM behind in time merges into a fill that is complete for another SM
/// until then; after the prune that ran at a later cycle, the same access
/// is an L2 hit.
#[test]
fn an_out_of_order_l2_access_after_a_prune_does_not_merge() {
    let mut global = GlobalMemory::new(GlobalMemoryConfig::default());
    let first = global.access_line(0, AccessKind::Load, 1_000);
    let later = first + 1_000;
    // Distinct lines in sets other than line 0's, each a load miss that
    // adds an entry: 4 096 entries in all, so no prune yet.
    let sets = GlobalMemoryConfig::default().l2.sets();
    let others: Vec<Addr> =
        (1..).filter(|line| line % sets != 0).take(L2_PRUNE).map(|line| line * LINE_SIZE).collect();
    for &addr in &others[..L2_PRUNE - 1] {
        global.access_line(addr, AccessKind::Load, later);
    }
    assert_eq!(global.access_line(0, AccessKind::Load, 1_001), first, "merged before the prune");
    // The 4 097th entry: the prune at `later` drops line 0's complete entry.
    global.access_line(others[L2_PRUNE - 1], AccessKind::Load, later);
    let after = global.access_line(0, AccessKind::Load, 1_001);
    assert_ne!(after, first);
    assert_eq!(global.stats.l2_hits, 1, "line 0 is resident, so an L2 hit");
    assert_eq!(global.stats.l2_misses, 1 + L2_PRUNE as u64);
}
