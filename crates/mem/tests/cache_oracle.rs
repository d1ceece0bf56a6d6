//! `Cache` against a trivially correct reference LRU.
//!
//! The reference keeps one `Vec` of line numbers per set, most recently
//! used first, and scans it. Every hit/miss answer and every evicted
//! address must agree over 10⁵ mixed `probe`/`fill` operations on three
//! geometries: the fully associative 512-line L1 of Table I, a 2-way ×
//! 3-set toy (non-power-of-two modulo, constant eviction), and Table I's
//! 16-way × 1 536-set L2.

use sms_mem::{Cache, CacheConfig};

const LINE: u64 = 128;

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

struct ReferenceLru {
    ways: usize,
    /// Line numbers per set, most recently used first.
    sets: Vec<Vec<u64>>,
}

impl ReferenceLru {
    fn new(sets: usize, ways: usize) -> Self {
        ReferenceLru { ways, sets: vec![Vec::new(); sets] }
    }

    fn probe(&mut self, addr: u64) -> bool {
        let line = addr / LINE;
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(line % n) as usize];
        match set.iter().position(|&l| l == line) {
            Some(pos) => {
                set.remove(pos);
                set.insert(0, line);
                true
            }
            None => false,
        }
    }

    fn fill(&mut self, addr: u64) -> Option<u64> {
        if self.probe(addr) {
            return None;
        }
        let line = addr / LINE;
        let n = self.sets.len() as u64;
        let ways = self.ways;
        let set = &mut self.sets[(line % n) as usize];
        let evicted = if set.len() == ways { set.pop() } else { None };
        set.insert(0, line);
        evicted.map(|l| l * LINE)
    }
}

/// Drives both models with the same stream: three quarters of the
/// accesses fall on `hot_sets` sets with twice their capacity in distinct
/// lines (hits, LRU reordering and evictions all frequent), the rest
/// anywhere in a 2⁴⁴-line space (large tags, cold sets, spill-region-sized
/// addresses). Offsets inside the line are random too.
fn check(config: CacheConfig, hot_sets: u64, seed: u64) {
    let (sets, ways) = (config.sets(), config.ways());
    let mut cache = Cache::new(config);
    let mut reference = ReferenceLru::new(sets as usize, ways as usize);
    let mut rng = Rng(seed);
    let hot: Vec<u64> =
        (0..hot_sets).map(|i| if i == 0 { sets - 1 } else { rng.below(sets) }).collect();
    let (mut hits, mut evictions) = (0u32, 0u32);
    for op in 0..100_000u32 {
        let line = if rng.below(4) < 3 {
            hot[rng.below(hot_sets) as usize] + sets * rng.below(2 * ways)
        } else {
            rng.below(1 << 44)
        };
        let addr = line * LINE + rng.below(LINE);
        if rng.below(2) == 0 {
            let (got, want) = (cache.probe(addr), reference.probe(addr));
            assert_eq!(got, want, "op {op}: probe of line {line} ({sets} sets x {ways} ways)");
            hits += got as u32;
        } else {
            let (got, want) = (cache.fill(addr), reference.fill(addr));
            assert_eq!(got, want, "op {op}: fill of line {line} ({sets} sets x {ways} ways)");
            evictions += got.is_some() as u32;
        }
    }
    assert!(
        hits > 1_000 && evictions > 1_000,
        "stream too tame: {hits} hits, {evictions} evictions"
    );
}

#[test]
fn fully_associative_l1_matches_reference() {
    check(CacheConfig::l1_default(), 1, 0x51);
}

#[test]
fn two_way_three_sets_matches_reference() {
    check(CacheConfig { size_bytes: 2 * 3 * LINE, assoc: 2, line_size: LINE }, 3, 0x52);
}

#[test]
fn table_one_l2_matches_reference() {
    check(CacheConfig::l2_default(), 48, 0x53);
}
