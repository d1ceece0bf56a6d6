//! Properties of the memory models against simple oracles. (`Cache` vs a
//! reference LRU lives beside the model, in
//! `crates/mem/tests/cache_oracle.rs`.)

use sms_geom::check::for_cases;
use sms_mem::{coalesce_lines, SharedMem, SharedMemConfig};
use std::collections::BTreeSet;

const CASES: u64 = 10_000;

#[test]
fn coalescing_is_exact_line_cover() {
    for_cases(CASES, 0xC0A, |g| {
        // Up to a warp's worth of accesses (and then some), some empty,
        // some spanning four 128-byte lines.
        let accesses = g.vec(0, 64, |g| (g.rng.below(100_000), g.int(0, 300) as u32));
        // The oracle asks every accessed byte for its line.
        let cover: BTreeSet<u64> = accesses
            .iter()
            .flat_map(|&(addr, size)| (addr..addr + size as u64).map(|byte| byte & !127))
            .collect();
        // Sorted, unique, and exactly the cover: no byte uncovered, no
        // line that covers no access.
        assert_eq!(coalesce_lines(accesses), cover.into_iter().collect::<Vec<_>>());
    });
}

#[test]
fn shared_memory_conflicts_bounded_and_shift_invariant() {
    for_cases(CASES, 0x5A, |g| {
        // 8-byte stack entries at word offsets inside one 2 KiB region.
        let offsets = g.vec(1, 32, |g| g.rng.below(256));
        // A uniform shift of every address by the full bank width (128 B)
        // changes neither the conflict count nor the completion cycle.
        let cfg = SharedMemConfig::default();
        let run = |shift: u64| {
            let mut m = SharedMem::new(cfg);
            let done = m.access_warp(0, offsets.iter().map(|o| (o * 8 + shift, 8u32)));
            (done, m.conflict_cycles)
        };
        let (unshifted, shifted) = (run(0), run(128 * (1 + g.rng.below(8))));
        assert_eq!(unshifted, shifted, "bank pattern is shift-periodic: {offsets:?}");
        // Conflicts never exceed one pass per touched word.
        let max_extra = (offsets.len() as u64 * 2 - 1) * cfg.conflict_replay_cycles;
        assert!(unshifted.1 <= max_extra, "{offsets:?}");
    });
}
