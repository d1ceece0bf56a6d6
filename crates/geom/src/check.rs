//! Seeded property checking with shrinking by size.
//!
//! A property is a closure over a [`Gen`] that panics (`assert!`) when it
//! fails. [`for_cases`] runs it on `cases` independent [`SplitMix64`]
//! streams; on a failure it halves the size scale for as long as some case
//! still fails and panics with one line naming `seed`, `case` and `scale`.
//! [`replay`] re-runs exactly that input, so the line pins as a named test.

use crate::{SplitMix64, Vec3};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The scale [`for_cases`] generates at; every shrink step halves it.
pub const FULL_SCALE: u32 = 1 << 16;

/// One case's random source plus the size scale in force.
#[derive(Debug)]
pub struct Gen {
    /// The case's stream, for draws that have no size (`below`,
    /// `range_f32`, `unit_vector`, ...).
    pub rng: SplitMix64,
    scale: u32,
}

impl Gen {
    fn new(seed: u64, case: u64, scale: u32) -> Self {
        Gen { rng: SplitMix64::from_key(seed, case, 0, 0), scale }
    }

    /// A uniform integer in `lo..=hi` (a parameter: not scaled).
    pub fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.rng.below((hi - lo + 1) as u64) as usize
    }

    /// A length in `lo..=hi` whose upper end shrinks toward `lo` with the
    /// scale: the one draw that makes a shrunk case a smaller input.
    pub fn size(&mut self, lo: usize, hi: usize) -> usize {
        let span = (hi - lo) as u64 * self.scale as u64 / FULL_SCALE as u64;
        self.int(lo, lo + span as usize)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f32) -> bool {
        self.rng.next_f32() < p
    }

    /// A vector with each component uniform in `[lo, hi)`.
    pub fn vec3(&mut self, lo: f32, hi: f32) -> Vec3 {
        let mut c = || self.rng.range_f32(lo, hi);
        Vec3::new(c(), c(), c())
    }

    /// `size(lo, hi)` items drawn by `item`.
    pub fn vec<T>(&mut self, lo: usize, hi: usize, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.size(lo, hi)).map(|_| item(self)).collect()
    }
}

/// `seed` damaged as bytes are damaged on disk and on the wire: one to
/// three rounds of bit flips, a truncation, or a run replaced by a piece of
/// one of `donors` (a splice; its lengths shrink with the scale).
pub fn mutate(g: &mut Gen, seed: &[u8], donors: &[&[u8]]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..g.int(1, 3) {
        let len = bytes.len();
        let at = g.int(0, len);
        match g.int(0, 2) {
            0 if len > 0 => {
                for _ in 0..g.int(1, 3) {
                    bytes[g.int(0, len - 1)] ^= 1 << g.int(0, 7);
                }
            }
            0 | 1 => bytes.truncate(at),
            _ => {
                let donor = donors.get(g.int(0, donors.len().max(1) - 1)).copied().unwrap_or(seed);
                let from = g.int(0, donor.len());
                let piece = &donor[from..from + g.size(0, donor.len() - from)];
                let end = at + g.size(0, len - at);
                bytes.splice(at..end, piece.iter().copied());
            }
        }
    }
    bytes
}

/// The first of `cases` cases that fails at `scale`, with its panic message.
fn first_failure(
    cases: u64,
    seed: u64,
    scale: u32,
    prop: &mut impl FnMut(&mut Gen),
) -> Option<(u64, String)> {
    (0..cases).find_map(|case| {
        let mut g = Gen::new(seed, case, scale);
        let payload = catch_unwind(AssertUnwindSafe(|| prop(&mut g))).err()?;
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        Some((case, msg.lines().next().unwrap_or_default().to_owned()))
    })
}

/// Runs `prop` on cases `0..cases` of `seed`; see the module docs for what
/// a failure prints.
///
/// # Panics
///
/// Panics when any case fails.
pub fn for_cases(cases: u64, seed: u64, mut prop: impl FnMut(&mut Gen)) {
    let Some(mut found) = first_failure(cases, seed, FULL_SCALE, &mut prop) else { return };
    let mut scale = FULL_SCALE;
    while scale > 0 {
        let Some(smaller) = first_failure(cases, seed, scale / 2, &mut prop) else { break };
        (found, scale) = (smaller, scale / 2);
    }
    let (case, msg) = found;
    panic!("property failed: seed={seed} case={case} scale={scale}: {msg}");
}

/// Runs `prop` on the one input a [`for_cases`] failure line names.
pub fn replay(seed: u64, case: u64, scale: u32, prop: impl FnOnce(&mut Gen)) {
    prop(&mut Gen::new(seed, case, scale));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_property_that_holds_runs_exactly_cases_times() {
        let mut calls = 0;
        for_cases(1_000, 1, |g| {
            calls += 1;
            assert!(g.size(3, 9) <= 9 && g.int(3, 9) >= 3);
        });
        assert_eq!(calls, 1_000);
    }

    /// A LIFO that silently drops every 17th push, against a `Vec`.
    fn lossy_stack(g: &mut Gen, ops_seen: &mut usize) {
        let ops = g.vec(1, 600, |g| g.chance(0.55));
        *ops_seen = ops.len();
        let (mut toy, mut model, mut pushes) = (Vec::new(), Vec::new(), 0u32);
        for push in ops {
            if push || model.is_empty() {
                pushes += 1;
                model.push(pushes);
                if pushes % 17 != 0 {
                    toy.push(pushes);
                }
            } else {
                assert_eq!(toy.pop(), model.pop(), "pop after {pushes} pushes");
            }
        }
    }

    #[test]
    fn a_failure_shrinks_and_its_line_replays() {
        let mut ops = 0;
        let panic =
            catch_unwind(AssertUnwindSafe(|| for_cases(200, 7, |g| lossy_stack(g, &mut ops))));
        let line = *panic.expect_err("the lossy stack must fail").downcast::<String>().unwrap();
        let field = |name: &str| -> u64 {
            let rest = &line[line.find(name).expect(name) + name.len()..];
            rest[..rest.find([' ', ':']).unwrap()].parse().unwrap()
        };
        let (seed, case, scale) = (field("seed="), field("case="), field("scale=") as u32);
        assert_eq!(seed, 7, "{line}");
        let replayed = catch_unwind(AssertUnwindSafe(|| {
            replay(seed, case, scale, |g| lossy_stack(g, &mut ops));
        }));
        assert!(replayed.is_err(), "{line} did not reproduce");
        assert!(ops <= 40, "{line} shrank only to {ops} ops");
    }
}
