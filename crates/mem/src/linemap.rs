//! An open-addressed `u64 → u64` table keyed by line number.
//!
//! Every modelled memory access resolves its line in the L1's tag table
//! and, on a miss, the L2's; a line evicted while its fill is in flight is
//! kept in a small side table per level. The keys are line numbers (or
//! line addresses) the simulator computes itself, so one multiply is hash
//! enough; collisions
//! probe linearly and a removal shifts the rest of its cluster back, so
//! there are no tombstones to skip. Iteration order is never exposed.

/// The tag of a free slot. Slots hold `!key`, so a zeroed table — which
/// the allocator maps lazily — is an empty one, and a table sized for the
/// whole L2 costs resident memory only where lines were actually stored.
const FREE: u64 = 0;

#[derive(Debug, Clone)]
pub(crate) struct LineMap {
    /// `(!key, value)` slots, a power of two of them, at most half in use
    /// (no line number or address reaches `u64::MAX`, whose tag is `FREE`).
    slots: Vec<(u64, u64)>,
    len: usize,
}

impl LineMap {
    /// An empty table that holds `entries` keys without growing.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        let slots = (2 * entries).next_power_of_two().max(16);
        LineMap { slots: vec![(FREE, 0); slots], len: 0 }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fibonacci hashing: the top bits of `key × 2⁶⁴/φ`.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The slot holding `key`, or the free slot where it would go.
    #[inline]
    fn find(&self, key: u64) -> usize {
        debug_assert_ne!(!key, FREE);
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i].0 != !key && self.slots[i].0 != FREE {
            i = (i + 1) & mask;
        }
        i
    }

    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u64> {
        let (tag, v) = self.slots[self.find(key)];
        (tag == !key).then_some(v)
    }

    /// Sets `key`'s value, replacing any previous one.
    pub(crate) fn insert(&mut self, key: u64, value: u64) {
        let i = self.find(key);
        if self.slots[i].0 == !key {
            self.slots[i].1 = value;
            return;
        }
        if 2 * (self.len + 1) > self.slots.len() {
            self.rebuild(2 * self.slots.len(), |_| true);
            return self.insert(key, value);
        }
        self.slots[i] = (!key, value);
        self.len += 1;
    }

    pub(crate) fn remove(&mut self, key: u64) {
        let mask = self.slots.len() - 1;
        let mut hole = self.find(key);
        if self.slots[hole].0 != !key {
            return;
        }
        self.len -= 1;
        // Close the gap: an entry further down the cluster moves into the
        // hole unless its home lies strictly after the hole (cyclically),
        // where a probe for it would no longer pass.
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let tag = self.slots[j].0;
            if tag == FREE {
                break;
            }
            if (j.wrapping_sub(self.home(!tag)) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole].0 = FREE;
    }

    /// Drops every entry whose value `keep` rejects.
    pub(crate) fn retain(&mut self, keep: impl FnMut(u64) -> bool) {
        self.rebuild(self.slots.len(), keep);
    }

    fn rebuild(&mut self, slots: usize, mut keep: impl FnMut(u64) -> bool) {
        let old = std::mem::replace(&mut self.slots, vec![(FREE, 0); slots]);
        self.len = 0;
        for (tag, v) in old {
            if tag != FREE && keep(v) {
                self.insert(!tag, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Against a sorted `Vec` through inserts, overwrites, removals inside
    /// long collision clusters, growth and `retain`.
    #[test]
    fn matches_a_sorted_vec() {
        let mut map = LineMap::with_capacity(4);
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut state = 0x1234_5678u64;
        for step in 0..20_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Multiples of 128 in a small range: dense clusters, many repeats.
            let key = ((state >> 33) % 300) * 128;
            match (state >> 20) % 3 {
                0 => {
                    map.insert(key, step);
                    match model.binary_search_by_key(&key, |e| e.0) {
                        Ok(i) => model[i].1 = step,
                        Err(i) => model.insert(i, (key, step)),
                    }
                }
                1 => {
                    map.remove(key);
                    if let Ok(i) = model.binary_search_by_key(&key, |e| e.0) {
                        model.remove(i);
                    }
                }
                _ if step % 1000 == 999 => {
                    map.retain(|v| v % 2 == 0);
                    model.retain(|e| e.1 % 2 == 0);
                }
                _ => {}
            }
            let want = model.binary_search_by_key(&key, |e| e.0).ok().map(|i| model[i].1);
            assert_eq!(map.get(key), want, "step {step}, key {key}");
            assert_eq!(map.len(), model.len(), "step {step}");
        }
        for (k, v) in model {
            assert_eq!(map.get(k), Some(v));
        }
    }
}
