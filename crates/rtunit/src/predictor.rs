//! Hash-based ray-path predictor (the `PRED_*` competitor configuration).
//!
//! Models the speculative-traversal idea from the ray-path prediction line
//! of work: a per-RT-unit direct-mapped table maps a hash of the quantized
//! ray (origin + direction, mantissa-truncated so nearby coherent rays
//! collide on purpose) to the leaf node that last yielded a hit for that
//! hash. An admitted ray probes the predicted leaf *first*, skipping every
//! inner-node micro-op on the predicted path:
//!
//! * **any-hit query, predicted leaf hits** — the ray is occluded and
//!   retires after a single node visit (`SimStats::pred_hits`);
//! * **nearest query, predicted leaf hits** — the hit primes `t_max` (and
//!   the current-best hit) before the full stacked traversal re-runs from
//!   the root, so the tightened interval culls subtrees the baseline
//!   traversal would have entered (`pred_hits`);
//! * **predicted leaf misses** — pure overhead; the ray restarts from the
//!   root exactly as if no prediction existed (`pred_misses`).
//!
//! The probe's fetch and operation wait cycles are charged to the
//! dedicated `StallBreakdown::predictor_wait` lane bucket, so sweeps see
//! speculation cost as its own ledger column instead of it polluting the
//! fetch/op buckets.
//!
//! The table is updated at warp retirement with the leaf that produced
//! each finished ray's final hit, keyed by the ray's hash.

use sms_bvh::NodeId;
use sms_geom::golden::{fnv1a64_extend, FNV_OFFSET};
use sms_geom::Ray;

/// Widest supported table index (2^20 entries ≈ 12 MiB — already far past
/// the point of diminishing returns for the paper-scale scenes).
pub const MAX_TABLE_BITS: u32 = 20;

/// Absolute quantization grid: ray components are floored to 1/16-unit
/// cells before hashing. An absolute grid (not mantissa truncation, which
/// quantizes *relatively* and therefore almost never buckets direction
/// components near zero together) is what lets neighboring coherent rays
/// actually share hashes; 16 cells per unit keeps unit-length direction
/// vectors to ~32 cells per axis, coarse enough for adjacent camera pixels
/// to collide yet fine enough that a shared prediction usually
/// re-verifies — mispredict rates per scene are in EXPERIMENTS.md.
const QUANT_CELLS_PER_UNIT: f32 = 16.0;

/// The grid cell of one ray component (`as` saturates at the `i32` edges,
/// so non-finite or huge components still map to a stable cell).
fn quantize(v: f32) -> i32 {
    (v * QUANT_CELLS_PER_UNIT).floor() as i32
}

/// Per-RT-unit direct-mapped prediction table.
#[derive(Debug)]
pub struct RayPredictor {
    /// Index mask (`2^bits - 1`).
    mask: u64,
    /// `index -> (full-hash tag, predicted leaf)`.
    entries: Vec<Option<(u64, NodeId)>>,
}

impl RayPredictor {
    /// An empty table with `2^bits` entries (clamped to
    /// [`MAX_TABLE_BITS`]).
    pub fn new(table_bits: u32) -> Self {
        let bits = table_bits.min(MAX_TABLE_BITS);
        RayPredictor { mask: (1u64 << bits) - 1, entries: vec![None; 1usize << bits] }
    }

    /// FNV-1a over the quantized ray origin and direction.
    pub fn hash(ray: &Ray) -> u64 {
        [ray.origin.x, ray.origin.y, ray.origin.z, ray.dir.x, ray.dir.y, ray.dir.z]
            .into_iter()
            .fold(FNV_OFFSET, |h, v| fnv1a64_extend(h, &quantize(v).to_le_bytes()))
    }

    /// The predicted leaf for `hash`, if the table holds one. The full
    /// hash is stored as the tag, so an index collision between distinct
    /// hashes reads as "no prediction" rather than a wild leaf.
    pub fn predict(&self, hash: u64) -> Option<NodeId> {
        match self.entries[(hash & self.mask) as usize] {
            Some((tag, leaf)) if tag == hash => Some(leaf),
            _ => None,
        }
    }

    /// Records that a ray hashing to `hash` found its final hit in `leaf`
    /// (direct-mapped: evicts whatever shared the index).
    pub fn update(&mut self, hash: u64, leaf: NodeId) {
        self.entries[(hash & self.mask) as usize] = Some((hash, leaf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sms_geom::Vec3;

    #[test]
    fn nearby_rays_share_a_hash_distant_rays_do_not() {
        let a = Ray::new(Vec3::new(1.0, 2.0, 3.0), Vec3::new(0.0, 0.0, 1.0));
        // Perturbation below the quantization step: identical hash.
        let b = Ray::new(Vec3::new(1.000001, 2.0, 3.0), Vec3::new(0.0, 0.0, 1.0));
        // A clearly different ray: different hash.
        let c = Ray::new(Vec3::new(-5.0, 2.0, 3.0), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(RayPredictor::hash(&a), RayPredictor::hash(&b));
        assert_ne!(RayPredictor::hash(&a), RayPredictor::hash(&c));
    }

    #[test]
    fn predict_update_roundtrip_and_tag_check() {
        let mut p = RayPredictor::new(4);
        let ray = Ray::new(Vec3::new(0.5, 0.5, -1.0), Vec3::new(0.0, 0.0, 1.0));
        let h = RayPredictor::hash(&ray);
        assert_eq!(p.predict(h), None);
        p.update(h, 17);
        assert_eq!(p.predict(h), Some(17));
        // A different hash landing on the same index must not alias: flip
        // bits above the 4-bit index while keeping the index itself.
        let other = h ^ (1u64 << 40);
        assert_eq!(other & p.mask, h & p.mask);
        assert_eq!(p.predict(other), None);
        p.update(other, 99);
        assert_eq!(p.predict(other), Some(99));
        assert_eq!(p.predict(h), None, "direct-mapped: the old entry is evicted");
    }

    #[test]
    fn table_bits_are_clamped() {
        let p = RayPredictor::new(64);
        assert_eq!(p.entries.len(), 1usize << MAX_TABLE_BITS);
    }
}
