//! Parallel HLBVH builder: Morton codes + radix sort + treelets.
//!
//! The binned-SAH and median builders in [`crate::builder`] are `O(n log n)`
//! with a healthy constant — fine at the repo's historical ~1/100-scale
//! stand-in scenes, a wall at the paper's multi-million-triangle originals.
//! This module implements the PBR-book HLBVH construction algorithm:
//!
//! 1. quantize primitive centroids onto a 2^10-per-axis grid over the
//!    centroid bounds and interleave the coordinates into 30-bit *Morton
//!    codes* ([`morton_encode`]);
//! 2. sort the `(code, primitive)` pairs with a linear-time stable LSD
//!    *radix sort* ([`radix_sort_pairs`]);
//! 3. cut the sorted sequence into *treelets* by the top [`TREELET_BITS`]
//!    code bits (a 16×16×16 grid over the scene) and emit each treelet's
//!    subtree independently by splitting on successive Morton bits;
//! 4. build a binned-SAH *upper tree* over the treelet roots, splicing the
//!    treelet node blocks in as its leaves (SAH-based upper-level collapse).
//!
//! Steps 1–3 are fanned out across worker threads ([`fan_out`], the same
//! slot-indexed claim-counter pattern as the harness pool). The result is
//! **deterministic in the worker count**: per-primitive work is pure, the
//! chunked AABB/histogram reductions use exactly associative-commutative
//! operations (IEEE `min`/`max`, integer adds), the stable radix order is a
//! pure function of the input regardless of chunking, treelet blocks land
//! in slot order, and the upper-tree assembly is serial. A one-worker and an
//! eight-worker build produce byte-identical node arrays (asserted by the
//! tests below and by `crates/core/tests/hlbvh_golden.rs`).
//!
//! The output is an ordinary [`BinaryBvh`], so the
//! [`crate::flat::FlatBvh::from_binary`] collapse applies unchanged. Select the builder
//! with [`crate::builder::SplitMethod::Hlbvh`]; the default build path
//! (median splits) is untouched.

use crate::builder::{
    find_best_split, partition, sort_along_widest_axis, BinaryBvh, BinaryNode, BuildParams,
    PrimInfo,
};
use crate::Primitive;
use sms_geom::Aabb;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Morton bits per axis (2^10 grid cells per axis).
pub const MORTON_BITS_PER_AXIS: u32 = 10;
/// Total Morton code bits (3 axes interleaved).
pub const MORTON_BITS: u32 = 3 * MORTON_BITS_PER_AXIS;
/// High code bits that name a treelet: 12 bits = 4 per axis, i.e. the
/// treelet grid is 16×16×16 over the scene's centroid bounds (PBR-book's
/// choice — enough clusters to keep every worker busy on real scenes).
pub const TREELET_BITS: u32 = 12;
/// Morton grid resolution per axis.
const MORTON_SCALE: f32 = (1 << MORTON_BITS_PER_AXIS) as f32;

/// Spreads the low 10 bits of `v` so consecutive input bits land 3 apart.
#[inline]
fn expand_bits(mut v: u32) -> u32 {
    v &= 0x3ff;
    v = (v | (v << 16)) & 0x0300_00ff;
    v = (v | (v << 8)) & 0x0300_f00f;
    v = (v | (v << 4)) & 0x030c_30c3;
    v = (v | (v << 2)) & 0x0924_9249;
    v
}

/// Inverse of [`expand_bits`]: gathers every third bit into the low 10.
#[inline]
fn compact_bits(mut v: u32) -> u32 {
    v &= 0x0924_9249;
    v = (v | (v >> 2)) & 0x030c_30c3;
    v = (v | (v >> 4)) & 0x0300_f00f;
    v = (v | (v >> 8)) & 0x0300_00ff;
    v = (v | (v >> 16)) & 0x3ff;
    v
}

/// Interleaves three 10-bit grid coordinates into a 30-bit Morton code
/// (`x` in bit 0, `y` in bit 1, `z` in bit 2, repeating).
///
/// Coordinates ≥ 2^10 are masked to their low 10 bits.
#[inline]
pub fn morton_encode(x: u32, y: u32, z: u32) -> u32 {
    (expand_bits(z) << 2) | (expand_bits(y) << 1) | expand_bits(x)
}

/// Inverse of [`morton_encode`]: recovers `(x, y, z)` from a 30-bit code.
#[inline]
pub fn morton_decode(code: u32) -> (u32, u32, u32) {
    (compact_bits(code), compact_bits(code >> 1), compact_bits(code >> 2))
}

/// Stable linear-time LSD radix sort of `(code, payload)` pairs by `code`.
///
/// Three passes of 10 bits cover the 30-bit Morton range. Per-chunk
/// histograms are computed in parallel on up to `workers` threads; the
/// scatter keeps the classic serial stable order. The output is a pure
/// function of the input — chunking (and therefore the worker count) cannot
/// change it, which is what the parallel-build determinism test relies on.
pub fn radix_sort_pairs(items: &mut Vec<(u32, u32)>, workers: usize) {
    const BITS_PER_PASS: u32 = 10;
    const BUCKETS: usize = 1 << BITS_PER_PASS;
    let n = items.len();
    if n <= 1 {
        return;
    }
    let mut src = std::mem::take(items);
    let mut dst = vec![(0u32, 0u32); n];
    for pass in 0..MORTON_BITS.div_ceil(BITS_PER_PASS) {
        let shift = pass * BITS_PER_PASS;
        // Histogram in parallel chunks; integer sums are exact, so the
        // reduction is chunking-independent.
        let chunks = chunk_ranges(n, workers);
        let histograms: Vec<Vec<u32>> = fan_out(workers, chunks.len(), |c| {
            let mut h = vec![0u32; BUCKETS];
            for &(code, _) in &src[chunks[c].clone()] {
                h[((code >> shift) as usize) & (BUCKETS - 1)] += 1;
            }
            h
        });
        let mut offsets = vec![0usize; BUCKETS];
        let mut total = 0usize;
        for (digit, slot) in offsets.iter_mut().enumerate() {
            *slot = total;
            total += histograms.iter().map(|h| h[digit] as usize).sum::<usize>();
        }
        // Stable scatter (serial: the bandwidth-bound part is one sweep).
        for &(code, payload) in &src {
            let digit = ((code >> shift) as usize) & (BUCKETS - 1);
            dst[offsets[digit]] = (code, payload);
            offsets[digit] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    *items = src;
}

/// Builds a binary BVH over `prims` with the parallel HLBVH algorithm.
///
/// Called by [`BinaryBvh::build`] when `params.split` is
/// [`crate::builder::SplitMethod::Hlbvh`]; `params.workers` caps the fan-out
/// (1 = fully serial, same output).
pub fn build_hlbvh<P: Primitive>(prims: &[P], params: &BuildParams) -> BinaryBvh {
    let workers = params.workers.max(1);
    let n = prims.len();
    if n == 0 {
        return BinaryBvh {
            nodes: vec![BinaryNode::Leaf { aabb: Aabb::EMPTY, first: 0, count: 0 }],
            prim_order: Vec::new(),
        };
    }

    // 1. Per-primitive info. Serial: `Primitive` does not require `Sync`,
    //    and this single O(n) sweep is a sliver of the build; every later
    //    stage works on the Send+Sync `PrimInfo` array and fans out.
    let chunks = chunk_ranges(n, workers);
    let info: Vec<PrimInfo> =
        prims.iter().enumerate().map(|(i, p)| PrimInfo::new(i, p.aabb())).collect();

    // 2. Centroid bounds: chunked union. IEEE min/max are exactly
    //    associative and commutative, so the grouping cannot change bits.
    let bounds_chunks: Vec<Aabb> = fan_out(workers, chunks.len(), |c| {
        let mut b = Aabb::EMPTY;
        for p in &info[chunks[c].clone()] {
            b.grow_point(p.centroid);
        }
        b
    });
    let mut centroid_bounds = Aabb::EMPTY;
    for b in &bounds_chunks {
        centroid_bounds.grow(b);
    }

    // 3. Morton codes over the centroid-bounds grid, in parallel.
    let ext = centroid_bounds.extent();
    let inv = |e: f32| if e > 0.0 { 1.0 / e } else { 0.0 };
    let (ix, iy, iz) = (inv(ext.x), inv(ext.y), inv(ext.z));
    let lo = centroid_bounds.min;
    let quant = |v: f32| ((v * MORTON_SCALE) as u32).min((1 << MORTON_BITS_PER_AXIS) - 1);
    let code_chunks: Vec<Vec<(u32, u32)>> = fan_out(workers, chunks.len(), |c| {
        chunks[c]
            .clone()
            .map(|i| {
                let p = info[i].centroid;
                let code = morton_encode(
                    quant((p.x - lo.x) * ix),
                    quant((p.y - lo.y) * iy),
                    quant((p.z - lo.z) * iz),
                );
                (code, i as u32)
            })
            .collect()
    });
    let mut coded: Vec<(u32, u32)> = code_chunks.into_iter().flatten().collect();

    // 4. Linear-time stable sort. Stability gives ties (identical codes) a
    //    deterministic primitive-index order.
    radix_sort_pairs(&mut coded, workers);

    // 5. Primitive info in Morton order; positions here are the final
    //    `prim_order` slots the leaves reference.
    let sorted: Vec<PrimInfo> = coded.iter().map(|&(_, i)| info[i as usize]).collect();
    let codes: Vec<u32> = coded.iter().map(|&(c, _)| c).collect();

    // 6. Treelets: maximal runs sharing the top TREELET_BITS code bits.
    let shift = MORTON_BITS - TREELET_BITS;
    let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
    let mut start = 0usize;
    for i in 1..n {
        if codes[i] >> shift != codes[start] >> shift {
            ranges.push(start..i);
            start = i;
        }
    }
    ranges.push(start..n);

    // 7. Per-treelet LBVH emission, fanned out. Each block is a preorder
    //    node array with its root at local index 0 and globally-correct
    //    leaf ranges; slot-indexed results make assembly order fixed.
    let blocks: Vec<Vec<BinaryNode>> = fan_out(workers, ranges.len(), |t| {
        let r = ranges[t].clone();
        let mut nodes = Vec::with_capacity(2 * r.len());
        emit_lbvh(&mut nodes, &sorted, &codes, r.start, r.len(), shift as i32 - 1, params);
        nodes
    });

    // 8. Binned-SAH upper tree over the treelet roots (serial: there are at
    //    most 2^TREELET_BITS of them), splicing treelet blocks as leaves.
    let mut roots: Vec<PrimInfo> =
        blocks.iter().enumerate().map(|(t, block)| PrimInfo::new(t, block[0].aabb())).collect();
    let total: usize = blocks.iter().map(Vec::len).sum();
    let mut nodes = Vec::with_capacity(total + 2 * roots.len());
    emit_upper(&mut nodes, &mut roots, &blocks);

    BinaryBvh { nodes, prim_order: sorted.iter().map(|p| p.index).collect() }
}

/// Emits the LBVH subtree for `sorted[first..first + count]` (positions are
/// global Morton-order slots) splitting on Morton bit `bit`, preorder.
/// Returns the subtree root's index in `nodes`.
fn emit_lbvh(
    nodes: &mut Vec<BinaryNode>,
    sorted: &[PrimInfo],
    codes: &[u32],
    first: usize,
    count: usize,
    bit: i32,
    params: &BuildParams,
) -> u32 {
    // Leaf: small enough, or Morton bits exhausted on a near-coincident
    // cluster (same degenerate bound as the recursive builders).
    if count <= params.max_leaf_size || (bit < 0 && count <= params.max_leaf_size * 4) {
        let mut aabb = Aabb::EMPTY;
        for p in &sorted[first..first + count] {
            aabb.grow(&p.aabb);
        }
        let id = nodes.len() as u32;
        nodes.push(BinaryNode::Leaf { aabb, first: first as u32, count: count as u32 });
        return id;
    }

    let mid = if bit < 0 {
        // Coincident codes: split in half to bound recursion depth.
        count / 2
    } else {
        let mask = 1u32 << bit;
        if codes[first] & mask == codes[first + count - 1] & mask {
            // This bit does not discriminate; descend without a node.
            return emit_lbvh(nodes, sorted, codes, first, count, bit - 1, params);
        }
        // Binary search for the first set bit (codes are sorted).
        let mut lo = first;
        let mut hi = first + count - 1;
        while lo + 1 < hi {
            let m = lo + (hi - lo) / 2;
            if codes[m] & mask == codes[first] & mask {
                lo = m;
            } else {
                hi = m;
            }
        }
        hi - first
    };

    let my = nodes.len();
    nodes.push(BinaryNode::Leaf { aabb: Aabb::EMPTY, first: 0, count: 0 }); // placeholder
    let left = emit_lbvh(nodes, sorted, codes, first, mid, bit - 1, params);
    let right = emit_lbvh(nodes, sorted, codes, first + mid, count - mid, bit - 1, params);
    let aabb = Aabb::union(&nodes[left as usize].aabb(), &nodes[right as usize].aabb());
    nodes[my] = BinaryNode::Inner { aabb, left, right };
    my as u32
}

/// Emits the binned-SAH upper tree over treelet roots, splicing each
/// treelet's preorder block in as a leaf of the upper tree. Returns the
/// emitted subtree's root index.
fn emit_upper(
    nodes: &mut Vec<BinaryNode>,
    roots: &mut [PrimInfo],
    blocks: &[Vec<BinaryNode>],
) -> u32 {
    if roots.len() == 1 {
        let base = nodes.len() as u32;
        nodes.extend(blocks[roots[0].index as usize].iter().map(|n| match n {
            BinaryNode::Inner { aabb, left, right } => {
                BinaryNode::Inner { aabb: *aabb, left: left + base, right: right + base }
            }
            leaf => leaf.clone(),
        }));
        return base;
    }

    let mut bounds = Aabb::EMPTY;
    let mut centroid_bounds = Aabb::EMPTY;
    for r in roots.iter() {
        bounds.grow(&r.aabb);
        centroid_bounds.grow_point(r.centroid);
    }
    let count = roots.len();
    let mid = match find_best_split(roots, &centroid_bounds) {
        Some((axis, plane)) => {
            let mid = partition(roots, axis, plane);
            if mid == 0 || mid == count {
                sort_along_widest_axis(roots, &centroid_bounds);
                count / 2
            } else {
                mid
            }
        }
        // All treelet centroids coincide (degenerate scene): any halving.
        None => count / 2,
    };

    let my = nodes.len();
    nodes.push(BinaryNode::Leaf { aabb: Aabb::EMPTY, first: 0, count: 0 }); // placeholder
    let (lo, hi) = roots.split_at_mut(mid);
    let left = emit_upper(nodes, lo, blocks);
    let right = emit_upper(nodes, hi, blocks);
    nodes[my] = BinaryNode::Inner { aabb: bounds, left, right };
    my as u32
}

/// Splits `0..n` into at most `pieces * 4` similar-size ranges (over-split
/// so a straggler chunk cannot serialize the fan-out). The chunk list
/// depends only on `n` and `pieces`, and every chunked reduction above is
/// exact, so chunking never changes results.
fn chunk_ranges(n: usize, pieces: usize) -> Vec<std::ops::Range<usize>> {
    let target = (pieces.max(1) * 4).min(n.max(1));
    let size = n.div_ceil(target).max(1);
    let mut out = Vec::with_capacity(target);
    let mut start = 0;
    while start < n {
        let end = (start + size).min(n);
        out.push(start..end);
        start = end;
    }
    if out.is_empty() {
        out.push(0..0);
    }
    out
}

/// Runs `f(0..jobs)` on up to `workers` scoped threads, returning results
/// in job order — the same atomic-claim, slot-indexed pattern as the
/// harness worker pool, so completion order can never reorder results.
/// Panics in `f` propagate when the scope joins.
pub(crate) fn fan_out<T, F>(workers: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = workers.max(1).min(jobs);
    if threads <= 1 {
        return (0..jobs).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                let job = next.fetch_add(1, Ordering::Relaxed);
                if job >= jobs {
                    break;
                }
                let result = f(job);
                *slots[job].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(v) => v,
            // The claim counter hands out every index exactly once; an
            // empty slot would mean a worker died without unwinding, which
            // the scope join above already turned into a panic.
            None => unreachable!("fan_out slot left unfilled"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SplitMethod;
    use crate::flat::FlatBvh;
    use crate::traverse::{traverse, RayQuery, TraversalScratch};
    use crate::{Hit, PrimHit};
    use sms_geom::{Ray, Triangle, Vec3};

    struct Tri(Triangle);
    impl Primitive for Tri {
        fn aabb(&self) -> Aabb {
            self.0.aabb()
        }
        fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<PrimHit> {
            self.0.intersect(ray, t_min, t_max).map(|h| PrimHit { t: h.t, u: h.u, v: h.v })
        }
    }

    fn scatter(n: usize) -> Vec<Tri> {
        let mut s = sms_geom::SplitMix64::new(0x51ab);
        use sms_geom::DeterministicRng;
        (0..n)
            .map(|_| {
                let p = Vec3::new(
                    s.range_f32(-40.0, 40.0),
                    s.range_f32(-10.0, 10.0),
                    s.range_f32(-40.0, 40.0),
                );
                let a = s.unit_vector() * 0.4;
                let b = s.unit_vector() * 0.4;
                Tri(Triangle::new(p, p + a, p + b))
            })
            .collect()
    }

    fn hlbvh_params(workers: usize) -> BuildParams {
        BuildParams { split: SplitMethod::Hlbvh, workers, ..BuildParams::default() }
    }

    #[test]
    fn morton_roundtrip_exhaustive_low() {
        for x in [0u32, 1, 2, 3, 511, 512, 1023] {
            for y in [0u32, 7, 600, 1023] {
                for z in [0u32, 33, 1000, 1023] {
                    assert_eq!(morton_decode(morton_encode(x, y, z)), (x, y, z));
                }
            }
        }
    }

    #[test]
    fn morton_code_fits_30_bits() {
        assert_eq!(morton_encode(1023, 1023, 1023), (1 << MORTON_BITS) - 1);
        assert_eq!(morton_encode(0, 0, 0), 0);
    }

    #[test]
    fn radix_sort_sorts_and_is_stable() {
        let mut s = sms_geom::SplitMix64::new(9);
        let mut items: Vec<(u32, u32)> =
            (0..10_000).map(|i| ((s.next_u64() as u32) & 0x3fff_ffff & !0xff, i)).collect();
        let mut expected = items.clone();
        expected.sort_by_key(|&(code, _)| code); // std stable sort
        radix_sort_pairs(&mut items, 4);
        assert_eq!(items, expected, "radix order must equal a stable sort");
    }

    #[test]
    fn empty_input_single_empty_leaf() {
        let prims: Vec<Tri> = Vec::new();
        let bvh = build_hlbvh(&prims, &hlbvh_params(1));
        assert_eq!(bvh.nodes.len(), 1);
        assert!(matches!(bvh.nodes[0], BinaryNode::Leaf { count: 0, .. }));
    }

    #[test]
    fn all_primitives_present_exactly_once() {
        let prims = scatter(2000);
        let bvh = build_hlbvh(&prims, &hlbvh_params(4));
        let mut order = bvh.prim_order.clone();
        order.sort_unstable();
        assert_eq!(order, (0..2000).collect::<Vec<u32>>());
        // Every leaf range must land inside prim_order and tile it exactly.
        let mut covered = vec![false; 2000];
        for n in &bvh.nodes {
            if let BinaryNode::Leaf { first, count, .. } = n {
                for i in *first..*first + *count {
                    assert!(!covered[i as usize], "slot {i} referenced twice");
                    covered[i as usize] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn parent_contains_children() {
        let prims = scatter(1500);
        let bvh = build_hlbvh(&prims, &hlbvh_params(4));
        for n in &bvh.nodes {
            if let BinaryNode::Inner { aabb, left, right } = n {
                assert!(aabb.contains(&bvh.nodes[*left as usize].aabb()));
                assert!(aabb.contains(&bvh.nodes[*right as usize].aabb()));
            }
        }
    }

    #[test]
    fn coincident_centroids_terminate() {
        let t = Triangle::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0));
        let prims: Vec<Tri> = (0..300).map(|_| Tri(t)).collect();
        let bvh = build_hlbvh(&prims, &hlbvh_params(2));
        assert_eq!(bvh.prim_order.len(), 300);
        assert!(bvh.depth() < 64);
    }

    #[test]
    fn nearest_hits_match_binned_sah_tree() {
        let prims = scatter(3000);
        let sah = FlatBvh::build(&prims, &BuildParams::sah());
        let hl = FlatBvh::build(&prims, &hlbvh_params(4));
        for i in 0..128 {
            let x = (i % 16) as f32 * 5.0 - 40.0;
            let z = (i / 16) as f32 * 10.0 - 40.0;
            let ray = Ray::new(Vec3::new(x, 30.0, z), Vec3::new(0.02, -1.0, 0.03));
            let query = RayQuery::nearest(ray, 0.0);
            let mut scratch = TraversalScratch::new();
            let a = traverse(&sah, &prims, &query, &mut (), &mut scratch).hit;
            let b = traverse(&hl, &prims, &query, &mut (), &mut scratch).hit;
            assert_eq!(a.map(|h: Hit| h.t), b.map(|h: Hit| h.t), "ray {i} nearest-t differs");
        }
    }

    #[test]
    fn build_is_deterministic_in_worker_count() {
        let prims = scatter(5000);
        let reference = build_hlbvh(&prims, &hlbvh_params(1));
        for workers in [2, 3, 5, 8] {
            let parallel = build_hlbvh(&prims, &hlbvh_params(workers));
            assert_eq!(parallel.prim_order, reference.prim_order, "{workers} workers");
            assert_eq!(parallel.nodes, reference.nodes, "{workers} workers");
            // Byte-identical, not merely PartialEq: the debug rendering
            // captures every f32 exactly (no -0.0/NaN in finite unions).
            assert_eq!(
                format!("{:?}", parallel.nodes),
                format!("{:?}", reference.nodes),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn selectable_through_binary_bvh_build() {
        let prims = scatter(400);
        let via_dispatch = BinaryBvh::build(&prims, &hlbvh_params(2));
        let direct = build_hlbvh(&prims, &hlbvh_params(2));
        assert_eq!(via_dispatch.nodes, direct.nodes);
        assert_eq!(via_dispatch.prim_order, direct.prim_order);
    }
}
