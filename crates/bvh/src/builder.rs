//! Binary BVH builders: object-median selection (the default, see
//! [`SplitMethod::Median`]) and binned surface-area heuristic (SAH); the
//! parallel HLBVH build lives in [`crate::hlbvh`].
//!
//! The binary tree is an intermediate product: [`crate::flat::FlatBvh`]
//! collapses it into the wide BVH the RT unit traverses.

use crate::Primitive;
use sms_geom::{from_order_key, order_key, Aabb, Vec3};

/// Number of SAH bins per axis.
const SAH_BINS: usize = 16;

/// How internal nodes choose their split plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitMethod {
    /// Binned surface-area heuristic: high-quality, low-overlap trees.
    BinnedSah,
    /// Object-median split along the widest centroid axis: the fast,
    /// lower-quality strategy typical of runtime builders (Vulkan-Sim's
    /// builder is of this class). Sibling bounds overlap more, so rays hit
    /// several children per node and traversal stacks go deeper — matching
    /// the stack-depth distributions the paper reports (Figs. 4/5).
    Median,
    /// Parallel HLBVH: Morton-code the centroids, radix-sort in linear
    /// time, emit treelets bottom-up and collapse the upper levels with
    /// binned SAH (see [`crate::hlbvh`]). Linear-time and fanned out over
    /// [`BuildParams::workers`] threads — the builder for paper-scale
    /// (multi-million-triangle) scenes.
    Hlbvh,
}

/// Parameters controlling BVH construction.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildParams {
    /// Maximum primitives per leaf.
    pub max_leaf_size: usize,
    /// Relative cost of a primitive intersection vs. a node traversal step,
    /// used by the SAH termination criterion.
    pub traversal_cost: f32,
    /// Branching factor of the collapsed wide BVH (the paper uses 6).
    pub branching_factor: usize,
    /// Split strategy.
    pub split: SplitMethod,
    /// Worker threads for parallel builders ([`SplitMethod::Hlbvh`]); the
    /// serial builders ignore it. Any worker count produces byte-identical
    /// trees, so this is purely a wall-clock knob.
    pub workers: usize,
}

impl Default for BuildParams {
    /// Defaults mirror the evaluated system: BVH6, single-primitive leaves,
    /// median splits (see [`SplitMethod::Median`]).
    fn default() -> Self {
        BuildParams {
            max_leaf_size: 1,
            traversal_cost: 1.0,
            branching_factor: 6,
            split: SplitMethod::Median,
            workers: 1,
        }
    }
}

impl BuildParams {
    /// A high-quality binned-SAH configuration (for BVH-quality ablations).
    pub fn sah() -> Self {
        BuildParams { split: SplitMethod::BinnedSah, ..BuildParams::default() }
    }

    /// The parallel HLBVH configuration fanned out over `workers` threads.
    pub fn hlbvh(workers: usize) -> Self {
        BuildParams { split: SplitMethod::Hlbvh, workers, ..BuildParams::default() }
    }
}

/// A node of the intermediate binary BVH.
#[derive(Debug, Clone, PartialEq)]
pub enum BinaryNode {
    /// Internal node with two children (indices into [`BinaryBvh::nodes`]).
    Inner {
        /// Bounds of the whole subtree.
        aabb: Aabb,
        /// Left child index.
        left: u32,
        /// Right child index.
        right: u32,
    },
    /// Leaf node referencing a range of [`BinaryBvh::prim_order`].
    Leaf {
        /// Bounds of the contained primitives.
        aabb: Aabb,
        /// First index into `prim_order`.
        first: u32,
        /// Number of primitives.
        count: u32,
    },
}

impl BinaryNode {
    /// The node bounds.
    pub fn aabb(&self) -> Aabb {
        match self {
            BinaryNode::Inner { aabb, .. } | BinaryNode::Leaf { aabb, .. } => *aabb,
        }
    }
}

/// An intermediate binary BVH over a primitive array.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryBvh {
    /// Node pool; index 0 is the root.
    pub nodes: Vec<BinaryNode>,
    /// Permutation of primitive indices; leaves reference ranges of it.
    pub prim_order: Vec<u32>,
}

impl BinaryBvh {
    /// Builds a binary BVH over `prims` with the split strategy
    /// `params.split` names (object-median selection by default).
    ///
    /// An empty primitive list yields a single empty leaf so that traversal
    /// code never needs a special case.
    pub fn build<P: Primitive>(prims: &[P], params: &BuildParams) -> Self {
        if params.split == SplitMethod::Hlbvh {
            return crate::hlbvh::build_hlbvh(prims, params);
        }
        let empty_leaf = BinaryNode::Leaf { aabb: Aabb::EMPTY, first: 0, count: 0 };
        if prims.is_empty() {
            return BinaryBvh { nodes: vec![empty_leaf], prim_order: Vec::new() };
        }
        // Index 0 is the root; every recursion below fills its own slot.
        let mut nodes = Vec::with_capacity(prims.len() * 2);
        nodes.push(empty_leaf);
        let prim_order = if params.split == SplitMethod::Median {
            let mut items: Vec<MedianItem> =
                prims.iter().enumerate().map(|(i, p)| MedianItem::new(i, p.aabb())).collect();
            let mut build = MedianBuild { prims, nodes: &mut nodes, leaf: params.max_leaf_size };
            build.split(0, &mut items, 0, None);
            items.iter().map(|it| it.index).collect()
        } else {
            let mut info: Vec<PrimInfo> =
                prims.iter().enumerate().map(|(i, p)| PrimInfo::new(i, p.aabb())).collect();
            let n = info.len();
            build_sah(&mut nodes, 0, &mut info, 0, n, params);
            info.iter().map(|p| p.index).collect()
        };
        BinaryBvh { nodes, prim_order }
    }

    /// Maximum leaf depth (root = depth 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[BinaryNode], id: usize) -> usize {
            match &nodes[id] {
                BinaryNode::Leaf { .. } => 0,
                BinaryNode::Inner { left, right, .. } => {
                    1 + rec(nodes, *left as usize).max(rec(nodes, *right as usize))
                }
            }
        }
        rec(&self.nodes, 0)
    }
}

/// Centroid extent at or below which a range counts as coincident: no
/// axis separates it, so it is halved in place (or becomes a leaf).
const COINCIDENT_EXTENT: f32 = 1e-9;

/// Work item of the median build: the centroid as three order-preserving
/// integer keys ([`sms_geom::order_key`]) and the primitive index. 16
/// bytes, against 40 for a [`PrimInfo`]; the boxes are read from the
/// primitives again at the leaves.
#[derive(Debug, Clone, Copy)]
struct MedianItem {
    key: [u32; 3],
    index: u32,
}

impl MedianItem {
    fn new(index: usize, aabb: Aabb) -> Self {
        let c = aabb.centroid();
        MedianItem { key: [order_key(c.x), order_key(c.y), order_key(c.z)], index: index as u32 }
    }

    /// The item's place in the build's strict total order along `axis`:
    /// centroid first, primitive index on ties, as one integer.
    #[inline]
    fn rank(&self, axis: usize) -> u64 {
        u64::from(self.key[axis]) << 32 | u64::from(self.index)
    }
}

/// The median build's recursion state.
struct MedianBuild<'a, P> {
    prims: &'a [P],
    nodes: &'a mut Vec<BinaryNode>,
    /// `BuildParams::max_leaf_size`.
    leaf: usize,
}

impl<P: Primitive> MedianBuild<'_, P> {
    /// Builds the subtree over `items` (which start at `first` in the final
    /// `prim_order`) into `nodes[node_id]` and returns its bounds, unioned
    /// bottom-up from the children.
    ///
    /// An inner node cuts at the median of the total order along the widest
    /// centroid axis. Which half an item lands in depends only on that order,
    /// so a selection yields the halves a full sort would; the order *inside*
    /// a half is whatever the selection left. It can be observed in two
    /// places only — a leaf's contents, and the `count / 2` cuts of a
    /// coincident range — and there the range is first sorted along
    /// `parent_axis`, the axis its nearest splitting ancestor cut on: the
    /// order a sort at every node leaves it in (`prop_bvh.rs` keeps that
    /// build as the reference this one must equal). The root has no such
    /// ancestor and is still in index order.
    fn split(
        &mut self,
        node_id: usize,
        items: &mut [MedianItem],
        first: usize,
        parent_axis: Option<usize>,
    ) -> Aabb {
        // A range that fits a leaf needs no extent: nothing will separate it.
        let extent = if items.len() > self.leaf { centroid_extent(items) } else { Vec3::ZERO };
        if extent.max_component() <= COINCIDENT_EXTENT {
            if let Some(axis) = parent_axis {
                items.sort_unstable_by_key(|it| it.rank(axis));
            }
            return self.halve_in_order(node_id, items, first);
        }
        let axis = extent.max_axis();
        let mid = items.len() / 2;
        items.select_nth_unstable_by_key(mid, |it| it.rank(axis));
        let (lo, hi) = items.split_at_mut(mid);
        self.inner(node_id, |build, left, right| {
            let lo_bounds = build.split(left, lo, first, Some(axis));
            Aabb::union(&lo_bounds, &build.split(right, hi, first + mid, Some(axis)))
        })
    }

    /// A range no axis separates, already in its observable order: a leaf of
    /// up to four times the leaf size, else halved as it lies to bound the
    /// recursion depth.
    fn halve_in_order(&mut self, node_id: usize, items: &[MedianItem], first: usize) -> Aabb {
        if items.len() <= self.leaf * 4 {
            let mut aabb = Aabb::EMPTY;
            for it in items {
                aabb.grow(&self.prims[it.index as usize].aabb());
            }
            self.nodes[node_id] =
                BinaryNode::Leaf { aabb, first: first as u32, count: items.len() as u32 };
            return aabb;
        }
        let (lo, hi) = items.split_at(items.len() / 2);
        self.inner(node_id, |build, left, right| {
            let lo_bounds = build.halve_in_order(left, lo, first);
            Aabb::union(&lo_bounds, &build.halve_in_order(right, hi, first + lo.len()))
        })
    }

    /// Reserves two adjacent child slots, builds them with `children` (left
    /// subtree first) and writes the inner node over the bounds it returns.
    fn inner(
        &mut self,
        node_id: usize,
        children: impl FnOnce(&mut Self, usize, usize) -> Aabb,
    ) -> Aabb {
        let left = self.nodes.len();
        let placeholder = BinaryNode::Leaf { aabb: Aabb::EMPTY, first: 0, count: 0 };
        self.nodes.extend([placeholder.clone(), placeholder]);
        let aabb = children(self, left, left + 1);
        self.nodes[node_id] = BinaryNode::Inner { aabb, left: left as u32, right: left as u32 + 1 };
        aabb
    }
}

/// `max - min` of the items' centroids per axis, taken over the integer keys
/// and decoded: the same extent `Aabb::grow_point` over the centroids gives.
fn centroid_extent(items: &[MedianItem]) -> Vec3 {
    let (mut lo, mut hi) = ([u32::MAX; 3], [0u32; 3]);
    for it in items {
        for a in 0..3 {
            lo[a] = lo[a].min(it.key[a]);
            hi[a] = hi[a].max(it.key[a]);
        }
    }
    let span = |a: usize| from_order_key(hi[a]) - from_order_key(lo[a]);
    Vec3::new(span(0), span(1), span(2))
}

/// Per-primitive build record of the binned-SAH and HLBVH builders.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrimInfo {
    pub(crate) index: u32,
    pub(crate) centroid: Vec3,
    pub(crate) aabb: Aabb,
}

impl PrimInfo {
    pub(crate) fn new(index: usize, aabb: Aabb) -> Self {
        PrimInfo { index: index as u32, centroid: aabb.centroid(), aabb }
    }
}

/// Builds the binned-SAH subtree for `info[first..first+count]` into
/// `nodes[node_id]`.
fn build_sah(
    nodes: &mut Vec<BinaryNode>,
    node_id: usize,
    info: &mut [PrimInfo],
    first: usize,
    count: usize,
    params: &BuildParams,
) {
    let slice = &mut info[first..first + count];
    let mut bounds = Aabb::EMPTY;
    let mut centroid_bounds = Aabb::EMPTY;
    for p in slice.iter() {
        bounds.grow(&p.aabb);
        centroid_bounds.grow_point(p.centroid);
    }
    let leaf = BinaryNode::Leaf { aabb: bounds, first: first as u32, count: count as u32 };
    if count <= params.max_leaf_size {
        nodes[node_id] = leaf;
        return;
    }

    let mid = match find_best_split(slice, &centroid_bounds) {
        Some((axis, plane)) => {
            let mid = partition(slice, axis, plane);
            if mid == 0 || mid == count {
                // Degenerate SAH split: sort along the widest centroid axis
                // and cut at the median.
                sort_along_widest_axis(slice, &centroid_bounds);
                count / 2
            } else {
                mid
            }
        }
        None => {
            // All centroids coincide: either make a leaf (small) or halve
            // the range as the ancestors' partitions left it, to bound the
            // recursion depth.
            if count <= params.max_leaf_size * 4 {
                nodes[node_id] = leaf;
                return;
            }
            count / 2
        }
    };

    let left_id = nodes.len();
    nodes.push(BinaryNode::Leaf { aabb: Aabb::EMPTY, first: 0, count: 0 });
    let right_id = nodes.len();
    nodes.push(BinaryNode::Leaf { aabb: Aabb::EMPTY, first: 0, count: 0 });
    nodes[node_id] =
        BinaryNode::Inner { aabb: bounds, left: left_id as u32, right: right_id as u32 };

    build_sah(nodes, left_id, info, first, mid, params);
    build_sah(nodes, right_id, info, first + mid, count - mid, params);
}

/// Deterministically orders primitives along the widest centroid axis.
pub(crate) fn sort_along_widest_axis(slice: &mut [PrimInfo], centroid_bounds: &Aabb) {
    let axis = centroid_bounds.extent().max_axis();
    slice.sort_by(|a, b| {
        a.centroid[axis]
            .partial_cmp(&b.centroid[axis])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index))
    });
}

/// Finds the best binned SAH split; `None` when all centroids coincide.
pub(crate) fn find_best_split(slice: &[PrimInfo], centroid_bounds: &Aabb) -> Option<(usize, f32)> {
    let ext = centroid_bounds.extent();
    if ext.max_component() <= COINCIDENT_EXTENT {
        return None;
    }

    let mut best: Option<(usize, f32, f32)> = None; // (axis, plane, cost)
    for axis in 0..3 {
        if ext[axis] <= COINCIDENT_EXTENT {
            continue;
        }
        let lo = centroid_bounds.min[axis];
        let scale = SAH_BINS as f32 / ext[axis];

        let mut bin_bounds = [Aabb::EMPTY; SAH_BINS];
        let mut bin_counts = [0usize; SAH_BINS];
        for p in slice {
            let b = (((p.centroid[axis] - lo) * scale) as usize).min(SAH_BINS - 1);
            bin_bounds[b].grow(&p.aabb);
            bin_counts[b] += 1;
        }

        // Sweep from the right to accumulate suffix bounds/counts.
        let mut right_bounds = [Aabb::EMPTY; SAH_BINS];
        let mut right_counts = [0usize; SAH_BINS];
        let mut acc = Aabb::EMPTY;
        let mut cnt = 0usize;
        for i in (1..SAH_BINS).rev() {
            acc.grow(&bin_bounds[i]);
            cnt += bin_counts[i];
            right_bounds[i] = acc;
            right_counts[i] = cnt;
        }

        let mut left_acc = Aabb::EMPTY;
        let mut left_cnt = 0usize;
        for i in 0..SAH_BINS - 1 {
            left_acc.grow(&bin_bounds[i]);
            left_cnt += bin_counts[i];
            if left_cnt == 0 || right_counts[i + 1] == 0 {
                continue;
            }
            let cost = left_acc.surface_area() * left_cnt as f32
                + right_bounds[i + 1].surface_area() * right_counts[i + 1] as f32;
            let plane = lo + (i + 1) as f32 / scale;
            if best.is_none_or(|(_, _, c)| cost < c) {
                best = Some((axis, plane, cost));
            }
        }
    }
    best.map(|(axis, plane, _)| (axis, plane))
}

/// Partitions `slice` so primitives with `centroid[axis] < plane` come first;
/// returns the partition point.
pub(crate) fn partition(slice: &mut [PrimInfo], axis: usize, plane: f32) -> usize {
    let mut mid = 0;
    for i in 0..slice.len() {
        if slice[i].centroid[axis] < plane {
            slice.swap(i, mid);
            mid += 1;
        }
    }
    mid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrimHit;
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

    fn grid(n: usize) -> Vec<Tri> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f32 * 2.0;
                let z = (i / 10) as f32 * 2.0;
                Tri(Triangle::new(
                    Vec3::new(x, 0.0, z),
                    Vec3::new(x + 1.0, 0.0, z),
                    Vec3::new(x, 1.0, z),
                ))
            })
            .collect()
    }

    fn leaf_prim_multiset(bvh: &BinaryBvh) -> Vec<u32> {
        let mut v = bvh.prim_order.clone();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_input_single_empty_leaf() {
        let prims: Vec<Tri> = Vec::new();
        let bvh = BinaryBvh::build(&prims, &BuildParams::default());
        assert_eq!(bvh.nodes.len(), 1);
        assert!(matches!(bvh.nodes[0], BinaryNode::Leaf { count: 0, .. }));
    }

    #[test]
    fn all_primitives_present_exactly_once() {
        let prims = grid(100);
        let bvh = BinaryBvh::build(&prims, &BuildParams::default());
        let order = leaf_prim_multiset(&bvh);
        assert_eq!(order, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn root_bounds_contain_all_leaves() {
        let prims = grid(100);
        let bvh = BinaryBvh::build(&prims, &BuildParams::default());
        let root = bvh.nodes[0].aabb();
        for n in &bvh.nodes {
            assert!(root.contains(&n.aabb()), "root must contain {:?}", n.aabb());
        }
    }

    #[test]
    fn parent_contains_children() {
        let prims = grid(100);
        let bvh = BinaryBvh::build(&prims, &BuildParams::default());
        for n in &bvh.nodes {
            if let BinaryNode::Inner { aabb, left, right } = n {
                assert!(aabb.contains(&bvh.nodes[*left as usize].aabb()));
                assert!(aabb.contains(&bvh.nodes[*right as usize].aabb()));
            }
        }
    }

    #[test]
    fn leaves_respect_max_size() {
        let prims = grid(200);
        let params = BuildParams { max_leaf_size: 2, ..BuildParams::default() };
        let bvh = BinaryBvh::build(&prims, &params);
        for n in &bvh.nodes {
            if let BinaryNode::Leaf { count, .. } = n {
                assert!(*count <= 2 * 4, "leaf too big: {count}");
            }
        }
    }

    #[test]
    fn coincident_centroids_terminate() {
        // 100 identical triangles: centroid bounds are a point.
        let t = Triangle::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0));
        let prims: Vec<Tri> = (0..100).map(|_| Tri(t)).collect();
        let bvh = BinaryBvh::build(&prims, &BuildParams::default());
        assert_eq!(leaf_prim_multiset(&bvh).len(), 100);
        assert!(bvh.depth() < 64);
    }

    #[test]
    fn single_primitive() {
        let prims = grid(1);
        let bvh = BinaryBvh::build(&prims, &BuildParams::default());
        assert_eq!(bvh.nodes.len(), 1);
        assert_eq!(bvh.prim_order, vec![0]);
    }

    #[test]
    fn depth_is_logarithmic_for_uniform_grid() {
        let prims = grid(1000);
        let bvh = BinaryBvh::build(&prims, &BuildParams::default());
        // 1000 prims / 4 per leaf = 250 leaves; a balanced tree is depth ~8.
        assert!(bvh.depth() <= 20, "depth {} too large", bvh.depth());
    }
}
