//! The BVH the simulator traverses: a wide tree ("BVHk") in flat arrays.
//!
//! A wide BVH allows up to `k` children per internal node (the paper, like
//! Vulkan-Sim, traverses BVH6: §II-C, Fig. 3). Each child of an internal
//! node is itself a node — either another internal node or a *leaf node*
//! holding a primitive range. Traversal-stack entries hold node identifiers
//! (standing in for the 8-byte node addresses of real hardware).
//!
//! [`FlatBvh`] is the only runtime layout. [`FlatBvh::from_binary`]
//! collapses the builder's binary tree to width `k` and writes, in that one
//! DFS pre-order recursion:
//!
//! * one fixed 32-byte [`FlatNode`] record per node, indexed by [`NodeId`]
//!   (DFS pre-order — the first child of an internal node is `parent + 1`),
//!   which is also the simulated address mapping of
//!   [`crate::layout::BvhLayout`] and the `(t, node)` traversal tie-break;
//! * a child-record pool in which the children of each internal node are
//!   adjacent, with the child AABBs stored as six structure-of-arrays plane
//!   vectors (`min_x .. max_z`) — one node visit reads one contiguous run;
//! * the escape link of every node (stackless traversal): in pre-order it
//!   is the first id after the node's subtree, known when the recursion
//!   returns;
//! * the leaf primitive permutation, copied verbatim from the binary tree.
//!
//! The ray-box test evaluates a full [`MAX_WIDTH`]-lane batch of child
//! AABBs per node visit straight from the plane arrays: fixed-width local
//! arrays, no branches inside the lane loop, exactly the shape the
//! autovectorizer lowers to SIMD. Each lane performs the *same* operations
//! in the *same* order as [`Aabb::intersect`], and lanes beyond the node's
//! child count are masked out of the [`ChildHits`] insertion, so traversal
//! order is that of the scalar one-box-at-a-time loop (asserted on every
//! inner node of a built tree by this module's tests).

use crate::builder::{BinaryBvh, BinaryNode, BuildParams};
use crate::traverse::{ChildHits, Hit, NodeStep, StacklessStep, MAX_WIDTH};
use crate::{PrimHit, Primitive};
use sms_geom::{Aabb, Ray, Vec3};

/// Identifier of a node in a [`FlatBvh`] (index into [`FlatBvh::nodes`]).
pub type NodeId = u32;

/// Leaf flag in [`FlatNode::count_kind`]; low bits hold the count.
const LEAF_BIT: u32 = 1 << 31;

/// Sentinel in [`FlatBvh::escape`]: a node whose whole right context is
/// exhausted has no escape target (traversal is finished).
pub const NO_NODE: NodeId = NodeId::MAX;

/// Trailing padding entries on the child pool so a node's batch load of
/// [`MAX_WIDTH`] lanes is always in bounds; pad lanes are masked out.
const CHILD_PAD: usize = MAX_WIDTH;

/// One node of a [`FlatBvh`]: 32 bytes, cache-line friendly.
///
/// `min`/`max` are the node's own bounds (from the parent's child record;
/// the root uses the scene bounds). For internal nodes `first` indexes the
/// child-record pool and the low bits of `count_kind` give the child count;
/// for leaves (`count_kind & LEAF_BIT != 0`) `first` indexes
/// [`FlatBvh::prim_order`] and the low bits give the primitive count.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct FlatNode {
    /// Node bounds, minimum corner.
    pub min: [f32; 3],
    /// Child-record index (inner) or first primitive slot (leaf).
    pub first: u32,
    /// Node bounds, maximum corner.
    pub max: [f32; 3],
    /// Leaf flag (high bit) and child/primitive count (low 31 bits).
    pub count_kind: u32,
}

const _: () = assert!(std::mem::size_of::<FlatNode>() == 32, "FlatNode must stay 32 bytes");

impl FlatNode {
    /// `true` when this node is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.count_kind & LEAF_BIT != 0
    }

    /// Child count (inner) or primitive count (leaf).
    #[inline]
    pub fn count(&self) -> u32 {
        self.count_kind & !LEAF_BIT
    }
}

/// A wide bounding volume hierarchy in contiguous storage.
///
/// Build one with [`FlatBvh::build`] (which constructs a binary tree and
/// collapses it) or [`FlatBvh::from_binary`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlatBvh {
    /// Node pool indexed by [`NodeId`] in DFS pre-order; index 0 is the
    /// root (an inner node unless the scene is a single leaf).
    pub nodes: Vec<FlatNode>,
    /// Child node ids; the children of one internal node are adjacent.
    pub child_node: Vec<NodeId>,
    /// Child AABB planes (SoA), parallel to [`FlatBvh::child_node`].
    pub child_min_x: Vec<f32>,
    /// See [`FlatBvh::child_min_x`].
    pub child_min_y: Vec<f32>,
    /// See [`FlatBvh::child_min_x`].
    pub child_min_z: Vec<f32>,
    /// See [`FlatBvh::child_min_x`].
    pub child_max_x: Vec<f32>,
    /// See [`FlatBvh::child_min_x`].
    pub child_max_y: Vec<f32>,
    /// See [`FlatBvh::child_min_x`].
    pub child_max_z: Vec<f32>,
    /// Permutation of primitive indices referenced by leaves.
    pub prim_order: Vec<u32>,
    /// Bounds of the whole scene.
    pub root_aabb: Aabb,
    /// Escape link per node: the next sibling in child-record order, or —
    /// for a last child — the parent's escape, transitively. [`NO_NODE`]
    /// means the stackless traversal is finished. Following `escape`
    /// skips the node's entire subtree.
    pub escape: Vec<NodeId>,
    /// Maximum node depth (root = 0), recorded by the build.
    depth: usize,
}

impl FlatBvh {
    /// Builds a wide BVH directly from primitives.
    pub fn build<P: Primitive>(prims: &[P], params: &BuildParams) -> Self {
        let binary = BinaryBvh::build(prims, params);
        Self::from_binary(&binary, params.branching_factor)
    }

    /// Collapses a binary BVH into a wide BVH with branching factor `width`.
    ///
    /// Collapse strategy: starting from a binary node, repeatedly replace the
    /// inner child whose subtree bounds have the largest surface area with
    /// its two children, until `width` children are reached or only leaves
    /// remain. This is the standard BVH2→BVHk conversion used by wide-BVH
    /// work the paper builds on.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= width <= MAX_WIDTH`.
    pub fn from_binary(binary: &BinaryBvh, width: usize) -> Self {
        assert!(
            (2..=MAX_WIDTH).contains(&width),
            "branching factor must be in 2..={MAX_WIDTH}, got {width}"
        );
        // Collapsing only removes nodes, so the binary node count bounds
        // the node pool; every wide node but the root is one child record.
        let bound = binary.nodes.len();
        let children = bound - 1 + CHILD_PAD;
        let mut out = FlatBvh {
            nodes: Vec::with_capacity(bound),
            child_node: Vec::with_capacity(children),
            child_min_x: Vec::with_capacity(children),
            child_min_y: Vec::with_capacity(children),
            child_min_z: Vec::with_capacity(children),
            child_max_x: Vec::with_capacity(children),
            child_max_y: Vec::with_capacity(children),
            child_max_z: Vec::with_capacity(children),
            prim_order: binary.prim_order.clone(),
            root_aabb: binary.nodes[0].aabb(),
            escape: Vec::with_capacity(bound),
            depth: 0,
        };
        out.emit(binary, 0, width, 0);
        // `emit` records "first id after my subtree"; for the rightmost
        // spine that is the end of the tree, where traversal finishes.
        let end = out.nodes.len() as NodeId;
        for e in &mut out.escape {
            if *e == end {
                *e = NO_NODE;
            }
        }
        // Pad the child pool so every inner node can load a full
        // MAX_WIDTH-lane batch; pad lanes never reach ChildHits (masked by
        // the child count) so their values are arbitrary-but-fixed.
        for _ in 0..CHILD_PAD {
            out.push_child(0, &Aabb { min: Vec3::ZERO, max: Vec3::ZERO });
        }
        out.nodes.shrink_to_fit();
        out.escape.shrink_to_fit();
        out.child_node.shrink_to_fit();
        for plane in [
            &mut out.child_min_x,
            &mut out.child_min_y,
            &mut out.child_min_z,
            &mut out.child_max_x,
            &mut out.child_max_y,
            &mut out.child_max_z,
        ] {
            plane.shrink_to_fit();
        }
        out
    }

    fn push_child(&mut self, node: NodeId, aabb: &Aabb) {
        self.child_node.push(node);
        self.child_min_x.push(aabb.min.x);
        self.child_min_y.push(aabb.min.y);
        self.child_min_z.push(aabb.min.z);
        self.child_max_x.push(aabb.max.x);
        self.child_max_y.push(aabb.max.y);
        self.child_max_z.push(aabb.max.z);
    }

    /// Emits the wide node for binary node `bin_id` (at depth `level`) and,
    /// recursively, its subtree.
    fn emit(&mut self, binary: &BinaryBvh, bin_id: u32, width: usize, level: usize) {
        let my_id = self.nodes.len();
        self.depth = self.depth.max(level);
        let aabb = binary.nodes[bin_id as usize].aabb();
        let (min, max) =
            ([aabb.min.x, aabb.min.y, aabb.min.z], [aabb.max.x, aabb.max.y, aabb.max.z]);
        match &binary.nodes[bin_id as usize] {
            BinaryNode::Leaf { first, count, .. } => {
                self.nodes.push(FlatNode {
                    min,
                    first: *first,
                    max,
                    count_kind: *count | LEAF_BIT,
                });
                self.escape.push(my_id as NodeId + 1);
            }
            BinaryNode::Inner { left, right, .. } => {
                // Gather up to `width` binary subtree roots under this node.
                let mut slots = [0u32; MAX_WIDTH];
                (slots[0], slots[1]) = (*left, *right);
                let mut len = 2;
                while len < width {
                    // Expand the inner slot with the largest surface area.
                    let candidate = slots[..len]
                        .iter()
                        .enumerate()
                        .filter(|(_, &s)| {
                            matches!(binary.nodes[s as usize], BinaryNode::Inner { .. })
                        })
                        .max_by(|(_, &a), (_, &b)| {
                            let sa = binary.nodes[a as usize].aabb().surface_area();
                            let sb = binary.nodes[b as usize].aabb().surface_area();
                            sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .map(|(i, _)| i);
                    let Some(i) = candidate else { break };
                    let BinaryNode::Inner { left, right, .. } = &binary.nodes[slots[i] as usize]
                    else {
                        unreachable!("candidate filter only selects inner nodes")
                    };
                    // The expanded slot's children go to the back.
                    slots.copy_within(i + 1..len, i);
                    (slots[len - 1], slots[len]) = (*left, *right);
                    len += 1;
                }

                // Reserve this node's child records before descending, so
                // the pool stays in node-id order.
                let first = self.child_node.len();
                self.nodes.push(FlatNode { min, first: first as u32, max, count_kind: len as u32 });
                self.escape.push(NO_NODE);
                for &s in &slots[..len] {
                    self.push_child(NO_NODE, &binary.nodes[s as usize].aabb());
                }
                for (k, &s) in slots[..len].iter().enumerate() {
                    self.child_node[first + k] = self.nodes.len() as NodeId;
                    self.emit(binary, s, width, level + 1);
                }
                self.escape[my_id] = self.nodes.len() as NodeId;
            }
        }
    }

    /// Maximum node depth (root = 0).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total size of the flat arrays in host bytes (node pool + child pool
    /// + escape links, excluding the fixed batch padding).
    pub fn host_bytes(&self) -> usize {
        let children = self.child_node.len().saturating_sub(CHILD_PAD);
        self.nodes.len() * std::mem::size_of::<FlatNode>()
            + children * (std::mem::size_of::<NodeId>() + 6 * 4)
            + self.prim_order.len() * 4
            + self.escape.len() * std::mem::size_of::<NodeId>()
    }

    /// The node's own bounds as an [`Aabb`] — the exact `f32` planes the
    /// parent's child record stored (scene bounds for the root), so the
    /// stackless own-box test culls with the same values the stacked
    /// drivers tested one level up.
    #[inline]
    pub fn own_aabb(&self, node: NodeId) -> Aabb {
        let n = &self.nodes[node as usize];
        Aabb {
            min: Vec3::new(n.min[0], n.min[1], n.min[2]),
            max: Vec3::new(n.max[0], n.max[1], n.max[2]),
        }
    }

    /// The bounds child record `slot` stores.
    #[inline]
    pub(crate) fn child_aabb(&self, slot: usize) -> Aabb {
        Aabb {
            min: Vec3::new(self.child_min_x[slot], self.child_min_y[slot], self.child_min_z[slot]),
            max: Vec3::new(self.child_max_x[slot], self.child_max_y[slot], self.child_max_z[slot]),
        }
    }

    /// Nearest primitive hit of leaf `n` inside `[t_min, t_max]`.
    pub(crate) fn leaf_nearest<P: Primitive>(
        &self,
        n: &FlatNode,
        prims: &[P],
        ray: &Ray,
        t_min: f32,
        t_max: f32,
    ) -> Option<Hit> {
        let mut best = None;
        let mut limit = t_max;
        for slot in n.first..n.first + n.count() {
            let prim_id = self.prim_order[slot as usize];
            if let Some(PrimHit { t, u, v }) = prims[prim_id as usize].intersect(ray, t_min, limit)
            {
                limit = t;
                best = Some(Hit { t, prim: prim_id, u, v });
            }
        }
        best
    }

    /// Performs the intersection work of a single node visit.
    ///
    /// For internal nodes this is `k` ray-box tests; for leaves it is
    /// `count` ray-primitive tests. This is exactly the work one RT-unit
    /// operation-unit dispatch performs per fetched node.
    pub fn node_step<P: Primitive>(
        &self,
        prims: &[P],
        ray: &Ray,
        node: NodeId,
        t_min: f32,
        t_max: f32,
    ) -> NodeStep {
        let n = &self.nodes[node as usize];
        if n.is_leaf() {
            NodeStep::Leaf(self.leaf_nearest(n, prims, ray, t_min, t_max))
        } else {
            // Batched slab test: evaluate all MAX_WIDTH lanes branch-free
            // over the padded SoA planes (the fixed-width arrays below are
            // what the autovectorizer lowers to SIMD), then mask lanes
            // beyond the child count at insertion. Per lane this performs
            // exactly the operations of `Aabb::intersect`, in the same
            // order — so ChildHits, and therefore traversal order, is
            // bit-identical to the scalar one-box-at-a-time loop.
            let first = n.first as usize;
            let count = n.count() as usize;
            let load = |v: &[f32]| -> [f32; MAX_WIDTH] {
                let mut out = [0.0; MAX_WIDTH];
                out.copy_from_slice(&v[first..first + MAX_WIDTH]);
                out
            };
            let (min_x, min_y, min_z) =
                (load(&self.child_min_x), load(&self.child_min_y), load(&self.child_min_z));
            let (max_x, max_y, max_z) =
                (load(&self.child_max_x), load(&self.child_max_y), load(&self.child_max_z));
            let (o, inv) = (ray.origin, ray.inv_dir);
            let mut enter = [0.0f32; MAX_WIDTH];
            let mut exit = [0.0f32; MAX_WIDTH];
            for lane in 0..MAX_WIDTH {
                // Aabb::intersect per lane: t0/t1 slabs, near = min(t0,t1),
                // far = max(t0,t1), enter = max(near*, t_min),
                // exit = min(far*, t_max).
                let t0x = (min_x[lane] - o.x) * inv.x;
                let t1x = (max_x[lane] - o.x) * inv.x;
                let t0y = (min_y[lane] - o.y) * inv.y;
                let t1y = (max_y[lane] - o.y) * inv.y;
                let t0z = (min_z[lane] - o.z) * inv.z;
                let t1z = (max_z[lane] - o.z) * inv.z;
                enter[lane] = t0x.min(t1x).max(t0y.min(t1y)).max(t0z.min(t1z)).max(t_min);
                exit[lane] = t0x.max(t1x).min(t0y.max(t1y)).min(t0z.max(t1z)).min(t_max);
            }
            let mut hits = ChildHits::empty();
            for lane in 0..count {
                if enter[lane] <= exit[lane] {
                    hits.insert(enter[lane], self.child_node[first + lane]);
                }
            }
            NodeStep::Inner(hits)
        }
    }

    /// Performs one stackless node visit: the node's *own* ray-box test,
    /// plus the leaf's ray-primitive tests when the box is hit.
    pub fn stackless_step<P: Primitive>(
        &self,
        prims: &[P],
        ray: &Ray,
        node: NodeId,
        t_min: f32,
        t_max: f32,
    ) -> StacklessStep {
        let n = &self.nodes[node as usize];
        let escape = {
            let e = self.escape[node as usize];
            (e != NO_NODE).then_some(e)
        };
        if self.own_aabb(node).intersect(ray, t_min, t_max).is_none() {
            return StacklessStep::Miss { escape };
        }
        if n.is_leaf() {
            StacklessStep::Leaf { hit: self.leaf_nearest(n, prims, ray, t_min, t_max), escape }
        } else {
            StacklessStep::Descend { child: self.child_node[n.first as usize] }
        }
    }

    /// `(first, count)` into the primitive permutation when `node` is a
    /// leaf, `None` for internal nodes (sizes the simulated leaf fetch).
    #[inline]
    pub fn leaf_range(&self, node: NodeId) -> Option<(u32, u32)> {
        let n = &self.nodes[node as usize];
        n.is_leaf().then_some((n.first, n.count()))
    }

    /// Number of nodes in the tree.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::traverse::{traverse, traverse_stackless, RayQuery, TraversalScratch};
    use sms_geom::Triangle;

    pub(crate) struct Tri(pub(crate) Triangle);
    impl Primitive for Tri {
        fn aabb(&self) -> Aabb {
            self.0.aabb()
        }
        fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<PrimHit> {
            self.0.intersect(ray, t_min, t_max).map(|h| PrimHit { t: h.t, u: h.u, v: h.v })
        }
    }

    pub(crate) fn grid(n: usize) -> Vec<Tri> {
        (0..n)
            .map(|i| {
                let x = (i % 16) as f32 * 2.0;
                let z = (i / 16) as f32 * 2.0;
                Tri(Triangle::new(
                    Vec3::new(x, 0.0, z),
                    Vec3::new(x + 1.0, 0.0, z),
                    Vec3::new(x, 1.0, z),
                ))
            })
            .collect()
    }

    /// The child ids of inner node `id` (empty for a leaf).
    pub(crate) fn children(bvh: &FlatBvh, id: NodeId) -> &[NodeId] {
        let n = &bvh.nodes[id as usize];
        if n.is_leaf() {
            &[]
        } else {
            &bvh.child_node[n.first as usize..(n.first + n.count()) as usize]
        }
    }

    /// Slanted rays down onto the grid, one per 4x4 cell.
    fn rays() -> impl Iterator<Item = Ray> {
        (0..64).map(|i| {
            let x = (i % 8) as f32 * 4.0 + 0.3;
            let z = (i / 8) as f32 * 4.0 + 0.1;
            Ray::new(Vec3::new(x, 5.0, z), Vec3::new(0.01, -1.0, 0.02))
        })
    }

    #[test]
    fn preserves_node_numbering_and_kinds() {
        let prims = grid(300);
        let binary = BinaryBvh::build(&prims, &BuildParams::default());
        let flat = FlatBvh::from_binary(&binary, 6);
        assert_eq!(flat.prim_order, binary.prim_order);
        assert_eq!(flat.own_aabb(0), flat.root_aabb);

        // Leaves are the binary tree's leaves, untouched by the collapse.
        let mut want: Vec<(u32, u32)> = binary
            .nodes
            .iter()
            .filter_map(|n| match n {
                BinaryNode::Leaf { first, count, .. } => Some((*first, *count)),
                BinaryNode::Inner { .. } => None,
            })
            .collect();
        let mut got: Vec<(u32, u32)> =
            (0..flat.nodes.len()).filter_map(|id| flat.leaf_range(id as NodeId)).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);

        // Ids are DFS pre-order and the child pool is in id order: an
        // inner node's records start where the previous inner node's end,
        // its first child is the next id, and each child record carries
        // exactly the bounds the child node stores as its own.
        let mut pool = 0u32;
        for (id, n) in flat.nodes.iter().enumerate().filter(|(_, n)| !n.is_leaf()) {
            assert_eq!(n.first, pool, "node {id}: child records out of id order");
            pool += n.count();
            assert!((2..=6).contains(&n.count()));
            let slots = n.first as usize..(n.first + n.count()) as usize;
            assert_eq!(flat.child_node[slots.start], id as NodeId + 1);
            for slot in slots.clone() {
                assert_eq!(flat.child_aabb(slot), flat.own_aabb(flat.child_node[slot]));
            }
            assert!(flat.child_node[slots].windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(pool as usize + CHILD_PAD, flat.child_node.len());
        assert_eq!(pool as usize + 1, flat.nodes.len(), "every node but the root is one child");
    }

    /// The retired enum-node layout's inner-node visit, kept as the test
    /// reference: one [`Aabb::intersect`] per child, in child order.
    fn scalar_node_step(
        bvh: &FlatBvh,
        ray: &Ray,
        node: NodeId,
        t_min: f32,
        t_max: f32,
    ) -> ChildHits {
        let n = &bvh.nodes[node as usize];
        let mut hits = ChildHits::empty();
        for slot in n.first as usize..(n.first + n.count()) as usize {
            if let Some(t) = bvh.child_aabb(slot).intersect(ray, t_min, t_max) {
                hits.insert(t, bvh.child_node[slot]);
            }
        }
        hits
    }

    #[test]
    fn batched_node_step_matches_scalar_reference() {
        let prims = grid(500);
        let bits =
            |hits: &ChildHits| hits.iter().map(|(t, n)| (t.to_bits(), n)).collect::<Vec<_>>();
        // Axis-parallel rays put infinities (and, on a box plane, NaNs)
        // into the slabs — both kernels must order those the same way.
        let axis = [
            Ray::new(Vec3::new(4.0, 5.0, 4.0), Vec3::new(0.0, -1.0, 0.0)),
            Ray::new(Vec3::new(-1.0, 0.5, 6.0), Vec3::new(1.0, 0.0, 0.0)),
        ];
        for width in [2, 6, 8] {
            let bvh = FlatBvh::build(
                &prims,
                &BuildParams { branching_factor: width, ..BuildParams::default() },
            );
            let mut compared = 0usize;
            for ray in rays().chain(axis) {
                for (t_min, t_max) in [(0.0, f32::INFINITY), (0.0, 10.0), (4.5, 5.5)] {
                    for id in (0..bvh.nodes.len() as NodeId)
                        .filter(|&id| !bvh.nodes[id as usize].is_leaf())
                    {
                        let NodeStep::Inner(batched) =
                            bvh.node_step(&prims, &ray, id, t_min, t_max)
                        else {
                            panic!("node {id} is an inner node")
                        };
                        let scalar = scalar_node_step(&bvh, &ray, id, t_min, t_max);
                        assert_eq!(bits(&batched), bits(&scalar), "BVH{width} node {id}, {ray:?}");
                        compared += batched.len();
                    }
                }
            }
            assert!(compared > 0, "BVH{width}: no ray entered any child box");
        }
    }

    #[test]
    fn escape_links_are_well_formed() {
        let prims = grid(300);
        let flat = FlatBvh::build(&prims, &BuildParams::default());
        assert_eq!(flat.escape[0], NO_NODE, "root's escape ends traversal");
        for id in 0..flat.nodes.len() {
            let children = children(&flat, id as NodeId);
            for (k, &c) in children.iter().enumerate() {
                let expect = children.get(k + 1).copied().unwrap_or(flat.escape[id]);
                assert_eq!(flat.escape[c as usize], expect);
            }
        }
        // Following escape links from the root's first child must walk
        // every node's subtree exactly once and terminate: the chain of
        // (descend-all | escape) steps is finite and acyclic.
        let mut visited = 0usize;
        let mut current = 0 as NodeId;
        loop {
            visited += 1;
            assert!(visited <= flat.nodes.len(), "escape chain must not cycle");
            let n = &flat.nodes[current as usize];
            current = if n.is_leaf() {
                // skip subtree: leaf has none
                flat.escape[current as usize]
            } else {
                // descend to first child (always, ignoring geometry)
                flat.child_node[n.first as usize]
            };
            if current == NO_NODE {
                break;
            }
        }
        assert_eq!(visited, flat.nodes.len(), "descend-everywhere walk covers every node once");
    }

    #[test]
    fn stackless_traversal_matches_stacked_hits() {
        let prims = grid(500);
        let flat = FlatBvh::build(&prims, &BuildParams::default());
        let mut scratch = TraversalScratch::new();
        let mut stackless_visits = 0u64;
        for (i, ray) in rays().enumerate() {
            let nearest = RayQuery::nearest(ray, 0.0);
            let stacked = traverse(&flat, &prims, &nearest, &mut (), &mut scratch);
            let stackless = traverse_stackless(&flat, &prims, &nearest);
            stackless_visits += stackless.visits;
            // Same nearest primitive at the same bit-exact t: both paths
            // cull conservatively and keep the closest primitive hit.
            assert_eq!(
                stacked.hit.map(|h| (h.prim, h.t.to_bits())),
                stackless.hit.map(|h| (h.prim, h.t.to_bits())),
                "ray {i}: stackless nearest hit must agree"
            );
            let occlusion = RayQuery::occlusion(ray, 0.0, 10.0);
            let so = traverse(&flat, &prims, &occlusion, &mut (), &mut scratch).occluded;
            let slo = traverse_stackless(&flat, &prims, &occlusion).occluded;
            assert_eq!(so, slo, "ray {i}: stackless occlusion must agree");
        }
        assert!(stackless_visits > 0, "the visit counter must observe traversal");
    }

    #[test]
    fn node_record_is_32_bytes() {
        assert_eq!(std::mem::size_of::<FlatNode>(), 32);
        let prims = grid(64);
        let flat = FlatBvh::build(&prims, &BuildParams::default());
        // 32 B per node + 4 B escape link, 28 B per child record, 4 B per
        // primitive slot — and nothing else.
        let (n, c) = (flat.nodes.len(), flat.nodes.len() - 1);
        assert_eq!(flat.host_bytes(), n * 36 + c * 28 + 64 * 4);
    }
}
