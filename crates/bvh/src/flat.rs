//! The BVH the simulator traverses: a wide tree ("BVHk") in flat arrays.
//!
//! A wide BVH allows up to `k` children per internal node (the paper, like
//! Vulkan-Sim, traverses BVH6: §II-C, Fig. 3). Each child of an internal
//! node is itself a node — either another internal node or a *leaf node*
//! holding a primitive range. Traversal-stack entries hold node identifiers
//! (standing in for the 8-byte node addresses of real hardware).
//!
//! [`FlatBvh`] is the only runtime layout. [`FlatBvh::from_binary`]
//! collapses the builder's binary tree to width `k` and writes, in one
//! DFS pre-order recursion, arrays allocated once at their final length:
//!
//! * one 16-byte [`FlatNode`] record per node, indexed by [`NodeId`]
//!   (DFS pre-order — the first child of an internal node is `parent + 1`),
//!   which is also the simulated address mapping of
//!   [`crate::layout::BvhLayout`] and the `(t, node)` traversal tie-break.
//!   It holds the child or primitive range, the index of the child record
//!   that stores the node's own box, and the node's escape link
//!   (stackless traversal: in pre-order the first id after the node's
//!   subtree, known when the recursion returns);
//! * a child-record pool in which the children of each internal node are
//!   adjacent, with the child AABBs stored as six structure-of-arrays plane
//!   vectors (`min_x .. max_z`) — one node visit reads one contiguous run.
//!   This is the only place a box is stored: a node's own bounds are its
//!   parent's child record (the root's are [`FlatBvh::root_aabb`]), so a
//!   node costs 16 B, a child record 28 B and a primitive slot 4 B (a node
//!   used to repeat its 24-byte box in a 32-byte record plus a 4-byte
//!   escape link: 36 B per node);
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

/// Sentinel in [`FlatNode::escape`]: a node whose whole right context is
/// exhausted has no escape target (traversal is finished).
pub const NO_NODE: NodeId = NodeId::MAX;

/// Sentinel in [`FlatNode::own`]: the root is no child, its box is
/// [`FlatBvh::root_aabb`].
const NO_RECORD: u32 = u32::MAX;

/// Marks the last slot of an inner node in [`FlatBvh::from_binary`]'s
/// collapse plan (binary node ids stay below it).
const LAST_SLOT: u32 = 1 << 31;

/// Trailing padding entries on the child pool so a node's batch load of
/// [`MAX_WIDTH`] lanes is always in bounds; pad lanes are masked out.
const CHILD_PAD: usize = MAX_WIDTH;

/// One node of a [`FlatBvh`]: 16 bytes and 16-byte aligned, so a node
/// visit — stacked or stackless — reads one cache line of the node pool.
///
/// For internal nodes `first` indexes the child-record pool and the low
/// bits of `count_kind` give the child count; for leaves
/// (`count_kind & LEAF_BIT != 0`) `first` indexes [`FlatBvh::prim_order`]
/// and the low bits give the primitive count. The node's own box is not
/// repeated here: `own` names the child record that stores it
/// ([`FlatBvh::own_aabb`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(16))]
pub struct FlatNode {
    /// Child-record index (inner) or first primitive slot (leaf).
    pub first: u32,
    /// Leaf flag (high bit) and child/primitive count (low 31 bits).
    pub count_kind: u32,
    /// Index of the parent's child record that holds this node's bounds
    /// (the root has none; see [`FlatNode::own_record`]).
    pub own: u32,
    /// Escape link: the next sibling in child-record order, or — for a
    /// last child — the parent's escape, transitively. [`NO_NODE`] means
    /// the stackless traversal is finished. Following it skips the node's
    /// entire subtree.
    pub escape: NodeId,
}

const _: () = assert!(std::mem::size_of::<FlatNode>() == 16, "FlatNode must stay 16 bytes");

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

    /// The child record holding this node's bounds; `None` for the root.
    #[inline]
    pub fn own_record(&self) -> Option<usize> {
        (self.own != NO_RECORD).then_some(self.own as usize)
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
    /// Bounds of the whole scene: the root's own box.
    pub root_aabb: Aabb,
    /// Maximum node depth (root = 0), recorded by the build.
    depth: usize,
}

impl FlatBvh {
    /// Builds a wide BVH directly from primitives.
    pub fn build<P: Primitive>(prims: &[P], params: &BuildParams) -> Self {
        let mut binary = BinaryBvh::build(prims, params);
        // The binary tree is dropped here: its permutation moves, uncopied.
        let prim_order = std::mem::take(&mut binary.prim_order);
        Self::collapse(&binary, prim_order, params.branching_factor)
    }

    /// Collapses a binary BVH into a wide BVH with branching factor `width`.
    ///
    /// Collapse strategy: starting from a binary node, repeatedly replace the
    /// inner child whose subtree bounds have the largest surface area with
    /// its two children, until `width` children are reached or only leaves
    /// remain. This is the standard BVH2→BVHk conversion used by wide-BVH
    /// work the paper builds on.
    ///
    /// The collapse runs first, into a plan of child records (binary ids in
    /// pool order); its length sizes every array, which the emission then
    /// fills without growing.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= width <= MAX_WIDTH`.
    pub fn from_binary(binary: &BinaryBvh, width: usize) -> Self {
        Self::collapse(binary, binary.prim_order.clone(), width)
    }

    /// [`FlatBvh::from_binary`] with the binary tree's `prim_order` given.
    fn collapse(binary: &BinaryBvh, prim_order: Vec<u32>, width: usize) -> Self {
        assert!(
            (2..=MAX_WIDTH).contains(&width),
            "branching factor must be in 2..={MAX_WIDTH}, got {width}"
        );
        assert!(binary.nodes.len() < LAST_SLOT as usize, "binary tree too large to collapse");
        // Collapsing only removes nodes and every wide node but the root is
        // one child record, so the binary node count bounds the plan.
        let mut plan = Vec::with_capacity(binary.nodes.len());
        plan_collapse(binary, 0, width, &mut plan);
        let (nodes, children) = (plan.len() + 1, plan.len() + CHILD_PAD);
        let mut out = FlatBvh {
            nodes: Vec::with_capacity(nodes),
            child_node: Vec::with_capacity(children),
            child_min_x: Vec::with_capacity(children),
            child_min_y: Vec::with_capacity(children),
            child_min_z: Vec::with_capacity(children),
            child_max_x: Vec::with_capacity(children),
            child_max_y: Vec::with_capacity(children),
            child_max_z: Vec::with_capacity(children),
            prim_order,
            root_aabb: binary.nodes[0].aabb(),
            depth: 0,
        };
        out.emit(binary, &plan, 0, NO_RECORD, 0);
        // Pad the child pool so every inner node can load a full
        // MAX_WIDTH-lane batch; pad lanes never reach ChildHits (masked by
        // the child count) so their values are arbitrary-but-fixed.
        for _ in 0..CHILD_PAD {
            out.push_child(0, &Aabb { min: Vec3::ZERO, max: Vec3::ZERO });
        }
        debug_assert_eq!((out.nodes.len(), out.child_node.len()), (nodes, children));
        out
    }

    /// Appends one child record: the only writer of a box in this layout.
    fn push_child(&mut self, node: NodeId, aabb: &Aabb) {
        self.child_node.push(node);
        self.child_min_x.push(aabb.min.x);
        self.child_min_y.push(aabb.min.y);
        self.child_min_z.push(aabb.min.z);
        self.child_max_x.push(aabb.max.x);
        self.child_max_y.push(aabb.max.y);
        self.child_max_z.push(aabb.max.z);
    }

    /// Emits the wide node for binary node `bin_id` (at depth `level`, its
    /// box in child record `own`) and, recursively, its subtree; an inner
    /// node's slots are the `plan` entries from the pool's current end.
    fn emit(&mut self, binary: &BinaryBvh, plan: &[u32], bin_id: u32, own: u32, level: usize) {
        let my_id = self.nodes.len();
        self.depth = self.depth.max(level);
        // The first id after a subtree is its escape; past the last node
        // the traversal is finished.
        let end = plan.len() + 1;
        let escape = |after: usize| if after == end { NO_NODE } else { after as NodeId };
        match &binary.nodes[bin_id as usize] {
            BinaryNode::Leaf { first, count, .. } => {
                self.nodes.push(FlatNode {
                    first: *first,
                    count_kind: *count | LEAF_BIT,
                    own,
                    escape: escape(my_id + 1),
                });
            }
            BinaryNode::Inner { .. } => {
                // This node's child records are reserved before descending,
                // so the pool stays in node-id order.
                let first = self.child_node.len();
                let last = plan[first..].iter().position(|&s| s & LAST_SLOT != 0);
                let len = 1 + last.expect("collapse flags every inner node's last slot");
                self.nodes.push(FlatNode {
                    first: first as u32,
                    count_kind: len as u32,
                    own,
                    escape: NO_NODE,
                });
                let slots = first..first + len;
                for &s in &plan[slots.clone()] {
                    self.push_child(NO_NODE, &binary.nodes[(s & !LAST_SLOT) as usize].aabb());
                }
                for slot in slots {
                    self.child_node[slot] = self.nodes.len() as NodeId;
                    self.emit(binary, plan, plan[slot] & !LAST_SLOT, slot as u32, level + 1);
                }
                self.nodes[my_id].escape = escape(self.nodes.len());
            }
        }
    }

    /// Maximum node depth (root = 0).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total size of the flat arrays in host bytes: the node pool, the
    /// child pool (node id and six planes per record, excluding the fixed
    /// batch padding) and the primitive permutation `prim_order`.
    pub fn host_bytes(&self) -> usize {
        let children = self.child_node.len().saturating_sub(CHILD_PAD);
        self.nodes.len() * std::mem::size_of::<FlatNode>()
            + children * (std::mem::size_of::<NodeId>() + 6 * 4)
            + self.prim_order.len() * 4
    }

    /// The node's own bounds as an [`Aabb`] — the exact `f32` planes the
    /// parent's child record stores (scene bounds for the root), so the
    /// stackless own-box test culls with the same values the stacked
    /// drivers tested one level up.
    #[inline]
    pub fn own_aabb(&self, node: NodeId) -> Aabb {
        match self.nodes[node as usize].own_record() {
            Some(slot) => self.child_aabb(slot),
            None => self.root_aabb,
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
        let escape = (n.escape != NO_NODE).then_some(n.escape);
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

/// Appends the collapse of binary node `bin_id`'s subtree to `plan`, in the
/// order [`FlatBvh::emit`] reserves child records: an inner node's slots
/// (binary ids, the last flagged [`LAST_SLOT`]), then each slot's subtree.
fn plan_collapse(binary: &BinaryBvh, bin_id: u32, width: usize, plan: &mut Vec<u32>) {
    let BinaryNode::Inner { left, right, .. } = &binary.nodes[bin_id as usize] else { return };
    // Gather up to `width` binary subtree roots under this node, each with
    // its surface area when it is an inner node (a leaf is never expanded).
    let area = |s: u32| match &binary.nodes[s as usize] {
        BinaryNode::Inner { aabb, .. } => Some(aabb.surface_area()),
        BinaryNode::Leaf { .. } => None,
    };
    let mut slots = [0u32; MAX_WIDTH];
    let mut areas = [None; MAX_WIDTH];
    (slots[0], slots[1]) = (*left, *right);
    (areas[0], areas[1]) = (area(*left), area(*right));
    let mut len = 2;
    while len < width {
        // Expand the inner slot with the largest surface area.
        let candidate = areas[..len]
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.map(|a| (i, a)))
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i);
        let Some(i) = candidate else { break };
        let BinaryNode::Inner { left, right, .. } = &binary.nodes[slots[i] as usize] else {
            unreachable!("candidate filter only selects inner nodes")
        };
        // The expanded slot's children go to the back.
        slots.copy_within(i + 1..len, i);
        areas.copy_within(i + 1..len, i);
        (slots[len - 1], slots[len]) = (*left, *right);
        (areas[len - 1], areas[len]) = (area(*left), area(*right));
        len += 1;
    }
    plan.extend_from_slice(&slots[..len]);
    *plan.last_mut().expect("an inner node has two slots") |= LAST_SLOT;
    for &s in &slots[..len] {
        plan_collapse(binary, s, width, plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::BvhStats;
    use crate::traverse::{traverse, traverse_stackless, RayQuery, TraversalScratch};
    use sms_geom::Triangle;

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
    fn children(bvh: &FlatBvh, id: NodeId) -> &[NodeId] {
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
        // its first child is the next id, and its children's ids rise.
        let mut pool = 0u32;
        for (id, n) in flat.nodes.iter().enumerate().filter(|(_, n)| !n.is_leaf()) {
            assert_eq!(n.first, pool, "node {id}: child records out of id order");
            pool += n.count();
            assert!((2..=6).contains(&n.count()));
            let slots = n.first as usize..(n.first + n.count()) as usize;
            assert_eq!(flat.child_node[slots.start], id as NodeId + 1);
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
        assert_eq!(flat.nodes[0].escape, NO_NODE, "root's escape ends traversal");
        for id in 0..flat.nodes.len() {
            let children = children(&flat, id as NodeId);
            for (k, &c) in children.iter().enumerate() {
                let expect = children.get(k + 1).copied().unwrap_or(flat.nodes[id].escape);
                assert_eq!(flat.nodes[c as usize].escape, expect);
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
                flat.nodes[current as usize].escape
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
    fn node_record_is_16_bytes() {
        assert_eq!(std::mem::size_of::<FlatNode>(), 16);
        assert_eq!(std::mem::align_of::<FlatNode>(), 16);
        let prims = grid(64);
        let flat = FlatBvh::build(&prims, &BuildParams::default());
        // 16 B per node (escape link included), 28 B per child record,
        // 4 B per primitive slot — and nothing else.
        let (n, c) = (flat.nodes.len(), flat.nodes.len() - 1);
        assert_eq!(flat.host_bytes(), n * 16 + c * 28 + 64 * 4);
        // Every array is allocated at its final length.
        assert_eq!(flat.nodes.capacity(), n);
        assert_eq!(flat.child_node.capacity(), c + CHILD_PAD);
        assert_eq!(flat.child_max_z.capacity(), c + CHILD_PAD);
    }

    // Structural invariants of the collapsed k-wide tree: children within
    // the branching factor, every primitive reachable once, bounds nesting.

    fn with_width(width: usize) -> BuildParams {
        BuildParams { branching_factor: width, ..BuildParams::default() }
    }

    #[test]
    fn children_within_branching_factor() {
        for width in [2, 4, 6, 8] {
            let bvh = FlatBvh::build(&grid(300), &with_width(width));
            for n in bvh.nodes.iter().filter(|n| !n.is_leaf()) {
                assert!(n.count() >= 2);
                assert!(n.count() as usize <= width, "node has {} > {width}", n.count());
            }
        }
    }

    #[test]
    fn all_primitives_reachable_once() {
        let bvh = FlatBvh::build(&grid(257), &BuildParams::default());
        let mut seen = vec![0u32; 257];
        fn walk(bvh: &FlatBvh, id: NodeId, seen: &mut [u32]) {
            if let Some((first, count)) = bvh.leaf_range(id) {
                for i in first..first + count {
                    seen[bvh.prim_order[i as usize] as usize] += 1;
                }
            }
            for &c in children(bvh, id) {
                walk(bvh, c, seen);
            }
        }
        walk(&bvh, 0, &mut seen);
        assert!(seen.iter().all(|&c| c == 1), "every primitive exactly once");
    }

    #[test]
    fn wider_trees_are_shallower() {
        let prims = grid(1024);
        let d2 = FlatBvh::build(&prims, &with_width(2)).depth();
        let d6 = FlatBvh::build(&prims, &BuildParams::default()).depth();
        assert!(d6 <= d2, "BVH6 depth {d6} should not exceed BVH2 depth {d2}");
    }

    #[test]
    fn depth_is_the_longest_root_to_leaf_path() {
        fn rec(bvh: &FlatBvh, id: NodeId) -> usize {
            children(bvh, id).iter().map(|&c| 1 + rec(bvh, c)).max().unwrap_or(0)
        }
        for width in [2, 6] {
            let bvh = FlatBvh::build(&grid(700), &with_width(width));
            assert_eq!(bvh.depth(), rec(&bvh, 0), "BVH{width}");
        }
    }

    #[test]
    fn child_bounds_match_subtrees() {
        let prims = grid(300);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        // Every node's box, and every primitive's, lies inside the bounds of
        // every node above it.
        fn check(
            bvh: &FlatBvh,
            prims: &[impl crate::Primitive],
            id: NodeId,
            above: &mut Vec<Aabb>,
        ) {
            let own = bvh.own_aabb(id);
            assert!(above.iter().all(|a| a.contains(&own)), "node {id} pokes out of an ancestor");
            above.push(own);
            if let Some((first, count)) = bvh.leaf_range(id) {
                for i in first..first + count {
                    let prim = prims[bvh.prim_order[i as usize] as usize].aabb();
                    assert!(above.iter().all(|a| a.contains(&prim)), "node {id} leaks a primitive");
                }
            }
            for &c in children(bvh, id) {
                check(bvh, prims, c, above);
            }
            above.pop();
        }
        check(&bvh, &prims, 0, &mut Vec::new());
    }

    #[test]
    fn single_leaf_scene() {
        let params = BuildParams { max_leaf_size: 4, ..BuildParams::default() };
        let bvh = FlatBvh::build(&grid(3), &params);
        assert_eq!(bvh.nodes.len(), 1);
        assert_eq!(bvh.leaf_range(0), Some((0, 3)));
        assert_eq!(bvh.depth(), 0);
        assert_eq!(bvh.nodes[0].escape, crate::NO_NODE);
    }

    #[test]
    #[should_panic(expected = "branching factor")]
    fn width_one_rejected() {
        let binary = BinaryBvh::build(&grid(10), &BuildParams::default());
        let _ = FlatBvh::from_binary(&binary, 1);
    }

    /// `ChildHits` and the batched slab test hold `MAX_WIDTH` lanes; a wider
    /// tree used to build and then index out of bounds mid-simulation.
    #[test]
    #[should_panic(expected = "branching factor")]
    fn width_above_max_rejected() {
        let _ = FlatBvh::build(&grid(100), &with_width(crate::traverse::MAX_WIDTH + 1));
    }

    #[test]
    fn node_counts_consistent() {
        let bvh = FlatBvh::build(&grid(500), &BuildParams::default());
        let stats = BvhStats::measure(&bvh);
        assert_eq!(stats.inner_nodes + stats.leaf_nodes, bvh.nodes.len());
        assert!(stats.inner_nodes > 0);
        assert_eq!(stats.leaf_nodes, 500, "single-primitive leaves");
        assert_eq!(stats.depth, bvh.depth());
    }
}
