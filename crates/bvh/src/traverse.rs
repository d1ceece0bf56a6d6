//! Logical BVH traversal, written once.
//!
//! The traversal *algorithm* is deliberately factored out of the timing
//! model. [`FlatBvh::node_step`] (stacked) and [`FlatBvh::stackless_step`]
//! (escape links) perform the work of one node visit, and
//! [`RayQuery::apply_leaf`] is the one rule that turns a leaf's hit into
//! the query's answer. Two functional drivers layer the visit order on
//! top — [`traverse`] (depth-first, nearest child first, with a stack) and
//! [`traverse_stackless`] (fixed order, escape links) — and so does the
//! RT-unit state machine in the `sms-rtunit` crate, one visit per
//! operation-unit commit. Because traversal order depends only on the ray
//! and the BVH, *every stack configuration performs identical traversal
//! work*; configurations differ only in where stack entries physically
//! live and what memory traffic they cost. This mirrors the paper's
//! normalized-IPC methodology.
//!
//! Child ordering goes through the single [`ChildHits::insert`]
//! implementation with its deterministic `(t, node)` tie-break.

use crate::flat::{FlatBvh, NodeId};
use crate::Primitive;
use sms_geom::Ray;

/// Maximum supported branching factor (the paper's BVH6 fits comfortably).
pub const MAX_WIDTH: usize = 8;

/// A successful nearest-hit traversal result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Ray parameter of the nearest hit.
    pub t: f32,
    /// Index of the hit primitive in the *scene's* primitive array.
    pub prim: u32,
    /// Barycentric / parametric coordinate.
    pub u: f32,
    /// Barycentric / parametric coordinate.
    pub v: f32,
}

/// Observes logical traversal-stack activity.
///
/// The paper records "the stack depth … at every push and pop operation
/// across all rays" (Fig. 5). Implementations receive the depth *after* the
/// operation took effect. `()` is the no-op observer.
pub trait StackObserver {
    /// Called after each push with the new logical depth.
    fn on_push(&mut self, depth: usize);
    /// Called after each pop with the new logical depth.
    fn on_pop(&mut self, depth: usize);
}

impl StackObserver for () {
    #[inline]
    fn on_push(&mut self, _depth: usize) {}
    #[inline]
    fn on_pop(&mut self, _depth: usize) {}
}

/// Children of an internal node that the ray intersects, sorted nearest
/// first. Fixed-capacity to keep the hot path allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct ChildHits {
    entries: [(f32, NodeId); MAX_WIDTH],
    len: usize,
}

impl ChildHits {
    /// No intersected children.
    #[inline]
    pub fn empty() -> Self {
        ChildHits { entries: [(0.0, 0); MAX_WIDTH], len: 0 }
    }

    /// Number of intersected children.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no child was intersected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th nearest intersected child as `(t_entry, node)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> (f32, NodeId) {
        assert!(i < self.len);
        self.entries[i]
    }

    /// Iterates over `(t_entry, node)` pairs nearest-first.
    pub fn iter(&self) -> impl Iterator<Item = (f32, NodeId)> + '_ {
        self.entries[..self.len].iter().copied()
    }

    /// Inserts a child in sorted position by `(t, node)`.
    ///
    /// This is the *only* child-ordering implementation: every traversal
    /// path (functional drivers, RT unit) routes through it, so the deterministic
    /// tie-break — ascending `t`, then ascending node id — lives in exactly
    /// one place. Since node ids are unique the order is a strict total
    /// order: the result is independent of insertion order.
    #[inline]
    pub fn insert(&mut self, t: f32, node: NodeId) {
        debug_assert!(self.len < MAX_WIDTH);
        let mut j = self.len;
        while j > 0 {
            let prev = self.entries[j - 1];
            if prev.0 > t || (prev.0 == t && prev.1 > node) {
                self.entries[j] = prev;
                j -= 1;
            } else {
                break;
            }
        }
        self.entries[j] = (t, node);
        self.len += 1;
    }
}

/// The outcome of visiting one BVH node.
#[derive(Debug, Clone)]
pub enum NodeStep {
    /// An internal node was visited: these children were intersected
    /// (nearest first). The driver visits the first and pushes the rest.
    Inner(ChildHits),
    /// A leaf node was visited: the nearest primitive hit in `[t_min, t_max]`
    /// if any.
    Leaf(Option<Hit>),
}

/// The outcome of one *stackless* node visit (escape-index traversal,
/// Prokopenko & Lebrun-Grandié style).
///
/// Where [`NodeStep`] tests the *children's* boxes and hands the driver a
/// sorted worklist to push, a stackless visit tests the node's *own* box
/// and resolves wholly locally: descend to the first child, or follow the
/// precomputed escape link. No stack entry is ever created — the price is
/// losing nearest-first ordering, so rays revisit more nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StacklessStep {
    /// Own bounds hit on an internal node: descend to the first child.
    Descend {
        /// The node's first child (adjacent in the child-record pool).
        child: NodeId,
    },
    /// Own bounds hit on a leaf: the nearest primitive hit (if any), then
    /// the traversal continues at the escape link.
    Leaf {
        /// Nearest primitive hit inside `[t_min, t_max]`, if any.
        hit: Option<Hit>,
        /// Next node in escape order, `None` when the traversal is done.
        escape: Option<NodeId>,
    },
    /// Own bounds missed: skip the whole subtree via the escape link.
    Miss {
        /// Next node in escape order, `None` when the traversal is done.
        escape: Option<NodeId>,
    },
}

/// One ray query: the ray, its parameter interval and its kind. Every
/// traversal starts from [`RayQuery::start`] and feeds each leaf it visits
/// through [`RayQuery::apply_leaf`], the one leaf rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayQuery {
    /// The ray to trace.
    pub ray: Ray,
    /// Minimum ray parameter.
    pub t_min: f32,
    /// Maximum ray parameter (shadow rays bound this by the light distance).
    pub t_max: f32,
    /// `true` for occlusion (any-hit) queries: traversal terminates at the
    /// first primitive hit.
    pub any_hit: bool,
}

/// What a traversal of a [`RayQuery`] has found so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryState {
    /// The nearest hit accepted so far (never set by an any-hit query).
    pub best: Option<Hit>,
    /// The query's `t_max`, shrunk to `best.t` by every accepted hit.
    pub t_max: f32,
    /// `true` once an any-hit query found its occluder.
    pub occluded: bool,
}

/// What one leaf's hit did to a query ([`RayQuery::apply_leaf`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafOutcome {
    /// No hit, or one not nearer than the current `t_max`.
    Ignored,
    /// The hit became `best` and shrank `t_max`.
    Nearer,
    /// An any-hit query was hit: its traversal ends here.
    Occluded,
}

impl RayQuery {
    /// A nearest-hit (closest-hit) query over `[t_min, ∞)`.
    pub fn nearest(ray: Ray, t_min: f32) -> Self {
        RayQuery { ray, t_min, t_max: f32::INFINITY, any_hit: false }
    }

    /// An occlusion query over `[t_min, t_max]`.
    pub fn occlusion(ray: Ray, t_min: f32, t_max: f32) -> Self {
        RayQuery { ray, t_min, t_max, any_hit: true }
    }

    /// The state a traversal of this query starts from.
    #[inline]
    pub fn start(&self) -> QueryState {
        QueryState { best: None, t_max: self.t_max, occluded: false }
    }

    /// The leaf rule: applies the nearest hit a visited leaf reported.
    ///
    /// An any-hit query ends at any hit. Otherwise a hit strictly below the
    /// current `t_max` becomes `best` and shrinks `t_max`; anything else
    /// is ignored, so on an exact-`t` tie across leaves the first leaf
    /// visited keeps the hit. Inside a leaf, [`FlatBvh`] already kept the
    /// nearest primitive.
    #[inline]
    pub fn apply_leaf(&self, state: &mut QueryState, hit: Option<Hit>) -> LeafOutcome {
        match hit {
            Some(_) if self.any_hit => {
                state.occluded = true;
                LeafOutcome::Occluded
            }
            Some(h) if h.t < state.t_max => {
                state.t_max = h.t;
                state.best = Some(h);
                LeafOutcome::Nearer
            }
            _ => LeafOutcome::Ignored,
        }
    }
}

/// What one functional traversal of a [`RayQuery`] found, and its cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Traversal {
    /// The nearest hit (`None` on a miss and for any-hit queries).
    pub hit: Option<Hit>,
    /// `true` when an any-hit query found an occluder.
    pub occluded: bool,
    /// Nodes visited.
    pub visits: u64,
}

/// Reusable traversal working memory: [`traverse`] needs one node stack
/// per *in-flight* ray, so hot loops (the functional renderer) thread one
/// scratch through every call and allocate nothing per ray.
#[derive(Debug, Default)]
pub struct TraversalScratch {
    stack: Vec<NodeId>,
}

impl TraversalScratch {
    /// A scratch with a stack sized for typical BVH6 depths.
    pub fn new() -> Self {
        TraversalScratch { stack: Vec::with_capacity(64) }
    }
}

/// The stacked traversal: depth-first, nearest child first, the other
/// intersected children pushed far-to-near on an unbounded logical stack
/// (paper §II-A).
///
/// This is the functional reference for every stacked configuration: the
/// RT-unit timing model performs the same visits in the same order, the
/// same pushes and pops at the same depths (`observer` sees each), and
/// produces identical results (asserted by integration tests).
pub fn traverse<P: Primitive, O: StackObserver>(
    bvh: &FlatBvh,
    prims: &[P],
    query: &RayQuery,
    observer: &mut O,
    scratch: &mut TraversalScratch,
) -> Traversal {
    let stack = &mut scratch.stack;
    stack.clear();
    let mut state = query.start();
    let mut visits = 0u64;
    let mut current: Option<NodeId> = Some(0);

    while let Some(node) = current {
        visits += 1;
        current = match bvh.node_step(prims, &query.ray, node, query.t_min, state.t_max) {
            NodeStep::Inner(hits) if !hits.is_empty() => {
                // Visit the nearest child next; push the rest far-to-near
                // so the nearest pending child is popped first.
                for i in (1..hits.len()).rev() {
                    stack.push(hits.get(i).1);
                    observer.on_push(stack.len());
                }
                Some(hits.get(0).1)
            }
            NodeStep::Inner(_) => pop(stack, observer),
            NodeStep::Leaf(hit) => {
                if query.apply_leaf(&mut state, hit) == LeafOutcome::Occluded {
                    break;
                }
                pop(stack, observer)
            }
        };
    }
    Traversal { hit: state.best, occluded: state.occluded, visits }
}

/// The stackless traversal: **zero stack operations**, every visit
/// resolves locally through the escape links.
///
/// The visit order is fixed left-to-right (child-record order), not
/// nearest-first, so the same ray touches more nodes than [`traverse`];
/// `visits` quantifies the re-visit overhead. Hit distances are identical
/// to [`traverse`]'s: both paths cull with conservative box tests and keep
/// the closest primitive hit.
pub fn traverse_stackless<P: Primitive>(bvh: &FlatBvh, prims: &[P], query: &RayQuery) -> Traversal {
    let mut state = query.start();
    let mut visits = 0u64;
    let mut current: Option<NodeId> = Some(0);
    while let Some(node) = current {
        visits += 1;
        current = match bvh.stackless_step(prims, &query.ray, node, query.t_min, state.t_max) {
            StacklessStep::Descend { child } => Some(child),
            StacklessStep::Leaf { hit, escape } => {
                if query.apply_leaf(&mut state, hit) == LeafOutcome::Occluded {
                    break;
                }
                escape
            }
            StacklessStep::Miss { escape } => escape,
        };
    }
    Traversal { hit: state.best, occluded: state.occluded, visits }
}

#[inline]
fn pop<O: StackObserver>(stack: &mut Vec<NodeId>, observer: &mut O) -> Option<NodeId> {
    let v = stack.pop();
    if v.is_some() {
        observer.on_pop(stack.len());
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BuildParams;
    use crate::PrimHit;
    use sms_geom::{Aabb, Ray, Triangle, Vec3};

    struct Tri(Triangle);
    impl Primitive for Tri {
        fn aabb(&self) -> Aabb {
            self.0.aabb()
        }
        fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<PrimHit> {
            self.0.intersect(ray, t_min, t_max).map(|h| PrimHit { t: h.t, u: h.u, v: h.v })
        }
    }

    /// A wall of triangles at increasing z; rays down +z must hit the nearest.
    fn walls(n: usize) -> Vec<Tri> {
        (0..n)
            .map(|i| {
                let z = i as f32 + 1.0;
                Tri(Triangle::new(
                    Vec3::new(-10.0, -10.0, z),
                    Vec3::new(10.0, -10.0, z),
                    Vec3::new(0.0, 10.0, z),
                ))
            })
            .collect()
    }

    fn nearest(bvh: &FlatBvh, prims: &[Tri], ray: &Ray, t_min: f32, t_max: f32) -> Option<Hit> {
        let query = RayQuery { ray: *ray, t_min, t_max, any_hit: false };
        traverse(bvh, prims, &query, &mut (), &mut TraversalScratch::new()).hit
    }

    fn occluded(bvh: &FlatBvh, prims: &[Tri], ray: &Ray, t_max: f32) -> bool {
        let query = RayQuery::occlusion(*ray, 0.0, t_max);
        traverse(bvh, prims, &query, &mut (), &mut TraversalScratch::new()).occluded
    }

    fn brute_force(prims: &[Tri], ray: &Ray, t_min: f32, t_max: f32) -> Option<Hit> {
        let mut best: Option<Hit> = None;
        let mut limit = t_max;
        for (i, p) in prims.iter().enumerate() {
            if let Some(h) = p.intersect(ray, t_min, limit) {
                limit = h.t;
                best = Some(Hit { t: h.t, prim: i as u32, u: h.u, v: h.v });
            }
        }
        best
    }

    #[test]
    fn nearest_hit_matches_brute_force() {
        let prims = walls(50);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        for i in 0..20 {
            let x = (i as f32) * 0.05 - 0.5;
            let ray = Ray::new(Vec3::new(x, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
            let a = nearest(&bvh, &prims, &ray, 0.0, f32::INFINITY);
            let b = brute_force(&prims, &ray, 0.0, f32::INFINITY);
            assert_eq!(a.map(|h| h.prim), b.map(|h| h.prim));
        }
    }

    #[test]
    fn miss_returns_none() {
        let prims = walls(10);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        let ray = Ray::new(Vec3::new(100.0, 100.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
        assert!(nearest(&bvh, &prims, &ray, 0.0, f32::INFINITY).is_none());
        assert!(!occluded(&bvh, &prims, &ray, f32::INFINITY));
    }

    #[test]
    fn any_hit_detects_occlusion_within_range() {
        let prims = walls(10);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
        assert!(occluded(&bvh, &prims, &ray, f32::INFINITY));
        // Nothing closer than z=1, so a segment ending at 0.5 is unoccluded.
        assert!(!occluded(&bvh, &prims, &ray, 0.5));
    }

    #[test]
    fn leaf_rule_keeps_the_first_of_equal_hits_and_ends_any_hit_queries() {
        let ray = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0));
        let hit = |t: f32, prim: u32| Some(Hit { t, prim, u: 0.0, v: 0.0 });
        let query = RayQuery::nearest(ray, 0.0);
        let mut state = query.start();
        assert_eq!(query.apply_leaf(&mut state, None), LeafOutcome::Ignored);
        assert_eq!(query.apply_leaf(&mut state, hit(2.0, 0)), LeafOutcome::Nearer);
        assert_eq!(query.apply_leaf(&mut state, hit(2.0, 1)), LeafOutcome::Ignored);
        assert_eq!(query.apply_leaf(&mut state, hit(3.0, 2)), LeafOutcome::Ignored);
        assert_eq!(
            (state.best.map(|h| h.prim), state.t_max, state.occluded),
            (Some(0), 2.0, false)
        );

        let query = RayQuery::occlusion(ray, 0.0, 5.0);
        let mut state = query.start();
        assert_eq!(query.apply_leaf(&mut state, hit(4.0, 3)), LeafOutcome::Occluded);
        assert_eq!((state.best, state.t_max, state.occluded), (None, 5.0, true));
    }

    #[test]
    fn both_drivers_count_visits_and_agree_on_any_hit() {
        let prims = walls(50);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        let mut scratch = TraversalScratch::new();
        for i in 0..20 {
            let x = (i as f32) * 0.05 - 0.5;
            let ray = Ray::new(Vec3::new(x, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
            let near = RayQuery::nearest(ray, 0.0);
            let stacked = traverse(&bvh, &prims, &near, &mut (), &mut scratch);
            let stackless = traverse_stackless(&bvh, &prims, &near);
            assert_eq!(stacked.hit, stackless.hit);
            assert!(stacked.visits >= 1 && stackless.visits >= 1);
            for t_max in [0.5, 1.5, f32::INFINITY] {
                let occ = RayQuery::occlusion(ray, 0.0, t_max);
                let stacked = traverse(&bvh, &prims, &occ, &mut (), &mut scratch);
                let stackless = traverse_stackless(&bvh, &prims, &occ);
                assert_eq!((stacked.hit, stacked.occluded), (None, t_max > 1.0));
                assert_eq!((stackless.hit, stackless.occluded), (None, t_max > 1.0));
            }
        }
    }

    #[test]
    fn child_hits_sorted_nearest_first() {
        let mut h = ChildHits::empty();
        h.insert(3.0, 1);
        h.insert(1.0, 2);
        h.insert(2.0, 3);
        h.insert(1.0, 0);
        let order: Vec<_> = h.iter().collect();
        assert_eq!(order, vec![(1.0, 0), (1.0, 2), (2.0, 3), (3.0, 1)]);
    }

    #[test]
    fn child_hits_order_is_insertion_order_independent() {
        // The (t, node) order is strict and total, so any insertion order
        // yields the same sequence — the determinism the simulator needs.
        let inputs = [(2.0, 7), (2.0, 3), (0.5, 9), (4.0, 1), (0.5, 2)];
        let mut forward = ChildHits::empty();
        for (t, n) in inputs {
            forward.insert(t, n);
        }
        let mut backward = ChildHits::empty();
        for (t, n) in inputs.iter().rev() {
            backward.insert(*t, *n);
        }
        assert_eq!(forward.iter().collect::<Vec<_>>(), backward.iter().collect::<Vec<_>>());
        assert_eq!(
            forward.iter().collect::<Vec<_>>(),
            vec![(0.5, 2), (0.5, 9), (2.0, 3), (2.0, 7), (4.0, 1)]
        );
    }

    #[test]
    fn observer_sees_pushes_and_pops() {
        #[derive(Default)]
        struct Counter {
            pushes: usize,
            pops: usize,
            max_depth: usize,
        }
        impl StackObserver for Counter {
            fn on_push(&mut self, depth: usize) {
                self.pushes += 1;
                self.max_depth = self.max_depth.max(depth);
            }
            fn on_pop(&mut self, depth: usize) {
                self.pops += 1;
                let _ = depth;
            }
        }
        let prims = walls(64);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
        let mut c = Counter::default();
        let query = RayQuery::nearest(ray, 0.0);
        let _ = traverse(&bvh, &prims, &query, &mut c, &mut TraversalScratch::new());
        // Every push is eventually popped (traversal runs to completion).
        assert_eq!(c.pushes, c.pops);
        assert!(c.pushes > 0, "a ray through 64 stacked walls must push");
    }

    #[test]
    fn t_max_limits_traversal() {
        let prims = walls(50);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
        let hit = nearest(&bvh, &prims, &ray, 0.0, 0.5);
        assert!(hit.is_none());
        let hit = nearest(&bvh, &prims, &ray, 1.5, f32::INFINITY);
        assert_eq!(hit.unwrap().prim, 1, "t_min skips the first wall");
    }

    #[test]
    fn scratch_reuse_is_transparent() {
        let prims = walls(50);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        let mut scratch = TraversalScratch::new();
        for i in 0..20 {
            let x = (i as f32) * 0.05 - 0.5;
            let ray = Ray::new(Vec3::new(x, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
            let query = RayQuery::nearest(ray, 0.0);
            let fresh = traverse(&bvh, &prims, &query, &mut (), &mut TraversalScratch::new());
            let reused = traverse(&bvh, &prims, &query, &mut (), &mut scratch);
            assert_eq!(fresh, reused);
        }
    }
}
