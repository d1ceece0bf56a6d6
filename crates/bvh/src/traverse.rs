//! Logical BVH traversal: depth-first, nearest-first, stack-based.
//!
//! The traversal *algorithm* is deliberately factored out of the timing
//! model: [`FlatBvh::node_step`] performs the work of one node visit
//! (the ray-box tests of an internal node, or the ray-primitive tests of a
//! leaf), and the drivers — [`intersect_nearest`], [`intersect_any`] here,
//! and the RT-unit state machine in the `sms-rtunit` crate — layer stack
//! management on top. Because traversal order depends only on the ray and
//! the BVH, *every stack configuration performs identical traversal work*;
//! configurations differ only in where stack entries physically live and
//! what memory traffic they cost. This mirrors the paper's normalized-IPC
//! methodology.
//!
//! Child ordering goes through the single [`ChildHits::insert`]
//! implementation with its deterministic `(t, node)` tie-break.

use crate::flat::{FlatBvh, NodeId};
use crate::Primitive;

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

/// Reusable traversal working memory.
///
/// The drivers below need one node stack per *in-flight* ray, not per ray
/// traced: callers on hot paths (the functional renderer, reference-trace
/// loops) hold one `TraversalScratch` and thread it through every call,
/// reducing per-ray heap allocation to zero. The one-shot wrappers
/// [`intersect_nearest`] / [`intersect_any`] allocate a fresh scratch for
/// convenience.
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

/// Nearest-hit traversal with an unbounded logical stack.
///
/// This is the functional reference: the RT-unit timing model performs the
/// same visits in the same order and must produce identical results (asserted
/// by integration tests). Allocates a fresh [`TraversalScratch`] per call;
/// loops over many rays should use [`intersect_nearest_with`].
pub fn intersect_nearest<P: Primitive, O: StackObserver>(
    bvh: &FlatBvh,
    prims: &[P],
    ray: &sms_geom::Ray,
    t_min: f32,
    t_max: f32,
    observer: &mut O,
) -> Option<Hit> {
    intersect_nearest_with(bvh, prims, ray, t_min, t_max, observer, &mut TraversalScratch::new())
}

/// [`intersect_nearest`] with caller-provided scratch (zero allocation).
pub fn intersect_nearest_with<P: Primitive, O: StackObserver>(
    bvh: &FlatBvh,
    prims: &[P],
    ray: &sms_geom::Ray,
    t_min: f32,
    t_max: f32,
    observer: &mut O,
    scratch: &mut TraversalScratch,
) -> Option<Hit> {
    let stack = &mut scratch.stack;
    stack.clear();
    let mut current: Option<NodeId> = Some(0);
    let mut best: Option<Hit> = None;
    let mut limit = t_max;

    while let Some(node) = current {
        match bvh.node_step(prims, ray, node, t_min, limit) {
            NodeStep::Inner(hits) => {
                if hits.is_empty() {
                    current = pop(stack, observer);
                } else {
                    // Visit nearest child next; push the rest far-to-near so
                    // the nearest pending child is popped first (paper §II-A).
                    for i in (1..hits.len()).rev() {
                        stack.push(hits.get(i).1);
                        observer.on_push(stack.len());
                    }
                    current = Some(hits.get(0).1);
                }
            }
            NodeStep::Leaf(hit) => {
                if let Some(h) = hit {
                    if h.t < limit {
                        limit = h.t;
                        best = Some(h);
                    }
                }
                current = pop(stack, observer);
            }
        }
    }
    best
}

/// Any-hit (occlusion) traversal: returns `true` as soon as any primitive is
/// hit in `[t_min, t_max]`. Used for shadow rays. Allocates a fresh
/// [`TraversalScratch`] per call; loops should use [`intersect_any_with`].
pub fn intersect_any<P: Primitive, O: StackObserver>(
    bvh: &FlatBvh,
    prims: &[P],
    ray: &sms_geom::Ray,
    t_min: f32,
    t_max: f32,
    observer: &mut O,
) -> bool {
    intersect_any_with(bvh, prims, ray, t_min, t_max, observer, &mut TraversalScratch::new())
}

/// [`intersect_any`] with caller-provided scratch (zero allocation).
pub fn intersect_any_with<P: Primitive, O: StackObserver>(
    bvh: &FlatBvh,
    prims: &[P],
    ray: &sms_geom::Ray,
    t_min: f32,
    t_max: f32,
    observer: &mut O,
    scratch: &mut TraversalScratch,
) -> bool {
    let stack = &mut scratch.stack;
    stack.clear();
    let mut current: Option<NodeId> = Some(0);

    while let Some(node) = current {
        match bvh.node_step(prims, ray, node, t_min, t_max) {
            NodeStep::Inner(hits) => {
                if hits.is_empty() {
                    current = pop(stack, observer);
                } else {
                    for i in (1..hits.len()).rev() {
                        stack.push(hits.get(i).1);
                        observer.on_push(stack.len());
                    }
                    current = Some(hits.get(0).1);
                }
            }
            NodeStep::Leaf(hit) => {
                if hit.is_some() {
                    return true;
                }
                current = pop(stack, observer);
            }
        }
    }
    false
}

/// Nearest-hit traversal with **zero stack operations**: every visit
/// resolves locally through the escape links.
///
/// The visit order is fixed left-to-right (child-record order), not
/// nearest-first, so the same ray touches more nodes than the stacked
/// drivers — `visits` (when provided) counts them so callers can quantify
/// the re-visit overhead. Hit results are identical to
/// [`intersect_nearest`]: both paths cull with conservative box tests and
/// keep the closest primitive hit.
pub fn intersect_nearest_stackless<P: Primitive>(
    bvh: &FlatBvh,
    prims: &[P],
    ray: &sms_geom::Ray,
    t_min: f32,
    t_max: f32,
    mut visits: Option<&mut u64>,
) -> Option<Hit> {
    let mut current: Option<NodeId> = Some(0);
    let mut best: Option<Hit> = None;
    let mut limit = t_max;
    while let Some(node) = current {
        if let Some(v) = visits.as_deref_mut() {
            *v += 1;
        }
        current = match bvh.stackless_step(prims, ray, node, t_min, limit) {
            StacklessStep::Descend { child } => Some(child),
            StacklessStep::Leaf { hit, escape } => {
                if let Some(h) = hit {
                    if h.t < limit {
                        limit = h.t;
                        best = Some(h);
                    }
                }
                escape
            }
            StacklessStep::Miss { escape } => escape,
        };
    }
    best
}

/// Any-hit (occlusion) traversal via escape links: returns `true` as soon
/// as any primitive is hit in `[t_min, t_max]`. Zero stack operations; see
/// [`intersect_nearest_stackless`].
pub fn intersect_any_stackless<P: Primitive>(
    bvh: &FlatBvh,
    prims: &[P],
    ray: &sms_geom::Ray,
    t_min: f32,
    t_max: f32,
    mut visits: Option<&mut u64>,
) -> bool {
    let mut current: Option<NodeId> = Some(0);
    while let Some(node) = current {
        if let Some(v) = visits.as_deref_mut() {
            *v += 1;
        }
        current = match bvh.stackless_step(prims, ray, node, t_min, t_max) {
            StacklessStep::Descend { child } => Some(child),
            StacklessStep::Leaf { hit, escape } => {
                if hit.is_some() {
                    return true;
                }
                escape
            }
            StacklessStep::Miss { escape } => escape,
        };
    }
    false
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
            let a = intersect_nearest(&bvh, &prims, &ray, 0.0, f32::INFINITY, &mut ());
            let b = brute_force(&prims, &ray, 0.0, f32::INFINITY);
            assert_eq!(a.map(|h| h.prim), b.map(|h| h.prim));
        }
    }

    #[test]
    fn miss_returns_none() {
        let prims = walls(10);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        let ray = Ray::new(Vec3::new(100.0, 100.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
        assert!(intersect_nearest(&bvh, &prims, &ray, 0.0, f32::INFINITY, &mut ()).is_none());
        assert!(!intersect_any(&bvh, &prims, &ray, 0.0, f32::INFINITY, &mut ()));
    }

    #[test]
    fn any_hit_detects_occlusion_within_range() {
        let prims = walls(10);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
        assert!(intersect_any(&bvh, &prims, &ray, 0.0, f32::INFINITY, &mut ()));
        // Nothing closer than z=1, so a segment ending at 0.5 is unoccluded.
        assert!(!intersect_any(&bvh, &prims, &ray, 0.0, 0.5, &mut ()));
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
        let _ = intersect_nearest(&bvh, &prims, &ray, 0.0, f32::INFINITY, &mut c);
        // Every push is eventually popped (traversal runs to completion).
        assert_eq!(c.pushes, c.pops);
        assert!(c.pushes > 0, "a ray through 64 stacked walls must push");
    }

    #[test]
    fn t_max_limits_traversal() {
        let prims = walls(50);
        let bvh = FlatBvh::build(&prims, &BuildParams::default());
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
        let hit = intersect_nearest(&bvh, &prims, &ray, 0.0, 0.5, &mut ());
        assert!(hit.is_none());
        let hit = intersect_nearest(&bvh, &prims, &ray, 1.5, f32::INFINITY, &mut ());
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
            let fresh = intersect_nearest(&bvh, &prims, &ray, 0.0, f32::INFINITY, &mut ());
            let reused = intersect_nearest_with(
                &bvh,
                &prims,
                &ray,
                0.0,
                f32::INFINITY,
                &mut (),
                &mut scratch,
            );
            assert_eq!(fresh, reused);
        }
    }
}
