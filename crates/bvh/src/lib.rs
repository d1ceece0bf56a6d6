//! Bounding volume hierarchy construction, layout and traversal.
//!
//! This crate implements the acceleration-structure substrate the paper's
//! evaluation rests on (§II-A):
//!
//! * [`builder`] — the serial *binary* BVH builders: object-median
//!   selection (the default) and binned SAH.
//! * [`hlbvh`] — a parallel linear-time HLBVH builder (Morton codes +
//!   radix sort + treelets with a binned-SAH upper tree) for paper-scale
//!   scenes; deterministic in the worker count.
//! * [`flat`] — collapse of the binary BVH into the *wide* BVH ("BVHk",
//!   the paper traverses BVH6: up to six children per internal node),
//!   written straight into contiguous 16-byte node records with SoA child
//!   AABB planes and stackless escape links. A box is stored once, in the
//!   parent's child record, which the node names ([`FlatBvh::own_aabb`]):
//!   16 B per node, 28 B per child record and 4 B per primitive slot,
//!   where a node record used to repeat that box in 32 B and keep its
//!   escape link in 4 more. [`FlatBvh`] is the one
//!   runtime layout: the functional renderer, the cycle-level RT unit and
//!   the stackless drivers all traverse it.
//! * [`layout`] — the simulated memory image of the BVH: every node and
//!   primitive record gets a byte address in the simulated global address
//!   space, which is what the cycle-level RT unit fetches through the cache
//!   hierarchy.
//! * [`traverse`](mod@traverse) — the *logical* traversal, written once: the
//!   [`RayQuery`] with its one leaf rule, and the two functional drivers,
//!   [`traverse()`] (stacked, nearest-first) and [`traverse_stackless`]
//!   (escape links). The functional renderer and the cycle-level RT unit
//!   drive the same [`FlatBvh::node_step`] kernel and leaf rule, which
//!   guarantees that traversal work is identical across stack
//!   configurations — only *timing* differs.
//! * [`restart`] — restart-trail stackless traversal (paper §VIII-A), the
//!   visit-count comparison point for the hierarchical stack.
//! * [`stats`] — stack-depth recording (paper Figs. 4, 5 and 10) and BVH
//!   size statistics (Table II).
//!
//! # Example
//!
//! ```
//! use sms_bvh::{BuildParams, FlatBvh, Primitive, PrimHit, RayQuery, TraversalScratch};
//! use sms_geom::{Aabb, Ray, Triangle, Vec3};
//!
//! struct Tri(Triangle);
//! impl Primitive for Tri {
//!     fn aabb(&self) -> Aabb { self.0.aabb() }
//!     fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<PrimHit> {
//!         self.0.intersect(ray, t_min, t_max)
//!             .map(|h| PrimHit { t: h.t, u: h.u, v: h.v })
//!     }
//! }
//!
//! let prims: Vec<Tri> = (0..64)
//!     .map(|i| {
//!         let x = i as f32;
//!         Tri(Triangle::new(
//!             Vec3::new(x, 0.0, 0.0),
//!             Vec3::new(x + 1.0, 0.0, 0.0),
//!             Vec3::new(x, 1.0, 0.0),
//!         ))
//!     })
//!     .collect();
//! let bvh = FlatBvh::build(&prims, &BuildParams::default());
//! assert!(bvh.nodes.iter().all(|n| n.is_leaf() || n.count() <= 6), "BVH6");
//! let ray = Ray::new(Vec3::new(10.2, 0.2, -5.0), Vec3::new(0.0, 0.0, 1.0));
//! let query = RayQuery::nearest(ray, 0.0);
//! let stacked = sms_bvh::traverse(&bvh, &prims, &query, &mut (), &mut TraversalScratch::new());
//! assert_eq!(stacked.hit.map(|h| h.prim), Some(10));
//! // The stackless escape-link walk finds the same nearest hit, at the
//! // price of more node visits.
//! let stackless = sms_bvh::traverse_stackless(&bvh, &prims, &query);
//! assert_eq!(stacked.hit, stackless.hit);
//! assert!(stackless.visits >= stacked.visits);
//! // An occlusion query stops at the first hit it finds.
//! let shadow = RayQuery::occlusion(ray, 0.0, 10.0);
//! assert!(sms_bvh::traverse_stackless(&bvh, &prims, &shadow).occluded);
//! ```

pub mod builder;
pub mod flat;
pub mod hlbvh;
pub mod layout;
pub mod restart;
pub mod stats;
pub mod traverse;

pub use builder::{BinaryBvh, BuildParams, SplitMethod};
pub use flat::{FlatBvh, FlatNode, NodeId, NO_NODE};
pub use hlbvh::{morton_decode, morton_encode, radix_sort_pairs};
pub use layout::{BvhLayout, NODE_BASE_ADDR, NODE_STRIDE, PRIM_BASE_ADDR, PRIM_STRIDE};
pub use restart::{intersect_nearest_restart, RestartStats};
pub use stats::BvhStats;
pub use traverse::{
    traverse, traverse_stackless, Hit, LeafOutcome, QueryState, RayQuery, StackObserver,
    StacklessStep, Traversal, TraversalScratch,
};

use sms_geom::{Aabb, Ray};

/// Result of a successful ray/primitive intersection inside a BVH leaf.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimHit {
    /// Ray parameter at the hit.
    pub t: f32,
    /// First barycentric / parametric coordinate (0 for analytic prims).
    pub u: f32,
    /// Second barycentric / parametric coordinate (0 for analytic prims).
    pub v: f32,
}

/// A primitive that can be stored in BVH leaves.
///
/// Implemented by the scene crate for its triangle and sphere primitives.
pub trait Primitive {
    /// Tight bounding box used by the builder.
    fn aabb(&self) -> Aabb;
    /// Nearest intersection within `[t_min, t_max]`, if any.
    fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<PrimHit>;
}
