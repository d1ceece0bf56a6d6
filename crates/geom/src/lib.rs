//! Geometric and numeric substrate for the SMS ray-tracing simulator.
//!
//! This crate provides the pure-math building blocks used by the BVH builder,
//! the procedural scene generators, and the RT-unit operation units:
//!
//! * [`Vec3`] — a small 3-component `f32` vector with the usual operators.
//! * [`Ray`] — origin/direction with precomputed reciprocal direction.
//! * [`Aabb`] — axis-aligned bounding boxes with slab intersection.
//! * [`Triangle`] / [`Sphere`] — scene primitives with watertight-enough
//!   intersection kernels (Möller–Trumbore for triangles).
//! * [`rng`] — small, fully deterministic counter-based random number
//!   generators so every simulation run is a pure function of its seeds.
//! * [`Onb`] — orthonormal bases for hemisphere sampling in the path tracer.
//!
//! Everything here is `no_std`-shaped plain data (though we do use `std`),
//! has no interior mutability, and is `Send + Sync`.
//!
//! # Example
//!
//! ```
//! use sms_geom::{Aabb, Ray, Triangle, Vec3};
//!
//! let tri = Triangle::new(
//!     Vec3::new(0.0, 0.0, 0.0),
//!     Vec3::new(1.0, 0.0, 0.0),
//!     Vec3::new(0.0, 1.0, 0.0),
//! );
//! let ray = Ray::new(Vec3::new(0.25, 0.25, -1.0), Vec3::new(0.0, 0.0, 1.0));
//! let hit = tri.intersect(&ray, 0.0, f32::INFINITY).expect("must hit");
//! assert!((hit.t - 1.0).abs() < 1e-5);
//! assert!(tri.aabb().intersect(&ray, 0.0, f32::INFINITY).is_some());
//! let _ = Aabb::union(&tri.aabb(), &tri.aabb());
//! ```

pub mod aabb;
pub mod check;
pub mod golden;
pub mod onb;
pub mod ray;
pub mod rng;
pub mod sphere;
pub mod tri;
pub mod vec3;

pub use aabb::Aabb;
pub use onb::Onb;
pub use ray::Ray;
pub use rng::{DeterministicRng, SplitMix64};
pub use sphere::Sphere;
pub use tri::{TriHit, Triangle};
pub use vec3::Vec3;

/// A conservative epsilon used to offset secondary-ray origins away from
/// surfaces to avoid self-intersection ("shadow acne").
pub const RAY_EPSILON: f32 = 1e-4;

/// Maps `x` to an integer that orders as `x` does: for any two non-NaN
/// floats, `a.partial_cmp(&b) == Some(order_key(a).cmp(&order_key(b)))`.
/// `-0.0` is folded onto `+0.0` first, because `partial_cmp` calls the two
/// equal. A NaN, which `partial_cmp` cannot place, gets a key outside
/// `order_key(-∞)..=order_key(+∞)`.
///
/// The BVH median build selects on these keys, so that a comparison is one
/// integer compare.
#[inline]
pub fn order_key(x: f32) -> u32 {
    let bits = (x + 0.0).to_bits();
    if bits >> 31 == 0 {
        bits | 1 << 31
    } else {
        !bits
    }
}

/// The float [`order_key`] maps to `key` (`+0.0` for either zero).
#[inline]
pub fn from_order_key(key: u32) -> f32 {
    f32::from_bits(if key >> 31 == 1 { key & !(1 << 31) } else { !key })
}
