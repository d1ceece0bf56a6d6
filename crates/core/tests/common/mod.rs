//! Generators shared by the property suites: primitive soups, rays and
//! build parameters for the BVH-facing ones, `SmsParams` for the stack-
//! facing ones.
#![allow(dead_code)] // each suite uses its own subset

use sms_bvh::{
    BuildParams, FlatBvh, Primitive, RayQuery, SplitMethod, Traversal, TraversalScratch,
};
use sms_geom::check::Gen;
use sms_geom::{DeterministicRng, Ray};
use sms_rtunit::SmsParams;
use sms_scene::{ScenePrimitive, Shape};

/// 1..=150 primitives centred in a 20-unit cube: triangles up to 3 units
/// across, one in eight an analytic sphere.
pub fn soup(g: &mut Gen) -> Vec<ScenePrimitive> {
    g.vec(1, 150, |g| {
        let c = g.vec3(-10.0, 10.0);
        if g.chance(0.125) {
            ScenePrimitive::sphere(c, g.rng.range_f32(0.2, 2.0), 0)
        } else {
            ScenePrimitive::tri(c, c + g.vec3(-3.0, 3.0), c + g.vec3(-3.0, 3.0), 0)
        }
    })
}

/// A ray with uniform origin and direction: 2.5 % of these hit anything.
pub fn uniform_ray(g: &mut Gen) -> Ray {
    Ray::new(g.vec3(-25.0, 25.0), g.rng.unit_vector())
}

/// Seven times in eight a ray through an interior point of one of `prims`,
/// from 0.5–40 units away in a uniform direction; else [`uniform_ray`].
pub fn aimed_ray(g: &mut Gen, prims: &[ScenePrimitive]) -> Ray {
    if g.chance(0.125) {
        return uniform_ray(g);
    }
    let target = match prims[g.int(0, prims.len() - 1)].shape {
        Shape::Tri(t) => {
            let (a, b) = (g.rng.next_f32(), g.rng.next_f32());
            let (a, b) = if a + b > 1.0 { (1.0 - a, 1.0 - b) } else { (a, b) };
            t.v0 + (t.v1 - t.v0) * a + (t.v2 - t.v0) * b
        }
        Shape::Sphere(s) => s.center,
    };
    let origin = target + g.rng.unit_vector() * g.rng.range_f32(0.5, 40.0);
    Ray::new(origin, target - origin)
}

/// Any of the three builders (serial; `prop_hlbvh` varies the workers),
/// any legal branching factor, leaves of up to 1..=8 primitives.
pub fn build_params(g: &mut Gen) -> BuildParams {
    BuildParams {
        max_leaf_size: g.int(1, 8),
        branching_factor: g.int(2, 8),
        split: [SplitMethod::BinnedSah, SplitMethod::Median, SplitMethod::Hlbvh][g.int(0, 2)],
        ..BuildParams::default()
    }
}

/// Any SMS stack: `RB_1..=16 + SH_sh_min..=16`, skew either way and every
/// borrow limit 0..=6.
pub fn sms_params(g: &mut Gen, sh_min: usize, realloc: bool) -> SmsParams {
    SmsParams {
        rb_entries: g.int(1, 16),
        sh_entries: g.int(sh_min, 16),
        skewed: g.chance(0.5),
        realloc,
        borrow_limit: g.int(0, 6),
    }
}

/// The `t` of every primitive `ray` hits in `[t_min, t_max]`, unordered:
/// the reference no BVH is involved in.
pub fn brute_hits(prims: &[ScenePrimitive], ray: &Ray, t_min: f32, t_max: f32) -> Vec<f32> {
    prims.iter().filter_map(|p| p.intersect(ray, t_min, t_max)).map(|h| h.t).collect()
}

/// The stacked functional driver's answer to `query`.
pub fn stacked(bvh: &FlatBvh, prims: &[ScenePrimitive], query: &RayQuery) -> Traversal {
    sms_bvh::traverse(bvh, prims, query, &mut (), &mut TraversalScratch::new())
}

/// A nearest-hit query over `[t_min, t_max]`.
pub fn nearest(ray: Ray, t_min: f32, t_max: f32) -> RayQuery {
    RayQuery { ray, t_min, t_max, any_hit: false }
}
