//! The path-tracing kernel logic (Lumibench PT shader stand-in).
//!
//! This module is the single source of truth for *what each thread does*:
//! ray generation, shading, shadow rays, bounces and termination. Both the
//! functional renderer ([`crate::render`]) and the cycle simulator
//! ([`crate::sim`]) drive these functions, consuming randomness from the
//! same per-path RNG stream in the same order — which guarantees both trace
//! identical rays and the cycle model's traversal work equals the
//! reference.

use sms_bvh::{Hit, RayQuery};
use sms_geom::{Ray, SplitMix64, Vec3, RAY_EPSILON};
use sms_scene::{Light, Scene};

/// Compute-instruction budget of the ray-generation phase (per thread).
pub const RAYGEN_COST: u32 = 24;
/// Compute-instruction budget of the shading phase (per thread).
pub const SHADE_COST: u32 = 32;
/// Compute-instruction budget of the accumulate/bookkeeping phase.
pub const ACCUM_COST: u32 = 12;
/// Path depth after which Russian roulette starts.
pub const RR_START_DEPTH: u32 = 2;

/// One thread's path state.
#[derive(Debug, Clone)]
pub struct PathState {
    /// Pixel x.
    pub px: u32,
    /// Pixel y.
    pub py: u32,
    /// Sample index within the pixel.
    pub sample: u32,
    /// Current path throughput.
    pub throughput: Vec3,
    /// Accumulated radiance.
    pub radiance: Vec3,
    /// Current bounce depth (0 = primary).
    pub depth: u32,
    /// The path's RNG stream.
    pub rng: SplitMix64,
    /// `false` once the path terminated.
    pub alive: bool,
}

impl PathState {
    /// Creates the path for `(px, py, sample)`.
    pub fn new(px: u32, py: u32, sample: u32, seed: u64) -> Self {
        PathState {
            px,
            py,
            sample,
            throughput: Vec3::ONE,
            radiance: Vec3::ZERO,
            depth: 0,
            rng: SplitMix64::from_key(seed ^ 0x50_41_54_48, px as u64, py as u64, sample as u64),
            alive: true,
        }
    }

    /// The primary ray for this path.
    pub fn primary_ray(&self, scene: &Scene) -> Ray {
        scene.camera.primary_ray(self.px, self.py, self.sample)
    }
}

/// What a path does after shading one trace result.
#[derive(Debug, Clone)]
pub struct ShadeOutcome {
    /// Shadow-ray query plus the radiance it gates, if a shadow ray is cast.
    pub shadow: Option<(RayQuery, Vec3)>,
    /// The next bounce ray, if the path continues.
    pub bounce: Option<Ray>,
}

/// Shades one trace result, mutating the path (radiance, throughput,
/// depth, liveness) and returning the follow-up rays.
///
/// Consumes RNG in a fixed order: scatter sample, then light sample (none),
/// then Russian roulette — identical in the functional and cycle drivers.
pub fn shade(
    scene: &Scene,
    path: &mut PathState,
    ray: &Ray,
    hit: Option<Hit>,
    max_depth: u32,
    shadow_rays: bool,
) -> ShadeOutcome {
    let none = ShadeOutcome { shadow: None, bounce: None };
    let Some(h) = hit else {
        // Escaped: add sky and terminate.
        path.radiance += path.throughput.mul_elem(scene.sky(ray.dir));
        path.alive = false;
        return none;
    };

    let prim = &scene.prims[h.prim as usize];
    let material = scene.materials[prim.material as usize];
    let point = ray.at(h.t);
    let normal = prim.normal_at(point);

    // Emission terminates the path.
    let emitted = material.emitted();
    if emitted.length_squared() > 0.0 {
        path.radiance += path.throughput.mul_elem(emitted);
        path.alive = false;
        return none;
    }

    let Some(scatter) = material.scatter(ray, point, normal, &mut path.rng) else {
        path.alive = false;
        return none;
    };

    // Next-event estimation: one shadow ray toward the light for
    // diffuse-ish surfaces.
    let shadow = if shadow_rays && material.casts_shadow_rays() {
        let outward = if ray.dir.dot(normal) < 0.0 { normal } else { -normal };
        let origin = point + outward * RAY_EPSILON;
        match scene.light {
            Light::Point { position, intensity } => {
                let to_light = position - origin;
                let dist = to_light.length();
                if dist > RAY_EPSILON {
                    let dir = to_light / dist;
                    let cos = dir.dot(outward).max(0.0);
                    if cos > 0.0 {
                        let contrib =
                            path.throughput.mul_elem(scatter.attenuation).mul_elem(intensity)
                                * (cos / (dist * dist))
                                * std::f32::consts::FRAC_1_PI;
                        Some((
                            RayQuery::occlusion(Ray::new(origin, dir), 0.0, dist - RAY_EPSILON),
                            contrib,
                        ))
                    } else {
                        None
                    }
                } else {
                    None
                }
            }
            Light::Directional { direction, radiance } => {
                let cos = direction.dot(outward).max(0.0);
                if cos > 0.0 {
                    let contrib = path.throughput.mul_elem(scatter.attenuation).mul_elem(radiance)
                        * cos
                        * std::f32::consts::FRAC_1_PI;
                    Some((RayQuery::occlusion(Ray::new(origin, direction), 0.0, 1.0e6), contrib))
                } else {
                    None
                }
            }
        }
    } else {
        None
    };

    // Continue the path.
    path.throughput = path.throughput.mul_elem(scatter.attenuation);
    path.depth += 1;
    if path.depth >= max_depth {
        path.alive = false;
        return ShadeOutcome { shadow, bounce: None };
    }
    // Russian roulette.
    if path.depth >= RR_START_DEPTH {
        let q = path.throughput.max_component().clamp(0.05, 0.95);
        if path.rng.next_f32() >= q {
            path.alive = false;
            return ShadeOutcome { shadow, bounce: None };
        }
        path.throughput /= q;
    }
    ShadeOutcome { shadow, bounce: Some(scatter.ray) }
}

/// Applies a shadow-ray result: unoccluded shadow rays add their gated
/// contribution.
pub fn apply_shadow(path: &mut PathState, contrib: Vec3, occluded: bool) {
    if !occluded {
        path.radiance += contrib;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RenderConfig;
    use crate::render::PreparedScene;
    use sms_scene::SceneId;

    fn prepared() -> PreparedScene {
        PreparedScene::build(SceneId::Ship, &RenderConfig::tiny())
    }

    #[test]
    fn miss_adds_sky_and_terminates() {
        let s = prepared().scene;
        let mut p = PathState::new(0, 0, 0, 1);
        let ray = Ray::new(Vec3::new(0.0, 100.0, 0.0), Vec3::new(0.0, 1.0, 0.0));
        let out = shade(&s, &mut p, &ray, None, 4, true);
        assert!(!p.alive);
        assert!(out.bounce.is_none() && out.shadow.is_none());
        assert!(p.radiance.length_squared() > 0.0, "sky contributes");
    }

    #[test]
    fn paths_are_deterministic() {
        let ps = prepared();
        let s = &ps.scene;
        let r = s.camera.primary_ray(4, 4, 0);
        let hit = ps.trace(&RayQuery::nearest(r, 0.0)).hit;
        let mut a = PathState::new(4, 4, 0, 1);
        let mut b = PathState::new(4, 4, 0, 1);
        let oa = shade(s, &mut a, &r, hit, 4, true);
        let ob = shade(s, &mut b, &r, hit, 4, true);
        assert_eq!(oa.bounce, ob.bounce);
        assert_eq!(a.radiance, b.radiance);
    }

    #[test]
    fn max_depth_stops_bounces() {
        let ps = prepared();
        let s = &ps.scene;
        let r = s.camera.primary_ray(8, 14, 0);
        if let Some(hit) = ps.trace(&RayQuery::nearest(r, 0.0)).hit {
            let mut p = PathState::new(8, 14, 0, 1);
            let out = shade(s, &mut p, &r, Some(hit), 1, false);
            assert!(out.bounce.is_none(), "depth 1 means no secondary bounce");
        }
    }

    #[test]
    fn shadow_applies_only_when_unoccluded() {
        let mut p = PathState::new(0, 0, 0, 1);
        let c = Vec3::splat(0.5);
        apply_shadow(&mut p, c, true);
        assert_eq!(p.radiance, Vec3::ZERO);
        apply_shadow(&mut p, c, false);
        assert_eq!(p.radiance, c);
    }
}
