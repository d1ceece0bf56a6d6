//! The functional (untimed) renderer.
//!
//! Runs the same kernel logic as the cycle simulator but without timing:
//! useful for producing images, reference hit results, and the stack-depth
//! statistics of Figs. 4/5 at full speed.

use crate::config::RenderConfig;
use crate::driver::{self, PathState};
use sms_bvh::{BuildParams, FlatBvh, RayQuery, Traversal, TraversalScratch};
use sms_geom::Vec3;
use sms_metrics::Histogram;
use sms_scene::{Scene, SceneId, ScenePrimitive};
use std::io::Write;

/// A scene with its wide BVH built, sized for a render configuration.
#[derive(Debug, Clone)]
pub struct PreparedScene {
    /// The scene (camera already resized per the render config).
    pub scene: Scene,
    /// The BVH6 over the scene's primitives.
    pub bvh: FlatBvh,
    /// Wall time of the BVH build (binary build + collapse) in
    /// microseconds — pure observation for build-throughput reporting.
    pub build_us: u64,
}

impl PreparedScene {
    /// Builds the named scene and its BVH with the default (median-split)
    /// build parameters — the bit-identical legacy path.
    pub fn build(id: SceneId, render: &RenderConfig) -> Self {
        Self::build_with(id, render, &BuildParams::default())
    }

    /// Builds the named scene and its BVH with explicit build parameters,
    /// for the tree-quality ablation and the builder comparisons. The
    /// harness and the serving tiers build [`PreparedScene::build`]'s tree
    /// only: it is the one tree a cache key means.
    pub fn build_with(id: SceneId, render: &RenderConfig, params: &BuildParams) -> Self {
        let scene = render.apply(Scene::build(id));
        let start = std::time::Instant::now();
        let bvh = FlatBvh::build(&scene.prims, params);
        let build_us = start.elapsed().as_micros() as u64;
        PreparedScene { scene, bvh, build_us }
    }

    /// The scene's primitives.
    pub fn prims(&self) -> &[ScenePrimitive] {
        &self.scene.prims
    }

    /// Reference trace of one query (nearest-hit or occlusion) through
    /// the stacked functional driver.
    pub fn trace(&self, query: &RayQuery) -> Traversal {
        sms_bvh::traverse(&self.bvh, self.prims(), query, &mut (), &mut TraversalScratch::new())
    }
}

/// Output of a functional render.
#[derive(Debug, Clone)]
pub struct RenderOutput {
    /// Linear radiance per pixel (row-major).
    pub image: Vec<Vec3>,
    /// Image width.
    pub width: u32,
    /// Image height.
    pub height: u32,
    /// Stack depths recorded at every push/pop across all rays (Figs. 4/5).
    pub depths: Histogram,
    /// Nearest-hit rays traced.
    pub rays: u64,
    /// Shadow rays traced.
    pub shadow_rays: u64,
}

/// Renders the scene functionally, recording stack-depth statistics.
pub fn render(prepared: &PreparedScene, config: &RenderConfig) -> RenderOutput {
    let scene = &prepared.scene;
    let (w, h, spp) = config.workload(scene.id);
    let mut image = vec![Vec3::ZERO; (w * h) as usize];
    let mut depths = Histogram::new();
    let mut rays = 0u64;
    let mut shadow_rays = 0u64;
    let mut scratch = TraversalScratch::new();

    for py in 0..h {
        for px in 0..w {
            let mut acc = Vec3::ZERO;
            for sample in 0..spp {
                let mut path = PathState::new(px, py, sample, config.seed);
                let mut ray = path.primary_ray(scene);
                while path.alive {
                    rays += 1;
                    let mut trace = |query: &RayQuery| {
                        let (bvh, prims) = (&prepared.bvh, prepared.prims());
                        sms_bvh::traverse(bvh, prims, query, &mut depths, &mut scratch)
                    };
                    let hit = trace(&RayQuery::nearest(ray, 0.0)).hit;
                    let out = driver::shade(
                        scene,
                        &mut path,
                        &ray,
                        hit,
                        config.max_depth,
                        config.shadow_rays,
                    );
                    if let Some((query, contrib)) = out.shadow {
                        shadow_rays += 1;
                        driver::apply_shadow(&mut path, contrib, trace(&query).occluded);
                    }
                    match out.bounce {
                        Some(b) => ray = b,
                        None => break,
                    }
                }
                acc += path.radiance;
            }
            image[(py * w + px) as usize] = acc / spp as f32;
        }
    }
    RenderOutput { image, width: w, height: h, depths, rays, shadow_rays }
}

/// Writes a render to a binary PPM file with simple tone mapping.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn write_ppm(output: &RenderOutput, path: &std::path::Path) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "P6\n{} {}\n255", output.width, output.height)?;
    for px in &output.image {
        let tone = |v: f32| {
            // Reinhard + gamma 2.2.
            let t = (v / (1.0 + v)).powf(1.0 / 2.2);
            (t.clamp(0.0, 1.0) * 255.0) as u8
        };
        f.write_all(&[tone(px.x), tone(px.y), tone(px.z)])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_ship_tiny_produces_signal() {
        let prepared = PreparedScene::build(SceneId::Ship, &RenderConfig::tiny());
        let out = render(&prepared, &RenderConfig::tiny());
        assert_eq!(out.image.len(), 16 * 16);
        assert!(out.rays > 256, "at least one ray per pixel");
        assert!(out.depths.count() > 0, "traversal must exercise the stack");
        // Some pixel must be non-black (sky at minimum).
        assert!(out.image.iter().any(|p| p.length_squared() > 0.0));
        // All radiance finite.
        assert!(out.image.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn render_is_deterministic() {
        let cfg = RenderConfig::tiny();
        let prepared = PreparedScene::build(SceneId::Bunny, &cfg);
        let a = render(&prepared, &cfg);
        let b = render(&prepared, &cfg);
        assert_eq!(a.image, b.image);
        assert_eq!(a.rays, b.rays);
        assert_eq!(a.depths, b.depths);
    }

    #[test]
    fn shadow_rays_can_be_disabled() {
        let mut cfg = RenderConfig::tiny();
        cfg.shadow_rays = false;
        let prepared = PreparedScene::build(SceneId::Bunny, &cfg);
        let out = render(&prepared, &cfg);
        assert_eq!(out.shadow_rays, 0);
    }

    #[test]
    fn ppm_written() {
        let cfg = RenderConfig::tiny();
        let prepared = PreparedScene::build(SceneId::Wknd, &cfg);
        let out = render(&prepared, &cfg);
        let dir = std::env::temp_dir().join("sms_test_ppm");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("wknd.ppm");
        write_ppm(&out, &p).unwrap();
        let meta = std::fs::metadata(&p).unwrap();
        assert!(meta.len() > (16 * 16 * 3) as u64);
    }
}
