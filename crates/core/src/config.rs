//! Simulation and workload configuration.

use crate::env::Env;
use sms_gpu::GpuConfig;
use sms_rtunit::StackConfig;
use sms_scene::{Scene, SceneId};

/// How much of the paper's render workload to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolutionMode {
    /// The paper's §VII-A workloads: 128×128 at 2 spp, except CHSNT, ROBOT
    /// and PARK at 32×32, 1 spp. Slow — full evaluation runs.
    Paper,
    /// 32×32 at 1 spp for every scene: the default for the bench harnesses
    /// (performance *trends* are resolution-stable, as the paper itself
    /// argues citing its refs. \[13\], \[27\]).
    Fast,
    /// 16×16 at 1 spp: unit/integration-test sized.
    Tiny,
    /// An explicit resolution and sample count for every scene.
    Custom {
        /// Image width in pixels.
        width: u32,
        /// Image height in pixels.
        height: u32,
        /// Samples per pixel.
        spp: u32,
    },
}

/// Path-tracing workload configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderConfig {
    /// Resolution/sample-count mode.
    pub mode: ResolutionMode,
    /// Maximum path depth (bounces).
    pub max_depth: u32,
    /// Trace shadow rays toward the scene light at diffuse hits.
    pub shadow_rays: bool,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for RenderConfig {
    fn default() -> Self {
        RenderConfig::fast()
    }
}

impl RenderConfig {
    /// The paper's full workload sizes.
    pub fn paper() -> Self {
        RenderConfig { mode: ResolutionMode::Paper, max_depth: 4, shadow_rays: true, seed: 7 }
    }

    /// Reduced-size workloads for bench harnesses (same trends).
    pub fn fast() -> Self {
        RenderConfig { mode: ResolutionMode::Fast, max_depth: 4, shadow_rays: true, seed: 7 }
    }

    /// Tiny workloads for tests.
    pub fn tiny() -> Self {
        RenderConfig { mode: ResolutionMode::Tiny, max_depth: 3, shadow_rays: true, seed: 7 }
    }

    /// An explicit workload size for every scene.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the sample count is zero.
    pub fn custom(width: u32, height: u32, spp: u32) -> Self {
        assert!(width > 0 && height > 0 && spp > 0, "degenerate workload");
        RenderConfig {
            mode: ResolutionMode::Custom { width, height, spp },
            max_depth: 4,
            shadow_rays: true,
            seed: 7,
        }
    }

    /// Paper-sized workloads under `SMS_PAPER=1`; `fast()` otherwise.
    pub fn from_env(env: &Env) -> Self {
        if env.flag("SMS_PAPER") {
            RenderConfig::paper()
        } else {
            RenderConfig::fast()
        }
    }

    /// The image size and sample count this configuration renders
    /// `scene_id` at.
    pub fn workload(&self, scene_id: SceneId) -> (u32, u32, u32) {
        match self.mode {
            ResolutionMode::Paper => {
                if scene_id.is_reduced_resolution() {
                    (32, 32, 1)
                } else {
                    (128, 128, 2)
                }
            }
            ResolutionMode::Fast => (32, 32, 1),
            ResolutionMode::Tiny => (16, 16, 1),
            ResolutionMode::Custom { width, height, spp } => (width, height, spp),
        }
    }

    /// Applies this workload's resolution to a built scene.
    pub fn apply(&self, mut scene: Scene) -> Scene {
        let (w, h, _) = self.workload(scene.id);
        scene.camera = scene.camera.with_resolution(w, h);
        scene
    }

    /// Samples per pixel for `scene_id`.
    pub fn spp(&self, scene_id: SceneId) -> u32 {
        self.workload(scene_id).2
    }
}

/// Everything one cycle-level run needs besides the scene itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// GPU parameters (Table I defaults).
    pub gpu: GpuConfig,
    /// Traversal-stack architecture under test.
    pub stack: StackConfig,
    /// Workload sizing.
    pub render: RenderConfig,
}

impl SimConfig {
    /// Builds a configuration, carving the stack's shared-memory demand out
    /// of the unified L1/shared array (the §IV-B trade: `SH_8` on 4 warps
    /// costs 8 KB, leaving a 56 KB L1D).
    pub fn new(gpu: GpuConfig, stack: StackConfig, render: RenderConfig) -> Self {
        let carve = stack.shared_carveout(gpu.max_warps_per_rt_unit);
        let gpu = gpu.with_shared_carveout(carve);
        SimConfig { gpu, stack, render }
    }

    /// Table I GPU with the given stack architecture.
    pub fn with_stack(stack: StackConfig, render: RenderConfig) -> Self {
        SimConfig::new(GpuConfig::default(), stack, render)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mode_respects_reduced_scenes() {
        let r = RenderConfig::paper();
        assert_eq!(r.workload(SceneId::Bunny), (128, 128, 2));
        assert_eq!(r.workload(SceneId::Robot), (32, 32, 1));
    }

    #[test]
    fn fast_mode_uniform() {
        let r = RenderConfig::fast();
        for id in SceneId::ALL {
            assert_eq!(r.workload(id), (32, 32, 1));
        }
    }

    #[test]
    fn carveout_applied_for_sms() {
        let c = SimConfig::with_stack(StackConfig::sms_default(), RenderConfig::fast());
        assert_eq!(c.gpu.l1.size_bytes, 56 * 1024);
        let b = SimConfig::with_stack(StackConfig::baseline8(), RenderConfig::fast());
        assert_eq!(b.gpu.l1.size_bytes, 64 * 1024);
    }

    #[test]
    fn apply_resizes_camera() {
        let scene = Scene::build(SceneId::Ship);
        let scene = RenderConfig::tiny().apply(scene);
        assert_eq!((scene.camera.width, scene.camera.height), (16, 16));
    }
}
