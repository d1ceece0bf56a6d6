//! Procedural benchmark scenes standing in for Lumibench (paper Table II).
//!
//! The paper evaluates 16 Lumibench scenes rendered with a path-tracing
//! shader. The original meshes are not redistributable, so this crate
//! generates *procedural stand-ins with the same names and the same
//! traversal character*: relative triangle counts follow Table II (scaled
//! down ~1/200 so the cycle simulator runs on a laptop), and each scene's
//! geometry style is chosen to reproduce the paper's described behaviour —
//! e.g. `SHIP` uses long thin primitives (high leaf-hit ratio), `ROBOT` and
//! `PARK` are large deep BVHs (deep stacks), `WKND` contains zero triangles
//! (analytic spheres, as in "Ray Tracing in One Weekend").
//!
//! The substitution is recorded in `DESIGN.md`; the Fig. 4/5 bench harnesses
//! verify the generated suite reproduces the paper's stack-depth statistics.
//!
//! # Example
//!
//! ```
//! use sms_scene::{Scene, SceneId};
//! let scene = Scene::build(SceneId::Bunny);
//! assert!(scene.prims.len() > 100);
//! let ray = scene.camera.primary_ray(scene.camera.width / 2, scene.camera.height / 2, 0);
//! assert!(ray.dir.is_finite());
//! ```

pub mod camera;
pub mod gen;
pub mod material;
pub mod primitive;
pub mod scenes;

pub use camera::Camera;
pub use material::{Material, MaterialId, ScatterResult};
pub use primitive::{ScenePrimitive, Shape};

use sms_geom::Vec3;

/// Identifies one of the 16 benchmark scenes (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SceneId {
    /// "Ray Tracing in One Weekend": zero triangles, analytic spheres.
    Wknd,
    /// Spring landscape: medium mesh with scattered foliage.
    Sprng,
    /// Fox model on a ground plane.
    Fox,
    /// Large terrain landscape.
    Lands,
    /// Carnival: mixed boxes and spheres.
    Crnvl,
    /// Sponza-style atrium (architectural boxes and columns).
    Spnza,
    /// Bathroom interior (enclosed room, high overlap).
    Bath,
    /// Robot: the largest mesh in the suite; deep BVH.
    Robot,
    /// Car model: dense curved shell.
    Car,
    /// Party room: cluttered interior (used for Fig. 10 thread traces).
    Party,
    /// Forest: many instanced trees.
    Frst,
    /// Stanford-bunny-like blob.
    Bunny,
    /// Ship: few but long, thin primitives (leaf-heavy traversal).
    Ship,
    /// Reflective spheres test scene.
    Ref,
    /// Chestnut tree.
    Chsnt,
    /// Park: large outdoor scene with trees and terrain.
    Park,
}

impl SceneId {
    /// All scenes in Table II order.
    pub const ALL: [SceneId; 16] = [
        SceneId::Wknd,
        SceneId::Sprng,
        SceneId::Fox,
        SceneId::Lands,
        SceneId::Crnvl,
        SceneId::Spnza,
        SceneId::Bath,
        SceneId::Robot,
        SceneId::Car,
        SceneId::Party,
        SceneId::Frst,
        SceneId::Bunny,
        SceneId::Ship,
        SceneId::Ref,
        SceneId::Chsnt,
        SceneId::Park,
    ];

    /// The scene's name as printed in the paper's tables and figures.
    pub fn name(self) -> &'static str {
        match self {
            SceneId::Wknd => "WKND",
            SceneId::Sprng => "SPRNG",
            SceneId::Fox => "FOX",
            SceneId::Lands => "LANDS",
            SceneId::Crnvl => "CRNVL",
            SceneId::Spnza => "SPNZA",
            SceneId::Bath => "BATH",
            SceneId::Robot => "ROBOT",
            SceneId::Car => "CAR",
            SceneId::Party => "PARTY",
            SceneId::Frst => "FRST",
            SceneId::Bunny => "BUNNY",
            SceneId::Ship => "SHIP",
            SceneId::Ref => "REF",
            SceneId::Chsnt => "CHSNT",
            SceneId::Park => "PARK",
        }
    }

    /// `true` for the three scenes the paper evaluates at reduced
    /// resolution (32×32, 1 spp) due to their size: CHSNT, ROBOT, PARK.
    pub fn is_reduced_resolution(self) -> bool {
        matches!(self, SceneId::Chsnt | SceneId::Robot | SceneId::Park)
    }
}

impl std::fmt::Display for SceneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SceneId {
    type Err = ParseSceneIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SceneId::ALL
            .iter()
            .copied()
            .find(|id| id.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseSceneIdError { input: s.to_owned() })
    }
}

/// Error returned when parsing an unknown scene name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSceneIdError {
    input: String,
}

impl std::fmt::Display for ParseSceneIdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown scene name `{}`", self.input)
    }
}

impl std::error::Error for ParseSceneIdError {}

/// A light source for direct-illumination shadow rays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Light {
    /// A point light at `position` with RGB `intensity`.
    Point {
        /// World-space position.
        position: Vec3,
        /// Radiant intensity.
        intensity: Vec3,
    },
    /// A directional light (sun) shining along `-direction`.
    Directional {
        /// Unit vector pointing *toward* the light.
        direction: Vec3,
        /// Incoming radiance.
        radiance: Vec3,
    },
}

/// A complete renderable scene: primitives, materials, camera and light.
#[derive(Debug, Clone)]
pub struct Scene {
    /// Which Table II scene this is.
    pub id: SceneId,
    /// Scene primitives (triangles and/or spheres).
    pub prims: Vec<ScenePrimitive>,
    /// Material table indexed by [`MaterialId`].
    pub materials: Vec<Material>,
    /// The camera the renders use.
    pub camera: Camera,
    /// The light used for shadow rays.
    pub light: Light,
    /// Sky horizon colour (background gradient bottom).
    pub sky_horizon: Vec3,
    /// Sky zenith colour (background gradient top).
    pub sky_zenith: Vec3,
}

impl Scene {
    /// Builds the named scene deterministically.
    pub fn build(id: SceneId) -> Scene {
        scenes::build(id)
    }

    /// Builds the named scene with every triangle uniformly subdivided into
    /// a `detail × detail` grid ([`gen::subdivide`]) — `detail²` times the
    /// base triangle count, same silhouette/materials/camera. `detail <= 1`
    /// is exactly [`Scene::build`], and the default pipeline never calls
    /// this, so existing renders and simulator statistics are untouched.
    ///
    /// This is the paper-scale path: SHIP at `detail = 20` crosses one
    /// million triangles, ROBOT at `detail = 3` doubles that — matching
    /// the Lumibench originals' order of magnitude for build-throughput
    /// benchmarks.
    pub fn build_scaled(id: SceneId, detail: u32) -> Scene {
        let mut scene = scenes::build(id);
        if detail <= 1 {
            return scene;
        }
        let tris = scene.triangle_count();
        let sub = (detail * detail) as usize;
        let mut prims = Vec::with_capacity(tris * sub + scene.prims.len() - tris);
        for p in &scene.prims {
            match &p.shape {
                Shape::Tri(t) => gen::subdivide(t, detail, |t| {
                    prims.push(ScenePrimitive { shape: Shape::Tri(t), material: p.material })
                }),
                _ => prims.push(*p),
            }
        }
        scene.prims = prims;
        scene
    }

    /// Number of triangles (spheres excluded), as reported in Table II.
    pub fn triangle_count(&self) -> usize {
        self.prims.iter().filter(|p| matches!(p.shape, Shape::Tri(_))).count()
    }

    /// Background radiance for a ray that escaped the scene.
    pub fn sky(&self, dir: Vec3) -> Vec3 {
        let t = 0.5 * (dir.y + 1.0);
        self.sky_horizon.lerp(self.sky_zenith, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_names_round_trip() {
        for id in SceneId::ALL {
            let parsed: SceneId = id.name().parse().unwrap();
            assert_eq!(parsed, id);
            let lower: SceneId = id.name().to_lowercase().parse().unwrap();
            assert_eq!(lower, id);
        }
    }

    #[test]
    fn unknown_scene_name_errors() {
        let err = "NOPE".parse::<SceneId>().unwrap_err();
        assert!(err.to_string().contains("NOPE"));
    }

    #[test]
    fn reduced_resolution_matches_paper() {
        let reduced: Vec<_> = SceneId::ALL.iter().filter(|s| s.is_reduced_resolution()).collect();
        assert_eq!(reduced.len(), 3);
    }

    #[test]
    fn build_scaled_multiplies_triangles_only() {
        let base = Scene::build(SceneId::Ship);
        let scaled = Scene::build_scaled(SceneId::Ship, 3);
        assert_eq!(scaled.triangle_count(), base.triangle_count() * 9);
        let spheres =
            |s: &Scene| s.prims.iter().filter(|p| !matches!(p.shape, Shape::Tri(_))).count();
        assert_eq!(spheres(&scaled), spheres(&base));
        assert_eq!(scaled.camera.width, base.camera.width);
    }

    #[test]
    fn scenes_are_built_at_their_final_length() {
        for id in SceneId::ALL {
            let s = Scene::build(id);
            assert_eq!(s.prims.capacity(), s.prims.len(), "{id}: slack in prims");
        }
        let scaled = Scene::build_scaled(SceneId::Ship, 3);
        assert_eq!(scaled.prims.capacity(), scaled.prims.len(), "SHIP x3: slack in prims");
    }

    #[test]
    fn build_scaled_detail_one_is_default_build() {
        let base = Scene::build(SceneId::Bunny);
        let scaled = Scene::build_scaled(SceneId::Bunny, 1);
        assert_eq!(scaled.prims.len(), base.prims.len());
        assert_eq!(scaled.prims[0], base.prims[0]);
    }

    #[test]
    fn all_has_16_unique_scenes() {
        let mut names: Vec<_> = SceneId::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }
}
