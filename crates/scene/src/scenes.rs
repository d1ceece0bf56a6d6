//! Builders for the 16 Table II benchmark scenes.
//!
//! Triangle budgets follow Table II scaled by ~1/200 (small scenes are
//! scaled less so they stay meaningful); geometry styles reproduce each
//! scene's traversal character as described in the paper's §VII-B.

use crate::gen;
use crate::material::{Material, MaterialId};
use crate::primitive::ScenePrimitive;
use crate::{Camera, Light, Scene, SceneId};
use sms_geom::{SplitMix64, Triangle, Vec3};

/// Builds the named scene deterministically.
pub fn build(id: SceneId) -> Scene {
    match id {
        SceneId::Wknd => wknd(),
        SceneId::Sprng => sprng(),
        SceneId::Fox => fox(),
        SceneId::Lands => lands(),
        SceneId::Crnvl => crnvl(),
        SceneId::Spnza => spnza(),
        SceneId::Bath => bath(),
        SceneId::Robot => robot(),
        SceneId::Car => car(),
        SceneId::Party => party(),
        SceneId::Frst => frst(),
        SceneId::Bunny => bunny(),
        SceneId::Ship => ship(),
        SceneId::Ref => reflective(),
        SceneId::Chsnt => chsnt(),
        SceneId::Park => park(),
    }
}

/// Incrementally assembles a scene's primitives and materials.
///
/// The pieces are kept as the generators return them, so that
/// [`Assembler::finish`] writes `prims` once, at its final length, in the
/// order the pieces came.
struct Assembler {
    pieces: Vec<Piece>,
    len: usize,
    materials: Vec<Material>,
}

/// One call's worth of primitives.
enum Piece {
    Tris(Vec<Triangle>, MaterialId),
    Prim(ScenePrimitive),
}

impl Assembler {
    fn new() -> Self {
        Assembler { pieces: Vec::new(), len: 0, materials: Vec::new() }
    }

    fn material(&mut self, m: Material) -> u32 {
        self.materials.push(m);
        (self.materials.len() - 1) as u32
    }

    fn tris(&mut self, tris: impl IntoIterator<Item = Triangle>, mat: u32) {
        // A generator's `Vec` is kept as it is, not copied.
        let tris: Vec<Triangle> = tris.into_iter().collect();
        self.len += tris.len();
        self.pieces.push(Piece::Tris(tris, mat));
    }

    fn sphere(&mut self, center: Vec3, radius: f32, mat: u32) {
        self.len += 1;
        self.pieces.push(Piece::Prim(ScenePrimitive::sphere(center, radius, mat)));
    }

    fn finish(
        self,
        id: SceneId,
        camera: Camera,
        light: Light,
        sky_horizon: Vec3,
        sky_zenith: Vec3,
    ) -> Scene {
        let mut prims = Vec::with_capacity(self.len);
        for piece in self.pieces {
            match piece {
                Piece::Tris(tris, material) => prims.extend(
                    tris.into_iter()
                        .map(|t| ScenePrimitive { shape: crate::Shape::Tri(t), material }),
                ),
                Piece::Prim(p) => prims.push(p),
            }
        }
        Scene { id, prims, materials: self.materials, camera, light, sky_horizon, sky_zenith }
    }
}

fn diffuse(r: f32, g: f32, b: f32) -> Material {
    Material::Lambertian { albedo: Vec3::new(r, g, b) }
}

fn sun() -> Light {
    Light::Directional {
        direction: Vec3::new(0.4, 1.0, -0.3).normalized(),
        radiance: Vec3::new(3.0, 2.9, 2.7),
    }
}

fn day_sky() -> (Vec3, Vec3) {
    (Vec3::new(0.9, 0.9, 1.0), Vec3::new(0.4, 0.6, 1.0))
}

/// WKND — "Ray Tracing in One Weekend": analytic spheres only (0 triangles).
fn wknd() -> Scene {
    let mut a = Assembler::new();
    let ground = a.material(diffuse(0.5, 0.5, 0.5));
    a.sphere(Vec3::new(0.0, -1000.0, 0.0), 1000.0, ground);

    let mut rng = SplitMix64::new(0x574b);
    for i in -16i32..16 {
        for j in -16i32..16 {
            let choose = rng.next_f32();
            let center =
                Vec3::new(i as f32 + 0.9 * rng.next_f32(), 0.2, j as f32 + 0.9 * rng.next_f32());
            if (center - Vec3::new(4.0, 0.2, 0.0)).length() <= 0.9 {
                continue;
            }
            let mat = if choose < 0.7 {
                a.material(diffuse(rng.next_f32(), rng.next_f32(), rng.next_f32()))
            } else if choose < 0.9 {
                a.material(Material::Metal {
                    albedo: Vec3::new(
                        0.5 * (1.0 + rng.next_f32()),
                        0.5 * (1.0 + rng.next_f32()),
                        0.5 * (1.0 + rng.next_f32()),
                    ),
                    fuzz: 0.5 * rng.next_f32(),
                })
            } else {
                a.material(Material::Dielectric { ior: 1.5 })
            };
            a.sphere(center, 0.2, mat);
        }
    }
    // Floating clusters of small spheres (bokeh balls): a 3-D distribution
    // with heavy bound overlap, deepening the BVH like the big WKND field.
    for c in 0..10 {
        let center = Vec3::new(
            rng.range_f32(-10.0, 10.0),
            rng.range_f32(2.0, 7.0),
            rng.range_f32(-10.0, 10.0),
        );
        let cluster_r = rng.range_f32(1.5, 3.5);
        for _ in 0..60 {
            use sms_geom::DeterministicRng;
            let p = center + rng.unit_vector() * (cluster_r * rng.next_f32());
            let mat = a.material(diffuse(rng.next_f32(), rng.next_f32(), rng.next_f32()));
            a.sphere(p, rng.range_f32(0.1, 0.45), mat);
        }
        let _ = c;
    }
    let glass = a.material(Material::Dielectric { ior: 1.5 });
    a.sphere(Vec3::new(0.0, 1.0, 0.0), 1.0, glass);
    let brown = a.material(diffuse(0.4, 0.2, 0.1));
    a.sphere(Vec3::new(-4.0, 1.0, 0.0), 1.0, brown);
    let metal = a.material(Material::Metal { albedo: Vec3::new(0.7, 0.6, 0.5), fuzz: 0.0 });
    a.sphere(Vec3::new(4.0, 1.0, 0.0), 1.0, metal);

    let (h, z) = day_sky();
    let cam = Camera::look_at(
        Vec3::new(13.0, 2.0, 3.0),
        Vec3::ZERO,
        Vec3::new(0.0, 1.0, 0.0),
        25.0,
        128,
        128,
    );
    a.finish(SceneId::Wknd, cam, sun(), h, z)
}

/// SPRNG — spring landscape: rolling terrain plus scattered foliage.
fn sprng() -> Scene {
    let mut a = Assembler::new();
    let grass = a.material(diffuse(0.3, 0.6, 0.25));
    let leafm = a.material(diffuse(0.35, 0.7, 0.3));
    let wood = a.material(diffuse(0.4, 0.27, 0.15));
    let water = a.material(Material::Metal { albedo: Vec3::new(0.5, 0.6, 0.8), fuzz: 0.1 });

    a.tris(gen::terrain(72, 72, 60.0, |x, z| 2.5 * gen::fbm(0x51, x * 0.08, z * 0.08, 4)), grass);
    a.tris(gen::terrain(16, 16, 18.0, |_, _| 0.35), water);

    let mut rng = SplitMix64::new(0x5052_4e47);
    for k in 0..44 {
        let x = rng.range_f32(-26.0, 26.0);
        let z = rng.range_f32(-26.0, 26.0);
        let base = Vec3::new(x, 2.5 * gen::fbm(0x51, x * 0.08, z * 0.08, 4) - 0.1, z);
        let (w, l) = gen::tree(base, rng.range_f32(3.0, 5.5), 1400, 0x5052 + k);
        a.tris(w, wood);
        a.tris(l, leafm);
    }
    let (h, z) = day_sky();
    let cam = Camera::look_at(
        Vec3::new(0.0, 6.0, -28.0),
        Vec3::new(0.0, 2.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        55.0,
        128,
        128,
    );
    a.finish(SceneId::Sprng, cam, sun(), h, z)
}

/// FOX — organic blob model standing on a small terrain.
fn fox() -> Scene {
    let mut a = Assembler::new();
    let fur = a.material(diffuse(0.85, 0.45, 0.15));
    let snow = a.material(diffuse(0.9, 0.9, 0.95));

    a.tris(gen::terrain(30, 30, 20.0, |x, z| 0.3 * gen::fbm(0x46, x * 0.3, z * 0.3, 3)), snow);
    // Body, head, ears, tail, legs as displaced blobs.
    a.tris(gen::blob(Vec3::new(0.0, 1.4, 0.0), 1.2, 72, 96, 0.25, 1), fur);
    a.tris(gen::blob(Vec3::new(0.0, 2.6, -1.2), 0.7, 56, 72, 0.2, 2), fur);
    a.tris(gen::blob(Vec3::new(-0.3, 3.3, -1.3), 0.25, 12, 16, 0.15, 3), fur);
    a.tris(gen::blob(Vec3::new(0.3, 3.3, -1.3), 0.25, 12, 16, 0.15, 4), fur);
    a.tris(gen::blob(Vec3::new(0.0, 1.2, 1.6), 0.55, 48, 60, 0.35, 5), fur);
    // Fur tufts: overlapping clutter over the body.
    a.tris(gen::canopy(Vec3::new(0.0, 1.6, 0.0), 1.9, 9000, 0.22, 0x464f), fur);
    for (i, lx) in [-0.5f32, 0.5, -0.5, 0.5].iter().enumerate() {
        let lz = if i < 2 { -0.6 } else { 0.6 };
        a.tris(gen::blob(Vec3::new(*lx, 0.5, lz), 0.3, 14, 18, 0.2, 6 + i as u64), fur);
    }
    let (h, z) = day_sky();
    let cam = Camera::look_at(
        Vec3::new(5.0, 3.0, -6.0),
        Vec3::new(0.0, 1.8, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        45.0,
        128,
        128,
    );
    a.finish(SceneId::Fox, cam, sun(), h, z)
}

/// LANDS — large rugged terrain landscape.
fn lands() -> Scene {
    let mut a = Assembler::new();
    let rock = a.material(diffuse(0.45, 0.4, 0.35));
    let snow = a.material(diffuse(0.9, 0.9, 0.92));
    a.tris(
        gen::terrain(150, 150, 120.0, |x, z| {
            let n = gen::fbm(0x4c41, x * 0.05, z * 0.05, 5);
            12.0 * n * n
        }),
        rock,
    );
    // Snow caps: a second offset layer over the peaks (overlapping bounds).
    a.tris(
        gen::terrain(50, 50, 120.0, |x, z| {
            let n = gen::fbm(0x4c41, x * 0.05, z * 0.05, 5);
            12.0 * n * n + 0.15
        }),
        snow,
    );
    // Scree: rock clutter on the slopes.
    let mut rng = SplitMix64::new(0x4c41);
    for _ in 0..48 {
        let x = rng.range_f32(-50.0, 50.0);
        let z = rng.range_f32(-50.0, 50.0);
        let n = gen::fbm(0x4c41, x * 0.05, z * 0.05, 5);
        let c = Vec3::new(x, 12.0 * n * n + 1.0, z);
        a.tris(gen::canopy(c, 4.0, 900, 0.9, rng.next_u64()), rock);
    }
    // Alpine shrubs in the valleys.
    let shrub = a.material(diffuse(0.25, 0.4, 0.2));
    for _ in 0..30 {
        let x = rng.range_f32(-45.0, 45.0);
        let z = rng.range_f32(-45.0, 45.0);
        let n = gen::fbm(0x4c41, x * 0.05, z * 0.05, 5);
        let c = Vec3::new(x, 12.0 * n * n + 0.6, z);
        a.tris(gen::canopy(c, 1.8, 420, 0.5, rng.next_u64()), shrub);
    }
    let (h, z) = day_sky();
    let cam = Camera::look_at(
        Vec3::new(0.0, 14.0, -58.0),
        Vec3::new(0.0, 5.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        50.0,
        128,
        128,
    );
    a.finish(SceneId::Lands, cam, sun(), h, z)
}

/// CRNVL — carnival: stalls (boxes), balloons (spheres), ground.
fn crnvl() -> Scene {
    let mut a = Assembler::new();
    let ground = a.material(diffuse(0.55, 0.5, 0.4));
    a.tris(gen::terrain(12, 12, 40.0, |_, _| 0.0), ground);

    let mut rng = SplitMix64::new(0x4352);
    for _ in 0..14 {
        let x = rng.range_f32(-15.0, 15.0);
        let z = rng.range_f32(-15.0, 15.0);
        let w = rng.range_f32(1.0, 2.5);
        let hgt = rng.range_f32(1.5, 3.5);
        let mat = a.material(diffuse(rng.next_f32(), rng.next_f32(), rng.next_f32()));
        a.tris(gen::box_mesh(Vec3::new(x - w, 0.0, z - w), Vec3::new(x + w, hgt, z + w)), mat);
    }
    for _ in 0..60 {
        let c = Vec3::new(
            rng.range_f32(-16.0, 16.0),
            rng.range_f32(2.0, 7.0),
            rng.range_f32(-16.0, 16.0),
        );
        let mat = a.material(diffuse(rng.next_f32(), rng.next_f32() * 0.5, rng.next_f32()));
        a.sphere(c, rng.range_f32(0.2, 0.5), mat);
    }
    // Bunting and confetti above the fairground (dense thin clutter).
    let confetti = a.material(diffuse(0.9, 0.8, 0.2));
    a.tris(gen::canopy(Vec3::new(0.0, 6.0, 0.0), 14.0, 24_000, 0.4, 0x4352), confetti);
    // A ferris-wheel-like ring of tubes.
    let hub = Vec3::new(0.0, 8.0, 12.0);
    let steel = a.material(Material::Metal { albedo: Vec3::splat(0.6), fuzz: 0.3 });
    for k in 0..12 {
        let phi = std::f32::consts::TAU * k as f32 / 12.0;
        let rim = hub + Vec3::new(phi.cos() * 5.0, phi.sin() * 5.0, 0.0);
        a.tris(gen::tube(hub, rim, 0.1, 5), steel);
    }
    let (h, z) = day_sky();
    let cam = Camera::look_at(
        Vec3::new(0.0, 4.0, -22.0),
        Vec3::new(0.0, 4.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        55.0,
        128,
        128,
    );
    a.finish(SceneId::Crnvl, cam, sun(), h, z)
}

/// SPNZA — atrium with colonnades: floor, walls, two rows of columns.
fn spnza() -> Scene {
    let mut a = Assembler::new();
    let stone = a.material(diffuse(0.65, 0.6, 0.5));
    let floor = a.material(diffuse(0.5, 0.45, 0.4));
    let fabric = a.material(diffuse(0.7, 0.2, 0.2));

    a.tris(gen::terrain(10, 10, 40.0, |_, _| 0.0), floor);
    // Outer walls (open top, like the atrium).
    a.tris(gen::box_mesh(Vec3::new(-16.0, 0.0, -8.2), Vec3::new(16.0, 8.0, -8.0)), stone);
    a.tris(gen::box_mesh(Vec3::new(-16.0, 0.0, 8.0), Vec3::new(16.0, 8.0, 8.2)), stone);
    a.tris(gen::box_mesh(Vec3::new(-16.2, 0.0, -8.0), Vec3::new(-16.0, 8.0, 8.0)), stone);
    a.tris(gen::box_mesh(Vec3::new(16.0, 0.0, -8.0), Vec3::new(16.2, 8.0, 8.0)), stone);
    // Colonnades.
    for i in 0..8 {
        let x = -14.0 + i as f32 * 4.0;
        for zz in [-5.0f32, 5.0] {
            a.tris(gen::tube(Vec3::new(x, 0.0, zz), Vec3::new(x, 6.0, zz), 0.5, 10), stone);
            a.tris(
                gen::box_mesh(Vec3::new(x - 0.8, 6.0, zz - 0.8), Vec3::new(x + 0.8, 6.6, zz + 0.8)),
                stone,
            );
        }
    }
    // Ivy wrapping the colonnade and plants hanging from the upper floor.
    let ivy = a.material(diffuse(0.25, 0.45, 0.2));
    for i in 0..8 {
        let x = -14.0 + i as f32 * 4.0;
        for zz in [-5.0f32, 5.0] {
            a.tris(gen::canopy(Vec3::new(x, 3.5, zz), 1.6, 700, 0.35, 0x5350 + i), ivy);
        }
    }
    a.tris(gen::canopy(Vec3::new(0.0, 6.5, 0.0), 10.0, 5000, 0.5, 0x5351), ivy);
    // Hanging banners (thin boxes) that rays must thread between.
    for i in 0..4 {
        let x = -9.0 + i as f32 * 6.0;
        a.tris(gen::box_mesh(Vec3::new(x, 3.0, -1.0), Vec3::new(x + 2.0, 6.0, -0.95)), fabric);
    }
    let (h, z) = day_sky();
    let cam = Camera::look_at(
        Vec3::new(-13.0, 3.0, 0.0),
        Vec3::new(8.0, 3.5, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        60.0,
        128,
        128,
    );
    a.finish(SceneId::Spnza, cam, sun(), h, z)
}

/// BATH — enclosed bathroom interior with fixtures.
fn bath() -> Scene {
    let mut a = Assembler::new();
    let tile = a.material(diffuse(0.8, 0.82, 0.85));
    let ceramic = a.material(diffuse(0.92, 0.92, 0.9));
    let chrome = a.material(Material::Metal { albedo: Vec3::splat(0.8), fuzz: 0.05 });
    let lightm = a.material(Material::Emissive { radiance: Vec3::splat(6.0) });

    // Room shell (inward-facing; rays bounce around inside).
    a.tris(gen::box_mesh(Vec3::new(-6.0, -0.2, -6.0), Vec3::new(6.0, 0.0, 6.0)), tile);
    a.tris(gen::box_mesh(Vec3::new(-6.0, 5.0, -6.0), Vec3::new(6.0, 5.2, 6.0)), tile);
    a.tris(gen::box_mesh(Vec3::new(-6.2, 0.0, -6.0), Vec3::new(-6.0, 5.0, 6.0)), tile);
    a.tris(gen::box_mesh(Vec3::new(6.0, 0.0, -6.0), Vec3::new(6.2, 5.0, 6.0)), tile);
    a.tris(gen::box_mesh(Vec3::new(-6.0, 0.0, 6.0), Vec3::new(6.0, 5.0, 6.2)), tile);
    a.tris(gen::box_mesh(Vec3::new(-6.0, 0.0, -6.2), Vec3::new(6.0, 5.0, -6.0)), tile);
    // Tub: displaced half blob; sink: small blob; pipes: tubes.
    a.tris(gen::blob(Vec3::new(-2.5, 0.6, 2.5), 1.8, 20, 28, 0.12, 21), ceramic);
    a.tris(gen::blob(Vec3::new(3.5, 1.6, -3.5), 0.7, 14, 18, 0.1, 22), ceramic);
    a.tris(gen::tube(Vec3::new(3.5, 0.0, -3.5), Vec3::new(3.5, 1.4, -3.5), 0.12, 8), chrome);
    a.tris(gen::tube(Vec3::new(-2.5, 0.0, 4.2), Vec3::new(-2.5, 1.8, 4.2), 0.08, 8), chrome);
    a.tris(gen::box_mesh(Vec3::new(-1.0, 4.8, -1.0), Vec3::new(1.0, 5.0, 1.0)), lightm);
    // Towels, plants and toiletries: overlapping clutter.
    let towel = a.material(diffuse(0.8, 0.7, 0.6));
    a.tris(gen::canopy(Vec3::new(0.0, 2.0, 0.0), 4.5, 6000, 0.3, 0x4241), towel);
    // Mirror.
    a.tris(gen::box_mesh(Vec3::new(2.2, 1.8, -5.99), Vec3::new(4.8, 3.8, -5.95)), chrome);

    let cam = Camera::look_at(
        Vec3::new(0.0, 2.2, -5.0),
        Vec3::new(-1.0, 1.5, 2.0),
        Vec3::new(0.0, 1.0, 0.0),
        65.0,
        128,
        128,
    );
    let light = Light::Point { position: Vec3::new(0.0, 4.6, 0.0), intensity: Vec3::splat(40.0) };
    a.finish(SceneId::Bath, cam, light, Vec3::splat(0.05), Vec3::splat(0.02))
}

/// ROBOT — the largest mesh: finely tessellated articulated body.
fn robot() -> Scene {
    let mut a = Assembler::new();
    let shell = a.material(Material::Metal { albedo: Vec3::new(0.7, 0.72, 0.75), fuzz: 0.25 });
    let joint = a.material(diffuse(0.2, 0.2, 0.25));
    let floor = a.material(diffuse(0.4, 0.4, 0.42));

    a.tris(gen::terrain(24, 24, 30.0, |_, _| 0.0), floor);
    // Dense body parts: high-resolution displaced blobs.
    a.tris(gen::blob(Vec3::new(0.0, 3.2, 0.0), 1.6, 170, 230, 0.18, 31), shell); // torso
    a.tris(gen::blob(Vec3::new(0.0, 5.6, 0.0), 0.9, 130, 170, 0.15, 32), shell); // head
    for (k, side) in [-1.0f32, 1.0].iter().enumerate() {
        a.tris(gen::blob(Vec3::new(side * 2.1, 3.9, 0.0), 0.55, 50, 60, 0.2, 33 + k as u64), joint);
        a.tris(gen::blob(Vec3::new(side * 2.5, 2.4, 0.2), 0.5, 50, 60, 0.2, 35 + k as u64), shell);
        a.tris(gen::blob(Vec3::new(side * 0.8, 1.0, 0.0), 0.6, 50, 60, 0.15, 37 + k as u64), shell);
        a.tris(gen::blob(Vec3::new(side * 0.8, 0.2, 0.3), 0.45, 40, 50, 0.1, 39 + k as u64), joint);
    }
    // Greebles: dense clutter of small parts over the torso.
    a.tris(gen::canopy(Vec3::new(0.0, 3.4, 0.0), 2.2, 64_000, 0.16, 0x726f), joint);
    let (h, z) = day_sky();
    let cam = Camera::look_at(
        Vec3::new(6.0, 4.5, -8.0),
        Vec3::new(0.0, 3.5, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        45.0,
        32,
        32,
    );
    a.finish(SceneId::Robot, cam, sun(), h, z)
}

/// CAR — dense curved shell with wheels.
fn car() -> Scene {
    let mut a = Assembler::new();
    let paint = a.material(Material::Metal { albedo: Vec3::new(0.7, 0.1, 0.1), fuzz: 0.1 });
    let glass = a.material(Material::Dielectric { ior: 1.5 });
    let rubber = a.material(diffuse(0.08, 0.08, 0.08));
    let road = a.material(diffuse(0.3, 0.3, 0.32));

    a.tris(gen::terrain(20, 20, 30.0, |_, _| 0.0), road);
    // Body: stretched high-res blob; cabin: second blob; wheels: tubes.
    let body: Vec<Triangle> = gen::blob(Vec3::ZERO, 1.0, 210, 290, 0.06, 41)
        .into_iter()
        .map(|t| {
            let s = |v: Vec3| Vec3::new(v.x * 2.6, v.y * 0.75 + 1.0, v.z * 1.2);
            Triangle::new(s(t.v0), s(t.v1), s(t.v2))
        })
        .collect();
    a.tris(body, paint);
    let cabin: Vec<Triangle> = gen::blob(Vec3::ZERO, 1.0, 120, 160, 0.04, 42)
        .into_iter()
        .map(|t| {
            let s = |v: Vec3| Vec3::new(v.x * 1.3 - 0.2, v.y * 0.55 + 1.7, v.z * 1.0);
            Triangle::new(s(t.v0), s(t.v1), s(t.v2))
        })
        .collect();
    a.tris(cabin, glass);
    for x in [-1.6f32, 1.6] {
        for z in [-1.25f32, 1.25] {
            a.tris(
                gen::tube(Vec3::new(x, 0.5, z - 0.15), Vec3::new(x, 0.5, z + 0.15), 0.5, 24),
                rubber,
            );
        }
    }
    // Underbody / engine-bay detail.
    a.tris(gen::canopy(Vec3::new(0.0, 0.8, 0.0), 2.4, 42_000, 0.12, 0x4341), rubber);
    let (h, z) = day_sky();
    let cam = Camera::look_at(
        Vec3::new(5.5, 2.5, -5.5),
        Vec3::new(0.0, 1.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        40.0,
        128,
        128,
    );
    a.finish(SceneId::Car, cam, sun(), h, z)
}

/// PARTY — cluttered interior (the paper's Fig. 10 traces two warps here).
fn party() -> Scene {
    let mut a = Assembler::new();
    let wall = a.material(diffuse(0.75, 0.7, 0.6));
    let lightm = a.material(Material::Emissive { radiance: Vec3::new(8.0, 7.5, 7.0) });

    // Room shell.
    a.tris(gen::box_mesh(Vec3::new(-10.0, -0.2, -10.0), Vec3::new(10.0, 0.0, 10.0)), wall);
    a.tris(gen::box_mesh(Vec3::new(-10.0, 6.0, -10.0), Vec3::new(10.0, 6.2, 10.0)), wall);
    a.tris(gen::box_mesh(Vec3::new(-10.2, 0.0, -10.0), Vec3::new(-10.0, 6.0, 10.0)), wall);
    a.tris(gen::box_mesh(Vec3::new(10.0, 0.0, -10.0), Vec3::new(10.2, 6.0, 10.0)), wall);
    a.tris(gen::box_mesh(Vec3::new(-10.0, 0.0, 10.0), Vec3::new(10.0, 6.0, 10.2)), wall);
    a.tris(gen::box_mesh(Vec3::new(-10.0, 0.0, -10.2), Vec3::new(10.0, 6.0, -10.0)), wall);
    a.tris(gen::box_mesh(Vec3::new(-2.0, 5.8, -2.0), Vec3::new(2.0, 6.0, 2.0)), lightm);

    let mut rng = SplitMix64::new(0x5041);
    // Furniture: boxes and blobs.
    for _ in 0..20 {
        let x = rng.range_f32(-8.0, 8.0);
        let z = rng.range_f32(-8.0, 8.0);
        let w = rng.range_f32(0.4, 1.4);
        let hgt = rng.range_f32(0.5, 2.2);
        let mat = a.material(diffuse(rng.next_f32(), rng.next_f32(), rng.next_f32()));
        a.tris(gen::box_mesh(Vec3::new(x - w, 0.0, z - w), Vec3::new(x + w, hgt, z + w)), mat);
    }
    for _ in 0..10 {
        let c =
            Vec3::new(rng.range_f32(-8.0, 8.0), rng.range_f32(0.5, 2.0), rng.range_f32(-8.0, 8.0));
        let mat = a.material(diffuse(rng.next_f32(), rng.next_f32(), rng.next_f32()));
        a.tris(gen::blob(c, rng.range_f32(0.3, 0.8), 16, 20, 0.2, rng.next_u64()), mat);
    }
    // Streamers and balloons hanging from the ceiling: dense thin clutter.
    let streamer = a.material(diffuse(0.9, 0.3, 0.5));
    a.tris(gen::canopy(Vec3::new(0.0, 4.4, 0.0), 8.5, 26_000, 0.4, 0x7061), streamer);
    let balloon = a.material(diffuse(0.9, 0.2, 0.2));
    for _ in 0..40 {
        let c =
            Vec3::new(rng.range_f32(-9.0, 9.0), rng.range_f32(3.5, 5.6), rng.range_f32(-9.0, 9.0));
        a.sphere(c, rng.range_f32(0.2, 0.45), balloon);
    }
    let cam = Camera::look_at(
        Vec3::new(0.0, 2.5, -9.0),
        Vec3::new(0.0, 2.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        65.0,
        128,
        128,
    );
    let light = Light::Point { position: Vec3::new(0.0, 5.5, 0.0), intensity: Vec3::splat(60.0) };
    a.finish(SceneId::Party, cam, light, Vec3::splat(0.08), Vec3::splat(0.03))
}

/// FRST — forest of instanced trees over terrain.
fn frst() -> Scene {
    let mut a = Assembler::new();
    let groundm = a.material(diffuse(0.25, 0.4, 0.2));
    let wood = a.material(diffuse(0.35, 0.25, 0.15));
    let leafm = a.material(diffuse(0.2, 0.5, 0.2));

    let height = |x: f32, z: f32| 1.5 * gen::fbm(0x4652, x * 0.1, z * 0.1, 3);
    a.tris(gen::terrain(64, 64, 50.0, height), groundm);
    let mut rng = SplitMix64::new(0x4652_5354);
    for k in 0..110 {
        let x = rng.range_f32(-22.0, 22.0);
        let z = rng.range_f32(-22.0, 22.0);
        let base = Vec3::new(x, height(x, z) - 0.1, z);
        let (w, l) = gen::tree(base, rng.range_f32(3.5, 7.0), 1500, 0x4652 + k);
        a.tris(w, wood);
        a.tris(l, leafm);
    }
    let (h, z) = day_sky();
    let cam = Camera::look_at(
        Vec3::new(0.0, 3.0, -23.0),
        Vec3::new(0.0, 3.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        60.0,
        128,
        128,
    );
    a.finish(SceneId::Frst, cam, sun(), h, z)
}

/// BUNNY — a single organic blob on a ground plane.
fn bunny() -> Scene {
    let mut a = Assembler::new();
    let fur = a.material(diffuse(0.8, 0.75, 0.7));
    let groundm = a.material(diffuse(0.4, 0.45, 0.4));
    a.tris(gen::terrain(8, 8, 16.0, |_, _| 0.0), groundm);
    a.tris(gen::blob(Vec3::new(0.0, 1.2, 0.0), 1.1, 32, 40, 0.22, 51), fur); // body
    a.tris(gen::canopy(Vec3::new(0.0, 1.5, -0.1), 1.5, 3200, 0.2, 0x4255), fur); // fur tufts
    a.tris(gen::blob(Vec3::new(0.0, 2.4, -0.6), 0.55, 20, 28, 0.18, 52), fur); // head
    a.tris(gen::blob(Vec3::new(-0.25, 3.2, -0.6), 0.18, 6, 8, 0.1, 53), fur); // ears
    a.tris(gen::blob(Vec3::new(0.25, 3.2, -0.6), 0.18, 6, 8, 0.1, 54), fur);
    let (h, z) = day_sky();
    let cam = Camera::look_at(
        Vec3::new(3.5, 2.2, -4.0),
        Vec3::new(0.0, 1.5, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        45.0,
        128,
        128,
    );
    a.finish(SceneId::Bunny, cam, sun(), h, z)
}

/// SHIP — few but long, thin primitives (high leaf-hit ratio, §VII-B).
fn ship() -> Scene {
    let mut a = Assembler::new();
    let hullm = a.material(diffuse(0.35, 0.22, 0.12));
    let sail = a.material(diffuse(0.9, 0.88, 0.8));
    let sea = a.material(Material::Metal { albedo: Vec3::new(0.2, 0.35, 0.5), fuzz: 0.15 });

    a.tris(gen::terrain(24, 24, 60.0, |x, z| 0.15 * gen::fbm(0x5348, x * 0.4, z * 0.4, 2)), sea);
    // Hull: long thin planks spanning the whole ship.
    for k in 0..60 {
        let y = 0.4 + k as f32 * 0.06;
        let half_w = 1.4 - (k as f32 - 10.0).abs() * 0.08;
        for side in [-1.0f32, 1.0] {
            let z = side * half_w;
            a.tris(
                [
                    Triangle::new(
                        Vec3::new(-8.0, y, z * 0.3),
                        Vec3::new(8.0, y, z * 0.3),
                        Vec3::new(8.0, y + 0.18, z),
                    ),
                    Triangle::new(
                        Vec3::new(-8.0, y, z * 0.3),
                        Vec3::new(8.0, y + 0.18, z),
                        Vec3::new(-8.0, y + 0.18, z),
                    ),
                ],
                hullm,
            );
        }
    }
    // Deck planks.
    for k in 0..48 {
        let z = -1.2 + k as f32 * 0.05;
        a.tris(
            [
                Triangle::new(
                    Vec3::new(-7.5, 4.0, z),
                    Vec3::new(7.5, 4.0, z),
                    Vec3::new(7.5, 4.0, z + 0.13),
                ),
                Triangle::new(
                    Vec3::new(-7.5, 4.0, z),
                    Vec3::new(7.5, 4.0, z + 0.13),
                    Vec3::new(-7.5, 4.0, z + 0.13),
                ),
            ],
            hullm,
        );
    }
    // Masts and rigging: long thin tubes.
    for mx in [-5.0f32, -2.5, 0.0, 2.5, 5.0] {
        a.tris(gen::tube(Vec3::new(mx, 4.0, 0.0), Vec3::new(mx, 12.0, 0.0), 0.12, 6), hullm);
        a.tris(
            gen::tube(Vec3::new(mx - 2.5, 9.0, 0.0), Vec3::new(mx + 2.5, 9.0, 0.0), 0.06, 5),
            hullm,
        );
        // Sail: two large triangles.
        a.tris(
            [
                Triangle::new(
                    Vec3::new(mx - 2.3, 9.0, 0.05),
                    Vec3::new(mx + 2.3, 9.0, 0.05),
                    Vec3::new(mx + 1.8, 5.0, 0.6),
                ),
                Triangle::new(
                    Vec3::new(mx - 2.3, 9.0, 0.05),
                    Vec3::new(mx + 1.8, 5.0, 0.6),
                    Vec3::new(mx - 1.8, 5.0, 0.6),
                ),
            ],
            sail,
        );
        // Rigging lines: extremely thin long tubes forming a lattice.
        for side in [-1.0f32, 1.0] {
            for k in 0..12 {
                let spread = 1.0 + k as f32 * 0.35;
                a.tris(
                    gen::tube(
                        Vec3::new(mx, 11.5 - k as f32 * 0.4, 0.0),
                        Vec3::new(mx + side * spread, 4.2, side * 1.0),
                        0.02,
                        4,
                    ),
                    hullm,
                );
            }
        }
    }
    let (h, z) = day_sky();
    let cam = Camera::look_at(
        Vec3::new(10.0, 6.0, -14.0),
        Vec3::new(0.0, 5.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        50.0,
        128,
        128,
    );
    a.finish(SceneId::Ship, cam, sun(), h, z)
}

/// REF — reflective spheres over a tiled floor.
fn reflective() -> Scene {
    let mut a = Assembler::new();
    let mut rng = SplitMix64::new(0x5245);
    // Checkerboard floor of individual quads (triangles).
    for i in 0..16 {
        for j in 0..16 {
            let x = -16.0 + i as f32 * 2.0;
            let z = -16.0 + j as f32 * 2.0;
            let c = if (i + j) % 2 == 0 { 0.85 } else { 0.25 };
            let mat = a.material(diffuse(c, c, c));
            a.tris(
                [
                    Triangle::new(
                        Vec3::new(x, 0.0, z),
                        Vec3::new(x + 2.0, 0.0, z),
                        Vec3::new(x + 2.0, 0.0, z + 2.0),
                    ),
                    Triangle::new(
                        Vec3::new(x, 0.0, z),
                        Vec3::new(x + 2.0, 0.0, z + 2.0),
                        Vec3::new(x, 0.0, z + 2.0),
                    ),
                ],
                mat,
            );
        }
    }
    let mirror = a.material(Material::Metal { albedo: Vec3::splat(0.9), fuzz: 0.0 });
    let glass = a.material(Material::Dielectric { ior: 1.5 });
    a.sphere(Vec3::new(-2.5, 2.0, 0.0), 2.0, mirror);
    a.sphere(Vec3::new(2.5, 2.0, 0.0), 2.0, glass);
    for _ in 0..60 {
        let c = Vec3::new(
            rng.range_f32(-10.0, 10.0),
            rng.range_f32(0.4, 4.0),
            rng.range_f32(-10.0, 10.0),
        );
        let m = a.material(Material::Metal {
            albedo: Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
            fuzz: rng.next_f32() * 0.4,
        });
        a.sphere(c, rng.range_f32(0.3, 0.8), m);
    }
    // Pedestal props between the spheres.
    let prop = a.material(diffuse(0.6, 0.55, 0.5));
    a.tris(gen::canopy(Vec3::new(0.0, 1.5, 5.0), 4.5, 2600, 0.4, 0x5246), prop);
    a.tris(gen::canopy(Vec3::new(-5.0, 1.5, -4.0), 3.5, 1600, 0.35, 0x5247), prop);
    // Back wall mirror panels.
    let panel = a.material(Material::Metal { albedo: Vec3::splat(0.85), fuzz: 0.02 });
    a.tris(gen::box_mesh(Vec3::new(-10.0, 0.0, 10.0), Vec3::new(10.0, 6.0, 10.3)), panel);
    let (h, z) = day_sky();
    let cam = Camera::look_at(
        Vec3::new(0.0, 3.0, -12.0),
        Vec3::new(0.0, 2.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        50.0,
        128,
        128,
    );
    a.finish(SceneId::Ref, cam, sun(), h, z)
}

/// CHSNT — a single large chestnut tree with a dense canopy.
fn chsnt() -> Scene {
    let mut a = Assembler::new();
    let groundm = a.material(diffuse(0.3, 0.45, 0.2));
    let wood = a.material(diffuse(0.35, 0.22, 0.1));
    let leafm = a.material(diffuse(0.25, 0.5, 0.15));

    a.tris(gen::terrain(14, 14, 30.0, |x, z| 0.4 * gen::fbm(0x4348, x * 0.2, z * 0.2, 2)), groundm);
    let base = Vec3::new(0.0, 0.0, 0.0);
    a.tris(gen::tube(base, base + Vec3::new(0.3, 5.0, 0.0), 0.6, 10), wood);
    let mut rng = SplitMix64::new(0x4348_534e);
    for _ in 0..8 {
        let h = rng.range_f32(3.0, 5.0);
        let dir = Vec3::new(rng.range_f32(-1.0, 1.0), 0.7, rng.range_f32(-1.0, 1.0)).normalized();
        let start = base + Vec3::new(0.0, h, 0.0);
        a.tris(gen::tube(start, start + dir * rng.range_f32(2.0, 3.5), 0.2, 6), wood);
    }
    a.tris(gen::canopy(Vec3::new(0.3, 7.0, 0.0), 4.5, 21000, 0.65, 0x4348), leafm);
    let (h, z) = day_sky();
    let cam = Camera::look_at(
        Vec3::new(9.0, 4.0, -9.0),
        Vec3::new(0.0, 5.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        50.0,
        32,
        32,
    );
    a.finish(SceneId::Chsnt, cam, sun(), h, z)
}

/// PARK — large outdoor scene: terrain, trees, benches, a pond.
fn park() -> Scene {
    let mut a = Assembler::new();
    let grass = a.material(diffuse(0.3, 0.55, 0.25));
    let wood = a.material(diffuse(0.4, 0.28, 0.15));
    let leafm = a.material(diffuse(0.22, 0.5, 0.2));
    let water = a.material(Material::Metal { albedo: Vec3::new(0.4, 0.55, 0.7), fuzz: 0.08 });
    let stone = a.material(diffuse(0.55, 0.55, 0.5));

    let height = |x: f32, z: f32| 1.2 * gen::fbm(0x504b, x * 0.06, z * 0.06, 4);
    a.tris(gen::terrain(96, 96, 80.0, height), grass);
    a.tris(gen::terrain(10, 10, 14.0, |_, _| 0.25), water);
    let mut rng = SplitMix64::new(0x5041_524b);
    for k in 0..90 {
        let x = rng.range_f32(-36.0, 36.0);
        let z = rng.range_f32(-36.0, 36.0);
        if x * x + z * z < 100.0 {
            continue; // keep the pond clearing open
        }
        let base = Vec3::new(x, height(x, z) - 0.1, z);
        let (w, l) = gen::tree(base, rng.range_f32(4.0, 8.5), 2000, 0x504b + k);
        a.tris(w, wood);
        a.tris(l, leafm);
    }
    // Benches and a fountain.
    for k in 0..8 {
        let phi = std::f32::consts::TAU * k as f32 / 8.0;
        let p = Vec3::new(phi.cos() * 8.0, 0.3, phi.sin() * 8.0);
        a.tris(gen::box_mesh(p - Vec3::new(1.0, 0.3, 0.25), p + Vec3::new(1.0, 0.3, 0.25)), wood);
    }
    a.tris(gen::tube(Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 2.0, 0.0), 0.4, 10), stone);
    a.tris(gen::blob(Vec3::new(0.0, 2.4, 0.0), 0.6, 10, 14, 0.15, 61), stone);
    let (h, z) = day_sky();
    let cam = Camera::look_at(
        Vec3::new(0.0, 4.0, -30.0),
        Vec3::new(0.0, 3.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        55.0,
        32,
        32,
    );
    a.finish(SceneId::Park, cam, sun(), h, z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scene_builds_nonempty() {
        for id in SceneId::ALL {
            let s = Scene::build(id);
            assert!(!s.prims.is_empty(), "{id} has no primitives");
            assert!(!s.materials.is_empty(), "{id} has no materials");
            for p in &s.prims {
                assert!(
                    (p.material as usize) < s.materials.len(),
                    "{id} has a dangling material id"
                );
            }
        }
    }

    #[test]
    fn wknd_has_zero_triangles() {
        let s = Scene::build(SceneId::Wknd);
        assert_eq!(s.triangle_count(), 0, "WKND is the sphere scene (Table II)");
        assert!(s.prims.len() > 200);
    }

    #[test]
    fn relative_sizes_follow_table2_ordering() {
        // ROBOT and CAR are the two largest; SHIP among the smallest
        // triangle scenes; BUNNY small.
        let count = |id| Scene::build(id).triangle_count();
        let robot = count(SceneId::Robot);
        let car = count(SceneId::Car);
        let ship = count(SceneId::Ship);
        let bunny = count(SceneId::Bunny);
        let park = count(SceneId::Park);
        assert!(robot > car, "ROBOT ({robot}) must exceed CAR ({car})");
        assert!(car > park, "CAR ({car}) must exceed PARK ({park})");
        assert!(park > bunny, "PARK ({park}) must exceed BUNNY ({bunny})");
        assert!(bunny > ship / 10, "SHIP stays small");
        assert!(ship < 7000, "SHIP is a small scene (6.3K in the paper)");
    }

    #[test]
    fn scenes_are_deterministic() {
        let a = Scene::build(SceneId::Crnvl);
        let b = Scene::build(SceneId::Crnvl);
        assert_eq!(a.prims.len(), b.prims.len());
        assert_eq!(a.prims[10], b.prims[10]);
    }

    #[test]
    fn cameras_inside_reasonable_bounds() {
        for id in SceneId::ALL {
            let s = Scene::build(id);
            assert!(s.camera.origin.is_finite(), "{id} camera origin");
            let r = s.camera.primary_ray(0, 0, 0);
            assert!(r.dir.is_finite(), "{id} corner ray");
        }
    }

    #[test]
    fn reduced_scenes_use_32x32() {
        for id in SceneId::ALL {
            let s = Scene::build(id);
            if id.is_reduced_resolution() {
                assert_eq!((s.camera.width, s.camera.height), (32, 32), "{id}");
            } else {
                assert_eq!((s.camera.width, s.camera.height), (128, 128), "{id}");
            }
        }
    }
}
