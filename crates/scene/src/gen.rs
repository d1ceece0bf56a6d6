//! Procedural geometry helpers used by the scene builders.
//!
//! All generators are deterministic: randomness comes from explicit
//! [`SplitMix64`] streams seeded by the caller.

use sms_geom::{SplitMix64, Triangle, Vec3};

/// Deterministic value noise on an integer lattice.
fn lattice(seed: u64, ix: i64, iz: i64) -> f32 {
    let mut s = SplitMix64::from_key(seed, ix as u64, iz as u64, 0x6e6f_6973);
    s.next_f32()
}

fn smoothstep(t: f32) -> f32 {
    t * t * (3.0 - 2.0 * t)
}

/// Smooth 2-D value noise in `[0, 1]`.
pub fn value_noise(seed: u64, x: f32, z: f32) -> f32 {
    let ix = x.floor() as i64;
    let iz = z.floor() as i64;
    let fx = smoothstep(x - x.floor());
    let fz = smoothstep(z - z.floor());
    let a = lattice(seed, ix, iz);
    let b = lattice(seed, ix + 1, iz);
    let c = lattice(seed, ix, iz + 1);
    let d = lattice(seed, ix + 1, iz + 1);
    let ab = a + (b - a) * fx;
    let cd = c + (d - c) * fx;
    ab + (cd - ab) * fz
}

/// Fractal Brownian motion over [`value_noise`], in `[0, 1]`.
pub fn fbm(seed: u64, x: f32, z: f32, octaves: u32) -> f32 {
    let mut amp = 0.5;
    let mut freq = 1.0;
    let mut sum = 0.0;
    let mut norm = 0.0;
    for o in 0..octaves {
        sum += amp * value_noise(seed.wrapping_add(o as u64), x * freq, z * freq);
        norm += amp;
        amp *= 0.5;
        freq *= 2.0;
    }
    sum / norm
}

/// A heightfield terrain of `2 * nx * nz` triangles covering
/// `[-size/2, size/2]²` with heights from `height(x, z)`.
pub fn terrain<F: Fn(f32, f32) -> f32>(nx: u32, nz: u32, size: f32, height: F) -> Vec<Triangle> {
    let mut tris = Vec::with_capacity((nx * nz * 2) as usize);
    // Each lattice point is evaluated once: a row of points is shared by
    // the two rows of cells it borders.
    let row = |i: u32| -> Vec<Vec3> {
        let x = (i as f32 / nx as f32 - 0.5) * size;
        (0..=nz)
            .map(|j| {
                let z = (j as f32 / nz as f32 - 0.5) * size;
                Vec3::new(x, height(x, z), z)
            })
            .collect()
    };
    let mut lo = row(0);
    for i in 0..nx {
        let hi = row(i + 1);
        for j in 0..nz as usize {
            let (p00, p10, p01, p11) = (lo[j], hi[j], lo[j + 1], hi[j + 1]);
            tris.push(Triangle::new(p00, p10, p11));
            tris.push(Triangle::new(p00, p11, p01));
        }
        lo = hi;
    }
    tris
}

/// A UV-sphere mesh with optional radial displacement (`bump` in `[0, 1]`
/// scales noise displacement relative to the radius). `bump = 0` gives a
/// smooth sphere; larger values give organic "blob" shapes.
pub fn blob(
    center: Vec3,
    radius: f32,
    stacks: u32,
    slices: u32,
    bump: f32,
    seed: u64,
) -> Vec<Triangle> {
    let point = |si: u32, sj: u32| {
        let theta = std::f32::consts::PI * si as f32 / stacks as f32;
        let phi = std::f32::consts::TAU * sj as f32 / slices as f32;
        let dir = Vec3::new(theta.sin() * phi.cos(), theta.cos(), theta.sin() * phi.sin());
        let r = if bump > 0.0 {
            let n = fbm(seed, 3.0 + dir.x * 2.0 + dir.y, 3.0 + dir.z * 2.0 - dir.y, 3);
            radius * (1.0 + bump * (n - 0.5))
        } else {
            radius
        };
        center + dir * r
    };
    // Each lattice point is evaluated once, as in `terrain`.
    let row = |i: u32| -> Vec<Vec3> { (0..=slices).map(|j| point(i, j)).collect() };
    let mut tris = Vec::with_capacity((stacks * slices * 2) as usize);
    let mut lo = row(0);
    for i in 0..stacks {
        let hi = row(i + 1);
        for j in 0..slices as usize {
            let (p00, p10, p01, p11) = (lo[j], hi[j], lo[j + 1], hi[j + 1]);
            if i > 0 {
                tris.push(Triangle::new(p00, p10, p11));
            }
            if i + 1 < stacks {
                tris.push(Triangle::new(p00, p11, p01));
            }
        }
        lo = hi;
    }
    tris
}

/// An axis-aligned box as 12 triangles.
pub fn box_mesh(min: Vec3, max: Vec3) -> Vec<Triangle> {
    let p = |x: bool, y: bool, z: bool| {
        Vec3::new(
            if x { max.x } else { min.x },
            if y { max.y } else { min.y },
            if z { max.z } else { min.z },
        )
    };
    let quads = [
        // -z, +z, -x, +x, -y, +y faces as corner quadruples.
        [
            p(false, false, false),
            p(true, false, false),
            p(true, true, false),
            p(false, true, false),
        ],
        [p(false, false, true), p(false, true, true), p(true, true, true), p(true, false, true)],
        [
            p(false, false, false),
            p(false, true, false),
            p(false, true, true),
            p(false, false, true),
        ],
        [p(true, false, false), p(true, false, true), p(true, true, true), p(true, true, false)],
        [
            p(false, false, false),
            p(false, false, true),
            p(true, false, true),
            p(true, false, false),
        ],
        [p(false, true, false), p(true, true, false), p(true, true, true), p(false, true, true)],
    ];
    let mut tris = Vec::with_capacity(12);
    for q in quads {
        tris.push(Triangle::new(q[0], q[1], q[2]));
        tris.push(Triangle::new(q[0], q[2], q[3]));
    }
    tris
}

/// A (possibly long, thin) tube from `p0` to `p1` with `segments` sides —
/// used for columns, masts, branches and the SHIP scene's thin planks.
pub fn tube(p0: Vec3, p1: Vec3, radius: f32, segments: u32) -> Vec<Triangle> {
    let axis = (p1 - p0).normalized();
    let onb = sms_geom::Onb::from_w(axis);
    let ring = |center: Vec3, k: u32| {
        let phi = std::f32::consts::TAU * k as f32 / segments as f32;
        center + onb.to_world(Vec3::new(phi.cos() * radius, phi.sin() * radius, 0.0))
    };
    let mut tris = Vec::with_capacity((segments * 2) as usize);
    for k in 0..segments {
        let a0 = ring(p0, k);
        let a1 = ring(p0, k + 1);
        let b0 = ring(p1, k);
        let b1 = ring(p1, k + 1);
        tris.push(Triangle::new(a0, b0, b1));
        tris.push(Triangle::new(a0, b1, a1));
    }
    tris
}

/// A cloud of `count` small random triangles inside a sphere — models dense
/// foliage/clutter whose overlapping bounds force deep traversal stacks.
pub fn canopy(center: Vec3, radius: f32, count: u32, leaf_size: f32, seed: u64) -> Vec<Triangle> {
    use sms_geom::DeterministicRng;
    let mut rng = SplitMix64::new(seed);
    let mut tris = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let dir = rng.unit_vector();
        let r = radius * rng.next_f32().powf(1.0 / 3.0);
        let p = center + dir * r;
        let a = rng.unit_vector() * leaf_size;
        let b = rng.unit_vector() * leaf_size;
        tris.push(Triangle::new(p, p + a, p + b));
    }
    tris
}

/// A simple tree: trunk tube, a few branch tubes, plus a canopy cloud.
/// Returns `(wood, leaves)` so callers can assign different materials.
pub fn tree(
    base: Vec3,
    height: f32,
    canopy_tris: u32,
    seed: u64,
) -> (Vec<Triangle>, Vec<Triangle>) {
    let mut rng = SplitMix64::new(seed);
    let top = base + Vec3::new(0.0, height, 0.0);
    let mut wood = tube(base, top, height * 0.05, 6);
    for _ in 0..4 {
        let h = rng.range_f32(0.45, 0.85) * height;
        let start = base + Vec3::new(0.0, h, 0.0);
        let dir = Vec3::new(rng.range_f32(-1.0, 1.0), 0.6, rng.range_f32(-1.0, 1.0));
        let end = start + dir.normalized() * height * 0.35;
        wood.extend(tube(start, end, height * 0.02, 5));
    }
    let leaves = canopy(
        top - Vec3::new(0.0, height * 0.15, 0.0),
        height * 0.45,
        canopy_tris,
        height * 0.08,
        seed ^ 0xfeed,
    );
    (wood, leaves)
}

/// Uniformly subdivides `tri` into a `detail × detail` barycentric grid
/// (`detail²` coplanar sub-triangles, handed to `emit` in a fixed order),
/// preserving the covered surface exactly. `detail <= 1` emits `tri`
/// untouched — the default scene builds never pass through this function,
/// keeping them bit-identical.
///
/// This is how [`crate::Scene::build_scaled`] lifts the ~1/100-scale
/// stand-in meshes to paper-class triangle counts: the BVH gets genuinely
/// deeper and wider (every sub-triangle has its own bounds) while the
/// scene's silhouette, materials and camera stay the same. The caller
/// owns the output, so it can size it once: `detail²` per triangle.
pub fn subdivide(tri: &Triangle, detail: u32, mut emit: impl FnMut(Triangle)) {
    if detail <= 1 {
        return emit(*tri);
    }
    let s = detail as usize;
    let inv = 1.0 / detail as f32;
    let e1 = (tri.v1 - tri.v0) * inv;
    let e2 = (tri.v2 - tri.v0) * inv;
    let p = |a: usize, b: usize| tri.v0 + e1 * a as f32 + e2 * b as f32;
    for a in 0..s {
        for b in 0..s - a {
            emit(Triangle::new(p(a, b), p(a + 1, b), p(a, b + 1)));
            if a + b < s - 1 {
                emit(Triangle::new(p(a + 1, b), p(a + 1, b + 1), p(a, b + 1)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_noise_in_unit_range_and_deterministic() {
        for i in 0..100 {
            let x = i as f32 * 0.37;
            let n = value_noise(5, x, -x * 0.7);
            assert!((0.0..=1.0).contains(&n));
            assert_eq!(n, value_noise(5, x, -x * 0.7));
        }
    }

    #[test]
    fn fbm_in_unit_range() {
        for i in 0..100 {
            let n = fbm(9, i as f32 * 0.13, i as f32 * 0.29, 4);
            assert!((0.0..=1.0).contains(&n));
        }
    }

    #[test]
    fn terrain_has_expected_triangle_count() {
        let t = terrain(8, 4, 10.0, |_, _| 0.0);
        assert_eq!(t.len(), 8 * 4 * 2);
    }

    #[test]
    fn terrain_heights_follow_function() {
        let t = terrain(4, 4, 8.0, |x, z| x + z);
        for tri in &t {
            for v in [tri.v0, tri.v1, tri.v2] {
                assert!((v.y - (v.x + v.z)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn blob_triangle_count_and_bounds() {
        let b = blob(Vec3::ZERO, 2.0, 8, 12, 0.0, 1);
        // stacks*slices*2 minus the degenerate pole rows.
        assert_eq!(b.len(), (8 * 12 * 2 - 2 * 12) as usize);
        for tri in &b {
            for v in [tri.v0, tri.v1, tri.v2] {
                assert!((v.length() - 2.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn bumpy_blob_stays_within_bump_bounds() {
        let b = blob(Vec3::ZERO, 2.0, 6, 8, 0.5, 7);
        for tri in &b {
            for v in [tri.v0, tri.v1, tri.v2] {
                assert!(v.length() >= 2.0 * 0.74 && v.length() <= 2.0 * 1.26);
            }
        }
    }

    #[test]
    fn box_mesh_is_closed() {
        let b = box_mesh(Vec3::ZERO, Vec3::ONE);
        assert_eq!(b.len(), 12);
        let total_area: f32 = b.iter().map(|t| t.area()).sum();
        assert!((total_area - 6.0).abs() < 1e-4);
    }

    #[test]
    fn tube_triangle_count() {
        let t = tube(Vec3::ZERO, Vec3::new(0.0, 5.0, 0.0), 0.2, 6);
        assert_eq!(t.len(), 12);
        // All vertices at distance `radius` from the axis.
        for tri in &t {
            for v in [tri.v0, tri.v1, tri.v2] {
                let d = Vec3::new(v.x, 0.0, v.z).length();
                assert!((d - 0.2).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn canopy_inside_sphere() {
        let c = canopy(Vec3::new(1.0, 2.0, 3.0), 2.0, 100, 0.2, 3);
        assert_eq!(c.len(), 100);
        for tri in &c {
            assert!((tri.v0 - Vec3::new(1.0, 2.0, 3.0)).length() <= 2.0 + 1e-4);
        }
    }

    /// Every sub-triangle of every triangle of `tris`, in order.
    fn subdivided(tris: &[Triangle], detail: u32) -> Vec<Triangle> {
        let mut out = Vec::new();
        tris.iter().for_each(|t| subdivide(t, detail, |s| out.push(s)));
        out
    }

    #[test]
    fn subdivide_counts_and_area() {
        let base =
            vec![Triangle::new(Vec3::ZERO, Vec3::new(3.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 3.0))];
        let area: f32 = base.iter().map(|t| t.area()).sum();
        for detail in [1u32, 2, 3, 7] {
            let sub = subdivided(&base, detail);
            assert_eq!(sub.len(), (detail * detail) as usize);
            let sub_area: f32 = sub.iter().map(|t| t.area()).sum();
            assert!((sub_area - area).abs() < 1e-3, "detail {detail}: area drifted");
        }
    }

    #[test]
    fn subdivide_detail_one_is_identity() {
        let base = box_mesh(Vec3::ZERO, Vec3::ONE);
        assert_eq!(subdivided(&base, 1), base);
        assert_eq!(subdivided(&base, 0), base);
    }

    #[test]
    fn tree_parts_nonempty_and_deterministic() {
        let (w1, l1) = tree(Vec3::ZERO, 5.0, 50, 42);
        let (w2, l2) = tree(Vec3::ZERO, 5.0, 50, 42);
        assert!(!w1.is_empty() && l1.len() == 50);
        assert_eq!(w1.len(), w2.len());
        assert_eq!(l1[0], l2[0]);
    }
}
