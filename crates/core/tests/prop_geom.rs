//! Properties of the geometry kernels.

use sms_geom::check::{for_cases, Gen};
use sms_geom::{from_order_key, order_key, Aabb, DeterministicRng, Ray, Sphere, Triangle, Vec3};

const CASES: u64 = 10_000;
const INF: f32 = f32::INFINITY;

/// A direction of any length in 0.1..√3 (`Ray::new` normalizes).
fn dir(g: &mut Gen) -> Vec3 {
    loop {
        let v = g.vec3(-1.0, 1.0);
        if v.length() > 0.1 {
            return v;
        }
    }
}

/// A triangle in a 10-unit cube with area above 1e-3, and a ray origin.
fn triangle_and_origin(g: &mut Gen) -> (Triangle, Vec3) {
    loop {
        let t = Triangle::new(g.vec3(-5.0, 5.0), g.vec3(-5.0, 5.0), g.vec3(-5.0, 5.0));
        if t.area() > 1e-3 {
            return (t, g.vec3(-20.0, 20.0));
        }
    }
}

#[test]
fn aabb_union_is_commutative_and_contains() {
    for_cases(CASES, 0x6E0, |g| {
        let (a_min, b_min) = (g.vec3(-100.0, 100.0), g.vec3(-100.0, 100.0));
        let a = Aabb::new(a_min, a_min + g.vec3(0.0, 50.0));
        let b = Aabb::new(b_min, b_min + g.vec3(0.0, 50.0));
        let u = Aabb::union(&a, &b);
        assert_eq!(u, Aabb::union(&b, &a));
        assert!(u.contains(&a) && u.contains(&b));
        // Union never shrinks surface area below either input.
        assert!(u.surface_area() >= a.surface_area() * 0.999);
        assert!(u.surface_area() >= b.surface_area() * 0.999);
    });
}

#[test]
fn ray_hits_box_containing_origin() {
    for_cases(CASES, 0x6E1, |g| {
        let bmin = g.vec3(-10.0, 0.0);
        let b = Aabb::new(bmin, bmin + g.vec3(0.5, 5.0));
        let r = Ray::new(b.centroid(), dir(g));
        assert!(b.intersect(&r, 0.0, INF).is_some(), "{b:?} {r:?}");
    });
}

#[test]
fn ray_toward_box_center_hits() {
    for_cases(CASES, 0x6E2, |g| {
        let bmin = g.vec3(-10.0, 10.0);
        let b = Aabb::new(bmin, bmin + g.vec3(0.5, 5.0));
        let (c, origin) = (b.centroid(), g.vec3(-50.0, 50.0));
        if (c - origin).length() > 0.1 {
            let r = Ray::new(origin, c - origin);
            assert!(b.intersect(&r, 0.0, INF).is_some(), "{b:?} {r:?}");
        }
    });
}

#[test]
fn triangle_hit_point_inside_its_aabb() {
    for_cases(CASES, 0x6E3, |g| {
        let (t, origin) = triangle_and_origin(g);
        let target = t.centroid();
        if (target - origin).length() <= 0.1 {
            return;
        }
        let r = Ray::new(origin, target - origin);
        if let Some(h) = t.intersect(&r, 0.0, INF) {
            // The hit point lies within a slightly padded triangle AABB.
            let mut padded = t.aabb();
            padded.grow_point(padded.min - Vec3::splat(1e-2));
            padded.grow_point(padded.max + Vec3::splat(1e-2));
            assert!(padded.contains_point(r.at(h.t)), "{t:?} {r:?}");
            assert!(h.u >= 0.0 && h.v >= 0.0 && h.u + h.v <= 1.0 + 1e-5);
        }
    });
}

#[test]
fn triangle_hit_implies_aabb_hit() {
    for_cases(CASES, 0x6E4, |g| {
        let (t, origin) = triangle_and_origin(g);
        // Half the rays pass near the triangle, where a slab test that
        // prunes too eagerly would show; the rest are uniform.
        let d = if g.chance(0.5) { t.centroid() + g.vec3(-1.0, 1.0) - origin } else { dir(g) };
        let r = Ray::new(origin, d);
        if t.intersect(&r, 0.0, INF).is_some() {
            // Conservativeness: the AABB test can never prune a real hit.
            assert!(t.aabb().intersect(&r, 0.0, INF).is_some(), "{t:?} {r:?}");
        }
    });
}

#[test]
fn sphere_hit_point_on_surface() {
    for_cases(CASES, 0x6E5, |g| {
        let s = Sphere::new(g.vec3(-10.0, 10.0), g.rng.range_f32(0.1, 4.0));
        let origin = g.vec3(-30.0, 30.0);
        // Half the rays pass within two radii of the centre.
        let d = if g.chance(0.5) {
            s.center + g.rng.unit_vector() * (g.rng.range_f32(0.0, 2.0) * s.radius) - origin
        } else {
            dir(g)
        };
        let r = Ray::new(origin, d);
        if let Some(t) = s.intersect(&r, 0.0, INF) {
            let dist = (r.at(t) - s.center).length();
            assert!((dist - s.radius).abs() < 1e-2, "hit point {dist} vs radius {}", s.radius);
            assert!(s.aabb().intersect(&r, 0.0, INF).is_some(), "{s:?} {r:?}");
        }
    });
}

#[test]
fn normalized_vectors_unit_length() {
    for_cases(CASES, 0x6E6, |g| {
        let v = dir(g);
        assert!((v.normalized().length() - 1.0).abs() < 1e-5, "{v:?}");
    });
}

/// Any non-NaN float: a uniform bit pattern (every exponent, subnormals and
/// both infinities included), or one of the values ties are made of.
fn any_ordered_f32(g: &mut Gen) -> f32 {
    const SPECIAL: [f32; 8] = [0.0, -0.0, 1.0, -1.0, f32::MIN_POSITIVE, f32::MAX, INF, -INF];
    loop {
        let x = if g.chance(0.25) {
            SPECIAL[g.int(0, SPECIAL.len() - 1)]
        } else {
            f32::from_bits(g.rng.next_u32())
        };
        if !x.is_nan() {
            return x;
        }
    }
}

#[test]
fn order_key_orders_as_partial_cmp_does() {
    assert_eq!(order_key(-0.0), order_key(0.0));
    for nan in [f32::NAN, -f32::NAN] {
        let key = order_key(nan);
        assert!(
            key < order_key(-INF) || key > order_key(INF),
            "NaN keyed among the ordered floats"
        );
    }
    for_cases(CASES, 0x6E7, |g| {
        let a = any_ordered_f32(g);
        // Half the pairs are neighbours, where a wrong bit flip would show.
        let b = if g.chance(0.5) {
            from_order_key(order_key(a).saturating_add_signed(g.int(0, 2) as i32 - 1))
        } else {
            any_ordered_f32(g)
        };
        if b.is_nan() {
            return; // one past an infinity
        }
        assert_eq!(a.partial_cmp(&b), Some(order_key(a).cmp(&order_key(b))), "{a:e} vs {b:e}");
        // The key decodes to the float it came from (`+0.0` for either zero).
        assert_eq!(from_order_key(order_key(a)), a);
        assert_eq!(from_order_key(order_key(a)).to_bits(), (a + 0.0).to_bits());
    });
}
