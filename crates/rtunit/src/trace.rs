//! Trace-ray requests and results exchanged between the SM and its RT unit.

use sms_bvh::Hit;
/// One thread's ray query within a warp-level trace instruction: the one
/// query type every traversal answers, defined beside the leaf rule.
pub use sms_bvh::RayQuery;
use sms_gpu::{WarpId, WARP_SIZE};

/// A warp-level trace instruction entering the RT unit's warp buffer.
///
/// `rays[lane] == None` marks an inactive lane (SIMT divergence: that
/// thread's path already terminated). The lane count is fixed at
/// [`WARP_SIZE`] by the type — a warp always has exactly 32 lanes — which
/// also keeps the request a single flat allocation-free value.
#[derive(Debug, Clone)]
pub struct TraceRequest {
    /// The issuing warp.
    pub warp: WarpId,
    /// One optional query per lane.
    pub rays: [Option<RayQuery>; WARP_SIZE],
}

impl TraceRequest {
    /// Creates a request; the fixed-size array enforces the lane count.
    pub fn new(warp: WarpId, rays: [Option<RayQuery>; WARP_SIZE]) -> Self {
        TraceRequest { warp, rays }
    }

    /// Number of active lanes.
    pub fn active_lanes(&self) -> usize {
        self.rays.iter().filter(|r| r.is_some()).count()
    }
}

/// The result of a completed warp trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceResult {
    /// The warp that issued the trace.
    pub warp: WarpId,
    /// Nearest hit per lane (`None` = miss or inactive lane).
    pub hits: [Option<Hit>; WARP_SIZE],
    /// Occlusion answer per lane (only meaningful for any-hit queries).
    pub occluded: [bool; WARP_SIZE],
}

#[cfg(test)]
mod tests {
    use super::*;
    use sms_geom::{Ray, Vec3};

    #[test]
    fn active_lane_count() {
        let ray = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0));
        let mut rays: [Option<RayQuery>; WARP_SIZE] = [None; WARP_SIZE];
        rays[3] = Some(RayQuery::nearest(ray, 0.0));
        rays[17] = Some(RayQuery::occlusion(ray, 0.0, 5.0));
        let req = TraceRequest::new(7, rays);
        assert_eq!(req.active_lanes(), 2);
        assert_eq!(req.warp, 7);
    }

    #[test]
    fn lane_count_is_type_enforced() {
        // The per-lane array is `[_; WARP_SIZE]`: a request with the wrong
        // lane count is unrepresentable.
        let req = TraceRequest::new(0, [None; WARP_SIZE]);
        assert_eq!(req.rays.len(), WARP_SIZE);
        assert_eq!(req.active_lanes(), 0);
    }

    #[test]
    fn query_constructors() {
        let ray = Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        let n = RayQuery::nearest(ray, 0.1);
        assert!(!n.any_hit);
        assert_eq!(n.t_max, f32::INFINITY);
        let o = RayQuery::occlusion(ray, 0.1, 9.0);
        assert!(o.any_hit);
        assert_eq!(o.t_max, 9.0);
    }
}
