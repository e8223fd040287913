//! Property-based tests for the geometric primitives: boxes,
//! trajectories and vectors.

use insq_geom::{Aabb, Point, Trajectory, Vector};
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

fn small_box() -> impl Strategy<Value = Aabb> {
    (pt(), 1.0f64..50.0, 1.0f64..50.0)
        .prop_map(|(c, w, h)| Aabb::new(c, Point::new(c.x + w, c.y + h)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    // ------------------------------------------------------------- AABB

    #[test]
    fn aabb_union_contains_both(a in small_box(), b in small_box()) {
        let u = a.union(&b);
        for c in a.corners().into_iter().chain(b.corners()) {
            prop_assert!(u.contains(c));
        }
        prop_assert!(u.area() + 1e-9 >= a.area().max(b.area()));
    }

    #[test]
    fn aabb_intersection_is_symmetric_and_contained(a in small_box(), b in small_box()) {
        let i1 = a.intersection(&b);
        let i2 = b.intersection(&a);
        prop_assert_eq!(i1, i2);
        if let Some(i) = i1 {
            for c in i.corners() {
                prop_assert!(a.contains(c) && b.contains(c));
            }
        } else {
            // Disjoint: no corner of either box lies in the other.
            for c in a.corners() {
                prop_assert!(!b.contains(c));
            }
            for c in b.corners() {
                prop_assert!(!a.contains(c));
            }
        }
    }

    #[test]
    fn aabb_min_dist_consistent_with_contains(bb in small_box(), p in pt()) {
        let d = bb.min_dist_sq(p);
        prop_assert_eq!(d == 0.0, bb.contains(p));
        // min_dist is a valid lower bound to every corner distance.
        for c in bb.corners() {
            prop_assert!(d <= p.distance_sq(c) + 1e-9);
        }
    }

    // -------------------------------------------------------- trajectory

    #[test]
    fn trajectory_positions_monotone(waypoints in prop::collection::vec(pt(), 2..10), steps in 2usize..50) {
        let Ok(t) = Trajectory::new(waypoints) else {
            return Ok(()); // degenerate inputs rejected is fine
        };
        let len = t.length();
        let mut travelled = 0.0;
        let mut prev = t.position(0.0);
        // Total distance along sampled positions never exceeds arc length,
        // and sampling the full range traverses exactly the length.
        for i in 1..=steps {
            let s = len * i as f64 / steps as f64;
            let p = t.position(s);
            travelled += prev.distance(p);
            prev = p;
        }
        prop_assert!(travelled <= len + 1e-6);
        prop_assert_eq!(t.position(len), *t.waypoints().last().unwrap());
        prop_assert_eq!(t.position(0.0), *t.waypoints().first().unwrap());
    }

    #[test]
    fn trajectory_loop_is_periodic(waypoints in prop::collection::vec(pt(), 2..8), s in 0.0f64..500.0) {
        let Ok(t) = Trajectory::new(waypoints) else {
            return Ok(());
        };
        let len = t.length();
        let a = t.position_looped(s);
        let b = t.position_looped(s + len);
        prop_assert!(a.distance(b) < 1e-6, "period {len}: {a:?} vs {b:?}");
    }

    // ------------------------------------------------------------ vector

    #[test]
    fn vector_rotation_preserves_norm(x in -100.0f64..100.0, y in -100.0f64..100.0) {
        let v = Vector::new(x, y);
        prop_assert!((v.perp().norm() - v.norm()).abs() < 1e-9);
        prop_assert!(v.perp().dot(v).abs() < 1e-9);
    }
}
