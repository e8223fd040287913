//! Property-based tests for the polygon geometry: half-plane clipping,
//! polygon invariants and segment kernels.

use insq_geom::{Aabb, Point};
use insq_paper::{ConvexPolygon, HalfPlane, Segment};
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

    // ---------------------------------------------------------- segments

    #[test]
    fn segment_distance_symmetry_and_bounds(a in pt(), b in pt(), p in pt()) {
        let s = Segment::new(a, b);
        let d = s.distance(p);
        // Bounded by the endpoint distances.
        prop_assert!(d <= p.distance(a) + 1e-9);
        prop_assert!(d <= p.distance(b) + 1e-9);
        // The closest point is on the segment (within its bbox).
        let c = s.closest_point(p);
        prop_assert!(s.bounding_box().inflated(1e-9).contains(c));
        // Reversal invariance.
        prop_assert!((s.reversed().distance(p) - d).abs() < 1e-9);
    }

    #[test]
    fn segment_intersection_symmetry(a in pt(), b in pt(), c in pt(), d in pt()) {
        let s1 = Segment::new(a, b);
        let s2 = Segment::new(c, d);
        prop_assert_eq!(s1.intersects(&s2), s2.intersects(&s1));
        if let Some(x) = s1.intersection(&s2) {
            // The reported crossing lies (nearly) on both segments.
            prop_assert!(s1.distance(x) < 1e-6);
            prop_assert!(s2.distance(x) < 1e-6);
            prop_assert!(s1.intersects(&s2));
        }
    }

    // ---------------------------------------------------- half-plane clip

    #[test]
    fn clip_is_monotone_and_sound(bb in small_box(), p in pt(), q in pt()) {
        prop_assume!(p != q);
        let poly = ConvexPolygon::from_aabb(&bb);
        let h = HalfPlane::closer_to(p, q);
        let clipped = poly.clip_halfplane(&h);
        // Clipping never grows the region.
        prop_assert!(clipped.area() <= poly.area() + 1e-9);
        // Every vertex of the result is inside both constraints (up to eps).
        for v in clipped.vertices() {
            prop_assert!(h.eval(*v) <= 1e-6, "vertex outside half-plane");
            prop_assert!(bb.inflated(1e-9).contains(*v));
        }
        // Complementary clips partition the area.
        let other = poly.clip_halfplane(&h.flipped());
        prop_assert!((clipped.area() + other.area() - poly.area()).abs() < 1e-6);
    }

    #[test]
    fn repeated_clipping_stays_convex(bb in small_box(), pts in prop::collection::vec((pt(), pt()), 1..8)) {
        let mut poly = ConvexPolygon::from_aabb(&bb);
        let mut scratch = Vec::new();
        for (p, q) in pts {
            if p == q {
                continue;
            }
            poly.clip_halfplane_in_place(&HalfPlane::closer_to(p, q), &mut scratch);
            if poly.is_empty() {
                break;
            }
            // Convexity: every triple of consecutive vertices turns left
            // or is collinear.
            let vs = poly.vertices();
            let n = vs.len();
            for i in 0..n {
                let o = insq_geom::orient2d(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]);
                prop_assert_ne!(o, insq_geom::Orientation::Clockwise);
            }
            // Area is consistent with the shoelace of its own vertices.
            prop_assert!(poly.area() >= 0.0);
        }
    }

    #[test]
    fn polygon_contains_centroid(bb in small_box(), p in pt(), q in pt()) {
        prop_assume!(p.distance(q) > 1e-6);
        let poly = ConvexPolygon::from_aabb(&bb).clip_halfplane(&HalfPlane::closer_to(p, q));
        if !poly.is_empty() {
            let c = poly.centroid().expect("non-empty");
            prop_assert!(poly.contains(c), "convex polygon contains its centroid");
        }
    }

    // --------------------------------------------------------- halfplane

    #[test]
    fn closer_to_agrees_with_distance(p in pt(), q in pt(), x in pt()) {
        prop_assume!(p != q);
        let h = HalfPlane::closer_to(p, q);
        prop_assert_eq!(h.contains(x), x.distance_sq(p) <= x.distance_sq(q));
    }
}
