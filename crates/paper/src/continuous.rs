//! Exact continuous MkNN maintenance along linear motion (extension).
//!
//! The paper's demo moves the query continuously but the system validates
//! at discrete timestamps, which can miss short-lived kNN changes between
//! ticks. The influential-set machinery supports something stronger: for a
//! query moving linearly `x(t) = a + t·(b − a)`, the difference of squared
//! distances to two fixed objects
//!
//! ```text
//! f_{p,s}(t) = |x(t) − s|² − |x(t) − p|²
//! ```
//!
//! is *linear* in `t`, so the exact moment a guard object `s` overtakes a
//! result member `p` is a root of a linear function. Because `MIS ⊆ INS`,
//! the first change of the kNN set along the segment is always an INS
//! bisector crossing — scanning the `k·|INS|` pairs yields the exact event
//! sequence, with no sampling error at any speed.
//!
//! [`knn_change_events`] returns every change event along a segment; each
//! swaps exactly one object (the query crosses one order-k Voronoi cell
//! edge at a time, in general position). Degenerate simultaneous
//! crossings are processed in deterministic order.

use insq_core::{influential_neighbor_set, CoreError};
use insq_geom::Point;
use insq_index::VorTree;
use insq_voronoi::SiteId;

/// One exact kNN change event along a motion segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnEvent {
    /// Segment parameter in `(0, 1]` at which the change occurs.
    pub t: f64,
    /// The object leaving the kNN set (was the farthest member).
    pub removed: SiteId,
    /// The object entering the kNN set (an influential neighbor).
    pub added: SiteId,
}

/// The exact trace of a linear move: the initial set and every event.
#[derive(Debug, Clone)]
pub struct MotionTrace {
    /// The kNN set at `t = 0`, ascending by distance.
    pub initial: Vec<SiteId>,
    /// Change events, ascending in `t`.
    pub events: Vec<KnnEvent>,
}

impl MotionTrace {
    /// The kNN set after all events up to and including parameter `t`
    /// (sorted by id; distance order is position-dependent).
    pub fn knn_at(&self, t: f64) -> Vec<SiteId> {
        let mut set: Vec<SiteId> = self.initial.clone();
        for e in &self.events {
            if e.t > t {
                break;
            }
            if let Some(slot) = set.iter_mut().find(|s| **s == e.removed) {
                *slot = e.added;
            }
        }
        set.sort_unstable();
        set
    }
}

/// Computes every kNN change event along the segment `a → b`, exactly.
///
/// Events whose crossing parameter rounds into a previous event are
/// processed in sequence (each still swaps one object). The scan costs
/// `O(k · |INS|)` per event plus the initial kNN search.
pub fn knn_change_events(
    index: &VorTree,
    k: usize,
    a: Point,
    b: Point,
) -> Result<MotionTrace, CoreError> {
    if k == 0 {
        return Err(CoreError::BadConfig {
            reason: "k must be at least 1",
        });
    }
    if k > index.len() {
        return Err(CoreError::BadConfig {
            reason: "k exceeds the number of data objects",
        });
    }
    if !(a.is_finite() && b.is_finite()) {
        return Err(CoreError::BadConfig {
            reason: "motion endpoints must be finite",
        });
    }

    let voronoi = index.voronoi();
    let points = voronoi.points();
    let initial: Vec<SiteId> = index.knn(a, k).into_iter().map(|(s, _)| s).collect();
    let mut knn = initial.clone();
    let mut events: Vec<KnnEvent> = Vec::new();
    let mut t_cur = 0.0f64;

    // Defensive cap: each event swaps one cell edge; a segment cannot
    // cross more edges than a generous multiple of the diagram size.
    let max_events = 16 * index.len().max(16);

    while events.len() <= max_events {
        let ins = influential_neighbor_set(voronoi, &knn);
        // Earliest overtaking event strictly after t_cur: for each pair
        // (p ∈ knn, s ∈ ins), f(t) = d²(x(t), s) − d²(x(t), p) is linear;
        // a zero with f decreasing is s overtaking p.
        let mut best: Option<(f64, SiteId, SiteId)> = None;
        for &p in &knn {
            let pp = points[p.idx()];
            // f(t) = f0 + t (f1 − f0) with f evaluated at the endpoints.
            for &s in &ins {
                let sp = points[s.idx()];
                let f0 = a.distance_sq(sp) - a.distance_sq(pp);
                let f1 = b.distance_sq(sp) - b.distance_sq(pp);
                if f1 >= 0.0 || f0 <= f1 {
                    continue; // never negative on [t_cur, 1], or not decreasing
                }
                let t = f0 / (f0 - f1); // f(t) = 0
                if t <= t_cur || t > 1.0 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bt, bp, bs)) => t < bt || (t == bt && (s, p) < (bs, bp)),
                };
                if better {
                    best = Some((t, p, s));
                }
            }
        }
        let Some((t, removed, added)) = best else {
            break; // valid for the rest of the segment
        };
        events.push(KnnEvent { t, removed, added });
        let slot = knn
            .iter_mut()
            .find(|s| **s == removed)
            .expect("removed is a member");
        *slot = added;
        t_cur = t;
    }

    Ok(MotionTrace { initial, events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use insq_geom::Aabb;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    fn build_index(n: usize, seed: u64) -> VorTree {
        let mut next = lcg(seed);
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        VorTree::build(
            points,
            Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0)),
        )
        .unwrap()
    }

    fn brute(index: &VorTree, q: Point, k: usize) -> Vec<SiteId> {
        let mut v = index.voronoi().knn_brute(q, k);
        v.sort_unstable();
        v
    }

    #[test]
    fn rejects_bad_configs() {
        let idx = build_index(20, 1);
        assert!(knn_change_events(&idx, 0, Point::ORIGIN, Point::new(1.0, 0.0)).is_err());
        assert!(knn_change_events(&idx, 21, Point::ORIGIN, Point::new(1.0, 0.0)).is_err());
        assert!(
            knn_change_events(&idx, 2, Point::new(f64::NAN, 0.0), Point::new(1.0, 0.0)).is_err()
        );
    }

    #[test]
    fn no_events_for_stationary_or_tiny_motion() {
        let idx = build_index(100, 2);
        let a = Point::new(50.0, 50.0);
        let trace = knn_change_events(&idx, 5, a, a).unwrap();
        assert!(trace.events.is_empty());
        assert_eq!(trace.initial.len(), 5);
    }

    #[test]
    fn events_match_brute_force_at_endpoints_and_midpoints() {
        let idx = build_index(200, 7);
        let a = Point::new(10.0, 20.0);
        let b = Point::new(90.0, 80.0);
        let k = 4;
        let trace = knn_change_events(&idx, k, a, b).unwrap();

        // Endpoint correctness.
        assert_eq!(trace.knn_at(0.0), brute(&idx, a, k));
        assert_eq!(trace.knn_at(1.0), brute(&idx, b, k));

        // Between consecutive events the set matches brute force at the
        // interval midpoint.
        let mut boundaries = vec![0.0];
        boundaries.extend(trace.events.iter().map(|e| e.t));
        boundaries.push(1.0);
        for w in boundaries.windows(2) {
            let mid = 0.5 * (w[0] + w[1]);
            let pos = a.lerp(b, mid);
            assert_eq!(
                trace.knn_at(mid),
                brute(&idx, pos, k),
                "mismatch at t={mid}"
            );
        }

        // Events are ordered and each swaps a real member for a non-member.
        for w in trace.events.windows(2) {
            assert!(w[0].t <= w[1].t);
        }
    }

    #[test]
    fn event_parameters_are_exact_bisector_crossings() {
        let idx = build_index(150, 13);
        let a = Point::new(15.0, 55.0);
        let b = Point::new(85.0, 45.0);
        let trace = knn_change_events(&idx, 3, a, b).unwrap();
        assert!(!trace.events.is_empty(), "a long crossing has events");
        for e in &trace.events {
            let x = a.lerp(b, e.t);
            let d_rem = idx.point(e.removed).distance(x);
            let d_add = idx.point(e.added).distance(x);
            assert!(
                (d_rem - d_add).abs() < 1e-6,
                "event at t={} not on the {}/{} bisector: {d_rem} vs {d_add}",
                e.t,
                e.removed,
                e.added
            );
        }
    }

    #[test]
    fn dense_sampling_finds_no_extra_events() {
        // The exact trace must account for every change a fine sampling
        // sees (the converse — sampling missing short-lived changes — is
        // exactly why the exact method exists).
        let idx = build_index(120, 23);
        let a = Point::new(20.0, 30.0);
        let b = Point::new(80.0, 70.0);
        let k = 3;
        let trace = knn_change_events(&idx, k, a, b).unwrap();
        let mut changes_seen = 0;
        let mut prev = brute(&idx, a, k);
        let steps = 2000;
        for i in 1..=steps {
            let t = i as f64 / steps as f64;
            let now = brute(&idx, a.lerp(b, t), k);
            if now != prev {
                changes_seen += 1;
                prev = now;
            }
        }
        assert!(
            trace.events.len() >= changes_seen,
            "exact events {} < sampled changes {}",
            trace.events.len(),
            changes_seen
        );
    }

    #[test]
    fn k1_events_walk_voronoi_cells() {
        // For k = 1 the events are exactly the order-1 Voronoi cell
        // boundaries along the segment; consecutive events swap to a
        // Voronoi neighbor of the previous owner.
        let idx = build_index(80, 31);
        let a = Point::new(5.0, 50.0);
        let b = Point::new(95.0, 50.0);
        let trace = knn_change_events(&idx, 1, a, b).unwrap();
        let v = idx.voronoi();
        let mut owner = trace.initial[0];
        for e in &trace.events {
            assert_eq!(e.removed, owner);
            assert!(
                v.are_neighbors(owner, e.added),
                "1NN handover must cross to a Voronoi neighbor"
            );
            owner = e.added;
        }
    }
}
