//! Arc-length parameterised polyline trajectories.
//!
//! The INSQ demonstration moves the query object along a user-specified
//! trajectory at a configurable speed. [`Trajectory`] supports exactly
//! that: given a travelled distance `s`, [`Trajectory::position`] returns
//! the corresponding point, interpolated linearly on the polyline.

use crate::point::Point;
use crate::GeomError;

/// A polyline trajectory with precomputed cumulative arc lengths.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    waypoints: Vec<Point>,
    /// `cumulative[i]` = arc length from the start to `waypoints[i]`.
    cumulative: Vec<f64>,
}

impl Trajectory {
    /// Builds a trajectory from at least two waypoints.
    ///
    /// Consecutive duplicate waypoints are allowed (they contribute zero
    /// length), but the total length must be positive.
    pub fn new(waypoints: Vec<Point>) -> Result<Self, GeomError> {
        if waypoints.len() < 2 {
            return Err(GeomError::TooFewPoints {
                needed: 2,
                got: waypoints.len(),
            });
        }
        if waypoints.iter().any(|p| !p.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        let mut cumulative = Vec::with_capacity(waypoints.len());
        cumulative.push(0.0);
        for w in waypoints.windows(2) {
            let last = *cumulative.last().expect("cumulative starts non-empty");
            cumulative.push(last + w[0].distance(w[1]));
        }
        if *cumulative.last().expect("non-empty") <= 0.0 {
            return Err(GeomError::Degenerate);
        }
        Ok(Trajectory {
            waypoints,
            cumulative,
        })
    }

    /// The waypoints defining the trajectory.
    #[inline]
    pub fn waypoints(&self) -> &[Point] {
        &self.waypoints
    }

    /// Total arc length.
    #[inline]
    pub fn length(&self) -> f64 {
        *self.cumulative.last().expect("non-empty by construction")
    }

    /// Position after travelling distance `s` from the start.
    ///
    /// `s` is clamped to `[0, length]`; callers that want looping behaviour
    /// should wrap `s` themselves (see [`Trajectory::position_looped`]).
    pub fn position(&self, s: f64) -> Point {
        let s = s.clamp(0.0, self.length());
        // Binary search for the containing segment.
        let i = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&s).expect("finite lengths"))
        {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        if i + 1 >= self.waypoints.len() {
            return *self.waypoints.last().expect("non-empty");
        }
        let seg_len = self.cumulative[i + 1] - self.cumulative[i];
        if seg_len == 0.0 {
            return self.waypoints[i];
        }
        let t = (s - self.cumulative[i]) / seg_len;
        self.waypoints[i].lerp(self.waypoints[i + 1], t)
    }

    /// Position after travelling distance `s`, wrapping around to the start
    /// when the end is passed (the demo's looping playback mode).
    pub fn position_looped(&self, s: f64) -> Point {
        let len = self.length();
        let wrapped = s.rem_euclid(len);
        self.position(wrapped)
    }

    /// Samples the trajectory at `steps + 1` equally spaced arc-length
    /// positions from start to end (inclusive).
    pub fn sample(&self, steps: usize) -> Vec<Point> {
        let len = self.length();
        (0..=steps)
            .map(|i| self.position(len * i as f64 / steps.max(1) as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Trajectory {
        Trajectory::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 4.0),
        ])
        .unwrap()
    }

    #[test]
    fn length_accumulates() {
        assert_eq!(l_shape().length(), 7.0);
    }

    #[test]
    fn position_on_segments() {
        let t = l_shape();
        assert_eq!(t.position(0.0), Point::new(0.0, 0.0));
        assert_eq!(t.position(1.5), Point::new(1.5, 0.0));
        assert_eq!(t.position(3.0), Point::new(3.0, 0.0)); // corner
        assert_eq!(t.position(5.0), Point::new(3.0, 2.0));
        assert_eq!(t.position(7.0), Point::new(3.0, 4.0));
    }

    #[test]
    fn position_clamps() {
        let t = l_shape();
        assert_eq!(t.position(-5.0), Point::new(0.0, 0.0));
        assert_eq!(t.position(100.0), Point::new(3.0, 4.0));
    }

    #[test]
    fn looped_wraps() {
        let t = l_shape();
        assert_eq!(t.position_looped(7.5), t.position(0.5));
        assert_eq!(t.position_looped(-1.0), t.position(6.0));
    }

    #[test]
    fn duplicate_waypoints_ok() {
        let t = Trajectory::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
        ])
        .unwrap();
        assert_eq!(t.length(), 1.0);
        assert_eq!(t.position(0.5), Point::new(0.5, 0.0));
    }

    #[test]
    fn rejects_degenerate() {
        assert!(matches!(
            Trajectory::new(vec![Point::ORIGIN]),
            Err(GeomError::TooFewPoints { .. })
        ));
        assert_eq!(
            Trajectory::new(vec![Point::ORIGIN, Point::ORIGIN]),
            Err(GeomError::Degenerate)
        );
    }

    #[test]
    fn sample_endpoints() {
        let t = l_shape();
        let s = t.sample(7);
        assert_eq!(s.len(), 8);
        assert_eq!(s[0], Point::new(0.0, 0.0));
        assert_eq!(s[7], Point::new(3.0, 4.0));
    }
}
