//! Robust geometric predicates.
//!
//! Both predicates follow the *adaptive* scheme of Shewchuk: evaluate with
//! ordinary floating point, compare against a forward error bound, and only
//! when the result is too close to zero recompute the determinant *exactly*
//! with [`expansion`] arithmetic. On non-degenerate inputs the fast path
//! always wins; on (nearly) degenerate inputs the answer is still exact,
//! which is what keeps the Delaunay construction in `insq-voronoi` sound.

pub mod expansion;

use crate::point::Point;
use expansion::{expansion_sum, scale_expansion, sign_of, two_product, two_two_diff};
use std::cmp::Ordering;

/// Orientation of an ordered point triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// The triple makes a left turn (counter-clockwise).
    CounterClockwise,
    /// The triple makes a right turn (clockwise).
    Clockwise,
    /// The three points are collinear.
    Collinear,
}

impl Orientation {
    fn from_sign(s: Ordering) -> Self {
        match s {
            Ordering::Greater => Orientation::CounterClockwise,
            Ordering::Less => Orientation::Clockwise,
            Ordering::Equal => Orientation::Collinear,
        }
    }
}

// Error-bound constants from Shewchuk's predicates.c, for IEEE-754 binary64.
const EPSILON: f64 = f64::EPSILON / 2.0; // 2^-53
const CCW_ERRBOUND_A: f64 = (3.0 + 16.0 * EPSILON) * EPSILON;
const ICC_ERRBOUND_A: f64 = (10.0 + 96.0 * EPSILON) * EPSILON;

/// Returns the orientation of the triple `(a, b, c)`.
///
/// Exactly the sign of the determinant
/// `| ax - cx  ay - cy |`
/// `| bx - cx  by - cy |`,
/// computed robustly.
///
/// ```
/// use insq_geom::{orient2d, Orientation, Point};
/// let o = orient2d(Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(0.0, 1.0));
/// assert_eq!(o, Orientation::CounterClockwise);
/// ```
#[inline]
pub fn orient2d(a: Point, b: Point, c: Point) -> Orientation {
    let detleft = (a.x - c.x) * (b.y - c.y);
    let detright = (a.y - c.y) * (b.x - c.x);
    let det = detleft - detright;

    let detsum = if detleft > 0.0 {
        if detright <= 0.0 {
            return Orientation::from_sign(sign_f64(det));
        }
        detleft + detright
    } else if detleft < 0.0 {
        if detright >= 0.0 {
            return Orientation::from_sign(sign_f64(det));
        }
        -detleft - detright
    } else {
        return Orientation::from_sign(sign_f64(det));
    };

    let errbound = CCW_ERRBOUND_A * detsum;
    if det >= errbound || -det >= errbound {
        return Orientation::from_sign(sign_f64(det));
    }
    orient2d_exact(a, b, c)
}

/// Fully exact orientation test via expansion arithmetic.
///
/// Computes `ax·by − ax·cy − ay·bx + ay·cx + bx·cy − by·cx` without any
/// rounding. Used as the fallback of [`orient2d`]; exposed for testing.
pub fn orient2d_exact(a: Point, b: Point, c: Point) -> Orientation {
    let (axby1, axby0) = two_product(a.x, b.y);
    let (axcy1, axcy0) = two_product(a.x, c.y);
    let (aybx1, aybx0) = two_product(a.y, b.x);
    let (aycx1, aycx0) = two_product(a.y, c.x);
    let (bxcy1, bxcy0) = two_product(b.x, c.y);
    let (bycx1, bycx0) = two_product(b.y, c.x);

    // (ax·by − ay·bx) + (bx·cy − by·cx) + (ay·cx − ax·cy)
    let ab = two_two_diff(axby1, axby0, aybx1, aybx0);
    let bc = two_two_diff(bxcy1, bxcy0, bycx1, bycx0);
    let ca = two_two_diff(aycx1, aycx0, axcy1, axcy0);

    let mut t = Vec::with_capacity(8);
    expansion_sum(&ab, &bc, &mut t);
    let mut det = Vec::with_capacity(12);
    expansion_sum(&t, &ca, &mut det);
    Orientation::from_sign(sign_of(&det))
}

/// Result of the in-circle test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InCircle {
    /// `d` lies strictly inside the circumcircle of `(a, b, c)`.
    Inside,
    /// `d` lies strictly outside the circumcircle.
    Outside,
    /// `d` lies exactly on the circumcircle.
    On,
}

/// Tests whether point `d` lies inside the circumcircle of the
/// counter-clockwise triangle `(a, b, c)`.
///
/// The caller must ensure `(a, b, c)` is counter-clockwise, otherwise the
/// `Inside`/`Outside` answers are swapped (this mirrors the classical
/// predicate semantics).
#[inline]
pub fn incircle(a: Point, b: Point, c: Point, d: Point) -> InCircle {
    let adx = a.x - d.x;
    let bdx = b.x - d.x;
    let cdx = c.x - d.x;
    let ady = a.y - d.y;
    let bdy = b.y - d.y;
    let cdy = c.y - d.y;

    let bdxcdy = bdx * cdy;
    let cdxbdy = cdx * bdy;
    let alift = adx * adx + ady * ady;

    let cdxady = cdx * ady;
    let adxcdy = adx * cdy;
    let blift = bdx * bdx + bdy * bdy;

    let adxbdy = adx * bdy;
    let bdxady = bdx * ady;
    let clift = cdx * cdx + cdy * cdy;

    let det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady);

    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * alift
        + (cdxady.abs() + adxcdy.abs()) * blift
        + (adxbdy.abs() + bdxady.abs()) * clift;
    let errbound = ICC_ERRBOUND_A * permanent;
    if det > errbound || -det > errbound {
        return incircle_from_sign(sign_f64(det));
    }
    incircle_exact(a, b, c, d)
}

fn incircle_from_sign(s: Ordering) -> InCircle {
    match s {
        Ordering::Greater => InCircle::Inside,
        Ordering::Less => InCircle::Outside,
        Ordering::Equal => InCircle::On,
    }
}

/// Fully exact in-circle test via expansion arithmetic on the original
/// coordinates (no differences are formed, so nothing is rounded).
///
/// Expands the 4×4 determinant by its lift column:
/// `det = alift·bcd − blift·cda + clift·dab − dlift·abc`,
/// where `uvw = uv + vw + wu` and `uv = ux·vy − vx·uy`.
pub fn incircle_exact(a: Point, b: Point, c: Point, d: Point) -> InCircle {
    // Pairwise 2x2 minors as 4-component expansions.
    let pair = |p: Point, q: Point| -> [f64; 4] {
        let (pq1, pq0) = two_product(p.x, q.y);
        let (qp1, qp0) = two_product(q.x, p.y);
        two_two_diff(pq1, pq0, qp1, qp0)
    };
    let ab = pair(a, b);
    let bc = pair(b, c);
    let cd = pair(c, d);
    let da = pair(d, a);
    let ac = pair(a, c);
    let bd = pair(b, d);

    let neg = |e: &[f64; 4]| -> [f64; 4] { [-e[0], -e[1], -e[2], -e[3]] };

    let mut tmp = Vec::with_capacity(8);
    let mut minor = Vec::with_capacity(12);

    // Scratch buffers for the lift multiplications.
    let mut s1 = Vec::new();
    let mut s2 = Vec::new();
    let mut s3 = Vec::new();
    let mut contrib = Vec::new();

    // lift(p) * minor, added into acc with the given sign.
    let mut acc: Vec<f64> = Vec::new();
    let mut acc_next: Vec<f64> = Vec::new();
    let add_term = |p: Point,
                    minor: &[f64],
                    negate: bool,
                    acc: &mut Vec<f64>,
                    acc_next: &mut Vec<f64>,
                    s1: &mut Vec<f64>,
                    s2: &mut Vec<f64>,
                    s3: &mut Vec<f64>,
                    contrib: &mut Vec<f64>| {
        // (px^2 + py^2) * minor = px*(px*minor) + py*(py*minor)
        scale_expansion(minor, p.x, s1);
        scale_expansion(s1, p.x, s2);
        scale_expansion(minor, p.y, s1);
        scale_expansion(s1, p.y, s3);
        expansion_sum(s2, s3, contrib);
        if negate {
            for v in contrib.iter_mut() {
                *v = -*v;
            }
        }
        expansion_sum(acc, contrib, acc_next);
        std::mem::swap(acc, acc_next);
    };

    // bcd = bc + cd - bd
    expansion_sum(&bc, &cd, &mut tmp);
    expansion_sum(&tmp, &neg(&bd), &mut minor);
    add_term(
        a,
        &minor,
        false,
        &mut acc,
        &mut acc_next,
        &mut s1,
        &mut s2,
        &mut s3,
        &mut contrib,
    );

    // cda = cd + da + ac
    expansion_sum(&cd, &da, &mut tmp);
    expansion_sum(&tmp, &ac, &mut minor);
    add_term(
        b,
        &minor,
        true,
        &mut acc,
        &mut acc_next,
        &mut s1,
        &mut s2,
        &mut s3,
        &mut contrib,
    );

    // dab = da + ab + bd
    expansion_sum(&da, &ab, &mut tmp);
    expansion_sum(&tmp, &bd, &mut minor);
    add_term(
        c,
        &minor,
        false,
        &mut acc,
        &mut acc_next,
        &mut s1,
        &mut s2,
        &mut s3,
        &mut contrib,
    );

    // abc = ab + bc - ac
    expansion_sum(&ab, &bc, &mut tmp);
    expansion_sum(&tmp, &neg(&ac), &mut minor);
    add_term(
        d,
        &minor,
        true,
        &mut acc,
        &mut acc_next,
        &mut s1,
        &mut s2,
        &mut s3,
        &mut contrib,
    );

    incircle_from_sign(sign_of(&acc))
}

#[inline]
fn sign_f64(v: f64) -> Ordering {
    if v > 0.0 {
        Ordering::Greater
    } else if v < 0.0 {
        Ordering::Less
    } else {
        Ordering::Equal
    }
}

/// Convenience: exact squared circumradius comparison context is provided by
/// `insq-voronoi`; here we only re-export the predicate result type.
pub use InCircle as InCircleResult;

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn orient_basic() {
        assert_eq!(
            orient2d(p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orient2d(p(0.0, 0.0), p(0.0, 1.0), p(1.0, 0.0)),
            Orientation::Clockwise
        );
        assert_eq!(
            orient2d(p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)),
            Orientation::Collinear
        );
    }

    #[test]
    fn orient_nearly_collinear_is_exact() {
        // Classic robustness stress: points on a line y = x with a tiny
        // perturbation representable only in the last bits.
        let a = p(0.5, 0.5);
        let b = p(12.0, 12.0);
        let c = p(24.0, 24.0);
        assert_eq!(orient2d(a, b, c), Orientation::Collinear);
        let c2 = p(24.0, 24.000000000000004); // one ulp-ish above the line
        assert_eq!(orient2d(a, b, c2), Orientation::CounterClockwise);
        let c3 = p(24.000000000000004, 24.0);
        assert_eq!(orient2d(a, b, c3), Orientation::Clockwise);
    }

    #[test]
    fn incircle_basic() {
        // Unit circle through (1,0), (0,1), (-1,0); center origin.
        let a = p(1.0, 0.0);
        let b = p(0.0, 1.0);
        let c = p(-1.0, 0.0);
        assert_eq!(incircle(a, b, c, p(0.0, 0.0)), InCircle::Inside);
        assert_eq!(incircle(a, b, c, p(2.0, 0.0)), InCircle::Outside);
        assert_eq!(incircle(a, b, c, p(0.0, -1.0)), InCircle::On);
    }

    #[test]
    fn incircle_cocircular_is_exact() {
        // Four points of an axis-aligned square are exactly cocircular.
        let a = p(1.0, 1.0);
        let b = p(-1.0, 1.0);
        let c = p(-1.0, -1.0);
        assert_eq!(incircle(a, b, c, p(1.0, -1.0)), InCircle::On);
    }

    #[test]
    fn exact_matches_fast_on_clear_cases() {
        let a = p(0.0, 0.0);
        let b = p(10.0, 0.0);
        let c = p(5.0, 8.0);
        assert_eq!(incircle_exact(a, b, c, p(5.0, 1.0)), InCircle::Inside);
        assert_eq!(incircle_exact(a, b, c, p(100.0, 100.0)), InCircle::Outside);
        assert_eq!(orient2d_exact(a, b, c), Orientation::CounterClockwise);
    }

    // Ground-truth property tests against exact i128 arithmetic on integer
    // coordinates live in `tests/predicates_exact.rs` of this crate.
}
