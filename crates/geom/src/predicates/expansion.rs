//! Floating-point expansion arithmetic (Shewchuk 1997).
//!
//! An *expansion* is a sum of non-overlapping floating-point numbers
//! `x = x_n + … + x_1`, ordered by increasing magnitude, that represents a
//! real number exactly. The primitives below ([`two_sum`], [`two_product`],
//! expansion sums and scaling) are exact: no rounding error is ever lost,
//! which is what makes the [`super::orient2d`] and [`super::incircle`]
//! fallback paths fully robust.
//!
//! The hot predicates only reach this module when their floating-point
//! filters fail (nearly degenerate inputs), so the `Vec`-based signatures
//! here are a deliberate simplicity/speed trade-off: the common case never
//! allocates.

/// Exact sum: returns `(hi, lo)` with `hi + lo == a + b` exactly and
/// `hi = fl(a + b)`.
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let hi = a + b;
    let bv = hi - a;
    let av = hi - bv;
    let br = b - bv;
    let ar = a - av;
    (hi, ar + br)
}

/// Exact sum under the precondition `|a| >= |b|` (or `a == 0`).
#[inline]
pub fn fast_two_sum(a: f64, b: f64) -> (f64, f64) {
    let hi = a + b;
    let lo = b - (hi - a);
    (hi, lo)
}

/// Exact difference: returns `(hi, lo)` with `hi + lo == a - b` exactly.
#[inline]
pub fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let hi = a - b;
    let bv = a - hi;
    let av = hi + bv;
    let br = bv - b;
    let ar = a - av;
    (hi, ar + br)
}

/// Exact product: returns `(hi, lo)` with `hi + lo == a * b` exactly.
///
/// Uses a fused multiply-add to extract the rounding error; Rust's
/// `f64::mul_add` is exact on every platform (hardware FMA or a correctly
/// rounded software fallback).
#[inline]
pub fn two_product(a: f64, b: f64) -> (f64, f64) {
    let hi = a * b;
    let lo = a.mul_add(b, -hi);
    (hi, lo)
}

/// `(a1 + a0) - b` as a three-component expansion `(x2, x1, x0)`,
/// largest component first. Shewchuk's `Two_One_Diff`.
#[inline]
fn two_one_diff(a1: f64, a0: f64, b: f64) -> (f64, f64, f64) {
    let (i, x0) = two_diff(a0, b);
    let (x2, x1) = two_sum(a1, i);
    (x2, x1, x0)
}

/// Computes the exact expansion of `(a1 + a0) - (b1 + b0)` where each pair
/// is a two-component expansion. Returns four components, smallest first.
/// Shewchuk's `Two_Two_Diff`.
#[inline]
pub fn two_two_diff(a1: f64, a0: f64, b1: f64, b0: f64) -> [f64; 4] {
    let (j, r0, x0) = two_one_diff(a1, a0, b0);
    let (x3, x2, x1) = two_one_diff(j, r0, b1);
    [x0, x1, x2, x3]
}

/// Sums two expansions (components ordered by increasing magnitude) into a
/// new expansion, eliminating zero components. Shewchuk's
/// `fast_expansion_sum_zeroelim`.
pub fn expansion_sum(e: &[f64], f: &[f64], out: &mut Vec<f64>) {
    out.clear();
    if e.is_empty() {
        out.extend_from_slice(f);
        out.retain(|&c| c != 0.0);
        return;
    }
    if f.is_empty() {
        out.extend_from_slice(e);
        out.retain(|&c| c != 0.0);
        return;
    }
    out.reserve(e.len() + f.len());

    let mut ei = 0;
    let mut fi = 0;
    let mut enow = e[0];
    let mut fnow = f[0];
    // Merge by magnitude.
    let mut q;
    if (fnow > enow) == (fnow > -enow) {
        q = enow;
        ei += 1;
        if ei < e.len() {
            enow = e[ei];
        }
    } else {
        q = fnow;
        fi += 1;
        if fi < f.len() {
            fnow = f[fi];
        }
    }
    let mut h;
    if ei < e.len() && fi < f.len() {
        let (qnew, hh) = if (fnow > enow) == (fnow > -enow) {
            let r = fast_two_sum(enow, q);
            ei += 1;
            if ei < e.len() {
                enow = e[ei];
            }
            r
        } else {
            let r = fast_two_sum(fnow, q);
            fi += 1;
            if fi < f.len() {
                fnow = f[fi];
            }
            r
        };
        q = qnew;
        h = hh;
        if h != 0.0 {
            out.push(h);
        }
        while ei < e.len() && fi < f.len() {
            let (qnew, hh) = if (fnow > enow) == (fnow > -enow) {
                let r = two_sum(q, enow);
                ei += 1;
                if ei < e.len() {
                    enow = e[ei];
                }
                r
            } else {
                let r = two_sum(q, fnow);
                fi += 1;
                if fi < f.len() {
                    fnow = f[fi];
                }
                r
            };
            q = qnew;
            h = hh;
            if h != 0.0 {
                out.push(h);
            }
        }
    }
    while ei < e.len() {
        let (qnew, hh) = two_sum(q, enow);
        ei += 1;
        if ei < e.len() {
            enow = e[ei];
        }
        q = qnew;
        h = hh;
        if h != 0.0 {
            out.push(h);
        }
    }
    while fi < f.len() {
        let (qnew, hh) = two_sum(q, fnow);
        fi += 1;
        if fi < f.len() {
            fnow = f[fi];
        }
        q = qnew;
        h = hh;
        if h != 0.0 {
            out.push(h);
        }
    }
    if q != 0.0 || out.is_empty() {
        out.push(q);
    }
}

/// Multiplies an expansion by a single float, producing a new expansion.
/// Shewchuk's `scale_expansion_zeroelim`.
pub fn scale_expansion(e: &[f64], b: f64, out: &mut Vec<f64>) {
    out.clear();
    if e.is_empty() {
        return;
    }
    out.reserve(2 * e.len());
    let (mut q, h) = two_product(e[0], b);
    if h != 0.0 {
        out.push(h);
    }
    for &enow in &e[1..] {
        let (p1, p0) = two_product(enow, b);
        let (sum, h1) = two_sum(q, p0);
        if h1 != 0.0 {
            out.push(h1);
        }
        let (qnew, h2) = fast_two_sum(p1, sum);
        q = qnew;
        if h2 != 0.0 {
            out.push(h2);
        }
    }
    if q != 0.0 || out.is_empty() {
        out.push(q);
    }
}

/// The sign of an expansion: the sign of its largest-magnitude (last
/// non-zero) component.
#[inline]
pub fn sign_of(e: &[f64]) -> std::cmp::Ordering {
    // Components are non-overlapping and sorted by magnitude, so the last
    // non-zero component dominates the sum.
    for &c in e.iter().rev() {
        if c > 0.0 {
            return std::cmp::Ordering::Greater;
        }
        if c < 0.0 {
            return std::cmp::Ordering::Less;
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_value(e: &[f64]) -> f64 {
        // Summing smallest-first loses nothing for the magnitudes used in
        // these tests.
        e.iter().sum()
    }

    #[test]
    fn two_sum_exact_on_cancellation() {
        let a = 1e16;
        let b = 1.0;
        let (hi, lo) = two_sum(a, b);
        // 1e16 + 1 is not representable; the error must be captured in lo.
        assert_eq!(hi + lo, a + b); // floating identity
        assert_eq!(lo, 1.0 - ((a + b) - a));
        // Reconstruct exactly via integer reasoning: hi == 1e16, lo == 1.0
        // or hi == 1e16+2, lo == -1.0 depending on rounding; either way the
        // pair represents a+b exactly:
        assert_eq!(hi as i128 + lo as i128, a as i128 + b as i128);
    }

    #[test]
    fn two_product_captures_roundoff() {
        let a = 1.0 + f64::EPSILON;
        let b = 1.0 - f64::EPSILON;
        let (hi, lo) = two_product(a, b);
        // a*b = 1 - eps^2 exactly; hi rounds to 1.0, lo must be -eps^2.
        assert_eq!(hi, 1.0);
        assert_eq!(lo, -(f64::EPSILON * f64::EPSILON));
    }

    #[test]
    fn two_two_diff_exact_small_ints() {
        // (5 + 0.25) - (3 + 0.125) = 2.125, all exactly representable.
        let x = two_two_diff(5.0, 0.25, 3.0, 0.125);
        assert_eq!(exact_value(&x), 2.125);
    }

    #[test]
    fn expansion_sum_merges() {
        let mut out = Vec::new();
        expansion_sum(&[1e-30, 1.0], &[2e-30, 2.0], &mut out);
        let v = exact_value(&out);
        assert_eq!(v, 3.0 + 3e-30 - (3.0 + 3e-30 - 3.0) + (3.0 + 3e-30 - 3.0)); // == fl sum
        assert_eq!(sign_of(&out), std::cmp::Ordering::Greater);
    }

    #[test]
    fn expansion_sum_handles_empty() {
        let mut out = Vec::new();
        expansion_sum(&[], &[1.0], &mut out);
        assert_eq!(out, vec![1.0]);
        expansion_sum(&[2.0], &[], &mut out);
        assert_eq!(out, vec![2.0]);
        expansion_sum(&[], &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn scale_expansion_exact() {
        let mut out = Vec::new();
        scale_expansion(&[0.5, 4.0], 3.0, &mut out);
        assert_eq!(exact_value(&out), 13.5);
        scale_expansion(&[1.0], 0.0, &mut out);
        assert_eq!(sign_of(&out), std::cmp::Ordering::Equal);
    }

    #[test]
    fn sign_of_cancelling_expansion() {
        // An expansion representing exactly zero.
        let mut out = Vec::new();
        expansion_sum(&[1.0], &[-1.0], &mut out);
        assert_eq!(sign_of(&out), std::cmp::Ordering::Equal);
        // Tiny negative tail dominated by positive head: head decides.
        assert_eq!(sign_of(&[-1e-300, 1.0]), std::cmp::Ordering::Greater);
    }
}
