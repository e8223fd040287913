//! Order statistics over raw samples (no histogram buckets).

/// Median of `values` (mean of the middle two when the count is even);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of nanosecond samples, in microseconds.
pub fn median_us(samples_ns: &[u32]) -> f64 {
    let mut v = samples_ns.to_vec();
    v.sort_unstable();
    percentile_us(&v, 0.5)
}

/// The exact `p`-th percentile (nearest rank) of ascending nanosecond
/// samples, in microseconds; 0 for an empty slice.
pub fn percentile_us(sorted_ns: &[u32], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted_ns.len() as f64).ceil() as usize;
    f64::from(sorted_ns[rank.clamp(1, sorted_ns.len()) - 1]) / 1e3
}

/// Coefficient of variation (population standard deviation over mean).
pub fn cv(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// The smallest prime ≥ `n`: sampling strides are prime so they share no
/// factor with a fleet size and the samples rotate over every client.
pub fn next_prime(n: u64) -> u64 {
    let is_prime = |x: u64| {
        x >= 2
            && (2..)
                .take_while(|d| d * d <= x)
                .all(|d| !x.is_multiple_of(d))
    };
    (n.max(2)..)
        .find(|&x| is_prime(x))
        .expect("primes are unbounded")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_are_exact() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let ns: Vec<u32> = (1..=10).map(|i| i * 1000).collect();
        assert_eq!(percentile_us(&ns, 0.5), 5.0);
        assert_eq!(percentile_us(&ns, 0.9), 9.0);
        assert_eq!(percentile_us(&ns, 1.0), 10.0);
        assert_eq!(next_prime(97), 97);
        assert_eq!(next_prime(1500), 1511);
    }
}
