//! Fixed-size log2-bucketed latency histogram (microseconds).
//!
//! Records durations without storing samples: each sample lands in the
//! power-of-two bucket of its microsecond count, so percentiles are
//! exact to within a factor of two at any sample volume — the right
//! trade for soak runs that record millions of round-trips. The bucket
//! array is plain `u64`s, so histograms from different processes (the
//! soak's client-herd children) merge by addition.

use std::fmt::Write as _;
use std::time::Duration;

/// Number of log2 buckets: bucket `i` holds samples in `[2^i, 2^(i+1))`
/// microseconds (bucket 0 also takes 0 µs). 40 buckets reach ~12.7 days.
pub const BUCKETS: usize = 40;

/// A mergeable log2-µs histogram with p50/p99 readout.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(us: u64) -> usize {
    // 0 and 1 µs share bucket 0; above that, the position of the
    // leading bit. Clamp into the fixed array.
    (63 - (us | 1).leading_zeros() as usize).min(BUCKETS - 1)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: Duration) {
        self.record_us(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one sample given directly in microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.buckets[bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Folds another histogram in (used to aggregate child processes).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Largest recorded sample in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// The `q`-quantile (`0.0..=1.0`) in microseconds, reported as the
    /// arithmetic midpoint (`1.5 · lo`) of the bucket holding that rank,
    /// capped at the largest sample (exact to within the bucket's
    /// factor-of-two width). 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let lo = 1u64 << i;
                return (lo + lo / 2).min(self.max_us.max(1));
            }
        }
        self.max_us
    }

    /// Median, see [`Self::quantile_us`].
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 99th percentile, see [`Self::quantile_us`].
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }

    /// The raw bucket counts, for wire/stdout serialisation.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Serialises to one line: `count sum_us max_us b0 b1 ... b39`.
    /// The inverse of [`Self::parse_line`]; used by the soak's child
    /// processes to hand their histograms to the parent over stdout.
    pub fn to_line(&self) -> String {
        let mut s = format!("{} {} {}", self.count, self.sum_us, self.max_us);
        for b in &self.buckets {
            let _ = write!(s, " {b}");
        }
        s
    }

    /// Parses a [`Self::to_line`] string.
    pub fn parse_line(line: &str) -> Option<LatencyHistogram> {
        let mut it = line.split_ascii_whitespace();
        let count = it.next()?.parse().ok()?;
        let sum_us = it.next()?.parse().ok()?;
        let max_us = it.next()?.parse().ok()?;
        let mut buckets = [0u64; BUCKETS];
        for b in buckets.iter_mut() {
            *b = it.next()?.parse().ok()?;
        }
        Some(LatencyHistogram {
            buckets,
            count,
            sum_us,
            max_us,
        })
    }

    /// A small ASCII rendering of the occupied buckets.
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        let (first, last) = match (
            self.buckets.iter().position(|&n| n > 0),
            self.buckets.iter().rposition(|&n| n > 0),
        ) {
            (Some(f), Some(l)) => (f, l),
            _ => return String::from("  (no samples)\n"),
        };
        for i in first..=last {
            let n = self.buckets[i];
            let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
            let _ = writeln!(out, "  {:>9} us |{:<40}| {}", 1u64 << i, bar, n);
        }
        let _ = writeln!(
            out,
            "  samples={} p50={}us p99={}us max={}us mean={:.1}us",
            self.count,
            self.p50_us(),
            self.p99_us(),
            self.max_us,
            self.mean_us()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let mut h = LatencyHistogram::new();
        for us in [1u64, 2, 3, 100, 100, 100, 100, 100, 100, 8000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 10);
        // p50 of {1,2,3,100x6,8000}: rank 5 is a 100 → bucket [64,128).
        let p50 = h.p50_us();
        assert!((64..128).contains(&p50), "p50={p50}");
        // p99: rank 10 is the 8000 → bucket [4096,8192).
        let p99 = h.p99_us();
        assert!((4096..8192).contains(&p99), "p99={p99}");
        assert_eq!(h.max_us(), 8000);
    }

    #[test]
    fn line_roundtrip_and_merge() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for us in 0..200u64 {
            a.record_us(us * 7);
            b.record_us(us * 13 + 1);
        }
        let parsed = LatencyHistogram::parse_line(&a.to_line()).expect("roundtrip");
        assert_eq!(parsed.buckets(), a.buckets());
        assert_eq!(parsed.count(), a.count());
        assert_eq!(parsed.max_us(), a.max_us());

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), a.count() + b.count());
        assert_eq!(merged.max_us(), a.max_us().max(b.max_us()));
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50_us(), 0);
        assert_eq!(h.p99_us(), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert!(h.to_ascii().contains("no samples"));
    }
}
