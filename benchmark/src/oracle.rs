//! The brute-force oracle: answers sampled during the measured rounds
//! are compared with `Space::brute_knn` on their epoch's index after
//! timing has stopped.

use insq_core::DeltaIndex;
use insq_server::parallel_map;

use crate::inputs::{BenchSpace, DeltaOf};
use crate::stats::next_prime;

/// What the oracle found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Answers compared with brute force.
    pub checked: usize,
    /// Distinct epochs among them.
    pub epochs: usize,
    /// Answers that differ from brute force: failed answers.
    pub mismatches: u64,
}

/// Pre-allocated buffer of sampled answers: every `stride`-th answer of
/// the measured rounds, with the position and epoch it was computed for.
pub struct Samples<S: BenchSpace> {
    k: usize,
    stride: u64,
    /// Answers seen so far (sampled or not).
    seen: u64,
    epochs: Vec<u64>,
    positions: Vec<S::Pos>,
    /// `k` ids per sample.
    ids: Vec<u32>,
}

impl<S: BenchSpace> Samples<S> {
    /// Sized so that `expected_answers` yield about `want` samples.
    pub fn new(k: usize, expected_answers: u64, want: u64) -> Samples<S> {
        let stride = next_prime((expected_answers / want.max(1)).max(1));
        let cap = (expected_answers / stride + 2) as usize;
        Samples {
            k,
            stride,
            seen: 0,
            epochs: Vec::with_capacity(cap),
            positions: Vec::with_capacity(cap),
            ids: Vec::with_capacity(cap * k),
        }
    }

    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Offsets within the next `n` answers that are due for sampling.
    /// Advances the answer counter by `n`.
    pub fn due(&mut self, n: u64) -> impl Iterator<Item = u64> {
        let first = (self.stride - self.seen % self.stride) % self.stride;
        self.seen += n;
        (first..n).step_by(self.stride as usize)
    }

    /// Records one answer. Returns `false` (a failed answer) when it
    /// does not carry exactly `k` ids.
    pub fn record(&mut self, epoch: u64, pos: S::Pos, ids: impl Iterator<Item = u32>) -> bool {
        let before = self.ids.len();
        self.ids.extend(ids);
        if self.ids.len() - before != self.k {
            self.ids.truncate(before);
            return false;
        }
        self.epochs.push(epoch);
        self.positions.push(pos);
        true
    }

    /// The sampled answers' id lists.
    pub fn answers(&self) -> impl Iterator<Item = &[u32]> {
        self.ids.chunks_exact(self.k)
    }

    /// Distinct epochs among the samples.
    fn epochs_spanned(&self) -> usize {
        let mut e = self.epochs.clone();
        e.sort_unstable();
        e.dedup();
        e.len()
    }

    /// Whether sample `i` names the same id set as brute force on
    /// `index`; a differing set still passes when its distances equal the
    /// oracle's (an exact distance tie at the k-th rank).
    fn matches(&self, index: &S::Index, i: usize) -> bool {
        let pos = self.positions[i];
        let mut got: Vec<u32> = self.ids[i * self.k..(i + 1) * self.k].to_vec();
        let mut want: Vec<u32> = S::brute_knn(index, pos, self.k)
            .into_iter()
            .map(S::id_to_wire)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        if got == want {
            return true;
        }
        let mut d_got = S::dists(index, pos, &got);
        let mut d_want = S::dists(index, pos, &want);
        d_got.sort_by(f64::total_cmp);
        d_want.sort_by(f64::total_cmp);
        d_got == d_want
    }

    /// Checks every sample. Epoch `e`'s index is `base` with the first
    /// `e` of `deltas` applied, rebuilt here one epoch at a time so no
    /// snapshot has to be kept alive while the rounds run.
    pub fn check(&self, base: S::Index, deltas: &[DeltaOf<S>]) -> Verdict {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| self.epochs[i]);
        let mut index = base;
        let mut at_epoch = 0u64;
        let mut mismatches = 0u64;
        let mut from = 0usize;
        while from < order.len() {
            let epoch = self.epochs[order[from]];
            let to = from + order[from..].partition_point(|&i| self.epochs[i] == epoch);
            while at_epoch < epoch {
                index = index
                    .apply_delta(&deltas[at_epoch as usize])
                    .expect("a delta the run applied applies again");
                at_epoch += 1;
            }
            let chunks: Vec<&[usize]> = order[from..to].chunks(16).collect();
            let index_ref = &index;
            mismatches += parallel_map(chunks, |chunk| {
                chunk
                    .iter()
                    .filter(|&&i| !self.matches(index_ref, i))
                    .count() as u64
            })
            .into_iter()
            .sum::<u64>();
            from = to;
        }
        Verdict {
            checked: self.len(),
            epochs: self.epochs_spanned(),
            mismatches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{EuclidFleet, Fleet};
    use insq_core::{Euclidean, Space};
    use insq_workload::Distribution;

    #[test]
    fn sampling_stride_and_mismatch_detection() {
        let fleet = EuclidFleet::new(3, 500, 0, 4, 0.05, Distribution::Uniform, None);
        let index = fleet.build_index();
        let mut s: Samples<Euclidean> = Samples::new(3, 100, 10);
        assert_eq!(s.stride(), 11);
        assert_eq!(s.due(30).collect::<Vec<_>>(), vec![0, 11, 22]);
        assert_eq!(s.due(10).collect::<Vec<_>>(), vec![3]);
        let pos = fleet.position(0, 0);
        let good = Euclidean::brute_knn(&index, pos, 3);
        assert!(s.record(0, pos, good.iter().map(|id| id.0)));
        assert!(!s.record(0, pos, [1u32].into_iter()), "short answers fail");
        // A wrong id set is a mismatch.
        let far = Euclidean::brute_knn(&index, insq_geom::Point::new(99.0, 99.0), 3);
        assert!(s.record(
            0,
            insq_geom::Point::new(1.0, 1.0),
            far.iter().map(|id| id.0)
        ));
        assert_eq!(s.check(index, &[]).mismatches, 1);
    }
}
