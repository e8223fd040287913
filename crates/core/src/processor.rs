//! The generic INS moving-kNN processor and the common processor trait.
//!
//! [`Processor`] implements the full INS protocol of the paper once,
//! generically over a [`Space`] — §III and §IV are the same algorithm
//! with different primitives, and the primitives are exactly what the
//! [`Space`] trait provides. Lifecycle per query:
//!
//! 1. **Initial computation** — retrieve `R`, the `⌊ρk⌋` nearest objects
//!    (`ρ ≥ 1` is the *prefetch ratio*), together with `I(R)`. The top-k
//!    of `R` is the kNN result; everything else held client-side guards
//!    it.
//! 2. **Validation per timestamp** (§III-A / Theorem 2) — a scoped probe
//!    of the result's certified neighborhood (a distance re-rank of the
//!    held objects in the Euclidean space; the restricted expansion over
//!    the `kNN ∪ INS` Voronoi cells on road networks). While the probe
//!    returns the current result set, the result is provably still the
//!    global kNN.
//! 3. **Update on invalidation** (§III-B) — the probe's candidate set is
//!    certified against *its own* influential neighborhood: case (i) one
//!    swap, case (ii) a local re-rank from held objects, case (iii) full
//!    recomputation — the only case that costs a client↔server round
//!    trip.
//!
//! The processor certifies *every* answer it returns: an answer is
//! adopted only after the influential-set predicate holds for it, so the
//! result equals the brute-force kNN at every tick (the cross-space
//! conformance suite in `insq-server` asserts this for every registered
//! space).

use std::borrow::Borrow;
use std::marker::PhantomData;

use crate::held::HeldSet;
use crate::metrics::{QueryStats, TickOutcome};
use crate::space::{Space, TouchedSet, Verdict};
use crate::CoreError;

/// A continuous kNN processor driven by position updates.
///
/// `P` is the position type ([`insq_geom::Point`] in the Euclidean plane,
/// [`insq_roadnet::NetPosition`] on road networks) and `Id` the data-object
/// identifier type. The simulation engine in `insq-sim` drives any
/// implementor along a trajectory and harvests its [`QueryStats`].
pub trait MovingKnn<P, Id> {
    /// Short human-readable method name ("INS", "Naive", "OkV", "V*").
    fn name(&self) -> &'static str;

    /// Advances the query object to `pos` and maintains the result,
    /// reporting what had to be done.
    fn tick(&mut self, pos: P) -> TickOutcome;

    /// The current kNN ids, ascending by distance from the last position
    /// (ties broken by id).
    fn current_knn(&self) -> Vec<Id>;

    /// Cumulative statistics since construction or the last
    /// [`MovingKnn::reset_stats`].
    fn stats(&self) -> &QueryStats;

    /// Clears the statistics (keeps query state).
    fn reset_stats(&mut self);
}

/// Configuration of an INS processor (any space).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsConfig {
    /// Number of nearest neighbors to maintain (k ≥ 1).
    pub k: usize,
    /// Prefetch ratio ρ ≥ 1: `⌊ρk⌋` objects are retrieved per
    /// recomputation to trade communication volume against recomputation
    /// frequency (paper §III).
    pub rho: f64,
    /// Extension (off by default, not in the paper): when a local update
    /// needs influential neighbors the client does not hold, fetch just
    /// those objects instead of performing a full recomputation. This
    /// turns the processor into an incremental neighbor-crawler that
    /// almost never pays a full round trip, at the cost of an unbounded
    /// client buffer. `report`'s ablation quantifies the trade-off.
    /// Spaces with [`Space::SCOPED_PROBE`] (road networks) behave this
    /// way regardless: their validation probe is the fetch.
    pub incremental_fetch: bool,
}

impl InsConfig {
    /// A configuration with the given k and ρ (paper protocol).
    pub fn new(k: usize, rho: f64) -> InsConfig {
        InsConfig {
            k,
            rho,
            incremental_fetch: false,
        }
    }

    /// A configuration with the paper's demo default ρ = 1.6.
    pub fn with_k(k: usize) -> InsConfig {
        Self::new(k, 1.6)
    }

    /// Enables the incremental-fetch extension (see the field docs).
    pub fn incremental(mut self) -> InsConfig {
        self.incremental_fetch = true;
        self
    }

    /// The prefetch count `max(k, ⌊ρk⌋)`.
    pub fn prefetch_count(&self) -> usize {
        ((self.rho * self.k as f64).floor() as usize).max(self.k)
    }
}

/// The INS moving-kNN processor, generic over its [`Space`].
///
/// The processor is also generic over *how* it holds the index: any
/// `B: Borrow<S::Index>` works. Single-threaded callers pass
/// `&S::Index` (the original API); the `insq-server` fleet engine
/// passes `Arc<S::Index>` so queries own their world snapshot and can be
/// rebound to a newly published epoch without lifetime entanglement.
///
/// Use the per-space aliases [`crate::InsProcessor`] and
/// [`crate::NetInsProcessor`], or name a space directly: `Processor::<Euclidean, _>::new(&index, cfg)`.
#[derive(Debug, Clone)]
pub struct Processor<S: Space, B: Borrow<S::Index>> {
    index: B,
    cfg: InsConfig,
    /// Current kNN with distances as of the last tick, ascending by
    /// (distance, id).
    knn: Vec<(S::SiteId, f64)>,
    /// The certified neighborhood `kNN ∪ I(kNN)` a scope-probing
    /// validation reads (Theorem 2's subnetwork on road networks);
    /// empty in scan-validating spaces (see
    /// [`Space::SCOPED_PROBE`]).
    scope: Vec<S::SiteId>,
    /// Client-side object cache: the prefetch set `R` plus its cached
    /// influential set (`I(R)` or `I(kNN)`, see
    /// [`Space::SCOPED_PROBE`]) plus everything fetched since the
    /// last full recomputation. Sized to the held set, not the index.
    held: HeldSet<S::SiteId>,
    /// Own search scratch, used only by the standalone
    /// [`MovingKnn::tick`] path. Empty (no backing storage) until that
    /// path runs — fleet engines drive [`Processor::tick_with`] with
    /// their worker's scratch instead, so thousands of queries share one
    /// O(index-size) scratch arena per worker.
    scratch: S::Scratch,
    /// Valid for the bound snapshot and `scope`: whoever changes either forgets it.
    anchor: S::Anchor,
    /// Reusable result buffers: every per-tick transient of the INS
    /// protocol lives in one of these, so in steady state (capacities
    /// grown to the working set) a tick performs zero heap allocations.
    /// Buffers are `mem::take`n around calls that also need `&mut self`
    /// (a swap with an empty vec — never an allocation) and restored
    /// afterwards, preserving their capacity.
    val_buf: Vec<(S::SiteId, f64)>,
    probe_buf: Vec<(S::SiteId, f64)>,
    ids_buf: Vec<S::SiteId>,
    ins_buf: Vec<S::SiteId>,
    missing_buf: Vec<S::SiteId>,
    scope2_buf: Vec<S::SiteId>,
    extended_buf: Vec<S::SiteId>,
    last_pos: Option<S::Pos>,
    stats: QueryStats,
    initialized: bool,
    _space: PhantomData<S>,
}

impl<S: Space, B: Borrow<S::Index>> Processor<S, B> {
    /// Creates a processor; fails on `k = 0`, `k > n`, or `ρ < 1`.
    pub fn new(index: B, cfg: InsConfig) -> Result<Processor<S, B>, CoreError> {
        if cfg.k == 0 {
            return Err(CoreError::BadConfig {
                reason: "k must be at least 1",
            });
        }
        if cfg.k > S::num_sites(index.borrow()) {
            return Err(CoreError::BadConfig {
                reason: "k exceeds the number of data objects",
            });
        }
        if !(cfg.rho >= 1.0 && cfg.rho.is_finite()) {
            return Err(CoreError::BadConfig {
                reason: "prefetch ratio rho must be finite and >= 1",
            });
        }
        Ok(Processor {
            index,
            cfg,
            knn: Vec::new(),
            scope: Vec::new(),
            held: HeldSet::default(),
            scratch: S::Scratch::default(),
            anchor: S::Anchor::default(),
            val_buf: Vec::new(),
            probe_buf: Vec::new(),
            ids_buf: Vec::new(),
            ins_buf: Vec::new(),
            missing_buf: Vec::new(),
            scope2_buf: Vec::new(),
            extended_buf: Vec::new(),
            last_pos: None,
            stats: QueryStats::default(),
            initialized: false,
            _space: PhantomData,
        })
    }

    /// The configuration.
    pub fn config(&self) -> InsConfig {
        self.cfg
    }

    /// The index snapshot the processor is currently bound to.
    pub fn index(&self) -> &S::Index {
        self.index.borrow()
    }

    /// The position of the last processed tick, if any.
    pub fn last_pos(&self) -> Option<S::Pos> {
        self.last_pos
    }

    /// The current kNN with distances from the last position, ascending
    /// by (distance, id).
    pub fn current_knn_with_dists(&self) -> &[(S::SiteId, f64)] {
        &self.knn
    }

    /// The cluster's overlap-margin contract: given that the index holds
    /// every site within `margin` of the query, the current result is
    /// provably the kNN over *all* sites — a full `k` neighbours, the
    /// k-th no farther than `margin` (a tie at the margin certifies;
    /// fewer than `k` never does).
    pub fn certified_within(&self, margin: f64) -> bool {
        self.knn.len() >= self.cfg.k && self.knn.last().is_some_and(|&(_, d)| d <= margin)
    }

    /// The influential neighbor set `I(kNN)` of the current result.
    pub fn influential_set(&self) -> Vec<S::SiteId> {
        let ids: Vec<S::SiteId> = self.knn.iter().map(|&(s, _)| s).collect();
        let mut out = Vec::new();
        S::influential_into(self.index(), &ids, &mut out);
        out
    }

    /// The certified neighborhood a scope-probing validation reads:
    /// `kNN ∪ I(kNN)` (on road networks, the sites whose Voronoi cells
    /// form the Theorem-2 subnetwork). Empty in spaces that validate by
    /// scan instead (`Space::SCOPED_PROBE = false`), whose probes
    /// never read it — use [`Processor::influential_set`] for `I(kNN)`
    /// on demand.
    pub fn scope(&self) -> &[S::SiteId] {
        &self.scope
    }

    /// The guard set used for validation: every held object that is not
    /// a current kNN (the paper's `IS = I(R) ∪ R \ NNk(q)`).
    pub fn guard_set(&self) -> Vec<S::SiteId> {
        self.held
            .as_slice()
            .iter()
            .copied()
            .filter(|&s| !self.knn.iter().any(|&(m, _)| m == s))
            .collect()
    }

    /// All objects currently held client-side.
    pub fn held_objects(&self) -> &[S::SiteId] {
        self.held.as_slice()
    }

    /// Drops all client-side state (cache, guards, current result),
    /// forcing a full recomputation at the next [`MovingKnn::tick`].
    ///
    /// Use after any out-of-band event that voids the guards' certificate
    /// — most importantly a data-object update on the server (paper §III:
    /// "If there are data object updates, we also update the kNN set and
    /// the IS"): inserted objects may be nearer than any held guard, and
    /// deleted guards certify nothing.
    pub fn invalidate(&mut self) {
        self.held.reset(0);
        self.knn.clear();
        self.scope.clear();
        S::forget_anchor(&mut self.anchor);
        self.initialized = false;
    }

    /// Rebinds the processor to a rebuilt index snapshot after
    /// data-object updates (the server reconstructs the index; the
    /// client continues the same moving query against the new data set).
    /// Implies [`Processor::invalidate`]. Statistics are preserved so a
    /// run's totals include the update's recomputation cost.
    ///
    /// `insq-server` epoch-versioned worlds call this with the freshly
    /// published `Arc<S::Index>` snapshot; manual single-query code
    /// passes the new `&S::Index` as before. If the new index holds
    /// fewer than `k` objects, subsequent ticks return all of them
    /// (`current_knn` shrinks below `k`) rather than failing.
    pub fn rebind(&mut self, index: B) {
        self.index = index;
        self.invalidate();
    }

    /// [`Processor::rebind`] for a snapshot that differs from the bound
    /// one by a single delta: when none of the held objects is in
    /// `touched`, the processor moves to `index` **keeping its kNN,
    /// guards and cache** and returns `true`; otherwise it rebinds in
    /// full and returns `false`. A processor that never ticked holds
    /// nothing to keep and rebinds in full.
    ///
    /// `touched` must cover every site of the bound snapshot that was
    /// removed or renumbered, or whose position or Voronoi neighbor list
    /// differs in `index` (see [`TouchedSet`]). An untouched held object
    /// then is the same object with the same neighbors in both
    /// snapshots, so `I(kNN)` is unchanged and still held: by Theorem 1
    /// (`MIS(kNN) ⊆ I(kNN)`) the certificate the query holds is a
    /// certificate in `index` too, and every later local update reads
    /// only held objects and their neighbor lists.
    pub fn rebind_scoped(&mut self, index: B, touched: &TouchedSet) -> bool {
        let keep = self.initialized
            && !self
                .held
                .as_slice()
                .iter()
                .any(|&s| touched.contains(S::ordinal(s)));
        if keep {
            self.index = index;
            S::forget_anchor(&mut self.anchor);
        } else {
            self.rebind(index);
        }
        keep
    }

    fn is_cached(&self, s: S::SiteId) -> bool {
        self.held.contains(S::ordinal(s))
    }

    fn fetch(&mut self, sites: &[S::SiteId]) {
        for &s in sites {
            if self.held.insert(S::ordinal(s), s) {
                self.stats.comm_objects += 1;
            }
        }
    }

    /// Replaces the cache contents, counting only genuinely new objects
    /// as communication.
    fn reset_cache_to(&mut self, sites: impl Iterator<Item = S::SiteId> + Clone) {
        let (mut total, mut newly) = (0, 0);
        for s in sites.clone() {
            total += 1;
            newly += u64::from(!self.is_cached(s));
        }
        self.held.reset(total);
        for s in sites {
            self.held.insert(S::ordinal(s), s);
        }
        self.stats.comm_objects += newly;
    }

    /// Full recomputation (update case (iii) / initial computation):
    /// retrieve `R` and its cached influential set, hold both, adopt the
    /// top-k of `R`. Allocation-free in steady state: the probe writes
    /// into reusable buffers and the cache refill stays within capacity.
    fn recompute(&mut self, scratch: &mut S::Scratch, pos: S::Pos) {
        S::forget_anchor(&mut self.anchor);
        let m = self.cfg.prefetch_count().min(S::num_sites(self.index()));
        let mut r = std::mem::take(&mut self.probe_buf);
        let ops = S::global_knn_into(self.index.borrow(), scratch, pos, m, &mut r);
        self.stats.search_ops += ops;
        let mut r_ids = std::mem::take(&mut self.ids_buf);
        r_ids.clear();
        r_ids.extend(r.iter().map(|&(s, _)| s));

        // A rebind may have installed an index with fewer than k objects;
        // degrade to all of them instead of panicking mid-fleet.
        self.knn.clear();
        self.knn.extend_from_slice(&r[..self.cfg.k.min(r.len())]);

        // Cache and scope policy (see `Space::SCOPED_PROBE`):
        // scope-probing spaces hold `R ∪ I(kNN)` and maintain the
        // probe's scope; scan-validating spaces follow the paper's §III
        // protocol (`R ∪ I(R)`) and skip the scope, which their probes
        // never read. Only genuinely new objects cost communication.
        let mut ins = std::mem::take(&mut self.ins_buf);
        if S::SCOPED_PROBE {
            // `r` is sorted ascending and the kNN is its prefix, so the
            // kNN ids are exactly the first `knn.len()` entries of
            // `r_ids`.
            let split = self.knn.len();
            S::influential_into(self.index.borrow(), &r_ids[..split], &mut ins);
            self.stats.construction_ops += (split + ins.len()) as u64;
            self.reset_cache_to(r_ids.iter().copied().chain(ins.iter().copied()));
            debug_assert!(ins.iter().all(|s| !r_ids[..split].contains(s)));
            self.scope.clear();
            self.scope.extend_from_slice(&r_ids[..split]);
            self.scope.extend_from_slice(&ins);
        } else {
            S::influential_into(self.index.borrow(), &r_ids, &mut ins);
            self.stats.construction_ops += (r_ids.len() + ins.len()) as u64;
            self.reset_cache_to(r_ids.iter().copied().chain(ins.iter().copied()));
            self.scope.clear();
        }
        self.probe_buf = r;
        self.ids_buf = r_ids;
        self.ins_buf = ins;
        self.last_pos = Some(pos);
    }

    /// Certifies the probe's candidate k-set against its own influential
    /// neighborhood. On success, installs it and returns the classified
    /// outcome; `None` means a full recomputation is needed.
    ///
    /// Soundness: the candidate is certified only after (a) `I(cand)` is
    /// entirely held (guarding `MIS(cand) ⊆ I(cand)`, Theorem 1) and (b)
    /// a probe of `cand ∪ I(cand)` returns exactly `cand` (the §III-A
    /// scan / Theorem 2) — so the predicate holding certifies
    /// `cand = NNk(q)` globally.
    fn try_adopt(
        &mut self,
        scratch: &mut S::Scratch,
        pos: S::Pos,
        cand: &[(S::SiteId, f64)],
    ) -> Option<TickOutcome> {
        if cand.len() < self.cfg.k {
            return None;
        }
        let mut cand_ids = std::mem::take(&mut self.ids_buf);
        cand_ids.clear();
        cand_ids.extend(cand.iter().map(|&(s, _)| s));
        let mut ins = std::mem::take(&mut self.ins_buf);
        S::influential_into(self.index.borrow(), &cand_ids, &mut ins);
        self.stats.construction_ops += (cand_ids.len() + ins.len()) as u64;

        let mut missing = std::mem::take(&mut self.missing_buf);
        missing.clear();
        for &s in cand_ids.iter().chain(ins.iter()) {
            if !self.is_cached(s) {
                missing.push(s);
            }
        }
        // Restores the buffers on every exit path so their capacity
        // survives for the next tick.
        macro_rules! bail {
            () => {{
                self.ids_buf = cand_ids;
                self.ins_buf = ins;
                self.missing_buf = missing;
                return None;
            }};
        }
        let fetch_allowed = S::SCOPED_PROBE || self.cfg.incremental_fetch;
        if !missing.is_empty() && !fetch_allowed {
            // Paper protocol: local updates use held objects only;
            // anything else is a full recomputation (case (iii)).
            bail!();
        }
        // A candidate member the client did not hold means the update
        // semantically was a (partial) recomputation, not a local repair.
        let was_local = cand_ids.iter().all(|&s| self.is_cached(s));

        // Certification probe on the candidate's own neighborhood,
        // BEFORE any fetch — a candidate that fails certification must
        // not cost communication (the server ships objects only for
        // adopted results). Missing objects are made visible to the
        // probe through a temporary extension of the held list. When
        // nothing is missing in a Euclidean space the probe is
        // guaranteed to pass — it stays to keep the certified-result
        // invariant explicit and to account the O(k + |IS|) cost of the
        // update cases; on road networks it is the Theorem-2 restricted
        // search over the candidate's cells and genuinely decides.
        let mut scope2 = std::mem::take(&mut self.scope2_buf);
        scope2.clear();
        debug_assert!(ins.iter().all(|s| !cand_ids.contains(s)));
        scope2.extend_from_slice(&cand_ids);
        scope2.extend_from_slice(&ins);
        // `scope2` becomes `self.scope` on adoption; else `recompute` forgets again.
        S::forget_anchor(&mut self.anchor);
        let mut res = std::mem::take(&mut self.probe_buf);
        let ops = if missing.is_empty() {
            S::scoped_knn_into(
                self.index.borrow(),
                scratch,
                &mut self.anchor,
                &scope2,
                self.held.as_slice(),
                pos,
                self.cfg.k,
                &mut res,
            )
        } else {
            let mut extended = std::mem::take(&mut self.extended_buf);
            extended.clear();
            extended.extend_from_slice(self.held.as_slice());
            extended.extend_from_slice(&missing);
            let ops = S::scoped_knn_into(
                self.index.borrow(),
                scratch,
                &mut self.anchor,
                &scope2,
                &extended,
                pos,
                self.cfg.k,
                &mut res,
            );
            self.extended_buf = extended;
            ops
        };
        self.stats.search_ops += ops;
        if !same_id_set::<S>(&res, &cand_ids) {
            self.scope2_buf = scope2;
            self.probe_buf = res;
            bail!();
        }
        self.fetch(&missing);

        let shared = cand_ids
            .iter()
            .filter(|&&s| self.knn.iter().any(|&(m, _)| m == s))
            .count();
        let outcome = if !was_local {
            TickOutcome::Recompute
        } else if shared + 1 == self.cfg.k {
            TickOutcome::Swap
        } else {
            TickOutcome::LocalRerank
        };
        if S::SCOPED_PROBE {
            std::mem::swap(&mut self.scope, &mut scope2);
        }
        std::mem::swap(&mut self.knn, &mut res);
        self.ids_buf = cand_ids;
        self.ins_buf = ins;
        self.missing_buf = missing;
        self.scope2_buf = scope2;
        self.probe_buf = res;
        Some(outcome)
    }
}

/// Whether the candidate list's id set equals `ids` (order-insensitive).
fn same_id_set<S: Space>(cand: &[(S::SiteId, f64)], ids: &[S::SiteId]) -> bool {
    cand.len() == ids.len() && cand.iter().all(|&(s, _)| ids.contains(&s))
}

impl<S: Space, B: Borrow<S::Index>> Processor<S, B> {
    /// Advances the query to `pos` using a caller-provided search
    /// scratch — the fleet hot path. One scratch (sized O(index), not
    /// O(k)) serves any number of processors sequentially, so a sharded
    /// engine keeps one per worker instead of one per query. In steady
    /// state the whole call performs zero heap allocations.
    ///
    /// [`MovingKnn::tick`] is the standalone equivalent driving the
    /// processor's own scratch.
    pub fn tick_with(&mut self, scratch: &mut S::Scratch, pos: S::Pos) -> TickOutcome {
        if !self.initialized {
            self.recompute(scratch, pos);
            self.initialized = true;
            let outcome = TickOutcome::Recompute;
            self.stats.record(outcome);
            return outcome;
        }
        self.last_pos = Some(pos);

        // Validation of the certified neighborhood (§III-A scan /
        // Theorem 2 restricted search). The probe writes into the
        // reusable `val_buf`, taken locally so `try_adopt` can borrow
        // `self` mutably alongside it.
        let mut val = std::mem::take(&mut self.val_buf);
        let (verdict, ops) = S::validate_into(
            self.index.borrow(),
            scratch,
            &mut self.anchor,
            &self.scope,
            self.held.as_slice(),
            &self.knn,
            pos,
            self.cfg.k,
            &mut val,
        );
        self.stats.validation_ops += ops;
        let outcome = match verdict {
            Verdict::Valid => {
                // Refresh stored distances for observers.
                std::mem::swap(&mut self.knn, &mut val);
                TickOutcome::Valid
            }
            // The probe's result is the natural candidate (the first
            // object to displace a kNN member is an INS member).
            Verdict::Invalid => match self.try_adopt(scratch, pos, &val) {
                Some(outcome) => outcome,
                None => {
                    self.recompute(scratch, pos);
                    TickOutcome::Recompute
                }
            },
        };
        self.val_buf = val;
        self.stats.record(outcome);
        outcome
    }
}

impl<S: Space, B: Borrow<S::Index>> MovingKnn<S::Pos, S::SiteId> for Processor<S, B> {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn tick(&mut self, pos: S::Pos) -> TickOutcome {
        // The own scratch is swapped out for the duration of the tick
        // (a pointer swap with an empty default, not an allocation).
        let mut scratch = std::mem::take(&mut self.scratch);
        let outcome = self.tick_with(&mut scratch, pos);
        self.scratch = scratch;
        outcome
    }

    fn current_knn(&self) -> Vec<S::SiteId> {
        self.knn.iter().map(|&(s, _)| s).collect()
    }

    fn stats(&self) -> &QueryStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = QueryStats::default();
    }
}
