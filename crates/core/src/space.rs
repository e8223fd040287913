//! The [`Space`] abstraction: what every INSQ setting has in common.
//!
//! The paper instantiates the INS algorithm twice — 2-D Euclidean space
//! (§III) and road networks (§IV) — and proves the same two facts in
//! both: the minimal influential set is contained in the Voronoi-neighbor
//! influential set (Theorem 1), and a result that survives a probe of
//! its own `kNN ∪ INS` neighborhood is globally valid (Theorem 2 / the
//! §III-A distance scan). Everything else — prefetching, guard caching,
//! the three update cases — is identical.
//!
//! [`Space`] captures exactly that shared surface: a position type, a
//! site-identifier type, an index snapshot, and four operations (global
//! kNN probe, influential-neighbor construction, scoped validation
//! probe, brute-force reference). The single generic
//! [`crate::Processor`] implements the full INS protocol over any
//! `Space`; `insq-server` builds its epoch-versioned worlds and fleet
//! clients over the same trait. Adding a setting means implementing this
//! trait once — the processor, fleet engine, workload generators and
//! conformance suites come for free (see the README's "how to add a
//! space" checklist).
//!
//! Two spaces ship in-tree:
//!
//! | Space | Index | Position | Distance |
//! |---|---|---|---|
//! | [`crate::Euclidean`] | `insq_index::VorTree` | `insq_geom::Point` | L2 |
//! | [`crate::Network`] | `insq_roadnet::NetworkWorld` | `insq_roadnet::NetPosition` | shortest path |

use std::fmt::Debug;

use insq_index::{SiteDelta, VorTree};
use insq_roadnet::{NetDelta, NetworkWorld, RoadNetError};
use insq_voronoi::VoronoiError;

/// A query setting the INS algorithm can run in.
///
/// Implementations are zero-sized marker types; every operation receives
/// the index snapshot explicitly, so one snapshot can serve many
/// concurrent queries (the `insq-server` fleet engine shares them via
/// `Arc`).
pub trait Space: Sized + Copy + Send + Sync + 'static {
    /// The query position type ticks are driven with.
    type Pos: Copy + Debug + Send + Sync;
    /// The data-object identifier type of results.
    type SiteId: Copy + Eq + Ord + Debug + Send + Sync + 'static;
    /// The server-side index snapshot queries run against.
    type Index: Send + Sync;
    /// Reusable scratch holding every per-query search transient —
    /// frontier heaps, generation-stamped visited marks and distance
    /// slots, the restricted-search site mask — threaded through all
    /// `*_into` probes so the hot tick path allocates nothing. A default
    /// scratch is empty (backing storage appears on first use and is
    /// sized to the index), so it can be shared per worker rather than
    /// per query: `insq_index::VorTreeScratch` for the Euclidean
    /// spaces, [`crate::network::NetScratch`] on road networks.
    type Scratch: Default + Clone + Debug + Send + Sync;
    /// What the scoped probe remembers **per query** between ticks, O(k):
    /// `insq_roadnet::subnetwork::EdgeAnchors`; `()` in both Euclidean spaces.
    /// The processor forgets it when the snapshot or the probe's scope changes.
    type Anchor: Default + Clone + Debug + Send + Sync;

    /// Short human-readable method name ("INS", "INS-road", …).
    const NAME: &'static str;

    /// Whether validation is a server-side probe of the stored
    /// `kNN ∪ I(kNN)` scope (the Theorem-2 restricted search on road
    /// networks) rather than a scan of the held objects (the §III-A scan
    /// of the Euclidean space). Such a probe *is* the fetch: it is served
    /// from the index, whose neighbor pointers travel with the response,
    /// so everything the protocol varies per space follows from this one
    /// fact:
    ///
    /// * **scope maintenance** — scope-probing spaces keep the scope up
    ///   to date across recomputations and adoptions; scan-validating
    ///   spaces skip it (their probes never read it, and
    ///   [`crate::Processor::scope`] stays empty);
    /// * **cache policy** — the §III protocol holds `R ∪ I(R)` so
    ///   case-(ii) local re-ranks can draw on the full prefetch set;
    ///   a scope-probing space confines the cache to `R ∪ I(kNN)`,
    ///   because objects outside the probed cells would be dead
    ///   communication weight;
    /// * **fetch** — influential neighbors missing from the client cache
    ///   ship with the probe during a local update; a scanning space
    ///   uses held objects only and escalates anything else to a full
    ///   recomputation (unless the query enables
    ///   [`crate::InsConfig::incremental_fetch`]).
    ///
    /// A space that keeps the default probe-based
    /// [`Space::validate_into`] must set this to `true`; spaces that
    /// override it with a scan leave it `false`.
    const SCOPED_PROBE: bool = false;

    /// Number of data objects in the snapshot.
    fn num_sites(index: &Self::Index) -> usize;

    /// The dense ordinal of a site id in `0..num_sites` — the key of the
    /// per-query held-set table (which stores it as a `u32`: ordinals
    /// must stay below `u32::MAX`) and of a delta epoch's [`TouchedSet`].
    fn ordinal(id: Self::SiteId) -> usize;

    /// Voids `anchor`, keeping its buffers (the tick path allocates nothing).
    fn forget_anchor(anchor: &mut Self::Anchor);

    /// Global kNN probe — the initial computation / update case (iii)
    /// search. Writes the `m` nearest sites ascending by distance (ties
    /// by id) into `out` (cleared first) and returns the
    /// elementary-operation count (index node inspections, settled
    /// vertices, …). All per-query transients live in `scratch`, so in
    /// steady state this touches no allocator.
    fn global_knn_into(
        index: &Self::Index,
        scratch: &mut Self::Scratch,
        pos: Self::Pos,
        m: usize,
        out: &mut Vec<(Self::SiteId, f64)>,
    ) -> u64;

    /// The influential neighbor set `I(ids)` (Definition 4): the union of
    /// the Voronoi neighbor sets of `ids`, minus `ids`, sorted and
    /// deduplicated, written into `out` (cleared first).
    fn influential_into(index: &Self::Index, ids: &[Self::SiteId], out: &mut Vec<Self::SiteId>);

    /// The validation/certification probe: the best `k` candidates
    /// visible from the certified neighborhood of the current result,
    /// written into `out` (cleared first).
    ///
    /// `scope` is the result set united with its influential neighbor
    /// set; `held` is every object the client holds. Euclidean spaces
    /// re-rank `held` by distance (the §III-A scan); road networks answer
    /// the Theorem-2 restricted search over the Voronoi cells of `scope`
    /// from `anchor` (forgotten since `index`, `scope` or `k` changed),
    /// expanding only once the query leaves its edge. Candidates come out
    /// ascending by distance (ties by id); returns the operation count.
    #[allow(clippy::too_many_arguments)]
    fn scoped_knn_into(
        index: &Self::Index,
        scratch: &mut Self::Scratch,
        anchor: &mut Self::Anchor,
        scope: &[Self::SiteId],
        held: &[Self::SiteId],
        pos: Self::Pos,
        k: usize,
        out: &mut Vec<(Self::SiteId, f64)>,
    ) -> u64;

    /// Brute-force kNN — the conformance reference every processor
    /// answer is checked against in the cross-space test suites and by
    /// the benchmark's post-run oracle. It must share no search code
    /// with `global_knn_into`/`scoped_knn_into`: the Euclidean spaces
    /// scan every site, the network space ranks one full oracle Dijkstra
    /// (`insq_roadnet::ine::all_site_distances`) by `(distance, site
    /// index)`. Not a hot path; allocates freely.
    fn brute_knn(index: &Self::Index, pos: Self::Pos, k: usize) -> Vec<Self::SiteId>;

    /// The per-tick validation step (§III-A / Theorem 2): decides
    /// whether `current` is still certified at `pos`. On
    /// [`Verdict::Valid`], `out` holds the current result with distances
    /// refreshed at the new position; on [`Verdict::Invalid`], the
    /// probe's candidate replacement set. Returns the verdict and the
    /// elementary-operation count.
    ///
    /// The default runs [`Space::scoped_knn_into`] and set-compares —
    /// exactly right for road networks, where the anchored probe both
    /// validates (O(k) on a tick that stays on its edge) and yields the
    /// candidate. Euclidean spaces override it with the cheaper
    /// O(k + |IS|) distance scan (farthest current member vs nearest
    /// guard, ties valid) and rank the held objects only on invalidation.
    #[allow(clippy::too_many_arguments)]
    fn validate_into(
        index: &Self::Index,
        scratch: &mut Self::Scratch,
        anchor: &mut Self::Anchor,
        scope: &[Self::SiteId],
        held: &[Self::SiteId],
        current: &[(Self::SiteId, f64)],
        pos: Self::Pos,
        k: usize,
        out: &mut Vec<(Self::SiteId, f64)>,
    ) -> (Verdict, u64) {
        let ops = Self::scoped_knn_into(index, scratch, anchor, scope, held, pos, k, out);
        let same = out.len() == current.len()
            && out
                .iter()
                .all(|&(s, _)| current.iter().any(|&(c, _)| c == s));
        if same {
            (Verdict::Valid, ops)
        } else {
            (Verdict::Invalid, ops)
        }
    }
}

/// Outcome of [`Space::validate_into`] — the payload stays in the
/// caller's `out` buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Still certified: `out` holds the current result with distances
    /// refreshed at the new position.
    Valid,
    /// No longer certified: `out` holds the probe's candidate
    /// replacement set (to be certified by the update cases of §III-B).
    Invalid,
}

/// What one delta epoch touched, as site ordinals of the snapshot the
/// delta was applied **to**: every site that was removed or renumbered,
/// or whose position or Voronoi neighbor list differs in the patched
/// snapshot. A query none of whose held objects is in the set can move
/// to the patched snapshot without recomputing (see
/// [`crate::Processor::rebind_scoped`]).
///
/// One bit per pre-delta site, built once per epoch and read by every
/// query of the fleet — the queries themselves hold nothing of this
/// size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TouchedSet {
    bits: Vec<u64>,
}

impl TouchedSet {
    /// The set of `ordinals` among the `num_sites` sites of the
    /// pre-delta snapshot. Ordinals at or beyond `num_sites` (sites the
    /// delta appended) are dropped: no query of the old snapshot can
    /// hold them, and [`TouchedSet::contains`] reports them touched
    /// anyway.
    pub fn from_ordinals(num_sites: usize, ordinals: impl IntoIterator<Item = usize>) -> Self {
        let mut bits = vec![0u64; num_sites.div_ceil(64)];
        for o in ordinals {
            if o < num_sites {
                bits[o / 64] |= 1 << (o % 64);
            }
        }
        TouchedSet { bits }
    }

    /// Whether the site with this ordinal was touched. Ordinals outside
    /// the pre-delta snapshot count as touched.
    #[inline]
    pub fn contains(&self, ordinal: usize) -> bool {
        self.bits
            .get(ordinal / 64)
            .is_none_or(|word| (word >> (ordinal % 64)) & 1 == 1)
    }
}

/// An index snapshot that supports **delta epochs**: producing the next
/// epoch's snapshot by patching a copy instead of rebuilding from
/// scratch. `insq_server::World::apply` is generic over this trait.
pub trait DeltaIndex: Sized {
    /// The batched-update type (a world keeps the last one: the bounds).
    type Delta: Clone + Send + Sync + 'static;
    /// The error type of a rejected delta.
    type Error;

    /// Returns a patched copy of `self`; `self` is never modified, so on
    /// error the current snapshot simply stays live.
    fn apply_delta(&self, delta: &Self::Delta) -> Result<Self, Self::Error>;

    /// [`DeltaIndex::apply_delta`] that also says what the delta
    /// touched, so queries it is nowhere near can keep their guards
    /// across the epoch. `None` — the default — means "everything":
    /// every query rebinds in full, exactly as for a rebuilt snapshot.
    fn apply_delta_traced(
        &self,
        delta: &Self::Delta,
    ) -> Result<(Self, Option<TouchedSet>), Self::Error> {
        Ok((self.apply_delta(delta)?, None))
    }

    /// [`DeltaIndex::apply_delta_traced`] for a caller that still owns
    /// the snapshot `self` was patched from: `retired` with `missed`
    /// applied has exactly the content of `self`. An implementation may
    /// build the result in `retired`'s storage — replay `missed`, then
    /// apply `delta` — instead of copying `self`, so that an epoch costs
    /// what its deltas cost. The touched set describes `delta` alone.
    /// `retired` is owned: nobody reads it, and on error it is discarded,
    /// half-patched or not. The default drops it and patches a copy —
    /// right for an index whose repair costs more than its copy.
    ///
    /// Replaying is sound only if applying a delta is a **pure function
    /// of the snapshot's content**. For the Euclidean index it is:
    /// exact predicates, free lists and pool offsets that are themselves
    /// copied content, hash tables that are looked up but never iterated
    /// (`insq-server`'s two-buffer conformance suite pins it).
    fn apply_delta_reclaiming(
        &self,
        delta: &Self::Delta,
        retired: Self,
        missed: &Self::Delta,
    ) -> Result<(Self, Option<TouchedSet>), Self::Error> {
        drop((retired, missed));
        self.apply_delta_traced(delta)
    }
}

/// A `SiteDelta` patches the diagram in place, so a fresh copy is a
/// retired snapshot that missed nothing.
impl DeltaIndex for VorTree {
    type Delta = SiteDelta;
    type Error = VoronoiError;

    fn apply_delta(&self, delta: &SiteDelta) -> Result<Self, VoronoiError> {
        Ok(self.apply_delta_traced(delta)?.0)
    }

    fn apply_delta_traced(
        &self,
        delta: &SiteDelta,
    ) -> Result<(Self, Option<TouchedSet>), VoronoiError> {
        self.apply_delta_reclaiming(delta, self.clone(), &SiteDelta::default())
    }

    fn apply_delta_reclaiming(
        &self,
        delta: &SiteDelta,
        mut retired: Self,
        missed: &SiteDelta,
    ) -> Result<(Self, Option<TouchedSet>), VoronoiError> {
        retired.apply(missed)?;
        let mut touched = Vec::new();
        retired.apply_traced(delta, &mut touched)?;
        let touched = touched.iter().map(|s| s.idx());
        Ok((
            retired,
            Some(TouchedSet::from_ordinals(self.len(), touched)),
        ))
    }
}

impl DeltaIndex for NetworkWorld {
    /// The combined delta: site insertions/removals *and* edge re-weights
    /// (traffic). A pure site churn delta converts via
    /// `NetDelta::from(NetSiteDelta)`.
    type Delta = NetDelta;
    type Error = RoadNetError;

    fn apply_delta(&self, delta: &NetDelta) -> Result<NetworkWorld, RoadNetError> {
        NetworkWorld::apply_delta(self, delta)
    }
}
