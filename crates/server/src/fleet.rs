//! The multi-query fleet engine.
//!
//! [`FleetEngine`] owns a sharded registry of live [`FleetQuery`]s over
//! one shared, epoch-versioned [`World`] and advances all of them per
//! timestamp, shard by shard: in parallel on the calling thread and a
//! scoped-thread worker pool beside it, or on the calling thread alone
//! while the fleet is too small to pay for spawning a worker (fewer
//! than 128 live queries; the bound's derivation is on
//! `INLINE_TICK_BELOW`).
//!
//! **The tick contract.** [`FleetEngine::tick`] is the one entry point:
//! it takes an explicit [`TickPolicy`], a position feed returning a
//! [`TickPos`] per query, and a [`TickSink`] receiving one
//! [`TickDisposition`] per live query in deterministic shard order.
//! [`TickPolicy::Barrier`] is the classic all-present semantics (every
//! query must have a fresh position — the spec the determinism suites
//! pin); [`TickPolicy::Deadline`] ticks whatever positions have arrived,
//! re-serves the rest, and force-refreshes any query held stale past
//! `max_staleness` ticks so epoch swaps still propagate.
//! [`FleetEngine::tick_all`] is the thin Barrier wrapper for callers that
//! want no per-query record.
//!
//! **Determinism.** Queries are independent (they share only the
//! immutable world snapshot), every query belongs to exactly one shard,
//! shards process their queries in registration order, per-query
//! staleness counters advance in that same order, which worker ticks a
//! shard (and so whose search scratch serves it) is the only thing left
//! to chance, and per-shard statistics are merged in shard order — so
//! `tick` results and all aggregate counters are bit-identical to
//! sequential execution at every thread count, under either policy. The
//! equivalence tests in `tests/fleet_equivalence.rs` and
//! `tests/tick_policy.rs` assert exactly this, across an epoch swap.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use insq_core::{QueryStats, TickOutcome};

use crate::queries::FleetQuery;
use crate::world::{Epoch, World};

/// Below this many live queries a tick runs on the calling thread
/// alone, whatever [`FleetConfig::threads`] says.
///
/// Spawning and joining a scoped worker costs about as much as the tick
/// work it takes over: on a 2-vCPU host, `wire_fleet`'s 64-query tick
/// took 38–50 µs on one thread and 51–60 µs on two, so spawn + join
/// ≈ `t2 − t1/2` ≈ 30–36 µs, while one query-tick costs 0.6–0.8 µs. A
/// second worker takes half of an `n`-query tick off the caller, which
/// pays for the spawn once `n · 0.6…0.8 µs / 2 > 30…36 µs`, i.e. at
/// `n` ≈ 75–120 queries. The bound is the next power of two above that
/// range: the smallest in-process fleets (1 000 queries and up) keep
/// their workers, and a fleet that is not above break-even never waits
/// for a thread.
const INLINE_TICK_BELOW: usize = 128;

/// Identifier of a registered query. Ids are assigned sequentially from
/// 0 in registration order and are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl QueryId {
    /// The id as a dense index (valid while no query was deregistered).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Worker-pool and sharding configuration of a [`FleetEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of registry shards (≥ 1). Queries are assigned round-robin
    /// by id, so shards stay evenly sized. A shard is the unit of work of
    /// a tick: each worker takes the next unticked shard whenever it is
    /// free, so one delayed worker costs the tick a share of a shard, not
    /// a share of the fleet (deterministic all the same — a shard's
    /// results do not depend on which worker ticks it). The default
    /// suits fleets of thousands.
    pub shards: usize,
    /// Workers of a tick (≥ 1), the calling thread included: a tick
    /// spawns `threads - 1` scoped threads and the caller works beside
    /// them. `1` means strictly sequential execution on the calling
    /// thread. This is a *cap*: the effective worker count of a tick is
    /// additionally clamped to the shard count and to the hardware
    /// parallelism available at engine construction — oversubscribing a
    /// host buys nothing but scheduler overhead, and the tick results are
    /// bit-identical at every worker count anyway — and a fleet of fewer
    /// than 128 live queries ticks on the calling thread alone, where a
    /// spawned worker would cost more than it takes off the tick.
    pub threads: usize,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 64,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(2),
        }
    }
}

impl FleetConfig {
    /// A configuration with the given thread count and default sharding.
    pub fn with_threads(threads: usize) -> FleetConfig {
        FleetConfig {
            threads,
            ..FleetConfig::default()
        }
    }
}

/// How a [`FleetEngine::tick`] decides which queries to advance.
///
/// The policy is explicit so serving layers can name the trade-off they
/// make: `Barrier` is the deterministic lockstep spec, `Deadline` is the
/// event-driven mode where one slow position producer no longer stalls
/// the rest of the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickPolicy {
    /// Every live query must have a fresh position
    /// ([`TickPos::Fresh`]); the whole fleet advances together. This is
    /// the classic `tick_all` semantics and the spec the determinism
    /// suites pin — feeding [`TickPos::Held`] or [`TickPos::Missing`]
    /// under this policy is a caller bug and panics.
    Barrier,
    /// Advance whatever queries have fresh positions; queries without
    /// one are **re-served** (not ticked, their result stands and the
    /// sink records [`TickDisposition::Stale`]) — except that a query
    /// re-served for more than `max_staleness` consecutive ticks is
    /// **force-ticked at its last known position**
    /// ([`TickPos::Held`]), so index epoch swaps still reach every
    /// query within a bounded number of ticks.
    Deadline {
        /// Consecutive ticks a query may be re-served before the engine
        /// force-ticks it at its held position. `0` means a held query
        /// is always re-ticked (never re-served).
        max_staleness: u64,
    },
}

/// One query's position for one [`FleetEngine::tick`], as returned by
/// the position feed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TickPos<P> {
    /// A fresh position arrived since the last tick.
    Fresh(P),
    /// No fresh position; `P` is the last known one. Under
    /// [`TickPolicy::Deadline`] the query is re-served until its
    /// staleness exceeds `max_staleness`, then force-ticked at `P`.
    Held(P),
    /// No position has ever been seen for this query; it is always
    /// re-served under [`TickPolicy::Deadline`].
    Missing,
}

/// What one [`FleetEngine::tick`] did with one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickDisposition {
    /// Ticked on a fresh position.
    Fresh(TickOutcome),
    /// No fresh position, but staleness exceeded the deadline policy's
    /// bound: force-ticked at the last known position.
    Refreshed(TickOutcome),
    /// Not ticked; the previous result stands (the serving layer
    /// re-serves its cached last result).
    Stale,
}

impl TickDisposition {
    /// The tick outcome, if the query was actually advanced.
    pub fn outcome(self) -> Option<TickOutcome> {
        match self {
            TickDisposition::Fresh(o) | TickDisposition::Refreshed(o) => Some(o),
            TickDisposition::Stale => None,
        }
    }
}

/// Receives one [`TickDisposition`] per live query from
/// [`FleetEngine::tick`], in deterministic shard order (registration
/// order within a shard) — the same order
/// [`FleetEngine::for_each_query`] visits in, so results pair with
/// queries in one O(n) pass.
///
/// `()` records nothing and keeps the exact zero-recording hot path
/// ([`FleetEngine::tick_all`] uses it); `Vec<(QueryId, TickOutcome)>`
/// collects outcomes of ticked queries only; `Vec<(QueryId,
/// TickDisposition)>` collects everything (the serving layer's sink).
/// A `Vec` sink is appended to, not cleared.
pub trait TickSink {
    /// Whether the engine must materialise per-query dispositions at
    /// all. `false` (the `()` sink) compiles recording away entirely.
    const RECORDS: bool = true;

    /// Called once per live query, in shard order.
    fn record(&mut self, id: QueryId, disposition: TickDisposition);
}

impl TickSink for () {
    const RECORDS: bool = false;

    #[inline]
    fn record(&mut self, _id: QueryId, _disposition: TickDisposition) {}
}

impl TickSink for Vec<(QueryId, TickDisposition)> {
    #[inline]
    fn record(&mut self, id: QueryId, disposition: TickDisposition) {
        self.push((id, disposition));
    }
}

impl TickSink for Vec<(QueryId, TickOutcome)> {
    #[inline]
    fn record(&mut self, id: QueryId, disposition: TickDisposition) {
        if let Some(outcome) = disposition.outcome() {
            self.push((id, outcome));
        }
    }
}

#[derive(Debug)]
struct Entry<Q> {
    id: QueryId,
    query: Q,
    /// Consecutive ticks this query has been re-served (deadline policy
    /// only; reset whenever the query actually ticks).
    stale: u64,
}

/// What one [`FleetEngine::tick_all`] did, aggregated over the fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickSummary {
    /// The world epoch this tick ran against.
    pub epoch: Epoch,
    /// Queries advanced.
    pub ticked: u64,
    /// Queries that detected an epoch bump and moved to the new
    /// snapshot before ticking — whether they dropped their guards or,
    /// after a delta epoch that touched none of them, kept them.
    pub rebinds: u64,
    /// Ticks that validated without any result change.
    pub valid: u64,
    /// Single-swap local repairs (update case (i)).
    pub swaps: u64,
    /// Multi-object local repairs (update case (ii)).
    pub local_reranks: u64,
    /// Full recomputations (update case (iii) / initial / post-rebind).
    pub recomputations: u64,
    /// Queries re-served without ticking (deadline policy only).
    pub stale: u64,
    /// Queries force-ticked at their held position because staleness
    /// exceeded the deadline policy's bound (subset of `ticked`).
    pub refreshed: u64,
}

impl TickSummary {
    fn absorb(&mut self, other: &TickSummary) {
        self.ticked += other.ticked;
        self.rebinds += other.rebinds;
        self.valid += other.valid;
        self.swaps += other.swaps;
        self.local_reranks += other.local_reranks;
        self.recomputations += other.recomputations;
        self.stale += other.stale;
        self.refreshed += other.refreshed;
    }

    fn record(&mut self, outcome: TickOutcome) {
        self.ticked += 1;
        match outcome {
            TickOutcome::Valid => self.valid += 1,
            TickOutcome::Swap => self.swaps += 1,
            TickOutcome::LocalRerank => self.local_reranks += 1,
            TickOutcome::Recompute => self.recomputations += 1,
        }
    }
}

/// Aggregated fleet statistics (see [`FleetEngine::stats`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetStats {
    /// Cumulative statistics merged per shard, in shard order.
    pub per_shard: Vec<QueryStats>,
    /// The fleet-wide totals (merge of `per_shard`).
    pub total: QueryStats,
    /// Live queries.
    pub queries: usize,
    /// Wall-clock time spent inside [`FleetEngine::tick`] (whatever the
    /// policy or wrapper) since engine creation or the last
    /// [`FleetEngine::reset_stats`].
    pub elapsed: Duration,
}

impl FleetStats {
    /// Fleet throughput: query-ticks processed per wall-clock second.
    pub fn ticks_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.total.ticks as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean validation operations per query-tick.
    pub fn validations_per_tick(&self) -> f64 {
        self.total.validation_ops_per_tick()
    }

    /// Fraction of query-ticks that needed a full recomputation.
    pub fn recompute_rate(&self) -> f64 {
        self.total.recompute_rate()
    }
}

/// A concurrent multi-query engine over one epoch-versioned [`World`].
///
/// `W` is the world snapshot payload, `Q` the fleet client type (see
/// [`crate::InsFleetQuery`] / [`crate::NetFleetQuery`]).
#[derive(Debug)]
pub struct FleetEngine<W, Q: FleetQuery<W>> {
    world: Arc<World<W>>,
    shards: Vec<Vec<Entry<Q>>>,
    /// One search scratch per worker, persistent across ticks — every
    /// per-query search transient (frontier heaps, visited marks,
    /// distance slots) of the shards a worker drains runs through it, so
    /// steady-state ticks allocate nothing. A scratch grows to the size
    /// of the index, so there are only as many as a tick has workers.
    scratches: Vec<Q::Scratch>,
    /// Per-shard tick summaries, reused across ticks.
    summaries: Vec<TickSummary>,
    /// Per-shard disposition buffers of a recording tick, reused across
    /// ticks like `summaries` (a served tick allocates nothing once they
    /// have grown to the shard sizes).
    records: Vec<Vec<(QueryId, TickDisposition)>>,
    threads: usize,
    next_id: u64,
    len: usize,
    elapsed: Duration,
}

impl<W, Q> FleetEngine<W, Q>
where
    W: Send + Sync,
    Q: FleetQuery<W>,
{
    /// Creates an engine over `world` (shard/thread counts are clamped to
    /// at least 1).
    pub fn new(world: Arc<World<W>>, cfg: FleetConfig) -> FleetEngine<W, Q> {
        let shards = cfg.shards.max(1);
        // More workers than cores or shards buy nothing but scheduler
        // overhead; results are bit-identical at every worker count.
        let hw = std::thread::available_parallelism().map_or(usize::MAX, |p| p.get());
        let workers = cfg.threads.max(1).min(shards).min(hw);
        FleetEngine {
            world,
            shards: (0..shards).map(|_| Vec::new()).collect(),
            scratches: (0..workers).map(|_| Q::Scratch::default()).collect(),
            summaries: vec![TickSummary::default(); shards],
            records: vec![Vec::new(); shards],
            threads: cfg.threads.max(1),
            next_id: 0,
            len: 0,
            elapsed: Duration::ZERO,
        }
    }

    /// The shared world.
    pub fn world(&self) -> &Arc<World<W>> {
        &self.world
    }

    /// Number of live queries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured worker cap of a tick (see [`FleetConfig::threads`]
    /// for how a tick clamps it).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Registers a query; returns its id. Ids are sequential from 0, so
    /// while no query is deregistered, `QueryId::index` doubles as a
    /// dense index into caller-side position tables.
    ///
    /// The query is bound to *this* engine's world snapshot on insert —
    /// epochs are world-relative, so a query created against a different
    /// `World` could otherwise carry a matching epoch number and keep
    /// answering from the wrong data set undetected. A freshly created
    /// (never ticked) query pays nothing for this; a warm query pays one
    /// recomputation at its next tick.
    pub fn register(&mut self, mut query: Q) -> QueryId {
        let (epoch, snapshot) = self.world.snapshot();
        query.bind(epoch, &snapshot, None);
        let id = QueryId(self.next_id);
        self.next_id += 1;
        let shard = id.index() % self.shards.len();
        self.shards[shard].push(Entry {
            id,
            query,
            stale: 0,
        });
        self.len += 1;
        id
    }

    /// Removes a query, returning it (with its cumulative statistics).
    pub fn deregister(&mut self, id: QueryId) -> Option<Q> {
        let shard_at = id.index() % self.shards.len();
        let shard = &mut self.shards[shard_at];
        let at = shard.iter().position(|e| e.id == id)?;
        self.len -= 1;
        Some(shard.remove(at).query)
    }

    /// Read access to a live query.
    pub fn query(&self, id: QueryId) -> Option<&Q> {
        self.shards[id.index() % self.shards.len()]
            .iter()
            .find(|e| e.id == id)
            .map(|e| &e.query)
    }

    /// Visits every live query in shard order (registration order within
    /// a shard) — the same deterministic order
    /// [`FleetEngine::tick`] feeds its sink in, so results of a
    /// tick can be paired with their queries in one O(n) pass instead of
    /// n per-id [`FleetEngine::query`] scans.
    pub fn for_each_query(&self, mut f: impl FnMut(QueryId, &Q)) {
        for shard in &self.shards {
            for e in shard {
                f(e.id, &e.query);
            }
        }
    }

    /// All live query ids, ascending.
    pub fn ids(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = self
            .shards
            .iter()
            .flat_map(|s| s.iter().map(|e| e.id))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Advances the fleet one timestamp under an explicit [`TickPolicy`]
    /// — the one tick entry point behind every serving mode.
    ///
    /// `positions` maps a query id to its [`TickPos`] for this tick; it
    /// is called from worker threads and must be pure (same id → same
    /// answer within one call). `sink` receives one [`TickDisposition`]
    /// per live query, in deterministic shard order. Queries that
    /// actually tick and are bound to an older epoch than the world's
    /// current one are rebound first (paying a recomputation on this
    /// tick, unless the epoch is a delta that touched nothing they hold
    /// — see [`FleetQuery::bind`]); re-served queries keep their old
    /// snapshot until the policy forces a refresh.
    ///
    /// # Panics
    ///
    /// Under [`TickPolicy::Barrier`], if `positions` returns anything
    /// but [`TickPos::Fresh`] for a live query.
    pub fn tick<F, K>(&mut self, policy: TickPolicy, positions: F, sink: &mut K) -> TickSummary
    where
        F: Fn(QueryId) -> TickPos<Q::Pos> + Sync,
        K: TickSink + ?Sized,
    {
        if K::RECORDS {
            let summary = self.tick_sharded::<F, true>(policy, positions);
            for &(id, disposition) in self.records.iter().flatten() {
                sink.record(id, disposition);
            }
            summary
        } else {
            self.tick_sharded::<F, false>(policy, positions)
        }
    }

    /// Advances every query to its position for this timestamp — the
    /// [`TickPolicy::Barrier`] convenience wrapper over
    /// [`FleetEngine::tick`] with a non-recording sink (its hot path is
    /// unchanged: recording compiles away entirely).
    ///
    /// `positions` maps a query id to its new position; it is called from
    /// worker threads and must be pure (same id → same position within
    /// one call). Queries bound to an older epoch than the world's
    /// current one are rebound first (paying a recomputation on this
    /// tick), so a [`World::publish`] between ticks reaches the whole
    /// fleet exactly once.
    pub fn tick_all<F>(&mut self, positions: F) -> TickSummary
    where
        F: Fn(QueryId) -> Q::Pos + Sync,
    {
        self.tick(
            TickPolicy::Barrier,
            |id| TickPos::Fresh(positions(id)),
            &mut (),
        )
    }

    /// The one tick loop behind every policy. With `RECORD`, every
    /// query's disposition is left in `self.records`, per shard; without
    /// it recording compiles away.
    fn tick_sharded<F, const RECORD: bool>(
        &mut self,
        policy: TickPolicy,
        positions: F,
    ) -> TickSummary
    where
        F: Fn(QueryId) -> TickPos<Q::Pos> + Sync,
    {
        let t0 = Instant::now();
        let (epoch, snapshot, touched) = self.world.snapshot_traced();
        let touched = touched.as_deref();
        let n_shards = self.shards.len();
        self.summaries.clear();
        self.summaries.resize(n_shards, TickSummary::default());

        // Pre-tick bookkeeping shared by every path that actually
        // advances a query: reset staleness, rebind if the epoch moved.
        let tick_entry = |entry: &mut Entry<Q>, out: &mut TickSummary| {
            entry.stale = 0;
            if entry.query.bound_epoch() != epoch {
                entry.query.bind(epoch, &snapshot, touched);
                out.rebinds += 1;
            }
        };
        let tick_shard = |shard: &mut Vec<Entry<Q>>,
                          scratch: &mut Q::Scratch,
                          out: &mut TickSummary,
                          rec: &mut Vec<(QueryId, TickDisposition)>| {
            out.epoch = epoch;
            rec.clear();
            let mut record = |id: QueryId, disposition: TickDisposition| {
                if RECORD {
                    rec.push((id, disposition));
                }
            };
            match policy {
                TickPolicy::Barrier => {
                    for entry in shard.iter_mut() {
                        let TickPos::Fresh(pos) = positions(entry.id) else {
                            panic!("TickPolicy::Barrier requires a fresh position for every live query");
                        };
                        tick_entry(entry, out);
                        let outcome = entry.query.tick_with(scratch, pos);
                        out.record(outcome);
                        record(entry.id, TickDisposition::Fresh(outcome));
                    }
                }
                TickPolicy::Deadline { max_staleness } => {
                    for entry in shard.iter_mut() {
                        match positions(entry.id) {
                            TickPos::Fresh(pos) => {
                                tick_entry(entry, out);
                                let outcome = entry.query.tick_with(scratch, pos);
                                out.record(outcome);
                                record(entry.id, TickDisposition::Fresh(outcome));
                            }
                            TickPos::Held(pos) => {
                                entry.stale += 1;
                                if entry.stale > max_staleness {
                                    tick_entry(entry, out);
                                    let outcome = entry.query.tick_with(scratch, pos);
                                    out.record(outcome);
                                    out.refreshed += 1;
                                    record(entry.id, TickDisposition::Refreshed(outcome));
                                } else {
                                    out.stale += 1;
                                    record(entry.id, TickDisposition::Stale);
                                }
                            }
                            TickPos::Missing => {
                                entry.stale += 1;
                                out.stale += 1;
                                record(entry.id, TickDisposition::Stale);
                            }
                        }
                    }
                }
            }
        };

        // One work item per shard, in shard order.
        let work = self
            .shards
            .iter_mut()
            .zip(self.summaries.iter_mut())
            .zip(self.records.iter_mut());
        // One worker per scratch, the caller first; a fleet below
        // `INLINE_TICK_BELOW` does not pay for a spawn at all.
        let (scratch, spawned) = self.scratches.split_first_mut().expect("new() makes one");
        if self.len < INLINE_TICK_BELOW || spawned.is_empty() {
            for ((shard, out), rec) in work {
                tick_shard(shard, scratch, out, rec);
            }
        } else {
            // Every worker takes the next shard whenever it is free, and
            // the caller is one of the workers. With a fixed block per
            // spawned worker and the caller asleep a tick lasts as long
            // as its unluckiest block — the kernel may start two workers
            // on one core, or take a core away for a moment — and on a
            // two-core host that was one tick in ten. Which worker ticks
            // a shard changes nothing the shard computes, so results
            // stay bit-identical, whichever worker's scratch serves it.
            // The guard is released before the shard is ticked: a
            // panicking query cannot poison the queue.
            let work = Mutex::new(work);
            let drain = |scratch: &mut Q::Scratch| loop {
                let next = work.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some(((shard, out), rec)) = next else {
                    break;
                };
                tick_shard(shard, scratch, out, rec);
            };
            std::thread::scope(|scope| {
                for scratch in spawned {
                    scope.spawn(move || drain(scratch));
                }
                drain(scratch);
            });
        }

        // Merge in shard order: identical totals at any thread count.
        let mut summary = TickSummary {
            epoch,
            ..TickSummary::default()
        };
        for s in &self.summaries {
            summary.absorb(s);
        }
        self.elapsed += t0.elapsed();
        summary
    }

    /// Aggregated fleet statistics: per-shard [`QueryStats`] merges (in
    /// shard order) plus the fleet-wide total — deterministic at any
    /// thread count.
    pub fn stats(&self) -> FleetStats {
        let per_shard: Vec<QueryStats> = self
            .shards
            .iter()
            .map(|shard| {
                let mut merged = QueryStats::default();
                for e in shard {
                    merged.merge(e.query.stats());
                }
                merged
            })
            .collect();
        let mut total = QueryStats::default();
        for s in &per_shard {
            total.merge(s);
        }
        FleetStats {
            per_shard,
            total,
            queries: self.len,
            elapsed: self.elapsed,
        }
    }

    /// Clears every query's statistics (keeps query state).
    pub fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            for e in shard {
                e.query.reset_stats();
            }
        }
        self.elapsed = Duration::ZERO;
    }
}
