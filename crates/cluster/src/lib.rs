//! # insq-cluster
//!
//! Scaling the INSQ system out: spatial partitioning, multi-world
//! sharding, and transparent client handoff over the wire.
//!
//! One INSQ server maintains exact moving-kNN results for a fleet of
//! clients over one index. This crate splits that one world into N
//! **regional** worlds along a pluggable
//! [`Partitioner`](insq_server::Partitioner) map, and layers the
//! machinery to make the split invisible:
//!
//! * [`ClusterPlan`] — the membership + id layer. Decides which global
//!   sites each region replicates (its home cells plus an **overlap
//!   margin** band), keeps the region-local ↔ global id tables, and
//!   [`ClusterPlan::split`]s a global `SiteDelta` into per-region local
//!   deltas that mirror the index's pinned-id swap-remove semantics —
//!   so delta epochs route to affected regions only.
//! * [`PartitionGroup`] — N `FleetEngine`s in one process behind one
//!   position-routed registry. Border crossings become **handoffs**
//!   (deregister + re-register, one recomputation — the same cost the
//!   INS protocol already pays for an epoch rebind); every per-tick
//!   result carries global ids and an explicit *certified* bit from the
//!   overlap-margin contract.
//! * [`RouterServer`] — the wire front-end. Speaks the ordinary
//!   `insq-net` protocol to clients and multiplexes them, tagged by
//!   session, over one connection per backend partition server, rewriting
//!   site ids and performing mid-session handoff on one uninterrupted
//!   connection — one session, one result stream, per-region epoch
//!   notifies.
//!
//! ## The overlap-margin correctness contract
//!
//! A region replicates every site within Euclidean distance `margin` of
//! its cells. For a query homed in the region, every site within
//! `margin` of the query is therefore present locally, so whenever the
//! locally exact k-th neighbor lies within `margin` (and a full k
//! exist) the local result **is** the global result — same ids, same
//! order. Results are *certified* exactly when that check passes;
//! otherwise they are still exact over the replicated set but flagged
//! (`FLAG_UNCERTIFIED` on the wire) — degraded near borders is loud,
//! never silent.

#![warn(missing_docs)]

pub mod group;
pub mod plan;
pub mod router;

pub use group::{ClientId, ClientResult, PartitionGroup};
pub use plan::{ClusterError, ClusterPlan};
pub use router::{RouterConfig, RouterServer};
