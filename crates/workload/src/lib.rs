//! # insq-workload
//!
//! Deterministic workload generation for the INSQ system: data-object
//! distributions ([`Distribution`]), query trajectory models
//! ([`TrajectoryKind`]), and space-parameterized fleet generation
//! ([`SpaceWorkload`]): one [`FleetScenario`] materialises index
//! snapshots and client positions for every registered
//! `insq_core::Space` — plus the transposed,
//! client-side view ([`client_updates`]): the per-client
//! position-update streams a serving layer (`insq-net`) feeds over the
//! wire — and the dynamic-traffic workload ([`RushHour`]): correlated
//! hub-bound commuter tours plus alternating congest/clear weight
//! storms, the adversarial input for traffic delta epochs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod datasets;
pub mod fleet;
pub mod rush;
pub mod spaces;
pub mod stream;
pub mod trajectories;

pub use datasets::Distribution;
pub use fleet::FleetScenario;
pub use rush::RushHour;
pub use spaces::{NetFleet, SpaceWorkload};
pub use stream::{client_updates, UpdateStream};
pub use trajectories::TrajectoryKind;
