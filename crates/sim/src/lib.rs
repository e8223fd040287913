//! # insq-sim
//!
//! The INSQ *demonstration system* substrate, headless: a discrete-time
//! [`engine`] that drives any `MovingKnn` processor along a trajectory,
//! an event [`journal`] capturing exactly the state the Swing UI
//! visualised (kNN membership, INS membership, valid/invalid transitions),
//! an ASCII [`render`]er standing in for the UI itself, and [`stats`]
//! tables comparing methods over a common scenario.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod journal;
pub mod render;
pub mod stats;

pub use engine::{run_euclidean, run_network};
pub use journal::{RunRecord, TickRecord};
pub use render::{render_euclidean, render_network, Canvas};
pub use stats::{Comparison, Row};
