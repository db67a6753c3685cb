//! # `sf-types`
//!
//! Shared vocabulary types for the String Figure memory-network reproduction
//! (Ogleari et al., *String Figure: A Scalable and Elastic Memory Network
//! Architecture*, HPCA 2019).
//!
//! The crate is deliberately dependency-light: every other crate in the
//! workspace (`sf-topology`, `sf-routing`, `sf-netsim`, `sf-workloads`,
//! `stringfigure`) builds on the identifiers, coordinates, configuration
//! structures, error types, and deterministic random number generator defined
//! here.
//!
//! ## Contents
//!
//! * [`ids`] — strongly-typed identifiers for memory nodes, router ports,
//!   virtual spaces, and virtual channels.
//! * [`coord`] — virtual-space coordinates and the circular distance `D` and
//!   minimum circular distance `MD` metrics at the heart of greediest routing.
//! * [`config`] — the paper's Table I system configuration (DRAM timing,
//!   link bandwidth, SerDes latency, energy-per-bit constants) plus network
//!   construction and simulation parameters.
//! * [`fault`] — deterministic fault-injection plans: link-down and router
//!   power-gate schedules that are pure functions of `(seed, cycle)`, so
//!   fault scenarios stay bit-identical for any sweep worker count.
//! * [`rng`] — a small, fully deterministic xoshiro256** generator used for
//!   reproducible topology generation and workload synthesis, and the
//!   [`Zipf`] sampler the key-value and graph workloads draw keys from.
//! * [`error`] — the shared [`SfError`] error type.
//!
//! ## Example
//!
//! ```
//! use sf_types::coord::{Coordinate, circular_distance};
//!
//! let a = Coordinate::new(0.10).unwrap();
//! let b = Coordinate::new(0.95).unwrap();
//! // Wrap-around distance on the unit ring: 0.15, not 0.85.
//! assert!((circular_distance(a, b) - 0.15).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod config;
pub mod coord;
pub mod error;
pub mod fault;
pub mod ids;
pub mod rng;

pub use config::{DramTiming, EnergyModel, NetworkConfig, SimulationConfig, SystemConfig};
pub use coord::{circular_distance, minimum_circular_distance, Coordinate, CoordinateVector};
pub use error::{SfError, SfResult};
pub use fault::FaultPlan;
pub use ids::{NodeId, PortId, SpaceId, VirtualChannelId};
pub use rng::{DeterministicRng, Zipf};
