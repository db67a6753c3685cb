//! # `sf-netsim`
//!
//! Cycle-level memory-network simulator for the String Figure reproduction
//! (HPCA 2019). The paper evaluates its design with synthesisable RTL models;
//! this crate substitutes a packet-granularity, credit-based, input-queued
//! router simulator that reproduces the metrics the paper reports — average
//! packet latency, network saturation, throughput, and dynamic energy — on
//! top of the same topology, routing, timing, and energy parameters
//! (Table I).
//!
//! Since the `sf-simcore` refactor the simulation engine itself lives in
//! [`sf_simcore`]: a deterministic kernel that runs each simulation on one
//! thread. This crate is the stable facade —
//! [`NetworkSimulator`] keeps its original API and the packet/memory/stats
//! modules are re-exported from the kernel crate, so downstream code is
//! unaffected by where the engine lives.
//!
//! ## Modules
//!
//! * [`packet`] — packets, packet kinds/sizes, and the [`TrafficModel`] trait
//!   the workload generators implement (re-exported from `sf-simcore`).
//! * [`memory`] — the per-node DRAM service model (row-buffer behaviour and
//!   Table I timing; re-exported from `sf-simcore`).
//! * [`simulator`] — the [`NetworkSimulator`] facade over the kernel.
//! * [`stats`] — [`SimulationStats`] and derived metrics (latency, accepted
//!   throughput, energy-delay product, saturation heuristic; re-exported from
//!   `sf-simcore`).
//!
//! ## Example
//!
//! ```
//! use sf_netsim::{NetworkSimulator, UniformRandomTraffic};
//! use sf_routing::GreediestRouting;
//! use sf_topology::StringFigureTopology;
//! use sf_types::{NetworkConfig, SimulationConfig, SystemConfig};
//!
//! let topology = StringFigureTopology::generate(&NetworkConfig::new(32, 4)?)?;
//! let mut simulator = NetworkSimulator::new(
//!     topology.graph().clone(),
//!     Box::new(GreediestRouting::new(&topology)),
//!     SystemConfig::default(),
//!     SimulationConfig { max_cycles: 1_000, warmup_cycles: 100, ..SimulationConfig::default() },
//! )?;
//! let stats = simulator.run(&mut UniformRandomTraffic::new(32, 0.02, 1))?;
//! assert!(stats.delivery_ratio() > 0.9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod simulator;

pub use sf_obs::telemetry;
pub use sf_simcore::memory;
pub use sf_simcore::packet;
pub use sf_simcore::stats;

pub use memory::{MemoryNodeModel, MemoryNodeStats};
pub use packet::{Packet, PacketKind, TrafficModel, TrafficRequest};
pub use simulator::{NetworkSimulator, UniformRandomTraffic};
pub use stats::SimulationStats;
