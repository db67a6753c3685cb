//! # `sf-simcore`
//!
//! Deterministic cycle-level simulation kernel for the String Figure
//! reproduction (HPCA 2019).
//!
//! One simulation runs on one thread: a cycle routes routers 0..N in id
//! order, and the result is a pure function of the topology, the routing
//! protocol, the configuration and the traffic model's seed. Parallelism
//! lives one level up, in `sf-harness`, which spreads the points of a sweep
//! over its workers. See [`kernel`] for the phase order of a cycle.
//!
//! ## Modules
//!
//! * [`packet`] — packets, packet kinds/sizes, and the [`TrafficModel`] trait
//!   the workload generators implement.
//! * [`memory`] — the per-node DRAM service model (row-buffer behaviour and
//!   Table I timing).
//! * [`pool`] — index-linked free-list slabs ([`pool::Pool`], [`pool::List`],
//!   [`pool::InFlightPool`]) that make steady-state cycles allocation-free.
//! * [`kernel`] — the [`ShardedSimulator`] itself.
//! * [`stats`] — [`SimulationStats`] and derived metrics (latency, accepted
//!   throughput, energy-delay product, saturation heuristic).
//!
//! Downstream code normally consumes this crate through the `sf-netsim`
//! facade, which keeps the original `NetworkSimulator` API.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod kernel;
pub mod memory;
pub mod packet;
pub mod pool;
pub mod stats;

pub use kernel::{ShardedSimulator, UniformRandomTraffic};
pub use memory::{MemoryNodeModel, MemoryNodeStats};
pub use packet::{Packet, PacketKind, TrafficModel, TrafficRequest};
pub use stats::SimulationStats;
