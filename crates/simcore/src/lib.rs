//! # `sf-simcore`
//!
//! Sharded deterministic cycle-level simulation kernel for the String Figure
//! reproduction (HPCA 2019).
//!
//! `sf-harness` (the sweep engine) parallelises *across* experiment points;
//! this crate parallelises *inside* one simulation. A paper-scale run — 1296
//! memory nodes for tens of thousands of cycles — is a single sweep job, and
//! before this crate existed it saturated exactly one core. The kernel
//! partitions the routers into K shards with their own queues and worker
//! threads, synchronised at cycle boundaries, and keeps the result
//! **bit-identical for every K** (including K = 1, which reproduces the
//! original serial simulator exactly). See [`kernel`] for the full
//! determinism argument and [`shard`] for the wavefront schedule that makes
//! it work.
//!
//! The two parallelism layers share one core budget
//! (`sf_harness::budget`): when a sweep reserves its workers, automatic
//! shard selection sizes itself to the leftover cores, so nested parallelism
//! never oversubscribes the machine.
//!
//! ## Modules
//!
//! * [`packet`] — packets, packet kinds/sizes, and the [`TrafficModel`] trait
//!   the workload generators implement.
//! * [`memory`] — the per-node DRAM service model (row-buffer behaviour and
//!   Table I timing).
//! * [`shard`] — shard planning: round-robin ownership, per-router wait
//!   lists, and the shard-count resolution policy (explicit config, else
//!   the core budget).
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
pub mod shard;
pub mod stats;

pub use kernel::{ShardedSimulator, UniformRandomTraffic};
pub use memory::{MemoryNodeModel, MemoryNodeStats};
pub use packet::{Packet, PacketKind, TrafficModel, TrafficRequest};
pub use shard::{resolve_shard_count, ShardPlan};
pub use stats::SimulationStats;
