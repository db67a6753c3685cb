//! # `sf-routing`
//!
//! Routing protocols for the String Figure memory-network reproduction
//! (HPCA 2019): the paper's compute+table hybrid *greediest* routing with
//! adaptive first-hop selection and virtual-channel deadlock avoidance, plus
//! the baseline protocols used in its evaluation (greedy/adaptive mesh routing
//! and minimal look-up-table routing for FB/AFB/Jellyfish). The S2 baseline
//! routes with greediest routing, first-hop adaptivity off.
//!
//! ## Modules
//!
//! * [`protocol`] — the [`RoutingProtocol`] trait, load estimators, and
//!   [`trace_route`] for hop-by-hop protocol walks.
//! * [`table`] — the per-router routing table of one- and two-hop
//!   neighbours and their coordinates, with the paper's per-entry storage
//!   cost.
//! * [`greediest`] — String Figure's adaptive greediest routing (and S2's,
//!   without first-hop adaptivity).
//! * [`mesh`] — greedy + adaptive mesh routing (DM/ODM).
//! * [`shortest_path`] — minimal look-up-table routing (FB, AFB, Jellyfish).
//!
//! ## Example
//!
//! ```
//! use sf_routing::{trace_route, GreediestRouting};
//! use sf_topology::StringFigureTopology;
//! use sf_types::{NetworkConfig, NodeId};
//!
//! let topology = StringFigureTopology::generate(&NetworkConfig::new(128, 4)?)?;
//! let routing = GreediestRouting::new(&topology);
//! let route = trace_route(&routing, NodeId::new(0), NodeId::new(100), 128)?;
//! assert!(!route.has_loop());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod greediest;
pub mod mesh;
pub mod protocol;
pub mod shortest_path;
pub mod table;

pub use greediest::{GreediestOptions, GreediestRouting};
pub use mesh::MeshRouting;
pub use protocol::{
    trace_route, trace_route_with_loads, PortLoadEstimator, RouteTrace, RoutingContext,
    RoutingProtocol, TableLoad, ZeroLoad,
};
pub use shortest_path::ShortestPathRouting;
pub use table::{CandidateNeighbor, HopCount, RoutingTable, RoutingTableEntry};
