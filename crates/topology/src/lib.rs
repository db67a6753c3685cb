//! # `sf-topology`
//!
//! Memory-network topologies for the String Figure reproduction (HPCA 2019):
//! the String Figure balanced random multi-space topology itself, the baseline
//! topologies it is evaluated against, and the graph analysis used by the
//! paper's Figure 5 / Figure 9(a) path-length studies and the bisection
//! bandwidth methodology.
//!
//! ## Modules
//!
//! * [`graph`] — the shared [`AdjacencyGraph`] link structure with per-node
//!   activity flags and per-edge construction kinds.
//! * [`spaces`] — virtual spaces: balanced random coordinates and ring
//!   arithmetic.
//! * [`stringfigure`] — the String Figure topology builder with shortcut
//!   fabrication and elastic gate/un-gate reconfiguration.
//! * [`baselines`] — DM/ODM meshes, FB/AFB flattened butterflies, S2-ideal,
//!   and Jellyfish.
//! * [`analysis`] — BFS path-length statistics and empirical bisection
//!   bandwidth (max-flow over random node splits).
//! * [`placement`] — 2D-grid placement and wire-length modelling.
//!
//! ## Example
//!
//! ```
//! use sf_topology::{analysis, StringFigureTopology};
//! use sf_types::NetworkConfig;
//!
//! let config = NetworkConfig::new(128, 4)?;
//! let topology = StringFigureTopology::generate(&config)?;
//! let stats = analysis::path_length_stats(topology.graph());
//! assert!(stats.average < 6.0);
//! # Ok::<(), sf_types::SfError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod baselines;
pub mod graph;
pub mod placement;
pub mod spaces;
pub mod stringfigure;

pub use baselines::{
    FlattenedButterfly, JellyfishTopology, MemoryNetworkTopology, MeshTopology, S2Topology,
};
pub use graph::{AdjacencyGraph, Edge, EdgeKind};
pub use placement::{GridPlacement, GridPosition};
pub use spaces::VirtualSpaces;
pub use stringfigure::{ReconfigurationDelta, StringFigureTopology};
