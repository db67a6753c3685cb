//! Baseline memory-network topologies the paper compares against.
//!
//! * [`mesh`] — Distributed Mesh (DM) and Optimized Distributed Mesh (ODM)
//!   with express links, the best-performing topology of earlier memory
//!   network studies.
//! * [`flattened_butterfly`] — 2D Flattened Butterfly (FB) and the
//!   bisection-matched Adapted FB (AFB) with partitioned rows/columns.
//! * [`s2`] — Space Shuffle (S2-ideal): String Figure's multi-space random
//!   rings without shortcuts or reconfigurability.
//! * [`jellyfish`] — a sufficiently-uniform random regular graph, used for
//!   the Figure 5 path-length comparison.
//!
//! All baselines expose their link structure as an [`AdjacencyGraph`]
//! through the [`MemoryNetworkTopology`] trait so that path-length analysis,
//! bisection measurement, and the cycle-level simulator treat every topology
//! uniformly.

pub mod flattened_butterfly;
pub mod jellyfish;
pub mod mesh;
pub mod s2;

pub use flattened_butterfly::FlattenedButterfly;
pub use jellyfish::JellyfishTopology;
pub use mesh::MeshTopology;
pub use s2::S2Topology;

use crate::graph::AdjacencyGraph;

/// Common interface over every memory-network topology in this crate
/// (String Figure and all baselines).
pub trait MemoryNetworkTopology {
    /// Short human-readable name used in experiment output (e.g. `"SF"`,
    /// `"ODM"`, `"AFB"`).
    fn name(&self) -> &'static str;

    /// The live link graph of the topology.
    fn graph(&self) -> &AdjacencyGraph;

    /// Number of router ports a node needs in this topology (excluding the
    /// terminal port towards the local memory stack / processor).
    fn router_ports(&self) -> usize;

    /// Number of memory nodes.
    fn num_nodes(&self) -> usize {
        self.graph().num_nodes()
    }

    /// Whether the topology supports reconfigurable (elastic) scaling without
    /// regenerating topology and routing state (Table II's last column).
    fn supports_reconfiguration(&self) -> bool {
        false
    }

    /// Whether the topology requires high-radix routers whose port count
    /// grows with network size (Table II).
    fn requires_high_radix(&self) -> bool {
        false
    }
}

impl MemoryNetworkTopology for crate::stringfigure::StringFigureTopology {
    fn name(&self) -> &'static str {
        "SF"
    }

    fn graph(&self) -> &AdjacencyGraph {
        self.graph()
    }

    fn router_ports(&self) -> usize {
        self.config().ports
    }

    fn supports_reconfiguration(&self) -> bool {
        true
    }
}
