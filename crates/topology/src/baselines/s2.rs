//! Space Shuffle (S2-ideal) baseline.
//!
//! S2 (Yu & Qian, ICNP'14) is the data-center network design String Figure is
//! inspired by: nodes are placed on multiple random coordinate rings and
//! routed with greedy coordinate routing. S2 however has no shortcuts and no
//! support for down-scaling — resizing requires regenerating the topology and
//! every routing table, which is impractical for pre-fabricated memory
//! networks. The paper therefore evaluates it as an *ideal* (impractical)
//! baseline called S2-ideal.
//!
//! Here S2 is modelled as a String Figure topology with shortcut fabrication
//! disabled, which matches its construction (multi-space random rings plus
//! free-port pairing).

use crate::baselines::MemoryNetworkTopology;
use crate::graph::AdjacencyGraph;
use crate::spaces::VirtualSpaces;
use crate::stringfigure::StringFigureTopology;
use serde::{Deserialize, Serialize};
use sf_types::{CoordinateVector, NetworkConfig, NodeId, SfResult};

/// The S2-ideal baseline topology (multi-space random rings, no shortcuts, no
/// reconfiguration support).
///
/// # Examples
///
/// ```
/// use sf_topology::baselines::{MemoryNetworkTopology, S2Topology};
/// use sf_types::NetworkConfig;
///
/// let s2 = S2Topology::generate(&NetworkConfig::new(64, 4)?)?;
/// assert_eq!(s2.name(), "S2");
/// assert!(s2.graph().is_connected());
/// # Ok::<(), sf_types::SfError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct S2Topology {
    inner: StringFigureTopology,
}

impl S2Topology {
    /// Generates an S2 topology for the given configuration (the `shortcuts`
    /// flag is ignored and forced off).
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors from
    /// [`StringFigureTopology::generate`].
    pub fn generate(config: &NetworkConfig) -> SfResult<Self> {
        let config = config.clone().with_shortcuts(false);
        Ok(Self {
            inner: StringFigureTopology::generate(&config)?,
        })
    }

    /// Virtual spaces (coordinates and rings) of this topology.
    #[must_use]
    pub fn spaces(&self) -> &VirtualSpaces {
        self.inner.spaces()
    }

    /// Coordinate vector of a node.
    #[must_use]
    pub fn coordinates(&self, node: NodeId) -> &CoordinateVector {
        self.inner.coordinates(node)
    }

    /// The underlying String Figure construction (without shortcuts).
    #[must_use]
    pub fn as_string_figure(&self) -> &StringFigureTopology {
        &self.inner
    }
}

impl MemoryNetworkTopology for S2Topology {
    fn name(&self) -> &'static str {
        "S2"
    }

    fn graph(&self) -> &AdjacencyGraph {
        self.inner.graph()
    }

    fn router_ports(&self) -> usize {
        self.inner.config().ports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::average_shortest_path_length;

    #[test]
    fn s2_has_no_shortcuts() {
        let s2 = S2Topology::generate(&NetworkConfig::new(128, 4).unwrap()).unwrap();
        assert!(s2.as_string_figure().shortcut_wires().is_empty());
        assert!(s2.graph().is_connected());
        assert_eq!(s2.router_ports(), 4);
    }

    #[test]
    fn s2_and_sf_have_similar_path_lengths() {
        // Figure 5's claim: SF matches the path-length scaling of S2.
        let config = NetworkConfig::new(200, 8).unwrap();
        let s2 = S2Topology::generate(&config).unwrap();
        let sf = StringFigureTopology::generate(&config).unwrap();
        let a = average_shortest_path_length(s2.graph());
        let b = average_shortest_path_length(sf.graph());
        assert!((a - b).abs() < 0.6, "S2 {a} vs SF {b}");
    }

    #[test]
    fn coordinates_accessible() {
        let s2 = S2Topology::generate(&NetworkConfig::new(32, 4).unwrap()).unwrap();
        assert_eq!(s2.coordinates(NodeId::new(5)).num_spaces(), 2);
        assert_eq!(s2.spaces().num_nodes(), 32);
    }
}
