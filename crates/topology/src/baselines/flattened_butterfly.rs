//! Flattened Butterfly (FB) and Adapted Flattened Butterfly (AFB) baselines.
//!
//! A 2D flattened butterfly places nodes on an `a x b` grid and fully connects
//! every row and every column, giving one- or two-hop paths between any pair
//! at the cost of high-radix routers (`(a-1) + (b-1)` ports) whose port count
//! grows with network scale — exactly the scaling cost the paper criticises.
//!
//! The *adapted* FB (AFB) is the paper's bisection-matched variant: each row
//! and column is partitioned into contiguous groups that are fully connected
//! internally, with single bridge links between adjacent groups. This roughly
//! halves the router radix (Figure 8's AFB port counts) while preserving the
//! low-diameter structure.

use crate::baselines::MemoryNetworkTopology;
use crate::graph::{AdjacencyGraph, EdgeKind};
use serde::{Deserialize, Serialize};
use sf_types::{NodeId, SfError, SfResult};

/// A 2D flattened-butterfly topology, optionally partitioned (AFB).
///
/// # Examples
///
/// ```
/// use sf_topology::baselines::{FlattenedButterfly, MemoryNetworkTopology};
///
/// let fb = FlattenedButterfly::full(64)?;
/// // Any two nodes are at most two hops apart in a full 2D FB.
/// let stats = sf_topology::analysis::path_length_stats(fb.graph());
/// assert!(stats.diameter <= 2);
///
/// let afb = FlattenedButterfly::adapted(64)?;
/// assert!(afb.router_ports() < fb.router_ports());
/// # Ok::<(), sf_types::SfError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlattenedButterfly {
    rows: usize,
    cols: usize,
    partitions: usize,
    graph: AdjacencyGraph,
    name: &'static str,
}

impl FlattenedButterfly {
    /// Builds a full 2D flattened butterfly (every row and column is a
    /// clique).
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] if fewer than 2 nodes are
    /// requested.
    pub fn full(nodes: usize) -> SfResult<Self> {
        Self::build(nodes, 1, "FB")
    }

    /// Builds an adapted (partitioned) flattened butterfly with each row and
    /// column split into two groups.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] if fewer than 2 nodes are
    /// requested.
    pub fn adapted(nodes: usize) -> SfResult<Self> {
        Self::build(nodes, 2, "AFB")
    }

    fn build(nodes: usize, partitions: usize, name: &'static str) -> SfResult<Self> {
        if nodes < 2 {
            return Err(SfError::InvalidConfiguration {
                reason: format!("a flattened butterfly needs at least 2 nodes, got {nodes}"),
            });
        }
        let cols = (nodes as f64).sqrt().ceil() as usize;
        let rows = nodes.div_ceil(cols);
        let mut graph = AdjacencyGraph::new(nodes);
        let exists = |r: usize, c: usize| r * cols + c < nodes;
        let id = |r: usize, c: usize| NodeId::new(r * cols + c);

        // Group index of a coordinate along one dimension of length `len`.
        let group = |idx: usize, len: usize| idx / len.div_ceil(partitions);

        // Rows: connect all pairs within the same group; bridge adjacent cells
        // across group boundaries to keep the row connected.
        for r in 0..rows {
            for c1 in 0..cols {
                if !exists(r, c1) {
                    continue;
                }
                for c2 in c1 + 1..cols {
                    if !exists(r, c2) {
                        continue;
                    }
                    let same_group = group(c1, cols) == group(c2, cols);
                    let bridge = c2 == c1 + 1;
                    if same_group || bridge {
                        graph.add_edge(id(r, c1), id(r, c2), EdgeKind::Structured)?;
                    }
                }
            }
        }
        // Columns: same scheme.
        for c in 0..cols {
            for r1 in 0..rows {
                if !exists(r1, c) {
                    continue;
                }
                for r2 in r1 + 1..rows {
                    if !exists(r2, c) {
                        continue;
                    }
                    let same_group = group(r1, rows) == group(r2, rows);
                    let bridge = r2 == r1 + 1;
                    if same_group || bridge {
                        graph.add_edge(id(r1, c), id(r2, c), EdgeKind::Structured)?;
                    }
                }
            }
        }

        Ok(Self {
            rows,
            cols,
            partitions,
            graph,
            name,
        })
    }

    /// Number of grid rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of grid columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Grid coordinates `(row, col)` of a node.
    #[must_use]
    pub fn position(&self, node: NodeId) -> (usize, usize) {
        (node.index() / self.cols, node.index() % self.cols)
    }
}

impl MemoryNetworkTopology for FlattenedButterfly {
    fn name(&self) -> &'static str {
        self.name
    }

    fn graph(&self) -> &AdjacencyGraph {
        &self.graph
    }

    fn router_ports(&self) -> usize {
        self.graph.max_degree()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::path_length_stats;

    #[test]
    fn full_fb_has_diameter_two() {
        for nodes in [16, 61, 64, 100] {
            let fb = FlattenedButterfly::full(nodes).unwrap();
            assert!(fb.graph().is_connected(), "N={nodes}");
            let stats = path_length_stats(fb.graph());
            assert!(stats.diameter <= 2, "N={nodes} diameter {}", stats.diameter);
        }
    }

    #[test]
    fn full_fb_radix_grows_with_scale() {
        let small = FlattenedButterfly::full(64).unwrap();
        let large = FlattenedButterfly::full(1024).unwrap();
        assert!(large.router_ports() > small.router_ports());
        // 32x32 grid: radix = 31 + 31 = 62.
        assert_eq!(large.router_ports(), 62);
    }

    #[test]
    fn adapted_fb_reduces_radix() {
        let fb = FlattenedButterfly::full(256).unwrap();
        let afb = FlattenedButterfly::adapted(256).unwrap();
        assert!(afb.router_ports() < fb.router_ports());
        assert!(afb.graph().num_edges() < fb.graph().num_edges());
        assert!(afb.graph().is_connected());
        assert_eq!(afb.name(), "AFB");
        // Partitioning lengthens paths slightly but keeps them short.
        let stats = path_length_stats(afb.graph());
        assert!(stats.diameter <= 6);
    }

    #[test]
    fn non_square_counts_supported() {
        for nodes in [17, 61, 113] {
            let fb = FlattenedButterfly::full(nodes).unwrap();
            assert_eq!(fb.graph().num_nodes(), nodes);
            assert!(fb.graph().is_connected());
            let afb = FlattenedButterfly::adapted(nodes).unwrap();
            assert!(afb.graph().is_connected());
        }
    }

    #[test]
    fn positions_are_consistent() {
        let fb = FlattenedButterfly::full(20).unwrap();
        let (r, c) = fb.position(NodeId::new(7));
        assert_eq!(r * fb.cols() + c, 7);
    }

    #[test]
    fn too_small_rejected() {
        assert!(FlattenedButterfly::full(1).is_err());
    }
}
