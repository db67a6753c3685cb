//! Generic adjacency-list graph shared by every memory-network topology.
//!
//! All topology builders in this crate (String Figure, mesh, flattened
//! butterfly, S2, Jellyfish) produce an [`AdjacencyGraph`]: a simple,
//! symmetric adjacency structure with per-node activity flags (used for power
//! gating / unmounted nodes) and per-edge metadata describing *why* the edge
//! exists ([`EdgeKind`]). Graph analysis ([`crate::analysis`]) and the network
//! simulator operate purely on this structure.

use serde::{Deserialize, Serialize};
use sf_types::{NodeId, SfError, SfResult, SpaceId};
use std::collections::BTreeSet;
use std::fmt;

/// Why an edge exists in a memory-network topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Adjacent nodes on the coordinate ring of one virtual space
    /// (the "basic balanced random topology" of String Figure / S2).
    RingNeighbor {
        /// Virtual space whose ring this edge belongs to.
        space: SpaceId,
    },
    /// Extra pairing of two nodes that had free ports left after ring
    /// construction (String Figure step 4).
    FreePortPairing,
    /// A String Figure shortcut to a 2-hop or 4-hop clockwise Space-0
    /// neighbour, used to keep throughput high after down-scaling.
    Shortcut {
        /// Ring distance (2 or 4) of the shortcut in Space-0.
        ring_hops: u8,
    },
    /// A reconfiguration link joining the two active ring neighbours of a
    /// gated node (the paper's "original two-hop neighbours are now one-hop
    /// neighbours"); it keeps every space's ring of active nodes intact so
    /// greediest routing keeps its progress guarantee.
    RingHealing {
        /// Virtual space whose ring this healing link repairs.
        space: SpaceId,
    },
    /// A regular edge of a structured baseline topology (mesh, flattened
    /// butterfly, Jellyfish random graph, ...).
    Structured,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RingNeighbor { space } => write!(f, "ring({space})"),
            Self::FreePortPairing => write!(f, "pairing"),
            Self::Shortcut { ring_hops } => write!(f, "shortcut({ring_hops}-hop)"),
            Self::RingHealing { space } => write!(f, "healing({space})"),
            Self::Structured => write!(f, "structured"),
        }
    }
}

/// An undirected edge between two memory nodes, with its construction kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Lower-numbered endpoint.
    pub a: NodeId,
    /// Higher-numbered endpoint.
    pub b: NodeId,
    /// Why this edge exists.
    pub kind: EdgeKind,
}

impl Edge {
    /// Creates a canonicalised edge (endpoints ordered so `a <= b`).
    #[must_use]
    pub fn new(u: NodeId, v: NodeId, kind: EdgeKind) -> Self {
        if u <= v {
            Self { a: u, b: v, kind }
        } else {
            Self { a: v, b: u, kind }
        }
    }

    /// Returns the endpoint opposite to `node`, or `None` if `node` is not an
    /// endpoint.
    #[must_use]
    pub fn other(&self, node: NodeId) -> Option<NodeId> {
        if node == self.a {
            Some(self.b)
        } else if node == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// Returns `true` if this edge connects the two given nodes (in either
    /// order).
    #[must_use]
    pub fn connects(&self, u: NodeId, v: NodeId) -> bool {
        (self.a == u && self.b == v) || (self.a == v && self.b == u)
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}--{} [{}]", self.a, self.b, self.kind)
    }
}

/// Symmetric adjacency-list graph over memory nodes with activity flags.
///
/// Inactive nodes model power-gated or not-yet-mounted memory nodes: they stay
/// in the structure (so they can be re-activated without rebuilding) but are
/// excluded from [`AdjacencyGraph::active_neighbors`] and from analysis.
///
/// # Examples
///
/// ```
/// use sf_topology::graph::{AdjacencyGraph, EdgeKind};
/// use sf_types::NodeId;
///
/// let mut g = AdjacencyGraph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), EdgeKind::Structured).unwrap();
/// g.add_edge(NodeId::new(1), NodeId::new(2), EdgeKind::Structured).unwrap();
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdjacencyGraph {
    num_nodes: usize,
    adjacency: Vec<BTreeSet<usize>>,
    edges: Vec<Edge>,
    active: Vec<bool>,
}

impl AdjacencyGraph {
    /// Creates an empty graph with `num_nodes` nodes (all active) and no edges.
    #[must_use]
    pub fn new(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            adjacency: vec![BTreeSet::new(); num_nodes],
            edges: Vec::new(),
            active: vec![true; num_nodes],
        }
    }

    /// Number of nodes (active and inactive).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of currently active nodes.
    #[must_use]
    pub fn num_active_nodes(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Number of undirected edges (regardless of endpoint activity).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Validates that a node id is within range.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::UnknownNode`] if out of range.
    pub fn check_node(&self, node: NodeId) -> SfResult<()> {
        if node.index() >= self.num_nodes {
            return Err(SfError::UnknownNode {
                node: node.index(),
                network_size: self.num_nodes,
            });
        }
        Ok(())
    }

    /// Adds an undirected edge between `u` and `v`.
    ///
    /// Duplicate edges (same endpoints, any kind) are ignored and reported as
    /// `Ok(false)`; a newly inserted edge returns `Ok(true)`.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::UnknownNode`] if either endpoint is out of range, or
    /// [`SfError::InvalidConfiguration`] for a self-loop.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, kind: EdgeKind) -> SfResult<bool> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(SfError::InvalidConfiguration {
                reason: format!("self-loop on node {u} is not a valid memory-network link"),
            });
        }
        if self.adjacency[u.index()].contains(&v.index()) {
            return Ok(false);
        }
        self.adjacency[u.index()].insert(v.index());
        self.adjacency[v.index()].insert(u.index());
        self.edges.push(Edge::new(u, v, kind));
        Ok(true)
    }

    /// Removes the edge between `u` and `v` if it exists; returns whether an
    /// edge was removed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let removed = self.adjacency[u.index()].remove(&v.index());
        self.adjacency[v.index()].remove(&u.index());
        if removed {
            self.edges.retain(|e| !e.connects(u, v));
        }
        removed
    }

    /// Returns `true` if an edge between `u` and `v` exists (ignoring
    /// activity).
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u.index() < self.num_nodes && self.adjacency[u.index()].contains(&v.index())
    }

    /// All neighbours of `node`, including inactive ones.
    #[must_use]
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.adjacency[node.index()]
            .iter()
            .map(|&i| NodeId::new(i))
            .collect()
    }

    /// Neighbours of `node` that are currently active. If `node` itself is
    /// inactive the result is empty.
    #[must_use]
    pub fn active_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        if !self.is_active(node) {
            return Vec::new();
        }
        self.adjacency[node.index()]
            .iter()
            .filter(|&&i| self.active[i])
            .map(|&i| NodeId::new(i))
            .collect()
    }

    /// Degree of `node` counting all incident edges (ignores activity).
    #[must_use]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Degree of `node` counting only active neighbours.
    #[must_use]
    pub fn active_degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()]
            .iter()
            .filter(|&&i| self.active[i])
            .count()
    }

    /// Maximum degree over all nodes.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes)
            .map(|i| self.adjacency[i].len())
            .max()
            .unwrap_or(0)
    }

    /// Whether `node` is currently active (powered on and mounted).
    #[must_use]
    pub fn is_active(&self, node: NodeId) -> bool {
        node.index() < self.num_nodes && self.active[node.index()]
    }

    /// Sets the activity of a node.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::UnknownNode`] if out of range.
    pub fn set_active(&mut self, node: NodeId, active: bool) -> SfResult<()> {
        self.check_node(node)?;
        self.active[node.index()] = active;
        Ok(())
    }

    /// Iterates over all node ids (active and inactive).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes).map(NodeId::new)
    }

    /// Iterates over currently active node ids.
    pub fn active_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes)
            .filter(|&i| self.active[i])
            .map(NodeId::new)
    }

    /// All edges with their construction kinds.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edges whose both endpoints are currently active.
    #[must_use]
    pub fn active_edges(&self) -> Vec<Edge> {
        self.edges
            .iter()
            .filter(|e| self.active[e.a.index()] && self.active[e.b.index()])
            .copied()
            .collect()
    }

    /// Whether the subgraph induced by active nodes is connected.
    ///
    /// A graph with zero or one active node is considered connected.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let actives: Vec<usize> = (0..self.num_nodes).filter(|&i| self.active[i]).collect();
        if actives.len() <= 1 {
            return true;
        }
        let mut visited = vec![false; self.num_nodes];
        let mut stack = vec![actives[0]];
        visited[actives[0]] = true;
        let mut seen = 1usize;
        while let Some(cur) = stack.pop() {
            for &next in &self.adjacency[cur] {
                if self.active[next] && !visited[next] {
                    visited[next] = true;
                    seen += 1;
                    stack.push(next);
                }
            }
        }
        seen == actives.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn ring(num: usize) -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new(num);
        for i in 0..num {
            g.add_edge(n(i), n((i + 1) % num), EdgeKind::Structured)
                .unwrap();
        }
        g
    }

    #[test]
    fn empty_graph_properties() {
        let g = AdjacencyGraph::new(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_active_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(!g.is_connected());
    }

    #[test]
    fn edge_insertion_and_dedup() {
        let mut g = AdjacencyGraph::new(4);
        assert!(g.add_edge(n(0), n(1), EdgeKind::Structured).unwrap());
        assert!(!g.add_edge(n(1), n(0), EdgeKind::FreePortPairing).unwrap());
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(n(0), n(1)));
        assert!(g.has_edge(n(1), n(0)));
        assert!(!g.has_edge(n(0), n(2)));
        // The duplicate keeps the first edge's kind.
        assert_eq!(g.edges()[0].kind, EdgeKind::Structured);
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = AdjacencyGraph::new(3);
        assert!(g.add_edge(n(1), n(1), EdgeKind::Structured).is_err());
    }

    #[test]
    fn out_of_range_nodes_rejected() {
        let mut g = AdjacencyGraph::new(3);
        assert!(g.add_edge(n(0), n(3), EdgeKind::Structured).is_err());
        assert!(g.check_node(n(5)).is_err());
        assert!(g.set_active(n(9), false).is_err());
    }

    #[test]
    fn remove_edge_updates_both_sides() {
        let mut g = ring(4);
        assert!(g.remove_edge(n(0), n(1)));
        assert!(!g.has_edge(n(0), n(1)));
        assert!(!g.has_edge(n(1), n(0)));
        assert!(!g.remove_edge(n(0), n(1)));
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn degree_accounting() {
        let g = ring(6);
        for i in 0..6 {
            assert_eq!(g.degree(n(i)), 2);
        }
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn activity_gating() {
        let mut g = ring(5);
        assert!(g.is_active(n(2)));
        g.set_active(n(2), false).unwrap();
        assert!(!g.is_active(n(2)));
        assert_eq!(g.num_active_nodes(), 4);
        assert_eq!(g.active_degree(n(1)), 1);
        assert!(!g.active_neighbors(n(1)).contains(&n(2)));
        assert!(g.active_neighbors(n(2)).is_empty());
        assert_eq!(g.active_edges().len(), 3);
        // Ring minus one node is a path: still connected.
        assert!(g.is_connected());
        g.set_active(n(0), false).unwrap();
        // Removing two non-adjacent ring nodes disconnects the ring.
        assert!(!g.is_connected());
    }

    #[test]
    fn connectivity_detection() {
        let mut g = AdjacencyGraph::new(4);
        g.add_edge(n(0), n(1), EdgeKind::Structured).unwrap();
        g.add_edge(n(2), n(3), EdgeKind::Structured).unwrap();
        assert!(!g.is_connected());
        g.add_edge(n(1), n(2), EdgeKind::Structured).unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn single_node_is_connected() {
        let g = AdjacencyGraph::new(1);
        assert!(g.is_connected());
    }

    #[test]
    fn edge_helpers() {
        let e = Edge::new(n(5), n(2), EdgeKind::Shortcut { ring_hops: 2 });
        assert_eq!(e.a, n(2));
        assert_eq!(e.b, n(5));
        assert_eq!(e.other(n(2)), Some(n(5)));
        assert_eq!(e.other(n(5)), Some(n(2)));
        assert_eq!(e.other(n(1)), None);
        assert!(e.connects(n(5), n(2)));
        assert!(!e.connects(n(5), n(3)));
        assert_eq!(e.to_string(), "n2--n5 [shortcut(2-hop)]");
    }

    #[test]
    fn edge_kind_display() {
        assert_eq!(
            EdgeKind::RingNeighbor {
                space: SpaceId::new(1)
            }
            .to_string(),
            "ring(s1)"
        );
        assert_eq!(EdgeKind::FreePortPairing.to_string(), "pairing");
        assert_eq!(EdgeKind::Structured.to_string(), "structured");
    }

    #[test]
    fn node_iterators() {
        let mut g = ring(4);
        g.set_active(n(3), false).unwrap();
        assert_eq!(g.nodes().count(), 4);
        let active: Vec<NodeId> = g.active_nodes().collect();
        assert_eq!(active, vec![n(0), n(1), n(2)]);
    }
}
