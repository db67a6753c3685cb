//! The String Figure topology: balanced random multi-space rings, free-port
//! pairing, shortcuts, and elastic (gate / un-gate) reconfiguration.
//!
//! Construction follows Section III-A of the paper:
//!
//! 1. Build `L = floor(p/2)` virtual spaces and give every node a balanced
//!    random coordinate in each ([`VirtualSpaces::generate`]).
//! 2. Connect ring-adjacent nodes in every space (the *basic balanced random
//!    topology*).
//! 3. Pair up nodes that still have free router ports (which happens when two
//!    nodes are ring-adjacent in more than one space), preferring pairs with
//!    the longest circular distance.
//! 4. Fabricate *shortcuts* from every node to its 2-hop and 4-hop clockwise
//!    Space-0 neighbours with larger node ids (at most two per node). The
//!    shortcut wires exist physically; the per-router topology switch decides
//!    which `p` of the incident connections are live at any time.
//!
//! Elastic reconfiguration (Section III-C) is exposed as
//! [`StringFigureTopology::gate_node`] / [`StringFigureTopology::ungate_node`]:
//! gating a node frees ports on its neighbours, which the topology switch uses
//! to activate fabricated shortcuts and preserve throughput.

use crate::graph::{AdjacencyGraph, Edge, EdgeKind};
use crate::spaces::VirtualSpaces;
use serde::{Deserialize, Serialize};
use sf_types::{
    CoordinateVector, DeterministicRng, NetworkConfig, NodeId, SfError, SfResult, SpaceId,
};
use std::collections::BTreeSet;

/// Ring offsets (in Space-0 hops) at which shortcuts are fabricated.
pub const SHORTCUT_RING_HOPS: [usize; 2] = [2, 4];

/// A fully constructed String Figure memory-network topology.
///
/// # Examples
///
/// ```
/// use sf_topology::StringFigureTopology;
/// use sf_types::NetworkConfig;
///
/// let config = NetworkConfig::new(64, 4)?;
/// let topo = StringFigureTopology::generate(&config)?;
/// assert_eq!(topo.graph().num_nodes(), 64);
/// assert!(topo.graph().is_connected());
/// // Fabricated wiring per node is bounded: p basic connections plus at most
/// // two outgoing and two incoming shortcut wires.
/// assert!(topo.max_fabricated_degree() <= config.ports + 4);
/// # Ok::<(), sf_types::SfError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StringFigureTopology {
    config: NetworkConfig,
    spaces: VirtualSpaces,
    /// Currently live links (basic edges filtered by node activity plus the
    /// currently enabled shortcuts).
    graph: AdjacencyGraph,
    /// Edges of the basic balanced random topology (rings + free-port pairs).
    basic_edges: Vec<Edge>,
    /// All fabricated shortcut wires (whether currently enabled or not).
    shortcut_wires: Vec<Edge>,
    /// Free-port pairing links temporarily switched off because a
    /// reconfiguration needed their ports for ring-healing links.
    suspended_pairings: BTreeSet<(usize, usize)>,
    /// Ring-healing links currently in place: for every virtual space, the
    /// active ring neighbours of gated nodes are joined so that each space's
    /// ring of active nodes stays intact (the mechanism behind the paper's
    /// "two-hop neighbours become one-hop neighbours" table update).
    healing_links: BTreeSet<(usize, usize)>,
}

/// The observable effect of a single gate/un-gate reconfiguration step.
///
/// `shortcuts_enabled` and `shortcuts_disabled` list every reconfigurable
/// link the step's link sync switched: fabricated shortcuts, ring-healing
/// links and free-port pairing links alike. They are not the net change. The
/// sync first switches off every enabled shortcut and then switches back on
/// the ones still justified, so a link switched off and back on in one step
/// appears in both lists. At 1296 nodes with 8 ports, over 144 events (24
/// seeded gates, then the 24 ungates, for seeds 1–3), 1,032 of the 1,614
/// listed links were such links.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigurationDelta {
    /// The node that was gated or un-gated.
    pub node: NodeId,
    /// `true` if the node is now gated (off), `false` if it was brought back.
    pub gated: bool,
    /// The node's live neighbours, whose one-hop entries for it flip
    /// (blocking/valid bits).
    pub affected_neighbors: Vec<NodeId>,
    /// Reconfigurable links switched on by this step, including links it
    /// also switched off (see the type's documentation).
    pub shortcuts_enabled: Vec<Edge>,
    /// Reconfigurable links switched off by this step, including links it
    /// switched back on (see the type's documentation).
    pub shortcuts_disabled: Vec<Edge>,
}

impl StringFigureTopology {
    /// Generates a String Figure topology from a network configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] if the configuration is
    /// invalid (see [`NetworkConfig::validate`]).
    pub fn generate(config: &NetworkConfig) -> SfResult<Self> {
        config.validate()?;
        let mut rng = DeterministicRng::new(config.seed);
        let spaces = VirtualSpaces::generate(
            config.nodes,
            config.virtual_spaces(),
            config.balance_candidates,
            &mut rng,
        );
        Self::from_spaces(config.clone(), spaces)
    }

    /// Builds a String Figure topology from pre-computed virtual spaces
    /// (used for the paper's worked example and for tests with hand-picked
    /// coordinates).
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] if the configuration is
    /// invalid or does not match the supplied spaces.
    pub fn from_spaces(config: NetworkConfig, spaces: VirtualSpaces) -> SfResult<Self> {
        config.validate()?;
        if spaces.num_nodes() != config.nodes {
            return Err(SfError::InvalidConfiguration {
                reason: format!(
                    "virtual spaces cover {} nodes but the configuration asks for {}",
                    spaces.num_nodes(),
                    config.nodes
                ),
            });
        }
        if spaces.num_spaces() != config.virtual_spaces() {
            return Err(SfError::InvalidConfiguration {
                reason: format!(
                    "virtual spaces have {} spaces but p={} implies {}",
                    spaces.num_spaces(),
                    config.ports,
                    config.virtual_spaces()
                ),
            });
        }

        let n = config.nodes;
        let mut graph = AdjacencyGraph::new(n);
        let mut basic_edges = Vec::new();

        // Step 3 of the construction: connect ring-adjacent nodes per space.
        for s in 0..spaces.num_spaces() {
            let space = SpaceId::new(s);
            let ring = spaces.ring(space);
            for (i, &node) in ring.iter().enumerate() {
                let succ = ring[(i + 1) % ring.len()];
                if node == succ {
                    continue; // degenerate 1-node ring
                }
                if graph.add_edge(node, succ, EdgeKind::RingNeighbor { space })? {
                    basic_edges.push(Edge::new(node, succ, EdgeKind::RingNeighbor { space }));
                }
            }
        }

        // Step 4: pair nodes that still have free ports, preferring the pair
        // with the longest Space-0 circular distance.
        let ports = config.ports;
        let free = |graph: &AdjacencyGraph, node: NodeId| ports.saturating_sub(graph.degree(node));
        loop {
            let candidates: Vec<NodeId> = graph.nodes().filter(|&v| free(&graph, v) > 0).collect();
            if candidates.len() < 2 {
                break;
            }
            let mut best: Option<(NodeId, NodeId, f64)> = None;
            for (i, &u) in candidates.iter().enumerate() {
                for &v in &candidates[i + 1..] {
                    if graph.has_edge(u, v) {
                        continue;
                    }
                    let d = spaces.space_distance(SpaceId::new(0), u, v);
                    if best.is_none_or(|(_, _, bd)| d > bd) {
                        best = Some((u, v, d));
                    }
                }
            }
            let Some((u, v, _)) = best else { break };
            graph.add_edge(u, v, EdgeKind::FreePortPairing)?;
            basic_edges.push(Edge::new(u, v, EdgeKind::FreePortPairing));
        }

        // Shortcut fabrication: 2-hop and 4-hop clockwise Space-0 neighbours
        // with a larger node id, at most two per node, skipping wires that
        // duplicate basic links.
        let mut shortcut_wires = Vec::new();
        if config.shortcuts {
            for node in graph.nodes() {
                let mut added = 0usize;
                for &hops in &SHORTCUT_RING_HOPS {
                    if added >= 2 {
                        break;
                    }
                    if hops >= n {
                        continue;
                    }
                    let target = spaces.clockwise_neighbor(SpaceId::new(0), node, hops);
                    if target <= node {
                        continue; // only connect towards larger node numbers
                    }
                    let wire = Edge::new(
                        node,
                        target,
                        EdgeKind::Shortcut {
                            ring_hops: hops as u8,
                        },
                    );
                    let duplicate_basic = graph.has_edge(node, target);
                    let duplicate_shortcut = shortcut_wires
                        .iter()
                        .any(|e: &Edge| e.connects(node, target));
                    if !duplicate_basic && !duplicate_shortcut {
                        shortcut_wires.push(wire);
                        added += 1;
                    }
                }
            }
        }

        let mut topology = Self {
            config,
            spaces,
            graph,
            basic_edges,
            shortcut_wires,
            suspended_pairings: BTreeSet::new(),
            healing_links: BTreeSet::new(),
        };
        // At construction time, switch on any shortcut whose endpoints still
        // have free switch ports (this fully utilises router ports, matching
        // the paper's goal).
        topology.sync_reconfigurable_links()?;
        Ok(topology)
    }

    /// The network configuration used to build this topology.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The virtual spaces (coordinates and rings).
    #[must_use]
    pub fn spaces(&self) -> &VirtualSpaces {
        &self.spaces
    }

    /// The currently live link graph (basic links filtered by node activity,
    /// plus enabled shortcuts).
    #[must_use]
    pub fn graph(&self) -> &AdjacencyGraph {
        &self.graph
    }

    /// Coordinate vector of a node.
    #[must_use]
    pub fn coordinates(&self, node: NodeId) -> &CoordinateVector {
        self.spaces.coordinates(node)
    }

    /// Edges of the basic balanced random topology (rings + free-port pairs).
    #[must_use]
    pub fn basic_edges(&self) -> &[Edge] {
        &self.basic_edges
    }

    /// All fabricated shortcut wires, enabled or not.
    #[must_use]
    pub fn shortcut_wires(&self) -> &[Edge] {
        &self.shortcut_wires
    }

    /// Shortcut wires that are currently switched on.
    #[must_use]
    pub fn enabled_shortcuts(&self) -> Vec<Edge> {
        self.shortcut_wires
            .iter()
            .filter(|e| self.graph.has_edge(e.a, e.b))
            .copied()
            .collect()
    }

    /// Whether a node is currently gated (powered off / unmounted).
    #[must_use]
    pub fn is_gated(&self, node: NodeId) -> bool {
        !self.graph.is_active(node)
    }

    /// Number of router ports currently in use at `node` (live links to
    /// active neighbours).
    #[must_use]
    pub fn ports_in_use(&self, node: NodeId) -> usize {
        self.graph.active_degree(node)
    }

    /// Number of free router ports at `node`.
    #[must_use]
    pub fn free_ports(&self, node: NodeId) -> usize {
        self.config.ports.saturating_sub(self.ports_in_use(node))
    }

    /// The largest number of fabricated connections (basic + shortcut wires)
    /// at any node; bounded by `p + 2` per the paper's physical-implementation
    /// argument.
    #[must_use]
    pub fn max_fabricated_degree(&self) -> usize {
        self.graph
            .nodes()
            .map(|v| {
                let basic = self
                    .basic_edges
                    .iter()
                    .filter(|e| e.a == v || e.b == v)
                    .count();
                let shortcuts = self
                    .shortcut_wires
                    .iter()
                    .filter(|e| e.a == v || e.b == v)
                    .count();
                basic + shortcuts
            })
            .max()
            .unwrap_or(0)
    }

    /// Total number of fabricated wires in the network (basic + shortcuts),
    /// which grows linearly with `N`.
    #[must_use]
    pub fn total_fabricated_wires(&self) -> usize {
        self.basic_edges.len() + self.shortcut_wires.len()
    }

    /// Gates a node off (power gating or unmounting).
    ///
    /// Neighbouring routers lose the corresponding live link; the node's
    /// active ring neighbours in every virtual space are joined with
    /// ring-healing links (the paper's "two-hop neighbours become one-hop
    /// neighbours" table update), and fabricated shortcuts are switched on
    /// wherever free ports remain to preserve throughput.
    ///
    /// # Errors
    ///
    /// * [`SfError::UnknownNode`] if the node does not exist.
    /// * [`SfError::InvalidReconfiguration`] if the node is already gated or
    ///   fewer than two nodes would remain active.
    pub fn gate_node(&mut self, node: NodeId) -> SfResult<ReconfigurationDelta> {
        self.graph.check_node(node)?;
        if self.is_gated(node) {
            return Err(SfError::InvalidReconfiguration {
                reason: format!("node {node} is already gated"),
            });
        }
        if self.graph.num_active_nodes() <= 2 {
            return Err(SfError::InvalidReconfiguration {
                reason: format!("gating node {node} would leave fewer than two active nodes"),
            });
        }
        let affected_neighbors = self.graph.active_neighbors(node);
        self.graph.set_active(node, false)?;
        let (enabled, disabled) = self.sync_reconfigurable_links()?;
        debug_assert!(
            self.graph.is_connected(),
            "ring healing keeps the network connected"
        );
        Ok(ReconfigurationDelta {
            node,
            gated: true,
            affected_neighbors,
            shortcuts_enabled: enabled,
            shortcuts_disabled: disabled,
        })
    }

    /// Brings a gated node back online.
    ///
    /// Ring-healing links that are no longer needed and dynamically enabled
    /// shortcuts that would over-subscribe router ports are switched off
    /// again (the reverse of [`StringFigureTopology::gate_node`]).
    ///
    /// # Errors
    ///
    /// * [`SfError::UnknownNode`] if the node does not exist.
    /// * [`SfError::InvalidReconfiguration`] if the node is not gated.
    pub fn ungate_node(&mut self, node: NodeId) -> SfResult<ReconfigurationDelta> {
        self.graph.check_node(node)?;
        if !self.is_gated(node) {
            return Err(SfError::InvalidReconfiguration {
                reason: format!("node {node} is not gated"),
            });
        }
        self.graph.set_active(node, true)?;
        let affected_neighbors = self.graph.active_neighbors(node);
        let (enabled, disabled) = self.sync_reconfigurable_links()?;
        Ok(ReconfigurationDelta {
            node,
            gated: false,
            affected_neighbors,
            shortcuts_enabled: enabled,
            shortcuts_disabled: disabled,
        })
    }

    /// Ring-healing links required by the current activity pattern: for every
    /// virtual space, each pair of consecutive *active* nodes on the ring that
    /// is separated by at least one gated node must be directly linked.
    fn required_healing_links(&self) -> Vec<(NodeId, NodeId, SpaceId)> {
        let mut required = Vec::new();
        for s in 0..self.spaces.num_spaces() {
            let space = SpaceId::new(s);
            let ring = self.spaces.ring(space);
            let active: Vec<NodeId> = ring
                .iter()
                .copied()
                .filter(|&n| self.graph.is_active(n))
                .collect();
            if active.len() < 2 || active.len() == ring.len() {
                continue;
            }
            for (i, &a) in active.iter().enumerate() {
                let b = active[(i + 1) % active.len()];
                if a == b {
                    continue;
                }
                // Only needed when at least one gated node sits between them
                // on the original ring (otherwise the basic ring link exists).
                let pos_a = self.spaces.ring_position(space, a);
                let pos_b = self.spaces.ring_position(space, b);
                let adjacent_on_ring = (pos_a + 1) % ring.len() == pos_b;
                if !adjacent_on_ring {
                    required.push((a, b, space));
                }
            }
        }
        required
    }

    /// Brings the reconfigurable links (ring-healing links, free-port pairing
    /// links, and fabricated shortcuts) in sync with the current node
    /// activity pattern. Returns the links switched on and off.
    ///
    /// Port-budget priority: ring links and ring-healing links first (they
    /// carry the routing-correctness guarantee and never exceed `p` because
    /// every active node has exactly two of them per virtual space), then the
    /// free-port pairing links, then fabricated shortcuts.
    fn sync_reconfigurable_links(&mut self) -> SfResult<(Vec<Edge>, Vec<Edge>)> {
        let mut enabled = Vec::new();
        let mut disabled = Vec::new();
        let ports = self.config.ports;

        // 1. Drop every currently enabled fabricated shortcut; the ones still
        //    justified are re-enabled in step 5 (this keeps the procedure
        //    idempotent and makes gate/un-gate exactly reversible).
        let wires = self.shortcut_wires.clone();
        for wire in &wires {
            if self.graph.remove_edge(wire.a, wire.b) {
                disabled.push(*wire);
            }
        }

        // 2. Ring healing: compute the required links, drop stale ones, add
        //    missing ones.
        let required = self.required_healing_links();
        let required_keys: BTreeSet<(usize, usize)> = required
            .iter()
            .map(|(a, b, _)| {
                let (x, y) = (a.index().min(b.index()), a.index().max(b.index()));
                (x, y)
            })
            .collect();
        let stale: Vec<(usize, usize)> = self
            .healing_links
            .iter()
            .filter(|k| !required_keys.contains(k))
            .copied()
            .collect();
        for (a, b) in stale {
            let (u, v) = (NodeId::new(a), NodeId::new(b));
            if self.graph.remove_edge(u, v) {
                disabled.push(Edge::new(
                    u,
                    v,
                    EdgeKind::RingHealing {
                        space: SpaceId::new(0),
                    },
                ));
            }
            self.healing_links.remove(&(a, b));
        }
        for (a, b, space) in required {
            let key = (a.index().min(b.index()), a.index().max(b.index()));
            if self.graph.has_edge(a, b) {
                continue;
            }
            // Make room for the healing link by suspending pairing links on
            // over-budget endpoints (the pairing links only exist to soak up
            // spare ports, so they yield to correctness-critical links).
            for node in [a, b] {
                if self.free_ports(node) == 0 {
                    self.suspend_one_pairing(node, &mut disabled);
                }
            }
            self.graph.add_edge(a, b, EdgeKind::RingHealing { space })?;
            self.healing_links.insert(key);
            enabled.push(Edge::new(a, b, EdgeKind::RingHealing { space }));
        }

        // 3. Shed pairing links from any node still over budget (possible
        //    when a gated neighbour's link was shared across spaces).
        let over_budget: Vec<NodeId> = self
            .graph
            .nodes()
            .filter(|&v| self.graph.is_active(v) && self.ports_in_use(v) > ports)
            .collect();
        for node in over_budget {
            while self.ports_in_use(node) > ports {
                if !self.suspend_one_pairing(node, &mut disabled) {
                    break;
                }
            }
        }

        // 4. Re-attach suspended pairing links wherever both endpoints have a
        //    free port again.
        let suspended: Vec<(usize, usize)> = self.suspended_pairings.iter().copied().collect();
        for (a, b) in suspended {
            let (u, v) = (NodeId::new(a), NodeId::new(b));
            if !self.graph.is_active(u) || !self.graph.is_active(v) {
                continue;
            }
            if self.free_ports(u) == 0 || self.free_ports(v) == 0 || self.graph.has_edge(u, v) {
                continue;
            }
            self.graph.add_edge(u, v, EdgeKind::FreePortPairing)?;
            self.suspended_pairings.remove(&(a, b));
            enabled.push(Edge::new(u, v, EdgeKind::FreePortPairing));
        }

        // 5. Fabricated shortcuts: switch on every wire whose endpoints are
        //    active and still have free ports.
        for wire in wires {
            if self.graph.has_edge(wire.a, wire.b) {
                continue;
            }
            if !self.graph.is_active(wire.a) || !self.graph.is_active(wire.b) {
                continue;
            }
            if self.free_ports(wire.a) == 0 || self.free_ports(wire.b) == 0 {
                continue;
            }
            self.graph.add_edge(wire.a, wire.b, wire.kind)?;
            enabled.push(wire);
        }
        Ok((enabled, disabled))
    }

    /// Suspends one free-port pairing link incident to `node` (if any),
    /// recording it for later re-attachment; returns whether a link was
    /// suspended.
    fn suspend_one_pairing(&mut self, node: NodeId, disabled: &mut Vec<Edge>) -> bool {
        let pairing = self.basic_edges.iter().find(|e| {
            e.kind == EdgeKind::FreePortPairing
                && (e.a == node || e.b == node)
                && self.graph.has_edge(e.a, e.b)
        });
        let Some(edge) = pairing.copied() else {
            return false;
        };
        self.graph.remove_edge(edge.a, edge.b);
        self.suspended_pairings
            .insert((edge.a.index(), edge.b.index()));
        disabled.push(edge);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spaces::paper_figure3_example;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn small_config(nodes: usize, ports: usize) -> NetworkConfig {
        NetworkConfig::new(nodes, ports).unwrap()
    }

    fn paper_example_topology() -> StringFigureTopology {
        let config = small_config(9, 4);
        StringFigureTopology::from_spaces(config, paper_figure3_example()).unwrap()
    }

    #[test]
    fn generate_produces_connected_graph() {
        for &(nodes, ports) in &[(9, 4), (16, 4), (61, 4), (128, 4), (200, 8)] {
            let topo = StringFigureTopology::generate(&small_config(nodes, ports)).unwrap();
            assert!(topo.graph().is_connected(), "N={nodes} p={ports}");
            assert_eq!(topo.graph().num_nodes(), nodes);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let config = small_config(64, 4);
        let a = StringFigureTopology::generate(&config).unwrap();
        let b = StringFigureTopology::generate(&config).unwrap();
        assert_eq!(a, b);
        let c = StringFigureTopology::generate(&config.clone().with_seed(99)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn basic_degree_never_exceeds_ports_plus_pairing_rules() {
        // The basic balanced random topology must not need more than p ports.
        for seed in 0..5 {
            let config = small_config(100, 4).with_seed(seed);
            let topo = StringFigureTopology::generate(&config).unwrap();
            for v in topo.graph().nodes() {
                let basic_deg = topo
                    .basic_edges()
                    .iter()
                    .filter(|e| e.a == v || e.b == v)
                    .count();
                assert!(
                    basic_deg <= config.ports,
                    "node {v} has basic degree {basic_deg} > p={}",
                    config.ports
                );
            }
        }
    }

    #[test]
    fn fabricated_connections_bounded() {
        // Each node originates at most two shortcut wires and can be the
        // target of at most two more (from its 2-hop and 4-hop Space-0
        // predecessors), so incident fabricated wiring is bounded by p + 4.
        for &(nodes, ports) in &[(50, 4), (120, 4), (300, 8)] {
            let topo = StringFigureTopology::generate(&small_config(nodes, ports)).unwrap();
            assert!(
                topo.max_fabricated_degree() <= ports + 4,
                "N={nodes} p={ports}: {}",
                topo.max_fabricated_degree()
            );
            // Total wiring grows linearly: <= N * (p/2 + 2) undirected wires.
            assert!(topo.total_fabricated_wires() <= nodes * (ports / 2 + 2));
        }
    }

    #[test]
    fn shortcuts_only_towards_larger_ids() {
        let topo = StringFigureTopology::generate(&small_config(64, 4)).unwrap();
        for wire in topo.shortcut_wires() {
            assert!(wire.a < wire.b);
            assert!(matches!(wire.kind, EdgeKind::Shortcut { .. }));
        }
    }

    #[test]
    fn at_most_two_shortcuts_per_node() {
        let topo = StringFigureTopology::generate(&small_config(128, 4)).unwrap();
        for v in topo.graph().nodes() {
            let count = topo.shortcut_wires().iter().filter(|e| e.a == v).count();
            assert!(count <= 2, "node {v} originates {count} shortcuts");
        }
    }

    #[test]
    fn shortcuts_can_be_disabled_by_config() {
        let config = small_config(64, 4).with_shortcuts(false);
        let topo = StringFigureTopology::generate(&config).unwrap();
        assert!(topo.shortcut_wires().is_empty());
        assert!(topo.enabled_shortcuts().is_empty());
    }

    #[test]
    fn paper_example_ring_connections_present() {
        let topo = paper_example_topology();
        let g = topo.graph();
        // Space-0 ring follows node-id order for the example coordinates.
        for i in 0..9 {
            assert!(g.has_edge(n(i), n((i + 1) % 9)), "missing ring edge {i}");
        }
        // Space-1: Node-2 is connected with Node-8 (ring neighbour), as in the
        // paper's description of Figure 3(b).
        assert!(g.has_edge(n(2), n(8)));
        assert!(g.graph_connected_sanity());
    }

    // Small extension trait for readability of the test above.
    trait Sanity {
        fn graph_connected_sanity(&self) -> bool;
    }
    impl Sanity for AdjacencyGraph {
        fn graph_connected_sanity(&self) -> bool {
            self.is_connected()
        }
    }

    #[test]
    fn gate_and_ungate_roundtrip() {
        let mut topo = StringFigureTopology::generate(&small_config(64, 4)).unwrap();
        let reference = topo.clone();
        let delta = topo.gate_node(n(10)).unwrap();
        assert!(delta.gated);
        assert!(topo.is_gated(n(10)));
        assert!(topo.graph().is_connected());
        assert!(!delta.affected_neighbors.is_empty());
        // Ports freed on neighbours may enable shortcuts; all enabled
        // shortcuts must respect port budgets.
        for v in topo.graph().active_nodes() {
            assert!(topo.ports_in_use(v) <= 4, "node {v} oversubscribed");
        }
        let back = topo.ungate_node(n(10)).unwrap();
        assert!(!back.gated);
        assert!(!topo.is_gated(n(10)));
        // After the round trip no node may be over its port budget.
        for v in topo.graph().active_nodes() {
            assert!(topo.ports_in_use(v) <= 4);
        }
        assert!(topo.graph().is_connected());
        // The live graph should match the original one again (same edges).
        assert_eq!(
            topo.graph().num_edges(),
            reference.graph().num_edges(),
            "round-trip should restore the original link count"
        );
    }

    #[test]
    fn gating_twice_is_rejected() {
        let mut topo = StringFigureTopology::generate(&small_config(32, 4)).unwrap();
        topo.gate_node(n(5)).unwrap();
        assert!(topo.gate_node(n(5)).is_err());
        assert!(topo.ungate_node(n(6)).is_err());
    }

    #[test]
    fn gate_unknown_node_is_rejected() {
        let mut topo = StringFigureTopology::generate(&small_config(16, 4)).unwrap();
        assert!(topo.gate_node(n(99)).is_err());
    }

    #[test]
    fn gating_many_nodes_keeps_network_connected() {
        let mut topo = StringFigureTopology::generate(&small_config(128, 8)).unwrap();
        let mut gated = 0;
        for i in (0..128).step_by(3) {
            if topo.gate_node(n(i)).is_ok() {
                gated += 1;
            }
        }
        assert!(gated >= 30, "only gated {gated} nodes");
        assert!(topo.graph().is_connected());
        assert_eq!(topo.graph().num_active_nodes(), 128 - gated);
    }

    #[test]
    fn config_mismatch_rejected() {
        let spaces = paper_figure3_example();
        // 9 nodes in the example but config says 16.
        assert!(StringFigureTopology::from_spaces(small_config(16, 4), spaces.clone()).is_err());
        // 2 spaces in the example but p=8 implies 4 spaces.
        assert!(StringFigureTopology::from_spaces(small_config(9, 8), spaces).is_err());
    }

    #[test]
    fn ports_in_use_and_free_ports_account() {
        let topo = StringFigureTopology::generate(&small_config(64, 4)).unwrap();
        for v in topo.graph().nodes() {
            assert_eq!(
                topo.ports_in_use(v) + topo.free_ports(v),
                4.max(topo.ports_in_use(v))
            );
        }
    }

    #[test]
    fn odd_port_count_still_works() {
        // p = 5 gives two virtual spaces and one spare port per node that the
        // pairing / shortcut machinery can use.
        let topo = StringFigureTopology::generate(&small_config(30, 5)).unwrap();
        assert!(topo.graph().is_connected());
        for v in topo.graph().nodes() {
            assert!(topo.ports_in_use(v) <= 5);
        }
    }

    #[test]
    fn tiny_networks_are_supported() {
        for nodes in 2..8 {
            let topo = StringFigureTopology::generate(&small_config(nodes, 4)).unwrap();
            assert!(topo.graph().is_connected(), "N={nodes}");
        }
    }
}
