//! The per-router routing table of String Figure's compute+table hybrid
//! routing.
//!
//! Each router stores only information about its one- and two-hop neighbours
//! (Section IV, Figure 6b): for every such neighbour and every virtual space
//! one entry holding the neighbour's node number, a blocking bit, a valid bit,
//! a hop bit (one- vs two-hop), the virtual-space number, and the neighbour's
//! coordinate in that space, which the hardware stores in 7 bits. The model
//! keeps the full-precision coordinate and routes on it; the 7-bit width
//! counts only towards [`RoutingTable::entry_bits`]. The hardware
//! reconfigures by flipping the blocking / valid / hop bits; this model
//! instead rebuilds the tables of the routers a reconfiguration touches
//! ([`crate::GreediestRouting::resync`]), so its entries hold no blocking or
//! valid bit. All three bits still count towards
//! [`RoutingTable::entry_bits`], the paper's storage layout.
//!
//! [`RoutingTable`] is the one definition of what a router stores.
//! [`crate::GreediestRouting`] builds each router's table, flattens its
//! entries into a forwarding store shared by all routers, and then drops the
//! table. Storage accounting uses the row count and
//! [`RoutingTable::entry_bits`].

use serde::{Deserialize, Serialize};
use sf_topology::{AdjacencyGraph, VirtualSpaces};
use sf_types::coord::COORD_BITS;
use sf_types::{Coordinate, CoordinateVector, NodeId, SpaceId};
use std::collections::BTreeMap;

/// Whether a routing-table entry describes a one-hop or two-hop neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum HopCount {
    /// Directly connected neighbour.
    One,
    /// Neighbour of a neighbour, reached via the `via` node of the entry.
    Two,
}

/// One routing-table entry: the coordinate of a (one- or two-hop) neighbour in
/// one virtual space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoutingTableEntry {
    /// The neighbour this entry describes.
    pub neighbor: NodeId,
    /// The directly connected node through which the neighbour is reached
    /// (equal to `neighbor` for one-hop entries).
    pub via: NodeId,
    /// One- or two-hop.
    pub hop: HopCount,
    /// Virtual space of the stored coordinate.
    pub space: SpaceId,
    /// The neighbour's full-precision coordinate in `space` (the hardware
    /// stores it in [`COORD_BITS`] bits).
    pub full_coordinate: Coordinate,
}

/// A forwarding candidate assembled from the table: a unique neighbour with
/// its full coordinate vector and the first hop used to reach it.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateNeighbor {
    /// The candidate (one- or two-hop) neighbour.
    pub node: NodeId,
    /// The directly connected node to forward to in order to reach `node`.
    pub via: NodeId,
    /// One- or two-hop.
    pub hop: HopCount,
    /// The candidate's coordinates in every virtual space.
    pub coordinates: CoordinateVector,
}

/// The routing table of one router.
///
/// # Examples
///
/// ```
/// use sf_routing::table::RoutingTable;
/// use sf_topology::StringFigureTopology;
/// use sf_types::{NetworkConfig, NodeId};
///
/// let topo = StringFigureTopology::generate(&NetworkConfig::new(32, 4)?)?;
/// let table = RoutingTable::build(NodeId::new(0), topo.graph(), topo.spaces());
/// assert!(!table.one_hop_neighbors().is_empty());
/// assert!(table.storage_bits(32, 4) > 0);
/// # Ok::<(), sf_types::SfError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingTable {
    owner: NodeId,
    entries: Vec<RoutingTableEntry>,
}

impl RoutingTable {
    /// Builds the routing table of `owner` from the current link graph and
    /// virtual-space coordinates: one entry per (neighbour, space) for every
    /// active one-hop neighbour and every active two-hop neighbour.
    #[must_use]
    pub fn build(owner: NodeId, graph: &AdjacencyGraph, spaces: &VirtualSpaces) -> Self {
        let mut entries = Vec::new();
        let one_hop = graph.active_neighbors(owner);
        let one_hop_set: std::collections::BTreeSet<NodeId> = one_hop.iter().copied().collect();

        let mut push_entries = |node: NodeId, via: NodeId, hop: HopCount| {
            let coords = spaces.coordinates(node);
            for s in 0..spaces.num_spaces() {
                let space = SpaceId::new(s);
                entries.push(RoutingTableEntry {
                    neighbor: node,
                    via,
                    hop,
                    space,
                    full_coordinate: coords.coordinate(space),
                });
            }
        };

        for &n1 in &one_hop {
            push_entries(n1, n1, HopCount::One);
        }
        // Two-hop neighbours: neighbours of neighbours that are neither the
        // owner nor already one-hop neighbours. Record the first discovered
        // via; subsequent vias are redundant for the hardware table.
        let mut two_hop_via: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        for &n1 in &one_hop {
            for n2 in graph.active_neighbors(n1) {
                if n2 == owner || one_hop_set.contains(&n2) {
                    continue;
                }
                two_hop_via.entry(n2).or_insert(n1);
            }
        }
        for (node, via) in two_hop_via {
            push_entries(node, via, HopCount::Two);
        }

        Self { owner, entries }
    }

    /// The router this table belongs to.
    #[must_use]
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// All entries, in insertion order: one-hop neighbours first, then two-hop
    /// neighbours. Each neighbour has one entry per virtual space, in space
    /// order.
    #[must_use]
    pub fn entries(&self) -> &[RoutingTableEntry] {
        &self.entries
    }

    /// Number of entries (rows) in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries (an isolated router).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Unique one-hop neighbours.
    #[must_use]
    pub fn one_hop_neighbors(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .entries
            .iter()
            .filter(|e| e.hop == HopCount::One)
            .map(|e| e.neighbor)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Unique two-hop neighbours.
    #[must_use]
    pub fn two_hop_neighbors(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .entries
            .iter()
            .filter(|e| e.hop == HopCount::Two)
            .map(|e| e.neighbor)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Assembles the forwarding candidates: every neighbour with its full
    /// coordinate vector and first hop.
    #[must_use]
    pub fn candidates(&self) -> Vec<CandidateNeighbor> {
        let mut grouped: BTreeMap<NodeId, (NodeId, HopCount, BTreeMap<usize, Coordinate>)> =
            BTreeMap::new();
        for e in &self.entries {
            grouped
                .entry(e.neighbor)
                .or_insert_with(|| (e.via, e.hop, BTreeMap::new()))
                .2
                .insert(e.space.index(), e.full_coordinate);
        }
        grouped
            .into_iter()
            .map(|(node, (via, hop, coords))| CandidateNeighbor {
                node,
                via,
                hop,
                coordinates: CoordinateVector::new(coords.into_values().collect()),
            })
            .collect()
    }

    /// Storage cost of this table in bits: [`RoutingTable::entry_bits`] per
    /// entry.
    #[must_use]
    pub fn storage_bits(&self, num_nodes: usize, ports: usize) -> u64 {
        Self::entry_bits(num_nodes, ports) * self.entries.len() as u64
    }

    /// Storage cost of one entry in bits, following the paper's per-entry
    /// layout: `log2(N)` node number + 1 blocking + 1 valid + 1 hop +
    /// `ceil(log2(p/2))` space number + a [`COORD_BITS`]-bit (7-bit)
    /// coordinate. The model routes on full-precision coordinates; only this
    /// storage accounting uses the paper's 7-bit layout.
    #[must_use]
    pub fn entry_bits(num_nodes: usize, ports: usize) -> u64 {
        let node_bits = (usize::BITS - (num_nodes.max(2) - 1).leading_zeros()) as u64;
        let spaces = (ports / 2).max(1);
        let space_bits = if spaces <= 1 {
            1
        } else {
            (usize::BITS - (spaces - 1).leading_zeros()) as u64
        };
        node_bits + 1 + 1 + 1 + space_bits + u64::from(COORD_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_topology::spaces::paper_figure3_example;
    use sf_topology::StringFigureTopology;
    use sf_types::NetworkConfig;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn example_topology() -> StringFigureTopology {
        let config = NetworkConfig::new(9, 4).unwrap();
        StringFigureTopology::from_spaces(config, paper_figure3_example()).unwrap()
    }

    #[test]
    fn builds_one_and_two_hop_entries() {
        let topo = example_topology();
        let table = RoutingTable::build(n(7), topo.graph(), topo.spaces());
        assert_eq!(table.owner(), n(7));
        assert!(!table.is_empty());
        let one_hop = table.one_hop_neighbors();
        // Node-7's graph neighbours must all appear as one-hop entries.
        for nb in topo.graph().active_neighbors(n(7)) {
            assert!(one_hop.contains(&nb), "missing one-hop {nb}");
        }
        // Every entry appears once per virtual space.
        let spaces = topo.spaces().num_spaces();
        assert_eq!(table.len() % spaces, 0);
        // Two-hop neighbours are never also one-hop neighbours.
        let two_hop = table.two_hop_neighbors();
        for t in &two_hop {
            assert!(!one_hop.contains(t));
        }
    }

    #[test]
    fn candidates_have_full_coordinate_vectors() {
        let topo = example_topology();
        let table = RoutingTable::build(n(2), topo.graph(), topo.spaces());
        for cand in table.candidates() {
            assert_eq!(cand.coordinates.num_spaces(), 2);
            assert_eq!(
                cand.coordinates.as_slice(),
                topo.coordinates(cand.node).as_slice(),
                "full-precision candidate coordinates must match the topology"
            );
            if cand.hop == HopCount::One {
                assert_eq!(cand.via, cand.node);
            } else {
                assert!(table.one_hop_neighbors().contains(&cand.via));
            }
        }
    }

    #[test]
    fn table_size_is_independent_of_network_scale() {
        // The defining scalability property: table entries depend on p, not N.
        let small = StringFigureTopology::generate(&NetworkConfig::new(64, 4).unwrap()).unwrap();
        let large = StringFigureTopology::generate(&NetworkConfig::new(512, 4).unwrap()).unwrap();
        let avg_entries = |topo: &StringFigureTopology| {
            let total: usize = topo
                .graph()
                .nodes()
                .map(|v| RoutingTable::build(v, topo.graph(), topo.spaces()).len())
                .sum();
            total as f64 / topo.graph().num_nodes() as f64
        };
        let small_avg = avg_entries(&small);
        let large_avg = avg_entries(&large);
        assert!(
            (small_avg - large_avg).abs() < small_avg * 0.5,
            "table size should not grow with N: {small_avg} vs {large_avg}"
        );
        // And stays within a small constant related to p(p+1) per the paper.
        assert!(large_avg <= (4 * (4 + 1) * 2) as f64);
    }

    #[test]
    fn storage_bits_accounting() {
        let topo = example_topology();
        let table = RoutingTable::build(n(0), topo.graph(), topo.spaces());
        // N=9 -> 4 node bits, p=4 -> 2 spaces -> 1 space bit, +3 flag bits +7
        // coordinate bits = 15 bits per entry.
        assert_eq!(table.storage_bits(9, 4), 15 * table.len() as u64);
        // 1296 nodes -> 11 node bits, p=8 -> 4 spaces -> 2 space bits.
        assert_eq!(table.storage_bits(1296, 8), 23 * table.len() as u64);
    }
}
