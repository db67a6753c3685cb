//! Look-up-table shortest-path routing for the structured baselines.
//!
//! Flattened Butterfly / Adapted FB use "minimal + adaptive" routing and
//! Jellyfish-style random graphs use k-shortest-path tables (Figure 8). Both
//! are modelled here as minimal table routing: every router's entry for a
//! destination is the set of its neighbours that lie on *some* shortest path
//! there, and the adaptive rule picks the first of them, in node-id order,
//! whose output port is below the load threshold.
//!
//! The model keeps one breadth-first-search distance per (destination,
//! router) pair and each router's live neighbours; a router's entry for a
//! destination is read off them as the neighbours one hop closer. The point
//! the paper makes about this class of protocols is the hardware table's
//! storage cost: `O(N)` entries per router (times the path diversity), in
//! contrast to String Figure's `O(p^2)` entries.
//! [`ShortestPathRouting::storage_entries`] counts those entries so the
//! routing-overhead comparison can be reproduced.

use crate::protocol::{PortLoadEstimator, RoutingContext, RoutingProtocol};
use sf_topology::AdjacencyGraph;
use sf_types::{NodeId, SfError, SfResult, VirtualChannelId};

/// The distance of a router that cannot reach the destination.
const UNREACHABLE: u16 = u16::MAX;

/// Minimal (shortest-path) table routing with adaptive selection among
/// equal-progress next hops.
///
/// # Examples
///
/// ```
/// use sf_routing::{ShortestPathRouting, trace_route};
/// use sf_topology::{baselines::MemoryNetworkTopology, FlattenedButterfly};
/// use sf_types::NodeId;
///
/// let fb = FlattenedButterfly::full(64)?;
/// let routing = ShortestPathRouting::new(fb.graph(), "fb-minimal-adaptive");
/// let route = trace_route(&routing, NodeId::new(0), NodeId::new(63), 64)?;
/// assert!(route.hops() <= 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ShortestPathRouting {
    name: &'static str,
    num_nodes: usize,
    active: Vec<bool>,
    /// Router `v`'s live neighbours, in node-id order, are
    /// `neighbors[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    neighbors: Vec<NodeId>,
    /// `distance[dest * num_nodes + v]`: hops from router `v` to `dest`, or
    /// [`UNREACHABLE`].
    distance: Vec<u16>,
}

impl ShortestPathRouting {
    /// Builds the routing tables (BFS from every destination) for the active
    /// subgraph of `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `graph` has more than 65,535 nodes, whose distances would
    /// not fit the `u16` table.
    #[must_use]
    pub fn new(graph: &AdjacencyGraph, name: &'static str) -> Self {
        let n = graph.num_nodes();
        // Every distance is below `n`, so none reaches `UNREACHABLE`.
        u16::try_from(n).expect("shortest-path tables hold at most 65,535 nodes");
        let mut offsets = vec![0];
        let mut neighbors = Vec::new();
        for v in graph.nodes() {
            neighbors.extend(graph.active_neighbors(v));
            offsets.push(u32::try_from(neighbors.len()).expect("link count fits in u32"));
        }
        let mut routing = Self {
            name,
            num_nodes: n,
            active: graph.nodes().map(|v| graph.is_active(v)).collect(),
            offsets,
            neighbors,
            distance: vec![UNREACHABLE; n * n],
        };
        let mut queue = Vec::with_capacity(n);
        for dest in graph.active_nodes() {
            let start = dest.index() * n;
            routing.distance[start + dest.index()] = 0;
            queue.clear();
            queue.push(dest);
            let mut head = 0;
            while let Some(&cur) = queue.get(head) {
                head += 1;
                let next = routing.distance[start + cur.index()] + 1;
                let range = routing.neighbor_range(cur);
                for &nb in &routing.neighbors[range] {
                    let d = &mut routing.distance[start + nb.index()];
                    if *d == UNREACHABLE {
                        *d = next;
                        queue.push(nb);
                    }
                }
            }
        }
        routing
    }

    fn neighbor_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize
    }

    /// Hops from every router to `dest`, in node order.
    fn distances_to(&self, dest: NodeId) -> &[u16] {
        &self.distance[dest.index() * self.num_nodes..][..self.num_nodes]
    }

    /// The table entry of router `at` for `dest`: its live neighbours one hop
    /// closer to `dest`, in node-id order. Empty if `dest` is unreachable.
    fn next_hops(&self, at: NodeId, dest: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let dist = self.distances_to(dest);
        let here = dist[at.index()];
        // On an undirected graph a neighbour is one hop closer, as far, or
        // one hop farther, so `<` picks exactly the closer ones. An
        // unreachable router's neighbours are unreachable too.
        self.neighbors[self.neighbor_range(at)]
            .iter()
            .copied()
            .filter(move |nb| dist[nb.index()] < here)
    }

    /// Hop distance from `from` to `to`, if reachable.
    #[must_use]
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<u32> {
        let d = self.distances_to(to)[from.index()];
        (d != UNREACHABLE).then_some(u32::from(d))
    }

    /// Total number of (router, destination, next-hop) entries the tables
    /// hold across the network — the forwarding-state cost the paper
    /// contrasts with String Figure's constant-size tables. A router's entry
    /// for itself is empty: no neighbour is closer than zero hops.
    #[must_use]
    pub fn storage_entries(&self) -> u64 {
        let nodes = || (0..self.num_nodes).map(NodeId::new);
        nodes()
            .flat_map(|dest| nodes().map(move |at| self.next_hops(at, dest).count() as u64))
            .sum()
    }

    fn check(&self, node: NodeId) -> SfResult<()> {
        if node.index() >= self.num_nodes {
            return Err(SfError::UnknownNode {
                node: node.index(),
                network_size: self.num_nodes,
            });
        }
        if !self.active[node.index()] {
            return Err(SfError::NodeOffline { node: node.index() });
        }
        Ok(())
    }
}

impl RoutingProtocol for ShortestPathRouting {
    fn name(&self) -> &'static str {
        self.name
    }

    fn next_hop(
        &self,
        at: NodeId,
        dest: NodeId,
        loads: &dyn PortLoadEstimator,
        ctx: &RoutingContext,
    ) -> SfResult<NodeId> {
        self.check(at)?;
        self.check(dest)?;
        if at == dest {
            return Ok(dest);
        }
        let mut first = None;
        for nb in self.next_hops(at, dest) {
            if loads.load(at, nb) < ctx.adaptive_threshold {
                return Ok(nb);
            }
            first.get_or_insert(nb);
        }
        first.ok_or(SfError::RoutingStuck {
            at: at.index(),
            destination: dest.index(),
        })
    }

    fn virtual_channel(&self, at: NodeId, _next: NodeId, dest: NodeId) -> VirtualChannelId {
        if dest.index() >= at.index() {
            VirtualChannelId::UP
        } else {
            VirtualChannelId::DOWN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{trace_route, TableLoad, ZeroLoad};
    use sf_topology::{FlattenedButterfly, JellyfishTopology, MemoryNetworkTopology};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn routes_are_shortest_on_fb() {
        let fb = FlattenedButterfly::full(36).unwrap();
        let routing = ShortestPathRouting::new(fb.graph(), "fb");
        for s in 0..36 {
            for t in 0..36 {
                let route = trace_route(&routing, n(s), n(t), 36).unwrap();
                assert_eq!(route.hops() as u32, routing.distance(n(s), n(t)).unwrap());
                assert!(!route.has_loop());
            }
        }
    }

    #[test]
    fn routes_are_shortest_on_jellyfish() {
        let jelly = JellyfishTopology::generate(80, 4, 5).unwrap();
        let routing = ShortestPathRouting::new(jelly.graph(), "jellyfish-ksp");
        for s in (0..80).step_by(3) {
            for t in (0..80).step_by(7) {
                let route = trace_route(&routing, n(s), n(t), 80).unwrap();
                assert_eq!(route.hops() as u32, routing.distance(n(s), n(t)).unwrap());
            }
        }
    }

    #[test]
    fn storage_grows_with_network_size() {
        let small = JellyfishTopology::generate(50, 4, 1).unwrap();
        let large = JellyfishTopology::generate(200, 4, 1).unwrap();
        let small_entries =
            ShortestPathRouting::new(small.graph(), "jf").storage_entries() as f64 / 50.0;
        let large_entries =
            ShortestPathRouting::new(large.graph(), "jf").storage_entries() as f64 / 200.0;
        // Per-router forwarding state grows roughly linearly with N, unlike
        // String Figure's constant-size tables.
        assert!(large_entries > 2.5 * small_entries);
    }

    #[test]
    fn adaptive_selection_diverts_under_load() {
        let fb = FlattenedButterfly::full(16).unwrap();
        let routing = ShortestPathRouting::new(fb.graph(), "fb");
        let ctx = RoutingContext::default();
        // Find a pair with at least two minimal next hops.
        let mut exercised = false;
        for s in 0..16 {
            for t in 0..16 {
                if s == t {
                    continue;
                }
                let first = routing.next_hop(n(s), n(t), &ZeroLoad, &ctx).unwrap();
                let mut loads = TableLoad::new();
                loads.set(n(s), first, 0.95);
                let second = routing.next_hop(n(s), n(t), &loads, &ctx).unwrap();
                if second != first {
                    exercised = true;
                    assert_eq!(
                        routing.distance(n(second.index()), n(t)),
                        routing.distance(n(first.index()), n(t)),
                        "diverted hop must still be minimal"
                    );
                }
            }
        }
        assert!(exercised);
    }

    #[test]
    fn gated_nodes_are_avoided() {
        let jelly = JellyfishTopology::generate(40, 4, 2).unwrap();
        let mut graph = jelly.graph().clone();
        graph.set_active(n(7), false).unwrap();
        let routing = ShortestPathRouting::new(&graph, "jf");
        let ctx = RoutingContext::default();
        assert!(matches!(
            routing.next_hop(n(7), n(3), &ZeroLoad, &ctx),
            Err(SfError::NodeOffline { .. })
        ));
        for s in (0..40).step_by(3) {
            if s == 7 {
                continue;
            }
            for t in (0..40).step_by(5) {
                if t == 7 || t == s {
                    continue;
                }
                let route = trace_route(&routing, n(s), n(t), 40).unwrap();
                assert!(!route.path.contains(&n(7)));
            }
        }
    }

    #[test]
    fn unknown_node_rejected_and_self_route() {
        let fb = FlattenedButterfly::full(9).unwrap();
        let routing = ShortestPathRouting::new(fb.graph(), "fb");
        let ctx = RoutingContext::default();
        assert!(routing.next_hop(n(0), n(100), &ZeroLoad, &ctx).is_err());
        assert_eq!(routing.next_hop(n(4), n(4), &ZeroLoad, &ctx).unwrap(), n(4));
        assert_eq!(routing.distance(n(4), n(4)), Some(0));
        // Nodes 0 and 8 share neither a row nor a column on the 3x3 grid, so
        // the minimal path is exactly two hops.
        assert_eq!(routing.distance(n(0), n(8)), Some(2));
    }
}
