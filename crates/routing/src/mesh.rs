//! Greedy + adaptive routing for the Distributed Mesh (DM) and Optimized
//! Distributed Mesh (ODM) baselines.
//!
//! Each hop forwards to the active neighbour that minimises the remaining
//! Manhattan distance to the destination on the mesh grid (dimension-ordered
//! progress); when several neighbours make equal progress (which happens with
//! ODM express links and at the turn point of XY routes), the adaptive rule
//! prefers the first of them, in node-id order, whose output port is below
//! [`ADAPTIVE_THRESHOLD`]. Because the Manhattan distance to the destination
//! strictly decreases at every hop, routes are loop-free.

use crate::protocol::{PortLoadEstimator, RoutingContext, RoutingProtocol, ADAPTIVE_THRESHOLD};
use sf_topology::baselines::MemoryNetworkTopology;
use sf_topology::MeshTopology;
use sf_types::{NodeId, SfError, SfResult, VirtualChannelId};

/// Greedy Manhattan-distance routing over a mesh (DM/ODM).
///
/// # Examples
///
/// ```
/// use sf_routing::{MeshRouting, trace_route};
/// use sf_topology::MeshTopology;
/// use sf_types::NodeId;
///
/// let mesh = MeshTopology::distributed(16)?;
/// let routing = MeshRouting::new(&mesh);
/// let route = trace_route(&routing, NodeId::new(0), NodeId::new(15), 16)?;
/// assert_eq!(route.hops(), 6); // 3 hops in x plus 3 hops in y
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MeshRouting {
    positions: Vec<(usize, usize)>,
    /// Each router's live neighbours, in node-id order.
    adjacency: Vec<Vec<NodeId>>,
    active: Vec<bool>,
}

impl MeshRouting {
    /// Builds adaptive mesh routing state from a mesh topology.
    #[must_use]
    pub fn new(mesh: &MeshTopology) -> Self {
        let n = mesh.num_nodes();
        Self {
            positions: (0..n).map(|i| mesh.position(NodeId::new(i))).collect(),
            adjacency: (0..n)
                .map(|i| mesh.graph().active_neighbors(NodeId::new(i)))
                .collect(),
            active: (0..n)
                .map(|i| mesh.graph().is_active(NodeId::new(i)))
                .collect(),
        }
    }

    fn manhattan(&self, a: NodeId, b: NodeId) -> usize {
        let (ar, ac) = self.positions[a.index()];
        let (br, bc) = self.positions[b.index()];
        ar.abs_diff(br) + ac.abs_diff(bc)
    }

    fn check(&self, node: NodeId) -> SfResult<()> {
        if node.index() >= self.positions.len() {
            return Err(SfError::UnknownNode {
                node: node.index(),
                network_size: self.positions.len(),
            });
        }
        if !self.active[node.index()] {
            return Err(SfError::NodeOffline { node: node.index() });
        }
        Ok(())
    }
}

impl RoutingProtocol for MeshRouting {
    fn name(&self) -> &'static str {
        "mesh-greedy-adaptive"
    }

    fn next_hop(
        &self,
        at: NodeId,
        dest: NodeId,
        loads: &dyn PortLoadEstimator,
        _ctx: &RoutingContext,
    ) -> SfResult<NodeId> {
        self.check(at)?;
        self.check(dest)?;
        if at == dest {
            return Ok(dest);
        }
        // One pass in node-id order keeps the best remaining distance, the
        // first neighbour at it, and the first of those whose port is
        // uncongested; a strictly better distance resets both.
        let mut best = self.manhattan(at, dest);
        let (mut first, mut idle) = (None, None);
        for &nb in &self.adjacency[at.index()] {
            let d = self.manhattan(nb, dest);
            if d < best {
                (best, first, idle) = (d, Some(nb), None);
            } else if d > best || first.is_none() {
                continue;
            }
            if idle.is_none() && loads.load(at, nb) < ADAPTIVE_THRESHOLD {
                idle = Some(nb);
            }
        }
        idle.or(first).ok_or(SfError::RoutingStuck {
            at: at.index(),
            destination: dest.index(),
        })
    }

    fn virtual_channel(&self, at: NodeId, _next: NodeId, dest: NodeId) -> VirtualChannelId {
        // Classic dateline-free scheme for minimal mesh routing: one channel
        // towards higher node indices, the other towards lower.
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
    use crate::protocol::{trace_route, trace_route_with_loads, TableLoad, ZeroLoad};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn routes_follow_manhattan_distance() {
        let mesh = MeshTopology::distributed(16).unwrap();
        let routing = MeshRouting::new(&mesh);
        for s in 0..16 {
            for t in 0..16 {
                let route = trace_route(&routing, n(s), n(t), 16).unwrap();
                assert!(!route.has_loop());
                assert_eq!(route.hops(), routing.manhattan(n(s), n(t)));
            }
        }
    }

    #[test]
    fn odm_express_links_shorten_routes() {
        let dm = MeshTopology::distributed(64).unwrap();
        let odm = MeshTopology::optimized(64).unwrap();
        let dm_routing = MeshRouting::new(&dm);
        let odm_routing = MeshRouting::new(&odm);
        let mut dm_total = 0;
        let mut odm_total = 0;
        for s in (0..64).step_by(5) {
            for t in (0..64).step_by(7) {
                dm_total += trace_route(&dm_routing, n(s), n(t), 64).unwrap().hops();
                odm_total += trace_route(&odm_routing, n(s), n(t), 64).unwrap().hops();
            }
        }
        assert!(odm_total < dm_total);
    }

    #[test]
    fn adaptive_tie_breaking_prefers_idle_port() {
        let mesh = MeshTopology::distributed(16).unwrap();
        let routing = MeshRouting::new(&mesh);
        // From node 0 to node 5 both node 1 (east) and node 4 (south) make
        // equal progress.
        let ctx = RoutingContext::default();
        let default_choice = routing.next_hop(n(0), n(5), &ZeroLoad, &ctx).unwrap();
        let mut loads = TableLoad::new();
        loads.set(n(0), default_choice, 0.9);
        let diverted = routing.next_hop(n(0), n(5), &loads, &ctx).unwrap();
        assert_ne!(diverted, default_choice);
        assert_eq!(routing.manhattan(diverted, n(5)), 1);
    }

    #[test]
    fn congested_network_routes_remain_loop_free() {
        let mesh = MeshTopology::distributed(25).unwrap();
        let routing = MeshRouting::new(&mesh);
        let mut loads = TableLoad::new();
        for a in 0..25 {
            for b in 0..25 {
                loads.set(n(a), n(b), 0.8);
            }
        }
        for s in 0..25 {
            for t in 0..25 {
                let route = trace_route_with_loads(&routing, n(s), n(t), 25, &loads).unwrap();
                assert!(!route.has_loop());
            }
        }
    }

    #[test]
    fn unknown_nodes_rejected_and_self_route() {
        let mesh = MeshTopology::distributed(9).unwrap();
        let routing = MeshRouting::new(&mesh);
        let ctx = RoutingContext::default();
        assert!(matches!(
            routing.next_hop(n(0), n(100), &ZeroLoad, &ctx),
            Err(SfError::UnknownNode { .. })
        ));
        assert_eq!(routing.next_hop(n(3), n(3), &ZeroLoad, &ctx).unwrap(), n(3));
    }

    #[test]
    fn virtual_channels_split_by_direction() {
        let mesh = MeshTopology::distributed(9).unwrap();
        let routing = MeshRouting::new(&mesh);
        assert_eq!(
            routing.virtual_channel(n(0), n(1), n(8)),
            VirtualChannelId::UP
        );
        assert_eq!(
            routing.virtual_channel(n(8), n(7), n(0)),
            VirtualChannelId::DOWN
        );
    }
}
