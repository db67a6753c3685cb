//! The routing-protocol abstraction shared by String Figure's greediest
//! routing and all baseline protocols.
//!
//! A [`RoutingProtocol`] makes per-hop forwarding decisions: given the node a
//! packet currently occupies and its destination, it returns the next hop.
//! Adaptive protocols additionally consult a [`PortLoadEstimator`] that
//! reports the occupancy of each outgoing link's queue, which the cycle-level
//! simulator wires to its real queue counters and analysis code stubs out with
//! [`ZeroLoad`].
//!
//! [`trace_route`] walks a protocol hop by hop and returns the full path,
//! which is how the hop-count studies (Figure 9a) and the loop-freedom
//! property tests exercise a protocol without running the full simulator.

use sf_types::{NodeId, SfError, SfResult, VirtualChannelId};

/// Reports the current load (queue occupancy fraction, `0.0..=1.0`) of the
/// outgoing link from one node towards a neighbouring node.
///
/// **Locality restriction:** while deciding a hop for a packet at node `n`,
/// a protocol must only query `load(n, x)` — its *own* outgoing links, the
/// credit counters a router holds in hardware. Every protocol in this
/// workspace obeys the restriction.
pub trait PortLoadEstimator {
    /// Occupancy fraction of the output queue from `from` towards `to`.
    fn load(&self, from: NodeId, to: NodeId) -> f64;
}

/// A [`PortLoadEstimator`] that reports an idle network; used for static
/// analysis and as the default when adaptivity is irrelevant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroLoad;

impl PortLoadEstimator for ZeroLoad {
    fn load(&self, _from: NodeId, _to: NodeId) -> f64 {
        0.0
    }
}

/// A [`PortLoadEstimator`] backed by an explicit table of loads, convenient in
/// tests and in the adaptive-routing experiments.
#[derive(Debug, Clone, Default)]
pub struct TableLoad {
    entries: std::collections::HashMap<(usize, usize), f64>,
}

impl TableLoad {
    /// Creates an empty load table (all links idle).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the load of the link from `from` to `to`.
    pub fn set(&mut self, from: NodeId, to: NodeId, load: f64) {
        self.entries.insert((from.index(), to.index()), load);
    }
}

impl PortLoadEstimator for TableLoad {
    fn load(&self, from: NodeId, to: NodeId) -> f64 {
        self.entries
            .get(&(from.index(), to.index()))
            .copied()
            .unwrap_or(0.0)
    }
}

/// Queue-occupancy fraction from which adaptive routing avoids an output
/// port: a port is preferred while its [`PortLoadEstimator::load`] is below
/// it, that is, while its downstream queues are less than half full.
pub const ADAPTIVE_THRESHOLD: f64 = 0.5;

/// Per-decision context handed to a routing protocol.
#[derive(Debug, Clone, Copy)]
pub struct RoutingContext {
    /// Whether this is the packet's first hop (String Figure only adapts the
    /// first-hop decision).
    pub first_hop: bool,
}

impl Default for RoutingContext {
    fn default() -> Self {
        Self { first_hop: true }
    }
}

/// A memory-network routing protocol.
///
/// Protocols are `Send + Sync`, so simulators and the networks that hold
/// them can cross sweep-worker threads, and forwarding decisions are
/// computed from `&self`. Mutable diagnostics (decision counters and the
/// like) use atomics, and their values must never feed back into forwarding
/// decisions.
///
/// When deciding a hop at node `n`, only query the estimator for `n`'s own
/// outgoing links (`loads.load(n, candidate)`) — see the restriction on
/// [`PortLoadEstimator`].
pub trait RoutingProtocol: Send + Sync {
    /// Short name used in experiment output (e.g. `"greediest"`,
    /// `"xy-adaptive"`, `"k-shortest"`).
    fn name(&self) -> &'static str;

    /// Chooses the next hop for a packet at `at` destined for `dest`.
    ///
    /// # Errors
    ///
    /// * [`SfError::UnknownNode`] if either node does not exist.
    /// * [`SfError::NodeOffline`] if either node is powered off.
    /// * [`SfError::RoutingStuck`] if no forwarding choice exists (indicates a
    ///   disconnected or mis-configured network).
    fn next_hop(
        &self,
        at: NodeId,
        dest: NodeId,
        loads: &dyn PortLoadEstimator,
        ctx: &RoutingContext,
    ) -> SfResult<NodeId>;

    /// Virtual channel a packet should use on the hop from `at` to `next`
    /// while travelling to `dest`. The default is a single channel; String
    /// Figure overrides this with its coordinate-direction rule.
    fn virtual_channel(&self, _at: NodeId, _next: NodeId, _dest: NodeId) -> VirtualChannelId {
        VirtualChannelId::UP
    }

    /// Upper bound on route length used by [`trace_route`] to detect
    /// livelock; defaults to four times the node count.
    fn max_hops(&self, num_nodes: usize) -> usize {
        4 * num_nodes.max(4)
    }
}

/// A protocol object prints as its name, so the types that hold one can
/// derive `Debug`.
impl std::fmt::Debug for dyn RoutingProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A shared protocol routes like the protocol it holds, so simulators of one
/// network can share one routing build. Counters in the shared protocol
/// count every holder's decisions, so a counter a study reads must live per
/// run, not in a shared protocol.
impl<P: RoutingProtocol + ?Sized> RoutingProtocol for std::sync::Arc<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn next_hop(
        &self,
        at: NodeId,
        dest: NodeId,
        loads: &dyn PortLoadEstimator,
        ctx: &RoutingContext,
    ) -> SfResult<NodeId> {
        (**self).next_hop(at, dest, loads, ctx)
    }

    fn virtual_channel(&self, at: NodeId, next: NodeId, dest: NodeId) -> VirtualChannelId {
        (**self).virtual_channel(at, next, dest)
    }

    fn max_hops(&self, num_nodes: usize) -> usize {
        (**self).max_hops(num_nodes)
    }
}

/// A complete route produced by [`trace_route`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTrace {
    /// Nodes visited, starting with the source and ending with the
    /// destination.
    pub path: Vec<NodeId>,
}

impl RouteTrace {
    /// Number of hops (links traversed).
    #[must_use]
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// Whether the route ever visits the same node twice.
    #[must_use]
    pub fn has_loop(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.path.iter().any(|n| !seen.insert(*n))
    }

    /// Source node of the route.
    #[must_use]
    pub fn source(&self) -> NodeId {
        *self.path.first().expect("routes are never empty")
    }

    /// Destination node of the route.
    #[must_use]
    pub fn destination(&self) -> NodeId {
        *self.path.last().expect("routes are never empty")
    }
}

/// Walks `protocol` hop by hop from `from` to `to` on an idle network and
/// returns the visited path.
///
/// # Errors
///
/// Propagates any error from the protocol, and returns
/// [`SfError::RoutingStuck`] if the route exceeds the protocol's
/// [`RoutingProtocol::max_hops`] bound (livelock).
pub fn trace_route<P: RoutingProtocol + ?Sized>(
    protocol: &P,
    from: NodeId,
    to: NodeId,
    num_nodes: usize,
) -> SfResult<RouteTrace> {
    trace_route_with_loads(protocol, from, to, num_nodes, &ZeroLoad)
}

/// Like [`trace_route`] but with an explicit load estimator, so adaptive
/// decisions can be exercised.
///
/// # Errors
///
/// Same conditions as [`trace_route`].
pub fn trace_route_with_loads<P: RoutingProtocol + ?Sized>(
    protocol: &P,
    from: NodeId,
    to: NodeId,
    num_nodes: usize,
    loads: &dyn PortLoadEstimator,
) -> SfResult<RouteTrace> {
    let mut path = vec![from];
    let mut current = from;
    let max_hops = protocol.max_hops(num_nodes);
    let mut ctx = RoutingContext::default();
    while current != to {
        if path.len() > max_hops {
            return Err(SfError::RoutingStuck {
                at: current.index(),
                destination: to.index(),
            });
        }
        let next = protocol.next_hop(current, to, loads, &ctx)?;
        ctx.first_hop = false;
        path.push(next);
        current = next;
    }
    Ok(RouteTrace { path })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A protocol over a ring of `n` nodes that always forwards clockwise.
    struct ClockwiseRing {
        n: usize,
    }

    impl RoutingProtocol for ClockwiseRing {
        fn name(&self) -> &'static str {
            "clockwise-ring"
        }

        fn next_hop(
            &self,
            at: NodeId,
            _dest: NodeId,
            _loads: &dyn PortLoadEstimator,
            _ctx: &RoutingContext,
        ) -> SfResult<NodeId> {
            Ok(NodeId::new((at.index() + 1) % self.n))
        }
    }

    /// A protocol that never makes progress, for livelock detection tests.
    struct Stuck;

    impl RoutingProtocol for Stuck {
        fn name(&self) -> &'static str {
            "stuck"
        }

        fn next_hop(
            &self,
            at: NodeId,
            _dest: NodeId,
            _loads: &dyn PortLoadEstimator,
            _ctx: &RoutingContext,
        ) -> SfResult<NodeId> {
            Ok(at)
        }

        fn max_hops(&self, _num_nodes: usize) -> usize {
            8
        }
    }

    #[test]
    fn trace_route_on_ring() {
        let proto = ClockwiseRing { n: 6 };
        let route = trace_route(&proto, NodeId::new(1), NodeId::new(4), 6).unwrap();
        assert_eq!(route.hops(), 3);
        assert_eq!(route.source(), NodeId::new(1));
        assert_eq!(route.destination(), NodeId::new(4));
        assert!(!route.has_loop());
    }

    #[test]
    fn trace_route_to_self_is_empty() {
        let proto = ClockwiseRing { n: 6 };
        let route = trace_route(&proto, NodeId::new(2), NodeId::new(2), 6).unwrap();
        assert_eq!(route.hops(), 0);
        assert!(!route.has_loop());
    }

    #[test]
    fn livelock_is_detected() {
        let proto = Stuck;
        let err = trace_route(&proto, NodeId::new(0), NodeId::new(3), 6).unwrap_err();
        assert!(matches!(err, SfError::RoutingStuck { .. }));
    }

    #[test]
    fn loop_detection_in_trace() {
        let trace = RouteTrace {
            path: vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(0),
                NodeId::new(2),
            ],
        };
        assert!(trace.has_loop());
        assert_eq!(trace.hops(), 3);
    }

    #[test]
    fn load_estimators() {
        let zero = ZeroLoad;
        assert_eq!(zero.load(NodeId::new(0), NodeId::new(1)), 0.0);
        let mut table = TableLoad::new();
        table.set(NodeId::new(0), NodeId::new(1), 0.75);
        assert_eq!(table.load(NodeId::new(0), NodeId::new(1)), 0.75);
        assert_eq!(table.load(NodeId::new(1), NodeId::new(0)), 0.0);
    }

    #[test]
    fn default_context_and_vc() {
        let ctx = RoutingContext::default();
        assert!(ctx.first_hop);
        let proto = ClockwiseRing { n: 4 };
        assert_eq!(
            proto.virtual_channel(NodeId::new(0), NodeId::new(1), NodeId::new(2)),
            VirtualChannelId::UP
        );
        assert_eq!(proto.max_hops(10), 40);
        assert_eq!(proto.name(), "clockwise-ring");
    }
}
