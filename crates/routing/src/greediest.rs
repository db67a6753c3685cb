//! String Figure's adaptive greediest routing protocol.
//!
//! Forwarding works purely on coordinates (Section III-B):
//!
//! 1. The router computes the minimum circular distance (MD) from each usable
//!    one-hop neighbour to the destination and considers the *improving set*
//!    `W = { w : MD(w, t) < MD(s, t) }`. Forwarding to a member of `W` makes
//!    the MD strictly decrease at every hop, which is the progressive,
//!    distance-reducing property behind the paper's loop-freedom proof
//!    (Appendix A, Lemmas 1–2, Proposition 3).
//! 2. Two-hop entries of the routing table refine the choice *within* `W`:
//!    each improving neighbour is scored by the best MD reachable through it
//!    in at most one more hop, so the router effectively looks two hops ahead
//!    without giving up the per-hop progress guarantee.
//! 3. Adaptive routing diverts only the first hop: among the improving
//!    neighbours the source prefers an output port whose queue occupancy is
//!    below [`ADAPTIVE_THRESHOLD`] (50%).
//! 4. Two virtual channels avoid buffer-dependency deadlocks: a packet uses
//!    the *up* channel when the destination's coordinate (in the MD-defining
//!    space) is above the current node's, and the *down* channel otherwise.
//!
//! After power gating, the improving set of a router can momentarily be empty
//! (its ring neighbour in the best space may be offline). The hardware
//! equivalent would stall until reconfiguration completes; the protocol here
//! falls back to a breadth-first-search next hop on the live graph and counts
//! the event, so experiments can report how often the greedy invariant had to
//! be bypassed.
//!
//! # Forwarding state
//!
//! Each router's [`RoutingTable`] is built, flattened into one flat,
//! CSR-style store shared by all routers, and then dropped. Per router the
//! store holds its one-hop neighbours in node-id order; per one-hop
//! neighbour, the contiguous group of two-hop targets the table first reached
//! through it; and every node's own coordinates. Coordinates sit inline, one
//! per virtual space, so a decision reads one contiguous block and scores an
//! improving neighbour over its own two-hop group only. The table stays the
//! one definition of what a router stores: the store keeps its rows'
//! coordinates and neighbour ids, and [`GreediestRouting::table_len`] its row
//! count.
//!
//! A reconfiguration touches only the routers near the gated node
//! (Section III-C), and so does [`GreediestRouting::resync`]: it rebuilds
//! the blocks of the routers whose tables can have changed and copies every
//! other block into the new store unchanged. The new store is the one the
//! previous resync replaced, refilled in place.

use crate::protocol::{PortLoadEstimator, RoutingContext, RoutingProtocol, ADAPTIVE_THRESHOLD};
use crate::table::{HopCount, RoutingTable, RoutingTableEntry};
use sf_topology::{AdjacencyGraph, StringFigureTopology, VirtualSpaces};
use sf_types::{
    circular_distance, Coordinate, CoordinateVector, NodeId, SfError, SfResult, VirtualChannelId,
};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Options of the greediest protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreediestOptions {
    /// Adapt the first-hop decision to port load: String Figure does, the
    /// S2 baseline does not.
    pub adaptive: bool,
}

impl Default for GreediestOptions {
    fn default() -> Self {
        Self { adaptive: true }
    }
}

/// Minimum circular distance between two coordinate slices of equal length:
/// the same fold as [`sf_types::minimum_circular_distance`], so both give
/// bit-identical values.
fn slice_md(a: &[Coordinate], b: &[Coordinate]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| circular_distance(x, y))
        .fold(f64::INFINITY, f64::min)
}

/// An offset into one of the store's flat arrays.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("forwarding store offsets fit in u32")
}

/// Every node's coordinates in node order, one per virtual space: the
/// store's `coords`.
fn node_coords(spaces: &VirtualSpaces) -> impl Iterator<Item = Coordinate> + '_ {
    spaces
        .all_coordinates()
        .iter()
        .flat_map(CoordinateVector::iter)
}

/// The forwarding state of every router, flattened.
///
/// Router `v`'s one-hop neighbours are the slots `routers[v]..routers[v + 1]`
/// of `one_hop`, in node-id order. One-hop slot `i`'s two-hop group is the
/// slots `groups[i]..groups[i + 1]` of `two_hop`. The default store is empty:
/// no routers and no coordinates.
#[derive(Debug, Default, PartialEq)]
struct ForwardingStore {
    /// Coordinates per node or slot: the number of virtual spaces.
    spaces: usize,
    /// Every node's own full-precision coordinates.
    coords: Vec<Coordinate>,
    routers: Vec<u32>,
    one_hop: Slots,
    groups: Vec<u32>,
    two_hop: Slots,
}

/// Neighbour slots: ids, and each slot's coordinates inline at the same
/// index, `spaces` per slot.
#[derive(Debug, Default, PartialEq)]
struct Slots {
    ids: Vec<NodeId>,
    coords: Vec<Coordinate>,
}

impl Slots {
    /// Removes every slot, keeping the allocations.
    fn clear(&mut self) {
        self.ids.clear();
        self.coords.clear();
    }

    /// Appends one neighbour's table rows (one per virtual space, in space
    /// order) as a slot.
    fn push(&mut self, rows: &[RoutingTableEntry]) {
        debug_assert!(rows
            .iter()
            .enumerate()
            .all(|(s, row)| row.neighbor == rows[0].neighbor && row.space.index() == s));
        self.ids.push(rows[0].neighbor);
        self.coords
            .extend(rows.iter().map(|row| row.full_coordinate));
    }

    /// Appends `from`'s slots in `range`.
    fn extend_from(&mut self, from: &Self, range: Range<usize>, spaces: usize) {
        self.coords
            .extend_from_slice(&from.coords[range.start * spaces..range.end * spaces]);
        self.ids.extend_from_slice(&from.ids[range]);
    }

    /// The slots in `range`, each with its coordinates.
    fn get(
        &self,
        range: Range<usize>,
        spaces: usize,
    ) -> impl Iterator<Item = (NodeId, &[Coordinate])> + '_ {
        let coords = &self.coords[range.start * spaces..range.end * spaces];
        self.ids[range]
            .iter()
            .copied()
            .zip(coords.chunks_exact(spaces))
    }
}

impl ForwardingStore {
    /// Refills the store for `graph` and `spaces`, keeping its allocations.
    /// A router marked in `dirty` gets the block of its freshly built table;
    /// every other router's block is copied from `previous`.
    fn fill(
        &mut self,
        graph: &AdjacencyGraph,
        spaces: &VirtualSpaces,
        dirty: &[bool],
        previous: &Self,
    ) {
        self.spaces = spaces.num_spaces();
        self.coords.clear();
        self.coords.extend(node_coords(spaces));
        self.routers.clear();
        self.routers.push(0);
        self.one_hop.clear();
        self.groups.clear();
        self.groups.push(0);
        self.two_hop.clear();
        for v in graph.nodes() {
            if dirty[v.index()] {
                self.push_router(&RoutingTable::build(v, graph, spaces));
            } else {
                self.copy_router(previous, v);
            }
        }
    }

    /// Appends one router's table: each one-hop neighbour in node-id order,
    /// and its group of the two-hop targets reached through it.
    fn push_router(&mut self, table: &RoutingTable) {
        let (mut one_hop, two_hop): (Vec<_>, Vec<_>) = table
            .entries()
            .chunks_exact(self.spaces)
            .partition(|rows| rows[0].hop == HopCount::One);
        one_hop.sort_by_key(|rows| rows[0].neighbor);
        for rows in one_hop {
            self.one_hop.push(rows);
            for two in two_hop.iter().filter(|two| two[0].via == rows[0].neighbor) {
                self.two_hop.push(two);
            }
            self.groups.push(offset(self.two_hop.ids.len()));
        }
        self.routers.push(offset(self.one_hop.ids.len()));
    }

    /// Appends router `v`'s block of `from`, with its group offsets rebased
    /// onto this store's two-hop slots.
    fn copy_router(&mut self, from: &Self, v: NodeId) {
        let slots = from.slots(v);
        let groups = &from.groups[slots.start..=slots.end];
        let (first, last) = (groups[0], groups[groups.len() - 1]);
        let base = self.two_hop.ids.len();
        self.one_hop.extend_from(&from.one_hop, slots, self.spaces);
        self.two_hop
            .extend_from(&from.two_hop, first as usize..last as usize, self.spaces);
        self.groups.extend(
            groups[1..]
                .iter()
                .map(|&end| offset(base + (end - first) as usize)),
        );
        self.routers.push(offset(self.one_hop.ids.len()));
    }

    /// Node `v`'s own coordinates.
    fn coords(&self, v: NodeId) -> &[Coordinate] {
        &self.coords[v.index() * self.spaces..][..self.spaces]
    }

    /// Router `v`'s one-hop slots.
    fn slots(&self, v: NodeId) -> Range<usize> {
        self.routers[v.index()] as usize..self.routers[v.index() + 1] as usize
    }

    /// Router `v`'s one-hop neighbours, in node-id order.
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.one_hop.ids[self.slots(v)]
    }

    /// Router `v`'s one-hop neighbours in node-id order, each with its
    /// coordinates and its two-hop group.
    fn one_hop(
        &self,
        v: NodeId,
    ) -> impl Iterator<Item = (NodeId, &[Coordinate], Range<usize>)> + '_ {
        let slots = self.slots(v);
        let groups = self.groups[slots.start..=slots.end].windows(2);
        self.one_hop
            .get(slots, self.spaces)
            .zip(groups)
            .map(|((node, coords), group)| (node, coords, group[0] as usize..group[1] as usize))
    }

    /// The targets of one two-hop group, each with its coordinates.
    fn two_hop(&self, group: Range<usize>) -> impl Iterator<Item = (NodeId, &[Coordinate])> + '_ {
        self.two_hop.get(group, self.spaces)
    }

    /// Rows of router `v`'s routing table: one per virtual space for every
    /// one- and two-hop neighbour.
    fn table_len(&self, v: NodeId) -> usize {
        let slots = self.slots(v);
        let two_hop = (self.groups[slots.end] - self.groups[slots.start]) as usize;
        (slots.len() + two_hop) * self.spaces
    }
}

/// Decision-count stripes, and the counters from one stripe to the next
/// (128 bytes).
const STRIPES: usize = 16;
const STRIDE: usize = 16;

/// The greediest routing protocol over a String Figure (or S2) topology.
///
/// # Examples
///
/// ```
/// use sf_routing::{GreediestRouting, trace_route};
/// use sf_topology::StringFigureTopology;
/// use sf_types::{NetworkConfig, NodeId};
///
/// let topo = StringFigureTopology::generate(&NetworkConfig::new(64, 4)?)?;
/// let routing = GreediestRouting::new(&topo);
/// let route = trace_route(&routing, NodeId::new(3), NodeId::new(40), 64)?;
/// assert!(!route.has_loop());
/// assert!(route.hops() <= 12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct GreediestRouting {
    options: GreediestOptions,
    store: ForwardingStore,
    /// The store the last resync replaced. The next resync refills it, so
    /// resyncs reuse two stores' allocations instead of allocating one each.
    spare: ForwardingStore,
    active: Vec<bool>,
    routers_rebuilt: u64,
    fallback_routes: AtomicU64,
    /// Decisions, counted in [`STRIPES`] stripes chosen by the deciding
    /// router. Simulators that share one routing run on different sweep
    /// workers; with one counter every decision wrote the same cache line,
    /// and two such simulators ran about a quarter slower than two with
    /// their own routing.
    decisions: Box<[AtomicU64]>,
}

/// Two instances are equal when they forward alike: the same options, the
/// same forwarding state and the same live routers. The decision, fallback
/// and rebuild counters record use, not state, and the spare store holds
/// none; they are not compared.
impl PartialEq for GreediestRouting {
    fn eq(&self, other: &Self) -> bool {
        self.options == other.options && self.store == other.store && self.active == other.active
    }
}

impl GreediestRouting {
    /// Builds the protocol state (all per-router tables) for a String Figure
    /// topology with default options.
    #[must_use]
    pub fn new(topology: &StringFigureTopology) -> Self {
        Self::with_options(topology, GreediestOptions::default())
    }

    /// Builds the protocol state with explicit options.
    #[must_use]
    pub fn with_options(topology: &StringFigureTopology, options: GreediestOptions) -> Self {
        Self::from_parts(topology.graph(), topology.spaces(), options)
    }

    /// Builds the protocol from a raw graph plus virtual spaces (also used for
    /// the S2 baseline, which shares the coordinate structure): a
    /// [`GreediestRouting::resync`] from the empty store, which rebuilds
    /// every router.
    #[must_use]
    pub fn from_parts(
        graph: &AdjacencyGraph,
        spaces: &VirtualSpaces,
        options: GreediestOptions,
    ) -> Self {
        let mut routing = Self {
            options,
            store: ForwardingStore::default(),
            spare: ForwardingStore::default(),
            active: Vec::new(),
            routers_rebuilt: 0,
            fallback_routes: AtomicU64::new(0),
            decisions: (0..STRIPES * STRIDE).map(|_| AtomicU64::new(0)).collect(),
        };
        routing.resync(graph, spaces);
        routing
    }

    /// Brings the routing state in line with the (possibly reconfigured)
    /// topology, rebuilding only the routers whose tables can have changed.
    /// The paper updates only the routers near a gated node (Section III-C);
    /// so does this.
    ///
    /// A router's block depends only on its own live neighbour list, its
    /// neighbours' lists and the fixed coordinates. Call a router *changed*
    /// when its live neighbour list in `graph`, or its activity, differs from
    /// the store's. A router that is not changed keeps its own list, so its
    /// block can differ only through a neighbour's list, that is, only if it
    /// is a live neighbour of a changed router. The changed routers and their
    /// live neighbours are therefore rebuilt from their [`RoutingTable`], and
    /// every other block is copied into the new store with its offsets
    /// rebased. The result equals a fresh [`GreediestRouting::from_parts`] on
    /// the same topology. When the number of nodes or the coordinates differ
    /// from the store's (another topology, or the empty store `from_parts`
    /// starts from), every router is rebuilt.
    ///
    /// The new store is the one the previous resync replaced, refilled in
    /// place, so a resync allocates no store once two exist.
    ///
    /// The changed routers are read off the graph, not off a
    /// [`ReconfigurationDelta`](sf_topology::ReconfigurationDelta): most of
    /// the links a delta lists were switched off and back on in the same
    /// step. [`GreediestRouting::routers_rebuilt`] counts the rebuilt
    /// routers.
    pub fn resync(&mut self, graph: &AdjacencyGraph, spaces: &VirtualSpaces) {
        let dirty = if self.active.len() == graph.num_nodes()
            && self.store.spaces == spaces.num_spaces()
            && self.store.coords.iter().copied().eq(node_coords(spaces))
        {
            self.dirty_routers(graph)
        } else {
            vec![true; graph.num_nodes()]
        };
        let mut next = std::mem::take(&mut self.spare);
        next.fill(graph, spaces, &dirty, &self.store);
        self.spare = std::mem::replace(&mut self.store, next);
        self.active = graph.nodes().map(|v| graph.is_active(v)).collect();
        self.routers_rebuilt += dirty.iter().filter(|&&d| d).count() as u64;
    }

    /// The routers whose block can differ between the store and `graph`:
    /// every router whose live neighbour list or activity changed, and every
    /// live neighbour of one.
    fn dirty_routers(&self, graph: &AdjacencyGraph) -> Vec<bool> {
        let mut dirty = vec![false; graph.num_nodes()];
        for v in graph.nodes() {
            let live = graph.active_neighbors(v);
            if graph.is_active(v) != self.active[v.index()] || live != self.store.neighbors(v) {
                dirty[v.index()] = true;
                for u in live {
                    dirty[u.index()] = true;
                }
            }
        }
        dirty
    }

    /// Number of rows in `router`'s routing table: one per virtual space for
    /// every one- and two-hop neighbour, as [`RoutingTable::len`] counts them.
    /// Times [`RoutingTable::entry_bits`], this is the router's storage cost.
    ///
    /// # Panics
    ///
    /// Panics if `router` is not a node of the network.
    #[must_use]
    pub fn table_len(&self, router: NodeId) -> usize {
        self.store.table_len(router)
    }

    /// The options this protocol instance was built with.
    #[must_use]
    pub fn options(&self) -> &GreediestOptions {
        &self.options
    }

    /// Number of forwarding decisions that had to fall back to BFS because no
    /// improving neighbour existed (0 on an un-gated String Figure topology).
    #[must_use]
    pub fn fallback_count(&self) -> u64 {
        self.fallback_routes.load(Ordering::Relaxed)
    }

    /// Total number of forwarding decisions made.
    #[must_use]
    pub fn decision_count(&self) -> u64 {
        self.decisions
            .iter()
            .map(|n| n.load(Ordering::Relaxed))
            .sum()
    }

    /// Total number of router blocks built: every router for the first
    /// build, then the routers each [`GreediestRouting::resync`] rebuilt. It
    /// depends only on the topologies resynced to, so a difference across
    /// one gate or ungate is that event's routing-update footprint.
    #[must_use]
    pub fn routers_rebuilt(&self) -> u64 {
        self.routers_rebuilt
    }

    /// Minimum circular distance between two nodes' coordinate vectors.
    #[must_use]
    pub fn md(&self, a: NodeId, b: NodeId) -> f64 {
        slice_md(self.store.coords(a), self.store.coords(b))
    }

    fn check(&self, node: NodeId) -> SfResult<()> {
        if node.index() >= self.active.len() {
            return Err(SfError::UnknownNode {
                node: node.index(),
                network_size: self.active.len(),
            });
        }
        if !self.active[node.index()] {
            return Err(SfError::NodeOffline { node: node.index() });
        }
        Ok(())
    }

    /// BFS escape hatch used when the greedy improving set is empty (only
    /// possible transiently after reconfiguration).
    fn bfs_next_hop(&self, at: NodeId, dest: NodeId) -> SfResult<NodeId> {
        let n = self.active.len();
        let mut prev: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        visited[at.index()] = true;
        let mut queue = VecDeque::new();
        queue.push_back(at.index());
        while let Some(cur) = queue.pop_front() {
            if cur == dest.index() {
                // Walk back to the first hop.
                let mut hop = cur;
                while let Some(p) = prev[hop] {
                    if p == at.index() {
                        return Ok(NodeId::new(hop));
                    }
                    hop = p;
                }
                return Ok(NodeId::new(hop));
            }
            for next in self.store.neighbors(NodeId::new(cur)) {
                let ni = next.index();
                if !visited[ni] && self.active[ni] {
                    visited[ni] = true;
                    prev[ni] = Some(cur);
                    queue.push_back(ni);
                }
            }
        }
        Err(SfError::RoutingStuck {
            at: at.index(),
            destination: dest.index(),
        })
    }
}

impl RoutingProtocol for GreediestRouting {
    fn name(&self) -> &'static str {
        if self.options.adaptive {
            "greediest-adaptive"
        } else {
            "greediest"
        }
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
        self.decisions[at.index() % STRIPES * STRIDE].fetch_add(1, Ordering::Relaxed);
        if at == dest {
            return Ok(dest);
        }

        let dest_coords = self.store.coords(dest);
        let current_md = slice_md(self.store.coords(at), dest_coords);

        // Direct neighbour? Deliver immediately.
        if self
            .store
            .neighbors(at)
            .iter()
            .any(|node| *node == dest && self.active[dest.index()])
        {
            return Ok(dest);
        }

        // Score an improving neighbour by the best MD reachable through it
        // within one more hop (two-hop lookahead). Only its own two-hop group
        // can reach further through it.
        let score = |group: Range<usize>, own_md: f64| -> f64 {
            let mut best = own_md;
            for (target, coords) in self.store.two_hop(group) {
                if self.active[target.index()] {
                    let md = if target == dest {
                        0.0
                    } else {
                        slice_md(coords, dest_coords)
                    };
                    if md < best {
                        best = md;
                    }
                }
            }
            best
        };

        // Stream the improving set W (one-hop neighbours strictly closer to
        // the destination in MD) straight out of the store in node-id order:
        // no per-decision collect or sort. Strict `<` keeps the first minimum
        // in node-id order.
        let adaptive = self.options.adaptive && ctx.first_hop;
        let mut best_overall: Option<(NodeId, f64)> = None;
        // Best-scored neighbour whose output queue is below
        // ADAPTIVE_THRESHOLD; if every improving port is congested, the
        // overall best wins (the paper's behaviour).
        let mut best_under: Option<(NodeId, f64)> = None;
        for (node, coords, group) in self.store.one_hop(at) {
            if !self.active[node.index()] {
                continue;
            }
            let md = slice_md(coords, dest_coords);
            if md >= current_md {
                continue;
            }
            let scored = score(group, md);
            if best_overall.is_none_or(|(_, best)| scored < best) {
                best_overall = Some((node, scored));
            }
            if adaptive
                && loads.load(at, node) < ADAPTIVE_THRESHOLD
                && best_under.is_none_or(|(_, best)| scored < best)
            {
                best_under = Some((node, scored));
            }
        }

        let Some((overall, _)) = best_overall else {
            self.fallback_routes.fetch_add(1, Ordering::Relaxed);
            return self.bfs_next_hop(at, dest);
        };
        if let Some((under, _)) = best_under {
            return Ok(under);
        }
        Ok(overall)
    }

    fn virtual_channel(&self, at: NodeId, _next: NodeId, dest: NodeId) -> VirtualChannelId {
        let at_coords = self.store.coords(at);
        let dest_coords = self.store.coords(dest);
        // The MD-defining space: the first one at minimum circular distance,
        // as `CoordinateVector::closest_space` picks it.
        let mut space = 0;
        let mut closest = f64::INFINITY;
        for (s, (&a, &d)) in at_coords.iter().zip(dest_coords).enumerate() {
            let distance = circular_distance(a, d);
            if distance < closest {
                space = s;
                closest = distance;
            }
        }
        if dest_coords[space] >= at_coords[space] {
            VirtualChannelId::UP
        } else {
            VirtualChannelId::DOWN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{trace_route, trace_route_with_loads, TableLoad};
    use sf_topology::spaces::paper_figure3_example;
    use sf_types::{minimum_circular_distance, DeterministicRng, NetworkConfig};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn generate(nodes: usize, ports: usize, seed: u64) -> StringFigureTopology {
        let config = NetworkConfig::new(nodes, ports).unwrap().with_seed(seed);
        StringFigureTopology::generate(&config).unwrap()
    }

    /// Asserts that `routing`'s forwarding state and live routers equal a
    /// fresh build's on `graph`.
    fn assert_fresh(
        routing: &GreediestRouting,
        graph: &AdjacencyGraph,
        spaces: &VirtualSpaces,
        label: &str,
    ) {
        let fresh = GreediestRouting::from_parts(graph, spaces, routing.options);
        // Not `assert_eq!`: a 1296-node store prints megabytes.
        assert!(routing.store == fresh.store, "{label}: store differs");
        assert_eq!(routing.active, fresh.active, "{label}: live routers differ");
    }

    /// Gates up to `victims` seeded-random nodes of `topo` one at a time,
    /// then ungates them in reverse order, resyncing `routing` after every
    /// event. Calls `after` once each event is resynced, and returns how many
    /// routers each event rebuilt.
    fn gate_then_ungate(
        topo: &mut StringFigureTopology,
        routing: &mut GreediestRouting,
        victims: usize,
        seed: u64,
        mut after: impl FnMut(&GreediestRouting, &StringFigureTopology),
    ) -> Vec<u64> {
        let mut rebuilt = Vec::new();
        let mut resync = |routing: &mut GreediestRouting, topo: &StringFigureTopology| {
            let before = routing.routers_rebuilt();
            routing.resync(topo.graph(), topo.spaces());
            rebuilt.push(routing.routers_rebuilt() - before);
            after(routing, topo);
        };
        let mut order: Vec<NodeId> = topo.graph().nodes().collect();
        DeterministicRng::new(seed).shuffle(&mut order);
        let mut gated = Vec::new();
        for node in order {
            if gated.len() == victims {
                break;
            }
            if topo.gate_node(node).is_ok() {
                gated.push(node);
                resync(routing, topo);
            }
        }
        assert_eq!(gated.len(), victims, "too few nodes could be gated");
        for node in gated.into_iter().rev() {
            topo.ungate_node(node).unwrap();
            resync(routing, topo);
        }
        rebuilt
    }

    fn example() -> (StringFigureTopology, GreediestRouting) {
        let config = NetworkConfig::new(9, 4).unwrap();
        let topo = StringFigureTopology::from_spaces(config, paper_figure3_example()).unwrap();
        let routing = GreediestRouting::new(&topo);
        (topo, routing)
    }

    #[test]
    fn paper_worked_example_routes_7_to_2() {
        // Figure 6(a): Node-7 forwards a packet for Node-2 to the neighbour
        // with the smallest MD; the route must reach Node-2 loop-free in a
        // couple of hops.
        let (_, routing) = example();
        let route = trace_route(&routing, n(7), n(2), 9).unwrap();
        assert_eq!(route.source(), n(7));
        assert_eq!(route.destination(), n(2));
        assert!(!route.has_loop());
        assert!(route.hops() <= 3, "route {:?}", route.path);
        // Every hop strictly reduces the MD to the destination.
        for w in route.path.windows(2) {
            assert!(routing.md(w[1], n(2)) < routing.md(w[0], n(2)) || w[1] == n(2));
        }
    }

    #[test]
    fn all_pairs_loop_free_on_small_network() {
        let (_, routing) = example();
        for s in 0..9 {
            for t in 0..9 {
                let route = trace_route(&routing, n(s), n(t), 9).unwrap();
                assert!(!route.has_loop(), "{s}->{t}: {:?}", route.path);
                assert_eq!(route.destination(), n(t));
            }
        }
        assert_eq!(routing.fallback_count(), 0);
    }

    #[test]
    fn loop_free_on_generated_networks() {
        for &(nodes, ports, seed) in &[(61usize, 4usize, 1u64), (128, 4, 2), (200, 8, 3)] {
            let config = NetworkConfig::new(nodes, ports).unwrap().with_seed(seed);
            let topo = StringFigureTopology::generate(&config).unwrap();
            let routing = GreediestRouting::new(&topo);
            let mut max_hops = 0;
            for s in (0..nodes).step_by(7) {
                for t in (0..nodes).step_by(11) {
                    let route = trace_route(&routing, n(s), n(t), nodes).unwrap();
                    assert!(!route.has_loop(), "N={nodes} {s}->{t}");
                    max_hops = max_hops.max(route.hops());
                }
            }
            assert!(
                max_hops <= 3 * ports,
                "N={nodes}: greedy route of {max_hops} hops is suspiciously long"
            );
            assert_eq!(routing.fallback_count(), 0, "N={nodes}");
        }
    }

    #[test]
    fn md_matches_manual_computation() {
        let (topo, routing) = example();
        let a = topo.coordinates(n(7));
        let b = topo.coordinates(n(2));
        assert!((routing.md(n(7), n(2)) - minimum_circular_distance(a, b)).abs() < 1e-12);
        assert_eq!(routing.md(n(3), n(3)), 0.0);
    }

    #[test]
    fn direct_neighbor_is_delivered_immediately() {
        let (topo, routing) = example();
        let neighbor = topo.graph().active_neighbors(n(0))[0];
        let hop = routing
            .next_hop(
                n(0),
                neighbor,
                &crate::protocol::ZeroLoad,
                &RoutingContext::default(),
            )
            .unwrap();
        assert_eq!(hop, neighbor);
    }

    #[test]
    fn self_destination_returns_self() {
        let (_, routing) = example();
        let hop = routing
            .next_hop(
                n(4),
                n(4),
                &crate::protocol::ZeroLoad,
                &RoutingContext::default(),
            )
            .unwrap();
        assert_eq!(hop, n(4));
    }

    #[test]
    fn unknown_and_offline_nodes_are_rejected() {
        let config = NetworkConfig::new(16, 4).unwrap();
        let mut topo = StringFigureTopology::generate(&config).unwrap();
        topo.gate_node(n(5)).unwrap();
        let routing = GreediestRouting::new(&topo);
        let ctx = RoutingContext::default();
        assert!(matches!(
            routing.next_hop(n(0), n(99), &crate::protocol::ZeroLoad, &ctx),
            Err(SfError::UnknownNode { .. })
        ));
        assert!(matches!(
            routing.next_hop(n(0), n(5), &crate::protocol::ZeroLoad, &ctx),
            Err(SfError::NodeOffline { .. })
        ));
        assert!(matches!(
            routing.next_hop(n(5), n(0), &crate::protocol::ZeroLoad, &ctx),
            Err(SfError::NodeOffline { .. })
        ));
    }

    #[test]
    fn routing_still_works_after_gating_with_resync() {
        let config = NetworkConfig::new(64, 4).unwrap();
        let mut topo = StringFigureTopology::generate(&config).unwrap();
        for i in [3usize, 17, 31, 45] {
            topo.gate_node(n(i)).unwrap();
        }
        let mut routing = GreediestRouting::new(&topo);
        routing.resync(topo.graph(), topo.spaces());
        let live: Vec<usize> = (0..64).filter(|i| !topo.is_gated(n(*i))).collect();
        for &s in live.iter().step_by(5) {
            for &t in live.iter().step_by(7) {
                let route = trace_route(&routing, n(s), n(t), 64).unwrap();
                assert!(!route.has_loop());
                assert_eq!(route.destination(), n(t));
                // Gated nodes never appear on a route.
                for hop in &route.path {
                    assert!(!topo.is_gated(*hop));
                }
            }
        }
    }

    #[test]
    fn adaptive_first_hop_avoids_congested_port() {
        let (_, routing) = example();
        // Find a source/destination with at least two improving neighbours.
        let mut found = false;
        'outer: for s in 0..9 {
            for t in 0..9 {
                if s == t {
                    continue;
                }
                let ctx = RoutingContext::default();
                let idle_choice = routing
                    .next_hop(n(s), n(t), &crate::protocol::ZeroLoad, &ctx)
                    .unwrap();
                if idle_choice == n(t) {
                    continue;
                }
                // Congest the idle choice and see whether the router diverts.
                let mut loads = TableLoad::new();
                loads.set(n(s), idle_choice, 0.9);
                let diverted = routing.next_hop(n(s), n(t), &loads, &ctx).unwrap();
                if diverted != idle_choice {
                    found = true;
                    // The diverted hop must still make greedy progress.
                    assert!(routing.md(diverted, n(t)) < routing.md(n(s), n(t)));
                    break 'outer;
                }
            }
        }
        assert!(found, "no source/destination pair exercised path diversity");
    }

    #[test]
    fn adaptive_divergence_only_on_first_hop() {
        let (_, routing) = example();
        let mut loads = TableLoad::new();
        for s in 0..9 {
            for t in 0..9 {
                loads.set(n(s), n(t), 0.9);
            }
        }
        // With every port congested the router falls back to the pure
        // greediest choice, so routes still complete loop-free.
        for s in 0..9 {
            for t in 0..9 {
                let route = trace_route_with_loads(&routing, n(s), n(t), 9, &loads).unwrap();
                assert!(!route.has_loop());
            }
        }
    }

    #[test]
    fn non_adaptive_routes_like_adaptive_on_an_idle_network() {
        // Every idle port is below the adaptive threshold, so first-hop
        // adaptivity only matters under load.
        let config = NetworkConfig::new(100, 4).unwrap();
        let topo = StringFigureTopology::generate(&config).unwrap();
        let plain = GreediestRouting::with_options(&topo, GreediestOptions { adaptive: false });
        assert_eq!(plain.name(), "greediest");
        let adaptive = GreediestRouting::new(&topo);
        assert_eq!(adaptive.name(), "greediest-adaptive");
        for s in (0..100).step_by(9) {
            for t in (0..100).step_by(13) {
                assert_eq!(
                    trace_route(&plain, n(s), n(t), 100).unwrap(),
                    trace_route(&adaptive, n(s), n(t), 100).unwrap(),
                    "{s}->{t}"
                );
            }
        }
    }

    #[test]
    fn virtual_channel_follows_coordinate_direction() {
        let (topo, routing) = example();
        for s in 0..9 {
            for t in 0..9 {
                if s == t {
                    continue;
                }
                let vc = routing.virtual_channel(n(s), n(t), n(t));
                let (space, _) = topo.coordinates(n(s)).closest_space(topo.coordinates(n(t)));
                let up = topo.coordinates(n(t)).coordinate(space)
                    >= topo.coordinates(n(s)).coordinate(space);
                assert_eq!(vc == VirtualChannelId::UP, up);
            }
        }
    }

    #[test]
    fn virtual_channel_takes_the_first_closest_space_on_ties() {
        // Both spaces put the two nodes 0.25 apart: space 0 says up for
        // 0 -> 1 and down for 1 -> 0, space 1 the opposite.
        let coords = |a: f64, b: f64| {
            CoordinateVector::new(vec![
                Coordinate::new(a).unwrap(),
                Coordinate::new(b).unwrap(),
            ])
        };
        let spaces =
            VirtualSpaces::from_coordinate_vectors(vec![coords(0.25, 0.5), coords(0.5, 0.25)])
                .unwrap();
        let mut graph = AdjacencyGraph::new(2);
        graph
            .add_edge(n(0), n(1), sf_topology::EdgeKind::Structured)
            .unwrap();
        let routing = GreediestRouting::from_parts(&graph, &spaces, GreediestOptions::default());
        let (space, _) = spaces
            .coordinates(n(0))
            .closest_space(spaces.coordinates(n(1)));
        assert_eq!(space.index(), 0);
        assert_eq!(
            routing.virtual_channel(n(0), n(1), n(1)),
            VirtualChannelId::UP
        );
        assert_eq!(
            routing.virtual_channel(n(1), n(0), n(0)),
            VirtualChannelId::DOWN
        );
    }

    #[test]
    fn resync_equals_a_fresh_build_after_every_event_at_paper_scale() {
        let mut topo = generate(1296, 8, 1);
        let mut routing = GreediestRouting::new(&topo);
        let initial = GreediestRouting::new(&topo);
        let mut events = 0;
        let rebuilt = gate_then_ungate(&mut topo, &mut routing, 8, 0x5e, |routing, topo| {
            events += 1;
            assert_fresh(
                routing,
                topo.graph(),
                topo.spaces(),
                &format!("event {events}"),
            );
        });
        assert_eq!(events, 16);
        assert!(routing == initial, "the restored network routes as before");
        assert!(rebuilt.iter().all(|&count| 0 < count && count < 1296 / 4));
    }

    #[test]
    fn resync_equals_a_fresh_build_after_every_event_under_every_option() {
        for options in [false, true].map(|adaptive| GreediestOptions { adaptive }) {
            for (nodes, seed) in [(64, 3), (100, 4)] {
                let mut topo = generate(nodes, 4, seed);
                let mut routing = GreediestRouting::with_options(&topo, options);
                let mut events = 0;
                gate_then_ungate(&mut topo, &mut routing, 10, seed, |routing, topo| {
                    events += 1;
                    let label = format!("N={nodes} {options:?} event {events}");
                    assert_fresh(routing, topo.graph(), topo.spaces(), &label);
                });
                assert_eq!(events, 20);
            }
        }
    }

    #[test]
    fn resync_without_a_change_rebuilds_nothing() {
        let mut topo = generate(200, 8, 5);
        topo.gate_node(n(17)).unwrap();
        let mut routing = GreediestRouting::new(&topo);
        assert_eq!(routing.routers_rebuilt(), 200);
        routing.resync(topo.graph(), topo.spaces());
        assert_eq!(routing.routers_rebuilt(), 200);
        assert_fresh(&routing, topo.graph(), topo.spaces(), "unchanged");
    }

    #[test]
    fn resync_onto_another_topology_equals_a_fresh_build() {
        // Another seed: other coordinates, so every router is rebuilt.
        let first = generate(200, 8, 1);
        let mut second = generate(200, 8, 2);
        second.gate_node(n(40)).unwrap();
        let mut routing = GreediestRouting::new(&first);
        routing.resync(second.graph(), second.spaces());
        assert_eq!(routing.routers_rebuilt(), 400);
        assert_fresh(&routing, second.graph(), second.spaces(), "another seed");

        // The same coordinates under a graph with every third link cut: the
        // changed routers are read off the graph alone.
        let mut cut = first.graph().clone();
        for edge in first.graph().edges().iter().step_by(3) {
            cut.remove_edge(edge.a, edge.b);
        }
        let mut routing = GreediestRouting::new(&first);
        routing.resync(&cut, first.spaces());
        assert_fresh(&routing, &cut, first.spaces(), "cut links");
        routing.resync(first.graph(), first.spaces());
        assert_fresh(&routing, first.graph(), first.spaces(), "links restored");
    }

    #[test]
    fn routers_rebuilt_per_event_does_not_grow_with_network_size() {
        // Section III-C: a gate or ungate rewrites only the tables of routers
        // near the gated node, so the routers a resync rebuilds per event
        // are bounded by the port count, not the network size.
        for (ports, sizes) in [(4, &[64, 128][..]), (8, &[324, 1296, 2048][..])] {
            let cap = 2 * ports * ports;
            let mut means = Vec::new();
            for &nodes in sizes {
                let mut topo = generate(nodes, ports, 9);
                let mut routing = GreediestRouting::new(&topo);
                let rebuilt = gate_then_ungate(&mut topo, &mut routing, 24, 9, |_, _| {});
                let max = *rebuilt.iter().max().unwrap();
                assert!(
                    max <= cap as u64,
                    "p={ports} N={nodes}: an event rebuilt {max} routers, above {cap}"
                );
                means.push(rebuilt.iter().sum::<u64>() as f64 / rebuilt.len() as f64);
            }
            assert!(
                means.iter().all(|&mean| mean <= 1.25 * means[0]),
                "p={ports}: mean routers rebuilt per event at N={sizes:?}: {means:?}"
            );
        }
    }

    #[test]
    fn decision_counters_advance() {
        let (_, routing) = example();
        let before = routing.decision_count();
        let _ = trace_route(&routing, n(0), n(8), 9).unwrap();
        assert!(routing.decision_count() > before);
    }
}
