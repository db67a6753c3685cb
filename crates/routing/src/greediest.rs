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
//! Each router stores only its live one- and two-hop neighbours
//! (Section IV, Figure 6b), each with one coordinate per virtual space. All
//! routers' state sits in one flat, CSR-style store, built straight from the
//! live graph: per router, its one-hop neighbours in node-id order; per
//! one-hop neighbour, the contiguous group of two-hop targets first reached
//! through it, in node-id order; and every node's own coordinates. A
//! decision reads one contiguous block of the store and scores an improving
//! neighbour over its own two-hop group only.
//! [`GreediestRouting::table_len`] counts the rows the paper's table would
//! hold, and [`GreediestRouting::entry_bits`] prices one row.
//!
//! Every node's and every slot's coordinates sit inline as `[f64; 4]`
//! coordinate blocks: one block for up to four virtual spaces, two for five
//! to eight, and so on. Lanes past the last space hold a copy of space 0's
//! coordinate. A minimum circular distance is then one fixed-width,
//! branch-free computation for every space count: lane-wise circular
//! distances, a min tree of `if b < a { b } else { a }` per block, and the
//! same select across a node's blocks. Every coordinate is finite and lies in
//! `[0, 1)`, so every distance is non-negative and never NaN, and taking a
//! minimum is exact whatever the order or any repeated operand. So the
//! select needs none of `f64::min`'s NaN handling, a padding lane (a repeat
//! of lane 0's distance) moves no minimum, and every MD is bit-identical to
//! [`sf_types::minimum_circular_distance`]'s.
//!
//! A reconfiguration touches only the routers near the gated node
//! (Section III-C), and so does [`GreediestRouting::resync`]: it rebuilds
//! the blocks of the routers whose state can have changed and copies every
//! other block into the new store unchanged. The new store is the one the
//! previous resync replaced, refilled in place.

use crate::protocol::{PortLoadEstimator, RoutingContext, RoutingProtocol, ADAPTIVE_THRESHOLD};
use sf_topology::{AdjacencyGraph, StringFigureTopology, VirtualSpaces};
use sf_types::coord::COORD_BITS;
use sf_types::{NodeId, SfError, SfResult, VirtualChannelId};
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

/// Coordinates per coordinate block.
const LANES: usize = 4;

/// One coordinate per virtual space, for up to [`LANES`] spaces. Lanes past
/// a node's last space hold a copy of its space-0 coordinate.
type Block = [f64; LANES];

/// The smaller of two distances. Distances are never NaN, so this returns
/// exactly what `f64::min` would, without its NaN handling.
fn smaller(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// Circular distance between two coordinate values: the value of
/// [`sf_types::circular_distance`].
fn lane_distance(a: f64, b: f64) -> f64 {
    let diff = (a - b).abs();
    smaller(diff, 1.0 - diff)
}

/// Minimum circular distance between two nodes' coordinate blocks:
/// lane-wise circular distances, then a min tree per block and across
/// blocks. Bit-identical to [`sf_types::minimum_circular_distance`].
fn block_md(a: &[Block], b: &[Block]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(a, b)| {
            let d: Block = std::array::from_fn(|lane| lane_distance(a[lane], b[lane]));
            smaller(smaller(d[0], d[1]), smaller(d[2], d[3]))
        })
        .fold(f64::INFINITY, smaller)
}

/// An offset into one of the store's flat arrays.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("forwarding store offsets fit in u32")
}

/// Every node's coordinate blocks in node order: the store's `coords`. A
/// padding lane repeats the node's space-0 coordinate.
fn node_coords(spaces: &VirtualSpaces) -> impl Iterator<Item = Block> + '_ {
    spaces.all_coordinates().iter().flat_map(|coords| {
        let coords = coords.as_slice();
        (0..coords.len().div_ceil(LANES)).map(move |block| {
            std::array::from_fn(|lane| {
                coords
                    .get(block * LANES + lane)
                    .unwrap_or(&coords[0])
                    .value()
            })
        })
    })
}

/// The forwarding state of every router, flattened.
///
/// Router `v`'s one-hop neighbours are the slots `routers[v]..routers[v + 1]`
/// of `one_hop`, in node-id order. One-hop slot `i`'s two-hop group is the
/// slots `groups[i]..groups[i + 1]` of `two_hop`. Every node and slot has
/// [`ForwardingStore::blocks`] coordinate blocks. The default store is
/// empty: no routers and no coordinates.
#[derive(Debug, Default, PartialEq)]
struct ForwardingStore {
    /// The number of virtual spaces.
    spaces: usize,
    /// Every node's own full-precision coordinate blocks.
    coords: Vec<Block>,
    routers: Vec<u32>,
    one_hop: Slots,
    groups: Vec<u32>,
    two_hop: Slots,
}

/// Neighbour slots: ids, and each slot's coordinate blocks inline at the
/// same index, `blocks` per slot.
#[derive(Debug, Default, PartialEq)]
struct Slots {
    ids: Vec<NodeId>,
    coords: Vec<Block>,
}

impl Slots {
    /// Removes every slot, keeping the allocations.
    fn clear(&mut self) {
        self.ids.clear();
        self.coords.clear();
    }

    /// Appends node `id` as a slot, with its blocks from `coords`, every
    /// node's blocks in node order.
    fn push(&mut self, id: NodeId, coords: &[Block], blocks: usize) {
        self.ids.push(id);
        self.coords
            .extend_from_slice(&coords[id.index() * blocks..][..blocks]);
    }

    /// Appends `from`'s slots in `range`.
    fn extend_from(&mut self, from: &Self, range: Range<usize>, blocks: usize) {
        self.coords
            .extend_from_slice(&from.coords[range.start * blocks..range.end * blocks]);
        self.ids.extend_from_slice(&from.ids[range]);
    }

    /// The slots in `range`, each with its coordinate blocks. Indexed, not
    /// chunked: `chunks_exact` divides by `blocks` on every call.
    fn get(
        &self,
        range: Range<usize>,
        blocks: usize,
    ) -> impl Iterator<Item = (NodeId, &[Block])> + '_ {
        let coords = &self.coords[range.start * blocks..range.end * blocks];
        self.ids[range]
            .iter()
            .enumerate()
            .map(move |(slot, &id)| (id, &coords[slot * blocks..][..blocks]))
    }
}

impl ForwardingStore {
    /// Refills the store for `graph` and `spaces`, keeping its allocations.
    /// A router marked in `dirty` gets a block built from `graph`; every
    /// other router's block is copied from `previous`.
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
        // While router `v` is built, `marked[x] == v.index()` says that `x` is
        // `v`, one of its one-hop neighbours, or a two-hop target already
        // grouped.
        let mut marked = vec![usize::MAX; graph.num_nodes()];
        for v in graph.nodes() {
            if dirty[v.index()] {
                self.push_router(graph, v, &mut marked);
            } else {
                self.copy_router(previous, v);
            }
        }
        debug_assert!(
            self.one_hop
                .ids
                .iter()
                .chain(&self.two_hop.ids)
                .all(|&node| graph.is_active(node)),
            "every one-hop slot and two-hop target is a live router"
        );
    }

    /// Appends router `v`'s block, built from the live graph: each live
    /// neighbour in node-id order, and its group of the two-hop targets first
    /// reached through it. Walking the neighbours in node-id order, a
    /// neighbour's group is its live neighbours, in node-id order, that are
    /// neither `v`, a neighbour of `v`, nor in an earlier group.
    fn push_router(&mut self, graph: &AdjacencyGraph, v: NodeId, marked: &mut [usize]) {
        let blocks = self.blocks();
        let one_hop = graph.active_neighbors(v);
        for &node in std::iter::once(&v).chain(&one_hop) {
            marked[node.index()] = v.index();
        }
        for &via in &one_hop {
            self.one_hop.push(via, &self.coords, blocks);
            for target in graph.active_neighbors(via) {
                if marked[target.index()] != v.index() {
                    marked[target.index()] = v.index();
                    self.two_hop.push(target, &self.coords, blocks);
                }
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
        self.one_hop
            .extend_from(&from.one_hop, slots, self.blocks());
        self.two_hop
            .extend_from(&from.two_hop, first as usize..last as usize, self.blocks());
        self.groups.extend(
            groups[1..]
                .iter()
                .map(|&end| offset(base + (end - first) as usize)),
        );
        self.routers.push(offset(self.one_hop.ids.len()));
    }

    /// Coordinate blocks per node or slot.
    fn blocks(&self) -> usize {
        self.spaces.div_ceil(LANES)
    }

    /// Node `v`'s own coordinate blocks.
    fn coords(&self, v: NodeId) -> &[Block] {
        let blocks = self.blocks();
        &self.coords[v.index() * blocks..][..blocks]
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
    /// coordinate blocks and its two-hop group.
    fn one_hop(&self, v: NodeId) -> impl Iterator<Item = (NodeId, &[Block], Range<usize>)> + '_ {
        let slots = self.slots(v);
        let groups = self.groups[slots.start..=slots.end].windows(2);
        self.one_hop
            .get(slots, self.blocks())
            .zip(groups)
            .map(|((node, coords), group)| (node, coords, group[0] as usize..group[1] as usize))
    }

    /// The targets of one two-hop group, each with its coordinate blocks.
    fn two_hop(&self, group: Range<usize>) -> impl Iterator<Item = (NodeId, &[Block])> + '_ {
        self.two_hop.get(group, self.blocks())
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
    /// live neighbours are therefore rebuilt from the live graph, and every
    /// other block is copied into the new store with its offsets rebased.
    /// The result equals a fresh [`GreediestRouting::from_parts`] on the
    /// same topology. When the number of nodes or the coordinates differ
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
    /// every live one- and two-hop neighbour. Times
    /// [`GreediestRouting::entry_bits`], this is the router's storage cost.
    ///
    /// # Panics
    ///
    /// Panics if `router` is not a node of the network.
    #[must_use]
    pub fn table_len(&self, router: NodeId) -> usize {
        self.store.table_len(router)
    }

    /// Storage cost of one routing-table row in bits, following the paper's
    /// per-entry layout (Section IV, Figure 6b): a `log2(N)`-bit node number,
    /// a blocking bit, a valid bit, a hop bit (one- or two-hop), a
    /// `ceil(log2(p/2))`-bit virtual-space number and a [`COORD_BITS`]-bit
    /// (7-bit) coordinate.
    ///
    /// The hardware reconfigures by flipping the blocking, valid and hop
    /// bits; this model instead rebuilds the blocks of the routers a
    /// reconfiguration touches ([`GreediestRouting::resync`]), and routes on
    /// full-precision coordinates. Only this storage accounting uses the
    /// paper's layout.
    ///
    /// # Examples
    ///
    /// ```
    /// use sf_routing::GreediestRouting;
    /// use sf_topology::StringFigureTopology;
    /// use sf_types::{NetworkConfig, NodeId};
    ///
    /// let topo = StringFigureTopology::generate(&NetworkConfig::new(32, 4)?)?;
    /// let routing = GreediestRouting::new(&topo);
    /// // 32 nodes: 5 node bits; 4 ports: 2 spaces, 1 space bit.
    /// assert_eq!(GreediestRouting::entry_bits(32, 4), 5 + 3 + 1 + 7);
    /// let bits = routing.table_len(NodeId::new(0)) as u64 * GreediestRouting::entry_bits(32, 4);
    /// assert!(bits > 0);
    /// # Ok::<(), sf_types::SfError>(())
    /// ```
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
        block_md(self.store.coords(a), self.store.coords(b))
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
        let current_md = block_md(self.store.coords(at), dest_coords);

        // Direct neighbour? Deliver immediately. Every slot and target in
        // the store is live (`ForwardingStore::fill`), so neither loop below
        // checks activity.
        if self.store.neighbors(at).contains(&dest) {
            return Ok(dest);
        }

        // Score an improving neighbour by the best MD reachable through it
        // within one more hop (two-hop lookahead). Only its own two-hop group
        // can reach further through it. A target that is the destination
        // scores +0.0, its MD with itself.
        let score = |group: Range<usize>, own_md: f64| -> f64 {
            let mut best = own_md;
            for (_, coords) in self.store.two_hop(group) {
                best = smaller(best, block_md(coords, dest_coords));
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
            let md = block_md(coords, dest_coords);
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
        let spaces = self.store.spaces;
        let at_coords = &self.store.coords(at).as_flattened()[..spaces];
        let dest_coords = &self.store.coords(dest).as_flattened()[..spaces];
        // The MD-defining space: the first one at minimum circular distance,
        // as `CoordinateVector::closest_space` picks it.
        let mut space = 0;
        let mut closest = f64::INFINITY;
        for (s, (&a, &d)) in at_coords.iter().zip(dest_coords).enumerate() {
            let distance = lane_distance(a, d);
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
    use sf_types::{
        minimum_circular_distance, Coordinate, CoordinateVector, DeterministicRng, NetworkConfig,
    };

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

    /// Router `v`'s one-hop neighbours, each with its two-hop group's
    /// targets, as the store holds them.
    fn groups_of(routing: &GreediestRouting, v: NodeId) -> Vec<(NodeId, Vec<NodeId>)> {
        routing
            .store
            .one_hop(v)
            .map(|(via, _, group)| {
                let targets = routing.store.two_hop(group).map(|(t, _)| t).collect();
                (via, targets)
            })
            .collect()
    }

    #[test]
    fn two_hop_targets_are_grouped_under_their_first_via() {
        // Router 0 reaches 3 through both 2 and 4: it is listed once, in the
        // lower-id neighbour's group. Router 6 is offline.
        let mut graph = AdjacencyGraph::new(7);
        for (a, b) in [(0, 2), (0, 4), (2, 3), (2, 5), (4, 3), (4, 1), (5, 6)] {
            graph
                .add_edge(n(a), n(b), sf_topology::EdgeKind::Structured)
                .unwrap();
        }
        graph.set_active(n(6), false).unwrap();
        let coords = (0..7)
            .map(|i| {
                CoordinateVector::new(vec![
                    Coordinate::new(i as f64 / 7.0).unwrap(),
                    Coordinate::new((3 * i % 7) as f64 / 7.0).unwrap(),
                ])
            })
            .collect();
        let spaces = VirtualSpaces::from_coordinate_vectors(coords).unwrap();
        let routing = GreediestRouting::from_parts(&graph, &spaces, GreediestOptions::default());

        assert_eq!(
            groups_of(&routing, n(0)),
            vec![(n(2), vec![n(3), n(5)]), (n(4), vec![n(1)])]
        );
        assert_eq!(routing.table_len(n(0)), (2 + 3) * 2, "3 counted once");
        // Router 3 reaches 0 through both of its neighbours.
        assert_eq!(
            groups_of(&routing, n(3)),
            vec![(n(2), vec![n(0), n(5)]), (n(4), vec![n(1)])]
        );
        // The offline router has an empty block, and no block lists it.
        assert!(groups_of(&routing, n(6)).is_empty());
        assert_eq!(routing.table_len(n(6)), 0);
        assert_eq!(groups_of(&routing, n(5)), vec![(n(2), vec![n(0), n(3)])]);
        assert_eq!(routing.table_len(n(5)), (1 + 2) * 2);
    }

    #[test]
    fn builds_one_and_two_hop_entries() {
        let (topo, routing) = example();
        let groups = groups_of(&routing, n(7));
        // Node-7's live graph neighbours are its one-hop slots, in order.
        let one_hop: Vec<NodeId> = groups.iter().map(|(via, _)| *via).collect();
        assert_eq!(one_hop, topo.graph().active_neighbors(n(7)));
        // Each two-hop target neighbours its via, is listed once, and is
        // neither Node-7 nor one of its one-hop neighbours.
        let mut two_hop = Vec::new();
        for (via, targets) in &groups {
            for &t in targets {
                assert!(
                    topo.graph().has_edge(*via, t),
                    "{t} not a neighbour of {via}"
                );
                assert!(t != n(7) && !one_hop.contains(&t) && !two_hop.contains(&t));
                two_hop.push(t);
            }
        }
        assert!(!two_hop.is_empty());
        let spaces = topo.spaces().num_spaces();
        assert_eq!(
            routing.table_len(n(7)),
            (one_hop.len() + two_hop.len()) * spaces
        );
    }

    #[test]
    fn candidates_have_full_coordinate_vectors() {
        let (topo, routing) = example();
        let spaces = topo.spaces().num_spaces();
        let full = |node: NodeId| -> Vec<f64> {
            topo.coordinates(node)
                .as_slice()
                .iter()
                .map(|c| c.value())
                .collect()
        };
        for v in topo.graph().nodes() {
            for (via, coords, group) in routing.store.one_hop(v) {
                assert_eq!(coords.as_flattened()[..spaces], full(via), "{v}: {via}");
                for (t, coords) in routing.store.two_hop(group) {
                    assert_eq!(coords.as_flattened()[..spaces], full(t), "{v}: {t}");
                }
            }
        }
    }

    #[test]
    fn table_size_is_independent_of_network_scale() {
        // Section IV: a router stores at most p one-hop and p(p - 1) two-hop
        // neighbours, one row per virtual space each, whatever N is.
        let mut means = Vec::new();
        for (nodes, ports) in [(64, 4), (512, 4), (1296, 8)] {
            let config = NetworkConfig::new(nodes, ports).unwrap();
            let topo = StringFigureTopology::generate(&config).unwrap();
            let routing = GreediestRouting::new(&topo);
            let bound = config.max_routing_table_entries() * config.virtual_spaces();
            let mut total = 0;
            for v in topo.graph().nodes() {
                let len = routing.table_len(v);
                assert!(len <= bound, "N={nodes} p={ports}: {v} has {len} rows");
                total += len;
            }
            means.push(total as f64 / nodes as f64);
        }
        // The two p = 4 networks: eight times the nodes, about the same
        // table.
        let (small, large) = (means[0], means[1]);
        assert!(
            (small - large).abs() < small * 0.5,
            "table size should not grow with N: {small} vs {large}"
        );
    }

    #[test]
    fn storage_bits_accounting() {
        // N=9 -> 4 node bits, p=4 -> 2 spaces -> 1 space bit, +3 flag bits +7
        // coordinate bits = 15 bits per entry.
        assert_eq!(GreediestRouting::entry_bits(9, 4), 15);
        // 1296 nodes -> 11 node bits, p=8 -> 4 spaces -> 2 space bits.
        assert_eq!(GreediestRouting::entry_bits(1296, 8), 23);
        // One space still takes one space bit.
        assert_eq!(GreediestRouting::entry_bits(2, 2), 12);
    }

    #[test]
    fn decision_counters_advance() {
        let (_, routing) = example();
        let before = routing.decision_count();
        let _ = trace_route(&routing, n(0), n(8), 9).unwrap();
        assert!(routing.decision_count() > before);
    }
}
