//! The sharded deterministic cycle-level simulation kernel.
//!
//! [`ShardedSimulator`] advances an input-queued, credit-based router network
//! cycle by cycle, exactly like the reference serial simulator it replaces —
//! but the expensive routing phase of each cycle is split across K shards of
//! routers: the coordinating thread routes shard 0 and K − 1 worker threads
//! route the rest.
//!
//! # One step path
//!
//! Every cycle goes through one `step`, whatever K and whether it comes
//! from [`ShardedSimulator::run`] or [`ShardedSimulator::step_one`]: the
//! serial pre-route phases, one routing phase over all shards, the serial
//! commit. A run takes every shard guard once and holds it to the end. At
//! K = 1 a cycle therefore takes no shard lock and crosses no barrier. At
//! K > 1 the routing phase hands guards 1..K to the workers between two
//! barrier crossings and takes them back; no guard `Vec` is built per cycle.
//!
//! # Determinism contract
//!
//! Results are **bit-identical for every shard count**, including K = 1,
//! which reproduces the original serial simulator exactly. Three mechanisms
//! make that true:
//!
//! 1. **Wavefront scheduling** (see [`crate::shard`]): inside a cycle, router
//!    `m`'s forwarding decisions depend only on the credit counters of its
//!    links, which are written by `m` itself and by the same-cycle queue pops
//!    of its graph neighbours. The serial loop processes routers in id order,
//!    so `m` sees pops from neighbours `x < m` and not from `x > m`. Shards
//!    process their routers in id order and wait, per router, on a published
//!    epoch for cross-shard smaller-id neighbours — so every router observes
//!    *exactly* the serial state, no matter how many shards exist or how they
//!    are scheduled.
//! 2. **Minimal commit log**: the only side effects that genuinely need the
//!    serial order — float energy accumulation (addition is not associative)
//!    and reply packet-id assignment plus the reply heap push — are logged as
//!    compact per-router `CommitEntry` records during the parallel phase
//!    and replayed by a serial commit in router-id order, reproducing the
//!    serial loop's exact operation order. Everything else (integer
//!    counters, the in-flight hand-off) is commutative or order-free and
//!    never passes through the commit.
//! 3. **Shard-local arrival queues**: a packet committed to a link goes
//!    straight into the *destination shard's* inbox
//!    ([`crate::pool::InFlightPool`]), and each shard drains its own due
//!    arrivals at the start of its routing phase. Cross-shard push order
//!    into an inbox is nondeterministic, but each (router, port, vc) input
//!    queue receives **at most one packet per cycle** — one forward per
//!    output link per cycle, constant per-link latency — so the drain order
//!    across *distinct* queues is unobservable and per-queue FIFO content is
//!    bit-identical for every K. (The defensive credit return for a packet
//!    arriving at a freshly faulted resource also happens during the drain;
//!    it is unobservable mid-phase because dead resources short-circuit both
//!    the credit check and the adaptive load view without reading the
//!    counter.)
//! 4. **Serial boundary phases**: traffic injection and reply release stay
//!    on the coordinating thread in router-id order, because traffic models
//!    own a single RNG whose consumption order is part of the observable
//!    behaviour.
//!
//! Link traversal takes at least one cycle (router latency + SerDes), so
//! queues only couple routers *across* cycle boundaries; the wavefront only
//! has to order same-cycle credit traffic, which is what keeps the waits
//! short and the parallelism real.
//!
//! # Allocation-free steady state
//!
//! All per-cycle storage — router input queues, injection queues, the commit
//! log, and the arrival inboxes — lives in index-linked free-list slabs (see
//! [`crate::pool`]): pushing recycles a freed slot instead of touching the
//! heap, so once the simulation reaches its occupancy high-water mark, a
//! cycle performs **zero heap allocations** (pinned by a counting-allocator
//! integration test through [`ShardedSimulator::step_one`], which runs the
//! same `step` as [`ShardedSimulator::run`]). Pool occupancy is exported
//! through the deterministic `sim.pool.*` metrics namespace: peak live
//! packets / in-flight entries / commit entries (network-wide boundary
//! totals) and total push counts are bit-identical for any worker × shard
//! matrix, while layout details that legitimately depend on K (slab
//! capacities, grow counts) live under `sched.pool_*`.
//!
//! # Fault injection
//!
//! An optional [`sf_types::FaultPlan`] in the simulation configuration turns
//! on deterministic fault injection: link-down and router power-gate waves
//! whose victims are a pure function of `(seed, cycle)`. Fault events are
//! applied **at cycle boundaries on the coordinating thread, before the
//! routing wavefront** — the liveness flags are written only while the
//! workers are parked at the barrier and read-only during the parallel
//! phase, so the bit-identity contract above extends unchanged to faulty
//! runs. Semantics: packets queued at a router when it is gated (and
//! packets in flight towards it, and replies released at it) are dropped
//! and counted in [`SimulationStats::dropped_packets`]; packets in flight
//! on a failing link are dropped; forwards towards a dead link or router
//! are blocked (adaptive protocols see the resource as fully loaded and
//! route around it); every fault heals after the plan's repair latency.
//! With no plan configured none of this machinery runs — the healthy path
//! is behaviour-identical to the pre-fault kernel.

use crate::memory::MemoryNodeModel;
use crate::packet::{Packet, PacketKind, TrafficModel, TrafficRequest};
use crate::pool::{InFlightMeta, InFlightPool, List, Pool};
use crate::shard::{resolve_shard_count, ShardPlan};
use crate::stats::SimulationStats;
use sf_routing::{PortLoadEstimator, RoutingContext, RoutingProtocol};
use sf_topology::{AdjacencyGraph, GridPlacement};
use sf_types::{
    FaultPlan, NodeId, SfError, SfResult, SimulationConfig, SystemConfig, VirtualChannelId,
};
use std::collections::{BinaryHeap, HashMap};
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::time::Duration;

/// A reply waiting for its DRAM service to finish.
#[derive(Debug, Clone)]
struct PendingReply {
    ready_cycle: u64,
    node: usize,
    packet: Packet,
}

impl PartialEq for PendingReply {
    fn eq(&self, other: &Self) -> bool {
        self.ready_cycle == other.ready_cycle
    }
}
impl Eq for PendingReply {}
impl PartialOrd for PendingReply {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingReply {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse ordering so the BinaryHeap pops the earliest ready cycle.
        other.ready_cycle.cmp(&self.ready_cycle)
    }
}

/// An order-sensitive side effect recorded by a router during the parallel
/// routing phase and replayed by the serial commit in router-id order.
///
/// This is the *minimal* residue that genuinely needs the serial order:
/// float accumulation (not associative) and reply packet-id assignment.
/// Forwarded packets themselves go straight to the destination shard's
/// arrival inbox during the routing phase (the hand-off is order-free, see
/// the module docs), and commutative integer counters (delivered packets,
/// latency sums, blocked forwards, …) are folded shard-locally into
/// [`LocalStats`] and summed once at the end of the run — so the commit
/// walks a few copyable words per moved packet instead of whole packets.
#[derive(Debug, Clone, Copy)]
enum CommitEntry {
    /// A packet entered a link while measuring: one network-energy
    /// contribution of `size_bits` (replayed in id order because float
    /// addition is not associative).
    LinkEnergy { size_bits: u64 },
    /// A read/write request was serviced by this node's DRAM model during
    /// the routing phase (the model is router-local, so the access itself
    /// needs no serialisation); the commit accumulates the float DRAM energy
    /// and assigns the reply its packet id in serial order.
    Serviced(ServiceResidue),
}

/// The routing residue of one serviced request — everything
/// [`commit_serviced`] needs to build the reply.
#[derive(Debug, Clone, Copy)]
struct ServiceResidue {
    /// DRAM service latency in cycles, from the router-local model.
    service: u64,
    /// The serviced request's source (the reply's destination).
    source: NodeId,
    /// The serviced request's destination (the reply's source).
    destination: NodeId,
    /// The request kind, determining the reply kind.
    kind: PacketKind,
    /// Issue cycle of the original request, for round-trip latency.
    request_issued_at: u64,
}

/// Commutative integer statistics a router accumulates locally during the
/// parallel routing phase. Integer addition (and `max`) is associative and
/// commutative, so folding per router and summing in id order at the end of
/// the run is bit-identical to the old per-event serial accumulation — only
/// the floats must still replay through the commit.
#[derive(Debug, Default, Clone)]
struct LocalStats {
    blocked_forwards: u64,
    delivered: u64,
    total_latency_cycles: u64,
    max_latency_cycles: u64,
    total_hops: u64,
    completed_requests: u64,
    total_round_trip_cycles: u64,
    /// Packets dropped at this router's inputs by the arrival drain when the
    /// receiving resource was faulted (a plain count — commutative).
    dropped_packets: u64,
}

/// The mutable state of one router, owned by exactly one shard. All queue
/// storage chains through the owning shard's [`ShardPools`].
#[derive(Debug)]
struct RouterState {
    node: usize,
    /// Input queues, flattened as `queues[neighbor_idx * vcs + vc]`.
    queues: Vec<List>,
    /// Unbounded injection queue (the processor-side request queue).
    injection: List,
    /// Cached in-network input-queue occupancy (sum of `queues` lengths),
    /// maintained on push/pop so telemetry sampling is O(1) per router.
    queued_net: u32,
    memory: MemoryNodeModel,
    /// This cycle's commit log, drained by the serial commit.
    commit: List,
    /// Reusable per-cycle output-port scoreboard (cleared, never freed).
    used_outputs: Vec<bool>,
    /// Commutative integer counters, folded locally and summed at run end.
    local: LocalStats,
}

/// One shard's slab pools: every router queue and commit log of the shard
/// chains through these, so steady-state cycles allocate nothing.
#[derive(Debug)]
struct ShardPools {
    /// Every queued packet in this shard (input queues + injection queues).
    packets: Pool<Packet>,
    /// This cycle's commit-log entries across the shard's routers.
    commits: Pool<CommitEntry>,
    /// Cached count of packets sitting in injection queues; the rest of
    /// `packets.live()` is in-network. Makes the census O(shards).
    backlog: u32,
}

/// One shard's routers, locked as a unit: by the coordinator for the whole
/// run (through a [`ShardGuard`]), and by the shard's worker during each
/// routing phase of a multi-shard run, while the coordinator has let go.
/// A barrier separates the two, so the locks are always uncontended — they
/// exist to prove disjoint access to the borrow checker, not to arbitrate.
#[derive(Debug)]
struct ShardState {
    routers: Vec<RouterState>,
    pools: ShardPools,
}

/// The coordinator's hold on one shard, taken when a run (or a
/// [`ShardedSimulator::step_one`] call) starts and kept through every
/// serial phase. Only a multi-shard routing phase lets go of shards 1..K
/// while the workers route them, and it retakes them before it returns.
/// Dereferences to the shard state.
struct ShardGuard<'a>(Option<MutexGuard<'a, ShardState>>);

impl Deref for ShardGuard<'_> {
    type Target = ShardState;

    fn deref(&self) -> &ShardState {
        self.0
            .as_deref()
            .expect("shard guard held outside the routing phase")
    }
}

impl DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut ShardState {
        self.0
            .as_deref_mut()
            .expect("shard guard held outside the routing phase")
    }
}

/// One undirected link as fault injection sees it: the directed input-queue
/// slots of both directions (one slot for a uni-directional link), each as
/// `(receiving node, index of the sender in its adjacency list)`.
#[derive(Debug)]
struct FaultEdge {
    slots: Vec<(usize, usize)>,
}

/// Fault-injection state shared with the routing workers. The liveness
/// flags are written only at cycle boundaries (while workers are parked at
/// the barrier) and read during the parallel phase, so relaxed atomics are
/// race-free and cycle-constant.
struct FaultRuntime {
    plan: FaultPlan,
    /// Undirected links in deterministic (construction) order — the victim
    /// pool of link-down waves.
    edges: Vec<FaultEdge>,
    /// Flattened per-directed-link down flags:
    /// `link_down[link_offset[to] + from_index]`.
    link_offset: Vec<usize>,
    link_down: Vec<AtomicBool>,
    /// Per-router power-gate flags.
    router_down: Vec<AtomicBool>,
}

/// A scheduled fault repair, applied at the first boundary at or after `at`.
#[derive(Debug, Clone, Copy)]
struct FaultRepair {
    at: u64,
    victim: FaultVictim,
}

/// What a repair heals: an edge index in [`FaultRuntime::edges`] or a
/// router id.
#[derive(Debug, Clone, Copy)]
enum FaultVictim {
    Edge(usize),
    Router(usize),
}

/// Everything the shard workers share read-only (plus atomics).
struct Shared {
    system: SystemConfig,
    config: SimulationConfig,
    protocol: Box<dyn RoutingProtocol>,
    placement: Option<GridPlacement>,
    request_reply: bool,
    num_nodes: usize,
    active: Vec<bool>,
    /// Each router's active neighbours, sorted and free of duplicates (the
    /// graph keeps them in `BTreeSet`s). A neighbour's position in the list,
    /// found by binary search, is the router's port for the link to or from
    /// it: output-port index, input-queue group and credit-counter block.
    adjacency: Vec<Vec<NodeId>>,
    plan: ShardPlan,
    shards: Vec<Mutex<ShardState>>,
    /// Per-destination-shard arrival inboxes: packets in flight towards the
    /// shard's routers. Pushed by any shard at forward time (the mutex is
    /// held for one slab write; contention is rare and never blocks the
    /// wavefront), drained by the owning shard at the start of its routing
    /// phase, and purged/counted by the coordinator at cycle boundaries.
    inboxes: Vec<Mutex<InFlightPool>>,
    /// Flattened credit counters mirroring the queues *plus* packets in
    /// flight towards them (the hardware credit counters):
    /// `occupancy[occ_offset[node] + neighbor_idx * vcs + vc]`. The counter
    /// for link `m → x` lives at node `x` and is written only by `m`
    /// (take on forward) and `x` (return on pop) — which is what lets the
    /// wavefront order them with plain relaxed atomics.
    occupancy: Vec<AtomicUsize>,
    occ_offset: Vec<usize>,
    /// Wavefront epochs: `done[m] == cycle + 1` once router `m` finished the
    /// routing phase of `cycle`. Release/Acquire pairs on these publish the
    /// relaxed occupancy writes.
    done: Vec<AtomicU64>,
    /// Fault-injection state; `None` (no plan configured) is the healthy
    /// network and skips every fault check.
    fault: Option<FaultRuntime>,
}

impl Shared {
    fn occ(&self, node: usize, link: usize, vc: usize) -> &AtomicUsize {
        &self.occupancy[self.occ_offset[node] + link * self.config.virtual_channels + vc]
    }

    /// Whether router `node` is currently power-gated by fault injection.
    fn router_faulted(&self, node: usize) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|f| f.router_down[node].load(Ordering::Relaxed))
    }

    /// Whether the directed link into `to` from adjacency slot `from_index`
    /// is currently down.
    fn link_faulted(&self, to: usize, from_index: usize) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|f| f.link_down[f.link_offset[to] + from_index].load(Ordering::Relaxed))
    }

    fn lock(&self, s: usize) -> MutexGuard<'_, ShardState> {
        self.shards[s].lock().expect("shard state poisoned")
    }

    fn lock_all(&self) -> Vec<ShardGuard<'_>> {
        (0..self.shards.len())
            .map(|s| ShardGuard(Some(self.lock(s))))
            .collect()
    }

    fn link_latency(&self, from: usize, to: usize) -> u64 {
        let mut latency = self.config.router_latency_cycles + self.system.serdes_cycles_per_hop();
        if let Some(placement) = &self.placement {
            if placement.is_long_wire(
                NodeId::new(from),
                NodeId::new(to),
                self.config.long_wire_grid_distance,
            ) {
                latency += self
                    .config
                    .long_wire_penalty_cycles
                    .max(self.config.router_latency_cycles + self.system.serdes_cycles_per_hop());
            }
        }
        latency.max(1)
    }
}

/// Wall-clock time spent in each per-cycle phase, accumulated locally while
/// the run is in progress and flushed to the global tracer once at the end —
/// so the per-cycle cost of instrumentation is two `Instant::now` calls when
/// timing is enabled and two relaxed loads when it is not.
#[derive(Debug, Default)]
struct PhaseTimers {
    /// The routing phase over all shards, barrier crossings included (a
    /// single-shard run has none).
    route: Duration,
    commit: Duration,
}

/// Boundary-sampled pool occupancy peaks, exported as `sim.pool.*` gauges at
/// the end of the run. Each peak is a *network-wide total* sampled while the
/// workers are parked, so the values are invariant under the shard layout.
#[derive(Debug, Default)]
struct PoolPeaks {
    /// Peak live packets across all shard packet pools (queued + backlog).
    packets: u64,
    /// Peak in-flight entries across all arrival inboxes.
    in_flight: u64,
    /// Peak commit-log entries replayed in a single cycle.
    commit_entries: u64,
}

/// State only the coordinating thread touches.
#[derive(Debug)]
struct SerialState {
    cycle: u64,
    next_packet_id: u64,
    stats: SimulationStats,
    pending_replies: BinaryHeap<PendingReply>,
    peaks: PoolPeaks,
    /// Outstanding fault repairs, in strike order (deterministic).
    fault_repairs: Vec<FaultRepair>,
    timers: PhaseTimers,
    /// The run's telemetry series, sampled at cycle boundaries while the
    /// routing workers are parked (see [`maybe_sample_telemetry`]); `None`
    /// unless telemetry is both configured process-wide and enabled in the
    /// simulation config.
    telemetry: Option<Box<sf_obs::telemetry::RunSeries>>,
}

/// View over the credit counters handed to adaptive routing protocols.
struct AtomicLoadView<'a> {
    shared: &'a Shared,
}

impl PortLoadEstimator for AtomicLoadView<'_> {
    fn load(&self, from: NodeId, to: NodeId) -> f64 {
        // The sender observes the occupancy of the downstream input queue for
        // its link (what the credit counter tracks in hardware).
        let Ok(idx) = self.shared.adjacency[to.index()].binary_search(&from) else {
            return 0.0;
        };
        // A dead link or router reads as fully loaded, so adaptive protocols
        // route around the fault instead of waiting for its repair.
        if self.shared.router_faulted(to.index()) || self.shared.link_faulted(to.index(), idx) {
            return 1.0;
        }
        let vcs = self.shared.config.virtual_channels;
        let used: usize = (0..vcs)
            .map(|vc| self.shared.occ(to.index(), idx, vc).load(Ordering::Relaxed))
            .sum();
        used as f64 / (self.shared.config.vc_queue_capacity * vcs) as f64
    }
}

/// The sharded cycle-level network simulator.
///
/// # Examples
///
/// ```
/// use sf_simcore::{ShardedSimulator, UniformRandomTraffic};
/// use sf_routing::GreediestRouting;
/// use sf_topology::StringFigureTopology;
/// use sf_types::{NetworkConfig, SimulationConfig, SystemConfig};
///
/// let topo = StringFigureTopology::generate(&NetworkConfig::new(32, 4)?)?;
/// let mut sim = ShardedSimulator::new(
///     topo.graph().clone(),
///     Box::new(GreediestRouting::new(&topo)),
///     SystemConfig::default(),
///     SimulationConfig {
///         max_cycles: 2_000,
///         warmup_cycles: 200,
///         shards: 2, // any value produces bit-identical results
///         ..SimulationConfig::default()
///     },
/// )?;
/// let stats = sim.run(&mut UniformRandomTraffic::new(32, 0.05, 7))?;
/// assert!(stats.delivered > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ShardedSimulator {
    shared: Shared,
    serial: SerialState,
}

impl std::fmt::Debug for ShardedSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimulator")
            .field("num_nodes", &self.shared.num_nodes)
            .field("shards", &self.shared.plan.count())
            .field("cycle", &self.serial.cycle)
            .field("protocol", &self.shared.protocol.name())
            .field("request_reply", &self.shared.request_reply)
            .finish_non_exhaustive()
    }
}

impl ShardedSimulator {
    /// Creates a simulator over the given link graph and routing protocol.
    ///
    /// The shard count comes from `config.shards` (see
    /// [`resolve_shard_count`] for the auto policy behind `0`).
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] if the simulation
    /// configuration fails validation.
    pub fn new(
        graph: AdjacencyGraph,
        protocol: Box<dyn RoutingProtocol>,
        system: SystemConfig,
        config: SimulationConfig,
    ) -> SfResult<Self> {
        config.validate()?;
        let num_nodes = graph.num_nodes();
        let active: Vec<bool> = (0..num_nodes)
            .map(|i| graph.is_active(NodeId::new(i)))
            .collect();
        let adjacency: Vec<Vec<NodeId>> = (0..num_nodes)
            .map(|i| graph.active_neighbors(NodeId::new(i)))
            .collect();
        debug_assert!(
            adjacency
                .iter()
                .all(|nbs| nbs.windows(2).all(|w| w[0] < w[1])),
            "port lookup binary-searches sorted, duplicate-free neighbour lists"
        );
        let vcs = config.virtual_channels;
        let active_count = active.iter().filter(|&&a| a).count();
        let shard_count = resolve_shard_count(&config, active_count);
        let plan = ShardPlan::new(&adjacency, &active, shard_count);

        let mut occ_offset = Vec::with_capacity(num_nodes);
        let mut total_counters = 0usize;
        for nbs in &adjacency {
            occ_offset.push(total_counters);
            total_counters += nbs.len() * vcs;
        }
        let occupancy = (0..total_counters).map(|_| AtomicUsize::new(0)).collect();

        let fault = config.fault.map(|plan| {
            // Enumerate the undirected links once, in deterministic order
            // (router id, then adjacency order) — the victim pool of
            // link-down waves. A uni-directional link contributes one
            // directed slot; a bi-directional one contributes both, so the
            // whole connection fails and heals as a unit.
            let mut link_offset = Vec::with_capacity(num_nodes);
            let mut total_links = 0usize;
            for nbs in &adjacency {
                link_offset.push(total_links);
                total_links += nbs.len();
            }
            let mut edge_index: HashMap<(usize, usize), usize> = HashMap::new();
            let mut edges: Vec<FaultEdge> = Vec::new();
            for (m, nbs) in adjacency.iter().enumerate() {
                for x in nbs {
                    let x = x.index();
                    let key = (m.min(x), m.max(x));
                    let from_index = adjacency[x]
                        .binary_search(&NodeId::new(m))
                        .expect("links are symmetric");
                    let slot = (x, from_index);
                    match edge_index.get(&key) {
                        Some(&e) => edges[e].slots.push(slot),
                        None => {
                            edge_index.insert(key, edges.len());
                            edges.push(FaultEdge { slots: vec![slot] });
                        }
                    }
                }
            }
            FaultRuntime {
                plan,
                edges,
                link_offset,
                link_down: (0..total_links).map(|_| AtomicBool::new(false)).collect(),
                router_down: (0..num_nodes).map(|_| AtomicBool::new(false)).collect(),
            }
        });

        // Telemetry recording costs nothing unless both gates are open: a
        // nonzero stride in the config and a collector configured by the
        // process (the CLI's --telemetry). The series covers every router
        // in id order and every directed link in construction order.
        let telemetry = if config.telemetry_every > 0 && sf_obs::telemetry::enabled() {
            let links = adjacency.iter().map(Vec::len).sum();
            Some(Box::new(sf_obs::telemetry::RunSeries::new(
                num_nodes,
                links,
                config.telemetry_every,
            )))
        } else {
            None
        };

        let shards = (0..plan.count())
            .map(|s| {
                Mutex::new(ShardState {
                    routers: plan
                        .members(s)
                        .iter()
                        .map(|&node| RouterState {
                            node,
                            queues: vec![List::new(); adjacency[node].len() * vcs],
                            injection: List::new(),
                            queued_net: 0,
                            memory: MemoryNodeModel::new(NodeId::new(node), &system),
                            commit: List::new(),
                            used_outputs: vec![false; adjacency[node].len()],
                            local: LocalStats::default(),
                        })
                        .collect(),
                    pools: ShardPools {
                        packets: Pool::new(),
                        commits: Pool::new(),
                        backlog: 0,
                    },
                })
            })
            .collect();
        let inboxes = (0..plan.count())
            .map(|_| Mutex::new(InFlightPool::new()))
            .collect();

        Ok(Self {
            shared: Shared {
                system,
                config,
                protocol,
                placement: None,
                request_reply: false,
                num_nodes,
                active,
                adjacency,
                plan,
                shards,
                inboxes,
                occupancy,
                occ_offset,
                done: (0..num_nodes).map(|_| AtomicU64::new(0)).collect(),
                fault,
            },
            serial: SerialState {
                cycle: 0,
                next_packet_id: 0,
                stats: SimulationStats::default(),
                pending_replies: BinaryHeap::new(),
                peaks: PoolPeaks::default(),
                fault_repairs: Vec::new(),
                timers: PhaseTimers::default(),
                telemetry,
            },
        })
    }

    /// Enables request–reply memory traffic: packets arriving at their
    /// destination are serviced by the DRAM model and answered.
    #[must_use]
    pub fn with_request_reply(mut self, enabled: bool) -> Self {
        self.shared.request_reply = enabled;
        self
    }

    /// Attaches a 2D-grid placement so that long wires (more than the
    /// configured grid distance) pay an extra hop of latency.
    #[must_use]
    pub fn with_placement(mut self, placement: GridPlacement) -> Self {
        self.shared.placement = Some(placement);
        self
    }

    /// The routing protocol driving this simulator.
    #[must_use]
    pub fn protocol_name(&self) -> &'static str {
        self.shared.protocol.name()
    }

    /// The current simulation cycle.
    #[must_use]
    pub fn current_cycle(&self) -> u64 {
        self.serial.cycle
    }

    /// Number of router shards this simulator resolved to.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shared.plan.count()
    }

    /// Number of packets currently queued, in flight, or awaiting DRAM
    /// service. O(shards): reads the pools' cached live counters instead of
    /// walking every queue.
    #[must_use]
    pub fn packets_outstanding(&self) -> u64 {
        outstanding(&self.shared, &self.serial, &self.shared.lock_all())
    }

    /// Per-node memory statistics (reads, writes, row hit rate), in node-id
    /// order.
    #[must_use]
    pub fn memory_stats(&self) -> Vec<crate::memory::MemoryNodeStats> {
        let guards = self.shared.lock_all();
        self.shared
            .plan
            .locations()
            .map(|(_, shard, slot)| guards[shard].routers[slot].memory.stats())
            .collect()
    }

    /// Runs the simulation with the given traffic model for the configured
    /// number of cycles and returns the collected statistics.
    ///
    /// The coordinating thread takes every shard guard once, holds it for
    /// the whole run and routes shard 0 itself; worker threads are spawned
    /// for shards 1..K only (none at K = 1). Every cycle goes through the
    /// same `step` as [`Self::step_one`].
    ///
    /// # Errors
    ///
    /// Returns a routing error if the protocol cannot make a forwarding
    /// decision (for example because the traffic model targets a gated node)
    /// or panics while making one. The error is the same one the serial
    /// reference would surface (the lowest-id failing router wins), but a
    /// failed run's partial statistics are unspecified.
    pub fn run(&mut self, traffic: &mut dyn TrafficModel) -> SfResult<SimulationStats> {
        self.serial.stats.active_nodes = self.shared.active.iter().filter(|&&a| a).count();
        let shared = &self.shared;
        let serial = &mut self.serial;
        let count = shared.plan.count();
        let crew = (count > 1).then(|| Crew::new(count));
        std::thread::scope(|scope| {
            if let Some(crew) = &crew {
                for s in 1..count {
                    scope.spawn(move || crew.serve(shared, s));
                }
            }
            // However the loop below ends (finished, failed, or unwinding
            // from a panic in a serial phase), the parked workers are
            // released so the scope can join them.
            let _dismiss = crew.as_ref().map(Dismiss);
            let crew = crew.as_ref();
            let mut guards = shared.lock_all();
            while serial.cycle < shared.config.max_cycles {
                step(shared, serial, traffic, &mut guards, crew)?;
            }
            // Snapshot congestion state at the end of the injection phase:
            // this is what the saturation heuristic looks at (draining would
            // hide it).
            serial.stats.in_flight_at_end = outstanding(shared, serial, &guards);
            serial.stats.backlog_at_end = guards
                .iter()
                .map(|shard| u64::from(shard.pools.backlog))
                .sum();
            // Drain phase: stop injecting and let queued packets finish,
            // bounded by another max_cycles to avoid infinite loops on
            // saturated runs.
            let drain_deadline = shared.config.max_cycles * 2;
            while serial.cycle < drain_deadline && outstanding(shared, serial, &guards) > 0 {
                step(shared, serial, &mut NoTraffic, &mut guards, crew)?;
            }
            finish_run(shared, serial, &mut guards)
        })
    }

    /// Advances a **single-shard** simulator by exactly one cycle, through
    /// the same `step` as [`Self::run`]. This is the building block the
    /// allocation-free contract is pinned against: after warm-up, a call
    /// performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] if the simulator resolved to
    /// more than one shard (single-stepping would have to park and release
    /// worker threads every call), or a routing error as in [`Self::run`].
    pub fn step_one(&mut self, traffic: &mut dyn TrafficModel) -> SfResult<()> {
        if self.shared.plan.count() != 1 {
            return Err(SfError::InvalidConfiguration {
                reason: format!(
                    "step_one requires a single-shard simulator (resolved to {} shards)",
                    self.shared.plan.count()
                ),
            });
        }
        let mut guards = [ShardGuard(Some(self.shared.lock(0)))];
        step(&self.shared, &mut self.serial, traffic, &mut guards, None)
    }
}

/// The worker threads of a multi-shard run, as the coordinator drives them:
/// each cycle one barrier crossing releases them into the routing phase and
/// a second one joins them. `cycle` and `stop` are stored (Release) before
/// a releasing crossing and loaded (Acquire) after it.
struct Crew {
    barrier: Barrier,
    /// The cycle the released workers route.
    cycle: AtomicU64,
    /// Set before the last release: the workers exit instead of routing.
    stop: AtomicBool,
    /// The workers' first failure this cycle (see [`first_failure`]).
    failure: Mutex<Option<Failure>>,
}

impl Crew {
    fn new(shards: usize) -> Self {
        Self {
            barrier: Barrier::new(shards),
            cycle: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            failure: Mutex::new(None),
        }
    }

    /// Worker `s`: routes shard `s` once per release until dismissed. It
    /// holds the shard's lock only between the two crossings, while the
    /// coordinator has let go of it.
    fn serve(&self, shared: &Shared, s: usize) {
        loop {
            self.barrier.wait();
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            let cycle = self.cycle.load(Ordering::Acquire);
            let failure = route_shard(shared, &mut shared.lock(s), s, cycle);
            if failure.is_some() {
                let mut first = self.failure.lock().expect("failure slot poisoned");
                *first = first_failure(first.take(), failure);
            }
            self.barrier.wait();
        }
    }

    /// The coordinator's side of a multi-shard routing phase: let go of
    /// shards 1..K, release the workers, route shard 0, join the workers and
    /// take the shards back. Returns the first failure of any shard.
    fn route<'a>(
        &self,
        shared: &'a Shared,
        guards: &mut [ShardGuard<'a>],
        cycle: u64,
    ) -> Option<Failure> {
        for guard in &mut guards[1..] {
            guard.0 = None;
        }
        self.cycle.store(cycle, Ordering::Release);
        self.barrier.wait();
        let own = route_shard(shared, &mut guards[0], 0, cycle);
        self.barrier.wait();
        for (s, guard) in guards.iter_mut().enumerate().skip(1) {
            guard.0 = Some(shared.lock(s));
        }
        let workers = self.failure.lock().expect("failure slot poisoned").take();
        first_failure(own, workers)
    }
}

/// Dismisses a [`Crew`] when dropped: the workers, parked at the barrier,
/// see `stop` on this last release and exit.
struct Dismiss<'a>(&'a Crew);

impl Drop for Dismiss<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::Release);
        self.0.barrier.wait();
    }
}

/// A routing failure: the failing router's id and its error.
type Failure = (usize, SfError);

/// The failure at the lower router id, which the serial id-order loop would
/// hit first — so the surfaced error does not depend on the shard count.
fn first_failure(a: Option<Failure>, b: Option<Failure>) -> Option<Failure> {
    match (a, b) {
        (Some(a), Some(b)) => Some(if b.0 < a.0 { b } else { a }),
        (a, b) => a.or(b),
    }
}

/// End-of-run bookkeeping: fold the per-router counters, export the pool
/// metrics, flush telemetry and phase timers.
fn finish_run(
    shared: &Shared,
    serial: &mut SerialState,
    guards: &mut [ShardGuard<'_>],
) -> SfResult<SimulationStats> {
    merge_local_stats(shared, serial, guards);
    serial.stats.cycles = serial.cycle;
    record_pool_metrics(shared, serial, guards);
    if let Some(series) = serial.telemetry.take() {
        sf_obs::metrics::global().counter_add("sim.telemetry_samples", series.samples() as u64);
        sf_obs::telemetry::Collector::global().submit(series.encode());
    }
    if sf_obs::span::timing_enabled() {
        let tracer = sf_obs::span::Tracer::global();
        let timers = std::mem::take(&mut serial.timers);
        tracer.add_duration_event("kernel_cycle_phases", timers.route, serial.cycle);
        tracer.add_duration_event("commit_replay", timers.commit, serial.cycle);
    }
    Ok(serial.stats.clone())
}

/// Folds every router's commutative integer counters into the final
/// statistics. Iterating in id order is cosmetic — integer sums and `max`
/// are order-independent, which is exactly why these counters never needed
/// the serial per-cycle replay. Counters are drained so a repeated run
/// cannot double-count.
fn merge_local_stats(shared: &Shared, serial: &mut SerialState, guards: &mut [ShardGuard<'_>]) {
    for (_, shard, slot) in shared.plan.locations() {
        let local = std::mem::take(&mut guards[shard].routers[slot].local);
        let stats = &mut serial.stats;
        stats.blocked_forwards += local.blocked_forwards;
        stats.delivered += local.delivered;
        stats.total_latency_cycles += local.total_latency_cycles;
        stats.max_latency_cycles = stats.max_latency_cycles.max(local.max_latency_cycles);
        stats.total_hops += local.total_hops;
        stats.completed_requests += local.completed_requests;
        stats.total_round_trip_cycles += local.total_round_trip_cycles;
        stats.dropped_packets += local.dropped_packets;
    }
}

/// Exports the `sim.pool.*` determinism-contract metrics (boundary-sampled
/// occupancy peaks and lifetime push totals — invariant under the worker ×
/// shard matrix) and the layout-dependent `sched.pool_*` companions (slab
/// capacities and grow counts legitimately depend on K).
fn record_pool_metrics(shared: &Shared, serial: &SerialState, guards: &[ShardGuard<'_>]) {
    let metrics = sf_obs::metrics::global();
    metrics.gauge_max("sim.pool.packets_peak", serial.peaks.packets);
    metrics.gauge_max("sim.pool.in_flight_peak", serial.peaks.in_flight);
    metrics.gauge_max("sim.pool.commit_entries_peak", serial.peaks.commit_entries);
    let mut packet_pushes = 0u64;
    let mut commit_pushes = 0u64;
    let mut slots = 0u64;
    let mut grows = 0u64;
    for shard in guards {
        packet_pushes += shard.pools.packets.pushes();
        commit_pushes += shard.pools.commits.pushes();
        slots += (shard.pools.packets.capacity() + shard.pools.commits.capacity()) as u64;
        grows += shard.pools.packets.grows() + shard.pools.commits.grows();
    }
    let mut in_flight_pushes = 0u64;
    for inbox in &shared.inboxes {
        let inbox = inbox.lock().expect("inbox poisoned");
        in_flight_pushes += inbox.pushes();
        slots += inbox.capacity() as u64;
        grows += inbox.grows();
    }
    metrics.counter_add("sim.pool.packet_pushes", packet_pushes);
    metrics.counter_add("sim.pool.in_flight_pushes", in_flight_pushes);
    metrics.counter_add("sim.pool.commit_pushes", commit_pushes);
    metrics.counter_add("sched.pool_slots", slots);
    metrics.counter_add("sched.pool_grows", grows);
}

/// Live packets across the shards' pools: queued at router inputs or in
/// injection queues. O(shards): the pools count live slots on push/pop.
fn queued_total(guards: &[ShardGuard<'_>]) -> u64 {
    guards
        .iter()
        .map(|shard| u64::from(shard.pools.packets.live()))
        .sum()
}

/// Packets currently traversing links, summed over the arrival inboxes.
fn in_flight_total(shared: &Shared) -> u64 {
    shared
        .inboxes
        .iter()
        .map(|inbox| u64::from(inbox.lock().expect("inbox poisoned").len()))
        .sum()
}

/// Packets queued, in flight, or awaiting DRAM service: the one census
/// behind [`ShardedSimulator::packets_outstanding`], the drain loop and the
/// end-of-injection congestion snapshot.
fn outstanding(shared: &Shared, serial: &SerialState, guards: &[ShardGuard<'_>]) -> u64 {
    queued_total(guards) + in_flight_total(shared) + serial.pending_replies.len() as u64
}

/// Folds this boundary's pool occupancy into the run's peaks. Sampled after
/// the serial pre-route phases with the routing workers parked, so every
/// total is the serial-equivalent network-wide state — invariant under K.
fn track_pool_peaks(shared: &Shared, serial: &mut SerialState, guards: &[ShardGuard<'_>]) {
    serial.peaks.packets = serial.peaks.packets.max(queued_total(guards));
    serial.peaks.in_flight = serial.peaks.in_flight.max(in_flight_total(shared));
}

/// Records one telemetry sample if the series is on and the cycle is on
/// stride. Runs at the cycle boundary with all shard guards held and the
/// routing workers parked, so every read observes the exact state the
/// serial reference would hold: queue depths and stall counters live under
/// the guards, the credit counters are quiescent (relaxed loads are
/// race-free here, the same argument fault injection makes), and the
/// energy accumulators were committed serially in id order.
///
/// Queue depth reads the cached occupancy counters the pools maintain —
/// O(1) per router instead of the old rescan of every `VecDeque` (O(ports ×
/// vcs) per router per sample). The sample point is *before* the arrival
/// drain for every shard count (due arrivals still sit in the inboxes and
/// show up in the link-occupancy columns, not the router depths), which is
/// what keeps the series K-invariant now that draining happens inside the
/// routing phase.
fn maybe_sample_telemetry(shared: &Shared, serial: &mut SerialState, guards: &[ShardGuard<'_>]) {
    let (network_pj, dram_pj) = serial.stats.energy_breakdown_pj();
    let cycle = serial.cycle;
    let Some(series) = serial.telemetry.as_deref_mut() else {
        return;
    };
    if !series.begin_sample(cycle, network_pj, dram_pj) {
        return;
    }
    for (_, shard, slot) in shared.plan.locations() {
        let router = &guards[shard].routers[slot];
        let depth = router.queued_net + router.injection.len();
        series.push_router(depth, router.local.blocked_forwards);
    }
    let vcs = shared.config.virtual_channels;
    for (node, nbs) in shared.adjacency.iter().enumerate() {
        for link in 0..nbs.len() {
            let occ: usize = (0..vcs)
                .map(|vc| shared.occ(node, link, vc).load(Ordering::Relaxed))
                .sum();
            series.push_link(occ as u32);
        }
    }
}

/// Advances the simulation by one cycle: the serial pre-route phases, one
/// routing phase over all shards, the serial commit. The one step path for
/// every shard count; `crew` is `None` exactly when there is one shard.
fn step<'a>(
    shared: &'a Shared,
    serial: &mut SerialState,
    traffic: &mut dyn TrafficModel,
    guards: &mut [ShardGuard<'a>],
    crew: Option<&Crew>,
) -> SfResult<()> {
    pre_route_phases(shared, serial, guards, traffic)?;
    // Telemetry sampling shares this boundary with fault injection: every
    // router quiescent, all state serial-equivalent, so the sample is
    // bit-identical for any worker x shard count.
    maybe_sample_telemetry(shared, serial, guards);
    track_pool_peaks(shared, serial, guards);

    // Routing phase: every shard routes its routers, wavefront-ordered.
    let route_timer = sf_obs::span::timing_start();
    let failure = match crew {
        None => route_shard(shared, &mut guards[0], 0, serial.cycle),
        Some(crew) => crew.route(shared, guards, serial.cycle),
    };
    if let Some(started) = route_timer {
        serial.timers.route += started.elapsed();
    }
    if let Some((_, error)) = failure {
        return Err(error);
    }

    // Serial commit: replay every router's commit log in id order.
    let commit_timer = sf_obs::span::timing_start();
    let entries = commit_phase(shared, serial, guards);
    serial.peaks.commit_entries = serial.peaks.commit_entries.max(entries);
    if let Some(started) = commit_timer {
        serial.timers.commit += started.elapsed();
    }
    serial.cycle += 1;
    Ok(())
}

/// Serial phases 0–2: fault boundary, traffic injection, reply release.
/// (Link arrivals are no longer a serial phase — each shard drains its own
/// inbox at the start of its routing phase, see [`drain_arrivals`].)
fn pre_route_phases(
    shared: &Shared,
    serial: &mut SerialState,
    guards: &mut [ShardGuard<'_>],
    traffic: &mut dyn TrafficModel,
) -> SfResult<()> {
    let cycle = serial.cycle;
    let measuring = cycle >= shared.config.warmup_cycles;

    // 0. Fault boundary: deterministic repairs, then this cycle's fault
    //    wave (a no-op without a configured plan).
    apply_fault_boundary(shared, serial, guards);

    // 1. New injections from the traffic model, in node order (the traffic
    //    model's RNG stream is consumed in this exact order). A fault-gated
    //    source still draws from the model — its stream stays a pure
    //    function of the cycle — but the produced request is lost.
    for node in 0..shared.num_nodes {
        if !shared.active[node] {
            continue;
        }
        if let Some(request) = traffic.maybe_inject(cycle, NodeId::new(node)) {
            if shared.router_faulted(node) {
                serial.stats.dropped_packets += 1;
                continue;
            }
            enqueue_request(shared, serial, guards, node, request, cycle, measuring)?;
        }
    }

    // 2. Replies whose DRAM service completed become injectable; a reply
    //    releasing at a fault-gated node is lost.
    while let Some(top) = serial.pending_replies.peek() {
        if top.ready_cycle > cycle {
            break;
        }
        let reply = serial.pending_replies.pop().expect("peeked");
        if shared.router_faulted(reply.node) {
            serial.stats.dropped_packets += 1;
            continue;
        }
        let (shard, slot) = shared.plan.locate(reply.node);
        let ShardState { routers, pools } = &mut *guards[shard];
        routers[slot]
            .injection
            .push_back(&mut pools.packets, reply.packet);
        pools.backlog += 1;
    }
    Ok(())
}

/// Applies the fault schedule at one cycle boundary: first the repairs that
/// have come due (in strike order), then the wave striking at this cycle, if
/// any. Runs on the coordinating thread while the workers are parked, so the
/// liveness flags it writes are constant throughout the routing phase.
fn apply_fault_boundary(shared: &Shared, serial: &mut SerialState, guards: &mut [ShardGuard<'_>]) {
    let Some(fault) = &shared.fault else {
        return;
    };
    let cycle = serial.cycle;

    // Repairs due at or before this boundary.
    let mut i = 0;
    while i < serial.fault_repairs.len() {
        if serial.fault_repairs[i].at > cycle {
            i += 1;
            continue;
        }
        match serial.fault_repairs.remove(i).victim {
            FaultVictim::Edge(e) => {
                for &(to, idx) in &fault.edges[e].slots {
                    fault.link_down[fault.link_offset[to] + idx].store(false, Ordering::Relaxed);
                }
            }
            FaultVictim::Router(m) => fault.router_down[m].store(false, Ordering::Relaxed),
        }
    }

    let Some(wave) = fault.plan.wave_at(cycle) else {
        return;
    };

    // Link-down victims: draws that land on an already-dead link are
    // forfeited (the wave strikes *up to* `links_per_wave` links), which
    // keeps every draw a pure function of (seed, wave, draw).
    for k in 0..fault.plan.links_per_wave {
        if fault.edges.is_empty() {
            break;
        }
        let e = (fault.plan.draw(wave, 0, k as u64) % fault.edges.len() as u64) as usize;
        let (to0, idx0) = fault.edges[e].slots[0];
        if fault.link_down[fault.link_offset[to0] + idx0].load(Ordering::Relaxed) {
            continue;
        }
        for &(to, idx) in &fault.edges[e].slots {
            fault.link_down[fault.link_offset[to] + idx].store(true, Ordering::Relaxed);
        }
        serial.stats.link_down_events += 1;
        drop_in_flight(shared, serial, |f| {
            fault.edges[e]
                .slots
                .iter()
                .any(|&(to, idx)| f.to_node as usize == to && f.from_index as usize == idx)
        });
        serial.fault_repairs.push(FaultRepair {
            at: cycle + fault.plan.repair_cycles,
            victim: FaultVictim::Edge(e),
        });
    }

    // Router power-gate victims. Draws landing on an inactive (statically
    // gated) or already-down router are likewise forfeited.
    for k in 0..fault.plan.routers_per_wave {
        let m = (fault.plan.draw(wave, 1, k as u64) % shared.num_nodes as u64) as usize;
        if !shared.active[m] || fault.router_down[m].load(Ordering::Relaxed) {
            continue;
        }
        fault.router_down[m].store(true, Ordering::Relaxed);
        serial.stats.router_down_events += 1;
        // Everything queued at the gated router is lost; credits return to
        // the senders so the links are clean after the repair.
        let (shard, slot) = shared.plan.locate(m);
        let vcs = shared.config.virtual_channels;
        let ShardState { routers, pools } = &mut *guards[shard];
        let router = &mut routers[slot];
        for idx in 0..router.queues.len() {
            let (link, vc) = (idx / vcs, idx % vcs);
            while router.queues[idx].pop_front(&mut pools.packets).is_some() {
                shared.occ(m, link, vc).fetch_sub(1, Ordering::Relaxed);
                serial.stats.dropped_packets += 1;
            }
        }
        router.queued_net = 0;
        let mut purged = 0u32;
        while router.injection.pop_front(&mut pools.packets).is_some() {
            purged += 1;
        }
        serial.stats.dropped_packets += u64::from(purged);
        pools.backlog -= purged;
        drop_in_flight(shared, serial, |f| f.to_node as usize == m);
        serial.fault_repairs.push(FaultRepair {
            at: cycle + fault.plan.repair_cycles,
            victim: FaultVictim::Router(m),
        });
    }
}

/// Drops every in-flight packet matching `doomed`, returning its credit and
/// counting it as fault-dropped. One in-place pass over each inbox (no
/// take-and-rebuild): [`InFlightPool::extract_if`] unlinks doomed entries as
/// it walks the FIFO chain. Runs at the cycle boundary on the coordinating
/// thread; the per-entry effects (credit returns, a drop count) are
/// commutative, so the per-inbox walk order is unobservable.
fn drop_in_flight(
    shared: &Shared,
    serial: &mut SerialState,
    doomed: impl Fn(&InFlightMeta) -> bool,
) {
    for inbox in &shared.inboxes {
        let mut inbox = inbox.lock().expect("inbox poisoned");
        inbox.extract_if(
            |meta| doomed(&meta),
            |meta, _packet| {
                shared
                    .occ(
                        meta.to_node as usize,
                        meta.from_index as usize,
                        meta.vc as usize,
                    )
                    .fetch_sub(1, Ordering::Relaxed);
                serial.stats.dropped_packets += 1;
            },
        );
    }
}

fn enqueue_request(
    shared: &Shared,
    serial: &mut SerialState,
    guards: &mut [ShardGuard<'_>],
    source: usize,
    request: TrafficRequest,
    cycle: u64,
    measuring: bool,
) -> SfResult<()> {
    let dest = request.destination;
    if dest.index() >= shared.num_nodes {
        return Err(SfError::Simulation {
            reason: format!(
                "traffic model produced destination {dest} outside the {}-node network",
                shared.num_nodes
            ),
        });
    }
    if !shared.active[dest.index()] {
        return Err(SfError::Simulation {
            reason: format!("traffic model targeted gated node {dest}"),
        });
    }
    // A transiently fault-gated destination is not an error (unlike static
    // gating above, the traffic model cannot know about it): the request is
    // simply lost at the source.
    if shared.router_faulted(dest.index()) {
        serial.stats.dropped_packets += 1;
        return Ok(());
    }
    let kind = if shared.request_reply {
        if request.write {
            PacketKind::WriteRequest
        } else {
            PacketKind::ReadRequest
        }
    } else {
        PacketKind::Synthetic
    };
    let packet = Packet {
        id: serial.next_packet_id,
        source: NodeId::new(source),
        destination: dest,
        kind,
        injected_at: cycle,
        request_issued_at: cycle,
        hops: 0,
        virtual_channel: VirtualChannelId::UP,
    };
    serial.next_packet_id += 1;
    if measuring {
        serial.stats.injected += 1;
    }
    let (shard, slot) = shared.plan.locate(source);
    let ShardState { routers, pools } = &mut *guards[shard];
    let router = &mut routers[slot];
    if source == dest.index() {
        // Local access: no network traversal, service memory directly. The
        // DRAM energy and reply id apply now, at the same point in the
        // serial order the reference simulator used.
        if let Some(residue) = deliver(router, &packet, cycle, measuring) {
            commit_serviced(shared, serial, residue, cycle, measuring);
        }
        return Ok(());
    }
    router.injection.push_back(&mut pools.packets, packet);
    pools.backlog += 1;
    Ok(())
}

/// The routing phase of one shard for one cycle, run by the coordinator for
/// shard 0 and by the workers for the others: drain the shard's due
/// arrivals, then route its routers in increasing id order, each once its
/// cross-shard smaller-id neighbours have published this cycle's epoch.
///
/// Returns the shard's lowest-id failure; after one the shard routes no
/// further routers. Every router's epoch is published regardless, so
/// sibling shards never spin forever. A panic (say, inside the protocol's
/// `next_hop`) is reported as the failure of the router being routed, so
/// the error is the same for every shard count.
fn route_shard(shared: &Shared, state: &mut ShardState, s: usize, cycle: u64) -> Option<Failure> {
    let epoch = cycle + 1;
    // The router being routed; `usize::MAX` while the arrivals drain.
    let mut routing = usize::MAX;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        drain_arrivals(shared, state, s, cycle);
        let ShardState { routers, pools } = state;
        let mut failed = None;
        for router in routers.iter_mut() {
            let node = router.node;
            // A fault-gated router skips its routing step (its queues were
            // drained when it went down) but still publishes its epoch.
            if shared.active[node] && !shared.router_faulted(node) && failed.is_none() {
                for &dep in shared.plan.wait_for(node) {
                    let mut spins = 0u32;
                    while shared.done[dep].load(Ordering::Acquire) < epoch {
                        // A short spin burst covers the common case (the
                        // dependency is a few routers from done); after that,
                        // yield every iteration so an oversubscribed machine
                        // — more shards than idle cores — makes progress
                        // instead of burning a scheduling quantum.
                        spins = spins.saturating_add(1);
                        if spins < 32 {
                            std::hint::spin_loop();
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
                routing = node;
                if let Err(error) = route_node(shared, pools, router, cycle) {
                    failed = Some((node, error));
                }
            }
            shared.done[node].store(epoch, Ordering::Release);
        }
        failed
    }));
    outcome.unwrap_or_else(|_panic| {
        // The run aborts without a commit; publish every epoch so sibling
        // shards cannot deadlock.
        for &node in shared.plan.members(s) {
            shared.done[node].store(epoch, Ordering::Release);
        }
        let reason = format!("routing of router {routing} panicked");
        Some((routing, SfError::Simulation { reason }))
    })
}

/// Moves every arrival due at `cycle` from the shard's inbox into the
/// destination routers' input queues. Runs at the start of the shard's
/// routing phase, *before* the wavefront waits: it only writes this shard's
/// own queues (which no other shard reads) and the credit counters it
/// touches for fault-dropped arrivals are never read while the receiving
/// resource is down — so the drain is invisible to every other shard.
///
/// Each (router, port) pair receives at most one packet per cycle (one
/// forward per output link per cycle, constant per-link latency), so the
/// nondeterministic cross-shard push order in the inbox can only reorder
/// arrivals that land in *distinct* queues — unobservable, and exactly why
/// this phase no longer needs the coordinator.
fn drain_arrivals(shared: &Shared, state: &mut ShardState, s: usize, cycle: u64) {
    let vcs = shared.config.virtual_channels;
    let ShardState { routers, pools } = state;
    let mut inbox = shared.inboxes[s].lock().expect("inbox poisoned");
    inbox.extract_if(
        |meta| meta.arrival_cycle <= cycle,
        |meta, packet| {
            let to = meta.to_node as usize;
            let from_index = meta.from_index as usize;
            let vc = meta.vc as usize;
            let slot = shared.plan.locate(to).1;
            // Fault drops purge in-flight entries at the boundary, so an
            // arrival at a dead resource cannot normally happen; the check
            // is defensive and keeps the credit counters consistent.
            if shared.router_faulted(to) || shared.link_faulted(to, from_index) {
                shared
                    .occ(to, from_index, vc)
                    .fetch_sub(1, Ordering::Relaxed);
                routers[slot].local.dropped_packets += 1;
            } else {
                let router = &mut routers[slot];
                router.queues[from_index * vcs + vc].push_back(&mut pools.packets, packet);
                router.queued_net += 1;
            }
        },
    );
}

/// Processes one router for one cycle: ejection and forwarding, one packet
/// per output link per cycle, one ejection per cycle per node. Identical
/// decision order to the reference serial simulator. Allocation-free: queue
/// traffic recycles pool slots and the output scoreboard is a reusable
/// per-router buffer.
fn route_node(
    shared: &Shared,
    pools: &mut ShardPools,
    router: &mut RouterState,
    cycle: u64,
) -> SfResult<()> {
    let node = router.node;
    let num_links = shared.adjacency[node].len();
    let vcs = shared.config.virtual_channels;
    // Queue scan order rotates every cycle for fairness; the injection queue
    // is scanned last so in-network packets have priority.
    let total_queues = num_links * vcs;
    let offset = (cycle as usize) % total_queues.max(1);
    router.used_outputs.fill(false);
    let mut ejected = false;

    for q in 0..total_queues {
        let idx = (q + offset) % total_queues;
        let (link, vc) = (idx / vcs, idx % vcs);
        let Some(&packet) = router.queues[idx].front(&pools.packets) else {
            continue;
        };
        if packet.destination.index() == node {
            if !ejected {
                let packet = router.queues[idx]
                    .pop_front(&mut pools.packets)
                    .expect("head packet present");
                router.queued_net -= 1;
                shared.occ(node, link, vc).fetch_sub(1, Ordering::Relaxed);
                eject_in_phase(shared, &mut pools.commits, router, packet, cycle);
                ejected = true;
            }
            continue;
        }
        if try_forward(shared, &mut pools.commits, router, &packet, cycle)? {
            router.queues[idx].pop_front(&mut pools.packets);
            router.queued_net -= 1;
            shared.occ(node, link, vc).fetch_sub(1, Ordering::Relaxed);
        } else if cycle >= shared.config.warmup_cycles {
            router.local.blocked_forwards += 1;
        }
    }

    // Injection queue: the terminal port can insert one packet per cycle.
    if let Some(&packet) = router.injection.front(&pools.packets) {
        if packet.destination.index() == node {
            // A reply addressed to the local node (possible when a processor
            // and memory share a node): deliver directly.
            let packet = router
                .injection
                .pop_front(&mut pools.packets)
                .expect("head");
            pools.backlog -= 1;
            eject_in_phase(shared, &mut pools.commits, router, packet, cycle);
        } else if try_forward(shared, &mut pools.commits, router, &packet, cycle)? {
            router.injection.pop_front(&mut pools.packets);
            pools.backlog -= 1;
        } else if cycle >= shared.config.warmup_cycles {
            router.local.blocked_forwards += 1;
        }
    }
    Ok(())
}

/// Delivery at the destination during the parallel routing phase. The float
/// DRAM energy and the reply's packet-id assignment need the serial order,
/// so a serviced request travels to the commit as a
/// [`CommitEntry::Serviced`].
fn eject_in_phase(
    shared: &Shared,
    commits: &mut Pool<CommitEntry>,
    router: &mut RouterState,
    packet: Packet,
    cycle: u64,
) {
    let measuring = cycle >= shared.config.warmup_cycles;
    if let Some(residue) = deliver(router, &packet, cycle, measuring) {
        router
            .commit
            .push_back(commits, CommitEntry::Serviced(residue));
    }
}

/// Delivers `packet` at `router`: folds its integer statistics into the
/// router's local counters and, for a request, runs the router-local DRAM
/// access. Returns the residue a request's reply needs; its float energy
/// and packet id wait for [`commit_serviced`].
fn deliver(
    router: &mut RouterState,
    packet: &Packet,
    cycle: u64,
    measuring: bool,
) -> Option<ServiceResidue> {
    if measuring {
        let local = &mut router.local;
        let latency = cycle.saturating_sub(packet.injected_at);
        local.delivered += 1;
        local.total_latency_cycles += latency;
        local.max_latency_cycles = local.max_latency_cycles.max(latency);
        local.total_hops += u64::from(packet.hops);
        if matches!(packet.kind, PacketKind::ReadReply | PacketKind::WriteAck) {
            local.completed_requests += 1;
            local.total_round_trip_cycles += cycle.saturating_sub(packet.request_issued_at);
        }
    }
    if !matches!(
        packet.kind,
        PacketKind::ReadRequest | PacketKind::WriteRequest
    ) {
        return None;
    }
    let address = packet.id.wrapping_mul(64) % (1 << 33);
    let write = packet.kind == PacketKind::WriteRequest;
    Some(ServiceResidue {
        service: router.memory.access(address, write),
        source: packet.source,
        destination: packet.destination,
        kind: packet.kind,
        request_issued_at: packet.request_issued_at,
    })
}

/// Attempts to forward `packet` out of `node`; returns `true` if the packet
/// entered a link this cycle: credits taken, the packet handed to the
/// destination shard's arrival inbox, and (when measuring) a
/// [`CommitEntry::LinkEnergy`] logged for the serial float replay.
fn try_forward(
    shared: &Shared,
    commits: &mut Pool<CommitEntry>,
    router: &mut RouterState,
    packet: &Packet,
    cycle: u64,
) -> SfResult<bool> {
    let node = router.node;
    let ctx = RoutingContext {
        first_hop: packet.hops == 0,
        adaptive_threshold: shared.config.adaptive_threshold,
    };
    let loads = AtomicLoadView { shared };
    let next = shared
        .protocol
        .next_hop(NodeId::new(node), packet.destination, &loads, &ctx)?;
    let Ok(out_idx) = shared.adjacency[node].binary_search(&next) else {
        return Err(SfError::Simulation {
            reason: format!(
                "protocol {} chose non-neighbour {next} from node {node}",
                shared.protocol.name()
            ),
        });
    };
    if router.used_outputs[out_idx] {
        return Ok(false);
    }
    let vc = shared
        .protocol
        .virtual_channel(NodeId::new(node), next, packet.destination)
        .index() as usize;
    let vc = vc.min(shared.config.virtual_channels - 1);
    // Credit check on the downstream input queue.
    let down_idx = shared.adjacency[next.index()]
        .binary_search(&NodeId::new(node))
        .expect("links are symmetric");
    // A dead next hop or dead link blocks the forward; the packet waits for
    // the repair (or for adaptive routing to pick another port next cycle).
    if shared.router_faulted(next.index()) || shared.link_faulted(next.index(), down_idx) {
        return Ok(false);
    }
    if shared
        .occ(next.index(), down_idx, vc)
        .load(Ordering::Relaxed)
        >= shared.config.vc_queue_capacity
    {
        return Ok(false);
    }
    // Commit the hop: credit taken, packet handed to the destination
    // shard's inbox. The inbox mutex is held for one slab write; the energy
    // contribution is logged (not applied) because float accumulation must
    // replay in id order.
    router.used_outputs[out_idx] = true;
    shared
        .occ(next.index(), down_idx, vc)
        .fetch_add(1, Ordering::Relaxed);
    let mut moved = *packet;
    moved.hops += 1;
    moved.virtual_channel = VirtualChannelId::new(vc as u8);
    let latency = shared.link_latency(node, next.index());
    let dst_shard = shared.plan.locate(next.index()).0;
    shared.inboxes[dst_shard]
        .lock()
        .expect("inbox poisoned")
        .push(
            InFlightMeta {
                arrival_cycle: cycle + latency,
                to_node: next.index() as u32,
                from_index: down_idx as u32,
                vc: vc as u32,
            },
            moved,
        );
    if cycle >= shared.config.warmup_cycles {
        router.commit.push_back(
            commits,
            CommitEntry::LinkEnergy {
                size_bits: moved.kind.size_bits(shared.system.cacheline_bytes),
            },
        );
    }
    Ok(true)
}

/// Replays every router's commit log in router-id order, reproducing the
/// serial loop's exact float-accumulation order and reply-id assignment
/// order. This is the *minimal* serial residue: a few copyable words per
/// moved packet — the packets themselves went straight to the arrival
/// inboxes during the routing phase, and integer statistics are folded
/// shard-locally (see [`LocalStats`]) and merged at run end. Returns the
/// number of entries replayed (for the `sim.pool.commit_entries_peak`
/// gauge).
fn commit_phase(shared: &Shared, serial: &mut SerialState, guards: &mut [ShardGuard<'_>]) -> u64 {
    let cycle = serial.cycle;
    let measuring = cycle >= shared.config.warmup_cycles;
    let mut entries = 0u64;
    for (_, shard, slot) in shared.plan.locations() {
        let ShardState { routers, pools } = &mut *guards[shard];
        let router = &mut routers[slot];
        while let Some(entry) = router.commit.pop_front(&mut pools.commits) {
            entries += 1;
            match entry {
                CommitEntry::LinkEnergy { size_bits } => {
                    // Logged only while measuring, so no warm-up check here.
                    serial.stats.network_energy_pj +=
                        shared.system.energy.network_energy_pj(size_bits, 1);
                }
                CommitEntry::Serviced(residue) => {
                    commit_serviced(shared, serial, residue, cycle, measuring);
                }
            }
        }
    }
    entries
}

/// The serial half of a DRAM access: float energy accumulation and the
/// reply's packet-id assignment, in the exact order the reference serial
/// simulator performed them.
fn commit_serviced(
    shared: &Shared,
    serial: &mut SerialState,
    residue: ServiceResidue,
    cycle: u64,
    measuring: bool,
) {
    if measuring {
        serial.stats.dram_energy_pj += shared
            .system
            .energy
            .dram_energy_pj(shared.system.cacheline_bytes as u64 * 8);
    }
    if let Some(reply_kind) = residue.kind.reply_kind() {
        let reply = Packet {
            id: serial.next_packet_id,
            source: residue.destination,
            destination: residue.source,
            kind: reply_kind,
            injected_at: cycle + residue.service,
            request_issued_at: residue.request_issued_at,
            hops: 0,
            virtual_channel: VirtualChannelId::UP,
        };
        serial.next_packet_id += 1;
        serial.pending_replies.push(PendingReply {
            ready_cycle: cycle + residue.service,
            node: residue.destination.index(),
            packet: reply,
        });
    }
}

/// A traffic model that never injects; used internally for the drain phase.
struct NoTraffic;

impl TrafficModel for NoTraffic {
    fn maybe_inject(&mut self, _cycle: u64, _source: NodeId) -> Option<TrafficRequest> {
        None
    }

    fn is_exhausted(&self) -> bool {
        true
    }
}

/// Simple uniform-random synthetic traffic, provided here so the kernel is
/// usable stand-alone; richer patterns and application models live in
/// `sf-workloads`.
#[derive(Debug, Clone)]
pub struct UniformRandomTraffic {
    num_nodes: usize,
    injection_rate: f64,
    rng: sf_types::DeterministicRng,
}

impl UniformRandomTraffic {
    /// Creates uniform-random traffic over `num_nodes` nodes where every node
    /// injects with probability `injection_rate` each cycle.
    #[must_use]
    pub fn new(num_nodes: usize, injection_rate: f64, seed: u64) -> Self {
        Self {
            num_nodes,
            injection_rate,
            rng: sf_types::DeterministicRng::new(seed),
        }
    }
}

impl TrafficModel for UniformRandomTraffic {
    fn maybe_inject(&mut self, _cycle: u64, source: NodeId) -> Option<TrafficRequest> {
        if !self.rng.next_bool(self.injection_rate) {
            return None;
        }
        // Pick a destination different from the source.
        let mut dest = self.rng.next_index(self.num_nodes);
        if dest == source.index() {
            dest = (dest + 1) % self.num_nodes;
        }
        Some(TrafficRequest::read(NodeId::new(dest)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_routing::GreediestRouting;
    use sf_topology::StringFigureTopology;
    use sf_types::NetworkConfig;

    fn sim(nodes: usize, shards: usize, max_cycles: u64) -> ShardedSimulator {
        sim_routed(nodes, shards, max_cycles, |routing| Box::new(routing))
    }

    /// Like [`sim`], with the greediest protocol wrapped by `wrap`.
    fn sim_routed(
        nodes: usize,
        shards: usize,
        max_cycles: u64,
        wrap: impl FnOnce(GreediestRouting) -> Box<dyn RoutingProtocol>,
    ) -> ShardedSimulator {
        let topo = StringFigureTopology::generate(&NetworkConfig::new(nodes, 4).unwrap()).unwrap();
        ShardedSimulator::new(
            topo.graph().clone(),
            wrap(GreediestRouting::new(&topo)),
            SystemConfig::default(),
            SimulationConfig {
                max_cycles,
                warmup_cycles: max_cycles / 10,
                shards,
                ..SimulationConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn any_shard_count_is_bit_identical_to_serial() {
        let reference = sim(48, 1, 1_500)
            .run(&mut UniformRandomTraffic::new(48, 0.08, 11))
            .unwrap();
        assert!(reference.delivered > 0);
        for shards in [2usize, 3, 4, 7] {
            let stats = sim(48, shards, 1_500)
                .run(&mut UniformRandomTraffic::new(48, 0.08, 11))
                .unwrap();
            assert_eq!(stats, reference, "shards={shards}");
        }
    }

    #[test]
    fn request_reply_mode_is_shard_independent() {
        let run = |shards: usize| {
            let mut s = sim(32, shards, 2_000).with_request_reply(true);
            let stats = s.run(&mut UniformRandomTraffic::new(32, 0.04, 5)).unwrap();
            (stats, s.memory_stats())
        };
        let (ref_stats, ref_memory) = run(1);
        assert!(ref_stats.completed_requests > 0);
        for shards in [2usize, 5] {
            let (stats, memory) = run(shards);
            assert_eq!(stats, ref_stats, "shards={shards}");
            assert_eq!(memory, ref_memory, "shards={shards}");
        }
    }

    #[test]
    fn placement_is_shard_independent() {
        let topo = StringFigureTopology::generate(&NetworkConfig::new(64, 4).unwrap()).unwrap();
        let run = |shards: usize| {
            let mut s = ShardedSimulator::new(
                topo.graph().clone(),
                Box::new(GreediestRouting::new(&topo)),
                SystemConfig::default(),
                SimulationConfig {
                    max_cycles: 1_200,
                    warmup_cycles: 150,
                    long_wire_penalty_cycles: 2,
                    shards,
                    ..SimulationConfig::default()
                },
            )
            .unwrap()
            .with_placement(GridPlacement::row_major(64));
            s.run(&mut UniformRandomTraffic::new(64, 0.05, 9)).unwrap()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn shard_count_resolution_is_reported() {
        let s = sim(24, 5, 500);
        assert_eq!(s.shard_count(), 5);
        assert_eq!(s.current_cycle(), 0);
        let dbg = format!("{s:?}");
        assert!(dbg.contains("ShardedSimulator"));
    }

    fn faulty_sim(nodes: usize, shards: usize, plan: FaultPlan) -> ShardedSimulator {
        let topo =
            StringFigureTopology::generate(&NetworkConfig::new(nodes, 4).unwrap().with_seed(2))
                .unwrap();
        ShardedSimulator::new(
            topo.graph().clone(),
            Box::new(GreediestRouting::new(&topo)),
            SystemConfig::default(),
            SimulationConfig {
                max_cycles: 1_500,
                warmup_cycles: 150,
                shards,
                fault: Some(plan),
                ..SimulationConfig::default()
            },
        )
        .unwrap()
    }

    fn storm_plan() -> FaultPlan {
        FaultPlan::new(5)
            .starting_at(200)
            .with_period(150)
            .with_severity(2, 1)
            .with_repair_cycles(60)
    }

    #[test]
    fn fault_waves_strike_drop_and_repair() {
        let run = || {
            faulty_sim(48, 1, storm_plan())
                .with_request_reply(true)
                .run(&mut UniformRandomTraffic::new(48, 0.05, 9))
                .unwrap()
        };
        let stats = run();
        assert!(stats.link_down_events > 0, "{stats:?}");
        assert!(stats.router_down_events > 0, "{stats:?}");
        assert!(stats.dropped_packets > 0, "{stats:?}");
        assert!(stats.delivered > 0, "the network must keep working");
        assert_eq!(
            stats.fault_events(),
            stats.link_down_events + stats.router_down_events
        );
        // The schedule is a pure function of the plan: a rerun is identical.
        assert_eq!(run(), stats);
    }

    #[test]
    fn fault_runs_are_bit_identical_for_any_shard_count() {
        let run = |shards: usize| {
            let mut sim = faulty_sim(48, shards, storm_plan()).with_request_reply(true);
            let stats = sim
                .run(&mut UniformRandomTraffic::new(48, 0.06, 13))
                .unwrap();
            (stats, sim.memory_stats())
        };
        let reference = run(1);
        assert!(reference.0.fault_events() > 0);
        for shards in [2usize, 4, 7] {
            assert_eq!(run(shards), reference, "shards={shards}");
        }
    }

    #[test]
    fn severity_zero_plan_matches_the_healthy_network() {
        let healthy = sim(32, 1, 1_200)
            .run(&mut UniformRandomTraffic::new(32, 0.06, 3))
            .unwrap();
        let idle_plan = FaultPlan::new(5).with_severity(0, 0);
        let topo = StringFigureTopology::generate(&NetworkConfig::new(32, 4).unwrap()).unwrap();
        let planned = ShardedSimulator::new(
            topo.graph().clone(),
            Box::new(GreediestRouting::new(&topo)),
            SystemConfig::default(),
            SimulationConfig {
                max_cycles: 1_200,
                warmup_cycles: 120,
                fault: Some(idle_plan),
                ..SimulationConfig::default()
            },
        )
        .unwrap()
        .run(&mut UniformRandomTraffic::new(32, 0.06, 3))
        .unwrap();
        assert_eq!(planned, healthy);
    }

    #[test]
    fn errors_are_deterministic_across_shard_counts() {
        struct TargetInvalid;
        impl TrafficModel for TargetInvalid {
            fn maybe_inject(&mut self, _cycle: u64, source: NodeId) -> Option<TrafficRequest> {
                (source.index() == 3).then(|| TrafficRequest::read(NodeId::new(999)))
            }
        }
        let e1 = sim(16, 1, 400).run(&mut TargetInvalid).unwrap_err();
        let e4 = sim(16, 4, 400).run(&mut TargetInvalid).unwrap_err();
        assert_eq!(e1.to_string(), e4.to_string());

        /// Greediest routing, except at router 13: it panics there, or
        /// forwards to router 13 itself, which is no neighbour of it.
        struct Misrouting {
            inner: GreediestRouting,
            panics: bool,
        }
        impl RoutingProtocol for Misrouting {
            fn name(&self) -> &'static str {
                "misrouting"
            }
            fn next_hop(
                &self,
                at: NodeId,
                dest: NodeId,
                loads: &dyn PortLoadEstimator,
                ctx: &RoutingContext,
            ) -> SfResult<NodeId> {
                if at.index() != 13 {
                    return self.inner.next_hop(at, dest, loads, ctx);
                }
                assert!(!self.panics, "router 13 cannot route");
                Ok(at)
            }
        }
        for (panics, expected) in [
            (true, "routing of router 13 panicked"),
            (
                false,
                "protocol misrouting chose non-neighbour n13 from node 13",
            ),
        ] {
            for shards in [1usize, 2, 3, 5] {
                let error = sim_routed(48, shards, 400, |inner| {
                    Box::new(Misrouting { inner, panics })
                })
                .run(&mut UniformRandomTraffic::new(48, 0.08, 11))
                .unwrap_err();
                let expected = format!("simulation error: {expected}");
                assert_eq!(error.to_string(), expected, "shards={shards}");
            }
        }
    }

    #[test]
    fn serial_phase_panics_unwind_for_every_shard_count() {
        // A panic on the coordinating thread must release the parked
        // workers, or the run would never return.
        struct Exploding;
        impl TrafficModel for Exploding {
            fn maybe_inject(&mut self, cycle: u64, _source: NodeId) -> Option<TrafficRequest> {
                assert!(cycle < 50, "traffic model exploded");
                None
            }
        }
        for shards in [1usize, 3] {
            let mut s = sim(48, shards, 400);
            let outcome = catch_unwind(AssertUnwindSafe(|| s.run(&mut Exploding)));
            assert!(outcome.is_err(), "shards={shards}");
        }
    }
}
