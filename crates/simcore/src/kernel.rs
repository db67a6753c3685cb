//! The sharded deterministic cycle-level simulation kernel.
//!
//! [`ShardedSimulator`] advances an input-queued, credit-based router network
//! cycle by cycle, exactly like the reference serial simulator it replaces —
//! but the expensive routing phase of each cycle is split across K shards of
//! routers that run on their own worker threads.
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
//! integration test on the single-shard path). Pool occupancy is exported
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
    /// and assigns the reply its packet id in serial order. The fields are
    /// the request's routing residue — everything the reply needs.
    Serviced {
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
    },
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

/// One shard's routers, locked as a unit: by its worker during the routing
/// phase, by the coordinator during the serial phases. The two never overlap
/// (a barrier separates them), so the locks are always uncontended — they
/// exist to prove disjoint access to the borrow checker, not to arbitrate.
#[derive(Debug)]
struct ShardState {
    routers: Vec<RouterState>,
    pools: ShardPools,
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
    adjacency: Vec<Vec<NodeId>>,
    /// For each node, maps a neighbouring node index to its position in the
    /// adjacency list (= input-queue group index).
    neighbor_index: Vec<HashMap<usize, usize>>,
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

    fn lock_all(&self) -> Vec<MutexGuard<'_, ShardState>> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard state poisoned"))
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
        let Some(&idx) = self.shared.neighbor_index[to.index()].get(&from.index()) else {
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
        let neighbor_index: Vec<HashMap<usize, usize>> = adjacency
            .iter()
            .map(|nbs| {
                nbs.iter()
                    .enumerate()
                    .map(|(idx, n)| (n.index(), idx))
                    .collect()
            })
            .collect();
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
                    let slot = (x, neighbor_index[x][&m]);
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
                neighbor_index,
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
        let guards = self.shared.lock_all();
        let queued: u64 = guards
            .iter()
            .map(|shard| u64::from(shard.pools.packets.live()))
            .sum();
        queued + in_flight_total(&self.shared) + self.serial.pending_replies.len() as u64
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
    /// # Errors
    ///
    /// Returns a routing error if the protocol cannot make a forwarding
    /// decision (for example because the traffic model targets a gated node).
    /// The error is the same one the serial reference would surface (the
    /// lowest-id failing router wins), but a failed run's partial statistics
    /// are unspecified.
    pub fn run(&mut self, traffic: &mut dyn TrafficModel) -> SfResult<SimulationStats> {
        self.serial.stats.active_nodes = self.shared.active.iter().filter(|&&a| a).count();
        if self.shared.plan.count() <= 1 {
            run_serial(&self.shared, &mut self.serial, traffic)
        } else {
            self.run_on_workers(traffic)
        }
    }

    /// Advances a **single-shard** simulator by exactly one cycle. This is
    /// the building block the allocation-free contract is pinned against:
    /// after warm-up, a call performs zero heap allocations.
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
        let mut guards = [self.shared.shards[0].lock().expect("shard state poisoned")];
        step_serial(&self.shared, &mut self.serial, traffic, &mut guards)
    }

    /// Spawns the K−1 worker threads and runs the coordinator loop between
    /// them. Workers only ever execute the routing phase of their own shard;
    /// the barrier separates them from the coordinator's serial phases.
    fn run_on_workers(&mut self, traffic: &mut dyn TrafficModel) -> SfResult<SimulationStats> {
        let shared = &self.shared;
        let serial = &mut self.serial;
        let count = shared.plan.count();
        let barrier = Barrier::new(count);
        let stop = AtomicBool::new(false);
        let epoch_cell = AtomicU64::new(0);
        let worker_errors: Vec<Mutex<Option<(usize, SfError)>>> =
            (0..count).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for s in 1..count {
                let barrier = &barrier;
                let stop = &stop;
                let epoch_cell = &epoch_cell;
                let worker_errors = &worker_errors;
                scope.spawn(move || loop {
                    barrier.wait();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let epoch = epoch_cell.load(Ordering::Acquire);
                    if let Err(failure) = shard_routing_phase(shared, s, epoch - 1, epoch) {
                        *worker_errors[s].lock().expect("error slot poisoned") = Some(failure);
                    }
                    barrier.wait();
                });
            }

            let sync = StepSync {
                barrier: &barrier,
                epoch_cell: &epoch_cell,
                worker_errors: &worker_errors,
            };
            let result = run_loop(shared, serial, traffic, &sync);
            // Release the workers: they re-check `stop` right after the
            // barrier they are all parked on.
            stop.store(true, Ordering::Release);
            barrier.wait();
            result
        })
    }
}

/// Barrier plumbing the coordinator uses to drive the worker threads through
/// one routing phase.
struct StepSync<'a> {
    barrier: &'a Barrier,
    epoch_cell: &'a AtomicU64,
    worker_errors: &'a [Mutex<Option<(usize, SfError)>>],
}

/// The single-shard run loop: the shard guard is taken **once** and held
/// across the entire run, so steady-state cycles touch no locks beyond the
/// (uncontended) inbox mutex and allocate nothing. Control flow — injection
/// loop, congestion snapshot, drain loop — is identical to the reference
/// serial simulator.
fn run_serial(
    shared: &Shared,
    serial: &mut SerialState,
    traffic: &mut dyn TrafficModel,
) -> SfResult<SimulationStats> {
    let mut guards = shared.lock_all();
    while serial.cycle < shared.config.max_cycles {
        step_serial(shared, serial, traffic, &mut guards)?;
    }
    snapshot_congestion(shared, serial, &guards);
    let drain_deadline = shared.config.max_cycles * 2;
    while serial.cycle < drain_deadline && outstanding_on(shared, serial, &guards) > 0 {
        step_serial(shared, serial, &mut NoTraffic, &mut guards)?;
    }
    finish_run(shared, serial, &mut guards)
}

/// The multi-shard run loop: same control flow as [`run_serial`], but every
/// cycle re-acquires the shard guards around its serial phases so the worker
/// threads can take their own shard during the routing phase.
fn run_loop(
    shared: &Shared,
    serial: &mut SerialState,
    traffic: &mut dyn TrafficModel,
    sync: &StepSync<'_>,
) -> SfResult<SimulationStats> {
    while serial.cycle < shared.config.max_cycles {
        step(shared, serial, traffic, sync)?;
    }
    // Snapshot congestion state at the end of the injection phase: this is
    // what the saturation heuristic looks at (draining would hide it).
    {
        let guards = shared.lock_all();
        snapshot_congestion(shared, serial, &guards);
    }
    // Drain phase: stop injecting and let queued packets finish, bounded by
    // another max_cycles to avoid infinite loops on saturated runs.
    let drain_deadline = shared.config.max_cycles * 2;
    loop {
        if serial.cycle >= drain_deadline {
            break;
        }
        let outstanding = {
            let guards = shared.lock_all();
            outstanding_on(shared, serial, &guards)
        };
        if outstanding == 0 {
            break;
        }
        step(shared, serial, &mut NoTraffic, sync)?;
    }
    let mut guards = shared.lock_all();
    finish_run(shared, serial, &mut guards)
}

/// Records the end-of-injection congestion state the saturation heuristic
/// looks at (draining would hide it).
fn snapshot_congestion(
    shared: &Shared,
    serial: &mut SerialState,
    guards: &[MutexGuard<'_, ShardState>],
) {
    let (queued, backlog) = queue_census_on(guards);
    serial.stats.in_flight_at_end =
        queued + backlog + in_flight_total(shared) + serial.pending_replies.len() as u64;
    serial.stats.backlog_at_end = backlog;
}

/// End-of-run bookkeeping shared by both loops: fold the per-router
/// counters, export the pool metrics, flush telemetry and phase timers.
fn finish_run(
    shared: &Shared,
    serial: &mut SerialState,
    guards: &mut [MutexGuard<'_, ShardState>],
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
fn merge_local_stats(
    shared: &Shared,
    serial: &mut SerialState,
    guards: &mut [MutexGuard<'_, ShardState>],
) {
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
fn record_pool_metrics(
    shared: &Shared,
    serial: &SerialState,
    guards: &[MutexGuard<'_, ShardState>],
) {
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

/// Network-queue occupancy as (in-network queued, injection backlog).
/// O(shards): both numbers come from counters the pools maintain on
/// push/pop, never from walking queues.
fn queue_census_on(guards: &[MutexGuard<'_, ShardState>]) -> (u64, u64) {
    let mut queued = 0u64;
    let mut backlog = 0u64;
    for shard in guards {
        let live = u64::from(shard.pools.packets.live());
        let b = u64::from(shard.pools.backlog);
        queued += live - b;
        backlog += b;
    }
    (queued, backlog)
}

/// Packets currently traversing links, summed over the arrival inboxes.
fn in_flight_total(shared: &Shared) -> u64 {
    shared
        .inboxes
        .iter()
        .map(|inbox| u64::from(inbox.lock().expect("inbox poisoned").len()))
        .sum()
}

fn outstanding_on(
    shared: &Shared,
    serial: &SerialState,
    guards: &[MutexGuard<'_, ShardState>],
) -> u64 {
    let (queued, backlog) = queue_census_on(guards);
    queued + backlog + in_flight_total(shared) + serial.pending_replies.len() as u64
}

/// Folds this boundary's pool occupancy into the run's peaks. Sampled after
/// the serial pre-route phases with the routing workers parked, so every
/// total is the serial-equivalent network-wide state — invariant under K.
fn track_pool_peaks(
    shared: &Shared,
    serial: &mut SerialState,
    guards: &[MutexGuard<'_, ShardState>],
) {
    let live: u64 = guards
        .iter()
        .map(|shard| u64::from(shard.pools.packets.live()))
        .sum();
    serial.peaks.packets = serial.peaks.packets.max(live);
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
fn maybe_sample_telemetry(
    shared: &Shared,
    serial: &mut SerialState,
    guards: &[MutexGuard<'_, ShardState>],
) {
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

/// Advances a multi-shard simulation by one cycle, parking and releasing the
/// worker threads around the routing phase.
fn step(
    shared: &Shared,
    serial: &mut SerialState,
    traffic: &mut dyn TrafficModel,
    sync: &StepSync<'_>,
) -> SfResult<()> {
    let cycle = serial.cycle;
    let epoch = cycle + 1;
    {
        let mut guards = shared.lock_all();
        pre_route_phases(shared, serial, &mut guards, traffic)?;
        // Telemetry sampling shares this boundary with fault injection:
        // every router quiescent, all state serial-equivalent, so the
        // sample is bit-identical for any worker x shard count.
        maybe_sample_telemetry(shared, serial, &guards);
        track_pool_peaks(shared, serial, &guards);
    }

    // Routing phase: every shard processes its routers, wavefront-ordered.
    let route_timer = sf_obs::span::timing_start();
    sync.epoch_cell.store(epoch, Ordering::Release);
    sync.barrier.wait();
    let own = shard_routing_phase(shared, 0, cycle, epoch).err();
    sync.barrier.wait();
    // Deterministic error selection: the lowest failing router id wins,
    // exactly like the serial loop's first-error-encountered.
    let mut failure = own;
    for slot in sync.worker_errors {
        if let Some(candidate) = slot.lock().expect("error slot poisoned").take() {
            let better = failure
                .as_ref()
                .is_none_or(|current| candidate.0 < current.0);
            if better {
                failure = Some(candidate);
            }
        }
    }
    if let Some(started) = route_timer {
        serial.timers.route += started.elapsed();
    }
    if let Some((_, error)) = failure {
        return Err(error);
    }

    // Serial commit: replay every router's commit log in id order.
    {
        let commit_timer = sf_obs::span::timing_start();
        let mut guards = shared.lock_all();
        let entries = commit_phase(shared, serial, &mut guards);
        serial.peaks.commit_entries = serial.peaks.commit_entries.max(entries);
        if let Some(started) = commit_timer {
            serial.timers.commit += started.elapsed();
        }
    }
    serial.cycle += 1;
    Ok(())
}

/// Advances a single-shard simulation by one cycle with the shard guard
/// already held — no locking, no thread hand-off, and (after warm-up) no
/// heap allocation.
fn step_serial(
    shared: &Shared,
    serial: &mut SerialState,
    traffic: &mut dyn TrafficModel,
    guards: &mut [MutexGuard<'_, ShardState>],
) -> SfResult<()> {
    let cycle = serial.cycle;
    let epoch = cycle + 1;
    pre_route_phases(shared, serial, guards, traffic)?;
    maybe_sample_telemetry(shared, serial, guards);
    track_pool_peaks(shared, serial, guards);

    let route_timer = sf_obs::span::timing_start();
    let failure = shard_routing_locked(shared, &mut guards[0], 0, cycle, epoch);
    if let Some(started) = route_timer {
        serial.timers.route += started.elapsed();
    }
    if let Some((_, error)) = failure {
        return Err(error);
    }

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
    guards: &mut [MutexGuard<'_, ShardState>],
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
fn apply_fault_boundary(
    shared: &Shared,
    serial: &mut SerialState,
    guards: &mut [MutexGuard<'_, ShardState>],
) {
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
    guards: &mut [MutexGuard<'_, ShardState>],
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
        // Local access: no network traversal, service memory directly.
        apply_eject(shared, serial, router, packet, cycle, measuring);
        return Ok(());
    }
    router.injection.push_back(&mut pools.packets, packet);
    pools.backlog += 1;
    Ok(())
}

/// The routing phase of one shard for one cycle.
///
/// Routers are processed in increasing id order; before each router, its
/// cross-shard smaller-id neighbours must have published this epoch. Every
/// router's epoch is published even on failure (or a panic), so sibling
/// shards can never spin forever.
fn shard_routing_phase(
    shared: &Shared,
    s: usize,
    cycle: u64,
    epoch: u64,
) -> Result<(), (usize, SfError)> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut state = shared.shards[s].lock().expect("shard state poisoned");
        shard_routing_locked(shared, &mut state, s, cycle, epoch)
    }));
    match outcome {
        Ok(None) => Ok(()),
        Ok(Some(failure)) => Err(failure),
        Err(_panic) => {
            // The mutex guard unwound mid-phase; publish all epochs so other
            // shards cannot deadlock, then surface a deterministic-enough
            // error (the run aborts without a commit either way).
            for &node in shared.plan.members(s) {
                shared.done[node].store(epoch, Ordering::Release);
            }
            Err((
                usize::MAX,
                SfError::Simulation {
                    reason: format!("routing phase of shard {s} panicked"),
                },
            ))
        }
    }
}

/// The body of one shard's routing phase, with the shard guard already held:
/// drain the shard's due arrivals, then route every router in id order under
/// the wavefront. Returns the lowest-id routing failure, if any; every
/// router's epoch is published regardless so sibling shards never spin
/// forever.
fn shard_routing_locked(
    shared: &Shared,
    state: &mut ShardState,
    s: usize,
    cycle: u64,
    epoch: u64,
) -> Option<(usize, SfError)> {
    drain_arrivals(shared, state, s, cycle);
    let ShardState { routers, pools } = state;
    let mut failed: Option<(usize, SfError)> = None;
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
            if let Err(error) = route_node(shared, pools, router, cycle) {
                failed = Some((node, error));
            }
        }
        shared.done[node].store(epoch, Ordering::Release);
    }
    failed
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
        if try_forward(
            shared,
            &mut pools.commits,
            &mut router.commit,
            node,
            &packet,
            &mut router.used_outputs,
            cycle,
        )? {
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
        } else if try_forward(
            shared,
            &mut pools.commits,
            &mut router.commit,
            node,
            &packet,
            &mut router.used_outputs,
            cycle,
        )? {
            router.injection.pop_front(&mut pools.packets);
            pools.backlog -= 1;
        } else if cycle >= shared.config.warmup_cycles {
            router.local.blocked_forwards += 1;
        }
    }
    Ok(())
}

/// Delivery at the destination during the parallel routing phase: folds the
/// commutative integer statistics into the router's local counters and runs
/// the (router-local) DRAM access for request packets. The float DRAM energy
/// and the reply's packet-id assignment still need the serial order, so they
/// travel to the commit as a [`CommitEntry::Serviced`].
fn eject_in_phase(
    shared: &Shared,
    commits: &mut Pool<CommitEntry>,
    router: &mut RouterState,
    packet: Packet,
    cycle: u64,
) {
    let measuring = cycle >= shared.config.warmup_cycles;
    fold_delivery(&mut router.local, &packet, cycle, measuring);
    if matches!(
        packet.kind,
        PacketKind::ReadRequest | PacketKind::WriteRequest
    ) {
        let address = packet.id.wrapping_mul(64) % (1 << 33);
        let service = router
            .memory
            .access(address, packet.kind == PacketKind::WriteRequest);
        router.commit.push_back(
            commits,
            CommitEntry::Serviced {
                service,
                source: packet.source,
                destination: packet.destination,
                kind: packet.kind,
                request_issued_at: packet.request_issued_at,
            },
        );
    }
}

/// Folds one delivered packet's integer statistics into `local`.
fn fold_delivery(local: &mut LocalStats, packet: &Packet, cycle: u64, measuring: bool) {
    if !measuring {
        return;
    }
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

/// Attempts to forward `packet` out of `node`; returns `true` if the packet
/// entered a link this cycle: credits taken, the packet handed to the
/// destination shard's arrival inbox, and (when measuring) a
/// [`CommitEntry::LinkEnergy`] logged for the serial float replay.
fn try_forward(
    shared: &Shared,
    commits: &mut Pool<CommitEntry>,
    commit: &mut List,
    node: usize,
    packet: &Packet,
    used_outputs: &mut [bool],
    cycle: u64,
) -> SfResult<bool> {
    let ctx = RoutingContext {
        first_hop: packet.hops == 0,
        adaptive_threshold: shared.config.adaptive_threshold,
    };
    let loads = AtomicLoadView { shared };
    let next = shared
        .protocol
        .next_hop(NodeId::new(node), packet.destination, &loads, &ctx)?;
    let Some(&out_idx) = shared.neighbor_index[node].get(&next.index()) else {
        return Err(SfError::Simulation {
            reason: format!(
                "protocol {} chose non-neighbour {next} from node {node}",
                shared.protocol.name()
            ),
        });
    };
    if used_outputs[out_idx] {
        return Ok(false);
    }
    let vc = shared
        .protocol
        .virtual_channel(NodeId::new(node), next, packet.destination)
        .index() as usize;
    let vc = vc.min(shared.config.virtual_channels - 1);
    // Credit check on the downstream input queue.
    let down_idx = shared.neighbor_index[next.index()][&node];
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
    used_outputs[out_idx] = true;
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
        commit.push_back(
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
fn commit_phase(
    shared: &Shared,
    serial: &mut SerialState,
    guards: &mut [MutexGuard<'_, ShardState>],
) -> u64 {
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
                CommitEntry::Serviced {
                    service,
                    source,
                    destination,
                    kind,
                    request_issued_at,
                } => {
                    let residue = ServiceResidue {
                        service,
                        source,
                        destination,
                        kind,
                        request_issued_at,
                    };
                    commit_serviced(shared, serial, residue, cycle, measuring);
                }
            }
        }
    }
    entries
}

/// The routing residue of one serviced request — everything
/// [`commit_serviced`] needs to build the reply.
#[derive(Debug, Clone, Copy)]
struct ServiceResidue {
    service: u64,
    source: NodeId,
    destination: NodeId,
    kind: PacketKind,
    request_issued_at: u64,
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

/// Delivery of a packet that never enters the network (source == destination,
/// handled inline by the coordinator during the injection phase): integer
/// statistics fold into the router's local counters like any other delivery,
/// while the DRAM energy and reply id are applied immediately — the same
/// point in the serial order the reference simulator used.
fn apply_eject(
    shared: &Shared,
    serial: &mut SerialState,
    router: &mut RouterState,
    packet: Packet,
    cycle: u64,
    measuring: bool,
) {
    fold_delivery(&mut router.local, &packet, cycle, measuring);
    if matches!(
        packet.kind,
        PacketKind::ReadRequest | PacketKind::WriteRequest
    ) {
        let address = packet.id.wrapping_mul(64) % (1 << 33);
        let service = router
            .memory
            .access(address, packet.kind == PacketKind::WriteRequest);
        let residue = ServiceResidue {
            service,
            source: packet.source,
            destination: packet.destination,
            kind: packet.kind,
            request_issued_at: packet.request_issued_at,
        };
        commit_serviced(shared, serial, residue, cycle, measuring);
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
        let topo = StringFigureTopology::generate(&NetworkConfig::new(nodes, 4).unwrap()).unwrap();
        ShardedSimulator::new(
            topo.graph().clone(),
            Box::new(GreediestRouting::new(&topo)),
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
    }
}
