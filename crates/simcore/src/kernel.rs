//! The deterministic cycle-level simulation kernel.
//!
//! [`ShardedSimulator`] advances an input-queued, credit-based router network
//! cycle by cycle on one thread. (The name is older than the kernel's
//! single-threaded form and is kept for its callers.)
//!
//! # One step per cycle
//!
//! Every cycle goes through one `step`, whether it comes from
//! [`ShardedSimulator::run`] or [`ShardedSimulator::step_one`]:
//!
//! 1. the fault boundary: due repairs, then this cycle's fault wave;
//! 2. traffic injection in node-id order — the traffic model owns one RNG
//!    whose consumption order is part of the observable behaviour;
//! 3. reply release: replies whose DRAM service completed join their node's
//!    injection queue;
//! 4. the telemetry and pool-peak samples;
//! 5. the arrival drain: packets whose link traversal ends this cycle enter
//!    their input queues;
//! 6. routing, routers 0..N in id order: each router ejects at most one
//!    packet and forwards at most one packet per output link.
//!
//! Routing in id order fixes what each router sees: router `m` reads the
//! credit counters of its links after the same-cycle queue pops of every
//! neighbour `x < m` and before those of every `x > m`. Network and DRAM
//! energy accumulate, and replies take their packet ids, at the forward or
//! DRAM access that causes them, so the float addition order and the id
//! order follow router id and queue scan order. Link traversal takes at
//! least one cycle (router latency plus SerDes), so a packet moves at most
//! one hop per cycle.
//!
//! # Allocation-free steady state
//!
//! All per-cycle storage — router input queues, injection queues and the
//! packets in flight on links — lives in index-linked free-list slabs (see
//! [`crate::pool`]): pushing recycles a freed slot instead of touching the
//! heap, so once the simulation reaches its occupancy high-water mark, a
//! cycle performs **zero heap allocations** (pinned by a counting-allocator
//! integration test through [`ShardedSimulator::step_one`], which runs the
//! same `step` as [`ShardedSimulator::run`]). Pool occupancy is exported
//! through the deterministic `sim.pool.*` metrics namespace: peak live
//! packets and peak in-flight entries (sampled at cycle boundaries) and
//! total push counts.
//!
//! # Fault injection
//!
//! An optional [`sf_types::FaultPlan`] in the simulation configuration turns
//! on deterministic fault injection: link-down and router power-gate waves
//! whose victims are a pure function of `(seed, cycle)`. Fault events are
//! applied at the boundary that opens a cycle, so the liveness flags stay
//! constant while routers route. Semantics: packets queued at a router when
//! it is gated (and packets in flight towards it, and replies released at
//! it) are dropped and counted in [`SimulationStats::dropped_packets`];
//! packets in flight on a failing link are dropped; forwards towards a dead
//! link or router are blocked (adaptive protocols see the resource as fully
//! loaded and route around it); every fault heals after the plan's repair
//! latency. With no plan configured none of this machinery runs — the
//! healthy path is behaviour-identical to the pre-fault kernel.

use crate::memory::MemoryNodeModel;
use crate::packet::{Packet, PacketKind, TrafficModel, TrafficRequest};
use crate::pool::{InFlightMeta, InFlightPool, List, Pool};
use crate::stats::SimulationStats;
use sf_routing::{PortLoadEstimator, RoutingContext, RoutingProtocol};
use sf_topology::{AdjacencyGraph, GridPlacement};
use sf_types::{
    FaultPlan, NodeId, SfError, SfResult, SimulationConfig, SystemConfig, VirtualChannelId,
};
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// The mutable state of one router. Its queues chain through the
/// simulator's packet pool ([`Queues::packets`]).
#[derive(Debug)]
struct RouterState {
    /// Input queues, flattened as `queues[neighbor_idx * vcs + vc]`.
    queues: Vec<List>,
    /// Unbounded injection queue (the processor-side request queue).
    injection: List,
    /// Cached in-network input-queue occupancy (sum of `queues` lengths),
    /// maintained on push/pop so telemetry sampling is O(1) per router.
    queued_net: u32,
    memory: MemoryNodeModel,
    /// Reusable per-cycle output-port scoreboard (cleared, never freed).
    used_outputs: Vec<bool>,
    /// Forwards this router could not make while measuring; the telemetry
    /// series samples it per router.
    blocked_forwards: u64,
}

/// Packet storage: every queued packet and every packet on a link.
#[derive(Debug, Default)]
struct Queues {
    /// Every queued packet (input queues + injection queues).
    packets: Pool<Packet>,
    /// Packets traversing links, in forward order.
    in_flight: InFlightPool,
    /// Cached count of packets sitting in injection queues; the rest of
    /// `packets.live()` is in-network.
    backlog: u32,
}

/// The hardware credit counters: per directed link and virtual channel, the
/// packets queued at the receiver's input plus those in flight towards it.
/// The counter for link `m → x` lives at node `x`, in the block of `m`'s
/// position in `x`'s neighbour list: `used[offset[x] + link * vcs + vc]`.
#[derive(Debug)]
struct Credits {
    used: Vec<usize>,
    offset: Vec<usize>,
    vcs: usize,
}

impl Credits {
    fn slot(&self, node: usize, link: usize, vc: usize) -> usize {
        self.offset[node] + link * self.vcs + vc
    }

    fn used(&self, node: usize, link: usize, vc: usize) -> usize {
        self.used[self.slot(node, link, vc)]
    }

    /// Slots used on one link, summed over its virtual channels.
    fn link_total(&self, node: usize, link: usize) -> usize {
        let start = self.slot(node, link, 0);
        self.used[start..start + self.vcs].iter().sum()
    }

    fn take(&mut self, node: usize, link: usize, vc: usize) {
        let slot = self.slot(node, link, vc);
        self.used[slot] += 1;
    }

    fn give_back(&mut self, node: usize, link: usize, vc: usize) {
        let slot = self.slot(node, link, vc);
        self.used[slot] -= 1;
    }
}

/// One undirected link as fault injection sees it: the directed input-queue
/// slots of both directions (one slot for a uni-directional link), each as
/// `(receiving node, index of the sender in its adjacency list)`.
#[derive(Debug)]
struct FaultEdge {
    slots: Vec<(usize, usize)>,
}

/// Fault-injection state. The liveness flags change only at the fault
/// boundary that opens a cycle.
#[derive(Debug)]
struct FaultRuntime {
    plan: FaultPlan,
    /// Undirected links in deterministic (construction) order — the victim
    /// pool of link-down waves.
    edges: Vec<FaultEdge>,
    /// Flattened per-directed-link down flags:
    /// `link_down[link_offset[to] + from_index]`.
    link_offset: Vec<usize>,
    link_down: Vec<bool>,
    /// Per-router power-gate flags.
    router_down: Vec<bool>,
    /// Outstanding repairs, in strike order (deterministic).
    repairs: Vec<FaultRepair>,
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

/// The network as routing sees it: configuration, topology, credit counters
/// and fault flags.
struct Network {
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
    credits: Credits,
    /// Fault-injection state; `None` (no plan configured) is the healthy
    /// network and skips every fault check.
    fault: Option<FaultRuntime>,
}

/// Router pipeline latency per hop, in cycles (arbitration and crossbar).
const ROUTER_LATENCY_CYCLES: u64 = 1;

/// Grid (Chebyshev) distance, in memory-node pitches, above which a wire is
/// long: ten pitches, the wire length an HMC link supports.
const LONG_WIRE_GRID_DISTANCE: u32 = 10;

impl Network {
    /// Whether router `node` is currently power-gated by fault injection.
    fn router_faulted(&self, node: usize) -> bool {
        self.fault.as_ref().is_some_and(|f| f.router_down[node])
    }

    /// Whether the directed link into `to` from adjacency slot `from_index`
    /// is currently down.
    fn link_faulted(&self, to: usize, from_index: usize) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|f| f.link_down[f.link_offset[to] + from_index])
    }

    /// Cycles a packet spends on the link from `from` to `to`: one hop of
    /// router pipeline plus SerDes, and a second hop when a placement is set
    /// and the wire is long (the paper charges a long wire one extra hop).
    fn link_latency(&self, from: usize, to: usize) -> u64 {
        let hop = ROUTER_LATENCY_CYCLES + self.system.serdes_cycles_per_hop();
        let long = self.placement.as_ref().is_some_and(|placement| {
            placement.is_long_wire(NodeId::new(from), NodeId::new(to), LONG_WIRE_GRID_DISTANCE)
        });
        if long {
            2 * hop
        } else {
            hop
        }
    }
}

/// What delivery writes besides queues and credits: the statistics, the
/// packet-id counter and the replies waiting for DRAM service.
#[derive(Debug, Default)]
struct Ledger {
    next_packet_id: u64,
    stats: SimulationStats,
    pending_replies: BinaryHeap<PendingReply>,
}

/// Boundary-sampled pool occupancy peaks, exported as `sim.pool.*` gauges at
/// the end of the run.
#[derive(Debug, Default)]
struct PoolPeaks {
    /// Peak live packets in the packet pool (queued + backlog).
    packets: u64,
    /// Peak packets in flight on links.
    in_flight: u64,
}

/// View over the credit counters handed to adaptive routing protocols.
struct LoadView<'a> {
    net: &'a Network,
}

impl PortLoadEstimator for LoadView<'_> {
    fn load(&self, from: NodeId, to: NodeId) -> f64 {
        // The sender observes the occupancy of the downstream input queue for
        // its link (what the credit counter tracks in hardware).
        let Ok(idx) = self.net.adjacency[to.index()].binary_search(&from) else {
            return 0.0;
        };
        // A dead link or router reads as fully loaded, so adaptive protocols
        // route around the fault instead of waiting for its repair.
        if self.net.router_faulted(to.index()) || self.net.link_faulted(to.index(), idx) {
            return 1.0;
        }
        let used = self.net.credits.link_total(to.index(), idx);
        used as f64 / (self.net.config.vc_queue_capacity * self.net.credits.vcs) as f64
    }
}

/// The cycle-level network simulator.
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
///         ..SimulationConfig::default()
///     },
/// )?;
/// let stats = sim.run(&mut UniformRandomTraffic::new(32, 0.05, 7))?;
/// assert!(stats.delivered > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ShardedSimulator {
    net: Network,
    /// Every router's state, indexed by node id.
    routers: Vec<RouterState>,
    queues: Queues,
    ledger: Ledger,
    cycle: u64,
    peaks: PoolPeaks,
    /// Wall time of the arrival drain and routing, flushed to the tracer at
    /// the end of a run; two `Instant::now` calls per cycle when timing is
    /// enabled, one relaxed load when it is not.
    route_time: Duration,
    /// The run's telemetry series, sampled at cycle boundaries (see
    /// [`Self::sample_telemetry`]); `None` unless the simulator was built
    /// inside a [`sf_obs::telemetry::capture`].
    telemetry: Option<Box<sf_obs::telemetry::RunSeries>>,
}

impl std::fmt::Debug for ShardedSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimulator")
            .field("num_nodes", &self.net.num_nodes)
            .field("cycle", &self.cycle)
            .field("protocol", &self.net.protocol.name())
            .field("request_reply", &self.net.request_reply)
            .finish_non_exhaustive()
    }
}

impl ShardedSimulator {
    /// Creates a simulator over the given link graph and routing protocol.
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

        let mut offset = Vec::with_capacity(num_nodes);
        let mut total_counters = 0usize;
        for nbs in &adjacency {
            offset.push(total_counters);
            total_counters += nbs.len() * vcs;
        }
        let credits = Credits {
            used: vec![0; total_counters],
            offset,
            vcs,
        };

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
                link_down: vec![false; total_links],
                router_down: vec![false; num_nodes],
                repairs: Vec::new(),
            }
        });

        // Telemetry recording costs nothing unless the simulator is built
        // inside a telemetry capture (a sweep job of a run with
        // --telemetry), whose stride it samples at. The series covers every
        // router in id order and every directed link in construction order.
        let telemetry = sf_obs::telemetry::capture_stride().map(|every| {
            let links = adjacency.iter().map(Vec::len).sum();
            Box::new(sf_obs::telemetry::RunSeries::new(num_nodes, links, every))
        });

        let routers = adjacency
            .iter()
            .enumerate()
            .map(|(node, nbs)| RouterState {
                queues: vec![List::new(); nbs.len() * vcs],
                injection: List::new(),
                queued_net: 0,
                memory: MemoryNodeModel::new(NodeId::new(node), &system),
                used_outputs: vec![false; nbs.len()],
                blocked_forwards: 0,
            })
            .collect();

        Ok(Self {
            net: Network {
                system,
                config,
                protocol,
                placement: None,
                request_reply: false,
                num_nodes,
                active,
                adjacency,
                credits,
                fault,
            },
            routers,
            queues: Queues::default(),
            ledger: Ledger::default(),
            cycle: 0,
            peaks: PoolPeaks::default(),
            route_time: Duration::ZERO,
            telemetry,
        })
    }

    /// Enables request–reply memory traffic: packets arriving at their
    /// destination are serviced by the DRAM model and answered.
    #[must_use]
    pub fn with_request_reply(mut self, enabled: bool) -> Self {
        self.net.request_reply = enabled;
        self
    }

    /// Attaches a 2D-grid placement so that long wires (more than ten grid
    /// pitches) pay an extra hop of latency.
    #[must_use]
    pub fn with_placement(mut self, placement: GridPlacement) -> Self {
        self.net.placement = Some(placement);
        self
    }

    /// The routing protocol driving this simulator.
    #[must_use]
    pub fn protocol_name(&self) -> &'static str {
        self.net.protocol.name()
    }

    /// The current simulation cycle.
    #[must_use]
    pub fn current_cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of router shards: always 1, because one thread routes every
    /// router. Kept for callers that report it.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        1
    }

    /// Number of packets currently queued, in flight, or awaiting DRAM
    /// service. O(1): reads the pools' cached live counters instead of
    /// walking every queue.
    #[must_use]
    pub fn packets_outstanding(&self) -> u64 {
        u64::from(self.queues.packets.live())
            + u64::from(self.queues.in_flight.len())
            + self.ledger.pending_replies.len() as u64
    }

    /// Per-node memory statistics (reads, writes, row hit rate), in node-id
    /// order.
    #[must_use]
    pub fn memory_stats(&self) -> Vec<crate::memory::MemoryNodeStats> {
        self.routers
            .iter()
            .map(|router| router.memory.stats())
            .collect()
    }

    /// Runs the simulation with the given traffic model for the configured
    /// number of cycles and returns the collected statistics. Every cycle
    /// goes through the same `step` as [`Self::step_one`].
    ///
    /// # Errors
    ///
    /// Returns a routing error if the protocol cannot make a forwarding
    /// decision (for example because the traffic model targets a gated node)
    /// or panics while making one; a failed run's partial statistics are
    /// unspecified.
    pub fn run(&mut self, traffic: &mut dyn TrafficModel) -> SfResult<SimulationStats> {
        self.ledger.stats.active_nodes = self.net.active.iter().filter(|&&a| a).count();
        while self.cycle < self.net.config.max_cycles {
            self.step(traffic)?;
        }
        // Snapshot congestion state at the end of the injection phase: this
        // is what the saturation heuristic looks at (draining would hide it).
        self.ledger.stats.in_flight_at_end = self.packets_outstanding();
        self.ledger.stats.backlog_at_end = u64::from(self.queues.backlog);
        // Drain phase: stop injecting and let queued packets finish, bounded
        // by another max_cycles to avoid infinite loops on saturated runs.
        let drain_deadline = self.net.config.max_cycles * 2;
        while self.cycle < drain_deadline && self.packets_outstanding() > 0 {
            self.step(&mut NoTraffic)?;
        }
        Ok(self.finish_run())
    }

    /// Advances the simulator by exactly one cycle, through the same `step`
    /// as [`Self::run`]. This is the building block the allocation-free
    /// contract is pinned against: after warm-up, a call performs zero heap
    /// allocations.
    ///
    /// # Errors
    ///
    /// Returns a routing error as in [`Self::run`].
    pub fn step_one(&mut self, traffic: &mut dyn TrafficModel) -> SfResult<()> {
        self.step(traffic)
    }

    /// Advances the simulation by one cycle, in the phase order the module
    /// docs list.
    fn step(&mut self, traffic: &mut dyn TrafficModel) -> SfResult<()> {
        self.apply_fault_boundary();
        self.inject(traffic)?;
        self.release_replies();
        // Both samples see the network before this cycle's arrivals: due
        // packets still count as in flight on their links.
        self.sample_telemetry();
        self.peaks.packets = self
            .peaks
            .packets
            .max(u64::from(self.queues.packets.live()));
        self.peaks.in_flight = self
            .peaks
            .in_flight
            .max(u64::from(self.queues.in_flight.len()));

        let route_timer = sf_obs::span::timing_start();
        self.drain_arrivals();
        let routed = self.route_routers();
        if let Some(started) = route_timer {
            self.route_time += started.elapsed();
        }
        routed?;
        self.cycle += 1;
        Ok(())
    }

    /// End-of-run bookkeeping: export the pool metrics, flush telemetry and
    /// the phase timer.
    fn finish_run(&mut self) -> SimulationStats {
        self.ledger.stats.cycles = self.cycle;
        let metrics = sf_obs::metrics::global();
        metrics.gauge_max("sim.pool.packets_peak", self.peaks.packets);
        metrics.gauge_max("sim.pool.in_flight_peak", self.peaks.in_flight);
        metrics.counter_add("sim.pool.packet_pushes", self.queues.packets.pushes());
        metrics.counter_add("sim.pool.in_flight_pushes", self.queues.in_flight.pushes());
        if let Some(series) = self.telemetry.take() {
            metrics.counter_add("sim.telemetry_samples", series.samples() as u64);
            sf_obs::telemetry::submit(series.encode());
        }
        if sf_obs::span::timing_enabled() {
            sf_obs::span::Tracer::global().add_duration_event(
                "kernel_cycle_phases",
                std::mem::take(&mut self.route_time),
                self.cycle,
            );
        }
        self.ledger.stats.clone()
    }

    /// Records one telemetry sample if the series is on and the cycle is on
    /// stride. Queue depth reads the cached occupancy counters the pools
    /// maintain, O(1) per router. The sample point is before the arrival
    /// drain: due arrivals still show up in the link-occupancy columns, not
    /// the router depths.
    fn sample_telemetry(&mut self) {
        let (network_pj, dram_pj) = self.ledger.stats.energy_breakdown_pj();
        let Some(series) = self.telemetry.as_deref_mut() else {
            return;
        };
        if !series.begin_sample(self.cycle, network_pj, dram_pj) {
            return;
        }
        for router in &self.routers {
            let depth = router.queued_net + router.injection.len();
            series.push_router(depth, router.blocked_forwards);
        }
        for (node, nbs) in self.net.adjacency.iter().enumerate() {
            for link in 0..nbs.len() {
                series.push_link(self.net.credits.link_total(node, link) as u32);
            }
        }
    }

    /// Applies the fault schedule at one cycle boundary: first the repairs
    /// that have come due (in strike order), then the wave striking at this
    /// cycle, if any.
    fn apply_fault_boundary(&mut self) {
        let Self {
            net,
            routers,
            queues,
            ledger,
            cycle,
            ..
        } = self;
        let Network {
            fault: Some(fault),
            credits,
            active,
            num_nodes,
            ..
        } = net
        else {
            return;
        };
        let cycle = *cycle;
        let stats = &mut ledger.stats;

        // Repairs due at or before this boundary.
        let mut i = 0;
        while i < fault.repairs.len() {
            if fault.repairs[i].at > cycle {
                i += 1;
                continue;
            }
            match fault.repairs.remove(i).victim {
                FaultVictim::Edge(e) => {
                    for &(to, idx) in &fault.edges[e].slots {
                        fault.link_down[fault.link_offset[to] + idx] = false;
                    }
                }
                FaultVictim::Router(m) => fault.router_down[m] = false,
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
            if fault.link_down[fault.link_offset[to0] + idx0] {
                continue;
            }
            for &(to, idx) in &fault.edges[e].slots {
                fault.link_down[fault.link_offset[to] + idx] = true;
            }
            stats.link_down_events += 1;
            let slots = &fault.edges[e].slots;
            drop_in_flight(&mut queues.in_flight, credits, stats, |f| {
                slots
                    .iter()
                    .any(|&(to, idx)| f.to_node as usize == to && f.from_index as usize == idx)
            });
            fault.repairs.push(FaultRepair {
                at: cycle + fault.plan.repair_cycles,
                victim: FaultVictim::Edge(e),
            });
        }

        // Router power-gate victims. Draws landing on an inactive (statically
        // gated) or already-down router are likewise forfeited.
        for k in 0..fault.plan.routers_per_wave {
            let m = (fault.plan.draw(wave, 1, k as u64) % *num_nodes as u64) as usize;
            if !active[m] || fault.router_down[m] {
                continue;
            }
            fault.router_down[m] = true;
            stats.router_down_events += 1;
            // Everything queued at the gated router is lost; credits return to
            // the senders so the links are clean after the repair.
            let vcs = credits.vcs;
            let router = &mut routers[m];
            for idx in 0..router.queues.len() {
                let (link, vc) = (idx / vcs, idx % vcs);
                while router.queues[idx].pop_front(&mut queues.packets).is_some() {
                    credits.give_back(m, link, vc);
                    stats.dropped_packets += 1;
                }
            }
            router.queued_net = 0;
            let mut purged = 0u32;
            while router.injection.pop_front(&mut queues.packets).is_some() {
                purged += 1;
            }
            stats.dropped_packets += u64::from(purged);
            queues.backlog -= purged;
            drop_in_flight(&mut queues.in_flight, credits, stats, |f| {
                f.to_node as usize == m
            });
            fault.repairs.push(FaultRepair {
                at: cycle + fault.plan.repair_cycles,
                victim: FaultVictim::Router(m),
            });
        }
    }

    /// New injections from the traffic model, in node order (the traffic
    /// model's RNG stream is consumed in this exact order). A fault-gated
    /// source still draws from the model — its stream stays a pure function
    /// of the cycle — but the produced request is lost.
    fn inject(&mut self, traffic: &mut dyn TrafficModel) -> SfResult<()> {
        let cycle = self.cycle;
        for node in 0..self.net.num_nodes {
            if !self.net.active[node] {
                continue;
            }
            if let Some(request) = traffic.maybe_inject(cycle, NodeId::new(node)) {
                if self.net.router_faulted(node) {
                    self.ledger.stats.dropped_packets += 1;
                    continue;
                }
                self.enqueue_request(node, request)?;
            }
        }
        Ok(())
    }

    fn enqueue_request(&mut self, source: usize, request: TrafficRequest) -> SfResult<()> {
        let cycle = self.cycle;
        let measuring = cycle >= self.net.config.warmup_cycles;
        let dest = request.destination;
        if dest.index() >= self.net.num_nodes {
            return Err(SfError::Simulation {
                reason: format!(
                    "traffic model produced destination {dest} outside the {}-node network",
                    self.net.num_nodes
                ),
            });
        }
        if !self.net.active[dest.index()] {
            return Err(SfError::Simulation {
                reason: format!("traffic model targeted gated node {dest}"),
            });
        }
        // A transiently fault-gated destination is not an error (unlike static
        // gating above, the traffic model cannot know about it): the request is
        // simply lost at the source.
        if self.net.router_faulted(dest.index()) {
            self.ledger.stats.dropped_packets += 1;
            return Ok(());
        }
        let kind = if self.net.request_reply {
            if request.write {
                PacketKind::WriteRequest
            } else {
                PacketKind::ReadRequest
            }
        } else {
            PacketKind::Synthetic
        };
        let packet = Packet {
            id: self.ledger.next_packet_id,
            source: NodeId::new(source),
            destination: dest,
            kind,
            injected_at: cycle,
            request_issued_at: cycle,
            hops: 0,
            virtual_channel: VirtualChannelId::UP,
        };
        self.ledger.next_packet_id += 1;
        if measuring {
            self.ledger.stats.injected += 1;
        }
        let router = &mut self.routers[source];
        if source == dest.index() {
            // Local access: no network traversal, service memory directly.
            deliver(
                &self.net.system,
                &mut self.ledger,
                &mut router.memory,
                &packet,
                cycle,
                measuring,
            );
            return Ok(());
        }
        router.injection.push_back(&mut self.queues.packets, packet);
        self.queues.backlog += 1;
        Ok(())
    }

    /// Replies whose DRAM service completed become injectable; a reply
    /// releasing at a fault-gated node is lost.
    fn release_replies(&mut self) {
        while let Some(top) = self.ledger.pending_replies.peek() {
            if top.ready_cycle > self.cycle {
                break;
            }
            let reply = self.ledger.pending_replies.pop().expect("peeked");
            if self.net.router_faulted(reply.node) {
                self.ledger.stats.dropped_packets += 1;
                continue;
            }
            self.routers[reply.node]
                .injection
                .push_back(&mut self.queues.packets, reply.packet);
            self.queues.backlog += 1;
        }
    }

    /// Moves every arrival due this cycle from the in-flight pool into its
    /// input queue. Each (router, port, vc) queue receives at most one
    /// packet per cycle (one forward per output link per cycle, constant
    /// per-link latency), so the drain order only decides which slots the
    /// packets take.
    fn drain_arrivals(&mut self) {
        let Self {
            net,
            routers,
            queues,
            ledger,
            cycle,
            ..
        } = self;
        let cycle = *cycle;
        let vcs = net.credits.vcs;
        let Queues {
            packets, in_flight, ..
        } = queues;
        in_flight.extract_if(
            |meta| meta.arrival_cycle <= cycle,
            |meta, packet| {
                let to = meta.to_node as usize;
                let from_index = meta.from_index as usize;
                let vc = meta.vc as usize;
                // Fault drops purge in-flight entries at the boundary, so an
                // arrival at a dead resource cannot normally happen; the check
                // is defensive and keeps the credit counters consistent.
                if net.router_faulted(to) || net.link_faulted(to, from_index) {
                    net.credits.give_back(to, from_index, vc);
                    ledger.stats.dropped_packets += 1;
                } else {
                    let router = &mut routers[to];
                    router.queues[from_index * vcs + vc].push_back(packets, packet);
                    router.queued_net += 1;
                }
            },
        );
    }

    /// Routes every router once, in increasing id order. A panic (say,
    /// inside the protocol's `next_hop`) is reported as the failure of the
    /// router being routed.
    fn route_routers(&mut self) -> SfResult<()> {
        let Self {
            net,
            routers,
            queues,
            ledger,
            cycle,
            ..
        } = self;
        let cycle = *cycle;
        let mut routing = 0;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for (node, router) in routers.iter_mut().enumerate() {
                // A fault-gated router skips its routing step (its queues
                // were drained when it went down).
                if net.active[node] && !net.router_faulted(node) {
                    routing = node;
                    route_node(net, queues, ledger, router, node, cycle)?;
                }
            }
            Ok(())
        }));
        outcome.unwrap_or_else(|_panic| {
            Err(SfError::Simulation {
                reason: format!("routing of router {routing} panicked"),
            })
        })
    }
}

/// Drops every in-flight packet matching `doomed`, returning its credit and
/// counting it as fault-dropped, in one in-place pass over the pool
/// ([`InFlightPool::extract_if`] unlinks doomed entries as it walks the FIFO
/// chain).
fn drop_in_flight(
    in_flight: &mut InFlightPool,
    credits: &mut Credits,
    stats: &mut SimulationStats,
    doomed: impl Fn(&InFlightMeta) -> bool,
) {
    in_flight.extract_if(
        |meta| doomed(&meta),
        |meta, _packet| {
            credits.give_back(
                meta.to_node as usize,
                meta.from_index as usize,
                meta.vc as usize,
            );
            stats.dropped_packets += 1;
        },
    );
}

/// Processes one router for one cycle: ejection and forwarding, one packet
/// per output link per cycle, one ejection per cycle per node.
/// Allocation-free: queue traffic recycles pool slots and the output
/// scoreboard is a reusable per-router buffer.
fn route_node(
    net: &mut Network,
    queues: &mut Queues,
    ledger: &mut Ledger,
    router: &mut RouterState,
    node: usize,
    cycle: u64,
) -> SfResult<()> {
    let num_links = net.adjacency[node].len();
    let vcs = net.credits.vcs;
    let measuring = cycle >= net.config.warmup_cycles;
    // Queue scan order rotates every cycle for fairness; the injection queue
    // is scanned last so in-network packets have priority.
    let total_queues = num_links * vcs;
    let offset = (cycle as usize) % total_queues.max(1);
    router.used_outputs.fill(false);
    let mut ejected = false;

    for q in 0..total_queues {
        let idx = (q + offset) % total_queues;
        let (link, vc) = (idx / vcs, idx % vcs);
        let Some(&packet) = router.queues[idx].front(&queues.packets) else {
            continue;
        };
        if packet.destination.index() == node {
            if !ejected {
                router.queues[idx].pop_front(&mut queues.packets);
                router.queued_net -= 1;
                net.credits.give_back(node, link, vc);
                deliver(
                    &net.system,
                    ledger,
                    &mut router.memory,
                    &packet,
                    cycle,
                    measuring,
                );
                ejected = true;
            }
            continue;
        }
        let forwarded = try_forward(
            net,
            &mut queues.in_flight,
            &mut ledger.stats,
            &mut router.used_outputs,
            node,
            &packet,
            cycle,
        )?;
        if forwarded {
            router.queues[idx].pop_front(&mut queues.packets);
            router.queued_net -= 1;
            net.credits.give_back(node, link, vc);
        } else if measuring {
            router.blocked_forwards += 1;
            ledger.stats.blocked_forwards += 1;
        }
    }

    // Injection queue: the terminal port can insert one packet per cycle.
    if let Some(&packet) = router.injection.front(&queues.packets) {
        if packet.destination.index() == node {
            // A reply addressed to the local node (possible when a processor
            // and memory share a node): deliver directly.
            router.injection.pop_front(&mut queues.packets);
            queues.backlog -= 1;
            deliver(
                &net.system,
                ledger,
                &mut router.memory,
                &packet,
                cycle,
                measuring,
            );
        } else if try_forward(
            net,
            &mut queues.in_flight,
            &mut ledger.stats,
            &mut router.used_outputs,
            node,
            &packet,
            cycle,
        )? {
            router.injection.pop_front(&mut queues.packets);
            queues.backlog -= 1;
        } else if measuring {
            router.blocked_forwards += 1;
            ledger.stats.blocked_forwards += 1;
        }
    }
    Ok(())
}

/// Delivers `packet` at its destination: folds it into the statistics and,
/// for a request, runs the node's DRAM access, charges its energy and queues
/// the reply under the next packet id.
fn deliver(
    system: &SystemConfig,
    ledger: &mut Ledger,
    memory: &mut MemoryNodeModel,
    packet: &Packet,
    cycle: u64,
    measuring: bool,
) {
    let stats = &mut ledger.stats;
    if measuring {
        let latency = cycle.saturating_sub(packet.injected_at);
        stats.delivered += 1;
        stats.total_latency_cycles += latency;
        stats.max_latency_cycles = stats.max_latency_cycles.max(latency);
        stats.total_hops += u64::from(packet.hops);
        if matches!(packet.kind, PacketKind::ReadReply | PacketKind::WriteAck) {
            stats.completed_requests += 1;
            stats.total_round_trip_cycles += cycle.saturating_sub(packet.request_issued_at);
        }
    }
    // Only read and write requests have a reply, and only they touch DRAM.
    let Some(reply_kind) = packet.kind.reply_kind() else {
        return;
    };
    let address = packet.id.wrapping_mul(64) % (1 << 33);
    let service = memory.access(address, packet.kind == PacketKind::WriteRequest);
    if measuring {
        stats.dram_energy_pj += system
            .energy
            .dram_energy_pj(system.cacheline_bytes as u64 * 8);
    }
    let reply = Packet {
        id: ledger.next_packet_id,
        source: packet.destination,
        destination: packet.source,
        kind: reply_kind,
        injected_at: cycle + service,
        request_issued_at: packet.request_issued_at,
        hops: 0,
        virtual_channel: VirtualChannelId::UP,
    };
    ledger.next_packet_id += 1;
    ledger.pending_replies.push(PendingReply {
        ready_cycle: cycle + service,
        node: packet.destination.index(),
        packet: reply,
    });
}

/// Attempts to forward `packet` out of `node`; returns `true` if the packet
/// entered a link this cycle: credit taken, the packet pushed in flight and
/// (when measuring) its network energy charged.
fn try_forward(
    net: &mut Network,
    in_flight: &mut InFlightPool,
    stats: &mut SimulationStats,
    used_outputs: &mut [bool],
    node: usize,
    packet: &Packet,
    cycle: u64,
) -> SfResult<bool> {
    let ctx = RoutingContext {
        first_hop: packet.hops == 0,
    };
    let next = net.protocol.next_hop(
        NodeId::new(node),
        packet.destination,
        &LoadView { net },
        &ctx,
    )?;
    let Ok(out_idx) = net.adjacency[node].binary_search(&next) else {
        return Err(SfError::Simulation {
            reason: format!(
                "protocol {} chose non-neighbour {next} from node {node}",
                net.protocol.name()
            ),
        });
    };
    if used_outputs[out_idx] {
        return Ok(false);
    }
    let vc = net
        .protocol
        .virtual_channel(NodeId::new(node), next, packet.destination)
        .index() as usize;
    let vc = vc.min(net.config.virtual_channels - 1);
    // Credit check on the downstream input queue.
    let down_idx = net.adjacency[next.index()]
        .binary_search(&NodeId::new(node))
        .expect("links are symmetric");
    // A dead next hop or dead link blocks the forward; the packet waits for
    // the repair (or for adaptive routing to pick another port next cycle).
    if net.router_faulted(next.index()) || net.link_faulted(next.index(), down_idx) {
        return Ok(false);
    }
    if net.credits.used(next.index(), down_idx, vc) >= net.config.vc_queue_capacity {
        return Ok(false);
    }
    used_outputs[out_idx] = true;
    net.credits.take(next.index(), down_idx, vc);
    let mut moved = *packet;
    moved.hops += 1;
    moved.virtual_channel = VirtualChannelId::new(vc as u8);
    let latency = net.link_latency(node, next.index());
    in_flight.push(
        InFlightMeta {
            arrival_cycle: cycle + latency,
            to_node: next.index() as u32,
            from_index: down_idx as u32,
            vc: vc as u32,
        },
        moved,
    );
    if cycle >= net.config.warmup_cycles {
        let size_bits = moved.kind.size_bits(net.system.cacheline_bytes);
        stats.network_energy_pj += net.system.energy.network_energy_pj(size_bits, 1);
    }
    Ok(true)
}

/// A traffic model that never injects; used internally for the drain phase.
struct NoTraffic;

impl TrafficModel for NoTraffic {
    fn maybe_inject(&mut self, _cycle: u64, _source: NodeId) -> Option<TrafficRequest> {
        None
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

    fn sim(nodes: usize, max_cycles: u64) -> ShardedSimulator {
        sim_routed(nodes, max_cycles, |routing| Box::new(routing))
    }

    /// Like [`sim`], with the greediest protocol wrapped by `wrap`.
    fn sim_routed(
        nodes: usize,
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
                ..SimulationConfig::default()
            },
        )
        .unwrap()
    }

    fn faulty_sim(nodes: usize, plan: FaultPlan) -> ShardedSimulator {
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
            faulty_sim(48, storm_plan())
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
    fn severity_zero_plan_matches_the_healthy_network() {
        let healthy = sim(32, 1_200)
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
        let error = sim(16, 400).run(&mut TargetInvalid).unwrap_err();
        assert_eq!(
            error.to_string(),
            "simulation error: traffic model produced destination n999 outside the 16-node network"
        );

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
            let error = sim_routed(48, 400, |inner| Box::new(Misrouting { inner, panics }))
                .run(&mut UniformRandomTraffic::new(48, 0.08, 11))
                .unwrap_err();
            assert_eq!(error.to_string(), format!("simulation error: {expected}"));
        }
    }
}
