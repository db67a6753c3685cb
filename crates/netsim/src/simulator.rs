//! The cycle-level memory-network simulator (facade).
//!
//! The simulator models every memory node as an input-queued router with one
//! terminal (ejection/injection) port towards the local memory stack and one
//! input queue per virtual channel per incoming link. Forwarding is
//! credit-based: a packet only leaves a router when the downstream input queue
//! for its link and virtual channel has a free slot, so congestion backs up
//! exactly as in the RTL model the paper uses. Routing decisions are delegated
//! to any [`RoutingProtocol`] (String Figure's greediest routing, mesh
//! routing, or look-up-table routing), which also receives live queue
//! occupancies so adaptive protocols behave as they would in hardware.
//!
//! Two traffic modes are supported:
//!
//! * **Synthetic one-way traffic** (Figures 10 and 11): every node injects
//!   packets towards a pattern-selected destination; the simulator measures
//!   latency, throughput, and saturation.
//! * **Request–reply memory traffic** (Figures 9b and 12): packets arriving at
//!   a memory node are serviced by its DRAM model and generate a reply; the
//!   simulator additionally measures round-trip latency and DRAM energy.
//!
//! Execution is delegated to [`sf_simcore::ShardedSimulator`]: the cycle loop
//! runs across `SimulationConfig::shards` router shards (0 = auto from the
//! shared core budget) with **bit-identical results for any shard count** —
//! one shard reproduces the historical serial simulator exactly.

use crate::packet::TrafficModel;
use crate::stats::SimulationStats;
use sf_routing::RoutingProtocol;
use sf_simcore::ShardedSimulator;
use sf_topology::{AdjacencyGraph, GridPlacement};
use sf_types::{SfResult, SimulationConfig, SystemConfig};

pub use sf_simcore::kernel::UniformRandomTraffic;

/// The cycle-level network simulator: the stable facade over the sharded
/// simulation kernel.
///
/// # Examples
///
/// ```
/// use sf_netsim::{NetworkSimulator, UniformRandomTraffic};
/// use sf_routing::GreediestRouting;
/// use sf_topology::StringFigureTopology;
/// use sf_types::{NetworkConfig, SimulationConfig, SystemConfig};
///
/// let topo = StringFigureTopology::generate(&NetworkConfig::new(32, 4)?)?;
/// let routing = Box::new(GreediestRouting::new(&topo));
/// let mut sim = NetworkSimulator::new(
///     topo.graph().clone(),
///     routing,
///     SystemConfig::default(),
///     SimulationConfig { max_cycles: 2_000, warmup_cycles: 200, ..SimulationConfig::default() },
/// )?;
/// let mut traffic = UniformRandomTraffic::new(32, 0.05, 7);
/// let stats = sim.run(&mut traffic)?;
/// assert!(stats.delivered > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct NetworkSimulator {
    inner: ShardedSimulator,
}

impl std::fmt::Debug for NetworkSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkSimulator")
            .field("kernel", &self.inner)
            .finish()
    }
}

impl NetworkSimulator {
    /// Creates a simulator over the given link graph and routing protocol.
    ///
    /// # Errors
    ///
    /// Returns [`sf_types::SfError::InvalidConfiguration`] if the simulation
    /// configuration fails validation.
    pub fn new(
        graph: AdjacencyGraph,
        protocol: Box<dyn RoutingProtocol>,
        system: SystemConfig,
        config: SimulationConfig,
    ) -> SfResult<Self> {
        Ok(Self {
            inner: ShardedSimulator::new(graph, protocol, system, config)?,
        })
    }

    /// Enables request–reply memory traffic: packets arriving at their
    /// destination are serviced by the DRAM model and answered.
    #[must_use]
    pub fn with_request_reply(mut self, enabled: bool) -> Self {
        self.inner = self.inner.with_request_reply(enabled);
        self
    }

    /// Attaches a 2D-grid placement so that long wires (more than the
    /// configured grid distance) pay an extra hop of latency.
    #[must_use]
    pub fn with_placement(mut self, placement: GridPlacement) -> Self {
        self.inner = self.inner.with_placement(placement);
        self
    }

    /// The routing protocol driving this simulator.
    #[must_use]
    pub fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }

    /// The current simulation cycle.
    #[must_use]
    pub fn current_cycle(&self) -> u64 {
        self.inner.current_cycle()
    }

    /// Number of router shards the cycle loop runs across.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    /// Runs the simulation with the given traffic model for the configured
    /// number of cycles and returns the collected statistics.
    ///
    /// # Errors
    ///
    /// Returns a routing error if the protocol cannot make a forwarding
    /// decision (for example because the traffic model targets a gated node).
    pub fn run(&mut self, traffic: &mut dyn TrafficModel) -> SfResult<SimulationStats> {
        let stats = self.inner.run(traffic)?;
        record_run_metrics(&stats);
        Ok(stats)
    }

    /// Number of packets currently queued, in flight, or awaiting DRAM
    /// service.
    #[must_use]
    pub fn packets_outstanding(&self) -> u64 {
        self.inner.packets_outstanding()
    }

    /// Per-node memory statistics (reads, writes, row hit rate).
    #[must_use]
    pub fn memory_stats(&self) -> Vec<crate::memory::MemoryNodeStats> {
        self.inner.memory_stats()
    }
}

/// Folds one finished run's integer statistics into the global `sim.*`
/// metrics namespace. Every value here is an integer the kernel already
/// guarantees bit-identical across shard counts, and counter merge is
/// commutative, so the aggregated metrics inherit the determinism contract.
fn record_run_metrics(stats: &SimulationStats) {
    let metrics = sf_obs::metrics::global();
    metrics.counter_add("sim.runs", 1);
    metrics.counter_add("sim.cycles", stats.cycles);
    metrics.counter_add("sim.injected", stats.injected);
    metrics.counter_add("sim.delivered", stats.delivered);
    metrics.counter_add("sim.completed_requests", stats.completed_requests);
    metrics.counter_add("sim.total_hops", stats.total_hops);
    metrics.counter_add("sim.blocked_forwards", stats.blocked_forwards);
    metrics.counter_add("sim.dropped_packets", stats.dropped_packets);
    metrics.counter_add("sim.link_down_events", stats.link_down_events);
    metrics.counter_add("sim.router_down_events", stats.router_down_events);
    metrics.gauge_max("sim.max_latency_cycles", stats.max_latency_cycles);
    // Distribution of per-run average latency in power-of-two cycle buckets:
    // the bucket index of a bit-identical float is itself deterministic.
    metrics.observe(
        "sim.avg_latency_cycles",
        stats.average_latency_cycles(),
        &sf_obs::hist::Histogram::exponential(12),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TrafficRequest;
    use sf_routing::GreediestRouting;
    use sf_topology::StringFigureTopology;
    use sf_types::{NetworkConfig, NodeId};

    fn small_sim(nodes: usize, rate: f64) -> (StringFigureTopology, NetworkSimulator) {
        let topo = StringFigureTopology::generate(&NetworkConfig::new(nodes, 4).unwrap()).unwrap();
        let routing = Box::new(GreediestRouting::new(&topo));
        let sim = NetworkSimulator::new(
            topo.graph().clone(),
            routing,
            SystemConfig::default(),
            SimulationConfig {
                max_cycles: 2_000,
                warmup_cycles: 200,
                ..SimulationConfig::default()
            },
        )
        .unwrap();
        let _ = rate;
        (topo, sim)
    }

    #[test]
    fn low_load_traffic_is_delivered() {
        let (_, mut sim) = small_sim(32, 0.05);
        let mut traffic = UniformRandomTraffic::new(32, 0.05, 1);
        let stats = sim.run(&mut traffic).unwrap();
        assert!(stats.injected > 100);
        assert!(stats.delivered > 0);
        assert!(stats.delivery_ratio() > 0.95, "{}", stats.delivery_ratio());
        assert!(!stats.is_saturated());
        assert!(stats.average_latency_cycles() > 0.0);
        assert!(stats.average_hops() >= 1.0);
        assert!(stats.network_energy_pj > 0.0);
        assert_eq!(stats.backlog_at_end, 0);
    }

    #[test]
    fn high_load_saturates() {
        let (_, mut sim_low) = small_sim(32, 0.02);
        let mut low = UniformRandomTraffic::new(32, 0.02, 2);
        let low_stats = sim_low.run(&mut low).unwrap();
        let (_, mut sim_high) = small_sim(32, 0.95);
        let mut high = UniformRandomTraffic::new(32, 0.95, 2);
        let high_stats = sim_high.run(&mut high).unwrap();
        assert!(high_stats.average_latency_cycles() > low_stats.average_latency_cycles());
        assert!(high_stats.blocked_forwards > low_stats.blocked_forwards);
        assert!(high_stats.is_saturated());
    }

    #[test]
    fn request_reply_mode_completes_round_trips() {
        let topo = StringFigureTopology::generate(&NetworkConfig::new(24, 4).unwrap()).unwrap();
        let routing = Box::new(GreediestRouting::new(&topo));
        let mut sim = NetworkSimulator::new(
            topo.graph().clone(),
            routing,
            SystemConfig::default(),
            SimulationConfig {
                max_cycles: 3_000,
                warmup_cycles: 300,
                ..SimulationConfig::default()
            },
        )
        .unwrap()
        .with_request_reply(true);
        let mut traffic = UniformRandomTraffic::new(24, 0.03, 3);
        let stats = sim.run(&mut traffic).unwrap();
        assert!(stats.completed_requests > 0);
        assert!(stats.average_round_trip_cycles() > stats.average_latency_cycles());
        assert!(stats.dram_energy_pj > 0.0);
        let mem = sim.memory_stats();
        assert!(mem.iter().map(|m| m.total()).sum::<u64>() > 0);
    }

    #[test]
    fn placement_long_wires_increase_latency() {
        let topo = StringFigureTopology::generate(&NetworkConfig::new(144, 4).unwrap()).unwrap();
        let make = |with_placement: bool| {
            let routing = Box::new(GreediestRouting::new(&topo));
            let mut sim = NetworkSimulator::new(
                topo.graph().clone(),
                routing,
                SystemConfig::default(),
                SimulationConfig {
                    max_cycles: 1_500,
                    warmup_cycles: 200,
                    long_wire_penalty_cycles: 2,
                    ..SimulationConfig::default()
                },
            )
            .unwrap();
            if with_placement {
                sim = sim.with_placement(GridPlacement::row_major(144));
            }
            let mut traffic = UniformRandomTraffic::new(144, 0.02, 4);
            sim.run(&mut traffic).unwrap()
        };
        let without = make(false);
        let with = make(true);
        assert!(with.average_latency_cycles() >= without.average_latency_cycles());
    }

    #[test]
    fn traffic_to_gated_node_is_an_error() {
        let mut topo = StringFigureTopology::generate(&NetworkConfig::new(24, 4).unwrap()).unwrap();
        topo.gate_node(NodeId::new(3)).unwrap();
        let mut routing = GreediestRouting::new(&topo);
        routing.resync(topo.graph(), topo.spaces());
        let mut sim = NetworkSimulator::new(
            topo.graph().clone(),
            Box::new(routing),
            SystemConfig::default(),
            SimulationConfig {
                max_cycles: 500,
                warmup_cycles: 50,
                ..SimulationConfig::default()
            },
        )
        .unwrap();

        struct TargetGated;
        impl TrafficModel for TargetGated {
            fn maybe_inject(&mut self, _cycle: u64, source: NodeId) -> Option<TrafficRequest> {
                (source.index() == 0).then(|| TrafficRequest::read(NodeId::new(3)))
            }
        }
        assert!(sim.run(&mut TargetGated).is_err());
    }

    #[test]
    fn local_accesses_bypass_the_network() {
        let (_, mut sim) = small_sim(16, 0.0);
        struct SelfTraffic;
        impl TrafficModel for SelfTraffic {
            fn maybe_inject(&mut self, cycle: u64, source: NodeId) -> Option<TrafficRequest> {
                (cycle == 300 && source.index() == 5).then(|| TrafficRequest::read(source))
            }
        }
        let stats = sim.run(&mut SelfTraffic).unwrap();
        assert_eq!(stats.injected, 1);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.total_hops, 0);
        assert_eq!(stats.network_energy_pj, 0.0);
    }

    #[test]
    fn invalid_destination_is_an_error() {
        let (_, mut sim) = small_sim(16, 0.0);
        struct BadTraffic;
        impl TrafficModel for BadTraffic {
            fn maybe_inject(&mut self, _cycle: u64, source: NodeId) -> Option<TrafficRequest> {
                (source.index() == 0).then(|| TrafficRequest::read(NodeId::new(999)))
            }
        }
        assert!(sim.run(&mut BadTraffic).is_err());
    }

    #[test]
    fn debug_and_protocol_name() {
        let (_, sim) = small_sim(16, 0.0);
        assert_eq!(sim.protocol_name(), "greediest-adaptive");
        let dbg = format!("{sim:?}");
        assert!(dbg.contains("NetworkSimulator"));
        assert_eq!(sim.current_cycle(), 0);
        assert!(sim.shard_count() >= 1);
        assert_eq!(sim.packets_outstanding(), 0);
    }
}
