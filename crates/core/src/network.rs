//! The top-level String Figure memory network: topology, routing, placement,
//! and simulation glued behind one API.
//!
//! [`StringFigureNetwork`] is what a downstream user of this library creates:
//! it owns a generated [`StringFigureTopology`], keeps a [`GreediestRouting`]
//! instance in sync with it, places the nodes on a 2D grid, and exposes
//! routing, analysis, reconfiguration, and cycle-level simulation without the
//! caller having to wire the underlying crates together.

use sf_netsim::{NetworkSimulator, SimulationStats, TrafficModel};
use sf_routing::{trace_route, GreediestRouting, RouteTrace, RoutingProtocol, RoutingTable};
use sf_topology::analysis::{self, PathLengthStats};
use sf_topology::{GridPlacement, ReconfigurationDelta, StringFigureTopology};
use sf_types::{
    DeterministicRng, NetworkConfig, NodeId, SfError, SfResult, SimulationConfig, SystemConfig,
};
use sf_workloads::{ApplicationModel, PatternTraffic, SyntheticPattern, WorkloadTraffic};

/// Builder for a [`StringFigureNetwork`].
///
/// # Examples
///
/// ```
/// use stringfigure::StringFigureBuilder;
///
/// let network = StringFigureBuilder::new(64)
///     .ports(4)
///     .seed(7)
///     .build()?;
/// assert_eq!(network.num_nodes(), 64);
/// # Ok::<(), sf_types::SfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StringFigureBuilder {
    network: NetworkConfig,
    simulation: SimulationConfig,
}

impl StringFigureBuilder {
    /// Starts a builder for a network of `nodes` memory nodes, using
    /// Figure 8's port policy (4 ports up to 128 nodes, 8 above).
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        Self {
            network: NetworkConfig::figure8_string_figure(nodes),
            simulation: SimulationConfig::default(),
        }
    }

    /// Sets the number of router ports per node.
    #[must_use]
    pub fn ports(mut self, ports: usize) -> Self {
        self.network.ports = ports;
        self
    }

    /// Sets the topology generation seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.network.seed = seed;
        self
    }

    /// Enables or disables shortcut fabrication.
    #[must_use]
    pub fn shortcuts(mut self, enabled: bool) -> Self {
        self.network.shortcuts = enabled;
        self
    }

    /// Overrides the default simulation configuration used by the
    /// convenience `run_*` methods.
    #[must_use]
    pub fn simulation(mut self, simulation: SimulationConfig) -> Self {
        self.simulation = simulation;
        self
    }

    /// Builds the network.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] if the network or simulation
    /// configuration is invalid.
    pub fn build(self) -> SfResult<StringFigureNetwork> {
        self.simulation.validate()?;
        let topology = StringFigureTopology::generate(&self.network)?;
        let routing = GreediestRouting::new(&topology);
        let placement = GridPlacement::row_major(self.network.nodes);
        Ok(StringFigureNetwork {
            topology,
            routing,
            placement,
            system: SystemConfig::default(),
            simulation: self.simulation,
        })
    }
}

/// A complete String Figure memory network.
#[derive(Debug)]
pub struct StringFigureNetwork {
    topology: StringFigureTopology,
    routing: GreediestRouting,
    placement: GridPlacement,
    system: SystemConfig,
    simulation: SimulationConfig,
}

impl StringFigureNetwork {
    /// Generates a network with default parameters for `nodes` memory nodes.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the builder.
    pub fn generate(nodes: usize) -> SfResult<Self> {
        StringFigureBuilder::new(nodes).build()
    }

    /// Starts a builder.
    #[must_use]
    pub fn builder(nodes: usize) -> StringFigureBuilder {
        StringFigureBuilder::new(nodes)
    }

    /// Number of memory nodes (mounted or not).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.topology.graph().num_nodes()
    }

    /// Number of currently active (powered, mounted) memory nodes.
    #[must_use]
    pub fn num_active_nodes(&self) -> usize {
        self.topology.graph().num_active_nodes()
    }

    /// Total memory capacity of the active nodes, in GiB.
    #[must_use]
    pub fn active_capacity_gib(&self) -> usize {
        self.system.total_capacity_gib(self.num_active_nodes())
    }

    /// The underlying topology.
    #[must_use]
    pub fn topology(&self) -> &StringFigureTopology {
        &self.topology
    }

    /// The greediest-routing state (tables and options).
    #[must_use]
    pub fn routing(&self) -> &GreediestRouting {
        &self.routing
    }

    /// The 2D-grid placement used for wire-length modelling.
    #[must_use]
    pub fn placement(&self) -> &GridPlacement {
        &self.placement
    }

    /// The system (timing/energy) configuration.
    #[must_use]
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// The default simulation configuration.
    #[must_use]
    pub fn simulation_config(&self) -> &SimulationConfig {
        &self.simulation
    }

    /// Routes a packet from `from` to `to` on an idle network and returns the
    /// hop-by-hop trace.
    ///
    /// # Errors
    ///
    /// Returns routing errors (unknown/offline nodes, stuck routes).
    pub fn route(&self, from: NodeId, to: NodeId) -> SfResult<RouteTrace> {
        trace_route(&self.routing, from, to, self.num_nodes())
    }

    /// Shortest-path statistics of the active topology (graph distance, not
    /// routed distance).
    #[must_use]
    pub fn path_stats(&self) -> PathLengthStats {
        analysis::path_length_stats(self.topology.graph())
    }

    /// Average number of hops taken by greediest routing over a random sample
    /// of source/destination pairs.
    ///
    /// # Errors
    ///
    /// Propagates routing errors.
    pub fn average_routed_hops(&self, samples: usize, seed: u64) -> SfResult<f64> {
        let mut rng = DeterministicRng::new(seed);
        let active: Vec<NodeId> = self.topology.graph().active_nodes().collect();
        if active.len() < 2 {
            return Ok(0.0);
        }
        let mut total = 0usize;
        let mut count = 0usize;
        for _ in 0..samples.max(1) {
            let a = active[rng.next_index(active.len())];
            let b = active[rng.next_index(active.len())];
            if a == b {
                continue;
            }
            total += self.route(a, b)?.hops();
            count += 1;
        }
        Ok(if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        })
    }

    /// Total routing-table storage across all routers, in bits: every
    /// router's table rows times the per-entry cost.
    #[must_use]
    pub fn routing_storage_bits(&self) -> u64 {
        let entry_bits = RoutingTable::entry_bits(self.num_nodes(), self.topology.config().ports);
        self.topology
            .graph()
            .nodes()
            .map(|v| entry_bits * self.routing.table_len(v) as u64)
            .sum()
    }

    /// Gates a memory node off (power gating / unmounting) and re-synchronises
    /// the routing tables.
    ///
    /// # Errors
    ///
    /// Propagates topology reconfiguration errors (unknown node, already
    /// gated, would disconnect the network).
    pub fn gate_node(&mut self, node: NodeId) -> SfResult<ReconfigurationDelta> {
        let delta = self.topology.gate_node(node)?;
        self.routing
            .resync(self.topology.graph(), self.topology.spaces());
        Ok(delta)
    }

    /// Brings a gated node back online and re-synchronises routing tables.
    ///
    /// # Errors
    ///
    /// Propagates topology reconfiguration errors.
    pub fn ungate_node(&mut self, node: NodeId) -> SfResult<ReconfigurationDelta> {
        let delta = self.topology.ungate_node(node)?;
        self.routing
            .resync(self.topology.graph(), self.topology.spaces());
        Ok(delta)
    }

    /// Builds a fresh routing-protocol instance reflecting the current
    /// topology (simulators own their protocol, so they need their own copy).
    #[must_use]
    pub fn fresh_routing(&self) -> GreediestRouting {
        GreediestRouting::new(&self.topology)
    }

    /// Creates a cycle-level simulator over the current network state.
    ///
    /// # Errors
    ///
    /// Propagates simulator configuration errors.
    pub fn simulator(&self, config: SimulationConfig) -> SfResult<NetworkSimulator> {
        let sim = NetworkSimulator::new(
            self.topology.graph().clone(),
            Box::new(self.fresh_routing()) as Box<dyn RoutingProtocol>,
            self.system.clone(),
            config,
        )?;
        Ok(sim.with_placement(self.placement.clone()))
    }

    /// Runs a synthetic traffic pattern at the given injection rate with the
    /// network's default simulation configuration.
    ///
    /// Only currently active (mounted, powered) nodes inject traffic and are
    /// chosen as destinations, so the same call works on a full network and
    /// on a down-scaled one.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run_pattern(
        &self,
        pattern: SyntheticPattern,
        injection_rate: f64,
        seed: u64,
    ) -> SfResult<SimulationStats> {
        let mut sim = self.simulator(self.simulation.clone())?;
        let active: Vec<NodeId> = self.topology.graph().active_nodes().collect();
        let inner = PatternTraffic::new(pattern, active.len(), injection_rate, seed);
        sim.run(&mut ActiveNodeTraffic::new(active, inner))
    }

    /// Runs an application workload injected from the given processor-attached
    /// nodes, in request–reply mode.
    ///
    /// # Errors
    ///
    /// Propagates workload and simulation configuration errors.
    pub fn run_workload(
        &self,
        model: ApplicationModel,
        injector_nodes: &[NodeId],
        seed: u64,
    ) -> SfResult<SimulationStats> {
        let mapper = sf_workloads::AddressMapper::paper_default(self.num_nodes())?;
        let mut traffic = WorkloadTraffic::new(model, mapper, injector_nodes, seed)?;
        let mut sim = self
            .simulator(self.simulation.clone())?
            .with_request_reply(true);
        sim.run(&mut traffic)
    }

    /// Runs an arbitrary traffic model with an explicit simulation
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run_traffic(
        &self,
        traffic: &mut dyn TrafficModel,
        config: SimulationConfig,
        request_reply: bool,
    ) -> SfResult<SimulationStats> {
        let mut sim = self.simulator(config)?.with_request_reply(request_reply);
        sim.run(traffic)
    }

    /// Validates internal consistency: the live graph is connected, no node
    /// exceeds its port budget, and the routing state equals a fresh build on
    /// the live topology ([`GreediestRouting`]'s `==`, which ignores its
    /// counters), so no resync left a stale router behind.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] describing the first violated
    /// invariant.
    pub fn check_invariants(&self) -> SfResult<()> {
        if !self.topology.graph().is_connected() {
            return Err(SfError::InvalidConfiguration {
                reason: "active network is disconnected".to_string(),
            });
        }
        let ports = self.topology.config().ports;
        for node in self.topology.graph().active_nodes() {
            if self.topology.ports_in_use(node) > ports {
                return Err(SfError::InvalidConfiguration {
                    reason: format!("node {node} uses more than {ports} ports"),
                });
            }
        }
        if self.routing != self.fresh_routing() {
            return Err(SfError::InvalidConfiguration {
                reason: "routing state differs from a fresh build on the live topology".to_string(),
            });
        }
        Ok(())
    }
}

/// Runs a traffic model defined over the dense ids `0..active.len()` of a
/// possibly gated network's live nodes: a live node's physical id maps to
/// its dense id by one table lookup, and a dense destination back to its
/// physical id by another. Sources that are not live inject nothing.
#[derive(Debug)]
pub(crate) struct ActiveNodeTraffic<T> {
    inner: T,
    /// Physical id of each dense id, ascending.
    active: Vec<NodeId>,
    /// Dense id of each physical id; `None` for a gated node.
    dense_of: Vec<Option<NodeId>>,
}

impl<T: TrafficModel> ActiveNodeTraffic<T> {
    /// Wraps `inner`, whose node ids are positions in `active`.
    pub(crate) fn new(active: Vec<NodeId>, inner: T) -> Self {
        let span = active
            .iter()
            .map(|node| node.index() + 1)
            .max()
            .unwrap_or(0);
        let mut dense_of = vec![None; span];
        for (dense, node) in active.iter().enumerate() {
            dense_of[node.index()] = Some(NodeId::new(dense));
        }
        Self {
            inner,
            active,
            dense_of,
        }
    }
}

impl<T: TrafficModel> TrafficModel for ActiveNodeTraffic<T> {
    fn maybe_inject(&mut self, cycle: u64, source: NodeId) -> Option<sf_netsim::TrafficRequest> {
        let dense = (*self.dense_of.get(source.index())?)?;
        let request = self.inner.maybe_inject(cycle, dense)?;
        Some(sf_netsim::TrafficRequest {
            destination: self.active[request.destination.index()],
            write: request.write,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_consistent_network() {
        let network = StringFigureBuilder::new(64)
            .ports(4)
            .seed(3)
            .build()
            .unwrap();
        assert_eq!(network.num_nodes(), 64);
        assert_eq!(network.num_active_nodes(), 64);
        assert_eq!(network.active_capacity_gib(), 64 * 8);
        network.check_invariants().unwrap();
        assert!(network.routing_storage_bits() > 0);
        assert_eq!(network.placement().num_nodes(), 64);
    }

    #[test]
    fn figure8_port_policy() {
        assert_eq!(
            StringFigureNetwork::generate(128)
                .unwrap()
                .topology()
                .config()
                .ports,
            4
        );
        assert_eq!(
            StringFigureBuilder::new(256)
                .build()
                .unwrap()
                .topology()
                .config()
                .ports,
            8
        );
    }

    #[test]
    fn routing_and_path_stats() {
        let network = StringFigureNetwork::generate(100).unwrap();
        let route = network.route(NodeId::new(0), NodeId::new(73)).unwrap();
        assert!(!route.has_loop());
        let stats = network.path_stats();
        assert!(stats.average > 1.0 && stats.average < 7.0);
        let routed = network.average_routed_hops(200, 1).unwrap();
        assert!(routed >= stats.average - 0.5);
        assert!(routed < stats.average + 4.0);
    }

    #[test]
    fn gate_and_ungate_keep_invariants() {
        let mut network = StringFigureNetwork::generate(64).unwrap();
        let delta = network.gate_node(NodeId::new(9)).unwrap();
        assert!(delta.gated);
        network.check_invariants().unwrap();
        assert_eq!(network.num_active_nodes(), 63);
        // Routing avoids the gated node.
        let route = network.route(NodeId::new(0), NodeId::new(40)).unwrap();
        assert!(!route.path.contains(&NodeId::new(9)));
        network.ungate_node(NodeId::new(9)).unwrap();
        network.check_invariants().unwrap();
        assert_eq!(network.num_active_nodes(), 64);
    }

    #[test]
    fn stale_routing_fails_the_invariants() {
        let mut network = StringFigureNetwork::generate(64).unwrap();
        // Change the topology behind the routing's back.
        network.topology.gate_node(NodeId::new(9)).unwrap();
        let error = network.check_invariants().unwrap_err();
        assert!(error.to_string().contains("routing state"), "{error}");
        network
            .routing
            .resync(network.topology.graph(), network.topology.spaces());
        network.check_invariants().unwrap();
    }

    #[test]
    fn routing_storage_bits_equal_the_built_tables() {
        // Routing keeps no tables, so recount what each router's table would
        // store on the live topology and compare, before, during and after
        // gating.
        let built_table_bits = |network: &StringFigureNetwork| -> u64 {
            let topo = network.topology();
            topo.graph()
                .nodes()
                .map(|v| {
                    RoutingTable::build(v, topo.graph(), topo.spaces())
                        .storage_bits(network.num_nodes(), topo.config().ports)
                })
                .sum()
        };
        let mut network = StringFigureBuilder::new(200)
            .ports(8)
            .seed(5)
            .build()
            .unwrap();
        let full = network.routing_storage_bits();
        assert_eq!(full, built_table_bits(&network));
        let victims = [NodeId::new(17), NodeId::new(90), NodeId::new(151)];
        for v in victims {
            network.gate_node(v).unwrap();
        }
        let gated = network.routing_storage_bits();
        assert_eq!(gated, built_table_bits(&network));
        assert_ne!(gated, full, "gating three routers must change the tables");
        for v in victims.into_iter().rev() {
            network.ungate_node(v).unwrap();
        }
        assert_eq!(network.routing_storage_bits(), built_table_bits(&network));
    }

    #[test]
    fn pattern_simulation_through_the_facade() {
        let network = StringFigureNetwork::builder(32)
            .simulation(SimulationConfig {
                max_cycles: 1_500,
                warmup_cycles: 200,
                ..SimulationConfig::default()
            })
            .build()
            .unwrap();
        let stats = network
            .run_pattern(SyntheticPattern::UniformRandom, 0.05, 11)
            .unwrap();
        assert!(stats.delivered > 0);
        assert!(stats.delivery_ratio() > 0.9);
    }

    #[test]
    fn workload_simulation_through_the_facade() {
        let network = StringFigureNetwork::builder(24)
            .simulation(SimulationConfig {
                max_cycles: 1_200,
                warmup_cycles: 100,
                ..SimulationConfig::default()
            })
            .build()
            .unwrap();
        let stats = network
            .run_workload(
                ApplicationModel::Memcached,
                &[NodeId::new(0), NodeId::new(12)],
                5,
            )
            .unwrap();
        assert!(stats.injected > 0);
        assert!(stats.completed_requests > 0);
        assert!(stats.dram_energy_pj > 0.0);
    }

    #[test]
    fn pattern_simulation_works_on_a_downscaled_network() {
        let mut network = StringFigureNetwork::builder(40)
            .simulation(SimulationConfig {
                max_cycles: 1_000,
                warmup_cycles: 100,
                ..SimulationConfig::default()
            })
            .build()
            .unwrap();
        for i in [3usize, 11, 25, 33] {
            network.gate_node(NodeId::new(i)).unwrap();
        }
        let stats = network
            .run_pattern(SyntheticPattern::Tornado, 0.05, 3)
            .unwrap();
        assert!(stats.injected > 0);
        assert!(stats.delivery_ratio() > 0.9);
    }

    #[test]
    fn invalid_builder_configuration_rejected() {
        assert!(StringFigureBuilder::new(1).build().is_err());
        assert!(StringFigureBuilder::new(16).ports(1).build().is_err());
        let bad_sim = StringFigureBuilder::new(16).simulation(SimulationConfig {
            warmup_cycles: 100,
            max_cycles: 50,
            ..SimulationConfig::default()
        });
        assert!(bad_sim.build().is_err());
    }
}
