//! Uniform construction of String Figure and every baseline network design
//! evaluated in the paper (Figure 8 / Table II).
//!
//! A [`NetworkInstance`] bundles a topology with the routing protocol the
//! paper pairs it with, so experiment drivers can sweep over
//! [`TopologyKind::ALL`] without caring which concrete types are involved.
//! The routing is built on first use and shared by everything the instance
//! routes: its hop samples and every simulator it makes.
//!
//! | kind | topology | routing | ports (Fig. 8) |
//! |------|----------|---------|----------------|
//! | `DM`  | distributed mesh            | greedy + adaptive        | 4 |
//! | `ODM` | mesh with express links     | greedy + adaptive        | 8 |
//! | `FB`  | full 2D flattened butterfly | minimal + adaptive       | grows with N |
//! | `AFB` | partitioned FB              | minimal + adaptive       | grows with N (≈half of FB) |
//! | `S2`  | multi-space random rings    | greediest, non-adaptive  | 4 / 8 |
//! | `SF`  | String Figure               | greediest + adaptive     | 4 / 8 |
//! | `Jellyfish` | random regular graph  | k-shortest-path table    | 4 / 8 |

use sf_netsim::NetworkSimulator;
use sf_routing::{
    trace_route, GreediestOptions, GreediestRouting, MeshRouting, RoutingProtocol,
    ShortestPathRouting,
};
use sf_topology::analysis;
use sf_topology::baselines::MemoryNetworkTopology;
use sf_topology::{
    AdjacencyGraph, FlattenedButterfly, JellyfishTopology, MeshTopology, S2Topology,
    StringFigureTopology,
};
use sf_types::{DeterministicRng, NetworkConfig, NodeId, SfResult, SimulationConfig, SystemConfig};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The network designs compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TopologyKind {
    /// Distributed mesh (DM).
    DistributedMesh,
    /// Optimized distributed mesh with express links (ODM).
    OptimizedMesh,
    /// Full 2D flattened butterfly (FB).
    FlattenedButterfly,
    /// Adapted (partitioned) flattened butterfly (AFB).
    AdaptedFlattenedButterfly,
    /// Space Shuffle ideal baseline (S2-ideal).
    SpaceShuffle,
    /// String Figure (SF).
    StringFigure,
    /// Jellyfish random regular graph (used in the Figure 5 comparison).
    Jellyfish,
}

impl TopologyKind {
    /// The six designs of Figures 9–12, in the paper's plotting order.
    pub const ALL: [Self; 6] = [
        Self::DistributedMesh,
        Self::OptimizedMesh,
        Self::FlattenedButterfly,
        Self::AdaptedFlattenedButterfly,
        Self::SpaceShuffle,
        Self::StringFigure,
    ];

    /// Short name used in tables (matches the paper's abbreviations).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::DistributedMesh => "DM",
            Self::OptimizedMesh => "ODM",
            Self::FlattenedButterfly => "FB",
            Self::AdaptedFlattenedButterfly => "AFB",
            Self::SpaceShuffle => "S2",
            Self::StringFigure => "SF",
            Self::Jellyfish => "Jellyfish",
        }
    }

    /// The design whose [`name`](Self::name) is `name`, if any — the inverse
    /// of the table rendering, used when restoring checkpointed rows.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        [
            Self::DistributedMesh,
            Self::OptimizedMesh,
            Self::FlattenedButterfly,
            Self::AdaptedFlattenedButterfly,
            Self::SpaceShuffle,
            Self::StringFigure,
            Self::Jellyfish,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }

    /// Whether the design needs high-radix routers whose port count grows
    /// with network scale (Table II).
    #[must_use]
    pub fn requires_high_radix(self) -> bool {
        matches!(
            self,
            Self::FlattenedButterfly | Self::AdaptedFlattenedButterfly
        )
    }

    /// Whether the design supports reconfigurable (elastic) network scaling
    /// (Table II — only String Figure does).
    #[must_use]
    pub fn supports_reconfiguration(self) -> bool {
        matches!(self, Self::StringFigure)
    }

    /// Router ports used at a given network scale, following Figure 8's
    /// configuration table for the fixed-radix designs.
    #[must_use]
    pub fn figure8_ports(self, nodes: usize) -> usize {
        match self {
            Self::DistributedMesh => 4,
            Self::OptimizedMesh => 8,
            Self::SpaceShuffle | Self::StringFigure | Self::Jellyfish => {
                if nodes <= 128 {
                    4
                } else {
                    8
                }
            }
            // FB/AFB radix depends on the grid; reported after construction.
            Self::FlattenedButterfly | Self::AdaptedFlattenedButterfly => 0,
        }
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The concrete topology behind a [`NetworkInstance`].
#[derive(Debug, Clone)]
enum TopologyInstance {
    Mesh(MeshTopology),
    Butterfly(FlattenedButterfly),
    SpaceShuffle(S2Topology),
    StringFigure(StringFigureTopology),
    Jellyfish(JellyfishTopology),
}

/// A topology plus the routing protocol the paper evaluates it with.
#[derive(Debug)]
pub struct NetworkInstance {
    kind: TopologyKind,
    nodes: usize,
    seed: u64,
    topology: TopologyInstance,
    /// Built on first use by `routing()`.
    routing: OnceLock<Arc<dyn RoutingProtocol>>,
}

impl NetworkInstance {
    /// Builds the network design `kind` at scale `nodes` with the given seed.
    ///
    /// # Errors
    ///
    /// Propagates topology construction errors (e.g. too few nodes).
    pub fn build(kind: TopologyKind, nodes: usize, seed: u64) -> SfResult<Self> {
        // Timed here rather than at the cache front-ends so every real
        // construction is visible whichever cache (or none) requested it;
        // cache hits never reach this function.
        let _span = sf_obs::span::Tracer::global().span("topology_build");
        let ports = kind.figure8_ports(nodes);
        let topology = match kind {
            TopologyKind::DistributedMesh => {
                TopologyInstance::Mesh(MeshTopology::distributed(nodes)?)
            }
            TopologyKind::OptimizedMesh => TopologyInstance::Mesh(MeshTopology::optimized(nodes)?),
            TopologyKind::FlattenedButterfly => {
                TopologyInstance::Butterfly(FlattenedButterfly::full(nodes)?)
            }
            TopologyKind::AdaptedFlattenedButterfly => {
                TopologyInstance::Butterfly(FlattenedButterfly::adapted(nodes)?)
            }
            TopologyKind::SpaceShuffle => {
                let config = NetworkConfig {
                    nodes,
                    ports,
                    seed,
                    ..NetworkConfig::default()
                };
                TopologyInstance::SpaceShuffle(S2Topology::generate(&config)?)
            }
            TopologyKind::StringFigure => {
                let config = NetworkConfig {
                    nodes,
                    ports,
                    seed,
                    ..NetworkConfig::default()
                };
                TopologyInstance::StringFigure(StringFigureTopology::generate(&config)?)
            }
            TopologyKind::Jellyfish => {
                TopologyInstance::Jellyfish(JellyfishTopology::generate(nodes, ports, seed)?)
            }
        };
        Ok(Self {
            kind,
            nodes,
            seed,
            topology,
            routing: OnceLock::new(),
        })
    }

    /// The design kind of this instance.
    #[must_use]
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of memory nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// The live link graph.
    #[must_use]
    pub fn graph(&self) -> &AdjacencyGraph {
        match &self.topology {
            TopologyInstance::Mesh(t) => t.graph(),
            TopologyInstance::Butterfly(t) => t.graph(),
            TopologyInstance::SpaceShuffle(t) => t.graph(),
            TopologyInstance::StringFigure(t) => t.graph(),
            TopologyInstance::Jellyfish(t) => t.graph(),
        }
    }

    /// Router ports this design needs at this scale (for FB/AFB this is the
    /// actual constructed radix).
    #[must_use]
    pub fn router_ports(&self) -> usize {
        match &self.topology {
            TopologyInstance::Mesh(t) => t.router_ports(),
            TopologyInstance::Butterfly(t) => t.router_ports(),
            TopologyInstance::SpaceShuffle(t) => t.router_ports(),
            TopologyInstance::StringFigure(t) => t.router_ports(),
            TopologyInstance::Jellyfish(t) => t.router_ports(),
        }
    }

    /// The String Figure topology behind this instance, when applicable (used
    /// by reconfiguration experiments).
    #[must_use]
    pub fn as_string_figure(&self) -> Option<&StringFigureTopology> {
        match &self.topology {
            TopologyInstance::StringFigure(t) => Some(t),
            _ => None,
        }
    }

    /// The routing protocol the paper pairs with this design, built on the
    /// first call and shared by every later one. Building an instance does
    /// not build it, so studies that never route never pay for it.
    fn routing(&self) -> &Arc<dyn RoutingProtocol> {
        self.routing.get_or_init(|| match &self.topology {
            TopologyInstance::Mesh(t) => Arc::new(MeshRouting::new(t)),
            TopologyInstance::Butterfly(t) => {
                Arc::new(ShortestPathRouting::new(t.graph(), "minimal-adaptive"))
            }
            TopologyInstance::SpaceShuffle(t) => Arc::new(GreediestRouting::from_parts(
                t.graph(),
                t.spaces(),
                GreediestOptions {
                    adaptive: false,
                    ..GreediestOptions::default()
                },
            )),
            TopologyInstance::StringFigure(t) => Arc::new(GreediestRouting::new(t)),
            TopologyInstance::Jellyfish(t) => {
                Arc::new(ShortestPathRouting::new(t.graph(), "k-shortest-path"))
            }
        })
    }

    /// Average shortest-path length of the topology (graph metric).
    #[must_use]
    pub fn average_shortest_path(&self) -> f64 {
        analysis::average_shortest_path_length(self.graph())
    }

    /// Average routed hop count over a pseudo-random sample of node pairs,
    /// using the design's own routing protocol.
    ///
    /// # Errors
    ///
    /// Propagates routing errors.
    pub fn average_routed_hops(&self, samples: usize) -> SfResult<f64> {
        let protocol = self.routing();
        let mut rng = DeterministicRng::new(self.seed ^ 0xbeef);
        let mut total = 0usize;
        let mut count = 0usize;
        for _ in 0..samples.max(1) {
            let a = NodeId::new(rng.next_index(self.nodes));
            let b = NodeId::new(rng.next_index(self.nodes));
            if a == b {
                continue;
            }
            total += trace_route(protocol.as_ref(), a, b, self.nodes)?.hops();
            count += 1;
        }
        Ok(if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        })
    }

    /// Creates a cycle-level simulator for this design, routing through the
    /// instance's shared routing build.
    ///
    /// # Errors
    ///
    /// Propagates simulator configuration errors.
    pub fn make_simulator(
        &self,
        system: SystemConfig,
        config: SimulationConfig,
    ) -> SfResult<NetworkSimulator> {
        let routing = Box::new(Arc::clone(self.routing()));
        NetworkSimulator::new(self.graph().clone(), routing, system, config)
    }

    /// Empirical minimum bisection bandwidth of this design (Section V's
    /// methodology).
    #[must_use]
    pub fn bisection_bandwidth(&self, samples: usize, seed: u64) -> analysis::BisectionBandwidth {
        let mut rng = DeterministicRng::new(seed);
        analysis::empirical_bisection_bandwidth(self.graph(), samples, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_build_and_route_at_64_nodes() {
        for kind in TopologyKind::ALL {
            let instance = NetworkInstance::build(kind, 64, 1).unwrap();
            assert_eq!(instance.num_nodes(), 64);
            assert!(instance.graph().is_connected(), "{kind}");
            let hops = instance.average_routed_hops(100).unwrap();
            assert!((1.0..20.0).contains(&hops), "{kind}: {hops}");
            assert!(instance.router_ports() >= 4, "{kind}");
        }
    }

    #[test]
    fn jellyfish_builds_too() {
        let instance = NetworkInstance::build(TopologyKind::Jellyfish, 100, 2).unwrap();
        assert!(instance.graph().is_connected());
        assert_eq!(instance.kind(), TopologyKind::Jellyfish);
        assert!(instance.average_shortest_path() < 5.0);
    }

    #[test]
    fn string_figure_accessor() {
        let sf = NetworkInstance::build(TopologyKind::StringFigure, 32, 1).unwrap();
        assert!(sf.as_string_figure().is_some());
        let mesh = NetworkInstance::build(TopologyKind::DistributedMesh, 32, 1).unwrap();
        assert!(mesh.as_string_figure().is_none());
    }

    #[test]
    fn fb_radix_grows_but_sf_stays_constant() {
        let fb_small = NetworkInstance::build(TopologyKind::FlattenedButterfly, 64, 1).unwrap();
        let fb_large = NetworkInstance::build(TopologyKind::FlattenedButterfly, 256, 1).unwrap();
        assert!(fb_large.router_ports() > fb_small.router_ports());
        let sf_small = NetworkInstance::build(TopologyKind::StringFigure, 64, 1).unwrap();
        let sf_large = NetworkInstance::build(TopologyKind::StringFigure, 256, 1).unwrap();
        assert_eq!(sf_small.router_ports(), 4);
        assert_eq!(sf_large.router_ports(), 8);
    }

    #[test]
    fn mesh_paths_are_longest_at_scale() {
        let mesh = NetworkInstance::build(TopologyKind::DistributedMesh, 256, 1).unwrap();
        let sf = NetworkInstance::build(TopologyKind::StringFigure, 256, 1).unwrap();
        assert!(mesh.average_shortest_path() > 2.0 * sf.average_shortest_path());
    }

    #[test]
    fn table2_feature_matrix() {
        assert!(!TopologyKind::DistributedMesh.requires_high_radix());
        assert!(TopologyKind::FlattenedButterfly.requires_high_radix());
        assert!(TopologyKind::AdaptedFlattenedButterfly.requires_high_radix());
        assert!(!TopologyKind::SpaceShuffle.supports_reconfiguration());
        assert!(TopologyKind::StringFigure.supports_reconfiguration());
        assert_eq!(TopologyKind::ALL.len(), 6);
        assert_eq!(TopologyKind::StringFigure.to_string(), "SF");
    }

    #[test]
    fn figure8_port_table() {
        assert_eq!(TopologyKind::StringFigure.figure8_ports(64), 4);
        assert_eq!(TopologyKind::StringFigure.figure8_ports(1296), 8);
        assert_eq!(TopologyKind::SpaceShuffle.figure8_ports(512), 8);
        assert_eq!(TopologyKind::DistributedMesh.figure8_ports(1024), 4);
        assert_eq!(TopologyKind::OptimizedMesh.figure8_ports(1024), 8);
    }

    #[test]
    fn bisection_bandwidth_is_positive() {
        let sf = NetworkInstance::build(TopologyKind::StringFigure, 64, 3).unwrap();
        let bb = sf.bisection_bandwidth(10, 1);
        assert!(bb.minimum > 0);
        assert!(bb.average >= bb.minimum as f64);
    }

    #[test]
    fn simulators_run_for_every_kind() {
        for kind in TopologyKind::ALL {
            let instance = NetworkInstance::build(kind, 36, 1).unwrap();
            let mut sim = instance
                .make_simulator(
                    SystemConfig::default(),
                    SimulationConfig {
                        max_cycles: 600,
                        warmup_cycles: 100,
                        ..SimulationConfig::default()
                    },
                )
                .unwrap();
            let mut traffic = sf_netsim::UniformRandomTraffic::new(36, 0.03, 5);
            let stats = sim.run(&mut traffic).unwrap();
            assert!(stats.delivered > 0, "{kind}");
        }
    }

    #[test]
    fn routing_is_built_on_first_use_and_shared() {
        let instance = NetworkInstance::build(TopologyKind::FlattenedButterfly, 36, 1).unwrap();
        assert!(instance.routing.get().is_none(), "build must not route");
        let config = SimulationConfig {
            max_cycles: 600,
            warmup_cycles: 100,
            ..SimulationConfig::default()
        };
        let first = instance
            .make_simulator(SystemConfig::default(), config.clone())
            .unwrap();
        let second = instance
            .make_simulator(SystemConfig::default(), config)
            .unwrap();
        let routing = instance.routing.get().expect("built by make_simulator");
        // The instance and both simulators hold the one build.
        assert_eq!(Arc::strong_count(routing), 3);
        drop((first, second));
        instance.average_routed_hops(20).unwrap();
        assert!(Arc::ptr_eq(routing, instance.routing()));
        assert_eq!(Arc::strong_count(routing), 1);
    }
}
