//! Pins every forwarding decision of the baseline protocols and of
//! greediest routing.
//!
//! On each graph below, every (at, dest) pair is decided four ways: as a
//! first hop and as a later hop, on an idle network and under a seeded load
//! table. The outcomes (next hop, or the error's text) fold into one FNV-1a
//! digest per graph. The baseline digests and the `storage_entries` counts
//! were recorded from the earlier form of both protocols, whose
//! shortest-path tables kept one next-hop list per (destination, router)
//! pair and whose mesh decisions sorted the improving neighbours, so they
//! pin that today's forms decide alike. The greediest digests, with each
//! network's count of BFS fallbacks, were recorded from the form that folded
//! `f64::min` over a runtime-length slice of coordinates per minimum
//! circular distance.

use sf_routing::{
    GreediestOptions, GreediestRouting, MeshRouting, PortLoadEstimator, RoutingContext,
    RoutingProtocol, ShortestPathRouting, TableLoad, ZeroLoad,
};
use sf_topology::baselines::MemoryNetworkTopology;
use sf_topology::{
    AdjacencyGraph, FlattenedButterfly, JellyfishTopology, MeshTopology, StringFigureTopology,
};
use sf_types::{DeterministicRng, NetworkConfig, NodeId};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// A load in `0.0..1.0` on every directed link, so about half of the ports
/// sit above the adaptive threshold of 0.5.
fn seeded_loads(graph: &AdjacencyGraph, seed: u64) -> TableLoad {
    let mut rng = DeterministicRng::new(seed);
    let mut loads = TableLoad::new();
    for v in graph.nodes() {
        for nb in graph.neighbors(v) {
            loads.set(v, nb, rng.next_f64());
        }
    }
    loads
}

/// Digest of every (at, dest) decision of `protocol` on `graph`.
fn decision_digest(protocol: &dyn RoutingProtocol, graph: &AdjacencyGraph) -> u64 {
    let loads = seeded_loads(graph, 0x5eed);
    let estimators: [&dyn PortLoadEstimator; 2] = [&ZeroLoad, &loads];
    let mut hash = FNV_OFFSET;
    for at in graph.nodes() {
        for dest in graph.nodes() {
            for loads in estimators {
                for first_hop in [true, false] {
                    let ctx = RoutingContext { first_hop };
                    hash = match protocol.next_hop(at, dest, loads, &ctx) {
                        Ok(next) => fold(hash, &(next.index() as u64).to_le_bytes()),
                        Err(error) => fold(hash, error.to_string().as_bytes()),
                    };
                }
            }
        }
    }
    hash
}

/// `graph` with every `stride`-th node from `first` gated.
fn gated(mut graph: AdjacencyGraph, first: usize, stride: usize) -> AdjacencyGraph {
    for v in (first..graph.num_nodes()).step_by(stride) {
        graph.set_active(NodeId::new(v), false).unwrap();
    }
    graph
}

#[test]
fn mesh_decisions_are_pinned() {
    let cases = [
        (
            "DM 60",
            MeshTopology::distributed(60).unwrap(),
            0x5d32_8d8f_d2a0_6d25,
        ),
        (
            "ODM 64",
            MeshTopology::optimized(64).unwrap(),
            0x7722_8f88_0e14_5fc5,
        ),
    ];
    let mut mismatches = Vec::new();
    for (label, mesh, expected) in cases {
        let digest = decision_digest(&MeshRouting::new(&mesh), mesh.graph());
        if digest != expected {
            mismatches.push(format!(
                "{label}: digest {digest:#018x}, pinned {expected:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

#[test]
fn shortest_path_decisions_and_storage_are_pinned() {
    let cases = [
        (
            "FB 64",
            FlattenedButterfly::full(64).unwrap().graph().clone(),
            0x3f6f_6c35_305d_03a5,
            7_168,
        ),
        (
            "AFB 100",
            FlattenedButterfly::adapted(100).unwrap().graph().clone(),
            0x4887_19da_bf38_6dc5,
            18_000,
        ),
        (
            "Jellyfish 200",
            JellyfishTopology::generate(200, 4, 1)
                .unwrap()
                .graph()
                .clone(),
            0xc6b5_409a_b093_c6c5,
            58_930,
        ),
        (
            "gated Jellyfish 120",
            gated(
                JellyfishTopology::generate(120, 4, 3)
                    .unwrap()
                    .graph()
                    .clone(),
                3,
                10,
            ),
            0xa294_4b9f_465b_e8b5,
            16_197,
        ),
    ];
    let mut mismatches = Vec::new();
    for (label, graph, expected_digest, expected_entries) in cases {
        let routing = ShortestPathRouting::new(&graph, "pinned");
        let digest = decision_digest(&routing, &graph);
        let entries = routing.storage_entries();
        if (digest, entries) != (expected_digest, expected_entries) {
            mismatches.push(format!(
                "{label}: digest {digest:#018x}, {entries} entries; \
                 pinned {expected_digest:#018x}, {expected_entries} entries"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

/// A generated String Figure network and its greediest routing.
fn string_figure(
    nodes: usize,
    ports: usize,
    seed: u64,
    adaptive: bool,
) -> (StringFigureTopology, GreediestRouting) {
    let config = NetworkConfig::new(nodes, ports).unwrap().with_seed(seed);
    let topo = StringFigureTopology::generate(&config).unwrap();
    let routing = GreediestRouting::with_options(&topo, GreediestOptions { adaptive });
    (topo, routing)
}

#[test]
fn greediest_decisions_are_pinned() {
    let graph_of = |(topo, routing): (StringFigureTopology, _)| (topo.graph().clone(), routing);
    // Built on the whole network, then resynced once every 16th node is gated.
    let (mut gated, mut resynced) = string_figure(160, 8, 6, true);
    for v in (5..160).step_by(16) {
        gated.gate_node(NodeId::new(v)).unwrap();
    }
    resynced.resync(gated.graph(), gated.spaces());
    // Every third link cut outside the topology's own reconfiguration: some
    // routers have no improving neighbour and take the BFS fallback.
    let (topo, mut cut_routing) = string_figure(100, 4, 7, true);
    let mut cut = topo.graph().clone();
    for edge in topo.graph().edges().iter().step_by(3) {
        cut.remove_edge(edge.a, edge.b);
    }
    cut_routing.resync(&cut, topo.spaces());
    // Ports 2 to 10 give 1 to 5 virtual spaces. S2 routes without
    // first-hop adaptivity.
    let cases = [
        (
            "SF 64 p2",
            graph_of(string_figure(64, 2, 1, true)),
            0xb64d_0cb4_5b65_1c64,
            0,
        ),
        (
            "SF 100 p4",
            graph_of(string_figure(100, 4, 2, true)),
            0xea43_db0f_0f84_2f6e,
            0,
        ),
        (
            "S2 100 p4",
            graph_of(string_figure(100, 4, 2, false)),
            0x7c36_1412_8de9_03e5,
            0,
        ),
        (
            "SF 120 p6",
            graph_of(string_figure(120, 6, 3, true)),
            0xb1d6_ea34_22e9_b928,
            0,
        ),
        (
            "SF 200 p8",
            graph_of(string_figure(200, 8, 4, true)),
            0xa466_ff49_66bf_de60,
            0,
        ),
        (
            "S2 200 p8",
            graph_of(string_figure(200, 8, 4, false)),
            0x5594_9577_8a33_18a5,
            0,
        ),
        (
            "SF 150 p10",
            graph_of(string_figure(150, 10, 5, true)),
            0x4851_ea5c_6d61_7f55,
            0,
        ),
        (
            "gated SF 160 p8, resynced",
            graph_of((gated, resynced)),
            0x3cc3_d91e_07a7_3f26,
            0,
        ),
        (
            "SF 100 p4, links cut",
            (cut, cut_routing),
            0xe923_b451_643e_8aaa,
            6_360,
        ),
    ];
    let mut mismatches = Vec::new();
    for (label, (graph, routing), expected_digest, expected_fallbacks) in cases {
        let digest = decision_digest(&routing, &graph);
        let fallbacks = routing.fallback_count();
        if (digest, fallbacks) != (expected_digest, expected_fallbacks) {
            mismatches.push(format!(
                "{label}: digest {digest:#018x}, {fallbacks} fallbacks; \
                 pinned {expected_digest:#018x}, {expected_fallbacks} fallbacks"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
