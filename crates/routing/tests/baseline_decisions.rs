//! Pins every forwarding decision of the baseline protocols.
//!
//! On each graph below, every (at, dest) pair is decided four ways: as a
//! first hop and as a later hop, on an idle network and under a seeded load
//! table. The outcomes (next hop, or the error's text) fold into one FNV-1a
//! digest per graph. The digests and the `storage_entries` counts were
//! recorded from the earlier form of both protocols, whose shortest-path
//! tables kept one next-hop list per (destination, router) pair and whose
//! mesh decisions sorted the improving neighbours, so they pin that today's
//! forms decide alike.

use sf_routing::{
    MeshRouting, PortLoadEstimator, RoutingContext, RoutingProtocol, ShortestPathRouting,
    TableLoad, ZeroLoad,
};
use sf_topology::baselines::MemoryNetworkTopology;
use sf_topology::{AdjacencyGraph, FlattenedButterfly, JellyfishTopology, MeshTopology};
use sf_types::{DeterministicRng, NodeId};

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
