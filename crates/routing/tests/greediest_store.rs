//! Reference equivalence of `GreediestRouting`'s flat forwarding store.
//!
//! The reference below is the direct form of the greediest algorithm: per
//! router, the candidate lists of `RoutingTable::build(..).candidates()`
//! with one heap-allocated coordinate vector each, and every improving
//! neighbour scored by a scan of the router's whole two-hop list. On
//! generated networks of 8–200 nodes with 4, 6 or 8 ports, with first-hop
//! adaptivity on and off, both must make the same `next_hop`
//! decisions (first hop or not, idle or loaded ports), pick the same virtual
//! channels, report the same MDs, and count the same BFS fallbacks and table
//! rows, before and after a random subset of nodes is gated and the routing
//! is resynced, and on the graph with every third link cut.

use std::cell::Cell;
use std::collections::VecDeque;

use sf_routing::protocol::ADAPTIVE_THRESHOLD;
use sf_routing::{
    GreediestOptions, GreediestRouting, HopCount, PortLoadEstimator, RoutingContext,
    RoutingProtocol, RoutingTable, TableLoad, ZeroLoad,
};
use sf_topology::{AdjacencyGraph, StringFigureTopology, VirtualSpaces};
use sf_types::{
    minimum_circular_distance, CoordinateVector, DeterministicRng, NetworkConfig, NodeId, SfError,
    SfResult, VirtualChannelId,
};

/// The greediest protocol over per-router candidate lists.
struct Reference {
    options: GreediestOptions,
    /// Per router: one-hop neighbours in node-id order with their coordinates.
    one_hop: Vec<Vec<(NodeId, CoordinateVector)>>,
    /// Per router: two-hop targets as (via, target, target coordinates).
    two_hop: Vec<Vec<(NodeId, NodeId, CoordinateVector)>>,
    coordinates: Vec<CoordinateVector>,
    active: Vec<bool>,
    adjacency: Vec<Vec<NodeId>>,
    /// Per router: rows of its routing table.
    table_lens: Vec<usize>,
    fallbacks: Cell<u64>,
}

impl Reference {
    fn new(graph: &AdjacencyGraph, spaces: &VirtualSpaces, options: GreediestOptions) -> Self {
        let n = graph.num_nodes();
        let mut one_hop = Vec::with_capacity(n);
        let mut two_hop = Vec::with_capacity(n);
        let mut table_lens = Vec::with_capacity(n);
        for v in graph.nodes() {
            let table = RoutingTable::build(v, graph, spaces);
            table_lens.push(table.len());
            let mut one = Vec::new();
            let mut two = Vec::new();
            for cand in table.candidates() {
                match cand.hop {
                    HopCount::One => one.push((cand.node, cand.coordinates)),
                    HopCount::Two => two.push((cand.via, cand.node, cand.coordinates)),
                }
            }
            one.sort_by_key(|(node, _)| *node);
            one_hop.push(one);
            two_hop.push(two);
        }
        Self {
            options,
            one_hop,
            two_hop,
            coordinates: spaces.all_coordinates().to_vec(),
            active: graph.nodes().map(|v| graph.is_active(v)).collect(),
            adjacency: graph.nodes().map(|v| graph.active_neighbors(v)).collect(),
            table_lens,
            fallbacks: Cell::new(0),
        }
    }

    fn md(&self, a: NodeId, b: NodeId) -> f64 {
        minimum_circular_distance(&self.coordinates[a.index()], &self.coordinates[b.index()])
    }

    fn check(&self, node: NodeId) -> SfResult<()> {
        if node.index() >= self.coordinates.len() {
            return Err(SfError::UnknownNode {
                node: node.index(),
                network_size: self.coordinates.len(),
            });
        }
        if !self.active[node.index()] {
            return Err(SfError::NodeOffline { node: node.index() });
        }
        Ok(())
    }

    fn bfs_next_hop(&self, at: NodeId, dest: NodeId) -> SfResult<NodeId> {
        let n = self.adjacency.len();
        let mut prev: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        visited[at.index()] = true;
        let mut queue = VecDeque::new();
        queue.push_back(at.index());
        while let Some(cur) = queue.pop_front() {
            if cur == dest.index() {
                let mut hop = cur;
                while let Some(p) = prev[hop] {
                    if p == at.index() {
                        return Ok(NodeId::new(hop));
                    }
                    hop = p;
                }
                return Ok(NodeId::new(hop));
            }
            for next in &self.adjacency[cur] {
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

    fn next_hop(
        &self,
        at: NodeId,
        dest: NodeId,
        loads: &dyn PortLoadEstimator,
        ctx: &RoutingContext,
    ) -> SfResult<NodeId> {
        self.check(at)?;
        self.check(dest)?;
        if at == dest {
            return Ok(dest);
        }
        let dest_coords = &self.coordinates[dest.index()];
        let current_md = minimum_circular_distance(&self.coordinates[at.index()], dest_coords);
        let one_hop = &self.one_hop[at.index()];
        if one_hop
            .iter()
            .any(|(node, _)| *node == dest && self.active[dest.index()])
        {
            return Ok(dest);
        }
        let score = |w: NodeId, own_md: f64| -> f64 {
            let mut best = own_md;
            for (via, target, coords) in &self.two_hop[at.index()] {
                if *via == w && self.active[target.index()] {
                    let md = if *target == dest {
                        0.0
                    } else {
                        minimum_circular_distance(coords, dest_coords)
                    };
                    if md < best {
                        best = md;
                    }
                }
            }
            best
        };
        let adaptive = self.options.adaptive && ctx.first_hop;
        let mut best_overall: Option<(NodeId, f64)> = None;
        let mut best_under: Option<(NodeId, f64)> = None;
        for (node, coords) in one_hop {
            if !self.active[node.index()] {
                continue;
            }
            let md = minimum_circular_distance(coords, dest_coords);
            if md >= current_md {
                continue;
            }
            let scored = score(*node, md);
            if best_overall.is_none_or(|(_, best)| scored < best) {
                best_overall = Some((*node, scored));
            }
            if adaptive
                && loads.load(at, *node) < ADAPTIVE_THRESHOLD
                && best_under.is_none_or(|(_, best)| scored < best)
            {
                best_under = Some((*node, scored));
            }
        }
        let Some((overall, _)) = best_overall else {
            self.fallbacks.set(self.fallbacks.get() + 1);
            return self.bfs_next_hop(at, dest);
        };
        if let Some((under, _)) = best_under {
            return Ok(under);
        }
        Ok(overall)
    }

    fn virtual_channel(&self, at: NodeId, dest: NodeId) -> VirtualChannelId {
        let at_coords = &self.coordinates[at.index()];
        let dest_coords = &self.coordinates[dest.index()];
        let (space, _) = at_coords.closest_space(dest_coords);
        if dest_coords.coordinate(space) >= at_coords.coordinate(space) {
            VirtualChannelId::UP
        } else {
            VirtualChannelId::DOWN
        }
    }
}

/// Both option sets: first-hop adaptivity off and on.
fn all_options() -> [GreediestOptions; 2] {
    [false, true].map(|adaptive| GreediestOptions { adaptive })
}

/// A load on every directed link, uniform in `[0, 1)`: roughly half of the
/// ports sit above the 0.5 adaptive threshold.
fn random_loads(graph: &AdjacencyGraph, rng: &mut DeterministicRng) -> TableLoad {
    let mut loads = TableLoad::new();
    for v in graph.nodes() {
        for w in graph.active_neighbors(v) {
            loads.set(v, w, rng.next_f64());
        }
    }
    loads
}

/// Seeded source/destination pairs (any node, gated ones included).
fn sample_pairs(nodes: usize, count: usize, rng: &mut DeterministicRng) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|_| {
            (
                NodeId::new(rng.next_index(nodes)),
                NodeId::new(rng.next_index(nodes)),
            )
        })
        .collect()
}

/// Asserts that `store` and `reference` agree on every router's table row
/// count and on every sampled pair: the decision with first_hop true and
/// false under idle and loaded ports, the virtual channel, the MD, and the
/// BFS fallback count. Returns how many fallbacks the pairs took.
fn assert_agree(
    store: &GreediestRouting,
    reference: &Reference,
    pairs: &[(NodeId, NodeId)],
    loads: &TableLoad,
    label: &str,
) -> u64 {
    for (v, &len) in reference.table_lens.iter().enumerate() {
        assert_eq!(
            store.table_len(NodeId::new(v)),
            len,
            "{label}: table_len {v}"
        );
    }
    let fallbacks_before = store.fallback_count();
    let reference_before = reference.fallbacks.get();
    for &(at, dest) in pairs {
        for first_hop in [true, false] {
            let ctx = RoutingContext { first_hop };
            for (load_name, estimator) in [
                ("zero", &ZeroLoad as &dyn PortLoadEstimator),
                ("table", loads as &dyn PortLoadEstimator),
            ] {
                assert_eq!(
                    store.next_hop(at, dest, estimator, &ctx),
                    reference.next_hop(at, dest, estimator, &ctx),
                    "{label}: next_hop {at}->{dest} first_hop={first_hop} loads={load_name}"
                );
            }
        }
        if reference.check(at).is_ok() && reference.check(dest).is_ok() {
            assert_eq!(
                store.virtual_channel(at, dest, dest),
                reference.virtual_channel(at, dest),
                "{label}: virtual_channel {at}->{dest}"
            );
            assert_eq!(
                store.md(at, dest).to_bits(),
                reference.md(at, dest).to_bits(),
                "{label}: md {at}->{dest}"
            );
        }
    }
    let fallbacks = store.fallback_count() - fallbacks_before;
    assert_eq!(
        fallbacks,
        reference.fallbacks.get() - reference_before,
        "{label}: fallback count"
    );
    fallbacks
}

#[test]
fn flat_store_matches_the_candidate_list_reference() {
    let mut fallbacks = 0;
    for case in 0..12u64 {
        let mut rng = DeterministicRng::new(0x5f0e_57a1 ^ case);
        let nodes = 8 + rng.next_index(193);
        let ports = [4, 6, 8][rng.next_index(3)];
        let seed = rng.next_u64();
        let config = NetworkConfig::new(nodes, ports).unwrap().with_seed(seed);
        let mut topo = StringFigureTopology::generate(&config).unwrap();
        let pairs = sample_pairs(nodes, 48, &mut rng);
        let loads = random_loads(topo.graph(), &mut rng);

        // Gate a random subset of up to a tenth of the nodes.
        let mut victims: Vec<NodeId> = topo.graph().nodes().collect();
        rng.shuffle(&mut victims);
        victims.truncate(1 + rng.next_index((nodes / 10).max(1)));
        let mut gated_topo = topo.clone();
        victims.retain(|&v| gated_topo.gate_node(v).is_ok());
        assert!(!victims.is_empty(), "case {case}: no node could be gated");
        let gated_loads = random_loads(gated_topo.graph(), &mut rng);

        // Links cut outside the topology's own reconfiguration can leave a
        // router without an improving neighbour: the BFS fallback.
        let mut cut = topo.graph().clone();
        for edge in topo.graph().edges().iter().step_by(3) {
            cut.remove_edge(edge.a, edge.b);
        }

        for options in all_options() {
            let label = format!("case {case} N={nodes} p={ports} {options:?}");
            let mut store = GreediestRouting::from_parts(topo.graph(), topo.spaces(), options);
            let reference = Reference::new(topo.graph(), topo.spaces(), options);
            fallbacks += assert_agree(&store, &reference, &pairs, &loads, &label);

            store.resync(gated_topo.graph(), gated_topo.spaces());
            let gated_reference = Reference::new(gated_topo.graph(), gated_topo.spaces(), options);
            fallbacks += assert_agree(
                &store,
                &gated_reference,
                &pairs,
                &gated_loads,
                &format!("{label} gated {victims:?}"),
            );

            store.resync(&cut, topo.spaces());
            let cut_reference = Reference::new(&cut, topo.spaces(), options);
            fallbacks += assert_agree(
                &store,
                &cut_reference,
                &pairs,
                &loads,
                &format!("{label} cut"),
            );
        }

        // Gate, resync, ungate, resync: the same decisions as a fresh build
        // on the restored topology.
        for options in all_options() {
            let label = format!("case {case} N={nodes} p={ports} {options:?} restored");
            let mut store = GreediestRouting::from_parts(topo.graph(), topo.spaces(), options);
            for &v in &victims {
                topo.gate_node(v).unwrap();
            }
            store.resync(topo.graph(), topo.spaces());
            for &v in victims.iter().rev() {
                topo.ungate_node(v).unwrap();
            }
            store.resync(topo.graph(), topo.spaces());
            let fresh = GreediestRouting::from_parts(topo.graph(), topo.spaces(), options);
            for &(at, dest) in &pairs {
                for first_hop in [true, false] {
                    let ctx = RoutingContext { first_hop };
                    for estimator in [&ZeroLoad as &dyn PortLoadEstimator, &loads] {
                        assert_eq!(
                            store.next_hop(at, dest, estimator, &ctx),
                            fresh.next_hop(at, dest, estimator, &ctx),
                            "{label}: next_hop {at}->{dest} first_hop={first_hop}"
                        );
                    }
                }
                assert_eq!(
                    store.virtual_channel(at, dest, dest),
                    fresh.virtual_channel(at, dest, dest),
                    "{label}: virtual_channel {at}->{dest}"
                );
            }
            for v in topo.graph().nodes() {
                assert_eq!(store.table_len(v), fresh.table_len(v), "{label}: {v}");
            }
        }
    }
    // The sample must reach the BFS path too.
    assert!(fallbacks > 0, "no sampled decision took the BFS fallback");
}
