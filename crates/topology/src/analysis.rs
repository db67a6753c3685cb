//! Graph analysis: shortest paths, path-length statistics, and empirical
//! bisection bandwidth.
//!
//! These routines reproduce the paper's topology-level metrics:
//!
//! * **Average shortest path length** (Figure 5 and Figure 9a) — BFS over the
//!   active subgraph, averaged over all ordered pairs of distinct active
//!   nodes, plus 10th/90th-percentile path lengths.
//! * **Empirical minimum bisection bandwidth** (Section V) — the minimum over
//!   many random equal splits of the active nodes of the maximum flow between
//!   the two halves, with unit-capacity links.

use crate::graph::AdjacencyGraph;
use serde::{Deserialize, Serialize};
use sf_types::{DeterministicRng, NodeId};
use std::collections::VecDeque;

/// Summary statistics of shortest-path lengths over all active node pairs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathLengthStats {
    /// Mean shortest-path length over ordered pairs of distinct nodes.
    pub average: f64,
    /// 10th-percentile shortest-path length.
    pub p10: u32,
    /// Median shortest-path length.
    pub p50: u32,
    /// 90th-percentile shortest-path length.
    pub p90: u32,
    /// Network diameter (longest shortest path).
    pub diameter: u32,
    /// Number of unreachable ordered pairs (0 for a connected network).
    pub unreachable_pairs: usize,
}

/// BFS distances (in hops) from `source` to every node over the active
/// subgraph. Unreachable or inactive nodes get `u32::MAX`.
#[must_use]
pub fn bfs_distances(graph: &AdjacencyGraph, source: NodeId) -> Vec<u32> {
    let n = graph.num_nodes();
    let mut dist = vec![u32::MAX; n];
    if !graph.is_active(source) {
        return dist;
    }
    dist[source.index()] = 0;
    let mut queue = VecDeque::with_capacity(n);
    queue.push_back(source.index());
    while let Some(cur) = queue.pop_front() {
        let d = dist[cur];
        for next in graph.active_neighbors(NodeId::new(cur)) {
            let ni = next.index();
            if dist[ni] == u32::MAX {
                dist[ni] = d + 1;
                queue.push_back(ni);
            }
        }
    }
    dist
}

/// Computes shortest-path statistics over every ordered pair of distinct
/// active nodes.
///
/// For large networks this is `O(N * E)`; 1296 nodes with ~5200 links costs a
/// few million queue operations and completes in milliseconds.
#[must_use]
pub fn path_length_stats(graph: &AdjacencyGraph) -> PathLengthStats {
    let active: Vec<NodeId> = graph.active_nodes().collect();
    let mut lengths: Vec<u32> = Vec::new();
    let mut unreachable = 0usize;
    for &src in &active {
        let dist = bfs_distances(graph, src);
        for &dst in &active {
            if src == dst {
                continue;
            }
            let d = dist[dst.index()];
            if d == u32::MAX {
                unreachable += 1;
            } else {
                lengths.push(d);
            }
        }
    }
    if lengths.is_empty() {
        return PathLengthStats {
            average: 0.0,
            p10: 0,
            p50: 0,
            p90: 0,
            diameter: 0,
            unreachable_pairs: unreachable,
        };
    }
    lengths.sort_unstable();
    let sum: u64 = lengths.iter().map(|&d| u64::from(d)).sum();
    let percentile = |p: f64| -> u32 {
        let idx = ((lengths.len() as f64 - 1.0) * p).round() as usize;
        lengths[idx.min(lengths.len() - 1)]
    };
    PathLengthStats {
        average: sum as f64 / lengths.len() as f64,
        p10: percentile(0.10),
        p50: percentile(0.50),
        p90: percentile(0.90),
        diameter: *lengths.last().expect("non-empty"),
        unreachable_pairs: unreachable,
    }
}

/// Average shortest-path length over all ordered pairs of distinct active
/// nodes (convenience wrapper around [`path_length_stats`]).
#[must_use]
pub fn average_shortest_path_length(graph: &AdjacencyGraph) -> f64 {
    path_length_stats(graph).average
}

/// Result of the empirical bisection-bandwidth measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BisectionBandwidth {
    /// Minimum max-flow (in links) observed over the random bisections.
    pub minimum: u64,
    /// Mean max-flow over the random bisections.
    pub average: f64,
    /// Number of random bisections evaluated.
    pub samples: usize,
}

/// Estimates the empirical minimum bisection bandwidth of the active subgraph.
///
/// Following the paper's methodology, the active nodes are split into two
/// random halves `samples` times; for each split the maximum flow between the
/// halves (unit capacity per link direction) is computed and the minimum and
/// mean over all splits are reported.
#[must_use]
pub fn empirical_bisection_bandwidth(
    graph: &AdjacencyGraph,
    samples: usize,
    rng: &mut DeterministicRng,
) -> BisectionBandwidth {
    let active: Vec<NodeId> = graph.active_nodes().collect();
    if active.len() < 2 || samples == 0 {
        return BisectionBandwidth {
            minimum: 0,
            average: 0.0,
            samples: 0,
        };
    }
    let mut minimum = u64::MAX;
    let mut total = 0u64;
    for _ in 0..samples {
        let mut order = active.clone();
        rng.shuffle(&mut order);
        let half = order.len() / 2;
        let (side_a, side_b) = order.split_at(half);
        let flow = max_flow_between(graph, side_a, side_b);
        minimum = minimum.min(flow);
        total += flow;
    }
    BisectionBandwidth {
        minimum,
        average: total as f64 / samples as f64,
        samples,
    }
}

/// Maximum flow between two node sets with unit-capacity edges
/// (Edmonds–Karp on a super-source/super-sink augmented graph).
#[must_use]
pub fn max_flow_between(graph: &AdjacencyGraph, side_a: &[NodeId], side_b: &[NodeId]) -> u64 {
    let n = graph.num_nodes();
    let source = n;
    let sink = n + 1;
    let total = n + 2;

    // Residual capacities in a dense-ish CSR-like structure: adjacency map of
    // (neighbour, capacity). Unit capacity per direction per physical link;
    // "infinite" capacity from the super source/sink.
    let mut cap: Vec<Vec<(usize, u64)>> = vec![Vec::new(); total];
    let mut index: Vec<std::collections::HashMap<usize, usize>> =
        vec![std::collections::HashMap::new(); total];

    let add_edge = |cap: &mut Vec<Vec<(usize, u64)>>,
                    index: &mut Vec<std::collections::HashMap<usize, usize>>,
                    u: usize,
                    v: usize,
                    c: u64| {
        if let Some(&i) = index[u].get(&v) {
            cap[u][i].1 += c;
        } else {
            index[u].insert(v, cap[u].len());
            cap[u].push((v, c));
        }
        if !index[v].contains_key(&u) {
            index[v].insert(u, cap[v].len());
            cap[v].push((u, 0));
        }
    };

    for e in graph.active_edges() {
        add_edge(&mut cap, &mut index, e.a.index(), e.b.index(), 1);
        add_edge(&mut cap, &mut index, e.b.index(), e.a.index(), 1);
    }
    let huge = graph.num_edges() as u64 + 1;
    for &a in side_a {
        add_edge(&mut cap, &mut index, source, a.index(), huge);
    }
    for &b in side_b {
        add_edge(&mut cap, &mut index, b.index(), sink, huge);
    }

    let mut flow = 0u64;
    loop {
        // BFS for an augmenting path.
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; total];
        let mut visited = vec![false; total];
        visited[source] = true;
        let mut queue = VecDeque::new();
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            if u == sink {
                break;
            }
            for (i, &(v, c)) in cap[u].iter().enumerate() {
                if c > 0 && !visited[v] {
                    visited[v] = true;
                    parent[v] = Some((u, i));
                    queue.push_back(v);
                }
            }
        }
        if !visited[sink] {
            break;
        }
        // Find the bottleneck along the path.
        let mut bottleneck = u64::MAX;
        let mut v = sink;
        while let Some((u, i)) = parent[v] {
            bottleneck = bottleneck.min(cap[u][i].1);
            v = u;
        }
        // Apply the augmentation.
        let mut v = sink;
        while let Some((u, i)) = parent[v] {
            cap[u][i].1 -= bottleneck;
            let back = index[v][&u];
            cap[v][back].1 += bottleneck;
            v = u;
        }
        flow += bottleneck;
    }
    flow
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeKind;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn ring(num: usize) -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new(num);
        for i in 0..num {
            g.add_edge(n(i), n((i + 1) % num), EdgeKind::Structured)
                .unwrap();
        }
        g
    }

    fn line(num: usize) -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new(num);
        for i in 0..num - 1 {
            g.add_edge(n(i), n(i + 1), EdgeKind::Structured).unwrap();
        }
        g
    }

    fn complete(num: usize) -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new(num);
        for i in 0..num {
            for j in i + 1..num {
                g.add_edge(n(i), n(j), EdgeKind::Structured).unwrap();
            }
        }
        g
    }

    #[test]
    fn bfs_on_line() {
        let g = line(5);
        let dist = bfs_distances(&g, n(0));
        assert_eq!(dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, n(4)), vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn bfs_from_inactive_source() {
        let mut g = line(4);
        g.set_active(n(0), false).unwrap();
        let dist = bfs_distances(&g, n(0));
        assert!(dist.iter().all(|&d| d == u32::MAX));
    }

    #[test]
    fn bfs_respects_gated_nodes() {
        let mut g = line(5);
        g.set_active(n(2), false).unwrap();
        let dist = bfs_distances(&g, n(0));
        assert_eq!(dist[4], u32::MAX);
        assert_eq!(dist[1], 1);
    }

    #[test]
    fn ring_average_path_length() {
        // On an even ring of 8, distances from any node are 1,2,3,4,3,2,1 ->
        // average 16/7.
        let g = ring(8);
        let stats = path_length_stats(&g);
        assert!((stats.average - 16.0 / 7.0).abs() < 1e-9);
        assert_eq!(stats.diameter, 4);
        assert_eq!(stats.unreachable_pairs, 0);
        assert_eq!(stats.p50, 2);
    }

    #[test]
    fn complete_graph_has_unit_paths() {
        let g = complete(6);
        let stats = path_length_stats(&g);
        assert_eq!(stats.average, 1.0);
        assert_eq!(stats.diameter, 1);
        assert_eq!(stats.p10, 1);
        assert_eq!(stats.p90, 1);
    }

    #[test]
    fn disconnected_graph_counts_unreachable() {
        let mut g = AdjacencyGraph::new(4);
        g.add_edge(n(0), n(1), EdgeKind::Structured).unwrap();
        g.add_edge(n(2), n(3), EdgeKind::Structured).unwrap();
        let stats = path_length_stats(&g);
        assert_eq!(stats.unreachable_pairs, 8);
        assert_eq!(stats.average, 1.0);
    }

    #[test]
    fn empty_and_single_node_stats() {
        let g = AdjacencyGraph::new(1);
        let stats = path_length_stats(&g);
        assert_eq!(stats.average, 0.0);
        assert_eq!(stats.diameter, 0);
    }

    #[test]
    fn max_flow_on_ring_is_two() {
        // Splitting a ring into two contiguous arcs cuts exactly 2 links.
        let g = ring(8);
        let a: Vec<NodeId> = (0..4).map(n).collect();
        let b: Vec<NodeId> = (4..8).map(n).collect();
        assert_eq!(max_flow_between(&g, &a, &b), 2);
    }

    #[test]
    fn max_flow_on_complete_graph() {
        // K6 split 3/3: each of the 3 left nodes has 3 links to the right.
        let g = complete(6);
        let a: Vec<NodeId> = (0..3).map(n).collect();
        let b: Vec<NodeId> = (3..6).map(n).collect();
        assert_eq!(max_flow_between(&g, &a, &b), 9);
    }

    #[test]
    fn bisection_of_line_is_bounded_by_edge_count() {
        // A line of 10 nodes has 9 edges; any bisection cuts between 1 and 9
        // of them, and the empirical minimum can never exceed the average.
        let g = line(10);
        let mut rng = DeterministicRng::new(1);
        let bb = empirical_bisection_bandwidth(&g, 20, &mut rng);
        assert!((1..=9).contains(&bb.minimum));
        assert!(bb.average >= bb.minimum as f64);
        assert_eq!(bb.samples, 20);
        // The contiguous split is the true minimum bisection: exactly 1 link.
        let left: Vec<NodeId> = (0..5).map(n).collect();
        let right: Vec<NodeId> = (5..10).map(n).collect();
        assert_eq!(max_flow_between(&g, &left, &right), 1);
    }

    #[test]
    fn bisection_handles_degenerate_inputs() {
        let g = AdjacencyGraph::new(1);
        let mut rng = DeterministicRng::new(1);
        let bb = empirical_bisection_bandwidth(&g, 10, &mut rng);
        assert_eq!(bb.samples, 0);
        let g2 = ring(6);
        let bb2 = empirical_bisection_bandwidth(&g2, 0, &mut rng);
        assert_eq!(bb2.samples, 0);
    }

    #[test]
    fn denser_graphs_have_higher_bisection() {
        let mut rng = DeterministicRng::new(2);
        let ring_bb = empirical_bisection_bandwidth(&ring(12), 10, &mut rng);
        let complete_bb = empirical_bisection_bandwidth(&complete(12), 10, &mut rng);
        assert!(complete_bb.minimum > ring_bb.minimum);
    }
}
