//! Virtual spaces: random coordinate assignment and ring arithmetic.
//!
//! String Figure logically distributes all memory nodes into `L = floor(p/2)`
//! *virtual spaces*. Within each space every node receives a coordinate on the
//! unit ring; sorting nodes by that coordinate yields the space's *ring*, and
//! adjacent nodes on each ring become physically connected (see
//! [`crate::stringfigure`]).
//!
//! This module owns:
//!
//! * **Balanced coordinate generation** ([`VirtualSpaces::generate`]) — the
//!   paper's `BalancedCoordinateGen()` (Figure 4b). We implement it as
//!   max-min-spacing sampling: each node draws several candidate coordinates
//!   and keeps the one farthest (in circular distance) from every coordinate
//!   already assigned in that space, which avoids the clumping that plain
//!   uniform sampling produces and therefore balances ring-segment lengths.
//! * **Ring arithmetic** — successor/predecessor and k-hop clockwise
//!   neighbours in a given space, used both for topology construction and for
//!   shortcut generation.

use serde::{Deserialize, Serialize};
use sf_types::{
    circular_distance, Coordinate, CoordinateVector, DeterministicRng, NodeId, SfError, SfResult,
    SpaceId,
};

/// Per-space coordinates and ring orderings for all memory nodes of a network.
///
/// # Examples
///
/// ```
/// use sf_topology::spaces::VirtualSpaces;
/// use sf_types::{DeterministicRng, NodeId, SpaceId};
///
/// let mut rng = DeterministicRng::new(1);
/// let spaces = VirtualSpaces::generate(9, 2, 8, &mut rng);
/// assert_eq!(spaces.num_nodes(), 9);
/// assert_eq!(spaces.num_spaces(), 2);
/// // Every node has a successor and predecessor on each ring.
/// let succ = spaces.successor(SpaceId::new(0), NodeId::new(0));
/// assert_ne!(succ, NodeId::new(0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VirtualSpaces {
    num_spaces: usize,
    /// Coordinate vector (one coordinate per space) for every node.
    coords: Vec<CoordinateVector>,
    /// For every space, the node ids sorted by their coordinate in that space.
    rings: Vec<Vec<NodeId>>,
    /// For every space, the position of each node on that space's ring
    /// (inverse permutation of `rings`).
    positions: Vec<Vec<usize>>,
}

impl VirtualSpaces {
    /// Generates balanced random coordinates for `num_nodes` nodes across
    /// `num_spaces` virtual spaces.
    ///
    /// `balance_candidates` controls the max-min-spacing sampling: each node
    /// draws that many uniform candidates per space and keeps the one with the
    /// largest minimum circular distance to already-placed coordinates.
    /// `balance_candidates = 1` degenerates to plain uniform sampling.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes`, `num_spaces`, or `balance_candidates` is zero.
    #[must_use]
    pub fn generate(
        num_nodes: usize,
        num_spaces: usize,
        balance_candidates: usize,
        rng: &mut DeterministicRng,
    ) -> Self {
        assert!(num_nodes > 0, "need at least one node");
        assert!(num_spaces > 0, "need at least one virtual space");
        assert!(balance_candidates > 0, "need at least one candidate");

        // Coordinates are generated space-major so that each space's balance
        // is independent of the others.
        let mut per_space: Vec<Vec<Coordinate>> = Vec::with_capacity(num_spaces);
        for space in 0..num_spaces {
            let mut space_rng = rng.fork(space as u64);
            per_space.push(balanced_coordinates(
                num_nodes,
                balance_candidates,
                &mut space_rng,
            ));
        }

        let coords: Vec<CoordinateVector> = (0..num_nodes)
            .map(|node| {
                CoordinateVector::new((0..num_spaces).map(|s| per_space[s][node]).collect())
            })
            .collect();

        Self::from_coordinate_vectors(coords).expect("generated coordinates are always consistent")
    }

    /// Builds virtual spaces from explicit per-node coordinate vectors.
    ///
    /// This is how the paper's Figure 3(b) worked example (nine nodes, two
    /// spaces, hand-picked coordinates) is reproduced in tests.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] if `coords` is empty or the
    /// vectors do not all have the same number of spaces.
    pub fn from_coordinate_vectors(coords: Vec<CoordinateVector>) -> SfResult<Self> {
        if coords.is_empty() {
            return Err(SfError::InvalidConfiguration {
                reason: "at least one coordinate vector is required".to_string(),
            });
        }
        let num_spaces = coords[0].num_spaces();
        if num_spaces == 0 {
            return Err(SfError::InvalidConfiguration {
                reason: "coordinate vectors must span at least one virtual space".to_string(),
            });
        }
        if coords.iter().any(|c| c.num_spaces() != num_spaces) {
            return Err(SfError::InvalidConfiguration {
                reason: "all coordinate vectors must span the same virtual spaces".to_string(),
            });
        }

        let num_nodes = coords.len();
        let mut rings = Vec::with_capacity(num_spaces);
        let mut positions = Vec::with_capacity(num_spaces);
        for s in 0..num_spaces {
            let space = SpaceId::new(s);
            let mut order: Vec<NodeId> = (0..num_nodes).map(NodeId::new).collect();
            order.sort_by(|&a, &b| {
                coords[a.index()]
                    .coordinate(space)
                    .cmp(&coords[b.index()].coordinate(space))
                    .then(a.cmp(&b))
            });
            let mut pos = vec![0usize; num_nodes];
            for (p, &node) in order.iter().enumerate() {
                pos[node.index()] = p;
            }
            rings.push(order);
            positions.push(pos);
        }

        Ok(Self {
            num_spaces,
            coords,
            rings,
            positions,
        })
    }

    /// Number of memory nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Number of virtual spaces `L`.
    #[must_use]
    pub fn num_spaces(&self) -> usize {
        self.num_spaces
    }

    /// Coordinate vector of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    #[must_use]
    pub fn coordinates(&self, node: NodeId) -> &CoordinateVector {
        &self.coords[node.index()]
    }

    /// All coordinate vectors, indexed by node.
    #[must_use]
    pub fn all_coordinates(&self) -> &[CoordinateVector] {
        &self.coords
    }

    /// The ring (nodes sorted by coordinate) of one virtual space.
    ///
    /// # Panics
    ///
    /// Panics if the space is out of range.
    #[must_use]
    pub fn ring(&self, space: SpaceId) -> &[NodeId] {
        &self.rings[space.index()]
    }

    /// Position of `node` on the ring of `space` (0-based, in coordinate
    /// order).
    #[must_use]
    pub fn ring_position(&self, space: SpaceId, node: NodeId) -> usize {
        self.positions[space.index()][node.index()]
    }

    /// The node `hops` positions clockwise (increasing coordinate, wrapping)
    /// from `node` on the ring of `space`.
    #[must_use]
    pub fn clockwise_neighbor(&self, space: SpaceId, node: NodeId, hops: usize) -> NodeId {
        let ring = &self.rings[space.index()];
        let pos = self.positions[space.index()][node.index()];
        ring[(pos + hops) % ring.len()]
    }

    /// The node `hops` positions counter-clockwise from `node` on the ring of
    /// `space`.
    #[must_use]
    pub fn counterclockwise_neighbor(&self, space: SpaceId, node: NodeId, hops: usize) -> NodeId {
        let ring = &self.rings[space.index()];
        let pos = self.positions[space.index()][node.index()];
        let len = ring.len();
        ring[(pos + len - (hops % len)) % len]
    }

    /// Immediate clockwise ring neighbour (successor) of `node` in `space`.
    #[must_use]
    pub fn successor(&self, space: SpaceId, node: NodeId) -> NodeId {
        self.clockwise_neighbor(space, node, 1)
    }

    /// Immediate counter-clockwise ring neighbour (predecessor) of `node` in
    /// `space`.
    #[must_use]
    pub fn predecessor(&self, space: SpaceId, node: NodeId) -> NodeId {
        self.counterclockwise_neighbor(space, node, 1)
    }

    /// Circular distance between two nodes' coordinates in one space.
    #[must_use]
    pub fn space_distance(&self, space: SpaceId, a: NodeId, b: NodeId) -> f64 {
        circular_distance(
            self.coords[a.index()].coordinate(space),
            self.coords[b.index()].coordinate(space),
        )
    }

    /// A balance metric for one space: the ratio of the largest to the
    /// smallest gap between consecutive ring coordinates. Perfectly even
    /// spacing gives 1.0; larger values indicate clumping.
    #[must_use]
    pub fn balance_ratio(&self, space: SpaceId) -> f64 {
        let ring = &self.rings[space.index()];
        if ring.len() < 2 {
            return 1.0;
        }
        let mut min_gap = f64::INFINITY;
        let mut max_gap: f64 = 0.0;
        for i in 0..ring.len() {
            let a = self.coords[ring[i].index()].coordinate(space);
            let b = self.coords[ring[(i + 1) % ring.len()].index()].coordinate(space);
            let gap = if i + 1 == ring.len() {
                1.0 - a.value() + b.value()
            } else {
                b.value() - a.value()
            };
            min_gap = min_gap.min(gap);
            max_gap = max_gap.max(gap);
        }
        if min_gap <= 0.0 {
            f64::INFINITY
        } else {
            max_gap / min_gap
        }
    }
}

/// Generates `num_nodes` balanced coordinates on the unit ring using
/// max-min-spacing candidate sampling (the reproduction of the paper's
/// `BalancedCoordinateGen()`).
fn balanced_coordinates(
    num_nodes: usize,
    candidates: usize,
    rng: &mut DeterministicRng,
) -> Vec<Coordinate> {
    let mut placed: Vec<Coordinate> = Vec::with_capacity(num_nodes);
    // Node ids are assigned to coordinates in a random order so that node id
    // and ring position are uncorrelated (the "random order" requirement of
    // the paper's step 2).
    let mut assignment: Vec<usize> = (0..num_nodes).collect();
    rng.shuffle(&mut assignment);

    let mut chosen = vec![Coordinate::wrapping(0.0); num_nodes];
    for (placement_index, &node) in assignment.iter().enumerate() {
        let candidate_count = if placement_index == 0 { 1 } else { candidates };
        let mut best = Coordinate::wrapping(rng.next_f64());
        let mut best_score = min_distance_to(&placed, best);
        for _ in 1..candidate_count {
            let cand = Coordinate::wrapping(rng.next_f64());
            let score = min_distance_to(&placed, cand);
            if score > best_score {
                best = cand;
                best_score = score;
            }
        }
        placed.push(best);
        chosen[node] = best;
    }
    chosen
}

fn min_distance_to(placed: &[Coordinate], candidate: Coordinate) -> f64 {
    placed
        .iter()
        .map(|&c| circular_distance(c, candidate))
        .fold(f64::INFINITY, f64::min)
}

/// The nine-node, two-space worked example of the paper's Figure 3(b).
///
/// Node-2's coordinates are 0.20 and 0.87 in Space-0 and Space-1 as stated in
/// the paper; the remaining coordinates are chosen to reproduce the figure's
/// ring orderings.
#[must_use]
pub fn paper_figure3_example() -> VirtualSpaces {
    let coords = [
        // (space0, space1) per node 0..9
        (0.05, 0.55), // node 0
        (0.13, 0.31), // node 1
        (0.20, 0.87), // node 2 (given in the paper text)
        (0.33, 0.62), // node 3
        (0.47, 0.11), // node 4
        (0.58, 0.05), // node 5
        (0.69, 0.40), // node 6
        (0.81, 0.72), // node 7
        (0.92, 0.93), // node 8
    ];
    let vectors = coords
        .iter()
        .map(|&(a, b)| {
            CoordinateVector::new(vec![
                Coordinate::new(a).expect("valid example coordinate"),
                Coordinate::new(b).expect("valid example coordinate"),
            ])
        })
        .collect();
    VirtualSpaces::from_coordinate_vectors(vectors).expect("example coordinates are consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }
    fn s(i: usize) -> SpaceId {
        SpaceId::new(i)
    }

    #[test]
    fn generate_basic_shape() {
        let mut rng = DeterministicRng::new(42);
        let spaces = VirtualSpaces::generate(100, 4, 8, &mut rng);
        assert_eq!(spaces.num_nodes(), 100);
        assert_eq!(spaces.num_spaces(), 4);
        for sp in 0..4 {
            assert_eq!(spaces.ring(s(sp)).len(), 100);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut r1 = DeterministicRng::new(7);
        let mut r2 = DeterministicRng::new(7);
        let a = VirtualSpaces::generate(64, 2, 8, &mut r1);
        let b = VirtualSpaces::generate(64, 2, 8, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_layouts() {
        let mut r1 = DeterministicRng::new(1);
        let mut r2 = DeterministicRng::new(2);
        let a = VirtualSpaces::generate(64, 2, 8, &mut r1);
        let b = VirtualSpaces::generate(64, 2, 8, &mut r2);
        assert_ne!(a, b);
    }

    #[test]
    fn rings_are_sorted_by_coordinate() {
        let mut rng = DeterministicRng::new(3);
        let spaces = VirtualSpaces::generate(50, 3, 8, &mut rng);
        for sp in 0..3 {
            let ring = spaces.ring(s(sp));
            for w in ring.windows(2) {
                let ca = spaces.coordinates(w[0]).coordinate(s(sp));
                let cb = spaces.coordinates(w[1]).coordinate(s(sp));
                assert!(ca <= cb);
            }
        }
    }

    #[test]
    fn ring_positions_are_inverse_of_rings() {
        let mut rng = DeterministicRng::new(5);
        let spaces = VirtualSpaces::generate(33, 2, 4, &mut rng);
        for sp in 0..2 {
            for (pos, &node) in spaces.ring(s(sp)).iter().enumerate() {
                assert_eq!(spaces.ring_position(s(sp), node), pos);
            }
        }
    }

    #[test]
    fn successor_predecessor_are_inverse() {
        let mut rng = DeterministicRng::new(11);
        let spaces = VirtualSpaces::generate(40, 2, 8, &mut rng);
        for i in 0..40 {
            for sp in 0..2 {
                let succ = spaces.successor(s(sp), n(i));
                assert_eq!(spaces.predecessor(s(sp), succ), n(i));
                let pred = spaces.predecessor(s(sp), n(i));
                assert_eq!(spaces.successor(s(sp), pred), n(i));
            }
        }
    }

    #[test]
    fn clockwise_neighbor_wraps() {
        let mut rng = DeterministicRng::new(13);
        let spaces = VirtualSpaces::generate(10, 1, 4, &mut rng);
        for i in 0..10 {
            assert_eq!(spaces.clockwise_neighbor(s(0), n(i), 10), n(i));
            assert_eq!(spaces.counterclockwise_neighbor(s(0), n(i), 10), n(i));
            assert_eq!(spaces.clockwise_neighbor(s(0), n(i), 0), n(i));
        }
    }

    #[test]
    fn balanced_generation_is_more_even_than_uniform() {
        // Compare the clumping (max gap / min gap) of balanced vs uniform
        // sampling averaged over several seeds; balanced must be tighter.
        let mut balanced_sum = 0.0;
        let mut uniform_sum = 0.0;
        let trials = 10;
        for seed in 0..trials {
            let mut rb = DeterministicRng::new(seed);
            let balanced = VirtualSpaces::generate(200, 1, 8, &mut rb);
            balanced_sum += balanced.balance_ratio(s(0));
            let mut ru = DeterministicRng::new(seed);
            let uniform = VirtualSpaces::generate(200, 1, 1, &mut ru);
            uniform_sum += uniform.balance_ratio(s(0));
        }
        assert!(
            balanced_sum < uniform_sum,
            "balanced {balanced_sum} should clump less than uniform {uniform_sum}"
        );
    }

    #[test]
    fn from_coordinates_validation() {
        assert!(VirtualSpaces::from_coordinate_vectors(vec![]).is_err());
        let mismatch = vec![
            CoordinateVector::new(vec![Coordinate::new(0.1).unwrap()]),
            CoordinateVector::new(vec![
                Coordinate::new(0.2).unwrap(),
                Coordinate::new(0.3).unwrap(),
            ]),
        ];
        assert!(VirtualSpaces::from_coordinate_vectors(mismatch).is_err());
        let empty_spaces = vec![CoordinateVector::new(vec![])];
        assert!(VirtualSpaces::from_coordinate_vectors(empty_spaces).is_err());
    }

    #[test]
    fn paper_example_matches_figure3() {
        let spaces = paper_figure3_example();
        assert_eq!(spaces.num_nodes(), 9);
        assert_eq!(spaces.num_spaces(), 2);
        // Node-2's coordinates as stated in the paper.
        let c2 = spaces.coordinates(n(2));
        assert!((c2.coordinate(s(0)).value() - 0.20).abs() < 1e-12);
        assert!((c2.coordinate(s(1)).value() - 0.87).abs() < 1e-12);
        // In Space-0 the ring order follows node ids 0..9 (coordinates are
        // increasing), so Node-2 neighbours Node-1 and Node-3 as in the paper.
        assert_eq!(spaces.predecessor(s(0), n(2)), n(1));
        assert_eq!(spaces.successor(s(0), n(2)), n(3));
        // In Space-1, Node-2 is connected with Node-6 and Node-8 per the paper.
        let neighbours = [spaces.predecessor(s(1), n(2)), spaces.successor(s(1), n(2))];
        assert!(neighbours.contains(&n(8)));
        assert!(neighbours.contains(&n(6)) || neighbours.contains(&n(7)));
    }

    #[test]
    fn space_distance_and_min_distance() {
        let spaces = paper_figure3_example();
        let d0 = spaces.space_distance(s(0), n(0), n(1));
        assert!((d0 - 0.08).abs() < 1e-9);
        let md =
            sf_types::minimum_circular_distance(spaces.coordinates(n(0)), spaces.coordinates(n(1)));
        assert!(md <= d0 + 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_rings_are_permutations(seed in any::<u64>(), nodes in 2usize..200, spaces_n in 1usize..5) {
            let mut rng = DeterministicRng::new(seed);
            let vs = VirtualSpaces::generate(nodes, spaces_n, 4, &mut rng);
            for sp in 0..spaces_n {
                let mut ids: Vec<usize> = vs.ring(SpaceId::new(sp)).iter().map(|n| n.index()).collect();
                ids.sort_unstable();
                prop_assert_eq!(ids, (0..nodes).collect::<Vec<_>>());
            }
        }

        #[test]
        fn prop_successor_cycles_cover_ring(seed in any::<u64>(), nodes in 2usize..100) {
            let mut rng = DeterministicRng::new(seed);
            let vs = VirtualSpaces::generate(nodes, 2, 4, &mut rng);
            // Following successors from node 0 must visit every node exactly once.
            let mut seen = vec![false; nodes];
            let mut cur = NodeId::new(0);
            for _ in 0..nodes {
                prop_assert!(!seen[cur.index()]);
                seen[cur.index()] = true;
                cur = vs.successor(SpaceId::new(0), cur);
            }
            prop_assert_eq!(cur, NodeId::new(0));
            prop_assert!(seen.into_iter().all(|v| v));
        }
    }
}
