//! 2D-grid placement of memory nodes and wire-length modelling.
//!
//! The paper places memory nodes on a PCB or silicon interposer as a 2D grid
//! and charges one extra hop of link latency whenever a wire spans more than
//! ten memory-node pitches (the wire length supported by HMC links). This
//! module provides the placement and the grid-distance computation.

use serde::{Deserialize, Serialize};
use sf_types::NodeId;

/// Position of a memory node on the 2D placement grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GridPosition {
    /// Row index.
    pub row: u32,
    /// Column index.
    pub col: u32,
}

impl GridPosition {
    /// Chebyshev (chessboard) distance to another grid position, which is the
    /// number of memory-node pitches a wire between the two must span.
    #[must_use]
    pub fn grid_distance(&self, other: &Self) -> u32 {
        let dr = self.row.abs_diff(other.row);
        let dc = self.col.abs_diff(other.col);
        dr.max(dc)
    }
}

/// A placement of all memory nodes on a near-square 2D grid.
///
/// # Examples
///
/// ```
/// use sf_topology::placement::GridPlacement;
/// use sf_types::NodeId;
///
/// let placement = GridPlacement::row_major(9);
/// assert_eq!(placement.rows(), 3);
/// assert_eq!(placement.cols(), 3);
/// assert_eq!(placement.position(NodeId::new(4)).row, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridPlacement {
    rows: u32,
    cols: u32,
    positions: Vec<GridPosition>,
}

impl GridPlacement {
    /// Places `num_nodes` nodes in row-major order on a near-square grid.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    #[must_use]
    pub fn row_major(num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "cannot place zero nodes");
        let cols = (num_nodes as f64).sqrt().ceil() as u32;
        let rows = (num_nodes as u32).div_ceil(cols);
        let positions = (0..num_nodes)
            .map(|i| GridPosition {
                row: i as u32 / cols,
                col: i as u32 % cols,
            })
            .collect();
        Self {
            rows,
            cols,
            positions,
        }
    }

    /// Number of grid rows.
    #[must_use]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of grid columns.
    #[must_use]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of placed nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Grid position of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    #[must_use]
    pub fn position(&self, node: NodeId) -> GridPosition {
        self.positions[node.index()]
    }

    /// Wire length (in memory-node pitches) between two placed nodes.
    #[must_use]
    pub fn wire_length(&self, a: NodeId, b: NodeId) -> u32 {
        self.position(a).grid_distance(&self.position(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn grid_distance_is_chebyshev() {
        let a = GridPosition { row: 0, col: 0 };
        let b = GridPosition { row: 3, col: 1 };
        assert_eq!(a.grid_distance(&b), 3);
        assert_eq!(b.grid_distance(&a), 3);
        assert_eq!(a.grid_distance(&a), 0);
    }

    #[test]
    fn row_major_square_layout() {
        let p = GridPlacement::row_major(16);
        assert_eq!(p.rows(), 4);
        assert_eq!(p.cols(), 4);
        assert_eq!(p.position(n(0)), GridPosition { row: 0, col: 0 });
        assert_eq!(p.position(n(5)), GridPosition { row: 1, col: 1 });
        assert_eq!(p.position(n(15)), GridPosition { row: 3, col: 3 });
    }

    #[test]
    fn row_major_non_square_layout() {
        let p = GridPlacement::row_major(10);
        assert_eq!(p.cols(), 4);
        assert_eq!(p.rows(), 3);
        assert_eq!(p.num_nodes(), 10);
        assert_eq!(p.position(n(9)), GridPosition { row: 2, col: 1 });
    }

    #[test]
    fn wire_length_and_long_wire() {
        let p = GridPlacement::row_major(144); // 12x12
                                               // Either side of the paper's ten-pitch long-wire threshold.
        assert_eq!(p.wire_length(n(0), n(11)), 11);
        assert_eq!(p.wire_length(n(0), n(10)), 10);
        assert_eq!(p.wire_length(n(0), n(13)), 1);
    }

    #[test]
    #[should_panic(expected = "cannot place zero nodes")]
    fn zero_nodes_panics() {
        let _ = GridPlacement::row_major(0);
    }
}
