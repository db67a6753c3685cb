//! Physical-address to memory-node mapping.
//!
//! The paper distributes workload data "among the memory nodes based on their
//! physical address". [`AddressMapper`] models that distribution: the
//! physical address space covering all memory nodes is interleaved across the
//! nodes at a configurable granularity (cache line by default, page-sized
//! interleaving also supported), and any address can be translated to the
//! memory node that owns it.

use serde::{Deserialize, Serialize};
use sf_types::{NodeId, SfError, SfResult};

/// Maps physical addresses to memory nodes by interleaving.
///
/// # Examples
///
/// ```
/// use sf_workloads::AddressMapper;
/// use sf_types::NodeId;
///
/// // 4 nodes of 8 GiB interleaved at 64-byte granularity.
/// let mapper = AddressMapper::new(4, 8 * 1024 * 1024 * 1024, 64)?;
/// assert_eq!(mapper.node_of(0), NodeId::new(0));
/// assert_eq!(mapper.node_of(64), NodeId::new(1));
/// assert_eq!(mapper.node_of(256), NodeId::new(0));
/// # Ok::<(), sf_types::SfError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressMapper {
    num_nodes: usize,
    node_capacity_bytes: u64,
    interleave_bytes: u64,
}

impl AddressMapper {
    /// Creates a mapper over `num_nodes` memory nodes of
    /// `node_capacity_bytes` each, interleaved every `interleave_bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] if any parameter is zero or
    /// the node capacity is not a multiple of the interleave granularity.
    pub fn new(
        num_nodes: usize,
        node_capacity_bytes: u64,
        interleave_bytes: u64,
    ) -> SfResult<Self> {
        if num_nodes == 0 || node_capacity_bytes == 0 || interleave_bytes == 0 {
            return Err(SfError::InvalidConfiguration {
                reason: "address mapper parameters must be non-zero".to_string(),
            });
        }
        if !node_capacity_bytes.is_multiple_of(interleave_bytes) {
            return Err(SfError::InvalidConfiguration {
                reason: format!(
                    "node capacity {node_capacity_bytes} is not a multiple of the interleave \
                     granularity {interleave_bytes}"
                ),
            });
        }
        Ok(Self {
            num_nodes,
            node_capacity_bytes,
            interleave_bytes,
        })
    }

    /// Convenience constructor matching the paper's working example: 8 GiB
    /// per node, cache-line (64 B) interleaving.
    ///
    /// # Errors
    ///
    /// Propagates [`AddressMapper::new`] errors (never fails for positive
    /// `num_nodes`).
    pub fn paper_default(num_nodes: usize) -> SfResult<Self> {
        Self::new(num_nodes, 8 * 1024 * 1024 * 1024, 64)
    }

    /// Number of memory nodes covered.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total byte capacity of the memory pool.
    #[must_use]
    pub fn total_capacity_bytes(&self) -> u64 {
        self.node_capacity_bytes * self.num_nodes as u64
    }

    /// The memory node owning `address` (addresses wrap around the pool).
    #[must_use]
    pub fn node_of(&self, address: u64) -> NodeId {
        let block = address / self.interleave_bytes;
        NodeId::new((block % self.num_nodes as u64) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_interleaving() {
        let m = AddressMapper::new(4, 1 << 20, 64).unwrap();
        assert_eq!(m.node_of(0).index(), 0);
        assert_eq!(m.node_of(63).index(), 0);
        assert_eq!(m.node_of(64).index(), 1);
        assert_eq!(m.node_of(128).index(), 2);
        assert_eq!(m.node_of(192).index(), 3);
        assert_eq!(m.node_of(256).index(), 0);
    }

    #[test]
    fn page_interleaving() {
        let m = AddressMapper::new(8, 1 << 30, 4096).unwrap();
        assert_eq!(m.node_of(0).index(), 0);
        assert_eq!(m.node_of(4095).index(), 0);
        assert_eq!(m.node_of(4096).index(), 1);
    }

    #[test]
    fn all_nodes_receive_addresses() {
        let m = AddressMapper::paper_default(17).unwrap();
        let mut seen = [false; 17];
        for i in 0..1000u64 {
            seen[m.node_of(i * 64).index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(m.num_nodes(), 17);
        assert_eq!(m.total_capacity_bytes(), 17 * 8 * 1024 * 1024 * 1024);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(AddressMapper::new(0, 1024, 64).is_err());
        assert!(AddressMapper::new(4, 0, 64).is_err());
        assert!(AddressMapper::new(4, 1024, 0).is_err());
        assert!(AddressMapper::new(4, 1000, 64).is_err());
    }
}
