//! Three-level set-associative cache hierarchy filter.
//!
//! The paper's trace generator models a 32 KB L1, 2 MB L2, and 32 MB L3 with
//! associativities 4, 8, and 16 (64-byte lines) and only sends last-level
//! cache misses to the memory network. This module reproduces that filter so
//! the synthetic application models exercise the network with a realistic
//! post-LLC access stream.

use serde::{Deserialize, Serialize};
use sf_types::{SfError, SfResult};

/// Configuration of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheLevelConfig {
    /// Number of sets in this level.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] if the geometry is not
    /// consistent (zero sizes or capacity not divisible by way size).
    pub fn sets(&self) -> SfResult<usize> {
        if self.capacity_bytes == 0 || self.associativity == 0 || self.line_bytes == 0 {
            return Err(SfError::InvalidConfiguration {
                reason: "cache level sizes must be non-zero".to_string(),
            });
        }
        let way_bytes = self.associativity * self.line_bytes;
        if !self.capacity_bytes.is_multiple_of(way_bytes) {
            return Err(SfError::InvalidConfiguration {
                reason: format!(
                    "cache capacity {} is not a multiple of ways x line size {}",
                    self.capacity_bytes, way_bytes
                ),
            });
        }
        Ok(self.capacity_bytes / way_bytes)
    }
}

/// Outcome of a cache hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheOutcome {
    /// Hit in the given level (0 = L1).
    Hit(usize),
    /// Missed every level: the access goes to the memory network.
    Miss,
}

impl CacheOutcome {
    /// Whether the access must be sent to the memory network.
    #[must_use]
    pub fn goes_to_memory(self) -> bool {
        matches!(self, Self::Miss)
    }
}

/// Hit/miss statistics of the hierarchy.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total accesses presented to the hierarchy.
    pub accesses: u64,
    /// Hits per level (index 0 = L1).
    pub hits: Vec<u64>,
    /// Accesses that missed all levels.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of accesses that reach memory.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One set-associative cache level with LRU replacement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CacheLevel {
    config: CacheLevelConfig,
    sets: usize,
    /// `tags[set]` holds (tag, last-use stamp) pairs, at most `associativity`.
    tags: Vec<Vec<(u64, u64)>>,
    stamp: u64,
}

impl CacheLevel {
    fn new(config: CacheLevelConfig) -> SfResult<Self> {
        let sets = config.sets()?;
        Ok(Self {
            config,
            sets,
            tags: vec![Vec::new(); sets],
            stamp: 0,
        })
    }

    /// Accesses the line containing `address`; returns `true` on a hit. On a
    /// miss the line is installed (with LRU eviction).
    fn access(&mut self, address: u64) -> bool {
        self.stamp += 1;
        let line = address / self.config.line_bytes as u64;
        let set = (line % self.sets as u64) as usize;
        let tag = line / self.sets as u64;
        let ways = &mut self.tags[set];
        if let Some(entry) = ways.iter_mut().find(|(t, _)| *t == tag) {
            entry.1 = self.stamp;
            return true;
        }
        if ways.len() >= self.config.associativity {
            // Evict the least recently used way.
            let lru = ways
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
                .expect("non-empty set");
            ways.swap_remove(lru);
        }
        ways.push((tag, self.stamp));
        false
    }
}

/// The paper's three-level cache hierarchy filter.
///
/// # Examples
///
/// ```
/// use sf_workloads::cache::CacheHierarchy;
///
/// let mut cache = CacheHierarchy::paper_default()?;
/// // The first touch of a line misses everywhere, the second hits in L1.
/// assert!(cache.access(0x1000).goes_to_memory());
/// assert!(!cache.access(0x1000).goes_to_memory());
/// # Ok::<(), sf_types::SfError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheHierarchy {
    levels: Vec<CacheLevel>,
    stats: CacheStats,
}

impl CacheHierarchy {
    /// Builds a hierarchy from per-level configurations (L1 first).
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] if no levels are supplied or
    /// any level has inconsistent geometry.
    pub fn new(levels: &[CacheLevelConfig]) -> SfResult<Self> {
        if levels.is_empty() {
            return Err(SfError::InvalidConfiguration {
                reason: "a cache hierarchy needs at least one level".to_string(),
            });
        }
        let built: SfResult<Vec<CacheLevel>> = levels.iter().map(|&c| CacheLevel::new(c)).collect();
        let built = built?;
        let stats = CacheStats {
            hits: vec![0; built.len()],
            ..CacheStats::default()
        };
        Ok(Self {
            levels: built,
            stats,
        })
    }

    /// The paper's configuration: 32 KB / 4-way L1, 2 MB / 8-way L2,
    /// 32 MB / 16-way L3, all with 64-byte lines.
    ///
    /// # Errors
    ///
    /// Never fails in practice; the signature matches [`CacheHierarchy::new`].
    pub fn paper_default() -> SfResult<Self> {
        Self::new(&[
            CacheLevelConfig {
                capacity_bytes: 32 * 1024,
                associativity: 4,
                line_bytes: 64,
            },
            CacheLevelConfig {
                capacity_bytes: 2 * 1024 * 1024,
                associativity: 8,
                line_bytes: 64,
            },
            CacheLevelConfig {
                capacity_bytes: 32 * 1024 * 1024,
                associativity: 16,
                line_bytes: 64,
            },
        ])
    }

    /// A small hierarchy (a few KB) useful for fast unit tests and for
    /// modelling accelerator-style nodes with tiny caches.
    ///
    /// # Errors
    ///
    /// Never fails in practice; the signature matches [`CacheHierarchy::new`].
    pub fn tiny() -> SfResult<Self> {
        Self::new(&[
            CacheLevelConfig {
                capacity_bytes: 1024,
                associativity: 2,
                line_bytes: 64,
            },
            CacheLevelConfig {
                capacity_bytes: 8 * 1024,
                associativity: 4,
                line_bytes: 64,
            },
        ])
    }

    /// Presents one access to the hierarchy; lower levels are only consulted
    /// on a miss, and the line is installed in every level it missed in
    /// (inclusive fill).
    pub fn access(&mut self, address: u64) -> CacheOutcome {
        self.stats.accesses += 1;
        let mut hit_level = None;
        for (i, level) in self.levels.iter_mut().enumerate() {
            if level.access(address) {
                hit_level = Some(i);
                break;
            }
        }
        match hit_level {
            Some(level) => {
                self.stats.hits[level] += 1;
                CacheOutcome::Hit(level)
            }
            None => {
                self.stats.misses += 1;
                CacheOutcome::Miss
            }
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_geometry() {
        let cache = CacheHierarchy::paper_default().unwrap();
        assert_eq!(cache.levels.len(), 3);
        let l1 = CacheLevelConfig {
            capacity_bytes: 32 * 1024,
            associativity: 4,
            line_bytes: 64,
        };
        assert_eq!(l1.sets().unwrap(), 128);
    }

    #[test]
    fn invalid_geometry_rejected() {
        assert!(CacheHierarchy::new(&[]).is_err());
        let bad = CacheLevelConfig {
            capacity_bytes: 1000,
            associativity: 3,
            line_bytes: 64,
        };
        assert!(CacheHierarchy::new(&[bad]).is_err());
        let zero = CacheLevelConfig {
            capacity_bytes: 0,
            associativity: 4,
            line_bytes: 64,
        };
        assert!(zero.sets().is_err());
    }

    #[test]
    fn temporal_locality_hits_in_l1() {
        let mut cache = CacheHierarchy::paper_default().unwrap();
        assert_eq!(cache.access(0x42), CacheOutcome::Miss);
        assert_eq!(cache.access(0x42), CacheOutcome::Hit(0));
        // Same line, different byte offset.
        assert_eq!(cache.access(0x43), CacheOutcome::Hit(0));
        assert!((cache.stats().miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_eviction_falls_back_to_lower_levels() {
        let mut cache = CacheHierarchy::tiny().unwrap();
        // Touch far more lines than L1 (1 KB = 16 lines) can hold but fewer
        // than L2 (8 KB = 128 lines).
        for i in 0..64u64 {
            cache.access(i * 64);
        }
        // Re-touching the first line should miss L1 but hit L2.
        let outcome = cache.access(0);
        assert_eq!(outcome, CacheOutcome::Hit(1));
        assert!(!outcome.goes_to_memory());
    }

    #[test]
    fn working_set_larger_than_llc_misses() {
        let mut cache = CacheHierarchy::tiny().unwrap();
        // 1024 lines is far beyond the 8 KB L2.
        for i in 0..1024u64 {
            cache.access(i * 64);
        }
        // Streaming back over the same addresses still misses (LRU evicted
        // them long ago).
        let before = cache.stats().misses;
        for i in 0..16u64 {
            assert!(cache.access(i * 64).goes_to_memory());
        }
        assert_eq!(cache.stats().misses, before + 16);
    }

    #[test]
    fn stats_accumulate() {
        let mut cache = CacheHierarchy::tiny().unwrap();
        for i in 0..10u64 {
            cache.access(i * 64);
        }
        for i in 0..10u64 {
            cache.access(i * 64);
        }
        let stats = cache.stats();
        assert_eq!(stats.accesses, 20);
        assert_eq!(stats.misses, 10);
        assert_eq!(stats.hits.iter().sum::<u64>(), 10);
        assert!((stats.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_miss_rate_is_zero() {
        let cache = CacheHierarchy::tiny().unwrap();
        assert_eq!(cache.stats().miss_rate(), 0.0);
    }
}
