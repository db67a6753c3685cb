//! Synthetic models of the paper's "real workload" traces (Table IV).
//!
//! The paper drives its RTL simulator with Pin-collected memory traces of
//! Spark jobs (wordcount, grep, sort), PageRank, Redis, Memcached, dense
//! matrix multiplication, and K-means. Those traces depend on proprietary
//! inputs and a specific host machine, so this module substitutes
//! parameterised generators that reproduce the *post-cache* characteristics
//! the memory network observes:
//!
//! | workload          | access structure                         | read share |
//! |--------------------|------------------------------------------|------------|
//! | Spark wordcount    | streaming scan, rare jumps               | 0.85       |
//! | Spark grep         | streaming scan, rare jumps               | 0.95       |
//! | Spark sort         | streaming scan + random shuffle writes   | 0.60       |
//! | PageRank           | edge-list scan + power-law vertex access | 0.90       |
//! | Redis              | zipfian key-value accesses               | 0.85       |
//! | Memcached          | zipfian key-value, get/set ratio 0.8     | 0.80       |
//! | K-means            | streaming points + hot centroid block    | 0.95       |
//! | MatMul             | blocked dense matrix multiply            | 0.67       |
//!
//! Every generated access is filtered through the paper's cache hierarchy
//! ([`crate::cache::CacheHierarchy`]); only last-level misses become memory
//! network requests, which are then mapped to memory nodes with the
//! [`crate::address::AddressMapper`].

use crate::address::AddressMapper;
use crate::cache::CacheHierarchy;
use serde::{Deserialize, Serialize};
use sf_netsim::{TrafficModel, TrafficRequest};
use sf_types::{DeterministicRng, NodeId, SfError, SfResult};
use std::collections::BTreeMap;
use std::fmt;

/// One of the eight evaluated applications (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ApplicationModel {
    /// Spark "wordcount" over a text corpus.
    SparkWordcount,
    /// Spark "grep" over a text corpus.
    SparkGrep,
    /// Spark "sort" (shuffle-heavy).
    SparkSort,
    /// PageRank over a power-law graph.
    Pagerank,
    /// Redis in-memory key-value store.
    Redis,
    /// Memcached with a 0.8 get/set ratio.
    Memcached,
    /// K-means clustering.
    Kmeans,
    /// Dense matrix multiplication.
    MatMul,
}

impl ApplicationModel {
    /// All eight workloads in the order Figure 12 reports them.
    pub const ALL: [Self; 8] = [
        Self::SparkWordcount,
        Self::SparkGrep,
        Self::SparkSort,
        Self::Pagerank,
        Self::Redis,
        Self::Memcached,
        Self::Kmeans,
        Self::MatMul,
    ];

    /// Short name used in experiment output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::SparkWordcount => "wordcount",
            Self::SparkGrep => "grep",
            Self::SparkSort => "sort",
            Self::Pagerank => "pagerank",
            Self::Redis => "redis",
            Self::Memcached => "memcached",
            Self::Kmeans => "kmeans",
            Self::MatMul => "matmul",
        }
    }

    /// The workload whose [`name`](Self::name) is `name`, if any — the
    /// inverse of the experiment-output rendering, used when restoring
    /// checkpointed rows.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fraction of accesses that are reads.
    #[must_use]
    pub fn read_ratio(self) -> f64 {
        match self {
            Self::SparkWordcount => 0.85,
            Self::SparkGrep => 0.95,
            Self::SparkSort => 0.60,
            Self::Pagerank => 0.90,
            Self::Redis => 0.85,
            Self::Memcached => 0.80,
            Self::Kmeans => 0.95,
            Self::MatMul => 0.67,
        }
    }

    /// Probability that a processor issues a memory operation in a given
    /// network cycle (post-cache request rates differ per workload class:
    /// scan-heavy analytics are more memory-intensive than key-value stores).
    #[must_use]
    pub fn memory_intensity(self) -> f64 {
        match self {
            Self::SparkWordcount | Self::SparkGrep => 0.35,
            Self::SparkSort => 0.45,
            Self::Pagerank => 0.40,
            Self::Redis | Self::Memcached => 0.25,
            Self::Kmeans => 0.30,
            Self::MatMul => 0.50,
        }
    }
}

impl fmt::Display for ApplicationModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The address-stream structure behind a workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum AccessPattern {
    /// Sequential scan with occasional random jumps.
    Streaming {
        /// Probability of jumping to a random position instead of advancing.
        jump_probability: f64,
        /// Probability that a write lands at a random (shuffle) location.
        scatter_writes: bool,
    },
    /// Zipf-distributed object accesses (key-value stores).
    Zipfian {
        /// Skew of the key popularity distribution.
        theta: f64,
        /// Size of one stored object in bytes.
        object_bytes: u64,
    },
    /// Edge-list scan mixed with power-law vertex accesses (graph analytics).
    Graph {
        /// Fraction of accesses that continue the sequential edge scan.
        edge_scan_fraction: f64,
        /// Bytes of per-vertex state.
        vertex_bytes: u64,
    },
    /// Blocked dense matrix multiplication over three matrices.
    Blocked {
        /// Matrix dimension (elements per row/column).
        dimension: u64,
        /// Block (tile) edge length in elements.
        block: u64,
    },
    /// Streaming over points plus a small hot region of centroids.
    Iterative {
        /// Bytes of the hot (centroid) region.
        hot_bytes: u64,
        /// Probability of touching the hot region instead of the stream.
        hot_probability: f64,
    },
}

/// A single generated memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryAccess {
    /// Physical byte address.
    pub address: u64,
    /// Whether the access is a write.
    pub write: bool,
}

/// Generator of one application's memory-access stream.
#[derive(Debug, Clone)]
pub struct ApplicationWorkload {
    model: ApplicationModel,
    pattern: AccessPattern,
    working_set_bytes: u64,
    rng: DeterministicRng,
    cursor: u64,
    matmul_state: (u64, u64, u64, u8),
}

impl ApplicationWorkload {
    /// Creates a workload generator with a working set of
    /// `working_set_bytes`, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `working_set_bytes` is smaller than 4 KiB.
    #[must_use]
    pub fn new(model: ApplicationModel, working_set_bytes: u64, seed: u64) -> Self {
        assert!(
            working_set_bytes >= 4096,
            "working set must be at least 4 KiB"
        );
        let pattern = match model {
            ApplicationModel::SparkWordcount => AccessPattern::Streaming {
                jump_probability: 0.02,
                scatter_writes: false,
            },
            ApplicationModel::SparkGrep => AccessPattern::Streaming {
                jump_probability: 0.01,
                scatter_writes: false,
            },
            ApplicationModel::SparkSort => AccessPattern::Streaming {
                jump_probability: 0.05,
                scatter_writes: true,
            },
            ApplicationModel::Pagerank => AccessPattern::Graph {
                edge_scan_fraction: 0.55,
                vertex_bytes: 16,
            },
            ApplicationModel::Redis => AccessPattern::Zipfian {
                theta: 0.99,
                object_bytes: 256,
            },
            ApplicationModel::Memcached => AccessPattern::Zipfian {
                theta: 0.90,
                object_bytes: 128,
            },
            ApplicationModel::Kmeans => AccessPattern::Iterative {
                hot_bytes: 64 * 1024,
                hot_probability: 0.25,
            },
            ApplicationModel::MatMul => {
                // Pick the largest square matrices (of f64) fitting three
                // copies in the working set.
                let per_matrix = working_set_bytes / 3;
                let dim = ((per_matrix / 8) as f64).sqrt().floor().max(8.0) as u64;
                AccessPattern::Blocked {
                    dimension: dim,
                    block: 16.min(dim),
                }
            }
        };
        Self {
            model,
            pattern,
            working_set_bytes,
            rng: DeterministicRng::new(seed ^ 0x5f5f),
            cursor: 0,
            matmul_state: (0, 0, 0, 0),
        }
    }

    /// The application this generator models.
    #[must_use]
    pub fn model(&self) -> ApplicationModel {
        self.model
    }

    /// The working-set size in bytes.
    #[must_use]
    pub fn working_set_bytes(&self) -> u64 {
        self.working_set_bytes
    }

    /// Generates the next memory access of the stream.
    pub fn next_access(&mut self) -> MemoryAccess {
        let ws = self.working_set_bytes;
        let write = !self.rng.next_bool(self.model.read_ratio());
        match &self.pattern {
            AccessPattern::Streaming {
                jump_probability,
                scatter_writes,
            } => {
                let jump = self.rng.next_bool(*jump_probability);
                if jump {
                    self.cursor = self.rng.next_below(ws / 64) * 64;
                } else {
                    self.cursor = (self.cursor + 64) % ws;
                }
                let address = if write && *scatter_writes {
                    // Shuffle output region: random cache line in the upper
                    // half of the working set.
                    ws / 2 + self.rng.next_below(ws / 128) * 64
                } else {
                    self.cursor
                };
                MemoryAccess { address, write }
            }
            AccessPattern::Zipfian {
                theta,
                object_bytes,
            } => {
                let objects = (ws / object_bytes).max(1) as usize;
                let key = self.rng.next_zipf(objects, *theta) as u64;
                let offset = self.rng.next_below(*object_bytes / 64 + 1) * 64;
                MemoryAccess {
                    address: key * object_bytes + offset,
                    write,
                }
            }
            AccessPattern::Graph {
                edge_scan_fraction,
                vertex_bytes,
            } => {
                // The edge list occupies the lower 3/4 of the working set, the
                // vertex array the upper 1/4.
                let edge_region = ws * 3 / 4;
                if self.rng.next_bool(*edge_scan_fraction) {
                    self.cursor = (self.cursor + 64) % edge_region;
                    MemoryAccess {
                        address: self.cursor,
                        write: false,
                    }
                } else {
                    let vertices = ((ws - edge_region) / vertex_bytes).max(1) as usize;
                    let v = self.rng.next_zipf(vertices, 0.8) as u64;
                    MemoryAccess {
                        address: edge_region + v * vertex_bytes,
                        write,
                    }
                }
            }
            AccessPattern::Blocked { dimension, block } => {
                let (mut i, mut j, mut k, mut step) = self.matmul_state;
                let d = *dimension;
                let element = 8u64;
                let a_base = 0u64;
                let b_base = d * d * element;
                let c_base = 2 * d * d * element;
                let address = match step {
                    0 => a_base + (i * d + k) * element,
                    1 => b_base + (k * d + j) * element,
                    _ => c_base + (i * d + j) * element,
                };
                let is_c_update = step == 2;
                step += 1;
                if step == 3 {
                    step = 0;
                    k += 1;
                    if k % block == 0 || k >= d {
                        k = if k >= d { 0 } else { k };
                        j += 1;
                        if j >= d {
                            j = 0;
                            i = (i + 1) % d;
                        }
                    }
                }
                self.matmul_state = (i, j, k, step);
                // The C-tile update is a read-modify-write; counting it as a
                // write gives the 2:1 read/write mix of a dense multiply.
                MemoryAccess {
                    address: address % ws,
                    write: is_c_update,
                }
            }
            AccessPattern::Iterative {
                hot_bytes,
                hot_probability,
            } => {
                if self.rng.next_bool(*hot_probability) {
                    let offset = self.rng.next_below(hot_bytes / 64) * 64;
                    MemoryAccess {
                        address: offset,
                        write,
                    }
                } else {
                    self.cursor = (self.cursor + 64) % (ws - hot_bytes) + hot_bytes;
                    MemoryAccess {
                        address: self.cursor,
                        write: false,
                    }
                }
            }
        }
    }
}

/// A [`TrafficModel`] that drives the network simulator with an application's
/// post-cache miss stream from a set of processor-attached nodes.
#[derive(Debug)]
pub struct WorkloadTraffic {
    mapper: AddressMapper,
    /// The model's [`ApplicationModel::memory_intensity`].
    intensity: f64,
    /// Per-injector state by node index. Ordered, because dropping the model
    /// frees the injectors' cache sets in map order: a `HashMap`'s
    /// per-process random order would leave a different heap, and so a
    /// different peak memory for the next run, in every process.
    injectors: BTreeMap<usize, InjectorState>,
}

#[derive(Debug)]
struct InjectorState {
    workload: ApplicationWorkload,
    cache: CacheHierarchy,
    rng: DeterministicRng,
}

impl WorkloadTraffic {
    /// Maximum cache lookups attempted per injection opportunity before
    /// giving up for this cycle (a long run of cache hits means the processor
    /// simply is not producing memory traffic that cycle).
    const MAX_PROBES_PER_CYCLE: usize = 16;

    /// Creates workload traffic for `model` injected from `injector_nodes`
    /// (the nodes processors are attached to), with the paper's cache
    /// hierarchy in front of every injector.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] if `injector_nodes` is empty
    /// or an injector lies outside the mapper's node range.
    pub fn new(
        model: ApplicationModel,
        mapper: AddressMapper,
        injector_nodes: &[NodeId],
        seed: u64,
    ) -> SfResult<Self> {
        let cache = CacheHierarchy::paper_default()?;
        Self::with_cache(model, mapper, injector_nodes, seed, &cache)
    }

    /// Like [`WorkloadTraffic::new`] but with an explicit cache hierarchy
    /// template (cloned per injector); smaller caches make unit tests fast
    /// and model accelerator-style front ends.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] if `injector_nodes` is empty
    /// or an injector lies outside the mapper's node range.
    pub fn with_cache(
        model: ApplicationModel,
        mapper: AddressMapper,
        injector_nodes: &[NodeId],
        seed: u64,
        cache_template: &CacheHierarchy,
    ) -> SfResult<Self> {
        if injector_nodes.is_empty() {
            return Err(SfError::InvalidConfiguration {
                reason: "workload traffic needs at least one injector node".to_string(),
            });
        }
        let mut injectors = BTreeMap::new();
        // Size the per-injector working set to a slice of the memory pool,
        // capped so address arithmetic stays fast.
        let working_set =
            (mapper.total_capacity_bytes() / injector_nodes.len() as u64).clamp(1 << 20, 1 << 32);
        for (i, node) in injector_nodes.iter().enumerate() {
            if node.index() >= mapper.num_nodes() {
                return Err(SfError::InvalidConfiguration {
                    reason: format!(
                        "injector {node} is outside the {}-node memory pool",
                        mapper.num_nodes()
                    ),
                });
            }
            injectors.insert(
                node.index(),
                InjectorState {
                    workload: ApplicationWorkload::new(
                        model,
                        working_set,
                        seed.wrapping_add(i as u64 * 7919),
                    ),
                    cache: cache_template.clone(),
                    rng: DeterministicRng::new(seed.wrapping_add(0x9e37 + i as u64)),
                },
            );
        }
        Ok(Self {
            mapper,
            intensity: model.memory_intensity(),
            injectors,
        })
    }

    /// Aggregate LLC miss rate over all injectors.
    #[must_use]
    pub fn llc_miss_rate(&self) -> f64 {
        let (mut accesses, mut misses) = (0u64, 0u64);
        for inj in self.injectors.values() {
            accesses += inj.cache.stats().accesses;
            misses += inj.cache.stats().misses;
        }
        if accesses == 0 {
            0.0
        } else {
            misses as f64 / accesses as f64
        }
    }
}

impl TrafficModel for WorkloadTraffic {
    fn maybe_inject(&mut self, _cycle: u64, source: NodeId) -> Option<TrafficRequest> {
        let mapper = self.mapper;
        let intensity = self.intensity;
        let injector = self.injectors.get_mut(&source.index())?;
        if !injector.rng.next_bool(intensity) {
            return None;
        }
        for _ in 0..Self::MAX_PROBES_PER_CYCLE {
            let access = injector.workload.next_access();
            if injector.cache.access(access.address).goes_to_memory() {
                let dest = mapper.node_of(access.address);
                return Some(TrafficRequest {
                    destination: dest,
                    write: access.write,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The next `length` accesses of `workload`'s stream.
    fn accesses(workload: &mut ApplicationWorkload, length: usize) -> Vec<MemoryAccess> {
        (0..length).map(|_| workload.next_access()).collect()
    }

    #[test]
    fn every_model_generates_in_bounds_addresses() {
        for model in ApplicationModel::ALL {
            let mut w = ApplicationWorkload::new(model, 1 << 22, 1);
            for access in accesses(&mut w, 2_000) {
                assert!(
                    access.address < (1 << 22),
                    "{model}: address {:#x} out of working set",
                    access.address
                );
            }
        }
    }

    #[test]
    fn read_ratios_are_respected() {
        for model in ApplicationModel::ALL {
            let mut w = ApplicationWorkload::new(model, 1 << 22, 3);
            let trace = accesses(&mut w, 20_000);
            let writes = trace.iter().filter(|a| a.write).count() as f64 / trace.len() as f64;
            let expected = 1.0 - model.read_ratio();
            assert!(
                (writes - expected).abs() < 0.12,
                "{model}: write fraction {writes} vs expected {expected}"
            );
        }
    }

    #[test]
    fn streaming_workloads_have_spatial_locality() {
        let mut w = ApplicationWorkload::new(ApplicationModel::SparkGrep, 1 << 24, 5);
        let trace = accesses(&mut w, 5_000);
        let sequential = trace
            .windows(2)
            .filter(|p| p[1].address.wrapping_sub(p[0].address) == 64)
            .count();
        assert!(
            sequential as f64 / trace.len() as f64 > 0.8,
            "grep should be mostly sequential ({sequential})"
        );
    }

    #[test]
    fn key_value_workloads_are_skewed() {
        let mut w = ApplicationWorkload::new(ApplicationModel::Redis, 1 << 24, 7);
        let trace = accesses(&mut w, 20_000);
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for a in &trace {
            *counts.entry(a.address / 256).or_default() += 1;
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = freqs.iter().take(10).sum();
        assert!(
            top10 as f64 / trace.len() as f64 > 0.10,
            "zipfian accesses should concentrate on hot keys"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ApplicationWorkload::new(ApplicationModel::Pagerank, 1 << 22, 9);
        let mut b = ApplicationWorkload::new(ApplicationModel::Pagerank, 1 << 22, 9);
        assert_eq!(accesses(&mut a, 500), accesses(&mut b, 500));
        let mut c = ApplicationWorkload::new(ApplicationModel::Pagerank, 1 << 22, 10);
        assert_ne!(accesses(&mut a, 500), accesses(&mut c, 500));
    }

    #[test]
    fn injectors_are_kept_in_node_order() {
        // Dropping the model frees the injectors in map order, so that order
        // must not differ from one process to the next.
        let mapper = AddressMapper::new(64, 1 << 26, 64).unwrap();
        let nodes: Vec<NodeId> = [40, 8, 56, 0, 24].map(NodeId::new).to_vec();
        let cache = CacheHierarchy::tiny().unwrap();
        let traffic =
            WorkloadTraffic::with_cache(ApplicationModel::Redis, mapper, &nodes, 3, &cache)
                .unwrap();
        let order: Vec<usize> = traffic.injectors.keys().copied().collect();
        assert_eq!(order, [0, 8, 24, 40, 56]);
    }

    #[test]
    fn workload_traffic_reaches_memory_nodes() {
        let mapper = AddressMapper::new(16, 1 << 26, 64).unwrap();
        let cache = CacheHierarchy::tiny().unwrap();
        let mut traffic = WorkloadTraffic::with_cache(
            ApplicationModel::SparkSort,
            mapper,
            &[NodeId::new(0), NodeId::new(8)],
            11,
            &cache,
        )
        .unwrap();
        let mut requests = 0;
        let mut destinations = std::collections::HashSet::new();
        for cycle in 0..4_000 {
            for src in [NodeId::new(0), NodeId::new(8), NodeId::new(3)] {
                if let Some(req) = traffic.maybe_inject(cycle, src) {
                    assert_ne!(src, NodeId::new(3), "non-injector nodes must stay silent");
                    assert!(req.destination.index() < 16);
                    destinations.insert(req.destination);
                    requests += 1;
                }
            }
        }
        assert!(requests > 100, "only {requests} requests issued");
        assert!(destinations.len() > 4, "traffic should spread across nodes");
        assert!(traffic.llc_miss_rate() > 0.0);
    }

    #[test]
    fn invalid_injector_configurations_rejected() {
        let mapper = AddressMapper::new(8, 1 << 24, 64).unwrap();
        assert!(WorkloadTraffic::new(ApplicationModel::Redis, mapper, &[], 1).is_err());
        let cache = CacheHierarchy::tiny().unwrap();
        assert!(WorkloadTraffic::with_cache(
            ApplicationModel::Redis,
            mapper,
            &[NodeId::new(99)],
            1,
            &cache
        )
        .is_err());
    }

    #[test]
    fn model_metadata() {
        assert_eq!(ApplicationModel::ALL.len(), 8);
        assert_eq!(ApplicationModel::Redis.to_string(), "redis");
        for model in ApplicationModel::ALL {
            assert!(model.read_ratio() > 0.5);
            assert!(model.memory_intensity() > 0.0 && model.memory_intensity() <= 1.0);
        }
        let w = ApplicationWorkload::new(ApplicationModel::Kmeans, 1 << 20, 0);
        assert_eq!(w.model(), ApplicationModel::Kmeans);
        assert_eq!(w.working_set_bytes(), 1 << 20);
    }
}
