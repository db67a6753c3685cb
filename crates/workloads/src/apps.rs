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
use sf_types::{DeterministicRng, NodeId, SfError, SfResult, Zipf};
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
        /// Popularity of the working set's objects.
        keys: Zipf,
        /// Size of one stored object in bytes.
        object_bytes: u64,
    },
    /// Edge-list scan mixed with power-law vertex accesses (graph analytics).
    Graph {
        /// Fraction of accesses that continue the sequential edge scan.
        edge_scan_fraction: f64,
        /// Bytes of per-vertex state.
        vertex_bytes: u64,
        /// Popularity of the vertex array's vertices.
        vertices: Zipf,
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

impl AccessPattern {
    /// `model`'s access structure over a working set of `working_set_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `working_set_bytes` is smaller than 4 KiB.
    fn new(model: ApplicationModel, working_set_bytes: u64) -> Self {
        assert!(
            working_set_bytes >= 4096,
            "working set must be at least 4 KiB"
        );
        let ws = working_set_bytes;
        let zipfian = |theta: f64, object_bytes: u64| Self::Zipfian {
            keys: Zipf::new((ws / object_bytes).max(1) as usize, theta),
            object_bytes,
        };
        match model {
            ApplicationModel::SparkWordcount => Self::Streaming {
                jump_probability: 0.02,
                scatter_writes: false,
            },
            ApplicationModel::SparkGrep => Self::Streaming {
                jump_probability: 0.01,
                scatter_writes: false,
            },
            ApplicationModel::SparkSort => Self::Streaming {
                jump_probability: 0.05,
                scatter_writes: true,
            },
            ApplicationModel::Pagerank => {
                // The vertex array is the upper quarter of the working set.
                let vertex_bytes = 16;
                let vertex_region = ws - ws * 3 / 4;
                Self::Graph {
                    edge_scan_fraction: 0.55,
                    vertex_bytes,
                    vertices: Zipf::new((vertex_region / vertex_bytes).max(1) as usize, 0.8),
                }
            }
            ApplicationModel::Redis => zipfian(0.99, 256),
            ApplicationModel::Memcached => zipfian(0.90, 128),
            ApplicationModel::Kmeans => Self::Iterative {
                hot_bytes: 64 * 1024,
                hot_probability: 0.25,
            },
            ApplicationModel::MatMul => {
                // Pick the largest square matrices (of f64) fitting three
                // copies in the working set.
                let per_matrix = ws / 3;
                let dim = ((per_matrix / 8) as f64).sqrt().floor().max(8.0) as u64;
                Self::Blocked {
                    dimension: dim,
                    block: 16.min(dim),
                }
            }
        }
    }
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
        let pattern = AccessPattern::new(model, working_set_bytes);
        Self::with_pattern(model, pattern, working_set_bytes, seed)
    }

    /// A generator for `model` over the `pattern` that
    /// [`AccessPattern::new`] built for `working_set_bytes`.
    fn with_pattern(
        model: ApplicationModel,
        pattern: AccessPattern,
        working_set_bytes: u64,
        seed: u64,
    ) -> Self {
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
            AccessPattern::Zipfian { keys, object_bytes } => {
                let key = keys.sample(&mut self.rng) as u64;
                let offset = self.rng.next_below(*object_bytes / 64 + 1) * 64;
                MemoryAccess {
                    address: key * object_bytes + offset,
                    write,
                }
            }
            AccessPattern::Graph {
                edge_scan_fraction,
                vertex_bytes,
                vertices,
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
                    let v = vertices.sample(&mut self.rng) as u64;
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
    /// Per-injector state in node order. Dropping the model frees the
    /// injectors' cache sets in this order: a `HashMap`'s per-process random
    /// order would leave a different heap, and so a different peak memory
    /// for the next run, in every process.
    injectors: Vec<InjectorState>,
    /// The `injectors` index of each node's injector, or
    /// [`Self::NO_INJECTOR`]; one entry per node of the mapper.
    slots: Vec<u32>,
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

    /// The slot of a node without an injector. It lies beyond every
    /// `injectors` index.
    const NO_INJECTOR: u32 = u32::MAX;

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
    /// A node listed more than once gets one injector, seeded by its last
    /// position in `injector_nodes`.
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
        // Each node's last position in `injector_nodes`, which seeds it.
        let mut slots = vec![Self::NO_INJECTOR; mapper.num_nodes()];
        for (i, node) in injector_nodes.iter().enumerate() {
            let Some(slot) = slots.get_mut(node.index()) else {
                return Err(SfError::InvalidConfiguration {
                    reason: format!(
                        "injector {node} is outside the {}-node memory pool",
                        mapper.num_nodes()
                    ),
                });
            };
            *slot = i as u32;
        }
        // Size the per-injector working set to a slice of the memory pool,
        // capped so address arithmetic stays fast.
        let working_set =
            (mapper.total_capacity_bytes() / injector_nodes.len() as u64).clamp(1 << 20, 1 << 32);
        // Every injector draws from the same distributions: normalise them
        // once.
        let pattern = AccessPattern::new(model, working_set);
        let count = slots.iter().filter(|&&s| s != Self::NO_INJECTOR).count();
        let mut injectors = Vec::with_capacity(count);
        for slot in slots.iter_mut().filter(|s| **s != Self::NO_INJECTOR) {
            let i = u64::from(*slot);
            *slot = injectors.len() as u32;
            injectors.push(InjectorState {
                workload: ApplicationWorkload::with_pattern(
                    model,
                    pattern.clone(),
                    working_set,
                    seed.wrapping_add(i * 7919),
                ),
                cache: cache_template.clone(),
                rng: DeterministicRng::new(seed.wrapping_add(0x9e37 + i)),
            });
        }
        Ok(Self {
            mapper,
            intensity: model.memory_intensity(),
            injectors,
            slots,
        })
    }

    /// Aggregate LLC miss rate over all injectors.
    #[must_use]
    pub fn llc_miss_rate(&self) -> f64 {
        let (mut accesses, mut misses) = (0u64, 0u64);
        for inj in &self.injectors {
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
        let slot = *self.slots.get(source.index())?;
        let injector = self.injectors.get_mut(slot as usize)?;
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
        // Dropping the model frees the injectors in store order, so that
        // order must not differ from one process to the next.
        let mapper = AddressMapper::new(64, 1 << 26, 64).unwrap();
        let nodes: Vec<NodeId> = [40, 8, 56, 0, 24].map(NodeId::new).to_vec();
        let cache = CacheHierarchy::tiny().unwrap();
        let traffic =
            WorkloadTraffic::with_cache(ApplicationModel::Redis, mapper, &nodes, 3, &cache)
                .unwrap();
        let slots: Vec<(usize, u32)> = (0..64)
            .map(|node| (node, traffic.slots[node]))
            .filter(|&(_, slot)| slot != WorkloadTraffic::NO_INJECTOR)
            .collect();
        assert_eq!(slots, [(0, 0), (8, 1), (24, 2), (40, 3), (56, 4)]);
        assert_eq!(traffic.injectors.len(), 5);
    }

    /// What `traffic` returns for each of `sources` over `cycles` cycles,
    /// polled in order every cycle.
    fn requests(
        traffic: &mut WorkloadTraffic,
        sources: &[NodeId],
        cycles: u64,
    ) -> Vec<(u64, NodeId, Option<TrafficRequest>)> {
        let mut polls = Vec::new();
        for cycle in 0..cycles {
            for &source in sources {
                polls.push((cycle, source, traffic.maybe_inject(cycle, source)));
            }
        }
        polls
    }

    #[test]
    fn polling_other_nodes_leaves_every_injector_stream_unchanged() {
        let mapper = AddressMapper::new(64, 1 << 26, 64).unwrap();
        let cache = CacheHierarchy::tiny().unwrap();
        let injectors = [40, 8, 56].map(NodeId::new);
        let make = || {
            WorkloadTraffic::with_cache(ApplicationModel::Redis, mapper, &injectors, 5, &cache)
                .unwrap()
        };
        let mut quiet = make();
        let expected = requests(&mut quiet, &injectors, 500);
        assert!(expected.iter().any(|(_, _, request)| request.is_some()));

        // The same polls with non-injectors, the last node, and nodes at and
        // beyond the mapper's range in between.
        let mixed = [0, 40, 9, 41, 8, 63, 64, 56, 65, 1 << 20].map(NodeId::new);
        let mut polled = make();
        let mut seen = Vec::new();
        for (cycle, source, request) in requests(&mut polled, &mixed, 500) {
            if injectors.contains(&source) {
                seen.push((cycle, source, request));
            } else {
                assert_eq!(request, None, "node {source} has no injector");
            }
        }
        assert_eq!(seen, expected);
        assert_eq!(polled.llc_miss_rate(), quiet.llc_miss_rate());
    }

    #[test]
    fn a_duplicate_injector_node_keeps_its_last_seeds() {
        let mapper = AddressMapper::new(64, 1 << 26, 64).unwrap();
        let cache = CacheHierarchy::tiny().unwrap();
        let make = |nodes: &[usize]| {
            let nodes: Vec<NodeId> = nodes.iter().copied().map(NodeId::new).collect();
            WorkloadTraffic::with_cache(ApplicationModel::Redis, mapper, &nodes, 9, &cache).unwrap()
        };
        let polls = [8, 24].map(NodeId::new);
        let mut duplicated = make(&[8, 24, 8]);
        assert_eq!(duplicated.injectors.len(), 2);
        let stream = requests(&mut duplicated, &polls, 2_000);
        // Node 8 draws as the third injector (position 2), as it would
        // without the first listing, and node 24 as the second.
        assert_eq!(stream, requests(&mut make(&[16, 24, 8]), &polls, 2_000));
        assert_ne!(stream, requests(&mut make(&[8, 24, 16]), &polls, 2_000));
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
