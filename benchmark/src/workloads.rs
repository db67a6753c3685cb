//! The four workloads. Each function runs one repetition at an explicit size
//! and returns its timings, operation counts, and output digest. Given a
//! [`Layers`] sink it runs the traced variant instead: the same calls into
//! the program, split at layer boundaries and timed from outside.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sf_harness::PoolConfig;
use sf_netsim::{NetworkSimulator, SimulationStats, TrafficModel};
use sf_routing::{trace_route, GreediestOptions, GreediestRouting, RoutingProtocol};
use sf_topology::StringFigureTopology;
use sf_types::{
    DeterministicRng, NetworkConfig, NodeId, SfError, SfResult, SimulationConfig, SystemConfig,
};
use sf_workloads::{
    AddressMapper, ApplicationModel, CacheHierarchy, PatternTraffic, SyntheticPattern,
    WorkloadTraffic,
};
use stringfigure::study::{execute, TopologyCache};
use stringfigure::{
    NetworkInstance, PowerManager, ReconfigurationEvent, RunContext, StringFigureBuilder,
    StudyRegistry, TopologyKind,
};

use crate::probe::{cpu_time, peak_rss_mb, reset_peak_rss, Snapshot, TimedRouting, TimedTraffic};
use crate::stats::{median, percentile, Digest};

/// Per-layer values recorded by a traced repetition, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Uniform-random injection rate of `paper_uniform`, packets/node/cycle.
pub const UNIFORM_RATE: f64 = 0.2;
/// Processor sockets of `paper_memory` (the fig12 method).
pub const SOCKETS: usize = 64;
/// Source/destination pairs in the elastic workload's routed-hop sample.
pub const HOP_PAIRS: usize = 2_000;

/// The committed fig10 quick-scale artefact every `fig10_sweep` repetition
/// must reproduce byte for byte.
const FIG10_GOLDEN: &[u8] =
    include_bytes!("../../crates/bench/tests/golden/fig10_saturation.quick.csv");

/// One repetition's measurements.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host time before the first simulated cycle or reconfiguration event.
    pub setup: Duration,
    /// Host time of the whole repetition, set-up included.
    pub wall: Duration,
    /// CPU time of the whole repetition, all threads.
    pub cpu: Duration,
    /// Operations attempted: simulations, study executions, or
    /// reconfiguration events.
    pub attempted: u64,
    /// Operations that errored or failed an output check.
    pub failed: u64,
    /// Digest of the repetition's outputs; equal across repetitions of one
    /// workload, size, and seed.
    pub digest: u64,
    /// Peak resident set size during the repetition, in MB.
    pub peak_rss_mb: f64,
    /// Host latency of each reconfiguration event, in ms.
    pub event_ms: Vec<f64>,
}

/// Wall-clock and CPU stopwatch for one repetition.
struct Clock {
    started: Instant,
    cpu: Duration,
}

impl Clock {
    fn start() -> Self {
        reset_peak_rss();
        Self {
            cpu: cpu_time(),
            started: Instant::now(),
        }
    }

    fn finish(&self, rep: &mut Rep, digest: &Digest, outcome: SfResult<()>) {
        if outcome.is_err() {
            rep.attempted = rep.attempted.max(1);
            rep.failed = rep.attempted;
        }
        rep.digest = digest.finish();
        rep.wall = self.started.elapsed();
        rep.cpu = cpu_time().saturating_sub(self.cpu);
        rep.peak_rss_mb = peak_rss_mb();
    }
}

/// Adds `value` to layer metric `name`.
fn add(layers: &mut Layers, name: &'static str, value: f64) {
    *layers.entry(name).or_default() += value;
}

/// Runs `work`, adds its host seconds to each of `names`, and returns its
/// result.
fn timed<R>(layers: &mut Layers, names: &[&'static str], work: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let result = work();
    let seconds = started.elapsed().as_secs_f64();
    for &name in names {
        add(layers, name, seconds);
    }
    result
}

/// The simulation settings of the paper workloads. One shard: two shards
/// meet at a barrier every cycle, so on a small shared host a neighbour's
/// load on either CPU stalls both, and repetition times spread several times
/// wider than on one. Results are identical for any shard count.
fn sim_config(cycles: u64) -> SimulationConfig {
    SimulationConfig {
        max_cycles: cycles,
        warmup_cycles: cycles / 10,
        shards: 1,
        ..SimulationConfig::default()
    }
}

/// `paper_uniform`: one uniform-random one-way simulation of `cycles`
/// cycles on a String Figure network of `nodes` nodes.
pub fn paper_uniform(nodes: usize, cycles: u64, seed: u64, layers: Option<&mut Layers>) -> Rep {
    simulate(nodes, seed, cycles, false, layers, || {
        Ok(vec![PatternTraffic::new(
            SyntheticPattern::UniformRandom,
            nodes,
            UNIFORM_RATE,
            seed,
        )])
    })
}

/// `paper_memory`: Redis then MatMul in request–reply mode from
/// [`SOCKETS`] evenly spread sockets behind the tiny cache hierarchy, with
/// the paper's address mapping — the method of
/// `stringfigure::experiments::run_workload_on`.
pub fn paper_memory(nodes: usize, cycles: u64, seed: u64, layers: Option<&mut Layers>) -> Rep {
    simulate(nodes, seed, cycles, true, layers, || {
        let sockets = stringfigure::experiments::socket_nodes(nodes, SOCKETS);
        let cache = CacheHierarchy::tiny()?;
        [ApplicationModel::Redis, ApplicationModel::MatMul]
            .into_iter()
            .map(|model| {
                let mapper = AddressMapper::paper_default(nodes)?;
                WorkloadTraffic::with_cache(model, mapper, &sockets, seed, &cache)
            })
            .collect()
    })
}

/// A traffic model, plus the cache miss rate of the stream it generated
/// when it models a cache.
pub trait Traffic: TrafficModel {
    /// Last-level cache miss rate, if the model has caches.
    fn llc_miss_rate(&self) -> Option<f64> {
        None
    }
}

impl Traffic for PatternTraffic {}

impl Traffic for WorkloadTraffic {
    fn llc_miss_rate(&self) -> Option<f64> {
        Some(WorkloadTraffic::llc_miss_rate(self))
    }
}

/// Builds one String Figure network and one simulator per traffic model,
/// then runs each model on its simulator in turn.
fn simulate<T: Traffic>(
    nodes: usize,
    seed: u64,
    cycles: u64,
    request_reply: bool,
    layers: Option<&mut Layers>,
    traffic: impl FnOnce() -> SfResult<Vec<T>>,
) -> Rep {
    let clock = Clock::start();
    let mut rep = Rep::default();
    let mut digest = Digest::default();
    let plan = Plan {
        nodes,
        seed,
        config: sim_config(cycles),
        request_reply,
    };
    let runs = match layers {
        None => plan.run_plain(traffic, &clock, &mut rep),
        Some(layers) => plan.run_traced(traffic, &clock, &mut rep, layers),
    };
    let outcome = runs.map(|runs| {
        for stats in &runs {
            digest.stats(stats);
        }
    });
    clock.finish(&mut rep, &digest, outcome);
    rep
}

/// The network and simulator configuration shared by the paper workloads.
struct Plan {
    nodes: usize,
    seed: u64,
    config: SimulationConfig,
    request_reply: bool,
}

impl Plan {
    fn run_plain<T: Traffic>(
        &self,
        traffic: impl FnOnce() -> SfResult<Vec<T>>,
        clock: &Clock,
        rep: &mut Rep,
    ) -> SfResult<Vec<SimulationStats>> {
        let instance = NetworkInstance::build(TopologyKind::StringFigure, self.nodes, self.seed)?;
        let mut models = traffic()?;
        rep.attempted = models.len() as u64;
        let mut sims = models
            .iter()
            .map(|_| {
                let sim = instance.make_simulator(SystemConfig::default(), self.config.clone())?;
                Ok(sim.with_request_reply(self.request_reply))
            })
            .collect::<SfResult<Vec<NetworkSimulator>>>()?;
        rep.setup = clock.started.elapsed();
        sims.iter_mut()
            .zip(&mut models)
            .map(|(sim, model)| sim.run(model))
            .collect()
    }

    /// Like [`Plan::run_plain`], with `make_simulator` split into its
    /// routing-table and kernel halves and both layers' calls timed.
    fn run_traced<T: Traffic>(
        &self,
        traffic: impl FnOnce() -> SfResult<Vec<T>>,
        clock: &Clock,
        rep: &mut Rep,
        layers: &mut Layers,
    ) -> SfResult<Vec<SimulationStats>> {
        const ATTRIBUTED: &str = "layers.attributed_s";
        let instance = timed(layers, &["topology.build_s", ATTRIBUTED], || {
            NetworkInstance::build(TopologyKind::StringFigure, self.nodes, self.seed)
        })?;
        let topology = instance
            .as_string_figure()
            .expect("a String Figure instance exposes its topology");
        let models = timed(layers, &["traffic.build_s", ATTRIBUTED], traffic)?;
        rep.attempted = models.len() as u64;
        let mut prepared = Vec::new();
        for _ in &models {
            let routing = timed(layers, &["routing.table_build_s", ATTRIBUTED], || {
                Arc::new(GreediestRouting::new(topology))
            });
            let busy_ns = Arc::new(AtomicU64::new(0));
            let protocol = TimedRouting::new(Arc::clone(&routing), Arc::clone(&busy_ns));
            let sim = timed(layers, &["kernel.build_s", ATTRIBUTED], || {
                NetworkSimulator::new(
                    instance.graph().clone(),
                    Box::new(protocol),
                    SystemConfig::default(),
                    self.config.clone(),
                )
            })?
            .with_request_reply(self.request_reply);
            prepared.push((sim, routing, busy_ns));
        }
        rep.setup = clock.started.elapsed();

        let mut runs = Vec::new();
        let mut miss_rates = Vec::new();
        for ((mut sim, routing, busy_ns), model) in prepared.into_iter().zip(models) {
            let mut timed_traffic = TimedTraffic::new(model);
            let cpu_before = cpu_time();
            let stats = timed(layers, &["kernel.run_s", ATTRIBUTED], || {
                sim.run(&mut timed_traffic)
            })?;
            let run_cpu_s = cpu_time().saturating_sub(cpu_before).as_secs_f64();
            let routing_busy_s = busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
            let traffic_busy_s = timed_traffic.busy.as_secs_f64();
            add(
                layers,
                "kernel.self_cpu_s",
                run_cpu_s - routing_busy_s - traffic_busy_s,
            );
            add(
                layers,
                "kernel.router_cycles",
                (self.nodes as u64 * stats.cycles) as f64,
            );
            layers.insert("kernel.shards", sim.shard_count() as f64);
            add(layers, "routing.decisions", routing.decision_count() as f64);
            add(layers, "routing.fallbacks", routing.fallback_count() as f64);
            add(layers, "routing.busy_s", routing_busy_s);
            add(layers, "traffic.calls", timed_traffic.calls as f64);
            add(
                layers,
                "traffic.injections",
                timed_traffic.injections as f64,
            );
            add(layers, "traffic.busy_s", traffic_busy_s);
            miss_rates.extend(timed_traffic.inner.llc_miss_rate());
            if self.request_reply {
                for memory in sim.memory_stats() {
                    add(layers, "dram.accesses", memory.total() as f64);
                    add(layers, "dram.row_hits", memory.row_hits as f64);
                }
            }
            runs.push(stats);
        }
        if !miss_rates.is_empty() {
            layers.insert("traffic.llc_miss_rate", median(&miss_rates));
        }
        Ok(runs)
    }
}

/// `elastic_gating`: gates `victims` seeded-random nodes of a String Figure
/// network one event at a time, then ungates them in reverse order. Checks
/// connectivity after every event, and that routed hop counts over a seeded
/// pair sample are the same after restoration as before gating.
pub fn elastic_gating(nodes: usize, victims: usize, seed: u64, layers: Option<&mut Layers>) -> Rep {
    let clock = Clock::start();
    let mut rep = Rep::default();
    let mut digest = Digest::default();
    let mut session = Session {
        rep: &mut rep,
        digest: &mut digest,
        gated: Vec::new(),
        rejected: 0,
    };
    let outcome = match layers {
        None => gate_plain(nodes, victims, seed, &clock, &mut session),
        Some(layers) => gate_traced(nodes, victims, seed, &clock, &mut session, layers),
    };
    clock.finish(&mut rep, &digest, outcome);
    rep
}

/// The seeded victim order of one repetition.
fn victim_order(nodes: usize, victims: usize, seed: u64) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..nodes).map(NodeId::new).collect();
    DeterministicRng::new(seed ^ 0x6a7e_0f0f).shuffle(&mut order);
    order.truncate(victims);
    order
}

/// Routed hop counts over [`HOP_PAIRS`] seeded source/destination pairs.
fn hop_sample(routing: &dyn RoutingProtocol, nodes: usize, seed: u64) -> SfResult<Vec<usize>> {
    let mut rng = DeterministicRng::new(seed ^ 0x0f0f_6a7e);
    (0..HOP_PAIRS)
        .map(|_| {
            let from = NodeId::new(rng.next_index(nodes));
            let to = NodeId::new(rng.next_index(nodes));
            Ok(trace_route(routing, from, to, nodes)?.hops())
        })
        .collect()
}

/// The bookkeeping of one gating repetition.
struct Session<'a> {
    rep: &'a mut Rep,
    digest: &'a mut Digest,
    /// Nodes gated so far, in order.
    gated: Vec<NodeId>,
    /// Gates the topology refused.
    rejected: u64,
}

impl Session<'_> {
    /// Counts and digests one event. A gate the topology refuses is
    /// expected behaviour, not a failure; any other error is, and so is a
    /// disconnected network after the event.
    fn record(&mut self, outcome: SfResult<ReconfigurationEvent>, connected: bool, ms: f64) {
        self.rep.attempted += 1;
        self.rep.event_ms.push(ms);
        match outcome {
            Ok(event) => {
                if event.gated {
                    self.gated.push(event.node);
                }
                self.digest
                    .word(event.node.index() as u64)
                    .word(u64::from(event.gated))
                    .word(event.routers_updated as u64)
                    .word(event.shortcuts_enabled as u64)
                    .word(event.shortcuts_disabled as u64);
            }
            Err(SfError::InvalidReconfiguration { .. }) => {
                self.rejected += 1;
                self.digest.word(u64::MAX);
            }
            Err(_) => self.rep.failed += 1,
        }
        if !connected {
            self.rep.failed += 1;
        }
    }

    /// Compares the restored hop sample with the one taken before gating; a
    /// mismatch fails the last event.
    fn check_restored(&mut self, before: &[usize], after: &[usize]) {
        if before != after && self.rep.failed < self.rep.attempted {
            self.rep.failed += 1;
        }
        for &hops in before {
            self.digest.word(hops as u64);
        }
    }
}

fn gate_plain(
    nodes: usize,
    victims: usize,
    seed: u64,
    clock: &Clock,
    session: &mut Session<'_>,
) -> SfResult<()> {
    let mut network = StringFigureBuilder::new(nodes).seed(seed).build()?;
    session.rep.setup = clock.started.elapsed();
    let before = hop_sample(network.routing(), nodes, seed)?;
    for node in victim_order(nodes, victims, seed) {
        let started = Instant::now();
        let outcome = PowerManager::new(&mut network).gate(node);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        session.record(outcome, network.topology().graph().is_connected(), ms);
    }
    for node in std::mem::take(&mut session.gated).into_iter().rev() {
        let started = Instant::now();
        let outcome = PowerManager::new(&mut network).ungate(node);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        session.record(outcome, network.topology().graph().is_connected(), ms);
    }
    let after = hop_sample(network.routing(), nodes, seed)?;
    session.check_restored(&before, &after);
    Ok(())
}

/// Like [`gate_plain`], calling the two halves of
/// `StringFigureNetwork::gate_node` — the topology change and the routing
/// resync — directly, so their times can be told apart.
fn gate_traced(
    nodes: usize,
    victims: usize,
    seed: u64,
    clock: &Clock,
    session: &mut Session<'_>,
    layers: &mut Layers,
) -> SfResult<()> {
    const ATTRIBUTED: &str = "layers.attributed_s";
    let config = NetworkConfig {
        seed,
        ..NetworkConfig::figure8_string_figure(nodes)
    };
    let mut topology = timed(layers, &["topology.build_s", ATTRIBUTED], || {
        StringFigureTopology::generate(&config)
    })?;
    let mut routing = timed(layers, &["routing.table_build_s", ATTRIBUTED], || {
        GreediestRouting::with_options(&topology, GreediestOptions::default())
    });
    session.rep.setup = clock.started.elapsed();

    let routed = ["routing.busy_s", ATTRIBUTED];
    let before = timed(layers, &routed, || hop_sample(&routing, nodes, seed))?;
    let (mut topology_ms, mut resync_ms) = (Vec::new(), Vec::new());
    let mut reconfigure = |node: NodeId, gate: bool, session: &mut Session<'_>| {
        let started = Instant::now();
        let delta = if gate {
            topology.gate_node(node)
        } else {
            topology.ungate_node(node)
        };
        let changed = Instant::now();
        if delta.is_ok() {
            routing.resync(topology.graph(), topology.spaces());
            resync_ms.push(changed.elapsed().as_secs_f64() * 1e3);
        }
        let ms = started.elapsed().as_secs_f64() * 1e3;
        topology_ms.push((changed - started).as_secs_f64() * 1e3);
        let event = delta.map(|delta| ReconfigurationEvent {
            node,
            gated: delta.gated,
            applied_at_ns: 0.0,
            latency_ns: 0.0,
            routers_updated: delta.affected_neighbors.len(),
            shortcuts_enabled: delta.shortcuts_enabled.len(),
            shortcuts_disabled: delta.shortcuts_disabled.len(),
        });
        session.record(event, topology.graph().is_connected(), ms);
    };
    for node in victim_order(nodes, victims, seed) {
        reconfigure(node, true, session);
    }
    for node in std::mem::take(&mut session.gated).into_iter().rev() {
        reconfigure(node, false, session);
    }
    let after = timed(layers, &routed, || hop_sample(&routing, nodes, seed))?;
    session.check_restored(&before, &after);

    add(
        layers,
        ATTRIBUTED,
        session.rep.event_ms.iter().sum::<f64>() / 1e3,
    );
    layers.insert("power.events", session.rep.attempted as f64);
    layers.insert("power.rejected", session.rejected as f64);
    layers.insert("topology.reconfig_ms_p50", median(&topology_ms));
    layers.insert("routing.resync_ms_p50", median(&resync_ms));
    layers.insert("routing.resync_ms_p90", percentile(&resync_ms, 90.0));
    add(layers, "routing.decisions", routing.decision_count() as f64);
    add(layers, "routing.fallbacks", routing.fallback_count() as f64);
    Ok(())
}

/// The `(design, nodes, seed)` keys the fig10 study requests at quick scale.
const FIG10_SIZES: [usize; 2] = [16, 64];
const FIG10_SEED: u64 = 3;

/// `fig10_sweep`: one `fig10 --quick` study execution on a one-worker pool
/// (for the reason [`sim_config`] gives), with a CSV emitter and checkpoint
/// journal under `dir`. Set-up builds the study's topologies into a fresh
/// cache.
pub fn fig10_sweep(dir: &Path, layers: Option<&mut Layers>) -> Rep {
    let clock = Clock::start();
    let mut rep = Rep {
        attempted: 1,
        ..Rep::default()
    };
    let csv = dir.join("fig10.csv");
    let cache = Arc::new(TopologyCache::new());
    let prepared = prepare_fig10(&cache, dir);
    let ctx = RunContext::new()
        .quick(true)
        .with_pool(PoolConfig::serial())
        .with_build_cache(cache)
        .with_csv(&csv)
        .with_checkpoint(dir.join("fig10.csv.journal"));
    let registry = StudyRegistry::all();
    let study = registry.get("fig10").expect("fig10 is registered");
    rep.setup = clock.started.elapsed();

    let before = Snapshot::take();
    let executed = prepared.and_then(|()| execute(study, &ctx));
    let after = Snapshot::take();

    let output = std::fs::read(&csv).unwrap_or_default();
    if output != FIG10_GOLDEN {
        rep.failed = 1;
    }
    let mut digest = Digest::default();
    for chunk in output.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        digest.word(u64::from_le_bytes(word));
    }
    let _ = std::fs::remove_dir_all(dir);
    clock.finish(&mut rep, &digest, executed.map(drop));

    if let Some(layers) = layers {
        let count = |name| after.count_since(&before, name);
        let span = |name| after.span_s_since(&before, name);
        layers.insert("topology.build_s", rep.setup.as_secs_f64());
        layers.insert("harness.jobs", count("pool.jobs_completed"));
        layers.insert("harness.cache_hits", count("sched.cache_hits"));
        layers.insert("harness.cache_misses", count("sched.cache_misses"));
        layers.insert("harness.topology_build_s", span("topology_build"));
        layers.insert("harness.journal_s", span("journal_io"));
        layers.insert("harness.sink_s", span("sink_flush"));
        layers.insert("harness.backpressure_s", span("pool_backpressure_wait"));
        // Spans are recorded on every worker; spread over the pool they say
        // how much of the run's wall time the named layers account for.
        let spans: f64 = [
            "topology_build",
            "kernel_cycle_phases",
            "commit_replay",
            "journal_io",
            "sink_flush",
            "pool_backpressure_wait",
        ]
        .into_iter()
        .map(span)
        .sum();
        let workers = ctx.pool().threads as f64;
        layers.insert(
            "layers.attributed_s",
            rep.setup.as_secs_f64() + spans / workers,
        );
    }
    rep
}

/// Builds every topology the fig10 study will request into `cache` and
/// creates the artefact directory.
fn prepare_fig10(cache: &TopologyCache, dir: &Path) -> SfResult<()> {
    for kind in TopologyKind::ALL {
        for nodes in FIG10_SIZES {
            cache.get_or_build((kind, nodes, FIG10_SEED), || {
                NetworkInstance::build(kind, nodes, FIG10_SEED)
            })?;
        }
    }
    std::fs::create_dir_all(dir).map_err(|e| SfError::Simulation {
        reason: format!("cannot create {}: {e}", dir.display()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("test-{name}-{}", std::process::id()))
    }

    fn assert_clean(rep: &Rep) {
        assert!(rep.attempted > 0);
        assert_eq!(rep.failed, 0, "{rep:?}");
        assert!(rep.setup > Duration::ZERO && rep.setup <= rep.wall);
    }

    #[test]
    fn paper_uniform_smoke_and_tracing_is_transparent() {
        let plain = paper_uniform(64, 300, 7, None);
        assert_clean(&plain);
        assert_eq!(plain.attempted, 1);
        let mut layers = Layers::new();
        let traced = paper_uniform(64, 300, 7, Some(&mut layers));
        assert_clean(&traced);
        // The decorators must not change a single simulated statistic.
        assert_eq!(plain.digest, traced.digest);
        assert!(layers["routing.decisions"] > 0.0);
        assert!(layers["traffic.injections"] > 0.0);
        assert_eq!(layers["traffic.calls"], 64.0 * 300.0);
        assert_ne!(paper_uniform(64, 300, 8, None).digest, plain.digest);
    }

    #[test]
    fn paper_memory_follows_the_fig12_method() {
        let plain = paper_memory(64, 300, 3, None);
        assert_clean(&plain);
        assert_eq!(plain.attempted, 2);
        let mut layers = Layers::new();
        let traced = paper_memory(64, 300, 3, Some(&mut layers));
        assert_eq!(plain.digest, traced.digest);
        assert!(layers["dram.accesses"] > 0.0);
        assert!(layers["traffic.llc_miss_rate"] > 0.0);
        // The same two runs through the library's own fig12 entry point.
        let instance = NetworkInstance::build(TopologyKind::StringFigure, 64, 3).unwrap();
        let scale = stringfigure::experiments::ExperimentScale {
            max_cycles: 300,
            warmup_cycles: 30,
            ..stringfigure::experiments::ExperimentScale::quick()
        };
        let sockets = stringfigure::experiments::socket_nodes(64, SOCKETS);
        let mut digest = Digest::default();
        for model in [ApplicationModel::Redis, ApplicationModel::MatMul] {
            let stats =
                stringfigure::experiments::run_workload_on(&instance, model, &sockets, scale, 3)
                    .unwrap();
            digest.stats(&stats);
        }
        assert_eq!(digest.finish(), plain.digest);
    }

    #[test]
    fn elastic_gating_restores_the_network() {
        let plain = elastic_gating(64, 6, 5, None);
        assert_clean(&plain);
        assert_eq!(plain.attempted, 12);
        assert_eq!(plain.event_ms.len(), 12);
        let mut layers = Layers::new();
        let traced = elastic_gating(64, 6, 5, Some(&mut layers));
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(layers["power.events"], 12.0);
        assert!(layers["routing.resync_ms_p50"] > 0.0);
    }

    #[test]
    fn fig10_sweep_reproduces_the_golden_csv() {
        let dir = scratch("fig10");
        let mut layers = Layers::new();
        let rep = fig10_sweep(&dir, Some(&mut layers));
        assert_clean(&rep);
        assert!(!dir.exists(), "the artefact directory is removed");
        assert_eq!(layers["harness.jobs"], 36.0);
        assert_eq!(
            layers["harness.cache_misses"], 0.0,
            "set-up built every topology"
        );
    }
}
