//! Experiment drivers that regenerate the paper's tables and figures.
//!
//! Each function corresponds to one evaluation artefact and returns plain
//! serialisable rows. Every driver runs inside a [`crate::study::RunContext`]
//! (worker pool, topology cache, checkpoint/resume): the registered
//! [`crate::study`] studies and the `sfbench` CLI call them with the paper's
//! parameters, and the integration tests run them at reduced scale
//! (`RunContext::new()`, or `.with_pool(..)` for an explicit worker count) to
//! check the qualitative trends (who wins, and by roughly how much).
//!
//! | function | paper artefact |
//! |----------|----------------|
//! | [`surg_path_length_study_with_ctx`]       | Figure 5 |
//! | [`hop_count_study_with_ctx`]              | Figure 9(a) |
//! | [`power_gating_study_with_ctx`]           | Figure 9(b) |
//! | [`saturation_study_with_ctx`]             | Figure 10 |
//! | [`latency_curve_with_ctx`]                | Figure 11 |
//! | [`workload_study_with_ctx`]               | Figure 12(a) and 12(b) |
//! | [`bisection_study_with_ctx`]              | Section V bisection methodology |
//! | [`configuration_table_with_ctx`]          | Figure 8 / Table II |
//! | [`fault_resilience_study_with_ctx`]       | Scenario: fault injection |
//! | [`adversarial_saturation_study_with_ctx`] | Scenario: adversarial traffic |
//! | [`scaleout_study_with_ctx`]               | Scenario: scale-out beyond 1296 nodes |
//!
//! Every row type is declared once with the module's `row!` schema, which
//! derives the row's [`Record`] columns and values and its
//! [`CheckpointRow`] journal encoding from the one field list: each field is
//! one column, named after the field, in declaration order.

use crate::comparison::{NetworkInstance, TopologyKind};
use crate::network::{ActiveNodeTraffic, StringFigureNetwork};
use crate::power::PowerManager;
use crate::study::{CheckpointRow, RunContext};
use serde::{Deserialize, Serialize};
use sf_harness::sweep::{cross2, cross3};
use sf_harness::table::{Record, Value};
use sf_netsim::SimulationStats;
use sf_topology::analysis;
use sf_types::{FaultPlan, NodeId, SfResult, SimulationConfig, SystemConfig};
use sf_workloads::{
    AddressMapper, ApplicationModel, CacheHierarchy, PatternTraffic, SyntheticPattern,
    WorkloadTraffic,
};

// ---------------------------------------------------------------------------
// Result rows: one declaration per row type
// ---------------------------------------------------------------------------

/// One typed field of a result row: the table cell it renders as, and the
/// exact decode back from that cell (`from_cell(&x.to_cell()) == Some(x)`).
pub(crate) trait Cell: Sized {
    /// This field as a table cell.
    fn to_cell(&self) -> Value;
    /// The field a cell encodes; `None` for a cell of the wrong type.
    fn from_cell(cell: &Value) -> Option<Self>;
}

/// `Cell` for types stored directly in one [`Value`] variant.
macro_rules! variant_cell {
    ($($ty:ty => $variant:ident),*) => {$(
        impl Cell for $ty {
            fn to_cell(&self) -> Value {
                Value::$variant(*self)
            }
            fn from_cell(cell: &Value) -> Option<Self> {
                match cell {
                    Value::$variant(x) => Some(*x),
                    _ => None,
                }
            }
        }
    )*};
}

/// `Cell` for enums rendered by `name()` and parsed back by `from_name`.
macro_rules! named_cell {
    ($($ty:ty),*) => {$(
        impl Cell for $ty {
            fn to_cell(&self) -> Value {
                self.name().into()
            }
            fn from_cell(cell: &Value) -> Option<Self> {
                match cell {
                    Value::Str(name) => Self::from_name(name),
                    _ => None,
                }
            }
        }
    )*};
}

variant_cell!(f64 => Float, u64 => UInt, bool => Bool);
named_cell!(TopologyKind, SyntheticPattern, ApplicationModel);

impl Cell for usize {
    fn to_cell(&self) -> Value {
        (*self).into()
    }
    fn from_cell(cell: &Value) -> Option<Self> {
        u64::from_cell(cell).and_then(|u| usize::try_from(u).ok())
    }
}

impl Cell for Option<f64> {
    fn to_cell(&self) -> Value {
        (*self).into()
    }
    fn from_cell(cell: &Value) -> Option<Self> {
        match cell {
            Value::Null => Some(None),
            other => f64::from_cell(other).map(Some),
        }
    }
}

/// Declares a result row once: the struct, its [`Record`] impl (one column
/// per field, named after the field, in declaration order) and its
/// [`CheckpointRow`] impl, whose decode accepts exactly the row's arity and
/// field types and returns `None` for anything else.
macro_rules! row {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* pub $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        pub struct $name {
            $($(#[$field_meta])* pub $field: $ty),*
        }

        impl Record for $name {
            fn columns() -> Vec<&'static str> {
                vec![$(stringify!($field)),*]
            }
            fn values(&self) -> Vec<Value> {
                vec![$(Cell::to_cell(&self.$field)),*]
            }
        }

        impl CheckpointRow for $name {
            fn to_cells(&self) -> Vec<Value> {
                self.values()
            }
            fn from_cells(cells: &[Value]) -> Option<Self> {
                let mut cells = cells.iter();
                let row = Self {
                    $($field: Cell::from_cell(cells.next()?)?),*
                };
                cells.next().is_none().then_some(row)
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Simulation scale
// ---------------------------------------------------------------------------

/// Controls how long the cycle-level simulations of an experiment run.
///
/// The paper's RTL runs use 100,000 operations; integration tests use the
/// `quick` scale so the whole suite stays fast, while the bench harness uses
/// `paper` scale. The scale holds only what changes a row: telemetry is
/// recorded by the [`RunContext`] that runs the study, never configured
/// here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Simulated cycles per run.
    pub max_cycles: u64,
    /// Warm-up cycles excluded from the statistics.
    pub warmup_cycles: u64,
}

impl ExperimentScale {
    /// Small scale for tests (about a thousand cycles).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            max_cycles: 1_200,
            warmup_cycles: 200,
        }
    }

    /// Full scale used by the benchmark harness.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            max_cycles: 20_000,
            warmup_cycles: 2_000,
        }
    }

    /// The corresponding simulator configuration.
    #[must_use]
    pub fn simulation_config(&self) -> SimulationConfig {
        SimulationConfig {
            max_cycles: self.max_cycles,
            warmup_cycles: self.warmup_cycles,
            ..SimulationConfig::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Figure 5: sufficiently-uniform-random-graph path-length comparison
// ---------------------------------------------------------------------------

row! {
    /// One row of the Figure 5 comparison.
    pub struct SurgRow {
        /// Network size.
        pub nodes: usize,
        /// Average shortest path length of Jellyfish.
        pub jellyfish: f64,
        /// Average shortest path length of S2.
        pub s2: f64,
        /// Average shortest path length of String Figure.
        pub string_figure: f64,
    }
}

/// Reproduces Figure 5: average shortest path lengths of Jellyfish, S2, and
/// String Figure across network sizes, averaged over `seeds` generated
/// topologies each.
///
/// The driver behind the `fig05` study.
///
/// # Errors
///
/// Propagates topology construction errors.
pub fn surg_path_length_study_with_ctx(
    ctx: &RunContext,
    sizes: &[usize],
    seeds: u64,
) -> SfResult<Vec<SurgRow>> {
    const KINDS: [TopologyKind; 3] = [
        TopologyKind::Jellyfish,
        TopologyKind::SpaceShuffle,
        TopologyKind::StringFigure,
    ];
    // One job per (size, topology seed, design) in row-major order;
    // aggregation back into one row per size happens serially below, in
    // enumeration order, so the float accumulation order matches the old
    // nested loops exactly.
    let seed_list: Vec<u64> = (0..seeds.max(1)).collect();
    let points = cross3(sizes, &seed_list, &KINDS);
    let lengths = ctx.run_jobs(points, |(nodes, seed, kind)| {
        Ok(ctx.instance(kind, nodes, seed + 1)?.average_shortest_path())
    })?;

    let denom = seeds.max(1) as f64;
    let per_size = seed_list.len() * KINDS.len();
    let mut rows = Vec::with_capacity(sizes.len());
    for (si, &nodes) in sizes.iter().enumerate() {
        let mut sums = [0.0f64; 3];
        for (pi, length) in lengths[si * per_size..(si + 1) * per_size]
            .iter()
            .enumerate()
        {
            sums[pi % KINDS.len()] += length;
        }
        rows.push(SurgRow {
            nodes,
            jellyfish: sums[0] / denom,
            s2: sums[1] / denom,
            string_figure: sums[2] / denom,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Figure 9(a): average hop counts across designs and scales
// ---------------------------------------------------------------------------

row! {
    /// One row of the Figure 9(a) hop-count study.
    pub struct HopCountRow {
        /// Network design.
        pub kind: TopologyKind,
        /// Network size.
        pub nodes: usize,
        /// Average shortest-path length (graph metric).
        pub average_shortest_path: f64,
        /// Average hop count actually taken by the design's routing protocol.
        pub average_routed_hops: f64,
        /// Router ports this design needs at this scale.
        pub router_ports: usize,
    }
}

/// Reproduces Figure 9(a): average hop counts of every design across network
/// sizes, using each design's own routing protocol over `samples` random
/// source/destination pairs.
///
/// The driver behind the `fig09a` study.
///
/// # Errors
///
/// Propagates topology construction and routing errors.
pub fn hop_count_study_with_ctx(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    sizes: &[usize],
    samples: usize,
    seed: u64,
) -> SfResult<Vec<HopCountRow>> {
    ctx.run_jobs(cross2(sizes, kinds), |(nodes, kind)| {
        let instance = ctx.instance(kind, nodes, seed)?;
        Ok(HopCountRow {
            kind,
            nodes,
            average_shortest_path: instance.average_shortest_path(),
            average_routed_hops: instance.average_routed_hops(samples)?,
            router_ports: instance.router_ports(),
        })
    })
}

// ---------------------------------------------------------------------------
// Figure 10: network saturation points
// ---------------------------------------------------------------------------

row! {
    /// One saturation measurement.
    pub struct SaturationRow {
        /// Network design.
        pub kind: TopologyKind,
        /// Network size.
        pub nodes: usize,
        /// Traffic pattern evaluated.
        pub pattern: SyntheticPattern,
        /// Highest injection rate (as a percentage) that did not saturate the
        /// network; `None` when even the lowest rate saturated.
        pub saturation_percent: Option<f64>,
    }
}

/// Reproduces Figure 10: sweeps injection rates and reports the saturation
/// point of each design/size/pattern combination.
///
/// A rate counts as saturated when the simulator's backlog heuristic triggers
/// or the average latency exceeds four times the latency at the lowest rate.
///
/// The driver behind the `fig10` study.
///
/// One job per design; the injection-rate ladder inside a job stays serial
/// because each rung's early exit depends on the previous one.
///
/// # Errors
///
/// Propagates construction and simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn saturation_study_with_ctx(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    nodes: usize,
    pattern: SyntheticPattern,
    rates: &[f64],
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<Vec<SaturationRow>> {
    ctx.run_jobs(kinds.to_vec(), |kind| {
        let instance = ctx.instance(kind, nodes, seed)?;
        let mut best: Option<f64> = None;
        let mut base_latency: Option<f64> = None;
        for &rate in rates {
            let stats = run_pattern_on(&instance, pattern, rate, scale, seed)?;
            let latency = stats.average_latency_cycles();
            let base = *base_latency.get_or_insert(latency.max(1.0));
            let saturated = stats.is_saturated() || latency > 4.0 * base;
            if saturated {
                break;
            }
            best = Some(rate);
        }
        Ok(SaturationRow {
            kind,
            nodes,
            pattern,
            saturation_percent: best.map(|r| r * 100.0),
        })
    })
}

/// Runs one synthetic-pattern simulation on a pre-built instance.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_pattern_on(
    instance: &NetworkInstance,
    pattern: SyntheticPattern,
    injection_rate: f64,
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<SimulationStats> {
    let mut sim = instance.make_simulator(SystemConfig::default(), scale.simulation_config())?;
    let mut traffic = PatternTraffic::new(pattern, instance.num_nodes(), injection_rate, seed);
    sim.run(&mut traffic)
}

// ---------------------------------------------------------------------------
// Figure 11: latency versus injection rate curves
// ---------------------------------------------------------------------------

row! {
    /// One point of a latency-versus-injection-rate curve.
    pub struct LatencyPoint {
        /// Injection rate (packets per node per cycle).
        pub injection_rate: f64,
        /// Average packet latency in cycles.
        pub average_latency_cycles: f64,
        /// Accepted throughput (delivered packets per node per cycle).
        pub accepted_throughput: f64,
        /// Whether the run saturated.
        pub saturated: bool,
    }
}

/// Reproduces one curve of Figure 11: average packet latency of `kind` under
/// `pattern` across the given injection rates.
///
/// The driver behind the `fig11` study: one job per injection rate, all
/// sharing the cached network instance.
///
/// # Errors
///
/// Propagates construction and simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn latency_curve_with_ctx(
    ctx: &RunContext,
    kind: TopologyKind,
    nodes: usize,
    pattern: SyntheticPattern,
    rates: &[f64],
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<Vec<LatencyPoint>> {
    let instance = ctx.instance(kind, nodes, seed)?;
    ctx.run_jobs(rates.to_vec(), |rate| {
        let stats = run_pattern_on(&instance, pattern, rate, scale, seed)?;
        let measured = scale.max_cycles - scale.warmup_cycles;
        Ok(LatencyPoint {
            injection_rate: rate,
            average_latency_cycles: stats.average_latency_cycles(),
            accepted_throughput: stats.accepted_throughput(measured),
            saturated: stats.is_saturated(),
        })
    })
}

// ---------------------------------------------------------------------------
// Figure 12: real-workload throughput and energy
// ---------------------------------------------------------------------------

row! {
    /// Result of one design running one application workload.
    pub struct WorkloadRow {
        /// Network design.
        pub kind: TopologyKind,
        /// Application evaluated.
        pub workload: ApplicationModel,
        /// Completed memory requests per cycle (the throughput proxy the
        /// normalised Figure 12(a) bars are derived from).
        pub requests_per_cycle: f64,
        /// Average memory-request round-trip latency in cycles.
        pub average_round_trip_cycles: f64,
        /// Dynamic memory energy per completed request, in picojoules.
        pub energy_per_request_pj: f64,
        /// Total dynamic energy, in picojoules.
        pub total_energy_pj: f64,
    }
}

/// Reproduces Figure 12: runs each application on each design in
/// request–reply mode from `socket_count` processor-attached nodes and
/// reports throughput and dynamic energy.
///
/// The driver behind the `fig12` study: one job per (design, application)
/// pair.
///
/// # Errors
///
/// Propagates construction, workload, and simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn workload_study_with_ctx(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    workloads: &[ApplicationModel],
    nodes: usize,
    socket_count: usize,
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<Vec<WorkloadRow>> {
    let injectors = socket_nodes(nodes, socket_count);
    ctx.run_jobs(cross2(kinds, workloads), |(kind, workload)| {
        let instance = ctx.instance(kind, nodes, seed)?;
        let stats = run_workload_on(&instance, workload, &injectors, scale, seed)?;
        let measured = scale.max_cycles - scale.warmup_cycles;
        let completed = stats.completed_requests.max(1);
        Ok(WorkloadRow {
            kind,
            workload,
            requests_per_cycle: stats.completed_requests as f64 / measured as f64,
            average_round_trip_cycles: stats.average_round_trip_cycles(),
            energy_per_request_pj: stats.total_energy_pj() / completed as f64,
            total_energy_pj: stats.total_energy_pj(),
        })
    })
}

/// Runs one application workload on a pre-built instance.
///
/// # Errors
///
/// Propagates workload and simulation errors.
pub fn run_workload_on(
    instance: &NetworkInstance,
    workload: ApplicationModel,
    injectors: &[NodeId],
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<SimulationStats> {
    let mapper = AddressMapper::paper_default(instance.num_nodes())?;
    // A reduced cache keeps the miss stream dense enough to exercise the
    // network within the simulated window (the paper's traces are likewise
    // collected post-initialisation, when caches are already thrashing).
    let cache = CacheHierarchy::tiny()?;
    let mut traffic = WorkloadTraffic::with_cache(workload, mapper, injectors, seed, &cache)?;
    let mut sim = instance
        .make_simulator(SystemConfig::default(), scale.simulation_config())?
        .with_request_reply(true);
    sim.run(&mut traffic)
}

/// Evenly spreads `count` processor sockets over the memory nodes (processors
/// can attach to any node in String Figure; the evaluation attaches them to a
/// spread-out subset).
#[must_use]
pub fn socket_nodes(nodes: usize, count: usize) -> Vec<NodeId> {
    let count = count.clamp(1, nodes);
    (0..count).map(|i| NodeId::new(i * nodes / count)).collect()
}

// ---------------------------------------------------------------------------
// Figure 9(b): power-gating energy-delay product
// ---------------------------------------------------------------------------

row! {
    /// One point of the Figure 9(b) power-management study.
    pub struct PowerGateRow {
        /// Fraction of memory nodes gated off.
        pub gated_fraction: f64,
        /// Number of nodes actually gated.
        pub gated_nodes: usize,
        /// Energy-delay product of the run (pJ · cycles).
        pub energy_delay_product: f64,
        /// EDP normalised to the un-gated run (lower is better).
        pub normalized_edp: f64,
        /// Average request round-trip latency in cycles.
        pub average_round_trip_cycles: f64,
    }
}

/// Reproduces Figure 9(b): runs `workload` on a String Figure network while
/// power gating increasing fractions of the memory nodes, reporting the
/// normalised energy-delay product.
///
/// The driver behind the `fig09b` study.
///
/// Every fraction is an independent job (each builds and gates its own
/// network, so nothing is shared); normalisation against the first
/// fraction's EDP happens serially once all jobs are in, which keeps the
/// output identical to the old strictly-serial loop.
///
/// # Errors
///
/// Propagates construction, reconfiguration, and simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn power_gating_study_with_ctx(
    ctx: &RunContext,
    nodes: usize,
    fractions: &[f64],
    workload: ApplicationModel,
    socket_count: usize,
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<Vec<PowerGateRow>> {
    let mut rows = ctx.run_jobs(fractions.to_vec(), |fraction| {
        let mut network = StringFigureNetwork::builder(nodes)
            .seed(seed)
            .simulation(scale.simulation_config())
            .build()?;
        let gated = if fraction > 0.0 {
            let mut pm = PowerManager::new(&mut network);
            pm.gate_fraction(fraction, seed)?
        } else {
            Vec::new()
        };
        // The workload runs over the dense ids of the nodes that remain
        // powered: processor sockets spread over them and data is
        // redistributed across them.
        let active: Vec<NodeId> = network.topology().graph().active_nodes().collect();
        let injectors = socket_nodes(active.len(), socket_count);
        let mapper = AddressMapper::paper_default(active.len())?;
        let cache = CacheHierarchy::tiny()?;
        let mut traffic = ActiveNodeTraffic::new(
            active,
            WorkloadTraffic::with_cache(workload, mapper, &injectors, seed, &cache)?,
        );
        let stats = network.run_traffic(&mut traffic, scale.simulation_config(), true)?;
        Ok(PowerGateRow {
            gated_fraction: fraction,
            gated_nodes: gated.len(),
            energy_delay_product: stats.energy_delay_product(),
            // Filled in below once the baseline (first fraction) is known.
            normalized_edp: 0.0,
            average_round_trip_cycles: stats.average_round_trip_cycles(),
        })
    })?;
    let base = rows
        .first()
        .map_or(1.0, |r| r.energy_delay_product.max(f64::MIN_POSITIVE));
    for row in &mut rows {
        row.normalized_edp = row.energy_delay_product / base;
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Bisection bandwidth and configuration tables
// ---------------------------------------------------------------------------

row! {
    /// One row of the bisection-bandwidth study.
    pub struct BisectionRow {
        /// Network design.
        pub kind: TopologyKind,
        /// Network size.
        pub nodes: usize,
        /// Empirical minimum bisection bandwidth (links across the cut).
        pub minimum: u64,
        /// Mean bisection bandwidth over the sampled cuts.
        pub average: f64,
    }
}

/// Reproduces the bisection-bandwidth methodology of Section V (50 random
/// bisections, averaged over generated topologies).
///
/// The driver behind the `bisection` study: one job per (design, generated
/// topology), averaged per design afterwards in enumeration order.
///
/// # Errors
///
/// Propagates construction errors.
pub fn bisection_study_with_ctx(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    nodes: usize,
    cuts: usize,
    topologies: u64,
) -> SfResult<Vec<BisectionRow>> {
    let seed_list: Vec<u64> = (0..topologies.max(1)).collect();
    let samples = ctx.run_jobs(cross2(kinds, &seed_list), |(kind, seed)| {
        let instance = ctx.instance(kind, nodes, seed + 1)?;
        Ok(instance.bisection_bandwidth(cuts, seed + 100))
    })?;

    let denom = topologies.max(1);
    let per_kind = seed_list.len();
    let mut rows = Vec::with_capacity(kinds.len());
    for (ki, &kind) in kinds.iter().enumerate() {
        let mut min_sum = 0u64;
        let mut avg_sum = 0.0;
        for bb in &samples[ki * per_kind..(ki + 1) * per_kind] {
            min_sum += bb.minimum;
            avg_sum += bb.average;
        }
        rows.push(BisectionRow {
            kind,
            nodes,
            minimum: min_sum / denom,
            average: avg_sum / denom as f64,
        });
    }
    Ok(rows)
}

row! {
    /// One row of the Figure 8 / Table II configuration summary.
    pub struct ConfigurationRow {
        /// Network design.
        pub kind: TopologyKind,
        /// Network size.
        pub nodes: usize,
        /// Router ports required.
        pub router_ports: usize,
        /// Total links in the network.
        pub links: usize,
        /// Whether the design needs high-radix routers (Table II).
        pub requires_high_radix: bool,
        /// Whether the design supports reconfigurable scaling (Table II).
        pub supports_reconfiguration: bool,
    }
}

/// Reproduces the Figure 8 configuration table plus Table II's feature
/// matrix for the given sizes.
///
/// The driver behind the `fig08` study.
///
/// # Errors
///
/// Propagates construction errors.
pub fn configuration_table_with_ctx(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    sizes: &[usize],
    seed: u64,
) -> SfResult<Vec<ConfigurationRow>> {
    ctx.run_jobs(cross2(sizes, kinds), |(nodes, kind)| {
        let instance = ctx.instance(kind, nodes, seed)?;
        Ok(ConfigurationRow {
            kind,
            nodes,
            router_ports: instance.router_ports(),
            links: instance.graph().num_edges(),
            requires_high_radix: kind.requires_high_radix(),
            supports_reconfiguration: kind.supports_reconfiguration(),
        })
    })
}

// ---------------------------------------------------------------------------
// Scenario: fault injection, adversarial traffic, scale-out
// ---------------------------------------------------------------------------

row! {
    /// One row of the fault-resilience scenario study: one design under one
    /// fault severity.
    pub struct FaultResilienceRow {
        /// Network design.
        pub kind: TopologyKind,
        /// Network size.
        pub nodes: usize,
        /// Undirected links taken down per fault wave.
        pub links_per_wave: usize,
        /// Routers power-gated per fault wave.
        pub routers_per_wave: usize,
        /// Link-down fault events the run applied.
        pub link_down_events: u64,
        /// Router power-gate fault events the run applied.
        pub router_down_events: u64,
        /// Memory requests injected during the measured phase.
        pub injected: u64,
        /// Requests whose reply made it back during the measured phase — the
        /// end-to-end survivors.
        pub completed_requests: u64,
        /// Packets lost to fault injection over the whole run.
        pub dropped_packets: u64,
        /// Completed requests / injected requests (the survival metric of the
        /// scenario; can slightly exceed 1 on a healthy network because warm-up
        /// requests complete inside the measured window).
        pub completion_ratio: f64,
        /// Average request round-trip latency in cycles.
        pub average_round_trip_cycles: f64,
    }
}

impl FaultResilienceRow {
    /// Total fault events (link-down plus router power-gate) the run applied.
    #[must_use]
    pub fn fault_events(&self) -> u64 {
        self.link_down_events + self.router_down_events
    }
}

/// Scenario study: how each design degrades (delivery ratio, drops, latency)
/// under deterministic waves of link failures and router power-gate events,
/// at increasing severity. Severity `(0, 0)` is the healthy baseline row,
/// run without any fault plan — pinning the zero-cost-off contract.
///
/// The driver behind the `fault_resilience` study: one job per (design,
/// severity) pair.
///
/// # Errors
///
/// Propagates construction and simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn fault_resilience_study_with_ctx(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    nodes: usize,
    severities: &[(usize, usize)],
    injection_rate: f64,
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<Vec<FaultResilienceRow>> {
    let measured = (scale.max_cycles - scale.warmup_cycles).max(1);
    ctx.run_jobs(cross2(kinds, severities), |(kind, (links, routers))| {
        let instance = ctx.instance(kind, nodes, seed)?;
        let plan = (links > 0 || routers > 0).then(|| {
            FaultPlan::new(seed ^ 0x00fa_0175)
                .starting_at(scale.warmup_cycles)
                .with_period((measured / 8).max(1))
                .with_severity(links, routers)
                .with_repair_cycles((measured / 16).max(1))
        });
        let config = scale.simulation_config().with_fault(plan);
        let mut sim = instance
            .make_simulator(SystemConfig::default(), config)?
            .with_request_reply(true);
        let mut traffic =
            PatternTraffic::new(SyntheticPattern::UniformRandom, nodes, injection_rate, seed);
        let stats = sim.run(&mut traffic)?;
        Ok(FaultResilienceRow {
            kind,
            nodes,
            links_per_wave: links,
            routers_per_wave: routers,
            link_down_events: stats.link_down_events,
            router_down_events: stats.router_down_events,
            injected: stats.injected,
            completed_requests: stats.completed_requests,
            dropped_packets: stats.dropped_packets,
            completion_ratio: stats.completed_requests as f64 / stats.injected.max(1) as f64,
            average_round_trip_cycles: stats.average_round_trip_cycles(),
        })
    })
}

/// Scenario study: the Figure 10 saturation methodology driven by the three
/// adversarial traffic patterns ([`SyntheticPattern::ADVERSARIAL`]) instead
/// of the paper's well-behaved Table III patterns.
///
/// The driver behind the `adversarial_saturation` study.
///
/// # Errors
///
/// Propagates construction and simulation errors.
pub fn adversarial_saturation_study_with_ctx(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    nodes: usize,
    rates: &[f64],
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<Vec<SaturationRow>> {
    let mut rows = Vec::with_capacity(SyntheticPattern::ADVERSARIAL.len() * kinds.len());
    for pattern in SyntheticPattern::ADVERSARIAL {
        rows.extend(saturation_study_with_ctx(
            ctx, kinds, nodes, pattern, rates, scale, seed,
        )?);
    }
    Ok(rows)
}

/// Scenario study: the Figure 9(a) hop-count methodology pushed beyond the
/// paper's 1296-node maximum, for the designs whose radix does not grow with
/// scale.
///
/// The driver behind the `scaleout_2048` study.
///
/// # Errors
///
/// Propagates topology construction and routing errors.
pub fn scaleout_study_with_ctx(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    sizes: &[usize],
    samples: usize,
    seed: u64,
) -> SfResult<Vec<HopCountRow>> {
    hop_count_study_with_ctx(ctx, kinds, sizes, samples, seed)
}

/// Average-path-length summary of a partially gated String Figure network,
/// used by the reconfiguration examples and tests.
///
/// # Errors
///
/// Propagates construction and reconfiguration errors.
pub fn gated_path_length(
    nodes: usize,
    fraction: f64,
    seed: u64,
) -> SfResult<analysis::PathLengthStats> {
    let mut network = StringFigureNetwork::builder(nodes).seed(seed).build()?;
    let mut pm = PowerManager::new(&mut network);
    pm.gate_fraction(fraction, seed)?;
    Ok(network.path_stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_harness::pool::PoolConfig;

    #[test]
    fn surg_rows_show_flat_scaling() {
        let rows = surg_path_length_study_with_ctx(&RunContext::new(), &[64, 200], 2).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.string_figure < 6.0);
            assert!((row.string_figure - row.s2).abs() < 1.0);
            assert!((row.string_figure - row.jellyfish).abs() < 1.5);
        }
        // Tripling the size should cost well under one extra hop.
        assert!(rows[1].string_figure - rows[0].string_figure < 1.0);
    }

    #[test]
    fn hop_count_study_orders_designs() {
        let rows = hop_count_study_with_ctx(
            &RunContext::new(),
            &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
            &[144],
            200,
            1,
        )
        .unwrap();
        let mesh = rows
            .iter()
            .find(|r| r.kind == TopologyKind::DistributedMesh)
            .unwrap();
        let sf = rows
            .iter()
            .find(|r| r.kind == TopologyKind::StringFigure)
            .unwrap();
        assert!(mesh.average_routed_hops > sf.average_routed_hops);
        assert!(sf.average_routed_hops < 8.0);
        assert_eq!(sf.router_ports, 8);
    }

    #[test]
    fn saturation_study_runs_and_mesh_saturates_first() {
        let rates = [0.02, 0.10, 0.30, 0.60];
        let rows = saturation_study_with_ctx(
            &RunContext::new(),
            &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
            36,
            SyntheticPattern::UniformRandom,
            &rates,
            ExperimentScale::quick(),
            3,
        )
        .unwrap();
        let mesh = &rows[0];
        let sf = &rows[1];
        let mesh_sat = mesh.saturation_percent.unwrap_or(0.0);
        let sf_sat = sf.saturation_percent.unwrap_or(0.0);
        assert!(
            sf_sat >= mesh_sat,
            "SF {sf_sat} should beat mesh {mesh_sat}"
        );
    }

    #[test]
    fn latency_curve_is_monotonic_until_saturation() {
        let points = latency_curve_with_ctx(
            &RunContext::new(),
            TopologyKind::StringFigure,
            32,
            SyntheticPattern::UniformRandom,
            &[0.02, 0.20],
            ExperimentScale::quick(),
            5,
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        assert!(points[1].average_latency_cycles >= points[0].average_latency_cycles * 0.8);
        assert!(points[0].accepted_throughput > 0.0);
    }

    #[test]
    fn workload_study_produces_rows_for_each_pair() {
        let rows = workload_study_with_ctx(
            &RunContext::new(),
            &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
            &[ApplicationModel::Memcached],
            32,
            4,
            ExperimentScale::quick(),
            7,
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.requests_per_cycle > 0.0, "{}", row.kind);
            assert!(row.total_energy_pj > 0.0);
            assert!(row.average_round_trip_cycles > 0.0);
        }
    }

    #[test]
    fn power_gating_study_produces_normalized_rows() {
        let rows = power_gating_study_with_ctx(
            &RunContext::new(),
            48,
            &[0.0, 0.25],
            ApplicationModel::SparkGrep,
            4,
            ExperimentScale::quick(),
            9,
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert!((rows[0].normalized_edp - 1.0).abs() < 1e-9);
        assert_eq!(rows[0].gated_nodes, 0);
        assert!(rows[1].gated_nodes >= 8);
        assert!(rows[1].normalized_edp > 0.0);
    }

    #[test]
    fn bisection_and_configuration_tables() {
        let bisection = bisection_study_with_ctx(
            &RunContext::new(),
            &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
            36,
            5,
            2,
        )
        .unwrap();
        let mesh = &bisection[0];
        let sf = &bisection[1];
        assert!(
            sf.minimum >= mesh.minimum,
            "SF {} vs mesh {}",
            sf.minimum,
            mesh.minimum
        );

        let config =
            configuration_table_with_ctx(&RunContext::new(), &TopologyKind::ALL, &[64], 1).unwrap();
        assert_eq!(config.len(), 6);
        let fb = config
            .iter()
            .find(|r| r.kind == TopologyKind::FlattenedButterfly)
            .unwrap();
        let sf_row = config
            .iter()
            .find(|r| r.kind == TopologyKind::StringFigure)
            .unwrap();
        assert!(fb.router_ports > sf_row.router_ports);
        assert!(fb.links > sf_row.links);
        assert!(sf_row.supports_reconfiguration);
    }

    #[test]
    fn fault_resilience_study_degrades_with_severity() {
        let rows = fault_resilience_study_with_ctx(
            &RunContext::new(),
            &[TopologyKind::StringFigure],
            36,
            &[(0, 0), (3, 2)],
            0.05,
            ExperimentScale::quick(),
            11,
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        let healthy = &rows[0];
        let stormy = &rows[1];
        assert_eq!(healthy.link_down_events, 0);
        assert_eq!(healthy.router_down_events, 0);
        assert_eq!(healthy.dropped_packets, 0);
        assert!(healthy.completion_ratio > 0.95, "{healthy:?}");
        assert!(stormy.fault_events() > 0);
        assert!(stormy.dropped_packets > 0);
        assert!(
            stormy.completed_requests > 0,
            "network must survive the storm"
        );
        assert!(stormy.completion_ratio <= healthy.completion_ratio + 1e-9);
    }

    #[test]
    fn adversarial_saturation_covers_every_adversarial_pattern() {
        let rows = adversarial_saturation_study_with_ctx(
            &RunContext::new(),
            &[TopologyKind::StringFigure],
            36,
            &[0.05, 0.30],
            ExperimentScale::quick(),
            3,
        )
        .unwrap();
        assert_eq!(rows.len(), SyntheticPattern::ADVERSARIAL.len());
        for (row, pattern) in rows.iter().zip(SyntheticPattern::ADVERSARIAL) {
            assert_eq!(row.pattern, pattern);
        }
    }

    #[test]
    fn scaleout_study_reaches_beyond_small_scales() {
        let rows = scaleout_study_with_ctx(
            &RunContext::new(),
            &[TopologyKind::SpaceShuffle, TopologyKind::StringFigure],
            &[64, 128],
            50,
            7,
        )
        .unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.average_routed_hops >= 1.0, "{row:?}");
        }
    }

    #[test]
    fn socket_nodes_spread_evenly() {
        let sockets = socket_nodes(16, 4);
        assert_eq!(
            sockets,
            vec![
                NodeId::new(0),
                NodeId::new(4),
                NodeId::new(8),
                NodeId::new(12)
            ]
        );
        assert_eq!(socket_nodes(4, 10).len(), 4);
        assert_eq!(socket_nodes(100, 1), vec![NodeId::new(0)]);
    }

    #[test]
    fn gated_path_length_stays_bounded() {
        let full = gated_path_length(64, 0.0, 1).unwrap();
        let gated = gated_path_length(64, 0.3, 1).unwrap();
        assert!(gated.average < full.average + 2.0);
        assert_eq!(gated.unreachable_pairs, 0);
    }

    #[test]
    fn experiment_scales() {
        assert!(ExperimentScale::paper().max_cycles > ExperimentScale::quick().max_cycles);
        assert!(ExperimentScale::quick()
            .simulation_config()
            .validate()
            .is_ok());
    }

    /// The acceptance criterion of the harness refactor: running a study on
    /// one worker and on many workers yields byte-for-byte identical rows.
    #[test]
    fn studies_are_bit_identical_serial_vs_parallel() {
        let serial = RunContext::new().with_pool(PoolConfig::serial());
        let parallel = RunContext::new().with_pool(PoolConfig::threads(4));

        let surg_a = surg_path_length_study_with_ctx(&serial, &[64, 100], 3).unwrap();
        let surg_b = surg_path_length_study_with_ctx(&parallel, &[64, 100], 3).unwrap();
        assert_eq!(surg_a, surg_b);

        let hops_a = hop_count_study_with_ctx(
            &serial,
            &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
            &[64, 100],
            50,
            1,
        )
        .unwrap();
        let hops_b = hop_count_study_with_ctx(
            &parallel,
            &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
            &[64, 100],
            50,
            1,
        )
        .unwrap();
        assert_eq!(hops_a, hops_b);

        let curve_a = latency_curve_with_ctx(
            &serial,
            TopologyKind::StringFigure,
            32,
            SyntheticPattern::UniformRandom,
            &[0.02, 0.1, 0.2],
            ExperimentScale::quick(),
            5,
        )
        .unwrap();
        let curve_b = latency_curve_with_ctx(
            &parallel,
            TopologyKind::StringFigure,
            32,
            SyntheticPattern::UniformRandom,
            &[0.02, 0.1, 0.2],
            ExperimentScale::quick(),
            5,
        )
        .unwrap();
        assert_eq!(curve_a, curve_b);

        let gate_a = power_gating_study_with_ctx(
            &serial,
            48,
            &[0.0, 0.25],
            ApplicationModel::SparkGrep,
            4,
            ExperimentScale::quick(),
            9,
        )
        .unwrap();
        let gate_b = power_gating_study_with_ctx(
            &parallel,
            48,
            &[0.0, 0.25],
            ApplicationModel::SparkGrep,
            4,
            ExperimentScale::quick(),
            9,
        )
        .unwrap();
        assert_eq!(gate_a, gate_b);

        let sat_a = saturation_study_with_ctx(
            &serial,
            &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
            36,
            SyntheticPattern::UniformRandom,
            &[0.02, 0.10, 0.30],
            ExperimentScale::quick(),
            3,
        )
        .unwrap();
        let sat_b = saturation_study_with_ctx(
            &parallel,
            &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
            36,
            SyntheticPattern::UniformRandom,
            &[0.02, 0.10, 0.30],
            ExperimentScale::quick(),
            3,
        )
        .unwrap();
        assert_eq!(sat_a, sat_b);

        let work_a = workload_study_with_ctx(
            &serial,
            &[TopologyKind::StringFigure],
            &[ApplicationModel::Memcached],
            32,
            4,
            ExperimentScale::quick(),
            7,
        )
        .unwrap();
        let work_b = workload_study_with_ctx(
            &parallel,
            &[TopologyKind::StringFigure],
            &[ApplicationModel::Memcached],
            32,
            4,
            ExperimentScale::quick(),
            7,
        )
        .unwrap();
        assert_eq!(work_a, work_b);

        let bisect_a = bisection_study_with_ctx(
            &serial,
            &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
            36,
            5,
            2,
        )
        .unwrap();
        let bisect_b = bisection_study_with_ctx(
            &parallel,
            &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
            36,
            5,
            2,
        )
        .unwrap();
        assert_eq!(bisect_a, bisect_b);
    }

    #[test]
    fn context_instances_are_shared_and_consistent() {
        let ctx = RunContext::new();
        let first = ctx.instance(TopologyKind::StringFigure, 40, 11).unwrap();
        let second = ctx.instance(TopologyKind::StringFigure, 40, 11).unwrap();
        assert!(std::sync::Arc::ptr_eq(&first, &second));
        let fresh = NetworkInstance::build(TopologyKind::StringFigure, 40, 11).unwrap();
        assert_eq!(first.graph().edges(), fresh.graph().edges());
        // Another context builds its own copy: the cache belongs to the run.
        let other = RunContext::new()
            .instance(TopologyKind::StringFigure, 40, 11)
            .unwrap();
        assert!(!std::sync::Arc::ptr_eq(&first, &other));
    }

    #[test]
    fn rows_serialise_through_the_harness_table() {
        let rows = configuration_table_with_ctx(
            &RunContext::new(),
            &[TopologyKind::StringFigure],
            &[64],
            1,
        )
        .unwrap();
        let table = sf_harness::Table::from_records(&rows);
        assert_eq!(table.columns[0], "kind");
        let csv = table.to_csv();
        assert!(csv.starts_with("kind,nodes,router_ports"));
        assert_eq!(sf_harness::Table::from_csv(&csv).unwrap(), table);
        assert_eq!(
            sf_harness::Table::from_json(&table.to_json()).unwrap(),
            table
        );
    }
}
