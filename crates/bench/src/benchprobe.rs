//! The `sfbench bench` subcommand: in-process perf probes emitting a
//! schema-versioned [`BenchReport`] snapshot (`BENCH_<n>.json`).
//!
//! Every probe runs inside one process, so the peak-RSS figure comes from
//! `/proc/self/status` (no external `/usr/bin/time` race, no `0 kB`
//! fallback):
//!
//! - `shard_sync/<k>` — a 128-node String Figure simulation with 1, 2, and
//!   4 router shards (the per-cycle synchronisation tax probe).
//! - `simulator_throughput/<n>` — cycle-level throughput on 64- and
//!   256-node networks.
//! - `topology_build/1296` — String Figure generation at the paper's scale.
//! - `kernel_cps/<n>` — cycles/sec of one shard at 1296 and 2048 nodes.
//! - `kernel_shards/<k>` — the 1296-node kernel across the `--shards`
//!   matrix (default 1, 2, 4, 8).
//!
//!   Both kernel probes time the cycle loop ([`NetworkSimulator::run`])
//!   only; topology, routing tables and simulator are built untimed.
//! - `fig10_quick` — the fig10 saturation study at `--quick` scale through
//!   the real [`execute`] path: sweep pool, journal, sink and all. Each
//!   sample gets a fresh topology cache, so every sample builds its
//!   topologies cold.
//!
//! With `--baseline PATH` the fresh snapshot is diffed against a prior one;
//! regressions (wall-clock beyond [`sf_obs::report::WALL_TOLERANCE`], RSS
//! beyond [`sf_obs::report::RSS_TOLERANCE`]) exit non-zero so ci.sh can
//! gate on the perf trajectory.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sf_netsim::{NetworkSimulator, UniformRandomTraffic};
use sf_obs::progress::Progress;
use sf_obs::report::{BenchEntry, BenchReport};
use sf_routing::GreediestRouting;
use sf_topology::StringFigureTopology;
use sf_types::{NetworkConfig, SimulationConfig, SystemConfig};
use stringfigure::study::{execute, RunContext, StudyRegistry, TopologyCache};

use crate::cli::CliArgs;

/// Boolean flags `sfbench bench` accepts.
pub const BENCH_BOOL_FLAGS: &[&str] = &["--quiet"];

/// Value-carrying flags `sfbench bench` accepts.
pub const BENCH_VALUE_FLAGS: &[&str] = &["--out", "--baseline", "--samples", "--label", "--shards"];

const DEFAULT_SAMPLES: u32 = 3;

/// Default shard counts for the `kernel_shards/<k>` scaling matrix.
const DEFAULT_SHARD_MATRIX: &[usize] = &[1, 2, 4, 8];

/// Runs one String Figure simulation under uniform random traffic at 0.1
/// packets/node/cycle (seed 11) — the `shard_sync` and
/// `simulator_throughput` probes.
fn run_sim(nodes: usize, ports: usize, shards: usize, max_cycles: u64, warmup_cycles: u64) {
    let topo = StringFigureTopology::generate(
        &NetworkConfig::new(nodes, ports).expect("bench network config"),
    )
    .expect("bench topology");
    let mut sim = NetworkSimulator::new(
        topo.graph().clone(),
        Box::new(GreediestRouting::new(&topo)),
        SystemConfig::default(),
        SimulationConfig {
            max_cycles,
            warmup_cycles,
            shards,
            ..SimulationConfig::default()
        },
    )
    .expect("bench simulator");
    let mut traffic = UniformRandomTraffic::new(nodes, 0.1, 11);
    let stats = sim.run(&mut traffic).expect("bench simulation");
    std::hint::black_box(stats);
}

/// Times `samples` paper-scale kernel runs (uniform random traffic at 0.05
/// packets/node/cycle, seed 11). Topology, routing tables, simulator and
/// traffic are built before each sample's clock starts, so only
/// [`NetworkSimulator::run`] — the cycle loop — is timed. Returns the run
/// times and the number of simulated cycles (injection plus drain), the
/// numerator of the cycles/sec figures.
fn timed_kernel(
    samples: u32,
    nodes: usize,
    shards: usize,
    max_cycles: u64,
    warmup_cycles: u64,
) -> (Vec<Duration>, u64) {
    let topo = StringFigureTopology::generate(
        &NetworkConfig::new(nodes, 8).expect("paper-scale network config"),
    )
    .expect("paper-scale topology");
    let mut runs = Vec::with_capacity(samples as usize);
    let mut cycles = 0;
    for _ in 0..samples {
        let mut sim = NetworkSimulator::new(
            topo.graph().clone(),
            Box::new(GreediestRouting::new(&topo)),
            SystemConfig::default(),
            SimulationConfig {
                max_cycles,
                warmup_cycles,
                shards,
                ..SimulationConfig::default()
            },
        )
        .expect("paper-scale simulator");
        let mut traffic = UniformRandomTraffic::new(nodes, 0.05, 11);
        let started = Instant::now();
        let stats = sim.run(&mut traffic).expect("paper-scale simulation");
        runs.push(started.elapsed());
        cycles = stats.cycles;
        std::hint::black_box(stats);
    }
    (runs, cycles)
}

fn timed<F: FnMut()>(samples: u32, mut work: F) -> Vec<Duration> {
    let mut out = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let started = Instant::now();
        work();
        out.push(started.elapsed());
    }
    out
}

fn push_entry(entries: &mut Vec<BenchEntry>, progress: &Progress, name: &str, runs: &[Duration]) {
    let wall_ms = BenchReport::median_ms(runs);
    progress.note(&format!("# bench {name}: {wall_ms:.3} ms median"));
    entries.push(BenchEntry {
        name: name.to_string(),
        wall_ms,
        samples: runs.len() as u32,
        rate_per_s: None,
    });
}

/// Like [`push_entry`] but also records a cycles/sec throughput figure
/// derived from the median wall clock.
fn push_rate_entry(
    entries: &mut Vec<BenchEntry>,
    progress: &Progress,
    name: &str,
    runs: &[Duration],
    cycles: u64,
) {
    let wall_ms = BenchReport::median_ms(runs);
    let rate = if wall_ms > 0.0 {
        cycles as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    progress.note(&format!(
        "# bench {name}: {wall_ms:.3} ms median, {cycles} cycles, {rate:.0} cycles/s"
    ));
    entries.push(BenchEntry {
        name: name.to_string(),
        wall_ms,
        samples: runs.len() as u32,
        rate_per_s: Some(rate),
    });
}

/// Entry point for `sfbench bench`; returns the process exit code.
#[must_use]
pub fn run(args: &CliArgs) -> i32 {
    let unknown = args.unknown_flags(BENCH_BOOL_FLAGS, BENCH_VALUE_FLAGS);
    if !unknown.is_empty() {
        eprintln!(
            "error: unknown or malformed flag(s) {}; known: {} {}",
            unknown.join(", "),
            BENCH_BOOL_FLAGS.join(" "),
            BENCH_VALUE_FLAGS.join(" ")
        );
        return 2;
    }
    let quiet = args.flag("--quiet");
    let progress = Progress::global();
    progress.configure(quiet);
    let samples = args
        .usize_value("--samples")
        .map_or(DEFAULT_SAMPLES, |n| n.max(1) as u32);
    let label = args.value("--label").unwrap_or_else(|| "BENCH".to_string());

    let mut entries = Vec::new();
    for &shards in &[1usize, 2, 4] {
        let runs = timed(samples, || run_sim(128, 4, shards, 800, 100));
        push_entry(
            &mut entries,
            progress,
            &format!("shard_sync/{shards}"),
            &runs,
        );
    }
    for &nodes in &[64usize, 256] {
        let ports = if nodes <= 128 { 4 } else { 8 };
        let runs = timed(samples, || run_sim(nodes, ports, 0, 2_000, 200));
        push_entry(
            &mut entries,
            progress,
            &format!("simulator_throughput/{nodes}"),
            &runs,
        );
    }
    // Topology generation at the paper's evaluated scale (1296 nodes, 8
    // ports — Section VI of HPCA'19): pure construction, no simulation, so
    // this isolates the random-graph builder and its connectivity repair.
    let runs = timed(samples, || {
        let topo = StringFigureTopology::generate(
            &NetworkConfig::new(1296, 8).expect("paper-scale network config"),
        )
        .expect("paper-scale topology");
        std::hint::black_box(topo);
    });
    push_entry(&mut entries, progress, "topology_build/1296", &runs);
    // Raw kernel throughput at the paper's evaluated scale and above:
    // cycles/sec through the pooled allocation-free hot loop, single shard
    // (the serial reference path every other configuration must reproduce
    // bit for bit).
    for &nodes in &[1296usize, 2048] {
        let (runs, cycles) = timed_kernel(samples, nodes, 1, 400, 100);
        push_rate_entry(
            &mut entries,
            progress,
            &format!("kernel_cps/{nodes}"),
            &runs,
            cycles,
        );
    }
    // Shard-scaling matrix at 1296 nodes: how the same workload behaves as
    // the router partition widens. On a single-CPU host the wider points
    // measure synchronisation tax rather than speedup; the curve is recorded
    // either way so multi-core hosts show the crossover.
    let shard_matrix: Vec<usize> = args.value("--shards").map_or_else(
        || DEFAULT_SHARD_MATRIX.to_vec(),
        |list| {
            list.split(',')
                .filter_map(|tok| tok.trim().parse().ok())
                .filter(|&k| k >= 1)
                .collect()
        },
    );
    for &shards in &shard_matrix {
        let (runs, cycles) = timed_kernel(samples, 1296, shards, 160, 40);
        push_rate_entry(
            &mut entries,
            progress,
            &format!("kernel_shards/{shards}"),
            &runs,
            cycles,
        );
    }
    // The fig10 probe exercises the full study path (sweep pool, sink,
    // journal); its own notes and heartbeat are silenced so the probe
    // measures the pipeline, not terminal I/O. Each sample runs in a context
    // with its own fresh topology cache: through the process-wide cache every
    // sample after the first would reuse warm topologies and time something
    // other than the first.
    let registry = StudyRegistry::all();
    if let Some(study) = registry.get("fig10") {
        progress.configure(true);
        let mut failed = false;
        let runs = timed(samples, || {
            let ctx = RunContext::new()
                .quick(true)
                .with_build_cache(Arc::new(TopologyCache::new()));
            if let Err(e) = execute(study, &ctx) {
                eprintln!("error: fig10_quick probe failed: {e}");
                failed = true;
            }
        });
        progress.configure(quiet);
        if failed {
            return 1;
        }
        push_entry(&mut entries, progress, "fig10_quick", &runs);
    }
    let report = BenchReport {
        label,
        peak_rss_kb: sf_obs::rss::peak_rss_kb().unwrap_or(0),
        entries,
    };
    progress.note(&format!("# bench peak RSS: {} kB", report.peak_rss_kb));

    if let Some(path) = args.value("--out") {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return 1;
        }
        progress.note(&format!("# wrote {path}"));
    } else {
        print!("{}", report.to_json());
    }

    if let Some(path) = args.value("--baseline") {
        match std::fs::read_to_string(&path) {
            Ok(text) => match BenchReport::parse(&text) {
                Some(baseline) => {
                    let drift = report.drift_vs(&baseline);
                    if drift > 1.05 {
                        progress.note(&format!(
                            "# machine drift vs {}: x{drift:.2} (median wall-clock ratio; baseline scaled before gating)",
                            baseline.label
                        ));
                    }
                    let problems = report.regressions_vs(&baseline);
                    if !problems.is_empty() {
                        for problem in &problems {
                            eprintln!("error: perf regression vs {}: {problem}", baseline.label);
                        }
                        return 1;
                    }
                    progress.note(&format!(
                        "# no perf regressions vs {} ({path})",
                        baseline.label
                    ));
                }
                None => {
                    eprintln!("# warning: baseline {path} has an unknown schema; recording only")
                }
            },
            Err(e) => eprintln!("# warning: cannot read baseline {path}: {e}; recording only"),
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_flag_sets_do_not_overlap_with_unknowns() {
        let args = CliArgs::new(vec![
            "--out".to_string(),
            "b.json".to_string(),
            "--samples=2".to_string(),
            "--quiet".to_string(),
        ]);
        assert!(args
            .unknown_flags(BENCH_BOOL_FLAGS, BENCH_VALUE_FLAGS)
            .is_empty());
        let bad = CliArgs::new(vec!["--quick".to_string()]);
        assert_eq!(
            bad.unknown_flags(BENCH_BOOL_FLAGS, BENCH_VALUE_FLAGS),
            vec!["--quick".to_string()]
        );
    }
}
