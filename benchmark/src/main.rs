//! `sf-benchmark`: the repository benchmark.
//!
//! ```text
//! sf-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! sf-benchmark compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! A run repeats one workload back to back for `--seconds` (a closed loop,
//! after one untimed warm-up repetition at reduced size) and reports each
//! end-to-end metric of `BENCHMARK.json` as its lowest value over the
//! repetitions.
//! With `--trace 1` it then runs one traced repetition and reports the
//! per-layer metrics instead. Every metric is printed to stderr with its unit
//! and sample count; the last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Without `--workload`
//! every workload runs in turn in this process, and the metric names in the
//! JSON line are prefixed with the workload's. The exit code is non-zero if
//! any output check failed.
//!
//! `compare` reads two files of such result lines, one per run, where line i
//! of each file is the i-th parent/change pair, and applies the comparison
//! rule to every end-to-end metric with its bound from `BENCHMARK.json`.

mod json;
mod probe;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use probe::Snapshot;
use stats::{median, minimum, percentile, quartiles, tail_percentile, verdict};
use workloads::{Layers, Rep};

/// The benchmark definition this binary implements.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// Seed-1 output digests at full size, one per digest-checked workload.
const EXPECTED_JSON: &str = include_str!("../expected.json");

/// Length of the timed loop without `--seconds`: `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 30.0;

/// Network size of the paper-scale workloads (Table II's largest system).
const PAPER_NODES: usize = 1296;

/// The workloads, in the order a run without `--workload` executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperUniform,
    PaperMemory,
    ElasticGating,
    Fig10Sweep,
}

impl Workload {
    const ALL: [Self; 4] = [
        Self::PaperUniform,
        Self::PaperMemory,
        Self::ElasticGating,
        Self::Fig10Sweep,
    ];

    fn name(self) -> &'static str {
        match self {
            Self::PaperUniform => "paper_uniform",
            Self::PaperMemory => "paper_memory",
            Self::ElasticGating => "elastic_gating",
            Self::Fig10Sweep => "fig10_sweep",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One repetition: at full size, or at the reduced warm-up size.
    fn run(self, full: bool, seed: u64, dir: &Path, layers: Option<&mut Layers>) -> Rep {
        match self {
            Self::PaperUniform => {
                let cycles = if full { 1_000 } else { 100 };
                workloads::paper_uniform(PAPER_NODES, cycles, seed, layers)
            }
            Self::PaperMemory => {
                let cycles = if full { 600 } else { 60 };
                workloads::paper_memory(PAPER_NODES, cycles, seed, layers)
            }
            Self::ElasticGating => {
                let victims = if full { 24 } else { 2 };
                workloads::elastic_gating(PAPER_NODES, victims, seed, layers)
            }
            // The study fixes its own seeds and sizes.
            Self::Fig10Sweep => workloads::fig10_sweep(dir, layers),
        }
    }
}

/// End-to-end metrics: every one is lower-is-better and never zero.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, named after the crate whose calls they time or count.
/// A layer a workload does not exercise reads 0 there.
const PER_LAYER: [(&str, &str); 47] = [
    ("topology.build_s", "s"),
    ("topology.reconfig_ms_p50", "ms"),
    ("routing.table_build_s", "s"),
    ("routing.decisions", "count"),
    ("routing.busy_s", "s"),
    ("routing.decision_ns", "ns"),
    ("routing.fallback_ratio", "ratio"),
    ("routing.resync_ms_p50", "ms"),
    ("routing.resync_ms_p90", "ms"),
    ("traffic.build_s", "s"),
    ("traffic.calls", "count"),
    ("traffic.injections", "count"),
    ("traffic.busy_s", "s"),
    ("traffic.call_ns", "ns"),
    ("traffic.llc_miss_rate", "ratio"),
    ("kernel.build_s", "s"),
    ("kernel.run_s", "s"),
    ("kernel.self_cpu_s", "s"),
    ("kernel.router_cycles_per_s", "1/s"),
    ("kernel.shards", "count"),
    ("kernel.cycle_phases_s", "s"),
    ("kernel.commit_replay_s", "s"),
    ("sim.cycles", "count"),
    ("sim.injected", "count"),
    ("sim.delivered", "count"),
    ("sim.total_hops", "count"),
    ("sim.blocked_forwards", "count"),
    ("sim.blocked_ratio", "ratio"),
    ("sim.completed_requests", "count"),
    ("sim.dropped_packets", "count"),
    ("sim.pool.packets_peak", "count"),
    ("sim.pool.in_flight_peak", "count"),
    ("dram.accesses", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("power.events", "count"),
    ("power.rejected", "count"),
    ("power.event_ms_p50", "ms"),
    ("power.event_ms_p90", "ms"),
    ("harness.jobs", "count"),
    ("harness.cache_hits", "count"),
    ("harness.cache_misses", "count"),
    ("harness.topology_build_s", "s"),
    ("harness.journal_s", "s"),
    ("harness.sink_s", "s"),
    ("harness.backpressure_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("unattributed_share", "ratio"),
];

/// One reported metric: value, unit, and the samples it summarises.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Everything one workload's run produced.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// A scratch directory under the benchmark's build directory, removed on
/// drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str) -> Self {
        Self(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("target")
                .join(format!("scratch-{label}-{}", std::process::id())),
        )
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The seed-1 digest committed for `workload`, if it has one.
fn expected_digest(workload: Workload) -> Option<u64> {
    let doc = Json::parse(EXPECTED_JSON).expect("expected.json is valid JSON");
    let hex = doc.get(workload.name())?.as_str()?;
    Some(u64::from_str_radix(hex, 16).expect("expected.json holds hex digests"))
}

/// Marks as failed every operation of a repetition whose digest differs
/// from `want`.
fn check_digest(rep: &mut Rep, want: u64) {
    if rep.digest != want {
        rep.failed = rep.attempted;
    }
}

fn run_workload(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let scratch = ScratchDir::new(workload.name());
    let dir = |i: usize| scratch.0.join(format!("rep{i}"));
    workload.run(false, seed, &dir(0), None);

    // Closed loop: start another repetition only if it should end within
    // the measured window, judging by the last one.
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps
        .last()
        .is_none_or(|last| (started.elapsed() + last.wall).as_secs_f64() <= seconds)
    {
        reps.push(workload.run(true, seed, &dir(reps.len() + 1), None));
    }
    eprintln!("# {} digest {:016x}", workload.name(), reps[0].digest);
    // Every repetition must reproduce the first one's outputs, and at seed
    // 1 the committed digest too.
    let reference = match expected_digest(workload) {
        Some(want) if seed == 1 => want,
        _ => reps[0].digest,
    };
    for rep in &mut reps {
        check_digest(rep, reference);
    }

    let mut traced = None;
    if trace {
        let mut layers = Layers::new();
        sf_obs::span::set_timing(true);
        let before = Snapshot::take();
        let mut rep = workload.run(true, seed, &dir(0), Some(&mut layers));
        let after = Snapshot::take();
        sf_obs::span::set_timing(false);
        check_digest(&mut rep, reference);
        add_snapshot_layers(&mut layers, &after, &before);
        traced = Some((rep, layers));
    }

    let mut report = Report {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for rep in reps.iter().chain(traced.as_ref().map(|(rep, _)| rep)) {
        report.attempted += rep.attempted;
        report.failed += rep.failed;
    }
    let n = reps.len();
    let series = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let walls = series(|r| r.wall.as_secs_f64());
    match traced {
        None => {
            print_distribution(workload, "wall_s", &walls);
            for (name, unit) in END_TO_END {
                let values = match name {
                    "wall_s" => walls.clone(),
                    "cpu_s" => series(|r| r.cpu.as_secs_f64()),
                    "setup_s" => series(|r| r.setup.as_secs_f64()),
                    _ => series(|r| r.peak_rss_mb),
                };
                // A neighbour on a shared host only ever adds time, and for
                // stretches of seconds to minutes; the best repetition of a
                // run is the value it moves least.
                report.metrics.push(Metric {
                    name: name.to_string(),
                    value: minimum(&values),
                    unit,
                    samples: n,
                });
            }
        }
        Some((rep, mut layers)) => {
            let events: Vec<f64> = reps.iter().flat_map(|r| r.event_ms.clone()).collect();
            if !events.is_empty() {
                layers.insert("power.event_ms_p50", median(&events));
                layers.insert("power.event_ms_p90", percentile(&events, 90.0));
                print_distribution(workload, "power.event_ms", &events);
            }
            let wall = rep.wall.as_secs_f64();
            let attributed = layers.get("layers.attributed_s").copied().unwrap_or(0.0);
            layers.insert("trace.overhead_ratio", wall / median(&walls));
            layers.insert("unattributed_share", 1.0 - attributed / wall);
            derive_ratios(&mut layers);
            for (name, unit) in PER_LAYER {
                let samples = match name {
                    "power.event_ms_p50" | "power.event_ms_p90" => events.len(),
                    "trace.overhead_ratio" => n,
                    _ => 1,
                };
                report.metrics.push(Metric {
                    name: name.to_string(),
                    value: layers.get(name).copied().unwrap_or(0.0),
                    unit,
                    samples,
                });
            }
        }
    }
    report
}

/// Adds the metrics read from the program's own counters and spans.
fn add_snapshot_layers(layers: &mut Layers, after: &Snapshot, before: &Snapshot) {
    for name in [
        "sim.cycles",
        "sim.injected",
        "sim.delivered",
        "sim.total_hops",
        "sim.blocked_forwards",
        "sim.completed_requests",
        "sim.dropped_packets",
        "sim.pool.packets_peak",
        "sim.pool.in_flight_peak",
    ] {
        layers.insert(name, after.count_since(before, name));
    }
    // Every forward attempt either moved a packet one hop or was blocked.
    layers.insert(
        "sim.forward_attempts",
        layers["sim.total_hops"] + layers["sim.blocked_forwards"],
    );
    layers.insert(
        "kernel.cycle_phases_s",
        after.span_s_since(before, "kernel_cycle_phases"),
    );
    layers.insert(
        "kernel.commit_replay_s",
        after.span_s_since(before, "commit_replay"),
    );
}

/// Ratios derived from the counters a traced repetition recorded; zero
/// where the denominator is.
fn derive_ratios(layers: &mut Layers) {
    for (name, numerator, denominator, scale) in [
        (
            "routing.decision_ns",
            "routing.busy_s",
            "routing.decisions",
            1e9,
        ),
        (
            "routing.fallback_ratio",
            "routing.fallbacks",
            "routing.decisions",
            1.0,
        ),
        ("traffic.call_ns", "traffic.busy_s", "traffic.calls", 1e9),
        (
            "kernel.router_cycles_per_s",
            "kernel.router_cycles",
            "kernel.run_s",
            1.0,
        ),
        (
            "sim.blocked_ratio",
            "sim.blocked_forwards",
            "sim.forward_attempts",
            1.0,
        ),
        ("dram.row_hit_rate", "dram.row_hits", "dram.accesses", 1.0),
    ] {
        let get = |name| layers.get(name).copied().unwrap_or(0.0);
        let (num, den) = (get(numerator), get(denominator));
        layers.insert(name, if den > 0.0 { num * scale / den } else { 0.0 });
    }
}

/// Prints the minimum, median, quartiles, and highest well-sampled tail
/// percentile of a distribution to stderr.
fn print_distribution(workload: Workload, name: &str, values: &[f64]) {
    let mut line = format!(
        "# {} {name}: n={} min={:.6} median={:.6}",
        workload.name(),
        values.len(),
        minimum(values),
        median(values)
    );
    if let Some((q1, q3)) = quartiles(values) {
        line += &format!(" q1={q1:.6} q3={q3:.6}");
    }
    if let Some(p) = tail_percentile(values.len()).filter(|&p| p > 50.0) {
        line += &format!(" p{p}={:.6}", percentile(values, p));
    }
    eprintln!("{line}");
}

/// Parsed command-line options of a benchmark run.
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let workload = Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?;
                options.workloads = vec![workload];
            }
            "--seed" => {
                options.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?
            }
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}; use 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(options)
}

/// The result line: the contract's four keys, metrics with value and unit.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&m.name),
                json::number(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn bench(options: &Options) -> ExitCode {
    sf_obs::progress::Progress::global().configure(true);
    let single = options.workloads.len() == 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for &workload in &options.workloads {
        let report = run_workload(workload, options.seed, options.seconds, options.trace);
        eprintln!(
            "# {}: {} of {} operations failed",
            workload.name(),
            report.failed,
            report.attempted
        );
        for m in &report.metrics {
            eprintln!(
                "{:<16} {:<28} {:>16.6} {:<6} n={}",
                workload.name(),
                m.name,
                m.value,
                m.unit,
                m.samples
            );
        }
        attempted += report.attempted;
        failed += report.failed;
        metrics.extend(report.metrics.into_iter().map(|m| Metric {
            name: if single {
                m.name
            } else {
                format!("{}.{}", workload.name(), m.name)
            },
            ..m
        }));
    }
    let correct = failed == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every result line in `path`, parsed.
fn read_results(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|line| line.trim_start().starts_with('{'))
        .map(|line| Json::parse(line).map_err(|e| format!("{path}: {e}")))
        .collect()
}

fn compare(parent_path: &str, change_path: &str) -> Result<ExitCode, String> {
    let (parent, change) = (read_results(parent_path)?, read_results(change_path)?);
    if parent.len() != change.len() || parent.is_empty() {
        return Err(format!(
            "need the same positive number of runs on each side, got {} and {}",
            parent.len(),
            change.len()
        ));
    }
    let definition = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut regressed = false;
    println!("metric         pairs  parent_median  change_median  parent_iqr  bound  verdict");
    for metric in definition.get("end_to_end").map_or(&[][..], Json::items) {
        let name = metric
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
        let values = |runs: &[Json]| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect()
        };
        let (p, c) = (values(&parent), values(&change));
        let iqr = quartiles(&p).map_or(f64::NAN, |(q1, q3)| q3 - q1);
        let v = verdict(&p, &c, bound);
        regressed |= v == stats::Verdict::Regression;
        println!(
            "{name:<14} {:>5}  {:>13.6}  {:>13.6}  {iqr:>10.6}  {bound:>5}  {v:?}",
            p.len().min(c.len()),
            median(&p),
            median(&c)
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, parent, change] => compare(parent, change).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }),
            _ => {
                eprintln!("usage: sf-benchmark compare PARENT.jsonl CHANGE.jsonl");
                ExitCode::from(2)
            }
        };
    }
    match parse_options(&args) {
        Ok(options) => bench(&options),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: sf-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_matches_this_binary() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert_eq!(names_and_units(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_and_units(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn every_simulated_workload_has_a_committed_digest() {
        for workload in [
            Workload::PaperUniform,
            Workload::PaperMemory,
            Workload::ElasticGating,
        ] {
            assert!(expected_digest(workload).is_some(), "{}", workload.name());
        }
    }

    #[test]
    fn options_accept_the_run_flags_and_reject_the_rest() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        let options = parse_options(&args(&[
            "--workload",
            "elastic_gating",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(options.workloads, vec![Workload::ElasticGating]);
        assert_eq!(
            (options.seed, options.seconds, options.trace),
            (7, 12.0, true)
        );
        let defaults = parse_options(&[]).unwrap();
        assert_eq!(defaults.workloads, Workload::ALL.to_vec());
        assert!(!defaults.trace);
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seed"],
            &["--verbose", "1"],
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_is_one_object_with_the_contract_keys() {
        let metrics = [Metric {
            name: "wall_s".to_string(),
            value: 1.25,
            unit: "s",
            samples: 3,
        }];
        let line = result_line(true, 4, 0, &metrics);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = doc.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
    }
}
