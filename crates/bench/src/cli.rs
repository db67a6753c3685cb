//! The `sfbench` command-line interface: one multiplexed entry point over
//! the [`StudyRegistry`] of paper artefacts **and** extended scenario
//! studies (fault injection, adversarial traffic, scale-out), plus the
//! single flag parser behind every subcommand.
//!
//! ```text
//! sfbench list                          # all studies with their artefacts
//! sfbench grid fig10 --quick            # sweep axes and job count
//! sfbench run fig10 --quick --csv f.csv # run a study, emit artifacts
//! sfbench run fault_resilience --quick  # an extended scenario study
//! sfbench bench --out BENCH_7.json      # perf snapshot + regression gate
//! sfbench report --trace t.jsonl        # offline artifact analyzer
//! ```
//!
//! Every study also answers to its historical per-figure name through the
//! registry's aliases: `sfbench run fig10_saturation --quick --csv f.csv`
//! and `sfbench run fig10 --quick --csv f.csv` emit byte-identical
//! artifacts.
//!
//! An unknown command, an unknown flag of `list`, `grid`, `run`, `bench` or
//! `report`, or a boolean flag given a value exits with status 2 before any
//! sweep starts.
//!
//! ## Checkpoint/resume
//!
//! `run` with `--csv PATH` journals every completed sweep job to
//! `PATH.journal`. If the process is killed, rerunning the same command
//! restores the finished jobs from the journal and completes the rest — the
//! final CSV is byte-identical to an uninterrupted run. The journal is
//! removed once the artifact is written. `--no-resume` disables the journal;
//! `--checkpoint PATH` picks an explicit journal location (works without
//! `--csv` too).

use stringfigure::study::{execute, print_result_table, RunContext, Study, StudyRegistry};

/// Boolean flags `sfbench run` accepts.
pub const RUN_BOOL_FLAGS: &[&str] = &["--quick", "--no-resume", "--quiet"];

/// Value-carrying flags `sfbench run` accepts.
pub const RUN_VALUE_FLAGS: &[&str] = &[
    "--csv",
    "--json",
    "--checkpoint",
    "--trace",
    "--metrics",
    "--telemetry",
    "--telemetry-every",
];

/// Parsed command-line arguments: the one flag-parsing code path shared by
/// every `sfbench` subcommand. Supports both `--flag value` and
/// `--flag=value`.
#[derive(Debug, Clone)]
pub struct CliArgs {
    raw: Vec<String>,
}

impl CliArgs {
    /// Wraps an argument list (without the program name).
    #[must_use]
    pub fn new(raw: Vec<String>) -> Self {
        Self { raw }
    }

    /// Whether the boolean flag `name` (e.g. `--quick`) is present.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// The value of flag `name`, accepting both `--flag value` and
    /// `--flag=value`. A flag given more than once takes the **last** value,
    /// whichever form each occurrence uses — standard CLI override
    /// semantics, so a wrapper script's default can be overridden by
    /// appending.
    ///
    /// A missing value — `--flag` as the last argument, or directly followed
    /// by another `--flag` — is reported on stderr and that occurrence is
    /// ignored (an earlier valid occurrence still wins) rather than silently
    /// consuming the next flag as a value.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<String> {
        let prefix = format!("{name}=");
        let mut found: Option<String> = None;
        let mut args = self.raw.iter().peekable();
        while let Some(arg) = args.next() {
            if let Some(value) = arg.strip_prefix(&prefix) {
                found = Some(value.to_string());
            } else if arg == name {
                match args.peek() {
                    Some(value) if !value.starts_with("--") => {
                        found = Some((*value).clone());
                        args.next();
                    }
                    _ => eprintln!("# warning: {name} requires a value; flag occurrence ignored"),
                }
            }
        }
        found
    }

    /// [`value`](Self::value) parsed as a `usize`; unparsable values are
    /// reported on stderr and treated as absent.
    #[must_use]
    pub fn usize_value(&self, name: &str) -> Option<usize> {
        let text = self.value(name)?;
        match text.parse() {
            Ok(v) => Some(v),
            Err(_) => {
                eprintln!("# warning: {name} expects an unsigned integer, got '{text}'");
                None
            }
        }
    }

    /// The two values of a paired flag: `--diff a.json b.json` (or
    /// `--diff=a.json b.json`) yields `("a.json", "b.json")`. The first
    /// value follows [`value`](Self::value) semantics; the second is the
    /// next non-flag token after it. As with `value`, the last complete
    /// pair wins and an incomplete occurrence is reported on stderr and
    /// ignored.
    #[must_use]
    pub fn pair(&self, name: &str) -> Option<(String, String)> {
        let prefix = format!("{name}=");
        let mut found: Option<(String, String)> = None;
        let mut args = self.raw.iter().peekable();
        while let Some(arg) = args.next() {
            let first = if let Some(value) = arg.strip_prefix(&prefix) {
                Some(value.to_string())
            } else if arg == name {
                match args.peek() {
                    Some(value) if !value.starts_with("--") => {
                        let value = (*value).clone();
                        args.next();
                        Some(value)
                    }
                    _ => None,
                }
            } else {
                None
            };
            let Some(first) = first else { continue };
            match args.peek() {
                Some(second) if !second.starts_with("--") => {
                    found = Some((first, (*second).clone()));
                    args.next();
                }
                _ => eprintln!("# warning: {name} takes two values; flag occurrence ignored"),
            }
        }
        found
    }

    /// Every `--flag` token that is unknown (in neither `bool_flags` nor
    /// `value_flags`) **or malformed** — a boolean flag given a value in `=`
    /// form (`--quick=1`), which [`flag`](Self::flag) would otherwise
    /// silently ignore — in argument order. Tokens consumed as a value
    /// flag's value (`--csv out.csv`) are not flags; a leading-dash value is
    /// only reachable through the `=` form (`--csv=--odd`), consistent with
    /// [`value`](Self::value).
    #[must_use]
    pub fn unknown_flags(&self, bool_flags: &[&str], value_flags: &[&str]) -> Vec<String> {
        let mut unknown = Vec::new();
        let mut args = self.raw.iter().peekable();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                continue;
            }
            let name = arg.split_once('=').map_or(arg.as_str(), |(n, _)| n);
            if bool_flags.contains(&name) {
                // Boolean flags take no value: `--quick=1` would not match
                // `flag("--quick")` and must be surfaced, not dropped.
                if arg.contains('=') {
                    unknown.push(format!("{arg} ({name} takes no value)"));
                }
                continue;
            }
            if value_flags.contains(&name) {
                // The space form consumes the next token as its value.
                if !arg.contains('=') && args.peek().is_some_and(|v| !v.starts_with("--")) {
                    args.next();
                }
                continue;
            }
            unknown.push(name.to_string());
        }
        unknown
    }
}

/// Builds the [`RunContext`] a `run` invocation describes.
fn context_from_args(args: &CliArgs) -> RunContext {
    let mut ctx = RunContext::new().quick(args.flag("--quick"));
    let csv = args.value("--csv");
    if let Some(path) = &csv {
        ctx = ctx.with_csv(path);
    }
    if let Some(path) = args.value("--json") {
        ctx = ctx.with_json(path);
    }
    if let Some(path) = args.value("--checkpoint") {
        ctx = ctx.with_checkpoint(path);
    } else if let (Some(csv), false) = (&csv, args.flag("--no-resume")) {
        ctx = ctx.with_checkpoint(format!("{csv}.journal"));
    }
    let telemetry = args.value("--telemetry");
    if let Some(path) = &telemetry {
        ctx = ctx.with_telemetry(path);
    }
    if let Some(every) = args.usize_value("--telemetry-every") {
        if telemetry.is_none() {
            // A cadence without a stream path would silently do nothing.
            eprintln!("# warning: --telemetry-every has no effect without --telemetry PATH");
        } else {
            ctx = ctx.with_telemetry_every(every as u64);
        }
    }
    ctx
}

/// Runs `study` with the given arguments; returns a process exit code.
fn run_study(study: &dyn Study, args: &CliArgs) -> i32 {
    let unknown = args.unknown_flags(RUN_BOOL_FLAGS, RUN_VALUE_FLAGS);
    if !unknown.is_empty() {
        eprintln!(
            "error: unknown or malformed flag(s) {}; known: {} {}",
            unknown.join(", "),
            RUN_BOOL_FLAGS.join(" "),
            RUN_VALUE_FLAGS.join(" ")
        );
        return 2;
    }
    let progress = sf_obs::progress::Progress::global();
    progress.configure(args.flag("--quiet"));
    let trace_path = args.value("--trace");
    let metrics_path = args.value("--metrics");
    if trace_path.is_some() || metrics_path.is_some() {
        sf_obs::span::set_timing(true);
    }
    if let Some(path) = &trace_path {
        if let Err(e) = sf_obs::span::Tracer::global().open_trace(std::path::Path::new(path)) {
            eprintln!("error: cannot open trace file {path}: {e}");
            return 1;
        }
    }
    progress.note(&format!("# {}: {}", study.artefact(), study.description()));
    crate::announce_pool();
    let ctx = context_from_args(args);
    let code = match execute(study, &ctx) {
        Ok(table) => {
            // The result table and figure extras are human-facing summaries;
            // the artifacts (--csv/--json) are written regardless.
            if !progress.is_quiet() {
                print_result_table(&table);
                study.print_extras(&table);
            }
            0
        }
        Err(e) => {
            eprintln!("error: {} failed: {e}", study.name());
            1
        }
    };
    finish_observability(progress, metrics_path.as_deref());
    code
}

/// Flushes whatever observability sinks the run opened: the JSONL trace
/// file, the metrics JSON document, and — whenever timing ran — a
/// self-profiling span summary (top phases by inclusive time) on stderr.
fn finish_observability(progress: &sf_obs::progress::Progress, metrics_path: Option<&str>) {
    let tracer = sf_obs::span::Tracer::global();
    match tracer.finish_trace() {
        Ok(Some(path)) => progress.note(&format!("# wrote trace {}", path.display())),
        Ok(None) => {}
        Err(e) => eprintln!("# warning: trace flush failed: {e}"),
    }
    if let Some(path) = metrics_path {
        match std::fs::write(path, metrics_document()) {
            Ok(()) => progress.note(&format!("# wrote metrics {path}")),
            Err(e) => eprintln!("# warning: cannot write metrics {path}: {e}"),
        }
    }
    if sf_obs::span::timing_enabled() {
        let summary = tracer.summary();
        if !summary.is_empty() {
            progress.note("# span summary (inclusive time, descending):");
            for row in summary.iter().take(10) {
                progress.note(&format!(
                    "#   {:<24} {:>10}x  total {:>10.3} ms  max {:>8.3} ms",
                    row.name,
                    row.agg.count,
                    row.agg.total.as_secs_f64() * 1e3,
                    row.agg.max.as_secs_f64() * 1e3,
                ));
            }
        }
    }
    // The in-process peak-RSS probe (VmHWM from /proc/self/status): exact
    // where an external sampler races the process teardown, and available
    // without GNU time.
    if let Some(kb) = sf_obs::rss::peak_rss_kb() {
        progress.note(&format!("# peak RSS: {kb} kB"));
    }
}

/// The `--metrics` document: span aggregates plus the flat metrics registry
/// snapshot, under one schema tag. Values under `time.`/`sched.` (and all
/// span timings) are wall-clock and vary run to run; everything else is
/// deterministic for a given study and scale.
fn metrics_document() -> String {
    let summary = sf_obs::span::Tracer::global().summary();
    let snapshot = sf_obs::metrics::global().snapshot();
    let mut out = String::from("{\n\"schema\": \"sf-metrics/v1\",\n\"spans\": [\n");
    for (i, row) in summary.iter().enumerate() {
        let comma = if i + 1 == summary.len() { "" } else { "," };
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"count\": {}, \"total_us\": {}, \"max_us\": {}}}{comma}\n",
            row.name,
            row.agg.count,
            row.agg.total.as_micros(),
            row.agg.max.as_micros(),
        ));
    }
    out.push_str("],\n\"metrics\": ");
    let metrics_json = snapshot.to_json();
    out.push_str(metrics_json.trim_end());
    out.push_str("\n}\n");
    out
}

fn unknown_study(name: &str, registry: &StudyRegistry) -> i32 {
    eprintln!(
        "error: unknown study '{name}'; available: {}",
        registry.names().join(", ")
    );
    2
}

fn print_usage() {
    eprintln!(
        "usage: sfbench <command> [args]\n\
         \n\
         commands:\n\
         \x20 list                     studies in the registry (paper + extended scenarios)\n\
         \x20 grid <study> [--quick]   sweep axes and job count of a study\n\
         \x20 run <study> [options]    run a study\n\
         \x20 bench [options]          in-process perf probes; emits a BENCH_<n>.json snapshot\n\
         \x20 report [options]         analyze run artifacts into a markdown report\n\
         \n\
         run options:\n\
         \x20 --quick                  reduced smoke scale\n\
         \x20 --csv PATH               write the result table as CSV\n\
         \x20 --json PATH              write the result table as JSON\n\
         \x20 --checkpoint PATH        journal completed jobs at PATH\n\
         \x20 --no-resume              do not journal/resume alongside --csv\n\
         \x20 --quiet                  suppress progress output and result tables\n\
         \x20 --trace PATH             write a JSONL span trace (phase timing)\n\
         \x20 --metrics PATH           write the metrics + span-summary JSON document\n\
         \x20 --telemetry PATH         record the sf-telemetry/v1 time-series stream\n\
         \x20 --telemetry-every N      telemetry sample cadence in cycles (default 64)\n\
         \n\
         report options:\n\
         \x20 --telemetry PATH         congestion heatmap from a telemetry stream\n\
         \x20 --trace PATH             span tree from a JSONL trace\n\
         \x20 --diff A B               metric diff between two --metrics documents\n\
         \x20 --bench-dir DIR          perf trajectory over BENCH_<n>.json snapshots\n\
         \x20 --heatmap-csv PATH       also export per-router congestion as CSV\n\
         \x20 --out PATH               write the markdown report (default: stdout)\n\
         \n\
         bench options:\n\
         \x20 --out PATH               write the snapshot JSON (default: stdout)\n\
         \x20 --baseline PATH          compare against a prior snapshot; exit 1 on regression\n\
         \x20 --samples N              timed samples per micro-probe (default 3)\n\
         \x20 --label NAME             snapshot label, conventionally BENCH_<pr>\n\
         \x20 --quiet                  suppress progress notes\n\
         \n\
         With --csv, completed jobs are journalled to PATH.journal; rerunning\n\
         the same command after an interruption resumes and produces a CSV\n\
         byte-identical to an uninterrupted run."
    );
}

/// Entry point shared by the `sfbench` binary (`args` = argv without the
/// program name). Returns the process exit code.
#[must_use]
pub fn main(args: Vec<String>) -> i32 {
    let registry = StudyRegistry::all();
    let mut args = args.into_iter();
    match args.next().as_deref() {
        Some("list") => {
            let unknown = CliArgs::new(args.collect()).unknown_flags(&[], &[]);
            if !unknown.is_empty() {
                eprintln!("error: 'list' takes no flags; got {}", unknown.join(", "));
                return 2;
            }
            for study in registry.iter() {
                println!(
                    "{:<10} {:<30} {}",
                    study.name(),
                    study.artefact(),
                    study.description()
                );
            }
            0
        }
        Some("grid") => {
            let Some(name) = args.next() else {
                eprintln!("error: 'grid' needs a study name");
                return 2;
            };
            let Some(study) = registry.get(&name) else {
                return unknown_study(&name, &registry);
            };
            let rest = CliArgs::new(args.collect());
            let unknown = rest.unknown_flags(&["--quick"], &[]);
            if !unknown.is_empty() {
                eprintln!(
                    "error: unknown or malformed flag(s) {}; 'grid' takes only --quick",
                    unknown.join(", ")
                );
                return 2;
            }
            let ctx = RunContext::new().quick(rest.flag("--quick"));
            let grid = study.grid(&ctx);
            for (axis, points) in &grid.axes {
                println!("{axis}: {points}");
            }
            println!("jobs: {}", grid.jobs());
            0
        }
        Some("run") => {
            let Some(name) = args.next() else {
                eprintln!("error: 'run' needs a study name (try 'sfbench list')");
                return 2;
            };
            let Some(study) = registry.get(&name) else {
                return unknown_study(&name, &registry);
            };
            run_study(study, &CliArgs::new(args.collect()))
        }
        Some("bench") => crate::benchprobe::run(&CliArgs::new(args.collect())),
        Some("report") => crate::report::run(&CliArgs::new(args.collect())),
        None | Some("help" | "--help" | "-h") => {
            print_usage();
            0
        }
        Some(other) => {
            eprintln!("error: unknown command '{other}'");
            print_usage();
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> CliArgs {
        CliArgs::new(list.iter().map(|s| (*s).to_string()).collect())
    }

    #[test]
    fn flags_and_values_parse_in_both_forms() {
        let a = args(&["--quick", "--csv", "out.csv", "--telemetry-every=2"]);
        assert!(a.flag("--quick"));
        assert!(!a.flag("--fast"));
        assert_eq!(a.value("--csv").as_deref(), Some("out.csv"));
        assert_eq!(a.usize_value("--telemetry-every"), Some(2));
        assert_eq!(a.value("--json"), None);

        let eq = args(&["--csv=x.csv"]);
        assert_eq!(eq.value("--csv").as_deref(), Some("x.csv"));
    }

    #[test]
    fn duplicate_flags_take_the_last_value_in_any_form_mix() {
        // space then space, space then =, = then space, = then = — the last
        // occurrence always wins.
        let ss = args(&["--csv", "a.csv", "--csv", "b.csv"]);
        assert_eq!(ss.value("--csv").as_deref(), Some("b.csv"));
        let se = args(&["--csv", "a.csv", "--csv=b.csv"]);
        assert_eq!(se.value("--csv").as_deref(), Some("b.csv"));
        let es = args(&["--csv=a.csv", "--csv", "b.csv"]);
        assert_eq!(es.value("--csv").as_deref(), Some("b.csv"));
        let ee = args(&["--telemetry-every=1", "--telemetry-every=3"]);
        assert_eq!(ee.usize_value("--telemetry-every"), Some(3));
        // A malformed final occurrence is ignored; the earlier value stays.
        let torn = args(&["--csv", "a.csv", "--csv"]);
        assert_eq!(torn.value("--csv").as_deref(), Some("a.csv"));
        let swallow = args(&["--csv=a.csv", "--csv", "--quick"]);
        assert_eq!(swallow.value("--csv").as_deref(), Some("a.csv"));
        assert!(swallow.flag("--quick"));
    }

    #[test]
    fn missing_or_bad_values_are_treated_as_absent() {
        assert_eq!(args(&["--csv"]).value("--csv"), None);
        assert_eq!(args(&["--csv", "--quick"]).value("--csv"), None);
        assert_eq!(
            args(&["--telemetry-every", "many"]).usize_value("--telemetry-every"),
            None
        );
        // The `=` form accepts values that start with dashes.
        assert_eq!(
            args(&["--csv=--odd-name"]).value("--csv").as_deref(),
            Some("--odd-name")
        );
    }

    #[test]
    fn context_wires_checkpoint_next_to_the_csv() {
        let ctx = context_from_args(&args(&["--quick", "--csv", "out.csv"]));
        assert!(ctx.is_quick());
        assert_eq!(
            ctx.checkpoint_path().unwrap().to_str().unwrap(),
            "out.csv.journal"
        );

        let none = context_from_args(&args(&["--quick", "--csv", "o.csv", "--no-resume"]));
        assert!(none.checkpoint_path().is_none());

        let explicit = context_from_args(&args(&["--checkpoint", "j.journal"]));
        assert_eq!(
            explicit.checkpoint_path().unwrap().to_str().unwrap(),
            "j.journal"
        );
    }

    #[test]
    fn telemetry_flags_reach_the_context() {
        let ctx = context_from_args(&args(&["--telemetry", "t.bin", "--telemetry-every", "32"]));
        assert_eq!(ctx.telemetry().unwrap().to_str().unwrap(), "t.bin");
        assert_eq!(ctx.telemetry_every(), 32);
        // The cadence flag alone is inert (warned, not wired); without a
        // stream path telemetry_every() reports the off state.
        let inert = context_from_args(&args(&["--telemetry-every", "32"]));
        assert!(inert.telemetry().is_none());
        assert_eq!(inert.telemetry_every(), 0);
        // Default cadence when only the path is given.
        let default = context_from_args(&args(&["--telemetry=t.bin"]));
        assert_eq!(default.telemetry_every(), sf_obs::telemetry::DEFAULT_EVERY);
        let unknown = args(&["--telemetry", "t.bin", "--telemetry-every=32"])
            .unknown_flags(RUN_BOOL_FLAGS, RUN_VALUE_FLAGS);
        assert!(unknown.is_empty(), "{unknown:?}");
    }

    #[test]
    fn paired_flags_parse_both_forms_and_ignore_torn_pairs() {
        let space = args(&["--diff", "a.json", "b.json"]);
        assert_eq!(
            space.pair("--diff"),
            Some(("a.json".to_string(), "b.json".to_string()))
        );
        let eq = args(&["--diff=a.json", "b.json"]);
        assert_eq!(
            eq.pair("--diff"),
            Some(("a.json".to_string(), "b.json".to_string()))
        );
        // Last complete pair wins.
        let twice = args(&["--diff", "a", "b", "--diff", "c", "d"]);
        assert_eq!(
            twice.pair("--diff"),
            Some(("c".to_string(), "d".to_string()))
        );
        // A torn pair (second value missing or a flag) is ignored.
        assert_eq!(args(&["--diff", "a.json"]).pair("--diff"), None);
        assert_eq!(args(&["--diff", "a.json", "--quiet"]).pair("--diff"), None);
        let earlier = args(&["--diff", "a", "b", "--diff", "c"]);
        assert_eq!(
            earlier.pair("--diff"),
            Some(("a".to_string(), "b".to_string()))
        );
    }

    #[test]
    fn unknown_names_fail_with_usage_exit_codes() {
        assert_eq!(main(vec!["run".into(), "fig99".into()]), 2);
        assert_eq!(main(vec!["bogus".into()]), 2);
        // Removed commands fall through to the unknown-command arm.
        assert_eq!(
            main(vec!["merge".into(), "--csv".into(), "x.csv".into()]),
            2
        );
        assert_eq!(
            main(vec![
                "dispatch".into(),
                "--workers".into(),
                "2".into(),
                "run".into(),
                "megasweep".into()
            ]),
            2
        );
        assert_eq!(main(vec!["list".into()]), 0);
        assert_eq!(
            main(vec!["grid".into(), "fig10".into(), "--quick".into()]),
            0
        );
        assert_eq!(main(Vec::new()), 0);
    }

    #[test]
    fn unknown_flags_are_rejected_before_a_run_starts() {
        assert_eq!(
            main(vec!["run".into(), "fig10".into(), "--bogus".into()]),
            2
        );
        assert_eq!(
            main(vec!["run".into(), "fig10".into(), "--quik=1".into()]),
            2
        );
        // A boolean flag given a value would be silently ignored by
        // `flag()`; it must abort the run instead of running at the wrong
        // scale.
        assert_eq!(
            main(vec!["run".into(), "fig10".into(), "--quick=1".into()]),
            2
        );
        assert_eq!(
            main(vec![
                "run".into(),
                "fig10".into(),
                "--no-resume=true".into()
            ]),
            2
        );
        // Removed flags are unknown, not silently ignored: a stale
        // `--partition` must not run the whole grid, and `list --json` must
        // not hand the text table to a JSON consumer.
        assert_eq!(
            main(vec![
                "run".into(),
                "fig10".into(),
                "--partition".into(),
                "1/2".into()
            ]),
            2
        );
        assert_eq!(main(vec!["list".into(), "--json".into()]), 2);
        // `grid` answers at full scale without --quick, so a misspelt or
        // malformed --quick must not print the full-scale grid.
        assert_eq!(
            main(vec!["grid".into(), "fig10".into(), "--quik".into()]),
            2
        );
        assert_eq!(
            main(vec!["grid".into(), "fig10".into(), "--quick=1".into()]),
            2
        );
        // Deleted features are unknown: the journal compaction cap, and the
        // megasweep study.
        assert_eq!(
            main(vec![
                "run".into(),
                "fig10".into(),
                "--max-journal-bytes".into(),
                "4096".into()
            ]),
            2
        );
        assert_eq!(main(vec!["run".into(), "megasweep".into()]), 2);
        // The kernel is single-threaded: a stale `--shards` must not run at
        // all rather than run with the flag silently dropped.
        assert_eq!(
            main(vec![
                "run".into(),
                "fig10".into(),
                "--quick".into(),
                "--shards".into(),
                "2".into()
            ]),
            2
        );
    }

    #[test]
    fn unknown_flag_scan_skips_values_and_positionals() {
        let a = args(&[
            "--quick",
            "--csv",
            "out.csv",
            "--telemetry-every=2",
            "positional",
        ]);
        assert!(a.unknown_flags(RUN_BOOL_FLAGS, RUN_VALUE_FLAGS).is_empty());
        // A value flag's missing value does not swallow the next flag.
        let b = args(&["--csv", "--weird"]);
        assert_eq!(
            b.unknown_flags(RUN_BOOL_FLAGS, RUN_VALUE_FLAGS),
            vec!["--weird".to_string()]
        );
        // `=`-form values that start with dashes stay values.
        let c = args(&["--csv=--odd-name"]);
        assert!(c.unknown_flags(RUN_BOOL_FLAGS, RUN_VALUE_FLAGS).is_empty());
        let d = args(&["--nope", "--quick"]);
        assert_eq!(
            d.unknown_flags(RUN_BOOL_FLAGS, RUN_VALUE_FLAGS),
            vec!["--nope".to_string()]
        );
    }

    #[test]
    fn extended_studies_are_reachable_through_the_cli() {
        assert_eq!(
            main(vec![
                "grid".into(),
                "fault_resilience".into(),
                "--quick".into()
            ]),
            0
        );
        assert_eq!(
            main(vec!["grid".into(), "adversarial_saturation".into()]),
            0
        );
        assert_eq!(main(vec!["grid".into(), "scaleout".into()]), 0);
    }
}
