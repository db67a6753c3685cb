//! # `sf-bench`
//!
//! Benchmark and experiment harnesses for the String Figure reproduction.
//!
//! The `sfbench` binary multiplexes every paper artefact through the
//! [`stringfigure::study::StudyRegistry`] (`sfbench list`, `sfbench run
//! fig10 --quick --csv out.csv`); see [`cli`]. The historical per-figure
//! names (`fig10_saturation`, …) are registry aliases, so `sfbench run
//! fig10_saturation` keeps producing byte-identical artifacts. `sfbench
//! bench` ([`benchprobe`]) measures the cost of the core operations
//! themselves (topology generation, simulator cycles, shard scaling).
//!
//! Flag parsing lives in [`cli::CliArgs`]. Table rendering lives in
//! `stringfigure::study` and is re-exported here for compatibility.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod benchprobe;
pub mod cli;
pub mod report;

pub use stringfigure::study::{fmt_f, fmt_percent, print_table};

/// Prints how the two parallelism layers will execute this run: sweep-level
/// workers (`sf-harness`) and intra-simulation router shards (`sf-simcore`),
/// plus the knobs that control them. The layers share one core budget
/// (`SF_CORES`), so a sweep that claims W workers leaves `budget / W` cores
/// for each job's shards. `shards_flag` is the `--shards N` value of the
/// command line (`0` = not given).
pub fn announce_pool(shards_flag: usize) {
    let progress = sf_obs::progress::Progress::global();
    let pool = sf_harness::PoolConfig::auto();
    progress.note(&format!(
        "# sf-harness: {} sweep worker(s) (override with {}=N)",
        pool.threads,
        sf_harness::PoolConfig::THREADS_ENV
    ));
    // Mirror resolve_shard_count's precedence: --shards beats the
    // environment variable beats the automatic policy.
    let env_shards = sf_netsim::shard::env_shard_override();
    let policy = if shards_flag > 0 {
        format!("{shards_flag} (from --shards)")
    } else if let Some(shards) = env_shards {
        format!("{shards} (from {})", sf_netsim::shard::SHARDS_ENV)
    } else {
        format!(
            "auto over a {}-core budget (override with {}=N, --shards N, or {}=N)",
            sf_harness::budget::total_cores(),
            sf_netsim::shard::SHARDS_ENV,
            sf_harness::budget::CORES_ENV,
        )
    };
    progress.note(&format!(
        "# sf-simcore: simulation shards per job: {policy}"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f(1.23456), "1.235");
        assert_eq!(fmt_percent(Some(62.0)), "62%");
        assert_eq!(fmt_percent(None), "saturated");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            &["a", "b"],
            &[
                vec!["1".to_string(), "2".to_string()],
                vec!["33".to_string(), "4".to_string()],
            ],
        );
    }
}
