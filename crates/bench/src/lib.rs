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
//! themselves (topology generation, simulator cycles, the fig10 study).
//!
//! Flag parsing lives in [`cli::CliArgs`]; table rendering lives in
//! `stringfigure::study`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod benchprobe;
pub mod cli;
pub mod report;

/// Prints how many sweep-level workers (`sf-harness`) will execute this run
/// and the knob that overrides it. The sweep pool is the only parallelism
/// layer: each simulation runs on one thread.
pub fn announce_pool() {
    let pool = sf_harness::PoolConfig::auto();
    sf_obs::progress::Progress::global().note(&format!(
        "# sf-harness: {} sweep worker(s) (override with {}=N)",
        pool.threads,
        sf_harness::PoolConfig::THREADS_ENV
    ));
}

#[cfg(test)]
mod tests {
    use stringfigure::study::print_table;

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
