//! `sfbench` — the unified figure-reproduction CLI.
//!
//! ```text
//! sfbench list
//! sfbench grid fig10 --quick
//! sfbench run fig10 --quick --csv out.csv
//! ```
//!
//! `run` with `--csv PATH` checkpoints completed sweep jobs to
//! `PATH.journal`; rerunning the same command after an interruption resumes
//! and produces a byte-identical artifact. See `sfbench help`.

fn main() {
    std::process::exit(sf_bench::cli::main(std::env::args().skip(1).collect()));
}
