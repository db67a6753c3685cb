//! # `sf-harness`
//!
//! Deterministic parallel experiment-execution engine for the String Figure
//! reproduction.
//!
//! The paper's evaluation is a pile of parameter sweeps — path-length studies
//! over 64–1296 nodes × many seeds, saturation grids over injection rates,
//! workload × design matrices. Every point is an independent simulation, so
//! the sweep is embarrassingly parallel *as long as nothing couples the
//! points through shared mutable state*. This crate supplies the pieces that
//! make that safe and reproducible:
//!
//! * [`sweep`] — the one sweep entry point, [`sweep::run`]: map a job over
//!   every point of a grid and receive the rows in enumeration order, with
//!   each job's failure or panic isolated to that job and the first failure
//!   cancelling the rest. [`sweep::cross2`] / [`sweep::cross3`] enumerate
//!   grids row-major.
//! * [`pool`] — a `std::thread`-based worker pool whose workers pull one
//!   point at a time, with per-job panic isolation and a reorder buffer, so
//!   a run with 16 workers is **bit-identical** to a run with one.
//! * [`table`] — typed result rows ([`Record`]) collected into a [`Table`]
//!   with hand-rolled CSV and JSON emitters (and matching parsers for
//!   round-trip tests), so bench binaries produce machine-readable artifacts
//!   without external dependencies.
//! * [`cache`] — a thread-safe build-once map so repeated points at the
//!   same (kind, size, seed) reuse the generated topology instead of
//!   regenerating it per job. Each run owns its cache, which never evicts.
//! * [`journal`] — an append-only checkpoint journal of completed job
//!   results, so an interrupted run resumes with bit-identical final output
//!   instead of starting over.
//! * [`sink`] — atomic artifact publication: a table's CSV or JSON goes to
//!   `<path>.part` and is renamed over the destination, so a killed run never
//!   leaves a torn artifact.
//!
//! ## Example
//!
//! ```
//! use sf_harness::pool::PoolConfig;
//! use sf_harness::sweep;
//!
//! // Square every point of a sweep in parallel; rows arrive in enumeration
//! // order, not completion order.
//! let mut squares = Vec::new();
//! sweep::run(
//!     &PoolConfig::threads(4),
//!     0u64..100,
//!     |_, n| Ok::<u64, std::convert::Infallible>(n * n),
//!     |_, square| squares.push(square),
//! )
//! .unwrap();
//! assert_eq!(squares[9], 81);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod journal;
pub mod pool;
pub mod sink;
pub mod sweep;
pub mod table;

pub use cache::BuildCache;
pub use journal::Journal;
pub use pool::PoolConfig;
pub use table::{Record, Table, Value};
