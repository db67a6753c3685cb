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
//! * [`sweep`] — the [`Sweep`] / [`LazySweep`] job abstraction: stream
//!   points from an iterator (or a materialised `Vec`), derive a per-job
//!   seed from the job's index (never from execution order), and run the
//!   closure over every point. The streaming engine delivers results to an
//!   ordered callback ([`run_streaming`](sweep::LazySweep::run_streaming)),
//!   so a sweep's peak memory is bounded by the worker count, not the grid
//!   size.
//! * [`pool`] — a `std::thread`-based worker pool with chunked work
//!   distribution and per-job panic isolation. Results are collected by job
//!   index, so a run with 16 workers is **bit-identical** to a run with one.
//! * [`table`] — typed result rows ([`Record`]) collected into a [`Table`]
//!   with hand-rolled CSV and JSON emitters (and matching parsers for
//!   round-trip tests), so bench binaries produce machine-readable artifacts
//!   without external dependencies.
//! * [`cache`] — a sharded, thread-safe build-once cache so repeated points
//!   at the same (kind, size, seed) reuse the generated topology instead of
//!   regenerating it per job. Eviction is cost-aware LRU: cheap-to-rebuild
//!   entries go first, so paper-scale topologies stay resident.
//! * [`journal`] — an append-only checkpoint journal of completed job
//!   results, so interrupted mega-sweeps resume with bit-identical final
//!   output instead of starting over; oversized logs compact in place to a
//!   kill-safe snapshot.
//! * [`sink`] — streaming CSV/JSON row emitters ([`RowSink`]) that write
//!   each row as it arrives and finalise atomically on close, byte-identical
//!   to serialising the equivalent [`Table`] in one shot.
//! * [`budget`] — the process-wide core budget shared between sweep-level
//!   workers and the intra-job simulation shards of `sf-simcore`, so the two
//!   parallelism layers never oversubscribe the machine together.
//!
//! ## Example
//!
//! ```
//! use sf_harness::pool::PoolConfig;
//! use sf_harness::sweep::Sweep;
//!
//! // Square every point of a sweep in parallel; output order matches the
//! // enumeration order, not the completion order.
//! let sweep = Sweep::new((0u64..100).collect::<Vec<_>>());
//! let report = sweep.run(&PoolConfig::threads(4), |ctx, &n| {
//!     Ok::<u64, std::convert::Infallible>(n * n + ctx.seed % 1)
//! });
//! let squares = report.into_results().unwrap();
//! assert_eq!(squares[9], 81);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod budget;
pub mod cache;
pub mod journal;
pub mod pool;
pub mod sink;
pub mod sweep;
pub mod table;

pub use budget::CoreBudget;
pub use cache::BuildCache;
pub use journal::Journal;
pub use pool::{JobError, PoolConfig};
pub use sink::RowSink;
pub use sweep::{derive_seed, JobCtx, JobOutcome, LazySweep, Sweep, SweepReport};
pub use table::{Record, Table, Value};
