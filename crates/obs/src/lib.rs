//! Deterministic observability layer for the String Figure reproduction.
//!
//! Everything here is strictly out-of-band from simulation results: enabling
//! or disabling any part of this crate must never change a single byte of an
//! emitted CSV/JSON artifact. The crate provides four pieces:
//!
//! - [`metrics`]: a hierarchical metrics registry (counters, gauges,
//!   fixed-bucket histograms). Metric *values that describe simulation
//!   behaviour* (packets delivered, journal appends, sink rows) are integer
//!   quantities whose updates commute (sums, maxima, bucket counts), so the
//!   totals are bit-identical regardless of the worker count.
//!   Names under the `time.` or `sched.` prefixes are explicitly
//!   *nondeterministic* (wall-clock durations, scheduling-dependent counts
//!   such as topology-cache hits) and are excluded from
//!   determinism guarantees — see [`metrics::is_deterministic_name`].
//! - [`span`]: low-overhead span-based phase timing (`topology_build`,
//!   `kernel_cycle_phases`, `journal_io`, `sink_flush`,
//!   `pool_backpressure_wait`) with an optional JSON-lines trace emitter and
//!   an aggregate summary table. When timing is disabled (the default) an
//!   instrumentation site costs one relaxed atomic load.
//! - [`progress`]: a single stderr progress reporter — notes (the `# …`
//!   lines the pipeline always printed) plus an opt-in live heartbeat with
//!   jobs done/total, rows/s, ETA, and current RSS — behind `--quiet` /
//!   `SF_PROGRESS` control.
//! - [`rss`] + [`report`]: an in-process `/proc/self/status` peak-RSS probe
//!   and the schema-versioned `BENCH_<n>.json` perf-trajectory report with
//!   regression comparison.
//! - [`telemetry`]: the in-simulator `sf-telemetry/v1` time-series stream —
//!   per-router queue occupancy, per-link utilisation, credit stalls, and
//!   energy, sampled at cycle boundaries so the recorded bytes are
//!   bit-identical for any worker count — with the per-job capture a sweep
//!   job records into and the stream writer a run appends to.
//!
//! The metrics registry, the span tracer and the progress reporter are
//! process-wide, because what they report (metrics, a trace, stderr) is per
//! process; telemetry belongs to the run that records it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod metrics;
pub mod progress;
pub mod report;
pub mod rss;
pub mod span;
pub mod telemetry;
