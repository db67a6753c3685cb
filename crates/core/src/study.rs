//! The unified experiment API: [`Study`] trait, [`RunContext`], and the
//! [`StudyRegistry`] of all eight paper artefacts.
//!
//! Every evaluation artefact of the paper (Figures 5, 8, 9a, 9b, 10, 11, 12
//! and the Section V bisection methodology) is a [`Study`]: a named,
//! self-describing driver that knows its own quick/full parameter grid and
//! produces a machine-readable [`Table`]. Studies run inside a builder-style
//! [`RunContext`] owning everything an experiment needs:
//!
//! * the sweep worker pool (`sf-harness`),
//! * the shared topology [`BuildCache`],
//! * the [`ExperimentScale`] policy (quick vs. paper scale, simulation
//!   shards),
//! * the artifact emitters (CSV / JSON paths), and
//! * an optional **checkpoint journal** for resumable mega-sweeps: every
//!   completed sweep job is appended to `<csv>.journal`, so an interrupted
//!   run restarted with the same command restores finished jobs instead of
//!   recomputing them — and the final artifact is **byte-identical** to an
//!   uninterrupted run (job results round-trip exactly through the journal).
//!
//! Beyond the paper, [`StudyRegistry::extended`] groups the scenario
//! studies (fault injection, adversarial traffic, scale-out past 1296
//! nodes) that the same trait machinery makes additive; the `sfbench` CLI
//! in `sf-bench` is a thin multiplexer over [`StudyRegistry::all`] (paper
//! plus extended), and each study's aliases keep the old per-figure names
//! working (`sfbench run fig10_saturation`).

use crate::comparison::{NetworkInstance, TopologyKind};
use crate::experiments::{
    self, adversarial_saturation_study_with_ctx, bisection_study_with_ctx,
    configuration_table_with_ctx, fault_resilience_study_with_ctx, hop_count_study_with_ctx,
    latency_curve_with_ctx, megasweep_study_with_ctx, power_gating_study_with_ctx,
    saturation_study_with_ctx, scaleout_study_with_ctx, surg_path_length_study_with_ctx,
    workload_study_with_ctx, ExperimentScale, FaultResilienceRow, HopCountRow, LatencyPoint,
    MegasweepRow, PowerGateRow, SaturationRow, WorkloadRow,
};
use sf_harness::journal::{self, Journal};
use sf_harness::pool::PoolConfig;
use sf_harness::sink::RowSink;
use sf_harness::sweep::{JobCtx, LazySweep, SweepError};
use sf_harness::table::{Record, Table, Value};
use sf_harness::BuildCache;
use sf_topology::analysis::BisectionBandwidth;
use sf_types::{SfError, SfResult};
use sf_workloads::{ApplicationModel, SyntheticPattern};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// Checkpointable job results
// ---------------------------------------------------------------------------

/// A sweep-job result that can round-trip through the checkpoint journal.
///
/// `from_cells(to_cells(r)) == Some(r)` must hold **exactly** (floats are
/// journalled with shortest-roundtrip formatting), which is what makes a
/// resumed run's artifact byte-identical to an uninterrupted one.
pub trait CheckpointRow: Sized {
    /// Encodes this result as journal cells.
    fn to_cells(&self) -> Vec<Value>;
    /// Decodes a result previously encoded with [`to_cells`](Self::to_cells).
    fn from_cells(cells: &[Value]) -> Option<Self>;
}

fn cell_f64(cell: &Value) -> Option<f64> {
    match cell {
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

fn cell_u64(cell: &Value) -> Option<u64> {
    match cell {
        Value::UInt(u) => Some(*u),
        _ => None,
    }
}

fn cell_usize(cell: &Value) -> Option<usize> {
    cell_u64(cell).map(|u| u as usize)
}

fn cell_bool(cell: &Value) -> Option<bool> {
    match cell {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn cell_str(cell: &Value) -> Option<&str> {
    match cell {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn cell_opt_f64(cell: &Value) -> Option<Option<f64>> {
    match cell {
        Value::Null => Some(None),
        Value::Float(x) => Some(Some(*x)),
        _ => None,
    }
}

impl CheckpointRow for f64 {
    fn to_cells(&self) -> Vec<Value> {
        vec![(*self).into()]
    }
    fn from_cells(cells: &[Value]) -> Option<Self> {
        match cells {
            [cell] => cell_f64(cell),
            _ => None,
        }
    }
}

impl CheckpointRow for HopCountRow {
    fn to_cells(&self) -> Vec<Value> {
        self.values()
    }
    fn from_cells(cells: &[Value]) -> Option<Self> {
        let [kind, nodes, asp, hops, ports] = cells else {
            return None;
        };
        Some(Self {
            kind: TopologyKind::from_name(cell_str(kind)?)?,
            nodes: cell_usize(nodes)?,
            average_shortest_path: cell_f64(asp)?,
            average_routed_hops: cell_f64(hops)?,
            router_ports: cell_usize(ports)?,
        })
    }
}

impl CheckpointRow for SaturationRow {
    fn to_cells(&self) -> Vec<Value> {
        self.values()
    }
    fn from_cells(cells: &[Value]) -> Option<Self> {
        let [kind, nodes, pattern, point] = cells else {
            return None;
        };
        Some(Self {
            kind: TopologyKind::from_name(cell_str(kind)?)?,
            nodes: cell_usize(nodes)?,
            pattern: SyntheticPattern::from_name(cell_str(pattern)?)?,
            saturation_percent: cell_opt_f64(point)?,
        })
    }
}

impl CheckpointRow for LatencyPoint {
    fn to_cells(&self) -> Vec<Value> {
        self.values()
    }
    fn from_cells(cells: &[Value]) -> Option<Self> {
        let [rate, latency, throughput, saturated] = cells else {
            return None;
        };
        Some(Self {
            injection_rate: cell_f64(rate)?,
            average_latency_cycles: cell_f64(latency)?,
            accepted_throughput: cell_f64(throughput)?,
            saturated: cell_bool(saturated)?,
        })
    }
}

impl CheckpointRow for WorkloadRow {
    fn to_cells(&self) -> Vec<Value> {
        self.values()
    }
    fn from_cells(cells: &[Value]) -> Option<Self> {
        let [kind, workload, rpc, rtt, epr, total] = cells else {
            return None;
        };
        Some(Self {
            kind: TopologyKind::from_name(cell_str(kind)?)?,
            workload: ApplicationModel::from_name(cell_str(workload)?)?,
            requests_per_cycle: cell_f64(rpc)?,
            average_round_trip_cycles: cell_f64(rtt)?,
            energy_per_request_pj: cell_f64(epr)?,
            total_energy_pj: cell_f64(total)?,
        })
    }
}

impl CheckpointRow for PowerGateRow {
    fn to_cells(&self) -> Vec<Value> {
        self.values()
    }
    fn from_cells(cells: &[Value]) -> Option<Self> {
        let [fraction, gated, edp, norm, rtt] = cells else {
            return None;
        };
        Some(Self {
            gated_fraction: cell_f64(fraction)?,
            gated_nodes: cell_usize(gated)?,
            energy_delay_product: cell_f64(edp)?,
            normalized_edp: cell_f64(norm)?,
            average_round_trip_cycles: cell_f64(rtt)?,
        })
    }
}

impl CheckpointRow for BisectionBandwidth {
    fn to_cells(&self) -> Vec<Value> {
        vec![
            self.minimum.into(),
            self.average.into(),
            self.samples.into(),
        ]
    }
    fn from_cells(cells: &[Value]) -> Option<Self> {
        let [minimum, average, samples] = cells else {
            return None;
        };
        Some(Self {
            minimum: cell_u64(minimum)?,
            average: cell_f64(average)?,
            samples: cell_usize(samples)?,
        })
    }
}

impl CheckpointRow for FaultResilienceRow {
    fn to_cells(&self) -> Vec<Value> {
        self.values()
    }
    fn from_cells(cells: &[Value]) -> Option<Self> {
        let [kind, nodes, links, routers, link_ev, router_ev, injected, completed, dropped, ratio, rtt] =
            cells
        else {
            return None;
        };
        Some(Self {
            kind: TopologyKind::from_name(cell_str(kind)?)?,
            nodes: cell_usize(nodes)?,
            links_per_wave: cell_usize(links)?,
            routers_per_wave: cell_usize(routers)?,
            link_down_events: cell_u64(link_ev)?,
            router_down_events: cell_u64(router_ev)?,
            injected: cell_u64(injected)?,
            completed_requests: cell_u64(completed)?,
            dropped_packets: cell_u64(dropped)?,
            completion_ratio: cell_f64(ratio)?,
            average_round_trip_cycles: cell_f64(rtt)?,
        })
    }
}

impl CheckpointRow for MegasweepRow {
    fn to_cells(&self) -> Vec<Value> {
        self.values()
    }
    fn from_cells(cells: &[Value]) -> Option<Self> {
        let [kind, nodes, rate, seed, latency, throughput, saturated] = cells else {
            return None;
        };
        Some(Self {
            kind: TopologyKind::from_name(cell_str(kind)?)?,
            nodes: cell_usize(nodes)?,
            injection_rate: cell_f64(rate)?,
            seed: cell_u64(seed)?,
            average_latency_cycles: cell_f64(latency)?,
            accepted_throughput: cell_f64(throughput)?,
            saturated: cell_bool(saturated)?,
        })
    }
}

impl CheckpointRow for crate::experiments::ConfigurationRow {
    fn to_cells(&self) -> Vec<Value> {
        self.values()
    }
    fn from_cells(cells: &[Value]) -> Option<Self> {
        let [kind, nodes, ports, links, radix, reconf] = cells else {
            return None;
        };
        Some(Self {
            kind: TopologyKind::from_name(cell_str(kind)?)?,
            nodes: cell_usize(nodes)?,
            router_ports: cell_usize(ports)?,
            links: cell_usize(links)?,
            requires_high_radix: cell_bool(radix)?,
            supports_reconfiguration: cell_bool(reconf)?,
        })
    }
}

// ---------------------------------------------------------------------------
// RunContext
// ---------------------------------------------------------------------------

/// The build-once topology cache studies share: `(design, nodes, seed)` →
/// generated [`NetworkInstance`].
pub type TopologyCache = BuildCache<(TopologyKind, usize, u64), NetworkInstance>;

/// Where a study's result table is written after the run.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Emitter {
    /// Write the table's CSV form to this path.
    Csv(PathBuf),
    /// Write the table's JSON form to this path.
    Json(PathBuf),
}

/// Everything a study runs inside: worker pool, topology cache, scale
/// policy, artifact emitters, and the optional checkpoint journal.
///
/// Built builder-style:
///
/// ```
/// use sf_harness::pool::PoolConfig;
/// use stringfigure::study::RunContext;
///
/// let ctx = RunContext::new()
///     .with_pool(PoolConfig::serial())
///     .quick(true)
///     .with_shards(2);
/// assert!(ctx.is_quick());
/// ```
#[derive(Debug)]
pub struct RunContext {
    pool: PoolConfig,
    quick: bool,
    shards: usize,
    scale_override: Option<ExperimentScale>,
    cache: Option<Arc<TopologyCache>>,
    emitters: Vec<Emitter>,
    checkpoint_path: Option<PathBuf>,
    max_journal_bytes: Option<u64>,
    telemetry: Option<PathBuf>,
    telemetry_every: Option<u64>,
    journal: OnceLock<Journal>,
    sweep_seq: AtomicU64,
}

impl Default for RunContext {
    fn default() -> Self {
        Self::new()
    }
}

impl RunContext {
    /// A context with the default worker pool, full (paper) scale, no
    /// emitters, and no checkpointing.
    #[must_use]
    pub fn new() -> Self {
        Self {
            pool: PoolConfig::auto(),
            quick: false,
            shards: 0,
            scale_override: None,
            cache: None,
            emitters: Vec::new(),
            checkpoint_path: None,
            max_journal_bytes: None,
            telemetry: None,
            telemetry_every: None,
            journal: OnceLock::new(),
            sweep_seq: AtomicU64::new(0),
        }
    }

    /// Sets the sweep worker pool.
    #[must_use]
    pub fn with_pool(mut self, pool: PoolConfig) -> Self {
        self.pool = pool;
        self
    }

    /// Selects quick (smoke) scale instead of the study's full scale.
    #[must_use]
    pub fn quick(mut self, quick: bool) -> Self {
        self.quick = quick;
        self
    }

    /// Forces an intra-simulation router shard count (`0` = automatic).
    /// Sharding only trades wall-clock time; rows are bit-identical.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Overrides the simulation scale for every study run in this context
    /// (otherwise each study picks its own quick/full scale).
    #[must_use]
    pub fn with_scale(mut self, scale: ExperimentScale) -> Self {
        self.scale_override = Some(scale);
        self
    }

    /// Uses a private topology [`BuildCache`] instead of the process-wide
    /// one (useful for isolation in tests).
    #[must_use]
    pub fn with_build_cache(mut self, cache: Arc<TopologyCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Adds a CSV emitter for the study's result table.
    #[must_use]
    pub fn with_csv(mut self, path: impl Into<PathBuf>) -> Self {
        self.emitters.push(Emitter::Csv(path.into()));
        self
    }

    /// Adds a JSON emitter for the study's result table.
    #[must_use]
    pub fn with_json(mut self, path: impl Into<PathBuf>) -> Self {
        self.emitters.push(Emitter::Json(path.into()));
        self
    }

    /// Enables checkpoint/resume: completed sweep jobs are journalled at
    /// `path` (conventionally `<csv>.journal`), restored by a later run of
    /// the same study at the same scale, and the file is removed once the
    /// final artifact is written.
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Caps the checkpoint journal's append log: once it outgrows `bytes`,
    /// it is compacted in place to a kill-safe snapshot (and an oversized
    /// journal found on resume is compacted before the run continues). The
    /// cap changes only disk usage, never output bytes, so it is — like
    /// worker and shard counts — excluded from the resume fingerprint.
    #[must_use]
    pub fn with_max_journal_bytes(mut self, bytes: u64) -> Self {
        self.max_journal_bytes = Some(bytes);
        self
    }

    /// Records an `sf-telemetry/v1` stream of every simulation this context
    /// runs at `path` (written via the atomic `.part`-rename pattern).
    /// Telemetry is strictly out-of-band — result artifacts are
    /// byte-identical with it on or off — and the stream itself is, like
    /// every other artifact, bit-identical for any worker or shard count.
    /// Like those parallelism knobs it is excluded from the resume
    /// fingerprint; note a resumed run skips restored jobs' simulations, so
    /// stream comparisons should use fresh (`--no-resume`) runs.
    #[must_use]
    pub fn with_telemetry(mut self, path: impl Into<PathBuf>) -> Self {
        self.telemetry = Some(path.into());
        self
    }

    /// Sets the telemetry sampling stride in cycles (default
    /// [`sf_obs::telemetry::DEFAULT_EVERY`]; clamped to at least 1).
    #[must_use]
    pub fn with_telemetry_every(mut self, every: u64) -> Self {
        self.telemetry_every = Some(every.max(1));
        self
    }

    /// The telemetry stream path configured with
    /// [`with_telemetry`](Self::with_telemetry), if any.
    #[must_use]
    pub fn telemetry(&self) -> Option<&Path> {
        self.telemetry.as_deref()
    }

    /// The effective telemetry sampling stride of this context's
    /// simulations: 0 (off) without a stream path, else the configured or
    /// default stride.
    #[must_use]
    pub fn telemetry_every(&self) -> u64 {
        if self.telemetry.is_none() {
            return 0;
        }
        self.telemetry_every
            .unwrap_or(sf_obs::telemetry::DEFAULT_EVERY)
    }

    /// Whether this context runs studies at quick (smoke) scale.
    #[must_use]
    pub fn is_quick(&self) -> bool {
        self.quick
    }

    /// The sweep worker pool.
    #[must_use]
    pub fn pool(&self) -> &PoolConfig {
        &self.pool
    }

    /// The journal path configured with
    /// [`with_checkpoint`](Self::with_checkpoint), if any.
    #[must_use]
    pub fn checkpoint_path(&self) -> Option<&Path> {
        self.checkpoint_path.as_deref()
    }

    /// Resolves the simulation scale a study should run at: the explicit
    /// override if one was set, else quick or the study's own `full` scale,
    /// with the context's shard count applied on top.
    #[must_use]
    pub fn scale(&self, full: ExperimentScale) -> ExperimentScale {
        let base = self.scale_override.unwrap_or(if self.quick {
            ExperimentScale::quick()
        } else {
            full
        });
        let base = if self.shards > 0 {
            base.with_shards(self.shards)
        } else {
            base
        };
        base.with_telemetry_every(self.telemetry_every())
    }

    /// Builds or reuses the network design `kind` at scale `nodes` with
    /// `seed` through this context's topology cache.
    ///
    /// # Errors
    ///
    /// Propagates topology construction errors.
    pub fn instance(
        &self,
        kind: TopologyKind,
        nodes: usize,
        seed: u64,
    ) -> SfResult<Arc<NetworkInstance>> {
        match &self.cache {
            Some(cache) => cache.get_or_build((kind, nodes, seed), || {
                NetworkInstance::build(kind, nodes, seed)
            }),
            None => experiments::cached_instance(kind, nodes, seed),
        }
    }

    /// Opens the checkpoint journal for a run identified by `fingerprint`,
    /// restoring any completed jobs a previous interrupted run recorded.
    /// Returns the number of restored jobs; a no-op returning 0 when no
    /// checkpoint path is configured.
    ///
    /// # Errors
    ///
    /// Surfaces journal I/O failures as [`SfError::Simulation`].
    pub fn resume_checkpoint(&self, fingerprint: u64) -> SfResult<usize> {
        let Some(path) = &self.checkpoint_path else {
            return Ok(0);
        };
        if let Some(journal) = self.journal.get() {
            return Ok(journal.restored_count());
        }
        let journal =
            Journal::open_with_limit(path, fingerprint, self.max_journal_bytes).map_err(|e| {
                SfError::Simulation {
                    reason: format!("cannot open checkpoint journal {}: {e}", path.display()),
                }
            })?;
        // An interrupted mega-sweep can leave a log far past the cap; settle
        // it to a snapshot before appending more.
        let compacted = journal.maybe_compact().map_err(|e| SfError::Simulation {
            reason: format!("cannot compact checkpoint journal {}: {e}", path.display()),
        })?;
        if compacted {
            sf_obs::progress::Progress::global().note(&format!(
                "# compacted checkpoint journal {} to {} byte(s)",
                path.display(),
                journal.len_bytes()
            ));
        }
        let restored = journal.restored_count();
        let _ = self.journal.set(journal);
        Ok(restored)
    }

    /// The open checkpoint journal, if [`resume_checkpoint`] ran.
    ///
    /// [`resume_checkpoint`]: Self::resume_checkpoint
    #[must_use]
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.get()
    }

    /// Runs one streaming sweep of `points` through the worker pool,
    /// delivering each completed row to `on_row` **in enumeration order**
    /// without collecting the rows — **the** single execution path every
    /// study driver uses (the collecting [`run_jobs`](Self::run_jobs) is a
    /// thin wrapper). This is the bounded-memory pipeline: points stream in
    /// from the iterator, rows stream out through the callback, and the
    /// engine only buffers the out-of-order window, so a million-point
    /// mega-sweep peaks at `O(workers × chunk)` memory.
    ///
    /// With a checkpoint journal open, jobs completed by a previous
    /// interrupted run are restored from the journal instead of recomputed
    /// (and still flow through `on_row` in order), and every newly completed
    /// job is journalled (and flushed) before its row is delivered — which
    /// is what makes `kill -9` at any point resumable with bit-identical
    /// final output. Returns the number of rows delivered.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed job error (panics inside a job surface as
    /// [`SfError::Simulation`] tagged with the job index) or the first error
    /// `on_row` returned. The first error **cancels the sweep**: no further
    /// points are pulled, so a failed mega-sweep stops within the in-flight
    /// window instead of computing the rest of its grid.
    pub fn run_jobs_streaming<I, P, R, F, S>(
        &self,
        points: I,
        job: F,
        mut on_row: S,
    ) -> SfResult<usize>
    where
        I: IntoIterator<Item = P>,
        I::IntoIter: ExactSizeIterator + Send,
        P: Send,
        R: CheckpointRow + Send,
        F: Fn(JobCtx, &P) -> SfResult<R> + Sync,
        S: FnMut(usize, R) -> SfResult<()> + Send,
    {
        let seq = self.sweep_seq.fetch_add(1, Ordering::Relaxed);
        let journal = self.journal.get();
        let mut failure: Option<SfError> = None;
        let mut delivered = 0usize;
        let points = points.into_iter();
        let progress = sf_obs::progress::Progress::global();
        progress.start_sweep(points.len());
        LazySweep::new(points).run_streaming(
            &self.pool,
            |jctx, point| {
                // Telemetry blocks this job's simulations submit are keyed
                // by (sweep, job index) so the collector can write them in
                // enumeration order, whatever worker ran the job.
                let _telemetry_scope = sf_obs::telemetry::job_scope(seq, jctx.index as u64);
                if let Some(journal) = journal {
                    if let Some(cells) = journal.restored(seq, jctx.index as u64) {
                        if let Some(row) = R::from_cells(cells) {
                            return Ok(row);
                        }
                    }
                }
                let row = job(jctx, point)?;
                if let Some(journal) = journal {
                    journal
                        .record(seq, jctx.index as u64, &row.to_cells())
                        .map_err(|e| SfError::Simulation {
                            reason: format!("checkpoint journal write failed: {e}"),
                        })?;
                }
                Ok(row)
            },
            |outcome| {
                // Ordered delivery means the first failure seen is the
                // lowest-indexed one — the error the old serial loops
                // surfaced. Returning false cancels the sweep, so a failed
                // mega-sweep stops instead of running the rest of its grid.
                match outcome.result {
                    Ok(row) => match on_row(outcome.index, row) {
                        Ok(()) => {
                            delivered += 1;
                            // This callback runs in enumeration order, so
                            // flushing parked telemetry here pins the
                            // stream's block order to the job order.
                            sf_obs::telemetry::Collector::global()
                                .deliver_through(seq, outcome.index as u64);
                            progress.tick(1, 1);
                            true
                        }
                        Err(e) => {
                            failure = Some(e);
                            false
                        }
                    },
                    Err(SweepError::Job(e)) => {
                        failure = Some(e);
                        false
                    }
                    Err(SweepError::Panic(message)) => {
                        failure = Some(SfError::Simulation {
                            reason: format!("experiment job {} panicked: {message}", outcome.index),
                        });
                        false
                    }
                }
            },
        );
        progress.finish_sweep();
        match failure {
            Some(e) => Err(e),
            None => Ok(delivered),
        }
    }

    /// [`run_jobs_streaming`](Self::run_jobs_streaming) collecting the rows
    /// into a `Vec` — the path for studies whose grids are small enough to
    /// hold (every `Vec<P>` also streams through here, which keeps old
    /// drivers compiling unchanged).
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed job error; panics inside a job surface as
    /// [`SfError::Simulation`] tagged with the job index.
    pub fn run_jobs<I, P, R, F>(&self, points: I, job: F) -> SfResult<Vec<R>>
    where
        I: IntoIterator<Item = P>,
        I::IntoIter: ExactSizeIterator + Send,
        P: Send,
        R: CheckpointRow + Send,
        F: Fn(JobCtx, &P) -> SfResult<R> + Sync,
    {
        let mut rows = Vec::new();
        self.run_jobs_streaming(points, job, |_, row| {
            rows.push(row);
            Ok(())
        })?;
        Ok(rows)
    }

    /// Opens one streaming [`RowSink`] per configured emitter, all sharing
    /// `columns` — the artifact end of the bounded-memory pipeline. With no
    /// emitters configured the stream is an empty no-op.
    ///
    /// # Errors
    ///
    /// Surfaces filesystem failures as [`SfError::Simulation`].
    pub fn open_row_stream<S: AsRef<str>>(&self, columns: &[S]) -> SfResult<RowStream> {
        let mut sinks = Vec::with_capacity(self.emitters.len());
        for emitter in &self.emitters {
            let (path, sink) = match emitter {
                Emitter::Csv(path) => (path, RowSink::csv(path, columns)),
                Emitter::Json(path) => (path, RowSink::json(path, columns)),
            };
            sinks.push(sink.map_err(|e| SfError::Simulation {
                reason: format!("cannot open artifact {}: {e}", path.display()),
            })?);
        }
        Ok(RowStream { sinks })
    }

    /// Writes `table` through every configured emitter — the post-hoc path
    /// for studies that aggregate before emitting. Runs over the same
    /// streaming sinks as [`open_row_stream`](Self::open_row_stream), so
    /// both paths produce identical bytes.
    ///
    /// # Errors
    ///
    /// Surfaces filesystem failures as [`SfError::Simulation`].
    pub fn emit(&self, table: &Table) -> SfResult<()> {
        let mut stream = self.open_row_stream(&table.columns)?;
        for row in &table.rows {
            stream.push(row)?;
        }
        stream.finish()
    }
}

/// The artifact end of a streaming run: every pushed row goes to each of the
/// context's emitters incrementally, and [`finish`](Self::finish) finalises
/// all artifacts atomically. Created by
/// [`RunContext::open_row_stream`]; dropping without `finish` discards the
/// partial artifacts and leaves the destinations untouched.
#[derive(Debug)]
pub struct RowStream {
    sinks: Vec<RowSink>,
}

impl RowStream {
    /// Appends one row to every open sink.
    ///
    /// # Errors
    ///
    /// Surfaces filesystem failures as [`SfError::Simulation`].
    pub fn push(&mut self, cells: &[Value]) -> SfResult<()> {
        for sink in &mut self.sinks {
            // Error context is formatted only on failure — push runs once
            // per row per sink inside the serialised emit section, so the
            // success path must not allocate.
            if let Err(e) = sink.push(cells) {
                return Err(SfError::Simulation {
                    reason: format!("cannot write artifact {}: {e}", sink.path().display()),
                });
            }
        }
        Ok(())
    }

    /// Number of sinks this stream writes to.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether the stream has no sinks (no emitters configured).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// Finalises and atomically publishes every artifact.
    ///
    /// # Errors
    ///
    /// Surfaces filesystem failures as [`SfError::Simulation`].
    pub fn finish(self) -> SfResult<()> {
        for sink in self.sinks {
            let path = sink.path().display().to_string();
            let rows = sink.rows();
            sink.finish().map_err(|e| SfError::Simulation {
                reason: format!("cannot write artifact {path}: {e}"),
            })?;
            sf_obs::progress::Progress::global().note(&format!("# wrote {path} ({rows} rows)"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Study trait and grid description
// ---------------------------------------------------------------------------

/// The parameter grid a study will sweep at a given scale: named axes and
/// their point counts, enumerable lazily in row-major order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyGrid {
    /// `(axis name, point count)` pairs, outermost axis first.
    pub axes: Vec<(&'static str, usize)>,
}

impl StudyGrid {
    /// A grid over the given axes.
    #[must_use]
    pub fn new(axes: Vec<(&'static str, usize)>) -> Self {
        Self { axes }
    }

    /// Total number of sweep jobs (product of the axis sizes).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.axes.iter().map(|(_, n)| *n).product()
    }

    /// Streams every grid point as per-axis indices (row-major, outermost
    /// axis first) without materialising the grid.
    pub fn points(&self) -> impl ExactSizeIterator<Item = Vec<usize>> + Send + '_ {
        let sizes: Vec<usize> = self.axes.iter().map(|(_, n)| *n).collect();
        (0..self.jobs()).map(move |mut flat| {
            let mut coords = vec![0usize; sizes.len()];
            for (slot, &size) in coords.iter_mut().zip(&sizes).rev() {
                *slot = flat % size.max(1);
                flat /= size.max(1);
            }
            coords
        })
    }

    /// The grid as a streaming [`LazySweep`] over its points — the shape a
    /// million-point mega-sweep runs in.
    #[must_use]
    pub fn lazy_sweep(&self) -> LazySweep<impl ExactSizeIterator<Item = Vec<usize>> + Send + '_> {
        LazySweep::new(self.points())
    }
}

/// One evaluation artefact of the paper, runnable by name through the
/// registry and the `sfbench` CLI.
pub trait Study: Send + Sync {
    /// Short registry name (`fig10`, `bisection`, …).
    fn name(&self) -> &'static str;

    /// Alternative names this study answers to (e.g. the old binary name).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// The paper artefact this study reproduces (`Figure 10`, `Table II`…).
    fn artefact(&self) -> &'static str;

    /// One-line human description (shown by `sfbench list`; never empty).
    fn description(&self) -> &'static str;

    /// The `experiments` module driver behind this study, for the
    /// registry-completeness test.
    fn driver(&self) -> &'static str;

    /// The parameter grid this study sweeps at the context's scale.
    fn grid(&self, ctx: &RunContext) -> StudyGrid;

    /// Runs the study and returns its result table — the exact table the
    /// figure binary historically emitted via `--csv`.
    ///
    /// # Errors
    ///
    /// Propagates construction, workload, and simulation errors.
    fn run(&self, ctx: &RunContext) -> SfResult<Table>;

    /// Whether [`run`](Self::run) streams its rows straight to the context's
    /// emitters while the sweep executes, returning only a summary table —
    /// the shape mega-sweeps take, whose row sets must never be collected.
    /// [`execute`] then skips the post-hoc emission of the returned table.
    fn streams_rows(&self) -> bool {
        false
    }

    /// Prints any extra derived tables the old binary showed on stdout
    /// (normalised figures, feature matrices). Default: nothing.
    fn print_extras(&self, table: &Table) {
        let _ = table;
    }
}

/// The checkpoint fingerprint of running `study` in `ctx`: identifies the
/// study and everything that changes its grid or rows, while deliberately
/// excluding worker/shard counts (which never change output bytes), so a
/// resume may use different parallelism than the interrupted run.
#[must_use]
pub fn study_fingerprint(study: &dyn Study, ctx: &RunContext) -> u64 {
    let mut parts: Vec<String> = vec![
        study.name().to_string(),
        if ctx.is_quick() { "quick" } else { "full" }.to_string(),
    ];
    if let Some(scale) = ctx.scale_override {
        parts.push(format!(
            "scale:{}:{}",
            scale.max_cycles, scale.warmup_cycles
        ));
    }
    journal::fingerprint(parts)
}

/// Runs `study` end to end inside `ctx`: opens the checkpoint journal (when
/// configured), executes the study, writes every emitter, and removes the
/// journal once the artifact is safely on disk.
///
/// # Errors
///
/// Propagates study and emitter errors; on error the journal is kept so the
/// run can be resumed.
pub fn execute(study: &dyn Study, ctx: &RunContext) -> SfResult<Table> {
    let progress = sf_obs::progress::Progress::global();
    progress.set_task(study.name());
    // Telemetry brackets the whole run: the stream opens (as a .part)
    // before any simulation and publishes atomically only on success, so a
    // failed run leaves no partial stream behind.
    if let Some(path) = ctx.telemetry() {
        sf_obs::telemetry::Collector::global()
            .configure(path)
            .map_err(|e| SfError::Simulation {
                reason: format!("cannot open telemetry stream {}: {e}", path.display()),
            })?;
    }
    let result = execute_inner(study, ctx);
    if ctx.telemetry().is_some() {
        let collector = sf_obs::telemetry::Collector::global();
        if result.is_ok() {
            match collector.finish() {
                Ok(Some((path, blocks))) => progress.note(&format!(
                    "# wrote {} ({blocks} telemetry block(s))",
                    path.display()
                )),
                Ok(None) => {}
                Err(e) => {
                    return Err(SfError::Simulation {
                        reason: format!("cannot write telemetry stream: {e}"),
                    });
                }
            }
        } else {
            collector.abort();
        }
    }
    result
}

fn execute_inner(study: &dyn Study, ctx: &RunContext) -> SfResult<Table> {
    let progress = sf_obs::progress::Progress::global();
    let expected_fp = study_fingerprint(study, ctx);
    // A journal left by a *different* configuration is about to be
    // discarded; say exactly what clashed (both fingerprints plus this
    // run's config) instead of silently starting fresh.
    if let Some(path) = ctx.checkpoint_path() {
        if let Some(found) = journal::peek_fingerprint(path) {
            if found != expected_fp {
                progress.note(&format!(
                    "# checkpoint journal {} fingerprint mismatch: expected {expected_fp:016x} (study={} mode={}), found {found:016x} — discarding it and starting fresh",
                    path.display(),
                    study.name(),
                    if ctx.is_quick() { "quick" } else { "full" },
                ));
            }
        }
    }
    let restored = ctx.resume_checkpoint(expected_fp)?;
    if restored > 0 {
        progress.note(&format!(
            "# resuming {}: {restored} job(s) restored from {}",
            study.name(),
            ctx.checkpoint_path()
                .map_or_else(String::new, |p| p.display().to_string()),
        ));
    }
    let table = study.run(ctx)?;
    // Streaming studies already wrote their artifacts row by row; emitting
    // the summary table over them would clobber the real rows.
    if !study.streams_rows() {
        ctx.emit(&table)?;
    }
    if let Some(journal) = ctx.journal() {
        // Journal health — reported before the (successful) run deletes it.
        progress.note(&format!(
            "# journal {}: {} byte(s), {} job(s) restored, {} compaction(s)",
            journal.path().display(),
            journal.len_bytes(),
            journal.restored_count(),
            journal.compactions(),
        ));
        journal.finish().map_err(|e| SfError::Simulation {
            reason: format!("cannot remove checkpoint journal: {e}"),
        })?;
    }
    Ok(table)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Name-addressable collection of studies.
#[derive(Default)]
pub struct StudyRegistry {
    studies: Vec<Box<dyn Study>>,
}

impl std::fmt::Debug for StudyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudyRegistry")
            .field("studies", &self.names())
            .finish()
    }
}

impl StudyRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry of all eight paper artefacts.
    #[must_use]
    pub fn paper() -> Self {
        let mut registry = Self::new();
        registry.register(Box::new(Fig05Surg));
        registry.register(Box::new(Fig08Configs));
        registry.register(Box::new(Fig09aHopCounts));
        registry.register(Box::new(Fig09bPowerGating));
        registry.register(Box::new(Fig10Saturation));
        registry.register(Box::new(Fig11LatencyCurves));
        registry.register(Box::new(Fig12Workloads));
        registry.register(Box::new(BisectionStudy));
        registry
    }

    /// The extended (beyond-paper) scenario group: fault injection,
    /// adversarial traffic, and scale-out sweeps past the paper's 1296-node
    /// maximum. Kept separate from [`paper`](Self::paper) so the
    /// reproduction surface stays clearly delineated; `sfbench` exposes both
    /// through [`all`](Self::all).
    #[must_use]
    pub fn extended() -> Self {
        let mut registry = Self::new();
        registry.register(Box::new(FaultResilience));
        registry.register(Box::new(AdversarialSaturation));
        registry.register(Box::new(Scaleout2048));
        registry.register(Box::new(Megasweep));
        registry
    }

    /// Every registered study: the paper group followed by the extended
    /// scenario group — the registry behind `sfbench list/grid/run`.
    #[must_use]
    pub fn all() -> Self {
        let mut registry = Self::paper();
        for study in Self::extended().studies {
            registry.register(study);
        }
        registry
    }

    /// Adds a study; later registrations win name clashes in [`get`].
    ///
    /// [`get`]: Self::get
    pub fn register(&mut self, study: Box<dyn Study>) {
        self.studies.push(study);
    }

    /// Looks a study up by name or alias (case-sensitive).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&dyn Study> {
        self.studies
            .iter()
            .rev()
            .find(|s| s.name() == name || s.aliases().contains(&name))
            .map(AsRef::as_ref)
    }

    /// Registered studies, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Study> {
        self.studies.iter().map(AsRef::as_ref)
    }

    /// Registered study names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.studies.iter().map(|s| s.name()).collect()
    }

    /// Number of registered studies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.studies.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.studies.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Table rendering (shared by the CLI and the study extras)
// ---------------------------------------------------------------------------

/// Prints a Markdown-style table: a header row followed by data rows.
/// Column widths adapt to the widest cell so the output is readable both in
/// a terminal and when pasted into a report.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(4)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|h| (*h).to_string()).collect());
    let separator: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(separator);
    for row in rows {
        line(row.clone());
    }
}

/// Formats a float with three significant decimals for table cells.
#[must_use]
pub fn fmt_f(value: f64) -> String {
    format!("{value:.3}")
}

/// Formats an optional percentage (used for saturation points).
#[must_use]
pub fn fmt_percent(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.0}%"),
        None => "saturated".to_string(),
    }
}

/// Renders one table cell for terminal display (floats at three decimals).
#[must_use]
pub fn render_cell(value: &Value) -> String {
    match value {
        Value::Float(x) => fmt_f(*x),
        Value::Null => "-".to_string(),
        other => other.render(),
    }
}

/// Prints a result [`Table`] as a Markdown-style terminal table.
pub fn print_result_table(table: &Table) {
    let headers: Vec<&str> = table.columns.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|row| row.iter().map(render_cell).collect())
        .collect();
    print_table(&headers, &rows);
}

// ---------------------------------------------------------------------------
// The eight paper studies
// ---------------------------------------------------------------------------

/// Figure 5: average shortest path length of Jellyfish, S2, and SF.
#[derive(Debug, Clone, Copy)]
pub struct Fig05Surg;

impl Fig05Surg {
    fn params(ctx: &RunContext) -> (Vec<usize>, u64) {
        if ctx.is_quick() {
            (vec![100, 200, 400], 3)
        } else {
            // The paper's x-axis: 100–1200 nodes, 20 topologies per point.
            (vec![100, 200, 400, 800, 1200], 20)
        }
    }
}

impl Study for Fig05Surg {
    fn name(&self) -> &'static str {
        "fig05"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig05_surg_path_length"]
    }
    fn artefact(&self) -> &'static str {
        "Figure 5"
    }
    fn description(&self) -> &'static str {
        "average shortest path length of Jellyfish, S2, and String Figure across network sizes"
    }
    fn driver(&self) -> &'static str {
        "surg_path_length_study_with_ctx"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        let (sizes, seeds) = Self::params(ctx);
        StudyGrid::new(vec![
            ("nodes", sizes.len()),
            ("topology seed", seeds as usize),
            ("design", 3),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (sizes, seeds) = Self::params(ctx);
        let rows = surg_path_length_study_with_ctx(ctx, &sizes, seeds)?;
        Ok(Table::from_records(&rows))
    }
}

/// Figure 8 / Table II: evaluated configurations and the feature matrix.
#[derive(Debug, Clone, Copy)]
pub struct Fig08Configs;

impl Fig08Configs {
    fn sizes(ctx: &RunContext) -> Vec<usize> {
        if ctx.is_quick() {
            vec![16, 61, 128]
        } else {
            // Figure 8's column headers.
            vec![16, 17, 32, 61, 64, 113, 128, 256, 512, 1024, 1296]
        }
    }
}

impl Study for Fig08Configs {
    fn name(&self) -> &'static str {
        "fig08"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig08_table02_configs", "table02"]
    }
    fn artefact(&self) -> &'static str {
        "Figure 8 / Table II"
    }
    fn description(&self) -> &'static str {
        "evaluated network configurations (router ports, links) and the qualitative feature matrix"
    }
    fn driver(&self) -> &'static str {
        "configuration_table_with_ctx"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        StudyGrid::new(vec![
            ("nodes", Self::sizes(ctx).len()),
            ("design", TopologyKind::ALL.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let rows = configuration_table_with_ctx(ctx, &TopologyKind::ALL, &Self::sizes(ctx), 1)?;
        Ok(Table::from_records(&rows))
    }
    fn print_extras(&self, _table: &Table) {
        println!();
        eprintln!("# Table II: topology features and requirements");
        let rows: Vec<Vec<String>> = TopologyKind::ALL
            .iter()
            .map(|k| {
                let yes_no = |b: bool| if b { "yes" } else { "no" }.to_string();
                vec![
                    k.to_string(),
                    yes_no(k.requires_high_radix()),
                    yes_no(k.requires_high_radix()),
                    yes_no(k.supports_reconfiguration()),
                ]
            })
            .collect();
        print_table(
            &[
                "design",
                "high-radix routers",
                "port scaling",
                "reconfigurable scaling",
            ],
            &rows,
        );
    }
}

/// Figure 9(a): average routed hop counts per design and scale.
#[derive(Debug, Clone, Copy)]
pub struct Fig09aHopCounts;

impl Fig09aHopCounts {
    fn params(ctx: &RunContext) -> (Vec<usize>, usize) {
        if ctx.is_quick() {
            (vec![16, 64, 128], 500)
        } else {
            (vec![16, 32, 64, 128, 256, 512, 1024, 1296], 2_000)
        }
    }
}

impl Study for Fig09aHopCounts {
    fn name(&self) -> &'static str {
        "fig09a"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig09a_hop_counts"]
    }
    fn artefact(&self) -> &'static str {
        "Figure 9(a)"
    }
    fn description(&self) -> &'static str {
        "average hop counts taken by each design's routing protocol as the network grows"
    }
    fn driver(&self) -> &'static str {
        "hop_count_study_with_ctx"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        StudyGrid::new(vec![
            ("nodes", Self::params(ctx).0.len()),
            ("design", TopologyKind::ALL.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (sizes, samples) = Self::params(ctx);
        let rows = hop_count_study_with_ctx(ctx, &TopologyKind::ALL, &sizes, samples, 7)?;
        Ok(Table::from_records(&rows))
    }
}

/// Figure 9(b): normalised EDP of String Figure under power gating.
#[derive(Debug, Clone, Copy)]
pub struct Fig09bPowerGating;

impl Fig09bPowerGating {
    const FRACTIONS: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

    fn params(ctx: &RunContext) -> (usize, Vec<ApplicationModel>, ExperimentScale) {
        let nodes = if ctx.is_quick() { 64 } else { 324 };
        let workloads: Vec<ApplicationModel> = if ctx.is_quick() {
            vec![ApplicationModel::SparkWordcount, ApplicationModel::Redis]
        } else {
            ApplicationModel::ALL.to_vec()
        };
        let scale = ctx.scale(ExperimentScale {
            max_cycles: 8_000,
            warmup_cycles: 1_000,
            ..ExperimentScale::paper()
        });
        (nodes, workloads, scale)
    }
}

impl Study for Fig09bPowerGating {
    fn name(&self) -> &'static str {
        "fig09b"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig09b_powergate_edp"]
    }
    fn artefact(&self) -> &'static str {
        "Figure 9(b)"
    }
    fn description(&self) -> &'static str {
        "normalised energy-delay product while power-gating increasing fractions of the memory network"
    }
    fn driver(&self) -> &'static str {
        "power_gating_study_with_ctx"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        StudyGrid::new(vec![
            ("workload", Self::params(ctx).1.len()),
            ("gated fraction", Self::FRACTIONS.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (nodes, workloads, scale) = Self::params(ctx);
        // PowerGateRow doesn't carry its workload, so the artifact table
        // prepends that column to the Record's own.
        let mut table =
            Table::with_columns(&[&["workload"], PowerGateRow::columns().as_slice()].concat());
        for &workload in &workloads {
            let rows = power_gating_study_with_ctx(
                ctx,
                nodes,
                &Self::FRACTIONS,
                workload,
                4,
                scale,
                2019,
            )?;
            for row in rows {
                let mut cells = vec![workload.name().into()];
                cells.extend(row.values());
                table.push_row(cells);
            }
        }
        Ok(table)
    }
    fn print_extras(&self, table: &Table) {
        // The formatted view the old binary printed: gated fraction as a
        // percentage, normalised EDP, and round-trip latency per workload.
        eprintln!("\n# normalised EDP vs fraction of nodes power-gated (lower is better)");
        let rows: Vec<Vec<String>> = table
            .rows
            .iter()
            .map(|row| {
                let cell = |i: usize| render_cell(&row[i]);
                let fraction = match &row[1] {
                    Value::Float(f) => format!("{:.0}%", f * 100.0),
                    other => other.render(),
                };
                vec![cell(0), fraction, cell(2), cell(4), cell(5)]
            })
            .collect();
        print_table(
            &[
                "workload",
                "gated",
                "gated nodes",
                "normalised EDP",
                "avg round trip (cycles)",
            ],
            &rows,
        );
    }
}

/// Figure 10: saturation injection rates per design, size, and pattern.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Saturation;

impl Fig10Saturation {
    const PATTERNS: [SyntheticPattern; 3] = [
        SyntheticPattern::UniformRandom,
        SyntheticPattern::Hotspot,
        SyntheticPattern::Tornado,
    ];

    fn params(ctx: &RunContext) -> (Vec<usize>, Vec<f64>, ExperimentScale) {
        let (sizes, rates) = if ctx.is_quick() {
            (vec![16, 64], vec![0.05, 0.2, 0.4, 0.7])
        } else {
            (
                vec![16, 64, 128, 256, 512],
                vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            )
        };
        let scale = ctx.scale(ExperimentScale {
            max_cycles: 6_000,
            warmup_cycles: 800,
            ..ExperimentScale::paper()
        });
        (sizes, rates, scale)
    }
}

impl Study for Fig10Saturation {
    fn name(&self) -> &'static str {
        "fig10"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig10_saturation"]
    }
    fn artefact(&self) -> &'static str {
        "Figure 10"
    }
    fn description(&self) -> &'static str {
        "highest non-saturating injection rate per design, size, and traffic pattern"
    }
    fn driver(&self) -> &'static str {
        "saturation_study_with_ctx"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        StudyGrid::new(vec![
            ("pattern", Self::PATTERNS.len()),
            ("nodes", Self::params(ctx).0.len()),
            ("design", TopologyKind::ALL.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (sizes, rates, scale) = Self::params(ctx);
        let mut all_rows = Vec::new();
        for pattern in Self::PATTERNS {
            for &nodes in &sizes {
                all_rows.extend(saturation_study_with_ctx(
                    ctx,
                    &TopologyKind::ALL,
                    nodes,
                    pattern,
                    &rates,
                    scale,
                    3,
                )?);
            }
        }
        Ok(Table::from_records(&all_rows))
    }
}

/// Figure 11: latency versus injection rate curves.
#[derive(Debug, Clone, Copy)]
pub struct Fig11LatencyCurves;

impl Fig11LatencyCurves {
    #[allow(clippy::type_complexity)]
    fn params(
        ctx: &RunContext,
    ) -> (
        usize,
        Vec<f64>,
        Vec<TopologyKind>,
        Vec<SyntheticPattern>,
        ExperimentScale,
    ) {
        let quick = ctx.is_quick();
        let nodes = if quick { 64 } else { 256 };
        let rates: Vec<f64> = if quick {
            vec![0.05, 0.2, 0.5]
        } else {
            vec![0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        };
        let kinds = if quick {
            vec![TopologyKind::DistributedMesh, TopologyKind::StringFigure]
        } else {
            TopologyKind::ALL.to_vec()
        };
        let patterns = if quick {
            vec![SyntheticPattern::UniformRandom, SyntheticPattern::Tornado]
        } else {
            SyntheticPattern::ALL.to_vec()
        };
        let scale = ctx.scale(ExperimentScale {
            max_cycles: 6_000,
            warmup_cycles: 800,
            ..ExperimentScale::paper()
        });
        (nodes, rates, kinds, patterns, scale)
    }
}

impl Study for Fig11LatencyCurves {
    fn name(&self) -> &'static str {
        "fig11"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig11_latency_curves"]
    }
    fn artefact(&self) -> &'static str {
        "Figure 11"
    }
    fn description(&self) -> &'static str {
        "average packet latency versus injection rate for every design and traffic pattern"
    }
    fn driver(&self) -> &'static str {
        "latency_curve_with_ctx"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        let (_, rates, kinds, patterns, _) = Self::params(ctx);
        StudyGrid::new(vec![
            ("pattern", patterns.len()),
            ("design", kinds.len()),
            ("injection rate", rates.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (nodes, rates, kinds, patterns, scale) = Self::params(ctx);
        // LatencyPoint rows don't carry their (pattern, design) context, so
        // the artifact table prepends those two columns to the Record's own.
        let mut table = Table::with_columns(
            &[&["pattern", "design"], LatencyPoint::columns().as_slice()].concat(),
        );
        for &pattern in &patterns {
            for &kind in &kinds {
                let points = latency_curve_with_ctx(ctx, kind, nodes, pattern, &rates, scale, 5)?;
                for p in points {
                    let mut cells = vec![pattern.to_string().into(), kind.name().into()];
                    cells.extend(p.values());
                    table.push_row(cells);
                }
            }
        }
        Ok(table)
    }
}

/// Figure 12: real-workload throughput and dynamic memory energy.
#[derive(Debug, Clone, Copy)]
pub struct Fig12Workloads;

impl Fig12Workloads {
    // The paper normalises throughput to DM and energy to AFB; ODM,
    // S2-ideal, and SF are the compared designs.
    const KINDS: [TopologyKind; 5] = [
        TopologyKind::DistributedMesh,
        TopologyKind::OptimizedMesh,
        TopologyKind::AdaptedFlattenedButterfly,
        TopologyKind::SpaceShuffle,
        TopologyKind::StringFigure,
    ];

    fn params(ctx: &RunContext) -> (usize, Vec<ApplicationModel>, ExperimentScale) {
        let nodes = if ctx.is_quick() { 64 } else { 256 };
        let workloads: Vec<ApplicationModel> = if ctx.is_quick() {
            vec![ApplicationModel::SparkWordcount, ApplicationModel::Redis]
        } else {
            ApplicationModel::ALL.to_vec()
        };
        let scale = ctx.scale(ExperimentScale {
            max_cycles: 8_000,
            warmup_cycles: 1_000,
            ..ExperimentScale::paper()
        });
        (nodes, workloads, scale)
    }

    /// Looks the (kind, workload) row's column up in the result table.
    fn lookup(table: &Table, kind: TopologyKind, workload: &str, column: &str) -> Option<f64> {
        let col = table.columns.iter().position(|c| c == column)?;
        table
            .rows
            .iter()
            .find(|row| {
                matches!(&row[0], Value::Str(k) if k == kind.name())
                    && matches!(&row[1], Value::Str(w) if w == workload)
            })
            .and_then(|row| cell_f64(&row[col]))
    }
}

impl Study for Fig12Workloads {
    fn name(&self) -> &'static str {
        "fig12"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig12_workloads"]
    }
    fn artefact(&self) -> &'static str {
        "Figure 12"
    }
    fn description(&self) -> &'static str {
        "application throughput and dynamic memory energy per design (normalised in the extras)"
    }
    fn driver(&self) -> &'static str {
        "workload_study_with_ctx"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        StudyGrid::new(vec![
            ("design", Self::KINDS.len()),
            ("workload", Self::params(ctx).1.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (nodes, workloads, scale) = Self::params(ctx);
        let rows = workload_study_with_ctx(ctx, &Self::KINDS, &workloads, nodes, 4, scale, 2019)?;
        Ok(Table::from_records(&rows))
    }
    fn print_extras(&self, table: &Table) {
        let workloads: Vec<String> = {
            let mut seen = Vec::new();
            for row in &table.rows {
                if let Value::Str(w) = &row[1] {
                    if !seen.contains(w) {
                        seen.push(w.clone());
                    }
                }
            }
            seen
        };
        let get = |kind, workload: &str, column| {
            Self::lookup(table, kind, workload, column).unwrap_or(f64::NAN)
        };

        eprintln!("\n# Figure 12(a): throughput normalised to DM (higher is better)");
        let mut thr = Vec::new();
        let mut geo: Vec<(TopologyKind, f64)> = Vec::new();
        for &kind in &[
            TopologyKind::OptimizedMesh,
            TopologyKind::AdaptedFlattenedButterfly,
            TopologyKind::SpaceShuffle,
            TopologyKind::StringFigure,
        ] {
            let mut log_sum = 0.0;
            for w in &workloads {
                let base = get(TopologyKind::DistributedMesh, w, "requests_per_cycle");
                let val = get(kind, w, "requests_per_cycle") / base.max(f64::MIN_POSITIVE);
                log_sum += val.ln();
                thr.push(vec![w.clone(), kind.to_string(), fmt_f(val)]);
            }
            geo.push((kind, (log_sum / workloads.len() as f64).exp()));
        }
        for (kind, g) in &geo {
            thr.push(vec!["geomean".to_string(), kind.to_string(), fmt_f(*g)]);
        }
        print_table(&["workload", "design", "normalised throughput"], &thr);

        eprintln!(
            "\n# Figure 12(b): dynamic memory energy per request normalised to AFB (lower is better)"
        );
        let mut energy = Vec::new();
        for &kind in &[
            TopologyKind::OptimizedMesh,
            TopologyKind::SpaceShuffle,
            TopologyKind::StringFigure,
        ] {
            let mut log_sum = 0.0;
            for w in &workloads {
                let base = get(
                    TopologyKind::AdaptedFlattenedButterfly,
                    w,
                    "energy_per_request_pj",
                );
                let val = get(kind, w, "energy_per_request_pj") / base.max(f64::MIN_POSITIVE);
                log_sum += val.ln();
                energy.push(vec![w.clone(), kind.to_string(), fmt_f(val)]);
            }
            energy.push(vec![
                "geomean".to_string(),
                kind.to_string(),
                fmt_f((log_sum / workloads.len() as f64).exp()),
            ]);
        }
        print_table(&["workload", "design", "normalised energy"], &energy);
    }
}

/// Section V methodology: empirical minimum bisection bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct BisectionStudy;

impl BisectionStudy {
    fn params(ctx: &RunContext) -> (Vec<usize>, usize, u64) {
        if ctx.is_quick() {
            (vec![64], 10, 3)
        } else {
            (vec![64, 128, 256], 50, 20)
        }
    }
}

impl Study for BisectionStudy {
    fn name(&self) -> &'static str {
        "bisection"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["bisection_bandwidth"]
    }
    fn artefact(&self) -> &'static str {
        "Section V bisection methodology"
    }
    fn description(&self) -> &'static str {
        "empirical minimum bisection bandwidth over random cuts and generated topologies"
    }
    fn driver(&self) -> &'static str {
        "bisection_study_with_ctx"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        let (sizes, _, topologies) = Self::params(ctx);
        StudyGrid::new(vec![
            ("nodes", sizes.len()),
            ("design", TopologyKind::ALL.len()),
            ("topology", topologies as usize),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (sizes, cuts, topologies) = Self::params(ctx);
        let mut all_rows = Vec::new();
        for &nodes in &sizes {
            all_rows.extend(bisection_study_with_ctx(
                ctx,
                &TopologyKind::ALL,
                nodes,
                cuts,
                topologies,
            )?);
        }
        Ok(Table::from_records(&all_rows))
    }
}

// ---------------------------------------------------------------------------
// The extended scenario studies (beyond the paper's evaluation)
// ---------------------------------------------------------------------------

/// Scenario: delivery ratio, drops, and latency under deterministic waves of
/// link failures and router power-gate events.
#[derive(Debug, Clone, Copy)]
pub struct FaultResilience;

impl FaultResilience {
    const RATE: f64 = 0.05;

    #[allow(clippy::type_complexity)]
    fn params(
        ctx: &RunContext,
    ) -> (
        Vec<TopologyKind>,
        usize,
        Vec<(usize, usize)>,
        ExperimentScale,
    ) {
        let (kinds, nodes, severities) = if ctx.is_quick() {
            (
                vec![TopologyKind::DistributedMesh, TopologyKind::StringFigure],
                48,
                vec![(0, 0), (2, 1)],
            )
        } else {
            (
                vec![
                    TopologyKind::DistributedMesh,
                    TopologyKind::SpaceShuffle,
                    TopologyKind::StringFigure,
                ],
                256,
                vec![(0, 0), (1, 0), (2, 1), (4, 2)],
            )
        };
        let scale = ctx.scale(ExperimentScale {
            max_cycles: 6_000,
            warmup_cycles: 800,
            ..ExperimentScale::paper()
        });
        (kinds, nodes, severities, scale)
    }
}

impl Study for FaultResilience {
    fn name(&self) -> &'static str {
        "fault_resilience"
    }
    fn artefact(&self) -> &'static str {
        "Scenario: fault injection"
    }
    fn description(&self) -> &'static str {
        "delivery ratio, drops, and latency under deterministic link-failure and router power-gate waves"
    }
    fn driver(&self) -> &'static str {
        "fault_resilience_study_with_ctx"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        let (kinds, _, severities, _) = Self::params(ctx);
        StudyGrid::new(vec![
            ("design", kinds.len()),
            ("fault severity", severities.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (kinds, nodes, severities, scale) = Self::params(ctx);
        let rows = fault_resilience_study_with_ctx(
            ctx,
            &kinds,
            nodes,
            &severities,
            Self::RATE,
            scale,
            19,
        )?;
        Ok(Table::from_records(&rows))
    }
}

/// Scenario: the saturation methodology under adversarial traffic (hotspot
/// storm, bursty on/off, bit-reversal permutation).
#[derive(Debug, Clone, Copy)]
pub struct AdversarialSaturation;

impl AdversarialSaturation {
    fn params(ctx: &RunContext) -> (Vec<TopologyKind>, usize, Vec<f64>, ExperimentScale) {
        let (nodes, rates) = if ctx.is_quick() {
            (36, vec![0.05, 0.2, 0.4, 0.7])
        } else {
            (128, vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        };
        let scale = ctx.scale(ExperimentScale {
            max_cycles: 6_000,
            warmup_cycles: 800,
            ..ExperimentScale::paper()
        });
        (TopologyKind::ALL.to_vec(), nodes, rates, scale)
    }
}

impl Study for AdversarialSaturation {
    fn name(&self) -> &'static str {
        "adversarial_saturation"
    }
    fn artefact(&self) -> &'static str {
        "Scenario: adversarial traffic"
    }
    fn description(&self) -> &'static str {
        "highest non-saturating injection rate per design under hotspot-storm, bursty, and bit-reversal traffic"
    }
    fn driver(&self) -> &'static str {
        "adversarial_saturation_study_with_ctx"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        let (kinds, _, _, _) = Self::params(ctx);
        StudyGrid::new(vec![
            ("pattern", SyntheticPattern::ADVERSARIAL.len()),
            ("design", kinds.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (kinds, nodes, rates, scale) = Self::params(ctx);
        let rows = adversarial_saturation_study_with_ctx(ctx, &kinds, nodes, &rates, scale, 3)?;
        Ok(Table::from_records(&rows))
    }
}

/// Scenario: hop-count scaling of the fixed-radix designs beyond the paper's
/// 1296-node maximum, up to 2048 nodes.
#[derive(Debug, Clone, Copy)]
pub struct Scaleout2048;

impl Scaleout2048 {
    const KINDS: [TopologyKind; 3] = [
        TopologyKind::SpaceShuffle,
        TopologyKind::StringFigure,
        TopologyKind::Jellyfish,
    ];

    fn params(ctx: &RunContext) -> (Vec<usize>, usize) {
        if ctx.is_quick() {
            (vec![128, 256], 200)
        } else {
            (vec![512, 1024, 2048], 1_000)
        }
    }
}

impl Study for Scaleout2048 {
    fn name(&self) -> &'static str {
        "scaleout_2048"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["scaleout"]
    }
    fn artefact(&self) -> &'static str {
        "Scenario: scale-out beyond 1296 nodes"
    }
    fn description(&self) -> &'static str {
        "path-length and routed hop-count scaling of the fixed-radix designs up to 2048 nodes"
    }
    fn driver(&self) -> &'static str {
        "scaleout_study_with_ctx"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        StudyGrid::new(vec![
            ("nodes", Self::params(ctx).0.len()),
            ("design", Self::KINDS.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (sizes, samples) = Self::params(ctx);
        let rows = scaleout_study_with_ctx(ctx, &Self::KINDS, &sizes, samples, 7)?;
        Ok(Table::from_records(&rows))
    }
}

/// Scenario: the streaming mega-sweep — design × size × injection rate ×
/// topology seed at ~10⁵ quick-capped points full-scale. The only study
/// that exists *because of* the bounded-memory pipeline: its grid streams
/// through the lazy cross product, its rows stream to the emitters, and its
/// `run` returns only a per-design summary.
#[derive(Debug, Clone, Copy)]
pub struct Megasweep;

impl Megasweep {
    #[allow(clippy::type_complexity)]
    fn params(
        ctx: &RunContext,
    ) -> (
        Vec<TopologyKind>,
        Vec<usize>,
        Vec<f64>,
        u64,
        ExperimentScale,
    ) {
        let (kinds, sizes, rates, seeds) = if ctx.is_quick() {
            (
                vec![TopologyKind::DistributedMesh, TopologyKind::StringFigure],
                vec![16, 32],
                vec![0.05, 0.2, 0.4],
                2,
            )
        } else {
            (
                TopologyKind::ALL.to_vec(),
                vec![16, 32, 48, 64, 96, 128],
                (1..=20).map(|i| f64::from(i) * 0.045).collect(),
                150,
            )
        };
        // Every point is quick-capped: the sweep's scale comes from its
        // breadth (~10^5 points full-scale), not from long simulations.
        let scale = ctx.scale(ExperimentScale::quick());
        (kinds, sizes, rates, seeds, scale)
    }
}

impl Study for Megasweep {
    fn name(&self) -> &'static str {
        "megasweep"
    }
    fn artefact(&self) -> &'static str {
        "Scenario: streaming mega-sweep"
    }
    fn description(&self) -> &'static str {
        "bounded-memory design-space sweep over design x size x injection rate x seed; rows stream to the emitters"
    }
    fn driver(&self) -> &'static str {
        "megasweep_study_with_ctx"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        let (kinds, sizes, rates, seeds, _) = Self::params(ctx);
        StudyGrid::new(vec![
            ("design", kinds.len()),
            ("nodes", sizes.len()),
            ("injection rate", rates.len()),
            ("topology seed", seeds as usize),
        ])
    }
    fn streams_rows(&self) -> bool {
        true
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (kinds, sizes, rates, seeds, scale) = Self::params(ctx);
        let summary = megasweep_study_with_ctx(ctx, &kinds, &sizes, &rates, seeds, scale)?;
        Ok(Table::from_records(&summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn temp_journal(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "sf-study-test-{}-{name}.journal",
            std::process::id()
        ));
        path
    }

    #[test]
    fn registry_has_all_eight_paper_artefacts() {
        let registry = StudyRegistry::paper();
        assert_eq!(registry.len(), 8);
        for study in registry.iter() {
            assert!(!study.description().is_empty(), "{}", study.name());
            assert!(!study.artefact().is_empty(), "{}", study.name());
            assert!(registry.get(study.name()).is_some());
            for alias in study.aliases() {
                assert_eq!(registry.get(alias).unwrap().name(), study.name());
            }
        }
        assert!(registry.get("fig99").is_none());
    }

    #[test]
    fn extended_registry_holds_the_scenario_studies() {
        let extended = StudyRegistry::extended();
        assert_eq!(
            extended.names(),
            vec![
                "fault_resilience",
                "adversarial_saturation",
                "scaleout_2048",
                "megasweep"
            ]
        );
        for study in extended.iter() {
            assert!(
                study.artefact().starts_with("Scenario:"),
                "{}",
                study.name()
            );
            assert!(!study.description().is_empty(), "{}", study.name());
        }
        // The combined registry is paper + extended, and names never clash.
        let all = StudyRegistry::all();
        assert_eq!(all.len(), StudyRegistry::paper().len() + extended.len());
        let mut names = all.names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate study names");
        assert_eq!(all.get("scaleout").unwrap().name(), "scaleout_2048");
        assert!(all.get("fig10").is_some());
        assert!(all.get("fault_resilience").is_some());
        // The paper registry deliberately does NOT expose the scenarios.
        assert!(StudyRegistry::paper().get("fault_resilience").is_none());
    }

    #[test]
    fn grids_report_their_job_counts() {
        let registry = StudyRegistry::all();
        let quick = RunContext::new().quick(true);
        let full = RunContext::new();
        for study in registry.iter() {
            let grid = study.grid(&quick);
            assert!(grid.jobs() > 0, "{}", study.name());
            assert!(
                grid.jobs() <= study.grid(&full).jobs(),
                "{} quick grid must not exceed full",
                study.name()
            );
            // The streaming enumeration visits every point exactly once.
            let points: Vec<Vec<usize>> = grid.points().collect();
            assert_eq!(points.len(), grid.jobs());
            assert_eq!(points.first().unwrap(), &vec![0; grid.axes.len()]);
            let report = grid.lazy_sweep().run(&PoolConfig::serial(), |_, p| {
                Ok::<usize, std::convert::Infallible>(p.len())
            });
            assert_eq!(report.outcomes.len(), grid.jobs());
        }
    }

    #[test]
    fn run_jobs_checkpoints_and_resumes_bit_identically() {
        let path = temp_journal("resume");
        let _ = std::fs::remove_file(&path);
        let points: Vec<u64> = (0..12).collect();
        let job = |_: JobCtx, &n: &u64| Ok(n as f64 * 0.1 + 0.7);

        // Reference: uninterrupted, no checkpointing.
        let reference: Vec<f64> = RunContext::new()
            .with_pool(PoolConfig::serial())
            .run_jobs(points.clone(), job)
            .unwrap();

        // Interrupted run: fails after 5 jobs (serial pool → deterministic).
        let interrupted = RunContext::new()
            .with_pool(PoolConfig::serial())
            .with_checkpoint(&path);
        interrupted.resume_checkpoint(99).unwrap();
        let done = AtomicUsize::new(0);
        let result: SfResult<Vec<f64>> = interrupted.run_jobs(points.clone(), |ctx, n| {
            if done.fetch_add(1, Ordering::SeqCst) >= 5 {
                return Err(SfError::Simulation {
                    reason: "killed".into(),
                });
            }
            job(ctx, n)
        });
        assert!(result.is_err());
        assert!(path.exists(), "journal must survive the failed run");

        // Resumed run: restores the first 5 jobs, computes the rest.
        let resumed_ctx = RunContext::new()
            .with_pool(PoolConfig::serial())
            .with_checkpoint(&path);
        assert_eq!(resumed_ctx.resume_checkpoint(99).unwrap(), 5);
        let executed = AtomicUsize::new(0);
        let resumed: Vec<f64> = resumed_ctx
            .run_jobs(points.clone(), |ctx, n| {
                assert!(ctx.index >= 5, "restored job {} recomputed", ctx.index);
                executed.fetch_add(1, Ordering::SeqCst);
                job(ctx, n)
            })
            .unwrap();
        assert_eq!(executed.load(Ordering::SeqCst), points.len() - 5);
        assert_eq!(resumed, reference);
        resumed_ctx.journal().unwrap().finish().unwrap();
    }

    #[test]
    fn mismatched_fingerprint_starts_fresh() {
        let path = temp_journal("fingerprint");
        let _ = std::fs::remove_file(&path);
        let ctx = RunContext::new()
            .with_pool(PoolConfig::serial())
            .with_checkpoint(&path);
        ctx.resume_checkpoint(1).unwrap();
        let _rows: Vec<f64> = ctx
            .run_jobs(vec![1u64, 2, 3], |_, &n| Ok(n as f64))
            .unwrap();

        let other = RunContext::new()
            .with_pool(PoolConfig::serial())
            .with_checkpoint(&path);
        assert_eq!(other.resume_checkpoint(2).unwrap(), 0);
        other.journal().unwrap().finish().unwrap();
    }

    #[test]
    fn sweep_sequences_keep_multi_sweep_studies_apart() {
        let path = temp_journal("multi-sweep");
        let _ = std::fs::remove_file(&path);
        let ctx = RunContext::new()
            .with_pool(PoolConfig::serial())
            .with_checkpoint(&path);
        ctx.resume_checkpoint(7).unwrap();
        let a: Vec<f64> = ctx.run_jobs(vec![0u64, 1], |_, &n| Ok(n as f64)).unwrap();
        let b: Vec<f64> = ctx
            .run_jobs(vec![0u64, 1], |_, &n| Ok(n as f64 + 10.0))
            .unwrap();

        // A resumed context replays both sweeps from the journal without
        // running a single job.
        let resumed = RunContext::new()
            .with_pool(PoolConfig::serial())
            .with_checkpoint(&path);
        assert_eq!(resumed.resume_checkpoint(7).unwrap(), 4);
        let a2: Vec<f64> = resumed
            .run_jobs(vec![0u64, 1], |_, _| {
                panic!("first sweep should be fully restored")
            })
            .unwrap();
        let b2: Vec<f64> = resumed
            .run_jobs(vec![0u64, 1], |_, _| {
                panic!("second sweep should be fully restored")
            })
            .unwrap();
        assert_eq!(a2, a);
        assert_eq!(b2, b);
        resumed.journal().unwrap().finish().unwrap();
    }

    #[test]
    fn checkpoint_rows_round_trip_through_cells() {
        let hop = HopCountRow {
            kind: TopologyKind::StringFigure,
            nodes: 128,
            average_shortest_path: 3.25,
            average_routed_hops: 0.1 + 0.2,
            router_ports: 8,
        };
        assert_eq!(HopCountRow::from_cells(&hop.to_cells()).unwrap(), hop);

        let sat = SaturationRow {
            kind: TopologyKind::DistributedMesh,
            nodes: 64,
            pattern: SyntheticPattern::Tornado,
            saturation_percent: None,
        };
        assert_eq!(SaturationRow::from_cells(&sat.to_cells()).unwrap(), sat);

        let gate = PowerGateRow {
            gated_fraction: 0.3,
            gated_nodes: 19,
            energy_delay_product: 1.5e9,
            normalized_edp: 0.0,
            average_round_trip_cycles: 24.5,
        };
        assert_eq!(PowerGateRow::from_cells(&gate.to_cells()).unwrap(), gate);

        let bb = BisectionBandwidth {
            minimum: 50,
            average: 59.333,
            samples: 10,
        };
        assert_eq!(BisectionBandwidth::from_cells(&bb.to_cells()).unwrap(), bb);
        assert!(HopCountRow::from_cells(&[Value::Null]).is_none());

        let fault = FaultResilienceRow {
            kind: TopologyKind::StringFigure,
            nodes: 256,
            links_per_wave: 2,
            routers_per_wave: 1,
            link_down_events: 7,
            router_down_events: 3,
            injected: 12_345,
            completed_requests: 12_001,
            dropped_packets: 98,
            completion_ratio: 12_001.0 / 12_345.0,
            average_round_trip_cycles: 0.1 + 0.2,
        };
        assert_eq!(
            FaultResilienceRow::from_cells(&fault.to_cells()).unwrap(),
            fault
        );
        assert!(FaultResilienceRow::from_cells(&[Value::Null]).is_none());

        let adversarial = SaturationRow {
            kind: TopologyKind::StringFigure,
            nodes: 128,
            pattern: SyntheticPattern::HotspotStorm,
            saturation_percent: Some(20.0),
        };
        assert_eq!(
            SaturationRow::from_cells(&adversarial.to_cells()).unwrap(),
            adversarial
        );

        let mega = MegasweepRow {
            kind: TopologyKind::SpaceShuffle,
            nodes: 96,
            injection_rate: 0.315,
            seed: 149,
            average_latency_cycles: 0.1 + 0.2,
            accepted_throughput: 0.0425,
            saturated: true,
        };
        assert_eq!(MegasweepRow::from_cells(&mega.to_cells()).unwrap(), mega);
        assert!(MegasweepRow::from_cells(&[Value::Null]).is_none());
    }

    #[test]
    fn run_jobs_streaming_delivers_ordered_rows_without_collecting() {
        // The bounded-memory acceptance check at the study layer: a
        // 10^5+-point sweep runs through a sink that counts rows but never
        // stores them (no Vec<P> or Vec<R> of grid size anywhere).
        const POINTS: usize = 110_000;
        let ctx = RunContext::new().with_pool(PoolConfig::threads(4).with_chunk(64));
        let mut rows = 0usize;
        let mut last_index = None;
        let delivered = ctx
            .run_jobs_streaming(
                (0..POINTS).map(|i| i as u64),
                |_, &n| Ok(n as f64 * 0.5),
                |index, row| {
                    assert_eq!(
                        Some(index),
                        last_index.map_or(Some(0), |i: usize| Some(i + 1))
                    );
                    assert!((row - index as f64 * 0.5).abs() < 1e-12);
                    last_index = Some(index);
                    rows += 1;
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(delivered, POINTS);
        assert_eq!(rows, POINTS);
    }

    #[test]
    fn streaming_sink_errors_abort_the_run() {
        let ctx = RunContext::new().with_pool(PoolConfig::serial());
        let result = ctx.run_jobs_streaming(
            vec![1u64, 2, 3],
            |_, &n| Ok(n as f64),
            |index, _row| {
                if index == 1 {
                    Err(SfError::Simulation {
                        reason: "sink full".into(),
                    })
                } else {
                    Ok(())
                }
            },
        );
        match result {
            Err(SfError::Simulation { reason }) => assert_eq!(reason, "sink full"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn megasweep_streams_rows_and_resumes_bit_identically() {
        let pid = std::process::id();
        let dir = std::env::temp_dir();
        let clean_csv = dir.join(format!("sf-megasweep-clean-{pid}.csv"));
        let resumed_csv = dir.join(format!("sf-megasweep-resumed-{pid}.csv"));
        let journal = dir.join(format!("sf-megasweep-{pid}.journal"));
        for p in [&clean_csv, &resumed_csv, &journal] {
            let _ = std::fs::remove_file(p);
        }
        let registry = StudyRegistry::extended();
        let study = registry.get("megasweep").unwrap();
        assert!(study.streams_rows());

        // Reference: uninterrupted streaming run.
        let clean_ctx = RunContext::new()
            .quick(true)
            .with_pool(PoolConfig::serial())
            .with_csv(&clean_csv);
        let summary = execute(study, &clean_ctx).unwrap();
        // The returned table is the per-design summary, NOT the row stream:
        // the CSV has one line per sweep point (plus header).
        let clean = std::fs::read_to_string(&clean_csv).unwrap();
        assert_eq!(clean.lines().count(), study.grid(&clean_ctx).jobs() + 1);
        assert_eq!(summary.len(), 2, "one summary row per quick design");

        // Interrupted run with a tiny journal cap: dies mid-sweep, leaving a
        // (compacted) journal and no finished artifact.
        let first = RunContext::new()
            .quick(true)
            .with_pool(PoolConfig::serial())
            .with_csv(&resumed_csv)
            .with_checkpoint(&journal)
            .with_max_journal_bytes(160);
        first
            .resume_checkpoint(study_fingerprint(study, &first))
            .unwrap();
        let killed = AtomicUsize::new(0);
        let result = first.run_jobs_streaming(
            vec![0usize; study.grid(&first).jobs()],
            |jctx, _| {
                if killed.fetch_add(1, Ordering::SeqCst) >= 7 {
                    return Err(SfError::Simulation {
                        reason: "killed".into(),
                    });
                }
                // Mirror the megasweep job exactly so the journal entries
                // it leaves behind are valid for the real resumed run.
                let (kinds, sizes, rates, seeds, scale) = Megasweep::params(&first);
                let per_kind = sizes.len() * rates.len() * seeds as usize;
                let kind = kinds[jctx.index / per_kind];
                let rest = jctx.index % per_kind;
                let nodes = sizes[rest / (rates.len() * seeds as usize)];
                let rest = rest % (rates.len() * seeds as usize);
                let rate = rates[rest / seeds as usize];
                let seed = (rest % seeds as usize) as u64;
                let instance = first.instance(kind, nodes, seed + 1).unwrap();
                let stats = crate::experiments::run_pattern_on(
                    &instance,
                    SyntheticPattern::UniformRandom,
                    rate,
                    scale,
                    seed,
                )
                .unwrap();
                let measured = (scale.max_cycles - scale.warmup_cycles).max(1);
                Ok(MegasweepRow {
                    kind,
                    nodes,
                    injection_rate: rate,
                    seed,
                    average_latency_cycles: stats.average_latency_cycles(),
                    accepted_throughput: stats.accepted_throughput(measured),
                    saturated: stats.is_saturated(),
                })
            },
            |_, _| Ok(()),
        );
        assert!(result.is_err());
        assert!(journal.exists(), "journal must survive the killed run");
        assert!(
            first.journal().unwrap().compactions() >= 1,
            "the tiny cap must have forced a compaction mid-run"
        );
        assert!(
            !resumed_csv.exists(),
            "no artifact may appear before a run finishes"
        );

        // Resume through the real execute path: restores the journalled
        // jobs (from a compacted snapshot), computes the rest, and the CSV
        // bytes must equal the uninterrupted run's.
        let resumed_ctx = RunContext::new()
            .quick(true)
            .with_pool(PoolConfig::threads(3).with_chunk(2))
            .with_csv(&resumed_csv)
            .with_checkpoint(&journal)
            .with_max_journal_bytes(160);
        let resumed_summary = execute(study, &resumed_ctx).unwrap();
        assert_eq!(resumed_summary, summary);
        assert_eq!(std::fs::read_to_string(&resumed_csv).unwrap(), clean);
        assert!(!journal.exists(), "journal must be removed after success");
        for p in [&clean_csv, &resumed_csv] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn fingerprint_separates_studies_and_scales() {
        let registry = StudyRegistry::paper();
        let fig05 = registry.get("fig05").unwrap();
        let fig10 = registry.get("fig10").unwrap();
        let quick = RunContext::new().quick(true);
        let full = RunContext::new();
        assert_ne!(
            study_fingerprint(fig05, &quick),
            study_fingerprint(fig10, &quick)
        );
        assert_ne!(
            study_fingerprint(fig05, &quick),
            study_fingerprint(fig05, &full)
        );
        // Pinned values: a journal is only resumed when its fingerprint
        // matches, so a refactor that hashed different parts would silently
        // discard every existing journal.
        let scaled = RunContext::new().quick(true).with_scale(ExperimentScale {
            max_cycles: 900,
            warmup_cycles: 100,
            shards: 0,
            telemetry_every: 0,
        });
        assert_eq!(study_fingerprint(fig10, &quick), 0xf8a6_4e55_9cfc_0d25);
        assert_eq!(study_fingerprint(fig10, &full), 0x6b99_f4b9_cafd_5185);
        assert_eq!(study_fingerprint(fig10, &scaled), 0xdb04_2cc6_5f24_d526);
    }

    #[test]
    fn execute_emits_and_removes_the_journal() {
        let dir = std::env::temp_dir();
        let csv = dir.join(format!("sf-study-exec-{}.csv", std::process::id()));
        let journal = dir.join(format!("sf-study-exec-{}.csv.journal", std::process::id()));
        let _ = std::fs::remove_file(&csv);
        let _ = std::fs::remove_file(&journal);
        let registry = StudyRegistry::paper();
        let study = registry.get("fig08").unwrap();
        let ctx = RunContext::new()
            .with_pool(PoolConfig::serial())
            .quick(true)
            .with_csv(&csv)
            .with_checkpoint(&journal);
        let table = execute(study, &ctx).unwrap();
        assert_eq!(table.len(), 3 * TopologyKind::ALL.len());
        let written = std::fs::read_to_string(&csv).unwrap();
        assert_eq!(written, table.to_csv());
        assert!(!journal.exists(), "journal must be removed after success");
        std::fs::remove_file(&csv).unwrap();
    }

    #[test]
    fn render_helpers_format_cells() {
        assert_eq!(fmt_f(1.23456), "1.235");
        assert_eq!(fmt_percent(Some(62.0)), "62%");
        assert_eq!(fmt_percent(None), "saturated");
        assert_eq!(render_cell(&Value::Float(2.0)), "2.000");
        assert_eq!(render_cell(&Value::Null), "-");
        assert_eq!(render_cell(&Value::Str("SF".into())), "SF");
        print_result_table(&Table::with_columns(&["a"]));
    }
}
