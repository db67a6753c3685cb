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
//! * its own topology [`BuildCache`], shared by every job of the run,
//! * the [`ExperimentScale`] policy (quick vs. paper scale),
//! * the artifact emitters (CSV / JSON paths),
//! * an optional telemetry stream, recorded job by job, and
//! * an optional **checkpoint journal**: every completed sweep job is
//!   appended to `<csv>.journal`, so an interrupted run restarted with the
//!   same command restores finished jobs instead of recomputing them — and
//!   the final artifact is **byte-identical** to an uninterrupted run (job
//!   results round-trip exactly through the journal).
//!
//! Every study runs one path: [`RunContext::run_jobs`] hands its points to
//! [`sf_harness::sweep::run`] (ordered delivery, per-job panic isolation,
//! cancel on the first error), restores or journals each job, and
//! [`execute`] publishes the study's [`Table`] through
//! [`RunContext::emit`].
//!
//! Beyond the paper, [`StudyRegistry::extended`] groups the scenario
//! studies (fault injection, adversarial traffic, scale-out past 1296
//! nodes) that the same trait machinery makes additive; the `sfbench` CLI
//! in `sf-bench` is a thin multiplexer over [`StudyRegistry::all`] (paper
//! plus extended), and each study's aliases keep the old per-figure names
//! working (`sfbench run fig10_saturation`).

use crate::comparison::{NetworkInstance, TopologyKind};
use crate::experiments::{
    adversarial_saturation_study_with_ctx, bisection_study_with_ctx, configuration_table_with_ctx,
    fault_resilience_study_with_ctx, hop_count_study_with_ctx, latency_curve_with_ctx,
    power_gating_study_with_ctx, saturation_study_with_ctx, scaleout_study_with_ctx,
    surg_path_length_study_with_ctx, workload_study_with_ctx, Cell, ExperimentScale, LatencyPoint,
    PowerGateRow,
};
use sf_harness::journal::{self, Journal};
use sf_harness::pool::PoolConfig;
use sf_harness::sink::{self, Format};
use sf_harness::sweep::{self, SweepError};
use sf_harness::table::{Record, Table, Value};
use sf_harness::BuildCache;
use sf_obs::telemetry::StreamWriter;
use sf_topology::analysis::BisectionBandwidth;
use sf_types::{SfError, SfResult};
use sf_workloads::{ApplicationModel, SyntheticPattern};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Checkpointable job results
// ---------------------------------------------------------------------------

/// A sweep-job result that can round-trip through the checkpoint journal.
///
/// `from_cells(to_cells(r)) == Some(r)` must hold **exactly** (floats are
/// journalled with shortest-roundtrip formatting), which is what makes a
/// resumed run's artifact byte-identical to an uninterrupted one. Result
/// rows get this impl from their `row!` declaration in
/// [`crate::experiments`]; only job results that are not rows implement it
/// by hand.
pub trait CheckpointRow: Sized {
    /// Encodes this result as journal cells.
    fn to_cells(&self) -> Vec<Value>;
    /// Decodes a result previously encoded with [`to_cells`](Self::to_cells).
    fn from_cells(cells: &[Value]) -> Option<Self>;
}

impl CheckpointRow for f64 {
    fn to_cells(&self) -> Vec<Value> {
        vec![self.to_cell()]
    }
    fn from_cells(cells: &[Value]) -> Option<Self> {
        match cells {
            [cell] => Self::from_cell(cell),
            _ => None,
        }
    }
}

impl CheckpointRow for BisectionBandwidth {
    fn to_cells(&self) -> Vec<Value> {
        vec![
            self.minimum.to_cell(),
            self.average.to_cell(),
            self.samples.to_cell(),
        ]
    }
    fn from_cells(cells: &[Value]) -> Option<Self> {
        let [minimum, average, samples] = cells else {
            return None;
        };
        Some(Self {
            minimum: Cell::from_cell(minimum)?,
            average: Cell::from_cell(average)?,
            samples: Cell::from_cell(samples)?,
        })
    }
}

// ---------------------------------------------------------------------------
// RunContext
// ---------------------------------------------------------------------------

/// The build-once topology cache the jobs of a run share: `(design, nodes,
/// seed)` → generated [`NetworkInstance`].
pub type TopologyCache = BuildCache<(TopologyKind, usize, u64), NetworkInstance>;

/// Everything a study runs inside: worker pool, topology cache, scale
/// policy, artifact emitters, telemetry stream, and the optional checkpoint
/// journal.
///
/// Nothing a run records is shared with another context: two contexts in
/// one process — even running at the same time — build their own
/// topologies and write their own streams.
///
/// Built builder-style:
///
/// ```
/// use sf_harness::pool::PoolConfig;
/// use stringfigure::study::RunContext;
///
/// let ctx = RunContext::new()
///     .with_pool(PoolConfig::serial())
///     .quick(true);
/// assert!(ctx.is_quick());
/// ```
#[derive(Debug)]
pub struct RunContext {
    pool: PoolConfig,
    quick: bool,
    cache: Arc<TopologyCache>,
    emitters: Vec<(Format, PathBuf)>,
    checkpoint_path: Option<PathBuf>,
    telemetry: Option<PathBuf>,
    telemetry_every: Option<u64>,
    /// The stream [`execute`] opened at `telemetry`; jobs record into it
    /// only while it is open and recording.
    telemetry_stream: Mutex<Option<StreamWriter>>,
    journal: OnceLock<Journal>,
    sweep_seq: AtomicU64,
}

impl Default for RunContext {
    fn default() -> Self {
        Self::new()
    }
}

impl RunContext {
    /// A context with the default worker pool, full (paper) scale, an empty
    /// topology cache, no emitters, no telemetry and no checkpointing.
    #[must_use]
    pub fn new() -> Self {
        Self {
            pool: PoolConfig::auto(),
            quick: false,
            cache: Arc::new(TopologyCache::new()),
            emitters: Vec::new(),
            checkpoint_path: None,
            telemetry: None,
            telemetry_every: None,
            telemetry_stream: Mutex::new(None),
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

    /// Replaces this context's own (initially empty) topology cache with
    /// `cache`, e.g. one the caller filled beforehand so the run finds its
    /// topologies already built.
    #[must_use]
    pub fn with_build_cache(mut self, cache: Arc<TopologyCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Adds a CSV emitter for the study's result table.
    #[must_use]
    pub fn with_csv(mut self, path: impl Into<PathBuf>) -> Self {
        self.emitters.push((Format::Csv, path.into()));
        self
    }

    /// Adds a JSON emitter for the study's result table.
    #[must_use]
    pub fn with_json(mut self, path: impl Into<PathBuf>) -> Self {
        self.emitters.push((Format::Json, path.into()));
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

    /// Records an `sf-telemetry/v1` stream of every simulation the sweep
    /// jobs of an [`execute`] run at `path` (written via the atomic
    /// `.part`-rename pattern). Telemetry is strictly out-of-band — result
    /// artifacts are byte-identical with it on or off — and the stream
    /// itself is, like every other artifact, bit-identical for any worker
    /// count. Like the worker count it is excluded from the resume
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

    /// Resolves the simulation scale a study should run at: quick or the
    /// study's own `full` scale.
    #[must_use]
    pub fn scale(&self, full: ExperimentScale) -> ExperimentScale {
        if self.quick {
            ExperimentScale::quick()
        } else {
            full
        }
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
        self.cache.get_or_build((kind, nodes, seed), || {
            NetworkInstance::build(kind, nodes, seed)
        })
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
        let journal = Journal::open(path, fingerprint).map_err(|e| SfError::Simulation {
            reason: format!("cannot open checkpoint journal {}: {e}", path.display()),
        })?;
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

    /// Runs `job` over every point through the worker pool and returns the
    /// rows in enumeration order — **the** single execution path every
    /// study driver uses, over [`sf_harness::sweep::run`].
    ///
    /// With a checkpoint journal open, jobs completed by a previous
    /// interrupted run are restored from the journal instead of recomputed,
    /// and every newly completed job is journalled (and flushed) before its
    /// row is delivered — which is what makes `kill -9` at any point
    /// resumable with bit-identical final output.
    ///
    /// With a telemetry stream open, each computed job runs inside a
    /// [`sf_obs::telemetry::capture`]; its blocks travel with its row and
    /// are appended to the stream as the row is delivered, so the stream's
    /// block order is the job order for any worker count.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed job error (panics inside a job surface as
    /// [`SfError::Simulation`] tagged with the job index). The first error
    /// cancels the sweep: no further points are started.
    pub fn run_jobs<P, R, F>(&self, points: Vec<P>, job: F) -> SfResult<Vec<R>>
    where
        P: Send,
        R: CheckpointRow + Send,
        F: Fn(P) -> SfResult<R> + Sync,
    {
        let seq = self.sweep_seq.fetch_add(1, Ordering::Relaxed);
        let journal = self.journal.get();
        let progress = sf_obs::progress::Progress::global();
        progress.start_sweep(points.len());
        let mut rows = Vec::with_capacity(points.len());
        let result = sweep::run(
            &self.pool,
            points,
            |index, point| {
                let restored = journal.and_then(|j| j.restored(seq, index as u64));
                if let Some(row) = restored.and_then(R::from_cells) {
                    return Ok((row, Vec::new()));
                }
                let (row, blocks) = match self.recording_stride() {
                    Some(every) => sf_obs::telemetry::capture(every, || job(point)),
                    None => (job(point), Vec::new()),
                };
                let row = row?;
                if let Some(journal) = journal {
                    journal
                        .record(seq, index as u64, &row.to_cells())
                        .map_err(|e| SfError::Simulation {
                            reason: format!("checkpoint journal write failed: {e}"),
                        })?;
                }
                Ok((row, blocks))
            },
            |_, (row, blocks)| {
                rows.push(row);
                // Rows arrive in enumeration order, so appending each job's
                // blocks here pins the stream's block order to the job
                // order.
                if let Some(stream) = self.stream().as_mut() {
                    for block in &blocks {
                        stream.append(block);
                    }
                }
                progress.tick(1, 1);
            },
        );
        progress.finish_sweep();
        match result {
            Ok(()) => Ok(rows),
            Err((_, SweepError::Job(e))) => Err(e),
            Err((index, SweepError::Panic(message))) => Err(SfError::Simulation {
                reason: format!("experiment job {index} panicked: {message}"),
            }),
        }
    }

    fn stream(&self) -> std::sync::MutexGuard<'_, Option<StreamWriter>> {
        self.telemetry_stream
            .lock()
            .expect("telemetry stream poisoned")
    }

    /// The stride a job records telemetry at: `Some` while the stream
    /// [`execute`] opened is still recording.
    fn recording_stride(&self) -> Option<u64> {
        let recording = self
            .stream()
            .as_ref()
            .is_some_and(StreamWriter::is_recording);
        recording.then(|| self.telemetry_every())
    }

    /// Publishes `table` through every configured emitter, each artifact
    /// atomically (written to `<path>.part`, then renamed into place).
    ///
    /// # Errors
    ///
    /// Surfaces filesystem failures as [`SfError::Simulation`].
    pub fn emit(&self, table: &Table) -> SfResult<()> {
        for (format, path) in &self.emitters {
            sink::publish(path, table, *format).map_err(|e| SfError::Simulation {
                reason: format!("cannot write artifact {}: {e}", path.display()),
            })?;
            sf_obs::progress::Progress::global().note(&format!(
                "# wrote {} ({} rows)",
                path.display(),
                table.len()
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Study trait and grid description
// ---------------------------------------------------------------------------

/// The parameter grid a study will sweep at a given scale: named axes and
/// their point counts, outermost axis first.
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

    /// Prints any extra derived tables the old binary showed on stdout
    /// (normalised figures, feature matrices). Default: nothing.
    fn print_extras(&self, table: &Table) {
        let _ = table;
    }
}

/// The checkpoint fingerprint of running `study` in `ctx`: identifies the
/// study and everything that changes its grid or rows, while deliberately
/// excluding the worker count (which never changes output bytes), so a
/// resume may use different parallelism than the interrupted run.
#[must_use]
pub fn study_fingerprint(study: &dyn Study, ctx: &RunContext) -> u64 {
    journal::fingerprint([study.name(), if ctx.is_quick() { "quick" } else { "full" }])
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
        let stream = StreamWriter::create(path).map_err(|e| SfError::Simulation {
            reason: format!("cannot open telemetry stream {}: {e}", path.display()),
        })?;
        *ctx.stream() = Some(stream);
    }
    let result = execute_inner(study, ctx);
    // Taking the stream out closes it; dropping it unpublished (on failure)
    // removes its .part.
    let stream = ctx.stream().take();
    if let (Ok(_), Some(stream)) = (&result, stream) {
        let published = stream.finish().map_err(|e| SfError::Simulation {
            reason: format!("cannot write telemetry stream: {e}"),
        })?;
        if let Some((path, blocks)) = published {
            progress.note(&format!(
                "# wrote {} ({blocks} telemetry block(s))",
                path.display()
            ));
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
    ctx.emit(&table)?;
    if let Some(journal) = ctx.journal() {
        // Journal health — reported before the (successful) run deletes it.
        progress.note(&format!(
            "# journal {}: {} byte(s), {} job(s) restored",
            journal.path().display(),
            journal.len_bytes(),
            journal.restored_count(),
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
            .and_then(|row| f64::from_cell(&row[col]))
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
                "scaleout_2048"
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
        }
    }

    #[test]
    fn run_jobs_checkpoints_and_resumes_bit_identically() {
        let path = temp_journal("resume");
        let _ = std::fs::remove_file(&path);
        let points: Vec<u64> = (0..12).collect();
        let job = |n: u64| Ok(n as f64 * 0.1 + 0.7);

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
        let result: SfResult<Vec<f64>> = interrupted.run_jobs(points.clone(), |n| {
            if done.fetch_add(1, Ordering::SeqCst) >= 5 {
                return Err(SfError::Simulation {
                    reason: "killed".into(),
                });
            }
            job(n)
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
            .run_jobs(points.clone(), |n| {
                assert!(n >= 5, "restored job {n} recomputed");
                executed.fetch_add(1, Ordering::SeqCst);
                job(n)
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
        let _rows: Vec<f64> = ctx.run_jobs(vec![1u64, 2, 3], |n| Ok(n as f64)).unwrap();

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
        let a: Vec<f64> = ctx.run_jobs(vec![0u64, 1], |n| Ok(n as f64)).unwrap();
        let b: Vec<f64> = ctx
            .run_jobs(vec![0u64, 1], |n| Ok(n as f64 + 10.0))
            .unwrap();

        // A resumed context replays both sweeps from the journal without
        // running a single job.
        let resumed = RunContext::new()
            .with_pool(PoolConfig::serial())
            .with_checkpoint(&path);
        assert_eq!(resumed.resume_checkpoint(7).unwrap(), 4);
        let a2: Vec<f64> = resumed
            .run_jobs(vec![0u64, 1], |_| -> SfResult<f64> {
                panic!("first sweep should be fully restored")
            })
            .unwrap();
        let b2: Vec<f64> = resumed
            .run_jobs(vec![0u64, 1], |_| -> SfResult<f64> {
                panic!("second sweep should be fully restored")
            })
            .unwrap();
        assert_eq!(a2, a);
        assert_eq!(b2, b);
        resumed.journal().unwrap().finish().unwrap();
    }

    /// Encodes `row`, demands the exact row back, and checks the decode
    /// refuses a cell too many, a cell too few and a wrong-typed cell.
    fn assert_round_trip<R: CheckpointRow + PartialEq + std::fmt::Debug>(row: &R) {
        let cells = row.to_cells();
        assert_eq!(R::from_cells(&cells).as_ref(), Some(row));
        let mut longer = cells.clone();
        longer.push(Value::Null);
        assert!(R::from_cells(&longer).is_none(), "{row:?}: extra cell");
        assert!(
            R::from_cells(&cells[..cells.len() - 1]).is_none(),
            "{row:?}: missing cell"
        );
        let mut wrong = cells;
        wrong[0] = Value::Bool(true);
        assert!(R::from_cells(&wrong).is_none(), "{row:?}: wrong type");
    }

    #[test]
    fn checkpoint_rows_round_trip_through_cells() {
        use crate::experiments::{
            BisectionRow, ConfigurationRow, FaultResilienceRow, HopCountRow, SaturationRow,
            SurgRow, WorkloadRow,
        };
        // 0.1 + 0.2 is the float whose shortest round-trip text has 17
        // significant digits.
        let odd = 0.1 + 0.2;
        assert_round_trip(&SurgRow {
            nodes: 400,
            jellyfish: odd,
            s2: 3.25,
            string_figure: 1.0 / 3.0,
        });
        assert_round_trip(&HopCountRow {
            kind: TopologyKind::StringFigure,
            nodes: 128,
            average_shortest_path: 3.25,
            average_routed_hops: odd,
            router_ports: 8,
        });
        for saturation_percent in [None, Some(20.0)] {
            assert_round_trip(&SaturationRow {
                kind: TopologyKind::DistributedMesh,
                nodes: 64,
                pattern: SyntheticPattern::HotspotStorm,
                saturation_percent,
            });
        }
        assert_round_trip(&LatencyPoint {
            injection_rate: 0.05,
            average_latency_cycles: odd,
            accepted_throughput: 0.0425,
            saturated: true,
        });
        assert_round_trip(&WorkloadRow {
            kind: TopologyKind::AdaptedFlattenedButterfly,
            workload: ApplicationModel::Redis,
            requests_per_cycle: odd,
            average_round_trip_cycles: 24.5,
            energy_per_request_pj: 1.5e9,
            total_energy_pj: 0.0,
        });
        assert_round_trip(&PowerGateRow {
            gated_fraction: 0.3,
            gated_nodes: 19,
            energy_delay_product: 1.5e9,
            normalized_edp: odd,
            average_round_trip_cycles: 24.5,
        });
        assert_round_trip(&BisectionRow {
            kind: TopologyKind::Jellyfish,
            nodes: 64,
            minimum: 50,
            average: odd,
        });
        assert_round_trip(&ConfigurationRow {
            kind: TopologyKind::FlattenedButterfly,
            nodes: 1296,
            router_ports: 70,
            links: 45_360,
            requires_high_radix: true,
            supports_reconfiguration: false,
        });
        assert_round_trip(&FaultResilienceRow {
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
            average_round_trip_cycles: odd,
        });
        // The two job results that are not rows keep hand-written impls.
        assert_round_trip(&BisectionBandwidth {
            minimum: 50,
            average: 59.333,
            samples: 10,
        });
        assert_eq!(f64::from_cells(&odd.to_cells()), Some(odd));
        assert!(f64::from_cells(&[]).is_none());
        assert!(f64::from_cells(&[Value::UInt(1)]).is_none());
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
        assert_eq!(study_fingerprint(fig10, &quick), 0xf8a6_4e55_9cfc_0d25);
        assert_eq!(study_fingerprint(fig10, &full), 0x6b99_f4b9_cafd_5185);
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

    /// A study whose first two jobs simulate (and so record telemetry) and
    /// whose third fails, noting whether the stream's `.part` was open.
    struct FailsAfterRecording {
        part: PathBuf,
        part_open: std::sync::atomic::AtomicBool,
    }

    impl Study for FailsAfterRecording {
        fn name(&self) -> &'static str {
            "fails_after_recording"
        }
        fn artefact(&self) -> &'static str {
            "test"
        }
        fn description(&self) -> &'static str {
            "two simulations, then a failing job"
        }
        fn driver(&self) -> &'static str {
            "run_pattern_on"
        }
        fn grid(&self, _: &RunContext) -> StudyGrid {
            StudyGrid::new(vec![("job", 3)])
        }
        fn run(&self, ctx: &RunContext) -> SfResult<Table> {
            let rows: Vec<f64> = ctx.run_jobs(vec![0u64, 1, 2], |n| {
                if n == 2 {
                    self.part_open.store(self.part.exists(), Ordering::SeqCst);
                    return Err(SfError::Simulation {
                        reason: "job 2 failed".into(),
                    });
                }
                let instance = ctx.instance(TopologyKind::StringFigure, 16, 3)?;
                let stats = crate::experiments::run_pattern_on(
                    &instance,
                    SyntheticPattern::UniformRandom,
                    0.1,
                    ExperimentScale::quick(),
                    n,
                )?;
                Ok(stats.delivered as f64)
            })?;
            let mut table = Table::with_columns(&["delivered"]);
            for row in rows {
                table.push_row(vec![row.into()]);
            }
            Ok(table)
        }
    }

    #[test]
    fn failed_telemetry_run_publishes_nothing() {
        let dir = std::env::temp_dir();
        let stream = dir.join(format!("sf-study-failed-{}.bin", std::process::id()));
        let part = dir.join(format!("sf-study-failed-{}.bin.part", std::process::id()));
        let study = FailsAfterRecording {
            part: part.clone(),
            part_open: std::sync::atomic::AtomicBool::new(false),
        };
        let ctx = RunContext::new()
            .with_pool(PoolConfig::serial())
            .with_telemetry(&stream);
        let error = execute(&study, &ctx).unwrap_err();
        assert!(error.to_string().contains("job 2 failed"), "{error}");
        assert!(
            study.part_open.load(Ordering::SeqCst),
            "the stream was not open while the jobs ran"
        );
        assert!(!stream.exists(), "a failed run published its stream");
        assert!(!part.exists(), "a failed run left its .part behind");
    }

    #[test]
    fn render_helpers_format_cells() {
        assert_eq!(fmt_f(1.23456), "1.235");
        assert_eq!(render_cell(&Value::Float(2.0)), "2.000");
        assert_eq!(render_cell(&Value::Null), "-");
        assert_eq!(render_cell(&Value::Str("SF".into())), "SF");
        print_result_table(&Table::with_columns(&["a"]));
    }
}
