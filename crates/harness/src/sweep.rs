//! Sweep enumeration: experiment points as independent, indexed jobs.
//!
//! A [`Sweep`] owns an eagerly enumerated list of points (e.g. topology kind
//! × node count × seed × injection rate × traffic pattern). Running it maps a
//! closure over every point; each invocation receives a [`JobCtx`] carrying
//! the job's index and a seed derived *from that index* via [`derive_seed`],
//! never from execution order or a shared RNG. That derivation is the
//! determinism contract: the result set of a sweep is a pure function of
//! (points, base seed, closure), independent of the worker count.
//!
//! [`LazySweep`] is the streaming variant: points come from an iterator and
//! are materialised one chunk at a time, so a design-space exploration over
//! millions of points never holds the whole grid in memory. Indices are
//! assigned in iterator order behind a lock, so the same determinism contract
//! holds — a lazy run is bit-identical to the eager run over the collected
//! points, for any worker count.

use crate::pool::{panic_message, run_stream_emit, PoolConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Derives the RNG seed for job `index` of a sweep with base seed `base`.
///
/// A splitmix64 finalizer mixes the two values so neighbouring indices get
/// statistically unrelated seeds while the mapping stays a pure function.
#[must_use]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-job context handed to the sweep closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCtx {
    /// Position of this job in the sweep's enumeration order.
    pub index: usize,
    /// Seed derived from the sweep's base seed and this job's index.
    pub seed: u64,
}

/// The outcome of one job: its point index plus result, error, or panic.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome<R, E> {
    /// Position of the job in the sweep.
    pub index: usize,
    /// `Ok(row)` on success, `Err` when the closure returned an error or
    /// panicked.
    pub result: Result<R, SweepError<E>>,
}

/// Why a job failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError<E> {
    /// The job closure returned an error.
    Job(E),
    /// The job panicked; carries the panic message.
    Panic(String),
}

impl<E: std::fmt::Display> std::fmt::Display for SweepError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Job(e) => write!(f, "{e}"),
            Self::Panic(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for SweepError<E> {}

/// A fully enumerated parameter sweep.
#[derive(Debug, Clone)]
pub struct Sweep<P> {
    points: Vec<P>,
    base_seed: u64,
}

impl<P: Sync> Sweep<P> {
    /// A sweep over the given points with base seed 0.
    #[must_use]
    pub fn new(points: Vec<P>) -> Self {
        Self {
            points,
            base_seed: 0,
        }
    }

    /// Sets the base seed mixed into every job's derived seed.
    #[must_use]
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Number of points in the sweep.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The enumerated points, in order.
    #[must_use]
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// Runs `job` over every point on the given pool.
    ///
    /// The report's outcomes are ordered by point index; with the same points
    /// and base seed, any worker count produces the identical report.
    ///
    /// Execution delegates to the streaming engine ([`LazySweep`]) over the
    /// materialised points, so there is exactly one sweep scheduler to keep
    /// correct — eager and lazy sweeps are the same machine.
    pub fn run<R, E, F>(&self, config: &PoolConfig, job: F) -> SweepReport<R, E>
    where
        R: Send,
        E: Send,
        F: Fn(JobCtx, &P) -> Result<R, E> + Sync,
    {
        LazySweep::new(self.points.iter())
            .with_base_seed(self.base_seed)
            .run(config, |ctx, point| job(ctx, point))
    }
}

/// All job outcomes of one sweep run, in enumeration order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport<R, E> {
    /// One outcome per sweep point, ordered by index.
    pub outcomes: Vec<JobOutcome<R, E>>,
}

impl<R, E> SweepReport<R, E> {
    /// Number of jobs that produced a row.
    #[must_use]
    pub fn succeeded(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// Number of jobs that failed or panicked.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.succeeded()
    }

    /// All rows in sweep order, or the first failure (by index).
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed job error or panic.
    pub fn into_results(self) -> Result<Vec<R>, SweepError<E>> {
        self.outcomes.into_iter().map(|o| o.result).collect()
    }

    /// The successful rows in sweep order, discarding failures.
    #[must_use]
    pub fn successes(self) -> Vec<R> {
        self.outcomes
            .into_iter()
            .filter_map(|o| o.result.ok())
            .collect()
    }
}

/// A streaming parameter sweep: points come from an iterator and are pulled
/// one chunk at a time instead of being materialised up front.
///
/// This is the first step towards sharded mega-sweeps — a cross product over
/// millions of points costs `O(chunk)` memory per worker, not `O(points)`.
/// Job `i` always receives the `i`-th iterator item and the seed
/// [`derive_seed`]`(base, i)`, so the report is bit-identical to running the
/// eager [`Sweep`] over `points.collect()` with the same base seed, for any
/// worker count.
///
/// # Examples
///
/// ```
/// use sf_harness::pool::PoolConfig;
/// use sf_harness::sweep::{cross2_lazy, LazySweep};
///
/// let points = cross2_lazy(vec![1u64, 2, 3], vec![10u64, 20]);
/// let report = LazySweep::new(points).run(&PoolConfig::threads(4), |_, &(a, b)| {
///     Ok::<u64, std::convert::Infallible>(a * b)
/// });
/// let rows = report.into_results().unwrap();
/// assert_eq!(rows, vec![10, 20, 20, 40, 30, 60]);
/// ```
#[derive(Debug)]
pub struct LazySweep<I> {
    points: I,
    base_seed: u64,
}

impl<P, I> LazySweep<I>
where
    I: Iterator<Item = P>,
    P: Send,
{
    /// A lazy sweep over the given point stream with base seed 0.
    #[must_use]
    pub fn new(points: I) -> Self {
        Self {
            points,
            base_seed: 0,
        }
    }

    /// Sets the base seed mixed into every job's derived seed.
    #[must_use]
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Runs `job` over every streamed point on the given pool, delivering
    /// each [`JobOutcome`] to `on_result` **in index order** — the primary
    /// engine of the bounded-memory run pipeline.
    ///
    /// Workers pull `(index, point)` chunks from the shared iterator under a
    /// lock; which worker pulls a chunk never changes which index a point
    /// gets, so the outcome stream is independent of the worker count. A
    /// completed outcome is buffered only while a smaller index is still in
    /// flight (with backpressure on the buffer), so a million-point sweep
    /// whose sink does not store rows peaks at `O(workers × chunk)` memory —
    /// never `O(points)`. Returns the number of outcomes delivered.
    ///
    /// `on_result` returning `false` **cancels** the sweep: no further
    /// points are pulled from the iterator, in-flight chunks finish but
    /// their outcomes are discarded — so a mega-sweep whose sink fails
    /// stops within `O(workers × chunk)` jobs instead of running the rest
    /// of the grid.
    ///
    /// Scheduling (and the worker reservation against the shared core
    /// budget) is the pool's `run_stream_emit` engine — the same machine
    /// `run_indexed` and the eager [`Sweep`] use.
    pub fn run_streaming<R, E, F, S>(self, config: &PoolConfig, job: F, mut on_result: S) -> usize
    where
        R: Send,
        E: Send,
        I: Send,
        F: Fn(JobCtx, &P) -> Result<R, E> + Sync,
        S: FnMut(JobOutcome<R, E>) -> bool + Send,
    {
        let base_seed = self.base_seed;
        let mut delivered = 0usize;
        run_stream_emit(
            config,
            self.points,
            |index, point| {
                let ctx = JobCtx {
                    index,
                    seed: derive_seed(base_seed, index as u64),
                };
                let result = match catch_unwind(AssertUnwindSafe(|| job(ctx, &point))) {
                    Ok(Ok(row)) => Ok(row),
                    Ok(Err(e)) => Err(SweepError::Job(e)),
                    Err(payload) => Err(SweepError::Panic(panic_message(payload.as_ref()))),
                };
                JobOutcome { index, result }
            },
            |_, outcome| {
                delivered += 1;
                on_result(outcome)
            },
        );
        delivered
    }

    /// Runs `job` over every streamed point and collects the full report —
    /// [`run_streaming`](Self::run_streaming) with a collecting,
    /// never-cancelling sink, for sweeps small enough to hold their
    /// outcomes.
    pub fn run<R, E, F>(self, config: &PoolConfig, job: F) -> SweepReport<R, E>
    where
        R: Send,
        E: Send,
        I: Send,
        F: Fn(JobCtx, &P) -> Result<R, E> + Sync,
    {
        let mut outcomes = Vec::new();
        self.run_streaming(config, job, |outcome| {
            outcomes.push(outcome);
            true
        });
        SweepReport { outcomes }
    }
}

/// Restores the exact length that `flat_map` destroys, so the pool's worker
/// clamp (and its core-budget reservation) still applies to lazy cross
/// products: a 2-point product claims 2 workers, not the whole pool.
#[derive(Debug)]
struct KnownLen<I> {
    inner: I,
    remaining: usize,
}

impl<I: Iterator> Iterator for KnownLen<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next();
        if item.is_some() {
            self.remaining = self.remaining.saturating_sub(1);
        }
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<I: Iterator> ExactSizeIterator for KnownLen<I> {}

/// Lazily enumerates the cross product of two axes in row-major order —
/// identical order to [`cross2`], without materialising the grid. The
/// iterator reports its exact length.
pub fn cross2_lazy<A, B>(
    outer: Vec<A>,
    inner: Vec<B>,
) -> impl ExactSizeIterator<Item = (A, B)> + Send
where
    A: Clone + Send,
    B: Clone + Send,
{
    let remaining = outer.len() * inner.len();
    KnownLen {
        inner: outer
            .into_iter()
            .flat_map(move |a| inner.clone().into_iter().map(move |b| (a.clone(), b))),
        remaining,
    }
}

/// Lazily enumerates the cross product of three axes in row-major order —
/// identical order to [`cross3`], without materialising the grid. The
/// iterator reports its exact length.
pub fn cross3_lazy<A, B, C>(
    a: Vec<A>,
    b: Vec<B>,
    c: Vec<C>,
) -> impl ExactSizeIterator<Item = (A, B, C)> + Send
where
    A: Clone + Send,
    B: Clone + Send,
    C: Clone + Send,
{
    let remaining = a.len() * b.len() * c.len();
    KnownLen {
        inner: a.into_iter().flat_map(move |x| {
            let c = c.clone();
            b.clone().into_iter().flat_map(move |y| {
                let x = x.clone();
                c.clone()
                    .into_iter()
                    .map(move |z| (x.clone(), y.clone(), z))
            })
        }),
        remaining,
    }
}

/// Builds the cross product of parameter axes in row-major order — the same
/// order as the equivalent nested `for` loops, so a refactor from loops to a
/// sweep preserves row order exactly.
#[must_use]
pub fn cross2<A: Clone, B: Clone>(outer: &[A], inner: &[B]) -> Vec<(A, B)> {
    let mut points = Vec::with_capacity(outer.len() * inner.len());
    for a in outer {
        for b in inner {
            points.push((a.clone(), b.clone()));
        }
    }
    points
}

/// Three-axis cross product, row-major (outermost axis first).
#[must_use]
pub fn cross3<A: Clone, B: Clone, C: Clone>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
    let mut points = Vec::with_capacity(a.len() * b.len() * c.len());
    for x in a {
        for y in b {
            for z in c {
                points.push((x.clone(), y.clone(), z.clone()));
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_pure_and_distinct() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
    }

    #[test]
    fn cross_products_are_row_major() {
        let points = cross2(&[1, 2], &['a', 'b']);
        assert_eq!(points, vec![(1, 'a'), (1, 'b'), (2, 'a'), (2, 'b')]);
        let triple = cross3(&[1], &[2, 3], &[4, 5]);
        assert_eq!(triple, vec![(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)]);
    }

    #[test]
    fn report_separates_successes_from_failures() {
        let sweep = Sweep::new(vec![1u32, 2, 3, 4]).with_base_seed(9);
        let report = sweep.run(&PoolConfig::serial(), |_, &n| {
            if n % 2 == 0 {
                Ok(n * 10)
            } else {
                Err(format!("odd {n}"))
            }
        });
        assert_eq!(report.succeeded(), 2);
        assert_eq!(report.failed(), 2);
        assert_eq!(report.successes(), vec![20, 40]);
    }

    #[test]
    fn lazy_cross_products_match_eager_enumeration() {
        let eager = cross2(&[1, 2], &['a', 'b']);
        let lazy: Vec<_> = cross2_lazy(vec![1, 2], vec!['a', 'b']).collect();
        assert_eq!(eager, lazy);
        let eager3 = cross3(&[1, 2], &[3], &[4, 5]);
        let lazy3: Vec<_> = cross3_lazy(vec![1, 2], vec![3], vec![4, 5]).collect();
        assert_eq!(eager3, lazy3);
    }

    #[test]
    fn lazy_cross_products_report_their_exact_length() {
        // The exact size hint is what lets the pool clamp its workers (and
        // budget reservation) for small lazy sweeps.
        let mut points = cross2_lazy(vec![1, 2, 3], vec!['a', 'b']);
        assert_eq!(points.len(), 6);
        points.next();
        assert_eq!(points.size_hint(), (5, Some(5)));
        assert_eq!(cross3_lazy(vec![1, 2], vec![3, 4], vec![5]).len(), 4);
    }

    #[test]
    fn lazy_sweep_matches_eager_sweep_for_any_worker_count() {
        let points: Vec<u64> = (0..97).collect();
        let job = |ctx: JobCtx, &n: &u64| {
            if n % 13 == 5 {
                Err(format!("unlucky {n}"))
            } else {
                Ok(n.wrapping_mul(ctx.seed))
            }
        };
        let eager = Sweep::new(points.clone())
            .with_base_seed(77)
            .run(&PoolConfig::serial(), job);
        for threads in [1, 2, 4, 7] {
            let config = PoolConfig::threads(threads).with_chunk(3);
            let lazy = LazySweep::new(points.clone().into_iter())
                .with_base_seed(77)
                .run(&config, job);
            assert_eq!(lazy, eager, "threads={threads}");
        }
    }

    #[test]
    fn lazy_sweep_isolates_panics() {
        let report: SweepReport<u64, String> =
            LazySweep::new(0u64..20).run(&PoolConfig::threads(4), |_, &n| {
                assert!(n != 11, "eleven exploded");
                Ok(n)
            });
        assert_eq!(report.failed(), 1);
        match &report.outcomes[11].result {
            Err(SweepError::Panic(msg)) => assert!(msg.contains("eleven exploded")),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(report.succeeded(), 19);
    }

    #[test]
    fn lazy_sweep_reserves_its_workers_from_the_core_budget() {
        // Jobs observe at least this sweep's own reservation (other tests
        // may add to the global ledger concurrently, never subtract below
        // ours), so intra-job shard sizing sees the sweep's workers.
        let report = LazySweep::new(0u64..8).run(&PoolConfig::threads(3), |_, &n| {
            assert!(crate::budget::reserved_workers() >= 3);
            Ok::<u64, std::convert::Infallible>(n)
        });
        assert_eq!(report.succeeded(), 8);
    }

    #[test]
    fn lazy_sweep_streams_without_collecting_all_points() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A long stream: the sweep must finish even though collecting the
        // iterator up front would be absurd, and the pull counter proves the
        // points were produced on demand.
        let produced = AtomicUsize::new(0);
        let stream = (0u64..10_000).inspect(|_| {
            produced.fetch_add(1, Ordering::Relaxed);
        });
        let report = LazySweep::new(stream).run(&PoolConfig::threads(3).with_chunk(64), |_, &n| {
            Ok::<u64, std::convert::Infallible>(n + 1)
        });
        assert_eq!(report.succeeded(), 10_000);
        assert_eq!(produced.load(Ordering::Relaxed), 10_000);
        let rows = report.into_results().unwrap();
        assert_eq!(rows[4_321], 4_322);
    }

    #[test]
    fn run_streaming_delivers_outcomes_in_index_order() {
        // Jobs with wildly uneven costs (by index parity) still stream out
        // strictly ordered, for any worker count.
        for threads in [1, 3, 7] {
            let mut next = 0usize;
            let delivered = LazySweep::new(0u64..500).with_base_seed(5).run_streaming(
                &PoolConfig::threads(threads).with_chunk(4),
                |ctx, &n| {
                    if n % 2 == 0 {
                        std::thread::yield_now();
                    }
                    Ok::<u64, std::convert::Infallible>(n + ctx.seed % 2)
                },
                |outcome| {
                    assert_eq!(outcome.index, next, "threads={threads}");
                    let expected = outcome.index as u64 + derive_seed(5, outcome.index as u64) % 2;
                    assert_eq!(outcome.result.unwrap(), expected);
                    next += 1;
                    true
                },
            );
            assert_eq!(delivered, 500);
            assert_eq!(next, 500);
        }
    }

    #[test]
    fn cancelling_sink_stops_the_sweep_early() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // The sink cancels at index 10; the engine must stop pulling points
        // long before the 100_000-point stream is exhausted.
        for threads in [1, 4] {
            let executed = AtomicUsize::new(0);
            let mut seen = 0usize;
            let delivered = LazySweep::new(0u64..100_000).run_streaming(
                &PoolConfig::threads(threads).with_chunk(4),
                |_, &n| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    Ok::<u64, std::convert::Infallible>(n)
                },
                |outcome| {
                    seen += 1;
                    outcome.index < 10
                },
            );
            assert_eq!(seen, 11, "threads={threads}");
            assert_eq!(delivered, 11);
            let ran = executed.load(Ordering::Relaxed);
            assert!(
                ran < 1_000,
                "threads={threads}: {ran} jobs ran after cancel"
            );
        }
    }

    #[test]
    fn mega_sweep_streams_through_a_counting_sink_without_storing_rows() {
        // The bounded-memory acceptance check: a 10^5+-point sweep completes
        // through a sink that counts rows but never stores them. The engine
        // may only buffer the out-of-order window (backpressured at
        // O(workers x chunk)), never a full-grid Vec<R>.
        const POINTS: u64 = 120_000;
        let mut rows = 0u64;
        let mut checksum = 0u64;
        let delivered = LazySweep::new(0..POINTS).run_streaming(
            &PoolConfig::threads(4).with_chunk(64),
            |_, &n| Ok::<u64, std::convert::Infallible>(n.wrapping_mul(3)),
            |outcome| {
                rows += 1;
                checksum = checksum.wrapping_add(outcome.result.unwrap());
                true
            },
        );
        assert_eq!(delivered as u64, POINTS);
        assert_eq!(rows, POINTS);
        let expected = (0..POINTS).fold(0u64, |acc, n| acc.wrapping_add(n.wrapping_mul(3)));
        assert_eq!(checksum, expected);
    }

    #[test]
    fn into_results_surfaces_first_error() {
        let sweep = Sweep::new(vec![1u32, 2, 3]);
        let report = sweep.run(&PoolConfig::serial(), |_, &n| {
            if n == 1 {
                Ok(n)
            } else {
                Err(format!("boom {n}"))
            }
        });
        match report.into_results() {
            Err(SweepError::Job(msg)) => assert_eq!(msg, "boom 2"),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
