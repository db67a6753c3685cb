//! `std::thread`-based worker pool: dynamic distribution, per-job panic
//! isolation and ordered delivery.
//!
//! The scheduler behind [`crate::sweep::run`] keeps the job iterator behind
//! a mutex. A worker locks it, takes the next item together with its
//! enumeration index, runs it without holding any lock, and comes back for
//! more. A study's job is a whole simulation or topology analysis, so one
//! lock per job is cheap beside it, while the dynamic assignment keeps long
//! jobs (large topologies) from serialising behind a static partition.
//!
//! Every job runs under `catch_unwind`, so a panicking job becomes an error
//! for *that index only* and the pool itself is never poisoned. Finished
//! results pass through a reorder buffer that emits them strictly in index
//! order, which is what makes a parallel run bit-identical to a serial one:
//! output order is enumeration order, never completion order.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// How a sweep is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of worker threads; `1` runs inline on the caller thread.
    pub threads: usize,
}

impl PoolConfig {
    /// Environment variable overriding the worker count (`0`/unset = auto).
    pub const THREADS_ENV: &'static str = "SF_HARNESS_THREADS";

    /// A pool with exactly `threads` workers.
    #[must_use]
    pub fn threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Serial execution on the caller thread.
    #[must_use]
    pub fn serial() -> Self {
        Self::threads(1)
    }

    /// [`SF_HARNESS_THREADS`](Self::THREADS_ENV) workers when it is set to a
    /// positive integer, otherwise one per available CPU.
    #[must_use]
    pub fn auto() -> Self {
        let threads = env_positive_usize(Self::THREADS_ENV).unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        Self::threads(threads)
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self::auto()
    }
}

/// Reads an environment variable as a positive integer; `0`, garbage, and
/// unset all mean "not configured".
#[must_use]
fn env_positive_usize(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The reorder buffer behind [`run_stream_emit`]'s ordered delivery: results
/// completed out of order park in `pending` until every smaller index has
/// been emitted. The emit callback lives inside the same mutex, so calls are
/// serialised *and* ordered without a dedicated consumer thread. `stop`
/// latches when the callback cancels the run — workers observe it before
/// pulling more points, so a failed sweep does not burn through the rest of
/// its grid.
struct EmitState<T, S> {
    pending: BTreeMap<usize, T>,
    next_emit: usize,
    emit: S,
    stop: bool,
}

/// Wakes every condvar waiter when dropped — unwind-safe notification, so a
/// panic inside the emit callback cannot strand backpressure-parked workers.
struct NotifyOnDrop<'a>(&'a Condvar);

impl Drop for NotifyOnDrop<'_> {
    fn drop(&mut self) {
        self.0.notify_all();
    }
}

/// The one scheduler behind [`crate::sweep::run`].
///
/// Pulls `(index, item)` pairs from `stream` under a lock, runs `execute` on
/// worker threads under `catch_unwind`, and hands each result to `emit`
/// **in pull (= enumeration) order** — regardless of which worker ran what,
/// which is the determinism contract. A panicking job reaches `emit` as
/// `Err(panic message)`. A completed result is buffered only while some
/// smaller index is still in flight; workers that race too far ahead of the
/// slowest in-flight index park on a condvar until the buffer drains
/// (backpressure), which bounds the buffer at `O(workers)` even for wildly
/// uneven job costs.
///
/// When the iterator reports an exact size, the worker count is clamped to
/// it, so a two-point sweep on a 16-core host starts two workers, not
/// sixteen.
///
/// `emit` is called at most once per item, with strictly increasing indices;
/// returning `false` cancels the run — no further points are pulled, and
/// in-flight jobs finish computing but their results are discarded
/// unemitted.
pub(crate) fn run_stream_emit<P, T, I, F, S>(config: &PoolConfig, stream: I, execute: F, emit: S)
where
    I: Iterator<Item = P> + Send,
    P: Send,
    T: Send,
    F: Fn(usize, P) -> T + Sync,
    S: FnMut(usize, Result<T, String>) -> bool + Send,
{
    let execute = |index: usize, item: P| {
        catch_unwind(AssertUnwindSafe(|| execute(index, item)))
            .map_err(|payload| panic_message(payload.as_ref()))
    };
    let exact_len = match stream.size_hint() {
        (lower, Some(upper)) if lower == upper => Some(upper),
        _ => None,
    };
    if config.threads <= 1 || exact_len.is_some_and(|n| n <= 1) {
        let mut emit = emit;
        let mut completed = 0u64;
        for (index, item) in stream.enumerate() {
            let result = execute(index, item);
            completed += 1;
            if !emit(index, result) {
                break;
            }
        }
        sf_obs::metrics::global().counter_add("pool.jobs_completed", completed);
        return;
    }

    let workers = exact_len
        .map_or(config.threads, |n| config.threads.min(n))
        .max(1);
    // If the reorder buffer grows past this, workers pause before pulling
    // more points; the worker computing the lowest in-flight index never
    // pauses (it only waits *before* pulling new work), so the drain that
    // wakes everyone is always coming.
    let high_water = workers.saturating_mul(4).max(16);
    let source = Mutex::new(stream.enumerate());
    let sink = Mutex::new(EmitState {
        pending: BTreeMap::new(),
        next_emit: 0,
        emit,
        stop: false,
    });
    let drained = Condvar::new();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Backpressure: wait until the reorder buffer has room (or
                // the run is cancelled) before claiming more points.
                {
                    let wait_timer = sf_obs::span::timing_start();
                    let mut state = sink.lock().expect("emit state poisoned");
                    let mut waited = false;
                    while state.pending.len() >= high_water && !state.stop {
                        waited = true;
                        state = drained.wait(state).expect("emit state poisoned");
                    }
                    let stop = state.stop;
                    drop(state);
                    if waited {
                        sf_obs::span::timing_add("pool_backpressure_wait", wait_timer, 1);
                    }
                    if stop {
                        break;
                    }
                }
                // Pull the next (index, item) pair; the index comes from the
                // shared enumeration, never from this worker. Run the job
                // without holding any lock, then publish the finished result
                // in one short critical section.
                let pulled = source.lock().expect("job stream poisoned").next();
                let Some((index, item)) = pulled else {
                    break;
                };
                let result = execute(index, item);
                // On a run that completes (no cancellation) every index runs
                // exactly once, so the summed count is worker-independent.
                sf_obs::metrics::global().counter_add("pool.jobs_completed", 1);
                // Notify on every exit from the critical section — including
                // an unwind out of a panicking emit callback. Without this, a
                // panic would poison the mutex and leave backpressure-parked
                // workers waiting on the condvar forever instead of waking
                // (and propagating the poison panic through the scope).
                // Declared before `guard` so the guard drops first.
                let notify = NotifyOnDrop(&drained);
                let mut guard = sink.lock().expect("emit state poisoned");
                let state = &mut *guard;
                if !state.stop {
                    state.pending.insert(index, result);
                    // Drain the contiguous prefix: whichever worker completes
                    // the missing index emits everything waiting on it.
                    loop {
                        let next = state.next_emit;
                        let Some(result) = state.pending.remove(&next) else {
                            break;
                        };
                        if !(state.emit)(next, result) {
                            state.stop = true;
                        }
                        state.next_emit = next + 1;
                        if state.stop {
                            break;
                        }
                    }
                }
                let stopped = state.stop;
                drop(guard);
                drop(notify);
                if stopped {
                    break;
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `count` indexed jobs and collects what `emit` receives.
    fn collect<T: Send>(
        config: &PoolConfig,
        count: usize,
        job: impl Fn(usize) -> T + Sync,
    ) -> Vec<(usize, Result<T, String>)> {
        let mut emitted = Vec::new();
        run_stream_emit(
            config,
            0..count,
            |_, i| job(i),
            |index, result| {
                emitted.push((index, result));
                true
            },
        );
        emitted
    }

    #[test]
    fn auto_pool_has_at_least_one_thread() {
        assert!(PoolConfig::auto().threads >= 1);
        assert_eq!(PoolConfig::serial().threads, 1);
        assert_eq!(PoolConfig::threads(0).threads, 1);
    }

    #[test]
    fn parallel_results_are_in_index_order() {
        let results = collect(&PoolConfig::threads(8), 100, |i| {
            if i % 2 == 0 {
                std::thread::yield_now();
            }
            i * 2
        });
        assert_eq!(results.len(), 100);
        for (position, (index, result)) in results.into_iter().enumerate() {
            assert_eq!(index, position);
            assert_eq!(result.unwrap(), position * 2);
        }
    }

    #[test]
    fn panics_are_isolated_to_their_slot() {
        for config in [PoolConfig::serial(), PoolConfig::threads(4)] {
            let results = collect(&config, 10, |i| {
                assert!(i != 7, "job seven exploded");
                i
            });
            assert_eq!(results.len(), 10);
            for (index, result) in results {
                if index == 7 {
                    let msg = result.unwrap_err();
                    assert!(msg.contains("job seven exploded"), "{msg}");
                } else {
                    assert_eq!(result.unwrap(), index);
                }
            }
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        assert!(collect(&PoolConfig::threads(4), 0, |i| i).is_empty());
    }
}
