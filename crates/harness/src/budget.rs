//! Process-wide core budget shared by the two parallelism layers.
//!
//! The workspace has two places that want threads: the sweep-level worker
//! pool ([`crate::pool`], one worker per experiment job) and the intra-job
//! simulation shards of `sf-simcore` (several workers inside *one* large
//! cycle-level simulation). Letting both layers independently grab "one
//! thread per CPU" would oversubscribe the machine quadratically — a sweep
//! with 16 workers, each opening a 16-shard simulator, would run 256 runnable
//! threads on 16 cores.
//!
//! This module is the arbiter: a single process-wide budget of cores
//! ([`total_cores`], overridable with the [`CORES_ENV`] environment
//! variable), from which the worker pool *reserves* its workers for the
//! duration of a sweep ([`reserve_workers`]). Whatever remains — at least one
//! core per job — is what an individual job may spend on simulation shards
//! ([`intra_job_share`]). Outside any sweep the full budget is available to a
//! single simulation.
//!
//! Reservations are RAII guards, so a panicking sweep never leaks budget.
//! None of this affects results: shard and worker counts only steer
//! wall-clock time, and both layers are bit-deterministic in their degree of
//! parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the total core budget (`0`/unset = the
/// number of available CPUs).
pub const CORES_ENV: &str = "SF_CORES";

/// A core-budget ledger: total capacity plus the sweep workers currently
/// reserved from it. The process-wide instance behind the free functions of
/// this module is what the pool and the simulation kernel share; separate
/// instances exist only for tests.
#[derive(Debug, Default)]
pub struct CoreBudget {
    reserved: AtomicUsize,
}

impl CoreBudget {
    /// A ledger with no outstanding reservations.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            reserved: AtomicUsize::new(0),
        }
    }

    /// Sweep-level workers currently holding a reservation.
    #[must_use]
    pub fn reserved_workers(&self) -> usize {
        self.reserved.load(Ordering::Relaxed)
    }

    /// Cores an individual job may spend on intra-simulation shards: the
    /// total budget divided by the active sweep workers (each concurrent job
    /// gets an equal slice), and always at least one.
    #[must_use]
    pub fn intra_job_share(&self, total: usize) -> usize {
        (total.max(1) / self.reserved_workers().max(1)).max(1)
    }

    /// Reserves `workers` sweep-level workers; released when the guard drops.
    ///
    /// Reservations stack: nested sweeps add up, which is exactly right — the
    /// inner sweep's jobs share the machine with the outer sweep's other
    /// workers.
    #[must_use]
    pub fn reserve_workers(&self, workers: usize) -> WorkerReservation<'_> {
        self.reserved.fetch_add(workers, Ordering::Relaxed);
        WorkerReservation {
            budget: self,
            workers,
        }
    }
}

/// RAII reservation of sweep-level workers; created by the worker pool for
/// the duration of a parallel sweep and released on drop (including unwinds).
#[derive(Debug)]
pub struct WorkerReservation<'a> {
    budget: &'a CoreBudget,
    workers: usize,
}

impl Drop for WorkerReservation<'_> {
    fn drop(&mut self) {
        self.budget
            .reserved
            .fetch_sub(self.workers, Ordering::Relaxed);
    }
}

/// The process-wide ledger shared by the pool and the simulation kernel.
static GLOBAL: CoreBudget = CoreBudget::new();

/// Reads an environment variable as a positive integer; `0`, garbage, and
/// unset all mean "not configured". The one parser behind both environment
/// knobs of the parallelism layers (`SF_CORES`, `SF_HARNESS_THREADS`), so
/// they cannot drift in how they treat bad input.
#[must_use]
pub fn env_positive_usize(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The process-wide core budget: [`CORES_ENV`] when set to a positive
/// integer, otherwise the number of available CPUs (at least 1).
#[must_use]
pub fn total_cores() -> usize {
    env_positive_usize(CORES_ENV)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
        .max(1)
}

/// Sweep-level workers currently reserved from the process-wide ledger.
#[must_use]
pub fn reserved_workers() -> usize {
    GLOBAL.reserved_workers()
}

/// Reserves `workers` sweep-level workers from the process-wide ledger.
#[must_use]
pub fn reserve_workers(workers: usize) -> WorkerReservation<'static> {
    GLOBAL.reserve_workers(workers)
}

/// Intra-simulation shard share of the process-wide ledger, against the
/// [`total_cores`] budget.
#[must_use]
pub fn intra_job_share() -> usize {
    GLOBAL.intra_job_share(total_cores())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_at_least_one_core() {
        assert!(total_cores() >= 1);
        assert!(intra_job_share() >= 1);
    }

    #[test]
    fn reservations_stack_and_release_on_drop() {
        let budget = CoreBudget::new();
        assert_eq!(budget.reserved_workers(), 0);
        {
            let _outer = budget.reserve_workers(3);
            assert_eq!(budget.reserved_workers(), 3);
            let _inner = budget.reserve_workers(2);
            assert_eq!(budget.reserved_workers(), 5);
        }
        assert_eq!(budget.reserved_workers(), 0);
    }

    #[test]
    fn share_divides_total_by_workers() {
        let budget = CoreBudget::new();
        assert_eq!(budget.intra_job_share(8), 8);
        let _four = budget.reserve_workers(4);
        assert_eq!(budget.intra_job_share(8), 2);
        let _more = budget.reserve_workers(12);
        assert_eq!(budget.intra_job_share(8), 1);
    }

    #[test]
    fn reservation_survives_a_panic() {
        let budget = CoreBudget::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = budget.reserve_workers(2);
            panic!("job exploded");
        }));
        assert!(result.is_err());
        assert_eq!(budget.reserved_workers(), 0);
    }
}
