//! The one sweep entry point: a job over every point of a parameter grid.
//!
//! [`run`] maps a closure over the points on the worker pool and hands each
//! result row to a callback **in enumeration order**, whatever worker
//! computed it and whenever it finished. Each job receives its point and
//! its index in the enumeration — never anything derived from execution
//! order — so the rows a sweep delivers are a pure function of (points,
//! closure), independent of the worker count.
//!
//! A job that returns an error or panics fails only itself (the panic is
//! caught inside the pool), and the first failure in enumeration order
//! cancels the sweep: no further points are started and the failure is
//! returned with its index.
//!
//! [`cross2`] / [`cross3`] enumerate parameter grids in row-major order, the
//! order of the equivalent nested `for` loops.

use crate::pool::{run_stream_emit, PoolConfig};

/// Why a job failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError<E> {
    /// The job closure returned an error.
    Job(E),
    /// The job panicked; carries the panic message.
    Panic(String),
}

/// Runs `job(index, point)` over every point on the given pool and hands
/// each successful row to `on_row(index, row)` in index order.
///
/// Workers pull one point at a time; which worker runs a point never
/// changes the index it gets or the order its row is delivered in, so any
/// worker count delivers the identical row sequence.
///
/// # Errors
///
/// Returns the index and cause of the first failed job in enumeration
/// order — an error the job returned, or its panic. Every row before it has
/// been delivered; nothing after it is, and no further points are started.
pub fn run<I, R, E, F, S>(
    config: &PoolConfig,
    points: I,
    job: F,
    mut on_row: S,
) -> Result<(), (usize, SweepError<E>)>
where
    I: IntoIterator,
    I::IntoIter: Send,
    I::Item: Send,
    R: Send,
    E: Send,
    F: Fn(usize, I::Item) -> Result<R, E> + Sync,
    S: FnMut(usize, R) + Send,
{
    let mut failure = None;
    run_stream_emit(config, points.into_iter(), job, |index, outcome| {
        let error = match outcome {
            Ok(Ok(row)) => {
                on_row(index, row);
                return true;
            }
            Ok(Err(e)) => SweepError::Job(e),
            Err(message) => SweepError::Panic(message),
        };
        failure = Some((index, error));
        false
    });
    failure.map_or(Ok(()), Err)
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
    use std::convert::Infallible;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn cross_products_are_row_major() {
        let points = cross2(&[1, 2], &['a', 'b']);
        assert_eq!(points, vec![(1, 'a'), (1, 'b'), (2, 'a'), (2, 'b')]);
        let triple = cross3(&[1], &[2, 3], &[4, 5]);
        assert_eq!(triple, vec![(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)]);
    }

    #[test]
    fn run_delivers_rows_in_index_order() {
        // Jobs with wildly uneven costs (by index parity) still deliver
        // strictly ordered rows, for any worker count.
        for threads in [1, 3, 7] {
            let mut next = 0usize;
            run(
                &PoolConfig::threads(threads),
                0u64..500,
                |index, n| {
                    if n % 2 == 0 {
                        std::thread::yield_now();
                    }
                    Ok::<_, Infallible>((index, n * 3))
                },
                |index, (job_index, row)| {
                    assert_eq!(index, next, "threads={threads}");
                    assert_eq!(job_index, index);
                    assert_eq!(row, index as u64 * 3);
                    next += 1;
                },
            )
            .unwrap();
            assert_eq!(next, 500);
        }
    }

    #[test]
    fn first_error_cancels_the_sweep() {
        // Job 10 fails; the rows before it arrive, nothing after it does,
        // and the engine stops pulling points long before the
        // 100_000-point grid is exhausted.
        for threads in [1, 4] {
            let executed = AtomicUsize::new(0);
            let mut delivered = Vec::new();
            let result = run(
                &PoolConfig::threads(threads),
                0u64..100_000,
                |_, n| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    if n >= 10 {
                        Err(format!("boom {n}"))
                    } else {
                        Ok(n)
                    }
                },
                |_, row| delivered.push(row),
            );
            assert_eq!(
                result,
                Err((10, SweepError::Job("boom 10".to_string()))),
                "threads={threads}"
            );
            assert_eq!(delivered, (0..10).collect::<Vec<_>>());
            let ran = executed.load(Ordering::Relaxed);
            assert!(
                ran < 1_000,
                "threads={threads}: {ran} jobs ran after cancel"
            );
        }
    }

    #[test]
    fn panics_surface_as_the_failing_job() {
        for threads in [1, 4] {
            let mut delivered = 0usize;
            let result = run(
                &PoolConfig::threads(threads),
                0u64..20,
                |_, n| {
                    assert!(n != 11, "eleven exploded");
                    Ok::<_, Infallible>(n)
                },
                |_, _| delivered += 1,
            );
            match result {
                Err((11, SweepError::Panic(msg))) => assert!(msg.contains("eleven exploded")),
                other => panic!("unexpected: {other:?}"),
            }
            assert_eq!(delivered, 11, "threads={threads}");
        }
    }
}
