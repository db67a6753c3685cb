//! Contract tests for `sf-harness`: a parallel sweep is bit-identical to a
//! serial one, one panicking job fails only itself and never poisons the
//! engine, and the CSV/JSON emitters round-trip exactly.

use sf_harness::pool::PoolConfig;
use sf_harness::sweep::{self, cross3, SweepError};
use sf_harness::table::{Record, Table, Value};
use sf_harness::BuildCache;
use std::convert::Infallible;
use std::sync::Arc;

/// A miniature "experiment": deterministic pseudo-simulation whose result
/// depends on the point and its index, with enough arithmetic that
/// reordered floating-point accumulation would be detectable.
fn fake_experiment(nodes: usize, rate_millis: usize, seed: u64) -> f64 {
    let mut accumulator = 0.0f64;
    let mut state = seed ^ (nodes as u64) << 3 ^ rate_millis as u64;
    for _ in 0..200 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        accumulator += (state >> 11) as f64 / (1u64 << 53) as f64;
    }
    accumulator * rate_millis as f64 / nodes as f64
}

/// Runs `job` over `points` and collects the delivered rows.
fn collect<P: Send, R: Send>(
    config: &PoolConfig,
    points: Vec<P>,
    job: impl Fn(usize, P) -> R + Sync,
) -> Vec<R> {
    let mut rows = Vec::new();
    sweep::run(
        config,
        points,
        |index, point| Ok::<R, Infallible>(job(index, point)),
        |_, row| rows.push(row),
    )
    .unwrap();
    rows
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let points = cross3(&[16usize, 32, 64], &[20usize, 50, 100, 200], &[1u64, 2, 3]);
    let job = |index: usize, (nodes, rate, seed): (usize, usize, u64)| {
        (
            index,
            fake_experiment(nodes, rate, seed ^ (2019 + index as u64)),
        )
    };
    let serial = collect(&PoolConfig::serial(), points.clone(), job);
    assert_eq!(serial.len(), points.len());
    for threads in [2, 4, 8] {
        let parallel = collect(&PoolConfig::threads(threads), points.clone(), job);
        // Bit-identical: same rows, same order — compare float bits, not
        // approximate values.
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.0, p.0);
            assert_eq!(s.1.to_bits(), p.1.to_bits(), "threads={threads}");
        }
    }
}

#[test]
fn one_panicking_job_does_not_poison_the_sweep() {
    let config = PoolConfig::threads(4);
    let mut rows = Vec::new();
    let result = sweep::run(
        &config,
        0..50u32,
        |_, n| {
            assert!(n != 13, "unlucky point");
            Ok::<u32, Infallible>(n * n)
        },
        |index, row| rows.push((index, row)),
    );
    // The panic is that job's failure, not an unwind through the pool: every
    // earlier row arrived intact and in order, and the sweep reports which
    // job failed and why.
    match result {
        Err((13, SweepError::Panic(msg))) => assert!(msg.contains("unlucky point")),
        other => panic!("expected job 13 to panic, got {other:?}"),
    }
    let expected: Vec<(usize, u32)> = (0..13u32).map(|n| (n as usize, n * n)).collect();
    assert_eq!(rows, expected);
    // The same pool configuration runs the next sweep to completion.
    assert_eq!(collect(&config, (0..50u32).collect(), |_, n| n).len(), 50);
}

struct SweepRow {
    design: String,
    nodes: usize,
    latency: f64,
    saturation: Option<f64>,
}

impl Record for SweepRow {
    fn columns() -> Vec<&'static str> {
        vec!["design", "nodes", "latency_cycles", "saturation_percent"]
    }
    fn values(&self) -> Vec<Value> {
        vec![
            self.design.clone().into(),
            self.nodes.into(),
            self.latency.into(),
            self.saturation.into(),
        ]
    }
}

#[test]
fn emitters_round_trip_sweep_results() {
    let points = cross3(&["SF", "DM"], &[64usize, 256], &[0u64]);
    let rows: Vec<SweepRow> = collect(
        &PoolConfig::threads(3),
        points,
        |index, (design, nodes, seed)| SweepRow {
            design: design.to_string(),
            nodes,
            latency: fake_experiment(nodes, 50, seed ^ index as u64),
            saturation: if design == "SF" { Some(62.5) } else { None },
        },
    );

    let table = Table::from_records(&rows);
    assert_eq!(table.len(), 4);
    assert_eq!(Table::from_csv(&table.to_csv()).unwrap(), table);
    assert_eq!(Table::from_json(&table.to_json()).unwrap(), table);
}

#[test]
fn cache_shares_builds_across_parallel_jobs() {
    let cache: Arc<BuildCache<(usize, u64), Vec<u64>>> = Arc::new(BuildCache::new());
    // Ten distinct keys revisited by sixty jobs: every job must observe the
    // same artefact contents no matter which worker built it.
    let sums = collect(&PoolConfig::threads(6), (0..60usize).collect(), |_, i| {
        let key = (i % 10, (i % 10) as u64);
        let artefact = cache
            .get_or_build::<()>(key, || Ok((0..key.0 as u64).map(|x| x * key.1).collect()))
            .expect("infallible build");
        artefact.iter().sum::<u64>()
    });
    for (i, sum) in sums.iter().enumerate() {
        let k = (i % 10) as u64;
        let expected: u64 = (0..k).map(|x| x * k).sum();
        assert_eq!(*sum, expected);
    }
    assert_eq!(cache.len(), 10);
}
