//! End-to-end metrics determinism: running the same quick study on one and
//! on four sweep workers must leave a bit-identical deterministic-namespace
//! snapshot in the global registry.
//!
//! This is the observable form of the merge contract: counters sum,
//! gauges take maxima, histograms add bucketwise — all commutative and
//! associative — so the sweep-pool worker count cannot leak into `sim.*` /
//! `pool.*` totals.
//! (`sched.*` and `time.*` are excluded by [`MetricsSnapshot::deterministic`]
//! — cache hit/miss counts genuinely depend on worker interleaving.)
//!
//! `stringfigure` is a dev-dependency of `sf-obs` here (the reverse of the
//! build dependency), which is legal for dev-deps and lets the leaf crate
//! test the whole stack it instruments.
//!
//! [`MetricsSnapshot::deterministic`]: sf_obs::metrics::MetricsSnapshot::deterministic

use sf_harness::PoolConfig;
use sf_obs::metrics::{self, MetricsSnapshot};
use stringfigure::study::{execute, RunContext, StudyRegistry};

// One #[test] on purpose: the metrics registry and the progress reporter
// are process-global state.
#[test]
fn deterministic_metrics_are_bit_identical_across_worker_shard_matrix() {
    let registry = StudyRegistry::all();
    let study = registry
        .get("fault_resilience")
        .expect("fault_resilience registered");
    // Silence study notes so the matrix runs do not spam test output.
    let progress = sf_obs::progress::Progress::global();
    progress.configure(true);

    let mut reference: Option<(String, MetricsSnapshot)> = None;
    for workers in [1, 4] {
        metrics::global().reset();
        let ctx = RunContext::new()
            .quick(true)
            .with_pool(PoolConfig::threads(workers));
        execute(study, &ctx).expect("quick fault_resilience run");
        let snapshot = metrics::global().snapshot().deterministic();

        assert!(
            snapshot.get("sim.delivered").is_some(),
            "simulation metrics missing from snapshot"
        );
        assert!(snapshot.get("pool.jobs_completed").is_some());
        // The kernel's slab-pool gauges are part of the deterministic
        // namespace: peaks and push totals are pure functions of the
        // simulated workload, never of the worker count.
        for name in [
            "sim.pool.packets_peak",
            "sim.pool.in_flight_peak",
            "sim.pool.packet_pushes",
            "sim.pool.in_flight_pushes",
        ] {
            let nonzero = match snapshot.get(name) {
                Some(metrics::MetricValue::Counter(v) | metrics::MetricValue::Gauge(v)) => *v > 0,
                _ => false,
            };
            assert!(nonzero, "{name} missing or zero in deterministic snapshot");
        }
        assert!(snapshot
            .iter()
            .all(|(name, _)| metrics::is_deterministic_name(name)));

        let label = format!("workers={workers}");
        match &reference {
            None => reference = Some((label, snapshot)),
            Some((ref_label, expected)) => assert_eq!(
                &snapshot, expected,
                "deterministic metrics diverged between {ref_label} and {label}"
            ),
        }
    }

    metrics::global().reset();
    progress.reset();
}
