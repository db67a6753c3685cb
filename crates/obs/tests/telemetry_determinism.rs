//! End-to-end telemetry determinism: running the same quick study on one and
//! on four sweep workers must publish a **byte-identical** `sf-telemetry/v1`
//! stream, and two runs recording at the same time in one process must each
//! publish exactly their own stream.
//!
//! This is the out-of-band counterpart of `merge_determinism.rs`. Each
//! simulation runs on one thread and samples at cycle boundaries, so every
//! sampled quantity (queue depths, link occupancies, credit stalls, energy)
//! is a pure function of the run. Each sweep job records into its own
//! capture, its blocks travel with its row through the sweep's in-order
//! delivery, and the run's context appends them to the stream it owns — so
//! neither the worker count nor another run may leak into the stream.
//!
//! Like `merge_determinism.rs`, `stringfigure` is a dev-dependency here —
//! the leaf crate tests the full stack it instruments.

use std::path::{Path, PathBuf};

use sf_harness::PoolConfig;
use stringfigure::study::{execute, RunContext, Study, StudyRegistry};

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sf-telemetry-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs quick `fault_resilience` with telemetry at `path` on `workers`
/// workers and returns the published stream.
fn record(study: &dyn Study, workers: usize, path: &Path) -> Vec<u8> {
    let ctx = RunContext::new()
        .quick(true)
        .with_pool(PoolConfig::threads(workers))
        .with_telemetry(path);
    execute(study, &ctx).expect("quick fault_resilience run");
    let bytes = std::fs::read(path).expect("telemetry stream published");
    let mut part = path.as_os_str().to_owned();
    part.push(".part");
    assert!(
        !Path::new(&part).exists(),
        "{}: unpublished .part left behind",
        path.display()
    );
    bytes
}

#[test]
fn telemetry_streams_are_bit_identical_across_worker_shard_matrix() {
    let registry = StudyRegistry::all();
    let study = registry
        .get("fault_resilience")
        .expect("fault_resilience registered");
    // Silence study notes so the matrix runs do not spam test output.
    sf_obs::progress::Progress::global().configure(true);
    let dir = scratch("determinism");

    let mut reference: Option<(String, Vec<u8>)> = None;
    for workers in [1, 4] {
        let label = format!("workers={workers}");
        let bytes = record(study, workers, &dir.join(format!("w{workers}.bin")));
        assert!(
            bytes.starts_with(sf_obs::telemetry::MAGIC),
            "{label}: stream does not start with the schema magic"
        );
        let blocks = sf_obs::telemetry::parse_stream(&bytes).expect("published stream parses");
        assert!(!blocks.is_empty(), "{label}: no telemetry blocks recorded");
        assert!(
            blocks.iter().all(|b| b.samples() > 0 && b.routers > 0),
            "{label}: a block recorded no samples"
        );

        match &reference {
            None => reference = Some((label, bytes)),
            Some((ref_label, expected)) => assert!(
                &bytes == expected,
                "telemetry stream diverged between {ref_label} and {label} \
                 ({} vs {} bytes)",
                expected.len(),
                bytes.len()
            ),
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_runs_each_publish_their_own_stream() {
    let registry = StudyRegistry::all();
    let study = registry
        .get("fault_resilience")
        .expect("fault_resilience registered");
    sf_obs::progress::Progress::global().configure(true);
    let dir = scratch("concurrent");

    let solo = record(study, 2, &dir.join("solo.bin"));
    // Two contexts recording at the same time: neither may see the other's
    // blocks, lose its own, or find its stream replaced. The barrier
    // releases both runs at once, so their sweeps overlap.
    let paths = [dir.join("a.bin"), dir.join("b.bin")];
    let start = std::sync::Barrier::new(paths.len());
    let streams: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let runs: Vec<_> = paths
            .iter()
            .map(|path| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    record(study, 2, path)
                })
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("concurrent run panicked"))
            .collect()
    });
    for (path, bytes) in paths.iter().zip(&streams) {
        assert!(
            bytes == &solo,
            "{}: {} bytes, the solo run published {} bytes",
            path.display(),
            bytes.len(),
            solo.len()
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
