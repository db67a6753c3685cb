//! End-to-end telemetry determinism: running the same quick study on one and
//! on four sweep workers must publish a **byte-identical** `sf-telemetry/v1`
//! stream.
//!
//! This is the out-of-band counterpart of `merge_determinism.rs`. Each
//! simulation runs on one thread and samples at cycle boundaries, so every
//! sampled quantity (queue depths, link occupancies, credit stalls, energy)
//! is a pure function of the run; across the sweep pool, blocks are
//! reordered into job enumeration order by the collector's scoped delivery.
//! The worker count may not leak into the stream.
//!
//! Like `merge_determinism.rs`, `stringfigure` is a dev-dependency here —
//! the leaf crate tests the full stack it instruments.

use sf_harness::PoolConfig;
use stringfigure::study::{execute, RunContext, StudyRegistry};

// One #[test] on purpose: the telemetry collector and the progress reporter
// are process-global state.
#[test]
fn telemetry_streams_are_bit_identical_across_worker_shard_matrix() {
    let registry = StudyRegistry::all();
    let study = registry
        .get("fault_resilience")
        .expect("fault_resilience registered");
    let progress = sf_obs::progress::Progress::global();
    progress.configure(true);

    let dir = std::env::temp_dir().join(format!("sf-telemetry-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let mut reference: Option<(String, Vec<u8>)> = None;
    for workers in [1, 4] {
        let label = format!("workers={workers}");
        let path = dir.join(format!("w{workers}.bin"));
        let ctx = RunContext::new()
            .quick(true)
            .with_pool(PoolConfig::threads(workers))
            .with_telemetry(&path);
        execute(study, &ctx).expect("quick fault_resilience run");

        let bytes = std::fs::read(&path).expect("telemetry stream published");
        assert!(
            bytes.starts_with(sf_obs::telemetry::MAGIC),
            "{label}: stream does not start with the schema magic"
        );
        assert!(
            !path.with_extension("bin.part").exists(),
            "{label}: unpublished .part left behind"
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
    progress.reset();
}
