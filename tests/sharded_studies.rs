//! Serial-vs-sharded golden tests at the studies' `--quick` scale:
//! the three routed studies (Figure 10 saturation, Figure 11 latency curves,
//! Figure 12 workloads) must produce **byte-identical rows** whether each
//! cycle-level simulation runs on one router shard (the serial reference,
//! which reproduces the historical simulator) or on several — and whether or
//! not the sweep-level worker pool is parallel at the same time.

use sf_harness::pool::PoolConfig;
use sf_workloads::{ApplicationModel, SyntheticPattern};
use stringfigure::experiments::{
    latency_curve_with_ctx, saturation_study_with_ctx, workload_study_with_ctx, ExperimentScale,
};
use stringfigure::{RunContext, TopologyKind};

#[test]
fn saturation_study_is_identical_serial_vs_sharded() {
    // Figure 10 `--quick` parameters: 64 nodes, the full design set, the
    // quick rate ladder.
    let rates = [0.05, 0.2, 0.4, 0.7];
    let ctx = RunContext::new().with_pool(PoolConfig::serial());
    let run = |shards: usize| {
        saturation_study_with_ctx(
            &ctx,
            &TopologyKind::ALL,
            64,
            SyntheticPattern::UniformRandom,
            &rates,
            ExperimentScale::quick().with_shards(shards),
            3,
        )
        .unwrap()
    };
    let serial = run(1);
    assert_eq!(serial.len(), TopologyKind::ALL.len());
    assert_eq!(run(4), serial);
}

#[test]
fn latency_curve_is_identical_serial_vs_sharded() {
    // Figure 11 `--quick` parameters: 64 nodes, quick rates, DM and SF.
    let rates = [0.05, 0.2, 0.5];
    let ctx = RunContext::new().with_pool(PoolConfig::serial());
    for kind in [TopologyKind::DistributedMesh, TopologyKind::StringFigure] {
        let run = |shards: usize| {
            latency_curve_with_ctx(
                &ctx,
                kind,
                64,
                SyntheticPattern::UniformRandom,
                &rates,
                ExperimentScale::quick().with_shards(shards),
                5,
            )
            .unwrap()
        };
        let serial = run(1);
        assert_eq!(serial.len(), rates.len());
        assert_eq!(run(4), serial, "{kind}");
    }
}

#[test]
fn workload_study_is_identical_serial_vs_sharded() {
    // Figure 12 `--quick` parameters: 64 nodes, two applications,
    // request–reply mode end to end.
    let ctx = RunContext::new().with_pool(PoolConfig::serial());
    let kinds = [
        TopologyKind::DistributedMesh,
        TopologyKind::SpaceShuffle,
        TopologyKind::StringFigure,
    ];
    let workloads = [ApplicationModel::SparkWordcount, ApplicationModel::Redis];
    let run = |shards: usize| {
        workload_study_with_ctx(
            &ctx,
            &kinds,
            &workloads,
            64,
            4,
            ExperimentScale::quick().with_shards(shards),
            2019,
        )
        .unwrap()
    };
    let serial = run(1);
    assert_eq!(serial.len(), kinds.len() * workloads.len());
    for row in &serial {
        assert!(row.requests_per_cycle > 0.0);
    }
    assert_eq!(run(4), serial);
}

#[test]
fn nested_parallelism_never_changes_rows() {
    // Both layers at once: a parallel sweep pool *and* sharded simulations
    // must still match the fully serial run bit for bit.
    let rates = [0.05, 0.2, 0.4];
    let run = |pool: PoolConfig, shards: usize| {
        saturation_study_with_ctx(
            &RunContext::new().with_pool(pool),
            &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
            48,
            SyntheticPattern::Tornado,
            &rates,
            ExperimentScale::quick().with_shards(shards),
            7,
        )
        .unwrap()
    };
    let golden = run(PoolConfig::serial(), 1);
    assert_eq!(run(PoolConfig::threads(2).with_chunk(1), 2), golden);
    assert_eq!(run(PoolConfig::threads(4), 3), golden);
}
