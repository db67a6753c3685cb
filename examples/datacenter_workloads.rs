//! In-memory computing workloads on a disaggregated memory pool: run the
//! paper's application models (Spark, PageRank, Redis, Memcached, K-means,
//! MatMul) on a String Figure network versus a distributed mesh and compare
//! throughput and dynamic memory energy — a miniature of Figure 12.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example datacenter_workloads
//! ```

use sf_workloads::ApplicationModel;
use stringfigure::experiments::{socket_nodes, workload_study_with_ctx, ExperimentScale};
use stringfigure::{RunContext, TopologyKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes = 128;
    let sockets = 4;
    let scale = ExperimentScale {
        max_cycles: 4_000,
        warmup_cycles: 500,
    };
    println!(
        "Running {} workloads on 2 designs ({} memory nodes, {} CPU sockets at nodes {:?})\n",
        ApplicationModel::ALL.len(),
        nodes,
        sockets,
        socket_nodes(nodes, sockets)
    );

    let kinds = [TopologyKind::DistributedMesh, TopologyKind::StringFigure];
    let rows = workload_study_with_ctx(
        &RunContext::new(),
        &kinds,
        &ApplicationModel::ALL,
        nodes,
        sockets,
        scale,
        2019,
    )?;

    println!(
        "{:<12} {:>14} {:>14} {:>16} {:>16}",
        "workload", "DM req/kcycle", "SF req/kcycle", "SF speedup", "SF energy ratio"
    );
    let mut speedups = Vec::new();
    for workload in ApplicationModel::ALL {
        let dm = rows
            .iter()
            .find(|r| r.kind == TopologyKind::DistributedMesh && r.workload == workload)
            .expect("row exists");
        let sf = rows
            .iter()
            .find(|r| r.kind == TopologyKind::StringFigure && r.workload == workload)
            .expect("row exists");
        let speedup = sf.requests_per_cycle / dm.requests_per_cycle.max(f64::MIN_POSITIVE);
        let energy_ratio =
            sf.energy_per_request_pj / dm.energy_per_request_pj.max(f64::MIN_POSITIVE);
        speedups.push(speedup);
        println!(
            "{:<12} {:>14.2} {:>14.2} {:>15.2}x {:>16.2}",
            workload.name(),
            dm.requests_per_cycle * 1_000.0,
            sf.requests_per_cycle * 1_000.0,
            speedup,
            energy_ratio
        );
    }
    let geomean = speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64;
    println!(
        "\nGeometric-mean String Figure speedup over the distributed mesh: {:.2}x",
        geomean.exp()
    );
    println!("(The paper reports ~1.3x over ODM at 1024 nodes; the gap widens with scale.)");

    Ok(())
}
