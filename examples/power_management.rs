//! Elastic power management: dynamically scale a String Figure network down
//! by power gating a quarter of its memory nodes, show how shortcuts keep the
//! network connected and fast, then bring the nodes back.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example power_management
//! ```

use sf_types::SimulationConfig;
use sf_workloads::SyntheticPattern;
use stringfigure::{PowerManager, StringFigureNetwork};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's working example scale is 1296 nodes with 8-port routers;
    // 324 nodes keeps this example fast while exercising the same machinery.
    let mut network = StringFigureNetwork::builder(324)
        .seed(11)
        .simulation(SimulationConfig {
            max_cycles: 3_000,
            warmup_cycles: 400,
            ..SimulationConfig::default()
        })
        .build()?;

    let full_stats = network.path_stats();
    let full_sim = network.run_pattern(SyntheticPattern::UniformRandom, 0.08, 1)?;
    println!("Full network ({} nodes)", network.num_active_nodes());
    println!("  average shortest path : {:.2} hops", full_stats.average);
    println!(
        "  simulated latency     : {:.1} cycles",
        full_sim.average_latency_cycles()
    );
    println!(
        "  enabled shortcuts     : {}",
        network.topology().enabled_shortcuts().len()
    );

    // ------------------------------------------------------------------
    // Gate off 25% of the nodes through the power manager, which models the
    // paper's four-step reconfiguration with its sleep latency (680 ns per
    // link) and the 100 us reconfiguration granularity.
    // ------------------------------------------------------------------
    let rebuilt_before = network.routing().routers_rebuilt();
    let report = {
        let mut pm = PowerManager::new(&mut network);
        let gated = pm.gate_fraction(0.25, 99)?;
        println!("\nPower gating {} nodes (25% of the network)", gated.len());
        pm.report().clone()
    };
    // Each event's resync rebuilds only the routers near the gated node.
    let rebuilt = network.routing().routers_rebuilt() - rebuilt_before;
    println!(
        "  reconfiguration latency paid : {:.1} us",
        report.total_latency_ns / 1_000.0
    );
    println!(
        "  router tables rebuilt        : {rebuilt} ({:.1} per event, of {} routers)",
        rebuilt as f64 / report.events.len() as f64,
        network.num_nodes()
    );
    println!(
        "  enabled shortcuts            : {} of {} wires",
        network.topology().enabled_shortcuts().len(),
        network.topology().shortcut_wires().len()
    );

    let gated_stats = network.path_stats();
    let gated_sim = network.run_pattern(SyntheticPattern::UniformRandom, 0.08, 1)?;
    println!(
        "\nDown-scaled network ({} nodes)",
        network.num_active_nodes()
    );
    println!(
        "  capacity              : {} GiB",
        network.active_capacity_gib()
    );
    println!("  average shortest path : {:.2} hops", gated_stats.average);
    println!(
        "  unreachable pairs     : {}",
        gated_stats.unreachable_pairs
    );
    println!(
        "  simulated latency     : {:.1} cycles",
        gated_sim.average_latency_cycles()
    );
    println!(
        "  dynamic network energy: {:.1} nJ (vs {:.1} nJ at full scale)",
        gated_sim.network_energy_pj / 1_000.0,
        full_sim.network_energy_pj / 1_000.0
    );

    // ------------------------------------------------------------------
    // Bring everything back online (the reverse reconfiguration).
    // ------------------------------------------------------------------
    {
        let gated: Vec<_> = (0..network.num_nodes())
            .map(sf_types::NodeId::new)
            .filter(|&n| network.topology().is_gated(n))
            .collect();
        let mut pm = PowerManager::new(&mut network);
        for node in gated {
            pm.ungate(node)?;
        }
    }
    network.check_invariants()?;
    println!(
        "\nRestored network: {} active nodes, invariants hold",
        network.num_active_nodes()
    );

    Ok(())
}
