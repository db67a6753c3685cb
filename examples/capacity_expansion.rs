//! Static capacity expansion for design reuse: deploy a 256-node String
//! Figure design with only half of the memory nodes mounted, then mount the
//! reserved nodes later without re-fabricating the network.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example capacity_expansion
//! ```

use sf_types::{NodeId, SimulationConfig};
use sf_workloads::SyntheticPattern;
use stringfigure::StringFigureNetwork;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fabricate the full 256-node design once (2 TB at 8 GiB per node).
    let mut network = StringFigureNetwork::builder(256)
        .seed(77)
        .simulation(SimulationConfig {
            max_cycles: 2_500,
            warmup_cycles: 300,
            ..SimulationConfig::default()
        })
        .build()?;
    println!(
        "Fabricated design: {} nodes, {} wires, {} router ports",
        network.num_nodes(),
        network.topology().total_fabricated_wires(),
        network.topology().config().ports
    );

    // ------------------------------------------------------------------
    // Initial deployment: only the first 128 nodes are mounted; the rest are
    // "reserved for future use" exactly as the paper describes. Unmounting
    // uses the same mechanism as power gating, applied at deployment time.
    // ------------------------------------------------------------------
    let mut unmounted = Vec::new();
    for i in (128..256).rev() {
        match network.gate_node(NodeId::new(i)) {
            Ok(_) => unmounted.push(i),
            Err(e) => println!("  keeping node {i} mounted ({e})"),
        }
    }
    println!(
        "\nInitial deployment: {} mounted nodes ({} GiB)",
        network.num_active_nodes(),
        network.active_capacity_gib()
    );
    let before = network.path_stats();
    let before_sim = network.run_pattern(SyntheticPattern::UniformRandom, 0.06, 5)?;
    println!("  average shortest path : {:.2} hops", before.average);
    println!(
        "  simulated latency     : {:.1} cycles",
        before_sim.average_latency_cycles()
    );
    network.check_invariants()?;

    // ------------------------------------------------------------------
    // Capacity upgrade: mount the reserved nodes. Only the affected routing
    // tables change; the fabricated wires and the routing scheme stay as-is.
    // ------------------------------------------------------------------
    let mut mounted = 0;
    for &i in unmounted.iter().rev() {
        network.ungate_node(NodeId::new(i))?;
        mounted += 1;
    }
    println!("\nExpansion: mounted {mounted} additional nodes");
    println!(
        "  new capacity          : {} GiB across {} nodes",
        network.active_capacity_gib(),
        network.num_active_nodes()
    );
    let after = network.path_stats();
    let after_sim = network.run_pattern(SyntheticPattern::UniformRandom, 0.06, 5)?;
    println!("  average shortest path : {:.2} hops", after.average);
    println!(
        "  simulated latency     : {:.1} cycles",
        after_sim.average_latency_cycles()
    );
    network.check_invariants()?;

    // An arbitrary, non-power-of-two deployment also works: mount 213 nodes
    // of a fresh 256-node design.
    let mut odd = StringFigureNetwork::builder(256).seed(78).build()?;
    for i in 213..256 {
        let _ = odd.gate_node(NodeId::new(i));
    }
    println!(
        "\nArbitrary scale deployment: {} nodes mounted (no power-of-two restriction)",
        odd.num_active_nodes()
    );
    odd.check_invariants()?;

    Ok(())
}
