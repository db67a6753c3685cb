//! Quickstart: build a String Figure memory network, route packets through
//! it, and run a short cycle-level simulation.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sf_types::{NodeId, SimulationConfig};
use sf_workloads::SyntheticPattern;
use stringfigure::StringFigureNetwork;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // 1. Build a 128-node memory network (1 TB at 8 GiB per node) with
    //    4-port routers, exactly like the paper's smaller working example.
    // ------------------------------------------------------------------
    let network = StringFigureNetwork::builder(128)
        .ports(4)
        .seed(2019)
        .simulation(SimulationConfig {
            max_cycles: 4_000,
            warmup_cycles: 500,
            ..SimulationConfig::default()
        })
        .build()?;

    println!("String Figure memory network");
    println!("  memory nodes      : {}", network.num_nodes());
    println!(
        "  capacity          : {} GiB",
        network.active_capacity_gib()
    );
    println!(
        "  router ports      : {}",
        network.topology().config().ports
    );
    println!(
        "  virtual spaces    : {}",
        network.topology().config().virtual_spaces()
    );
    println!(
        "  fabricated wires  : {}",
        network.topology().total_fabricated_wires()
    );
    println!(
        "  routing table bits: {} per router (average)",
        network.routing_storage_bits() / network.num_nodes() as u64
    );

    // ------------------------------------------------------------------
    // 2. Topology quality: shortest paths stay short even though every
    //    router has only four ports.
    // ------------------------------------------------------------------
    let stats = network.path_stats();
    println!("\nPath lengths (graph metric)");
    println!("  average : {:.2} hops", stats.average);
    println!(
        "  p10/p50/p90 : {} / {} / {}",
        stats.p10, stats.p50, stats.p90
    );
    println!("  diameter: {} hops", stats.diameter);

    // ------------------------------------------------------------------
    // 3. Route a few packets with the greediest protocol and show the
    //    hop-by-hop paths.
    // ------------------------------------------------------------------
    println!("\nGreediest routing examples");
    for (from, to) in [(0usize, 97usize), (5, 64), (127, 3)] {
        let route = network.route(NodeId::new(from), NodeId::new(to))?;
        let path: Vec<String> = route.path.iter().map(ToString::to_string).collect();
        println!(
            "  {from:>3} -> {to:<3} : {} hops  [{}]",
            route.hops(),
            path.join(" -> ")
        );
    }
    let routed = network.average_routed_hops(2_000, 7)?;
    println!("  average routed hops over 2000 random pairs: {routed:.2}");

    // ------------------------------------------------------------------
    // 4. Run uniform-random traffic through the cycle-level simulator.
    // ------------------------------------------------------------------
    println!("\nCycle-level simulation (uniform random, 10% injection)");
    let sim_stats = network.run_pattern(SyntheticPattern::UniformRandom, 0.10, 42)?;
    println!("  injected packets  : {}", sim_stats.injected);
    println!("  delivered packets : {}", sim_stats.delivered);
    println!(
        "  average latency   : {:.1} cycles ({:.1} ns)",
        sim_stats.average_latency_cycles(),
        sim_stats.average_latency_cycles() * network.system().cycle_ns()
    );
    println!("  average hops      : {:.2}", sim_stats.average_hops());
    println!(
        "  network energy    : {:.1} nJ",
        sim_stats.network_energy_pj / 1_000.0
    );
    println!("  saturated         : {}", sim_stats.is_saturated());

    Ok(())
}
