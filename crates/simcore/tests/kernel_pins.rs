//! Pins the kernel's exact output on a table of small configurations that
//! the golden CSVs do not reach: one to three virtual channels, tiny queue
//! capacities, saturation, fault storms and power-gated topologies.
//!
//! Each case asserts every [`SimulationStats`] field (the float energies by
//! their bit patterns) and the per-node DRAM statistics (their totals and an
//! FNV-1a digest over the node-id-ordered counters). A change to the kernel
//! that moves any of them — one packet id, one float addition out of order —
//! fails here with the new fingerprint in the message.

use sf_routing::GreediestRouting;
use sf_simcore::{
    MemoryNodeStats, ShardedSimulator, SimulationStats, TrafficModel, TrafficRequest,
    UniformRandomTraffic,
};
use sf_topology::StringFigureTopology;
use sf_types::{
    DeterministicRng, FaultPlan, NetworkConfig, NodeId, SimulationConfig, SystemConfig,
};

/// One pinned configuration.
struct Case {
    name: &'static str,
    nodes: usize,
    topo_seed: u64,
    rate: f64,
    traffic_seed: u64,
    request_reply: bool,
    virtual_channels: usize,
    vc_queue_capacity: usize,
    fault: Option<FaultPlan>,
    /// Nodes power-gated before the run; traffic then targets the rest.
    gated: &'static [usize],
    expected: &'static str,
}

impl Case {
    fn new(name: &'static str, nodes: usize, expected: &'static str) -> Self {
        Self {
            name,
            nodes,
            topo_seed: 0,
            rate: 0.08,
            traffic_seed: 11,
            request_reply: false,
            virtual_channels: 2,
            vc_queue_capacity: 8,
            fault: None,
            gated: &[],
            expected,
        }
    }

    fn run(&self) -> (SimulationStats, Vec<MemoryNodeStats>) {
        let config = NetworkConfig::new(self.nodes, 4)
            .unwrap()
            .with_seed(self.topo_seed);
        let mut topo = StringFigureTopology::generate(&config).unwrap();
        for &node in self.gated {
            topo.gate_node(NodeId::new(node)).unwrap();
        }
        let mut routing = GreediestRouting::new(&topo);
        routing.resync(topo.graph(), topo.spaces());
        let mut sim = ShardedSimulator::new(
            topo.graph().clone(),
            Box::new(routing),
            SystemConfig::default(),
            SimulationConfig {
                max_cycles: 1_200,
                warmup_cycles: 150,
                virtual_channels: self.virtual_channels,
                vc_queue_capacity: self.vc_queue_capacity,
                fault: self.fault,
                ..SimulationConfig::default()
            },
        )
        .unwrap()
        .with_request_reply(self.request_reply);
        let mut traffic: Box<dyn TrafficModel> = if self.gated.is_empty() {
            Box::new(UniformRandomTraffic::new(
                self.nodes,
                self.rate,
                self.traffic_seed,
            ))
        } else {
            Box::new(ActiveUniform {
                active: topo.graph().active_nodes().collect(),
                rate: self.rate,
                rng: DeterministicRng::new(self.traffic_seed),
            })
        };
        let stats = sim.run(traffic.as_mut()).unwrap();
        (stats, sim.memory_stats())
    }
}

/// Uniform-random traffic over the active nodes of a partially gated
/// network.
struct ActiveUniform {
    active: Vec<NodeId>,
    rate: f64,
    rng: DeterministicRng,
}

impl TrafficModel for ActiveUniform {
    fn maybe_inject(&mut self, _cycle: u64, source: NodeId) -> Option<TrafficRequest> {
        if !self.rng.next_bool(self.rate) {
            return None;
        }
        let pick = self.rng.next_index(self.active.len());
        let dest = if self.active[pick] == source {
            self.active[(pick + 1) % self.active.len()]
        } else {
            self.active[pick]
        };
        Some(TrafficRequest::read(dest))
    }
}

/// Every statistic of a run on one line. Destructuring keeps the list
/// exhaustive: a new `SimulationStats` field does not compile until it is
/// pinned here too.
fn fingerprint(stats: &SimulationStats, memory: &[MemoryNodeStats]) -> String {
    let SimulationStats {
        cycles,
        active_nodes,
        injected,
        delivered,
        completed_requests,
        total_latency_cycles,
        max_latency_cycles,
        total_round_trip_cycles,
        total_hops,
        network_energy_pj,
        dram_energy_pj,
        in_flight_at_end,
        backlog_at_end,
        blocked_forwards,
        dropped_packets,
        link_down_events,
        router_down_events,
    } = stats;
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for node in memory {
        for word in [node.reads, node.writes, node.row_hits, node.row_misses] {
            digest = (digest ^ word).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let accesses: u64 = memory.iter().map(MemoryNodeStats::total).sum();
    let row_hits: u64 = memory.iter().map(|node| node.row_hits).sum();
    format!(
        "cycles={cycles} active={active_nodes} injected={injected} delivered={delivered} \
         completed={completed_requests} latency={total_latency_cycles}/{max_latency_cycles} \
         round_trip={total_round_trip_cycles} hops={total_hops} \
         network_pj={:#x} dram_pj={:#x} in_flight={in_flight_at_end} \
         backlog={backlog_at_end} blocked={blocked_forwards} dropped={dropped_packets} \
         faults={link_down_events}/{router_down_events} \
         memory={}x{accesses}/{row_hits}/{digest:#x}",
        network_energy_pj.to_bits(),
        dram_energy_pj.to_bits(),
        memory.len(),
    )
}

fn storm_plan() -> FaultPlan {
    FaultPlan::new(5)
        .starting_at(200)
        .with_period(150)
        .with_severity(2, 1)
        .with_repair_cycles(60)
}

fn cases() -> Vec<Case> {
    vec![
        Case::new(
            "default_48",
            48,
            "cycles=1210 active=48 injected=3954 delivered=3985 completed=0 \
             latency=27372/20 round_trip=0 hops=13430 network_pj=0x418464b400000000 \
             dram_pj=0x0 in_flight=21 backlog=0 blocked=341 dropped=0 faults=0/0 \
             memory=48x0/0/0xab0c262759a1d225",
        ),
        Case {
            request_reply: true,
            ..Case::new(
                "request_reply_48",
                48,
                "cycles=1232 active=48 injected=3954 delivered=8029 completed=4043 \
                 latency=57317/20 round_trip=93905 hops=27198 \
                 network_pj=0x418906cc00000000 dram_pj=0x41775b0000000000 in_flight=82 \
                 backlog=1 blocked=1528 dropped=0 faults=0/0 \
                 memory=48x4515/598/0x3cf80581376a8cd3",
            )
        },
        Case {
            virtual_channels: 1,
            vc_queue_capacity: 2,
            ..Case::new(
                "one_vc_capacity_2",
                40,
                "cycles=1210 active=40 injected=3327 delivered=3337 completed=0 \
                 latency=20960/16 round_trip=0 hops=10304 network_pj=0x417f63f000000000 \
                 dram_pj=0x0 in_flight=19 backlog=0 blocked=222 dropped=0 faults=0/0 \
                 memory=40x0/0/0x81b169c331cabfa5",
            )
        },
        Case {
            topo_seed: 11,
            rate: 0.12,
            request_reply: true,
            virtual_channels: 3,
            vc_queue_capacity: 5,
            ..Case::new(
                "three_vcs_capacity_5",
                56,
                "cycles=1236 active=56 injected=6871 delivered=13931 completed=7021 \
                 latency=108181/25 round_trip=173943 hops=49178 \
                 network_pj=0x419682da00000000 dram_pj=0x41843e8000000000 in_flight=173 \
                 backlog=9 blocked=4489 dropped=0 faults=0/0 \
                 memory=56x7878/761/0x58fe6fe978ab18bb",
            )
        },
        Case {
            topo_seed: 3,
            rate: 0.9,
            traffic_seed: 17,
            ..Case::new(
                "saturated_64",
                64,
                "cycles=2400 active=64 injected=60393 delivered=11498 completed=0 \
                 latency=1393118/422 round_trip=0 hops=42421 \
                 network_pj=0x41a09ba900000000 dram_pj=0x0 in_flight=52618 \
                 backlog=51594 blocked=477853 dropped=0 faults=0/0 \
                 memory=64x0/0/0xd80ac658736bb725",
            )
        },
        Case {
            topo_seed: 2,
            rate: 0.06,
            traffic_seed: 13,
            request_reply: true,
            fault: Some(storm_plan()),
            ..Case::new(
                "storm_request_reply",
                48,
                "cycles=1237 active=48 injected=2912 delivered=5889 completed=2960 \
                 latency=52216/75 round_trip=79416 hops=19092 \
                 network_pj=0x418172e000000000 dram_pj=0x4171298000000000 in_flight=79 \
                 backlog=3 blocked=5465 dropped=77 faults=14/7 \
                 memory=48x3330/378/0x8b3f48bfd3880e51",
            )
        },
        Case {
            topo_seed: 11,
            rate: 0.2,
            traffic_seed: 77,
            virtual_channels: 1,
            fault: Some(
                FaultPlan::new(29)
                    .starting_at(150)
                    .with_period(45)
                    .with_severity(3, 2)
                    .with_repair_cycles(30),
            ),
            ..Case::new(
                "period_45_one_vc",
                56,
                "cycles=1230 active=56 injected=11077 delivered=11002 completed=0 \
                 latency=132433/79 round_trip=0 hops=38976 \
                 network_pj=0x419de29600000000 dram_pj=0x0 in_flight=90 backlog=3 \
                 blocked=16284 dropped=744 faults=72/48 \
                 memory=56x0/0/0xcc6a1ff5f8a224a5",
            )
        },
        Case {
            topo_seed: 7,
            traffic_seed: 23,
            request_reply: true,
            gated: &[3, 17, 31],
            ..Case::new(
                "gated_64",
                64,
                "cycles=1239 active=61 injected=5027 delivered=10223 completed=5158 \
                 latency=80885/23 round_trip=129377 hops=38184 \
                 network_pj=0x419174ca00000000 dram_pj=0x417dad8000000000 in_flight=129 \
                 backlog=4 blocked=2429 dropped=0 faults=0/0 \
                 memory=64x5755/550/0xb2ff3b0596a52d19",
            )
        },
    ]
}

#[test]
fn kernel_output_is_pinned() {
    let mut mismatches = Vec::new();
    for case in cases() {
        let (stats, memory) = case.run();
        assert_eq!(memory.len(), case.nodes, "{}", case.name);
        let actual = fingerprint(&stats, &memory);
        if actual != case.expected {
            mismatches.push(format!("{}:\n  {actual}", case.name));
        }
    }
    assert!(
        mismatches.is_empty(),
        "kernel output moved:\n{}",
        mismatches.join("\n")
    );
}
