//! Pins the kernel's allocation-free steady state with a counting global
//! allocator: after warm-up, advancing a single-shard simulator by one cycle
//! performs **zero** heap allocations — packet queues and arrival inboxes
//! recycle pooled slots, and routing decides without allocating. One
//! protocol of each family is checked: greediest (SF), mesh (DM) and
//! shortest path (FB), and FB once more at 324 nodes, whose routers have 68
//! input queues: more than one 64-bit word of occupancy bits.
//!
//! This must stay the ONLY test in this file: the `#[global_allocator]` is
//! process-wide, and a concurrently running test would count its own
//! allocations into the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sf_routing::{GreediestRouting, MeshRouting, RoutingProtocol, ShortestPathRouting};
use sf_simcore::{ShardedSimulator, UniformRandomTraffic};
use sf_topology::baselines::MemoryNetworkTopology;
use sf_topology::{AdjacencyGraph, FlattenedButterfly, MeshTopology, StringFigureTopology};
use sf_types::{NetworkConfig, SimulationConfig, SystemConfig};

/// Counts allocation events (alloc + realloc); frees are not interesting —
/// any steady-state free implies a matching earlier alloc.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_cycles_allocate_nothing() {
    let sf =
        StringFigureTopology::generate(&NetworkConfig::new(48, 4).unwrap().with_seed(9)).unwrap();
    let dm = MeshTopology::distributed(48).unwrap();
    let fb = FlattenedButterfly::full(48).unwrap();
    let fb_324 = FlattenedButterfly::full(324).unwrap();
    let cases: [(&str, &AdjacencyGraph, Box<dyn RoutingProtocol>); 4] = [
        (
            "SF greediest",
            sf.graph(),
            Box::new(GreediestRouting::new(&sf)),
        ),
        ("DM mesh", dm.graph(), Box::new(MeshRouting::new(&dm))),
        (
            "FB shortest path",
            fb.graph(),
            Box::new(ShortestPathRouting::new(fb.graph(), "minimal-adaptive")),
        ),
        (
            "FB shortest path, 324 nodes",
            fb_324.graph(),
            Box::new(ShortestPathRouting::new(fb_324.graph(), "minimal-adaptive")),
        ),
    ];
    let mut allocations = Vec::new();
    for (label, graph, routing) in cases {
        let mut sim = ShardedSimulator::new(
            graph.clone(),
            routing,
            SystemConfig::default(),
            SimulationConfig {
                max_cycles: 10_000, // irrelevant: we single-step
                warmup_cycles: 100,
                shards: 1,
                ..SimulationConfig::default()
            },
        )
        .unwrap()
        .with_request_reply(true);
        let mut traffic = UniformRandomTraffic::new(graph.num_nodes(), 0.08, 42);

        // Warm-up: pools grow to their steady-state high-water marks, the
        // reply heap and routing scratch reach capacity, every queue has been
        // touched.
        for _ in 0..1_000 {
            sim.step_one(&mut traffic).unwrap();
        }

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..300 {
            sim.step_one(&mut traffic).unwrap();
        }
        allocations.push((label, ALLOCATIONS.load(Ordering::Relaxed) - before));
    }
    assert!(
        allocations.iter().all(|&(_, count)| count == 0),
        "heap allocations in 300 steady-state cycles: {allocations:?}"
    );
}
