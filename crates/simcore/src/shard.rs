//! Shard planning: which worker owns which router, and which routers a
//! router must wait for inside a cycle.
//!
//! # Why sharding a cycle-level simulator is delicate
//!
//! The simulator's per-cycle routing phase is *not* embarrassingly parallel:
//! when router `m` makes a forwarding decision it reads the credit counters
//! of its neighbours' input queues (for the adaptive load estimate and the
//! credit check), and those counters are decremented by the neighbours' own
//! queue pops *in the same cycle*. In the reference serial loop routers run
//! in id order, so router `m` observes the pops of every neighbour `x < m`
//! and none of any neighbour `x > m`.
//!
//! The saving grace is locality: a credit counter for the link `m → x` is
//! written only by `m` (credit take on forward) and by `x` (credit return on
//! pop), and read only by `m`. Nothing else in the routing phase couples two
//! routers — queues are per-router, link traversals take at least one cycle,
//! and all remaining side effects (statistics, in-flight hand-off, DRAM
//! service and reply creation) are deferred to a serial commit. So the
//! serial loop's data dependencies form a DAG: **router `m` depends exactly
//! on its smaller-id neighbours**.
//!
//! [`ShardPlan`] turns that DAG into a schedule. Routers are dealt
//! round-robin to `count` shards (`owner = id % count`), each shard processes
//! its members in increasing id order, and before processing router `m` a
//! shard waits (on a per-router epoch) for `m`'s smaller-id neighbours owned
//! by *other* shards. Any execution respecting those waits makes every router
//! observe exactly the state it would have seen in the serial loop — which is
//! why results are bit-identical for every shard count, including 1.
//!
//! Round-robin ownership matters: contiguous ranges would make shard `k`'s
//! first router wait on ids scattered through shard `k-1`'s whole range,
//! serialising the phase into a pipeline. With interleaved ownership all
//! shards advance through the id space in lockstep and waits are rare.

use sf_types::SimulationConfig;

/// Below this many active routers automatic selection stays serial: a cycle
/// of a small network is microseconds, and two barrier crossings per cycle
/// would cost more than the sharded work saves.
pub const AUTO_MIN_NODES: usize = 192;

/// Automatic selection aims for at least this many routers per shard so the
/// per-cycle synchronisation amortises.
pub const AUTO_NODES_PER_SHARD: usize = 96;

/// Resolves the shard count for a simulation over `active_nodes` routers.
///
/// An explicit `config.shards` wins; `0` selects the automatic policy —
/// serial below [`AUTO_MIN_NODES`] routers, otherwise the intra-job share of
/// the process core budget (see `sf_harness::budget`), capped so each shard
/// keeps at least [`AUTO_NODES_PER_SHARD`] routers. The result is always in
/// `1..=active_nodes` and never affects simulation output, only wall-clock
/// time.
#[must_use]
pub fn resolve_shard_count(config: &SimulationConfig, active_nodes: usize) -> usize {
    let count = if config.shards > 0 {
        config.shards
    } else if active_nodes < AUTO_MIN_NODES {
        1
    } else {
        sf_harness::budget::intra_job_share().min(active_nodes / AUTO_NODES_PER_SHARD)
    };
    count.clamp(1, active_nodes.max(1))
}

/// The static schedule of one sharded simulation: ownership plus per-router
/// wait lists.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    count: usize,
    /// `members[s]` — router ids owned by shard `s`, in increasing order.
    members: Vec<Vec<usize>>,
    /// `wait_for[m]` — smaller-id routers `m` must wait for before being
    /// processed: active graph neighbours (in either link direction) owned by
    /// a different shard. Same-shard predecessors need no wait — the owner
    /// processes its members in id order.
    wait_for: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Builds the schedule for `count` shards over a network given each
    /// router's active-neighbour lists and activity flags.
    ///
    /// `adjacency[m]` lists the routers `m` can forward to. Dependencies are
    /// added for both directions of every link so the plan stays correct even
    /// for asymmetric (uni-directional) graphs, where `x`'s credit state can
    /// depend on `m` without `m` appearing in `adjacency[x]`.
    #[must_use]
    pub fn new(adjacency: &[Vec<sf_types::NodeId>], active: &[bool], count: usize) -> Self {
        let n = adjacency.len();
        let count = count.clamp(1, n.max(1));
        let mut members = vec![Vec::new(); count];
        for m in 0..n {
            members[m % count].push(m);
        }
        let mut wait_for = vec![Vec::new(); n];
        if count > 1 {
            for (m, neighbors) in adjacency.iter().enumerate() {
                if !active[m] {
                    continue;
                }
                for x in neighbors {
                    let x = x.index();
                    if !active[x] {
                        continue;
                    }
                    // The larger endpoint waits for the smaller one when they
                    // live in different shards.
                    let (small, large) = if x < m { (x, m) } else { (m, x) };
                    if small % count != large % count {
                        wait_for[large].push(small);
                    }
                }
            }
            for list in &mut wait_for {
                list.sort_unstable();
                list.dedup();
            }
        }
        Self {
            count,
            members,
            wait_for,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Router ids owned by shard `s`, in increasing order.
    #[must_use]
    pub fn members(&self, s: usize) -> &[usize] {
        &self.members[s]
    }

    /// Where router `m` lives: `(owning shard, slot within that shard)`.
    ///
    /// This is the single source of truth for the ownership mapping — all
    /// kernel state indexed per shard must go through it, so a change of
    /// assignment strategy cannot silently desynchronise the call sites.
    #[must_use]
    pub fn locate(&self, m: usize) -> (usize, usize) {
        (m % self.count, m / self.count)
    }

    /// Smaller-id routers `m` must wait for before its routing step.
    #[must_use]
    pub fn wait_for(&self, m: usize) -> &[usize] {
        &self.wait_for[m]
    }

    /// Every router's location in increasing id order, as
    /// `(router id, owning shard, slot within that shard)` — the iteration
    /// shape of every id-ordered walk over sharded state (stat merging,
    /// memory stats, telemetry sampling).
    pub fn locations(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (0..self.wait_for.len()).map(|m| {
            let (shard, slot) = self.locate(m);
            (m, shard, slot)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_types::NodeId;

    fn ring(n: usize) -> Vec<Vec<NodeId>> {
        (0..n)
            .map(|i| vec![NodeId::new((i + 1) % n), NodeId::new((i + n - 1) % n)])
            .collect()
    }

    #[test]
    fn ownership_is_round_robin_and_ordered() {
        let adj = ring(10);
        let plan = ShardPlan::new(&adj, &[true; 10], 3);
        assert_eq!(plan.count(), 3);
        assert_eq!(plan.members(0), &[0, 3, 6, 9]);
        assert_eq!(plan.members(1), &[1, 4, 7]);
        assert_eq!(plan.members(2), &[2, 5, 8]);
    }

    #[test]
    fn waits_cover_cross_shard_smaller_neighbors_only() {
        let adj = ring(6);
        let plan = ShardPlan::new(&adj, &[true; 6], 2);
        // Node 3's ring neighbours are 2 and 4; it waits only for the smaller
        // one (2), which lives in the other shard (2 % 2 == 0 != 3 % 2).
        assert_eq!(plan.wait_for(3), &[2]);
        // Node 2's smaller neighbour is 1 (other shard); 3 is larger.
        assert_eq!(plan.wait_for(2), &[1]);
        // Node 0 has no smaller neighbours at all.
        assert!(plan.wait_for(0).is_empty());
        // Node 5 neighbours 4 (other shard) and 0 (wrap, other... 0 % 2 == 0,
        // 5 % 2 == 1): both smaller and cross-shard.
        assert_eq!(plan.wait_for(5), &[0, 4]);
    }

    #[test]
    fn serial_plan_has_no_waits() {
        let adj = ring(8);
        let plan = ShardPlan::new(&adj, &[true; 8], 1);
        assert_eq!(plan.count(), 1);
        for m in 0..8 {
            assert!(plan.wait_for(m).is_empty());
        }
        assert_eq!(plan.members(0).len(), 8);
    }

    #[test]
    fn inactive_nodes_create_no_dependencies() {
        let adj = ring(6);
        let mut active = vec![true; 6];
        active[2] = false;
        let plan = ShardPlan::new(&adj, &active, 2);
        // 3's only smaller neighbour (2) is inactive: no wait.
        assert!(plan.wait_for(3).is_empty());
    }

    #[test]
    fn shard_count_is_clamped() {
        let adj = ring(4);
        let plan = ShardPlan::new(&adj, &[true; 4], 99);
        assert_eq!(plan.count(), 4);
        let config = SimulationConfig {
            shards: 200,
            ..SimulationConfig::default()
        };
        assert_eq!(resolve_shard_count(&config, 64), 64);
        let serial = SimulationConfig {
            shards: 1,
            ..SimulationConfig::default()
        };
        assert_eq!(resolve_shard_count(&serial, 1_000), 1);
    }

    #[test]
    fn auto_policy_keeps_small_networks_serial() {
        // Explicit shards take priority; with shards = 0 a small network
        // resolves to 1 regardless of the machine.
        let auto = SimulationConfig {
            shards: 0,
            ..SimulationConfig::default()
        };
        assert_eq!(resolve_shard_count(&auto, AUTO_MIN_NODES - 1), 1);
    }
}
