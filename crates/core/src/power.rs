//! Memory-network power management (Section III-C and Figure 9b).
//!
//! String Figure supports dynamically scaling the network down (power gating
//! under-utilised memory nodes and their links) and back up. The paper's
//! four-step atomic reconfiguration — block the affected routing-table
//! entries, enable/disable links, (in)validate entries, unblock — is modelled
//! by [`PowerManager`], which also accounts the sleep/wake latencies and
//! enforces the minimum reconfiguration interval of Table I.

use crate::network::StringFigureNetwork;
use serde::{Deserialize, Serialize};
use sf_types::{DeterministicRng, NodeId, SfError, SfResult};

/// One executed reconfiguration step with its modelled overhead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigurationEvent {
    /// The node gated or un-gated.
    pub node: NodeId,
    /// `true` when the node was switched off.
    pub gated: bool,
    /// Time at which the reconfiguration was applied, in nanoseconds of
    /// the power manager's logical clock.
    pub applied_at_ns: f64,
    /// Latency of the link state change (sleep or wake), in nanoseconds.
    pub latency_ns: f64,
    /// Number of the node's live neighbours, whose one-hop entries for it
    /// flip. The routers whose tables the routing resync rebuilt are counted
    /// by [`GreediestRouting::routers_rebuilt`](sf_routing::GreediestRouting::routers_rebuilt).
    pub routers_updated: usize,
    /// Number of reconfigurable links switched on by this event, as
    /// [`ReconfigurationDelta::shortcuts_enabled`](sf_topology::ReconfigurationDelta::shortcuts_enabled)
    /// lists them: ring-healing and pairing links included, and a link
    /// switched off and back on in the same step counted here and in
    /// `shortcuts_disabled`.
    pub shortcuts_enabled: usize,
    /// Number of reconfigurable links switched off by this event, counted
    /// the same way.
    pub shortcuts_disabled: usize,
}

/// Summary of a power-management session.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerReport {
    /// All reconfiguration events in order.
    pub events: Vec<ReconfigurationEvent>,
    /// Total reconfiguration latency paid, in nanoseconds.
    pub total_latency_ns: f64,
    /// Number of gating requests rejected because they would disconnect the
    /// network.
    pub rejected: usize,
}

impl PowerReport {
    /// Number of nodes currently gated according to this report (gates minus
    /// un-gates).
    #[must_use]
    pub fn net_gated(&self) -> i64 {
        self.events
            .iter()
            .map(|e| if e.gated { 1 } else { -1 })
            .sum()
    }
}

/// Drives dynamic scale-down / scale-up of a [`StringFigureNetwork`].
#[derive(Debug)]
pub struct PowerManager<'a> {
    network: &'a mut StringFigureNetwork,
    clock_ns: f64,
    last_reconfiguration_ns: Option<f64>,
    report: PowerReport,
}

impl<'a> PowerManager<'a> {
    /// Creates a power manager over a network.
    #[must_use]
    pub fn new(network: &'a mut StringFigureNetwork) -> Self {
        Self {
            network,
            clock_ns: 0.0,
            last_reconfiguration_ns: None,
            report: PowerReport::default(),
        }
    }

    /// Advances the logical clock (e.g. to model the time between epochs of
    /// the power-management policy).
    pub fn advance_time(&mut self, ns: f64) {
        self.clock_ns += ns.max(0.0);
    }

    /// The logical time in nanoseconds.
    #[must_use]
    pub fn now_ns(&self) -> f64 {
        self.clock_ns
    }

    /// The accumulated report.
    #[must_use]
    pub fn report(&self) -> &PowerReport {
        &self.report
    }

    fn enforce_granularity(&mut self) -> SfResult<()> {
        let granularity = self.network.system().reconfiguration_granularity_ns;
        if let Some(last) = self.last_reconfiguration_ns {
            if self.clock_ns - last < granularity {
                // The policy asked for a reconfiguration too soon; model the
                // paper's granularity limit by waiting until the window opens.
                self.clock_ns = last + granularity;
            }
        }
        Ok(())
    }

    /// Gates one node off, paying the sleep latency.
    ///
    /// # Errors
    ///
    /// Propagates reconfiguration errors (already gated, disconnection, ...).
    pub fn gate(&mut self, node: NodeId) -> SfResult<ReconfigurationEvent> {
        self.enforce_granularity()?;
        let latency = self.network.system().link_sleep_ns;
        match self.network.gate_node(node) {
            Ok(delta) => {
                let event = ReconfigurationEvent {
                    node,
                    gated: true,
                    applied_at_ns: self.clock_ns,
                    latency_ns: latency,
                    routers_updated: delta.affected_neighbors.len(),
                    shortcuts_enabled: delta.shortcuts_enabled.len(),
                    shortcuts_disabled: delta.shortcuts_disabled.len(),
                };
                self.clock_ns += latency;
                self.last_reconfiguration_ns = Some(self.clock_ns);
                self.report.total_latency_ns += latency;
                self.report.events.push(event.clone());
                Ok(event)
            }
            Err(e) => {
                if matches!(e, SfError::InvalidReconfiguration { .. }) {
                    self.report.rejected += 1;
                }
                Err(e)
            }
        }
    }

    /// Brings a gated node back, paying the wake latency.
    ///
    /// # Errors
    ///
    /// Propagates reconfiguration errors.
    pub fn ungate(&mut self, node: NodeId) -> SfResult<ReconfigurationEvent> {
        self.enforce_granularity()?;
        let latency = self.network.system().link_wake_ns;
        let delta = self.network.ungate_node(node)?;
        let event = ReconfigurationEvent {
            node,
            gated: false,
            applied_at_ns: self.clock_ns,
            latency_ns: latency,
            routers_updated: delta.affected_neighbors.len(),
            shortcuts_enabled: delta.shortcuts_enabled.len(),
            shortcuts_disabled: delta.shortcuts_disabled.len(),
        };
        self.clock_ns += latency;
        self.last_reconfiguration_ns = Some(self.clock_ns);
        self.report.total_latency_ns += latency;
        self.report.events.push(event.clone());
        Ok(event)
    }

    /// Gates off approximately `fraction` of the currently active nodes,
    /// chosen pseudo-randomly, skipping nodes whose removal would disconnect
    /// the network. Returns the nodes actually gated.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidReconfiguration`] if `fraction` is not in
    /// `[0, 1)`.
    pub fn gate_fraction(&mut self, fraction: f64, seed: u64) -> SfResult<Vec<NodeId>> {
        if !(0.0..1.0).contains(&fraction) {
            return Err(SfError::InvalidReconfiguration {
                reason: format!("gating fraction must be in [0, 1), got {fraction}"),
            });
        }
        let mut rng = DeterministicRng::new(seed);
        let mut candidates: Vec<NodeId> = self.network.topology().graph().active_nodes().collect();
        rng.shuffle(&mut candidates);
        let target = (candidates.len() as f64 * fraction).round() as usize;
        let mut gated = Vec::new();
        for node in candidates {
            if gated.len() >= target {
                break;
            }
            if self.gate(node).is_ok() {
                gated.push(node);
            }
        }
        Ok(gated)
    }

    /// Un-gates every node gated through this manager, in reverse order.
    ///
    /// # Errors
    ///
    /// Propagates reconfiguration errors.
    pub fn restore_all(&mut self) -> SfResult<usize> {
        let gated: Vec<NodeId> = self
            .report
            .events
            .iter()
            .filter(|e| e.gated)
            .map(|e| e.node)
            .filter(|&n| self.network.topology().is_gated(n))
            .collect();
        let mut restored = 0;
        for node in gated.into_iter().rev() {
            self.ungate(node)?;
            restored += 1;
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::StringFigureNetwork;

    fn network(nodes: usize) -> StringFigureNetwork {
        StringFigureNetwork::generate(nodes).unwrap()
    }

    #[test]
    fn gate_and_restore_roundtrip() {
        let mut net = network(64);
        let mut pm = PowerManager::new(&mut net);
        let gated = pm.gate_fraction(0.25, 1).unwrap();
        assert!(gated.len() >= 12, "gated only {}", gated.len());
        assert_eq!(pm.report().net_gated(), gated.len() as i64);
        let restored = pm.restore_all().unwrap();
        assert_eq!(restored, gated.len());
        assert_eq!(pm.report().net_gated(), 0);
        drop(pm);
        assert_eq!(net.num_active_nodes(), 64);
        net.check_invariants().unwrap();
    }

    #[test]
    fn latencies_follow_table1() {
        let mut net = network(32);
        let mut pm = PowerManager::new(&mut net);
        let gate_event = pm.gate(NodeId::new(4)).unwrap();
        assert_eq!(gate_event.latency_ns, 680.0);
        assert!(gate_event.routers_updated > 0);
        let ungate_event = pm.ungate(NodeId::new(4)).unwrap();
        assert_eq!(ungate_event.latency_ns, 5_000.0);
        assert!(pm.report().total_latency_ns >= 5_680.0);
    }

    #[test]
    fn granularity_is_enforced() {
        let mut net = network(32);
        let granularity = net.system().reconfiguration_granularity_ns;
        let mut pm = PowerManager::new(&mut net);
        pm.gate(NodeId::new(1)).unwrap();
        let first_done = pm.now_ns();
        pm.gate(NodeId::new(2)).unwrap();
        let second = pm.report().events[1].applied_at_ns;
        assert!(
            second - first_done >= granularity - 1e-9,
            "second reconfiguration at {second} violates the {granularity} ns granularity"
        );
    }

    #[test]
    fn invalid_fraction_rejected() {
        let mut net = network(16);
        let mut pm = PowerManager::new(&mut net);
        assert!(pm.gate_fraction(1.0, 1).is_err());
        assert!(pm.gate_fraction(-0.1, 1).is_err());
        assert!(pm.gate_fraction(0.0, 1).unwrap().is_empty());
    }

    #[test]
    fn double_gate_is_rejected_and_counted() {
        let mut net = network(16);
        let mut pm = PowerManager::new(&mut net);
        pm.gate(NodeId::new(3)).unwrap();
        assert!(pm.gate(NodeId::new(3)).is_err());
        assert_eq!(pm.report().rejected, 1);
    }

    #[test]
    fn clock_advances() {
        let mut net = network(16);
        let mut pm = PowerManager::new(&mut net);
        assert_eq!(pm.now_ns(), 0.0);
        pm.advance_time(500.0);
        assert_eq!(pm.now_ns(), 500.0);
        pm.advance_time(-10.0);
        assert_eq!(pm.now_ns(), 500.0);
    }
}
