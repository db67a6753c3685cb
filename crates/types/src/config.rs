//! System, network, and simulation configuration.
//!
//! [`SystemConfig`] captures the paper's Table I baseline configuration
//! as far as the model uses it (DRAM timing, cache-line and node capacity,
//! SerDes latency, network clock, energy constants, link power states).
//! [`NetworkConfig`] captures the parameters of topology construction
//! (number of memory nodes `N`, router ports `p`, shortcut policy, seed).
//! [`SimulationConfig`] captures the knobs of the cycle-level simulator.

use crate::error::{SfError, SfResult};
use crate::fault::FaultPlan;
use serde::{Deserialize, Serialize};

/// DRAM timing parameters of one memory node, in nanoseconds (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramTiming {
    /// Row-to-column command delay (ns).
    pub t_rcd_ns: f64,
    /// Column access (CAS) latency (ns).
    pub t_cl_ns: f64,
    /// Row precharge time (ns).
    pub t_rp_ns: f64,
}

impl Default for DramTiming {
    fn default() -> Self {
        // Table I: tRCD=12ns, tCL=6ns, tRP=14ns. The access latencies below
        // do not depend on Table I's tRAS=33ns, so it is not kept.
        Self {
            t_rcd_ns: 12.0,
            t_cl_ns: 6.0,
            t_rp_ns: 14.0,
        }
    }
}

impl DramTiming {
    /// Latency of a row-buffer hit access (CAS only), in nanoseconds.
    #[must_use]
    pub fn row_hit_ns(&self) -> f64 {
        self.t_cl_ns
    }

    /// Latency of a row-buffer miss to an open row (precharge + activate +
    /// CAS), in nanoseconds.
    #[must_use]
    pub fn row_conflict_ns(&self) -> f64 {
        self.t_rp_ns + self.t_rcd_ns + self.t_cl_ns
    }

    /// Latency of an access to a closed bank (activate + CAS), in nanoseconds.
    #[must_use]
    pub fn row_miss_ns(&self) -> f64 {
        self.t_rcd_ns + self.t_cl_ns
    }
}

/// Dynamic-energy constants used by the evaluation (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Network energy per bit per hop, in picojoules.
    pub network_pj_per_bit_hop: f64,
    /// DRAM read/write energy per bit, in picojoules.
    pub dram_pj_per_bit: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // Table I: network 5 pJ/bit/hop; DRAM read/write 12 pJ/bit.
        Self {
            network_pj_per_bit_hop: 5.0,
            dram_pj_per_bit: 12.0,
        }
    }
}

impl EnergyModel {
    /// Dynamic network energy of transferring `bits` over `hops` hops, in
    /// picojoules.
    #[must_use]
    pub fn network_energy_pj(&self, bits: u64, hops: u64) -> f64 {
        self.network_pj_per_bit_hop * bits as f64 * hops as f64
    }

    /// Dynamic DRAM access energy of reading or writing `bits`, in picojoules.
    #[must_use]
    pub fn dram_energy_pj(&self, bits: u64) -> f64 {
        self.dram_pj_per_bit * bits as f64
    }
}

/// Whole-system configuration corresponding to the paper's Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Cache-line size in bytes; also the memory-network payload granularity.
    pub cacheline_bytes: usize,
    /// Capacity per memory node (3D stack) in GiB.
    pub node_capacity_gib: usize,
    /// SerDes latency per hop, in nanoseconds (1.6 ns each side).
    pub serdes_ns_per_hop: f64,
    /// Network (router) clock in MHz. The paper uses the HMC node clock,
    /// 312.5 MHz.
    pub network_clock_mhz: f64,
    /// DRAM timing of each memory node.
    pub dram: DramTiming,
    /// Dynamic-energy constants.
    pub energy: EnergyModel,
    /// Link sleep latency when power-gating a link, in nanoseconds.
    pub link_sleep_ns: f64,
    /// Link wake-up latency when un-gating a link, in nanoseconds.
    pub link_wake_ns: f64,
    /// Minimum interval between dynamic reconfigurations, in nanoseconds.
    pub reconfiguration_granularity_ns: f64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            cacheline_bytes: 64,
            node_capacity_gib: 8,
            serdes_ns_per_hop: 3.2,
            network_clock_mhz: 312.5,
            dram: DramTiming::default(),
            energy: EnergyModel::default(),
            link_sleep_ns: 680.0,
            link_wake_ns: 5_000.0,
            reconfiguration_granularity_ns: 100_000.0,
        }
    }
}

impl SystemConfig {
    /// Duration of one network clock cycle in nanoseconds.
    #[must_use]
    pub fn cycle_ns(&self) -> f64 {
        1_000.0 / self.network_clock_mhz
    }

    /// Converts a duration in nanoseconds to (rounded-up) network cycles.
    #[must_use]
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns / self.cycle_ns()).ceil() as u64
    }

    /// SerDes latency per hop expressed in network cycles (rounded up, at
    /// least one cycle).
    #[must_use]
    pub fn serdes_cycles_per_hop(&self) -> u64 {
        self.ns_to_cycles(self.serdes_ns_per_hop).max(1)
    }

    /// Total memory capacity for a network of `nodes` memory nodes, in GiB.
    #[must_use]
    pub fn total_capacity_gib(&self, nodes: usize) -> usize {
        self.node_capacity_gib * nodes
    }
}

/// Parameters of memory-network topology construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Number of memory nodes `N`. String Figure supports arbitrary `N ≥ 2`.
    pub nodes: usize,
    /// Number of network router ports `p` per node (excluding the terminal
    /// port towards the local processor / memory stack).
    pub ports: usize,
    /// Whether to add the per-node shortcut connections (2-hop and 4-hop
    /// clockwise neighbours in Space-0) used by elastic reconfiguration.
    pub shortcuts: bool,
    /// Number of candidate samples used by balanced coordinate generation.
    pub balance_candidates: usize,
    /// Seed for the deterministic topology random number generator.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            nodes: 128,
            ports: 4,
            shortcuts: true,
            balance_candidates: 8,
            seed: 0x5f5f_5f19,
        }
    }
}

impl NetworkConfig {
    /// Creates a configuration for `nodes` memory nodes with `ports` router
    /// ports, using defaults for everything else.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] under the same conditions as
    /// [`NetworkConfig::validate`].
    pub fn new(nodes: usize, ports: usize) -> SfResult<Self> {
        let config = Self {
            nodes,
            ports,
            ..Self::default()
        };
        config.validate()?;
        Ok(config)
    }

    /// Configuration matching Figure 8's String Figure rows: 4 ports for
    /// N ≤ 128, 8 ports for larger networks.
    #[must_use]
    pub fn figure8_string_figure(nodes: usize) -> Self {
        let ports = if nodes <= 128 { 4 } else { 8 };
        Self {
            nodes,
            ports,
            ..Self::default()
        }
    }

    /// Number of virtual spaces `L = floor(p / 2)`.
    #[must_use]
    pub fn virtual_spaces(&self) -> usize {
        self.ports / 2
    }

    /// Maximum number of routing-table entries per router, `p(p + 1)`
    /// (Section IV of the paper).
    #[must_use]
    pub fn max_routing_table_entries(&self) -> usize {
        self.ports * (self.ports + 1)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] when:
    /// * fewer than 2 nodes are requested,
    /// * fewer than 2 ports are requested (at least one virtual space is
    ///   needed), or
    /// * the balance-candidate count is zero.
    pub fn validate(&self) -> SfResult<()> {
        if self.nodes < 2 {
            return Err(SfError::InvalidConfiguration {
                reason: format!(
                    "a memory network needs at least 2 nodes, got {}",
                    self.nodes
                ),
            });
        }
        if self.ports < 2 {
            return Err(SfError::InvalidConfiguration {
                reason: format!(
                    "string figure needs at least 2 router ports (1 virtual space), got {}",
                    self.ports
                ),
            });
        }
        if self.balance_candidates == 0 {
            return Err(SfError::InvalidConfiguration {
                reason: "balanced coordinate generation needs at least 1 candidate".to_string(),
            });
        }
        Ok(())
    }

    /// Returns a copy of this configuration with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy of this configuration with shortcuts enabled/disabled.
    #[must_use]
    pub fn with_shortcuts(mut self, shortcuts: bool) -> Self {
        self.shortcuts = shortcuts;
        self
    }
}

/// Parameters of the cycle-level network simulator.
///
/// Telemetry recording is not among them: a simulator records a time series
/// only when it is built inside the telemetry capture of a run that asked
/// for one (`sf_obs::telemetry::capture`), at that capture's stride.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Number of virtual channels per input port (2 for String Figure's
    /// deadlock-avoidance scheme).
    pub virtual_channels: usize,
    /// Capacity of each virtual-channel input queue, in packets.
    pub vc_queue_capacity: usize,
    /// Router pipeline latency per hop, in cycles (arbitration + crossbar).
    pub router_latency_cycles: u64,
    /// Extra link latency charged when the 2D-grid wire length exceeds
    /// [`SimulationConfig::long_wire_grid_distance`], in cycles.
    pub long_wire_penalty_cycles: u64,
    /// Grid (Chebyshev) distance above which a wire is "long" (the paper uses
    /// ten memory-node pitches).
    pub long_wire_grid_distance: u32,
    /// Queue-occupancy threshold (fraction) above which adaptive routing
    /// avoids an output port.
    pub adaptive_threshold: f64,
    /// Maximum number of cycles to simulate before declaring saturation.
    pub max_cycles: u64,
    /// Number of warm-up cycles excluded from statistics.
    pub warmup_cycles: u64,
    /// Seed for simulator randomness (injection jitter, tie breaking).
    pub seed: u64,
    /// Router shards of the cycle loop. The kernel routes every router on
    /// one thread, so only `0` and `1` are valid (both mean one); the field
    /// stays for callers that still set it.
    pub shards: usize,
    /// Optional deterministic fault-injection plan (link-down and router
    /// power-gate waves). `None` — the default — is the healthy network and
    /// is guaranteed behaviour-identical to a simulator without any fault
    /// machinery; `Some` plans are pure functions of `(seed, cycle)`.
    pub fault: Option<FaultPlan>,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            virtual_channels: 2,
            vc_queue_capacity: 8,
            router_latency_cycles: 1,
            long_wire_penalty_cycles: 0,
            long_wire_grid_distance: 10,
            adaptive_threshold: 0.5,
            max_cycles: 20_000,
            warmup_cycles: 1_000,
            seed: 0xabcd_1234,
            shards: 0,
            fault: None,
        }
    }
}

impl SimulationConfig {
    /// Returns a copy of this configuration with a fault-injection plan
    /// (`None` restores the healthy network).
    #[must_use]
    pub fn with_fault(mut self, fault: Option<FaultPlan>) -> Self {
        self.fault = fault;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] when queue capacity or
    /// virtual-channel count is zero, the adaptive threshold is outside
    /// `(0, 1]`, or `shards` is above 1.
    pub fn validate(&self) -> SfResult<()> {
        if self.virtual_channels == 0 {
            return Err(SfError::InvalidConfiguration {
                reason: "at least one virtual channel is required".to_string(),
            });
        }
        if self.vc_queue_capacity == 0 {
            return Err(SfError::InvalidConfiguration {
                reason: "virtual-channel queues need capacity of at least one packet".to_string(),
            });
        }
        if !(self.adaptive_threshold > 0.0 && self.adaptive_threshold <= 1.0) {
            return Err(SfError::InvalidConfiguration {
                reason: format!(
                    "adaptive threshold must be in (0, 1], got {}",
                    self.adaptive_threshold
                ),
            });
        }
        if self.warmup_cycles >= self.max_cycles {
            return Err(SfError::InvalidConfiguration {
                reason: "warm-up must be shorter than the total simulated cycles".to_string(),
            });
        }
        if self.shards > 1 {
            return Err(SfError::InvalidConfiguration {
                reason: format!(
                    "shards must be 0 or 1 (the kernel is single-threaded), got {}",
                    self.shards
                ),
            });
        }
        if let Some(fault) = &self.fault {
            fault.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_timing_defaults_match_table1() {
        let t = DramTiming::default();
        assert_eq!(t.t_rcd_ns, 12.0);
        assert_eq!(t.t_cl_ns, 6.0);
        assert_eq!(t.t_rp_ns, 14.0);
        assert_eq!(t.row_hit_ns(), 6.0);
        assert_eq!(t.row_miss_ns(), 18.0);
        assert_eq!(t.row_conflict_ns(), 32.0);
    }

    #[test]
    fn energy_model_matches_table1() {
        let e = EnergyModel::default();
        // 1000 bits over 3 hops at 5 pJ/bit/hop.
        assert_eq!(e.network_energy_pj(1000, 3), 15_000.0);
        assert_eq!(e.dram_energy_pj(512), 6144.0);
    }

    #[test]
    fn system_config_cycle_conversion() {
        let s = SystemConfig::default();
        // 312.5 MHz -> 3.2 ns per cycle.
        assert!((s.cycle_ns() - 3.2).abs() < 1e-9);
        assert_eq!(s.ns_to_cycles(3.2), 1);
        assert_eq!(s.ns_to_cycles(6.5), 3);
        assert_eq!(s.serdes_cycles_per_hop(), 1);
        assert_eq!(s.total_capacity_gib(1296), 10368);
    }

    #[test]
    fn network_config_virtual_spaces() {
        let c = NetworkConfig::new(9, 4).unwrap();
        assert_eq!(c.virtual_spaces(), 2);
        assert_eq!(c.max_routing_table_entries(), 20);
        let c8 = NetworkConfig::new(1296, 8).unwrap();
        assert_eq!(c8.virtual_spaces(), 4);
        assert_eq!(c8.max_routing_table_entries(), 72);
    }

    #[test]
    fn network_config_validation() {
        assert!(NetworkConfig::new(1, 4).is_err());
        assert!(NetworkConfig::new(16, 1).is_err());
        assert!(NetworkConfig::new(16, 2).is_ok());
        let c = NetworkConfig {
            balance_candidates: 0,
            ..NetworkConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn figure8_port_selection() {
        assert_eq!(NetworkConfig::figure8_string_figure(16).ports, 4);
        assert_eq!(NetworkConfig::figure8_string_figure(128).ports, 4);
        assert_eq!(NetworkConfig::figure8_string_figure(256).ports, 8);
        assert_eq!(NetworkConfig::figure8_string_figure(1296).ports, 8);
    }

    #[test]
    fn builder_style_modifiers() {
        let c = NetworkConfig::default().with_seed(7).with_shortcuts(false);
        assert_eq!(c.seed, 7);
        assert!(!c.shortcuts);
    }

    #[test]
    fn simulation_config_validation() {
        assert!(SimulationConfig::default().validate().is_ok());
        let c = SimulationConfig {
            virtual_channels: 0,
            ..SimulationConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SimulationConfig {
            vc_queue_capacity: 0,
            ..SimulationConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SimulationConfig {
            adaptive_threshold: 0.0,
            ..SimulationConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SimulationConfig {
            adaptive_threshold: 1.5,
            ..SimulationConfig::default()
        };
        assert!(c.validate().is_err());
        let mut c = SimulationConfig::default();
        c.warmup_cycles = c.max_cycles;
        assert!(c.validate().is_err());
    }

    #[test]
    fn shard_counts_above_one_are_rejected() {
        for shards in [0, 1] {
            let c = SimulationConfig {
                shards,
                ..SimulationConfig::default()
            };
            assert!(c.validate().is_ok(), "shards={shards}");
        }
        let c = SimulationConfig {
            shards: 2,
            ..SimulationConfig::default()
        };
        let error = c.validate().unwrap_err().to_string();
        assert!(error.contains("shards"), "{error}");
    }

    #[test]
    fn fault_plan_threads_through_simulation_config() {
        let c = SimulationConfig::default();
        assert!(c.fault.is_none());
        let faulty = c.clone().with_fault(Some(FaultPlan::new(3)));
        assert!(faulty.validate().is_ok());
        assert_eq!(faulty.fault.unwrap().seed, 3);
        let invalid = c.with_fault(Some(FaultPlan::new(3).with_period(0)));
        assert!(invalid.validate().is_err());
    }
}
