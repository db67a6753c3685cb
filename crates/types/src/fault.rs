//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] describes when links go down, when routers are
//! power-gated, and when each fault is repaired — as a **pure function of
//! `(seed, cycle)`**. The plan itself holds no mutable state: given the same
//! plan, every consumer derives the same fault schedule, which is what lets
//! the simulation kernel apply faults at cycle boundaries while keeping
//! results bit-identical for every sweep worker count.
//!
//! The schedule is organised in *waves*: starting at
//! [`FaultPlan::start_cycle`], every [`FaultPlan::period`] cycles a wave
//! strikes, taking down up to [`FaultPlan::links_per_wave`] links and
//! power-gating up to [`FaultPlan::routers_per_wave`] routers. Victims are
//! chosen by a stateless hash of `(seed, wave, stream, draw)`
//! ([`FaultPlan::draw`]), and every fault heals deterministically
//! [`FaultPlan::repair_cycles`] later.

use crate::error::{SfError, SfResult};
use serde::{Deserialize, Serialize};

/// A deterministic schedule of link failures and router power-gate events.
///
/// All fields are plain scalars, so the plan is `Copy` and can ride inside
/// `SimulationConfig` without breaking value semantics. `Default` is a
/// mild plan (one link per wave, no router gating) — construct explicitly
/// for anything serious.
///
/// # Examples
///
/// ```
/// use sf_types::fault::FaultPlan;
///
/// let plan = FaultPlan::new(7);
/// assert!(plan.validate().is_ok());
/// // Waves are a pure function of the cycle.
/// assert_eq!(plan.wave_at(plan.start_cycle), Some(0));
/// assert_eq!(plan.wave_at(plan.start_cycle + plan.period), Some(1));
/// assert_eq!(plan.wave_at(plan.start_cycle + 1), None);
/// // Victim draws are reproducible.
/// assert_eq!(plan.draw(3, 0, 1), plan.draw(3, 0, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the victim-selection hash stream.
    pub seed: u64,
    /// First cycle at which a wave may strike (conventionally set at or
    /// after the warm-up boundary so baselines stay comparable).
    pub start_cycle: u64,
    /// Cycles between consecutive fault waves (must be at least 1).
    pub period: u64,
    /// Undirected links taken down per wave (both directions fail together).
    pub links_per_wave: usize,
    /// Routers power-gated per wave; their queued packets are dropped.
    pub routers_per_wave: usize,
    /// Cycles a fault lasts before its deterministic repair (at least 1).
    pub repair_cycles: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0xfa01_7f19,
            start_cycle: 0,
            period: 200,
            links_per_wave: 1,
            routers_per_wave: 0,
            repair_cycles: 100,
        }
    }
}

impl FaultPlan {
    /// A default-shaped plan with an explicit selection seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Returns a copy striking its first wave at `cycle`.
    #[must_use]
    pub fn starting_at(mut self, cycle: u64) -> Self {
        self.start_cycle = cycle;
        self
    }

    /// Returns a copy with the given wave period.
    #[must_use]
    pub fn with_period(mut self, period: u64) -> Self {
        self.period = period;
        self
    }

    /// Returns a copy taking down `links` links and gating `routers` routers
    /// per wave.
    #[must_use]
    pub fn with_severity(mut self, links: usize, routers: usize) -> Self {
        self.links_per_wave = links;
        self.routers_per_wave = routers;
        self
    }

    /// Returns a copy with the given repair latency.
    #[must_use]
    pub fn with_repair_cycles(mut self, repair_cycles: u64) -> Self {
        self.repair_cycles = repair_cycles;
        self
    }

    /// Whether the plan can ever produce a fault.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.links_per_wave > 0 || self.routers_per_wave > 0
    }

    /// The wave striking at `cycle`, if any: wave `w` strikes exactly at
    /// `start_cycle + w * period`. Pure — no state is consumed.
    #[must_use]
    pub fn wave_at(&self, cycle: u64) -> Option<u64> {
        if self.period == 0 || cycle < self.start_cycle {
            return None;
        }
        let delta = cycle - self.start_cycle;
        delta
            .is_multiple_of(self.period)
            .then_some(delta / self.period)
    }

    /// Draw `draw` of victim stream `stream` in wave `wave`: a stateless
    /// [`splitmix64`](crate::rng::splitmix64) hash of
    /// `(seed, wave, stream, draw)`. Streams keep link victims and router
    /// victims statistically independent.
    #[must_use]
    pub fn draw(&self, wave: u64, stream: u64, draw: u64) -> u64 {
        crate::rng::splitmix64(
            self.seed
                .wrapping_add(wave.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
                .wrapping_add(draw.wrapping_mul(0x94d0_49bb_1331_11eb)),
        )
    }

    /// Validates the plan.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidConfiguration`] when the period or the
    /// repair latency is zero.
    pub fn validate(&self) -> SfResult<()> {
        if self.period == 0 {
            return Err(SfError::InvalidConfiguration {
                reason: "fault plan period must be at least 1 cycle".to_string(),
            });
        }
        if self.repair_cycles == 0 {
            return Err(SfError::InvalidConfiguration {
                reason: "fault repair latency must be at least 1 cycle".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waves_are_pure_and_periodic() {
        let plan = FaultPlan::new(1).starting_at(100).with_period(50);
        assert_eq!(plan.wave_at(99), None);
        assert_eq!(plan.wave_at(100), Some(0));
        assert_eq!(plan.wave_at(149), None);
        assert_eq!(plan.wave_at(150), Some(1));
        assert_eq!(plan.wave_at(350), Some(5));
    }

    #[test]
    fn draws_are_deterministic_and_stream_separated() {
        let plan = FaultPlan::new(42);
        assert_eq!(plan.draw(0, 0, 0), plan.draw(0, 0, 0));
        assert_ne!(plan.draw(0, 0, 0), plan.draw(0, 1, 0));
        assert_ne!(plan.draw(0, 0, 0), plan.draw(1, 0, 0));
        assert_ne!(plan.draw(0, 0, 0), plan.draw(0, 0, 1));
        // Different seeds give different streams.
        assert_ne!(
            FaultPlan::new(1).draw(0, 0, 0),
            FaultPlan::new(2).draw(0, 0, 0)
        );
    }

    #[test]
    fn builders_and_validation() {
        let plan = FaultPlan::new(9)
            .starting_at(500)
            .with_period(80)
            .with_severity(3, 2)
            .with_repair_cycles(40);
        assert_eq!(plan.start_cycle, 500);
        assert_eq!(plan.period, 80);
        assert_eq!(plan.links_per_wave, 3);
        assert_eq!(plan.routers_per_wave, 2);
        assert_eq!(plan.repair_cycles, 40);
        assert!(plan.is_active());
        assert!(plan.validate().is_ok());
        assert!(!FaultPlan::new(9).with_severity(0, 0).is_active());
        assert!(FaultPlan::new(9).with_period(0).validate().is_err());
        assert!(FaultPlan::new(9).with_repair_cycles(0).validate().is_err());
    }

    #[test]
    fn zero_period_never_waves() {
        let plan = FaultPlan::new(1).with_period(0);
        for cycle in 0..100 {
            assert_eq!(plan.wave_at(cycle), None);
        }
    }
}
