//! The synthetic traffic patterns of Table III.
//!
//! Each pattern maps a source node to a destination node; the traffic model
//! injects a request towards that destination with a configurable per-node,
//! per-cycle injection probability. Destination formulas follow the paper's
//! Table III, with node count `N` standing in for `nports`:
//!
//! | pattern            | destination                                        |
//! |---------------------|---------------------------------------------------|
//! | uniform random      | `randint(0, N-1)`                                  |
//! | tornado             | `(src + N/2) % N`                                  |
//! | hotspot             | node 0                                             |
//! | opposite            | `N - 1 - src`                                      |
//! | nearest neighbour   | `src + 1`                                          |
//! | complement          | `src XOR (N-1)` (bit complement)                   |
//! | partition-2         | random destination within the source's half        |
//!
//! Beyond Table III, three **adversarial** patterns stress the network in
//! ways the paper's evaluation never does (see
//! [`SyntheticPattern::ADVERSARIAL`]):
//!
//! | pattern        | behaviour                                                |
//! |----------------|----------------------------------------------------------|
//! | hotspot storm  | all nodes converge on one victim that rotates every 128 cycles |
//! | bursty on/off  | double-rate injection during 64-cycle "on" windows, silence during the "off" windows between |
//! | bit reversal   | worst-case static permutation: `rev_bits(src)` within `ceil(log2 N)` bits |

use serde::{Deserialize, Serialize};
use sf_netsim::{TrafficModel, TrafficRequest};
use sf_types::rng::splitmix64;
use sf_types::{DeterministicRng, NodeId};
use std::fmt;

/// One of the synthetic traffic patterns of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyntheticPattern {
    /// Each node sends to a uniformly random destination.
    UniformRandom,
    /// Each node sends to the node halfway around the network.
    Tornado,
    /// Every node sends to node 0.
    Hotspot,
    /// Each node sends to its mirror on the opposite side of the network.
    Opposite,
    /// Each node sends to its successor.
    NearestNeighbor,
    /// Each node sends to its bitwise complement.
    Complement,
    /// The network is split into two halves; nodes send to random nodes within
    /// their half.
    Partition2,
    /// Adversarial: every node targets one victim node, and the victim
    /// rotates pseudo-randomly every 128 cycles — a moving congestion
    /// singularity no static provisioning can absorb.
    HotspotStorm,
    /// Adversarial: traffic arrives in on/off bursts of 64 cycles — double
    /// the configured rate during "on" windows, silence during "off" windows
    /// — so queues see the worst transient load a given average rate can
    /// produce.
    BurstyOnOff,
    /// Adversarial: the bit-reversal permutation (`rev_bits(src)` within
    /// `ceil(log2 N)` bits), a classic worst case for minimal routing.
    BitReversal,
}

impl SyntheticPattern {
    /// All seven patterns, in the order Table III lists them.
    pub const ALL: [Self; 7] = [
        Self::UniformRandom,
        Self::Tornado,
        Self::Hotspot,
        Self::Opposite,
        Self::NearestNeighbor,
        Self::Complement,
        Self::Partition2,
    ];

    /// The three adversarial patterns that go beyond the paper's Table III.
    pub const ADVERSARIAL: [Self; 3] = [Self::HotspotStorm, Self::BurstyOnOff, Self::BitReversal];

    /// Short name used in experiment output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::UniformRandom => "uniform_random",
            Self::Tornado => "tornado",
            Self::Hotspot => "hotspot",
            Self::Opposite => "opposite",
            Self::NearestNeighbor => "neighbor",
            Self::Complement => "complement",
            Self::Partition2 => "partition2",
            Self::HotspotStorm => "hotspot_storm",
            Self::BurstyOnOff => "bursty_onoff",
            Self::BitReversal => "bit_reversal",
        }
    }

    /// The pattern whose [`name`](Self::name) is `name`, if any — the inverse
    /// of the experiment-output rendering, used when restoring checkpointed
    /// rows. Covers both the Table III and the adversarial patterns.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .chain(Self::ADVERSARIAL)
            .find(|p| p.name() == name)
    }
}

impl fmt::Display for SyntheticPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Cycles a hotspot-storm victim reigns before the storm moves on.
const STORM_PERIOD: u64 = 128;

/// Cycles of one on or off window of the bursty pattern.
const BURST_PERIOD: u64 = 64;

/// A [`TrafficModel`] producing one of the synthetic patterns at a fixed
/// injection rate.
#[derive(Debug, Clone)]
pub struct PatternTraffic {
    pattern: SyntheticPattern,
    num_nodes: usize,
    injection_rate: f64,
    rng: DeterministicRng,
}

impl PatternTraffic {
    /// Creates pattern traffic over `num_nodes` nodes. `injection_rate` is the
    /// probability that a node injects a packet in a given cycle.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    #[must_use]
    pub fn new(
        pattern: SyntheticPattern,
        num_nodes: usize,
        injection_rate: f64,
        seed: u64,
    ) -> Self {
        assert!(num_nodes > 0, "pattern traffic needs at least one node");
        Self {
            pattern,
            num_nodes,
            injection_rate: injection_rate.clamp(0.0, 1.0),
            rng: DeterministicRng::new(seed),
        }
    }

    /// The pattern this traffic model produces.
    #[must_use]
    pub fn pattern(&self) -> SyntheticPattern {
        self.pattern
    }

    /// The configured injection rate.
    #[must_use]
    pub fn injection_rate(&self) -> f64 {
        self.injection_rate
    }

    /// The destination the pattern maps `source` to (drawing random numbers
    /// for the random patterns). Cycle-driven patterns behave as at cycle 0;
    /// use [`destination_at`](Self::destination_at) for those.
    pub fn destination(&mut self, source: NodeId) -> NodeId {
        self.destination_at(0, source)
    }

    /// The destination the pattern maps `source` to at `cycle`. Only the
    /// adversarial patterns depend on the cycle; for the Table III patterns
    /// this is identical to [`destination`](Self::destination).
    pub fn destination_at(&mut self, cycle: u64, source: NodeId) -> NodeId {
        let n = self.num_nodes;
        let src = source.index();
        let dest = match self.pattern {
            SyntheticPattern::UniformRandom => self.rng.next_index(n),
            SyntheticPattern::Tornado => (src + n / 2) % n,
            SyntheticPattern::Hotspot => 0,
            SyntheticPattern::Opposite => n - 1 - src,
            SyntheticPattern::NearestNeighbor => (src + 1) % n,
            SyntheticPattern::Complement => {
                let bits = usize::BITS - (n - 1).leading_zeros();
                let mask = if bits == 0 { 0 } else { (1usize << bits) - 1 };
                (src ^ mask) % n
            }
            SyntheticPattern::Partition2 => {
                let half = (n / 2).max(1);
                let group = src / half;
                let within = self.rng.next_index(half);
                (group * half + within).min(n - 1)
            }
            SyntheticPattern::HotspotStorm => {
                // The victim is a pure function of the storm epoch — every
                // node agrees on it without consuming any RNG stream.
                let epoch = cycle / STORM_PERIOD;
                (splitmix64(epoch) as usize) % n
            }
            SyntheticPattern::BurstyOnOff => self.rng.next_index(n),
            SyntheticPattern::BitReversal => {
                let bits = usize::BITS - (n - 1).leading_zeros();
                if bits == 0 {
                    0
                } else {
                    ((src as u64).reverse_bits() >> (64 - bits)) as usize % n
                }
            }
        };
        NodeId::new(dest % n)
    }

    /// Whether a bursty-pattern node may inject at `cycle` (always true for
    /// the other patterns).
    #[must_use]
    pub fn burst_window_open(&self, cycle: u64) -> bool {
        self.pattern != SyntheticPattern::BurstyOnOff || (cycle / BURST_PERIOD).is_multiple_of(2)
    }
}

impl TrafficModel for PatternTraffic {
    fn maybe_inject(&mut self, cycle: u64, source: NodeId) -> Option<TrafficRequest> {
        // Bursty traffic concentrates its average load into the "on"
        // windows: silence off-window (no RNG consumed — the decision is a
        // pure function of the cycle), double rate on-window.
        let rate = if self.pattern == SyntheticPattern::BurstyOnOff {
            if !self.burst_window_open(cycle) {
                return None;
            }
            (self.injection_rate * 2.0).min(1.0)
        } else {
            self.injection_rate
        };
        if !self.rng.next_bool(rate) {
            return None;
        }
        let mut dest = self.destination_at(cycle, source);
        if dest == source {
            // Self-traffic exercises nothing in the network; redirect to the
            // successor as the nearest meaningful destination.
            dest = NodeId::new((source.index() + 1) % self.num_nodes);
        }
        Some(TrafficRequest::read(dest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn tornado_and_opposite_formulas() {
        let mut t = PatternTraffic::new(SyntheticPattern::Tornado, 64, 1.0, 1);
        assert_eq!(t.destination(n(0)), n(32));
        assert_eq!(t.destination(n(40)), n(8));
        let mut o = PatternTraffic::new(SyntheticPattern::Opposite, 64, 1.0, 1);
        assert_eq!(o.destination(n(0)), n(63));
        assert_eq!(o.destination(n(63)), n(0));
        assert_eq!(o.destination(n(10)), n(53));
    }

    #[test]
    fn neighbor_and_complement_formulas() {
        let mut nn = PatternTraffic::new(SyntheticPattern::NearestNeighbor, 16, 1.0, 1);
        assert_eq!(nn.destination(n(3)), n(4));
        assert_eq!(nn.destination(n(15)), n(0));
        let mut c = PatternTraffic::new(SyntheticPattern::Complement, 16, 1.0, 1);
        assert_eq!(c.destination(n(0)), n(15));
        assert_eq!(c.destination(n(5)), n(10));
    }

    #[test]
    fn complement_on_non_power_of_two() {
        let mut c = PatternTraffic::new(SyntheticPattern::Complement, 10, 1.0, 1);
        for i in 0..10 {
            let d = c.destination(n(i));
            assert!(d.index() < 10);
        }
    }

    #[test]
    fn hotspot_targets_single_node() {
        let mut h = PatternTraffic::new(SyntheticPattern::Hotspot, 32, 1.0, 1);
        for i in 0..32 {
            assert_eq!(h.destination(n(i)), n(0));
        }
    }

    #[test]
    fn uniform_random_covers_the_network() {
        let mut u = PatternTraffic::new(SyntheticPattern::UniformRandom, 16, 1.0, 3);
        let mut seen = [false; 16];
        for _ in 0..1000 {
            seen[u.destination(n(0)).index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn partition2_stays_within_half() {
        let mut p = PatternTraffic::new(SyntheticPattern::Partition2, 64, 1.0, 5);
        for _ in 0..200 {
            assert!(p.destination(n(3)).index() < 32);
            assert!(p.destination(n(40)).index() >= 32);
        }
    }

    #[test]
    fn injection_rate_controls_offered_load() {
        let mut quiet = PatternTraffic::new(SyntheticPattern::UniformRandom, 16, 0.0, 1);
        let mut busy = PatternTraffic::new(SyntheticPattern::UniformRandom, 16, 1.0, 1);
        let quiet_count: usize = (0..100)
            .filter(|&c| quiet.maybe_inject(c, n(0)).is_some())
            .count();
        let busy_count: usize = (0..100)
            .filter(|&c| busy.maybe_inject(c, n(0)).is_some())
            .count();
        assert_eq!(quiet_count, 0);
        assert_eq!(busy_count, 100);
        assert!(busy.injection_rate() >= quiet.injection_rate());
    }

    #[test]
    fn injected_requests_never_target_self() {
        for pattern in SyntheticPattern::ALL
            .into_iter()
            .chain(SyntheticPattern::ADVERSARIAL)
        {
            let mut t = PatternTraffic::new(pattern, 9, 1.0, 2);
            for cycle in 0..50 {
                for src in 0..9 {
                    if let Some(req) = t.maybe_inject(cycle, n(src)) {
                        assert_ne!(req.destination, n(src), "{pattern}");
                        assert!(req.destination.index() < 9, "{pattern}");
                    }
                }
            }
        }
    }

    #[test]
    fn hotspot_storm_rotates_a_shared_victim() {
        let mut s = PatternTraffic::new(SyntheticPattern::HotspotStorm, 64, 1.0, 1);
        // Within one storm epoch every node targets the same victim.
        let victim = s.destination_at(0, n(0));
        for src in 1..64 {
            assert_eq!(s.destination_at(STORM_PERIOD - 1, n(src)), victim);
        }
        // Over many epochs the victim moves around the network.
        let mut victims: Vec<usize> = (0..40)
            .map(|epoch| s.destination_at(epoch * STORM_PERIOD, n(0)).index())
            .collect();
        victims.dedup();
        assert!(victims.len() > 5, "storm never moved: {victims:?}");
    }

    #[test]
    fn bursty_onoff_is_silent_off_window_and_loud_on_window() {
        let mut b = PatternTraffic::new(SyntheticPattern::BurstyOnOff, 16, 0.5, 3);
        let mut on = 0usize;
        let mut off = 0usize;
        for cycle in 0..4 * BURST_PERIOD {
            let injected = b.maybe_inject(cycle, n(1)).is_some();
            if (cycle / BURST_PERIOD).is_multiple_of(2) {
                on += usize::from(injected);
            } else {
                assert!(!injected, "cycle {cycle} is an off window");
                off += usize::from(injected);
            }
        }
        assert!(on > 100, "on windows should carry double rate, got {on}");
        assert_eq!(off, 0);
        assert!(b.burst_window_open(BURST_PERIOD - 1));
        assert!(!b.burst_window_open(BURST_PERIOD));
    }

    #[test]
    fn bit_reversal_is_an_involution_on_powers_of_two() {
        let mut p = PatternTraffic::new(SyntheticPattern::BitReversal, 16, 1.0, 1);
        assert_eq!(p.destination(n(1)), n(8));
        assert_eq!(p.destination(n(8)), n(1));
        assert_eq!(p.destination(n(3)), n(12));
        assert_eq!(p.destination(n(0)), n(0));
        // Non-power-of-two sizes stay within range.
        let mut q = PatternTraffic::new(SyntheticPattern::BitReversal, 11, 1.0, 1);
        for src in 0..11 {
            assert!(q.destination(n(src)).index() < 11);
        }
    }

    #[test]
    fn adversarial_metadata_and_names_round_trip() {
        assert_eq!(SyntheticPattern::ADVERSARIAL.len(), 3);
        for pattern in SyntheticPattern::ADVERSARIAL {
            assert!(!SyntheticPattern::ALL.contains(&pattern));
            assert_eq!(SyntheticPattern::from_name(pattern.name()), Some(pattern));
        }
        for pattern in SyntheticPattern::ALL {
            assert_eq!(SyntheticPattern::from_name(pattern.name()), Some(pattern));
        }
        assert_eq!(SyntheticPattern::from_name("nope"), None);
    }

    #[test]
    fn pattern_metadata() {
        assert_eq!(SyntheticPattern::ALL.len(), 7);
        assert_eq!(SyntheticPattern::Hotspot.to_string(), "hotspot");
        let t = PatternTraffic::new(SyntheticPattern::Tornado, 8, 0.5, 0);
        assert_eq!(t.pattern(), SyntheticPattern::Tornado);
    }
}
