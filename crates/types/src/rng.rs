//! Deterministic pseudo-random number generation.
//!
//! Topology generation, workload synthesis, and the simulator all need
//! reproducible randomness: two runs with the same seed must generate exactly
//! the same topology so that experiments (and the paper's "average over 20
//! generated topologies" methodology) can be replayed. [`DeterministicRng`]
//! implements xoshiro256** seeded through splitmix64 — small, fast, and fully
//! under our control so results never change underneath us when a third-party
//! RNG crate changes its stream.

use serde::{Deserialize, Serialize};

/// The splitmix64 golden-gamma increment.
const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of the splitmix64 sequence: mixes `x + gamma` through the
/// standard finalizer. This is the single copy of the constants shared by
/// the RNG's seed expansion, [`crate::fault::FaultPlan`]'s victim draws, and
/// the cycle-driven adversarial traffic patterns — one deterministic-hash
/// primitive, so the schedules derived from it can never drift apart.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use sf_types::DeterministicRng;
/// let mut a = DeterministicRng::new(42);
/// let mut b = DeterministicRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.next_f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeterministicRng {
    state: [u64; 4],
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // Expand the seed with splitmix64 so that nearby seeds produce
        // unrelated streams.
        let mut sm = seed;
        let mut next = || {
            let value = splitmix64(sm);
            sm = sm.wrapping_add(SPLITMIX_GAMMA);
            value
        };
        let mut state = [next(), next(), next(), next()];
        // Guard against the all-zero state, which xoshiro cannot escape.
        if state.iter().all(|&s| s == 0) {
            state = [0x1, 0x9e3779b97f4a7c15, 0xdeadbeef, 0xcafebabe];
        }
        Self { state }
    }

    /// Derives an independent child generator, useful for giving each virtual
    /// space or each workload source its own stream.
    #[must_use]
    pub fn fork(&mut self, stream: u64) -> Self {
        let mix = self.next_u64() ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
        Self::new(mix)
    }

    /// Returns the next 64 random bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's nearly-divisionless method with rejection for exactness.
        let mut x = self.next_u64();
        let mut m = u128::from(x) * u128::from(bound);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = u128::from(x) * u128::from(bound);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly distributed `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        if slice.len() < 2 {
            return;
        }
        for i in (1..slice.len()).rev() {
            let j = self.next_index(i + 1);
            slice.swap(i, j);
        }
    }
}

/// A Zipf distribution over `[0, n)` with skew `theta`, drawn by the
/// rejection-free approximate inverse CDF of Gray et al., "Quickly
/// generating billion-record synthetic databases" (SIGMOD '94).
///
/// [`Zipf::new`] computes the normalisation `zeta(n, theta)` and the method's
/// `alpha` and `eta` once; [`Zipf::sample`] then costs one uniform draw and
/// at most one `powf`. The skew lies in `[0, 1)`, and a skew of 0 draws
/// uniformly.
///
/// # Examples
///
/// ```
/// use sf_types::{DeterministicRng, Zipf};
/// let keys = Zipf::new(1_000, 0.99);
/// let mut rng = DeterministicRng::new(7);
/// assert!(keys.sample(&mut rng) < 1_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    n: usize,
    theta: f64,
    zetan: f64,
    /// `1 + 0.5^theta`, the normalisation over two keys: a draw whose
    /// `u * zetan` lies in `[1, zeta2)` returns index 1.
    zeta2: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    /// The distribution over `[0, n)` with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, if `theta` is negative, or if `theta` is 1 or
    /// more: the method holds only for skews below 1, and at 1 its `alpha`
    /// is infinite and every draw past index 1 returns `n - 1`.
    #[must_use]
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf support must be non-empty");
        assert!(theta >= 0.0, "zipf skew must be non-negative");
        assert!(theta < 1.0, "zipf skew must be below 1, got {theta}");
        if theta == 0.0 {
            return Self {
                n,
                theta,
                zetan: 0.0,
                zeta2: 0.0,
                alpha: 0.0,
                eta: 0.0,
            };
        }
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let zetan = zeta(n, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            theta,
            zetan,
            zeta2,
            alpha,
            eta,
        }
    }

    /// Draws one index in `[0, n)`.
    pub fn sample(&self, rng: &mut DeterministicRng) -> usize {
        if self.theta == 0.0 {
            return rng.next_index(self.n);
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.zeta2 {
            return 1;
        }
        let idx = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        idx.min(self.n - 1)
    }
}

fn zeta(n: usize, theta: f64) -> f64 {
    // Harmonic-like normalisation constant; cap the exact sum at a few
    // thousand terms and approximate the tail with an integral so very large
    // supports stay cheap.
    let exact = n.min(4096);
    let mut sum = 0.0;
    for i in 1..=exact {
        sum += 1.0 / (i as f64).powf(theta);
    }
    if n > exact && theta != 1.0 {
        let a = exact as f64;
        let b = n as f64;
        sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splitmix64_matches_the_reference_vector() {
        // First output of the reference splitmix64 sequence seeded with 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        // The RNG's seed expansion consumes the same sequence: expanding
        // seed s draws splitmix64(s), splitmix64(s + gamma), ...
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::new(123);
        let mut b = DeterministicRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_different_streams() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn fork_gives_distinct_streams() {
        let mut parent = DeterministicRng::new(7);
        let mut c1 = parent.fork(0);
        let mut c2 = parent.fork(1);
        let same = (0..32).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DeterministicRng::new(99);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = DeterministicRng::new(5);
        for bound in [1u64, 2, 3, 7, 100, 1296] {
            for _ in 0..1_000 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut rng = DeterministicRng::new(11);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[rng.next_index(8)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count {c} far from uniform");
        }
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = DeterministicRng::new(3);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle should permute");
    }

    /// The draw `Zipf` replaced, which recomputed the normalisation on
    /// every call: the reference `Zipf::sample` must reproduce bit for bit.
    fn reference_zipf(rng: &mut DeterministicRng, n: usize, theta: f64) -> usize {
        assert!(n > 0, "zipf support must be non-empty");
        assert!(theta >= 0.0, "zipf skew must be non-negative");
        if theta == 0.0 {
            return rng.next_index(n);
        }
        // Rejection-free approximate inverse CDF (Gray et al. method).
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let zetan = zeta(n, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        let u = rng.next_f64();
        let uz = u * zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(theta) {
            return 1;
        }
        let idx = (n as f64 * (eta * u - eta + 1.0).powf(alpha)) as usize;
        idx.min(n - 1)
    }

    /// Asserts that `Zipf::sample` draws what `reference_zipf` draws, with
    /// the same RNG calls, 10,000 times per support size at skew `theta`.
    fn assert_zipf_matches_reference(theta: f64) {
        for n in [1, 2, 1000, 4096, 4097, 1 << 18, 1 << 24] {
            let zipf = Zipf::new(n, theta);
            let seed = n as u64 ^ theta.to_bits();
            let mut sampled = DeterministicRng::new(seed);
            let mut reference = DeterministicRng::new(seed);
            for draw in 0..10_000 {
                assert_eq!(
                    zipf.sample(&mut sampled),
                    reference_zipf(&mut reference, n, theta),
                    "n {n}, theta {theta}, draw {draw}"
                );
            }
            assert_eq!(sampled, reference, "n {n}, theta {theta}");
        }
    }

    // One test per skew, so the slow reference runs on parallel threads.
    #[test]
    fn zipf_uniform_draws_match_the_reference() {
        assert_zipf_matches_reference(0.0);
    }

    #[test]
    fn zipf_theta_0_8_draws_match_the_reference() {
        assert_zipf_matches_reference(0.8);
    }

    #[test]
    fn zipf_theta_0_9_draws_match_the_reference() {
        assert_zipf_matches_reference(0.9);
    }

    #[test]
    fn zipf_theta_0_99_draws_match_the_reference() {
        assert_zipf_matches_reference(0.99);
    }

    #[test]
    fn zipf_skews_towards_small_indices() {
        let mut rng = DeterministicRng::new(17);
        let zipf = Zipf::new(1000, 0.99);
        let mut head = 0usize;
        let samples = 20_000;
        for _ in 0..samples {
            if zipf.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With theta=0.99, the top-10 of 1000 keys should absorb well over 20%
        // of accesses (uniform would be 1%).
        assert!(head as f64 / samples as f64 > 0.2);
    }

    #[test]
    #[should_panic(expected = "zipf skew must be below 1")]
    fn zipf_rejects_a_skew_of_one() {
        let _ = Zipf::new(1000, 1.0);
    }

    #[test]
    #[should_panic(expected = "zipf skew must be below 1")]
    fn zipf_rejects_a_skew_above_one() {
        let _ = Zipf::new(1000, 1.5);
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let mut rng = DeterministicRng::new(21);
        let zipf = Zipf::new(1000, 0.0);
        let mut head = 0usize;
        for _ in 0..20_000 {
            if zipf.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        let frac = head as f64 / 20_000.0;
        assert!(frac < 0.03, "uniform head fraction was {frac}");
    }

    #[test]
    fn bool_probability_extremes() {
        let mut rng = DeterministicRng::new(9);
        assert!(!(0..100).any(|_| rng.next_bool(0.0)));
        assert!((0..100).all(|_| rng.next_bool(1.0)));
    }

    proptest! {
        #[test]
        fn prop_next_below_in_range(seed in any::<u64>(), bound in 1u64..10_000) {
            let mut rng = DeterministicRng::new(seed);
            for _ in 0..16 {
                prop_assert!(rng.next_below(bound) < bound);
            }
        }

        #[test]
        fn prop_zipf_in_range(seed in any::<u64>(), n in 1usize..5_000) {
            let mut rng = DeterministicRng::new(seed);
            let zipf = Zipf::new(n, 0.99);
            for _ in 0..8 {
                prop_assert!(zipf.sample(&mut rng) < n);
            }
        }

        #[test]
        fn prop_shuffle_is_permutation(seed in any::<u64>(), len in 0usize..64) {
            let mut rng = DeterministicRng::new(seed);
            let mut v: Vec<usize> = (0..len).collect();
            rng.shuffle(&mut v);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
        }
    }
}
