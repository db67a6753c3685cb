//! Summary statistics, output digests, and the regression rule.

use sf_netsim::SimulationStats;

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Smallest of `values`; `NaN` for an empty slice.
#[must_use]
pub fn minimum(values: &[f64]) -> f64 {
    percentile(values, 0.0)
}

/// Linear-interpolated percentile `p` (0–100) of `values`; `NaN` when empty.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten of `n`
/// samples beyond it, or `None` when even the median has fewer.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In per mille, so that the count beyond is exact integer arithmetic.
    [999, 990, 900, 500]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) >= 10 * 1000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method); `None` for
/// fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, sorted.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// 64-bit FNV-1a over a stream of words: the digest the output checks
/// compare.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word into the digest.
    pub fn word(&mut self, value: u64) -> &mut Self {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes every field of a simulation's statistics, floats by their bits.
    pub fn stats(&mut self, s: &SimulationStats) -> &mut Self {
        for value in [
            s.cycles,
            s.active_nodes as u64,
            s.injected,
            s.delivered,
            s.completed_requests,
            s.total_latency_cycles,
            s.max_latency_cycles,
            s.total_round_trip_cycles,
            s.total_hops,
            s.network_energy_pj.to_bits(),
            s.dram_energy_pj.to_bits(),
            s.in_flight_at_end,
            s.backlog_at_end,
            s.blocked_forwards,
            s.dropped_packets,
            s.link_down_events,
            s.router_down_events,
        ] {
            self.word(value);
        }
        self
    }

    /// The digest value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// How one end-to-end metric compares between a parent and a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and the medians
    /// differ by more than the parent's interquartile range.
    Gain,
    /// The change's median is worse than the parent's by more than the bound.
    Regression,
    /// The parent's own spread is wider than the bound, so "no worse by more
    /// than the bound" cannot be shown.
    Unresolved,
    /// No gain, and no worse than the bound allows.
    WithinBound,
}

/// Applies the comparison rule to paired runs of a lower-is-better metric:
/// `parent[i]` and `change[i]` are the i-th pair. `bound` is the share of
/// the parent's median by which the change may be worse.
#[must_use]
pub fn verdict(parent: &[f64], change: &[f64], bound: f64) -> Verdict {
    let pairs = parent.len().min(change.len());
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let (p_med, c_med) = (median(parent), median(change));
    let p_iqr = quartiles(parent).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    let wins = parent.iter().zip(change).filter(|(p, c)| c < p).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && p_med - c_med > p_iqr {
        return Verdict::Gain;
    }
    let all_better = change.iter().all(|c| parent.iter().all(|p| c < p));
    if p_iqr > bound * p_med && !all_better {
        return Verdict::Unresolved;
    }
    if c_med > p_med * (1.0 + bound) {
        Verdict::Regression
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(minimum(&[3.0, 1.5, 2.0]), 1.5);
        assert!(minimum(&[]).is_nan());
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 90.0), 4.6);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(6), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(384), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let stats = SimulationStats {
            cycles: 3_000,
            injected: 1_234,
            delivered: 1_200,
            network_energy_pj: 12.5,
            ..SimulationStats::default()
        };
        let a = Digest::default().stats(&stats).finish();
        assert_eq!(a, Digest::default().stats(&stats.clone()).finish());
        // Pinned: a change here silently invalidates benchmark/expected.json.
        assert_eq!(Digest::default().word(1).finish(), 0x89cd_3129_1d2a_efa4);
        let mut energy = stats.clone();
        energy.network_energy_pj = f64::from_bits(12.5f64.to_bits() + 1);
        assert_ne!(a, Digest::default().stats(&energy).finish());
        let mut blocked = stats;
        blocked.blocked_forwards = 1;
        assert_ne!(a, Digest::default().stats(&blocked).finish());
    }

    #[test]
    fn verdict_applies_bound_and_win_rule() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.05, 9.95, 10.1, 10.0, 9.9];
        // Uniformly 5% faster: wins every pair and beats the parent's IQR.
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.95).collect();
        assert_eq!(verdict(&parent, &faster, 0.1), Verdict::Gain);
        // 5% slower with a 10% bound: within bound.
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(verdict(&parent, &slower, 0.1), Verdict::WithinBound);
        // 15% slower with a 10% bound: regression.
        let much_slower: Vec<f64> = parent.iter().map(|p| p * 1.15).collect();
        assert_eq!(verdict(&parent, &much_slower, 0.1), Verdict::Regression);
        // A parent whose own quartiles are 40% apart cannot resolve 10%.
        let noisy = [6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 6.5, 13.5, 7.5, 12.5];
        assert_eq!(verdict(&noisy, &noisy, 0.1), Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let far_better: Vec<f64> = noisy.iter().map(|p| p * 0.1).collect();
        assert_eq!(verdict(&noisy, &far_better, 0.1), Verdict::Gain);
    }
}
