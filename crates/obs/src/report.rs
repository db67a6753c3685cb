//! Schema-versioned perf-trajectory reports (`BENCH_<n>.json`).
//!
//! Each PR records one snapshot: a handful of named wall-clock probes plus
//! the process peak RSS. ci.sh diffs the fresh snapshot against the newest
//! prior `BENCH_*.json` and fails on regression, turning the bench benches
//! from write-only output into an enforced trajectory.
//!
//! The JSON is written and parsed by this module alone (the environment is
//! offline, no serde_json), so the parser only promises to read what
//! [`BenchReport::to_json`] emits — it scans for the known keys line by line
//! and returns `None` on anything structurally unexpected.

use std::time::Duration;

/// Schema identifier embedded in every report; bump on layout changes.
pub const SCHEMA: &str = "sf-bench-report/v1";

/// Wall-clock regression threshold: fail when `new > old * (1 + this)`.
pub const WALL_TOLERANCE: f64 = 0.25;
/// Peak-RSS regression threshold: fail when `new > old * (1 + this)`.
pub const RSS_TOLERANCE: f64 = 0.10;
/// Absolute wall-clock floor below which jitter is ignored (sub-millisecond
/// micro-benches can double without meaning anything).
const WALL_FLOOR_MS: f64 = 2.0;

/// One named probe result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Probe name, e.g. `shard_sync/4` or `fig10_quick`.
    pub name: String,
    /// Median wall-clock milliseconds across samples.
    pub wall_ms: f64,
    /// Number of timed samples the median was taken over.
    pub samples: u32,
    /// Optional throughput (units per second, e.g. simulated cycles/s for
    /// the `kernel_cps/*` probes). Informational: recorded in the snapshot
    /// but never gated — the wall-clock comparison already covers it.
    pub rate_per_s: Option<f64>,
}

/// A full perf snapshot for one PR.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Snapshot label, conventionally `BENCH_<pr>`.
    pub label: String,
    /// Peak resident set size of the bench process in kB.
    pub peak_rss_kb: u64,
    /// Probe results in execution order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Median of raw samples as milliseconds (empty → 0).
    #[must_use]
    pub fn median_ms(samples: &[Duration]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let mid = ms.len() / 2;
        if ms.len() % 2 == 1 {
            ms[mid]
        } else {
            (ms[mid - 1] + ms[mid]) / 2.0
        }
    }

    /// Serialises the report; stable key order, one entry per line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"label\": \"{}\",\n", self.label));
        out.push_str(&format!("  \"peak_rss_kb\": {},\n", self.peak_rss_kb));
        out.push_str("  \"entries\": [\n");
        for (i, entry) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            let rate = entry
                .rate_per_s
                .map(|r| format!(", \"rate_per_s\": {r:.1}"))
                .unwrap_or_default();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"samples\": {}{rate}}}{comma}\n",
                entry.name, entry.wall_ms, entry.samples
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses [`BenchReport::to_json`] output (including reports written by
    /// earlier PRs with the same schema tag; keys this writer no longer
    /// emits, such as an old entry's `"gated": false`, are ignored). Returns
    /// `None` on a schema mismatch or malformed document.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        if extract_str(text, "schema")? != SCHEMA {
            return None;
        }
        let label = extract_str(text, "label")?.to_string();
        let peak_rss_kb = extract_num(text, "peak_rss_kb")?.round() as u64;
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if !line.starts_with('{') || !line.contains("\"wall_ms\"") {
                continue;
            }
            entries.push(BenchEntry {
                name: extract_str(line, "name")?.to_string(),
                wall_ms: extract_num(line, "wall_ms")?,
                samples: extract_num(line, "samples")?.round() as u32,
                rate_per_s: extract_num(line, "rate_per_s"),
            });
        }
        Some(Self {
            label,
            peak_rss_kb,
            entries,
        })
    }

    /// Compares this (fresh) snapshot against `baseline`, returning one
    /// human-readable line per regression: a probe slower by more than
    /// [`WALL_TOLERANCE`] (and more than an absolute jitter floor), or peak
    /// RSS above [`RSS_TOLERANCE`]. Probes present in only one snapshot are
    /// skipped — the trajectory may legitimately grow. A probe whose
    /// *baseline* sat below the jitter floor is also skipped: a near-zero
    /// recording means the probe was lost in measurement noise when the
    /// baseline was taken, so any ratio against it is meaningless.
    ///
    /// Peak RSS is gated only when the baseline ran every probe this
    /// snapshot ran: RSS is process-global, so a snapshot that added probes
    /// (bigger in-process workloads) has a legitimately higher high-water
    /// mark. The comparison re-arms on the next snapshot pair with equal
    /// probe sets.
    ///
    /// Wall-clock comparisons are normalised for **machine drift**: snapshots
    /// recorded in different sessions see different CPU weather (frequency
    /// scaling, noisy container neighbours), which slows every probe by a
    /// common factor and says nothing about the code. The baseline is scaled
    /// by the median new/old ratio across common probes (only upward — a
    /// uniformly faster machine must not hide a real regression), so a
    /// genuine code regression still fires: it moves its own probes well past
    /// the shared median.
    #[must_use]
    pub fn regressions_vs(&self, baseline: &BenchReport) -> Vec<String> {
        let drift = self.drift_vs(baseline);
        let mut problems = Vec::new();
        for entry in &self.entries {
            let Some(base) = baseline.entries.iter().find(|b| b.name == entry.name) else {
                continue;
            };
            if base.wall_ms <= WALL_FLOOR_MS {
                continue;
            }
            let adjusted = base.wall_ms * drift;
            let limit = adjusted * (1.0 + WALL_TOLERANCE);
            if entry.wall_ms > limit && entry.wall_ms - adjusted > WALL_FLOOR_MS {
                problems.push(format!(
                    "{}: {:.3} ms vs baseline {:.3} ms (drift-adjusted {:.3} ms, > +{:.0}%)",
                    entry.name,
                    entry.wall_ms,
                    base.wall_ms,
                    adjusted,
                    WALL_TOLERANCE * 100.0
                ));
            }
        }
        let probe_set_grew = self
            .entries
            .iter()
            .any(|entry| !baseline.entries.iter().any(|b| b.name == entry.name));
        if baseline.peak_rss_kb > 0 && !probe_set_grew {
            let limit = baseline.peak_rss_kb as f64 * (1.0 + RSS_TOLERANCE);
            if self.peak_rss_kb as f64 > limit {
                problems.push(format!(
                    "peak_rss_kb: {} vs baseline {} (> +{:.0}%)",
                    self.peak_rss_kb,
                    baseline.peak_rss_kb,
                    RSS_TOLERANCE * 100.0
                ));
            }
        }
        problems
    }

    /// The machine-drift factor vs `baseline`: the median `new/old`
    /// wall-clock ratio over probes present in both snapshots and
    /// above the jitter floor, clamped to at least 1.0. With fewer than four common
    /// probes a single regressing probe would drag the median itself, so
    /// small populations get no adjustment (factor 1.0).
    #[must_use]
    pub fn drift_vs(&self, baseline: &BenchReport) -> f64 {
        let mut ratios: Vec<f64> = self
            .entries
            .iter()
            .filter_map(|entry| {
                let base = baseline.entries.iter().find(|b| b.name == entry.name)?;
                (base.wall_ms > WALL_FLOOR_MS).then(|| entry.wall_ms / base.wall_ms)
            })
            .collect();
        if ratios.len() < 4 {
            return 1.0;
        }
        ratios.sort_by(f64::total_cmp);
        let mid = ratios.len() / 2;
        let median = if ratios.len() % 2 == 1 {
            ratios[mid]
        } else {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        };
        median.max(1.0)
    }
}

fn extract_str<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let after = &text[text.find(&pattern)? + pattern.len()..];
    let open = after.find('"')?;
    let rest = &after[open + 1..];
    Some(&rest[..rest.find('"')?])
}

fn extract_num(text: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\":");
    let after = text[text.find(&pattern)? + pattern.len()..].trim_start();
    let end = after
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(after.len());
    after[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            label: "BENCH_6".to_string(),
            peak_rss_kb: 50_000,
            entries: vec![
                BenchEntry {
                    name: "shard_sync/1".to_string(),
                    wall_ms: 12.5,
                    samples: 3,
                    rate_per_s: None,
                },
                BenchEntry {
                    name: "fig10_quick".to_string(),
                    wall_ms: 850.0,
                    samples: 1,
                    rate_per_s: Some(87_654.3),
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        assert_eq!(BenchReport::parse(&report.to_json()), Some(report));
    }

    #[test]
    fn parse_rejects_other_schemas_and_garbage() {
        assert_eq!(BenchReport::parse(""), None);
        assert_eq!(BenchReport::parse("{\"schema\": \"other/v9\"}"), None);
        let mangled = sample().to_json().replace(SCHEMA, "sf-bench-report/v0");
        assert_eq!(BenchReport::parse(&mangled), None);
    }

    #[test]
    fn regression_rules_fire_on_wall_and_rss_but_not_jitter() {
        let base = sample();
        let mut fresh = sample();
        assert!(fresh.regressions_vs(&base).is_empty());
        // 30% slower on a probe above the jitter floor → flagged.
        fresh.entries[1].wall_ms = 850.0 * 1.30;
        assert_eq!(fresh.regressions_vs(&base).len(), 1);
        // Sub-floor absolute change never flags even at huge ratios.
        let tiny_base = BenchReport {
            entries: vec![BenchEntry {
                name: "x".into(),
                wall_ms: 0.4,
                samples: 3,
                rate_per_s: None,
            }],
            ..sample()
        };
        let mut tiny_fresh = tiny_base.clone();
        tiny_fresh.entries[0].wall_ms = 1.2;
        assert!(tiny_fresh.regressions_vs(&tiny_base).is_empty());
        // RSS over 10% → flagged.
        let mut fat = sample();
        fat.peak_rss_kb = 60_000;
        assert_eq!(fat.regressions_vs(&base).len(), 1);
        // New probes in the fresh snapshot are not regressions.
        let mut grown = sample();
        grown.entries.push(BenchEntry {
            name: "new_probe".into(),
            wall_ms: 5.0,
            samples: 3,
            rate_per_s: None,
        });
        assert!(grown.regressions_vs(&base).is_empty());
    }

    #[test]
    fn sub_floor_baselines_are_ungateable() {
        // A probe recorded at ~0 ms (e.g. a delta probe whose overhead was
        // lost in noise) gives a meaningless ratio: any later nonzero
        // reading would look like an infinite regression. Skip it.
        let mut base = sample();
        base.entries.push(BenchEntry {
            name: "delta_probe".into(),
            wall_ms: 0.0,
            samples: 3,
            rate_per_s: None,
        });
        let mut fresh = base.clone();
        fresh.entries[2].wall_ms = 21.7;
        assert!(fresh.regressions_vs(&base).is_empty());
    }

    #[test]
    fn committed_snapshots_with_ungated_lines_parse_and_gate() {
        // BENCH_10..BENCH_12 carry entries marked `"gated": false`, a key
        // this writer no longer emits (those probes are gone). The parser
        // must still read every committed entry line, and a fresh snapshot
        // without the ungated probe must gate against BENCH_12 cleanly.
        let committed = [
            include_str!("../../../BENCH_10.json"),
            include_str!("../../../BENCH_11.json"),
            include_str!("../../../BENCH_12.json"),
        ];
        let entry_lines = |text: &'static str| -> Vec<&'static str> {
            text.lines().filter(|l| l.contains("\"wall_ms\"")).collect()
        };
        for text in committed {
            let report = BenchReport::parse(text).expect("committed snapshot parses");
            assert_eq!(
                report.entries.len(),
                entry_lines(text).len(),
                "{}",
                report.label
            );
        }
        let base = BenchReport::parse(committed[2]).unwrap();
        assert_eq!(base.label, "BENCH_12");
        let lines = entry_lines(committed[2]);
        let mut fresh = BenchReport {
            label: "BENCH_13".into(),
            entries: base
                .entries
                .iter()
                .zip(&lines)
                .filter(|(_, line)| !line.contains("\"gated\": false"))
                .map(|(entry, _)| entry.clone())
                .collect(),
            ..base.clone()
        };
        assert_eq!(fresh.entries.len(), base.entries.len() - 1);
        assert!(!fresh.to_json().contains("gated"));
        assert!(fresh.regressions_vs(&base).is_empty());
        assert_eq!(fresh.drift_vs(&base), 1.0);
        // The gate stays live against such a baseline.
        let fig10 = fresh.entries.iter_mut().find(|e| e.name == "fig10_quick");
        fig10.expect("fig10_quick recorded").wall_ms *= 2.0;
        let problems = fresh.regressions_vs(&base);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("fig10_quick:"), "{}", problems[0]);
    }

    #[test]
    fn rss_gate_disarms_when_the_probe_set_grows() {
        // Peak RSS is process-global: a snapshot that ran extra (bigger)
        // probes has a legitimately higher high-water mark, so the
        // comparison only holds between equal probe sets.
        let base = sample();
        let mut grown = sample();
        grown.entries.push(BenchEntry {
            name: "kernel_cps/2048".into(),
            wall_ms: 650.0,
            samples: 3,
            rate_per_s: Some(670.0),
        });
        grown.peak_rss_kb = 40_000_000;
        assert!(grown.regressions_vs(&base).is_empty());
        // With identical probe sets the gate still fires.
        let mut fat = sample();
        fat.peak_rss_kb = 40_000_000;
        assert_eq!(fat.regressions_vs(&base).len(), 1);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(BenchReport::median_ms(&[]), 0.0);
        let odd = [10, 30, 20].map(Duration::from_millis);
        assert!((BenchReport::median_ms(&odd) - 20.0).abs() < 1e-9);
        let even = [10, 20, 30, 40].map(Duration::from_millis);
        assert!((BenchReport::median_ms(&even) - 25.0).abs() < 1e-9);
    }

    fn wide(label: &str, scale: f64) -> BenchReport {
        let probes = [
            ("a", 100.0),
            ("b", 200.0),
            ("c", 400.0),
            ("d", 800.0),
            ("e", 1600.0),
        ];
        BenchReport {
            label: label.to_string(),
            peak_rss_kb: 50_000,
            entries: probes
                .iter()
                .map(|(name, ms)| BenchEntry {
                    name: (*name).to_string(),
                    wall_ms: ms * scale,
                    samples: 3,
                    rate_per_s: None,
                })
                .collect(),
        }
    }

    #[test]
    fn uniform_machine_drift_is_normalised_but_outliers_still_fire() {
        let base = wide("BENCH_7", 1.0);
        // Every probe uniformly 40% slower: machine drift, not a regression.
        let slow_host = wide("BENCH_8", 1.4);
        assert!((slow_host.drift_vs(&base) - 1.4).abs() < 1e-9);
        assert!(slow_host.regressions_vs(&base).is_empty());
        // One probe doubling while the rest drift 40% is a real regression
        // and the message shows the drift-adjusted baseline.
        let mut outlier = wide("BENCH_8", 1.4);
        outlier.entries[2].wall_ms = 400.0 * 2.0;
        let problems = outlier.regressions_vs(&base);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("c: 800.000 ms"), "{}", problems[0]);
        assert!(
            problems[0].contains("drift-adjusted 560.000 ms"),
            "{}",
            problems[0]
        );
        // A uniformly *faster* machine never relaxes the gate: the factor is
        // clamped at 1.0, so a regression on a fast host still fires.
        let mut fast_host = wide("BENCH_8", 0.7);
        assert_eq!(fast_host.drift_vs(&base), 1.0);
        fast_host.entries[0].wall_ms = 100.0 * 1.5;
        assert_eq!(fast_host.regressions_vs(&base).len(), 1);
    }

    #[test]
    fn fewer_than_four_common_probes_get_no_drift_adjustment() {
        let base = sample();
        let mut fresh = sample();
        for entry in &mut fresh.entries {
            entry.wall_ms *= 1.4;
        }
        assert_eq!(fresh.drift_vs(&base), 1.0);
        assert_eq!(fresh.regressions_vs(&base).len(), 2);
    }
}
