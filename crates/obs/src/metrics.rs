//! Hierarchical metrics registry: counters, gauges, and fixed-bucket
//! histograms, recorded straight into one process-global map.
//!
//! # Determinism contract
//!
//! Metric names are dot-separated paths (`sim.delivered`,
//! `journal.appends`, `sched.cache_hits`, `time.run_wall_us`). Everything is
//! deterministic by default: counters are integer sums, gauges are maxima
//! and histograms are integer bucket counts — updates that commute, so the
//! totals are bit-identical for any worker count and any order in which
//! workers record. Two top-level prefixes opt *out* of that guarantee:
//!
//! - `time.` — wall-clock quantities; inherently nondeterministic.
//! - `sched.` — counts that depend on scheduling order (topology-cache
//!   hits/misses: which worker reaches a key first).
//!
//! [`MetricsSnapshot::deterministic`] filters to the guaranteed namespace —
//! that filtered view is what the cross-worker determinism test pins.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::hist::Histogram;

/// One metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic integer count; updates add.
    Counter(u64),
    /// Level quantity; updates keep the maximum (e.g. high-water marks).
    Gauge(u64),
    /// Fixed-bucket distribution; observations add to one bucket.
    Histogram(Histogram),
}

impl MetricValue {
    /// Renders the value for the flat JSON metrics document.
    fn to_json_value(&self) -> String {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => v.to_string(),
            MetricValue::Histogram(h) => format!("\"{}\"", h.encode()),
        }
    }
}

/// True when `name` is covered by the bit-identical determinism guarantee
/// (i.e. it is not under the `time.` or `sched.` nondeterministic prefixes).
#[must_use]
pub fn is_deterministic_name(name: &str) -> bool {
    !(name.starts_with("time.") || name.starts_with("sched."))
}

/// The process-global metrics registry.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, MetricValue>>,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry instance.
#[must_use]
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::default)
}

impl Registry {
    /// Adds `delta` to counter `name` directly on the global map (one lock).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        match entries.get_mut(name) {
            Some(MetricValue::Counter(v)) => *v += delta,
            Some(_) => {}
            None => {
                entries.insert(name.to_string(), MetricValue::Counter(delta));
            }
        }
    }

    /// Raises gauge `name` to at least `value`.
    pub fn gauge_max(&self, name: &str, value: u64) {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        match entries.get_mut(name) {
            Some(MetricValue::Gauge(v)) => *v = (*v).max(value),
            Some(_) => {}
            None => {
                entries.insert(name.to_string(), MetricValue::Gauge(value));
            }
        }
    }

    /// Records one observation into histogram `name` (created with `shape`).
    pub fn observe(&self, name: &str, value: f64, shape: &Histogram) {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        let entry = entries
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Histogram(shape.clone()));
        if let MetricValue::Histogram(h) = entry {
            h.observe(value);
        }
    }

    /// Point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .entries
                .lock()
                .expect("metrics registry poisoned")
                .clone(),
        }
    }

    /// Clears the registry (test isolation).
    pub fn reset(&self) {
        self.entries
            .lock()
            .expect("metrics registry poisoned")
            .clear();
    }
}

/// Immutable point-in-time view of the registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// All `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Looks up one metric by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// Number of metrics in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot holds no metrics.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The change since `baseline`: counters and histograms subtract
    /// (saturating); gauges keep their current value. Metrics absent from
    /// `baseline` pass through unchanged.
    #[must_use]
    pub fn delta(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let mut entries = self.entries.clone();
        for (name, value) in &mut entries {
            match (value, baseline.entries.get(name)) {
                (MetricValue::Counter(v), Some(MetricValue::Counter(b))) => {
                    *v = v.saturating_sub(*b);
                }
                (MetricValue::Histogram(h), Some(MetricValue::Histogram(b))) => {
                    let _ = h.subtract(b);
                }
                _ => {}
            }
        }
        MetricsSnapshot { entries }
    }

    /// Filters to the deterministic namespace (drops `time.` / `sched.`).
    #[must_use]
    pub fn deterministic(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .entries
                .iter()
                .filter(|(name, _)| is_deterministic_name(name))
                .map(|(name, value)| (name.clone(), value.clone()))
                .collect(),
        }
    }

    /// Flat JSON object, one key per metric in name order. Histograms are
    /// embedded as their [`Histogram::encode`] string.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for (name, value) in &self.entries {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("  \"{}\": {}", name, value.to_json_value()));
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespace_rule_matches_documented_prefixes() {
        assert!(is_deterministic_name("sim.delivered"));
        assert!(is_deterministic_name("journal.appends"));
        assert!(!is_deterministic_name("time.run_wall_us"));
        assert!(!is_deterministic_name("sched.cache_hits"));
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_new_metrics() {
        let reg = Registry::default();
        reg.counter_add("sink.rows", 5);
        let baseline = reg.snapshot();
        reg.counter_add("sink.rows", 7);
        reg.counter_add("journal.appends", 2);
        let delta = reg.snapshot().delta(&baseline);
        assert_eq!(delta.get("sink.rows"), Some(&MetricValue::Counter(7)));
        assert_eq!(delta.get("journal.appends"), Some(&MetricValue::Counter(2)));
    }

    #[test]
    fn snapshot_json_is_flat_and_sorted() {
        let reg = Registry::default();
        reg.counter_add("b.two", 2);
        reg.counter_add("a.one", 1);
        let json = reg.snapshot().to_json();
        let a = json.find("a.one").unwrap();
        let b = json.find("b.two").unwrap();
        assert!(a < b, "{json}");
        assert!(json.contains("\"a.one\": 1"));
    }

    #[test]
    fn kind_mismatch_is_ignored_not_corrupted() {
        let reg = Registry::default();
        reg.counter_add("x", 3);
        reg.gauge_max("x", 99);
        assert_eq!(reg.snapshot().get("x"), Some(&MetricValue::Counter(3)));
    }
}
