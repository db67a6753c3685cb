//! Span-based phase timing with aggregate summaries and an optional
//! JSON-lines trace emitter.
//!
//! Timing is globally gated: when disabled (the default) every
//! instrumentation site reduces to one relaxed atomic load, so the hot paths
//! (journal appends, per-cycle kernel phases) pay nothing measurable. When
//! enabled, spans accumulate `(count, total, max)` per name, and — if a trace
//! file is attached — each completed span also appends one JSON line:
//!
//! ```json
//! {"name":"topology_build","thread":0,"start_us":1234,"dur_us":567}
//! ```
//!
//! `start_us` is microseconds since the tracer's epoch (first enable or
//! trace-file attach). All timing metrics are wall-clock and therefore live
//! outside the determinism guarantee (`time.` namespace when exported).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

static TIMING: AtomicBool = AtomicBool::new(false);

/// True when span timing is active. Instrumentation sites check this before
/// reading the clock.
#[inline]
#[must_use]
pub fn timing_enabled() -> bool {
    TIMING.load(Ordering::Relaxed)
}

/// Globally enables/disables span timing.
pub fn set_timing(enabled: bool) {
    if enabled {
        // Pin the epoch before any span can observe it.
        let _ = Tracer::global().epoch();
    }
    TIMING.store(enabled, Ordering::Relaxed);
}

/// Starts a manual timing measurement: `Some(now)` when timing is enabled.
/// Pair with [`timing_add`]. This is the allocation-free form for hot loops
/// that aggregate locally before flushing.
#[inline]
#[must_use]
pub fn timing_start() -> Option<Instant> {
    timing_enabled().then(Instant::now)
}

/// Completes a [`timing_start`] measurement into the aggregate table (no
/// trace event — use [`Tracer::span`] for traced phases).
pub fn timing_add(name: &'static str, started: Option<Instant>, count: u64) {
    if let Some(started) = started {
        Tracer::global().add_duration(name, started.elapsed(), count);
    }
}

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Completed spans (or batched units for [`Tracer::add_duration`]).
    pub count: u64,
    /// Total inclusive time.
    pub total: Duration,
    /// Longest single span.
    pub max: Duration,
}

/// One row of [`Tracer::summary`].
#[derive(Debug, Clone)]
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// Aggregate stats.
    pub agg: SpanAgg,
}

#[derive(Default)]
struct TraceWriter {
    writer: Option<BufWriter<File>>,
    path: Option<PathBuf>,
}

/// Reserved trace lane for synthetic events flushed by
/// [`Tracer::add_duration_event`] — far above any real thread id, so the
/// report's per-thread span nesting never mixes them with live spans.
const SYNTHETIC_LANE: u64 = u64::MAX;

/// The process-global span collector.
pub struct Tracer {
    epoch: OnceLock<Instant>,
    aggregates: Mutex<BTreeMap<&'static str, SpanAgg>>,
    writer: Mutex<TraceWriter>,
    next_thread_id: AtomicU64,
    /// Monotonic cursor laying out synthetic events on [`SYNTHETIC_LANE`].
    synthetic_us: AtomicU64,
}

static GLOBAL: OnceLock<Tracer> = OnceLock::new();

thread_local! {
    static THREAD_ID: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

impl Tracer {
    /// The process-global tracer instance.
    #[must_use]
    pub fn global() -> &'static Tracer {
        GLOBAL.get_or_init(|| Tracer {
            epoch: OnceLock::new(),
            aggregates: Mutex::new(BTreeMap::new()),
            writer: Mutex::new(TraceWriter::default()),
            next_thread_id: AtomicU64::new(0),
            synthetic_us: AtomicU64::new(0),
        })
    }

    fn epoch(&self) -> Instant {
        *self.epoch.get_or_init(Instant::now)
    }

    fn thread_id(&self) -> u64 {
        THREAD_ID.with(|cell| match cell.get() {
            Some(id) => id,
            None => {
                let id = self.next_thread_id.fetch_add(1, Ordering::Relaxed);
                cell.set(Some(id));
                id
            }
        })
    }

    /// Opens `path` as the JSON-lines trace sink and enables timing.
    pub fn open_trace(&self, path: &Path) -> io::Result<()> {
        let file = File::create(path)?;
        let mut writer = self.writer.lock().expect("trace writer poisoned");
        writer.writer = Some(BufWriter::new(file));
        writer.path = Some(path.to_path_buf());
        drop(writer);
        set_timing(true);
        Ok(())
    }

    /// Flushes and detaches the trace sink, returning its path when one was
    /// attached. Timing stays enabled (the summary table may still be wanted).
    pub fn finish_trace(&self) -> io::Result<Option<PathBuf>> {
        let mut writer = self.writer.lock().expect("trace writer poisoned");
        if let Some(mut w) = writer.writer.take() {
            w.flush()?;
        }
        Ok(writer.path.take())
    }

    /// Starts a traced span. Returns a guard that records on drop; when
    /// timing is disabled the guard is inert and free.
    #[must_use]
    pub fn span(&'static self, name: &'static str) -> Span {
        Span {
            tracer: self,
            name,
            started: timing_enabled().then(Instant::now),
        }
    }

    /// Adds a pre-aggregated duration (e.g. a per-cycle phase accumulated
    /// locally over a whole run) to the summary table without emitting a
    /// trace event.
    pub fn add_duration(&self, name: &'static str, total: Duration, count: u64) {
        if total.is_zero() && count == 0 {
            return;
        }
        let mut aggregates = self.aggregates.lock().expect("span aggregates poisoned");
        let agg = aggregates.entry(name).or_default();
        agg.count += count;
        agg.total += total;
        agg.max = agg.max.max(total);
    }

    /// Like [`Tracer::add_duration`], but also emits one synthetic trace
    /// event when a trace sink is attached — so locally-aggregated phase
    /// totals (the kernel's per-cycle routing timer) show up in
    /// `sfbench report`'s span tree, not just the summary table.
    ///
    /// Synthetic events are placed on a reserved thread lane behind a
    /// monotonic cursor: each event occupies its own disjoint interval, so
    /// the report's containment-based nesting renders every flushed total as
    /// an independent root span (their intervals are bookkeeping, not
    /// wall-clock placement).
    pub fn add_duration_event(&self, name: &'static str, total: Duration, count: u64) {
        if total.is_zero() && count == 0 {
            return;
        }
        self.add_duration(name, total, count);
        let mut writer = self.writer.lock().expect("trace writer poisoned");
        if let Some(w) = writer.writer.as_mut() {
            let dur_us = total.as_micros().max(1) as u64;
            let start_us = self.synthetic_us.fetch_add(dur_us + 1, Ordering::Relaxed);
            let line = format!(
                "{{\"name\":\"{name}\",\"thread\":{SYNTHETIC_LANE},\"start_us\":{start_us},\"dur_us\":{dur_us}}}\n",
            );
            let _ = w.write_all(line.as_bytes());
        }
    }

    fn record(&self, name: &'static str, started: Instant) {
        let dur = started.elapsed();
        {
            let mut aggregates = self.aggregates.lock().expect("span aggregates poisoned");
            let agg = aggregates.entry(name).or_default();
            agg.count += 1;
            agg.total += dur;
            agg.max = agg.max.max(dur);
        }
        let mut writer = self.writer.lock().expect("trace writer poisoned");
        if let Some(w) = writer.writer.as_mut() {
            let start_us = started.duration_since(self.epoch()).as_micros();
            let line = format!(
                "{{\"name\":\"{}\",\"thread\":{},\"start_us\":{},\"dur_us\":{}}}\n",
                name,
                self.thread_id(),
                start_us,
                dur.as_micros()
            );
            let _ = w.write_all(line.as_bytes());
        }
    }

    /// Aggregate rows sorted by total inclusive time, descending.
    #[must_use]
    pub fn summary(&self) -> Vec<SpanSummary> {
        let aggregates = self.aggregates.lock().expect("span aggregates poisoned");
        let mut rows: Vec<SpanSummary> = aggregates
            .iter()
            .map(|(&name, &agg)| SpanSummary { name, agg })
            .collect();
        rows.sort_by(|a, b| b.agg.total.cmp(&a.agg.total).then(a.name.cmp(b.name)));
        rows
    }

    /// Clears aggregates and detaches any trace sink (test isolation).
    pub fn reset(&self) {
        self.aggregates
            .lock()
            .expect("span aggregates poisoned")
            .clear();
        let mut writer = self.writer.lock().expect("trace writer poisoned");
        writer.writer = None;
        writer.path = None;
        drop(writer);
        self.synthetic_us.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

/// RAII guard for one traced span; records its duration on drop.
#[derive(Debug)]
pub struct Span {
    tracer: &'static Tracer,
    name: &'static str,
    started: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(started) = self.started.take() {
            self.tracer.record(self.name, started);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracer state is process-global, so the unit tests here run as one
    // sequence inside a single #[test] to avoid cross-test interference.
    #[test]
    fn spans_aggregate_and_trace_lines_are_json_objects() {
        let tracer = Tracer::global();
        tracer.reset();
        set_timing(true);
        {
            let _a = tracer.span("phase_a");
            let _b = tracer.span("phase_b");
        }
        tracer.add_duration("phase_a", Duration::from_micros(50), 10);
        let summary = tracer.summary();
        assert!(summary
            .iter()
            .any(|s| s.name == "phase_a" && s.agg.count == 11));
        assert!(summary
            .iter()
            .any(|s| s.name == "phase_b" && s.agg.count == 1));

        let dir = std::env::temp_dir().join(format!("sf-obs-span-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        tracer.open_trace(&path).unwrap();
        {
            let _c = tracer.span("traced_phase");
        }
        tracer.add_duration_event("flushed_phase", Duration::from_millis(2), 100);
        let finished = tracer.finish_trace().unwrap();
        assert_eq!(finished.as_deref(), Some(path.as_path()));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"name\":\"traced_phase\""), "{text}");
        // Synthetic events land on the reserved lane and in the aggregates.
        assert!(
            text.contains(&format!(
                "\"name\":\"flushed_phase\",\"thread\":{}",
                u64::MAX
            )),
            "{text}"
        );
        assert!(tracer
            .summary()
            .iter()
            .any(|s| s.name == "flushed_phase" && s.agg.count == 100));
        assert!(text
            .trim_end()
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));

        set_timing(false);
        assert!(timing_start().is_none());
        {
            let _d = tracer.span("disabled_phase");
        }
        assert!(tracer.summary().iter().all(|s| s.name != "disabled_phase"));
        tracer.reset();
        std::fs::remove_dir_all(&dir).ok();
    }
}
