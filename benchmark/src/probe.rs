//! Outside-in instrumentation: decorators that time the routing and traffic
//! layers through their public traits, host CPU time, and before/after
//! deltas of the program's own metrics registry and span aggregates.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sf_netsim::{TrafficModel, TrafficRequest};
use sf_obs::metrics::{MetricValue, MetricsSnapshot};
use sf_routing::{PortLoadEstimator, RoutingContext, RoutingProtocol};
use sf_types::{NodeId, SfResult, VirtualChannelId};

/// Wraps a routing protocol and sums the time spent in `next_hop` across
/// every thread that calls it. Every trait method delegates, so a simulation
/// routes exactly as it would with the bare protocol.
pub struct TimedRouting<P> {
    inner: Arc<P>,
    busy_ns: Arc<AtomicU64>,
}

impl<P> TimedRouting<P> {
    /// Wraps `inner`; `busy_ns` accumulates the nanoseconds spent deciding.
    pub fn new(inner: Arc<P>, busy_ns: Arc<AtomicU64>) -> Self {
        Self { inner, busy_ns }
    }
}

impl<P: RoutingProtocol> RoutingProtocol for TimedRouting<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_hop(
        &self,
        at: NodeId,
        dest: NodeId,
        loads: &dyn PortLoadEstimator,
        ctx: &RoutingContext,
    ) -> SfResult<NodeId> {
        let started = Instant::now();
        let hop = self.inner.next_hop(at, dest, loads, ctx);
        // A statistic read only after the simulation joins its threads.
        self.busy_ns
            .fetch_add(nanos(started.elapsed()), Ordering::Relaxed);
        hop
    }

    fn virtual_channel(&self, at: NodeId, next: NodeId, dest: NodeId) -> VirtualChannelId {
        self.inner.virtual_channel(at, next, dest)
    }

    fn max_hops(&self, num_nodes: usize) -> usize {
        self.inner.max_hops(num_nodes)
    }
}

/// Wraps a traffic model and counts and times its injection calls.
#[derive(Debug)]
pub struct TimedTraffic<T> {
    /// The wrapped model.
    pub inner: T,
    /// `maybe_inject` calls.
    pub calls: u64,
    /// Calls that produced a request.
    pub injections: u64,
    /// Time spent inside `maybe_inject`.
    pub busy: Duration,
}

impl<T> TimedTraffic<T> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: T) -> Self {
        Self {
            inner,
            calls: 0,
            injections: 0,
            busy: Duration::ZERO,
        }
    }
}

impl<T: TrafficModel> TrafficModel for TimedTraffic<T> {
    fn maybe_inject(&mut self, cycle: u64, source: NodeId) -> Option<TrafficRequest> {
        let started = Instant::now();
        let request = self.inner.maybe_inject(cycle, source);
        self.busy += started.elapsed();
        self.calls += 1;
        self.injections += u64::from(request.is_some());
        request
    }

    fn is_exhausted(&self) -> bool {
        self.inner.is_exhausted()
    }
}

/// Whole nanoseconds of `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// User plus system CPU time of this process (all threads, live or joined),
/// from `/proc/self/stat`; zero where procfs is missing.
pub fn cpu_time() -> Duration {
    // Linux reports these fields in USER_HZ ticks, which is 100 on every
    // architecture it supports.
    const TICKS_PER_SECOND: u64 = 100;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((field(11) + field(12)) * 1000 / TICKS_PER_SECOND)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    sf_obs::rss::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
}

/// Resets the peak resident set size to the current one, so the next
/// [`peak_rss_mb`] covers only what runs after this call. Where the kernel
/// refuses, the peak stays the process-lifetime one.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The program's own counters and span totals at one instant; subtracting
/// two gives what happened in between.
pub struct Snapshot {
    metrics: MetricsSnapshot,
    spans: BTreeMap<&'static str, Duration>,
}

impl Snapshot {
    /// Takes a snapshot of the global metrics registry and span aggregates.
    pub fn take() -> Self {
        Self {
            metrics: sf_obs::metrics::global().snapshot(),
            spans: sf_obs::span::Tracer::global()
                .summary()
                .into_iter()
                .map(|row| (row.name, row.agg.total))
                .collect(),
        }
    }

    /// Growth of counter `name` since `earlier`; gauges report their
    /// current (high-water) value.
    pub fn count_since(&self, earlier: &Self, name: &str) -> f64 {
        let read = |s: &MetricsSnapshot| match s.get(name) {
            Some(MetricValue::Counter(v) | MetricValue::Gauge(v)) => *v,
            _ => 0,
        };
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => *v as f64,
            _ => read(&self.metrics).saturating_sub(read(&earlier.metrics)) as f64,
        }
    }

    /// Seconds added to span `name` since `earlier`.
    pub fn span_s_since(&self, earlier: &Self, name: &str) -> f64 {
        let read = |s: &Self| s.spans.get(name).copied().unwrap_or_default();
        read(self).saturating_sub(read(earlier)).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        let before = cpu_time();
        let started = Instant::now();
        let mut x = 0u64;
        while started.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_time() > before);
    }
}
