//! In-process memory probe backed by `/proc/self/status`.
//!
//! The read happens *inside* the measured process, so it cannot race process
//! exit the way an external sampler does. `VmHWM` is the kernel's own
//! high-water mark, so a single read at the end of a run captures the true
//! peak: `sfbench run` prints it on stderr, and the repository benchmark
//! reports it as `peak_rss_mb`. The progress heartbeat shows `VmRSS`. On
//! platforms without procfs both probes return `None` and callers degrade
//! gracefully.

use std::fs;

fn status_field_kb(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let rest = rest.trim_start_matches(':').trim();
            let number = rest.split_whitespace().next()?;
            return number.parse().ok();
        }
    }
    None
}

/// Peak resident set size of this process in kB (`VmHWM`), or `None` when
/// procfs is unavailable.
#[must_use]
pub fn peak_rss_kb() -> Option<u64> {
    status_field_kb("VmHWM")
}

/// Current resident set size of this process in kB (`VmRSS`).
#[must_use]
pub fn current_rss_kb() -> Option<u64> {
    status_field_kb("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_plausible_values_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        // Read current *first*: each probe re-reads /proc/self/status, and
        // memory allocated between the two snapshots could otherwise push the
        // later-read VmRSS above the earlier-read VmHWM.
        let current = current_rss_kb().expect("VmRSS present on Linux");
        let peak = peak_rss_kb().expect("VmHWM present on Linux");
        // A running Rust test binary occupies at least a few hundred kB and
        // the peak can never be below an earlier current level.
        assert!(current > 100, "current {current} kB");
        assert!(peak >= current, "peak {peak} < current {current}");
    }
}
