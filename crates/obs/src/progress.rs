//! The single stderr progress reporter for the whole pipeline.
//!
//! Two kinds of output flow through here:
//!
//! - **Notes** — the `# …` status lines the pipeline has always printed
//!   (`# wrote results.csv (64 rows)`, `# resuming fig10 …`). Notes print
//!   unless quiet.
//! - **Heartbeat** — a rate-limited live stderr line during a sweep with
//!   jobs done/total, rows/s, ETA, and current RSS. The heartbeat only runs
//!   when the reporter has been explicitly configured verbose (a CLI run
//!   without `--quiet`), so library consumers and `cargo test` stay silent.
//!
//! Precedence of controls: explicit `--quiet` beats everything; otherwise the
//! `SF_PROGRESS` environment variable (`0`/`false` → quiet, `1`/`true` →
//! heartbeat on) beats the in-process default. Unconfigured processes print
//! notes but no heartbeat.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::rss;

/// Environment variable overriding progress verbosity (`0` quiet, `1` live).
pub const PROGRESS_ENV: &str = "SF_PROGRESS";

const MODE_NOTES: u8 = 0; // unconfigured: notes yes, heartbeat no
const MODE_QUIET: u8 = 1;
const MODE_LIVE: u8 = 2;

const HEARTBEAT_EVERY: Duration = Duration::from_millis(250);

/// Rate limiter for the heartbeat line. Armed at sweep start so the first
/// beat waits a full interval — a sweep shorter than the interval prints no
/// heartbeat at all instead of flashing one before totals mean anything.
#[derive(Debug, Default)]
struct HeartbeatLimiter {
    last: Option<Instant>,
}

impl HeartbeatLimiter {
    /// A limiter whose first due beat is a full interval after `now`.
    fn armed(now: Instant) -> Self {
        Self { last: Some(now) }
    }

    /// Whether a beat is due at `now`; a due beat re-arms from `now`.
    fn due(&mut self, now: Instant) -> bool {
        let due = self
            .last
            .is_none_or(|last| now.duration_since(last) >= HEARTBEAT_EVERY);
        if due {
            self.last = Some(now);
        }
        due
    }
}

/// Estimated seconds remaining after `done` of `total` jobs took
/// `elapsed_secs`; `None` when no estimate exists (nothing done yet, or
/// nothing left).
fn eta_seconds(done: usize, total: usize, elapsed_secs: f64) -> Option<f64> {
    if done == 0 || total <= done || !elapsed_secs.is_finite() || elapsed_secs < 0.0 {
        return None;
    }
    Some(elapsed_secs / done as f64 * (total - done) as f64)
}

#[derive(Debug, Default)]
struct SweepState {
    label: String,
    total: usize,
    done: usize,
    rows: usize,
    started: Option<Instant>,
    beat: HeartbeatLimiter,
    line_open: bool,
}

/// Process-global progress reporter; obtain via [`Progress::global`].
#[derive(Debug)]
pub struct Progress {
    mode: AtomicU8,
    task: Mutex<String>,
    state: Mutex<SweepState>,
}

static GLOBAL: OnceLock<Progress> = OnceLock::new();

impl Progress {
    /// The process-global reporter instance.
    #[must_use]
    pub fn global() -> &'static Progress {
        GLOBAL.get_or_init(|| Progress {
            mode: AtomicU8::new(MODE_NOTES),
            task: Mutex::new(String::new()),
            state: Mutex::new(SweepState::default()),
        })
    }

    /// Names the current task (study name); subsequent sweeps report under
    /// this label.
    pub fn set_task(&self, name: &str) {
        *self.task.lock().expect("progress task poisoned") = name.to_string();
    }

    /// Configures the reporter from CLI intent: `quiet` silences everything;
    /// otherwise the heartbeat turns on. `SF_PROGRESS` overrides the
    /// non-quiet default (set to `0` to suppress the heartbeat *and* notes,
    /// `1` to force the heartbeat) but an explicit `--quiet` always wins.
    pub fn configure(&self, quiet: bool) {
        let mode = if quiet {
            MODE_QUIET
        } else {
            match std::env::var(PROGRESS_ENV).ok().as_deref() {
                Some("0") | Some("false") => MODE_QUIET,
                Some("1") | Some("true") => MODE_LIVE,
                _ => MODE_LIVE,
            }
        };
        self.mode.store(mode, Ordering::Relaxed);
    }

    /// Restores the unconfigured default (test isolation).
    pub fn reset(&self) {
        self.mode.store(MODE_NOTES, Ordering::Relaxed);
        self.task.lock().expect("progress task poisoned").clear();
        *self.state.lock().expect("progress state poisoned") = SweepState::default();
    }

    fn mode(&self) -> u8 {
        self.mode.load(Ordering::Relaxed)
    }

    /// True when all output (notes included) is suppressed.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.mode() == MODE_QUIET
    }

    /// Prints a status note (a `# …` line) unless quiet. Clears any open
    /// heartbeat line first so notes never interleave mid-line.
    pub fn note(&self, message: &str) {
        if self.is_quiet() {
            return;
        }
        let mut state = self.state.lock().expect("progress state poisoned");
        Self::clear_line(&mut state);
        eprintln!("{message}");
    }

    /// Begins a sweep of `total` jobs under the current task label. Resets
    /// row/ETA tracking.
    pub fn start_sweep(&self, total: usize) {
        let label = self.task.lock().expect("progress task poisoned").clone();
        let mut state = self.state.lock().expect("progress state poisoned");
        Self::clear_line(&mut state);
        let now = Instant::now();
        *state = SweepState {
            label: if label.is_empty() {
                "sweep".to_string()
            } else {
                label
            },
            total,
            started: Some(now),
            beat: HeartbeatLimiter::armed(now),
            ..SweepState::default()
        };
    }

    /// Records finished jobs and emitted rows, emitting a stderr heartbeat
    /// when due. Inert unless the reporter is live.
    pub fn tick(&self, jobs_done: usize, rows_done: usize) {
        if self.mode() != MODE_LIVE {
            return;
        }
        let mut state = self.state.lock().expect("progress state poisoned");
        state.done += jobs_done;
        state.rows += rows_done;
        // A tick outside any sweep (start_sweep not called yet) has no
        // totals or start time — a heartbeat here would print a `0/0 jobs`
        // line, so it only accumulates.
        let Some(started) = state.started else {
            return;
        };
        let now = Instant::now();
        if !state.beat.due(now) {
            return;
        }
        let secs = now.duration_since(started).as_secs_f64().max(1e-9);
        let rate = state.rows as f64 / secs;
        let eta =
            eta_seconds(state.done, state.total, secs).map_or_else(|| "--".to_string(), format_eta);
        let rss = rss::current_rss_kb().map_or_else(
            || "?".to_string(),
            |kb| format!("{:.1} MB", kb as f64 / 1024.0),
        );
        let line = format!(
            "# {}: {}/{} jobs  {:.0} rows/s  ETA {}  rss {}",
            state.label, state.done, state.total, rate, eta, rss
        );
        eprint!("\r\x1b[2K{line}");
        let _ = io::stderr().flush();
        state.line_open = true;
    }

    /// Ends the current sweep, clearing any open heartbeat line.
    pub fn finish_sweep(&self) {
        let mut state = self.state.lock().expect("progress state poisoned");
        Self::clear_line(&mut state);
        *state = SweepState::default();
    }

    fn clear_line(state: &mut SweepState) {
        if state.line_open {
            eprint!("\r\x1b[2K");
            let _ = io::stderr().flush();
            state.line_open = false;
        }
    }
}

fn format_eta(seconds: f64) -> String {
    if !seconds.is_finite() {
        return "--".to_string();
    }
    let total = seconds.round() as u64;
    if total >= 3600 {
        format!("{}h{:02}m", total / 3600, (total % 3600) / 60)
    } else if total >= 60 {
        format!("{}m{:02}s", total / 60, total % 60)
    } else {
        format!("{total}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_formats_across_magnitudes() {
        assert_eq!(format_eta(5.2), "5s");
        assert_eq!(format_eta(65.0), "1m05s");
        assert_eq!(format_eta(3661.0), "1h01m");
        assert_eq!(format_eta(f64::INFINITY), "--");
    }

    #[test]
    fn eta_estimates_remaining_work_and_knows_when_it_cannot() {
        // No estimate before the first completion or after the last one.
        assert_eq!(eta_seconds(0, 10, 5.0), None);
        assert_eq!(eta_seconds(10, 10, 5.0), None);
        // A total smaller than done (restored jobs over-delivering) must
        // not underflow into a bogus estimate.
        assert_eq!(eta_seconds(12, 10, 5.0), None);
        assert_eq!(eta_seconds(0, 0, 5.0), None);
        assert_eq!(eta_seconds(2, 10, f64::NAN), None);
        // 2 of 10 jobs in 4s -> 2s/job -> 16s for the remaining 8.
        assert_eq!(eta_seconds(2, 10, 4.0), Some(16.0));
        assert_eq!(eta_seconds(5, 10, 5.0), Some(5.0));
    }

    #[test]
    fn heartbeat_limiter_armed_at_sweep_start_waits_a_full_interval() {
        let t0 = Instant::now();
        let mut armed = HeartbeatLimiter::armed(t0);
        // The short-run edge case: within the first interval nothing fires,
        // so a sweep faster than HEARTBEAT_EVERY prints no heartbeat.
        assert!(!armed.due(t0));
        assert!(!armed.due(t0 + HEARTBEAT_EVERY / 2));
        assert!(armed.due(t0 + HEARTBEAT_EVERY));
        // A due beat re-arms from its own instant.
        assert!(!armed.due(t0 + HEARTBEAT_EVERY + HEARTBEAT_EVERY / 2));
        assert!(armed.due(t0 + HEARTBEAT_EVERY * 2));
        // The unarmed default fires immediately — which is why tick gates
        // on the sweep having started before consulting the limiter.
        let mut fresh = HeartbeatLimiter::default();
        assert!(fresh.due(t0));
    }

    // Mode state is process-global; exercise the transitions in one test.
    #[test]
    fn quiet_mode_suppresses_notes_and_ticks_are_inert_when_unconfigured() {
        let progress = Progress::global();
        progress.reset();
        assert!(!progress.is_quiet());
        // Unconfigured: ticks must not print (heartbeat requires MODE_LIVE),
        // exercised here only for absence of panics/state corruption.
        progress.set_task("unit");
        progress.start_sweep(4);
        progress.tick(1, 10);
        progress.finish_sweep();
        // A tick arriving before any start_sweep (the very-short-run edge
        // case) must never open a heartbeat line, whatever the mode.
        progress.configure(false);
        progress.tick(1, 1);
        assert!(!progress.state.lock().expect("state").line_open);
        progress.reset();
        progress.configure(true);
        assert!(progress.is_quiet());
        progress.note("# this line must not appear");
        progress.reset();
    }
}
