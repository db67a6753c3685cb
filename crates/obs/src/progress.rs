//! The single stderr progress reporter for the whole pipeline.
//!
//! Two kinds of output flow through here:
//!
//! - **Notes** — the `# …` status lines the pipeline has always printed
//!   (`# wrote results.csv (64 rows)`, `# resuming fig10 …`). Notes print
//!   unless quiet.
//! - **Heartbeat** — a rate-limited live line during a sweep with jobs
//!   done/total, rows/s, ETA, and current RSS. The heartbeat only runs when
//!   the reporter has been explicitly configured verbose (a CLI run without
//!   `--quiet`), so library consumers and `cargo test` stay silent.
//!
//! Precedence of controls: explicit `--quiet` beats everything; otherwise the
//! `SF_PROGRESS` environment variable (`0`/`false` → quiet, `1`/`true` →
//! heartbeat on) beats the in-process default. Unconfigured processes print
//! notes but no heartbeat.

use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::rss;

/// Environment variable overriding progress verbosity (`0` quiet, `1` live).
pub const PROGRESS_ENV: &str = "SF_PROGRESS";

/// Environment variable naming a machine-readable heartbeat file. When set,
/// every sweep writes a one-line JSON snapshot of its progress there
/// (atomically, via temp + rename) regardless of the stderr mode — this is
/// how `sfbench dispatch` workers report progress to the coordinator while
/// running `--quiet`.
pub const HEARTBEAT_FILE_ENV: &str = "SF_HEARTBEAT_FILE";

/// Environment variable naming the pid of the supervising process (the
/// `sfbench dispatch` coordinator sets it to its own pid when spawning
/// workers). When set, every progress tick checks whether this process has
/// been **reparented** — the supervisor died hard (`kill -9`, OOM) and could
/// not tear its workers down — and exits with [`ORPHAN_EXIT_CODE`] instead
/// of running on as an orphan. Graceful supervisor exits (panic, error
/// return, Ctrl-C) kill workers directly via their RAII handles; this check
/// is the backstop for the exits no userspace cleanup survives.
pub const WATCH_PARENT_ENV: &str = "SF_WATCH_PARENT";

/// Exit code of a worker that found itself orphaned (see
/// [`WATCH_PARENT_ENV`]).
pub const ORPHAN_EXIT_CODE: i32 = 3;

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
    /// Destination of the machine-readable heartbeat, from
    /// [`HEARTBEAT_FILE_ENV`] at sweep start; `None` disables the channel.
    heartbeat_path: Option<PathBuf>,
    /// Separate limiter for the heartbeat file, so quiet workers still beat.
    file_beat: HeartbeatLimiter,
}

/// Renders the one-line JSON heartbeat snapshot (`sf-heartbeat/v1`).
#[must_use]
pub fn heartbeat_line(
    label: &str,
    done: usize,
    total: usize,
    rows: usize,
    elapsed_ms: u128,
    finished: bool,
) -> String {
    let escaped: String = label
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            '\n' => vec!['\\', 'n'],
            other => vec![other],
        })
        .collect();
    format!(
        "{{\"schema\":\"sf-heartbeat/v1\",\"label\":\"{escaped}\",\"done\":{done},\"total\":{total},\"rows\":{rows},\"elapsed_ms\":{elapsed_ms},\"finished\":{finished}}}\n"
    )
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
            heartbeat_path: std::env::var_os(HEARTBEAT_FILE_ENV).map(PathBuf::from),
            // Unarmed: the first in-sweep tick beats the file immediately,
            // after the initial snapshot below.
            file_beat: HeartbeatLimiter::armed(now),
            ..SweepState::default()
        };
        Self::write_heartbeat(&state, Duration::ZERO, false);
    }

    /// Records finished jobs and emitted rows, emitting a stderr heartbeat
    /// when due — and, with [`HEARTBEAT_FILE_ENV`] set, the machine-readable
    /// heartbeat file *whatever the stderr mode* (dispatch workers run
    /// `--quiet` yet must still report progress to their coordinator).
    ///
    /// With [`WATCH_PARENT_ENV`] set, every tick also verifies the
    /// supervising process is still this process's parent, exiting with
    /// [`ORPHAN_EXIT_CODE`] otherwise — the orphaned-worker backstop for a
    /// coordinator killed too hard to clean up after itself.
    pub fn tick(&self, jobs_done: usize, rows_done: usize) {
        exit_if_orphaned();
        let live = self.mode() == MODE_LIVE;
        let mut state = self.state.lock().expect("progress state poisoned");
        if !live && state.heartbeat_path.is_none() {
            return;
        }
        state.done += jobs_done;
        state.rows += rows_done;
        // A tick outside any sweep (start_sweep not called yet) has no
        // totals or start time — a heartbeat here would print a `0/0 jobs`
        // line, so it only accumulates.
        let Some(started) = state.started else {
            return;
        };
        let now = Instant::now();
        if state.file_beat.due(now) {
            Self::write_heartbeat(&state, now.duration_since(started), false);
        }
        if !live || !state.beat.due(now) {
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

    /// Ends the current sweep, clearing any open heartbeat line and marking
    /// the heartbeat file finished.
    pub fn finish_sweep(&self) {
        let mut state = self.state.lock().expect("progress state poisoned");
        Self::clear_line(&mut state);
        let elapsed = state
            .started
            .map_or(Duration::ZERO, |started| started.elapsed());
        Self::write_heartbeat(&state, elapsed, true);
        *state = SweepState::default();
    }

    /// Writes the heartbeat file atomically (temp sibling + rename), so the
    /// coordinator never reads a torn snapshot. Failures are swallowed — the
    /// heartbeat is advisory and must never fail a run.
    fn write_heartbeat(state: &SweepState, elapsed: Duration, finished: bool) {
        let Some(path) = &state.heartbeat_path else {
            return;
        };
        let line = heartbeat_line(
            &state.label,
            state.done,
            state.total,
            state.rows,
            elapsed.as_millis(),
            finished,
        );
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        if std::fs::write(&tmp, line).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }

    fn clear_line(state: &mut SweepState) {
        if state.line_open {
            eprint!("\r\x1b[2K");
            let _ = io::stderr().flush();
            state.line_open = false;
        }
    }
}

/// Whether this process has been reparented away from `watched` — i.e. the
/// supervising process named by [`WATCH_PARENT_ENV`] is gone and the kernel
/// handed us to init (or the nearest subreaper). Always `false` on
/// non-Unix targets.
#[must_use]
pub fn orphaned(watched: u32) -> bool {
    #[cfg(unix)]
    {
        std::os::unix::process::parent_id() != watched
    }
    #[cfg(not(unix))]
    {
        let _ = watched;
        false
    }
}

/// The pid parsed from [`WATCH_PARENT_ENV`], read once per process.
fn watched_parent() -> Option<u32> {
    static WATCHED: OnceLock<Option<u32>> = OnceLock::new();
    *WATCHED.get_or_init(|| {
        std::env::var(WATCH_PARENT_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
    })
}

/// Exits with [`ORPHAN_EXIT_CODE`] when the supervisor named by
/// [`WATCH_PARENT_ENV`] is no longer this process's parent. A no-op when
/// the variable is unset (the overwhelmingly common case: one atomic load
/// after the first call).
fn exit_if_orphaned() {
    if let Some(watched) = watched_parent() {
        if orphaned(watched) {
            std::process::exit(ORPHAN_EXIT_CODE);
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
    fn heartbeat_line_is_one_json_object_with_escaped_label() {
        let line = heartbeat_line("megasweep", 3, 24, 3, 1234, false);
        assert_eq!(
            line,
            "{\"schema\":\"sf-heartbeat/v1\",\"label\":\"megasweep\",\"done\":3,\"total\":24,\"rows\":3,\"elapsed_ms\":1234,\"finished\":false}\n"
        );
        let hostile = heartbeat_line("we\"ird\\lab\nel", 0, 0, 0, 0, true);
        assert!(hostile.contains("we\\\"ird\\\\lab\\nel"), "{hostile}");
        assert!(
            hostile.trim_end().ends_with("\"finished\":true}"),
            "{hostile}"
        );
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

    #[test]
    fn orphan_detection_compares_against_the_actual_parent() {
        #[cfg(unix)]
        {
            let real_parent = std::os::unix::process::parent_id();
            assert!(!orphaned(real_parent));
            // Pid 0 is never a process's parent — a watched supervisor that
            // is gone looks exactly like this.
            assert!(orphaned(0));
        }
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
