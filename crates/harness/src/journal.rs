//! Append-only checkpoint journal for resumable sweeps.
//!
//! A [`Journal`] persists the result cells of every completed sweep job next
//! to the artifact a run is producing, so an interrupted run can be resumed
//! with **bit-identical** final output: on restart, jobs whose results are
//! already journalled are restored instead of recomputed, and the remaining
//! jobs run as usual. Because cells round-trip exactly through the table
//! layer's CSV encoding (floats use shortest-roundtrip formatting), a
//! restored result is byte-for-byte the value the original job produced.
//!
//! ## File format
//!
//! ```text
//! #sf-journal v1 fp=<16 hex digits>
//! <sweep>,<index>,<cell>,<cell>,...
//! ```
//!
//! * The header carries a caller-supplied [`fingerprint`] of the run's
//!   identity (study name, scale, grid shape). A journal whose fingerprint
//!   does not match the resuming run is discarded, never misapplied.
//! * Each data line is one completed job: the sweep sequence number within
//!   the run, the job's index in that sweep, then the job's encoded result
//!   cells ([`encode_csv_line`]).
//! * Lines are appended and flushed one at a time, so after `kill -9` the
//!   file holds every fully recorded job plus at most one partial line. The
//!   loader only trusts newline-terminated lines, which makes a torn final
//!   write indistinguishable from "job never finished".
//!
//! A journal whose header carries anything after the fingerprint — such as
//! the ` snapshot` marker older builds wrote when they compacted a log — is
//! unusable: it is discarded and the run starts fresh, never misapplied.

use crate::table::{decode_csv_line, encode_csv_line, Value};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic prefix of the journal header line.
const HEADER_PREFIX: &str = "#sf-journal v1 fp=";

/// FNV-1a hash over the given identity parts, separated by `\x1f` so part
/// boundaries cannot collide. Used to stamp a journal with the run
/// configuration it belongs to.
#[must_use]
pub fn fingerprint<I, S>(parts: I) -> u64
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for byte in part.as_ref().bytes().chain(std::iter::once(0x1f)) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Reads the fingerprint stamped in the journal header at `path` without
/// opening the journal for writing. `None` if the file is missing, empty, or
/// does not start with a journal header — callers use this to report *which*
/// configuration an incompatible journal belonged to before it is discarded.
#[must_use]
pub fn peek_fingerprint(path: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let header = text.split_inclusive('\n').next()?.strip_suffix('\n')?;
    u64::from_str_radix(header.strip_prefix(HEADER_PREFIX)?, 16).ok()
}

/// An append-only record of completed sweep jobs, keyed by
/// `(sweep sequence, job index)`.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    restored: BTreeMap<(u64, u64), Vec<Value>>,
    file: Mutex<File>,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for a run identified by
    /// `fingerprint`.
    ///
    /// An existing file with a matching fingerprint has its complete lines
    /// loaded as restorable results; a missing, empty, corrupt, or
    /// mismatching file is truncated and the run starts from scratch.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from opening or creating the file.
    pub fn open(path: impl Into<PathBuf>, fingerprint: u64) -> io::Result<Self> {
        let path = path.into();
        let mut restored = BTreeMap::new();
        let mut valid_len = 0u64;
        if let Ok(existing) = std::fs::read_to_string(&path) {
            if let Some(entries) = parse_existing(&existing, fingerprint) {
                restored = entries;
                // Only the newline-terminated prefix is trustworthy; a torn
                // final write must be cut off so the next append starts a
                // fresh line instead of fusing with the torn bytes.
                valid_len = existing.rfind('\n').map_or(0, |i| i + 1) as u64;
            }
        }
        let file = if restored.is_empty() {
            let mut file = File::create(&path)?;
            file.write_all(format!("{HEADER_PREFIX}{fingerprint:016x}\n").as_bytes())?;
            file.flush()?;
            file
        } else {
            let file = OpenOptions::new().append(true).open(&path)?;
            file.set_len(valid_len)?;
            sf_obs::metrics::global()
                .counter_add("journal.restored_entries", restored.len() as u64);
            file
        };
        Ok(Self {
            path,
            restored,
            file: Mutex::new(file),
        })
    }

    /// The journal file's location.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of job results restored from a previous interrupted run.
    #[must_use]
    pub fn restored_count(&self) -> usize {
        self.restored.len()
    }

    /// The restored result cells for job `index` of sweep `sweep`, if that
    /// job completed in a previous run.
    #[must_use]
    pub fn restored(&self, sweep: u64, index: u64) -> Option<&[Value]> {
        self.restored.get(&(sweep, index)).map(Vec::as_slice)
    }

    /// Bytes currently in the journal file (0 once it is gone).
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        std::fs::metadata(&self.path).map_or(0, |m| m.len())
    }

    /// Appends one completed job's result cells and flushes, so the entry
    /// survives the process dying right after this call returns.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the append.
    pub fn record(&self, sweep: u64, index: u64, cells: &[Value]) -> io::Result<()> {
        let io_timer = sf_obs::span::timing_start();
        let line = format!("{sweep},{index},{}\n", encode_csv_line(cells));
        let mut file = self.file.lock().expect("journal writer poisoned");
        file.write_all(line.as_bytes())?;
        file.flush()?;
        drop(file);
        sf_obs::span::timing_add("journal_io", io_timer, 1);
        let metrics = sf_obs::metrics::global();
        metrics.counter_add("journal.appends", 1);
        metrics.counter_add("journal.bytes_appended", line.len() as u64);
        Ok(())
    }

    /// Deletes the journal file — call once the run's final artifact has been
    /// written, so a completed run leaves nothing to resume.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the file already being gone.
    pub fn finish(&self) -> io::Result<()> {
        match std::fs::remove_file(&self.path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// Parses an existing journal file; `None` means "unusable, start fresh"
/// (wrong header or fingerprint). Undecodable or truncated data lines are
/// skipped individually — every line is self-contained.
fn parse_existing(text: &str, fingerprint: u64) -> Option<BTreeMap<(u64, u64), Vec<Value>>> {
    let mut lines = text.split_inclusive('\n');
    let header = lines.next()?.strip_suffix('\n')?;
    if u64::from_str_radix(header.strip_prefix(HEADER_PREFIX)?, 16) != Ok(fingerprint) {
        return None;
    }
    let mut restored = BTreeMap::new();
    for line in lines {
        // A line without a trailing newline is a torn final write: drop it.
        let Some(line) = line.strip_suffix('\n') else {
            continue;
        };
        let Ok(cells) = decode_csv_line(line) else {
            continue;
        };
        if cells.len() < 2 {
            continue;
        }
        let (Value::UInt(sweep), Value::UInt(index)) = (&cells[0], &cells[1]) else {
            continue;
        };
        restored.insert((*sweep, *index), cells[2..].to_vec());
    }
    Some(restored)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("sf-journal-test-{}-{name}", std::process::id()));
        path
    }

    #[test]
    fn records_survive_reopen_and_round_trip_exactly() {
        let path = temp_path("round-trip");
        let fp = fingerprint(["fig10", "quick"]);
        {
            let journal = Journal::open(&path, fp).unwrap();
            assert_eq!(journal.restored_count(), 0);
            journal
                .record(0, 3, &[Value::Float(0.1 + 0.2), Value::Str("SF".into())])
                .unwrap();
            journal
                .record(1, 0, &[Value::Null, Value::UInt(7)])
                .unwrap();
        }
        let journal = Journal::open(&path, fp).unwrap();
        assert_eq!(journal.restored_count(), 2);
        assert_eq!(
            journal.restored(0, 3).unwrap(),
            &[Value::Float(0.1 + 0.2), Value::Str("SF".into())]
        );
        assert_eq!(
            journal.restored(1, 0).unwrap(),
            &[Value::Null, Value::UInt(7)]
        );
        assert!(journal.restored(0, 4).is_none());
        journal.finish().unwrap();
        assert!(!path.exists());
        journal.finish().unwrap(); // idempotent
    }

    #[test]
    fn mismatched_fingerprint_discards_the_file() {
        let path = temp_path("fingerprint");
        {
            let journal = Journal::open(&path, 1).unwrap();
            journal.record(0, 0, &[Value::UInt(42)]).unwrap();
        }
        let journal = Journal::open(&path, 2).unwrap();
        assert_eq!(journal.restored_count(), 0);
        journal.finish().unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped_and_truncated_before_appending() {
        let path = temp_path("torn");
        let fp = fingerprint(["x"]);
        {
            let journal = Journal::open(&path, fp).unwrap();
            journal.record(0, 0, &[Value::UInt(1)]).unwrap();
        }
        // Simulate a kill mid-write: append half a line with no newline.
        {
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(b"0,1,99").unwrap();
        }
        let journal = Journal::open(&path, fp).unwrap();
        assert_eq!(journal.restored_count(), 1);
        assert!(journal.restored(0, 1).is_none());
        // The torn bytes must not fuse with the next appended record.
        journal.record(0, 5, &[Value::UInt(7)]).unwrap();
        drop(journal);
        let journal = Journal::open(&path, fp).unwrap();
        assert_eq!(journal.restored_count(), 2);
        assert_eq!(journal.restored(0, 0).unwrap(), &[Value::UInt(1)]);
        assert_eq!(journal.restored(0, 5).unwrap(), &[Value::UInt(7)]);
        journal.finish().unwrap();
    }

    #[test]
    fn fingerprints_separate_parts() {
        assert_ne!(fingerprint(["ab", "c"]), fingerprint(["a", "bc"]));
        assert_eq!(fingerprint(["a", "b"]), fingerprint(["a", "b"]));
    }

    #[test]
    fn snapshot_journals_from_older_builds_are_discarded() {
        // Older builds compacted a log into a snapshot whose header ends in
        // " snapshot"; its lines must never be restored into a run.
        let path = temp_path("snapshot");
        let fp = fingerprint(["fig10", "quick"]);
        std::fs::write(&path, format!("{HEADER_PREFIX}{fp:016x} snapshot\n0,0,1\n")).unwrap();
        assert_eq!(peek_fingerprint(&path), None);
        let journal = Journal::open(&path, fp).unwrap();
        assert_eq!(journal.restored_count(), 0);
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, format!("{HEADER_PREFIX}{fp:016x}\n"));
        std::fs::remove_file(&path).unwrap();
    }
}
