//! Property tests for the checkpoint journal's kill-safety contract: a
//! process death at **any byte offset** of the journal file — including the
//! middle of the header, the middle of a data line, or a torn final write —
//! must never panic on reopen, and a resume driven by the surviving journal
//! must emit a CSV **byte-identical** to an uninterrupted run.

use proptest::prelude::*;
use sf_harness::journal::{fingerprint, Journal};
use sf_harness::table::{Table, Value};
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("sf-journal-prop-{}-{tag}", std::process::id()));
    path
}

/// The deterministic "result" of job `i`: mixed cell types, floats chosen so
/// shortest-roundtrip formatting is non-trivial.
fn job_cells(i: u64) -> Vec<Value> {
    vec![
        Value::UInt(i),
        Value::Float((i as f64).mul_add(0.3, 0.1) / 7.0),
        Value::Str(format!("job-{i}")),
        Value::Bool(i.is_multiple_of(3)),
    ]
}

/// Assembles the final artifact a run over `jobs` jobs would emit.
fn artifact(jobs: u64, row: impl Fn(u64) -> Vec<Value>) -> String {
    let mut table = Table::with_columns(&["id", "metric", "label", "flag"]);
    for i in 0..jobs {
        table.push_row(row(i));
    }
    table.to_csv()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill the journal at an arbitrary byte offset, resume, and demand the
    /// final CSV bytes of an uninterrupted run.
    #[test]
    fn prop_truncation_at_any_offset_resumes_byte_identically(
        jobs in 3u64..24,
        cut_sel in any::<u32>(),
    ) {
        let path = temp_path(&format!("cut-{jobs}-{cut_sel}"));
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint(["prop-study", "quick"]);
        let reference = artifact(jobs, job_cells);

        // A complete run's journal...
        {
            let journal = Journal::open(&path, fp).unwrap();
            for i in 0..jobs {
                journal.record(0, i, &job_cells(i)).unwrap();
            }
        }
        // ...killed at an arbitrary byte offset (0 = everything lost,
        // len = nothing lost, anything between may tear the header or a
        // data line in half).
        let bytes = std::fs::read(&path).unwrap();
        let cut = (cut_sel as usize) % (bytes.len() + 1);
        std::fs::write(&path, &bytes[..cut]).unwrap();

        // Reopen must never panic, and every surviving entry must decode to
        // exactly what the original job produced.
        let journal = Journal::open(&path, fp).unwrap();
        prop_assert!(journal.restored_count() <= jobs as usize);
        for i in 0..jobs {
            if let Some(cells) = journal.restored(0, i) {
                prop_assert_eq!(cells, job_cells(i).as_slice(), "job {}", i);
            }
        }

        // Resume: restored jobs come from the journal, the rest recompute
        // (and are re-recorded, like RunContext::run_jobs does).
        let resumed = artifact(jobs, |i| match journal.restored(0, i) {
            Some(cells) => cells.to_vec(),
            None => {
                let cells = job_cells(i);
                journal.record(0, i, &cells).unwrap();
                cells
            }
        });
        prop_assert_eq!(&resumed, &reference);

        // A second resume finds every job journalled and still agrees.
        drop(journal);
        let reopened = Journal::open(&path, fp).unwrap();
        prop_assert_eq!(reopened.restored_count(), jobs as usize);
        let replay = artifact(jobs, |i| reopened.restored(0, i).unwrap().to_vec());
        prop_assert_eq!(&replay, &reference);
        reopened.finish().unwrap();
    }

    /// Garbage appended after a kill (torn multi-line writes, partial UTF-8
    /// from a crashing writer) must be ignored line by line, never panic,
    /// and never corrupt the surviving entries.
    #[test]
    fn prop_trailing_garbage_never_panics_or_corrupts(
        jobs in 1u64..10,
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Keep the garbage valid UTF-8-ish by masking to ASCII; the loader
        // reads the file as a string, so raw bytes are exercised through
        // lossy decoding of realistic torn writes.
        let garbage: Vec<u8> = garbage.iter().map(|b| b & 0x7f).collect();
        let tag = format!("garbage-{jobs}-{}", garbage.len());
        let path = temp_path(&tag);
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint(["prop-study", "garbage"]);
        {
            let journal = Journal::open(&path, fp).unwrap();
            for i in 0..jobs {
                journal.record(0, i, &job_cells(i)).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&garbage);
        std::fs::write(&path, &bytes).unwrap();

        let journal = Journal::open(&path, fp).unwrap();
        // Every original job must survive regardless of the garbage tail.
        for i in 0..jobs {
            prop_assert_eq!(
                journal.restored(0, i).map(<[Value]>::to_vec),
                Some(job_cells(i)),
                "job {}",
                i
            );
        }
        journal.finish().unwrap();
    }
}
