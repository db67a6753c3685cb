//! Atomic artifact publication.
//!
//! [`publish`] serialises a [`Table`] as CSV or JSON into a temporary sibling
//! file (`<path>.part`) and renames it over the destination, so the final
//! path only ever holds complete artifacts — a run killed mid-write leaves
//! the previous artifact (or nothing) in place, never a torn one.

use crate::table::Table;
use std::io;
use std::path::{Path, PathBuf};

/// The serialisation [`publish`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// [`Table::to_csv`].
    Csv,
    /// [`Table::to_json`].
    Json,
}

/// Writes `table` in `format` to `<path>.part`, then atomically renames it
/// over `path`.
///
/// # Errors
///
/// Propagates filesystem errors; on error the destination is untouched and
/// no `.part` file is left behind.
pub fn publish(path: &Path, table: &Table, format: Format) -> io::Result<()> {
    let flush_timer = sf_obs::span::timing_start();
    let text = match format {
        Format::Csv => table.to_csv(),
        Format::Json => table.to_json(),
    };
    let mut part = path.as_os_str().to_owned();
    part.push(".part");
    let part = PathBuf::from(part);
    if let Err(e) = std::fs::write(&part, &text).and_then(|()| std::fs::rename(&part, path)) {
        let _ = std::fs::remove_file(&part);
        return Err(e);
    }
    sf_obs::span::timing_add("sink_flush", flush_timer, 1);
    let metrics = sf_obs::metrics::global();
    metrics.counter_add("sink.rows", table.len() as u64);
    metrics.counter_add("sink.bytes", text.len() as u64);
    metrics.counter_add("sink.artifacts", 1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Value;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sf-sink-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn published_artifacts_match_the_table_bytes() {
        let mut table = Table::with_columns(&["name", "nodes", "point"]);
        table.push_row(vec![
            "SF, \"quoted\"".into(),
            64usize.into(),
            Value::Float(62.5),
        ]);
        table.push_row(vec!["17".into(), 1296usize.into(), Value::Null]);
        for (format, expected) in [
            (Format::Csv, table.to_csv()),
            (Format::Json, table.to_json()),
        ] {
            let path = temp(&format!("{format:?}"));
            // A previous artifact is replaced, not appended to.
            std::fs::write(&path, "stale").unwrap();
            publish(&path, &table, format).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
            assert!(!PathBuf::from(format!("{}.part", path.display())).exists());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn unfinished_sink_leaves_no_partial_artifact() {
        // A directory in the way makes the final rename fail after the
        // `.part` file was written: the error must surface, the `.part`
        // file must go, and the destination must be left as it was.
        let path = temp("blocked");
        let part = PathBuf::from(format!("{}.part", path.display()));
        std::fs::create_dir_all(&path).unwrap();
        let table = Table::with_columns(&["a"]);
        assert!(publish(&path, &table, Format::Csv).is_err());
        assert!(!part.exists(), "abandoned .part must be cleaned up");
        assert!(path.is_dir(), "destination must be untouched");
        std::fs::remove_dir(&path).unwrap();
    }
}
