//! Append-only JSON-lines journals for resumable grid runs.
//!
//! A [`Checkpoint<T>`] persists completed work-item results keyed by a
//! caller-chosen string (the fault campaign uses
//! `"<severity-bits>:<seed>"`). The file format is
//! JSON-lines: a header line carrying a *fingerprint* of the run
//! configuration, then one `{"key": ..., "value": ...}` record per
//! completed cell. On resume the runner skips journaled keys and reuses
//! their stored values verbatim.
//!
//! Two properties make resumed reports bit-identical to uninterrupted
//! runs:
//!
//! 1. **Append-only persistence.** Every append writes one record line
//!    to the end of the file and syncs it with `sync_data`, so the cost
//!    of a run's journal is linear in its cells. A kill mid-append can
//!    tear only the final line; [`Checkpoint::load`] drops a final line
//!    that lacks its newline and does not parse, truncates the file back
//!    to the last complete line, and counts the drop in
//!    `checkpoint.torn_lines`. The torn cell is simply recomputed.
//! 2. **Exact round-trips.** `serde_json` prints `f64` with enough
//!    digits (Grisu/Ryū shortest representation) that every finite value
//!    parses back to the identical bit pattern, and the
//!    [`guard`](crate::guard) firewall keeps non-finite values out of
//!    journaled results.
//!
//! The fingerprint guards against resuming with the wrong configuration:
//! [`Checkpoint::load`] fails if the file's header does not match the
//! fingerprint the runner derives from its spec, rather than silently
//! splicing cells from two different experiments.

use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A checkpoint journal failed to be created, read, or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    /// The journal path involved.
    pub path: PathBuf,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for CheckpointError {}

fn error(path: &Path, message: String) -> CheckpointError {
    CheckpointError {
        path: path.to_path_buf(),
        message,
    }
}

impl From<CheckpointError> for crate::error::SimError {
    fn from(e: CheckpointError) -> Self {
        crate::error::SimError::Checkpoint {
            message: e.to_string(),
        }
    }
}

#[derive(Serialize, Deserialize)]
struct Header {
    fingerprint: String,
}

// The vendored serde derive does not handle generic types, so the record
// wrappers implement the value-tree traits by hand.
/// Borrowing record wrapper used when serializing, so appends don't
/// clone the journaled value.
struct RecordRef<'a, T> {
    key: &'a str,
    value: &'a T,
}

impl<T: Serialize> Serialize for RecordRef<'_, T> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("key".to_string(), Value::Str(self.key.to_string())),
            ("value".to_string(), self.value.to_value()),
        ])
    }
}

struct Record<T> {
    key: String,
    value: T,
}

impl<T: Deserialize> Deserialize for Record<T> {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let key = value
            .get("key")
            .ok_or_else(|| serde::Error::custom("missing 'key' field"))?;
        let payload = value
            .get("value")
            .ok_or_else(|| serde::Error::custom("missing 'value' field"))?;
        Ok(Record {
            key: String::from_value(key)?,
            value: T::from_value(payload)?,
        })
    }
}

/// A resumable journal of completed work items.
///
/// `T` is the per-cell result type; it must round-trip through JSON
/// (which, for structs of finite `f64`s and integers, is bit-exact).
#[derive(Debug)]
pub struct Checkpoint<T> {
    path: PathBuf,
    /// The journal, open in append mode.
    file: fs::File,
    entries: HashMap<String, T>,
}

impl<T: Serialize + Deserialize> Checkpoint<T> {
    /// Starts a fresh journal at `path`, writing the header line.
    ///
    /// Truncates any existing file: creating is an explicit "start over".
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] if the file cannot be written.
    pub fn create(path: &Path, fingerprint: &str) -> Result<Self, CheckpointError> {
        let mut ckpt = Self::open(path, HashMap::new())?;
        ckpt.file
            .set_len(0)
            .map_err(|e| error(path, format!("cannot truncate journal: {e}")))?;
        ckpt.write_line(&Header {
            fingerprint: fingerprint.to_string(),
        })?;
        Ok(ckpt)
    }

    /// Loads an existing journal, verifying its fingerprint.
    ///
    /// A final line with no trailing newline that does not parse is the
    /// remains of an append cut short by a kill: it is dropped and the
    /// file truncated back to the last newline, so the next append starts
    /// on its own line. A journal whose header itself is torn (or empty)
    /// holds no records and starts over as [`Checkpoint::create`] would.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] if the file is missing or malformed,
    /// or if its header fingerprint differs from `fingerprint` (the
    /// journal belongs to a different run configuration).
    pub fn load(path: &Path, fingerprint: &str) -> Result<Self, CheckpointError> {
        let err = |message| error(path, message);
        let _load = refocus_obs::span("checkpoint.load");
        let text =
            fs::read_to_string(path).map_err(|e| err(format!("cannot read checkpoint: {e}")))?;
        refocus_obs::counter("checkpoint.bytes_read", text.len() as u64);
        let mut lines = text.split_inclusive('\n');
        let header_line = lines.next().unwrap_or_default();
        let header: Header = match serde_json::from_str(header_line) {
            Ok(header) => header,
            // A kill inside `create` left no complete header, so no record
            // either: there is nothing to resume or to mismatch.
            Err(_) if !header_line.ends_with('\n') => {
                refocus_obs::counter("checkpoint.torn_lines", 1);
                return Self::create(path, fingerprint);
            }
            Err(e) => return Err(err(format!("malformed header line: {e}"))),
        };
        if header.fingerprint != fingerprint {
            return Err(err(format!(
                "fingerprint mismatch: journal was written by a different run \
                 configuration (found '{}', expected '{}')",
                header.fingerprint, fingerprint
            )));
        }
        let mut entries = HashMap::new();
        let mut torn_at = None;
        for (n, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record: Record<T> = match serde_json::from_str(line) {
                Ok(record) => record,
                // Only the final line can lack its newline.
                Err(_) if !line.ends_with('\n') => {
                    torn_at = Some(text.len() - line.len());
                    break;
                }
                Err(e) => return Err(err(format!("malformed record on line {}: {e}", n + 2))),
            };
            if entries.insert(record.key.clone(), record.value).is_some() {
                return Err(err(format!(
                    "duplicate key '{}' on line {}",
                    record.key,
                    n + 2
                )));
            }
        }

        let mut ckpt = Self::open(path, entries)?;
        if let Some(len) = torn_at {
            ckpt.file
                .set_len(len as u64)
                .and_then(|()| ckpt.file.sync_data())
                .map_err(|e| err(format!("cannot drop torn final line: {e}")))?;
            refocus_obs::counter("checkpoint.torn_lines", 1);
        } else if !text.ends_with('\n') {
            // A complete final line that lost only its newline.
            ckpt.file
                .write_all(b"\n")
                .map_err(|e| err(format!("cannot end the final line: {e}")))?;
        }
        Ok(ckpt)
    }

    /// Loads `path` if it exists (verifying the fingerprint), otherwise
    /// starts a fresh journal there.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on I/O failure, a malformed journal,
    /// or a fingerprint mismatch.
    pub fn load_or_create(path: &Path, fingerprint: &str) -> Result<Self, CheckpointError> {
        if path.exists() {
            Self::load(path, fingerprint)
        } else {
            Self::create(path, fingerprint)
        }
    }

    /// Whether `key` has already been journaled.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// The journaled value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&T> {
        self.entries.get(key)
    }

    /// Number of journaled records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal has no records yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends one completed cell as one synced line at the end of the
    /// journal.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] if `key` is already journaled (the
    /// runner's skip logic failed) or the write fails.
    pub fn append(&mut self, key: &str, value: T) -> Result<(), CheckpointError> {
        if self.contains(key) {
            return Err(error(&self.path, format!("key '{key}' already journaled")));
        }
        self.write_line(&RecordRef { key, value: &value })?;
        self.entries.insert(key.to_string(), value);
        Ok(())
    }

    fn open(path: &Path, entries: HashMap<String, T>) -> Result<Self, CheckpointError> {
        let file = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| error(path, format!("cannot open journal: {e}")))?;
        Ok(Checkpoint {
            path: path.to_path_buf(),
            file,
            entries,
        })
    }

    /// Writes `line` and its newline in one call and syncs the data, so a
    /// kill can tear at most this final line.
    fn write_line(&mut self, line: &impl Serialize) -> Result<(), CheckpointError> {
        let _persist =
            refocus_obs::span_with("checkpoint.persist", || format!("records={}", self.len()));
        let mut text = serde_json::to_string(line)
            .map_err(|e| error(&self.path, format!("cannot serialize journal line: {e}")))?;
        text.push('\n');
        refocus_obs::counter("checkpoint.bytes_written", text.len() as u64);
        refocus_obs::counter("checkpoint.persists", 1);
        self.file
            .write_all(text.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| error(&self.path, format!("cannot append to journal: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("refocus-checkpoint-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn create_append_reload_round_trips() {
        let path = scratch("round-trip");
        let _ = fs::remove_file(&path);
        let mut ckpt: Checkpoint<Vec<f64>> =
            Checkpoint::create(&path, "spec-v1").expect("create succeeds in temp dir");
        ckpt.append("a", vec![1.0, 0.1 + 0.2]).expect("append a");
        ckpt.append("b", vec![-3.5e-9]).expect("append b");

        let back: Checkpoint<Vec<f64>> =
            Checkpoint::load(&path, "spec-v1").expect("reload succeeds");
        assert_eq!(back.len(), 2);
        assert!(back.contains("a") && back.contains("b"));
        // Bit-exact f64 round-trip, including the 0.30000000000000004
        // artifact that a lossy printer would flatten.
        assert_eq!(
            back.get("a").expect("key a present")[1].to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let path = scratch("fingerprint");
        let _ = fs::remove_file(&path);
        let _: Checkpoint<u32> = Checkpoint::create(&path, "spec-v1").expect("create");
        let err = Checkpoint::<u32>::load(&path, "spec-v2").expect_err("must reject");
        assert!(err.message.contains("fingerprint mismatch"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn duplicate_append_is_rejected() {
        let path = scratch("duplicate");
        let _ = fs::remove_file(&path);
        let mut ckpt: Checkpoint<u32> = Checkpoint::create(&path, "f").expect("create");
        ckpt.append("k", 1).expect("first append");
        let err = ckpt.append("k", 2).expect_err("duplicate must fail");
        assert!(err.message.contains("already journaled"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_or_create_picks_the_right_branch() {
        let path = scratch("load-or-create");
        let _ = fs::remove_file(&path);
        let mut first: Checkpoint<u8> =
            Checkpoint::load_or_create(&path, "f").expect("creates when missing");
        first.append("x", 7).expect("append");
        let second: Checkpoint<u8> =
            Checkpoint::load_or_create(&path, "f").expect("loads when present");
        assert_eq!(second.get("x"), Some(&7));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_dropped_and_the_file_truncated() {
        let path = scratch("torn");
        let mut ckpt: Checkpoint<u32> = Checkpoint::create(&path, "f").expect("create");
        ckpt.append("a", 1).expect("append a");
        drop(ckpt);
        let intact = fs::read_to_string(&path).expect("read journal");
        fs::write(&path, format!("{intact}{{\"key\":\"b\",\"va")).expect("tear the tail");

        let mut back: Checkpoint<u32> = Checkpoint::load(&path, "f").expect("torn tail drops");
        assert_eq!(back.len(), 1);
        assert_eq!(fs::read_to_string(&path).expect("read journal"), intact);
        back.append("b", 2).expect("append b");
        let again: Checkpoint<u32> = Checkpoint::load(&path, "f").expect("reload");
        assert_eq!((again.get("a"), again.get("b")), (Some(&1), Some(&2)));

        // A bad line that did end in a newline is corruption, not a tear.
        fs::write(&path, format!("{intact}not json\n")).expect("corrupt a line");
        let err = Checkpoint::<u32>::load(&path, "f").expect_err("must reject");
        assert!(err.message.contains("malformed record on line 3"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_header_starts_a_fresh_journal() {
        let path = scratch("torn-header");
        for torn in ["", "{\"fingerpr"] {
            fs::write(&path, torn).expect("write a torn header");
            let mut ckpt: Checkpoint<u32> = Checkpoint::load(&path, "f").expect("starts over");
            assert!(ckpt.is_empty());
            ckpt.append("a", 1).expect("append a");
            let back: Checkpoint<u32> = Checkpoint::load(&path, "f").expect("reload");
            assert_eq!(back.get("a"), Some(&1));
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn complete_final_line_without_newline_is_kept() {
        let path = scratch("no-newline");
        let mut ckpt: Checkpoint<u32> = Checkpoint::create(&path, "f").expect("create");
        ckpt.append("a", 1).expect("append a");
        drop(ckpt);
        let text = fs::read_to_string(&path).expect("read journal");
        fs::write(&path, text.trim_end()).expect("drop the newline");

        let mut back: Checkpoint<u32> = Checkpoint::load(&path, "f").expect("load");
        assert_eq!(back.get("a"), Some(&1));
        back.append("b", 2).expect("append b");
        let again: Checkpoint<u32> = Checkpoint::load(&path, "f").expect("reload");
        assert_eq!((again.get("a"), again.get("b")), (Some(&1), Some(&2)));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn malformed_journal_is_a_typed_error() {
        let path = scratch("malformed");
        fs::write(&path, "not json\n").expect("write scratch file");
        let err = Checkpoint::<u32>::load(&path, "f").expect_err("must reject");
        assert!(err.message.contains("malformed header"), "{err}");
        let sim: crate::error::SimError = err.into();
        assert!(matches!(sim, crate::error::SimError::Checkpoint { .. }));
        let _ = fs::remove_file(&path);
    }
}
