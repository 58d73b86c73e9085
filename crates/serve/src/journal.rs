//! Crash-safe queue journal.
//!
//! The service appends one line per job state transition, each handed to
//! the OS in one unbuffered write, so a killed or crashed service can
//! reconstruct the queue on restart. Format (`sweeps/<out>/journal.log`):
//!
//! ```text
//! simany-serve journal v1
//! enqueued <digest16> <label...>
//! started <digest16>
//! preempted <digest16>
//! done <digest16> <status>
//! failed <digest16> <status>
//! ```
//!
//! `digest16` is the scenario's 16-hex identity digest; one `enqueued`
//! line per fanout label makes the journal self-describing. Recovery rules
//! (see [`Recovery`]): a digest whose last event is `done` is finished; a
//! digest with `started`/`preempted` but no terminal event was interrupted
//! — its checkpoint (if any) is reused on restart, so no work is lost and
//! nothing completed is re-run.

use std::collections::HashMap;
use std::io::{Read, Write};

/// Format tag on the journal's first line; bump on breaking change.
pub const JOURNAL_VERSION: &str = "simany-serve journal v1";

/// An append-only, flushed-per-event journal file.
pub struct Journal {
    file: std::fs::File,
}

impl Journal {
    /// Open (creating or appending) the journal at `path`, writing the
    /// version header to new files and verifying it on existing ones. A
    /// last line that a crash cut short is cut off the file: [`replay`]
    /// ignores it, and the next event must not be glued onto it.
    pub fn open(path: &std::path::Path) -> Result<Journal, String> {
        let err = |e: std::io::Error| format!("cannot open journal {}: {e}", path.display());
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)
            .map_err(err)?;
        let mut text = Vec::new();
        file.read_to_end(&mut text).map_err(err)?;
        let whole = text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if whole < text.len() {
            file.set_len(whole as u64).map_err(err)?;
        }
        let mut journal = Journal { file };
        if whole == 0 {
            journal.write(format!("{JOURNAL_VERSION}\n"))?;
        }
        Ok(journal)
    }

    /// Append one event line.
    pub fn append(&mut self, event: &str, digest: u64, detail: &str) -> Result<(), String> {
        let sep = if detail.is_empty() { "" } else { " " };
        self.write(format!("{event} {digest:016x}{sep}{detail}\n"))
    }

    /// Hand a whole line to the OS in one write, so a crash leaves either
    /// the line or a prefix of it with no newline.
    fn write(&mut self, line: String) -> Result<(), String> {
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| format!("journal write failed: {e}"))
    }
}

/// Per-digest facts reconstructed from a journal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Digests whose last event is `done <status>` — finished, do not
    /// re-run.
    pub done: HashMap<u64, String>,
    /// Digests whose last event is `failed <status>` — terminally failed.
    pub failed: HashMap<u64, String>,
    /// Digests that were `started` (or `preempted`) without reaching a
    /// terminal event — interrupted mid-run; restart resumes them.
    pub interrupted: Vec<u64>,
    /// `preempted` event count per digest (caps resume attempts across
    /// restarts).
    pub preempts: HashMap<u64, u64>,
}

/// Replay a journal file into a [`Recovery`]. A missing file is an empty
/// recovery. A last line with no newline is an append that a crash cut
/// short: it is ignored, so its job counts as interrupted (or not yet
/// started) and runs again. A bad header or a malformed complete line is
/// an error (the journal is the source of truth for what ran — guessing
/// would risk re-running completed work).
pub fn replay(path: &std::path::Path) -> Result<Recovery, String> {
    let mut rec = Recovery::default();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(rec),
        Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
    };
    let whole = text.rfind('\n').map_or(0, |i| i + 1);
    let mut lines = text[..whole].lines();
    match lines.next() {
        Some(JOURNAL_VERSION) => {}
        Some(other) => {
            return Err(format!(
                "journal {} has unsupported header '{other}' (expected '{JOURNAL_VERSION}')",
                path.display()
            ))
        }
        None => return Ok(rec),
    }
    // `open` (not running) is the set of started-but-not-terminal digests,
    // kept in first-started order so restart re-launches in launch order.
    let mut open: Vec<u64> = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("journal {} line {}: {msg}", path.display(), lineno + 2);
        let mut parts = line.splitn(3, ' ');
        let event = parts.next().unwrap();
        let digest = parts
            .next()
            .filter(|d| d.len() == 16 && d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .ok_or_else(|| err(format!("bad digest in '{line}'")))?;
        let detail = parts.next().unwrap_or("");
        match event {
            "enqueued" => {}
            "started" => {
                if !open.contains(&digest) {
                    open.push(digest);
                }
            }
            "preempted" => {
                *rec.preempts.entry(digest).or_insert(0) += 1;
                if !open.contains(&digest) {
                    open.push(digest);
                }
            }
            "done" => {
                open.retain(|&d| d != digest);
                rec.failed.remove(&digest);
                rec.done.insert(digest, detail.to_string());
            }
            "failed" => {
                open.retain(|&d| d != digest);
                rec.failed.insert(digest, detail.to_string());
            }
            other => return Err(err(format!("unknown event '{other}'"))),
        }
    }
    rec.interrupted = open;
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of the test's own, removed when dropped.
    struct TempDir(std::path::PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A journal path in a fresh directory, and the guard that removes it.
    fn temp_path(name: &str) -> (TempDir, std::path::PathBuf) {
        let name = format!("simany-serve-journal-{name}-{}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        (TempDir(dir), path)
    }

    #[test]
    fn roundtrip_and_recovery() {
        let (_dir, path) = temp_path("roundtrip");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append("enqueued", 0x1, "drift/drift=50").unwrap();
            j.append("enqueued", 0x2, "drift/drift=100").unwrap();
            j.append("enqueued", 0x3, "drift/drift=500").unwrap();
            j.append("started", 0x1, "").unwrap();
            j.append("started", 0x2, "").unwrap();
            j.append("done", 0x1, "ok").unwrap();
            j.append("preempted", 0x2, "").unwrap();
            j.append("started", 0x3, "").unwrap();
            j.append("failed", 0x3, "stalled").unwrap();
        }
        let rec = replay(&path).unwrap();
        assert_eq!(rec.done.get(&0x1).map(String::as_str), Some("ok"));
        assert_eq!(rec.interrupted, vec![0x2]);
        assert_eq!(rec.preempts.get(&0x2), Some(&1));
        assert_eq!(rec.failed.get(&0x3).map(String::as_str), Some("stalled"));

        // Re-opening appends under the same header; a later done clears the
        // interrupted state.
        {
            let mut j = Journal::open(&path).unwrap();
            j.append("started", 0x2, "").unwrap();
            j.append("done", 0x2, "ok").unwrap();
        }
        let rec = replay(&path).unwrap();
        assert!(rec.interrupted.is_empty());
        assert_eq!(rec.done.len(), 2);
    }

    #[test]
    fn missing_file_is_empty_bad_header_is_error() {
        let (_dir, path) = temp_path("header");
        assert!(replay(&path).unwrap().done.is_empty());
        std::fs::write(&path, "some other file\n").unwrap();
        assert!(replay(&path).is_err());
    }

    #[test]
    fn a_line_cut_by_a_crash_is_ignored() {
        let (_dir, path) = temp_path("cut");
        let head = format!(
            "{JOURNAL_VERSION}\nenqueued 00000000001a2b3c s/seed=1\nstarted 00000000000000ff\n"
        );
        for last in [
            "started 00000000001a2b3c",
            "preempted 00000000001a2b3c",
            "done 00000000001a2b3c ok",
            "failed 00000000001a2b3c stalled",
        ] {
            std::fs::write(&path, &head).unwrap();
            let without = replay(&path).unwrap();
            for cut in 1..=last.len() {
                std::fs::write(&path, format!("{head}{}", &last[..cut])).unwrap();
                let rec = replay(&path).unwrap();
                assert_eq!(rec, without, "cut after {cut} bytes of '{last}'");
            }
            std::fs::write(&path, format!("{head}{last}\n")).unwrap();
            assert_ne!(replay(&path).unwrap(), without, "'{last}' is an event");
        }
        // A restart cuts the fragment off before appending after it.
        std::fs::write(&path, format!("{head}done 0000")).unwrap();
        let mut j = Journal::open(&path).unwrap();
        j.append("done", 0x1a2b3c, "ok").unwrap();
        drop(j);
        let rec = replay(&path).unwrap();
        assert_eq!(rec.done.get(&0x1a2b3c).map(String::as_str), Some("ok"));
        assert_eq!(rec.interrupted, vec![0xff]);
        // So does one that cut the header.
        std::fs::write(&path, &JOURNAL_VERSION[..5]).unwrap();
        Journal::open(&path)
            .unwrap()
            .append("started", 0x7, "")
            .unwrap();
        assert_eq!(replay(&path).unwrap().interrupted, vec![0x7]);
    }

    #[test]
    fn a_short_digest_on_a_whole_line_is_an_error() {
        let (_dir, path) = temp_path("short");
        std::fs::write(&path, format!("{JOURNAL_VERSION}\ndone 1a2b3c ok\n")).unwrap();
        assert!(replay(&path).unwrap_err().contains("bad digest"));
        let long = format!("{JOURNAL_VERSION}\nstarted 00000000001a2b3c0\n");
        std::fs::write(&path, long).unwrap();
        assert!(replay(&path).is_err());
    }

    #[test]
    fn retry_after_failure_can_succeed() {
        let (_dir, path) = temp_path("retry");
        let mut j = Journal::open(&path).unwrap();
        j.append("started", 0x7, "").unwrap();
        j.append("failed", 0x7, "task-panic").unwrap();
        j.append("started", 0x7, "").unwrap();
        j.append("done", 0x7, "ok").unwrap();
        drop(j);
        let rec = replay(&path).unwrap();
        assert!(rec.failed.is_empty());
        assert_eq!(rec.done.get(&0x7).map(String::as_str), Some("ok"));
        assert!(rec.interrupted.is_empty());
    }
}
