//! Durable-storage configuration checks.
//!
//! The live service can anchor its state (liability ledgers, epochs,
//! in-flight query intents) in a WAL + checkpoint on disk
//! (`edgelet-store::wal`, `docs/STORAGE.md`). Three configurations
//! deserve a diagnostic before the first append:
//!
//! * `E140` — durability is enabled but the WAL directory is unset or
//!   `FileBackend::open` refused it: the first append would drain the
//!   service to read-only before it served anything;
//! * `W141` — a checkpoint interval of zero: the WAL is never
//!   compacted, so it grows without bound and every restart replays the
//!   service's entire history;
//! * `W142` — durability is *disabled* while the configuration plans
//!   for crashes (`--crash-p` above 0, or a scripted `--crash-at`):
//!   every crash it provokes loses state the operator apparently cares
//!   about;
//! * `W143` — the group-commit window is a large share of the query's
//!   wall-deadline slack: every durable submit parks in the commit
//!   window before its sync, so a window the deadline cannot absorb
//!   turns coalescing into missed deadlines;
//! * `W144` — the WAL segment size is below one checkpoint interval's
//!   worth of append churn: the log rotates multiple times between
//!   checkpoints, paying seal/open costs without any compaction gain
//!   (sealed segments can only be deleted at a checkpoint).

use crate::diagnostic::{codes, Diagnostic};
use std::path::Path;

/// Ballpark framed bytes one completion record occupies in the WAL,
/// used to translate a checkpoint cadence into expected append churn
/// for the `W144` rotation-thrash check.
const TYPICAL_RECORD_BYTES: u64 = 4096;

/// How many commit windows the wall deadline must be able to absorb
/// before `W143` stays quiet: a durable submit can park in the window
/// twice (intent + completion), and the query itself needs the rest.
const WINDOW_SLACK_FACTOR: u64 = 4;

/// Checks a durable-storage configuration: whether durability is
/// enabled, the WAL directory with the outcome of opening it as a
/// `FileBackend` (the caller opens it; the error text on failure), the
/// checkpoint cadence (completions per checkpoint; 0 = never), and
/// whether the wider configuration plans for crashes. The group-commit
/// knobs (`commit_window_ms`, `segment_bytes`) are checked against the
/// query wall deadline and the checkpoint cadence; pass 0 to mean
/// "feature off" for either.
pub fn check_storage_config(
    durable: bool,
    wal_dir: Option<(&Path, Result<(), String>)>,
    checkpoint_every: u64,
    crash_risk: bool,
    commit_window_ms: u64,
    wall_deadline_ms: Option<u64>,
    segment_bytes: u64,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if durable {
        match wal_dir {
            None => out.push(
                Diagnostic::error(
                    codes::STORAGE_WAL_DIR,
                    "storage.wal_dir",
                    "durability is enabled but no WAL directory is set: the \
                     service has nowhere to anchor its log",
                )
                .with_help("pass --wal-dir <dir>, or drop --durable"),
            ),
            Some((dir, Err(why))) => out.push(
                Diagnostic::error(
                    codes::STORAGE_WAL_DIR,
                    "storage.wal_dir",
                    format!(
                        "WAL directory `{}` is unusable ({why}): the first \
                         append would drain the service to read-only",
                        dir.display()
                    ),
                )
                .with_help("point --wal-dir at a writable directory"),
            ),
            Some((_, Ok(()))) => {}
        }
        if checkpoint_every == 0 {
            out.push(
                Diagnostic::warning(
                    codes::STORAGE_NO_CHECKPOINT,
                    "storage.checkpoint_every",
                    "checkpoint interval is 0 (never): the WAL is never compacted, \
                     so it grows without bound and every restart replays the \
                     service's entire history",
                )
                .with_help("set --checkpoint-every to a small positive count (default 8)"),
            );
        }
        if commit_window_ms > 0 {
            if let Some(deadline) = wall_deadline_ms.filter(|&d| d > 0) {
                if commit_window_ms.saturating_mul(WINDOW_SLACK_FACTOR) > deadline {
                    out.push(
                        Diagnostic::warning(
                            codes::STORAGE_WINDOW_OVER_DEADLINE,
                            "storage.commit_window",
                            format!(
                                "the {commit_window_ms} ms group-commit window is more \
                                 than 1/{WINDOW_SLACK_FACTOR} of the {deadline} ms wall \
                                 deadline: durable submits park in the window before \
                                 every sync, leaving too little slack for the query \
                                 itself"
                            ),
                        )
                        .with_help(
                            "shrink --commit-window-ms, raise --wall-deadline-ms, or \
                             rely on byte-triggered flushes (window 0)",
                        ),
                    );
                }
            }
        }
        if segment_bytes > 0 && checkpoint_every > 0 {
            let churn = checkpoint_every.saturating_mul(TYPICAL_RECORD_BYTES);
            if segment_bytes < churn {
                out.push(
                    Diagnostic::warning(
                        codes::STORAGE_SEGMENT_THRASH,
                        "storage.segment_bytes",
                        format!(
                            "WAL segments of {segment_bytes} B are smaller than one \
                             checkpoint interval's append churn (~{churn} B at \
                             {checkpoint_every} completions x {TYPICAL_RECORD_BYTES} B): \
                             the log rotates repeatedly between checkpoints, paying \
                             seal/open costs with no compaction gain"
                        ),
                    )
                    .with_help(
                        "raise --segment-bytes above the per-checkpoint churn, or \
                         checkpoint more often",
                    ),
                );
            }
        }
    } else if crash_risk {
        out.push(
            Diagnostic::warning(
                codes::STORAGE_VOLATILE_UNDER_CRASHES,
                "storage.durable",
                "the configuration plans for crashes (--crash-p or --crash-at) \
                 but durability is disabled: every crash loses ledgers, epochs, \
                 and in-flight queries",
            )
            .with_help("enable --durable with a --wal-dir to make crashes recoverable"),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::Severity;

    /// A WAL directory the caller opened successfully.
    fn ok_dir() -> Option<(&'static Path, Result<(), String>)> {
        Some((Path::new("wal"), Ok(())))
    }

    /// Opens `dir` the way the CLI does before the service starts.
    fn opened(dir: &Path) -> Option<(&Path, Result<(), String>)> {
        let outcome = edgelet_store::FileBackend::open(dir)
            .map(drop)
            .map_err(|e| e.to_string());
        Some((dir, outcome))
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "edgelet-storageconfig-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn missing_wal_dir_is_an_error() {
        let found = check_storage_config(true, None, 8, false, 0, None, 0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].code, codes::STORAGE_WAL_DIR);
        assert_eq!(found[0].severity, Severity::Error);
    }

    #[test]
    fn writable_dir_is_created_and_accepted() {
        let dir = tmp_dir("ok");
        let found = check_storage_config(true, opened(&dir), 8, false, 0, None, 0);
        assert!(found.is_empty(), "{found:?}");
        assert!(dir.is_dir(), "opening must have created the directory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_wal_dir_is_an_error() {
        // A regular file where the directory should be.
        let dir = tmp_dir("file");
        std::fs::write(&dir, b"not a directory").unwrap();
        let found = check_storage_config(true, opened(&dir), 8, false, 0, None, 0);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].code, codes::STORAGE_WAL_DIR);
        assert!(found[0].message.contains("unusable"), "{found:?}");
        assert!(found[0].message.contains("not a directory"), "{found:?}");
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn zero_checkpoint_interval_warns() {
        let found = check_storage_config(true, ok_dir(), 0, false, 0, None, 0);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].code, codes::STORAGE_NO_CHECKPOINT);
        assert_eq!(found[0].severity, Severity::Warning);
    }

    #[test]
    fn volatile_under_crash_risk_warns() {
        let found = check_storage_config(false, None, 8, true, 0, None, 0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].code, codes::STORAGE_VOLATILE_UNDER_CRASHES);
        assert_eq!(found[0].severity, Severity::Warning);
        assert!(check_storage_config(false, None, 8, false, 0, None, 0).is_empty());
    }

    #[test]
    fn oversized_commit_window_warns_against_the_deadline() {
        // 40 ms window x 4 > 100 ms deadline: the slack is gone.
        let found = check_storage_config(true, ok_dir(), 8, false, 40, Some(100), 0);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].code, codes::STORAGE_WINDOW_OVER_DEADLINE);
        assert_eq!(found[0].severity, Severity::Warning);
        // 10 ms window x 4 <= 100 ms deadline: fine.
        assert!(check_storage_config(true, ok_dir(), 8, false, 10, Some(100), 0).is_empty());
        // No deadline, or window off: nothing to compare against.
        assert!(check_storage_config(true, ok_dir(), 8, false, 40, None, 0).is_empty());
        assert!(check_storage_config(true, ok_dir(), 8, false, 0, Some(100), 0).is_empty());
    }

    #[test]
    fn undersized_segments_warn_about_rotation_thrash() {
        // 8 completions x 4096 B churn = 32 KiB > 1 KiB segments.
        let found = check_storage_config(true, ok_dir(), 8, false, 0, None, 1024);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].code, codes::STORAGE_SEGMENT_THRASH);
        assert_eq!(found[0].severity, Severity::Warning);
        // A segment that holds a whole interval's churn is fine.
        assert!(check_storage_config(true, ok_dir(), 8, false, 0, None, 1 << 20).is_empty());
        // checkpoint_every = 0 already warns W141; W144 has no cadence
        // to size against and stays quiet.
        let never = check_storage_config(true, ok_dir(), 0, false, 0, None, 1024);
        assert_eq!(never.len(), 1, "{never:?}");
        assert_eq!(never[0].code, codes::STORAGE_NO_CHECKPOINT);
    }

    #[test]
    fn problems_compose() {
        let found = check_storage_config(true, None, 0, false, 0, None, 0);
        assert_eq!(found.len(), 2);
    }
}
