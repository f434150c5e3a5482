//! Durable storage backends: the byte-level substrate under the WAL.
//!
//! The persistence layer is split in two. This module owns *where bytes
//! live*: the [`DurableBackend`] trait abstracts an append-only log plus
//! an atomically-replaceable checkpoint blob, with an in-memory
//! implementation ([`MemBackend`]) for tests and a file-backed one
//! ([`FileBackend`]) for production. The sibling [`crate::wal`] module
//! owns *what the bytes mean* (record framing, checksums, recovery
//! scans).
//!
//! Storage is a fault surface, not a trusted oracle: integrity attacks
//! and torn writes against edge persistence must be detected rather than
//! believed (see `docs/STORAGE.md`). [`FaultyBackend`] therefore injects
//! the canonical failure modes — torn tails, truncated records, failed
//! fsyncs, corrupted checksums — *deterministically* through the same
//! trait, so the chaos harness and the recovery tests exercise exactly
//! the code paths production uses.

use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Result alias for backend operations.
pub type StorageResult<T> = std::result::Result<T, StorageError>;

/// Why a backend operation failed.
///
/// The split drives the recovery policy: [`StorageError::Transient`]
/// failures are retried with backoff (a busy disk, an interrupted
/// syscall); [`StorageError::Unavailable`] means the backend cannot be
/// trusted at all (missing directory, detected corruption) and the
/// service degrades to read-only "drained" mode instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A failure that may succeed on retry.
    Transient(String),
    /// The backend is gone or its contents cannot be trusted.
    Unavailable(String),
}

impl StorageError {
    /// The message carried by the error.
    pub fn message(&self) -> &str {
        match self {
            StorageError::Transient(m) | StorageError::Unavailable(m) => m,
        }
    }

    /// Whether a retry may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::Transient(_))
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Transient(m) => write!(f, "transient storage error: {m}"),
            StorageError::Unavailable(m) => write!(f, "storage unavailable: {m}"),
        }
    }
}

impl From<StorageError> for edgelet_util::Error {
    fn from(e: StorageError) -> Self {
        edgelet_util::Error::Protocol(e.to_string())
    }
}

/// One WAL record in a batch append, split as two byte slices —
/// framing header and payload — so a batch committer can hand the
/// backend its caller's payload buffers directly instead of first
/// gathering every record into one contiguous allocation.
/// Implementations must treat the concatenation `head ++ tail` as ONE
/// record: it is a single frame on the media and a single append for
/// fault-injection counting.
#[derive(Debug, Clone, Copy)]
pub struct FrameRef<'a> {
    /// Leading frame bytes (or the whole frame, see [`FrameRef::whole`]).
    pub head: &'a [u8],
    /// Trailing frame bytes (empty when `head` is the whole frame).
    pub tail: &'a [u8],
}

impl<'a> FrameRef<'a> {
    /// A record already contiguous in memory.
    pub fn whole(frame: &'a [u8]) -> Self {
        FrameRef {
            head: frame,
            tail: &[],
        }
    }

    /// Total frame length in bytes.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Whether the frame is zero bytes long.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.tail.is_empty()
    }

    /// The frame gathered into one owned buffer (fallback paths only).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        out.extend_from_slice(self.head);
        out.extend_from_slice(self.tail);
        out
    }
}

/// A segmented append-only log plus an atomically-replaceable
/// checkpoint blob.
///
/// The WAL is an ordered list of **segments**. Appends always land in
/// the last (*active*) segment; [`DurableBackend::rotate_wal`] seals the
/// active segment and opens a fresh empty one, and checkpoint-aware
/// compaction deletes sealed segments once a checkpoint subsumes them
/// ([`DurableBackend::drop_sealed_segments`]), so long-lived daemons run
/// in bounded disk. A backend that never rotates behaves exactly like
/// the old single-file WAL: one active segment.
///
/// The contract every implementation upholds:
///
/// * `append` adds bytes at the end of the active segment; bytes are
///   only *durable* once a subsequent `sync` returns `Ok`.
/// * `append_batch` appends several records back to back in one call
///   (the group-commit fast path); equivalent to appending each in
///   order, but implementations may coalesce the writes.
/// * `read_wal_segments` returns every segment's bytes in append order,
///   including any torn tail a crash left behind — the recovery scan
///   decides what to keep.
/// * `truncate_wal(len)` discards every byte of the **active** segment
///   past `len` (torn-tail repair; sealed segments are immutable).
/// * `rotate_wal` seals the active segment and starts a new empty one.
/// * `drop_sealed_segments` deletes every sealed segment (their records
///   are subsumed by a checkpoint); the active segment is untouched.
/// * `write_checkpoint` replaces the checkpoint blob atomically: a crash
///   during the write leaves either the old or the new blob, never a
///   mix.
/// * `reset_wal` clears the whole log back to one empty active segment
///   (after a checkpoint subsumed everything).
pub trait DurableBackend: Send + Sync {
    /// Appends bytes to the active WAL segment.
    fn append(&self, bytes: &[u8]) -> StorageResult<()>;
    /// Appends several records back to back to the active segment.
    ///
    /// The default loops over [`DurableBackend::append`], which keeps
    /// fault-injection decorators counting *per record* — a fault plan
    /// indexed by append number fires at the same record whether it
    /// arrives alone or mid-batch.
    fn append_batch(&self, frames: &[FrameRef<'_>]) -> StorageResult<()> {
        for frame in frames {
            if frame.tail.is_empty() {
                self.append(frame.head)?;
            } else {
                self.append(&frame.to_vec())?;
            }
        }
        Ok(())
    }
    /// Flushes appended bytes to durable media.
    fn sync(&self) -> StorageResult<()>;
    /// Reads every WAL segment's bytes, oldest first. Never empty: a
    /// fresh log is one empty active segment.
    fn read_wal_segments(&self) -> StorageResult<Vec<Vec<u8>>>;
    /// Reads the whole write-ahead log as one byte string (all segments
    /// concatenated in order).
    fn read_wal(&self) -> StorageResult<Vec<u8>> {
        Ok(self.read_wal_segments()?.concat())
    }
    /// Byte length of each segment, oldest first (disk accounting).
    fn segment_sizes(&self) -> StorageResult<Vec<u64>> {
        Ok(self
            .read_wal_segments()?
            .iter()
            .map(|s| s.len() as u64)
            .collect())
    }
    /// Discards every byte of the *active* segment past `len`
    /// (torn-tail repair).
    fn truncate_wal(&self, len: u64) -> StorageResult<()>;
    /// Seals the active segment and opens a fresh empty one.
    fn rotate_wal(&self) -> StorageResult<()>;
    /// Deletes every sealed segment (subsumed by a checkpoint).
    fn drop_sealed_segments(&self) -> StorageResult<()>;
    /// Atomically replaces the checkpoint blob.
    fn write_checkpoint(&self, bytes: &[u8]) -> StorageResult<()>;
    /// Reads the checkpoint blob, `None` when no checkpoint exists.
    fn read_checkpoint(&self) -> StorageResult<Option<Vec<u8>>>;
    /// Clears the write-ahead log (after a checkpoint subsumed it).
    fn reset_wal(&self) -> StorageResult<()>;
}

impl<B: DurableBackend + ?Sized> DurableBackend for std::sync::Arc<B> {
    fn append(&self, bytes: &[u8]) -> StorageResult<()> {
        (**self).append(bytes)
    }
    fn append_batch(&self, frames: &[FrameRef<'_>]) -> StorageResult<()> {
        (**self).append_batch(frames)
    }
    fn sync(&self) -> StorageResult<()> {
        (**self).sync()
    }
    fn read_wal_segments(&self) -> StorageResult<Vec<Vec<u8>>> {
        (**self).read_wal_segments()
    }
    fn read_wal(&self) -> StorageResult<Vec<u8>> {
        (**self).read_wal()
    }
    fn segment_sizes(&self) -> StorageResult<Vec<u64>> {
        (**self).segment_sizes()
    }
    fn truncate_wal(&self, len: u64) -> StorageResult<()> {
        (**self).truncate_wal(len)
    }
    fn rotate_wal(&self) -> StorageResult<()> {
        (**self).rotate_wal()
    }
    fn drop_sealed_segments(&self) -> StorageResult<()> {
        (**self).drop_sealed_segments()
    }
    fn write_checkpoint(&self, bytes: &[u8]) -> StorageResult<()> {
        (**self).write_checkpoint(bytes)
    }
    fn read_checkpoint(&self) -> StorageResult<Option<Vec<u8>>> {
        (**self).read_checkpoint()
    }
    fn reset_wal(&self) -> StorageResult<()> {
        (**self).reset_wal()
    }
}

// ---------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------

#[derive(Debug)]
struct MemState {
    // Never empty: the last entry is the active segment.
    segments: Vec<Vec<u8>>,
    checkpoint: Option<Vec<u8>>,
}

impl Default for MemState {
    fn default() -> Self {
        MemState {
            segments: vec![Vec::new()],
            checkpoint: None,
        }
    }
}

/// The in-memory backend: segmented `Vec<u8>` WAL and an optional
/// checkpoint blob behind one mutex. Used by unit tests, the
/// crash-restart parity keystone (a "restart" re-opens the same `Arc`),
/// and the chaos storage drills.
#[derive(Debug, Default)]
pub struct MemBackend {
    state: Mutex<MemState>,
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current total WAL length in bytes, across segments (test
    /// inspection).
    pub fn wal_len(&self) -> usize {
        lock(&self.state).segments.iter().map(Vec::len).sum()
    }

    /// Number of live segments, including the active one (test
    /// inspection).
    pub fn segment_count(&self) -> usize {
        lock(&self.state).segments.len()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl DurableBackend for MemBackend {
    fn append(&self, bytes: &[u8]) -> StorageResult<()> {
        let mut st = lock(&self.state);
        let active = st.segments.last_mut().expect("segments never empty");
        active.extend_from_slice(bytes);
        Ok(())
    }

    fn append_batch(&self, frames: &[FrameRef<'_>]) -> StorageResult<()> {
        let mut st = lock(&self.state);
        let active = st.segments.last_mut().expect("segments never empty");
        active.reserve(frames.iter().map(FrameRef::len).sum());
        for frame in frames {
            active.extend_from_slice(frame.head);
            active.extend_from_slice(frame.tail);
        }
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }

    fn read_wal_segments(&self) -> StorageResult<Vec<Vec<u8>>> {
        Ok(lock(&self.state).segments.clone())
    }

    fn truncate_wal(&self, len: u64) -> StorageResult<()> {
        let mut st = lock(&self.state);
        let active = st.segments.last_mut().expect("segments never empty");
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if len < active.len() {
            active.truncate(len);
        }
        Ok(())
    }

    fn rotate_wal(&self) -> StorageResult<()> {
        lock(&self.state).segments.push(Vec::new());
        Ok(())
    }

    fn drop_sealed_segments(&self) -> StorageResult<()> {
        let mut st = lock(&self.state);
        let active = st.segments.pop().expect("segments never empty");
        st.segments = vec![active];
        Ok(())
    }

    fn write_checkpoint(&self, bytes: &[u8]) -> StorageResult<()> {
        lock(&self.state).checkpoint = Some(bytes.to_vec());
        Ok(())
    }

    fn read_checkpoint(&self) -> StorageResult<Option<Vec<u8>>> {
        Ok(lock(&self.state).checkpoint.clone())
    }

    fn reset_wal(&self) -> StorageResult<()> {
        lock(&self.state).segments = vec![Vec::new()];
        Ok(())
    }
}

// ---------------------------------------------------------------------
// File backend
// ---------------------------------------------------------------------

/// The file-backed backend: numbered WAL segments (`wal.0000.log`,
/// `wal.0001.log`, ...; append-only, highest index active) and
/// `checkpoint.bin` (replaced via write-to-temp + rename, the standard
/// atomic-replace idiom) inside one directory.
pub struct FileBackend {
    dir: PathBuf,
    // The active-segment append handle is kept open for the backend's
    // lifetime; the mutex serializes appends from concurrent queries.
    wal: Mutex<FileWal>,
}

struct FileWal {
    file: std::fs::File,
    index: u64,
}

impl fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileBackend")
            .field("dir", &self.dir)
            .finish()
    }
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> StorageError {
    // Interrupted/timed-out syscalls are worth retrying; everything
    // else (missing directory, permissions, full disk) is a state the
    // caller must handle, not wait out.
    let msg = format!("{what} {}: {e}", path.display());
    match e.kind() {
        std::io::ErrorKind::Interrupted | std::io::ErrorKind::TimedOut => {
            StorageError::Transient(msg)
        }
        _ => StorageError::Unavailable(msg),
    }
}

impl FileBackend {
    /// Opens (creating if needed) a file backend rooted at `dir`.
    ///
    /// Fails with [`StorageError::Unavailable`] when `dir` exists but is
    /// not a directory, or cannot be created/written — the caller is
    /// expected to degrade to drained mode rather than abort.
    pub fn open(dir: impl Into<PathBuf>) -> StorageResult<Self> {
        let dir = dir.into();
        if dir.exists() && !dir.is_dir() {
            return Err(StorageError::Unavailable(format!(
                "WAL path {} exists but is not a directory",
                dir.display()
            )));
        }
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create WAL dir", &dir, &e))?;
        let index = list_segments(&dir)?.last().map_or(0, |&(i, _)| i);
        let wal_path = segment_path(&dir, index);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)
            .map_err(|e| io_err("open WAL segment", &wal_path, &e))?;
        Ok(FileBackend {
            dir,
            wal: Mutex::new(FileWal { file, index }),
        })
    }

    fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("checkpoint.bin")
    }
}

/// Path of segment `index` under `dir`: `wal.0000.log` style, padded so
/// lexical and numeric order agree for the first 10k segments.
fn segment_path(dir: &Path, index: u64) -> PathBuf {
    let mut path = dir.to_path_buf();
    path.push(format!("wal.{index:04}.log"));
    path
}

/// Existing WAL segments under `dir`, sorted by index.
fn list_segments(dir: &Path) -> StorageResult<Vec<(u64, PathBuf)>> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("list WAL dir", dir, &e))?;
    let mut segments = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err("list WAL dir", dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(index) = name
            .strip_prefix("wal.")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        segments.push((index, entry.path()));
    }
    segments.sort_unstable_by_key(|&(i, _)| i);
    Ok(segments)
}

impl DurableBackend for FileBackend {
    fn append(&self, bytes: &[u8]) -> StorageResult<()> {
        let mut wal = lock(&self.wal);
        let path = segment_path(&self.dir, wal.index);
        wal.file
            .write_all(bytes)
            .map_err(|e| io_err("append WAL", &path, &e))
    }

    fn append_batch(&self, frames: &[FrameRef<'_>]) -> StorageResult<()> {
        // One contiguous buffer, one write syscall for the whole batch.
        let mut buf = Vec::with_capacity(frames.iter().map(FrameRef::len).sum());
        for frame in frames {
            buf.extend_from_slice(frame.head);
            buf.extend_from_slice(frame.tail);
        }
        let mut wal = lock(&self.wal);
        let path = segment_path(&self.dir, wal.index);
        wal.file
            .write_all(&buf)
            .map_err(|e| io_err("append WAL batch", &path, &e))
    }

    fn sync(&self) -> StorageResult<()> {
        let wal = lock(&self.wal);
        let path = segment_path(&self.dir, wal.index);
        wal.file
            .sync_data()
            .map_err(|e| io_err("sync WAL", &path, &e))
    }

    fn read_wal_segments(&self) -> StorageResult<Vec<Vec<u8>>> {
        // Hold the append lock so a rotation cannot interleave with the
        // directory listing.
        let _wal = lock(&self.wal);
        let segments = list_segments(&self.dir)?;
        let mut out = Vec::with_capacity(segments.len().max(1));
        for (_, path) in &segments {
            out.push(std::fs::read(path).map_err(|e| io_err("read WAL segment", path, &e))?);
        }
        if out.is_empty() {
            out.push(Vec::new());
        }
        Ok(out)
    }

    fn segment_sizes(&self) -> StorageResult<Vec<u64>> {
        let _wal = lock(&self.wal);
        let segments = list_segments(&self.dir)?;
        let mut out = Vec::with_capacity(segments.len().max(1));
        for (_, path) in &segments {
            let meta = std::fs::metadata(path).map_err(|e| io_err("stat WAL segment", path, &e))?;
            out.push(meta.len());
        }
        if out.is_empty() {
            out.push(0);
        }
        Ok(out)
    }

    fn truncate_wal(&self, len: u64) -> StorageResult<()> {
        let wal = lock(&self.wal);
        let path = segment_path(&self.dir, wal.index);
        wal.file
            .set_len(len)
            .map_err(|e| io_err("truncate WAL", &path, &e))
    }

    fn rotate_wal(&self) -> StorageResult<()> {
        let mut wal = lock(&self.wal);
        let old_path = segment_path(&self.dir, wal.index);
        // Seal the old segment durably before the new one exists.
        wal.file
            .sync_data()
            .map_err(|e| io_err("sync WAL before rotation", &old_path, &e))?;
        let next = wal.index + 1;
        let path = segment_path(&self.dir, next);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open WAL segment", &path, &e))?;
        wal.file = file;
        wal.index = next;
        Ok(())
    }

    fn drop_sealed_segments(&self) -> StorageResult<()> {
        let wal = lock(&self.wal);
        for (index, path) in list_segments(&self.dir)? {
            if index != wal.index {
                std::fs::remove_file(&path)
                    .map_err(|e| io_err("delete sealed WAL segment", &path, &e))?;
            }
        }
        Ok(())
    }

    fn write_checkpoint(&self, bytes: &[u8]) -> StorageResult<()> {
        let tmp = self.dir.join("checkpoint.tmp");
        let path = self.checkpoint_path();
        let write = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_data()?;
            std::fs::rename(&tmp, &path)
        };
        write().map_err(|e| io_err("write checkpoint", &path, &e))
    }

    fn read_checkpoint(&self) -> StorageResult<Option<Vec<u8>>> {
        let path = self.checkpoint_path();
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read checkpoint", &path, &e)),
        }
    }

    fn reset_wal(&self) -> StorageResult<()> {
        let wal = lock(&self.wal);
        // Truncate the active segment in place (keeps the handle valid),
        // then delete every sealed segment.
        let active = segment_path(&self.dir, wal.index);
        wal.file
            .set_len(0)
            .map_err(|e| io_err("truncate WAL", &active, &e))?;
        for (index, path) in list_segments(&self.dir)? {
            if index != wal.index {
                std::fs::remove_file(&path)
                    .map_err(|e| io_err("delete sealed WAL segment", &path, &e))?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Deterministic storage-fault injection
// ---------------------------------------------------------------------

/// One injected storage failure mode (the chaos `FaultPlan` DSL's
/// storage-side counterpart; see `docs/FAULTS.md` and `docs/STORAGE.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageFaultAction {
    /// A crash mid-write: only the first `keep` bytes of the record land
    /// on media, and every later backend operation fails (the process
    /// holding the file died). Recovery must detect and drop the tail.
    TornTail {
        /// Bytes of the faulted append that reach the media.
        keep: u64,
    },
    /// A silently truncated record *mid-log*: only `keep` bytes land,
    /// but the backend keeps accepting later appends. Recovery must
    /// detect the framing damage and refuse the log (drained mode) —
    /// the records after the cut cannot be re-synchronized.
    TruncatedRecord {
        /// Bytes of the faulted append that reach the media.
        keep: u64,
    },
    /// The next `times` `sync` calls fail transiently (busy media);
    /// retry-with-backoff must ride them out.
    FailedSync {
        /// Consecutive syncs that fail before the media recovers.
        times: u32,
    },
    /// One byte of the appended record is flipped, so its CRC-32 check
    /// fails on replay.
    CorruptChecksum {
        /// Offset of the flipped byte within the record.
        byte: u64,
    },
}

impl StorageFaultAction {
    /// Stable name used in corpus entries.
    pub fn name(&self) -> &'static str {
        match self {
            StorageFaultAction::TornTail { .. } => "torn-tail",
            StorageFaultAction::TruncatedRecord { .. } => "truncated-record",
            StorageFaultAction::FailedSync { .. } => "failed-sync",
            StorageFaultAction::CorruptChecksum { .. } => "corrupt-checksum",
        }
    }
}

/// One storage-fault rule: fire `action` on the `at_append`-th append
/// (1-based), deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageFaultRule {
    /// 1-based index of the append the fault strikes.
    pub at_append: u64,
    /// What happens to that append.
    pub action: StorageFaultAction,
}

/// An ordered set of storage-fault rules.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StorageFaultPlan {
    /// The rules, checked against every append in order; the first rule
    /// matching the append index fires.
    pub rules: Vec<StorageFaultRule>,
}

impl StorageFaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule, builder style.
    pub fn with(mut self, at_append: u64, action: StorageFaultAction) -> Self {
        self.rules.push(StorageFaultRule { at_append, action });
        self
    }
}

#[derive(Debug, Default)]
struct FaultState {
    appends: u64,
    failing_syncs: u32,
    dead: bool,
}

/// A [`DurableBackend`] decorator that injects the faults of a
/// [`StorageFaultPlan`] into an inner backend, deterministically by
/// append index — no clock, no randomness, so a chaos corpus entry
/// replays bit-for-bit.
#[derive(Debug)]
pub struct FaultyBackend<B> {
    inner: B,
    plan: StorageFaultPlan,
    state: Mutex<FaultState>,
}

impl<B: DurableBackend> FaultyBackend<B> {
    /// Wraps `inner`, injecting `plan`.
    pub fn new(inner: B, plan: StorageFaultPlan) -> Self {
        FaultyBackend {
            inner,
            plan,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// The wrapped backend (e.g. to "restart" against the surviving
    /// bytes after a torn-tail crash).
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn dead_check(&self) -> StorageResult<()> {
        if lock(&self.state).dead {
            return Err(StorageError::Unavailable(
                "injected fault: backend crashed (torn tail)".into(),
            ));
        }
        Ok(())
    }
}

impl<B: DurableBackend> DurableBackend for FaultyBackend<B> {
    fn append(&self, bytes: &[u8]) -> StorageResult<()> {
        let mut st = lock(&self.state);
        if st.dead {
            return Err(StorageError::Unavailable(
                "injected fault: backend crashed (torn tail)".into(),
            ));
        }
        st.appends += 1;
        let fired = self
            .plan
            .rules
            .iter()
            .find(|r| r.at_append == st.appends)
            .map(|r| r.action.clone());
        match fired {
            None => {
                drop(st);
                self.inner.append(bytes)
            }
            Some(StorageFaultAction::TornTail { keep }) => {
                st.dead = true;
                drop(st);
                let keep = usize::try_from(keep).unwrap_or(usize::MAX).min(bytes.len());
                self.inner.append(&bytes[..keep])?;
                Err(StorageError::Unavailable(
                    "injected fault: torn tail (partial append, backend crashed)".into(),
                ))
            }
            Some(StorageFaultAction::TruncatedRecord { keep }) => {
                drop(st);
                let keep = usize::try_from(keep).unwrap_or(usize::MAX).min(bytes.len());
                // The cut is silent: the append reports success.
                self.inner.append(&bytes[..keep])
            }
            Some(StorageFaultAction::FailedSync { times }) => {
                st.failing_syncs = st.failing_syncs.max(times);
                drop(st);
                self.inner.append(bytes)
            }
            Some(StorageFaultAction::CorruptChecksum { byte }) => {
                drop(st);
                let mut corrupt = bytes.to_vec();
                if let Some(b) = usize::try_from(byte).ok().and_then(|i| corrupt.get_mut(i)) {
                    *b ^= 0xFF;
                }
                self.inner.append(&corrupt)
            }
        }
    }

    fn sync(&self) -> StorageResult<()> {
        let mut st = lock(&self.state);
        if st.dead {
            return Err(StorageError::Unavailable(
                "injected fault: backend crashed (torn tail)".into(),
            ));
        }
        if st.failing_syncs > 0 {
            st.failing_syncs -= 1;
            return Err(StorageError::Transient(
                "injected fault: fsync failed".into(),
            ));
        }
        drop(st);
        self.inner.sync()
    }

    // append_batch deliberately uses the trait default: it loops over
    // `append`, so the per-record fault counter keeps firing at the
    // same record index whether records arrive alone or mid-batch.

    fn read_wal_segments(&self) -> StorageResult<Vec<Vec<u8>>> {
        self.dead_check()?;
        self.inner.read_wal_segments()
    }

    fn segment_sizes(&self) -> StorageResult<Vec<u64>> {
        self.dead_check()?;
        self.inner.segment_sizes()
    }

    fn truncate_wal(&self, len: u64) -> StorageResult<()> {
        self.dead_check()?;
        self.inner.truncate_wal(len)
    }

    fn rotate_wal(&self) -> StorageResult<()> {
        self.dead_check()?;
        self.inner.rotate_wal()
    }

    fn drop_sealed_segments(&self) -> StorageResult<()> {
        self.dead_check()?;
        self.inner.drop_sealed_segments()
    }

    fn write_checkpoint(&self, bytes: &[u8]) -> StorageResult<()> {
        self.dead_check()?;
        self.inner.write_checkpoint(bytes)
    }

    fn read_checkpoint(&self) -> StorageResult<Option<Vec<u8>>> {
        self.dead_check()?;
        self.inner.read_checkpoint()
    }

    fn reset_wal(&self) -> StorageResult<()> {
        self.dead_check()?;
        self.inner.reset_wal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_round_trips() {
        let b = MemBackend::new();
        b.append(b"hello ").unwrap();
        b.append(b"world").unwrap();
        b.sync().unwrap();
        assert_eq!(b.read_wal().unwrap(), b"hello world");
        b.truncate_wal(5).unwrap();
        assert_eq!(b.read_wal().unwrap(), b"hello");
        assert_eq!(b.read_checkpoint().unwrap(), None);
        b.write_checkpoint(b"state").unwrap();
        assert_eq!(b.read_checkpoint().unwrap().as_deref(), Some(&b"state"[..]));
        b.reset_wal().unwrap();
        assert!(b.read_wal().unwrap().is_empty());
    }

    #[test]
    fn file_backend_round_trips_and_survives_reopen() {
        let dir =
            std::env::temp_dir().join(format!("edgelet-store-test-{}-file-rt", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let b = FileBackend::open(&dir).unwrap();
            b.append(b"abc").unwrap();
            b.append(b"def").unwrap();
            b.sync().unwrap();
            b.write_checkpoint(b"ckpt").unwrap();
        }
        {
            // A "restarted process" sees the synced bytes.
            let b = FileBackend::open(&dir).unwrap();
            assert_eq!(b.read_wal().unwrap(), b"abcdef");
            assert_eq!(b.read_checkpoint().unwrap().as_deref(), Some(&b"ckpt"[..]));
            b.truncate_wal(3).unwrap();
            assert_eq!(b.read_wal().unwrap(), b"abc");
            b.reset_wal().unwrap();
            assert!(b.read_wal().unwrap().is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_refuses_non_directory_path() {
        let path = std::env::temp_dir().join(format!(
            "edgelet-store-test-{}-not-a-dir",
            std::process::id()
        ));
        std::fs::write(&path, b"file in the way").unwrap();
        let err = FileBackend::open(&path).unwrap_err();
        assert!(!err.is_transient());
        assert!(err.message().contains("not a directory"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_writes_prefix_then_kills_backend() {
        let b = FaultyBackend::new(
            MemBackend::new(),
            StorageFaultPlan::new().with(2, StorageFaultAction::TornTail { keep: 3 }),
        );
        b.append(b"first").unwrap();
        let err = b.append(b"second").unwrap_err();
        assert!(!err.is_transient());
        // Later operations fail too: the writing process is "dead".
        assert!(b.append(b"third").is_err());
        assert!(b.sync().is_err());
        // The surviving bytes (on the inner backend) hold the torn tail.
        assert_eq!(b.inner().read_wal().unwrap(), b"firstsec");
    }

    #[test]
    fn truncated_record_is_silent() {
        let b = FaultyBackend::new(
            MemBackend::new(),
            StorageFaultPlan::new().with(1, StorageFaultAction::TruncatedRecord { keep: 2 }),
        );
        b.append(b"first").unwrap(); // silently cut to "fi"
        b.append(b"second").unwrap();
        assert_eq!(b.inner().read_wal().unwrap(), b"fisecond");
    }

    #[test]
    fn failed_sync_is_transient_and_bounded() {
        let b = FaultyBackend::new(
            MemBackend::new(),
            StorageFaultPlan::new().with(1, StorageFaultAction::FailedSync { times: 2 }),
        );
        b.append(b"record").unwrap();
        assert!(b.sync().unwrap_err().is_transient());
        assert!(b.sync().unwrap_err().is_transient());
        b.sync().unwrap();
    }

    #[test]
    fn mem_backend_rotates_and_compacts_segments() {
        let b = MemBackend::new();
        b.append(b"old").unwrap();
        b.rotate_wal().unwrap();
        b.append_batch(&[FrameRef::whole(b"new"), FrameRef::whole(b"er")])
            .unwrap();
        assert_eq!(b.segment_count(), 2);
        assert_eq!(
            b.read_wal_segments().unwrap(),
            vec![b"old".to_vec(), b"newer".to_vec()]
        );
        assert_eq!(b.read_wal().unwrap(), b"oldnewer");
        assert_eq!(b.segment_sizes().unwrap(), vec![3, 5]);
        // Truncation repairs only the active segment.
        b.truncate_wal(3).unwrap();
        assert_eq!(b.read_wal().unwrap(), b"oldnew");
        b.drop_sealed_segments().unwrap();
        assert_eq!(b.segment_count(), 1);
        assert_eq!(b.read_wal().unwrap(), b"new");
        b.reset_wal().unwrap();
        assert_eq!(b.segment_count(), 1);
        assert!(b.read_wal().unwrap().is_empty());
    }

    #[test]
    fn file_backend_rotates_compacts_and_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "edgelet-store-test-{}-file-seg",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let b = FileBackend::open(&dir).unwrap();
            b.append(b"seg0").unwrap();
            b.rotate_wal().unwrap();
            b.append_batch(&[FrameRef::whole(b"seg"), FrameRef::whole(b"1")])
                .unwrap();
            b.sync().unwrap();
        }
        assert!(dir.join("wal.0000.log").is_file());
        assert!(dir.join("wal.0001.log").is_file());
        {
            // A restart re-opens the highest segment as active.
            let b = FileBackend::open(&dir).unwrap();
            assert_eq!(
                b.read_wal_segments().unwrap(),
                vec![b"seg0".to_vec(), b"seg1".to_vec()]
            );
            assert_eq!(b.segment_sizes().unwrap(), vec![4, 4]);
            b.append(b"-more").unwrap();
            assert_eq!(b.read_wal().unwrap(), b"seg0seg1-more");
            b.drop_sealed_segments().unwrap();
            assert!(!dir.join("wal.0000.log").is_file());
            assert_eq!(b.read_wal().unwrap(), b"seg1-more");
            b.rotate_wal().unwrap();
            b.append(b"tail").unwrap();
            b.reset_wal().unwrap();
            assert_eq!(b.read_wal_segments().unwrap(), vec![Vec::<u8>::new()]);
        }
        {
            // reset_wal left one empty active segment; appends continue.
            let b = FileBackend::open(&dir).unwrap();
            b.append(b"fresh").unwrap();
            assert_eq!(b.read_wal().unwrap(), b"fresh");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_backend_counts_batched_records_individually() {
        let b = FaultyBackend::new(
            MemBackend::new(),
            StorageFaultPlan::new().with(3, StorageFaultAction::TornTail { keep: 1 }),
        );
        // Records 1..=4 arrive as one batch: the fault fires at the
        // third record exactly as it would for single-record appends.
        let err = b
            .append_batch(&[
                FrameRef::whole(b"first"),
                FrameRef::whole(b"second"),
                FrameRef::whole(b"third"),
                FrameRef::whole(b"fourth"),
            ])
            .unwrap_err();
        assert!(!err.is_transient());
        assert_eq!(b.inner().read_wal().unwrap(), b"firstsecondt");
        assert!(b.sync().is_err());
    }

    #[test]
    fn faulty_backend_faults_across_a_segment_boundary() {
        let b = FaultyBackend::new(
            MemBackend::new(),
            StorageFaultPlan::new().with(2, StorageFaultAction::TruncatedRecord { keep: 2 }),
        );
        b.append(b"sealed").unwrap();
        b.rotate_wal().unwrap();
        // The first append of the fresh segment is append #2 overall.
        b.append(b"cut-me").unwrap();
        assert_eq!(
            b.inner().read_wal_segments().unwrap(),
            vec![b"sealed".to_vec(), b"cu".to_vec()]
        );
    }

    #[test]
    fn corrupt_checksum_flips_one_byte() {
        let b = FaultyBackend::new(
            MemBackend::new(),
            StorageFaultPlan::new().with(1, StorageFaultAction::CorruptChecksum { byte: 1 }),
        );
        b.append(&[0x10, 0x20, 0x30]).unwrap();
        assert_eq!(b.inner().read_wal().unwrap(), vec![0x10, 0xDF, 0x30]);
    }
}
