//! Group-commit front end over a [`DurableBackend`]: coalesced syncs,
//! size-triggered segment rotation, and checkpoint-aware compaction.
//!
//! [`GroupCommitLog`] amortizes the dominant cost of the durable submit
//! path — the per-record `sync` — by batching concurrent appenders into
//! one framed batch flushed with a **single** sync per commit window.
//! The protocol is classic leader/follower:
//!
//! 1. every appender frames its record *outside* any lock (the CRC-32
//!    is the expensive part) and enqueues it under the queue mutex;
//! 2. if no flush is in flight, the appender elects itself **leader**,
//!    optionally waits out the configured commit window to let more
//!    records pile in (bounded by time *and* bytes), then takes the
//!    whole queue as one batch, appends it, and issues one sync;
//! 3. everyone else is a **follower**: it parks on a condvar and is
//!    woken when its record's batch is durable. When the leader
//!    finishes it hands leadership off, so a submitter never flushes
//!    someone else's later batch — the live `QueryService` submit path
//!    blocks only on the sync that covers its *own* record.
//!
//! Batches are appended through [`DurableBackend::append_batch`], which
//! fault-injection decorators implement record-by-record: a
//! [`crate::StorageFaultPlan`] indexed by append number fires at the
//! same record whether it arrives alone or mid-batch.
//!
//! Rotation: when the active segment would grow past
//! [`GroupCommitConfig::segment_bytes`], the leader seals it with
//! [`DurableBackend::rotate_wal`] before appending, so records never
//! span segments. Checkpoints rotate too, and delete sealed segments
//! once the caller vouches that every record in them is subsumed by the
//! checkpoint blob (see [`GroupCommitLog::checkpoint`]) — that is what
//! keeps long-lived daemons at bounded disk.

use crate::durable::{DurableBackend, FrameRef, StorageError, StorageResult};
use crate::wal::{frame_header, frame_record, DurableLog, Recovered, RetryPolicy};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Default segment-rotation threshold (4 MiB).
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// Default byte bound of one commit window (1 MiB): a leader flushes as
/// soon as at least this much is queued, regardless of the time window.
pub const DEFAULT_WINDOW_BYTES: usize = 1 << 20;

/// Tuning for [`GroupCommitLog`].
#[derive(Debug, Clone)]
pub struct GroupCommitConfig {
    /// Extra time a leader waits for companions before flushing.
    /// `Duration::ZERO` (the default) flushes immediately; batching
    /// still happens naturally under contention, because everything
    /// queued while the previous flush was in flight commits together.
    pub window: Duration,
    /// Byte bound of the window: once at least this much is queued the
    /// leader flushes without waiting out the time window.
    pub window_bytes: usize,
    /// Rotate the active segment once it would grow past this many
    /// bytes (`0` disables rotation: one unbounded segment).
    pub segment_bytes: u64,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            window: Duration::ZERO,
            window_bytes: DEFAULT_WINDOW_BYTES,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}

/// Records queued for the next commit window, plus the leader/follower
/// bookkeeping. Tickets are assigned at enqueue time; `durable_ticket`
/// is the fence below which every record is on durable media.
#[derive(Debug, Default)]
struct CommitQueue {
    /// Framed records waiting for the next batch, oldest first.
    entries: Vec<Vec<u8>>,
    /// Total framed bytes in `entries`.
    bytes: usize,
    /// Ticket of `entries[0]`.
    first_ticket: u64,
    /// Ticket handed to the next enqueued record.
    next_ticket: u64,
    /// Every ticket below this is durable.
    durable_ticket: u64,
    /// A leader is currently flushing (or coalescing).
    leader: bool,
    /// Set when a flush failed after retries: the log stops accepting
    /// appends and every waiter (and later caller) sees the error. The
    /// service reacts by draining to read-only, matching single-record
    /// append failures.
    dead: Option<StorageError>,
}

/// Serialized access to the backend for flush/checkpoint I/O, plus the
/// running byte length of the active segment (for rotation decisions).
#[derive(Debug)]
struct CommitIo {
    active_len: u64,
}

/// The group-commit log: a [`DurableLog`] (recovery, checkpoints,
/// retries) plus the leader/follower commit queue.
pub struct GroupCommitLog {
    log: DurableLog,
    config: GroupCommitConfig,
    queue: Mutex<CommitQueue>,
    queue_wake: Condvar,
    io: Mutex<CommitIo>,
}

impl std::fmt::Debug for GroupCommitLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommitLog")
            .field("config", &self.config)
            .finish()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl GroupCommitLog {
    /// Wraps a backend with group commit under `config`.
    pub fn new(
        backend: Arc<dyn DurableBackend>,
        retry: RetryPolicy,
        config: GroupCommitConfig,
    ) -> Self {
        GroupCommitLog {
            log: DurableLog::new(backend, retry),
            config,
            queue: Mutex::new(CommitQueue::default()),
            queue_wake: Condvar::new(),
            io: Mutex::new(CommitIo { active_len: 0 }),
        }
    }

    /// Commits one record and returns once it is durable (its commit
    /// window's single sync has succeeded). Concurrent callers are
    /// coalesced into one batch + one sync.
    pub fn commit(&self, payload: &[u8]) -> StorageResult<()> {
        // CRC + framing run outside every lock: concurrent appenders
        // checksum in parallel.
        let frame = frame_record(payload);
        let frame_len = frame.len();
        let mut q = lock(&self.queue);
        if let Some(e) = &q.dead {
            return Err(e.clone());
        }
        let ticket = q.next_ticket;
        q.next_ticket += 1;
        q.entries.push(frame);
        q.bytes += frame_len;
        loop {
            if ticket < q.durable_ticket {
                return Ok(());
            }
            if let Some(e) = &q.dead {
                return Err(e.clone());
            }
            if !q.leader {
                // Become leader: flush the batch containing my record.
                q.leader = true;
                if !self.config.window.is_zero() && q.bytes < self.config.window_bytes {
                    // Coalesce: give companions one bounded window to
                    // join the batch. The wait releases the queue lock,
                    // so enqueuers are never blocked by it.
                    let (guard, _) = self
                        .queue_wake
                        .wait_timeout(q, self.config.window)
                        .unwrap_or_else(|e| e.into_inner());
                    q = guard;
                }
                let batch = std::mem::take(&mut q.entries);
                let batch_start = q.first_ticket;
                let batch_end = batch_start + batch.len() as u64;
                q.first_ticket = batch_end;
                q.bytes = 0;
                drop(q);
                let result = self.flush(&batch);
                q = lock(&self.queue);
                match result {
                    Ok(()) => q.durable_ticket = batch_end,
                    Err(e) => q.dead = Some(e),
                }
                // Hand leadership off before reporting: a waiter whose
                // record is still queued elects itself next.
                q.leader = false;
                self.queue_wake.notify_all();
                continue;
            }
            q = self.queue_wake.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Commits a pre-collected batch of records and returns once all
    /// of them are durable under one sync (plus any rotation the batch
    /// forces). The fast path for bulk journaling: only the 13-byte
    /// frame headers are materialized — payload bytes go to the media
    /// straight from the caller's buffers (see [`FrameRef`]) — and the
    /// media sees one write + one sync.
    pub fn commit_all(&self, payloads: &[Vec<u8>]) -> StorageResult<()> {
        if payloads.is_empty() {
            return Ok(());
        }
        if let Some(e) = &lock(&self.queue).dead {
            return Err(e.clone());
        }
        let heads: Vec<([u8; 13], usize)> = payloads.iter().map(|p| frame_header(p)).collect();
        // One FrameRef per record (not one merged slice) so
        // fault-injection decorators still see each record at its own
        // append index.
        let refs: Vec<FrameRef<'_>> = payloads
            .iter()
            .zip(&heads)
            .map(|(p, (head, n))| FrameRef {
                head: &head[..*n],
                tail: p,
            })
            .collect();
        self.flush_refs(&refs)
    }

    /// Rotation-aware batch flush: one `append_batch` + one `sync`,
    /// sealing the active segment first when the batch would overflow
    /// it. Holds the I/O lock so checkpoints and other flushes
    /// serialize at the media.
    fn flush(&self, frames: &[Vec<u8>]) -> StorageResult<()> {
        let refs: Vec<FrameRef<'_>> = frames.iter().map(|f| FrameRef::whole(f)).collect();
        self.flush_refs(&refs)
    }

    /// [`flush`](Self::flush) over borrowed frames.
    fn flush_refs(&self, refs: &[FrameRef<'_>]) -> StorageResult<()> {
        let batch_len: u64 = refs.iter().map(|f| f.len() as u64).sum();
        let mut io = lock(&self.io);
        if self.config.segment_bytes > 0
            && io.active_len > 0
            && io.active_len + batch_len > self.config.segment_bytes
        {
            // lint: allow(E132 the io mutex exists to serialize media access; contenders are other flushes and checkpoints that must wait for the media anyway, never condvar followers)
            self.log.rotate()?;
            io.active_len = 0;
        }
        // lint: allow(E132 the io mutex exists to serialize media access; contenders are other flushes and checkpoints that must wait for the media anyway, never condvar followers)
        self.log.append_batch(refs)?;
        io.active_len += batch_len;
        Ok(())
    }

    /// Writes the checkpoint blob, seals the WAL behind a fresh active
    /// segment, and — when `drop_sealed` vouches that every sealed
    /// record is covered by the blob — deletes the sealed segments.
    ///
    /// Callers pass `drop_sealed = false` when a record may be durable
    /// in the WAL but not yet folded into the blob (e.g. a completion
    /// synced by another thread that has not applied it yet); the
    /// sealed segments then survive until a later checkpoint can vouch
    /// for them, trading deferred disk for never losing an
    /// acknowledged record.
    pub fn checkpoint(&self, state: &[u8], drop_sealed: bool) -> StorageResult<()> {
        let mut io = lock(&self.io);
        // lint: allow(E132 the io mutex exists to serialize media access; a checkpoint must exclude concurrent flushes for the whole rotate/write/compact sequence)
        self.log.rotate()?;
        io.active_len = 0;
        // lint: allow(E132 the io mutex exists to serialize media access; a checkpoint must exclude concurrent flushes for the whole rotate/write/compact sequence)
        self.log.write_checkpoint(state)?;
        if drop_sealed {
            // lint: allow(E132 the io mutex exists to serialize media access; a checkpoint must exclude concurrent flushes for the whole rotate/write/compact sequence)
            self.log.drop_sealed()?;
        }
        Ok(())
    }

    /// Delegates to [`DurableLog::recover`], then aligns the rotation
    /// accounting with what is actually on the media.
    pub fn recover(&self) -> StorageResult<Recovered> {
        // Recovery runs before any concurrent committer exists, so the
        // media work happens lock-free and only the accounting update
        // takes the io lock.
        let recovered = self.log.recover()?;
        let active_len = self
            .log
            .segment_sizes()?
            .last()
            .copied()
            .unwrap_or_default();
        lock(&self.io).active_len = active_len;
        Ok(recovered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{FaultyBackend, MemBackend, StorageFaultAction, StorageFaultPlan};
    use crate::wal::TailState;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn log_over(backend: Arc<MemBackend>, config: GroupCommitConfig) -> GroupCommitLog {
        GroupCommitLog::new(backend, RetryPolicy::immediate(3), config)
    }

    fn no_rotation() -> GroupCommitConfig {
        GroupCommitConfig {
            segment_bytes: 0,
            ..GroupCommitConfig::default()
        }
    }

    /// Counts the media calls group commit exists to make few of.
    #[derive(Default)]
    struct CountingBackend {
        inner: MemBackend,
        appends: AtomicUsize,
        batches: AtomicUsize,
        syncs: AtomicUsize,
        rotations: AtomicUsize,
    }

    impl DurableBackend for CountingBackend {
        fn append(&self, bytes: &[u8]) -> StorageResult<()> {
            self.appends.fetch_add(1, Ordering::Relaxed);
            self.inner.append(bytes)
        }
        fn append_batch(&self, frames: &[FrameRef<'_>]) -> StorageResult<()> {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.inner.append_batch(frames)
        }
        fn sync(&self) -> StorageResult<()> {
            self.syncs.fetch_add(1, Ordering::Relaxed);
            self.inner.sync()
        }
        fn rotate_wal(&self) -> StorageResult<()> {
            self.rotations.fetch_add(1, Ordering::Relaxed);
            self.inner.rotate_wal()
        }
        fn read_wal_segments(&self) -> StorageResult<Vec<Vec<u8>>> {
            self.inner.read_wal_segments()
        }
        fn truncate_wal(&self, len: u64) -> StorageResult<()> {
            self.inner.truncate_wal(len)
        }
        fn drop_sealed_segments(&self) -> StorageResult<()> {
            self.inner.drop_sealed_segments()
        }
        fn write_checkpoint(&self, bytes: &[u8]) -> StorageResult<()> {
            self.inner.write_checkpoint(bytes)
        }
        fn read_checkpoint(&self) -> StorageResult<Option<Vec<u8>>> {
            self.inner.read_checkpoint()
        }
        fn reset_wal(&self) -> StorageResult<()> {
            self.inner.reset_wal()
        }
    }

    /// The workload of `bench_report`'s `store/wal_append` suite, counted
    /// instead of timed: 1 000 × 1 KiB records through `commit_all` at
    /// the default configuration. The fast path is one batch and one
    /// sync per segment the records touch; rotting back to per-record
    /// appends or syncs would make these counts 1 000.
    #[test]
    fn bulk_commit_costs_one_batch_and_one_sync_per_segment_touched() {
        let payloads: Vec<Vec<u8>> = (0..1000usize)
            .map(|i| vec![(i % 251) as u8; 1024])
            .collect();
        let counts = |backend: &CountingBackend| {
            [
                &backend.appends,
                &backend.batches,
                &backend.syncs,
                &backend.rotations,
            ]
            .map(|n| n.load(Ordering::Relaxed))
        };

        // ~1 MiB into an empty 4 MiB segment: one segment touched.
        let backend = Arc::new(CountingBackend::default());
        let log = GroupCommitLog::new(
            backend.clone(),
            RetryPolicy::immediate(3),
            GroupCommitConfig::default(),
        );
        log.commit_all(&payloads).unwrap();
        assert_eq!(counts(&backend), [0, 1, 1, 0]);

        // Four more such batches: the fifth would overflow the segment,
        // so it pays the one rotation; every batch is still one append
        // call and one sync.
        for _ in 0..4 {
            log.commit_all(&payloads).unwrap();
        }
        assert_eq!(counts(&backend), [0, 5, 5, 1]);
        assert_eq!(log.recover().unwrap().records.len(), 5_000);
    }

    #[test]
    fn sequential_appends_recover_in_order() {
        let backend = Arc::new(MemBackend::new());
        let log = log_over(backend.clone(), no_rotation());
        log.commit(b"one").unwrap();
        log.commit(b"two").unwrap();
        log.commit_all(&[b"three".to_vec(), b"four".to_vec()])
            .unwrap();
        let rec = log.recover().unwrap();
        let owned: Vec<Vec<u8>> = rec.records.iter().map(|p| p.to_vec()).collect();
        assert_eq!(
            owned,
            vec![
                b"one".to_vec(),
                b"two".to_vec(),
                b"three".to_vec(),
                b"four".to_vec()
            ]
        );
    }

    #[test]
    fn concurrent_appenders_coalesce_and_all_commit() {
        let backend = Arc::new(MemBackend::new());
        let log = Arc::new(log_over(
            backend.clone(),
            GroupCommitConfig {
                window: Duration::from_millis(2),
                ..no_rotation()
            },
        ));
        let threads: Vec<_> = (0..8u8)
            .map(|i| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || log.commit(&[i; 64]).unwrap())
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let rec = log.recover().unwrap();
        assert_eq!(rec.records.len(), 8);
        let mut seen: Vec<u8> = rec.records.iter().map(|r| r.as_slice()[0]).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<u8>>());
    }

    #[test]
    fn batches_rotate_segments_at_the_size_threshold() {
        let backend = Arc::new(MemBackend::new());
        let log = log_over(
            backend.clone(),
            GroupCommitConfig {
                segment_bytes: 64,
                ..GroupCommitConfig::default()
            },
        );
        for i in 0..6u8 {
            log.commit(&[i; 40]).unwrap();
        }
        // 40-byte records frame to 46 bytes; each pair overflows the
        // 64-byte segment cap, so every record after the first starts
        // a fresh segment.
        assert!(backend.segment_count() > 1, "rotation never fired");
        let rec = log.recover().unwrap();
        assert_eq!(rec.records.len(), 6);
        assert_eq!(rec.segments, backend.segment_count());
    }

    #[test]
    fn checkpoint_rotates_and_drops_subsumed_segments() {
        let backend = Arc::new(MemBackend::new());
        let log = log_over(backend.clone(), no_rotation());
        log.commit(b"a").unwrap();
        log.commit(b"b").unwrap();
        log.checkpoint(b"blob-ab", true).unwrap();
        assert_eq!(backend.segment_count(), 1);
        assert_eq!(backend.wal_len(), 0);
        log.commit(b"c").unwrap();
        let rec = log.recover().unwrap();
        assert_eq!(rec.checkpoint.as_deref(), Some(&b"blob-ab"[..]));
        assert_eq!(rec.records.len(), 1);
    }

    #[test]
    fn deferred_compaction_keeps_unsubsumed_segments() {
        let backend = Arc::new(MemBackend::new());
        let log = log_over(backend.clone(), no_rotation());
        log.commit(b"not-yet-applied").unwrap();
        log.checkpoint(b"blob-without-it", false).unwrap();
        // The sealed segment must survive: its record is not in the blob.
        assert_eq!(backend.segment_count(), 2);
        let rec = log.recover().unwrap();
        assert_eq!(rec.records.len(), 1, "the sealed record must replay");
        // A later checkpoint that does cover everything compacts.
        log.checkpoint(b"blob-with-it", true).unwrap();
        assert_eq!(backend.segment_count(), 1);
        assert_eq!(backend.wal_len(), 0);
    }

    #[test]
    fn flush_failure_poisons_the_log_like_a_crash() {
        let faulty: Arc<dyn DurableBackend> = Arc::new(FaultyBackend::new(
            MemBackend::new(),
            StorageFaultPlan::new().with(2, StorageFaultAction::TornTail { keep: 2 }),
        ));
        let log = GroupCommitLog::new(faulty, RetryPolicy::immediate(2), no_rotation());
        log.commit(b"fine").unwrap();
        let err = log.commit(b"torn").unwrap_err();
        assert!(!err.is_transient());
        // The log is dead: later appends fail fast with the same error.
        let again = log.commit(b"after").unwrap_err();
        assert_eq!(err, again);
    }

    #[test]
    fn mid_batch_fault_hits_the_exact_record_index() {
        let inner = Arc::new(MemBackend::new());
        let faulty: Arc<dyn DurableBackend> = Arc::new(FaultyBackend::new(
            Arc::clone(&inner),
            StorageFaultPlan::new().with(3, StorageFaultAction::TornTail { keep: 1 }),
        ));
        let log = GroupCommitLog::new(faulty, RetryPolicy::immediate(2), no_rotation());
        let err = log
            .commit_all(&[
                b"first".to_vec(),
                b"second".to_vec(),
                b"third".to_vec(),
                b"fourth".to_vec(),
            ])
            .unwrap_err();
        assert!(!err.is_transient());
        // Records 1-2 landed whole, record 3 tore after one byte: the
        // recovery scan over the surviving media sees a torn tail.
        let scan = crate::wal::scan_wal(&inner.read_wal().unwrap());
        assert_eq!(scan.records, vec![b"first".to_vec(), b"second".to_vec()]);
        assert!(matches!(scan.tail, TailState::TornTail { .. }));
    }

    #[test]
    fn transient_sync_faults_are_retried_through_the_batch_path() {
        let inner = Arc::new(MemBackend::new());
        let faulty: Arc<dyn DurableBackend> = Arc::new(FaultyBackend::new(
            Arc::clone(&inner),
            StorageFaultPlan::new().with(1, StorageFaultAction::FailedSync { times: 2 }),
        ));
        let log = GroupCommitLog::new(faulty, RetryPolicy::immediate(3), no_rotation());
        log.commit(b"rides-out-the-blip").unwrap();
        let rec = log.recover().unwrap();
        assert_eq!(rec.records.len(), 1);
    }
}
