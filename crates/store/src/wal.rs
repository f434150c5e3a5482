//! Write-ahead-log record framing, recovery scans, and the retrying
//! [`DurableLog`] front end.
//!
//! Every record is framed as
//!
//! ```text
//! +----------------+------------------+------------------+
//! | varint len(N)  | CRC-32 (4B, LE)  | payload (N bytes)|
//! +----------------+------------------+------------------+
//! ```
//!
//! reusing the `edgelet-wire` LEB128 varint and the wire CRC-32
//! ([`edgelet_wire::crc::crc32`]) over the payload. The frame makes two
//! failure modes distinguishable on recovery:
//!
//! * a **torn tail** — the *final* frame is incomplete or fails its
//!   checksum. That is what a crash mid-append leaves behind; the tail
//!   is dropped ([`TailState::TornTail`]) and the log is truncated back
//!   to its last clean frame. The lost record was never acknowledged
//!   durable (its `sync` cannot have returned), so dropping it is safe.
//! * **mid-log corruption** — a frame *before* the end fails its
//!   checksum or its framing. Appends after it were acknowledged but
//!   can no longer be trusted; the scan refuses the log
//!   ([`TailState::Corrupt`]) and the service degrades to read-only
//!   drained mode rather than silently mis-charging a ledger.

use crate::durable::{DurableBackend, FrameRef, StorageError, StorageResult};
use edgelet_util::Payload;
use edgelet_wire::crc::crc32;
use std::ops::Range;
use std::sync::Arc;

/// Upper bound on a single record's payload (16 MiB): a corrupted
/// length prefix must not make the scan "consume" gigabytes.
pub const MAX_RECORD_BYTES: u64 = 16 << 20;

/// Frames one payload as a WAL record.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let (head, n) = frame_header(payload);
    let mut out = Vec::with_capacity(n + payload.len());
    out.extend_from_slice(&head[..n]);
    out.extend_from_slice(payload);
    out
}

/// Frame header bytes for one payload: the length varint followed by
/// the CRC-32, in a fixed stack buffer (second element is the used
/// length). Batch committers pair this with the caller's payload slice
/// (see [`crate::FrameRef`]) so a batch append never gathers records
/// into a second contiguous allocation.
pub fn frame_header(payload: &[u8]) -> ([u8; 13], usize) {
    let mut buf = [0u8; 13];
    let mut n = 0;
    let mut v = payload.len() as u64;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = byte;
            n += 1;
            break;
        }
        buf[n] = byte | 0x80;
        n += 1;
    }
    buf[n..n + 4].copy_from_slice(&crc32(payload).to_le_bytes());
    n += 4;
    (buf, n)
}

/// What the scan found at the end of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailState {
    /// Every frame parsed and verified.
    Clean,
    /// The final frame is incomplete or fails its checksum — a crash
    /// mid-append. Truncating back to `clean_len` repairs the log.
    TornTail {
        /// Log length up to and including the last clean frame.
        clean_len: u64,
        /// Bytes dropped by the repair.
        dropped: u64,
    },
    /// A frame *before* the end is damaged; acknowledged records after
    /// it are unrecoverable, so the log must not be trusted.
    Corrupt {
        /// Byte offset of the damaged frame.
        offset: u64,
        /// Human-readable cause.
        reason: String,
    },
}

/// The result of scanning a WAL byte string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Payloads of every clean frame, in append order.
    pub records: Vec<Vec<u8>>,
    /// What the end of the log looked like.
    pub tail: TailState,
}

/// The allocation-free form of a scan: byte ranges of every clean
/// frame's payload instead of materialized copies. Recovery slices the
/// ranges out of an [`Payload`]-backed segment buffer zero-copy; tests
/// and tooling that want owned bytes go through [`scan_wal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameScan {
    /// Payload byte range of every clean frame, in append order.
    pub frames: Vec<Range<usize>>,
    /// What the end of the log looked like.
    pub tail: TailState,
}

/// One parse attempt at `offset`; `None` means the bytes from `offset`
/// cannot hold a complete frame (candidate torn tail).
enum FrameParse {
    Complete { payload_ok: bool, end: usize },
    Incomplete,
}

fn parse_frame(bytes: &[u8], offset: usize) -> FrameParse {
    let mut pos = offset;
    let mut len: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&b) = bytes.get(pos) else {
            return FrameParse::Incomplete;
        };
        pos += 1;
        len |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift >= 63 {
            // A varint this long is not a length our writer produces;
            // treat as an unparseable (incomplete) frame.
            return FrameParse::Incomplete;
        }
    }
    if len > MAX_RECORD_BYTES {
        return FrameParse::Incomplete;
    }
    let Some(crc_bytes) = bytes.get(pos..pos + 4) else {
        return FrameParse::Incomplete;
    };
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    pos += 4;
    let len = len as usize;
    let Some(payload) = bytes.get(pos..pos + len) else {
        return FrameParse::Incomplete;
    };
    FrameParse::Complete {
        payload_ok: crc32(payload) == stored,
        end: pos + len,
    }
}

/// Scans a WAL byte string into payload ranges plus a tail verdict,
/// without copying any record bytes.
pub fn scan_frames(bytes: &[u8]) -> FrameScan {
    let mut frames = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        match parse_frame(bytes, offset) {
            FrameParse::Incomplete => {
                // The frame runs past the end of the log: a torn tail.
                return FrameScan {
                    frames,
                    tail: TailState::TornTail {
                        clean_len: offset as u64,
                        dropped: (bytes.len() - offset) as u64,
                    },
                };
            }
            FrameParse::Complete { payload_ok, end } => {
                if !payload_ok {
                    if end == bytes.len() {
                        // Checksum failure on the final frame: the media
                        // tore the write mid-frame. Drop it.
                        return FrameScan {
                            frames,
                            tail: TailState::TornTail {
                                clean_len: offset as u64,
                                dropped: (bytes.len() - offset) as u64,
                            },
                        };
                    }
                    return FrameScan {
                        frames,
                        tail: TailState::Corrupt {
                            offset: offset as u64,
                            reason: "CRC-32 mismatch on a non-final record".into(),
                        },
                    };
                }
                let start = offset + frame_header_len(bytes, offset);
                frames.push(start..end);
                offset = end;
            }
        }
    }
    FrameScan {
        frames,
        tail: TailState::Clean,
    }
}

/// Scans a WAL byte string into materialized records plus a tail
/// verdict. Thin copying wrapper over [`scan_frames`].
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let scan = scan_frames(bytes);
    WalScan {
        records: scan.frames.into_iter().map(|r| bytes[r].to_vec()).collect(),
        tail: scan.tail,
    }
}

/// Header length (varint + CRC) of the complete frame at `offset`.
fn frame_header_len(bytes: &[u8], offset: usize) -> usize {
    let mut n = 0usize;
    while bytes[offset + n] & 0x80 != 0 {
        n += 1;
    }
    n + 1 + 4
}

/// Retry policy for transient backend errors: `attempts` tries with a
/// deterministic exponential backoff (`base_delay << attempt`). The
/// backoff is indexed by attempt count, never by a wall-clock read, so
/// the determinism lint (`E102`) holds by construction.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (including the first).
    pub attempts: u32,
    /// Backoff unit; attempt `i` sleeps `base_delay << i` before retrying.
    pub base_delay: std::time::Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_delay: std::time::Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// A policy that never sleeps (unit tests).
    pub fn immediate(attempts: u32) -> Self {
        RetryPolicy {
            attempts,
            base_delay: std::time::Duration::ZERO,
        }
    }

    fn run<T>(&self, mut op: impl FnMut() -> StorageResult<T>) -> StorageResult<T> {
        let attempts = self.attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt + 1 < attempts => {
                    if !self.base_delay.is_zero() {
                        std::thread::sleep(self.base_delay * (1 << attempt.min(16)));
                    }
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| StorageError::Transient("retry budget exhausted".into())))
    }
}

/// What [`DurableLog::recover`] found.
#[derive(Debug)]
pub struct Recovered {
    /// The checkpoint blob, if one was written.
    pub checkpoint: Option<Vec<u8>>,
    /// Clean WAL record payloads after the checkpoint, in append order,
    /// as zero-copy [`Payload`] slices of the segment buffers they were
    /// read into — replay borrows them without a per-record copy.
    pub records: Vec<Payload>,
    /// Bytes dropped by a torn-tail repair (`None` when the log was
    /// clean).
    pub repaired: Option<u64>,
    /// Number of live WAL segments scanned.
    pub segments: usize,
}

/// The record-level front end over a [`DurableBackend`]: checksummed
/// appends with sync, transient-error retry, checkpointing, and the
/// recovery scan.
pub struct DurableLog {
    backend: Arc<dyn DurableBackend>,
    retry: RetryPolicy,
}

impl std::fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableLog")
            .field("retry", &self.retry)
            .finish()
    }
}

impl DurableLog {
    /// Wraps a backend with a retry policy.
    pub fn new(backend: Arc<dyn DurableBackend>, retry: RetryPolicy) -> Self {
        DurableLog { backend, retry }
    }

    /// Appends one record and syncs it durable. Only after `Ok` may the
    /// caller treat the record as persisted.
    pub fn append(&self, payload: &[u8]) -> StorageResult<()> {
        let frame = frame_record(payload);
        self.retry.run(|| self.backend.append(&frame))?;
        self.retry.run(|| self.backend.sync())
    }

    /// Appends a batch of pre-framed records and syncs them durable
    /// with a **single** sync — the group-commit fast path. Only after
    /// `Ok` may the caller treat any record of the batch as persisted.
    pub fn append_batch(&self, frames: &[FrameRef<'_>]) -> StorageResult<()> {
        self.retry.run(|| self.backend.append_batch(frames))?;
        self.retry.run(|| self.backend.sync())
    }

    /// Atomically replaces the checkpoint and clears the WAL it
    /// subsumes.
    pub fn checkpoint(&self, state: &[u8]) -> StorageResult<()> {
        self.retry.run(|| self.backend.write_checkpoint(state))?;
        self.retry.run(|| self.backend.reset_wal())
    }

    /// Replaces the checkpoint blob without touching the WAL (callers
    /// that rotate/compact segments themselves).
    pub fn write_checkpoint(&self, state: &[u8]) -> StorageResult<()> {
        self.retry.run(|| self.backend.write_checkpoint(state))
    }

    /// Seals the active segment behind a fresh empty one.
    pub fn rotate(&self) -> StorageResult<()> {
        self.retry.run(|| self.backend.rotate_wal())
    }

    /// Deletes every sealed segment (checkpoint-subsumed compaction).
    pub fn drop_sealed(&self) -> StorageResult<()> {
        self.retry.run(|| self.backend.drop_sealed_segments())
    }

    /// Byte length of each live segment, oldest first.
    pub fn segment_sizes(&self) -> StorageResult<Vec<u64>> {
        self.retry.run(|| self.backend.segment_sizes())
    }

    /// Reads checkpoint + WAL segments (oldest first), repairing a torn
    /// tail in the **active** segment (truncating it back to its last
    /// clean frame) and refusing damage anywhere else with
    /// [`StorageError::Unavailable`].
    ///
    /// The per-segment rules: a sealed segment must scan fully clean —
    /// a torn or corrupt frame there sits *before* acknowledged records
    /// in later segments, so the log cannot be trusted. Only the final
    /// (active) segment may end in a torn tail, which is what a crash
    /// mid-append leaves behind.
    ///
    /// Record payloads are returned as zero-copy [`Payload`] slices over
    /// the per-segment read buffers.
    pub fn recover(&self) -> StorageResult<Recovered> {
        let checkpoint = self.retry.run(|| self.backend.read_checkpoint())?;
        let segments = self.retry.run(|| self.backend.read_wal_segments())?;
        let count = segments.len();
        let mut records = Vec::new();
        let mut repaired = None;
        // Absolute offset of the current segment's first byte, for
        // error messages that span the whole log.
        let mut base: u64 = 0;
        for (i, seg) in segments.into_iter().enumerate() {
            let is_active = i + 1 == count;
            let seg_len = seg.len() as u64;
            let buf = Payload::new(seg);
            let scan = scan_frames(buf.as_slice());
            match scan.tail {
                TailState::Clean => {}
                TailState::TornTail { clean_len, dropped } if is_active => {
                    self.retry.run(|| self.backend.truncate_wal(clean_len))?;
                    repaired = Some(dropped);
                }
                TailState::TornTail { clean_len, .. } => {
                    return Err(StorageError::Unavailable(format!(
                        "WAL corrupt at byte {offset}: torn frame in sealed segment {i}; \
                         refusing to replay (acknowledged records after the damage \
                         are unrecoverable)",
                        offset = base + clean_len
                    )));
                }
                TailState::Corrupt { offset, reason } => {
                    return Err(StorageError::Unavailable(format!(
                        "WAL corrupt at byte {offset}: {reason}; refusing to replay \
                         (acknowledged records after the damage are unrecoverable)",
                        offset = base + offset
                    )));
                }
            }
            records.extend(scan.frames.into_iter().map(|r| buf.slice(r)));
            base += seg_len;
        }
        Ok(Recovered {
            checkpoint,
            records,
            repaired,
            segments: count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{FaultyBackend, MemBackend, StorageFaultAction, StorageFaultPlan};

    fn mem_log(backend: Arc<MemBackend>) -> DurableLog {
        DurableLog::new(backend, RetryPolicy::immediate(3))
    }

    fn owned(records: &[Payload]) -> Vec<Vec<u8>> {
        records.iter().map(|p| p.to_vec()).collect()
    }

    #[test]
    fn frames_round_trip_through_scan() {
        let mut wal = Vec::new();
        for payload in [&b"alpha"[..], b"", b"gamma-delta"] {
            wal.extend_from_slice(&frame_record(payload));
        }
        let scan = scan_wal(&wal);
        assert_eq!(scan.tail, TailState::Clean);
        assert_eq!(
            scan.records,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma-delta".to_vec()]
        );
    }

    #[test]
    fn torn_tail_is_detected_and_dropped() {
        let mut wal = Vec::new();
        wal.extend_from_slice(&frame_record(b"kept"));
        let clean_len = wal.len() as u64;
        let torn = frame_record(b"lost-in-the-crash");
        wal.extend_from_slice(&torn[..torn.len() - 5]);
        let scan = scan_wal(&wal);
        assert_eq!(scan.records, vec![b"kept".to_vec()]);
        assert_eq!(
            scan.tail,
            TailState::TornTail {
                clean_len,
                dropped: (torn.len() - 5) as u64
            }
        );
    }

    #[test]
    fn corrupt_final_record_is_a_torn_tail_not_corruption() {
        let mut wal = Vec::new();
        wal.extend_from_slice(&frame_record(b"kept"));
        let clean_len = wal.len() as u64;
        let mut last = frame_record(b"scrambled");
        let n = last.len();
        last[n - 1] ^= 0xFF;
        wal.extend_from_slice(&last);
        let scan = scan_wal(&wal);
        assert_eq!(scan.records, vec![b"kept".to_vec()]);
        assert!(matches!(scan.tail, TailState::TornTail { clean_len: l, .. } if l == clean_len));
    }

    #[test]
    fn mid_log_corruption_is_refused() {
        let mut wal = Vec::new();
        let mut first = frame_record(b"damaged");
        first[6] ^= 0xFF; // flip a payload byte of a non-final record
        wal.extend_from_slice(&first);
        wal.extend_from_slice(&frame_record(b"after"));
        let scan = scan_wal(&wal);
        assert!(scan.records.is_empty());
        assert!(
            matches!(scan.tail, TailState::Corrupt { offset: 0, .. }),
            "{:?}",
            scan.tail
        );
    }

    #[test]
    fn hostile_length_prefix_cannot_swallow_the_log() {
        // A length prefix claiming 2^40 bytes must scan as a torn tail
        // (unparseable frame), not attempt a giant allocation.
        let mut wal = frame_record(b"ok").to_vec();
        let clean_len = wal.len() as u64;
        let mut v = 1u64 << 40;
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                wal.push(byte);
                break;
            }
            wal.push(byte | 0x80);
        }
        wal.extend_from_slice(&[0u8; 64]);
        let scan = scan_wal(&wal);
        assert_eq!(scan.records, vec![b"ok".to_vec()]);
        assert!(matches!(scan.tail, TailState::TornTail { clean_len: l, .. } if l == clean_len));
    }

    #[test]
    fn log_appends_and_recovers() {
        let backend = Arc::new(MemBackend::new());
        let log = mem_log(backend.clone());
        log.append(b"one").unwrap();
        log.append(b"two").unwrap();
        let rec = log.recover().unwrap();
        assert_eq!(rec.checkpoint, None);
        assert_eq!(owned(&rec.records), vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(rec.repaired, None);

        log.checkpoint(b"state-after-two").unwrap();
        log.append(b"three").unwrap();
        let rec = log.recover().unwrap();
        assert_eq!(rec.checkpoint.as_deref(), Some(&b"state-after-two"[..]));
        assert_eq!(owned(&rec.records), vec![b"three".to_vec()]);
    }

    #[test]
    fn recovery_repairs_an_injected_torn_tail() {
        let backend = Arc::new(MemBackend::new());
        {
            let faulty: Arc<dyn crate::durable::DurableBackend> = Arc::new(FaultyBackend::new(
                backend.clone(),
                StorageFaultPlan::new().with(2, StorageFaultAction::TornTail { keep: 6 }),
            ));
            let log = DurableLog::new(faulty, RetryPolicy::immediate(2));
            log.append(b"survives").unwrap();
            assert!(log.append(b"torn-away").is_err());
        }
        // "Restart": recover straight from the inner backend.
        let log = mem_log(backend.clone());
        let rec = log.recover().unwrap();
        assert_eq!(owned(&rec.records), vec![b"survives".to_vec()]);
        assert!(rec.repaired.is_some());
        // The repair truncated the media itself: a second recovery is clean.
        let rec = log.recover().unwrap();
        assert_eq!(rec.repaired, None);
        assert_eq!(owned(&rec.records), vec![b"survives".to_vec()]);
    }

    #[test]
    fn recovery_refuses_mid_log_truncated_record() {
        let backend = Arc::new(MemBackend::new());
        let faulty: Arc<dyn crate::durable::DurableBackend> = Arc::new(FaultyBackend::new(
            backend.clone(),
            StorageFaultPlan::new().with(1, StorageFaultAction::TruncatedRecord { keep: 4 }),
        ));
        let log = DurableLog::new(faulty, RetryPolicy::immediate(2));
        log.append(b"silently-cut").unwrap();
        log.append(b"acknowledged-after").unwrap();
        let err = mem_log(backend).recover().unwrap_err();
        assert!(!err.is_transient());
        assert!(err.message().contains("refusing to replay"), "{err}");
    }

    #[test]
    fn failed_syncs_are_retried_to_success() {
        let backend = Arc::new(MemBackend::new());
        let faulty: Arc<dyn crate::durable::DurableBackend> = Arc::new(FaultyBackend::new(
            backend.clone(),
            StorageFaultPlan::new().with(1, StorageFaultAction::FailedSync { times: 2 }),
        ));
        let log = DurableLog::new(faulty, RetryPolicy::immediate(3));
        log.append(b"rides-out-the-fsync-blip").unwrap();
        let rec = mem_log(backend).recover().unwrap();
        assert_eq!(
            owned(&rec.records),
            vec![b"rides-out-the-fsync-blip".to_vec()]
        );
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        let faulty: Arc<dyn crate::durable::DurableBackend> = Arc::new(FaultyBackend::new(
            MemBackend::new(),
            StorageFaultPlan::new().with(1, StorageFaultAction::FailedSync { times: 5 }),
        ));
        let log = DurableLog::new(faulty, RetryPolicy::immediate(3));
        let err = log.append(b"never-durable").unwrap_err();
        assert!(err.is_transient());
    }

    #[test]
    fn corrupt_checksum_on_the_tail_record_is_dropped() {
        let backend = Arc::new(MemBackend::new());
        let faulty: Arc<dyn crate::durable::DurableBackend> = Arc::new(FaultyBackend::new(
            backend.clone(),
            // Byte 8 lands inside the payload of the second frame
            // (header is varint+CRC = 5 bytes here).
            StorageFaultPlan::new().with(2, StorageFaultAction::CorruptChecksum { byte: 8 }),
        ));
        let log = DurableLog::new(faulty, RetryPolicy::immediate(2));
        log.append(b"kept").unwrap();
        log.append(b"flipped").unwrap();
        let rec = mem_log(backend).recover().unwrap();
        assert_eq!(owned(&rec.records), vec![b"kept".to_vec()]);
        assert!(rec.repaired.is_some());
    }
}
