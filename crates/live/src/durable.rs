//! Durable service state: WAL records, idempotent replay, crash points.
//!
//! The [`crate::service::QueryService`] can run over a
//! [`edgelet_store::DurableBackend`]: before a query executes, a
//! [`WalRecord::Intent`] is appended (and synced) to the log; after it
//! finishes, a [`WalRecord::Completion`] carrying the result payload,
//! the per-query liability ledger, and the trace digest follows. A
//! crash between the two leaves a *pending intent*: on restart the
//! recovered service re-executes it under its original epoch when the
//! same spec is resubmitted — the worlds are seeded from the spec, so
//! the re-run is byte-identical to the run the crash interrupted
//! (proved by `tests/durability_restart.rs`).
//!
//! Replay is **idempotent**: [`DurableState`] keys applications by
//! epoch in an `applied` set, so replaying a WAL segment twice — which
//! happens when a crash lands between a completion append and the
//! checkpoint that would subsume it — never double-charges the
//! cumulative ledger. This generalizes the combiner's `seen_partials`
//! dedup guard (PR 3) from message delivery to storage replay.
//!
//! Replay is also **streaming**: [`DurableState::replay`] reads each
//! record in place from the recovered segment bytes — the result
//! payload is walked, never copied; the ledger lands in one reused
//! [`FlatLedger`] — validates the whole record, and only then folds it
//! into a [`DenseLedger`] of per-device sums, so a record is applied
//! entirely or not at all. The sums join the cumulative ledger once,
//! when replay returns.
//!
//! See `docs/STORAGE.md` for the full recovery model.

use crate::harness::LiveRun;
use edgelet_exec::{DenseLedger, FlatLedger, Ledger};
use edgelet_query::QuerySpec;
use edgelet_util::{Error, Result};
use edgelet_wire::crc::crc32;
use edgelet_wire::{to_bytes, Decode, Encode, Reader, Writer};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Identity of a query spec as persisted in intent records: the CRC-32
/// of its canonical wire encoding. Recovery matches a resubmitted spec
/// against pending intents by this digest instead of persisting the
/// whole privacy/resilience configuration — the caller rebuilds the
/// world; the digest proves it is asking for the same computation.
pub fn spec_digest(spec: &QuerySpec) -> u32 {
    crc32(&to_bytes(spec))
}

/// CRC-32 over the externally visible outcome of one run — result
/// payload, liability ledger, trace digest — in their wire encodings.
/// Two runs with equal `state_crc` delivered byte-identical results;
/// the CLI surfaces it so restart-parity checks need no file diffing.
pub fn state_crc(run: &LiveRun) -> u32 {
    let mut w = Writer::new();
    run.report.result_payload.encode(&mut w);
    run.report.ledger.encode(&mut w);
    run.trace_digest.encode(&mut w);
    crc32(&w.into_bytes())
}

const TAG_INTENT: u8 = 0;
const TAG_COMPLETION: u8 = 1;

/// One record in the service WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Logged (and synced) before a query executes: the admitted epoch
    /// and the digest of the spec it will run.
    Intent {
        /// The epoch the query was admitted under.
        epoch: u64,
        /// [`spec_digest`] of the admitted spec.
        spec_digest: u32,
    },
    /// Logged after a query finishes, before its effects are treated as
    /// durable.
    Completion {
        /// The epoch the query ran under.
        epoch: u64,
        /// The raw combiner result payload the Querier received.
        result_payload: Option<Vec<u8>>,
        /// The per-query liability ledger.
        ledger: Ledger,
        /// Trace digest, when tracing was enabled.
        trace_digest: Option<u64>,
    },
}

impl Encode for WalRecord {
    fn encode(&self, w: &mut Writer) {
        match self {
            WalRecord::Intent { epoch, spec_digest } => {
                TAG_INTENT.encode(w);
                epoch.encode(w);
                spec_digest.encode(w);
            }
            WalRecord::Completion {
                epoch,
                result_payload,
                ledger,
                trace_digest,
            } => encode_completion(w, *epoch, result_payload, ledger, *trace_digest),
        }
    }
}

/// Writes a [`WalRecord::Completion`] from borrowed parts — the one
/// encoder of that record, so the submit path can journal a finished
/// run without first cloning its payload and ledger into an owned
/// record.
pub(crate) fn encode_completion(
    w: &mut Writer,
    epoch: u64,
    result_payload: &Option<Vec<u8>>,
    ledger: &Ledger,
    trace_digest: Option<u64>,
) {
    TAG_COMPLETION.encode(w);
    epoch.encode(w);
    result_payload.encode(w);
    ledger.encode(w);
    trace_digest.encode(w);
}

impl Decode for WalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match u8::decode(r)? {
            TAG_INTENT => Ok(WalRecord::Intent {
                epoch: u64::decode(r)?,
                spec_digest: u32::decode(r)?,
            }),
            TAG_COMPLETION => Ok(WalRecord::Completion {
                epoch: u64::decode(r)?,
                result_payload: Option::<Vec<u8>>::decode(r)?,
                ledger: Ledger::decode(r)?,
                trace_digest: Option::<u64>::decode(r)?,
            }),
            tag => Err(unknown_tag(tag)),
        }
    }
}

fn unknown_tag(tag: u8) -> Error {
    Error::Protocol(format!("unknown WAL record tag {tag}"))
}

/// An encoded `Vec<u8>` read past rather than into memory: the same
/// length bound and per-byte range check as the owned decoder, no
/// allocation. Replay never looks at a completion's result payload.
struct SkippedBytes;

impl Decode for SkippedBytes {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        for _ in 0..r.seq_len_for(1)? {
            u8::decode(r)?;
        }
        Ok(SkippedBytes)
    }
}

/// What replay needs of one record once all of it has been validated;
/// a completion's ledger is left in the caller's scratch buffer.
enum RecordView {
    Intent { epoch: u64, spec_digest: u32 },
    Completion { epoch: u64 },
}

impl RecordView {
    /// Reads one whole record in place, accepting exactly the byte
    /// strings `from_bytes::<WalRecord>` accepts. Nothing is applied
    /// here: the caller folds the view in only after this returns `Ok`.
    fn parse(bytes: &[u8], ledger: &mut FlatLedger) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let view = match u8::decode(&mut r)? {
            TAG_INTENT => RecordView::Intent {
                epoch: u64::decode(&mut r)?,
                spec_digest: u32::decode(&mut r)?,
            },
            TAG_COMPLETION => {
                let epoch = u64::decode(&mut r)?;
                Option::<SkippedBytes>::decode(&mut r)?;
                ledger.decode_from(&mut r)?;
                Option::<u64>::decode(&mut r)?;
                RecordView::Completion { epoch }
            }
            tag => return Err(unknown_tag(tag)),
        };
        r.expect_end()?;
        Ok(view)
    }
}

/// The durable core of the service, reconstructed on restart from the
/// checkpoint plus the WAL records after it.
#[derive(Debug, Clone, Default)]
pub struct DurableState {
    /// The next epoch to allocate (one past the highest seen).
    pub next_epoch: u64,
    /// Cumulative crowd-liability ledger over every applied completion.
    pub ledger: Ledger,
    /// Epochs whose completions have been applied — the idempotence
    /// guard: an epoch in this set is never applied again.
    pub applied: BTreeSet<u64>,
    /// Intents without a completion: `epoch -> spec digest`. These are
    /// the queries a crash interrupted; a resubmission of a spec with a
    /// matching digest re-runs under the recorded epoch.
    pub pending: BTreeMap<u64, u32>,
}

impl DurableState {
    /// Applies one owned record, idempotently: re-applying a record for
    /// an epoch already in `applied` is a no-op, so a WAL segment can
    /// be replayed any number of times without double-charging the
    /// ledger.
    pub fn apply(&mut self, record: &WalRecord) {
        match record {
            WalRecord::Intent { epoch, spec_digest } => self.apply_intent(*epoch, *spec_digest),
            WalRecord::Completion { epoch, ledger, .. } => self.apply_completion(*epoch, ledger),
        }
    }

    fn apply_intent(&mut self, epoch: u64, spec_digest: u32) {
        self.see_epoch(epoch);
        if !self.applied.contains(&epoch) {
            self.pending.insert(epoch, spec_digest);
        }
    }

    /// Records `epoch` as completed. `true` the first time: the caller
    /// then charges the epoch's ledger, in whichever form it holds it.
    fn begin_completion(&mut self, epoch: u64) -> bool {
        self.see_epoch(epoch);
        let first = self.applied.insert(epoch);
        if first {
            self.pending.remove(&epoch);
        }
        first
    }

    fn see_epoch(&mut self, epoch: u64) {
        self.next_epoch = self.next_epoch.max(epoch.saturating_add(1));
    }

    /// Applies the completion of a run that just finished, straight
    /// from the run's own ledger (what the submit path calls once the
    /// record is durable).
    pub(crate) fn apply_completion(&mut self, epoch: u64, ledger: &Ledger) {
        if self.begin_completion(epoch) {
            self.ledger.merge(ledger);
        }
    }

    /// Applies a slice of raw WAL payloads in order, streaming: each
    /// record is read in place, validated to its last byte, and only
    /// then folded in, so a malformed record leaves the state exactly
    /// as its predecessor left it. Accepts anything byte-slice-like —
    /// recovery hands zero-copy [`edgelet_util::Payload`] slices over
    /// the segment buffers straight in. One ledger buffer and one
    /// [`DenseLedger`] are reused for every record; nothing else is
    /// allocated per record. The dense sums, bounded by the bytes
    /// replayed, join the cumulative ledger once, on success and on
    /// error alike. Returns the number of records applied.
    pub fn replay<B: AsRef<[u8]>>(&mut self, payloads: &[B]) -> Result<usize> {
        let mut sums = DenseLedger::default();
        let replayed = self.fold_records(payloads, &mut sums);
        sums.merge_into(&mut self.ledger);
        replayed.map(|()| payloads.len())
    }

    /// [`DurableState::replay`] up to the first malformed record, with
    /// completions' ledgers summed in `sums` instead of `self.ledger`.
    fn fold_records<B: AsRef<[u8]>>(
        &mut self,
        payloads: &[B],
        sums: &mut DenseLedger,
    ) -> Result<()> {
        let mut ledger = FlatLedger::default();
        let mut bytes_read = 0usize;
        for payload in payloads {
            let payload = payload.as_ref();
            bytes_read = bytes_read.saturating_add(payload.len());
            match RecordView::parse(payload, &mut ledger)? {
                RecordView::Intent { epoch, spec_digest } => self.apply_intent(epoch, spec_digest),
                RecordView::Completion { epoch } => {
                    if self.begin_completion(epoch) {
                        sums.fold(&ledger, bytes_read, &mut self.ledger);
                    }
                }
            }
        }
        Ok(())
    }

    /// The smallest pending epoch whose intent digest matches, if any.
    pub fn pending_for(&self, digest: u32) -> Option<u64> {
        self.pending
            .iter()
            .find(|(_, d)| **d == digest)
            .map(|(e, _)| *e)
    }
}

impl Encode for DurableState {
    fn encode(&self, w: &mut Writer) {
        self.next_epoch.encode(w);
        self.ledger.encode(w);
        // BTreeSet iterates sorted; encode as a canonical Vec.
        let applied: Vec<u64> = self.applied.iter().copied().collect();
        applied.encode(w);
        self.pending.encode(w);
    }
}

impl Decode for DurableState {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Self {
            next_epoch: u64::decode(r)?,
            ledger: Ledger::decode(r)?,
            applied: Vec::<u64>::decode(r)?.into_iter().collect(),
            pending: BTreeMap::decode(r)?,
        })
    }
}

/// Scripted crash points in the durable submit path, named after what
/// is durable when the crash hits:
///
/// * `after-admit` — the intent is logged; the query never ran;
/// * `mid-query` — the query executed, but its completion is not
///   logged: durably indistinguishable from `after-admit`;
/// * `before-checkpoint` — the completion is logged but not yet folded
///   into a checkpoint: recovery must replay it (idempotently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash right after the intent record is durable.
    AfterAdmit,
    /// Crash after execution, before the completion record.
    MidQuery,
    /// Crash after the completion record, before the checkpoint.
    BeforeCheckpoint,
}

impl CrashPoint {
    /// All points, in submit-path order.
    pub const ALL: [CrashPoint; 3] = [
        CrashPoint::AfterAdmit,
        CrashPoint::MidQuery,
        CrashPoint::BeforeCheckpoint,
    ];

    /// The CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::AfterAdmit => "after-admit",
            CrashPoint::MidQuery => "mid-query",
            CrashPoint::BeforeCheckpoint => "before-checkpoint",
        }
    }

    /// Parses a CLI-facing name.
    pub fn parse(s: &str) -> Option<Self> {
        CrashPoint::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Invoked when a scripted [`CrashPoint`] trips. The in-process tests
/// install a handler that panics (and `catch_unwind` at the call site);
/// the CLI installs `std::process::abort` so the whole process dies
/// exactly as a power cut would.
pub type CrashHandler = Arc<dyn Fn(CrashPoint) + Send + Sync>;

/// Durability knobs for a [`crate::service::QueryService`].
#[derive(Clone)]
pub struct DurabilityConfig {
    /// Checkpoint after this many applied completions; `0` disables
    /// checkpointing (the WAL then grows without bound and recovery
    /// replays everything — the analyzer warns with `W141`).
    pub checkpoint_every: u64,
    /// Group-commit window: how long a commit leader waits for
    /// companion records before issuing the batch's single sync.
    /// `Duration::ZERO` (the default) syncs immediately — coalescing
    /// still happens naturally under contention. Large windows trade
    /// submit latency for sync amortization; the analyzer warns with
    /// `W143` when the window eats into the query wall deadline.
    pub commit_window: std::time::Duration,
    /// Rotate the active WAL segment once it would grow past this many
    /// bytes; `0` disables rotation (one unbounded segment). Segments
    /// sealed behind a checkpoint are deleted, bounding disk. The
    /// analyzer warns with `W144` when the segment size is so small
    /// that every checkpoint interval churns through multiple segments.
    pub segment_bytes: u64,
    /// Scripted crash point, if any.
    pub crash_at: Option<CrashPoint>,
    /// What a tripped crash point does. `None` panics with the point's
    /// name (unwind-safe for tests).
    pub crash_handler: Option<CrashHandler>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            checkpoint_every: 8,
            commit_window: std::time::Duration::ZERO,
            segment_bytes: edgelet_store::groupcommit::DEFAULT_SEGMENT_BYTES,
            crash_at: None,
            crash_handler: None,
        }
    }
}

impl std::fmt::Debug for DurabilityConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityConfig")
            .field("checkpoint_every", &self.checkpoint_every)
            .field("commit_window", &self.commit_window)
            .field("segment_bytes", &self.segment_bytes)
            .field("crash_at", &self.crash_at)
            .field("crash_handler", &self.crash_handler.as_ref().map(|_| "…"))
            .finish()
    }
}

impl DurabilityConfig {
    /// Trips `point` if it is the scripted crash point. The handler is
    /// expected not to return; if it does (or none is installed), this
    /// panics, which the in-process restart tests catch.
    pub(crate) fn trip(&self, point: CrashPoint) {
        if self.crash_at == Some(point) {
            if let Some(handler) = &self.crash_handler {
                handler(point);
            }
            panic!("scripted crash point tripped: {point}");
        }
    }
}

/// What recovery found when a durable service was (re)constructed.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// A checkpoint blob was present and loaded.
    pub checkpoint_loaded: bool,
    /// WAL records replayed on top of the checkpoint.
    pub records_replayed: usize,
    /// Bytes dropped repairing a torn tail, if the log needed it.
    pub repaired_tail: Option<u64>,
    /// Epochs with an intent but no completion, awaiting re-execution.
    pub pending: Vec<u64>,
    /// The service came up drained (read-only): why.
    pub drained: Option<String>,
}

impl RecoveryReport {
    /// True when recovery had anything to do: a checkpoint, replayed
    /// records, or a tail repair. Fresh logs recover trivially.
    pub fn recovered_anything(&self) -> bool {
        self.checkpoint_loaded || self.records_replayed > 0 || self.repaired_tail.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgelet_util::ids::DeviceId;
    use edgelet_wire::from_bytes;

    fn completion(epoch: u64, tuples: u64) -> WalRecord {
        let mut ledger = Ledger::default();
        ledger.raw_tuples(DeviceId::new(1), tuples);
        WalRecord::Completion {
            epoch,
            result_payload: Some(vec![1, 2, 3]),
            ledger,
            trace_digest: Some(0xfeed),
        }
    }

    #[test]
    fn wal_records_round_trip() {
        let records = [
            WalRecord::Intent {
                epoch: 7,
                spec_digest: 0xdead_beef,
            },
            completion(7, 42),
            WalRecord::Completion {
                epoch: 8,
                result_payload: None,
                ledger: Ledger::default(),
                trace_digest: None,
            },
        ];
        for rec in &records {
            let back: WalRecord = from_bytes(&to_bytes(rec)).unwrap();
            assert_eq!(&back, rec);
        }
        assert!(from_bytes::<WalRecord>(&[9u8]).is_err(), "unknown tag");
    }

    #[test]
    fn borrowed_completion_encoder_matches_the_owned_record() {
        let mut ledger = Ledger::default();
        ledger.host_operator(DeviceId::new(3));
        ledger.raw_tuples(DeviceId::new(900), 1 << 40);
        for (result_payload, trace_digest) in [
            (Some(vec![0u8, 127, 128, 255]), Some(u64::MAX)),
            (Some(Vec::new()), None),
            (None, Some(0)),
            (None, None),
        ] {
            let mut w = Writer::new();
            encode_completion(&mut w, 41, &result_payload, &ledger, trace_digest);
            let owned = WalRecord::Completion {
                epoch: 41,
                result_payload,
                ledger: ledger.clone(),
                trace_digest,
            };
            let bytes = w.into_bytes();
            assert_eq!(bytes, to_bytes(&owned));
            assert_eq!(from_bytes::<WalRecord>(&bytes).unwrap(), owned);
        }
    }

    /// A completion record assembled from raw, possibly malformed parts.
    fn raw_completion(epoch: u64, payload: &[u8], ledger: &[u8], digest: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        TAG_COMPLETION.encode(&mut w);
        epoch.encode(&mut w);
        w.put_raw(payload);
        w.put_raw(ledger);
        w.put_raw(digest);
        w.into_bytes()
    }

    fn raw_ledger(entries: &[[u64; 4]]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_varint(entries.len() as u64);
        for v in entries.iter().flatten() {
            w.put_varint(*v);
        }
        w.into_bytes()
    }

    /// Record-level damage. Malformed ledgers are tabled once, in
    /// `edgelet_exec::ledger`; `tests/wal_replay.rs` drills one through
    /// a recovering service.
    #[test]
    fn hostile_records_are_typed_errors_and_apply_nothing() {
        const NONE: &[u8] = &[0];
        let good_ledger = raw_ledger(&[[1, 1, 10, 0], [2, 0, 0, 5], [9, 1, 1, 1]]);
        let some_payload: &[u8] = &[1, 3, 7, 0x80, 0x01, 9];
        let sane = raw_completion(5, some_payload, &good_ledger, &[1, 42]);
        assert!(
            from_bytes::<WalRecord>(&sane).is_ok(),
            "the template is valid"
        );

        let huge_len = {
            let mut w = Writer::new();
            w.put_varint(u64::MAX / 2);
            w.into_bytes()
        };
        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            (
                "unknown record tag",
                vec![9, 1, 1],
                "unknown WAL record tag 9",
            ),
            (
                "payload option tag",
                raw_completion(5, &[2], &good_ledger, NONE),
                "invalid option tag 2",
            ),
            (
                "payload byte beyond u8",
                raw_completion(5, &[1, 2, 7, 0x80, 0x02], &good_ledger, NONE),
                "out of range for u8",
            ),
            (
                "payload length the record cannot hold",
                raw_completion(5, &[1, 100, 7], &[], &[]),
                "needs >=",
            ),
            (
                "payload length beyond the sequence cap",
                raw_completion(5, &[&[1u8][..], &huge_len].concat(), &good_ledger, NONE),
                "too large",
            ),
            (
                "digest option tag",
                raw_completion(5, NONE, &good_ledger, &[3, 1]),
                "invalid option tag 3",
            ),
            (
                "digest missing",
                raw_completion(5, NONE, &good_ledger, &[]),
                "truncated varint",
            ),
            (
                "trailing bytes after the digest",
                [sane.clone(), vec![0]].concat(),
                "trailing bytes",
            ),
            (
                "trailing bytes after an intent",
                [
                    to_bytes(&WalRecord::Intent {
                        epoch: 5,
                        spec_digest: 1,
                    }),
                    vec![0],
                ]
                .concat(),
                "trailing bytes",
            ),
            (
                "intent digest beyond u32",
                vec![TAG_INTENT, 5, 0xff, 0xff, 0xff, 0xff, 0x1f],
                "out of range for u32",
            ),
        ];

        let prefix = vec![
            to_bytes(&WalRecord::Intent {
                epoch: 4,
                spec_digest: 0xaa,
            }),
            to_bytes(&completion(4, 100)),
            to_bytes(&WalRecord::Intent {
                epoch: 5,
                spec_digest: 0xbb,
            }),
        ];
        let mut before = DurableState::default();
        before.replay(&prefix).unwrap();
        let before = to_bytes(&before);

        for (what, bad, needle) in cases {
            // The owned decoder refuses the same record the same way.
            let oracle_err = from_bytes::<WalRecord>(&bad).unwrap_err();
            let mut log = prefix.clone();
            log.push(bad);
            // A good record after the bad one must not be reached.
            log.push(to_bytes(&completion(6, 1)));

            let mut streamed = DurableState::default();
            let err = streamed.replay(&log).unwrap_err();
            assert!(
                matches!(err, Error::Decode(_) | Error::Protocol(_)),
                "{what}: {err:?}"
            );
            assert!(err.to_string().contains(needle), "{what}: {err}");
            assert_eq!(err.to_string(), oracle_err.to_string(), "{what}");
            assert_eq!(to_bytes(&streamed), before, "{what}: state moved");
        }

        // Every truncation of a valid completion is refused by both.
        for cut in 0..sane.len() {
            let mut st = DurableState::default();
            assert!(st.replay(&[&sane[..cut]]).is_err(), "cut at {cut}");
            assert!(
                from_bytes::<WalRecord>(&sane[..cut]).is_err(),
                "cut at {cut}"
            );
            assert_eq!(to_bytes(&st), to_bytes(&DurableState::default()));
        }
    }

    #[test]
    fn hostile_counters_and_epochs_do_not_overflow_replay() {
        let max = raw_completion(
            u64::MAX,
            &[0],
            &raw_ledger(&[[1, u64::from(u32::MAX), u64::MAX, u64::MAX]]),
            &[0],
        );
        let again = raw_completion(7, &[0], &raw_ledger(&[[1, 1, 1, 1]]), &[0]);
        let mut st = DurableState::default();
        assert_eq!(st.replay(&[max, again]).unwrap(), 2);
        assert_eq!(st.next_epoch, u64::MAX);
        let e = &st.ledger.entries()[&DeviceId::new(1)];
        assert_eq!(
            (e.operators_hosted, e.raw_tuples_seen, e.aggregates_seen),
            (u32::MAX, u64::MAX, u64::MAX)
        );
    }

    #[test]
    fn bytes_written_by_the_previous_release_replay_to_the_same_state() {
        // Records and checkpoint blob as the commit before streaming
        // replay wrote them (hex dumped from that build): the encoders
        // still produce these bytes, and replay reaches that checkpoint.
        fn unhex(s: &str) -> Vec<u8> {
            (0..s.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
                .collect()
        }
        let mut ledger = Ledger::default();
        ledger.host_operator(DeviceId::new(3));
        ledger.raw_tuples(DeviceId::new(3), 300);
        ledger.aggregates(DeviceId::new(200), 7);
        ledger.host_operator(DeviceId::new(70_000));
        let records = [
            WalRecord::Intent {
                epoch: 1,
                spec_digest: 0xdead_beef,
            },
            WalRecord::Completion {
                epoch: 1,
                result_payload: Some(vec![0, 1, 127, 128, 255]),
                ledger,
                trace_digest: Some(0xfeed_f00d_cafe),
            },
            WalRecord::Intent {
                epoch: 2,
                spec_digest: 7,
            },
            WalRecord::Completion {
                epoch: 300,
                result_payload: None,
                ledger: Ledger::default(),
                trace_digest: None,
            },
        ];
        let golden = [
            "0001effdb6f50d",
            "0101010500017f8001ff01030301ac0200c801000007f0a20401000001fe95b780dfdd3f",
            "000207",
            "01ac02000000",
        ]
        .map(unhex);
        for (record, bytes) in records.iter().zip(&golden) {
            assert_eq!(&to_bytes(record), bytes);
        }
        let mut st = DurableState::default();
        st.replay(&golden).unwrap();
        let checkpoint = unhex("ad02030301ac0200c801000007f0a2040100000201ac02010207");
        assert_eq!(to_bytes(&st), checkpoint);
        let loaded: DurableState = from_bytes(&checkpoint).unwrap();
        assert_eq!(to_bytes(&loaded), checkpoint);
        assert_eq!(loaded.pending_for(7), Some(2));
    }

    #[test]
    fn replaying_a_segment_twice_is_idempotent() {
        // The ledger-idempotence pin: the same WAL segment applied twice
        // yields identical balances — no double charge.
        let segment: Vec<Vec<u8>> = vec![
            to_bytes(&WalRecord::Intent {
                epoch: 1,
                spec_digest: 0xaa,
            }),
            to_bytes(&completion(1, 100)),
            to_bytes(&WalRecord::Intent {
                epoch: 2,
                spec_digest: 0xbb,
            }),
        ];
        let mut once = DurableState::default();
        once.replay(&segment).unwrap();
        let mut twice = DurableState::default();
        twice.replay(&segment).unwrap();
        twice.replay(&segment).unwrap();
        assert_eq!(once.ledger.entries(), twice.ledger.entries());
        assert_eq!(
            once.ledger.entries()[&DeviceId::new(1)].raw_tuples_seen,
            100
        );
        assert_eq!(once.applied, twice.applied);
        assert_eq!(once.pending, twice.pending);
        assert_eq!(twice.pending_for(0xbb), Some(2));
        assert_eq!(twice.pending_for(0xcc), None);
        assert_eq!(twice.next_epoch, 3);
    }

    #[test]
    fn completion_clears_pending_and_late_intent_is_ignored() {
        let mut st = DurableState::default();
        st.apply(&WalRecord::Intent {
            epoch: 4,
            spec_digest: 0x11,
        });
        assert_eq!(st.pending_for(0x11), Some(4));
        st.apply(&completion(4, 10));
        assert!(st.pending.is_empty());
        // An intent replayed after its completion (double replay of an
        // unordered mix) must not resurrect the pending entry.
        st.apply(&WalRecord::Intent {
            epoch: 4,
            spec_digest: 0x11,
        });
        assert!(st.pending.is_empty());
    }

    #[test]
    fn state_round_trips_through_checkpoint_encoding() {
        let mut st = DurableState::default();
        st.apply(&WalRecord::Intent {
            epoch: 1,
            spec_digest: 0x1,
        });
        st.apply(&completion(1, 5));
        st.apply(&WalRecord::Intent {
            epoch: 2,
            spec_digest: 0x2,
        });
        let back: DurableState = from_bytes(&to_bytes(&st)).unwrap();
        assert_eq!(back.next_epoch, st.next_epoch);
        assert_eq!(back.applied, st.applied);
        assert_eq!(back.pending, st.pending);
        assert_eq!(back.ledger.entries(), st.ledger.entries());
    }

    #[test]
    fn crash_point_names_round_trip() {
        for p in CrashPoint::ALL {
            assert_eq!(CrashPoint::parse(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(CrashPoint::parse("nonsense"), None);
    }

    #[test]
    fn trip_panics_on_the_scripted_point_only() {
        let cfg = DurabilityConfig {
            crash_at: Some(CrashPoint::MidQuery),
            ..DurabilityConfig::default()
        };
        cfg.trip(CrashPoint::AfterAdmit); // not scripted: returns
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cfg.trip(CrashPoint::MidQuery)
        }));
        assert!(result.is_err());
        DurabilityConfig::default().trip(CrashPoint::MidQuery); // no script
    }
}
