//! The edgelet-net control protocol: every message that crosses a
//! socket, as wire-codec values framed by [`crate::framing`].
//!
//! The protocol has three planes (documented in `docs/NET.md` and
//! `docs/PROTOCOL.md` §8):
//!
//! * **Session** — `Hello`/`Welcome`/`Reject` versioned handshake
//!   (rejects on [`edgelet_wire::FRAME_VERSION`],
//!   [`edgelet_wire::ENVELOPE_VERSION`], or [`PROTO_VERSION`]
//!   mismatch), `Ping`/`Pong` liveness probes.
//! * **Client** — `SubmitReq`/`SubmitResp`: a query submission carrying
//!   opaque world-spec bytes and an opaque result artifact (the daemon
//!   host defines both; the socket layer never interprets them).
//! * **Coordination** — the daemon↔worker window protocol: `Prepare`/
//!   `Ready` (build the world), `Envelopes`+`OpenWindow`/`RoundDone`
//!   (one conservative window), `Finish`|`Abort`/`QueryDone` (teardown
//!   and result partials).
//!
//! Everything the coordination plane ships — metric deltas, journal
//! entries, the querier record — is an exact integer encoding of the
//! executor's own window report types ([`edgelet_sim::exec`]): this
//! module defines their wire image, never a second copy of the types,
//! so merging remote partials is the one barrier merge. A journal's
//! trace events carry the codec `edgelet_sim::trace` gives them.

use edgelet_sim::exec::{Deltas, JEntry, JItem};
use edgelet_sim::{DelayStats, SimTime, TraceEvent};
use edgelet_util::{Error, Result};
use edgelet_wire::{Decode, Encode, Envelope, Reader, Writer};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Version of this control protocol; bump on message layout changes.
/// Carried in `Hello` and rejected on mismatch, alongside the frame and
/// envelope versions. Version 2 dropped `Prepare`'s trailing fault-mode
/// byte: a fault plan is part of the world the spec bytes describe.
pub const PROTO_VERSION: u16 = 2;

/// The peer's role, declared in `Hello`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A worker process offering round execution.
    Worker,
    /// A client submitting queries.
    Client,
}

/// One window's worth of a worker's round output, on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRound {
    /// Commutative metric deltas (exact integers). A live slice never
    /// parks or churns, so those three counters are not on the wire.
    pub deltas: Deltas,
    /// Earliest event still pending on this worker, µs.
    pub pending_min: Option<u64>,
    /// The window stopped on the event budget.
    pub hit_budget: bool,
    /// Ordered side effects, pre-sorted by `(at, origin, seq, intra)`.
    pub journal: Vec<JEntry>,
    /// Envelopes for other workers, flattened in lane-then-FIFO order.
    pub outgoing: Vec<Envelope>,
}

/// How many distinct observation names a process will intern. The real
/// vocabulary is the dozen names `edgelet-exec` observes; the cap only
/// exists so a buggy or hostile peer cannot grow the daemon without
/// bound through `RoundDone` journals.
pub const MAX_INTERNED_NAMES: usize = 64;

static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Interns an observation name to the `&'static str` the metrics API
/// requires. Past [`MAX_INTERNED_NAMES`] distinct names every new one is
/// refused with a typed decode error (already interned names keep
/// resolving), which the daemon answers like any other undecodable
/// round: drop the fleet, rerun the epoch in process.
pub fn intern_name(name: &str) -> Result<&'static str> {
    let mut set = NAMES.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(existing) = set.get(name) {
        return Ok(existing);
    }
    if set.len() >= MAX_INTERNED_NAMES {
        return Err(Error::Decode(format!(
            "observation name table is full ({MAX_INTERNED_NAMES} names); refusing a new one"
        )));
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    set.insert(leaked);
    Ok(leaked)
}

/// How many observation names this process has interned so far.
pub fn interned_names() -> usize {
    NAMES.lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Wire image of the querier's outcome record
/// ([`edgelet_exec::roles::querier::QuerierRecord`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireRecord {
    /// First result's raw payload bytes.
    pub payload: Option<Vec<u8>>,
    /// Virtual arrival time of the first result, µs.
    pub completed_at_us: Option<u64>,
    /// Partitions merged into the first result.
    pub partitions_merged: u64,
    /// Of which complete.
    pub partitions_complete: u64,
    /// Replica index that won the race.
    pub winning_replica: u32,
    /// Total results received.
    pub results_received: u64,
}

/// Every message of the control protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMsg {
    /// Opens a session; the first message on every connection.
    Hello {
        /// The peer's role.
        role: Role,
        /// [`PROTO_VERSION`] of the peer.
        proto: u16,
        /// [`edgelet_wire::FRAME_VERSION`] of the peer.
        frame_version: u8,
        /// [`edgelet_wire::ENVELOPE_VERSION`] of the peer.
        envelope_version: u8,
    },
    /// Accepts a session.
    Welcome {
        /// The worker's registry index (0 for clients).
        worker_index: u32,
    },
    /// Refuses a session or a request; the connection closes after.
    Reject {
        /// Human-readable reason.
        reason: String,
    },
    /// Liveness probe.
    Ping {
        /// Echoed back in the matching `Pong`.
        nonce: u64,
    },
    /// Liveness reply.
    Pong {
        /// The probe's nonce.
        nonce: u64,
    },
    /// Client query submission; `spec` is opaque to the socket layer.
    SubmitReq {
        /// Host-defined world-spec bytes.
        spec: Vec<u8>,
    },
    /// Submission outcome; `artifact` is opaque to the socket layer.
    SubmitResp {
        /// Host-defined result artifact bytes.
        artifact: Vec<u8>,
    },
    /// Build the world for one epoch.
    Prepare {
        /// The query epoch.
        epoch: u64,
        /// Host-defined world-spec bytes.
        spec: Vec<u8>,
        /// Total worker processes in this run.
        worker_count: u32,
        /// This worker's slice index for this epoch.
        worker_index: u32,
    },
    /// The world for `epoch` is built and idle at its first window.
    Ready {
        /// The query epoch.
        epoch: u64,
    },
    /// Execute one conservative window.
    OpenWindow {
        /// The query epoch.
        epoch: u64,
        /// Exclusive end of the window, µs.
        window_end_us: u64,
        /// Deadline clip (inclusive), µs.
        clip_us: u64,
        /// Remaining event budget.
        budget: u64,
    },
    /// Envelopes relayed to this worker's slice, staged before the next
    /// `OpenWindow`.
    Envelopes {
        /// The query epoch.
        epoch: u64,
        /// The relayed envelopes.
        batch: Vec<Envelope>,
    },
    /// One window's results.
    RoundDone {
        /// The query epoch.
        epoch: u64,
        /// The round output.
        round: WireRound,
    },
    /// The run is over; report final partials.
    Finish {
        /// The query epoch.
        epoch: u64,
    },
    /// The run is cancelled; report final partials anyway.
    Abort {
        /// The query epoch.
        epoch: u64,
    },
    /// Final per-worker partials: the ledger slice and, from the
    /// querier's owner, the outcome record.
    QueryDone {
        /// The query epoch.
        epoch: u64,
        /// Wire-encoded [`edgelet_exec::Ledger`] partial.
        ledger: Vec<u8>,
        /// The querier record, from its owning worker only.
        record: Option<WireRecord>,
    },
}

impl NetMsg {
    /// A `Hello` carrying this build's version triplet.
    pub fn hello(role: Role) -> NetMsg {
        NetMsg::Hello {
            role,
            proto: PROTO_VERSION,
            frame_version: edgelet_wire::FRAME_VERSION,
            envelope_version: edgelet_wire::ENVELOPE_VERSION,
        }
    }
}

// ---- codecs ----

impl Encode for Role {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(match self {
            Role::Worker => 0,
            Role::Client => 1,
        });
    }
}

impl Decode for Role {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.varint()? {
            0 => Ok(Role::Worker),
            1 => Ok(Role::Client),
            other => Err(Error::Decode(format!("invalid role {other}"))),
        }
    }
}

fn encode_deltas(w: &mut Writer, d: &Deltas) {
    debug_assert_eq!((d.deferred, d.disconnections, d.parked), (0, 0, 0));
    let (count, sum_us, min_us, max_us) = d.delay.raw_parts();
    for v in [
        d.sent,
        d.delivered,
        d.dropped,
        d.corrupted,
        d.to_crashed,
        d.bytes_sent,
        count,
        sum_us,
        min_us,
        max_us,
        d.crashes,
        d.events,
    ] {
        v.encode(w);
    }
    d.real_pending.encode(w);
    d.last_at.as_micros().encode(w);
}

fn decode_deltas(r: &mut Reader<'_>) -> Result<Deltas> {
    // Field expressions run in the order written: the wire order.
    Ok(Deltas {
        sent: u64::decode(r)?,
        delivered: u64::decode(r)?,
        dropped: u64::decode(r)?,
        corrupted: u64::decode(r)?,
        to_crashed: u64::decode(r)?,
        bytes_sent: u64::decode(r)?,
        delay: DelayStats::from_raw_parts(
            u64::decode(r)?,
            u64::decode(r)?,
            u64::decode(r)?,
            u64::decode(r)?,
        ),
        crashes: u64::decode(r)?,
        events: u64::decode(r)?,
        real_pending: i64::decode(r)?,
        last_at: SimTime::from_micros(u64::decode(r)?),
        ..Deltas::default()
    })
}

fn encode_jentry(w: &mut Writer, e: &JEntry) {
    e.at.as_micros().encode(w);
    e.origin.encode(w);
    e.seq.encode(w);
    e.intra.encode(w);
    match &e.item {
        JItem::Trace(ev) => {
            w.put_varint(0);
            ev.encode(w);
        }
        JItem::Observe(name, value) => {
            w.put_varint(1);
            name.encode(w);
            value.encode(w);
        }
    }
}

fn decode_jentry(r: &mut Reader<'_>) -> Result<JEntry> {
    Ok(JEntry {
        at: SimTime::from_micros(u64::decode(r)?),
        origin: u64::decode(r)?,
        seq: u64::decode(r)?,
        intra: u32::decode(r)?,
        item: match r.varint()? {
            0 => JItem::Trace(TraceEvent::decode(r)?),
            1 => JItem::Observe(intern_name(&String::decode(r)?)?, f64::decode(r)?),
            other => return Err(Error::Decode(format!("invalid journal item tag {other}"))),
        },
    })
}

impl Encode for WireRound {
    fn encode(&self, w: &mut Writer) {
        encode_deltas(w, &self.deltas);
        self.pending_min.encode(w);
        self.hit_budget.encode(w);
        w.put_varint(self.journal.len() as u64);
        for entry in &self.journal {
            encode_jentry(w, entry);
        }
        self.outgoing.encode(w);
    }
}

impl Decode for WireRound {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let deltas = decode_deltas(r)?;
        let pending_min = Option::<u64>::decode(r)?;
        let hit_budget = bool::decode(r)?;
        // Key, item tag: an entry is at least five bytes.
        let entries = r.seq_len_for(5)?;
        let mut journal = Vec::with_capacity(entries);
        for _ in 0..entries {
            journal.push(decode_jentry(r)?);
        }
        Ok(WireRound {
            deltas,
            pending_min,
            hit_budget,
            journal,
            outgoing: Vec::<Envelope>::decode(r)?,
        })
    }
}

impl Encode for WireRecord {
    fn encode(&self, w: &mut Writer) {
        self.payload.encode(w);
        self.completed_at_us.encode(w);
        self.partitions_merged.encode(w);
        self.partitions_complete.encode(w);
        self.winning_replica.encode(w);
        self.results_received.encode(w);
    }
}

impl Decode for WireRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(WireRecord {
            payload: Option::<Vec<u8>>::decode(r)?,
            completed_at_us: Option::<u64>::decode(r)?,
            partitions_merged: u64::decode(r)?,
            partitions_complete: u64::decode(r)?,
            winning_replica: u32::decode(r)?,
            results_received: u64::decode(r)?,
        })
    }
}

impl Encode for NetMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            NetMsg::Hello {
                role,
                proto,
                frame_version,
                envelope_version,
            } => {
                w.put_varint(1);
                role.encode(w);
                proto.encode(w);
                frame_version.encode(w);
                envelope_version.encode(w);
            }
            NetMsg::Welcome { worker_index } => {
                w.put_varint(2);
                worker_index.encode(w);
            }
            NetMsg::Reject { reason } => {
                w.put_varint(3);
                reason.encode(w);
            }
            NetMsg::Ping { nonce } => {
                w.put_varint(4);
                nonce.encode(w);
            }
            NetMsg::Pong { nonce } => {
                w.put_varint(5);
                nonce.encode(w);
            }
            NetMsg::SubmitReq { spec } => {
                w.put_varint(6);
                spec.encode(w);
            }
            NetMsg::SubmitResp { artifact } => {
                w.put_varint(7);
                artifact.encode(w);
            }
            NetMsg::Prepare {
                epoch,
                spec,
                worker_count,
                worker_index,
            } => {
                w.put_varint(8);
                epoch.encode(w);
                spec.encode(w);
                worker_count.encode(w);
                worker_index.encode(w);
            }
            NetMsg::Ready { epoch } => {
                w.put_varint(9);
                epoch.encode(w);
            }
            NetMsg::OpenWindow {
                epoch,
                window_end_us,
                clip_us,
                budget,
            } => {
                w.put_varint(10);
                epoch.encode(w);
                window_end_us.encode(w);
                clip_us.encode(w);
                budget.encode(w);
            }
            NetMsg::Envelopes { epoch, batch } => {
                w.put_varint(11);
                epoch.encode(w);
                batch.encode(w);
            }
            NetMsg::RoundDone { epoch, round } => {
                w.put_varint(12);
                epoch.encode(w);
                round.encode(w);
            }
            NetMsg::Finish { epoch } => {
                w.put_varint(13);
                epoch.encode(w);
            }
            NetMsg::Abort { epoch } => {
                w.put_varint(14);
                epoch.encode(w);
            }
            NetMsg::QueryDone {
                epoch,
                ledger,
                record,
            } => {
                w.put_varint(15);
                epoch.encode(w);
                ledger.encode(w);
                record.encode(w);
            }
        }
    }
}

impl Decode for NetMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.varint()? {
            1 => NetMsg::Hello {
                role: Role::decode(r)?,
                proto: u16::decode(r)?,
                frame_version: u8::decode(r)?,
                envelope_version: u8::decode(r)?,
            },
            2 => NetMsg::Welcome {
                worker_index: u32::decode(r)?,
            },
            3 => NetMsg::Reject {
                reason: String::decode(r)?,
            },
            4 => NetMsg::Ping {
                nonce: u64::decode(r)?,
            },
            5 => NetMsg::Pong {
                nonce: u64::decode(r)?,
            },
            6 => NetMsg::SubmitReq {
                spec: Vec::<u8>::decode(r)?,
            },
            7 => NetMsg::SubmitResp {
                artifact: Vec::<u8>::decode(r)?,
            },
            8 => NetMsg::Prepare {
                epoch: u64::decode(r)?,
                spec: Vec::<u8>::decode(r)?,
                worker_count: u32::decode(r)?,
                worker_index: u32::decode(r)?,
            },
            9 => NetMsg::Ready {
                epoch: u64::decode(r)?,
            },
            10 => NetMsg::OpenWindow {
                epoch: u64::decode(r)?,
                window_end_us: u64::decode(r)?,
                clip_us: u64::decode(r)?,
                budget: u64::decode(r)?,
            },
            11 => NetMsg::Envelopes {
                epoch: u64::decode(r)?,
                batch: Vec::<Envelope>::decode(r)?,
            },
            12 => NetMsg::RoundDone {
                epoch: u64::decode(r)?,
                round: WireRound::decode(r)?,
            },
            13 => NetMsg::Finish {
                epoch: u64::decode(r)?,
            },
            14 => NetMsg::Abort {
                epoch: u64::decode(r)?,
            },
            15 => NetMsg::QueryDone {
                epoch: u64::decode(r)?,
                ledger: Vec::<u8>::decode(r)?,
                record: Option::<WireRecord>::decode(r)?,
            },
            other => return Err(Error::Decode(format!("invalid net message tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgelet_sim::{CrashCause, FaultKind};
    use edgelet_util::ids::DeviceId;
    use edgelet_util::Payload;
    use edgelet_wire::{from_bytes, to_bytes};

    fn env(seq: u64) -> Envelope {
        Envelope {
            epoch: 7,
            from: DeviceId::new(1),
            to: DeviceId::new(2),
            seq,
            sent_at_us: 1_000,
            deliver_at_us: 2_000,
            payload: Payload::from(vec![9u8, 8, 7]),
        }
    }

    const GOLDEN_ROUND_DONE: &[u8] = &[
        12, 11, 4, 3, 0, 0, 0, 172, 2, 3, 148, 35, 232, 7, 208, 15, 0, 7, 3, 176, 34, 1, 240, 46,
        0, 2, 208, 15, 1, 0, 0, 0, 1, 1, 2, 208, 15, 1, 0, 1, 1, 14, 107, 109, 101, 97, 110, 115,
        47, 105, 110, 101, 114, 116, 105, 97, 0, 0, 0, 0, 0, 0, 224, 63, 1, 1, 7, 1, 2, 2, 232, 7,
        208, 15, 3, 9, 8, 7,
    ];

    fn journal_entry(intra: u32, item: JItem) -> JEntry {
        JEntry {
            at: SimTime::from_micros(2_000),
            origin: 1,
            seq: 0,
            intra,
            item,
        }
    }

    /// The message [`GOLDEN_ROUND_DONE`] encodes.
    fn sample_round_done() -> NetMsg {
        NetMsg::RoundDone {
            epoch: 11,
            round: WireRound {
                deltas: Deltas {
                    sent: 4,
                    delivered: 3,
                    bytes_sent: 300,
                    delay: DelayStats::from_raw_parts(3, 4_500, 1_000, 2_000),
                    events: 7,
                    real_pending: -2,
                    last_at: SimTime::from_micros(4_400),
                    ..Deltas::default()
                },
                pending_min: Some(6_000),
                hit_budget: false,
                journal: vec![
                    journal_entry(
                        0,
                        JItem::Trace(TraceEvent::Delivered {
                            from: DeviceId::new(1),
                            to: DeviceId::new(2),
                        }),
                    ),
                    journal_entry(1, JItem::Observe("kmeans/inertia", 0.5)),
                ],
                outgoing: vec![env(2)],
            },
        }
    }

    fn round_of(journal: Vec<JEntry>) -> NetMsg {
        NetMsg::RoundDone {
            epoch: 11,
            round: WireRound {
                deltas: Deltas::default(),
                pending_min: None,
                hit_budget: false,
                journal,
                outgoing: Vec::new(),
            },
        }
    }

    #[test]
    fn all_messages_roundtrip() {
        let msgs = vec![
            NetMsg::hello(Role::Worker),
            NetMsg::hello(Role::Client),
            NetMsg::Welcome { worker_index: 3 },
            NetMsg::Reject {
                reason: "frame version mismatch".into(),
            },
            NetMsg::Ping { nonce: 99 },
            NetMsg::Pong { nonce: 99 },
            NetMsg::SubmitReq {
                spec: vec![1, 2, 3],
            },
            NetMsg::SubmitResp {
                artifact: vec![4, 5],
            },
            NetMsg::Prepare {
                epoch: 11,
                spec: vec![1],
                worker_count: 2,
                worker_index: 1,
            },
            NetMsg::Ready { epoch: 11 },
            NetMsg::OpenWindow {
                epoch: 11,
                window_end_us: 5_000,
                clip_us: u64::MAX >> 1,
                budget: 1_000_000,
            },
            NetMsg::Envelopes {
                epoch: 11,
                batch: vec![env(0), env(1)],
            },
            sample_round_done(),
            NetMsg::Finish { epoch: 11 },
            NetMsg::Abort { epoch: 11 },
            NetMsg::QueryDone {
                epoch: 11,
                ledger: vec![0, 1, 2],
                record: Some(WireRecord {
                    payload: Some(vec![42]),
                    completed_at_us: Some(9_000_000),
                    partitions_merged: 4,
                    partitions_complete: 4,
                    winning_replica: 1,
                    results_received: 2,
                }),
            },
        ];
        for m in msgs {
            let bytes = to_bytes(&m);
            let back: NetMsg = from_bytes(&bytes).unwrap();
            assert_eq!(back, m, "roundtrip mismatch");
        }
    }

    #[test]
    fn every_trace_event_variant_roundtrips() {
        let d = DeviceId::new(5);
        let events = vec![
            TraceEvent::Sent {
                from: d,
                to: DeviceId::new(6),
                bytes: 123,
            },
            TraceEvent::Delivered {
                from: d,
                to: DeviceId::new(6),
            },
            TraceEvent::Dropped {
                from: d,
                to: DeviceId::new(6),
            },
            TraceEvent::WentDown(d),
            TraceEvent::CameUp(d),
            TraceEvent::Crashed {
                device: d,
                cause: CrashCause::Organic,
            },
            TraceEvent::Crashed {
                device: d,
                cause: CrashCause::Injected { rule: 3 },
            },
            TraceEvent::TimerFired {
                device: d,
                token: 17,
            },
            TraceEvent::FaultInjected {
                rule: 2,
                kind: FaultKind::Duplicate,
                from: d,
                to: DeviceId::new(6),
            },
            TraceEvent::MsgKind {
                from: d,
                to: DeviceId::new(6),
                kind: 9,
            },
        ];
        let journal = events
            .into_iter()
            .zip(0..)
            .map(|(ev, intra)| journal_entry(intra, JItem::Trace(ev)))
            .collect();
        let msg = round_of(journal);
        let back: NetMsg = from_bytes(&to_bytes(&msg)).unwrap();
        assert_eq!(back, msg);
    }

    /// The `RoundDone` layout has not moved since `PROTO_VERSION` 1: these
    /// bytes were produced by the build that still had separate wire
    /// structs, and by the one that still encoded trace events here.
    #[test]
    fn round_done_bytes_are_unchanged() {
        assert_eq!(to_bytes(&sample_round_done()), GOLDEN_ROUND_DONE);
    }

    /// `Hello` and `Prepare` at `PROTO_VERSION` 2. A version 1 `Prepare`
    /// carried one more byte (the relay's fault mode); this build refuses
    /// it with a typed error instead of reading the world without it.
    #[test]
    fn hello_and_prepare_bytes_are_pinned() {
        assert_eq!(PROTO_VERSION, 2);
        assert_eq!(to_bytes(&NetMsg::hello(Role::Worker)), [1, 0, 2, 1, 1]);
        assert_eq!(to_bytes(&NetMsg::hello(Role::Client)), [1, 1, 2, 1, 1]);
        let prepare = NetMsg::Prepare {
            epoch: 11,
            spec: b"ws".to_vec(),
            worker_count: 2,
            worker_index: 1,
        };
        let golden = [8, 11, 2, b'w', b's', 2, 1];
        assert_eq!(to_bytes(&prepare), golden);
        assert_eq!(from_bytes::<NetMsg>(&golden).unwrap(), prepare);
        let v1 = [&golden[..], &[1]].concat();
        assert!(matches!(from_bytes::<NetMsg>(&v1), Err(Error::Decode(_))));
    }

    #[test]
    fn intern_name_is_stable() {
        let a = intern_name("net/test-observation").unwrap();
        let b = intern_name("net/test-observation").unwrap();
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn unknown_tags_fail_cleanly() {
        let bytes = to_bytes(&200u64);
        assert!(from_bytes::<NetMsg>(&bytes).is_err());
        // A journal item with an unknown tag inside a well-formed round.
        let mut round = to_bytes(&round_of(vec![journal_entry(0, JItem::Observe("x", 0.0))]));
        // From the end: empty `outgoing` (1), the f64 (8), "x" (1 + 1).
        let tag = round.len() - 12;
        assert_eq!(round[tag], 1, "the Observe tag");
        round[tag] = 9;
        assert!(from_bytes::<NetMsg>(&round).is_err());
    }
}
