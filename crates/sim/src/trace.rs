//! Optional event tracing: the textual equivalent of the demo GUI's
//! step-by-step execution view.
//!
//! When enabled (see [`crate::SimConfig::trace_capacity`]), the engine
//! records one [`TraceEvent`] per interesting transition into a bounded
//! ring buffer; the harness can then reconstruct the phases of an
//! execution ("collection started", "partition 3 shipped", "device 17
//! crashed") or assert fine-grained protocol properties in tests.

use crate::fault::{CrashCause, FaultKind};
use crate::time::SimTime;
use edgelet_util::ids::DeviceId;
use edgelet_util::{Error, Result};
use edgelet_wire::{Decode, Encode, Reader, Writer};
use std::collections::VecDeque;

/// One recorded simulation event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message left `from` toward `to` (after the network fate roll).
    Sent {
        /// Sender.
        from: DeviceId,
        /// Receiver.
        to: DeviceId,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A message was handed to the receiving actor.
    Delivered {
        /// Sender.
        from: DeviceId,
        /// Receiver.
        to: DeviceId,
    },
    /// A message was lost in transit.
    Dropped {
        /// Sender.
        from: DeviceId,
        /// Intended receiver.
        to: DeviceId,
    },
    /// A device disconnected.
    WentDown(DeviceId),
    /// A device reconnected.
    CameUp(DeviceId),
    /// A device crash-stopped.
    Crashed {
        /// The device that crashed.
        device: DeviceId,
        /// Why: organic churn or an injected fault rule. Organic
        /// crashes digest byte-identically to the pre-cause format, so
        /// existing pinned digests stay stable.
        cause: CrashCause,
    },
    /// A timer callback ran on a device.
    TimerFired {
        /// The device whose timer fired.
        device: DeviceId,
        /// The raw timer token.
        token: u64,
    },
    /// A fault rule fired on a message.
    FaultInjected {
        /// Index of the firing rule in the installed fault plan.
        rule: u32,
        /// The action that was taken.
        kind: FaultKind,
        /// Sender of the affected message.
        from: DeviceId,
        /// Receiver of the affected message.
        to: DeviceId,
    },
    /// Protocol kind of a routed message, as reported by the installed
    /// classifier. Only recorded when a classifier is present, so
    /// organic (classifier-less) traces are unchanged.
    MsgKind {
        /// Sender.
        from: DeviceId,
        /// Receiver.
        to: DeviceId,
        /// Decoded protocol message kind.
        kind: u16,
    },
}

impl TraceEvent {
    /// A crash-stop caused by the organic churn model (scheduled
    /// [`crate::CrashPlan`] or explicit `crash_at`).
    pub fn organic_crash(device: DeviceId) -> Self {
        TraceEvent::Crashed {
            device,
            cause: CrashCause::Organic,
        }
    }
}

/// The wire image a socket worker ships its trace events in (inside the
/// `RoundDone` journal): the digest's tag per variant, then its fields
/// as varints.
impl Encode for TraceEvent {
    fn encode(&self, w: &mut Writer) {
        match self {
            TraceEvent::Sent { from, to, bytes } => {
                w.put_varint(0);
                from.encode(w);
                to.encode(w);
                bytes.encode(w);
            }
            TraceEvent::Delivered { from, to } => {
                w.put_varint(1);
                from.encode(w);
                to.encode(w);
            }
            TraceEvent::Dropped { from, to } => {
                w.put_varint(2);
                from.encode(w);
                to.encode(w);
            }
            TraceEvent::WentDown(d) => {
                w.put_varint(3);
                d.encode(w);
            }
            TraceEvent::CameUp(d) => {
                w.put_varint(4);
                d.encode(w);
            }
            TraceEvent::Crashed { device, cause } => {
                w.put_varint(5);
                device.encode(w);
                match cause {
                    CrashCause::Organic => w.put_varint(0),
                    CrashCause::Injected { rule } => {
                        w.put_varint(1);
                        rule.encode(w);
                    }
                }
            }
            TraceEvent::TimerFired { device, token } => {
                w.put_varint(6);
                device.encode(w);
                token.encode(w);
            }
            TraceEvent::FaultInjected {
                rule,
                kind,
                from,
                to,
            } => {
                w.put_varint(7);
                rule.encode(w);
                w.put_varint(u64::from(kind.code()));
                from.encode(w);
                to.encode(w);
            }
            TraceEvent::MsgKind { from, to, kind } => {
                w.put_varint(8);
                from.encode(w);
                to.encode(w);
                kind.encode(w);
            }
        }
    }
}

impl Decode for TraceEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.varint()? {
            0 => TraceEvent::Sent {
                from: DeviceId::decode(r)?,
                to: DeviceId::decode(r)?,
                bytes: usize::decode(r)?,
            },
            1 => TraceEvent::Delivered {
                from: DeviceId::decode(r)?,
                to: DeviceId::decode(r)?,
            },
            2 => TraceEvent::Dropped {
                from: DeviceId::decode(r)?,
                to: DeviceId::decode(r)?,
            },
            3 => TraceEvent::WentDown(DeviceId::decode(r)?),
            4 => TraceEvent::CameUp(DeviceId::decode(r)?),
            5 => TraceEvent::Crashed {
                device: DeviceId::decode(r)?,
                cause: match r.varint()? {
                    0 => CrashCause::Organic,
                    1 => CrashCause::Injected {
                        rule: u32::decode(r)?,
                    },
                    other => return Err(Error::Decode(format!("invalid crash cause {other}"))),
                },
            },
            6 => TraceEvent::TimerFired {
                device: DeviceId::decode(r)?,
                token: u64::decode(r)?,
            },
            7 => TraceEvent::FaultInjected {
                rule: u32::decode(r)?,
                kind: match r.varint()? {
                    0 => FaultKind::Drop,
                    1 => FaultKind::Delay,
                    2 => FaultKind::Duplicate,
                    3 => FaultKind::Reorder,
                    4 => FaultKind::CrashSender,
                    5 => FaultKind::CrashReceiver,
                    other => return Err(Error::Decode(format!("invalid fault kind {other}"))),
                },
                from: DeviceId::decode(r)?,
                to: DeviceId::decode(r)?,
            },
            8 => TraceEvent::MsgKind {
                from: DeviceId::decode(r)?,
                to: DeviceId::decode(r)?,
                kind: u16::decode(r)?,
            },
            other => return Err(Error::Decode(format!("invalid trace event tag {other}"))),
        })
    }
}

/// A timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

/// Bounded ring buffer of trace records.
#[derive(Debug, Default)]
pub struct Trace {
    capacity: usize,
    records: VecDeque<TraceRecord>,
    total_recorded: u64,
}

impl Trace {
    /// Creates a trace keeping at most `capacity` records (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            records: VecDeque::with_capacity(capacity.min(4_096)),
            total_recorded: 0,
        }
    }

    /// Whether recording is enabled.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one event (drops the oldest past capacity).
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(TraceRecord { at, event });
        self.total_recorded += 1;
    }

    /// Records the event produced by `make` — but only when tracing is
    /// enabled. With `trace_capacity: 0` the closure never runs, so hot
    /// paths pay a single branch and construct nothing.
    #[inline]
    pub fn record_with(&mut self, at: SimTime, make: impl FnOnce() -> TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        self.record(at, make());
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Total events recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Order-sensitive digest (FNV-1a, 64-bit) over every retained
    /// record. Two runs with identical traces produce identical digests
    /// on any platform, so tests can pin "same seed → same trace" as a
    /// single integer instead of diffing record lists.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        for r in &self.records {
            mix(r.at.as_micros());
            match r.event {
                TraceEvent::Crashed { device, cause } => {
                    mix(5);
                    mix(device.raw());
                    // Organic crashes mix nothing further: byte-for-byte
                    // the pre-cause encoding, keeping old digests valid.
                    if let CrashCause::Injected { rule } = cause {
                        mix(0xFA);
                        mix(u64::from(rule));
                    }
                }
                TraceEvent::TimerFired { device, token } => {
                    mix(6);
                    mix(device.raw());
                    mix(token);
                }
                TraceEvent::FaultInjected {
                    rule,
                    kind,
                    from,
                    to,
                } => {
                    mix(7);
                    mix(u64::from(rule));
                    mix(u64::from(kind.code()));
                    mix(from.raw());
                    mix(to.raw());
                }
                TraceEvent::MsgKind { from, to, kind } => {
                    mix(8);
                    mix(from.raw());
                    mix(to.raw());
                    mix(u64::from(kind));
                }
                TraceEvent::Sent { from, to, bytes } => {
                    mix(0);
                    mix(from.raw());
                    mix(to.raw());
                    mix(bytes as u64);
                }
                TraceEvent::Delivered { from, to } => {
                    mix(1);
                    mix(from.raw());
                    mix(to.raw());
                }
                TraceEvent::Dropped { from, to } => {
                    mix(2);
                    mix(from.raw());
                    mix(to.raw());
                }
                TraceEvent::WentDown(d) => {
                    mix(3);
                    mix(d.raw());
                }
                TraceEvent::CameUp(d) => {
                    mix(4);
                    mix(d.raw());
                }
            }
        }
        h
    }

    /// Records involving one device.
    pub fn for_device(&self, device: DeviceId) -> Vec<&TraceRecord> {
        self.records
            .iter()
            .filter(|r| match r.event {
                TraceEvent::Sent { from, to, .. }
                | TraceEvent::Delivered { from, to }
                | TraceEvent::Dropped { from, to }
                | TraceEvent::FaultInjected { from, to, .. }
                | TraceEvent::MsgKind { from, to, .. } => from == device || to == device,
                TraceEvent::WentDown(d) | TraceEvent::CameUp(d) => d == device,
                TraceEvent::Crashed { device: d, .. }
                | TraceEvent::TimerFired { device: d, .. } => d == device,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(0);
        assert!(!t.enabled());
        t.record(SimTime::ZERO, TraceEvent::organic_crash(DeviceId::new(1)));
        assert_eq!(t.total_recorded(), 0);
        assert_eq!(t.records().count(), 0);
    }

    #[test]
    fn record_with_skips_construction_when_disabled() {
        let mut disabled = Trace::new(0);
        disabled.record_with(SimTime::ZERO, || {
            panic!("event must not be constructed with tracing off")
        });
        assert_eq!(disabled.total_recorded(), 0);

        let mut enabled = Trace::new(2);
        enabled.record_with(SimTime::ZERO, || {
            TraceEvent::organic_crash(DeviceId::new(1))
        });
        assert_eq!(enabled.total_recorded(), 1);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = Trace::new(3);
        for i in 0..5u64 {
            t.record(
                SimTime::from_micros(i),
                TraceEvent::WentDown(DeviceId::new(i)),
            );
        }
        assert_eq!(t.total_recorded(), 5);
        let kept: Vec<u64> = t
            .records()
            .map(|r| match r.event {
                TraceEvent::WentDown(d) => d.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let sent = |from: u64, to: u64, bytes: usize| TraceEvent::Sent {
            from: DeviceId::new(from),
            to: DeviceId::new(to),
            bytes,
        };
        let build = |events: &[(u64, TraceEvent)]| {
            let mut t = Trace::new(16);
            for (us, e) in events {
                t.record(SimTime::from_micros(*us), e.clone());
            }
            t.digest()
        };
        let a = build(&[(1, sent(1, 2, 64)), (2, sent(2, 1, 64))]);
        assert_eq!(
            a,
            build(&[(1, sent(1, 2, 64)), (2, sent(2, 1, 64))]),
            "identical traces digest identically"
        );
        assert_ne!(a, build(&[(2, sent(2, 1, 64)), (1, sent(1, 2, 64))]));
        assert_ne!(a, build(&[(1, sent(1, 2, 65)), (2, sent(2, 1, 64))]));
        assert_ne!(
            build(&[(
                1,
                TraceEvent::Delivered {
                    from: DeviceId::new(7),
                    to: DeviceId::new(8),
                }
            )]),
            build(&[(
                1,
                TraceEvent::Dropped {
                    from: DeviceId::new(7),
                    to: DeviceId::new(8),
                }
            )]),
            "event kind is part of the digest"
        );
        assert_eq!(Trace::new(0).digest(), Trace::new(8).digest());
    }

    /// Reference FNV-1a over little-endian u64 words, mirroring the
    /// *pre-cause* trace encoding. Pins that the new variants did not
    /// perturb the digest of existing events.
    fn fnv_words(words: &[u64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn organic_crash_digest_matches_legacy_encoding() {
        let mut t = Trace::new(8);
        t.record(
            SimTime::from_micros(42),
            TraceEvent::organic_crash(DeviceId::new(9)),
        );
        // Legacy bytes: at, tag 5, device — nothing else.
        assert_eq!(t.digest(), fnv_words(&[42, 5, 9]));
    }

    #[test]
    fn legacy_event_digests_are_stable() {
        let mut t = Trace::new(8);
        t.record(
            SimTime::from_micros(1),
            TraceEvent::Sent {
                from: DeviceId::new(2),
                to: DeviceId::new(3),
                bytes: 64,
            },
        );
        t.record(
            SimTime::from_micros(2),
            TraceEvent::WentDown(DeviceId::new(4)),
        );
        assert_eq!(t.digest(), fnv_words(&[1, 0, 2, 3, 64, 2, 3, 4]));
    }

    #[test]
    fn new_events_digest_distinctly() {
        let one = |e: TraceEvent| {
            let mut t = Trace::new(4);
            t.record(SimTime::from_micros(7), e);
            t.digest()
        };
        let injected_crash = one(TraceEvent::Crashed {
            device: DeviceId::new(9),
            cause: CrashCause::Injected { rule: 0 },
        });
        assert_ne!(
            injected_crash,
            one(TraceEvent::organic_crash(DeviceId::new(9)))
        );
        let timer = one(TraceEvent::TimerFired {
            device: DeviceId::new(9),
            token: 1,
        });
        let fault = one(TraceEvent::FaultInjected {
            rule: 0,
            kind: FaultKind::Drop,
            from: DeviceId::new(9),
            to: DeviceId::new(1),
        });
        let kind = one(TraceEvent::MsgKind {
            from: DeviceId::new(9),
            to: DeviceId::new(1),
            kind: 4,
        });
        assert_ne!(timer, fault);
        assert_ne!(timer, kind);
        assert_ne!(fault, kind);
    }

    #[test]
    fn device_filter() {
        let mut t = Trace::new(10);
        t.record(
            SimTime::ZERO,
            TraceEvent::Sent {
                from: DeviceId::new(1),
                to: DeviceId::new(2),
                bytes: 10,
            },
        );
        t.record(SimTime::ZERO, TraceEvent::organic_crash(DeviceId::new(3)));
        t.record(
            SimTime::ZERO,
            TraceEvent::Delivered {
                from: DeviceId::new(1),
                to: DeviceId::new(2),
            },
        );
        assert_eq!(t.for_device(DeviceId::new(2)).len(), 2);
        assert_eq!(t.for_device(DeviceId::new(3)).len(), 1);
        assert_eq!(t.for_device(DeviceId::new(9)).len(), 0);
    }
}
