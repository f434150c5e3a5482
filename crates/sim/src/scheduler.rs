//! Event representation and the keyed event queue.
//!
//! * Every [`Event`] carries an **intrinsic key** `(at, origin, seq)`
//!   where `origin` is the device that spawned it and `seq` is that
//!   device's private spawn counter. The key is a pure function of the
//!   spawning device's history, so it is identical for every shard count
//!   — the foundation of the sharded engine's bit-exact determinism.
//! * The [`EventQueue`] pops events in key order for the windowed
//!   executor and the sequential fallback alike: a binary heap of small
//!   keys over a slab of event bodies, with calendar cells (cell width =
//!   the engine's lookahead) only as overflow for populations too large
//!   to sift.

use crate::actor::TimerToken;
use crate::fault::CrashCause;
use crate::time::SimTime;
use edgelet_util::ids::DeviceId;
use edgelet_util::Payload;
use edgelet_wire::Envelope;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// What a scheduled event does when it pops.
#[derive(Debug)]
pub enum EventKind {
    /// Run the actor's `on_start` on the device.
    Start(DeviceId),
    /// Hand a message to the receiving device.
    Deliver {
        /// Receiver.
        to: DeviceId,
        /// Sender.
        from: DeviceId,
        /// Message bytes.
        payload: Payload,
        /// When the sender submitted it (for delay accounting).
        sent_at: SimTime,
    },
    /// Fire a timer on the device.
    Timer {
        /// Owning device.
        device: DeviceId,
        /// Token returned by `set_timer`.
        token: TimerToken,
    },
    /// Flip the device's availability (up <-> down).
    ChurnToggle(DeviceId),
    /// Crash-stop the device.
    Crash(DeviceId, CrashCause),
}

impl EventKind {
    /// The device this event executes on; its shard owns the event.
    pub fn target(&self) -> DeviceId {
        match *self {
            EventKind::Start(d) => d,
            EventKind::Deliver { to, .. } => to,
            EventKind::Timer { device, .. } => device,
            EventKind::ChurnToggle(d) => d,
            EventKind::Crash(d, _) => d,
        }
    }

    /// Churn toggles don't count toward quiescence: on their own they
    /// cannot create protocol work.
    pub fn is_churn(&self) -> bool {
        matches!(self, EventKind::ChurnToggle(_))
    }
}

/// A scheduled event with its globally unique, shard-independent key.
#[derive(Debug)]
pub struct Event {
    /// Virtual time at which the event executes.
    pub at: SimTime,
    /// Raw id of the device whose processing spawned this event.
    pub origin: u64,
    /// The origin device's private spawn counter at spawn time.
    pub seq: u64,
    /// What happens when the event pops.
    pub kind: EventKind,
}

impl Event {
    /// Canonical total order: `(time, origin, seq)`. `(origin, seq)` is
    /// unique per event, so ties cannot occur and the order is the same
    /// under any shard layout.
    pub fn key(&self) -> (SimTime, u64, u64) {
        (self.at, self.origin, self.seq)
    }

    /// The transport form of a `Deliver` event leaving its slice, stamped
    /// with the host's `epoch`; `None` for every other kind (they never
    /// leave the slice that spawned them). Together with
    /// [`Event::from`] this is the one bridge between the executor and a
    /// message fabric, and it is lossless: the envelope carries the whole
    /// intrinsic key `(deliver_at, from, seq)`, so a delivery that
    /// crossed a transport schedules exactly where a local one would.
    pub fn into_envelope(self, epoch: u64) -> Option<Envelope> {
        let EventKind::Deliver {
            to,
            from,
            payload,
            sent_at,
        } = self.kind
        else {
            return None;
        };
        debug_assert_eq!(
            self.origin,
            from.raw(),
            "deliveries leave under the sender's key"
        );
        Some(Envelope {
            epoch,
            from,
            to,
            seq: self.seq,
            sent_at_us: sent_at.as_micros(),
            deliver_at_us: self.at.as_micros(),
            payload,
        })
    }
}

impl From<Envelope> for Event {
    /// The inverse of [`Event::into_envelope`] (the epoch is the
    /// fabric's concern and is dropped).
    fn from(e: Envelope) -> Event {
        Event {
            at: SimTime::from_micros(e.deliver_at_us),
            origin: e.from.raw(),
            seq: e.seq,
            kind: EventKind::Deliver {
                to: e.to,
                from: e.from,
                payload: e.payload,
                sent_at: SimTime::from_micros(e.sent_at_us),
            },
        }
    }
}

/// A heap entry: the event's intrinsic key and where its [`EventKind`]
/// waits in the slab. Ordered by the key alone (`(origin, seq)` is
/// unique, so `slot` never decides).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    origin: u64,
    seq: u64,
    slot: usize,
}

/// Pending events the heap takes before far-future pushes overflow into
/// their calendar cells. It sits between two measurements: the
/// benchmark's polling world peaks at 8 4xx pending events (every
/// device's first toggle, its actor's start and the crash draws, all
/// queued before the first window) and is fastest when none of them
/// touches the `BTreeMap` (`sim_polling_churn` +30 % `queries_per_s`
/// over the cell-per-event queue); `bench_report --suite
/// sim/scale/100k_devices_churn` keeps 125 000 pending (31 000 a slice
/// at `shards` 4) and reads +27 % wall time when all of them are sifted
/// through one heap (docs/PERF.md "A window that touches three events").
const HEAP_MAX: usize = 16 * 1024;

/// The event queue of one slice: a binary min-heap of 32-byte [`Key`]s
/// over a slab of [`EventKind`]s (an 80-byte [`Event`] is never sifted),
/// with fixed-width calendar cells kept only as *overflow*.
///
/// A push goes to the heap when its cell has already been opened, or
/// while the heap is small and nothing has overflowed; otherwise to its
/// cell, whole (an `O(1)` append). [`EventQueue::peek_min_key`] and
/// [`EventQueue::pop_min`] first promote every cell not later than the
/// heap's minimum, so the heap's top is always the queue's. A sparse
/// world therefore never touches the `BTreeMap`; a dense one keeps far
/// pushes out of the heap, streams them through their cells, and sifts
/// only the events of the windows at hand.
#[derive(Debug)]
pub(crate) struct EventQueue {
    width_us: u64,
    heap: BinaryHeap<Reverse<Key>>,
    /// Bodies of the heap's events, indexed by [`Key::slot`]; `free`
    /// lists the vacant slots (last freed first, so a busy slab stays
    /// as small as the heap it serves).
    slab: Vec<Option<EventKind>>,
    free: Vec<usize>,
    /// Cell index (`at_us / width_us`) -> events too far ahead for the
    /// heap, unsorted. Vecs in the map are never empty.
    overflow: BTreeMap<u64, Vec<Event>>,
    /// Highest cell promoted so far: pushes at or below it skip the map.
    opened: u64,
    /// [`HEAP_MAX`]; a field so the unit tests reach the seam with a
    /// handful of events.
    heap_max: usize,
}

impl EventQueue {
    /// Creates a queue with the given cell width (clamped to >= 1 µs).
    pub fn new(width_us: u64) -> Self {
        EventQueue {
            width_us: width_us.max(1),
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            overflow: BTreeMap::new(),
            opened: 0,
            heap_max: HEAP_MAX,
        }
    }

    /// Makes room for `events` more pending events.
    pub fn reserve(&mut self, events: usize) {
        let events = events.min(self.heap_max);
        self.slab.reserve(events);
        self.heap.reserve(events);
    }

    /// Drops every pending event, keeping the heap's and the slab's
    /// capacity: the queue [`EventQueue::new`] gives, without allocating.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
        self.overflow.clear();
        self.opened = 0;
    }

    /// Number of pending events.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len() + self.overflow.values().map(Vec::len).sum::<usize>()
    }

    /// Schedules an event.
    pub fn push(&mut self, ev: Event) {
        let cell = ev.at.as_micros() / self.width_us;
        if cell <= self.opened || (self.overflow.is_empty() && self.heap.len() < self.heap_max) {
            self.push_heap(ev);
        } else {
            self.overflow.entry(cell).or_default().push(ev);
        }
    }

    fn push_heap(&mut self, ev: Event) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(ev.kind);
                slot
            }
            None => {
                self.slab.push(Some(ev.kind));
                self.slab.len() - 1
            }
        };
        self.heap.push(Reverse(Key {
            at: ev.at,
            origin: ev.origin,
            seq: ev.seq,
            slot,
        }));
    }

    /// Moves every overflow cell not later than the heap's minimum into
    /// the heap (the earliest cell, when the heap is empty).
    fn promote(&mut self) {
        while let Some(cell) = self.overflow.first_entry() {
            let top = self.heap.peek().map(|Reverse(k)| k.at.as_micros());
            if top.is_some_and(|at_us| at_us / self.width_us < *cell.key()) {
                break;
            }
            self.opened = *cell.key();
            for ev in cell.remove() {
                self.push_heap(ev);
            }
        }
    }

    /// Key of the earliest pending event, if any.
    pub fn peek_min_key(&mut self) -> Option<(SimTime, u64, u64)> {
        self.promote();
        self.heap.peek().map(|Reverse(k)| (k.at, k.origin, k.seq))
    }

    /// Removes and returns the earliest pending event.
    pub fn pop_min(&mut self) -> Option<Event> {
        self.promote();
        let Reverse(key) = self.heap.pop()?;
        let kind = self.slab[key.slot].take();
        debug_assert!(kind.is_some(), "a queued key owns its slot");
        self.free.push(key.slot);
        Some(Event {
            at: key.at,
            origin: key.origin,
            seq: key.seq,
            kind: kind?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(at_us: u64, origin: u64, seq: u64) -> Event {
        Event {
            at: SimTime::from_micros(at_us),
            origin,
            seq,
            kind: EventKind::ChurnToggle(DeviceId::new(origin)),
        }
    }

    /// The property the transport bridge rests on: an envelope re-enters
    /// the executor under exactly the key it left with, whatever epoch
    /// the fabric stamped on it, and survives its wire form on the way.
    #[test]
    fn deliveries_cross_a_transport_with_their_key_intact() {
        let env = Envelope {
            epoch: 9,
            from: DeviceId::new(4),
            to: DeviceId::new(7),
            seq: 41,
            sent_at_us: 1_000,
            deliver_at_us: 21_000,
            payload: Payload::from(b"over-the-wire".as_ref()),
        };
        let wire = Envelope::from_wire(&env.to_wire()).map(Event::from);
        let delivery = wire.expect("a well-formed envelope");
        assert_eq!(delivery.key(), (SimTime::from_micros(21_000), 4, 41));
        assert_eq!(delivery.kind.target(), DeviceId::new(7));
        assert_eq!(delivery.into_envelope(9), Some(env));
        // Nothing but a delivery ever leaves its slice.
        assert_eq!(ev(5, 0, 0).into_envelope(9), None);
    }

    type K = (SimTime, u64, u64);

    fn key(at_us: u64, origin: u64, seq: u64) -> K {
        (SimTime::from_micros(at_us), origin, seq)
    }

    /// A queue whose heap overflows at `heap_max` pending events, so a
    /// handful of events reaches the seams a real run meets at 16 Ki.
    fn small(width_us: u64, heap_max: usize) -> EventQueue {
        let mut q = EventQueue::new(width_us);
        q.heap_max = heap_max;
        q
    }

    /// The executor's window loop (`Shard::run_window`), minus the actor:
    /// pops while the minimum is before `end_us`, not after `clip_us`,
    /// and `budget` lasts.
    fn pop_window(q: &mut EventQueue, end_us: u64, clip_us: u64, budget: usize) -> Vec<K> {
        let mut popped = Vec::new();
        while popped.len() < budget
            && q.peek_min_key()
                .is_some_and(|(at, ..)| at.as_micros() < end_us && at.as_micros() <= clip_us)
        {
            popped.extend(q.pop_min().map(|e| e.key()));
        }
        popped
    }

    /// The reference: every pending key in a `Vec` kept sorted.
    #[derive(Default)]
    struct Model(Vec<K>);

    impl Model {
        fn push(&mut self, k: K) {
            let at = self.0.partition_point(|q| *q < k);
            self.0.insert(at, k);
        }

        fn pop_window(&mut self, end_us: u64, clip_us: u64, budget: usize) -> Vec<K> {
            let due = |k: &&K| k.0.as_micros() < end_us && k.0.as_micros() <= clip_us;
            let n = self.0.iter().take_while(due).take(budget).count();
            self.0.drain(..n).collect()
        }
    }

    proptest! {
        /// Differential test against the sorted-`Vec` model over random
        /// interleavings of `push`, `pop_min`, `peek_min_key` and bounded
        /// pops. Times fall in 40 cells and origins in 4, so equal `at`
        /// under different `(origin, seq)` is the common case; the
        /// overflow threshold is drawn too, so the population crosses it
        /// upwards while pushes outnumber pops and downwards in the
        /// final drain.
        #[test]
        fn the_queue_pops_what_a_sorted_vec_pops(
            heap_max in 0usize..24,
            ops in prop::collection::vec((0u8..10, 0u64..4_000, 0u64..4), 1..300),
        ) {
            let mut q = small(100, heap_max);
            let mut model = Model::default();
            for (seq, &(op, at_us, origin)) in ops.iter().enumerate() {
                match op {
                    0..=5 => {
                        q.push(ev(at_us, origin, seq as u64));
                        model.push(key(at_us, origin, seq as u64));
                    }
                    6 => prop_assert_eq!(
                        q.pop_min().map(|e| e.key()),
                        model.pop_window(u64::MAX, u64::MAX, 1).pop()
                    ),
                    7 => prop_assert_eq!(q.peek_min_key(), model.0.first().copied()),
                    // A window one cell wide anchored at the minimum,
                    // clipped and budgeted by the drawn values.
                    _ => {
                        let start = model.0.first().map_or(0, |k| k.0.as_micros());
                        let (clip, budget) = (start + at_us / 40, origin as usize + 1);
                        prop_assert_eq!(
                            pop_window(&mut q, start + 100, clip, budget),
                            model.pop_window(start + 100, clip, budget)
                        );
                    }
                }
                prop_assert_eq!(q.len(), model.0.len());
            }
            prop_assert_eq!(pop_window(&mut q, u64::MAX, u64::MAX, usize::MAX), model.0);
            prop_assert_eq!(q.len(), 0);
        }
    }

    /// Events at `ats` (origin and seq from the position) in a queue of
    /// width 1 000 whose heap overflows at four events, and in the model.
    fn seeded(ats: impl IntoIterator<Item = u64>) -> (EventQueue, Model) {
        let (mut q, mut model) = (small(1_000, 4), Model::default());
        for (i, at) in ats.into_iter().enumerate() {
            q.push(ev(at, i as u64 % 2, i as u64));
            model.push(key(at, i as u64 % 2, i as u64));
        }
        (q, model)
    }

    /// Seam one, upwards: the heap takes the first four events, the rest
    /// overflow into their cells; equal `at` under different
    /// `(origin, seq)` on both sides of the seam.
    #[test]
    fn pops_in_key_order_across_cells() {
        let (mut q, model) = seeded([5_000, 100, 100, 2_500, 1_100, 1_999, 2_000, 2_500]);
        assert_eq!((q.len(), q.heap.len(), q.overflow.len()), (8, 4, 2));
        assert_eq!(pop_window(&mut q, u64::MAX, u64::MAX, 99), model.0);
        assert_eq!((q.len(), q.overflow.len()), (0, 0));
    }

    /// Seam two: a push earlier than every queued event, after a cell
    /// was promoted.
    #[test]
    fn push_below_current_cell_is_seen_first() {
        let (mut q, mut model) = seeded([9_500, 7_300, 5_000, 6_100, 2_900, 8_400, 2_050]);
        // The minimum sits in an overflow cell: peeking promotes cell 2
        // whole, and only cell 2.
        assert_eq!(q.peek_min_key(), Some(key(2_050, 0, 6)));
        assert_eq!((q.opened, q.overflow.len()), (2, 1));
        // Earlier than everything, and into the opened cell: the heap is
        // over its threshold and still takes both itself.
        for (at, seq) in [(100, 7), (2_500, 8)] {
            q.push(ev(at, 2, seq));
            model.push(key(at, 2, seq));
        }
        assert_eq!(q.overflow.len(), 1);
        let popped = pop_window(&mut q, 5_000, u64::MAX, 99);
        assert_eq!(popped.first(), Some(&key(100, 2, 7)));
        assert_eq!(popped, model.pop_window(5_000, u64::MAX, 99));
    }

    /// Seam one, downwards: windowed consumption drains the heap below
    /// its threshold, after which it takes far pushes itself again.
    #[test]
    fn mixed_peek_and_pop_after_windowed_use() {
        let (mut q, mut model) = seeded((0..100).map(|i| i * 137 % 5_000));
        // Cell 0 counts as opened from the start.
        assert_eq!(q.overflow.len(), 4);
        // Windowed-style consumption of the four earliest cells.
        for end_us in [1_000, 2_000, 3_000, 4_000] {
            let popped = pop_window(&mut q, end_us, u64::MAX, 99);
            assert_eq!(popped, model.pop_window(end_us, u64::MAX, 99));
        }
        // The peek that closed the last window promoted cell 4; pop all
        // of it but three events.
        let rest = q.len() - 3;
        let popped = pop_window(&mut q, u64::MAX, u64::MAX, rest);
        assert_eq!(popped, model.pop_window(u64::MAX, u64::MAX, rest));
        assert_eq!((q.heap.len(), q.overflow.len()), (3, 0));
        q.push(ev(90_000, 7, 7));
        model.push(key(90_000, 7, 7));
        assert_eq!(q.overflow.len(), 0, "a small heap takes far pushes");
        // Remaining events still pop in order.
        assert_eq!(pop_window(&mut q, u64::MAX, u64::MAX, 99), model.0);
    }

    /// Every popped event of the initial population spawns from its own
    /// key: one event later in the same window, one a lookahead and a
    /// half ahead (origin 9, which spawns nothing).
    fn run_windows(q: &mut EventQueue, clip_us: u64, popped: &mut Vec<K>) {
        const L: u64 = 100;
        while let Some((start, ..)) = q.peek_min_key() {
            if start.as_micros() > clip_us {
                return;
            }
            let end_us = start.as_micros() + L;
            while let Some(e) = pop_window(q, end_us, clip_us, 1).pop() {
                let (at_us, n) = (e.0.as_micros(), popped.len() as u64);
                if e.1 != 9 {
                    q.push(ev(at_us + e.2 % 7, 9, 2 * n));
                    q.push(ev(at_us + L + L / 2, 9, 2 * n + 1));
                }
                popped.push(e);
            }
        }
    }

    #[test]
    fn a_clipped_window_resumed_pops_what_an_unclipped_run_pops() {
        let world = |heap_max| {
            let mut q = small(100, heap_max);
            for i in 0..40u64 {
                q.push(ev(i * 137 % 1_500, i % 5, i));
            }
            q
        };
        for heap_max in [0, 8, 1 << 20] {
            let mut whole = Vec::new();
            run_windows(&mut world(heap_max), u64::MAX, &mut whole);
            // The deadline 570 clips the window [548, 648) with an event
            // at 571 left inside it; the next run resumes there.
            let (mut q, mut resumed) = (world(heap_max), Vec::new());
            run_windows(&mut q, 570, &mut resumed);
            assert_eq!(q.peek_min_key().map(|k| k.0.as_micros()), Some(571));
            run_windows(&mut q, u64::MAX, &mut resumed);
            assert_eq!(resumed, whole, "heap_max {heap_max}");
        }
    }
}
