//! Event representation and the bucketed calendar queue.
//!
//! The engine used to keep every pending event in one global `BinaryHeap`
//! keyed by `(time, global_seq)`. That had two scaling problems: the heap
//! is `O(log n)` per operation with poor locality at million-event
//! populations, and a *global* sequence number makes event identity depend
//! on execution order, which rules out sharded execution.
//!
//! This module replaces both:
//!
//! * Every [`Event`] carries an **intrinsic key** `(at, origin, seq)`
//!   where `origin` is the device that spawned it and `seq` is that
//!   device's private spawn counter. The key is a pure function of the
//!   spawning device's history, so it is identical for every shard count
//!   — the foundation of the sharded engine's bit-exact determinism.
//! * The [`CalendarQueue`] buckets events into fixed-width time cells
//!   (cell width = the engine's lookahead). Pushes are amortised `O(1)`;
//!   only the minimum cell is ever sorted, and in windowed execution it
//!   isn't sorted at all — the whole cell is handed to the executor as a
//!   batch. Emptied cell buffers are pooled and reused, so steady-state
//!   scheduling performs no allocation.

use crate::actor::TimerToken;
use crate::fault::CrashCause;
use crate::time::SimTime;
use edgelet_util::ids::DeviceId;
use edgelet_util::Payload;
use edgelet_wire::Envelope;
use std::cmp::Ordering;
use std::collections::BTreeMap;

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

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so `BinaryHeap<Event>` is a min-heap on the key.
        other.key().cmp(&self.key())
    }
}

/// A bucketed calendar queue: pending events grouped into fixed-width
/// time cells.
///
/// Cells other than the minimum are unsorted `Vec`s (push is an amortised
/// `O(1)` append). For one-at-a-time consumption ([`CalendarQueue::pop_min`],
/// used by the sequential fallback executor) the minimum cell is sorted
/// once, descending, and popped from the back. For windowed execution the
/// minimum cell is taken wholesale with [`CalendarQueue::take_cell`] and
/// never sorted here. Emptied buffers return to an internal pool.
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    width_us: u64,
    /// Cell index (`at_us / width_us`) -> pending events. Vecs in the map
    /// are never empty.
    cells: BTreeMap<u64, Vec<Event>>,
    /// The minimum cell, sorted descending by key (pop from the back).
    /// Invariant: when occupied, its index is <= every key in `cells`.
    cur: Option<(u64, Vec<Event>)>,
    len: usize,
    /// Recycled cell buffers.
    pool: Vec<Vec<Event>>,
}

impl CalendarQueue {
    /// Creates a queue with the given cell width (clamped to >= 1 µs).
    pub fn new(width_us: u64) -> Self {
        CalendarQueue {
            width_us: width_us.max(1),
            cells: BTreeMap::new(),
            cur: None,
            len: 0,
            pool: Vec::new(),
        }
    }

    /// The cell width, µs.
    pub fn width_us(&self) -> u64 {
        self.width_us
    }

    /// Number of pending events.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Schedules an event.
    pub fn push(&mut self, ev: Event) {
        self.len += 1;
        let cell = ev.at.as_micros() / self.width_us;
        match self.cur.as_mut() {
            Some((ci, vec)) if *ci == cell => {
                // Keep the minimum cell sorted (descending) so pop_min
                // stays O(1); in-cell inserts are rare and small.
                let key = ev.key();
                let pos = vec.partition_point(|e| e.key() > key);
                vec.insert(pos, ev);
                return;
            }
            Some((ci, _)) if cell < *ci => {
                // The minimum moved earlier: demote the current cell
                // back into the map (it stays sorted; harmless).
                if let Some((old_ci, old_vec)) = self.cur.take() {
                    self.cells.insert(old_ci, old_vec);
                }
            }
            _ => {}
        }
        self.cells
            .entry(cell)
            .or_insert_with(|| self.pool.pop().unwrap_or_default())
            .push(ev);
    }

    /// Drains `buf` into the queue, amortising the per-event cell lookup
    /// by batching consecutive same-cell runs: the destination cell's
    /// buffer is taken out of the map once per run instead of once per
    /// event. Barrier mailboxes and window remainders arrive in key
    /// order, so their runs are long. Leaves `buf` empty (capacity
    /// kept) for reuse.
    pub fn push_batch(&mut self, buf: &mut Vec<Event>) {
        if self.cur.is_some() {
            // The sorted cursor is live (fallback executor): route
            // through `push` so in-cursor inserts stay ordered.
            for ev in buf.drain(..) {
                self.push(ev);
            }
            return;
        }
        self.len += buf.len();
        let mut run: Option<(u64, Vec<Event>)> = None;
        for ev in buf.drain(..) {
            let cell = ev.at.as_micros() / self.width_us;
            match run.as_mut() {
                Some((ci, vec)) if *ci == cell => vec.push(ev),
                _ => {
                    if let Some((ci, vec)) = run.take() {
                        self.cells.insert(ci, vec);
                    }
                    let mut vec = self
                        .cells
                        .remove(&cell)
                        .unwrap_or_else(|| self.pool.pop().unwrap_or_default());
                    vec.push(ev);
                    run = Some((cell, vec));
                }
            }
        }
        if let Some((ci, vec)) = run.take() {
            self.cells.insert(ci, vec);
        }
    }

    /// Promotes the minimum map cell to `cur` (sorted) if `cur` is empty.
    fn refill(&mut self) {
        if let Some((_, vec)) = self.cur.as_ref() {
            if !vec.is_empty() {
                return;
            }
        }
        if let Some((_, vec)) = self.cur.take() {
            self.pool.push(vec);
        }
        if let Some((ci, mut vec)) = self.cells.pop_first() {
            vec.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            self.cur = Some((ci, vec));
        }
    }

    /// Key of the earliest pending event, if any (sorts the minimum cell).
    pub fn peek_min_key(&mut self) -> Option<(SimTime, u64, u64)> {
        self.refill();
        self.cur
            .as_ref()
            .and_then(|(_, vec)| vec.last().map(Event::key))
    }

    /// Removes and returns the earliest pending event.
    pub fn pop_min(&mut self) -> Option<Event> {
        self.refill();
        let (_, vec) = self.cur.as_mut()?;
        let ev = vec.pop()?;
        self.len -= 1;
        Some(ev)
    }

    /// Earliest pending event *time* without sorting anything: scans only
    /// the minimum cell. Used by the windowed executor to decide which
    /// cell to open next.
    pub fn peek_min_at(&mut self) -> Option<SimTime> {
        if let Some((_, vec)) = self.cur.as_ref() {
            if let Some(m) = vec.iter().map(|e| e.at).min() {
                return Some(m);
            }
        }
        self.cells
            .iter()
            .next()
            .and_then(|(_, vec)| vec.iter().map(|e| e.at).min())
    }

    /// Removes the whole cell at `idx`, unsorted. Returns `None` when the
    /// cell has no events.
    pub fn take_cell(&mut self, idx: u64) -> Option<Vec<Event>> {
        if let Some((ci, _)) = self.cur.as_ref() {
            if *ci == idx {
                if let Some((_, vec)) = self.cur.take() {
                    if vec.is_empty() {
                        self.pool.push(vec);
                        return None;
                    }
                    self.len -= vec.len();
                    return Some(vec);
                }
            }
        }
        if let Some(vec) = self.cells.remove(&idx) {
            self.len -= vec.len();
            return Some(vec);
        }
        None
    }

    /// Returns an emptied cell buffer to the allocation pool.
    pub fn recycle(&mut self, mut vec: Vec<Event>) {
        vec.clear();
        self.pool.push(vec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn pops_in_key_order_across_cells() {
        let mut q = CalendarQueue::new(1_000);
        let keys = [
            (5_000, 1, 0),
            (100, 0, 0),
            (100, 0, 1),
            (2_500, 7, 2),
            (100, 2, 0),
            (999, 9, 9),
            (1_000, 0, 3),
        ];
        for (at, o, s) in keys {
            q.push(ev(at, o, s));
        }
        assert_eq!(q.len(), keys.len());
        let mut sorted: Vec<_> = keys
            .iter()
            .map(|&(at, o, s)| (SimTime::from_micros(at), o, s))
            .collect();
        sorted.sort();
        let mut popped = Vec::new();
        while let Some(e) = q.pop_min() {
            popped.push(e.key());
        }
        assert_eq!(popped, sorted);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn push_below_current_cell_is_seen_first() {
        let mut q = CalendarQueue::new(1_000);
        q.push(ev(5_000, 0, 0));
        assert_eq!(q.peek_min_key(), Some((SimTime::from_micros(5_000), 0, 0)));
        // cur now holds cell 5; a push into an earlier cell must win.
        q.push(ev(100, 1, 0));
        assert_eq!(q.peek_min_key(), Some((SimTime::from_micros(100), 1, 0)));
        assert_eq!(q.pop_min().map(|e| e.at.as_micros()), Some(100));
        assert_eq!(q.pop_min().map(|e| e.at.as_micros()), Some(5_000));
    }

    #[test]
    fn take_cell_returns_whole_bucket() {
        let mut q = CalendarQueue::new(1_000);
        q.push(ev(1_100, 0, 0));
        q.push(ev(1_900, 1, 0));
        q.push(ev(2_000, 2, 0));
        assert_eq!(q.peek_min_at(), Some(SimTime::from_micros(1_100)));
        let cell = q.take_cell(1).map(|v| v.len());
        assert_eq!(cell, Some(2));
        assert_eq!(q.len(), 1);
        assert!(q.take_cell(1).is_none());
        assert_eq!(q.peek_min_at(), Some(SimTime::from_micros(2_000)));
    }

    #[test]
    fn take_cell_grabs_the_sorted_cursor_too() {
        let mut q = CalendarQueue::new(1_000);
        q.push(ev(1_100, 0, 0));
        q.push(ev(1_200, 1, 0));
        // Sorting promotes cell 1 into the cursor.
        let _ = q.peek_min_key();
        let cell = q.take_cell(1).map(|v| v.len());
        assert_eq!(cell, Some(2));
        assert_eq!(q.len(), 0);
        assert!(q.pop_min().is_none());
    }

    #[test]
    fn push_batch_is_equivalent_to_push() {
        let keys = [
            (100, 0, 0),
            (150, 0, 1),
            (1_200, 1, 0),
            (1_300, 1, 1),
            (100, 2, 0),
            (7_000, 3, 0),
            (1_250, 4, 0),
        ];
        let mut a = CalendarQueue::new(1_000);
        let mut b = CalendarQueue::new(1_000);
        for (at, o, s) in keys {
            a.push(ev(at, o, s));
        }
        let mut buf: Vec<Event> = keys.iter().map(|&(at, o, s)| ev(at, o, s)).collect();
        b.push_batch(&mut buf);
        assert!(buf.is_empty());
        assert_eq!(a.len(), b.len());
        loop {
            let (x, y) = (a.pop_min().map(|e| e.key()), b.pop_min().map(|e| e.key()));
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
        // Batching into a queue with a live sorted cursor keeps order.
        let mut c = CalendarQueue::new(1_000);
        c.push(ev(500, 9, 0));
        let _ = c.peek_min_key();
        let mut buf: Vec<Event> = vec![ev(400, 8, 0), ev(600, 8, 1), ev(2_000, 8, 2)];
        c.push_batch(&mut buf);
        let popped: Vec<u64> =
            std::iter::from_fn(|| c.pop_min().map(|e| e.at.as_micros())).collect();
        assert_eq!(popped, vec![400, 500, 600, 2_000]);
    }

    #[test]
    fn mixed_peek_and_pop_after_windowed_use() {
        let mut q = CalendarQueue::new(500);
        for i in 0..100u64 {
            q.push(ev(i * 137 % 5_000, i, 0));
        }
        // Windowed-style consumption of the two earliest cells.
        let mut drained = 0;
        for _ in 0..2 {
            if let Some(min) = q.peek_min_at() {
                if let Some(v) = q.take_cell(min.as_micros() / 500) {
                    drained += v.len();
                    q.recycle(Vec::new());
                }
            }
        }
        // Remaining events still pop in order.
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some(e) = q.pop_min() {
            assert!(e.at >= last);
            last = e.at;
            popped += 1;
        }
        assert_eq!(drained + popped, 100);
    }
}
