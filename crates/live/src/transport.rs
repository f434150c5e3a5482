//! The in-process sharded transport: lock-striped, bounded, epoch-keyed
//! mailbox lanes carrying [`Envelope`]s.
//!
//! One [`StripedTransport`] is shared by every query a
//! [`crate::service::QueryService`] runs concurrently. Isolation between
//! queries is structural: lanes are registered *per epoch*, an envelope
//! is only accepted if its epoch is currently registered, and a drain
//! only ever sees its own epoch's lanes. Cross-epoch submissions are
//! counted ([`StripedTransport::rejected_unknown_epoch`]) so tests can
//! assert that no stray message was ever admitted.
//!
//! A lane holds the envelopes themselves, not their wire bytes: both
//! ends share an address space and the payload is an `Arc`-backed
//! [`edgelet_util::Payload`], so a hop is a move and the receiver reads
//! the buffer the sender's `Sealer::wrap` wrote. The codec is held where
//! bytes do cross (`edgelet-net`, `net_parity`, the `wire` proptests) and
//! by the re-serialising transport of `tests/live_parity.rs`.

use edgelet_sim::exec::fold_min;
use edgelet_wire::{Envelope, Transport, TransportError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One mailbox lane.
#[derive(Debug, Default)]
struct Lane {
    queued: Vec<Envelope>,
    /// Earliest `deliver_at_us` in `queued` (`None` when empty), kept as
    /// envelopes arrive so `pending` is a field read.
    min_at: Option<u64>,
}

impl Lane {
    fn push(&mut self, env: Envelope) {
        self.min_at = fold_min(self.min_at, Some(env.deliver_at_us));
        self.queued.push(env);
    }

    fn take(&mut self) -> Vec<Envelope> {
        self.min_at = None;
        std::mem::take(&mut self.queued)
    }
}

/// One epoch's lanes, shared with whoever is mid-call on them.
type LaneSet = Arc<Vec<Mutex<Lane>>>;

/// Locks a mutex, ignoring poisoning: lanes hold plain envelope
/// vectors that stay structurally valid, and a panicked worker
/// propagates its panic through the owning thread scope regardless.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// How many retired lane sets [`StripedTransport`] keeps for reuse.
/// Bounds pool growth if callers register epochs with many distinct
/// lane counts; the query service uses one count, so in practice the
/// pool holds at most `max_concurrent` entries.
const LANE_POOL_CAP: usize = 64;

/// A lock-striped, bounded, multi-epoch in-process transport.
///
/// * **Striped** — each epoch owns `lanes` independent mutex-protected
///   mailboxes; destination device `d` hashes to lane
///   `d.index() % lanes`, so workers draining different lanes never
///   contend on one lock.
/// * **Bounded** — each lane holds at most `capacity` envelopes; a full
///   lane yields [`TransportError::Backpressure`], which the runtime
///   absorbs at its window barrier (see `docs/RUNTIME.md`).
/// * **Epoch-keyed** — envelopes for unregistered epochs are refused
///   with [`TransportError::UnknownEpoch`] and counted.
pub struct StripedTransport {
    capacity: usize,
    closed: AtomicBool,
    rejected: AtomicU64,
    /// Epoch → lane set. A `RwLock` rather than a `Mutex`: every
    /// submit/drain/pending resolves its epoch here, and those reads
    /// are the hot path every worker thread hits concurrently —
    /// registration and retirement (one write per query) are the only
    /// writers.
    epochs: RwLock<BTreeMap<u64, LaneSet>>,
    /// Retired lane sets kept for reuse, so a query's `register_epoch`
    /// allocates no fresh lane vector.
    pool: Mutex<Vec<LaneSet>>,
}

impl StripedTransport {
    /// Creates a transport whose lanes hold at most `capacity` envelopes
    /// each (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        StripedTransport {
            capacity: capacity.max(1),
            closed: AtomicBool::new(false),
            rejected: AtomicU64::new(0),
            epochs: RwLock::new(BTreeMap::new()),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Registers `epoch` with `lanes` mailbox lanes (one per runtime
    /// worker; clamped to at least 1). Re-registering an epoch resets
    /// its lanes. Reuses a retired lane set of the same width when one
    /// is available.
    pub fn register_epoch(&self, epoch: u64, lanes: usize) {
        crate::model::yield_point("transport.register_epoch");
        let count = lanes.max(1);
        let recycled = {
            let mut pool = lock(&self.pool);
            // Only a set nobody else still holds may be reused: a late
            // drain of the retired epoch could otherwise observe the new
            // epoch's traffic.
            pool.iter()
                .position(|set| set.len() == count && Arc::strong_count(set) == 1)
                .map(|i| pool.swap_remove(i))
        };
        let set = recycled
            .unwrap_or_else(|| Arc::new((0..count).map(|_| Mutex::new(Lane::default())).collect()));
        write(&self.epochs).insert(epoch, set);
    }

    /// Removes `epoch`; queued envelopes are discarded and later
    /// submissions for it are refused as unknown. The emptied lane set
    /// goes back to the pool for the next registration.
    pub fn retire_epoch(&self, epoch: u64) {
        crate::model::yield_point("transport.retire_epoch");
        let Some(set) = write(&self.epochs).remove(&epoch) else {
            return;
        };
        for lane in set.iter() {
            lock(lane).take();
        }
        let mut pool = lock(&self.pool);
        if pool.len() < LANE_POOL_CAP {
            pool.push(set);
        }
    }

    /// Stops accepting envelopes on every epoch (graceful shutdown:
    /// drains still succeed).
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// How many submissions were refused because their epoch was not
    /// registered — the query-isolation evidence the tests assert on.
    pub fn rejected_unknown_epoch(&self) -> u64 {
        self.rejected.load(Ordering::Acquire)
    }

    /// Epochs currently registered.
    pub fn active_epochs(&self) -> usize {
        read(&self.epochs).len()
    }

    fn lanes_of(&self, epoch: u64) -> Option<LaneSet> {
        read(&self.epochs).get(&epoch).cloned()
    }

    /// The lane set and lane `env` goes to, or why it is refused.
    fn route(&self, env: &Envelope) -> Result<(LaneSet, usize), TransportError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let Some(lanes) = self.lanes_of(env.epoch) else {
            self.rejected.fetch_add(1, Ordering::AcqRel);
            return Err(TransportError::UnknownEpoch(env.epoch));
        };
        let lane = env.to.index() % lanes.len();
        Ok((lanes, lane))
    }

    /// Moves envelopes off the front of `rest` until one is refused:
    /// consecutive envelopes sharing one `(epoch, lane)` go in under a
    /// single lane lock.
    fn accept(&self, rest: &mut std::vec::IntoIter<Envelope>) -> Result<(), TransportError> {
        while let Some(head) = rest.as_slice().first() {
            let (lanes, lane) = self.route(head)?;
            let epoch = head.epoch;
            let run = rest
                .as_slice()
                .iter()
                .take_while(|e| e.epoch == epoch && e.to.index() % lanes.len() == lane)
                .count();
            let mut guard = lock(&lanes[lane]);
            let fits = run.min(self.capacity.saturating_sub(guard.queued.len()));
            guard.queued.reserve(fits);
            for env in rest.by_ref().take(fits) {
                guard.push(env);
            }
            if fits < run {
                return Err(TransportError::Backpressure);
            }
        }
        Ok(())
    }
}

impl Transport for StripedTransport {
    fn submit(&self, env: Envelope) -> Result<(), TransportError> {
        crate::model::yield_point("transport.submit");
        let (lanes, lane) = self.route(&env)?;
        let mut guard = lock(&lanes[lane]);
        if guard.queued.len() >= self.capacity {
            return Err(TransportError::Backpressure);
        }
        guard.push(env);
        Ok(())
    }

    /// Batched submission: a worker flushing a window's sends takes each
    /// destination lock once instead of once per message, and accepted
    /// envelopes are moved out of `batch`, not copied.
    fn submit_batch(&self, batch: &mut Vec<Envelope>) -> Result<(), TransportError> {
        crate::model::yield_point("transport.submit");
        let mut rest = std::mem::take(batch).into_iter();
        let result = self.accept(&mut rest);
        // The refused envelope and everything behind it, in order;
        // nothing (and no allocation) once the batch was accepted whole.
        *batch = rest.collect();
        result
    }

    fn drain(&self, epoch: u64, lane: usize) -> Vec<Envelope> {
        crate::model::yield_point("transport.drain");
        let Some(lanes) = self.lanes_of(epoch) else {
            return Vec::new();
        };
        lanes.get(lane).map(|l| lock(l).take()).unwrap_or_default()
    }

    fn pending(&self, epoch: u64, lane: usize) -> Option<(usize, u64)> {
        let lanes = self.lanes_of(epoch)?;
        let guard = lock(lanes.get(lane)?);
        guard.min_at.map(|min_at| (guard.queued.len(), min_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgelet_util::ids::DeviceId;
    use edgelet_util::Payload;

    fn env(epoch: u64, to: u64, at: u64) -> Envelope {
        Envelope {
            epoch,
            from: DeviceId::new(0),
            to: DeviceId::new(to),
            seq: 1,
            sent_at_us: 0,
            deliver_at_us: at,
            payload: Payload::from(b"m".as_ref()),
        }
    }

    #[test]
    fn epochs_are_isolated_and_rejections_counted() {
        let t = StripedTransport::new(8);
        t.register_epoch(1, 2);
        t.register_epoch(2, 2);
        t.submit(env(1, 0, 10)).unwrap();
        t.submit(env(2, 0, 20)).unwrap();
        assert_eq!(
            t.submit(env(3, 0, 30)),
            Err(TransportError::UnknownEpoch(3))
        );
        assert_eq!(t.rejected_unknown_epoch(), 1);
        // Each epoch only sees its own traffic.
        assert_eq!(t.pending(1, 0), Some((1, 10)));
        assert_eq!(t.pending(2, 0), Some((1, 20)));
        let drained = t.drain(1, 0);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].deliver_at_us, 10);
        assert_eq!(t.pending(2, 0), Some((1, 20)));
        // Retiring an epoch refuses later submissions.
        t.retire_epoch(2);
        assert_eq!(
            t.submit(env(2, 0, 40)),
            Err(TransportError::UnknownEpoch(2))
        );
        assert_eq!(t.rejected_unknown_epoch(), 2);
    }

    #[test]
    fn lanes_apply_backpressure_and_close_is_global() {
        let t = StripedTransport::new(2);
        t.register_epoch(5, 1);
        t.submit(env(5, 0, 1)).unwrap();
        t.submit(env(5, 1, 2)).unwrap();
        assert_eq!(t.submit(env(5, 2, 3)), Err(TransportError::Backpressure));
        assert_eq!(t.pending(5, 0), Some((2, 1)));
        t.close();
        assert_eq!(t.submit(env(5, 0, 4)), Err(TransportError::Closed));
        // Draining still works after close (graceful shutdown).
        assert_eq!(t.drain(5, 0).len(), 2);
    }

    #[test]
    fn submit_batch_fills_a_lane_and_reports_backpressure() {
        let t = StripedTransport::new(3);
        t.register_epoch(9, 2);
        // Five envelopes: four for lane 0, one for lane 1 behind the
        // overflow. Only the three lane-0 slots accept.
        let mut batch: Vec<Envelope> = (0..4).map(|i| env(9, 0, 10 + i)).collect();
        batch.push(env(9, 1, 99));
        assert_eq!(
            t.submit_batch(&mut batch),
            Err(TransportError::Backpressure)
        );
        // The rejected envelope and its successor stay, in order.
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].deliver_at_us, 13);
        assert_eq!(batch[1].deliver_at_us, 99);
        assert_eq!(t.pending(9, 0), Some((3, 10)));
        assert_eq!(t.pending(9, 1), None);
        // Lane runs split correctly across lane boundaries.
        let mut batch = vec![env(9, 1, 1), env(9, 0, 2)];
        assert_eq!(
            t.submit_batch(&mut batch),
            Err(TransportError::Backpressure)
        );
        assert_eq!(batch.len(), 1, "lane-1 envelope accepted first");
        assert_eq!(t.pending(9, 1), Some((1, 1)));
        // Unknown epochs are refused and counted.
        let mut batch = vec![env(7, 0, 5)];
        assert_eq!(
            t.submit_batch(&mut batch),
            Err(TransportError::UnknownEpoch(7))
        );
        assert_eq!(t.rejected_unknown_epoch(), 1);
    }

    /// A payload one byte past `Reader::bytes`' cap encodes but does not
    /// decode: a lane of wire bytes dropped it in `drain` while the run
    /// still counted it pending. A lane of envelopes has no decode to fail.
    #[test]
    fn a_payload_too_long_to_decode_survives_the_hop() {
        let t = StripedTransport::new(8);
        t.register_epoch(1, 1);
        let len = edgelet_wire::codec::MAX_SEQUENCE_LEN as usize + 1;
        let big = Envelope {
            payload: Payload::from(vec![7u8; len]),
            ..env(1, 0, 10)
        };
        assert!(Envelope::from_wire(&big.to_wire()).is_err());
        t.submit(big.clone()).unwrap();
        assert_eq!(t.pending(1, 0), Some((1, 10)));
        // Key and payload intact (`assert!`: a failure must not print 16 MiB).
        assert!(
            t.drain(1, 0) == [big],
            "the envelope was dropped or changed"
        );
        assert_eq!(t.pending(1, 0), None);
    }

    #[test]
    fn pending_is_the_minimum_whatever_the_arrival_order() {
        let t = StripedTransport::new(8);
        t.register_epoch(1, 1);
        t.submit(env(1, 0, 30)).unwrap();
        t.submit_batch(&mut vec![env(1, 0, 20), env(1, 0, 40)])
            .unwrap();
        assert_eq!(t.pending(1, 0), Some((3, 20)));
        assert_eq!(t.drain(1, 0).len(), 3);
        t.submit(env(1, 0, 50)).unwrap();
        assert_eq!(t.pending(1, 0), Some((1, 50)), "a drained minimum lingered");
    }

    #[test]
    fn retired_lane_sets_are_pooled_and_reused() {
        let t = StripedTransport::new(8);
        t.register_epoch(1, 4);
        t.submit(env(1, 0, 10)).unwrap();
        t.retire_epoch(1);
        // Re-registering with the same width reuses the cleared set; the
        // old epoch's envelope must not resurface.
        t.register_epoch(2, 4);
        assert_eq!(t.pending(2, 0), None);
        assert_eq!(t.drain(2, 0).len(), 0);
        // A different width allocates fresh lanes.
        t.register_epoch(3, 2);
        t.submit(env(3, 1, 7)).unwrap();
        assert_eq!(t.pending(3, 1), Some((1, 7)));
    }

    /// The satellite's backpressure model check: two submitters race a
    /// bounded lane through every interleaving of the transport's yield
    /// points. On every schedule: no envelope is lost (accepted + kept
    /// conserves the submitted set), the lane fills exactly to capacity
    /// (no deadlock, no overshoot), and the drain preserves each
    /// submitter's FIFO order — backpressure changes pacing, never
    /// outcomes.
    #[test]
    fn concurrent_submitters_never_lose_envelopes_under_backpressure() {
        use crate::model::{explore, ExploreOptions, RunSpec};
        let opts = ExploreOptions::for_tags(&["transport.submit", "transport.drain"]);
        let report = explore(&opts, || {
            let t = Arc::new(StripedTransport::new(2));
            t.register_epoch(1, 1);
            let kept = Arc::new(Mutex::new(Vec::new()));
            let mk = |at: u64| {
                let t = Arc::clone(&t);
                let kept = Arc::clone(&kept);
                Box::new(move || {
                    // Each submitter pushes two envelopes into a lane of
                    // capacity 2 and banks whatever bounced.
                    let mut batch = vec![env(1, 0, at), env(1, 0, at + 1)];
                    let res = t.submit_batch(&mut batch);
                    if !batch.is_empty() {
                        assert_eq!(res, Err(TransportError::Backpressure));
                    }
                    let n = batch.len();
                    kept.lock()
                        .unwrap()
                        .extend(batch.drain(..).map(|e| e.deliver_at_us));
                    format!("kept:{n}")
                }) as Box<dyn FnOnce() -> String + Send>
            };
            let finale_t = Arc::clone(&t);
            let finale_kept = Arc::clone(&kept);
            RunSpec {
                threads: vec![mk(10), mk(20)],
                finale: Box::new(move || {
                    let queued = finale_t.pending(1, 0).map_or(0, |(n, _)| n);
                    assert_eq!(queued, 2, "the lane fills exactly to capacity");
                    let drained: Vec<u64> = finale_t
                        .drain(1, 0)
                        .into_iter()
                        .map(|e| e.deliver_at_us)
                        .collect();
                    assert_eq!(finale_t.pending(1, 0), None, "drain leaves nothing");
                    // Per-submitter FIFO: an envelope never overtakes its
                    // predecessor from the same batch.
                    for pair in [(10, 11), (20, 21)] {
                        let pos = |v: u64| drained.iter().position(|&d| d == v);
                        if let (Some(first), Some(second)) = (pos(pair.0), pos(pair.1)) {
                            assert!(first < second, "drain reordered {pair:?}: {drained:?}");
                        }
                    }
                    // Conservation: everything submitted is either queued
                    // (now drained) or was returned to its submitter.
                    let mut all: Vec<u64> = drained.clone();
                    all.extend(finale_kept.lock().unwrap().iter().copied());
                    all.sort_unstable();
                    assert_eq!(all, vec![10, 11, 20, 21], "an envelope was lost");
                    format!("drained:{drained:?}")
                }),
            }
        });
        assert!(report.deadlock.is_none(), "deadlock: {:?}", report.deadlock);
        assert!(report.complete, "schedule budget too small");
        assert!(report.schedules > 1, "the race must actually interleave");
    }
}
