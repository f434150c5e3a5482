//! The transport hook: the one piece of a window round that is the
//! live runtime's own.
//!
//! A live worker is an [`edgelet_sim::exec::Shard`] run by the shared
//! barriers ([`edgelet_sim::exec::World::run`]); this module only says
//! how its events cross a [`Transport`]. Every `Deliver` event of a
//! window leaves the slice (same-slice ones included — the host asks
//! for that in its `RunEnv`), becomes an [`Envelope`], and is flushed
//! lane by lane in one batched submission; a full lane parks the
//! remainder for the barrier. At the start of the next window each
//! slice drains its own lane straight onto its queue. Why this cannot
//! change an outcome: DESIGN.md §"One executor, three barriers".

use edgelet_sim::exec::{fold_min, Event, Exchange, Mailboxes, Shard, WindowReport};
use edgelet_wire::{Envelope, Transport, TransportError};
use std::sync::{Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One run's view of the transport: `lanes` mailbox lanes of one epoch
/// (lane `i` feeds slice `i`).
pub(crate) struct Fabric<'a> {
    transport: &'a dyn Transport,
    epoch: u64,
    lanes: usize,
    /// Barrier spills awaiting their slice.
    pub(crate) mail: Mailboxes,
    /// Envelopes refused with backpressure, for barrier re-submission.
    parked: Mutex<Vec<Envelope>>,
}

impl<'a> Fabric<'a> {
    pub(crate) fn new(transport: &'a dyn Transport, epoch: u64, lanes: usize) -> Self {
        Fabric {
            transport,
            epoch,
            lanes,
            mail: Mailboxes::new(lanes),
            parked: Mutex::new(Vec::new()),
        }
    }
}

impl Exchange for Fabric<'_> {
    /// Slice `me` takes its own lane (a neighbour that finished early
    /// may already be filling it for the next window; the lookahead puts
    /// those past this window's end), then any barrier spills.
    fn ingest(&self, me: usize, shard: &mut Shard) {
        for env in self.transport.drain(self.epoch, me) {
            shard.push(Event::from(env));
        }
        self.mail.collect(me, shard);
    }

    /// Flushes the window's sends: one batched submission per
    /// destination lane, each taking the lane lock once. The lookahead
    /// guarantees nothing flushed here was due inside the window just
    /// executed.
    fn publish(&self, _me: usize, report: &mut WindowReport) {
        let out = &mut report.out;
        for lane in out.outbound.iter_mut().filter(|l| !l.is_empty()) {
            let mut batch: Vec<Envelope> = lane
                .drain(..)
                .filter_map(|ev| ev.into_envelope(self.epoch))
                .collect();
            match self.transport.submit_batch(&mut batch) {
                Ok(()) => {}
                Err(TransportError::Backpressure) => lock(&self.parked).append(&mut batch),
                Err(_) => {
                    // Closed/unknown-epoch mid-run only happens if the
                    // hosting service tore the epoch down; account the
                    // remaining messages as lost.
                    out.deltas.real_pending -= batch.len() as i64;
                    out.deltas.dropped += batch.len() as u64;
                }
            }
        }
    }

    /// Re-submits backpressured envelopes while every worker is idle; a
    /// still-full lane spills into the destination's mail, so no
    /// envelope is ever invisible to the next window decision.
    fn settle(&self) -> Option<u64> {
        let parked = {
            let mut guard = lock(&self.parked);
            std::mem::take(&mut *guard)
        };
        for e in parked {
            if self.transport.submit(e.clone()).is_err() {
                self.mail.post(e.to.index() % self.lanes, [Event::from(e)]);
            }
        }
        (0..self.lanes)
            .map(|lane| self.transport.pending(self.epoch, lane).map(|(_, m)| m))
            .fold(self.mail.min_at(), fold_min)
    }
}
