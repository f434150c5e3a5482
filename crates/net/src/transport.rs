//! The [`Transport`] a detached world is built over.
//!
//! `prepare_live_query` needs *a* transport, but a daemon or worker
//! takes the engine apart ([`edgelet_live::EngineParts`]) before
//! stepping it, and its window reports carry the outgoing deliveries
//! themselves. [`CollectorTransport`] is an unbounded per-lane
//! collector that never backpressures, should anything submit to it.

use edgelet_wire::{Envelope, Transport, TransportError};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// An unbounded per-lane collector: `submit` never rejects, and every
/// accepted envelope surfaces in [`CollectorTransport::take_lanes`].
/// Detached worlds are built over one (see the module docs).
#[derive(Default)]
pub struct CollectorTransport {
    lanes: Mutex<BTreeMap<usize, Vec<Envelope>>>,
    lane_count: usize,
}

impl CollectorTransport {
    /// A collector partitioning sends into `lane_count` lanes.
    pub fn new(lane_count: usize) -> CollectorTransport {
        CollectorTransport {
            lanes: Mutex::new(BTreeMap::new()),
            lane_count: lane_count.max(1),
        }
    }

    /// Drains every lane, in lane order, preserving FIFO within a lane.
    pub fn take_lanes(&self) -> BTreeMap<usize, Vec<Envelope>> {
        std::mem::take(&mut *lock(&self.lanes))
    }
}

impl Transport for CollectorTransport {
    fn submit(&self, env: Envelope) -> Result<(), TransportError> {
        let lane = env.to.index() % self.lane_count;
        lock(&self.lanes).entry(lane).or_default().push(env);
        Ok(())
    }

    fn drain(&self, _epoch: u64, _lane: usize) -> Vec<Envelope> {
        // Contents leave through take_lanes; the engine-side drain path
        // is never exercised on a collector.
        Vec::new()
    }

    fn pending(&self, _epoch: u64, _lane: usize) -> Option<(usize, u64)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgelet_util::ids::DeviceId;
    use edgelet_util::Payload;

    fn env(epoch: u64, to: u64, seq: u64, deliver_at_us: u64) -> Envelope {
        Envelope {
            epoch,
            from: DeviceId::new(0),
            to: DeviceId::new(to),
            seq,
            sent_at_us: 0,
            deliver_at_us,
            payload: Payload::from(vec![seq as u8]),
        }
    }

    #[test]
    fn collector_partitions_by_lane_and_never_backpressures() {
        let c = CollectorTransport::new(2);
        for seq in 0..100 {
            c.submit(env(1, seq % 3, seq, seq)).unwrap();
        }
        let lanes = c.take_lanes();
        let total: usize = lanes.values().map(Vec::len).sum();
        assert_eq!(total, 100);
        for (lane, envs) in &lanes {
            for e in envs {
                assert_eq!(e.to.index() % 2, *lane);
            }
            // FIFO within each lane.
            assert!(envs.windows(2).all(|w| w[0].seq < w[1].seq));
        }
        assert!(c.take_lanes().is_empty(), "take_lanes drains");
    }
}
