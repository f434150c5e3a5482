//! The Querier actor: receives the final result and records the outcome.

use crate::messages::Msg;
use crate::roles::Sealer;
use edgelet_sim::{Actor, Context, SimTime};
use edgelet_util::ids::{DeviceId, QueryId};
use std::sync::{Arc, Mutex};

/// What the querier observed, extracted by the driver after the run.
#[derive(Debug, Clone, Default)]
pub struct QuerierRecord {
    /// First result's raw payload (wire-encoded `OutcomePayload`).
    pub payload: Option<Vec<u8>>,
    /// Virtual time the first result arrived.
    pub completed_at: Option<SimTime>,
    /// Partitions merged into the first result.
    pub partitions_merged: u64,
    /// Of which complete.
    pub partitions_complete: u64,
    /// Replica index that won the race.
    pub winning_replica: u32,
    /// Total results received (duplicates from Active Backups).
    pub results_received: u64,
}

/// Shared handle to the querier record.
pub type SharedRecord = Arc<Mutex<QuerierRecord>>;

/// Creates a fresh shared record.
pub fn shared_record() -> SharedRecord {
    Arc::new(Mutex::new(QuerierRecord::default()))
}

/// The Querier actor.
pub struct QuerierActor {
    query: QueryId,
    sealer: Sealer,
    record: SharedRecord,
}

impl QuerierActor {
    /// Creates the querier endpoint.
    pub fn new(query: QueryId, sealer: Sealer, record: SharedRecord) -> Self {
        Self {
            query,
            sealer,
            record,
        }
    }
}

impl Actor for QuerierActor {
    fn restart(&mut self) -> bool {
        self.sealer.restart();
        true
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: DeviceId, payload: &[u8]) {
        let Ok(msg) = self.sealer.unwrap(payload) else {
            ctx.observe("corrupt_messages", 1.0);
            return;
        };
        let Msg::FinalResult {
            query,
            payload,
            partitions_merged,
            partitions_complete,
            replica,
        } = msg
        else {
            return;
        };
        if query != self.query {
            return;
        }
        let mut rec = self.record.lock().unwrap_or_else(|e| e.into_inner());
        rec.results_received += 1;
        if rec.payload.is_none() {
            rec.payload = Some(payload);
            rec.completed_at = Some(ctx.now());
            rec.partitions_merged = partitions_merged;
            rec.partitions_complete = partitions_complete;
            rec.winning_replica = replica;
            ctx.observe("query_completed", ctx.now().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgelet_sim::{DeviceConfig, Duration, NetworkModel, SimConfig, Simulation};

    struct SendResults {
        target: DeviceId,
        sealer: Sealer,
    }
    impl Actor for SendResults {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for replica in 0..2u32 {
                let msg = Msg::FinalResult {
                    query: QueryId::new(5),
                    payload: vec![replica as u8],
                    partitions_merged: 4,
                    partitions_complete: 3,
                    replica,
                };
                let bytes = self.sealer.wrap(&msg);
                ctx.send(self.target, bytes);
            }
        }
        fn on_message(&mut self, _c: &mut Context<'_>, _f: DeviceId, _p: &[u8]) {}
    }

    #[test]
    fn first_result_wins_duplicates_counted() {
        let mut sim = Simulation::new(
            SimConfig {
                network: NetworkModel::reliable(Duration::from_millis(1)),
                ..SimConfig::default()
            },
            1,
        );
        let q_dev = sim.add_device(DeviceConfig::default());
        let c_dev = sim.add_device(DeviceConfig::default());
        let record = shared_record();
        sim.install_actor(
            q_dev,
            Box::new(QuerierActor::new(
                QueryId::new(5),
                Sealer::new(false, &[0u8; 32], QueryId::new(5), q_dev),
                record.clone(),
            )),
        );
        sim.install_actor(
            c_dev,
            Box::new(SendResults {
                target: q_dev,
                sealer: Sealer::new(false, &[0u8; 32], QueryId::new(5), c_dev),
            }),
        );
        sim.run();
        let rec = record.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(rec.results_received, 2);
        assert_eq!(rec.payload.as_deref(), Some(&[0u8][..]));
        assert_eq!(rec.partitions_merged, 4);
        assert_eq!(rec.partitions_complete, 3);
        assert!(rec.completed_at.is_some());
    }
}
