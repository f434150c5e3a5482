//! The Data Contributor actor: answers contribution requests from its
//! owner's personal store.
//!
//! This is the busiest callback of a query (one per contributor asked),
//! so it builds neither message: the request is read where it lies, its
//! column names resolved straight to store indices, and the answer is
//! written from the store's rows.

use crate::ledger::SharedLedger;
use crate::messages::{self, kind, Msg};
use crate::roles::Sealer;
use edgelet_sim::{Actor, Context};
use edgelet_store::{DataStore, Predicate, Schema};
use edgelet_util::ids::{DeviceId, QueryId};
use edgelet_util::Result;
use edgelet_wire::{Decode, Encode, FrameView, Writer};

/// Actor holding one individual's data store.
pub struct ContributorActor {
    query: QueryId,
    store: DataStore,
    sealer: Sealer,
    ledger: SharedLedger,
    /// Upper bound on rows contributed per request (the owner's consent
    /// may cap how much leaves the device; usually 1 record anyway).
    max_rows: usize,
}

impl ContributorActor {
    /// Creates a contributor endpoint.
    pub fn new(
        query: QueryId,
        store: DataStore,
        sealer: Sealer,
        ledger: SharedLedger,
        max_rows: usize,
    ) -> Self {
        Self {
            query,
            store,
            sealer,
            ledger,
            max_rows,
        }
    }
}

/// A `ContributeRequest` read in place.
struct Request {
    query: QueryId,
    filter: Predicate,
    /// The requested columns as indices into the store's schema; `None`
    /// when one is not in it (nothing to contribute).
    columns: Option<Vec<usize>>,
}

impl Request {
    /// Reads the body of `frame` (of kind `CONTRIBUTE_REQUEST`), checking
    /// all of it as the owned decode would.
    fn read(frame: FrameView<'_>, schema: &Schema) -> Result<Request> {
        let mut r = messages::body(frame)?;
        let query = QueryId::decode(&mut r)?;
        let filter = Predicate::decode(&mut r)?;
        let count = r.seq_len_for(1)?;
        let mut columns = Vec::with_capacity(count);
        let mut known = true;
        for _ in 0..count {
            match schema.index_of(r.str()?) {
                Ok(i) => columns.push(i),
                Err(_) => known = false,
            }
        }
        r.expect_end()?;
        Ok(Request {
            query,
            filter,
            columns: known.then_some(columns),
        })
    }
}

/// A `Contribution` body written straight from the store: the first
/// `rows` rows `filter` matches, projected through `columns`.
struct Answer<'a> {
    query: QueryId,
    store: &'a DataStore,
    filter: &'a Predicate,
    columns: &'a [usize],
    rows: usize,
}

impl Encode for Answer<'_> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(u64::from(kind::CONTRIBUTION));
        self.query.encode(w);
        w.put_varint(self.rows as u64);
        let schema = self.store.schema();
        let matching = self
            .store
            .rows()
            .iter()
            .filter(|row| matches!(self.filter.eval(schema, row), Ok(true)));
        for row in matching.take(self.rows) {
            row.encode_columns(self.columns, w);
        }
    }
}

impl Actor for ContributorActor {
    fn restart(&mut self) -> bool {
        self.sealer.restart();
        true
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: DeviceId, payload: &[u8]) {
        let schema = self.store.schema();
        let request = self.sealer.open(payload, |frame| match frame.kind {
            kind::CONTRIBUTE_REQUEST => Request::read(frame, schema).map(Some),
            // Contributors only serve contribution requests, but any
            // other frame is still decoded whole: a bad one is corrupt.
            _ => Msg::from_frame(frame).map(|_| None),
        });
        let Ok(request) = request else {
            ctx.observe("corrupt_messages", 1.0);
            return;
        };
        let Some(Request {
            query,
            filter,
            columns: Some(columns),
        }) = request
        else {
            return;
        };
        if query != self.query {
            return;
        }
        // Every row is evaluated, as a scan would: an evaluation error
        // anywhere means no contribution.
        let Ok(matching) = self.store.count(&filter) else {
            return;
        };
        let rows = matching.min(self.max_rows);
        if rows == 0 {
            return; // nothing matching; silence = no contribution
        }
        let answer = Answer {
            query,
            store: &self.store,
            filter: &filter,
            columns: &columns,
            rows,
        };
        let bytes = self.sealer.wrap_as(kind::CONTRIBUTION, &answer);
        self.ledger
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .host_operator(ctx.device());
        ctx.send(from, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger;
    use edgelet_sim::{DeviceConfig, Duration, NetworkModel, SimConfig, Simulation};
    use edgelet_store::synth;
    use edgelet_store::{CmpOp, Predicate, Value};
    use edgelet_util::rng::DetRng;
    use std::sync::{Arc, Mutex};

    struct Probe {
        target: DeviceId,
        request: Msg,
        sealer: Sealer,
        got: Arc<Mutex<Vec<Msg>>>,
    }
    impl Actor for Probe {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let bytes = self.sealer.wrap(&self.request);
            ctx.send(self.target, bytes);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: DeviceId, payload: &[u8]) {
            self.got
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(self.sealer.unwrap(payload).unwrap());
        }
    }

    fn run_request(request: Msg, store_rows: usize) -> Vec<Msg> {
        let mut sim = Simulation::new(
            SimConfig {
                network: NetworkModel::reliable(Duration::from_millis(5)),
                ..SimConfig::default()
            },
            42,
        );
        let probe_dev = sim.add_device(DeviceConfig::default());
        let contrib_dev = sim.add_device(DeviceConfig::default());
        let mut rng = DetRng::new(9);
        let store = synth::health_store(store_rows, &mut rng);
        let sealer = Sealer::new(false, &[0u8; 32], QueryId::new(1), contrib_dev);
        sim.install_actor(
            contrib_dev,
            Box::new(ContributorActor::new(
                QueryId::new(1),
                store,
                sealer,
                ledger::shared(),
                10,
            )),
        );
        let got = Arc::new(Mutex::new(Vec::new()));
        sim.install_actor(
            probe_dev,
            Box::new(Probe {
                target: contrib_dev,
                request,
                sealer: Sealer::new(false, &[0u8; 32], QueryId::new(1), probe_dev),
                got: got.clone(),
            }),
        );
        sim.run();
        let out = got.lock().unwrap_or_else(|e| e.into_inner()).clone();
        out
    }

    #[test]
    fn contributes_matching_projected_rows() {
        let got = run_request(
            Msg::ContributeRequest {
                query: QueryId::new(1),
                filter: Predicate::cmp("age", CmpOp::Gt, Value::Int(0)),
                columns: vec!["age".into(), "gir".into()],
            },
            5,
        );
        assert_eq!(got.len(), 1);
        let Msg::Contribution { rows, .. } = &got[0] else {
            panic!("expected contribution")
        };
        assert!(!rows.is_empty() && rows.len() <= 5);
        assert!(rows.iter().all(|r| r.arity() == 2));
    }

    #[test]
    fn silent_when_nothing_matches_or_wrong_query() {
        let got = run_request(
            Msg::ContributeRequest {
                query: QueryId::new(1),
                filter: Predicate::cmp("age", CmpOp::Gt, Value::Int(500)),
                columns: vec!["age".into()],
            },
            5,
        );
        assert!(got.is_empty());

        let got = run_request(
            Msg::ContributeRequest {
                query: QueryId::new(99),
                filter: Predicate::True,
                columns: vec!["age".into()],
            },
            5,
        );
        assert!(got.is_empty());
    }

    #[test]
    fn bad_predicate_contributes_nothing() {
        let got = run_request(
            Msg::ContributeRequest {
                query: QueryId::new(1),
                filter: Predicate::cmp("no_such_column", CmpOp::Eq, Value::Int(1)),
                columns: vec!["age".into()],
            },
            5,
        );
        assert!(got.is_empty());
    }

    #[test]
    fn max_rows_cap_applies() {
        let got = run_request(
            Msg::ContributeRequest {
                query: QueryId::new(1),
                filter: Predicate::True,
                columns: vec!["age".into()],
            },
            50,
        );
        let Msg::Contribution { rows, .. } = &got[0] else {
            panic!("expected contribution")
        };
        assert_eq!(rows.len(), 10, "cap of 10 applies");
    }
}
