//! The Computer actor for Grouping-Sets queries: evaluates its vertical
//! slice of the aggregation over one partition and forwards the mergeable
//! partial to the Combiner replicas.

use crate::config::ExecConfig;
use crate::ledger::SharedLedger;
use crate::messages::Msg;
use crate::roles::{RankGate, Sealer};
use edgelet_ml::grouping::GroupingQuery;
use edgelet_sim::{Actor, Context, Duration, TimerToken};
use edgelet_store::{Row, Schema};
use edgelet_tee::DeviceProfile;
use edgelet_util::ids::{DeviceId, PartitionId, QueryId};
use edgelet_util::Payload;
use std::sync::Arc;

/// Static wiring of one grouping Computer, shared by all its replicas.
#[derive(Debug)]
pub struct ComputerWiring {
    /// Query id.
    pub query: QueryId,
    /// Partition handled.
    pub partition: PartitionId,
    /// Vertical group index.
    pub attr_group: u32,
    /// The slice of the grouping query this computer evaluates (all
    /// grouping sets, the subset of aggregates whose columns live here).
    pub sliced_query: GroupingQuery,
    /// Devices hosting the Combiner replicas.
    pub combiners: Vec<DeviceId>,
}

/// The grouping Computer actor.
pub struct GroupingComputerActor {
    wiring: Arc<ComputerWiring>,
    profile: DeviceProfile,
    config: ExecConfig,
    sealer: Sealer,
    ledger: SharedLedger,
    schema: Schema,
    gate: RankGate,
    run: Run,
}

/// What one run of the query makes of a computer; a fresh one is the
/// constructor's.
#[derive(Default)]
struct Run {
    compute_timer: Option<TimerToken>,
    ping_timer: Option<TimerToken>,
    staged: Option<(Vec<String>, Vec<Row>, bool)>,
    pending_output: Vec<(DeviceId, Payload)>,
    done: bool,
}

impl GroupingComputerActor {
    /// Creates a computer replica on a host with `profile`.
    pub fn new(
        wiring: Arc<ComputerWiring>,
        profile: DeviceProfile,
        config: ExecConfig,
        sealer: Sealer,
        ledger: SharedLedger,
        schema: Schema,
        gate: RankGate,
    ) -> Self {
        Self {
            wiring,
            profile,
            config,
            sealer,
            ledger,
            schema,
            gate,
            run: Run::default(),
        }
    }

    fn compute_and_forward(&mut self, ctx: &mut Context<'_>) {
        let Some((columns, rows, complete)) = self.run.staged.take() else {
            return;
        };
        let names: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
        let Ok(sub_schema) = self.schema.project(&names) else {
            ctx.observe("schema_errors", 1.0);
            return;
        };
        let partial = match self.wiring.sliced_query.compute(&sub_schema, &rows) {
            Ok(p) => p,
            Err(_) => {
                ctx.observe("compute_errors", 1.0);
                return;
            }
        };
        self.run.done = true;
        let msg = Msg::GroupingPartial {
            query: self.wiring.query,
            partition: self.wiring.partition,
            attr_group: self.wiring.attr_group,
            partial,
            tuples: rows.len() as u64,
            complete,
        };
        let bytes = self.sealer.wrap(&msg);
        let combiners = self.wiring.combiners.clone();
        for target in combiners {
            if self.gate.is_active() {
                ctx.send(target, bytes.share());
            } else {
                self.run.pending_output.push((target, bytes.share()));
            }
        }
    }

    fn arm_ping(&mut self, ctx: &mut Context<'_>) {
        let finished = self.gate.is_active() && self.run.done && self.run.pending_output.is_empty();
        let past_deadline = ctx.now().as_secs_f64() >= self.config.query_deadline.as_secs_f64();
        if self.gate.rank > 0 && !finished && !past_deadline {
            self.run.ping_timer = Some(ctx.set_timer(self.config.ping_period));
        }
    }
}

impl Actor for GroupingComputerActor {
    fn restart(&mut self) -> bool {
        self.sealer.restart();
        self.gate.restart();
        self.run = Run::default();
        true
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.ledger
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .host_operator(ctx.device());
        self.arm_ping(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: DeviceId, payload: &[u8]) {
        let Ok(msg) = self.sealer.unwrap(payload) else {
            ctx.observe("corrupt_messages", 1.0);
            return;
        };
        match msg {
            Msg::PartitionData {
                query,
                partition,
                attr_group,
                columns,
                rows,
                complete,
            } if query == self.wiring.query
                && partition == self.wiring.partition
                && attr_group == self.wiring.attr_group =>
            {
                if self.run.done || self.run.staged.is_some() {
                    return; // duplicate delivery (replicated builder)
                }
                self.ledger
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .raw_tuples(ctx.device(), rows.len() as u64);
                let tuple_count = rows.len();
                self.run.staged = Some((columns, rows, complete));
                if self.config.charge_compute_time {
                    let secs = self.profile.compute_seconds(tuple_count);
                    self.run.compute_timer = Some(ctx.set_timer(Duration::from_secs_f64(secs)));
                } else {
                    self.compute_and_forward(ctx);
                }
            }
            Msg::Ping { query, .. } if query == self.wiring.query => {
                let pong = Msg::Pong {
                    query,
                    from_rank: self.gate.rank,
                };
                let bytes = self.sealer.wrap(&pong);
                ctx.send(from, bytes);
            }
            Msg::Pong { query, .. } if query == self.wiring.query => {
                self.gate.saw(from, ctx.now().as_secs_f64());
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        if Some(token) == self.run.compute_timer {
            self.run.compute_timer = None;
            self.compute_and_forward(ctx);
        } else if Some(token) == self.run.ping_timer {
            let ping = Msg::Ping {
                query: self.wiring.query,
                from_rank: self.gate.rank,
            };
            let bytes = self.sealer.wrap(&ping);
            ctx.broadcast(self.gate.lower.clone(), bytes);
            if self.gate.evaluate(
                ctx.now().as_secs_f64(),
                self.config.suspect_timeout.as_secs_f64(),
            ) {
                ctx.observe("backup_takeovers", 1.0);
                for (target, bytes) in std::mem::take(&mut self.run.pending_output) {
                    ctx.send(target, bytes);
                }
            }
            self.arm_ping(ctx);
        }
    }
}
