//! The Snapshot Builder actor: collects one partition's share of the
//! representative snapshot and ships vertical slices to its Computers.
//!
//! Contributions are read in place: the rows the quota still has room
//! for are decoded straight onto the collected rows, every other row is
//! checked and skipped unbuilt, and each slice is written from the
//! collected rows through its column indices.

use crate::config::ExecConfig;
use crate::ledger::SharedLedger;
use crate::messages::{self, kind, Msg};
use crate::roles::{RankGate, Sealer};
use edgelet_sim::{Actor, Context, Duration, TimerToken};
use edgelet_store::{Predicate, Row};
use edgelet_tee::DeviceProfile;
use edgelet_util::ids::{DeviceId, PartitionId, QueryId};
use edgelet_util::{Payload, Result};
use edgelet_wire::{Decode, Encode, FrameView, Writer};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One vertical slice this builder must produce.
#[derive(Debug, Clone)]
pub struct SliceWiring {
    /// Vertical group index.
    pub attr_group: u32,
    /// Columns of the slice.
    pub columns: Vec<String>,
    /// Devices hosting the Computer for this slice (primary + backups).
    pub targets: Vec<DeviceId>,
}

/// Static wiring of one Snapshot Builder, shared by all its replicas.
#[derive(Debug)]
pub struct BuilderWiring {
    /// Query id.
    pub query: QueryId,
    /// Partition handled.
    pub partition: PartitionId,
    /// Tuples to collect (`C / n`).
    pub quota: usize,
    /// Selection predicate contributors apply.
    pub filter: Predicate,
    /// All columns to collect (union of slice columns).
    pub columns: Vec<String>,
    /// Contributors assigned to this partition.
    pub contributors: Vec<DeviceId>,
    /// Slices to produce.
    pub slices: Vec<SliceWiring>,
}

#[derive(Default)]
enum Phase {
    #[default]
    Collecting,
    Computing,
    Shipped,
}

/// What one run of the query makes of a builder; a fresh one is the
/// constructor's.
#[derive(Default)]
struct Run {
    collected: Vec<Row>,
    responded: BTreeSet<DeviceId>,
    retries_used: u32,
    phase: Phase,
    collection_timer: Option<TimerToken>,
    retry_timer: Option<TimerToken>,
    compute_timer: Option<TimerToken>,
    ping_timer: Option<TimerToken>,
    pending_output: Vec<(DeviceId, Payload)>,
}

/// The Snapshot Builder actor.
pub struct BuilderActor {
    wiring: Arc<BuilderWiring>,
    profile: DeviceProfile,
    config: ExecConfig,
    sealer: Sealer,
    ledger: SharedLedger,
    gate: RankGate,
    run: Run,
}

impl BuilderActor {
    /// Creates a builder replica on a host with `profile`. `gate`
    /// carries the replica rank (rank 0 for the primary).
    pub fn new(
        wiring: Arc<BuilderWiring>,
        profile: DeviceProfile,
        config: ExecConfig,
        sealer: Sealer,
        ledger: SharedLedger,
        gate: RankGate,
    ) -> Self {
        Self {
            wiring,
            profile,
            config,
            sealer,
            ledger,
            gate,
            run: Run::default(),
        }
    }

    fn retries_left(&self) -> bool {
        self.run.retries_used < self.config.collection_retries
    }

    fn finish_collection(&mut self, ctx: &mut Context<'_>) {
        self.run.phase = Phase::Computing;
        if let Some(t) = self.run.collection_timer.take() {
            ctx.cancel_timer(t);
        }
        if let Some(t) = self.run.retry_timer.take() {
            ctx.cancel_timer(t);
        }
        self.ledger
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .raw_tuples(ctx.device(), self.run.collected.len() as u64);
        if self.config.charge_compute_time {
            let secs = self.profile.compute_seconds(self.run.collected.len());
            self.run.compute_timer = Some(ctx.set_timer(Duration::from_secs_f64(secs)));
        } else {
            self.ship(ctx);
        }
    }

    fn ship(&mut self, ctx: &mut Context<'_>) {
        self.run.phase = Phase::Shipped;
        let complete = self.run.collected.len() >= self.wiring.quota;
        ctx.observe(
            "partition_fill",
            self.run.collected.len() as f64 / self.wiring.quota.max(1) as f64,
        );
        let wiring = Arc::clone(&self.wiring);
        for slice in &wiring.slices {
            let columns: Vec<usize> = slice
                .columns
                .iter()
                .map(|c| {
                    wiring
                        .columns
                        .iter()
                        .position(|k| k == c)
                        // lint: allow(E104 slices are planned as subsets of the collected columns)
                        .expect("slice columns are a subset of collected columns")
                })
                .collect();
            let data = SliceData {
                wiring: &wiring,
                slice,
                columns: &columns,
                rows: &self.run.collected,
                complete,
            };
            let bytes = self.sealer.wrap_as(kind::PARTITION_DATA, &data);
            for &target in &slice.targets {
                if self.gate.is_active() {
                    ctx.send(target, bytes.share());
                } else {
                    self.run.pending_output.push((target, bytes.share()));
                }
            }
        }
    }

    fn flush_pending(&mut self, ctx: &mut Context<'_>) {
        for (target, bytes) in std::mem::take(&mut self.run.pending_output) {
            ctx.send(target, bytes);
        }
    }

    /// Interval between contribution-request rounds.
    fn retry_interval(&self) -> Duration {
        Duration::from_secs_f64(
            self.config.collection_timeout.as_secs_f64()
                / (f64::from(self.config.collection_retries) + 1.0),
        )
    }

    fn request_contributions(&mut self, ctx: &mut Context<'_>, targets: Vec<DeviceId>) {
        if targets.is_empty() {
            return;
        }
        let request = Msg::ContributeRequest {
            query: self.wiring.query,
            filter: self.wiring.filter.clone(),
            columns: self.wiring.columns.clone(),
        };
        let bytes = self.sealer.wrap(&request);
        ctx.broadcast(targets, bytes);
    }

    fn arm_ping(&mut self, ctx: &mut Context<'_>) {
        // Backups monitor lower ranks until they either take over (and
        // have flushed) or the query deadline passes; actives never ping.
        let done = self.gate.is_active()
            && matches!(self.run.phase, Phase::Shipped)
            && self.run.pending_output.is_empty();
        let past_deadline = ctx.now().as_secs_f64() >= self.config.query_deadline.as_secs_f64();
        if self.gate.rank > 0 && !done && !past_deadline {
            self.run.ping_timer = Some(ctx.set_timer(self.config.ping_period));
        }
    }
}

/// What a builder makes of a frame: a contribution is read in place,
/// anything else decoded whole.
enum Inbound {
    /// A contribution to this query id, its wanted rows already collected.
    Contribution(QueryId),
    /// Any other message.
    Other(Msg),
}

/// Reads a `Contribution` body in place. If it answers `query`, its
/// first `room` rows are decoded onto `collected`; every other row is
/// checked with [`Row::skip`] and never built. On an error `collected` is
/// truncated back to where it was.
fn collect(
    frame: FrameView<'_>,
    collected: &mut Vec<Row>,
    query: QueryId,
    room: usize,
) -> Result<QueryId> {
    let start = collected.len();
    let mut read = || {
        let mut r = messages::body(frame)?;
        let answers = QueryId::decode(&mut r)?;
        let room = if answers == query { room } else { 0 };
        for i in 0..r.seq_len_for(1)? {
            if i < room {
                collected.push(Row::decode(&mut r)?);
            } else {
                Row::skip(&mut r)?;
            }
        }
        r.expect_end()?;
        Ok(answers)
    };
    let read = read();
    if read.is_err() {
        collected.truncate(start);
    }
    read
}

/// A `PartitionData` body written straight from the collected rows, each
/// projected through the slice's column indices.
struct SliceData<'a> {
    wiring: &'a BuilderWiring,
    slice: &'a SliceWiring,
    columns: &'a [usize],
    rows: &'a [Row],
    complete: bool,
}

impl Encode for SliceData<'_> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(u64::from(kind::PARTITION_DATA));
        self.wiring.query.encode(w);
        self.wiring.partition.encode(w);
        self.slice.attr_group.encode(w);
        self.slice.columns.encode(w);
        w.put_varint(self.rows.len() as u64);
        for row in self.rows {
            row.encode_columns(self.columns, w);
        }
        self.complete.encode(w);
    }
}

impl Actor for BuilderActor {
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
        let contributors = self.wiring.contributors.clone();
        self.request_contributions(ctx, contributors);
        self.run.collection_timer = Some(ctx.set_timer(self.config.collection_timeout));
        if self.retries_left() {
            self.run.retry_timer = Some(ctx.set_timer(self.retry_interval()));
        }
        self.arm_ping(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: DeviceId, payload: &[u8]) {
        // Rows are wanted from a first answer while collecting; a late
        // answer or a duplicate (a retry round crossed it) is only checked.
        let wanted =
            matches!(self.run.phase, Phase::Collecting) && !self.run.responded.contains(&from);
        let room = if wanted {
            self.wiring.quota.saturating_sub(self.run.collected.len())
        } else {
            0
        };
        let (query, collected) = (self.wiring.query, &mut self.run.collected);
        let inbound = self.sealer.open(payload, |frame| match frame.kind {
            kind::CONTRIBUTION => collect(frame, collected, query, room).map(Inbound::Contribution),
            _ => Msg::from_frame(frame).map(Inbound::Other),
        });
        let Ok(inbound) = inbound else {
            ctx.observe("corrupt_messages", 1.0);
            return;
        };
        match inbound {
            Inbound::Contribution(q) if q == query && wanted => {
                self.run.responded.insert(from);
                if self.run.collected.len() >= self.wiring.quota {
                    self.finish_collection(ctx);
                }
            }
            Inbound::Contribution(_) => {}
            Inbound::Other(Msg::Ping { query, .. }) if query == self.wiring.query => {
                let pong = Msg::Pong {
                    query,
                    from_rank: self.gate.rank,
                };
                let bytes = self.sealer.wrap(&pong);
                ctx.send(from, bytes);
            }
            Inbound::Other(Msg::Pong { query, .. }) if query == self.wiring.query => {
                self.gate.saw(from, ctx.now().as_secs_f64());
            }
            Inbound::Other(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        if Some(token) == self.run.collection_timer {
            self.run.collection_timer = None;
            if matches!(self.run.phase, Phase::Collecting) {
                self.finish_collection(ctx);
            }
        } else if Some(token) == self.run.retry_timer {
            self.run.retry_timer = None;
            if matches!(self.run.phase, Phase::Collecting)
                && self.retries_left()
                && self.run.collected.len() < self.wiring.quota
            {
                self.run.retries_used += 1;
                ctx.observe("collection_retries", 1.0);
                let silent: Vec<DeviceId> = self
                    .wiring
                    .contributors
                    .iter()
                    .copied()
                    .filter(|d| !self.run.responded.contains(d))
                    .collect();
                self.request_contributions(ctx, silent);
                if self.retries_left() {
                    self.run.retry_timer = Some(ctx.set_timer(self.retry_interval()));
                }
            }
        } else if Some(token) == self.run.compute_timer {
            self.run.compute_timer = None;
            self.ship(ctx);
        } else if Some(token) == self.run.ping_timer {
            // Probe lower ranks and re-evaluate activation.
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
                self.flush_pending(ctx);
            }
            self.arm_ping(ctx);
        }
    }
}
