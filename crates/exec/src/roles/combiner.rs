//! The Computing Combiner actor (and its Active Backup).
//!
//! Buffers Computer outputs per partition, finalizes as soon as `n`
//! *complete* partitions are usable — or at the combine timeout with the
//! best partitions it has — and reports to the Querier. Under
//! Overcollection the Active Backup replica runs the identical logic in
//! parallel (§2.2); the Querier keeps the first result. Under Backup the
//! replicas are rank-gated like every other operator.

use crate::config::ExecConfig;
use crate::ledger::SharedLedger;
use crate::messages::{Msg, OutcomePayload};
use crate::roles::{RankGate, Sealer};
use edgelet_ml::distributed::CentroidSet;
use edgelet_ml::grouping::GroupedPartial;
use edgelet_sim::{Actor, Context, TimerToken};
use edgelet_util::ids::{DeviceId, PartitionId, QueryId};
use edgelet_util::Payload;
use edgelet_wire::to_bytes;
use std::collections::{BTreeMap, BTreeSet};

/// Which kind of partials this combiner merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinerMode {
    /// Grouping-Sets partials across `attr_groups` vertical slices.
    Grouping {
        /// Number of vertical groups per partition.
        attr_groups: u32,
    },
    /// K-Means knowledge.
    KMeans,
}

/// Static wiring of one combiner replica.
#[derive(Debug, Clone)]
pub struct CombinerWiring {
    /// Query id.
    pub query: QueryId,
    /// Minimum partitions for a valid result.
    pub n: u64,
    /// Mode.
    pub mode: CombinerMode,
    /// The Querier device.
    pub querier: DeviceId,
    /// This replica's index (0 = primary, 1 = Active Backup, ...).
    pub replica: u32,
}

#[derive(Debug, Default, Clone)]
struct GroupingPartition {
    slices: BTreeMap<u32, (GroupedPartial, bool)>,
}

#[derive(Debug, Clone)]
struct KMeansPartition {
    seed_origin: PartitionId,
    centroids: CentroidSet,
    per_cluster: GroupedPartial,
    complete: bool,
}

/// The Computing Combiner actor.
pub struct CombinerActor {
    wiring: CombinerWiring,
    config: ExecConfig,
    sealer: Sealer,
    ledger: SharedLedger,
    gate: RankGate,
    run: Run,
}

/// What one run of the query makes of a combiner; a fresh one is the
/// constructor's.
#[derive(Default)]
struct Run {
    grouping_buf: BTreeMap<PartitionId, GroupingPartition>,
    kmeans_buf: BTreeMap<PartitionId, KMeansPartition>,
    /// Partial-result slots already accepted, keyed by
    /// (partition, attr_group, sender). A duplicated or replayed partial
    /// must be merged — and ledger-charged — at most once per slot.
    seen_partials: BTreeSet<(PartitionId, u32, DeviceId)>,
    combine_timer: Option<TimerToken>,
    ping_timer: Option<TimerToken>,
    finalized: bool,
    pending_output: Option<Payload>,
}

impl CombinerActor {
    /// Creates a combiner replica.
    pub fn new(
        wiring: CombinerWiring,
        config: ExecConfig,
        sealer: Sealer,
        ledger: SharedLedger,
        gate: RankGate,
    ) -> Self {
        Self {
            wiring,
            config,
            sealer,
            ledger,
            gate,
            run: Run::default(),
        }
    }

    /// Partitions ready to merge, as `(partition, complete)` sorted by
    /// (complete desc, id asc).
    fn ready_partitions(&self) -> Vec<(PartitionId, bool)> {
        let mut out: Vec<(PartitionId, bool)> = match self.wiring.mode {
            CombinerMode::Grouping { attr_groups } => self
                .run
                .grouping_buf
                .iter()
                .filter(|(_, p)| p.slices.len() as u32 == attr_groups)
                .map(|(id, p)| (*id, p.slices.values().all(|(_, c)| *c)))
                .collect(),
            CombinerMode::KMeans => self
                .run
                .kmeans_buf
                .iter()
                .map(|(id, p)| (*id, p.complete))
                .collect(),
        };
        out.sort_by_key(|(id, complete)| (!complete, *id));
        out
    }

    fn try_early_finalize(&mut self, ctx: &mut Context<'_>) {
        if self.run.finalized {
            return;
        }
        let complete_ready = self.ready_partitions().iter().filter(|(_, c)| *c).count() as u64;
        if complete_ready >= self.wiring.n {
            self.finalize(ctx);
        }
    }

    fn finalize(&mut self, ctx: &mut Context<'_>) {
        if self.run.finalized {
            return;
        }
        self.run.finalized = true;
        if let Some(t) = self.run.combine_timer.take() {
            ctx.cancel_timer(t);
        }
        let chosen: Vec<(PartitionId, bool)> = self
            .ready_partitions()
            .into_iter()
            .take(self.wiring.n as usize)
            .collect();
        if chosen.is_empty() {
            ctx.observe("combiner_empty_finalize", 1.0);
            return;
        }
        let payload = match self.wiring.mode {
            CombinerMode::Grouping { attr_groups } => {
                let mut merged: Vec<(u32, GroupedPartial)> = (0..attr_groups)
                    .map(|g| (g, GroupedPartial::default()))
                    .collect();
                for (pid, _) in &chosen {
                    let part = &self.run.grouping_buf[pid];
                    for (g, (partial, _)) in &part.slices {
                        // Merge failures cannot occur across well-formed
                        // partials of one query; guard anyway.
                        let _ = merged[*g as usize].1.merge(partial);
                    }
                }
                OutcomePayload::Grouping(merged)
            }
            CombinerMode::KMeans => {
                // Majority seed origin wins (ties: lowest origin).
                let mut counts: BTreeMap<PartitionId, usize> = BTreeMap::new();
                for (pid, _) in &chosen {
                    *counts
                        .entry(self.run.kmeans_buf[pid].seed_origin)
                        .or_default() += 1;
                }
                let best_origin = counts
                    .iter()
                    .max_by_key(|(origin, count)| (**count, std::cmp::Reverse(**origin)))
                    .map(|(o, _)| *o)
                    // lint: allow(E104 combine fires only once a quorum of partials arrived)
                    .expect("chosen non-empty");
                let mut merged_centroids: Option<CentroidSet> = None;
                let mut merged_clusters = GroupedPartial::default();
                let mut used = 0u64;
                for (pid, _) in &chosen {
                    let part = &self.run.kmeans_buf[pid];
                    if part.seed_origin != best_origin {
                        continue;
                    }
                    used += 1;
                    let _ = merged_clusters.merge(&part.per_cluster);
                    merged_centroids = Some(match merged_centroids.take() {
                        None => part.centroids.clone(),
                        Some(mut acc) => {
                            let _ = acc.merge(&part.centroids);
                            acc
                        }
                    });
                }
                ctx.observe("kmeans_aligned_partitions", used as f64);
                OutcomePayload::KMeans {
                    // lint: allow(E104 the majority origin has at least one member by construction)
                    centroids: merged_centroids.expect("at least one aligned partition"),
                    per_cluster: merged_clusters,
                }
            }
        };

        let complete_count = chosen.iter().filter(|(_, c)| *c).count() as u64;
        let msg = Msg::FinalResult {
            query: self.wiring.query,
            payload: to_bytes(&payload),
            partitions_merged: chosen.len() as u64,
            partitions_complete: complete_count,
            replica: self.wiring.replica,
        };
        let bytes = self.sealer.wrap(&msg);
        if self.gate.is_active() {
            ctx.send(self.wiring.querier, bytes);
        } else {
            self.run.pending_output = Some(bytes);
        }
    }

    fn arm_ping(&mut self, ctx: &mut Context<'_>) {
        let done = self.gate.is_active() && self.run.finalized && self.run.pending_output.is_none();
        let past_deadline = ctx.now().as_secs_f64() >= self.config.query_deadline.as_secs_f64();
        if self.gate.rank > 0 && !done && !past_deadline {
            self.run.ping_timer = Some(ctx.set_timer(self.config.ping_period));
        }
    }
}

impl Actor for CombinerActor {
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
        self.run.combine_timer = Some(ctx.set_timer(self.config.combine_timeout));
        self.arm_ping(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: DeviceId, payload: &[u8]) {
        let Ok(msg) = self.sealer.unwrap(payload) else {
            ctx.observe("corrupt_messages", 1.0);
            return;
        };
        match msg {
            Msg::GroupingPartial {
                query,
                partition,
                attr_group,
                partial,
                complete,
                ..
            } if query == self.wiring.query => {
                if self.run.finalized {
                    return;
                }
                if !self.run.seen_partials.insert((partition, attr_group, from)) {
                    ctx.observe("duplicate_partials", 1.0);
                    return;
                }
                self.ledger
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .aggregates(ctx.device(), 1);
                self.run
                    .grouping_buf
                    .entry(partition)
                    .or_default()
                    .slices
                    .entry(attr_group)
                    .or_insert((partial, complete));
                self.try_early_finalize(ctx);
            }
            Msg::KMeansFinal {
                query,
                partition,
                seed_origin,
                centroids,
                per_cluster,
                complete,
                ..
            } if query == self.wiring.query => {
                if self.run.finalized {
                    return;
                }
                if !self.run.seen_partials.insert((partition, 0, from)) {
                    ctx.observe("duplicate_partials", 1.0);
                    return;
                }
                self.ledger
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .aggregates(ctx.device(), 1);
                self.run
                    .kmeans_buf
                    .entry(partition)
                    .or_insert(KMeansPartition {
                        seed_origin,
                        centroids,
                        per_cluster,
                        complete,
                    });
                self.try_early_finalize(ctx);
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
        if Some(token) == self.run.combine_timer {
            self.run.combine_timer = None;
            self.finalize(ctx);
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
                if let Some(bytes) = self.run.pending_output.take() {
                    ctx.send(self.wiring.querier, bytes);
                }
            }
            self.arm_ping(ctx);
        }
    }
}
