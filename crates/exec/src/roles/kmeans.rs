//! The Computer actor for iterative K-Means (§2.2).
//!
//! Each computer alternates a *local convergence* phase (Lloyd steps on
//! its partition) and a *synchronization* phase (merging peer knowledge),
//! cadenced by a Heartbeat clock: rounds advance even when no peer
//! messages arrived. Right before the deadline (after the configured
//! number of heartbeats) the knowledge goes to the Combiner replicas.
//!
//! Centroid alignment: index-wise merging is only meaningful when peers
//! share a seeding. Every computer initially seeds k-means++ on its own
//! partition and tags its knowledge with a *seed origin* (its partition
//! id). On hearing knowledge with a lower origin it adopts that basis;
//! under loss some computers may stay on their own basis, which shows up
//! as accuracy degradation — exactly what experiment E4 measures.

use crate::config::ExecConfig;
use crate::ledger::SharedLedger;
use crate::messages::Msg;
use crate::roles::Sealer;
use edgelet_ml::distributed::CentroidSet;
use edgelet_ml::gen::rows_to_points;
use edgelet_ml::grouping::{GroupedPartial, GroupingQuery};
use edgelet_ml::kmeans::{kmeans_pp_seed, nearest, KMeans, LloydScratch};
use edgelet_ml::{AggSpec, Matrix};
use edgelet_sim::{Actor, Context, TimerToken};
use edgelet_store::value::Value;
use edgelet_store::{ColumnType, Row, Schema};
use edgelet_util::ids::{DeviceId, PartitionId, QueryId};

/// Static wiring of one K-Means computer.
#[derive(Debug, Clone)]
pub struct KMeansWiring {
    /// Query id.
    pub query: QueryId,
    /// Partition handled.
    pub partition: PartitionId,
    /// Number of clusters.
    pub k: usize,
    /// Feature column names.
    pub features: Vec<String>,
    /// Aggregates computed per resulting cluster.
    pub per_cluster_aggregates: Vec<AggSpec>,
    /// Total heartbeat rounds before finalization.
    pub heartbeats: usize,
    /// Peer computers (knowledge broadcast targets).
    pub peers: Vec<DeviceId>,
    /// Combiner replica devices.
    pub combiners: Vec<DeviceId>,
}

/// The iterative K-Means Computer actor.
pub struct KMeansComputerActor {
    wiring: KMeansWiring,
    config: ExecConfig,
    sealer: Sealer,
    ledger: SharedLedger,
    schema: Schema,
    run: Run,
}

/// What one run of the query makes of a computer; a fresh one
/// ([`Run::fresh`]) is the constructor's.
#[derive(Default)]
struct Run {
    heartbeat_timer: Option<TimerToken>,
    round: u32,
    /// Local data: full rows (for per-cluster aggregates) and points.
    rows: Vec<Row>,
    row_columns: Vec<String>,
    points: Matrix,
    complete: bool,
    km: Option<KMeans>,
    seed_origin: PartitionId,
    /// Peer knowledge received since the last synchronization.
    mailbox: Vec<(PartitionId, CentroidSet)>,
    finished: bool,
}

impl Run {
    /// Every computer starts on its own partition's seeding basis.
    fn fresh(wiring: &KMeansWiring) -> Run {
        Run {
            seed_origin: wiring.partition,
            ..Run::default()
        }
    }
}

impl KMeansComputerActor {
    /// Creates a K-Means computer.
    pub fn new(
        wiring: KMeansWiring,
        config: ExecConfig,
        sealer: Sealer,
        ledger: SharedLedger,
        schema: Schema,
    ) -> Self {
        Self {
            run: Run::fresh(&wiring),
            wiring,
            config,
            sealer,
            ledger,
            schema,
        }
    }

    fn sub_schema(&self) -> Option<Schema> {
        let names: Vec<&str> = self.run.row_columns.iter().map(|s| s.as_str()).collect();
        self.schema.project(&names).ok()
    }

    fn seed_if_needed(&mut self, ctx: &mut Context<'_>) {
        if self.run.km.is_some() || self.run.points.is_empty() {
            return;
        }
        let mut seeds =
            // lint: allow(E104 the points-empty case returns early two lines up)
            kmeans_pp_seed(&self.run.points, self.wiring.k, ctx.rng()).expect("points non-empty");
        // Keep k consistent across the crowd even on tiny partitions.
        while seeds.len() < self.wiring.k {
            let last = seeds.row(seeds.len() - 1).to_vec();
            seeds.push_row(&last);
        }
        self.run.km = Some(KMeans::from_centroids(seeds));
    }

    /// Local convergence on (a mini-batch of) the local partition.
    fn local_convergence(&mut self, ctx: &mut Context<'_>) {
        let Some(km) = self.run.km.as_mut() else {
            return;
        };
        if self.run.points.is_empty() {
            return;
        }
        // Full batches borrow the stored matrix directly; mini-batches
        // gather the sampled rows into one contiguous buffer.
        let sampled;
        let batch: &Matrix = match self.config.minibatch_fraction {
            None => &self.run.points,
            Some(f) => {
                let size = ((self.run.points.len() as f64 * f).ceil() as usize)
                    .clamp(1, self.run.points.len());
                let indices = ctx.rng().sample_indices(self.run.points.len(), size);
                sampled = self.run.points.gather(&indices);
                &sampled
            }
        };
        let mut scratch = LloydScratch::default();
        for _ in 0..self.config.lloyd_steps_per_heartbeat {
            if !km.lloyd_step_with(batch, &mut scratch) {
                break;
            }
        }
        // Refresh weights to the local assignment counts once more (the
        // final lloyd_step already did; this guards the zero-step case).
        if self.config.lloyd_steps_per_heartbeat == 0 {
            km.lloyd_step_with(batch, &mut scratch);
        }
    }

    /// Synchronization: adopt lower-origin bases, merge same-origin peers.
    fn synchronize(&mut self, ctx: &mut Context<'_>) {
        let mailbox = std::mem::take(&mut self.run.mailbox);
        for (origin, knowledge) in mailbox {
            if self.run.km.is_none() {
                // No local data yet: adopt any knowledge as the basis.
                self.run.km = Some(KMeans {
                    centroids: knowledge.centroids.clone(),
                    weights: knowledge.weights.clone(),
                });
                self.run.seed_origin = origin;
                continue;
            }
            if origin < self.run.seed_origin {
                // Lower origin wins: re-base on the peer's centroids.
                self.run.km = Some(KMeans {
                    centroids: knowledge.centroids.clone(),
                    weights: vec![0.0; knowledge.centroids.len()],
                });
                self.run.seed_origin = origin;
                ctx.observe("seed_rebase", 1.0);
            } else if origin == self.run.seed_origin {
                // lint: allow(E104 the km-is-none arm continues the loop above)
                let km = self.run.km.as_mut().expect("checked above");
                let mut mine = CentroidSet {
                    centroids: km.centroids.clone(),
                    weights: km.weights.clone(),
                };
                if mine.merge(&knowledge).is_ok() {
                    km.centroids = mine.centroids;
                    km.weights = mine.weights;
                }
            }
            // Higher origin: stale basis, ignored.
        }
    }

    fn broadcast_knowledge(&mut self, ctx: &mut Context<'_>) {
        let Some(km) = &self.run.km else { return };
        let Ok(centroids) = CentroidSet::new(km.centroids.clone(), km.weights.clone()) else {
            return;
        };
        let msg = Msg::Knowledge {
            query: self.wiring.query,
            partition: self.wiring.partition,
            round: self.run.round,
            seed_origin: self.run.seed_origin,
            centroids,
        };
        let bytes = self.sealer.wrap(&msg);
        ctx.broadcast(self.wiring.peers.clone(), bytes);
    }

    /// Per-cluster aggregates over the local rows under the final model.
    fn per_cluster_partial(&self) -> GroupedPartial {
        let empty = GroupedPartial::default();
        let Some(km) = &self.run.km else { return empty };
        let Some(sub_schema) = self.sub_schema() else {
            return empty;
        };
        if self.wiring.per_cluster_aggregates.is_empty() {
            return empty;
        }
        // Augment each row with its cluster id and aggregate per cluster.
        let mut aug_cols: Vec<(&str, ColumnType)> = vec![("__cluster", ColumnType::Int)];
        for c in sub_schema.columns() {
            aug_cols.push((c.name.as_str(), c.ty));
        }
        let Ok(aug_schema) = Schema::new(aug_cols) else {
            return empty;
        };
        let feature_names: Vec<&str> = self.wiring.features.iter().map(|s| s.as_str()).collect();
        let Ok(feat_idx) = feature_names
            .iter()
            .map(|c| sub_schema.index_of(c))
            .collect::<edgelet_util::Result<Vec<usize>>>()
        else {
            return empty;
        };
        let mut aug_rows = Vec::with_capacity(self.run.rows.len());
        'rows: for row in &self.run.rows {
            let mut p = Vec::with_capacity(feat_idx.len());
            for &i in &feat_idx {
                match row.get(i).and_then(|v| v.as_f64()) {
                    Some(x) => p.push(x),
                    None => continue 'rows,
                }
            }
            let cluster = nearest(&km.centroids, &p);
            let mut values = Vec::with_capacity(row.arity() + 1);
            values.push(Value::Int(cluster as i64));
            values.extend(row.values().iter().cloned());
            aug_rows.push(Row::new(values));
        }
        let q = GroupingQuery {
            sets: vec![vec!["__cluster".to_string()]],
            aggregates: self.wiring.per_cluster_aggregates.clone(),
        };
        q.compute(&aug_schema, &aug_rows).unwrap_or(empty)
    }

    fn finalize(&mut self, ctx: &mut Context<'_>) {
        self.run.finished = true;
        let Some(km) = &self.run.km else {
            return; // never got data nor knowledge: this partition is lost
        };
        let Ok(centroids) = CentroidSet::new(km.centroids.clone(), km.weights.clone()) else {
            return;
        };
        let per_cluster = self.per_cluster_partial();
        let msg = Msg::KMeansFinal {
            query: self.wiring.query,
            partition: self.wiring.partition,
            seed_origin: self.run.seed_origin,
            centroids,
            per_cluster,
            tuples: self.run.points.len() as u64,
            complete: self.run.complete,
        };
        let bytes = self.sealer.wrap(&msg);
        ctx.broadcast(self.wiring.combiners.clone(), bytes);
        ctx.observe("kmeans_rounds_completed", f64::from(self.run.round));
    }
}

impl Actor for KMeansComputerActor {
    fn restart(&mut self) -> bool {
        self.sealer.restart();
        self.run = Run::fresh(&self.wiring);
        true
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.ledger
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .host_operator(ctx.device());
        // The Heartbeat cadences the COMPUTATION phase: it starts ticking
        // when the partition data arrives (see on_message), not before.
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: DeviceId, payload: &[u8]) {
        let Ok(msg) = self.sealer.unwrap(payload) else {
            ctx.observe("corrupt_messages", 1.0);
            return;
        };
        match msg {
            Msg::PartitionData {
                query,
                partition,
                columns,
                rows,
                complete,
                ..
            } if query == self.wiring.query && partition == self.wiring.partition => {
                if !self.run.rows.is_empty() {
                    return; // duplicate
                }
                self.ledger
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .raw_tuples(ctx.device(), rows.len() as u64);
                self.run.row_columns = columns;
                self.run.rows = rows;
                self.run.complete = complete;
                if let Some(sub_schema) = self.sub_schema() {
                    let feature_names: Vec<&str> =
                        self.wiring.features.iter().map(|s| s.as_str()).collect();
                    if let Ok(points) = rows_to_points(&sub_schema, &self.run.rows, &feature_names)
                    {
                        self.run.points = points;
                    }
                }
                self.seed_if_needed(ctx);
                if self.run.heartbeat_timer.is_none() && !self.run.finished {
                    self.run.heartbeat_timer = Some(ctx.set_timer(self.config.heartbeat_period));
                }
            }
            Msg::Knowledge {
                query,
                partition,
                seed_origin,
                centroids,
                ..
            } if query == self.wiring.query && partition != self.wiring.partition => {
                self.ledger
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .aggregates(ctx.device(), 1);
                self.run.mailbox.push((seed_origin, centroids));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        if Some(token) != self.run.heartbeat_timer || self.run.finished {
            return;
        }
        self.run.round += 1;
        // Synchronization first (integrate what we heard), then local
        // convergence, then broadcast the improved knowledge.
        self.synchronize(ctx);
        self.seed_if_needed(ctx);
        self.local_convergence(ctx);
        self.broadcast_knowledge(ctx);
        if (self.run.round as usize) >= self.wiring.heartbeats {
            self.finalize(ctx);
        } else {
            self.run.heartbeat_timer = Some(ctx.set_timer(self.config.heartbeat_period));
        }
    }
}
