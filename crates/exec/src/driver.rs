//! Wiring a [`QueryPlan`] onto a [`Simulation`] and reporting the outcome.

use crate::config::ExecConfig;
use crate::ledger::{self, Ledger};
use crate::messages::OutcomePayload;
use crate::roles::builder::{BuilderActor, BuilderWiring, SliceWiring};
use crate::roles::combiner::{CombinerActor, CombinerMode, CombinerWiring};
use crate::roles::computer::{ComputerWiring, GroupingComputerActor};
use crate::roles::contributor::ContributorActor;
use crate::roles::kmeans::{KMeansComputerActor, KMeansWiring};
use crate::roles::querier::{self, QuerierActor, SharedRecord};
use crate::roles::{RankGate, Sealer};
use edgelet_ml::distributed::CentroidSet;
use edgelet_ml::grouping::{GroupingQuery, ResultRow, ResultTable};
use edgelet_query::{OperatorRole, QueryPlan, Strategy};
use edgelet_sim::{Actor, Duration, SimMetrics, SimTime, Simulation};
use edgelet_store::value::Value;
use edgelet_store::{DataStore, Schema};
use edgelet_tee::{DeviceClass, Directory};
use edgelet_util::ids::DeviceId;
use edgelet_util::{Error, Result};
use edgelet_wire::from_bytes;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The decoded final result of a query.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// Grouping-Sets result (aggregates in the spec's order).
    Grouping(ResultTable),
    /// K-Means result.
    KMeans {
        /// Combined centroids.
        centroids: CentroidSet,
        /// Per-cluster aggregates (when the spec requested them).
        per_cluster: Option<ResultTable>,
    },
}

/// Everything the demo platform reports about one execution.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// The Querier received a result before the deadline.
    pub completed: bool,
    /// Virtual completion time, seconds.
    pub completion_secs: Option<f64>,
    /// Structural validity: at least `n` *complete* partitions merged.
    pub valid: bool,
    /// Partitions merged into the delivered result.
    pub partitions_merged: u64,
    /// Of which met their cardinality quota.
    pub partitions_complete: u64,
    /// Combiner replica that won the race (0 = primary).
    pub winning_replica: u32,
    /// Result copies the Querier received (Active Backups duplicate).
    pub results_received: u64,
    /// The decoded result.
    pub outcome: Option<QueryOutcome>,
    /// Protocol messages sent.
    pub messages_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages lost to the network.
    pub messages_dropped: u64,
    /// Messages that waited in store-and-forward queues.
    pub messages_deferred: u64,
    /// Devices that crashed during the window.
    pub crashes: u64,
    /// Device disconnections during the window.
    pub disconnections: u64,
    /// Crowd-liability ledger.
    pub ledger: Ledger,
    /// The raw combiner result payload the Querier received, byte for
    /// byte. The cross-engine parity harness compares this between the
    /// simulator and the live runtime.
    pub result_payload: Option<Vec<u8>>,
}

/// The fully wired actor set for one plan, ready to install on any host
/// engine (the simulator or the live runtime).
///
/// Produced by [`assemble_plan`]; the install order is part of the
/// deterministic contract — hosts must install the actors in the order
/// given, because installation consumes per-device event sequence
/// numbers.
pub struct PlanAssembly {
    /// `(device, actor)` pairs in canonical install order.
    pub installs: Vec<(DeviceId, Box<dyn Actor>)>,
    /// The shared crowd-liability ledger all actors charge into.
    pub ledger: ledger::SharedLedger,
    /// The Querier's shared outcome record.
    pub record: SharedRecord,
    /// Per-vertical-group sliced queries (empty for K-Means).
    pub sliced_queries: Vec<GroupingQuery>,
    /// The validated exec config, with `query_deadline` set from the plan.
    pub config: ExecConfig,
}

impl PlanAssembly {
    /// Clears the shared ledger and the querier record in place, back to
    /// what [`assemble_plan`] made them, so every installed actor's handle
    /// stays valid for a world that runs again.
    pub fn restart(&self) {
        *self.ledger.lock().unwrap_or_else(|e| e.into_inner()) = Ledger::default();
        *self.record.lock().unwrap_or_else(|e| e.into_inner()) = querier::QuerierRecord::default();
    }
}

/// Installs all actors for `plan` on `sim` and runs until the query
/// deadline. The `stores` map provides each Data Contributor's personal
/// store; `device_classes` gives per-device hardware profiles (defaults
/// to SGX PC when absent).
pub fn execute_plan(
    plan: &QueryPlan,
    schema: &Schema,
    stores: &BTreeMap<DeviceId, DataStore>,
    device_classes: &BTreeMap<DeviceId, DeviceClass>,
    sim: &mut Simulation,
    config: &ExecConfig,
    root_secret: [u8; 32],
) -> Result<ExecutionReport> {
    let PlanAssembly {
        installs,
        ledger,
        record,
        sliced_queries,
        ..
    } = assemble_plan(
        plan,
        schema,
        stores,
        device_classes,
        config,
        root_secret,
        sim.now().as_secs_f64(),
    )?;
    for (dev, actor) in installs {
        sim.install_actor(dev, actor);
    }

    // ---- run to the deadline ----
    let deadline = sim.now() + Duration::from_secs_f64(plan.spec.deadline_secs);
    sim.run_until(deadline);
    finish_report(plan, &sliced_queries, &record, &ledger, sim.metrics())
}

/// Performs the static preflight and wires every role actor for `plan`,
/// without touching any engine: the returned [`PlanAssembly`] can be
/// installed on a [`Simulation`] (as [`execute_plan`] does) or handed to
/// the live runtime. `now_secs` is the host's current virtual time,
/// seeding the replica [`RankGate`]s.
pub fn assemble_plan(
    plan: &QueryPlan,
    schema: &Schema,
    stores: &BTreeMap<DeviceId, DataStore>,
    device_classes: &BTreeMap<DeviceId, DeviceClass>,
    config: &ExecConfig,
    root_secret: [u8; 32],
    now_secs: f64,
) -> Result<PlanAssembly> {
    // Deny-by-default static preflight: structure, liability, and
    // deadline feasibility. Subsumes the older `check_plan` invariants.
    edgelet_analyze::preflight(plan)?;
    let mut config = config.clone();
    config.query_deadline = Duration::from_secs_f64(plan.spec.deadline_secs);
    // Timer-ordering sanity (ping vs suspicion, collection vs combine vs
    // deadline): a mis-timed profile fails here, not as an empty run.
    config.validate()?;
    if matches!(plan.spec.kind, edgelet_query::QueryKind::KMeans { .. })
        && plan.strategy == Strategy::Backup
    {
        return Err(Error::InvalidConfig(
            "the Backup strategy does not support iterative K-Means; \
             use Overcollection (see DESIGN.md)"
                .into(),
        ));
    }

    let query = plan.spec.id;
    let ledger = ledger::shared();
    let record = querier::shared_record();
    let class_of = |d: DeviceId| {
        device_classes
            .get(&d)
            .copied()
            .unwrap_or(DeviceClass::SgxPc)
            .profile()
    };
    let sealer_for = |d: DeviceId| Sealer::new(config.encrypt_channels, &root_secret, query, d);
    let mut installs: Vec<(DeviceId, Box<dyn Actor>)> = Vec::new();

    // Guard against double-installation: each device hosts one actor.
    let mut occupied: BTreeSet<DeviceId> = BTreeSet::new();
    let mut claim = |d: DeviceId, role: &str| -> Result<()> {
        if !occupied.insert(d) {
            return Err(Error::InvalidConfig(format!(
                "device {d} would host two actors (second: {role}); \
                 enroll distinct devices for contributor/processor/querier roles"
            )));
        }
        Ok(())
    };

    // ---- contributors ----
    let mut all_contributors: Vec<DeviceId> = plan.contributors.iter().flatten().copied().collect();
    all_contributors.sort_unstable();
    all_contributors.dedup();
    for &dev in &all_contributors {
        let store = stores
            .get(&dev)
            .ok_or_else(|| Error::InvalidConfig(format!("no data store for contributor {dev}")))?;
        claim(dev, "contributor")?;
        installs.push((
            dev,
            Box::new(ContributorActor::new(
                query,
                store.clone(),
                sealer_for(dev),
                ledger.clone(),
                plan.partition_quota,
            )),
        ));
    }

    // ---- index operators ----
    let combiner_ops = plan.combiners();
    let mut combiner_devices: Vec<DeviceId> = Vec::new();
    for c in &combiner_ops {
        combiner_devices.push(c.device);
        combiner_devices.extend(c.backups.iter().copied());
    }

    // The union of referenced computation columns, shipped by builders.
    let mut snapshot_columns: Vec<String> = plan
        .attr_groups
        .iter()
        .flatten()
        .cloned()
        .collect::<Vec<_>>();
    snapshot_columns.sort();
    snapshot_columns.dedup();

    // Sliced grouping queries per vertical group.
    let sliced_queries: Vec<GroupingQuery> = match &plan.spec.kind {
        edgelet_query::QueryKind::GroupingSets(q) => plan
            .attr_group_aggregates
            .iter()
            .map(|idxs| GroupingQuery {
                sets: q.sets.clone(),
                aggregates: idxs.iter().map(|&i| q.aggregates[i].clone()).collect(),
            })
            .collect(),
        edgelet_query::QueryKind::KMeans { .. } => Vec::new(),
    };

    // Computer devices per (partition, group): primary + backups.
    let mut computer_targets: BTreeMap<(u64, u32), Vec<DeviceId>> = BTreeMap::new();
    for op in &plan.operators {
        if let OperatorRole::Computer {
            partition,
            attr_group,
        } = op.role
        {
            let entry = computer_targets
                .entry((partition.raw(), attr_group))
                .or_default();
            entry.push(op.device);
            entry.extend(op.backups.iter().copied());
        }
    }

    // All K-Means computer devices (peer broadcast set).
    let kmeans_peers: Vec<DeviceId> = plan
        .operators
        .iter()
        .filter(|o| matches!(o.role, OperatorRole::Computer { .. }))
        .map(|o| o.device)
        .collect();

    // ---- builders and computers ----
    for op in &plan.operators {
        match op.role {
            OperatorRole::SnapshotBuilder { partition } => {
                let slices: Vec<SliceWiring> = (0..plan.attr_groups.len())
                    .map(|g| SliceWiring {
                        attr_group: g as u32,
                        columns: plan.attr_groups[g].clone(),
                        targets: computer_targets[&(partition.raw(), g as u32)].clone(),
                    })
                    .collect();
                let wiring = Arc::new(BuilderWiring {
                    query,
                    partition,
                    quota: plan.partition_quota,
                    filter: plan.spec.filter.clone(),
                    columns: snapshot_columns.clone(),
                    contributors: plan.contributors[partition.index()].clone(),
                    slices,
                });
                let replica_chain: Vec<DeviceId> = std::iter::once(op.device)
                    .chain(op.backups.iter().copied())
                    .collect();
                for (rank, &dev) in replica_chain.iter().enumerate() {
                    claim(dev, "snapshot-builder")?;
                    let gate = RankGate::new(rank as u32, replica_chain[..rank].to_vec(), now_secs);
                    installs.push((
                        dev,
                        Box::new(BuilderActor::new(
                            Arc::clone(&wiring),
                            class_of(dev),
                            config.clone(),
                            sealer_for(dev),
                            ledger.clone(),
                            gate,
                        )),
                    ));
                }
            }
            OperatorRole::Computer {
                partition,
                attr_group,
            } => match &plan.spec.kind {
                edgelet_query::QueryKind::GroupingSets(_) => {
                    let wiring = Arc::new(ComputerWiring {
                        query,
                        partition,
                        attr_group,
                        sliced_query: sliced_queries[attr_group as usize].clone(),
                        combiners: combiner_devices.clone(),
                    });
                    let replica_chain: Vec<DeviceId> = std::iter::once(op.device)
                        .chain(op.backups.iter().copied())
                        .collect();
                    for (rank, &dev) in replica_chain.iter().enumerate() {
                        claim(dev, "computer")?;
                        let gate =
                            RankGate::new(rank as u32, replica_chain[..rank].to_vec(), now_secs);
                        installs.push((
                            dev,
                            Box::new(GroupingComputerActor::new(
                                Arc::clone(&wiring),
                                class_of(dev),
                                config.clone(),
                                sealer_for(dev),
                                ledger.clone(),
                                schema.clone(),
                                gate,
                            )),
                        ));
                    }
                }
                edgelet_query::QueryKind::KMeans {
                    k,
                    features,
                    heartbeats,
                    per_cluster_aggregates,
                } => {
                    claim(op.device, "kmeans-computer")?;
                    let peers: Vec<DeviceId> = kmeans_peers
                        .iter()
                        .copied()
                        .filter(|&d| d != op.device)
                        .collect();
                    let wiring = KMeansWiring {
                        query,
                        partition,
                        k: *k,
                        features: features.clone(),
                        per_cluster_aggregates: per_cluster_aggregates.clone(),
                        heartbeats: *heartbeats,
                        peers,
                        combiners: combiner_devices.clone(),
                    };
                    installs.push((
                        op.device,
                        Box::new(KMeansComputerActor::new(
                            wiring,
                            config.clone(),
                            sealer_for(op.device),
                            ledger.clone(),
                            schema.clone(),
                        )),
                    ));
                }
            },
            OperatorRole::Combiner { replica } => {
                let mode = match &plan.spec.kind {
                    edgelet_query::QueryKind::GroupingSets(_) => CombinerMode::Grouping {
                        attr_groups: plan.attr_groups.len() as u32,
                    },
                    edgelet_query::QueryKind::KMeans { .. } => CombinerMode::KMeans,
                };
                let wiring = CombinerWiring {
                    query,
                    n: plan.n,
                    mode,
                    querier: plan.querier().device,
                    replica,
                };
                let replica_chain: Vec<DeviceId> = std::iter::once(op.device)
                    .chain(op.backups.iter().copied())
                    .collect();
                for (rank, &dev) in replica_chain.iter().enumerate() {
                    claim(dev, "combiner")?;
                    let mut gate =
                        RankGate::new(rank as u32, replica_chain[..rank].to_vec(), now_secs);
                    // Overcollection's Active Backup replicas run in
                    // parallel by design.
                    if plan.strategy != Strategy::Backup {
                        gate.force_active();
                    }
                    installs.push((
                        dev,
                        Box::new(CombinerActor::new(
                            wiring.clone(),
                            config.clone(),
                            sealer_for(dev),
                            ledger.clone(),
                            gate,
                        )),
                    ));
                }
            }
            OperatorRole::Querier => {
                claim(op.device, "querier")?;
                installs.push((
                    op.device,
                    Box::new(QuerierActor::new(
                        query,
                        sealer_for(op.device),
                        record.clone(),
                    )),
                ));
            }
        }
    }

    Ok(PlanAssembly {
        installs,
        ledger,
        record,
        sliced_queries,
        config,
    })
}

/// Assembles the [`ExecutionReport`] for a finished run from the shared
/// state an assembly's actors wrote into, plus the host's metrics.
pub fn finish_report(
    plan: &QueryPlan,
    sliced_queries: &[GroupingQuery],
    record: &SharedRecord,
    ledger: &ledger::SharedLedger,
    metrics: &SimMetrics,
) -> Result<ExecutionReport> {
    let rec = record.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let outcome = match &rec.payload {
        None => None,
        Some(bytes) => Some(decode_outcome(plan, sliced_queries, bytes)?),
    };
    let valid = rec.payload.is_some() && rec.partitions_complete >= plan.n;
    let final_ledger = ledger.lock().unwrap_or_else(|e| e.into_inner()).clone();
    Ok(ExecutionReport {
        completed: rec.payload.is_some(),
        completion_secs: rec.completed_at.map(SimTime::as_secs_f64),
        valid,
        partitions_merged: rec.partitions_merged,
        partitions_complete: rec.partitions_complete,
        winning_replica: rec.winning_replica,
        results_received: rec.results_received,
        outcome,
        messages_sent: metrics.messages_sent,
        bytes_sent: metrics.bytes_sent,
        messages_dropped: metrics.messages_dropped,
        messages_deferred: metrics.messages_deferred,
        crashes: metrics.crashes,
        disconnections: metrics.disconnections,
        ledger: final_ledger,
        result_payload: rec.payload,
    })
}

/// Decodes and reassembles the combiner payload into the final outcome.
fn decode_outcome(
    plan: &QueryPlan,
    sliced_queries: &[GroupingQuery],
    bytes: &[u8],
) -> Result<QueryOutcome> {
    let payload: OutcomePayload = from_bytes(bytes)?;
    match (payload, &plan.spec.kind) {
        (OutcomePayload::Grouping(groups), edgelet_query::QueryKind::GroupingSets(q)) => {
            // Reassemble: per-slice tables joined on (set, key), aggregate
            // values placed at their original indices.
            let total_aggs = q.aggregates.len();
            let mut assembled: BTreeMap<(u32, Vec<String>, Vec<String>), Vec<Value>> =
                BTreeMap::new();
            for (g, partial) in &groups {
                let sliced = sliced_queries
                    .get(*g as usize)
                    .ok_or_else(|| Error::Protocol(format!("unknown slice {g}")))?;
                let table = sliced.finalize(partial);
                let agg_indices = &plan.attr_group_aggregates[*g as usize];
                for row in table.rows {
                    let key_repr: Vec<String> = row.key.iter().map(|v| v.to_string()).collect();
                    let entry = assembled
                        .entry((row.set_index, row.group_columns.clone(), key_repr))
                        .or_insert_with(|| vec![Value::Null; total_aggs]);
                    for (local, &orig) in agg_indices.iter().enumerate() {
                        entry[orig] = row.aggregates[local].clone();
                    }
                }
            }
            // Keys were stringified for map ordering; rebuild result rows
            // with the original typed keys by re-walking the tables.
            let mut rows: Vec<ResultRow> = Vec::with_capacity(assembled.len());
            let mut seen: BTreeSet<(u32, Vec<String>, Vec<String>)> = BTreeSet::new();
            for (g, partial) in &groups {
                let sliced = &sliced_queries[*g as usize];
                let table = sliced.finalize(partial);
                for row in table.rows {
                    let key_repr: Vec<String> = row.key.iter().map(|v| v.to_string()).collect();
                    let map_key = (row.set_index, row.group_columns.clone(), key_repr);
                    if !seen.insert(map_key.clone()) {
                        continue;
                    }
                    let aggregates = assembled[&map_key].clone();
                    rows.push(ResultRow {
                        set_index: row.set_index,
                        group_columns: row.group_columns,
                        key: row.key,
                        aggregates,
                    });
                }
            }
            rows.sort_by(|a, b| {
                (a.set_index, format!("{:?}", a.key)).cmp(&(b.set_index, format!("{:?}", b.key)))
            });
            Ok(QueryOutcome::Grouping(ResultTable {
                aggregate_names: q.aggregates.iter().map(|a| a.to_string()).collect(),
                rows,
            }))
        }
        (
            OutcomePayload::KMeans {
                centroids,
                per_cluster,
            },
            edgelet_query::QueryKind::KMeans {
                per_cluster_aggregates,
                ..
            },
        ) => {
            let table = if per_cluster_aggregates.is_empty() {
                None
            } else {
                let q = GroupingQuery {
                    sets: vec![vec!["__cluster".to_string()]],
                    aggregates: per_cluster_aggregates.clone(),
                };
                Some(q.finalize(&per_cluster))
            };
            Ok(QueryOutcome::KMeans {
                centroids,
                per_cluster: table,
            })
        }
        _ => Err(Error::Protocol(
            "result payload does not match the query kind".into(),
        )),
    }
}

/// Convenience used by tests and the platform crate: enrolls `n` devices
/// in a directory and returns matching per-device stores.
pub fn enroll_crowd(
    directory: &mut Directory,
    sim: &mut Simulation,
    contributors: usize,
    processors: usize,
    class: DeviceClass,
    rows_per_contributor: usize,
    rng: &mut edgelet_util::rng::DetRng,
) -> (BTreeMap<DeviceId, DataStore>, Vec<DeviceId>) {
    use edgelet_sim::DeviceConfig;
    let mut stores = BTreeMap::new();
    let mut devices = Vec::new();
    for i in 0..(contributors + processors) {
        let dev = sim.add_device(DeviceConfig::default());
        let is_contributor = i < contributors;
        directory.enroll(dev, class, is_contributor, !is_contributor, rng);
        if is_contributor {
            let mut store_rng = rng.fork_indexed("crowd-store", dev.raw());
            stores.insert(
                dev,
                edgelet_store::synth::health_store(rows_per_contributor, &mut store_rng),
            );
        }
        devices.push(dev);
    }
    (stores, devices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgelet_ml::grouping::GroupingQuery;
    use edgelet_ml::{AggKind, AggSpec};
    use edgelet_query::plan::build_plan;
    use edgelet_query::{PrivacyConfig, QueryKind, QuerySpec, ResilienceConfig, Strategy};
    use edgelet_sim::{DeviceConfig, NetworkModel, SimConfig, Simulation};
    use edgelet_store::synth::health_schema;
    use edgelet_store::{CmpOp, Predicate};
    use edgelet_util::ids::QueryId;
    use edgelet_util::rng::DetRng;

    fn grouping_spec(c: usize) -> QuerySpec {
        QuerySpec {
            id: QueryId::new(1),
            filter: Predicate::cmp("age", CmpOp::Gt, Value::Int(65)),
            snapshot_cardinality: c,
            kind: QueryKind::GroupingSets(GroupingQuery::new(
                &[&["sex"], &[]],
                vec![
                    AggSpec::count_star(),
                    AggSpec::over(AggKind::Avg, "bmi"),
                    AggSpec::over(AggKind::Max, "systolic_bp"),
                ],
            )),
            deadline_secs: 600.0,
        }
    }

    struct World {
        sim: Simulation,
        directory: Directory,
        stores: BTreeMap<DeviceId, DataStore>,
        querier: DeviceId,
        rng: DetRng,
    }

    fn reliable_world(contributors: usize, processors: usize, seed: u64) -> World {
        let mut sim = Simulation::new(
            SimConfig {
                network: NetworkModel::reliable(edgelet_sim::Duration::from_millis(20)),
                ..SimConfig::default()
            },
            seed,
        );
        let mut directory = Directory::new();
        let mut rng = DetRng::new(seed ^ 0xfeed);
        let (stores, _) = enroll_crowd(
            &mut directory,
            &mut sim,
            contributors,
            processors,
            DeviceClass::SgxPc,
            1,
            &mut rng,
        );
        let querier = sim.add_device(DeviceConfig::default());
        World {
            sim,
            directory,
            stores,
            querier,
            rng,
        }
    }

    fn run(
        world: &mut World,
        spec: &QuerySpec,
        privacy: PrivacyConfig,
        res: ResilienceConfig,
    ) -> ExecutionReport {
        let plan = build_plan(
            spec,
            &health_schema(),
            &privacy,
            &res,
            &world.directory,
            world.querier,
            &mut world.rng,
        )
        .unwrap();
        execute_plan(
            &plan,
            &health_schema(),
            &world.stores,
            &BTreeMap::new(),
            &mut world.sim,
            &ExecConfig::fast(),
            [0u8; 32],
        )
        .unwrap()
    }

    #[test]
    fn grouping_query_completes_and_matches_centralized_totals() {
        // Plenty of contributors: every bucket of the overcollected plan
        // must be able to fill its quota from its ~64% elderly share.
        let mut world = reliable_world(3000, 120, 1);
        let spec = grouping_spec(400);
        let report = run(
            &mut world,
            &spec,
            PrivacyConfig::none().with_max_tuples(100),
            ResilienceConfig {
                strategy: Strategy::Overcollection,
                failure_probability: 0.1,
                ..ResilienceConfig::default()
            },
        );
        assert!(report.completed, "query must complete: {report:?}");
        assert!(report.valid, "no failures injected -> valid");
        assert_eq!(report.partitions_merged, 4); // n = 400/100
        assert_eq!(report.partitions_complete, 4);
        let Some(QueryOutcome::Grouping(table)) = &report.outcome else {
            panic!("expected grouping outcome");
        };
        // Grand total COUNT(*) = C exactly.
        let total = table
            .rows
            .iter()
            .find(|r| r.set_index == 1)
            .expect("grand total row");
        assert_eq!(total.aggregates[0], Value::Int(400));
        // AVG(bmi) within the data's plausible range.
        let avg_bmi = total.aggregates[1].as_f64().unwrap();
        assert!((20.0..35.0).contains(&avg_bmi), "avg bmi {avg_bmi}");
        // Per-sex counts sum to the total.
        let by_sex: i64 = table
            .rows
            .iter()
            .filter(|r| r.set_index == 0)
            .map(|r| r.aggregates[0].as_i64().unwrap())
            .sum();
        assert_eq!(by_sex, 400);
        // Liability is spread: nobody saw more than one partition's quota.
        assert!(report.ledger.max_raw_tuples() <= 100);
        assert!(report.messages_sent > 0);
    }

    #[test]
    fn vertical_slices_reassemble_full_aggregate_list() {
        let mut world = reliable_world(1200, 120, 2);
        let spec = grouping_spec(300);
        let report = run(
            &mut world,
            &spec,
            PrivacyConfig::none()
                .with_max_tuples(100)
                .separate("bmi", "systolic_bp"),
            ResilienceConfig {
                strategy: Strategy::Naive,
                ..ResilienceConfig::default()
            },
        );
        assert!(report.completed);
        let Some(QueryOutcome::Grouping(table)) = &report.outcome else {
            panic!("expected grouping outcome");
        };
        let total = table.rows.iter().find(|r| r.set_index == 1).unwrap();
        // All three aggregates present despite living on separate slices.
        assert_eq!(total.aggregates[0], Value::Int(300));
        assert!(
            total.aggregates[1].as_f64().is_some(),
            "avg bmi from slice A"
        );
        assert!(
            total.aggregates[2].as_i64().is_some(),
            "max bp from slice B"
        );
    }

    #[test]
    fn kmeans_query_completes() {
        let mut world = reliable_world(900, 40, 3);
        let spec = QuerySpec {
            id: QueryId::new(2),
            filter: Predicate::True,
            snapshot_cardinality: 300,
            kind: QueryKind::KMeans {
                k: 3,
                features: vec!["age".into(), "bmi".into()],
                heartbeats: 4,
                per_cluster_aggregates: vec![AggSpec::over(AggKind::Avg, "gir")],
            },
            deadline_secs: 600.0,
        };
        let report = run(
            &mut world,
            &spec,
            PrivacyConfig::none().with_max_tuples(100),
            ResilienceConfig {
                strategy: Strategy::Overcollection,
                failure_probability: 0.1,
                ..ResilienceConfig::default()
            },
        );
        assert!(report.completed, "{report:?}");
        let Some(QueryOutcome::KMeans {
            centroids,
            per_cluster,
        }) = &report.outcome
        else {
            panic!("expected kmeans outcome");
        };
        assert_eq!(centroids.k(), 3);
        assert!(centroids.total_weight() > 0.0);
        let table = per_cluster.as_ref().expect("per-cluster aggregates");
        assert!(!table.rows.is_empty());
    }

    #[test]
    fn backup_strategy_rejected_for_kmeans() {
        let mut world = reliable_world(300, 60, 4);
        let spec = QuerySpec {
            id: QueryId::new(3),
            filter: Predicate::True,
            snapshot_cardinality: 100,
            kind: QueryKind::KMeans {
                k: 2,
                features: vec!["age".into()],
                heartbeats: 2,
                per_cluster_aggregates: vec![],
            },
            deadline_secs: 600.0,
        };
        let plan = build_plan(
            &spec,
            &health_schema(),
            &PrivacyConfig::none().with_max_tuples(50),
            &ResilienceConfig {
                strategy: Strategy::Backup,
                ..ResilienceConfig::default()
            },
            &world.directory,
            world.querier,
            &mut world.rng,
        )
        .unwrap();
        let err = execute_plan(
            &plan,
            &health_schema(),
            &world.stores,
            &BTreeMap::new(),
            &mut world.sim,
            &ExecConfig::fast(),
            [0u8; 32],
        );
        assert!(err.is_err());
    }

    #[test]
    fn missing_store_is_a_config_error() {
        let mut world = reliable_world(300, 40, 5);
        let spec = grouping_spec(100);
        let plan = build_plan(
            &spec,
            &health_schema(),
            &PrivacyConfig::none().with_max_tuples(50),
            &ResilienceConfig::default(),
            &world.directory,
            world.querier,
            &mut world.rng,
        )
        .unwrap();
        let empty_stores = BTreeMap::new();
        let err = execute_plan(
            &plan,
            &health_schema(),
            &empty_stores,
            &BTreeMap::new(),
            &mut world.sim,
            &ExecConfig::fast(),
            [0u8; 32],
        );
        assert!(err.is_err());
    }

    #[test]
    fn mis_timed_config_is_rejected_at_entry() {
        let mut world = reliable_world(300, 40, 6);
        let spec = grouping_spec(100);
        let plan = build_plan(
            &spec,
            &health_schema(),
            &PrivacyConfig::none().with_max_tuples(50),
            &ResilienceConfig::default(),
            &world.directory,
            world.querier,
            &mut world.rng,
        )
        .unwrap();
        let mut config = ExecConfig::fast();
        config.ping_period = config.suspect_timeout + Duration::from_secs(1);
        let err = execute_plan(
            &plan,
            &health_schema(),
            &world.stores,
            &BTreeMap::new(),
            &mut world.sim,
            &config,
            [0u8; 32],
        );
        match err {
            Err(Error::InvalidConfig(msg)) => {
                assert!(msg.contains("ping_period"), "unexpected message: {msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn duplicated_partials_are_merged_and_charged_once() {
        // Regression: before the combiner's idempotence guard, a
        // duplicated GroupingPartial was ledger-charged once per copy,
        // inflating aggregates_seen past the per-slot bound.
        let run_with = |duplicate: bool| {
            let mut world = reliable_world(3000, 120, 7);
            if duplicate {
                world
                    .sim
                    .set_classifier(Box::new(crate::messages::classify_payload));
                world.sim.set_fault_plan(
                    edgelet_sim::FaultPlan::new().rule(
                        edgelet_sim::FaultRule::new(edgelet_sim::FaultAction::Duplicate {
                            extra_delay: edgelet_sim::Duration::from_millis(5),
                        })
                        .on_kinds(&[crate::messages::kind::GROUPING_PARTIAL]),
                    ),
                );
            }
            let spec = grouping_spec(400);
            let report = run(
                &mut world,
                &spec,
                PrivacyConfig::none().with_max_tuples(100),
                ResilienceConfig {
                    strategy: Strategy::Overcollection,
                    failure_probability: 0.1,
                    ..ResilienceConfig::default()
                },
            );
            assert!(report.valid, "{report:?}");
            report
        };
        let base = run_with(false);
        let dup = run_with(true);
        let table = |r: &ExecutionReport| match &r.outcome {
            Some(QueryOutcome::Grouping(t)) => format!("{t}"),
            other => panic!("expected grouping outcome, got {other:?}"),
        };
        assert_eq!(
            table(&base),
            table(&dup),
            "duplicated partials must not change the result"
        );
        assert_eq!(
            base.ledger.entries(),
            dup.ledger.entries(),
            "duplicated partials must not inflate the liability ledger"
        );
    }

    #[test]
    fn extra_collection_rounds_recover_contributions_lost_early() {
        // With the fast profile (5s collection window) a builder's
        // request rounds land at t = 0 and 2.5s for one retry, and at
        // t = 0, 1.25s, 2.5s, 3.75s for three. An outage that swallows
        // every contribution sent before t = 2.6s therefore defeats the
        // single-retry builder completely, while the third extra round
        // escapes it and refills the snapshot.
        let run_with_retries = |retries: u32| {
            let mut world = reliable_world(3000, 120, 8);
            world
                .sim
                .set_classifier(Box::new(crate::messages::classify_payload));
            world.sim.set_fault_plan(
                edgelet_sim::FaultPlan::new().rule(
                    edgelet_sim::FaultRule::new(edgelet_sim::FaultAction::Drop)
                        .on_kinds(&[crate::messages::kind::CONTRIBUTION])
                        .until(edgelet_sim::SimTime::from_micros(2_600_000)),
                ),
            );
            let spec = grouping_spec(400);
            let plan = build_plan(
                &spec,
                &health_schema(),
                &PrivacyConfig::none().with_max_tuples(100),
                &ResilienceConfig {
                    strategy: Strategy::Overcollection,
                    failure_probability: 0.1,
                    ..ResilienceConfig::default()
                },
                &world.directory,
                world.querier,
                &mut world.rng,
            )
            .unwrap();
            let mut config = ExecConfig::fast();
            config.collection_retries = retries;
            let report = execute_plan(
                &plan,
                &health_schema(),
                &world.stores,
                &BTreeMap::new(),
                &mut world.sim,
                &config,
                [0u8; 32],
            )
            .unwrap();
            (report, plan.n)
        };
        let (one_retry, _) = run_with_retries(1);
        assert_eq!(
            one_retry.partitions_complete, 0,
            "both rounds fell inside the outage: {one_retry:?}"
        );
        assert!(!one_retry.valid);
        let (three_retries, n) = run_with_retries(3);
        assert!(
            three_retries.valid,
            "the late round must recover the crowd: {three_retries:?}"
        );
        assert!(three_retries.partitions_complete >= n);
    }
}
