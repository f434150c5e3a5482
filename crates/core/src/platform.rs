//! The Edgelet platform: a simulated crowd ready to run queries.

use crate::config::PlatformConfig;
use edgelet_exec::centralized;
use edgelet_exec::driver::{execute_plan, ExecutionReport};
use edgelet_ml::grouping::{GroupingQuery, ResultTable};
use edgelet_ml::AggSpec;
use edgelet_privacy::{analyze_plan, PlanExposure};
use edgelet_query::plan::build_plan;
use edgelet_query::render;
use edgelet_query::{PrivacyConfig, QueryKind, QueryPlan, QuerySpec, ResilienceConfig};
use edgelet_sim::{CrashPlan, DeviceConfig, Duration, SimConfig, Simulation};
use edgelet_store::synth;
use edgelet_store::{DataStore, Predicate, Row, Schema};
use edgelet_tee::{DeviceClass, Directory};
use edgelet_util::ids::{DeviceId, QueryId};
use edgelet_util::rng::DetRng;
use edgelet_util::Result;
use std::collections::BTreeMap;

/// Everything one query execution produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The plan that executed.
    pub plan: QueryPlan,
    /// The execution report (completion, validity, costs, liability).
    pub report: ExecutionReport,
    /// Static exposure analysis of the plan.
    pub exposure: PlanExposure,
    /// Digest of the simulator event trace, when the platform ran with
    /// `trace_capacity > 0` (see [`crate::PlatformConfig`]). Equal seeds
    /// and configs produce equal digests — the reproducibility receipt.
    pub trace_digest: Option<u64>,
    /// The retained trace records themselves (empty when tracing is
    /// off). Post-run oracles replay these to machine-check protocol
    /// invariants: no post-crash sends, single active replica, and so
    /// on — see `edgelet-chaos`.
    pub trace: Vec<edgelet_sim::TraceRecord>,
}

/// A simulated crowd of TEE-enabled personal devices.
pub struct Platform {
    config: PlatformConfig,
    schema: Schema,
    directory: Directory,
    stores: BTreeMap<DeviceId, DataStore>,
    device_classes: BTreeMap<DeviceId, DeviceClass>,
    querier: DeviceId,
    next_query: u64,
    rng: DetRng,
}

impl Platform {
    /// Builds the crowd: contributors (with synthetic health stores),
    /// volunteer processors, and one querier device.
    ///
    /// Device ids are assigned in enrollment order: contributors first,
    /// then processors, then the querier.
    pub fn build(config: PlatformConfig) -> Platform {
        let root = DetRng::new(config.seed);
        let mut enroll_rng = root.fork("enroll");
        let mut directory = Directory::new();
        let mut stores = BTreeMap::new();
        let mut device_classes = BTreeMap::new();
        let schema = synth::health_schema();

        let mut next_id = 0u64;
        for _ in 0..config.contributors {
            let dev = DeviceId::new(next_id);
            next_id += 1;
            directory.enroll(dev, DeviceClass::TpmHomeBox, true, false, &mut enroll_rng);
            device_classes.insert(dev, DeviceClass::TpmHomeBox);
            let mut store_rng = root.fork_indexed("store", dev.raw());
            stores.insert(
                dev,
                synth::health_store(config.rows_per_contributor, &mut store_rng),
            );
        }
        for i in 0..config.processors {
            let dev = DeviceId::new(next_id);
            next_id += 1;
            let class = config.device_mix.class_for(i);
            directory.enroll(dev, class, false, true, &mut enroll_rng);
            device_classes.insert(dev, class);
        }
        let querier = DeviceId::new(next_id);
        device_classes.insert(querier, DeviceClass::SgxPc);

        Platform {
            config,
            schema,
            directory,
            stores,
            device_classes,
            querier,
            next_query: 1,
            rng: root.fork("platform"),
        }
    }

    /// The configuration the platform was built from.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// The shared database schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The device directory.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The querier's device id.
    pub fn querier(&self) -> DeviceId {
        self.querier
    }

    /// Read access to a contributor's store.
    pub fn store(&self, device: DeviceId) -> Option<&DataStore> {
        self.stores.get(&device)
    }

    /// All contributor data stores, keyed by device.
    pub fn stores(&self) -> &BTreeMap<DeviceId, DataStore> {
        &self.stores
    }

    /// Hardware class of every enrolled device (querier included).
    pub fn device_classes(&self) -> &BTreeMap<DeviceId, DeviceClass> {
        &self.device_classes
    }

    /// The engine seed [`Platform::run_query`] seeds the simulated world
    /// with for `spec`. Exposed so alternative hosts (the live runtime)
    /// can derive the identical per-device randomness and stay
    /// bit-equivalent with the simulator.
    pub fn sim_seed(&self, spec: &QuerySpec) -> u64 {
        DetRng::new(self.config.seed)
            .fork_indexed("sim", spec.id.raw())
            .next_u64()
    }

    /// The per-query root sealing secret — the same derivation
    /// [`Platform::run_query`] uses, so an alternative host produces
    /// byte-identical sealed frames.
    pub fn root_secret(&self, spec: &QuerySpec) -> [u8; 32] {
        let mut root_secret = [0u8; 32];
        let mut secret_rng = self.rng.fork_indexed("root-secret", spec.id.raw());
        for chunk in root_secret.chunks_mut(8) {
            chunk.copy_from_slice(&secret_rng.next_u64().to_le_bytes());
        }
        root_secret
    }

    /// Convenience: builds a Grouping-Sets query spec with a fresh id and
    /// a deadline derived from the exec profile.
    pub fn grouping_query(
        &mut self,
        filter: Predicate,
        snapshot_cardinality: usize,
        sets: &[&[&str]],
        aggregates: Vec<AggSpec>,
    ) -> QuerySpec {
        let id = QueryId::new(self.next_query);
        self.next_query += 1;
        QuerySpec {
            id,
            filter,
            snapshot_cardinality,
            kind: QueryKind::GroupingSets(GroupingQuery::new(sets, aggregates)),
            deadline_secs: self.default_deadline_secs(),
        }
    }

    /// Convenience: builds a K-Means query spec.
    pub fn kmeans_query(
        &mut self,
        filter: Predicate,
        snapshot_cardinality: usize,
        k: usize,
        features: &[&str],
        heartbeats: usize,
        per_cluster_aggregates: Vec<AggSpec>,
    ) -> QuerySpec {
        let id = QueryId::new(self.next_query);
        self.next_query += 1;
        QuerySpec {
            id,
            filter,
            snapshot_cardinality,
            kind: QueryKind::KMeans {
                k,
                features: features.iter().map(|s| s.to_string()).collect(),
                heartbeats,
                per_cluster_aggregates,
            },
            deadline_secs: self.default_deadline_secs(),
        }
    }

    fn default_deadline_secs(&self) -> f64 {
        // Collection + combination windows plus slack for compute and
        // heartbeats.
        (self.config.exec.collection_timeout.as_secs_f64()
            + self.config.exec.combine_timeout.as_secs_f64())
            * 1.5
    }

    /// Plans a query without executing it (Part 1 of the demo scenario:
    /// inspect how privacy/resiliency knobs reshape the QEP).
    pub fn plan_query(
        &self,
        spec: &QuerySpec,
        privacy: &PrivacyConfig,
        resilience: &ResilienceConfig,
    ) -> Result<QueryPlan> {
        let mut plan_rng = DetRng::new(self.config.seed).fork_indexed("plan", spec.id.raw());
        build_plan(
            spec,
            &self.schema,
            privacy,
            resilience,
            &self.directory,
            self.querier,
            &mut plan_rng,
        )
    }

    /// Renders a plan the way the demo GUI displays it.
    pub fn render_plan(&self, plan: &QueryPlan) -> String {
        render::render_ascii(plan)
    }

    /// Renders a plan as Graphviz DOT.
    pub fn render_plan_dot(&self, plan: &QueryPlan) -> String {
        render::render_dot(plan)
    }

    /// Plans and executes a query on a fresh simulation of the crowd
    /// (Part 2 of the demo scenario). Each call builds an identical world
    /// from the platform seed, so repeated runs are comparable; the query
    /// id salts the failure draw so different queries see different fates.
    pub fn run_query(
        &mut self,
        spec: &QuerySpec,
        privacy: &PrivacyConfig,
        resilience: &ResilienceConfig,
    ) -> Result<RunResult> {
        let plan = self.plan_query(spec, privacy, resilience)?;
        let exposure = analyze_plan(&plan);
        let mut sim = self.build_simulation(spec);
        let root_secret = self.root_secret(spec);
        let report = execute_plan(
            &plan,
            &self.schema,
            &self.stores,
            &self.device_classes,
            &mut sim,
            &self.config.exec,
            root_secret,
        )?;
        let trace_digest = sim.trace().enabled().then(|| sim.trace().digest());
        let trace = sim.trace().records().cloned().collect();
        Ok(RunResult {
            plan,
            report,
            exposure,
            trace_digest,
            trace,
        })
    }

    /// The devices one query's world enrols, in device-id order: every
    /// directory entry with its role's availability model and crash
    /// draw, then the querier (always up, never crashes). The one
    /// enrolment walk: every host — simulated, live, socket — registers
    /// exactly this sequence.
    pub fn device_configs(&self, spec: &QuerySpec) -> impl Iterator<Item = DeviceConfig> + '_ {
        let cfg = &self.config;
        let window = if cfg.crash_at_start {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(spec.deadline_secs)
        };
        debug_assert_eq!(self.querier.index(), self.directory.entries().len());
        let enrolled = self.directory.entries().iter().map(move |entry| {
            let (availability, p) = if entry.contributes_data {
                (
                    &cfg.contributor_availability,
                    cfg.contributor_crash_probability,
                )
            } else {
                (&cfg.processor_availability, cfg.processor_crash_probability)
            };
            DeviceConfig {
                availability: availability.clone(),
                crash: CrashPlan::Bernoulli { p, window },
            }
        });
        enrolled.chain(std::iter::once(DeviceConfig::default()))
    }

    /// Builds the simulated world for one query.
    fn build_simulation(&self, spec: &QuerySpec) -> Simulation {
        let mut sim = Simulation::new(
            SimConfig {
                network: self.config.network.to_model(),
                trace_capacity: self.config.trace_capacity,
                shards: self.config.shards.max(1),
                ..SimConfig::default()
            },
            self.sim_seed(spec),
        );
        let devices = self.device_configs(spec);
        sim.reserve(devices.size_hint().0);
        for cfg in devices {
            sim.add_device(cfg);
        }
        if let Some(plan) = &self.config.fault_plan {
            // Protocol-position targeting needs the exec classifier;
            // organic (fault-plan-less) runs skip both, keeping their
            // traces and digests unchanged.
            sim.set_classifier(Box::new(edgelet_exec::messages::classify_payload));
            sim.set_fault_plan(plan.clone());
        }
        sim
    }

    /// Centralized reference over *all* matching rows, for validity and
    /// accuracy comparisons (the demo's verification step).
    pub fn centralized_grouping(&self, spec: &QuerySpec) -> Result<ResultTable> {
        let QueryKind::GroupingSets(q) = &spec.kind else {
            return Err(edgelet_util::Error::InvalidQuery(
                "not a grouping query".into(),
            ));
        };
        let columns = spec.kind.referenced_columns();
        let rows = centralized::eligible_rows(&self.stores, &spec.filter, &columns)?;
        centralized::run_grouping(&self.schema, &columns, &rows, q)
    }

    /// Centralized K-Means reference over all matching rows.
    pub fn centralized_kmeans(&self, spec: &QuerySpec) -> Result<centralized::CentralKMeans> {
        let QueryKind::KMeans {
            k,
            features,
            per_cluster_aggregates,
            ..
        } = &spec.kind
        else {
            return Err(edgelet_util::Error::InvalidQuery(
                "not a k-means query".into(),
            ));
        };
        let columns = spec.kind.referenced_columns();
        let rows = centralized::eligible_rows(&self.stores, &spec.filter, &columns)?;
        let mut rng = DetRng::new(self.config.seed).fork("central-kmeans");
        centralized::run_kmeans(
            &self.schema,
            &columns,
            &rows,
            *k,
            features,
            per_cluster_aggregates,
            &mut rng,
        )
    }

    /// All rows matching a filter across the crowd (for test assertions).
    pub fn matching_rows(&self, filter: &Predicate, columns: &[String]) -> Result<Vec<Row>> {
        centralized::eligible_rows(&self.stores, filter, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkProfile;
    use edgelet_ml::{AggKind, AggSpec};
    use edgelet_query::Strategy;
    use edgelet_store::{CmpOp, Value};

    fn platform(seed: u64) -> Platform {
        Platform::build(PlatformConfig {
            seed,
            contributors: 800,
            processors: 60,
            network: NetworkProfile::Reliable,
            ..PlatformConfig::default()
        })
    }

    #[test]
    fn build_enrolls_everyone() {
        let p = platform(1);
        assert_eq!(p.directory().len(), 860);
        assert_eq!(p.directory().contributors().len(), 800);
        assert_eq!(p.directory().processors().len(), 60);
        assert_eq!(p.querier(), DeviceId::new(860));
        assert!(p.store(DeviceId::new(0)).is_some());
        assert!(p.store(DeviceId::new(800)).is_none());
    }

    #[test]
    fn grouping_run_end_to_end_is_valid_and_matches_central_totals() {
        let mut p = platform(2);
        let spec = p.grouping_query(
            Predicate::cmp("age", CmpOp::Gt, Value::Int(65)),
            200,
            &[&["sex"], &[]],
            vec![AggSpec::count_star(), AggSpec::over(AggKind::Avg, "bmi")],
        );
        let run = p
            .run_query(
                &spec,
                &PrivacyConfig::none().with_max_tuples(50),
                &ResilienceConfig {
                    strategy: Strategy::Overcollection,
                    failure_probability: 0.05,
                    ..ResilienceConfig::default()
                },
            )
            .unwrap();
        assert!(run.report.completed);
        assert!(run.report.valid);
        assert_eq!(run.plan.n, 4);
        assert!(run.plan.m >= 1);
        // Exposure respects the horizontal cap.
        assert!(run.exposure.max_raw_tuples() <= 50);
        let Some(edgelet_exec::QueryOutcome::Grouping(table)) = &run.report.outcome else {
            panic!("grouping outcome expected");
        };
        let total = table.rows.iter().find(|r| r.set_index == 1).unwrap();
        assert_eq!(total.aggregates[0], Value::Int(200));
    }

    #[test]
    fn runs_are_reproducible() {
        let run = |seed| {
            let mut p = platform(seed);
            // Reference a data column so different crowds produce
            // different bytes and results.
            let spec = p.grouping_query(
                Predicate::True,
                100,
                &[&[]],
                vec![AggSpec::over(AggKind::Avg, "bmi")],
            );
            let r = p
                .run_query(
                    &spec,
                    &PrivacyConfig::none().with_max_tuples(25),
                    &ResilienceConfig::default(),
                )
                .unwrap();
            let avg_bmi = match &r.report.outcome {
                Some(edgelet_exec::QueryOutcome::Grouping(t)) => {
                    t.rows[0].aggregates[0].as_f64().unwrap()
                }
                _ => panic!("expected grouping outcome"),
            };
            (
                r.report.messages_sent,
                r.report.bytes_sent,
                avg_bmi.to_bits(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn plan_without_run_renders() {
        let mut p = platform(3);
        let spec = p.grouping_query(
            Predicate::True,
            100,
            &[&["gir"]],
            vec![AggSpec::count_star()],
        );
        let plan = p
            .plan_query(
                &spec,
                &PrivacyConfig::none().with_max_tuples(50),
                &ResilienceConfig::default(),
            )
            .unwrap();
        let ascii = p.render_plan(&plan);
        assert!(ascii.contains("QEP"));
        let dot = p.render_plan_dot(&plan);
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn centralized_references_work() {
        let mut p = platform(4);
        let g = p.grouping_query(
            Predicate::cmp("age", CmpOp::Gt, Value::Int(65)),
            100,
            &[&[]],
            vec![AggSpec::count_star()],
        );
        let table = p.centralized_grouping(&g).unwrap();
        let count = table.rows[0].aggregates[0].as_i64().unwrap();
        let matching = p
            .matching_rows(
                &Predicate::cmp("age", CmpOp::Gt, Value::Int(65)),
                &["age".to_string()],
            )
            .unwrap()
            .len();
        assert_eq!(count as usize, matching);

        let km = p.kmeans_query(Predicate::True, 100, 3, &["age", "bmi"], 3, vec![]);
        let central = p.centralized_kmeans(&km).unwrap();
        assert_eq!(central.model.centroids.len(), 3);
        // Wrong-kind errors.
        assert!(p.centralized_kmeans(&g).is_err());
        assert!(p.centralized_grouping(&km).is_err());
    }
}
