//! The four workloads and the seeded generator behind them: `--seed`
//! derives the world seed and the order of the spec stream; the programs
//! under test only ever see the generated `PlatformConfig` and
//! `QuerySpec`s.

use edgelet_core::query::{PrivacyConfig, QueryKind, QuerySpec, ResilienceConfig, Strategy};
use edgelet_core::{NetworkProfile, PlatformConfig, Scenario};
use edgelet_ml::grouping::GroupingQuery;
use edgelet_ml::{AggKind, AggSpec};
use edgelet_store::{CmpOp, Predicate, Value};
use edgelet_util::ids::QueryId;
use edgelet_util::rng::DetRng;

/// Which host serves the workload's queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Platform::run_query` on the churny polling world.
    SimPollingChurn,
    /// Volatile `QueryService`, K-Means specs.
    LiveKmeans,
    /// `QueryService::with_durability` over a `FileBackend`.
    DurableGrouping,
    /// Daemon + one socket worker + per-query client connection.
    NetGrouping,
}

/// One named workload.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Which host runs it.
    pub kind: Kind,
    /// Queries per round: a whole number of passes over the workload's
    /// spec catalog (75 Grouping-Sets shapes, 15 K-Means shapes), so
    /// every round does the same mix of work, sized to take 0.6-1.7 s at
    /// the seed commit.
    pub round: usize,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim_polling_churn",
        kind: Kind::SimPollingChurn,
        round: 75,
    },
    Workload {
        name: "live_kmeans",
        kind: Kind::LiveKmeans,
        round: 105,
    },
    Workload {
        name: "durable_grouping",
        kind: Kind::DurableGrouping,
        round: 150,
    },
    Workload {
        name: "net_grouping",
        kind: Kind::NetGrouping,
        round: 70,
    },
];

/// Queries run before the measured window, so lazy set-up (lane pools,
/// allocator arenas, the first checkpoint) is paid before timing.
pub const WARMUP_QUERIES: usize = 50;
/// Rounds every window has, however short `--seconds` is.
/// `msg_bytes_per_query` is averaged over exactly these, so it is the
/// same number on every run of a seed.
pub const MIN_ROUNDS: usize = 4;
/// A cold start is timed before the window and after every this many
/// rounds, so that a slow spell of the host cannot cover them all.
pub const ROUNDS_PER_COLD_START: usize = 2;
/// Leading specs of the measured stream checked against the simulator.
pub const REFERENCE_SPECS: usize = 32;
/// Completed epochs in the WAL every `durable_grouping` cold start
/// recovers (two records each).
pub const PREWRITTEN_EPOCHS: u64 = 2048;

/// The shape of one query, before it gets an id.
#[derive(Clone)]
struct Shape {
    filter: Predicate,
    kind: QueryKind,
}

/// Everything a host needs to serve one workload at one seed.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub kind: Kind,
    /// The crowd every cold start builds.
    pub world: PlatformConfig,
    /// Horizontal privacy cap (fixes the partition count).
    pub privacy: PrivacyConfig,
    /// Resiliency strategy and fault presumption.
    pub resilience: ResilienceConfig,
    /// Snapshot cardinality C of every spec.
    cardinality: usize,
    /// The catalog of shapes in this seed's order; the stream cycles it.
    shapes: Vec<Shape>,
    /// The catalog's first shape, the same at every seed.
    canonical: Shape,
}

fn age_over(years: i64) -> Predicate {
    Predicate::cmp("age", CmpOp::Gt, Value::Int(years))
}

/// Filters that keep at least ~80% of the synthetic population
/// eligible, so every partition can fill its quota on every world
/// (`age > 60` leaves 74% and starves a partition on some seeds).
fn filters() -> Vec<Predicate> {
    vec![
        Predicate::True,
        age_over(20),
        age_over(30),
        age_over(40),
        age_over(50),
    ]
}

fn grouping_shapes() -> Vec<Shape> {
    let sets: [&[&[&str]]; 5] = [
        &[&["sex"], &[]],
        &[&["region"], &[]],
        &[&["gir"], &[]],
        &[&["sex", "gir"]],
        &[&["diabetic"], &[]],
    ];
    let aggregates = [
        vec![AggSpec::count_star(), AggSpec::over(AggKind::Avg, "bmi")],
        vec![AggSpec::count_star(), AggSpec::over(AggKind::Avg, "age")],
        vec![
            AggSpec::count_star(),
            AggSpec::over(AggKind::Max, "systolic_bp"),
        ],
    ];
    let mut shapes = Vec::new();
    for filter in filters() {
        for set in sets {
            for aggs in &aggregates {
                shapes.push(Shape {
                    filter: filter.clone(),
                    kind: QueryKind::GroupingSets(GroupingQuery::new(set, aggs.clone())),
                });
            }
        }
    }
    shapes
}

fn kmeans_shapes() -> Vec<Shape> {
    let per_cluster = [
        vec![],
        vec![AggSpec::count_star()],
        vec![AggSpec::over(AggKind::Avg, "systolic_bp")],
    ];
    let mut shapes = Vec::new();
    for filter in filters() {
        for aggs in &per_cluster {
            shapes.push(Shape {
                filter: filter.clone(),
                kind: QueryKind::KMeans {
                    k: 3,
                    features: vec!["age".into(), "bmi".into()],
                    heartbeats: 4,
                    per_cluster_aggregates: aggs.clone(),
                },
            });
        }
    }
    shapes
}

/// The 1 000-contributor lossy crowd the three threaded hosts share, so
/// their numbers differ by host and query shape, not by world.
fn home_world(seed: u64) -> PlatformConfig {
    PlatformConfig {
        seed,
        contributors: 1_000,
        processors: 83,
        network: NetworkProfile::Lossy {
            drop_probability: 0.05,
        },
        ..PlatformConfig::default()
    }
}

impl Inputs {
    /// Derives the workload's world and spec stream from `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let root = DetRng::new(seed);
        let world_seed = root.fork("world").next_u64();
        let (world, cardinality, cap, mut shapes) = match kind {
            Kind::SimPollingChurn => (
                Scenario::OpportunisticPolling.config(world_seed),
                800,
                100,
                grouping_shapes(),
            ),
            Kind::LiveKmeans => (home_world(world_seed), 200, 50, kmeans_shapes()),
            Kind::DurableGrouping | Kind::NetGrouping => {
                (home_world(world_seed), 200, 50, grouping_shapes())
            }
        };
        let canonical = shapes[0].clone();
        root.fork("specs").shuffle(&mut shapes);
        Inputs {
            kind,
            world,
            privacy: PrivacyConfig::none().with_max_tuples(cap),
            resilience: ResilienceConfig {
                strategy: Strategy::Overcollection,
                // Presumes more faults than the worlds inject (5-8 % loss,
                // 10 % crashes), so the planner overcollects enough that
                // no query of the stream misses validity.
                failure_probability: 0.2,
                ..ResilienceConfig::default()
            },
            cardinality,
            shapes,
            canonical,
        }
    }

    /// The one spec `net_grouping`'s daemon serves (its deployment model
    /// is one canonical world spec) and the WAL template is written
    /// from: the same shape at every seed.
    pub fn canonical_spec(&self) -> QuerySpec {
        self.with_id(&self.canonical, 1)
    }

    /// The `i`-th spec of the stream. Ids are distinct (the id salts each
    /// query's failure draw), except on `net_grouping`, whose daemon
    /// serves its canonical spec under a fresh epoch each time.
    pub fn spec(&self, i: usize) -> QuerySpec {
        match self.kind {
            Kind::NetGrouping => self.canonical_spec(),
            _ => self.with_id(&self.shapes[i % self.shapes.len()], 1 + i as u64),
        }
    }

    fn with_id(&self, shape: &Shape, id: u64) -> QuerySpec {
        let exec = &self.world.exec;
        QuerySpec {
            id: QueryId::new(id),
            filter: shape.filter.clone(),
            snapshot_cardinality: self.cardinality,
            kind: shape.kind.clone(),
            // Platform::default_deadline_secs, which is private.
            deadline_secs: (exec.collection_timeout.as_secs_f64()
                + exec.combine_timeout.as_secs_f64())
                * 1.5,
        }
    }
}
