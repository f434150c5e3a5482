//! E1–E14: the paper's figures and §3.3 claims, one registry entry each.
//!
//! `experiments [--only E3,E10]` prints them; EXPERIMENTS.md carries each
//! table in a fenced block under its `## E<k> — <title>` heading and
//! `tests/experiments.rs` compares the two cell for cell. Every column is
//! therefore machine-independent — virtual time, counts, validity, `m` —
//! and every seed is fixed here. Wall-clock scaling of the simulator is
//! `bench_report --suite sim/scale`'s business, not a pinned table's.

use crate::{census_spec, survey_spec, sweep, SweepPoint};
use edgelet_core::exec::driver::{enroll_crowd, execute_plan};
use edgelet_core::ml::gen::rows_to_points;
use edgelet_core::ml::grouping::GroupingQuery;
use edgelet_core::ml::kmeans::inertia;
use edgelet_core::prelude::*;
use edgelet_core::query::plan::build_plan;
use edgelet_core::query::resilience::plan_overcollection;
use edgelet_core::query::{OperatorRole, QueryPlan};
use edgelet_core::sim::{DeviceConfig, Duration, NetworkModel, SimConfig, SimTime, Simulation};
use edgelet_core::store::synth::health_schema;
use edgelet_core::tee::Directory;
use edgelet_core::util::binom::overcollection_validity;
use edgelet_core::util::rng::DetRng;
use edgelet_core::util::table::{fnum, Table};
use std::collections::BTreeMap;

/// One pinned experiment.
pub struct Experiment {
    /// `E1` … `E14`, the key of `--only` and of the EXPERIMENTS.md heading.
    pub id: &'static str,
    /// What is reproduced; the rest of the EXPERIMENTS.md heading.
    pub title: &'static str,
    /// What the paper says the table should show.
    pub claim: &'static str,
    /// Regenerates the table from the seeds fixed in this file.
    pub run: fn() -> Table,
}

/// Every experiment, in the order EXPERIMENTS.md lists them.
pub const EXPERIMENTS: [Experiment; 14] = [
    Experiment {
        id: "E1",
        title: "Figure 2: vertically & horizontally partitioned QEP",
        claim: "Paper claim (Fig. 2): lowering the per-edgelet raw-data cap multiplies\n\
                horizontal partitions; separating attribute pairs multiplies Computers\n\
                per partition. Both reshape the QEP without touching the query.",
        run: e1_qep_shape,
    },
    Experiment {
        id: "E2",
        title: "Figure 3: overcollection degree",
        claim: "Paper claim (Fig. 3): the query stays valid while fewer than m of the\n\
                n+m partitions are lost; m grows with the fault presumption p, and the\n\
                RELATIVE overhead m/n shrinks as n grows (law of large numbers).",
        run: e2_overcollection_degree,
    },
    Experiment {
        id: "E3",
        title: "§3.3 \"Can a query always proceed despite the failures?\"",
        claim: "Paper claim (§3.3): Overcollection (and Backup) keep the query valid\n\
                under the presumed failure rate; the naive baseline collapses as soon\n\
                as failures are real. Backup pays in messages and takeover latency.",
        run: e3_resiliency,
    },
    Experiment {
        id: "E4",
        title: "§3.3 accuracy vs number of heartbeats",
        claim: "Paper claim (§3.3): the Heartbeat keeps the iteration advancing under\n\
                loss; accuracy improves with the number of heartbeats and degrades\n\
                gracefully (not catastrophically) as the loss rate rises. Ratio 1.0 =\n\
                centralized quality.",
        run: e4_heartbeats,
    },
    Experiment {
        id: "E5",
        title: "§3.2/§3.3 scalability (thousands of simulated edgelets)",
        claim: "Paper claim (§3.3): TEE-based computation on cleartext data keeps the\n\
                protocol generic AND scalable — cost grows linearly with the crowd\n\
                (one contribution round trip per participant), unlike cryptographic\n\
                alternatives whose cost explodes with participant count.",
        run: e5_scalability,
    },
    Experiment {
        id: "E6",
        title: "§3.3 \"Is privacy protected whatever the attack?\"",
        claim: "Paper claim (§3.3): horizontal partitioning bounds what one\n\
                compromised enclave exposes to C/n tuples; vertical partitioning\n\
                keeps quasi-identifier pairs from ever co-residing on a Computer\n\
                (residual co-exposure comes from Snapshot Builders, which hold\n\
                full rows of their partition).",
        run: e6_privacy,
    },
    Experiment {
        id: "E7",
        title: "Validity (§1, §2.2)",
        claim: "Paper claim (§2.2): validity is preserved as long as fewer than m\n\
                partitions are lost — the merged result is then EXACTLY a snapshot of\n\
                cardinality C (COUNT(*) = C); past m the execution degrades to an\n\
                explicit invalid/approximate result.",
        run: e7_validity,
    },
    Experiment {
        id: "E8",
        title: "§3.1 device heterogeneity",
        claim: "Paper claim (§3.1/§3.3): the framework runs across heterogeneous\n\
                TEEs; low-end home boxes (STM32F417, ~100x slower) stretch the\n\
                computation phase but the protocol completes identically — the\n\
                demo's versatility argument.",
        run: e8_heterogeneity,
    },
    Experiment {
        id: "E9",
        title: "§2.2 the Combiner's Active Backup (ablation)",
        claim: "Paper claim (§2.2): without a replicated Combiner the whole query\n\
                dies with that single device; the Active Backup running in parallel\n\
                delivers the result with no takeover delay.",
        run: e9_active_backup,
    },
    Experiment {
        id: "E10",
        title: "Backup vs Overcollection ([14] via §2.2/§3.3)",
        claim: "Paper claim ([14] via §2.2/§3.3): both strategies meet the resiliency\n\
                target; Overcollection is the performance choice (no takeover\n\
                timeouts, fewer duplicated messages), Backup pays replication and\n\
                failure-detection latency for strict validity on non-distributive\n\
                workloads.",
        run: e10_strategies,
    },
    Experiment {
        id: "E11",
        title: "fixed partition vs mini-batch resampling (extension)",
        claim: "Paper claim (§2.2): resampling per iteration is admissible (strict\n\
                validity is not required for iterative ML) and stays competitive with\n\
                fixed-partition iteration — the Mini-batch-K-Means observation.",
        run: e11_minibatch,
    },
    Experiment {
        id: "E12",
        title: "collection retry rounds vs message loss (extension)",
        claim: "Reading: under light loss overcollection alone suffices; as loss\n\
                grows, retry rounds recover silent contributors and keep partitions\n\
                complete at the price of extra request traffic — the two mechanisms\n\
                compose (retries fix collection, overcollection fixes processors).",
        run: e12_retries,
    },
    Experiment {
        id: "E13",
        title: "Crowd Liability (extension)",
        claim: "Paper claim (§1): responsibility shifts from one data controller to\n\
                the crowd. Lowering the cap multiplies the processors involved while\n\
                shrinking each one's share of the snapshot — no participant ever\n\
                carries more than cap/C of the data, and nobody hosts two operators.\n\
                The processor Gini near 0 shows the even split among those who do\n\
                carry data.",
        run: e13_liability,
    },
    Experiment {
        id: "E14",
        title: "the Backup failure detector (extension)",
        claim: "Reading: completion time under failures tracks the suspicion\n\
                timeout almost linearly — the Backup strategy's structural latency\n\
                cost. Shorter timeouts buy speed with more liveness traffic; the\n\
                rank-gated output keeps duplicates harmless either way.",
        run: e14_failure_detector,
    },
];

// ---- shared worlds, knobs and runners --------------------------------

fn crowd(
    seed: u64,
    contributors: usize,
    processors: usize,
    network: NetworkProfile,
) -> PlatformConfig {
    PlatformConfig {
        seed,
        contributors,
        processors,
        network,
        ..PlatformConfig::default()
    }
}

/// `config` with processors crashing at query launch with probability `p`
/// — the harshest realization of the fault presumption.
fn crashing_at_launch(config: PlatformConfig, p: f64) -> PlatformConfig {
    PlatformConfig {
        processor_crash_probability: p,
        crash_at_start: true,
        ..config
    }
}

fn lossy(drop_probability: f64) -> NetworkProfile {
    NetworkProfile::Lossy { drop_probability }
}

fn cap(max_tuples: usize) -> PrivacyConfig {
    PrivacyConfig::none().with_max_tuples(max_tuples)
}

fn resilience(strategy: Strategy, presumed_p: f64, target_validity: f64) -> ResilienceConfig {
    ResilienceConfig {
        strategy,
        failure_probability: presumed_p,
        target_validity,
        ..ResilienceConfig::default()
    }
}

fn out_of(hits: usize, trials: usize) -> String {
    format!("{hits}/{trials}")
}

fn or_dash<T: ToString>(value: Option<T>) -> String {
    value.map_or_else(|| "-".into(), |v| v.to_string())
}

/// `trials` seeds of the survey query (C = 300) on the world
/// `config(seed)` builds.
fn survey_sweep(
    trials: usize,
    privacy: &PrivacyConfig,
    resilience: &ResilienceConfig,
    config: impl Fn(u64) -> PlatformConfig + Sync,
) -> SweepPoint {
    sweep(trials, |seed| {
        let mut p = Platform::build(config(seed));
        let spec = survey_spec(&mut p, 300);
        p.run_query(&spec, privacy, resilience).expect("run")
    })
}

/// Distributed K-Means (k = 3 over age × systolic_bp of the 65+ crowd,
/// C = 400, cap 100) on `config`'s world: inertia of the combined
/// centroids over the full eligible population, relative to a
/// centralized fit. `None` when the query delivered no centroids.
fn inertia_ratio(config: PlatformConfig, heartbeats: usize) -> Option<f64> {
    const FEATURES: [&str; 2] = ["age", "systolic_bp"];
    let mut p = Platform::build(config);
    let spec = p.kmeans_query(
        Predicate::cmp("age", CmpOp::Gt, Value::Int(65)),
        400,
        3,
        &FEATURES,
        heartbeats,
        vec![],
    );
    let run = p
        .run_query(
            &spec,
            &cap(100),
            &resilience(Strategy::Overcollection, 0.1, 0.999),
        )
        .ok()?;
    let QueryOutcome::KMeans { centroids, .. } = run.report.outcome? else {
        return None;
    };
    let columns = spec.kind.referenced_columns();
    let rows = p.matching_rows(&spec.filter, &columns).ok()?;
    let names: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
    let sub = p.schema().project(&names).ok()?;
    let points = rows_to_points(&sub, &rows, &FEATURES).ok()?;
    Some(inertia(&centroids.centroids, &points) / p.centralized_kmeans(&spec).ok()?.inertia)
}

/// K-Means seeds per point in E4 and E11.
const KMEANS_SEEDS: u64 = 5;

/// Mean of the ratios the [`KMEANS_SEEDS`] runs delivered, and how many did.
fn mean_ratio(one_run: impl Fn(u64) -> Option<f64>) -> (f64, usize) {
    let ratios: Vec<f64> = (0..KMEANS_SEEDS).filter_map(one_run).collect();
    let mean = if ratios.is_empty() {
        f64::NAN
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    };
    (mean, ratios.len())
}

/// One `COUNT(*)` (+ `aggs`) query, C = 200, cap 50, on a hand-built
/// simulation — SGX PCs on a reliable 20 ms network — with the devices
/// `victims` picks from the plan powered off at launch: the scripted
/// failures of E7 and E9.
fn scripted_run(
    (sim_seed, rng_seed): (u64, u64),
    (contributors, processors): (usize, usize),
    mut aggs: Vec<AggSpec>,
    resilience: &ResilienceConfig,
    victims: impl Fn(&QueryPlan) -> Vec<DeviceId>,
) -> (QueryPlan, ExecutionReport) {
    let mut sim = Simulation::new(
        SimConfig {
            network: NetworkModel::reliable(Duration::from_millis(20)),
            ..SimConfig::default()
        },
        sim_seed,
    );
    let mut directory = Directory::new();
    let mut rng = DetRng::new(rng_seed);
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
    aggs.insert(0, AggSpec::count_star());
    let spec = QuerySpec {
        id: QueryId::new(1),
        filter: Predicate::True,
        snapshot_cardinality: 200,
        kind: QueryKind::GroupingSets(GroupingQuery::new(&[&[]], aggs)),
        deadline_secs: 600.0,
    };
    let plan = build_plan(
        &spec,
        &health_schema(),
        &cap(50),
        resilience,
        &directory,
        querier,
        &mut rng,
    )
    .expect("plan");
    for device in victims(&plan) {
        sim.crash_at(device, SimTime::from_micros(1));
    }
    let report = execute_plan(
        &plan,
        &health_schema(),
        &stores,
        &BTreeMap::new(),
        &mut sim,
        &ExecConfig::fast(),
        [0u8; 32],
    )
    .expect("execute");
    (plan, report)
}

// ---- the experiments --------------------------------------------------

/// Sweeps the two privacy knobs the demo exposes (max raw tuples per
/// edgelet, attribute pairs to separate) and reports the plan shape.
fn e1_qep_shape() -> Table {
    let mut platform = Platform::build(crowd(1, 4_000, 400, NetworkProfile::Reliable));
    // Figure 2's query: several statistics crossed over one sample.
    let spec = platform.grouping_query(
        Predicate::cmp("age", CmpOp::Gt, Value::Int(65)),
        2_000,
        &[&["sex"], &["gir"], &[]],
        vec![
            AggSpec::count_star(),
            AggSpec::over(AggKind::Avg, "age"),
            AggSpec::over(AggKind::Avg, "bmi"),
            AggSpec::over(AggKind::Avg, "systolic_bp"),
        ],
    );
    // Naive: isolate the privacy knobs from overcollection.
    let resilience = resilience(Strategy::Naive, 0.1, 0.999);
    let mut table = Table::new(
        "Fig.2 — QEP shape vs privacy parameters (C = 2000)",
        &[
            "max tuples",
            "separated pairs",
            "n",
            "quota",
            "v-groups",
            "builders",
            "computers",
            "operators",
        ],
    );
    type Pairs = &'static [(&'static str, &'static str)];
    let configs: [(Option<usize>, Pairs); 6] = [
        (None, &[]),
        (Some(1_000), &[]),
        (Some(500), &[]),
        (Some(500), &[("bmi", "systolic_bp")]),
        (Some(250), &[("bmi", "systolic_bp")]),
        (Some(250), &[("bmi", "systolic_bp"), ("age", "bmi")]),
    ];
    for (max_tuples, pairs) in configs {
        let mut privacy = max_tuples.map_or_else(PrivacyConfig::none, cap);
        for (a, b) in pairs {
            privacy = privacy.separate(a, b);
        }
        let plan = platform
            .plan_query(&spec, &privacy, &resilience)
            .expect("plan");
        let builders = plan.operators_where(|r| matches!(r, OperatorRole::SnapshotBuilder { .. }));
        let computers = plan.operators_where(|r| matches!(r, OperatorRole::Computer { .. }));
        let pairs: Vec<String> = pairs.iter().map(|(a, b)| format!("{a}|{b}")).collect();
        table.row(&[
            or_dash(max_tuples),
            pairs.join(" "),
            plan.n.to_string(),
            plan.partition_quota.to_string(),
            plan.attr_groups.len().to_string(),
            builders.len().to_string(),
            computers.len().to_string(),
            plan.operators.len().to_string(),
        ]);
    }
    table
}

/// The resiliency planner's core relation: minimal `m` such that
/// `P[>= n of n+m partition pipelines survive] >= target`.
fn e2_overcollection_degree() -> Table {
    let target = 0.999;
    let mut table = Table::new(
        "Fig.3 — minimal overcollection m (validity target 0.999)",
        &["n", "p", "m", "m/n", "P[valid] at m", "P[valid] at m-1"],
    );
    for n in [4u64, 8, 16, 32, 64] {
        for p in [0.05f64, 0.1, 0.2, 0.3, 0.4] {
            let m = plan_overcollection(n, p, target, 4096).expect("satisfiable");
            let at_m_minus_1 = match m {
                0 => f64::NAN,
                _ => overcollection_validity(n, m - 1, p),
            };
            table.row(&[
                n.to_string(),
                fnum(p),
                m.to_string(),
                fnum(m as f64 / n as f64),
                fnum(overcollection_validity(n, m, p)),
                fnum(at_m_minus_1),
            ]);
        }
    }
    table
}

/// Sweeps the real crash rate per strategy, the fault presumption
/// matched to the crash rate.
fn e3_resiliency() -> Table {
    let trials = 20;
    let mut table = Table::new(
        format!("E3 — completion & validity vs crash rate ({trials} trials/point)"),
        &[
            "crash p",
            "strategy",
            "mean m",
            "completed",
            "valid",
            "mean msgs",
            "mean t (s)",
        ],
    );
    for crash_p in [0.0f64, 0.1, 0.2, 0.3] {
        for strategy in [Strategy::Overcollection, Strategy::Backup, Strategy::Naive] {
            let point = survey_sweep(
                trials,
                &cap(50),
                &resilience(strategy, crash_p.max(0.01), 0.999),
                |seed| {
                    let world = crowd(seed * 7 + 1, 3_500, 260, NetworkProfile::Reliable);
                    crashing_at_launch(world, crash_p)
                },
            );
            table.row(&[
                fnum(crash_p),
                strategy.name().to_string(),
                fnum(point.mean_m),
                out_of(point.completed, point.trials),
                out_of(point.valid, point.trials),
                fnum(point.mean_messages),
                fnum(point.mean_completion_secs),
            ]);
        }
    }
    table
}

/// Distributed K-Means under message loss: more heartbeats give the
/// Computers more synchronization rounds; loss degrades each round.
fn e4_heartbeats() -> Table {
    let mut table = Table::new(
        format!("E4 — K-Means inertia ratio vs heartbeats ({KMEANS_SEEDS} seeds/point)"),
        &["loss p", "heartbeats", "mean inertia ratio", "completed"],
    );
    for drop_p in [0.0f64, 0.15, 0.30] {
        let network = if drop_p > 0.0 {
            lossy(drop_p)
        } else {
            NetworkProfile::Reliable
        };
        for heartbeats in [1usize, 2, 4, 8] {
            let (mean, delivered) = mean_ratio(|seed| {
                inertia_ratio(crowd(seed * 13 + 5, 2_500, 80, network.clone()), heartbeats)
            });
            table.row(&[
                fnum(drop_p),
                heartbeats.to_string(),
                fnum(mean),
                out_of(delivered, KMEANS_SEEDS as usize),
            ]);
        }
    }
    table
}

/// Grows the contributor crowd 25-fold and reports the protocol's
/// virtual costs.
fn e5_scalability() -> Table {
    let mut table = Table::new(
        "E5 — scalability with crowd size (C = 400, cap 100)",
        &[
            "contributors",
            "processors",
            "messages",
            "bytes",
            "virtual t (s)",
            "valid",
        ],
    );
    for contributors in [2_000usize, 5_000, 10_000, 20_000, 50_000] {
        let mut p = Platform::build(crowd(9, contributors, 100, lossy(0.05)));
        let spec = census_spec(&mut p, 400);
        let report = p
            .run_query(
                &spec,
                &cap(100),
                &resilience(Strategy::Overcollection, 0.1, 0.999),
            )
            .expect("run")
            .report;
        table.row(&[
            contributors.to_string(),
            "100".into(),
            report.messages_sent.to_string(),
            report.bytes_sent.to_string(),
            fnum(report.completion_secs.unwrap_or(f64::NAN)),
            report.valid.to_string(),
        ]);
    }
    table
}

/// Sealed-glass compromise trials against plans with varying horizontal
/// caps and vertical separation.
fn e6_privacy() -> Table {
    let pair = vec![("bmi".to_string(), "systolic_bp".to_string())];
    let trials = 2_000;
    let mut table = Table::new(
        format!("E6 — sealed-glass adversary, k compromised devices ({trials} trials)"),
        &[
            "cap",
            "separate bmi|bp",
            "k",
            "mean exposed %",
            "max exposed %",
            "pair co-exposure %",
        ],
    );
    let mut p = Platform::build(crowd(3, 4_000, 400, NetworkProfile::Reliable));
    let spec = p.grouping_query(
        Predicate::True,
        1_000,
        &[&["sex"], &[]],
        vec![
            AggSpec::count_star(),
            AggSpec::over(AggKind::Avg, "bmi"),
            AggSpec::over(AggKind::Avg, "systolic_bp"),
        ],
    );
    let resilience = resilience(Strategy::Overcollection, 0.1, 0.999);
    for (max_tuples, separate) in [
        (None, false),
        (Some(500), false),
        (Some(200), false),
        (Some(100), false),
        (Some(100), true),
        (Some(50), true),
    ] {
        let mut privacy = max_tuples.map_or_else(PrivacyConfig::none, cap);
        if separate {
            privacy = privacy.separate("bmi", "systolic_bp");
        }
        let plan = p.plan_query(&spec, &privacy, &resilience).expect("plan");
        let exposure = edgelet_core::privacy::analyze_plan(&plan);
        for k in [1usize, 3] {
            let mut rng = DetRng::new(1000 + k as u64);
            let sweep =
                edgelet_core::privacy::compromise_sweep(&exposure, k, &pair, trials, &mut rng);
            table.row(&[
                or_dash(max_tuples),
                separate.to_string(),
                k.to_string(),
                fnum(100.0 * sweep.snapshot_fraction.mean()),
                fnum(100.0 * sweep.snapshot_fraction.max()),
                fnum(100.0 * sweep.pair_co_exposure_rate),
            ]);
        }
    }
    table
}

/// Powers off the builders of exactly f partitions of an Overcollection
/// plan: validity must hold for every f <= m and break past it, and the
/// delivered COUNT(*) must equal C whenever valid.
fn e7_validity() -> Table {
    let run = |failures: usize| {
        scripted_run(
            (77, 42),
            (2_000, 200),
            vec![AggSpec::over(AggKind::Avg, "bmi")],
            &resilience(Strategy::Overcollection, 0.2, 0.99),
            |plan| {
                plan.operators
                    .iter()
                    .filter(|o| matches!(o.role, OperatorRole::SnapshotBuilder { .. }))
                    .map(|o| o.device)
                    .take(failures)
                    .collect()
            },
        )
    };
    let (n, m) = {
        let (plan, _) = run(0);
        (plan.n, plan.m as usize)
    };
    let mut table = Table::new(
        format!("E7 — validity vs scripted partition failures (n = {n}, m = {m})"),
        &["failures f", "valid", "COUNT(*)", "expected"],
    );
    for f in 0..=m + 2 {
        let (_, report) = run(f);
        let count = match &report.outcome {
            Some(QueryOutcome::Grouping(t)) => t.rows[0].aggregates[0].as_i64(),
            _ => None,
        };
        let expected = if f <= m {
            "valid, COUNT = C"
        } else {
            "invalid"
        };
        table.row(&[
            f.to_string(),
            report.valid.to_string(),
            or_dash(count),
            expected.to_string(),
        ]);
    }
    table
}

/// From SGX PCs down to STM32F417 home boxes: how the processor
/// hardware mix moves the completion time.
fn e8_heterogeneity() -> Table {
    let mut table = Table::new(
        "E8 — completion time vs processor hardware mix (C = 20k, cap 5k)",
        &["mix", "completed", "valid", "virtual t (s)", "messages"],
    );
    for (label, device_mix) in [
        ("all PCs (SGX)", DeviceMix::only(DeviceClass::SgxPc)),
        (
            "all phones (TrustZone)",
            DeviceMix::only(DeviceClass::TrustZonePhone),
        ),
        (
            "all home boxes (TPM)",
            DeviceMix::only(DeviceClass::TpmHomeBox),
        ),
        ("demo mix 20/50/30", DeviceMix::default()),
    ] {
        // A data-heavy snapshot (C = 20k, 5k tuples per partition) makes
        // the per-device compute cost visible next to network time: the
        // STM32F417 box crunches ~20k tuples/s vs the PC's 2M/s.
        let mut config = PlatformConfig {
            rows_per_contributor: 20,
            device_mix,
            ..crowd(21, 3_000, 80, NetworkProfile::Internet)
        };
        config.exec.charge_compute_time = true;
        let mut p = Platform::build(config);
        let spec = census_spec(&mut p, 20_000);
        let report = p
            .run_query(
                &spec,
                &cap(5_000),
                &resilience(Strategy::Overcollection, 0.05, 0.999),
            )
            .expect("run")
            .report;
        table.row(&[
            label.to_string(),
            report.completed.to_string(),
            report.valid.to_string(),
            fnum(report.completion_secs.unwrap_or(f64::NAN)),
            report.messages_sent.to_string(),
        ]);
    }
    table
}

/// Powers off the primary Combiner under a plan WITH the replicated
/// combiner (Overcollection) and one WITHOUT (Naive keeps a single one).
fn e9_active_backup() -> Table {
    let mut table = Table::new(
        "E9 — ablation: Active Backup of the Computing Combiner",
        &[
            "plan",
            "combiner replicas",
            "combiner killed",
            "completed",
            "valid",
            "t (s)",
        ],
    );
    for (label, strategy, kill) in [
        ("with active backup", Strategy::Overcollection, false),
        ("with active backup", Strategy::Overcollection, true),
        ("single combiner", Strategy::Naive, false),
        ("single combiner", Strategy::Naive, true),
    ] {
        let (plan, report) = scripted_run(
            (5, 5),
            (1_500, 150),
            vec![],
            &resilience(strategy, 0.1, 0.99),
            |plan| Vec::from_iter(kill.then(|| plan.combiner().device)),
        );
        table.row(&[
            label.to_string(),
            plan.combiners().len().to_string(),
            kill.to_string(),
            report.completed.to_string(),
            report.valid.to_string(),
            fnum(report.completion_secs.unwrap_or(f64::NAN)),
        ]);
    }
    table
}

/// Validity, message cost and completion latency of the two resilient
/// strategies across the fault presumption range.
fn e10_strategies() -> Table {
    let trials = 15;
    let mut table = Table::new(
        format!("E10 — strategy trade-offs ({trials} trials/point, crashes at launch)"),
        &[
            "p",
            "strategy",
            "valid",
            "mean msgs",
            "mean bytes",
            "mean t (s)",
        ],
    );
    for p_fail in [0.05f64, 0.15, 0.25] {
        for strategy in [Strategy::Overcollection, Strategy::Backup] {
            let point = survey_sweep(
                trials,
                &cap(50),
                &resilience(strategy, p_fail, 0.99),
                |seed| {
                    let world = crowd(seed * 3 + 11, 3_500, 300, NetworkProfile::Internet);
                    crashing_at_launch(world, p_fail)
                },
            );
            table.row(&[
                fnum(p_fail),
                strategy.name().to_string(),
                out_of(point.valid, point.trials),
                fnum(point.mean_messages),
                fnum(point.mean_bytes),
                fnum(point.mean_completion_secs),
            ]);
        }
    }
    table
}

/// Each Computer either iterates on its full fixed partition, or draws a
/// fresh mini-batch from it every heartbeat (§2.2's Mini-batch remark).
fn e11_minibatch() -> Table {
    let mut table = Table::new(
        format!("E11 — fixed partition vs mini-batch resampling ({KMEANS_SEEDS} seeds, 10% loss)"),
        &["mode", "heartbeats", "mean inertia ratio"],
    );
    for (label, minibatch_fraction) in [
        ("fixed partition", None),
        ("resample 25%", Some(0.25)),
        ("resample 50%", Some(0.5)),
    ] {
        for heartbeats in [2usize, 4, 8] {
            let (mean, _) = mean_ratio(|seed| {
                let mut config = crowd(seed * 17 + 3, 2_500, 80, lossy(0.1));
                config.exec.minibatch_fraction = minibatch_fraction;
                inertia_ratio(config, heartbeats)
            });
            table.row(&[label.to_string(), heartbeats.to_string(), fnum(mean)]);
        }
    }
    table
}

/// Two ways to absorb message loss at the collection stage: retry the
/// contribution round, or overcollect partitions (the paper's mechanism).
fn e12_retries() -> Table {
    let trials = 10;
    let mut table = Table::new(
        format!("E12 — collection retries under message loss ({trials} trials/point)"),
        &["loss p", "retries", "valid", "mean msgs", "mean t (s)"],
    );
    for loss in [0.1f64, 0.25, 0.4] {
        for retries in [0u32, 1, 3] {
            let point = survey_sweep(
                trials,
                &cap(75),
                &resilience(Strategy::Overcollection, 0.1, 0.99),
                |seed| {
                    let mut config = crowd(seed * 5 + 2, 2_200, 120, lossy(loss));
                    config.exec.collection_retries = retries;
                    config
                },
            );
            table.row(&[
                fnum(loss),
                retries.to_string(),
                out_of(point.valid, point.trials),
                fnum(point.mean_messages),
                fnum(point.mean_completion_secs),
            ]);
        }
    }
    table
}

/// How evenly the raw-data handling spreads over the crowd as the
/// privacy cap varies, measured from executed queries.
fn e13_liability() -> Table {
    let mut table = Table::new(
        "E13 — crowd liability vs horizontal cap (C = 1000)",
        &[
            "cap",
            "processors used",
            "max ops/device",
            "max raw share %",
            "gini(processors)",
        ],
    );
    for max_tuples in [1_000usize, 500, 200, 100, 50] {
        let mut p = Platform::build(crowd(8, 6_000, 400, NetworkProfile::Reliable));
        let spec = census_spec(&mut p, 1_000);
        let run = p
            .run_query(
                &spec,
                &cap(max_tuples),
                &resilience(Strategy::Overcollection, 0.05, 0.999),
            )
            .expect("run");
        assert!(run.report.valid, "cap {max_tuples}: {:?}", run.report);
        let ledger = &run.report.ledger;
        table.row(&[
            max_tuples.to_string(),
            run.plan.processor_devices().len().to_string(),
            ledger.max_operators().to_string(),
            fnum(100.0 * ledger.max_raw_tuples() as f64 / 1_000.0),
            fnum(ledger.processor_gini()),
        ]);
    }
    table
}

/// The Backup strategy's suspicion timeout trades takeover latency
/// against false suspicion.
fn e14_failure_detector() -> Table {
    let trials = 10;
    let mut table = Table::new(
        format!("E14 — Backup suspicion timeout sweep ({trials} trials/point, p = 0.2)"),
        &["suspect timeout (s)", "valid", "mean msgs", "mean t (s)"],
    );
    for timeout_s in [2u64, 6, 15, 30] {
        let point = survey_sweep(
            trials,
            &cap(50),
            &resilience(Strategy::Backup, 0.2, 0.99),
            |seed| {
                let world = crowd(seed * 11 + 4, 3_500, 300, NetworkProfile::Internet);
                let mut config = crashing_at_launch(world, 0.2);
                config.exec.ping_period = Duration::from_secs((timeout_s / 2).max(1));
                config.exec.suspect_timeout = Duration::from_secs(timeout_s);
                config
            },
        );
        table.row(&[
            timeout_s.to_string(),
            out_of(point.valid, point.trials),
            fnum(point.mean_messages),
            fnum(point.mean_completion_secs),
        ]);
    }
    table
}
