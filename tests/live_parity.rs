//! Cross-engine parity: the live runtime and the simulator must be
//! observationally identical.
//!
//! For a corpus of seeded chaos-scenario worlds (Backup-strategy
//! grouping and Overcollection K-Means), the same query executed on
//! the simulator (`Platform::run_query`) and on the live runtime
//! (`edgelet_live::run_live_query`, worker threads + striped transport)
//! must produce:
//!
//! * **byte-identical query results** (`ExecutionReport::result_payload`),
//! * **equivalent liability ledgers** (identical per-device entries),
//! * **identical trace digests** (the strongest receipt: every traced
//!   protocol event matches, in order), and
//! * **zero chaos-oracle violations** on the live trace — the protocol
//!   invariants audited on simulator runs hold verbatim on live runs.
//!
//! The same holds under the chaos catalog's window-safe fault plans: a
//! plan is part of the world, and its rules fire inside the executor
//! both engines share. A plan the live runtime cannot run (`skip`,
//! `limit`, `Reorder`) is refused with a typed error.
//!
//! Plus the resilience drill: crash a combiner primary mid-flight on
//! both engines and require the Active Backup to take over and deliver
//! before the deadline.

use edgelet_chaos::{catalog, check_run, ChaosScenario, FaultPlan, Session};
use edgelet_core::{Platform, PlatformConfig, RunResult};
use edgelet_live::{
    build_live_world, run_live_query, LiveRun, LiveRunOptions, QueryService, ServiceConfig,
    StripedTransport,
};
use edgelet_ml::AggSpec;
use edgelet_privacy::analyze_plan;
use edgelet_sim::{FaultAction, FaultRule, SimTime, TraceEvent};
use edgelet_store::Predicate;
use edgelet_util::Error;
use edgelet_wire::{Envelope, Transport, TransportError};
use std::sync::Arc;

/// Seeds per scenario; 2 scenarios × 8 seeds = the 16-world corpus.
const SEEDS_PER_SCENARIO: u64 = 8;

/// What a socket would do to every message: a [`StripedTransport`]
/// whose submissions go through `to_wire`/`from_wire` first. The lanes
/// themselves move envelopes untouched, so this is where the codec
/// meets whole queries.
struct Reserialising(StripedTransport);

fn recoded(env: &Envelope) -> Envelope {
    Envelope::from_wire(&env.to_wire()).expect("an envelope decodes from its own encoding")
}

impl Transport for Reserialising {
    fn submit(&self, env: Envelope) -> Result<(), TransportError> {
        self.0.submit(recoded(&env))
    }
    fn submit_batch(&self, batch: &mut Vec<Envelope>) -> Result<(), TransportError> {
        let mut wired: Vec<Envelope> = batch.iter().map(recoded).collect();
        let result = self.0.submit_batch(&mut wired);
        batch.drain(..batch.len() - wired.len());
        result
    }
    fn drain(&self, epoch: u64, lane: usize) -> Vec<Envelope> {
        self.0.drain(epoch, lane)
    }
    fn pending(&self, epoch: u64, lane: usize) -> Option<(usize, u64)> {
        self.0.pending(epoch, lane)
    }
}

/// Runs the session's query on the live runtime and packages the result
/// exactly like `RunResult` so the oracles can audit it.
fn run_on_live(session: &Session, workers: usize, epoch: u64) -> (LiveRun, RunResult) {
    let transport = Arc::new(StripedTransport::new(4096));
    transport.register_epoch(epoch, workers);
    let live = run_live_query(
        session.platform(),
        session.spec(),
        session.privacy(),
        session.resilience(),
        transport.clone(),
        &LiveRunOptions::new(workers, epoch),
        None,
    )
    .expect("live execution");
    assert_eq!(
        transport.rejected_unknown_epoch(),
        0,
        "a single-epoch run must never produce cross-epoch traffic"
    );
    let as_result = RunResult {
        plan: live.plan.clone(),
        report: live.report.clone(),
        exposure: analyze_plan(&live.plan),
        trace_digest: live.trace_digest,
        trace: live.trace.clone(),
    };
    (live, as_result)
}

/// The chaos catalog's plan called `name` for this world, or the empty
/// plan.
fn plan_named(scenario: ChaosScenario, seed: u64, name: Option<&str>) -> FaultPlan {
    let Some(name) = name else {
        return FaultPlan::new();
    };
    let catalog = catalog(scenario, seed).expect("the catalog plans");
    catalog
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no catalog plan `{name}`"))
        .plan
}

fn assert_parity(
    scenario: ChaosScenario,
    seed: u64,
    workers: usize,
    plan: Option<&str>,
) -> LiveRun {
    let sim = scenario
        .open(seed, plan_named(scenario, seed, plan))
        .run()
        .expect("simulator execution");
    let session = scenario.open(seed, plan_named(scenario, seed, plan));
    let (live, live_result) = run_on_live(&session, workers, 1 + seed);
    let ctx = format!(
        "scenario={} seed={seed} workers={workers} plan={plan:?}",
        scenario.name()
    );

    // Byte-identical results.
    assert_eq!(
        live.report.result_payload, sim.result.report.result_payload,
        "result payload bytes diverged ({ctx})"
    );
    // Equivalent liability ledgers: identical per-device entries.
    assert_eq!(
        live.report.ledger.entries(),
        sim.result.report.ledger.entries(),
        "liability ledgers diverged ({ctx})"
    );
    // Identical traces (digest covers every recorded protocol event).
    assert_eq!(
        live.trace_digest, sim.result.trace_digest,
        "trace digests diverged ({ctx})"
    );
    // Scalar report parity.
    assert_eq!(live.report.completed, sim.result.report.completed, "{ctx}");
    assert_eq!(live.report.valid, sim.result.report.valid, "{ctx}");
    assert_eq!(
        live.report.messages_sent, sim.result.report.messages_sent,
        "{ctx}"
    );
    assert_eq!(
        live.report.bytes_sent, sim.result.report.bytes_sent,
        "{ctx}"
    );
    assert_eq!(
        live.report.completion_secs, sim.result.report.completion_secs,
        "{ctx}"
    );
    // The live trace passes the same protocol oracles as the simulator's:
    // all of them on a clean run, the same ones under a fault plan.
    let violations = check_run(&session.package(live_result));
    let expected = if plan.is_some() {
        check_run(&sim)
    } else {
        Vec::new()
    };
    assert_eq!(
        violations, expected,
        "chaos oracles judged the live run differently ({ctx})"
    );
    live
}

#[test]
fn grouping_worlds_match_across_engines() {
    for seed in 0..SEEDS_PER_SCENARIO {
        // Alternate worker counts so both the single-worker and the
        // multi-worker barrier paths are exercised across the corpus.
        let workers = if seed % 2 == 0 { 1 } else { 4 };
        assert_parity(ChaosScenario::Grouping, seed, workers, None);
    }
}

#[test]
fn kmeans_worlds_match_across_engines() {
    for seed in 0..SEEDS_PER_SCENARIO {
        let workers = if seed % 2 == 0 { 4 } else { 1 };
        assert_parity(ChaosScenario::KMeans, seed, workers, None);
    }
}

/// The chaos catalog's window-safe plans: the same faults fire at the
/// same virtual instants on both engines, so the bytes, the trace digest
/// (every `FaultInjected` record included) and the timing all match.
#[test]
fn window_safe_fault_plans_match_across_engines() {
    for scenario in ChaosScenario::ALL {
        for (seed, plan) in [
            (1, "delay-partials"),
            (2, "partition-computers-from-combiners"),
            (3, "drop-contribute-requests-early"),
        ] {
            let workers = if seed % 2 == 0 { 1 } else { 4 };
            let live = assert_parity(scenario, seed, workers, Some(plan));
            let fired = live
                .trace
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::FaultInjected { .. }))
                .count();
            assert!(fired > 0, "{} {plan}: no rule fired", scenario.name());
        }
    }
}

/// A plan whose rules read cross-message state needs the simulator's
/// global event order; the live runtime refuses it up front.
#[test]
fn stateful_fault_plans_are_refused_by_the_live_runtime() {
    for rule in [
        FaultRule::new(FaultAction::Drop).limit(1),
        FaultRule::new(FaultAction::Drop).skip(1),
        FaultRule::new(FaultAction::Reorder),
    ] {
        let session = ChaosScenario::Grouping.open(0, FaultPlan::new().rule(rule.clone()));
        let transport = Arc::new(StripedTransport::new(64));
        transport.register_epoch(1, 2);
        let refused = build_live_world(
            session.platform(),
            session.spec(),
            transport,
            &LiveRunOptions::new(2, 1),
        );
        match refused {
            Err(Error::InvalidConfig(why)) => assert!(why.contains("window-safe"), "{why}"),
            Err(other) => panic!("{rule:?}: expected InvalidConfig, got {other}"),
            Ok(_) => panic!("{rule:?}: the live runtime accepted a stateful plan"),
        }
    }
}

/// The codec property, held on whole queries instead of paid on every
/// message: a run whose every envelope was encoded and decoded on its
/// way into the lanes is the plain run, byte for byte.
#[test]
fn a_reserialising_transport_changes_nothing() {
    for scenario in [ChaosScenario::Grouping, ChaosScenario::KMeans] {
        for workers in [1, 2] {
            let session = scenario.open(3, FaultPlan::new());
            let (plain, _) = run_on_live(&session, workers, 5);
            let wired = Reserialising(StripedTransport::new(4096));
            wired.0.register_epoch(5, workers);
            let wired = run_live_query(
                session.platform(),
                session.spec(),
                session.privacy(),
                session.resilience(),
                Arc::new(wired),
                &LiveRunOptions::new(workers, 5),
                None,
            )
            .expect("live execution over the reserialising transport");
            let ctx = format!("scenario={} workers={workers}", scenario.name());
            assert!(
                plain.report.completed && plain.report.messages_sent > 0,
                "{ctx}"
            );
            assert_eq!(
                wired.report.result_payload, plain.report.result_payload,
                "{ctx}"
            );
            assert_eq!(
                wired.report.ledger.entries(),
                plain.report.ledger.entries(),
                "{ctx}"
            );
            assert_eq!(
                wired.report.messages_sent, plain.report.messages_sent,
                "{ctx}"
            );
            assert_eq!(wired.report.bytes_sent, plain.report.bytes_sent, "{ctx}");
            assert!(plain.trace_digest.is_some(), "{ctx}");
            assert_eq!(wired.trace_digest, plain.trace_digest, "{ctx}");
        }
    }
}

/// Crash-one-worker resilience drill: kill a Data Processor primary
/// mid-flight on the live runtime and require the Active Backup chain
/// to take over and still deliver a complete, valid result before the
/// deadline.
#[test]
fn crashed_primary_is_covered_by_backup_before_deadline() {
    let session = ChaosScenario::Grouping.open(0, FaultPlan::new());
    let plan = session.plan().expect("planning is deterministic");
    let victim = plan
        .operators
        .iter()
        .find(|o| o.role.is_data_processor() && !o.backups.is_empty())
        .expect("Backup strategy replicates every Data Processor")
        .device;

    let transport = Arc::new(StripedTransport::new(4096));
    transport.register_epoch(7, 4);
    let mut opts = LiveRunOptions::new(4, 7);
    // Fault-free completion is ~0.05s virtual; crashing at 0.01s lands
    // squarely before the primary can emit its partial.
    opts.crash_script = vec![(victim, SimTime::from_micros(10_000))];
    let live = run_live_query(
        session.platform(),
        session.spec(),
        session.privacy(),
        session.resilience(),
        transport,
        &opts,
        None,
    )
    .expect("live execution");

    let crashed = live
        .trace
        .iter()
        .any(|r| matches!(r.event, TraceEvent::Crashed { device, .. } if device == victim));
    assert!(crashed, "the scripted crash must appear in the trace");
    assert!(
        live.report.completed,
        "backup takeover must complete the query"
    );
    assert!(live.report.valid, "the recovered result must stay valid");
    let done = live
        .report
        .completion_secs
        .expect("completed runs are timed");
    assert!(
        done <= session.spec().deadline_secs,
        "takeover must land before the deadline ({done} vs {})",
        session.spec().deadline_secs
    );
    // Losing a primary costs time: completion is strictly later than the
    // fault-free run's (otherwise the backup never actually took over).
    let baseline = ChaosScenario::Grouping
        .open(0, FaultPlan::new())
        .run()
        .expect("fault-free baseline");
    assert!(
        done > baseline.result.report.completion_secs.unwrap(),
        "recovery must visibly route through the backup chain"
    );
}

/// Concurrent serving: three queries through one [`QueryService`] over
/// a shared device pool, each in its own epoch. Per-query isolation is
/// proven by determinism — all three runs of the same spec produce
/// byte-identical results, which cross-epoch interference (a stray
/// envelope, a perturbed RNG stream) would break — and by the
/// transport's cross-epoch rejection counter staying at zero.
#[test]
fn service_serves_three_concurrent_queries_with_epoch_isolation() {
    let mut platform = Platform::build(PlatformConfig {
        seed: 11,
        contributors: 90,
        processors: 24,
        fault_plan: Some(FaultPlan::new()),
        trace_capacity: 1 << 16,
        ..PlatformConfig::default()
    });
    let spec = platform.grouping_query(
        Predicate::True,
        40,
        &[&["sex"], &[]],
        vec![AggSpec::count_star()],
    );
    let privacy = edgelet_query::PrivacyConfig::none().with_max_tuples(20);
    let resilience = edgelet_query::ResilienceConfig {
        failure_probability: 0.1,
        target_validity: 0.99,
        strategy: edgelet_query::Strategy::Backup,
        max_overcollection: 64,
        max_backups: 4,
    };
    let service = QueryService::new(
        platform,
        ServiceConfig {
            workers: 2,
            max_concurrent: 3,
            mailbox_capacity: 4096,
        },
    );

    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    service.submit(
                        &spec,
                        &privacy,
                        &resilience,
                        Some(std::time::Duration::from_secs(120)),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let outcomes: Vec<_> = outcomes
        .into_iter()
        .map(|o| o.expect("all three submissions fit under max_concurrent"))
        .collect();
    assert_eq!(outcomes.len(), 3);
    let mut epochs: Vec<u64> = outcomes.iter().map(|o| o.epoch).collect();
    epochs.sort_unstable();
    epochs.dedup();
    assert_eq!(epochs.len(), 3, "each query must run in its own epoch");
    for o in &outcomes {
        assert!(o.succeeded(), "epoch {} failed: {:?}", o.epoch, o.run.exit);
    }
    // Determinism across concurrent executions of the same spec: any
    // cross-epoch leakage would perturb at least one of these.
    for o in &outcomes[1..] {
        assert_eq!(
            o.run.report.result_payload,
            outcomes[0].run.report.result_payload
        );
        assert_eq!(o.run.trace_digest, outcomes[0].run.trace_digest);
        assert_eq!(
            o.run.report.ledger.entries(),
            outcomes[0].run.report.ledger.entries()
        );
    }
    assert_eq!(
        service.transport().rejected_unknown_epoch(),
        0,
        "no envelope may cross into another query's epoch"
    );
    // Retired epochs refuse traffic: the structural isolation mechanism.
    assert_eq!(service.transport().active_epochs(), 0);
    service.shutdown();
}
