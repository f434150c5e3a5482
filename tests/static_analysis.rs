//! Integration tests for the `edgelet-analyze` static analyzer: the
//! semantic passes catch seeded violations of every property family the
//! paper's guarantees rest on, and the source lint keeps the workspace
//! free of nondeterminism.

use edgelet_analyze::{analyze, has_errors, render_json, AnalyzeOptions};
use edgelet_core::prelude::*;
use edgelet_core::query::{OperatorRole, QueryPlan};
use std::path::Path;

/// Plans the reference scenario: a capped, vertically-separated
/// Grouping-Sets survey under Overcollection.
fn planned_world() -> (QueryPlan, PrivacyConfig, ResilienceConfig) {
    planned_world_with(Strategy::Overcollection)
}

/// The reference scenario under the given resiliency strategy.
fn planned_world_with(strategy: Strategy) -> (QueryPlan, PrivacyConfig, ResilienceConfig) {
    let mut platform = Platform::build(PlatformConfig {
        seed: 11,
        contributors: 4_000,
        processors: 400,
        network: NetworkProfile::Reliable,
        ..PlatformConfig::default()
    });
    let spec = platform.grouping_query(
        Predicate::True,
        400,
        &[&["sex"], &[]],
        vec![
            AggSpec::count_star(),
            AggSpec::over(AggKind::Avg, "bmi"),
            AggSpec::over(AggKind::Avg, "systolic_bp"),
        ],
    );
    let privacy = PrivacyConfig::none()
        .with_max_tuples(100)
        .separate("bmi", "systolic_bp");
    let resilience = ResilienceConfig {
        strategy,
        failure_probability: 0.15,
        ..ResilienceConfig::default()
    };
    let plan = platform.plan_query(&spec, &privacy, &resilience).unwrap();
    (plan, privacy, resilience)
}

fn codes_of(
    plan: &QueryPlan,
    privacy: &PrivacyConfig,
    resilience: &ResilienceConfig,
) -> Vec<&'static str> {
    analyze(plan, privacy, resilience, &AnalyzeOptions::default())
        .iter()
        .map(|d| d.code)
        .collect()
}

#[test]
fn planner_output_passes_every_semantic_pass() {
    for strategy in [Strategy::Overcollection, Strategy::Backup, Strategy::Naive] {
        let (plan, privacy, resilience) = planned_world_with(strategy);
        let findings = analyze(&plan, &privacy, &resilience, &AnalyzeOptions::default());
        assert!(!has_errors(&findings), "{strategy:?}: {findings:?}");
        assert!(edgelet_analyze::preflight(&plan).is_ok(), "{strategy:?}");
    }
}

#[test]
fn missing_computer_is_a_structure_error() {
    // Each seeded break of the QEP's wiring is refused by the structure
    // pass with its own code.
    let (plan, privacy, resilience) = planned_world();
    let first = |pred: fn(&OperatorRole) -> bool| {
        plan.operators.iter().position(|o| pred(&o.role)).unwrap()
    };
    let computer = first(|r| matches!(r, OperatorRole::Computer { .. }));
    let builder = first(|r| matches!(r, OperatorRole::SnapshotBuilder { .. }));
    let mut no_computer = plan.clone();
    no_computer.operators.remove(computer);
    let mut twin_builder = plan.clone();
    twin_builder.operators.push(plan.operators[builder].clone());
    let mut backwards_edge = plan.clone();
    let (a, b) = plan.edges[0];
    backwards_edge.edges.push((b, a));
    let mut missing_bucket = plan.clone();
    missing_bucket.contributors.pop();
    for (code, broken) in [
        ("E002", no_computer),
        ("E001", twin_builder),
        ("E004", backwards_edge),
        ("E005", missing_bucket),
    ] {
        let found = codes_of(&broken, &privacy, &resilience);
        assert!(found.contains(&code), "expected {code} in {found:?}");
    }
}

#[test]
fn colocated_separated_pair_is_a_privacy_error() {
    let (mut plan, privacy, resilience) = planned_world();
    assert!(plan.attr_groups.len() >= 2, "separation must split groups");
    let merged: Vec<String> = plan.attr_groups.concat();
    plan.attr_groups = vec![merged];
    assert!(codes_of(&plan, &privacy, &resilience).contains(&"E010"));
}

#[test]
fn quota_over_cap_is_a_horizontal_cap_error() {
    let (mut plan, privacy, resilience) = planned_world();
    plan.partition_quota = 101; // cap is 100
    assert!(codes_of(&plan, &privacy, &resilience).contains(&"E011"));
}

#[test]
fn stripped_overcollection_is_a_resiliency_error() {
    let (mut plan, privacy, resilience) = planned_world();
    assert!(
        plan.m > 0,
        "the planner must have provisioned spare partitions"
    );
    plan.m = 0;
    assert!(codes_of(&plan, &privacy, &resilience).contains(&"E020"));
}

#[test]
fn operator_concentration_is_a_liability_error() {
    let (mut plan, privacy, resilience) = planned_world();
    let d0 = plan.operators[0].device;
    for op in plan.operators.iter_mut() {
        if matches!(op.role, OperatorRole::Combiner { .. }) {
            op.device = d0;
        }
    }
    assert!(codes_of(&plan, &privacy, &resilience).contains(&"E030"));
}

#[test]
fn sub_floor_deadline_is_a_deadline_error() {
    let (mut plan, privacy, resilience) = planned_world();
    plan.spec.deadline_secs = 0.5;
    assert!(codes_of(&plan, &privacy, &resilience).contains(&"E040"));
}

#[test]
fn diagnostics_render_as_json_with_stable_codes() {
    let (mut plan, privacy, resilience) = planned_world();
    plan.spec.deadline_secs = 0.5;
    plan.partition_quota = 101;
    let findings = analyze(&plan, &privacy, &resilience, &AnalyzeOptions::default());
    let json = render_json(&findings);
    assert!(json.contains("\"code\":\"E040\""), "{json}");
    assert!(json.contains("\"code\":\"E011\""), "{json}");
    assert!(json.contains("\"severity\":\"error\""), "{json}");
    assert!(json.trim_start().starts_with('['), "{json}");
    assert!(json.trim_end().ends_with(']'), "{json}");
}

#[test]
fn preflight_denies_a_broken_plan_and_passes_a_sound_one() {
    let (plan, _, _) = planned_world();
    assert!(edgelet_analyze::preflight(&plan).is_ok());
    let mut broken = plan;
    broken.spec.deadline_secs = 0.5;
    let err = edgelet_analyze::preflight(&broken).unwrap_err();
    assert!(
        err.to_string().contains("E040"),
        "preflight should carry the diagnostic code: {err}"
    );
}

#[test]
fn group_commit_knobs_are_checked_against_deadline_and_cadence() {
    use edgelet_analyze::check_storage_config;

    // The WAL directory opened fine; only the group-commit knobs vary.
    let wal = || Some((Path::new("wal"), Ok(())));
    // A commit window the wall deadline cannot absorb is W143; segments
    // smaller than one checkpoint interval's churn are W144.
    let found = check_storage_config(true, wal(), 8, false, 50, Some(120), 1024);
    let codes: Vec<&str> = found.iter().map(|d| d.code).collect();
    assert_eq!(codes, vec!["W143", "W144"], "{found:?}");
    assert!(!has_errors(&found), "both are warnings, not errors");
    // Defaults (window off, 4 MiB segments) stay quiet.
    let found = check_storage_config(true, wal(), 8, false, 0, Some(120), 4 << 20);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn workspace_sources_are_lint_clean() {
    // The root package's manifest dir is the workspace root. This runs
    // every source layer: lint, the Layer-3 concurrency pass, and the
    // stale-suppression audit.
    let findings = edgelet_analyze::analyze_sources(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn concurrency_pass_catches_a_seeded_lock_order_cycle() {
    // Two paths acquire the same two lock classes in opposite orders —
    // the deadlock shape E130 exists to refuse. The fixture never
    // exists on disk; `tests/` is outside the analyzed tree.
    let fixture = "\
pub struct Pair { accounts: std::sync::Mutex<u64>, ledger: std::sync::Mutex<u64> }
impl Pair {
    pub fn forward(&self) {
        let _a = self.accounts.lock().unwrap();
        let _b = self.ledger.lock().unwrap();
    }
    pub fn backward(&self) {
        let _b = self.ledger.lock().unwrap();
        let _a = self.accounts.lock().unwrap();
    }
}
";
    let findings =
        edgelet_analyze::concurrency::check_source("crates/live/src/fixture.rs", "live", fixture);
    let cycle = findings
        .iter()
        .find(|d| d.code == "E130")
        .unwrap_or_else(|| panic!("expected E130 in {findings:#?}"));
    assert!(
        cycle.message.contains("accounts") && cycle.message.contains("ledger"),
        "the cycle report must name both lock classes: {cycle:?}"
    );

    // A consistent global order is clean.
    let consistent = fixture.replace(
        "let _b = self.ledger.lock().unwrap();\n        let _a = self.accounts.lock().unwrap();",
        "let _a = self.accounts.lock().unwrap();\n        let _b = self.ledger.lock().unwrap();",
    );
    let findings = edgelet_analyze::concurrency::check_source(
        "crates/live/src/fixture.rs",
        "live",
        &consistent,
    );
    assert!(!findings.iter().any(|d| d.code == "E130"), "{findings:#?}");
}

#[test]
fn concurrency_pass_catches_a_seeded_lock_held_across_send() {
    let fixture = "\
pub fn flush(state: &std::sync::Mutex<Vec<u8>>, tx: &std::sync::mpsc::Sender<u8>) {
    let guard = state.lock().unwrap();
    for b in guard.iter() {
        tx.send(*b).unwrap();
    }
}
";
    let findings =
        edgelet_analyze::concurrency::check_source("crates/live/src/fixture.rs", "live", fixture);
    let held = findings
        .iter()
        .find(|d| d.code == "E132")
        .unwrap_or_else(|| panic!("expected E132 in {findings:#?}"));
    assert!(
        held.location.contains("fixture.rs:4"),
        "the finding must point at the send under the guard: {held:?}"
    );

    // Dropping the guard before sending is clean.
    let released = "\
pub fn flush(state: &std::sync::Mutex<Vec<u8>>, tx: &std::sync::mpsc::Sender<u8>) {
    let copied = { state.lock().unwrap().clone() };
    for b in copied.iter() {
        tx.send(*b).unwrap();
    }
}
";
    let findings =
        edgelet_analyze::concurrency::check_source("crates/live/src/fixture.rs", "live", released);
    assert!(!findings.iter().any(|d| d.code == "E132"), "{findings:#?}");
}

#[test]
fn net_config_pass_catches_seeded_deployment_mistakes() {
    use edgelet_analyze::{check_net_config, NetSurface};

    // A well-formed daemon surface is clean.
    let sound = NetSurface {
        listen: Some(("uds:/tmp/edgelet-fixture.sock", Ok(false))),
        expected_workers: Some(2),
        handshake_timeout_ms: Some(10_000),
        deadline_secs: Some(600.0),
        ..NetSurface::default()
    };
    assert!(check_net_config(&sound).is_empty());

    // An unresolvable listen address is E150, an error.
    let broken = NetSurface {
        listen: Some((
            "ipc:/tmp/edgelet-fixture.sock",
            Err("address must start with `uds:` or `tcp:`".into()),
        )),
        ..NetSurface::default()
    };
    let found = check_net_config(&broken);
    assert!(has_errors(&found), "{found:?}");
    assert!(found.iter().any(|d| d.code == "E150"), "{found:?}");

    // TCP reconnect with default backoff bounds is W151, a warning.
    let lazy = NetSurface {
        connect: Some(("tcp:10.0.0.2:7000", Ok(true))),
        ..NetSurface::default()
    };
    let found = check_net_config(&lazy);
    assert!(!has_errors(&found), "{found:?}");
    assert!(found.iter().any(|d| d.code == "W151"), "{found:?}");

    // A handshake timeout beyond the query deadline is W152.
    let greedy = NetSurface {
        listen: Some(("uds:/tmp/edgelet-fixture.sock", Ok(false))),
        expected_workers: Some(2),
        handshake_timeout_ms: Some(700_000),
        deadline_secs: Some(600.0),
        ..NetSurface::default()
    };
    let found = check_net_config(&greedy);
    assert!(found.iter().any(|d| d.code == "W152"), "{found:?}");

    // The codes are registered in the stable registry, and the findings
    // render through the same JSON surface as every other pass.
    for code in ["E150", "W151", "W152"] {
        assert!(
            edgelet_analyze::diagnostic::codes::ALL
                .iter()
                .any(|(c, _, _)| *c == code),
            "{code} must be registered"
        );
    }
    let json = render_json(&check_net_config(&greedy));
    assert!(json.contains("\"code\":\"W152\""), "{json}");
}

#[test]
fn lint_catches_wall_clock_in_sim_sources() {
    // This fixture never exists on disk: `tests/` is outside the linted
    // tree, so spelling the needle out here is safe.
    let fixture = "pub fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    let findings = edgelet_analyze::lint::lint_source("crates/sim/src/fixture.rs", "sim", fixture);
    assert!(findings.iter().any(|d| d.code == "E102"), "{findings:#?}");
    assert!(
        findings[0].location.contains("fixture.rs:2"),
        "line numbers must survive stripping: {findings:#?}"
    );

    // The same source under an allow directive with a reason is accepted.
    let allowed = format!(
        "// lint: allow(E102 fixture demonstrating suppression)\n{}",
        fixture.replace('\n', " ")
    );
    let findings = edgelet_analyze::lint::lint_source("crates/sim/src/fixture.rs", "sim", &allowed);
    assert!(findings.is_empty(), "{findings:#?}");

    // Bench sources may read wall clocks, and so may the socket
    // runtime (IO deadlines and reconnect backoff are wall-clock by
    // nature; its virtual-time discipline is held by the parity tests).
    let findings = edgelet_analyze::lint::lint_source("crates/bench/src/lib.rs", "bench", fixture);
    assert!(findings.is_empty(), "{findings:#?}");
    let findings = edgelet_analyze::lint::lint_source("crates/net/src/conn.rs", "net", fixture);
    assert!(findings.is_empty(), "{findings:#?}");
}
