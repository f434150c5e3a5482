//! Storage-fault drills: the campaign's durability counterpart.
//!
//! A network fault plan perturbs messages in flight; a
//! [`StorageFaultPlan`](edgelet_store::StorageFaultPlan) perturbs the
//! durable service's WAL appends (torn tails, silently truncated
//! records, failed syncs, checksum flips — see `docs/STORAGE.md`). The
//! drill runs one scenario's query three times:
//!
//! 1. a **baseline** durable run on throwaway media (the byte-identity
//!    reference);
//! 2. a **faulted** incarnation over persistent media, with the fault
//!    plan injected between the service and the media;
//! 3. a **recovered** restart over the same media with the faults
//!    lifted, as a replacement process would see it after the incident.
//!
//! The recovered service must either finish the query with a result
//! payload, liability ledger, trace digest, and state CRC
//! byte-identical to the baseline, or come up deterministically drained
//! (read-only) when the log carries unrepairable mid-log damage — it
//! must never serve from a silently corrupted ledger. A drained
//! recovery is reported under the synthetic oracle name
//! [`STORAGE_DRAINED`], so corpus entries can pin either verdict.

use crate::oracle::{check_run, signature};
use crate::scenario::ChaosScenario;
use edgelet_core::RunResult;
use edgelet_live::{
    state_crc, DurabilityConfig, QueryService, RecoveryReport, ServiceConfig, SubmitError,
    SubmitOutcome,
};
use edgelet_privacy::analyze_plan;
use edgelet_query::{PrivacyConfig, QuerySpec, ResilienceConfig};
use edgelet_sim::FaultPlan;
use edgelet_store::{DurableBackend, FaultyBackend, MemBackend, StorageFaultPlan};
use edgelet_util::{Error, Result};
use std::sync::Arc;

/// Synthetic oracle name reported when recovery refuses the damaged
/// log and the service comes up drained (read-only).
pub const STORAGE_DRAINED: &str = "storage-drained";

/// Checkpoint cadence for drill services: > 1, so completions live in
/// the WAL (not a checkpoint) across the restart and replay is
/// exercised.
const CHECKPOINT_EVERY: u64 = 2;

/// What one storage drill observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageDrillReport {
    /// Oracle names that fired on the recovered run (sorted,
    /// deduplicated); `[STORAGE_DRAINED]` when recovery drained.
    pub oracles: Vec<String>,
    /// Trace digest of the recovered run (0 when drained).
    pub trace_digest: u64,
    /// Whether the recovered outcome was byte-identical to the clean
    /// baseline (vacuously false when drained).
    pub parity: bool,
    /// Whether the faulted incarnation drained to read-only mid-run
    /// (a loud fault, e.g. a torn tail killing the media).
    pub faulted_drained: bool,
    /// Whether recovery repaired a torn tail.
    pub repaired_tail: bool,
    /// Why the recovered service came up drained, if it did.
    pub drained: Option<String>,
}

impl StorageDrillReport {
    /// True when the drill ended in the only two acceptable states:
    /// byte-identical recovery, or a deterministic drain.
    pub fn acceptable(&self) -> bool {
        self.parity || self.drained.is_some()
    }
}

fn drill_error(msg: String) -> Error {
    Error::InvalidConfig(msg)
}

/// Opens the scenario's world and wraps it in a durable service over
/// `backend`. The world is rebuilt identically from (scenario, seed)
/// for every incarnation — only the media persists between them.
fn durable_service(
    scenario: ChaosScenario,
    seed: u64,
    backend: Arc<dyn DurableBackend>,
    segment_bytes: Option<u64>,
) -> (
    QueryService,
    QuerySpec,
    PrivacyConfig,
    ResilienceConfig,
    RecoveryReport,
) {
    let (platform, spec, privacy, resilience) = scenario.open(seed, FaultPlan::new()).into_parts();
    let (service, report) = QueryService::with_durability(
        platform,
        ServiceConfig {
            workers: 2,
            max_concurrent: 2,
            mailbox_capacity: 4096,
        },
        backend,
        DurabilityConfig {
            checkpoint_every: CHECKPOINT_EVERY,
            segment_bytes: segment_bytes
                .unwrap_or_else(|| DurabilityConfig::default().segment_bytes),
            ..DurabilityConfig::default()
        },
    );
    (service, spec, privacy, resilience, report)
}

fn submit(
    service: &QueryService,
    spec: &QuerySpec,
    privacy: &PrivacyConfig,
    resilience: &ResilienceConfig,
) -> std::result::Result<SubmitOutcome, SubmitError> {
    service.submit(spec, privacy, resilience, None)
}

/// Runs the three-incarnation storage drill for `(scenario, seed)`
/// under `plan`. Errors only on harness-level failures (the baseline
/// itself failing, an unexpected submit error); a drained recovery is
/// a *verdict*, not an error. `segment_bytes` overrides the WAL segment
/// size (`None` = the service default), so corpus entries can pin
/// faults that land at segment rotation boundaries.
pub fn run_storage_drill(
    scenario: ChaosScenario,
    seed: u64,
    plan: &StorageFaultPlan,
    segment_bytes: Option<u64>,
) -> Result<StorageDrillReport> {
    // 1. Clean durable baseline on throwaway media.
    let (service, spec, privacy, resilience, _) =
        durable_service(scenario, seed, Arc::new(MemBackend::new()), segment_bytes);
    let baseline = submit(&service, &spec, &privacy, &resilience)
        .map_err(|e| drill_error(format!("storage drill: baseline run failed: {e}")))?;
    service.shutdown();
    if !baseline.succeeded() {
        return Err(drill_error(
            "storage drill: baseline run did not complete".into(),
        ));
    }

    // 2. Faulted incarnation over persistent media.
    let media = Arc::new(MemBackend::new());
    let faulty: Arc<dyn DurableBackend> = Arc::new(FaultyBackend::new(media.clone(), plan.clone()));
    let (service, spec, privacy, resilience, _) =
        durable_service(scenario, seed, faulty, segment_bytes);
    let faulted = submit(&service, &spec, &privacy, &resilience);
    let faulted_drained = matches!(faulted, Err(SubmitError::ReadOnly { .. }));
    match faulted {
        // Silent faults complete; loud ones drain. Both are expected.
        Ok(_) | Err(SubmitError::ReadOnly { .. }) => {}
        Err(e) => return Err(drill_error(format!("storage drill: faulted run: {e}"))),
    }
    service.shutdown();

    // 3. Recovery over the same media, faults lifted.
    let (service, spec, privacy, resilience, report) =
        durable_service(scenario, seed, media, segment_bytes);
    let repaired_tail = report.repaired_tail.is_some();
    if let Some(reason) = report.drained {
        service.shutdown();
        return Ok(StorageDrillReport {
            oracles: vec![STORAGE_DRAINED.to_string()],
            trace_digest: 0,
            parity: false,
            faulted_drained,
            repaired_tail,
            drained: Some(reason),
        });
    }
    let recovered = submit(&service, &spec, &privacy, &resilience)
        .map_err(|e| drill_error(format!("storage drill: recovered run failed: {e}")))?;
    service.shutdown();

    let parity = recovered.run.report.result_payload == baseline.run.report.result_payload
        && recovered.run.report.ledger.entries() == baseline.run.report.ledger.entries()
        && recovered.run.trace_digest == baseline.run.trace_digest
        && state_crc(&recovered.run) == state_crc(&baseline.run);

    // Audit the recovered run with the same trace oracles that audit
    // simulator and live-parity runs.
    let session = scenario.open(seed, FaultPlan::new());
    let as_result = RunResult {
        plan: recovered.run.plan.clone(),
        report: recovered.run.report.clone(),
        exposure: analyze_plan(&recovered.run.plan),
        trace_digest: recovered.run.trace_digest,
        trace: recovered.run.trace.clone(),
    };
    let violations = check_run(&session.package(as_result));
    Ok(StorageDrillReport {
        oracles: signature(&violations),
        trace_digest: recovered.run.trace_digest.unwrap_or(0),
        parity,
        faulted_drained,
        repaired_tail,
        drained: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgelet_store::StorageFaultAction;

    #[test]
    fn clean_plan_drills_to_parity() {
        let report =
            run_storage_drill(ChaosScenario::Grouping, 1, &StorageFaultPlan::new(), None).unwrap();
        assert!(report.parity, "{report:?}");
        assert!(report.oracles.is_empty(), "{report:?}");
        assert!(!report.faulted_drained && report.drained.is_none());
    }

    #[test]
    fn torn_tail_drains_then_recovers_byte_identically() {
        // The 2nd append is the completion record: tear it mid-write.
        let plan = StorageFaultPlan::new().with(2, StorageFaultAction::TornTail { keep: 6 });
        let report = run_storage_drill(ChaosScenario::Grouping, 5, &plan, None).unwrap();
        assert!(report.faulted_drained, "a torn tail kills the media");
        assert!(report.repaired_tail, "recovery must repair the tail");
        assert!(report.parity, "{report:?}");
        assert!(report.oracles.is_empty(), "{report:?}");
    }

    #[test]
    fn failed_syncs_are_ridden_out_by_retry() {
        let plan = StorageFaultPlan::new().with(1, StorageFaultAction::FailedSync { times: 2 });
        let report = run_storage_drill(ChaosScenario::KMeans, 3, &plan, None).unwrap();
        assert!(!report.faulted_drained, "retry must absorb transient syncs");
        assert!(report.parity, "{report:?}");
    }

    #[test]
    fn tiny_segments_rotate_through_the_drill_and_stay_byte_identical() {
        // 256-byte segments force a rotation on nearly every append, so
        // the torn completion lands at a fresh segment's start and the
        // sealed segments must replay in order.
        let plan = StorageFaultPlan::new().with(2, StorageFaultAction::TornTail { keep: 6 });
        let report = run_storage_drill(ChaosScenario::Grouping, 5, &plan, Some(256)).unwrap();
        assert!(report.faulted_drained, "a torn tail kills the media");
        assert!(report.repaired_tail, "recovery must repair the tail");
        assert!(report.parity, "{report:?}");
    }

    #[test]
    fn mid_log_truncation_recovers_to_a_deterministic_drain() {
        // The intent record (append 1) is silently cut short while the
        // completion lands intact: unrepairable mid-log damage.
        let plan = StorageFaultPlan::new().with(1, StorageFaultAction::TruncatedRecord { keep: 4 });
        let report = run_storage_drill(ChaosScenario::Grouping, 2, &plan, None).unwrap();
        assert_eq!(report.oracles, vec![STORAGE_DRAINED.to_string()]);
        assert!(report.drained.is_some() && !report.parity);
        assert!(report.acceptable());
    }
}
