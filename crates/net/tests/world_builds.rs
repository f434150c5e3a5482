//! The daemon builds one world per host, the worker one per epoch —
//! held by counts, not times — and an epoch started from the kept
//! `CoordinatorTemplate` answers like one started from a fresh build.
//!
//! A counting [`WorldBuilder`] sits on each side of a Unix-socket
//! daemon and one `run_worker`, the deployment `net_grouping` measures.

use edgelet_core::prelude::{
    AggKind, AggSpec, CmpOp, Platform, PlatformConfig, Predicate, PrivacyConfig, QuerySpec,
    ResilienceConfig, Value,
};
use edgelet_core::NetworkProfile;
use edgelet_live::{
    prepare_live_query, run_live_query, ExitReason, LiveRun, LiveRunOptions, PreparedQuery,
    QueryService, RemoteExecutor, ServiceConfig, StripedTransport,
};
use edgelet_net::{
    run_worker, Addr, CollectorTransport, Daemon, NetConfig, WorkerConfig, WorldBuilder,
};
use edgelet_util::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SPEC_BYTES: &[u8] = b"world-builds/1";

/// A small traced world (an installed, empty fault plan turns on
/// message-kind classification, so the trace digest covers the
/// template's classifier too), its canonical query and another one the
/// same crowd can answer.
struct Opened {
    platform: Platform,
    canonical: QuerySpec,
    other: QuerySpec,
    privacy: PrivacyConfig,
    resilience: ResilienceConfig,
}

fn open() -> Opened {
    let mut platform = Platform::build(PlatformConfig {
        seed: 11,
        contributors: 40,
        processors: 24,
        network: NetworkProfile::Reliable,
        fault_plan: Some(edgelet_sim::FaultPlan::new()),
        trace_capacity: 1 << 16,
        ..PlatformConfig::default()
    });
    let mut query = |cardinality| {
        platform.grouping_query(
            Predicate::cmp("age", CmpOp::Gt, Value::Int(65)),
            cardinality,
            &[&["sex"], &[]],
            vec![AggSpec::count_star(), AggSpec::over(AggKind::Avg, "bmi")],
        )
    };
    Opened {
        canonical: query(20),
        other: query(10),
        platform,
        privacy: PrivacyConfig::none().with_max_tuples(10),
        resilience: ResilienceConfig {
            failure_probability: 0.0,
            ..ResilienceConfig::default()
        },
    }
}

/// Rebuilds the canonical world, as a separate process would, and
/// counts how often it is asked to.
#[derive(Default)]
struct Counting {
    calls: AtomicUsize,
    fail_first: AtomicBool,
}

impl WorldBuilder for Counting {
    fn build(&self, spec: &[u8], epoch: u64, workers: usize) -> Result<PreparedQuery> {
        assert_eq!(spec, SPEC_BYTES);
        if self.calls.fetch_add(1, Ordering::SeqCst) == 0 && self.fail_first.load(Ordering::SeqCst)
        {
            return Err(Error::InvalidConfig("first build refused".into()));
        }
        let w = open();
        prepare_live_query(
            &w.platform,
            &w.canonical,
            &w.privacy,
            &w.resilience,
            Arc::new(CollectorTransport::new(workers)),
            &LiveRunOptions::new(workers, epoch),
        )
    }
}

/// A daemon and one socket worker, each over its own counting builder.
struct Deployment {
    daemon: Arc<Daemon>,
    daemon_side: Arc<Counting>,
    worker_side: Arc<Counting>,
    stop: Arc<AtomicBool>,
    worker: Option<std::thread::JoinHandle<()>>,
    path: std::path::PathBuf,
    /// What a host submitting to this daemon holds.
    world: Opened,
}

impl Deployment {
    fn start(tag: &str, daemon_side: Counting) -> Deployment {
        let path =
            std::path::PathBuf::from(format!("/tmp/edgelet-wb-{}-{tag}.sock", std::process::id()));
        let addr = Addr::Uds(path.clone());
        let (daemon_side, worker_side) = (Arc::new(daemon_side), Arc::new(Counting::default()));
        let daemon = Arc::new(
            Daemon::start(
                &addr,
                NetConfig {
                    expected_workers: 1,
                    world_spec: SPEC_BYTES.to_vec(),
                    ..NetConfig::default()
                },
                daemon_side.clone(),
            )
            .expect("daemon binds a fresh UDS path"),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let (stop, builder) = (stop.clone(), worker_side.clone());
            std::thread::spawn(move || {
                run_worker(&WorkerConfig::new(addr), builder, &stop).expect("worker ends cleanly");
            })
        };
        assert!(daemon.wait_workers(Duration::from_secs(30)));
        assert_eq!(
            daemon_side.calls.load(Ordering::SeqCst),
            0,
            "starting a daemon builds no world (set-up stays lazy)"
        );
        Deployment {
            daemon,
            daemon_side,
            worker_side,
            stop,
            worker: Some(worker),
            path,
            world: open(),
        }
    }

    fn builds(&self) -> (usize, usize) {
        (
            self.daemon_side.calls.load(Ordering::SeqCst),
            self.worker_side.calls.load(Ordering::SeqCst),
        )
    }

    fn try_run(&self, epoch: u64, spec: &QuerySpec, abort: bool) -> Option<Result<LiveRun>> {
        let w = &self.world;
        let abort = AtomicBool::new(abort);
        self.daemon
            .try_run(epoch, spec, &w.privacy, &w.resilience, &abort)
    }

    fn run(&self, epoch: u64) -> LiveRun {
        self.try_run(epoch, &self.world.canonical, false)
            .expect("the fleet is complete")
            .expect("distributed epoch completes")
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.daemon.shutdown();
        if let Some(w) = self.worker.take() {
            w.join().ok();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The in-process live run of `spec` on the same world.
fn in_process(spec: &QuerySpec, epoch: u64) -> LiveRun {
    let w = open();
    let transport = Arc::new(StripedTransport::new(4096));
    transport.register_epoch(epoch, 1);
    run_live_query(
        &w.platform,
        spec,
        &w.privacy,
        &w.resilience,
        transport,
        &LiveRunOptions::new(1, epoch),
        None,
    )
    .expect("in-process live execution")
}

/// Everything a client can tell two runs apart by.
fn verdict(run: &LiveRun) -> impl PartialEq + std::fmt::Debug {
    let r = &run.report;
    assert!(run.trace_digest.is_some(), "the world is traced");
    (
        (r.completed, r.valid, r.completion_secs),
        r.result_payload.clone(),
        edgelet_wire::to_bytes(&r.ledger),
        (r.messages_sent, r.bytes_sent),
        run.trace_digest,
        run.exit,
    )
}

#[test]
fn the_daemon_builds_once_the_worker_every_epoch_and_every_epoch_answers_alike() {
    let d = Deployment::start("counts", Counting::default());
    let reference = in_process(&d.world.canonical, 1);
    assert!(reference.report.completed && reference.report.valid);
    for epoch in 1..=6 {
        let run = d.run(epoch);
        assert_eq!(verdict(&run), verdict(&reference), "epoch {epoch}");
        assert_eq!(d.builds(), (1, epoch as usize), "epoch {epoch}");
    }
}

#[test]
fn a_failed_first_build_leaves_no_template_and_the_next_epoch_builds_again() {
    let failing = Counting::default();
    failing.fail_first.store(true, Ordering::SeqCst);
    let d = Deployment::start("failfirst", failing);
    let w = open();
    let reference = in_process(&w.canonical, 1);
    let service = QueryService::new(
        w.platform,
        ServiceConfig {
            workers: 1,
            max_concurrent: 1,
            mailbox_capacity: 4096,
        },
    );
    service.set_remote(d.daemon.clone());
    let submit = || {
        let o = service
            .submit(&w.canonical, &w.privacy, &w.resilience, None)
            .expect("submission is admitted");
        assert_eq!(verdict(&o.run), verdict(&reference));
    };
    submit();
    assert_eq!(service.remote_fallbacks(), 1, "the refused build fell back");
    assert_eq!(d.builds(), (1, 0), "and no worker was prepared for it");
    submit();
    submit();
    assert_eq!(service.remote_fallbacks(), 1, "later epochs run remotely");
    assert_eq!(d.builds(), (2, 2), "off the one template built after it");
}

#[test]
fn a_template_taken_from_an_aborted_epoch_is_reused() {
    let d = Deployment::start("aborted", Counting::default());
    let aborted = d
        .try_run(1, &d.world.canonical, true)
        .expect("the fleet is complete")
        .expect("an aborted epoch still tears down cleanly");
    assert_eq!(aborted.exit, ExitReason::Aborted);
    assert_eq!(aborted.report.result_payload, None);
    assert_eq!(d.builds(), (1, 1));
    let run = d.run(2);
    assert_eq!(verdict(&run), verdict(&in_process(&d.world.canonical, 2)));
    assert_eq!(d.builds(), (1, 2));
}

#[test]
fn a_query_other_than_the_canonical_one_is_refused_before_any_worker_hears_of_it() {
    let d = Deployment::start("mismatch", Counting::default());
    let w = open();
    assert_ne!(w.other, w.canonical);
    for epoch in 1..=2 {
        // Refused whether or not a template exists yet.
        match d.try_run(epoch, &w.other, false) {
            Some(Err(Error::InvalidQuery(why))) => assert!(why.contains("canonical"), "{why}"),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        assert_eq!(d.builds(), (1, 0));
    }
    // Through the service the client gets the verdict of the query it
    // submitted, not the canonical one's under its name.
    let service = QueryService::new(
        w.platform,
        ServiceConfig {
            workers: 1,
            max_concurrent: 1,
            mailbox_capacity: 4096,
        },
    );
    service.set_remote(d.daemon.clone());
    let o = service
        .submit(&w.other, &w.privacy, &w.resilience, None)
        .expect("submission is admitted");
    assert_eq!(service.remote_fallbacks(), 1);
    assert_eq!(o.run.plan.spec, w.other);
    assert_eq!(verdict(&o.run), verdict(&in_process(&w.other, o.epoch)));
    assert_ne!(
        o.run.report.result_payload,
        d.run(9).report.result_payload,
        "the two queries do not answer alike, so the mix-up would show"
    );
    assert_eq!(d.builds(), (1, 1), "the workers stayed registered");
}
