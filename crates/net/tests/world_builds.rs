//! The daemon builds one world per host and the worker one per world
//! spec — held by counts, not times — and an epoch started from the kept
//! `CoordinatorTemplate` and the worker's recorded inputs answers like
//! one started from a fresh build.
//!
//! A counting [`WorldBuilder`] sits on each side of a Unix-socket
//! daemon and one `run_worker`, the deployment `net_grouping` measures.

use edgelet_core::exec::assemble_plan;
use edgelet_core::prelude::{
    AggKind, AggSpec, CmpOp, Platform, PlatformConfig, Predicate, PrivacyConfig, QuerySpec,
    ResilienceConfig, Value,
};
use edgelet_core::NetworkProfile;
use edgelet_live::{
    build_live_world, prepare_live_query, run_live_query, ExitReason, LiveRun, LiveRunOptions,
    PreparedQuery, QueryService, RemoteExecutor, ServiceConfig, StripedTransport,
};
use edgelet_net::{
    run_worker, Addr, CollectorTransport, Daemon, NetConfig, WorkerConfig, WorldBuilder,
};
use edgelet_util::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SPEC_BYTES: &[u8] = b"world-builds/1";
/// Another crowd (another seed) under the same query shape.
const OTHER_WORLD: &[u8] = b"world-builds/2";

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

fn open(spec: &[u8]) -> Opened {
    let seed = match spec {
        SPEC_BYTES => 11,
        OTHER_WORLD => 12,
        _ => panic!("no world is named {spec:?}"),
    };
    let mut platform = Platform::build(PlatformConfig {
        seed,
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
    /// Assembles the world step by step (plan, `build_live_world`,
    /// `assemble_plan`, install) instead of calling `prepare_live_query`,
    /// as the benchmark's traced builder does: no inputs are recorded.
    by_hand: bool,
}

impl WorldBuilder for Counting {
    fn build(&self, spec: &[u8], epoch: u64, workers: usize) -> Result<PreparedQuery> {
        if self.calls.fetch_add(1, Ordering::SeqCst) == 0 && self.fail_first.load(Ordering::SeqCst)
        {
            return Err(Error::InvalidConfig("first build refused".into()));
        }
        let w = open(spec);
        let transport = Arc::new(CollectorTransport::new(workers));
        let opts = LiveRunOptions::new(workers, epoch);
        let (platform, spec) = (&w.platform, &w.canonical);
        if !self.by_hand {
            return prepare_live_query(platform, spec, &w.privacy, &w.resilience, transport, &opts);
        }
        let plan = platform.plan_query(spec, &w.privacy, &w.resilience)?;
        let mut engine = build_live_world(platform, spec, transport, &opts)?;
        let mut assembly = assemble_plan(
            &plan,
            platform.schema(),
            platform.stores(),
            platform.device_classes(),
            &platform.config().exec,
            platform.root_secret(spec),
            engine.now().as_secs_f64(),
        )?;
        for (dev, actor) in assembly.installs.drain(..) {
            engine.install_actor(dev, actor);
        }
        assert!(engine.prepared_from().is_none());
        Ok(PreparedQuery {
            plan,
            engine,
            assembly,
        })
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

/// A daemon serving `spec` on `path`, not yet built anything.
fn start_daemon(path: &std::path::Path, spec: &[u8], builder: Arc<Counting>) -> Arc<Daemon> {
    Arc::new(
        Daemon::start(
            &Addr::Uds(path.to_path_buf()),
            NetConfig {
                expected_workers: 1,
                world_spec: spec.to_vec(),
                ..NetConfig::default()
            },
            builder,
        )
        .expect("daemon binds a UDS path"),
    )
}

impl Deployment {
    fn start(tag: &str, daemon_side: Counting, worker_side: Counting) -> Deployment {
        let path =
            std::path::PathBuf::from(format!("/tmp/edgelet-wb-{}-{tag}.sock", std::process::id()));
        let (daemon_side, worker_side) = (Arc::new(daemon_side), Arc::new(worker_side));
        let daemon = start_daemon(&path, SPEC_BYTES, daemon_side.clone());
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let (stop, builder) = (stop.clone(), worker_side.clone());
            let addr = Addr::Uds(path.clone());
            std::thread::spawn(move || {
                run_worker(&WorkerConfig::new(addr), builder, &stop).expect("worker ends cleanly");
            })
        };
        let d = Deployment {
            daemon,
            daemon_side,
            worker_side,
            stop,
            worker: Some(worker),
            path,
            world: open(SPEC_BYTES),
        };
        d.await_worker();
        d
    }

    fn await_worker(&self) {
        assert!(self.daemon.wait_workers(Duration::from_secs(30)));
        assert_eq!(
            self.daemon_side.calls.load(Ordering::SeqCst),
            0,
            "starting a daemon builds no world (set-up stays lazy)"
        );
    }

    /// Replaces the daemon with a fresh one on the same socket serving
    /// `spec`; the worker reconnects to it with backoff.
    fn restart(&mut self, spec: &[u8]) {
        self.daemon.shutdown();
        self.daemon_side = Arc::new(Counting::default());
        self.daemon = start_daemon(&self.path, spec, self.daemon_side.clone());
        self.world = open(spec);
        self.await_worker();
    }

    fn builds(&self) -> (usize, usize) {
        (
            self.daemon_side.calls.load(Ordering::SeqCst),
            self.worker_side.calls.load(Ordering::SeqCst),
        )
    }

    fn try_run_under(
        &self,
        epoch: u64,
        spec: &QuerySpec,
        (privacy, resilience): (&PrivacyConfig, &ResilienceConfig),
        abort: bool,
    ) -> Option<Result<LiveRun>> {
        let abort = AtomicBool::new(abort);
        self.daemon
            .try_run(epoch, spec, privacy, resilience, &abort)
    }

    fn try_run(&self, epoch: u64, spec: &QuerySpec, abort: bool) -> Option<Result<LiveRun>> {
        let w = &self.world;
        self.try_run_under(epoch, spec, (&w.privacy, &w.resilience), abort)
    }

    fn run(&self, epoch: u64) -> LiveRun {
        self.try_run(epoch, &self.world.canonical, false)
            .expect("the fleet is complete")
            .expect("distributed epoch completes")
    }

    /// A query service over this deployment's crowd, remote to its daemon.
    fn service(&self) -> QueryService {
        let service = QueryService::new(
            self.world.platform.clone(),
            ServiceConfig {
                workers: 1,
                max_concurrent: 1,
                mailbox_capacity: 4096,
            },
        );
        service.set_remote(self.daemon.clone());
        service
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

/// The in-process live run of `spec` under `privacy` and `resilience`
/// on `w`'s crowd.
fn in_process_under(
    w: &Opened,
    spec: &QuerySpec,
    privacy: &PrivacyConfig,
    resilience: &ResilienceConfig,
    epoch: u64,
) -> LiveRun {
    let transport = Arc::new(StripedTransport::new(4096));
    transport.register_epoch(epoch, 1);
    run_live_query(
        &w.platform,
        spec,
        privacy,
        resilience,
        transport,
        &LiveRunOptions::new(1, epoch),
        None,
    )
    .expect("in-process live execution")
}

/// The in-process live run of `spec` on the canonical world.
fn in_process(spec: &QuerySpec, epoch: u64) -> LiveRun {
    let w = open(SPEC_BYTES);
    in_process_under(&w, spec, &w.privacy, &w.resilience, epoch)
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
fn the_daemon_and_the_worker_each_build_once_and_every_epoch_answers_alike() {
    let d = Deployment::start("counts", Counting::default(), Counting::default());
    let reference = in_process(&d.world.canonical, 1);
    assert!(reference.report.completed && reference.report.valid);
    for epoch in 1..=6 {
        let run = d.run(epoch);
        assert_eq!(verdict(&run), verdict(&reference), "epoch {epoch}");
        assert_eq!(d.builds(), (1, 1), "epoch {epoch}");
    }
}

#[test]
fn a_world_assembled_by_hand_is_built_every_epoch_and_answers_alike() {
    let by_hand = Counting {
        by_hand: true,
        ..Counting::default()
    };
    let d = Deployment::start("byhand", Counting::default(), by_hand);
    let reference = in_process(&d.world.canonical, 1);
    for epoch in 1..=3 {
        let run = d.run(epoch);
        assert_eq!(verdict(&run), verdict(&reference), "epoch {epoch}");
        assert_eq!(d.builds(), (1, epoch as usize), "epoch {epoch}");
    }
}

#[test]
fn a_daemon_restarted_over_another_world_makes_the_worker_build_that_world_once() {
    let mut d = Deployment::start("restart", Counting::default(), Counting::default());
    let first = d.run(1);
    assert_eq!(d.builds(), (1, 1));
    d.restart(OTHER_WORLD);
    let w = &d.world;
    let reference = in_process_under(w, &w.canonical, &w.privacy, &w.resilience, 2);
    assert!(reference.report.completed && reference.report.valid);
    assert_ne!(
        reference.report.result_payload, first.report.result_payload,
        "the two worlds do not answer alike, so a stale world would show"
    );
    for epoch in 2..=3 {
        let run = d.run(epoch);
        assert_eq!(verdict(&run), verdict(&reference), "epoch {epoch}");
        assert_eq!(d.builds(), (1, 2), "epoch {epoch}");
    }
}

#[test]
fn a_failed_first_build_leaves_no_template_and_the_next_epoch_builds_again() {
    let failing = Counting::default();
    failing.fail_first.store(true, Ordering::SeqCst);
    let d = Deployment::start("failfirst", failing, Counting::default());
    let w = &d.world;
    let reference = in_process(&w.canonical, 1);
    let service = d.service();
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
    assert_eq!(d.builds(), (2, 1), "off the one template built after it");
}

#[test]
fn a_template_taken_from_an_aborted_epoch_is_reused() {
    let d = Deployment::start("aborted", Counting::default(), Counting::default());
    let aborted = d
        .try_run(1, &d.world.canonical, true)
        .expect("the fleet is complete")
        .expect("an aborted epoch still tears down cleanly");
    assert_eq!(aborted.exit, ExitReason::Aborted);
    assert_eq!(aborted.report.result_payload, None);
    assert_eq!(d.builds(), (1, 1));
    let run = d.run(2);
    assert_eq!(verdict(&run), verdict(&in_process(&d.world.canonical, 2)));
    assert_eq!(d.builds(), (1, 1));
}

#[test]
fn a_query_other_than_the_canonical_one_is_refused_before_any_worker_hears_of_it() {
    let d = Deployment::start("mismatch", Counting::default(), Counting::default());
    let w = &d.world;
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
    let service = d.service();
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

#[test]
fn the_canonical_query_under_other_configs_is_refused_and_answered_in_process() {
    let d = Deployment::start("configs", Counting::default(), Counting::default());
    let w = &d.world;
    let privacy = PrivacyConfig::none().with_max_tuples(20);
    let resilience = ResilienceConfig {
        failure_probability: 0.05,
        ..w.resilience.clone()
    };
    let submissions = [
        (&privacy, &w.resilience),
        (&w.privacy, &resilience),
        (&privacy, &resilience),
    ];
    for (epoch, (p, r)) in (1..).zip(submissions) {
        // Refused whether or not a template exists yet.
        match d.try_run_under(epoch, &w.canonical, (p, r), false) {
            Some(Err(Error::InvalidQuery(why))) => assert!(why.contains("configs"), "{why}"),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        assert_eq!(d.builds(), (1, 0), "epoch {epoch}");
    }
    let service = d.service();
    let canonical = d.run(9);
    for (n, (p, r)) in (1..).zip(submissions) {
        let o = service
            .submit(&w.canonical, p, r, None)
            .expect("submission is admitted");
        assert_eq!(service.remote_fallbacks(), n);
        let submitted = in_process_under(w, &w.canonical, p, r, o.epoch);
        assert_eq!(verdict(&o.run), verdict(&submitted));
        assert_ne!(
            verdict(&o.run),
            verdict(&canonical),
            "other configs do not answer alike, so the mix-up would show"
        );
    }
    assert_eq!(d.builds(), (1, 1), "the workers stayed registered");
}
