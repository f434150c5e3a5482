//! The daemon builds one world per host and the worker one per world
//! spec — held by counts, not times — and an epoch started from the kept
//! `CoordinatorTemplate` and the worker's reset slice answers like one
//! started from a fresh build.
//!
//! A counting [`WorldBuilder`] sits on each side of a Unix-socket
//! daemon and its `run_worker`s — one of them is the deployment
//! `net_grouping` measures.

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
use edgelet_query::Strategy;
use edgelet_sim::{Duration as SimDuration, FaultAction, FaultPlan, FaultRule};
use edgelet_util::{Error, Result};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SPEC_BYTES: &[u8] = b"world-builds/1";
/// Another crowd (another seed) under the same query shape.
const OTHER_WORLD: &[u8] = b"world-builds/2";
/// Contributors and processors crash at virtual time zero; channels are
/// sealed and every operator has a rank-gated backup.
const CRASHES_AT_START: &[u8] = b"world-builds/crashes-at-start";
/// Crashes drawn over the query, sealed channels, and a window-safe
/// fault plan delaying every message by 50 ms (`delay,extra-ms=50`).
const CRASHES_DELAYED: &[u8] = b"world-builds/crashes-delayed";

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
    let delay = FaultRule::new(FaultAction::Delay(SimDuration::from_millis(50)));
    let (seed, crashes, crash_at_start, plan, strategy) = match spec {
        SPEC_BYTES => (11, 0.0, false, FaultPlan::new(), Strategy::Overcollection),
        OTHER_WORLD => (12, 0.0, false, FaultPlan::new(), Strategy::Overcollection),
        CRASHES_AT_START => (13, 0.1, true, FaultPlan::new(), Strategy::Backup),
        CRASHES_DELAYED => (
            14,
            0.1,
            false,
            FaultPlan::new().rule(delay),
            Strategy::Backup,
        ),
        _ => panic!("no world is named {spec:?}"),
    };
    let mut config = PlatformConfig {
        seed,
        contributors: 40,
        processors: 24,
        network: NetworkProfile::Reliable,
        contributor_crash_probability: crashes,
        processor_crash_probability: crashes,
        crash_at_start,
        fault_plan: Some(plan),
        trace_capacity: 1 << 16,
        ..PlatformConfig::default()
    };
    config.exec.encrypt_channels = crashes > 0.0;
    let mut platform = Platform::build(config);
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
            failure_probability: crashes,
            strategy,
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

/// A daemon and its socket workers, each over its own counting builder.
struct Deployment {
    daemon: Arc<Daemon>,
    daemon_side: Arc<Counting>,
    worker_sides: Vec<Arc<Counting>>,
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
    path: std::path::PathBuf,
    /// Between the workers and the daemon, when the deployment is tapped.
    tap: Option<Tap>,
    /// What a host submitting to this daemon holds.
    world: Opened,
}

/// A daemon serving `spec` to `workers` on `path`, not yet built anything.
fn start_daemon(
    path: &std::path::Path,
    spec: &[u8],
    workers: usize,
    builder: Arc<Counting>,
) -> Arc<Daemon> {
    Arc::new(
        Daemon::start(
            &Addr::Uds(path.to_path_buf()),
            NetConfig {
                expected_workers: workers,
                world_spec: spec.to_vec(),
                ..NetConfig::default()
            },
            builder,
        )
        .expect("daemon binds a UDS path"),
    )
}

/// A relay every worker connects through, keeping each connection's
/// bytes toward the daemon: a worker that resets its slice must send
/// what one that builds every epoch sends, sealed payloads included.
/// Its relay threads end when either side closes and are not joined, so
/// a socket one side keeps open cannot hang a test.
struct Tap {
    path: std::path::PathBuf,
    stop: Arc<AtomicBool>,
    sent: Arc<Mutex<Vec<Stream>>>,
}

/// One connection's bytes toward the daemon, growing while it lives.
type Stream = Arc<Mutex<Vec<u8>>>;

impl Tap {
    fn start(path: std::path::PathBuf, daemon: std::path::PathBuf) -> Tap {
        let listener = UnixListener::bind(&path).expect("the tap binds a UDS path");
        let (stop, sent) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(Mutex::new(Vec::new())),
        );
        let (halt, streams) = (stop.clone(), sent.clone());
        std::thread::spawn(move || {
            for worker in listener.incoming() {
                if halt.load(Ordering::Acquire) {
                    return;
                }
                let (Ok(worker), Ok(daemon)) = (worker, UnixStream::connect(&daemon)) else {
                    continue; // the worker sees EOF and reconnects
                };
                let bytes = Arc::new(Mutex::new(Vec::new()));
                streams.lock().unwrap().push(bytes.clone());
                let (mut from, mut to) = (worker.try_clone().unwrap(), daemon.try_clone().unwrap());
                std::thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    while let Ok(n @ 1..) = from.read(&mut buf) {
                        bytes.lock().unwrap().extend_from_slice(&buf[..n]);
                        if to.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                    to.shutdown(std::net::Shutdown::Both).ok();
                });
                let (mut from, mut to) = (daemon, worker);
                std::thread::spawn(move || {
                    std::io::copy(&mut from, &mut to).ok();
                    to.shutdown(std::net::Shutdown::Both).ok();
                });
            }
        });
        Tap { path, stop, sent }
    }

    /// Every connection's bytes toward the daemon, in sorted order (which
    /// worker connected first is up to the scheduler).
    fn sent(&self) -> Vec<Vec<u8>> {
        let streams = self.sent.lock().unwrap();
        let mut sent: Vec<Vec<u8>> = streams.iter().map(|b| b.lock().unwrap().clone()).collect();
        sent.sort();
        sent
    }
}

impl Drop for Tap {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        UnixStream::connect(&self.path).ok(); // wakes the accept loop
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Deployment {
    fn start(tag: &str, daemon_side: Counting, worker_side: Counting) -> Deployment {
        Deployment::launch(tag, SPEC_BYTES, daemon_side, vec![worker_side], false)
    }

    /// A daemon serving `spec` and one worker per builder in
    /// `worker_sides`, connected through a [`Tap`] when `tapped`.
    fn launch(
        tag: &str,
        spec: &[u8],
        daemon_side: Counting,
        worker_sides: Vec<Counting>,
        tapped: bool,
    ) -> Deployment {
        let path =
            std::path::PathBuf::from(format!("/tmp/edgelet-wb-{}-{tag}.sock", std::process::id()));
        let daemon_side = Arc::new(daemon_side);
        let worker_sides: Vec<Arc<Counting>> = worker_sides.into_iter().map(Arc::new).collect();
        let daemon = start_daemon(&path, spec, worker_sides.len(), daemon_side.clone());
        let tap = tapped.then(|| Tap::start(path.with_extension("tap"), path.clone()));
        let connect = tap.as_ref().map_or(&path, |t| &t.path);
        let stop = Arc::new(AtomicBool::new(false));
        let workers = worker_sides
            .iter()
            .map(|builder| {
                let (stop, builder) = (stop.clone(), builder.clone());
                let addr = Addr::Uds(connect.clone());
                std::thread::spawn(move || {
                    run_worker(&WorkerConfig::new(addr), builder, &stop)
                        .expect("worker ends cleanly");
                })
            })
            .collect();
        let d = Deployment {
            daemon,
            daemon_side,
            worker_sides,
            stop,
            workers,
            path,
            tap,
            world: open(spec),
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
        let workers = self.worker_sides.len();
        self.daemon = start_daemon(&self.path, spec, workers, self.daemon_side.clone());
        self.world = open(spec);
        self.await_worker();
    }

    fn builds(&self) -> (usize, usize) {
        let calls = |c: &Counting| c.calls.load(Ordering::SeqCst);
        let workers = self.worker_sides.iter().map(|c| calls(c)).sum();
        (calls(&self.daemon_side), workers)
    }

    fn try_run_under(
        &self,
        epoch: u64,
        spec: &QuerySpec,
        (privacy, resilience): (&PrivacyConfig, &ResilienceConfig),
        abort: &AtomicBool,
    ) -> Option<Result<LiveRun>> {
        self.daemon.try_run(epoch, spec, privacy, resilience, abort)
    }

    fn try_run(&self, epoch: u64, spec: &QuerySpec, abort: bool) -> Option<Result<LiveRun>> {
        let w = &self.world;
        let abort = AtomicBool::new(abort);
        self.try_run_under(epoch, spec, (&w.privacy, &w.resilience), &abort)
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
        for w in self.workers.drain(..) {
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
        match d.try_run_under(epoch, &w.canonical, (p, r), &AtomicBool::new(false)) {
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

/// Epochs each kept-slice deployment runs.
const EPOCHS: u64 = 8;

/// Counting builders for `workers` workers; `by_hand` ones are called
/// every epoch.
fn worker_sides(workers: usize, by_hand: bool) -> Vec<Counting> {
    let side = || Counting {
        by_hand,
        ..Counting::default()
    };
    (0..workers).map(|_| side()).collect()
}

/// [`EPOCHS`] epochs of `spec` on `workers` workers that keep their
/// slices, each checked against the in-process run of that epoch, and the
/// bytes those workers sent the daemon against workers that build every
/// epoch.
fn kept_slices_answer_like_fresh_builds(spec: &[u8], workers: usize) {
    let name = String::from_utf8_lossy(spec).replace('/', "-");
    let tag = |side: &str| format!("{side}-{name}-{workers}");
    let kept = Deployment::launch(
        &tag("kept"),
        spec,
        Counting::default(),
        worker_sides(workers, false),
        true,
    );
    let fresh = Deployment::launch(
        &tag("fresh"),
        spec,
        Counting::default(),
        worker_sides(workers, true),
        true,
    );
    let w = &kept.world;
    let mut completed = 0;
    for epoch in 1..=EPOCHS {
        let reference = in_process_under(w, &w.canonical, &w.privacy, &w.resilience, epoch);
        completed += usize::from(reference.report.completed);
        let (run, built) = (kept.run(epoch), fresh.run(epoch));
        assert_eq!(
            verdict(&run),
            verdict(&reference),
            "{name} x{workers}, epoch {epoch}"
        );
        assert_eq!(
            verdict(&built),
            verdict(&reference),
            "{name} x{workers}, epoch {epoch}"
        );
        assert_eq!(
            kept.builds(),
            (1, workers),
            "{name} x{workers}, epoch {epoch}"
        );
    }
    assert!(
        completed > 0,
        "{name}: no epoch completes, so little is compared"
    );
    assert_eq!(fresh.builds(), (1, EPOCHS as usize * workers));
    let sent = |d: &Deployment| d.tap.as_ref().expect("tapped").sent();
    let (kept_sent, fresh_sent) = (sent(&kept), sent(&fresh));
    assert_eq!(kept_sent.len(), workers, "one connection per worker");
    assert!(
        kept_sent == fresh_sent,
        "{name} x{workers}: workers that reset their slices sent the daemon other bytes \
         ({:?} bytes) than workers that build every epoch ({:?})",
        kept_sent.iter().map(Vec::len).collect::<Vec<_>>(),
        fresh_sent.iter().map(Vec::len).collect::<Vec<_>>(),
    );
}

#[test]
fn every_epoch_on_a_kept_slice_answers_like_a_fresh_build() {
    for spec in [CRASHES_AT_START, CRASHES_DELAYED] {
        for workers in [1, 2] {
            kept_slices_answer_like_fresh_builds(spec, workers);
        }
    }
}

#[test]
fn an_epoch_aborted_mid_run_leaves_nothing_behind_on_the_kept_slice() {
    for workers in [1, 2] {
        let tag = format!("midabort-{workers}");
        let sides = worker_sides(workers, false);
        let d = Deployment::launch(&tag, CRASHES_DELAYED, Counting::default(), sides, false);
        let w = &d.world;
        // Raise the abort sooner or later until it lands mid-run: after
        // windows that sent messages, before the run ends on its own.
        let (mut epoch, mut delay) = (0, Duration::from_micros(200));
        loop {
            epoch += 1;
            assert!(epoch <= 40, "no abort landed mid-run");
            let abort = AtomicBool::new(false);
            let run = std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(delay);
                    abort.store(true, Ordering::Release);
                });
                d.try_run_under(epoch, &w.canonical, (&w.privacy, &w.resilience), &abort)
            });
            let run = run
                .expect("the fleet is complete")
                .expect("the epoch tears down");
            match (run.exit, run.report.messages_sent) {
                (ExitReason::Aborted, 0) => delay = delay * 3 / 2,
                (ExitReason::Aborted, _) => break,
                _ => delay /= 2,
            }
        }
        for epoch in epoch + 1..=epoch + 2 {
            let reference = in_process_under(w, &w.canonical, &w.privacy, &w.resilience, epoch);
            assert_eq!(
                verdict(&d.run(epoch)),
                verdict(&reference),
                "x{workers}, epoch {epoch}"
            );
        }
        assert_eq!(d.builds(), (1, workers), "x{workers}");
    }
}

/// A worker that died between queries frees its slot at the next probe:
/// the query that finds it dead declines, and a replacement worker then
/// registers and serves the one after.
#[test]
fn a_worker_dead_between_queries_frees_its_slot_for_a_replacement() {
    let path = std::path::PathBuf::from(format!(
        "/tmp/edgelet-wb-{}-replace.sock",
        std::process::id()
    ));
    let daemon = start_daemon(&path, SPEC_BYTES, 1, Arc::new(Counting::default()));
    let worker = |stop: Arc<AtomicBool>| {
        let addr = Addr::Uds(path.clone());
        std::thread::spawn(move || {
            run_worker(
                &WorkerConfig::new(addr),
                Arc::new(Counting::default()),
                &stop,
            )
        })
    };
    let first_stop = Arc::new(AtomicBool::new(false));
    let first = worker(first_stop.clone());
    assert!(daemon.wait_workers(Duration::from_secs(30)));
    first_stop.store(true, Ordering::Release);
    assert_eq!(first.join().unwrap(), Ok(()));

    let w = open(SPEC_BYTES);
    let try_run = |epoch| {
        let abort = AtomicBool::new(false);
        daemon.try_run(epoch, &w.canonical, &w.privacy, &w.resilience, &abort)
    };
    assert!(try_run(1).is_none(), "the dead worker fails the probe");

    let second_stop = Arc::new(AtomicBool::new(false));
    let second = worker(second_stop.clone());
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while daemon.total_registrations() + daemon.total_rejections() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "the replacement never handshook"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        (daemon.total_registrations(), daemon.total_rejections()),
        (2, 0),
        "the replacement takes the freed slot"
    );
    let run = try_run(2)
        .expect("the fleet is complete again")
        .expect("distributed epoch completes");
    assert_eq!(verdict(&run), verdict(&in_process(&w.canonical, 2)));

    second_stop.store(true, Ordering::Release);
    daemon.shutdown();
    assert_eq!(second.join().unwrap(), Ok(()));
    let _ = std::fs::remove_file(&path);
}
