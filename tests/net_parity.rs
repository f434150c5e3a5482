//! Cross-process parity: a daemon plus two worker fleets over a real
//! Unix domain socket must be observationally identical to the
//! in-process live runtime and to the simulator.
//!
//! For seeded chaos-scenario worlds (Backup-strategy Grouping-Sets and
//! Overcollection K-Means), the same query executed on
//!
//! * the simulator (`Platform::run_query` via `ChaosScenario::run`),
//! * the in-process live runtime (`run_live_query`, worker threads
//!   over the striped transport), and
//! * the socket runtime (`edgelet_net::Daemon` coordinating two
//!   worker loops over a UDS, every process-equivalent rebuilding the
//!   world from the same canonical spec bytes)
//!
//! must produce byte-identical result payloads, identical per-device
//! liability ledgers, identical trace digests, and identical scalar
//! report fields. On top of the three-engine sweep:
//!
//! * the same holds under the chaos catalog's window-safe fault plans:
//!   a plan is part of the world every worker builds from the spec
//!   bytes, and its rules fire on the worker's own slice;
//! * a version-skewed `Hello` must be rejected at the handshake;
//! * killing a worker's connection mid-fleet must not fail the next
//!   query: the service falls back to a deterministic in-process rerun
//!   with the same bytes, counting a `remote_fallback`.
//!
//! CI's `net-smoke` job runs this sweep plus the same drill against
//! real OS processes (`edgelet serve/worker/submit` + `kill -9`).

use edgelet_chaos::{catalog, ChaosScenario, FaultPlan, Session};
use edgelet_live::{
    prepare_live_query, run_live_query, state_crc, LiveRun, LiveRunOptions, QueryService,
    RemoteExecutor, ServiceConfig, StripedTransport,
};
use edgelet_net::{
    run_worker, Addr, CollectorTransport, Daemon, MsgStream, NetConfig, NetMsg, Role, Stream,
    WorkerConfig, WorldBuilder, PROTO_VERSION,
};
use edgelet_sim::TraceEvent;
use edgelet_util::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Seeds per scenario; 2 scenarios × 8 seeds = the 16-world corpus,
/// same coverage as `tests/live_parity.rs`.
const SEEDS_PER_SCENARIO: u64 = 8;

/// Worker processes per fleet.
const FLEET: usize = 2;

// ---- canonical world-spec bytes ----

/// The spec codec for this harness: scenario name + seed, and the name
/// of a chaos catalog plan when the world carries one. Every
/// process-equivalent (daemon, each worker) rebuilds the *entire*
/// world from these bytes through the same deterministic constructor,
/// exactly like the CLI's `edgelet-worldspec-v2` codec does for real
/// deployments.
fn spec_bytes(scenario: ChaosScenario, seed: u64) -> Vec<u8> {
    format!("net-parity/1 scenario={} seed={seed}", scenario.name()).into_bytes()
}

fn faulted_spec_bytes(scenario: ChaosScenario, seed: u64, plan: &str) -> Vec<u8> {
    [
        spec_bytes(scenario, seed),
        format!(" plan={plan}").into_bytes(),
    ]
    .concat()
}

/// The session of `scenario` at `seed`, under the chaos catalog's plan
/// called `plan` (none: the empty plan).
fn open(scenario: ChaosScenario, seed: u64, plan: Option<&str>) -> Session {
    let Some(name) = plan else {
        return scenario.open(seed, FaultPlan::new());
    };
    let catalog = catalog(scenario, seed).expect("the catalog plans");
    let named = catalog.into_iter().find(|p| p.name == name);
    scenario.open(seed, named.expect("a catalog plan").plan)
}

struct ScenarioBuilder;

impl WorldBuilder for ScenarioBuilder {
    fn build(
        &self,
        spec: &[u8],
        epoch: u64,
        workers: usize,
    ) -> Result<edgelet_live::PreparedQuery> {
        let text = std::str::from_utf8(spec)
            .map_err(|_| Error::InvalidConfig("world spec is not UTF-8".into()))?;
        let mut scenario = None;
        let mut seed = None;
        let mut plan = None;
        for field in text.split_whitespace().skip(1) {
            match field.split_once('=') {
                Some(("scenario", name)) => scenario = ChaosScenario::from_name(name),
                Some(("seed", n)) => seed = n.parse::<u64>().ok(),
                Some(("plan", name)) => plan = Some(name),
                _ => {}
            }
        }
        let (scenario, seed) = scenario.zip(seed).ok_or_else(|| {
            Error::InvalidConfig(format!("unparseable net-parity world spec: {text:?}"))
        })?;
        let (platform, qspec, privacy, resilience) = open(scenario, seed, plan).into_parts();
        prepare_live_query(
            &platform,
            &qspec,
            &privacy,
            &resilience,
            Arc::new(CollectorTransport::new(workers)),
            &LiveRunOptions::new(workers, epoch),
        )
    }
}

// ---- fleet harness ----

/// A daemon plus `FLEET` worker loops over a fresh UDS. The workers
/// run on threads, but each one speaks to the daemon only through its
/// socket and rebuilds its own world from the spec bytes — the exact
/// code path a separate OS process runs (CI's `net-smoke` job drives
/// the same stack as real processes).
struct Fleet {
    daemon: Arc<Daemon>,
    stops: Vec<Arc<AtomicBool>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    path: std::path::PathBuf,
}

fn unique_uds_path(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::path::PathBuf::from(format!(
        "/tmp/edgelet-np-{}-{tag}-{n}.sock",
        std::process::id()
    ))
}

impl Fleet {
    fn start(world_spec: Vec<u8>, tag: &str) -> Fleet {
        let path = unique_uds_path(tag);
        let addr = Addr::Uds(path.clone());
        let daemon = Arc::new(
            Daemon::start(
                &addr,
                NetConfig {
                    expected_workers: FLEET,
                    world_spec,
                    ..NetConfig::default()
                },
                Arc::new(ScenarioBuilder),
            )
            .expect("daemon binds a fresh UDS path"),
        );
        let mut stops = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..FLEET {
            let stop = Arc::new(AtomicBool::new(false));
            stops.push(stop.clone());
            let addr = addr.clone();
            workers.push(std::thread::spawn(move || {
                // `Ok` covers both a stop-flag exit and a graceful
                // daemon drain; a `Rejected` session is a bug here.
                run_worker(&WorkerConfig::new(addr), Arc::new(ScenarioBuilder), &stop)
                    .expect("worker session ends cleanly");
            }));
        }
        assert!(
            daemon.wait_workers(Duration::from_secs(30)),
            "both workers must register within the handshake window"
        );
        Fleet {
            daemon,
            stops,
            workers,
            path,
        }
    }

    /// Runs one epoch distributed. Panics if the daemon declines (an
    /// incomplete fleet) — this harness asserts the *distributed* path,
    /// not the fallback.
    fn run(&self, scenario: ChaosScenario, seed: u64, epoch: u64) -> LiveRun {
        let (_, qspec, privacy, resilience) = scenario.open(seed, FaultPlan::new()).into_parts();
        let abort = AtomicBool::new(false);
        self.daemon
            .try_run(epoch, &qspec, &privacy, &resilience, &abort)
            .expect("fleet is complete, the daemon must not decline")
            .expect("distributed epoch completes")
    }

    /// Abruptly severs one worker's connection: the loop stops and the
    /// socket dies without any goodbye message — observationally the
    /// same as `kill -9` of a worker process.
    fn sever_worker(&mut self, index: usize) {
        self.stops[index].store(true, Ordering::Release);
        self.workers.remove(index).join().expect("worker thread");
        self.stops.remove(index);
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for stop in &self.stops {
            stop.store(true, Ordering::Release);
        }
        self.daemon.shutdown();
        for w in self.workers.drain(..) {
            w.join().expect("worker thread");
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

// ---- the three-engine sweep ----

fn assert_three_engine_parity(scenario: ChaosScenario, seed: u64, plan: Option<&str>) -> LiveRun {
    let ctx = format!("scenario={} seed={seed} plan={plan:?}", scenario.name());
    let epoch = 1 + seed;

    // Engine 1: the simulator.
    let sim = open(scenario, seed, plan)
        .run()
        .expect("simulator execution");

    // Engine 2: the in-process live runtime.
    let session = open(scenario, seed, plan);
    let transport = Arc::new(StripedTransport::new(4096));
    transport.register_epoch(epoch, FLEET);
    let live = run_live_query(
        session.platform(),
        session.spec(),
        session.privacy(),
        session.resilience(),
        transport,
        &LiveRunOptions::new(FLEET, epoch),
        None,
    )
    .expect("in-process live execution");

    // Engine 3: daemon + two socket workers.
    let world_spec = match plan {
        Some(plan) => faulted_spec_bytes(scenario, seed, plan),
        None => spec_bytes(scenario, seed),
    };
    let fleet = Fleet::start(world_spec, scenario.name());
    let net = fleet.run(scenario, seed, epoch);

    for (name, run) in [("live", &live), ("net", &net)] {
        assert_eq!(
            run.report.result_payload, sim.result.report.result_payload,
            "{name} result payload bytes diverged from sim ({ctx})"
        );
        assert_eq!(
            run.report.ledger.entries(),
            sim.result.report.ledger.entries(),
            "{name} liability ledger diverged from sim ({ctx})"
        );
        assert_eq!(
            run.trace_digest, sim.result.trace_digest,
            "{name} trace digest diverged from sim ({ctx})"
        );
        assert_eq!(run.report.completed, sim.result.report.completed, "{ctx}");
        assert_eq!(run.report.valid, sim.result.report.valid, "{ctx}");
        assert_eq!(
            run.report.messages_sent, sim.result.report.messages_sent,
            "{name} ({ctx})"
        );
        assert_eq!(
            run.report.bytes_sent, sim.result.report.bytes_sent,
            "{name} ({ctx})"
        );
        assert_eq!(
            run.report.completion_secs, sim.result.report.completion_secs,
            "{name} ({ctx})"
        );
    }
    // The one-number receipt the CLI artifacts carry.
    assert_eq!(
        state_crc(&net),
        state_crc(&live),
        "state CRC diverged ({ctx})"
    );
    net
}

#[test]
fn grouping_worlds_match_across_three_engines() {
    for seed in 0..SEEDS_PER_SCENARIO {
        assert_three_engine_parity(ChaosScenario::Grouping, seed, None);
    }
}

#[test]
fn kmeans_worlds_match_across_three_engines() {
    for seed in 0..SEEDS_PER_SCENARIO {
        assert_three_engine_parity(ChaosScenario::KMeans, seed, None);
    }
}

// ---- fault plans ----

/// The chaos catalog's window-safe plans on the 2-worker fleet: each
/// worker evaluates the plan on its own slice, so the faults fire at the
/// same virtual instants as on the simulator and every byte matches —
/// the trace digest with its `FaultInjected` records, the completion
/// time a delay moves, the state CRC.
#[test]
fn window_safe_fault_plans_match_across_three_engines() {
    for (scenario, seed, plan) in [
        (ChaosScenario::Grouping, 1, "delay-partials"),
        (
            ChaosScenario::Grouping,
            2,
            "partition-computers-from-combiners",
        ),
        (ChaosScenario::Grouping, 3, "drop-contribute-requests-early"),
        (ChaosScenario::KMeans, 1, "delay-partials"),
    ] {
        let net = assert_three_engine_parity(scenario, seed, Some(plan));
        assert!(
            net.trace
                .iter()
                .any(|r| matches!(r.event, TraceEvent::FaultInjected { .. })),
            "{} {plan}: no rule fired on the fleet",
            scenario.name()
        );
    }
}

// ---- handshake version gate ----

/// A peer built against a different frame layout, or speaking protocol
/// version 1 (whose `Prepare` still carried the relay's fault mode), must
/// be refused at the handshake with a reason naming the mismatch — never
/// admitted to produce silently divergent bytes mid-query.
#[test]
fn version_skewed_hello_is_rejected_at_handshake() {
    let path = unique_uds_path("skew");
    let addr = Addr::Uds(path.clone());
    let daemon = Daemon::start(
        &addr,
        NetConfig {
            expected_workers: 1,
            world_spec: spec_bytes(ChaosScenario::Grouping, 0),
            ..NetConfig::default()
        },
        Arc::new(ScenarioBuilder),
    )
    .expect("daemon binds");

    for (proto, frame_version, names) in [
        (
            PROTO_VERSION,
            edgelet_wire::FRAME_VERSION.wrapping_add(1),
            "frame version",
        ),
        (1, edgelet_wire::FRAME_VERSION, "proto 1"),
    ] {
        let stream = Stream::connect(&addr).expect("connect");
        let mut ms = MsgStream::new(stream);
        ms.send(&NetMsg::Hello {
            role: Role::Worker,
            proto,
            frame_version,
            envelope_version: edgelet_wire::ENVELOPE_VERSION,
        })
        .expect("hello send");
        match ms.recv(Some(Duration::from_secs(10))) {
            Ok(NetMsg::Reject { reason }) => {
                assert!(
                    reason.contains("version") && reason.contains(names),
                    "rejection must name the version mismatch, got {reason:?}"
                );
            }
            other => panic!("expected Reject for a version-skewed Hello, got {other:?}"),
        }
    }
    assert_eq!(daemon.registered_workers(), 0);
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
}

// ---- kill-a-worker fallback drill ----

/// Severing a worker's connection between queries (the library-level
/// twin of CI's `kill -9` drill) must not fail the next submission:
/// the daemon's liveness probe surfaces the dead socket, `try_run`
/// declines, and the service reruns the epoch in-process — with the
/// same bytes, because every engine is deterministic over the same
/// world. Only the fallback counter may tell the difference.
#[test]
fn severed_worker_falls_back_to_identical_bytes() {
    let scenario = ChaosScenario::Grouping;
    let seed = 0;
    let (platform, qspec, privacy, resilience) = scenario.open(seed, FaultPlan::new()).into_parts();
    let service = QueryService::new(
        platform,
        ServiceConfig {
            workers: FLEET,
            max_concurrent: 1,
            mailbox_capacity: 4096,
        },
    );
    let mut fleet = Fleet::start(spec_bytes(scenario, seed), "sever");
    service.set_remote(fleet.daemon.clone());

    let deadline = Some(Duration::from_secs(300));
    let first = service
        .submit(&qspec, &privacy, &resilience, deadline)
        .expect("distributed submission");
    assert!(first.succeeded(), "distributed epoch must complete");
    assert_eq!(
        service.remote_fallbacks(),
        0,
        "a complete fleet must serve the first query distributed"
    );

    fleet.sever_worker(0);

    let second = service
        .submit(&qspec, &privacy, &resilience, deadline)
        .expect("fallback submission");
    assert!(second.succeeded(), "fallback epoch must complete");
    assert_eq!(
        service.remote_fallbacks(),
        1,
        "the incomplete fleet must be declined exactly once"
    );
    assert_eq!(
        second.run.report.result_payload, first.run.report.result_payload,
        "fallback changed the result bytes"
    );
    assert_eq!(second.run.trace_digest, first.run.trace_digest);
    assert_eq!(
        second.run.report.ledger.entries(),
        first.run.report.ledger.entries()
    );
    assert_eq!(state_crc(&second.run), state_crc(&first.run));

    drop(fleet);
    service.shutdown();
}
