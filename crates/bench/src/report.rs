//! The wall-clock micro-suites behind `bench_report`.
//!
//! One registry ([`suites`]), one runner: `bench_report [--suite <prefix>]
//! [--out <path>]` times each suite [`SAMPLES`] times after a warm-up and
//! reports the median with its quartiles and the machine's core count.
//! The suites explain a move of `benchmark/`'s end-to-end numbers — which
//! layer, in isolation, got cheaper or dearer; a claim is judged there,
//! never here. A kernel lives in exactly one place: what
//! `benchmark/src/isolated.rs` already times (Lloyd step, grouping,
//! AEAD, frame codec, socket ping) has no suite in this file.

use edgelet_core::prelude::*;
use edgelet_core::query::resilience::{plan_overcollection, plan_overcollection_approx};
use edgelet_core::sim::exec::{Exchange, Mailboxes, RunEnv, Shard, WindowReport, World};
use edgelet_core::sim::{
    Actor, Availability, Context, CrashPlan, DeviceConfig, Duration, LatencyModel, NetworkModel,
    SimConfig, SimTime, Simulation, TimerToken,
};
use edgelet_core::store::{synth, Row};
use edgelet_core::util::ids::DeviceId;
use edgelet_core::util::rng::DetRng;
use edgelet_core::util::stats::percentile;
use edgelet_core::wire::{from_bytes, to_bytes};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One measured workload.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Suite identifier.
    pub name: &'static str,
    /// Median wall-clock nanoseconds per iteration.
    pub median_ns: f64,
    /// First quartile of the same samples: with `q3_ns`, the noise band
    /// a difference between two reports has to clear.
    pub q1_ns: f64,
    /// Third quartile of the same samples.
    pub q3_ns: f64,
    /// Simulator shard count the suite ran under (1 for non-simulator
    /// workloads).
    pub shards: usize,
    /// Worker threads the suite ran under: the live runtime's worker
    /// count, or the shard count for the sharded simulator (one thread
    /// per shard); 1 for sequential workloads.
    pub workers: usize,
    /// Transport the suite exercised: `"in-process"` for everything
    /// that never crosses a socket, `"uds"`/`"tcp"` for the
    /// `edgelet-net` suites.
    pub transport: &'static str,
    /// Throughput annotation: `(unit, value)` derived from `median_ns`.
    pub throughput: (&'static str, f64),
}

impl SuiteResult {
    /// A sequential in-process suite that does `work` `unit`s per timed
    /// iteration; parallel and socket suites override those fields.
    fn new(name: &'static str, timing: Timing, unit: &'static str, work: f64) -> Self {
        SuiteResult {
            name,
            median_ns: timing.median,
            q1_ns: timing.q1,
            q3_ns: timing.q3,
            shards: 1,
            workers: 1,
            transport: "in-process",
            throughput: (unit, work / (timing.median * 1e-9)),
        }
    }
}

/// Samples per suite (median and quartiles taken over these).
pub const SAMPLES: usize = 7;

const MIB: f64 = 1024.0 * 1024.0;

/// Quartiles of one suite's [`SAMPLES`] timings, nanoseconds.
#[derive(Debug, Clone, Copy)]
struct Timing {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Timing {
    fn of(mut samples: Vec<f64>) -> Timing {
        let mut at = |q| percentile(&mut samples, q).expect("a suite takes SAMPLES timings");
        Timing {
            q1: at(25.0),
            median: at(50.0),
            q3: at(75.0),
        }
    }

    /// Per-item timing of a sample that looped `n` times.
    fn per(self, n: usize) -> Timing {
        let n = n as f64;
        Timing {
            q1: self.q1 / n,
            median: self.median / n,
            q3: self.q3 / n,
        }
    }
}

/// Times `f` once, returning elapsed nanoseconds.
fn time_once<R>(f: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64() * 1e9
}

/// [`SAMPLES`] timings of `f`, after one discarded warm-up call.
fn time<R>(mut f: impl FnMut() -> R) -> Timing {
    let _ = time_once(&mut f);
    Timing::of((0..SAMPLES).map(|_| time_once(&mut f)).collect())
}

fn synth_rows(n: usize) -> Vec<Row> {
    let mut rng = DetRng::new(1);
    synth::health_store(n, &mut rng).rows().to_vec()
}

/// Wire encode: 1000 synthetic health rows to bytes.
pub fn wire_encode(name: &'static str) -> SuiteResult {
    let batch = synth_rows(1_000);
    let mib = to_bytes(&batch).len() as f64 / MIB;
    let timing = time(|| to_bytes(black_box(&batch)));
    SuiteResult::new(name, timing, "mib_per_sec", mib)
}

/// Wire decode: the matching decode workload.
pub fn wire_decode(name: &'static str) -> SuiteResult {
    let encoded = to_bytes(&synth_rows(1_000));
    let mib = encoded.len() as f64 / MIB;
    let timing = time(|| from_bytes::<Vec<Row>>(black_box(&encoded)).expect("decode"));
    SuiteResult::new(name, timing, "mib_per_sec", mib)
}

/// Records per durable-store suite iteration.
const WAL_RECORDS: usize = 1_000;
/// Payload bytes per WAL record (1 KiB before framing).
const WAL_RECORD_BYTES: usize = 1024;

fn wal_payload(i: usize) -> Vec<u8> {
    // Distinct first bytes so the CRC path sees varied data.
    let mut p = vec![(i % 251) as u8; WAL_RECORD_BYTES];
    p[0] = (i >> 8) as u8;
    p
}

/// Durable-store append path: frame + checksum + group-commit of 1000
/// 1 KiB records through
/// [`GroupCommitLog`](edgelet_core::store::GroupCommitLog) onto an
/// in-memory backend. The batch rides the group-commit fast path — one
/// contiguous media write and one sync for the whole batch (counted, not
/// timed, by `edgelet-store`'s `bulk_commit_costs_…` unit test) — so this
/// measures the logging overhead the durable service pays per
/// completion, isolated from disk hardware.
pub fn store_wal_append(name: &'static str) -> SuiteResult {
    use edgelet_core::store::{GroupCommitConfig, GroupCommitLog, MemBackend, RetryPolicy};
    use std::sync::Arc;

    let mib = (WAL_RECORDS * WAL_RECORD_BYTES) as f64 / MIB;
    let payloads: Vec<Vec<u8>> = (0..WAL_RECORDS).map(wal_payload).collect();
    let timing = time(|| {
        let log = GroupCommitLog::new(
            Arc::new(MemBackend::new()),
            RetryPolicy::default(),
            GroupCommitConfig::default(),
        );
        log.commit_all(&payloads).expect("in-memory commit");
        log
    });
    SuiteResult::new(name, timing, "mib_per_sec", mib)
}

/// Durable-store recovery scan: reading and CRC-verifying a 1000-record
/// WAL back into memory. Recovery returns zero-copy `Payload` slices
/// into the segment buffers rather than one owned `Vec` per record. The
/// payloads are opaque filler and are never decoded, so this is the
/// scan's share of a restart only; what a restarting service pays in
/// full — scan plus decoding and applying every record — is
/// [`store_recovery_apply`]. Log construction is hoisted out of the
/// timing.
pub fn store_recovery_replay(name: &'static str) -> SuiteResult {
    use edgelet_core::store::{DurableLog, MemBackend, RetryPolicy};
    use std::sync::Arc;

    let backend = Arc::new(MemBackend::new());
    let log = DurableLog::new(backend, RetryPolicy::default());
    for i in 0..WAL_RECORDS {
        log.append(&wal_payload(i)).expect("in-memory append");
    }
    let timing = time(|| {
        let recovered = log.recover().expect("clean log recovers");
        assert_eq!(recovered.records.len(), WAL_RECORDS);
        recovered
    });
    SuiteResult::new(name, timing, "records_per_sec", WAL_RECORDS as f64)
}

/// Completed epochs in the [`store_recovery_apply`] WAL (one intent and
/// one completion record each).
const APPLY_EPOCHS: u64 = 2_048;
/// Devices charged by each of its completion ledgers.
const APPLY_LEDGER_DEVICES: u64 = 1_000;
/// Bytes in each of its result payloads.
const APPLY_PAYLOAD_BYTES: usize = 512;

/// Durable-service restart, scan **and** apply: `recover()` over a WAL
/// of 2 048 intent + completion pairs, then `DurableState::replay` of
/// every record — what `QueryService::with_durability` does before it
/// can admit a query. Each completion carries a 1 000-device liability
/// ledger and a 512-byte result payload, the shape the end-to-end
/// benchmark's `durable_grouping` cold start recovers, so this number
/// and that workload's `store.recovery_records_per_s` are comparable.
pub fn store_recovery_apply(name: &'static str) -> SuiteResult {
    use edgelet_core::exec::Ledger;
    use edgelet_core::store::{GroupCommitConfig, GroupCommitLog, MemBackend, RetryPolicy};
    use edgelet_live::{DurableState, WalRecord};
    use std::sync::Arc;

    let mut ledger = Ledger::default();
    for d in 0..APPLY_LEDGER_DEVICES {
        // Sparse ids, so keys span one- to three-byte varints.
        let device = DeviceId::new(d * 37);
        ledger.host_operator(device);
        ledger.raw_tuples(device, 40 + d % 7);
        ledger.aggregates(device, d % 3);
    }
    let result_payload: Vec<u8> = (0..APPLY_PAYLOAD_BYTES).map(|i| (i * 7) as u8).collect();
    let mut records = Vec::with_capacity(2 * APPLY_EPOCHS as usize);
    for epoch in 1..=APPLY_EPOCHS {
        records.push(to_bytes(&WalRecord::Intent {
            epoch,
            spec_digest: 0x5eed,
        }));
        records.push(to_bytes(&WalRecord::Completion {
            epoch,
            result_payload: Some(result_payload.clone()),
            ledger: ledger.clone(),
            trace_digest: Some(epoch),
        }));
    }
    let log = GroupCommitLog::new(
        Arc::new(MemBackend::new()),
        RetryPolicy::default(),
        GroupCommitConfig::default(),
    );
    log.commit_all(&records).expect("in-memory commit");
    let timing = time(|| {
        let recovered = log.recover().expect("clean log recovers");
        let mut state = DurableState::default();
        let replayed = state.replay(&recovered.records).expect("records decode");
        assert_eq!(replayed, records.len());
        assert_eq!(state.applied.len() as u64, APPLY_EPOCHS);
        state
    });
    SuiteResult::new(name, timing, "records_per_sec", records.len() as f64)
}

/// Broadcast hub: fans a 1 KiB payload out to every peer, waits for all
/// acks, repeats.
struct Hub {
    peers: Vec<DeviceId>,
    rounds_left: u32,
    acks_pending: usize,
}

impl Hub {
    fn kick(&mut self, ctx: &mut Context<'_>) {
        self.rounds_left -= 1;
        self.acks_pending = self.peers.len();
        ctx.broadcast(self.peers.clone(), vec![0xAB; 1024]);
    }
}

impl Actor for Hub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.kick(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: DeviceId, _payload: &[u8]) {
        self.acks_pending -= 1;
        if self.acks_pending == 0 && self.rounds_left > 0 {
            self.kick(ctx);
        }
    }
}

/// Peer: acknowledges every broadcast.
struct AckPeer;

impl Actor for AckPeer {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: DeviceId, _payload: &[u8]) {
        ctx.send(from, vec![1u8]);
    }
}

const BROADCAST_PEERS: usize = 200;
const BROADCAST_ROUNDS: u32 = 50;

fn build_broadcast_sim(shards: usize) -> Simulation {
    let mut sim = Simulation::new(
        SimConfig {
            network: NetworkModel::reliable(Duration::from_millis(1)),
            shards,
            ..SimConfig::default()
        },
        7,
    );
    let hub = sim.add_device(DeviceConfig::default());
    let peers: Vec<DeviceId> = (0..BROADCAST_PEERS)
        .map(|_| sim.add_device(DeviceConfig::default()))
        .collect();
    for &p in &peers {
        sim.install_actor(p, Box::new(AckPeer));
    }
    sim.install_actor(
        hub,
        Box::new(Hub {
            peers,
            rounds_left: BROADCAST_ROUNDS,
            acks_pending: 0,
        }),
    );
    sim
}

/// Times `build()`'s simulation to quiescence (or `deadline`), setup
/// hoisted out of the timing, first sample a discarded warm-up.
fn time_sim(
    build: impl Fn() -> Simulation,
    deadline: SimTime,
    mut check: impl FnMut(&Simulation),
) -> Timing {
    let mut samples: Vec<f64> = Vec::with_capacity(SAMPLES);
    for i in 0..=SAMPLES {
        let mut sim = build();
        let start = Instant::now();
        sim.run_until(deadline);
        let elapsed = start.elapsed().as_secs_f64() * 1e9;
        check(&sim);
        if i > 0 {
            samples.push(elapsed);
        }
    }
    Timing::of(samples)
}

/// A simulator suite under `shards` shards, one thread each.
fn sharded(shards: usize, result: SuiteResult) -> SuiteResult {
    SuiteResult {
        shards,
        workers: shards,
        ..result
    }
}

/// Simulator broadcast scenario: a hub fans 1 KiB to 200 peers for 50
/// rounds (20k deliveries), each peer acking. Setup excluded.
pub fn sim_broadcast(shards: usize, name: &'static str) -> SuiteResult {
    let deliveries = u64::from(BROADCAST_PEERS as u32 * BROADCAST_ROUNDS * 2);
    let timing = time_sim(
        || build_broadcast_sim(shards),
        SimTime::MAX,
        |sim| {
            assert_eq!(
                sim.metrics().messages_delivered,
                deliveries,
                "broadcast scenario must deliver every message"
            );
        },
    );
    let result = SuiteResult::new(name, timing, "deliveries_per_sec", deliveries as f64);
    sharded(shards, result)
}

/// Devices in the population-scale suites.
const SCALE_DEVICES: usize = 100_000;
/// Virtual seconds the churn suite simulates.
const SCALE_CHURN_SECS: u64 = 30;

/// Heartbeat actor for the churn suite: a staggered periodic timer that
/// pings a random peer.
struct Heartbeat {
    peers: u64,
    period: Duration,
}

impl Actor for Heartbeat {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Stagger the first beat so load spreads over one period.
        let jitter = Duration::from_micros(ctx.rng().range(0..self.period.as_micros()));
        ctx.set_timer(jitter);
    }
    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: DeviceId, _payload: &[u8]) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        let peer = ctx.rng().range(0..self.peers);
        ctx.send(DeviceId::new(peer), vec![0x5A; 64]);
        ctx.set_timer(self.period);
    }
}

fn build_churn_sim(shards: usize) -> Simulation {
    let mut sim = Simulation::new(
        SimConfig {
            network: NetworkModel {
                latency: LatencyModel::Uniform {
                    min: Duration::from_millis(100),
                    max: Duration::from_millis(250),
                },
                drop_probability: 0.0,
                corruption_probability: 0.0,
            },
            shards,
            ..SimConfig::default()
        },
        11,
    );
    for i in 0..SCALE_DEVICES {
        let availability = if i % 4 == 0 {
            Availability::Intermittent {
                mean_up: Duration::from_secs(300),
                mean_down: Duration::from_secs(120),
                start_up: true,
            }
        } else {
            Availability::AlwaysUp
        };
        sim.add_device(DeviceConfig {
            availability,
            crash: CrashPlan::Never,
        });
    }
    for i in 0..SCALE_DEVICES {
        sim.install_actor(
            DeviceId::new(i as u64),
            Box::new(Heartbeat {
                peers: SCALE_DEVICES as u64,
                period: Duration::from_secs(5),
            }),
        );
    }
    sim
}

/// Population-scale churn: 100k devices (a quarter intermittently
/// connected) heartbeating random peers for 30 virtual seconds over a
/// 100–250 ms WAN. World construction excluded from the timing.
pub fn scale_churn(shards: usize, name: &'static str) -> SuiteResult {
    let deadline = SimTime::from_micros(SCALE_CHURN_SECS * 1_000_000);
    let mut delivered = 0u64;
    let timing = time_sim(
        || build_churn_sim(shards),
        deadline,
        |sim| {
            delivered = sim.metrics().messages_delivered;
            assert!(
                delivered > SCALE_DEVICES as u64,
                "churn scenario must make progress"
            );
        },
    );
    let result = SuiteResult::new(name, timing, "deliveries_per_sec", delivered as f64);
    sharded(shards, result)
}

/// Virtual seconds the sparse-window suite runs (a polling query's
/// deadline).
const SPARSE_CHURN_SECS: u64 = 900;

/// Keeps a world with no query installed from being quiescent: one
/// timer armed past the suite's deadline.
struct Sentinel;

impl Actor for Sentinel {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_secs(2 * SPARSE_CHURN_SECS));
    }
    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: DeviceId, _payload: &[u8]) {}
}

/// The simulator's exchange, counting windows on the way: the one slice
/// ingests once per window.
struct CountingMail {
    mail: Mailboxes,
    windows: AtomicU64,
}

impl Exchange for CountingMail {
    fn ingest(&self, me: usize, shard: &mut Shard) {
        self.windows.fetch_add(1, Ordering::Relaxed);
        self.mail.ingest(me, shard);
    }
    fn publish(&self, me: usize, report: &mut WindowReport) {
        self.mail.publish(me, report);
    }
    fn settle(&self) -> Option<u64> {
        self.mail.settle()
    }
}

/// What a window costs around the actor, in isolation: the benchmark's
/// polling world (`sim_polling_churn`: 4 151 churning devices, 10 ms
/// lookahead) with no query installed, so every event is a churn toggle
/// and every window holds a handful of them. Reports wall time per
/// window and events per second; world construction excluded.
pub fn window_sparse_churn(name: &'static str) -> SuiteResult {
    let mut platform = Platform::build(Scenario::OpportunisticPolling.config(1));
    let spec = crate::census_spec(&mut platform, 800);
    let network = platform.config().network.to_model();
    let deadline = SimTime::from_micros(SPARSE_CHURN_SECS * 1_000_000);
    let (mut windows, mut events) = (0u64, 0u64);
    let mut samples: Vec<f64> = Vec::with_capacity(SAMPLES);
    for i in 0..=SAMPLES {
        let lookahead_us = network.min_latency().as_micros();
        let mut world = World::new(1, lookahead_us, u64::MAX, 0, platform.sim_seed(&spec));
        let devices = platform.device_configs(&spec);
        world.reserve(devices.size_hint().0);
        for cfg in devices {
            world.add_device(cfg);
        }
        world.install_actor(platform.querier(), Box::new(Sentinel));
        let env = RunEnv {
            network: &network,
            ttl: None,
            classifier: None,
            plan: None,
            trace_enabled: false,
            need_kind: false,
            device_count: world.device_count(),
            shard_count: 1,
            deliveries_leave: false,
        };
        let mail = CountingMail {
            mail: Mailboxes::new(1),
            windows: AtomicU64::new(0),
        };
        let start = Instant::now();
        world
            .run(&env, &mail, deadline, None)
            .expect("the inline barrier cannot fail");
        let elapsed = start.elapsed().as_secs_f64() * 1e9;
        windows = mail.windows.load(Ordering::Relaxed);
        events = world.state.metrics.events_processed;
        assert!(windows > 1_000 && events >= windows, "the crowd must churn");
        if i > 0 {
            samples.push(elapsed);
        }
    }
    let per_window = Timing::of(samples).per(windows as usize);
    SuiteResult::new(
        name,
        per_window,
        "events_per_sec",
        events as f64 / windows as f64,
    )
}

/// Collectors in the 100k-contributor grouping suite (250 contributors
/// each, mirroring the paper's partitioned Grouping-Sets fan-out).
const GROUP_COLLECTORS: usize = 400;

/// Partition collector: requests contributions from its slice of the
/// crowd, counts replies, reports a partial upstream when complete.
struct ScaleCollector {
    querier: DeviceId,
    contributors: Vec<DeviceId>,
    pending: usize,
}

impl Actor for ScaleCollector {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.pending = self.contributors.len();
        ctx.broadcast(self.contributors.clone(), vec![0x01; 16]);
    }
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: DeviceId, _payload: &[u8]) {
        self.pending -= 1;
        if self.pending == 0 {
            ctx.send(self.querier, vec![0x02; 128]);
        }
    }
}

/// Contributor endpoint: answers any request with a 256-byte record.
struct ScaleContributor;

impl Actor for ScaleContributor {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: DeviceId, _payload: &[u8]) {
        ctx.send(from, vec![0xC0; 256]);
    }
}

/// Querier endpoint: counts partials.
struct ScaleQuerier;

impl Actor for ScaleQuerier {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: DeviceId, _payload: &[u8]) {
        ctx.observe("partials", 1.0);
    }
}

fn build_grouping_sim(shards: usize) -> Simulation {
    let mut sim = Simulation::new(
        SimConfig {
            network: NetworkModel::reliable(Duration::from_millis(20)),
            shards,
            ..SimConfig::default()
        },
        13,
    );
    let querier = sim.add_device(DeviceConfig::default());
    let collectors: Vec<DeviceId> = (0..GROUP_COLLECTORS)
        .map(|_| sim.add_device(DeviceConfig::default()))
        .collect();
    let contributors: Vec<DeviceId> = (0..SCALE_DEVICES)
        .map(|_| sim.add_device(DeviceConfig::default()))
        .collect();
    for &c in &contributors {
        sim.install_actor(c, Box::new(ScaleContributor));
    }
    let per = SCALE_DEVICES / GROUP_COLLECTORS;
    for (i, &c) in collectors.iter().enumerate() {
        sim.install_actor(
            c,
            Box::new(ScaleCollector {
                querier,
                contributors: contributors[i * per..(i + 1) * per].to_vec(),
                pending: 0,
            }),
        );
    }
    sim.install_actor(querier, Box::new(ScaleQuerier));
    sim
}

/// Population-scale grouping query: 400 collectors fan a request out to
/// 100k contributors (250 each), gather 256-byte contributions, and
/// report partials to one querier. World construction excluded.
pub fn scale_grouping(shards: usize, name: &'static str) -> SuiteResult {
    // request + reply per contributor, plus one partial per collector.
    let expected = (2 * SCALE_DEVICES + GROUP_COLLECTORS) as u64;
    let timing = time_sim(
        || build_grouping_sim(shards),
        SimTime::MAX,
        |sim| {
            assert_eq!(
                sim.metrics().messages_delivered,
                expected,
                "grouping scenario must complete the full fan-out"
            );
        },
    );
    let contributions = SCALE_DEVICES as f64;
    let result = SuiteResult::new(name, timing, "contributions_per_sec", contributions);
    sharded(shards, result)
}

/// The 1 000-contributor lossy crowd of the `e2e` suite and of the
/// isolated per-layer suites below.
fn crowd_1k(seed: u64) -> PlatformConfig {
    PlatformConfig {
        seed,
        contributors: 1_000,
        processors: 80,
        network: NetworkProfile::Lossy {
            drop_probability: 0.05,
        },
        ..PlatformConfig::default()
    }
}

/// The privacy and resiliency knobs every query on [`crowd_1k`] runs under.
fn crowd_1k_knobs() -> (PrivacyConfig, ResilienceConfig) {
    (
        PrivacyConfig::none().with_max_tuples(50),
        ResilienceConfig {
            strategy: Strategy::Overcollection,
            failure_probability: 0.1,
            ..ResilienceConfig::default()
        },
    )
}

/// The `e2e` query's cold start in isolation: enrolling the crowd and
/// generating its stores, plus tearing it down again.
pub fn core_platform_build(name: &'static str) -> SuiteResult {
    let world = crowd_1k(1);
    let devices = (world.contributors + world.processors) as f64;
    let timing = time(|| Platform::build(world.clone()));
    SuiteResult::new(name, timing, "devices_per_sec", devices)
}

/// Plans per sample in the planning suites: keeps one sample above timer
/// resolution.
const PLANS: usize = 20;

/// Admission's planning step in isolation: `plan_query` on a platform
/// that has planned before, so the directory's key hashes are memoised
/// (what every query after a service's first pays).
pub fn query_plan_warm(name: &'static str) -> SuiteResult {
    let mut p = Platform::build(crowd_1k(1));
    let spec = crate::census_spec(&mut p, 200);
    let (privacy, resilience) = crowd_1k_knobs();
    let timing = time(|| {
        for _ in 0..PLANS {
            black_box(p.plan_query(&spec, &privacy, &resilience).expect("plan"));
        }
    })
    .per(PLANS);
    SuiteResult::new(name, timing, "plans_per_sec", 1.0)
}

/// The signature [`plan_overcollection`] and
/// [`plan_overcollection_approx`] share: `(n, p, target, max_m)` to `m`.
type OvercollectionPlanner = fn(u64, f64, f64, u64) -> edgelet_core::util::Result<u64>;

/// Choosing the overcollection degree `m` at n = 512 partitions,
/// p = 0.15, target 0.999 — the ablation of DESIGN.md §5: the exact
/// binomial tail against the normal approximation.
pub fn planner_overcollection(plan: OvercollectionPlanner, name: &'static str) -> SuiteResult {
    let timing = time(|| {
        for _ in 0..PLANS {
            black_box(plan(black_box(512), 0.15, 0.999, 4096).expect("satisfiable"));
        }
    })
    .per(PLANS);
    SuiteResult::new(name, timing, "plans_per_sec", 1.0)
}

/// Wiring one planned query's actors onto the crowd and dropping them
/// again — the per-query cost of handing every contributor actor its
/// store, which every host (sim, live, net) pays before the first event.
pub fn exec_assemble_and_drop(name: &'static str) -> SuiteResult {
    let mut p = Platform::build(crowd_1k(1));
    let spec = crate::census_spec(&mut p, 200);
    let (privacy, resilience) = crowd_1k_knobs();
    let plan = p.plan_query(&spec, &privacy, &resilience).expect("plan");
    let root_secret = p.root_secret(&spec);
    let timing = time(|| {
        let assembly = edgelet_core::exec::assemble_plan(
            &plan,
            p.schema(),
            p.stores(),
            p.device_classes(),
            &p.config().exec,
            root_secret,
            0.0,
        )
        .expect("assemble");
        assembly.installs.len()
    });
    SuiteResult::new(name, timing, "assemblies_per_sec", 1.0)
}

/// The collection round in isolation, on [`crowd_1k`]'s 1 000
/// contributors: one builder's request read and answered by every
/// contributor and every answer collected, callback by callback with no
/// executor around them (the in-situ share is `exec.actor_ms.contributor`
/// and `.builder` of `benchmark/`). Reports ns per contributor; the
/// crowd and its actors are built outside the timing, a fresh builder
/// per sample inside it.
pub fn exec_collection_round(name: &'static str) -> SuiteResult {
    use edgelet_core::exec::roles::builder::{BuilderActor, BuilderWiring};
    use edgelet_core::exec::roles::contributor::ContributorActor;
    use edgelet_core::exec::roles::{RankGate, Sealer};
    use edgelet_core::exec::{ledger, ExecConfig};
    use edgelet_core::sim::Command;
    use edgelet_core::util::ids::PartitionId;

    let p = Platform::build(crowd_1k(1));
    let query = QueryId::new(1);
    let builder_device = DeviceId::new(u64::MAX);
    let sealer = |device| Sealer::new(false, &[0; 32], query, device);
    let ledger = ledger::shared();
    let wiring = std::sync::Arc::new(BuilderWiring {
        query,
        partition: PartitionId::new(0),
        // Room for every answer: the round never ends early.
        quota: p.stores().len(),
        filter: Predicate::cmp("age", CmpOp::Gt, Value::Int(20)),
        columns: vec!["bmi".into(), "sex".into()],
        contributors: p.stores().keys().copied().collect(),
        slices: Vec::new(),
    });
    let builder = || {
        BuilderActor::new(
            wiring.clone(),
            DeviceClass::SgxPc.profile(),
            ExecConfig::fast(),
            sealer(builder_device),
            ledger.clone(),
            RankGate::new(0, Vec::new(), 0.0),
        )
    };
    let mut contributors: Vec<(DeviceId, ContributorActor)> = p
        .stores()
        .iter()
        .map(|(&d, store)| {
            let actor = ContributorActor::new(
                query,
                store.clone(),
                sealer(d),
                ledger.clone(),
                wiring.quota,
            );
            (d, actor)
        })
        .collect();
    let (mut rng, mut timers) = (DetRng::new(1), 0u64);
    let request = {
        let mut ctx = Context::new(builder_device, SimTime::ZERO, &mut rng, &mut timers);
        builder().on_start(&mut ctx);
        match ctx.take_commands().into_iter().next() {
            Some(Command::Broadcast { payload, .. }) => payload,
            other => panic!("a builder starts by asking its contributors, not {other:?}"),
        }
    };
    let mut answers = 0;
    let timing = time(|| {
        let mut b = builder();
        answers = 0;
        for (device, contributor) in &mut contributors {
            let mut ctx = Context::new(*device, SimTime::ZERO, &mut rng, &mut timers);
            contributor.on_message(&mut ctx, builder_device, &request);
            for command in ctx.take_commands() {
                if let Command::Send { payload, .. } = command {
                    answers += 1;
                    let mut ctx =
                        Context::new(builder_device, SimTime::ZERO, &mut rng, &mut timers);
                    b.on_message(&mut ctx, *device, &payload);
                }
            }
        }
        b
    })
    .per(contributors.len());
    assert!(answers > contributors.len() / 2, "the crowd answers");
    SuiteResult::new(name, timing, "contributors_per_sec", 1.0)
}

/// End-to-end: one full grouping query over 1k contributors on a lossy
/// network.
pub fn e2e_query(name: &'static str) -> SuiteResult {
    let mut seed = 0u64;
    let timing = time(|| {
        seed += 1;
        let mut p = Platform::build(crowd_1k(seed));
        let spec = crate::census_spec(&mut p, 200);
        let (privacy, resilience) = crowd_1k_knobs();
        let run = p
            .run_query(&spec, &privacy, &resilience)
            .expect("e2e query");
        run.report.completed
    });
    SuiteResult::new(name, timing, "queries_per_sec", 1.0)
}

/// Live runtime: three concurrent grouping queries through one
/// [`QueryService`](edgelet_live::QueryService) over a shared 1k-device
/// pool (the `live/throughput` suites, at worker counts 1 and 4).
/// Throughput is end-to-end queries per second including admission,
/// epoch registration, worker-thread spin-up, and graceful retirement.
pub fn live_throughput(workers: usize, name: &'static str) -> SuiteResult {
    use edgelet_live::{QueryService, ServiceConfig};

    const QUERIES: usize = 3;
    let mut seed = 100u64;
    let timing = time(|| {
        seed += 1;
        let mut p = Platform::build(crowd_1k(seed));
        let spec = crate::census_spec(&mut p, 200);
        let (privacy, resilience) = crowd_1k_knobs();
        let service = QueryService::new(
            p,
            ServiceConfig {
                workers,
                max_concurrent: QUERIES,
                mailbox_capacity: 4096,
            },
        );
        let all_completed = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..QUERIES)
                .map(|_| {
                    let (service, spec, privacy, resilience) =
                        (&service, &spec, &privacy, &resilience);
                    scope.spawn(move || {
                        service
                            .submit(spec, privacy, resilience, None)
                            .expect("live query")
                            .run
                            .report
                            .completed
                    })
                })
                .collect();
            handles.into_iter().all(|h| h.join().expect("submitter"))
        });
        service.shutdown();
        all_completed
    });
    SuiteResult {
        workers,
        ..SuiteResult::new(name, timing, "queries_per_sec", QUERIES as f64)
    }
}

/// Messages per socket-suite iteration.
const NET_MSGS: usize = 200;
/// World-spec payload bytes per submitted message (1 KiB).
const NET_SPEC_BYTES: usize = 1024;

/// Binds a UDS listener on a fresh temp path and returns both ends of
/// one accepted connection as message streams.
fn uds_pair() -> (
    edgelet_net::MsgStream,
    edgelet_net::MsgStream,
    std::path::PathBuf,
) {
    use edgelet_net::{Addr, Listener, MsgStream, Stream};
    let path = std::env::temp_dir().join(format!("edgelet-bench-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let addr = Addr::Uds(path.clone());
    let listener = Listener::bind(&addr).expect("bind bench socket");
    let accept = std::thread::spawn(move || listener.accept().expect("accept bench peer"));
    let client = Stream::connect(&addr).expect("connect bench socket");
    let server = accept.join().expect("accept thread");
    (MsgStream::new(client), MsgStream::new(server), path)
}

/// Socket submission throughput: 200 framed 1 KiB `SubmitReq` messages
/// streamed over one Unix-domain connection, acknowledged once per
/// batch. Measures frame encode, CRC, socket write, reassembly, and
/// decode end to end.
pub fn net_submit_throughput(name: &'static str) -> SuiteResult {
    use edgelet_net::NetMsg;

    let (mut client, mut server, path) = uds_pair();
    let sink = std::thread::spawn(move || loop {
        for _ in 0..NET_MSGS {
            match server.recv(Some(std::time::Duration::from_secs(10))) {
                Ok(NetMsg::SubmitReq { spec }) => assert_eq!(spec.len(), NET_SPEC_BYTES),
                _ => return,
            }
        }
        if server.send(&NetMsg::Pong { nonce: 0 }).is_err() {
            return;
        }
    });
    let mib = (NET_MSGS * NET_SPEC_BYTES) as f64 / MIB;
    let spec = vec![0xE1u8; NET_SPEC_BYTES];
    let timing = time(|| {
        for _ in 0..NET_MSGS {
            client
                .send(&NetMsg::SubmitReq { spec: spec.clone() })
                .expect("submit");
        }
        match client.recv(Some(std::time::Duration::from_secs(10))) {
            Ok(NetMsg::Pong { .. }) => {}
            other => panic!("expected batch ack, got {other:?}"),
        }
    });
    client.shutdown();
    sink.join().expect("sink peer");
    let _ = std::fs::remove_file(&path);
    SuiteResult {
        transport: "uds",
        ..SuiteResult::new(name, timing, "mib_per_sec", mib)
    }
}

/// Shard count the `@shardsN` suite variants run under (picked to match
/// the CI parity matrix and typical 4-core runners).
pub const PARALLEL_SHARDS: usize = 4;

/// One entry in the suite registry: a stable name and the measurement
/// behind it.
pub struct Suite {
    /// Suite identifier, the key of `bench_report --suite`.
    pub name: &'static str,
    runner: fn(&'static str) -> SuiteResult,
}

impl Suite {
    /// Measures this suite.
    pub fn run(&self) -> SuiteResult {
        (self.runner)(self.name)
    }
}

/// Every suite, in the fixed report order. Simulator and live suites
/// appear at one shard / worker and again at [`PARALLEL_SHARDS`] (the
/// `@shards4` / `@workers4` variants), so one report shows what the
/// parallel machinery buys on the machine it was taken on.
pub fn suites() -> Vec<Suite> {
    let suite = |name, runner| Suite { name, runner };
    vec![
        suite("wire/rows/encode_1000_rows", wire_encode),
        suite("wire/rows/decode_1000_rows", wire_decode),
        suite("store/wal_append/1000_records_1kib", store_wal_append),
        suite(
            "store/recovery_replay/1000_records_1kib",
            store_recovery_replay,
        ),
        suite(
            "store/recovery_apply/2048_pairs_1k_device_ledger",
            store_recovery_apply,
        ),
        suite("sim/broadcast/1kib_fanout_200x50", |name| {
            sim_broadcast(1, name)
        }),
        suite("sim/broadcast/1kib_fanout_200x50@shards4", |name| {
            sim_broadcast(PARALLEL_SHARDS, name)
        }),
        suite("sim/scale/100k_devices_churn", |name| scale_churn(1, name)),
        suite("sim/scale/100k_devices_churn@shards4", |name| {
            scale_churn(PARALLEL_SHARDS, name)
        }),
        suite("sim/scale/grouping_query_100k_contributors", |name| {
            scale_grouping(1, name)
        }),
        suite(
            "sim/scale/grouping_query_100k_contributors@shards4",
            |name| scale_grouping(PARALLEL_SHARDS, name),
        ),
        suite("sim/window/sparse_churn_4k", window_sparse_churn),
        suite("core/platform_build/1k_contributors", core_platform_build),
        suite("query/plan/1k_contributors_warm", query_plan_warm),
        suite("planner/overcollection/exact_n512", |name| {
            planner_overcollection(plan_overcollection, name)
        }),
        suite("planner/overcollection/approx_n512", |name| {
            planner_overcollection(plan_overcollection_approx, name)
        }),
        suite(
            "exec/assemble_and_drop/1k_contributors",
            exec_assemble_and_drop,
        ),
        suite(
            "exec/collection_round/1k_contributors",
            exec_collection_round,
        ),
        suite("e2e/grouping_query_1k_contributors", e2e_query),
        suite(
            "live/throughput/grouping_3_queries_1k_contributors@workers1",
            |name| live_throughput(1, name),
        ),
        suite(
            "live/throughput/grouping_3_queries_1k_contributors@workers4",
            |name| live_throughput(PARALLEL_SHARDS, name),
        ),
        suite("net/submit_throughput/200x1kib_uds", net_submit_throughput),
    ]
}

/// Logical CPUs available to this process, degrading to 1 when the
/// platform cannot say. Recorded in every report so speedup numbers
/// (`@shards4` / `@workers4` vs their sequential twins) carry the
/// hardware context needed to interpret them.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Below this many logical CPUs a report is flagged `low_parallelism`:
/// the `@shards4` / `@workers4` suites cannot actually run 4-wide, so
/// their speedups (and any comparison against a wider machine) under-
/// report.
pub const LOW_PARALLELISM_CPUS: usize = 4;

/// Whether this machine is too narrow for the parallel suites to mean
/// what they say (see [`LOW_PARALLELISM_CPUS`]).
pub fn low_parallelism() -> bool {
    available_parallelism() < LOW_PARALLELISM_CPUS
}

/// The short git revision of the working tree, or `"unknown"` outside a
/// checkout (reports stay comparable either way; the key is advisory).
pub fn git_revision() -> String {
    git_revision_in(None)
}

/// [`git_revision`] resolved from an explicit directory — `None` means
/// the process working directory. Every failure mode (no `git` binary,
/// not a checkout, empty output) degrades to `"unknown"` rather than an
/// error, so reports can be produced from exported tarballs.
fn git_revision_in(dir: Option<&std::path::Path>) -> String {
    let mut cmd = std::process::Command::new("git");
    cmd.args(["rev-parse", "--short", "HEAD"]);
    if let Some(dir) = dir {
        cmd.current_dir(dir);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders the report as JSON (one suite per line, stable key order).
pub fn to_json(results: &[SuiteResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"edgelet-bench-report/v2\",\n");
    out.push_str(&format!("  \"samples_per_suite\": {SAMPLES},\n"));
    out.push_str(&format!("  \"git_revision\": \"{}\",\n", git_revision()));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        available_parallelism()
    ));
    if low_parallelism() {
        // Self-describing reports: a narrow machine flags itself so its
        // `@shards4` / `@workers4` rows are never read as a 4-wide run.
        out.push_str("  \"low_parallelism\": true,\n");
    }
    out.push_str("  \"suites\": {\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{}\": {{\"median_ns\": {:.1}, \"q1_ns\": {:.1}, \"q3_ns\": {:.1}, \"shards\": {}, \"workers\": {}, \"transport\": \"{}\", \"{}\": {:.1}}}{comma}\n",
            r.name, r.median_ns, r.q1_ns, r.q3_ns, r.shards, r.workers, r.transport, r.throughput.0, r.throughput.1
        ));
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &'static str, median: f64) -> SuiteResult {
        let timing = Timing {
            q1: median - 1.0,
            median,
            q3: median + 2.0,
        };
        SuiteResult::new(name, timing, "x_per_sec", 1.0)
    }

    #[test]
    fn quartiles_come_from_the_seven_samples() {
        let timing = Timing::of(vec![70.0, 10.0, 60.0, 20.0, 50.0, 30.0, 40.0]).per(10);
        assert_eq!((timing.q1, timing.median, timing.q3), (2.5, 4.0, 5.5));
    }

    #[test]
    fn json_records_median_and_quartiles() {
        let json = to_json(&[result("a/b", 12345.5), result("c/d", 678.0)]);
        assert!(json.contains("\"schema\": \"edgelet-bench-report/v2\""));
        assert!(json
            .contains("\"a/b\": {\"median_ns\": 12345.5, \"q1_ns\": 12344.5, \"q3_ns\": 12347.5,"));
        assert!(
            json.contains("\"c/d\": {\"median_ns\": 678.0, \"q1_ns\": 677.0, \"q3_ns\": 680.0,")
        );
    }

    #[test]
    fn low_parallelism_flag_matches_the_machine() {
        let json = to_json(&[]);
        assert_eq!(
            json.contains("\"low_parallelism\": true"),
            available_parallelism() < LOW_PARALLELISM_CPUS,
            "{json}"
        );
    }

    #[test]
    fn git_revision_degrades_to_unknown_outside_a_checkout() {
        // The filesystem root is never a git checkout, so resolution
        // must fall back to the sentinel instead of erroring.
        assert_eq!(git_revision_in(Some(std::path::Path::new("/"))), "unknown");
        // Inside this checkout it resolves to a short hex revision.
        let here = git_revision();
        assert!(
            here == "unknown" || here.chars().all(|c| c.is_ascii_hexdigit()),
            "{here}"
        );
    }

    #[test]
    fn live_throughput_suite_completes_queries() {
        let r = live_throughput(2, "live/throughput/test@workers2");
        assert_eq!(r.shards, 1, "live suites do not shard the simulator");
        assert_eq!(r.workers, 2);
        assert_eq!(r.throughput.0, "queries_per_sec");
        assert!(r.throughput.1 > 0.0);
    }

    #[test]
    fn store_suites_measure_the_durable_log() {
        for (suite, unit) in [
            (
                store_wal_append as fn(&'static str) -> SuiteResult,
                "mib_per_sec",
            ),
            (store_recovery_replay, "records_per_sec"),
            (store_recovery_apply, "records_per_sec"),
        ] {
            let r = suite("store/test");
            assert_eq!(r.throughput.0, unit);
            assert!(r.throughput.1 > 0.0);
            assert!(r.q1_ns <= r.median_ns && r.median_ns <= r.q3_ns, "{r:?}");
        }
    }

    #[test]
    fn net_suites_cross_a_real_socket() {
        let st = net_submit_throughput("net/test");
        assert_eq!(st.transport, "uds");
        assert_eq!(st.throughput.0, "mib_per_sec");
        assert!(st.throughput.1 > 0.0);
    }

    #[test]
    fn broadcast_sim_delivers_everything() {
        let mut sim = build_broadcast_sim(1);
        sim.run();
        assert_eq!(
            sim.metrics().messages_delivered,
            (BROADCAST_PEERS as u32 * BROADCAST_ROUNDS * 2) as u64
        );
    }

    #[test]
    fn broadcast_sim_is_shard_invariant() {
        let mut seq = build_broadcast_sim(1);
        seq.run();
        let mut par = build_broadcast_sim(PARALLEL_SHARDS);
        par.run();
        assert_eq!(
            seq.metrics().messages_delivered,
            par.metrics().messages_delivered
        );
        assert_eq!(
            seq.metrics().events_processed,
            par.metrics().events_processed
        );
    }

    #[test]
    fn json_records_shard_and_worker_counts() {
        let json = to_json(&[SuiteResult {
            shards: 4,
            workers: 2,
            ..result("s", 1.0)
        }]);
        assert!(json.contains("\"shards\": 4"));
        assert!(json.contains("\"workers\": 2"));
        assert!(json.contains("\"transport\": \"in-process\""));
        assert!(json.contains("\"git_revision\""));
        assert!(json.contains("\"available_parallelism\""));
    }

    #[test]
    fn registry_filters_by_prefix() {
        let names: Vec<&str> = suites().iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 22, "{names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "{names:?}");
        // Prefix selection is what `bench_report --suite` exposes; pure
        // name filtering here so the test does not run the heavy suites.
        let with = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
        assert_eq!(with("sim/broadcast"), 2);
        assert_eq!(with("sim/window"), 1);
        assert_eq!(with("planner/overcollection"), 2);
        assert_eq!(with(""), names.len());
        assert_eq!(with("no/such/suite"), 0);
    }
}
