//! Reproducible performance report: the workloads behind `bench_report`.
//!
//! The criterion suites under `benches/` are interactive tools; this
//! module is the *durable* record. `cargo run -p edgelet-bench --bin
//! bench_report` times four representative workloads — the k-means
//! kernel, wire encode/decode, a broadcast-heavy simulator scenario, and
//! a full end-to-end query — and emits a JSON snapshot (`BENCH_*.json`
//! at the repo root) so performance PRs carry their own evidence and
//! future PRs have a trajectory to compare against.
//!
//! Suite names intentionally mirror the criterion benchmark IDs.

use edgelet_core::ml::gen::gaussian_mixture;
use edgelet_core::ml::kmeans::{KMeans, KMeansConfig};
use edgelet_core::prelude::*;
use edgelet_core::sim::{
    Actor, Availability, Context, CrashPlan, DeviceConfig, Duration, LatencyModel, NetworkModel,
    SimConfig, SimTime, Simulation, TimerToken,
};
use edgelet_core::store::{synth, Row};
use edgelet_core::util::ids::DeviceId;
use edgelet_core::util::rng::DetRng;
use edgelet_core::wire::{from_bytes, to_bytes};
use std::hint::black_box;
use std::time::Instant;

/// One measured workload.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Suite identifier (mirrors the criterion benchmark ID).
    pub name: &'static str,
    /// Median wall-clock nanoseconds per iteration.
    pub median_ns: f64,
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

/// Samples per suite (median taken over these).
pub const SAMPLES: usize = 7;

/// Times `f` once, returning elapsed nanoseconds.
fn time_once<R>(f: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64() * 1e9
}

/// Median of `SAMPLES` timings of `f`, with one discarded warm-up call.
fn median_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let _ = time_once(&mut f);
    let mut samples: Vec<f64> = (0..SAMPLES).map(|_| time_once(&mut f)).collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

/// k-means kernel: one Lloyd step over 10k 2-d points, k=3 (the same
/// workload as `kernels/kmeans/lloyd_step_10k_points`). Seeding is
/// excluded from the timing.
pub fn kmeans_kernel() -> SuiteResult {
    let mut rng = DetRng::new(2);
    let (points, _) = gaussian_mixture(
        &[
            (vec![0.0, 0.0], 1.0),
            (vec![10.0, 0.0], 1.0),
            (vec![0.0, 10.0], 1.0),
        ],
        10_000,
        &mut rng,
    );
    let cfg = KMeansConfig {
        k: 3,
        max_iterations: 20,
        tolerance: 1e-6,
    };
    let mut seed_rng = DetRng::new(3);
    let seeded = KMeans::seed(&points, &cfg, &mut seed_rng).expect("seeding 10k points");
    // 20 steps per iteration so one sample is comfortably above timer
    // resolution; report per-step time.
    const STEPS: usize = 20;
    let ns = median_ns(|| {
        let mut km = seeded.clone();
        for _ in 0..STEPS {
            km.lloyd_step(&points);
        }
        km
    }) / STEPS as f64;
    SuiteResult {
        name: "kernels/kmeans/lloyd_step_10k_points",
        median_ns: ns,
        shards: 1,
        workers: 1,
        transport: "in-process",
        throughput: ("elements_per_sec", 10_000.0 / (ns * 1e-9)),
    }
}

fn synth_rows(n: usize) -> Vec<Row> {
    let mut rng = DetRng::new(1);
    synth::health_store(n, &mut rng).rows().to_vec()
}

/// Wire encode: 1000 synthetic health rows to bytes (mirrors
/// `wire/rows/encode_1000_rows`).
pub fn wire_encode() -> SuiteResult {
    let batch = synth_rows(1_000);
    let len = to_bytes(&batch).len() as f64;
    let ns = median_ns(|| to_bytes(black_box(&batch)));
    SuiteResult {
        name: "wire/rows/encode_1000_rows",
        median_ns: ns,
        shards: 1,
        workers: 1,
        transport: "in-process",
        throughput: ("mib_per_sec", len / (ns * 1e-9) / (1024.0 * 1024.0)),
    }
}

/// Wire decode: the matching decode workload (mirrors
/// `wire/rows/decode_1000_rows`).
pub fn wire_decode() -> SuiteResult {
    let encoded = to_bytes(&synth_rows(1_000));
    let len = encoded.len() as f64;
    let ns = median_ns(|| from_bytes::<Vec<Row>>(black_box(&encoded)).expect("decode"));
    SuiteResult {
        name: "wire/rows/decode_1000_rows",
        median_ns: ns,
        shards: 1,
        workers: 1,
        transport: "in-process",
        throughput: ("mib_per_sec", len / (ns * 1e-9) / (1024.0 * 1024.0)),
    }
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
/// in-memory backend (mirrors `store/wal_append`). The batch rides the
/// group-commit fast path — one contiguous media write and one sync for
/// the whole batch — so this measures the logging overhead the durable
/// service pays per completion, isolated from disk hardware.
pub fn store_wal_append() -> SuiteResult {
    use edgelet_core::store::{GroupCommitConfig, GroupCommitLog, MemBackend, RetryPolicy};
    use std::sync::Arc;

    let bytes = (WAL_RECORDS * WAL_RECORD_BYTES) as f64;
    let payloads: Vec<Vec<u8>> = (0..WAL_RECORDS).map(wal_payload).collect();
    let ns = median_ns(|| {
        let log = GroupCommitLog::new(
            Arc::new(MemBackend::new()),
            RetryPolicy::default(),
            GroupCommitConfig::default(),
        );
        log.commit_all(&payloads).expect("in-memory commit");
        log
    });
    SuiteResult {
        name: "store/wal_append/1000_records_1kib",
        median_ns: ns,
        shards: 1,
        workers: 1,
        transport: "in-process",
        throughput: ("mib_per_sec", bytes / (ns * 1e-9) / (1024.0 * 1024.0)),
    }
}

/// Durable-store recovery scan: reading and CRC-verifying a 1000-record
/// WAL back into memory (mirrors `store/recovery_replay`). Recovery
/// returns zero-copy `Payload` slices into the segment buffers rather
/// than one owned `Vec` per record. The payloads are opaque filler and
/// are never decoded, so this is the scan's share of a restart only;
/// what a restarting service pays in full — scan plus decoding and
/// applying every record — is [`store_recovery_apply`]. Log
/// construction is hoisted out of the timing.
pub fn store_recovery_replay() -> SuiteResult {
    use edgelet_core::store::{DurableLog, MemBackend, RetryPolicy};
    use std::sync::Arc;

    let backend = Arc::new(MemBackend::new());
    let log = DurableLog::new(backend, RetryPolicy::default());
    for i in 0..WAL_RECORDS {
        log.append(&wal_payload(i)).expect("in-memory append");
    }
    let ns = median_ns(|| {
        let recovered = log.recover().expect("clean log recovers");
        assert_eq!(recovered.records.len(), WAL_RECORDS);
        recovered
    });
    SuiteResult {
        name: "store/recovery_replay/1000_records_1kib",
        median_ns: ns,
        shards: 1,
        workers: 1,
        transport: "in-process",
        throughput: ("records_per_sec", WAL_RECORDS as f64 / (ns * 1e-9)),
    }
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
pub fn store_recovery_apply() -> SuiteResult {
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
    let ns = median_ns(|| {
        let recovered = log.recover().expect("clean log recovers");
        let mut state = DurableState::default();
        let replayed = state.replay(&recovered.records).expect("records decode");
        assert_eq!(replayed, records.len());
        assert_eq!(state.applied.len() as u64, APPLY_EPOCHS);
        state
    });
    SuiteResult {
        name: "store/recovery_apply/2048_pairs_1k_device_ledger",
        median_ns: ns,
        shards: 1,
        workers: 1,
        transport: "in-process",
        throughput: ("records_per_sec", records.len() as f64 / (ns * 1e-9)),
    }
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
fn median_sim_ns(
    build: impl Fn() -> Simulation,
    deadline: SimTime,
    check: impl Fn(&Simulation),
) -> f64 {
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
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

/// Simulator broadcast scenario: a hub fans 1 KiB to 200 peers for 50
/// rounds (20k deliveries), each peer acking. Setup excluded.
pub fn sim_broadcast() -> SuiteResult {
    sim_broadcast_with(1, "sim/broadcast/1kib_fanout_200x50")
}

/// [`sim_broadcast`] under an explicit shard count.
pub fn sim_broadcast_with(shards: usize, name: &'static str) -> SuiteResult {
    let deliveries = (BROADCAST_PEERS as u32 * BROADCAST_ROUNDS * 2) as f64;
    let ns = median_sim_ns(
        || build_broadcast_sim(shards),
        SimTime::MAX,
        |sim| {
            assert_eq!(
                sim.metrics().messages_delivered,
                deliveries as u64,
                "broadcast scenario must deliver every message"
            );
        },
    );
    SuiteResult {
        name,
        median_ns: ns,
        shards,
        workers: shards,
        transport: "in-process",
        throughput: ("deliveries_per_sec", deliveries / (ns * 1e-9)),
    }
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
    let ns = {
        let delivered = &mut delivered;
        let mut samples: Vec<f64> = Vec::with_capacity(SAMPLES);
        for i in 0..=SAMPLES {
            let mut sim = build_churn_sim(shards);
            let start = Instant::now();
            sim.run_until(deadline);
            let elapsed = start.elapsed().as_secs_f64() * 1e9;
            assert!(
                sim.metrics().messages_delivered > SCALE_DEVICES as u64,
                "churn scenario must make progress"
            );
            *delivered = sim.metrics().messages_delivered;
            if i > 0 {
                samples.push(elapsed);
            }
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        samples[samples.len() / 2]
    };
    SuiteResult {
        name,
        median_ns: ns,
        shards,
        workers: shards,
        transport: "in-process",
        throughput: ("deliveries_per_sec", delivered as f64 / (ns * 1e-9)),
    }
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
    let ns = median_sim_ns(
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
    SuiteResult {
        name,
        median_ns: ns,
        shards,
        workers: shards,
        transport: "in-process",
        throughput: ("contributions_per_sec", SCALE_DEVICES as f64 / (ns * 1e-9)),
    }
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
pub fn core_platform_build() -> SuiteResult {
    let world = crowd_1k(1);
    let devices = (world.contributors + world.processors) as f64;
    let ns = median_ns(|| Platform::build(world.clone()));
    SuiteResult {
        name: "core/platform_build/1k_contributors",
        median_ns: ns,
        shards: 1,
        workers: 1,
        transport: "in-process",
        throughput: ("devices_per_sec", devices / (ns * 1e-9)),
    }
}

/// Admission's planning step in isolation: `plan_query` on a platform
/// that has planned before, so the directory's key hashes are memoised
/// (what every query after a service's first pays).
pub fn query_plan_warm() -> SuiteResult {
    let mut p = Platform::build(crowd_1k(1));
    let spec = crate::census_spec(&mut p, 200);
    let (privacy, resilience) = crowd_1k_knobs();
    // 20 plans per sample keep one sample above timer resolution.
    const PLANS: usize = 20;
    let ns = median_ns(|| {
        for _ in 0..PLANS {
            black_box(p.plan_query(&spec, &privacy, &resilience).expect("plan"));
        }
    }) / PLANS as f64;
    SuiteResult {
        name: "query/plan/1k_contributors_warm",
        median_ns: ns,
        shards: 1,
        workers: 1,
        transport: "in-process",
        throughput: ("plans_per_sec", 1.0 / (ns * 1e-9)),
    }
}

/// Wiring one planned query's actors onto the crowd and dropping them
/// again — the per-query cost of handing every contributor actor its
/// store, which every host (sim, live, net) pays before the first event.
pub fn exec_assemble_and_drop() -> SuiteResult {
    let mut p = Platform::build(crowd_1k(1));
    let spec = crate::census_spec(&mut p, 200);
    let (privacy, resilience) = crowd_1k_knobs();
    let plan = p.plan_query(&spec, &privacy, &resilience).expect("plan");
    let root_secret = p.root_secret(&spec);
    let ns = median_ns(|| {
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
    SuiteResult {
        name: "exec/assemble_and_drop/1k_contributors",
        median_ns: ns,
        shards: 1,
        workers: 1,
        transport: "in-process",
        throughput: ("assemblies_per_sec", 1.0 / (ns * 1e-9)),
    }
}

/// End-to-end: one full grouping query over 1k contributors on a lossy
/// network (mirrors `e2e/grouping_query_1k_contributors`).
pub fn e2e_query() -> SuiteResult {
    let mut seed = 0u64;
    let ns = median_ns(|| {
        seed += 1;
        let mut p = Platform::build(crowd_1k(seed));
        let spec = crate::census_spec(&mut p, 200);
        let (privacy, resilience) = crowd_1k_knobs();
        let run = p
            .run_query(&spec, &privacy, &resilience)
            .expect("e2e query");
        run.report.completed
    });
    SuiteResult {
        name: "e2e/grouping_query_1k_contributors",
        median_ns: ns,
        shards: 1,
        workers: 1,
        transport: "in-process",
        throughput: ("queries_per_sec", 1.0 / (ns * 1e-9)),
    }
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
    let ns = median_ns(|| {
        seed += 1;
        let mut p = Platform::build(PlatformConfig {
            seed,
            contributors: 1_000,
            processors: 80,
            network: NetworkProfile::Lossy {
                drop_probability: 0.05,
            },
            ..PlatformConfig::default()
        });
        let spec = crate::census_spec(&mut p, 200);
        let privacy = PrivacyConfig::none().with_max_tuples(50);
        let resilience = ResilienceConfig {
            strategy: Strategy::Overcollection,
            failure_probability: 0.1,
            ..ResilienceConfig::default()
        };
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
        name,
        median_ns: ns,
        shards: 1,
        workers,
        transport: "in-process",
        throughput: ("queries_per_sec", QUERIES as f64 / (ns * 1e-9)),
    }
}

/// Messages per socket-suite iteration.
const NET_MSGS: usize = 200;
/// World-spec payload bytes per submitted message (1 KiB).
const NET_SPEC_BYTES: usize = 1024;

/// Binds a UDS listener on a fresh temp path and returns both ends of
/// one accepted connection as message streams.
fn uds_pair(
    tag: &str,
) -> (
    edgelet_net::MsgStream,
    edgelet_net::MsgStream,
    std::path::PathBuf,
) {
    use edgelet_net::{Addr, Listener, MsgStream, Stream};
    let path =
        std::env::temp_dir().join(format!("edgelet-bench-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let addr = Addr::Uds(path.clone());
    let listener = Listener::bind(&addr).expect("bind bench socket");
    let accept = std::thread::spawn(move || listener.accept().expect("accept bench peer"));
    let client = Stream::connect(&addr).expect("connect bench socket");
    let server = accept.join().expect("accept thread");
    (MsgStream::new(client), MsgStream::new(server), path)
}

/// Socket round-trip: 200 Ping/Pong exchanges over one Unix-domain
/// connection, an echo peer on its own thread (the `net/roundtrip`
/// suite). Reports per-round-trip latency — the floor every control
/// message of the multi-process runtime pays.
pub fn net_roundtrip() -> SuiteResult {
    use edgelet_net::NetMsg;

    let (mut client, mut server, path) = uds_pair("rt");
    let echo = std::thread::spawn(move || {
        while let Ok(NetMsg::Ping { nonce }) = server.recv(Some(std::time::Duration::from_secs(10)))
        {
            if server.send(&NetMsg::Pong { nonce }).is_err() {
                break;
            }
        }
    });
    let ns = median_ns(|| {
        for i in 0..NET_MSGS as u64 {
            client.send(&NetMsg::Ping { nonce: i }).expect("ping");
            match client.recv(Some(std::time::Duration::from_secs(10))) {
                Ok(NetMsg::Pong { nonce }) => assert_eq!(nonce, i),
                other => panic!("expected pong, got {other:?}"),
            }
        }
    }) / NET_MSGS as f64;
    client.shutdown();
    echo.join().expect("echo peer");
    let _ = std::fs::remove_file(&path);
    SuiteResult {
        name: "net/roundtrip/msgstream_ping_uds",
        median_ns: ns,
        shards: 1,
        workers: 1,
        transport: "uds",
        throughput: ("roundtrips_per_sec", 1.0 / (ns * 1e-9)),
    }
}

/// Socket submission throughput: 200 framed 1 KiB `SubmitReq` messages
/// streamed over one Unix-domain connection, acknowledged once per
/// batch (the `net/submit_throughput` suite). Measures frame encode,
/// CRC, socket write, reassembly, and decode end to end.
pub fn net_submit_throughput() -> SuiteResult {
    use edgelet_net::NetMsg;

    let (mut client, mut server, path) = uds_pair("st");
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
    let bytes = (NET_MSGS * NET_SPEC_BYTES) as f64;
    let spec = vec![0xE1u8; NET_SPEC_BYTES];
    let ns = median_ns(|| {
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
        name: "net/submit_throughput/200x1kib_uds",
        median_ns: ns,
        shards: 1,
        workers: 1,
        transport: "uds",
        throughput: ("mib_per_sec", bytes / (ns * 1e-9) / (1024.0 * 1024.0)),
    }
}

/// Shard count the `@shardsN` suite variants run under (picked to match
/// the CI parity matrix and typical 4-core runners).
pub const PARALLEL_SHARDS: usize = 4;

/// One entry in the suite registry: a stable name and the measurement
/// behind it.
pub struct Suite {
    /// Suite identifier (mirrors the criterion benchmark ID).
    pub name: &'static str,
    runner: fn() -> SuiteResult,
}

impl Suite {
    /// Measures this suite.
    pub fn run(&self) -> SuiteResult {
        (self.runner)()
    }
}

fn broadcast_seq() -> SuiteResult {
    sim_broadcast_with(1, "sim/broadcast/1kib_fanout_200x50")
}
fn broadcast_par() -> SuiteResult {
    sim_broadcast_with(PARALLEL_SHARDS, "sim/broadcast/1kib_fanout_200x50@shards4")
}
fn churn_seq() -> SuiteResult {
    scale_churn(1, "sim/scale/100k_devices_churn")
}
fn churn_par() -> SuiteResult {
    scale_churn(PARALLEL_SHARDS, "sim/scale/100k_devices_churn@shards4")
}
fn grouping_seq() -> SuiteResult {
    scale_grouping(1, "sim/scale/grouping_query_100k_contributors")
}
fn grouping_par() -> SuiteResult {
    scale_grouping(
        PARALLEL_SHARDS,
        "sim/scale/grouping_query_100k_contributors@shards4",
    )
}
fn live_seq() -> SuiteResult {
    live_throughput(
        1,
        "live/throughput/grouping_3_queries_1k_contributors@workers1",
    )
}
fn live_par() -> SuiteResult {
    live_throughput(
        PARALLEL_SHARDS,
        "live/throughput/grouping_3_queries_1k_contributors@workers4",
    )
}

/// Every suite, in the fixed report order. Simulator suites appear at
/// `shards = 1` and again at [`PARALLEL_SHARDS`] (the `@shards4`
/// variants), so one report captures the sequential/parallel speedup.
pub fn suites() -> Vec<Suite> {
    macro_rules! suite {
        ($name:expr, $runner:path) => {
            Suite {
                name: $name,
                runner: $runner,
            }
        };
    }
    vec![
        suite!("kernels/kmeans/lloyd_step_10k_points", kmeans_kernel),
        suite!("wire/rows/encode_1000_rows", wire_encode),
        suite!("wire/rows/decode_1000_rows", wire_decode),
        suite!("store/wal_append/1000_records_1kib", store_wal_append),
        suite!(
            "store/recovery_replay/1000_records_1kib",
            store_recovery_replay
        ),
        suite!(
            "store/recovery_apply/2048_pairs_1k_device_ledger",
            store_recovery_apply
        ),
        suite!("sim/broadcast/1kib_fanout_200x50", broadcast_seq),
        suite!("sim/broadcast/1kib_fanout_200x50@shards4", broadcast_par),
        suite!("sim/scale/100k_devices_churn", churn_seq),
        suite!("sim/scale/100k_devices_churn@shards4", churn_par),
        suite!("sim/scale/grouping_query_100k_contributors", grouping_seq),
        suite!(
            "sim/scale/grouping_query_100k_contributors@shards4",
            grouping_par
        ),
        suite!("core/platform_build/1k_contributors", core_platform_build),
        suite!("query/plan/1k_contributors_warm", query_plan_warm),
        suite!(
            "exec/assemble_and_drop/1k_contributors",
            exec_assemble_and_drop
        ),
        suite!("e2e/grouping_query_1k_contributors", e2e_query),
        suite!(
            "live/throughput/grouping_3_queries_1k_contributors@workers1",
            live_seq
        ),
        suite!(
            "live/throughput/grouping_3_queries_1k_contributors@workers4",
            live_par
        ),
        suite!("net/roundtrip/msgstream_ping_uds", net_roundtrip),
        suite!("net/submit_throughput/200x1kib_uds", net_submit_throughput),
    ]
}

/// Runs every suite in the registry order.
pub fn run_all() -> Vec<SuiteResult> {
    suites().iter().map(Suite::run).collect()
}

/// Runs only the suites whose name starts with `prefix` (e.g.
/// `sim/broadcast` or `live/`). An empty prefix matches everything; an
/// unmatched prefix returns an empty vector — callers decide whether
/// that is an error.
pub fn run_matching(prefix: &str) -> Vec<SuiteResult> {
    suites()
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(Suite::run)
        .collect()
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
    out.push_str("  \"schema\": \"edgelet-bench-report/v1\",\n");
    out.push_str(&format!("  \"samples_per_suite\": {SAMPLES},\n"));
    out.push_str(&format!("  \"git_revision\": \"{}\",\n", git_revision()));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        available_parallelism()
    ));
    if low_parallelism() {
        // Self-describing reports: a narrow machine flags itself so a
        // committed baseline is never mistaken for a 4-wide run.
        out.push_str("  \"low_parallelism\": true,\n");
    }
    out.push_str("  \"suites\": {\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{}\": {{\"median_ns\": {:.1}, \"shards\": {}, \"workers\": {}, \"transport\": \"{}\", \"{}\": {:.1}}}{comma}\n",
            r.name, r.median_ns, r.shards, r.workers, r.transport, r.throughput.0, r.throughput.1
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// One suite whose median regressed past the comparison threshold.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Suite identifier.
    pub suite: &'static str,
    /// Baseline median, nanoseconds.
    pub baseline_ns: f64,
    /// Current median, nanoseconds.
    pub current_ns: f64,
    /// Slowdown in percent (positive = current is slower).
    pub delta_pct: f64,
}

/// Compares `current` against a baseline report previously written by
/// [`to_json`], returning every suite that slowed down by more than
/// `fail_over_pct` percent. Suites absent from the baseline are skipped
/// (new suites never gate).
pub fn compare(
    current: &[SuiteResult],
    baseline_json: &str,
    fail_over_pct: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for r in current {
        let Some(base) = median_from_json(baseline_json, r.name) else {
            continue;
        };
        if base <= 0.0 {
            continue;
        }
        let delta_pct = (r.median_ns - base) / base * 100.0;
        if delta_pct > fail_over_pct {
            out.push(Regression {
                suite: r.name,
                baseline_ns: base,
                current_ns: r.median_ns,
                delta_pct,
            });
        }
    }
    out
}

/// Extracts `median_ns` for `suite` from a report previously written by
/// [`to_json`] (line-oriented scan; not a general JSON parser).
pub fn median_from_json(json: &str, suite: &str) -> Option<f64> {
    let needle = format!("\"{suite}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let rest = line.split("\"median_ns\": ").nth(1)?;
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_medians() {
        let results = vec![
            SuiteResult {
                name: "kernels/kmeans/lloyd_step_10k_points",
                median_ns: 12345.5,
                shards: 1,
                workers: 1,
                transport: "in-process",
                throughput: ("elements_per_sec", 1e9),
            },
            SuiteResult {
                name: "wire/rows/encode_1000_rows",
                median_ns: 678.0,
                shards: 1,
                workers: 1,
                transport: "in-process",
                throughput: ("mib_per_sec", 250.0),
            },
        ];
        let json = to_json(&results);
        assert_eq!(
            median_from_json(&json, "kernels/kmeans/lloyd_step_10k_points"),
            Some(12345.5)
        );
        assert_eq!(
            median_from_json(&json, "wire/rows/encode_1000_rows"),
            Some(678.0)
        );
        assert_eq!(median_from_json(&json, "missing/suite"), None);
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
        let append = store_wal_append();
        assert_eq!(append.name, "store/wal_append/1000_records_1kib");
        assert_eq!(append.throughput.0, "mib_per_sec");
        assert!(append.throughput.1 > 0.0);
        let replay = store_recovery_replay();
        assert_eq!(replay.name, "store/recovery_replay/1000_records_1kib");
        assert_eq!(replay.throughput.0, "records_per_sec");
        assert!(replay.throughput.1 > 0.0);
        let apply = store_recovery_apply();
        assert_eq!(
            apply.name,
            "store/recovery_apply/2048_pairs_1k_device_ledger"
        );
        assert_eq!(apply.throughput.0, "records_per_sec");
        assert!(apply.throughput.1 > 0.0);
    }

    #[test]
    fn net_suites_cross_a_real_socket() {
        let rt = net_roundtrip();
        assert_eq!(rt.name, "net/roundtrip/msgstream_ping_uds");
        assert_eq!(rt.transport, "uds");
        assert_eq!(rt.throughput.0, "roundtrips_per_sec");
        assert!(rt.throughput.1 > 0.0);
        let st = net_submit_throughput();
        assert_eq!(st.name, "net/submit_throughput/200x1kib_uds");
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
    fn compare_flags_only_regressions_past_threshold() {
        let baseline = to_json(&[
            SuiteResult {
                name: "a",
                median_ns: 100.0,
                shards: 1,
                workers: 1,
                transport: "in-process",
                throughput: ("x_per_sec", 1.0),
            },
            SuiteResult {
                name: "b",
                median_ns: 100.0,
                shards: 1,
                workers: 1,
                transport: "in-process",
                throughput: ("x_per_sec", 1.0),
            },
        ]);
        let current = vec![
            // 5% slower: under the 10% gate.
            SuiteResult {
                name: "a",
                median_ns: 105.0,
                shards: 1,
                workers: 1,
                transport: "in-process",
                throughput: ("x_per_sec", 1.0),
            },
            // 50% slower: gates.
            SuiteResult {
                name: "b",
                median_ns: 150.0,
                shards: 1,
                workers: 1,
                transport: "in-process",
                throughput: ("x_per_sec", 1.0),
            },
            // Not in the baseline: skipped.
            SuiteResult {
                name: "c",
                median_ns: 999.0,
                shards: 1,
                workers: 1,
                transport: "in-process",
                throughput: ("x_per_sec", 1.0),
            },
        ];
        let regs = compare(&current, &baseline, 10.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].suite, "b");
        assert!((regs[0].delta_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn json_records_shard_and_worker_counts() {
        let json = to_json(&[SuiteResult {
            name: "s",
            median_ns: 1.0,
            shards: 4,
            workers: 2,
            transport: "in-process",
            throughput: ("x_per_sec", 1.0),
        }]);
        assert!(json.contains("\"shards\": 4"));
        assert!(json.contains("\"workers\": 2"));
        assert!(json.contains("\"transport\": \"in-process\""));
        assert!(json.contains("\"git_revision\""));
        assert!(json.contains("\"available_parallelism\""));
        assert_eq!(median_from_json(&json, "s"), Some(1.0));
    }

    #[test]
    fn registry_filters_by_prefix() {
        let names: Vec<&str> = suites().iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 20, "{names:?}");
        // Prefix selection is what `edgelet bench --suite` exposes; pure
        // name filtering here so the test does not run the heavy suites.
        let broadcast: Vec<&&str> = names
            .iter()
            .filter(|n| n.starts_with("sim/broadcast"))
            .collect();
        assert_eq!(broadcast.len(), 2, "{broadcast:?}");
        // An unmatched prefix runs nothing (and returns immediately).
        assert!(run_matching("no/such/suite").is_empty());
        assert!(available_parallelism() >= 1);
    }
}
