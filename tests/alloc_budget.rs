//! An allocation budget for the per-query fixed cost.
//!
//! The crowd is immutable after enrolment, so building it and wiring a
//! query onto it should cost a handful of allocations per device — not a
//! deep copy of every contributor's schema and rows. Wall-clock numbers
//! on a shared box drift by 10–20 %; allocation counts repeat exactly,
//! so this binary (its own process, its own counting allocator) is what
//! keeps the sharing from silently regressing. The ceilings sit ~25 %
//! above what the handle-backed `Schema`/`DataStore` measure; the
//! deep-copying representation exceeds them by 2× or more.
//!
//! The same counter holds the executor's steady state: a window that
//! touches three events allocates nothing, however many windows a run
//! opens, and a whole query on the benchmark's churny polling world
//! stays under a per-device ceiling. And the in-process lanes' hop: a
//! thousand envelopes through `submit_batch` + `drain` grow one
//! container and touch no payload. And resetting a socket worker's kept
//! slice for its next epoch allocates nothing, whatever the crowd's size.
//! And the collection round's busiest callback: a contributor reads a
//! request and writes its answer without building either as a `Msg`.
//! And WAL replay: the ledgers of a restart fold into dense per-device
//! sums that allocate once, however many records, and a record naming
//! a far-off device costs what its bytes do.

use edgelet_core::exec::assemble_plan;
use edgelet_core::exec::ledger::{self, Ledger};
use edgelet_core::exec::messages::Msg;
use edgelet_core::exec::roles::contributor::ContributorActor;
use edgelet_core::exec::roles::Sealer;
use edgelet_core::prelude::*;
use edgelet_live::{prepare_live_query, DurableState, LiveRunOptions, StripedTransport, WalRecord};
use edgelet_sim::exec::{Shard, Window};
use edgelet_sim::Command;
use edgelet_sim::{
    Actor, Availability, Context, CrashPlan, DeviceConfig, Duration, NetworkModel, SimConfig,
    SimTime, Simulation,
};
use edgelet_util::rng::DetRng;
use edgelet_util::Payload;
use edgelet_wire::{Envelope, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Per thread, so the tests of this binary (and the harness thread
    /// that reports them) never charge each other. Everything measured
    /// here runs on the calling thread. No destructor, so the allocator
    /// may touch it at any point of a thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for, on the same terms.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` performs, its result's drop
/// included.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    allocated(f).0
}

/// Allocations `f` performs and the bytes they ask for, its result's
/// drop included.
fn allocated<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    let before = (ALLOCATIONS.get(), BYTES.get());
    drop(f());
    (ALLOCATIONS.get() - before.0, BYTES.get() - before.1)
}

const CONTRIBUTORS: usize = 1_000;
const PROCESSORS: usize = 83;

/// Ceiling on `Platform::build`, per enrolled device (measures 4.02:
/// per contributor a store, its row vector, the row and its one text
/// value; 13.27 when every store built and owned its schema).
const BUILD_PER_DEVICE: f64 = 5.0;
/// Ceiling on `plan_query` + `assemble_plan` + dropping the assembly,
/// per contributor (measures 1.84: the boxed actor plus amortised
/// container growth; 13.38 when `assemble_plan` deep-copied each store).
const QUERY_PER_CONTRIBUTOR: f64 = 2.3;

/// Ceiling on a churn-only run of [`CHURN_DEVICES`] devices, whatever
/// its length (measures 5 at 6 015 events and 5 at 11 980: the first
/// window's report and the sentinel's command buffer; the
/// cell-per-event calendar queue measured 6 724 and 13 373, 1.1 per
/// window in `BTreeMap` nodes and cell buffers).
const CHURN_RUN: u64 = 32;
const CHURN_DEVICES: usize = 2_000;
/// Ceiling on one `Platform::run_query` on the polling world, per
/// enrolled device, planning, world build, 8 000 windows and teardown
/// included (measures 9.12; 17.74 while the collection round decoded
/// and built every request, answer and slice as a `Msg`, 22.08 before
/// that with the cell-per-event queue, a `Vec<Command>` per callback and
/// device vectors grown by doubling).
const POLLING_QUERY_PER_DEVICE: f64 = 11.4;

/// Ceiling on `submit_batch` of [`HOP_ENVELOPES`] envelopes plus the
/// `drain` that takes them back (measures 1: the lane reserves the
/// run once and `drain` hands that vector over; 3 018 when a lane held
/// wire bytes — an encode buffer, a decode buffer and an `Arc` per
/// envelope).
const LANE_HOP: u64 = 4;
const HOP_ENVELOPES: usize = 1_000;

/// Allocations resetting a socket worker's kept slice of the 1 084-device
/// world after an epoch makes, whatever the crowd's size (measured: every
/// device, queue, actor, ledger and record is reset over what it holds;
/// preparing the world again from its recorded inputs, which the reset
/// replaced, measured 1.70 allocations per device).
const KEPT_SLICE_RESET: u64 = 0;

/// Ceiling on one contributor turnaround, request read plus answer
/// written, on a warm ledger and command buffer (measures 4: the
/// filter's column name, the resolved column indices, the answer's
/// buffer and its `Arc`; 11 when the request was decoded into owned
/// strings and the answer built as `Row`s before it was encoded).
const CONTRIBUTOR_TURNAROUND: u64 = 4;

/// Ceiling on what replaying a benchmark-shaped WAL allocates for its
/// ledgers — the allocations of the replay less those of replaying the
/// same records with empty ledgers (the epoch sets are the same in
/// both) — whatever the number of records (measures 178 at 64 pairs and
/// at 2 048: one scratch ledger, one vector of dense sums, and the
/// cumulative ledger's 999 entries inserted once, when the sums join
/// it; a fold that allocated per record would grow with the pairs).
const REPLAY_LEDGERS: u64 = 220;
/// Devices in the replayed ledgers, below the crowd's 1 084 ids like
/// the benchmark's `durable_grouping` WAL.
const REPLAY_DEVICES: u64 = 999;
/// Ceiling on the bytes replaying one completion allocates, per byte of
/// the record, whatever device it names (measures 88 for the 9-byte
/// record naming device 1, 47 for the 14-byte one naming `1 << 40`:
/// the scratch ledger, the map's node and, below the bound, one dense
/// slot; a slot vector sized by the id would ask for terabytes).
const FAR_RECORD_BYTES_PER_BYTE: u64 = 128;

/// Keeps a churn-only world from being quiescent: one timer, armed past
/// every deadline the test runs to.
struct Sentinel;

impl Actor for Sentinel {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_secs(1_000_000));
    }
    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: DeviceId, _payload: &[u8]) {}
}

/// [`CHURN_DEVICES`] devices that toggle every 100 s on average (20
/// toggles a virtual second) under a 1 ms lookahead: nearly every
/// toggle is a window of its own.
fn churn_world() -> Simulation {
    let mut sim = Simulation::new(
        SimConfig {
            network: NetworkModel::reliable(Duration::from_millis(1)),
            ..SimConfig::default()
        },
        7,
    );
    sim.reserve(CHURN_DEVICES);
    for _ in 0..CHURN_DEVICES {
        sim.add_device(DeviceConfig {
            availability: Availability::Intermittent {
                mean_up: Duration::from_secs(100),
                mean_down: Duration::from_secs(100),
                start_up: true,
            },
            crash: CrashPlan::Never,
        });
    }
    sim.install_actor(DeviceId::new(0), Box::new(Sentinel));
    sim
}

/// Allocations of a fresh churn world run to `secs` virtual seconds,
/// and the events it processed.
fn churn_run(secs: u64) -> (u64, u64) {
    let mut sim = churn_world();
    let during = allocations(|| sim.run_until(SimTime::from_micros(secs * 1_000_000)));
    (during, sim.metrics().events_processed)
}

fn world() -> PlatformConfig {
    PlatformConfig {
        seed: 7,
        contributors: CONTRIBUTORS,
        processors: PROCESSORS,
        network: NetworkProfile::Lossy {
            drop_probability: 0.05,
        },
        ..PlatformConfig::default()
    }
}

#[test]
fn windows_allocate_nothing() {
    // 20 toggles a second, each alone in its 1 ms window but for the
    // ~2 % that share one: 300 s is more than 5 000 windows, 600 s twice
    // that.
    let (short, short_events) = churn_run(300);
    let (long, long_events) = churn_run(600);
    println!(
        "allocations: churn-only run {short} over {short_events} events, \
         {long} over {long_events}"
    );
    assert!(short_events > 5_500 && long_events > 2 * 5_500);
    assert!(
        short <= CHURN_RUN && long <= CHURN_RUN,
        "a churn-only run allocated {short} then {long} at twice the windows, budget {CHURN_RUN}"
    );
}

#[test]
fn a_lane_hop_moves_envelopes_and_copies_no_payload() {
    let transport = StripedTransport::new(HOP_ENVELOPES);
    transport.register_epoch(1, 1);
    let mut batch: Vec<Envelope> = (0..HOP_ENVELOPES as u64)
        .map(|i| Envelope {
            epoch: 1,
            from: DeviceId::new(i),
            to: DeviceId::new(i + 1),
            seq: i,
            sent_at_us: i,
            deliver_at_us: 1_000 + i,
            payload: Payload::from(vec![i as u8; 256]),
        })
        .collect();
    let sent: Vec<*const u8> = batch
        .iter()
        .map(|e| e.payload.as_slice().as_ptr())
        .collect();
    let mut drained = Vec::new();
    let hop = allocations(|| {
        transport
            .submit_batch(&mut batch)
            .expect("the lane holds the batch");
        drained = transport.drain(1, 0);
    });
    println!("allocations: {HOP_ENVELOPES}-envelope submit_batch + drain {hop}");
    assert!(batch.is_empty());
    assert_eq!(drained.len(), HOP_ENVELOPES);
    assert!(
        hop <= LANE_HOP,
        "submit_batch + drain of {HOP_ENVELOPES} envelopes allocated {hop}, budget {LANE_HOP}"
    );
    let received: Vec<*const u8> = drained
        .iter()
        .map(|e| e.payload.as_slice().as_ptr())
        .collect();
    assert_eq!(received, sent, "a hop hands over the sender's buffer");
}

#[test]
fn a_polling_query_stays_under_its_ceiling() {
    let mut platform = Platform::build(Scenario::OpportunisticPolling.config(7));
    let spec = platform.grouping_query(
        Predicate::cmp("age", CmpOp::Gt, Value::Int(20)),
        800,
        &[&["sex"], &[]],
        vec![AggSpec::count_star(), AggSpec::over(AggKind::Avg, "bmi")],
    );
    let privacy = PrivacyConfig::none().with_max_tuples(100);
    let resilience = ResilienceConfig {
        strategy: Strategy::Overcollection,
        failure_probability: 0.2,
        ..ResilienceConfig::default()
    };
    let devices = platform.directory().len() + 1;
    let query = allocations(|| {
        let run = platform
            .run_query(&spec, &privacy, &resilience)
            .expect("the polling world is provisioned for this query");
        assert!(run.report.completed && run.report.valid);
        run
    });
    let per_device = query as f64 / devices as f64;
    println!("allocations: polling run_query {query} ({per_device:.2}/device of {devices})");
    assert!(
        per_device <= POLLING_QUERY_PER_DEVICE,
        "run_query on the polling world: {per_device:.2} allocations per device, \
         budget {POLLING_QUERY_PER_DEVICE}"
    );
}

#[test]
fn a_contributor_answers_without_building_messages() {
    let platform = Platform::build(world());
    let (&device, store) = platform
        .stores()
        .iter()
        .next()
        .expect("the world has contributors");
    let (query, builder) = (QueryId::new(1), DeviceId::new(u64::MAX));
    let request = Sealer::new(false, &[0; 32], query, builder).wrap(&Msg::ContributeRequest {
        query,
        filter: Predicate::cmp("age", CmpOp::Gt, Value::Int(0)),
        columns: vec!["bmi".into(), "sex".into()],
    });
    let sealer = Sealer::new(false, &[0; 32], query, device);
    let mut actor = ContributorActor::new(query, store.clone(), sealer, ledger::shared(), 50);
    let (mut rng, mut timers) = (DetRng::new(1), 0);
    let mut turnaround = || {
        let mut ctx = Context::new(device, SimTime::ZERO, &mut rng, &mut timers);
        // The host's command buffer, grown before the actor runs.
        ctx.observe("warm", 0.0);
        let warm = allocations(|| actor.on_message(&mut ctx, builder, &request));
        let commands = ctx.take_commands();
        assert!(
            matches!(commands.last(), Some(Command::Send { to, .. }) if *to == builder),
            "the contributor answers"
        );
        warm
    };
    // The first answer also opens the device's ledger entry.
    turnaround();
    let once = turnaround();
    println!("allocations: one contributor turnaround {once}");
    assert!(
        once <= CONTRIBUTOR_TURNAROUND,
        "a contributor turnaround allocated {once}, budget {CONTRIBUTOR_TURNAROUND}"
    );
}

/// The grouping query both crowd tests plan on [`world`].
fn grouping(platform: &mut Platform) -> (QuerySpec, PrivacyConfig, ResilienceConfig) {
    let spec = platform.grouping_query(
        Predicate::cmp("age", CmpOp::Gt, Value::Int(20)),
        200,
        &[&["sex"], &[]],
        vec![AggSpec::count_star(), AggSpec::over(AggKind::Avg, "bmi")],
    );
    let privacy = PrivacyConfig::none().with_max_tuples(50);
    let resilience = ResilienceConfig {
        strategy: Strategy::Overcollection,
        failure_probability: 0.2,
        ..ResilienceConfig::default()
    };
    (spec, privacy, resilience)
}

#[test]
fn crowd_is_shared_not_copied() {
    let mut platform = Platform::build(world());
    let build = allocations(|| Platform::build(world()));

    let (spec, privacy, resilience) = grouping(&mut platform);
    let plan_once = |platform: &Platform| {
        platform
            .plan_query(&spec, &privacy, &resilience)
            .expect("the world is provisioned for this query")
    };

    let first_plan = allocations(|| plan_once(&platform));
    let second_plan = allocations(|| plan_once(&platform));

    let query = allocations(|| {
        let plan = plan_once(&platform);
        let assembly = assemble_plan(
            &plan,
            platform.schema(),
            platform.stores(),
            platform.device_classes(),
            &platform.config().exec,
            platform.root_secret(&spec),
            0.0,
        )
        .expect("planner output passes the preflight");
        assert!(assembly.installs.len() > CONTRIBUTORS);
        assembly
    });

    let per_device = build as f64 / (CONTRIBUTORS + PROCESSORS) as f64;
    let per_contributor = query as f64 / CONTRIBUTORS as f64;
    println!(
        "allocations: build {build} ({per_device:.2}/device), plan {first_plan} then \
         {second_plan}, plan+assemble+drop {query} ({per_contributor:.2}/contributor)"
    );
    assert!(
        per_device <= BUILD_PER_DEVICE,
        "Platform::build: {per_device:.2} allocations per device, budget {BUILD_PER_DEVICE}"
    );
    assert!(
        per_contributor <= QUERY_PER_CONTRIBUTOR,
        "plan + assemble + drop: {per_contributor:.2} allocations per contributor, \
         budget {QUERY_PER_CONTRIBUTOR}"
    );
    assert!(
        second_plan <= first_plan,
        "a second plan_query allocated {second_plan}, the first {first_plan}"
    );
}

/// Prepares the query of [`grouping`] on a crowd of `contributors` as
/// a one-worker socket worker holds it, runs an epoch on its one slice
/// the way the worker does (windows of one lookahead, its own
/// deliveries kept in its queue), then resets the slice and runs the
/// epoch again. Returns the reset's allocations, the slice's devices and
/// whether both epochs processed the same events into the same ledger.
fn reset_a_slice(contributors: usize) -> (u64, usize, bool) {
    let mut platform = Platform::build(PlatformConfig {
        contributors,
        ..world()
    });
    let (spec, privacy, resilience) = grouping(&mut platform);
    let prepared = prepare_live_query(
        &platform,
        &spec,
        &privacy,
        &resilience,
        Arc::new(StripedTransport::new(4096)),
        &LiveRunOptions::new(1, 1),
    )
    .expect("the world is provisioned for this query");
    let assembly = prepared.assembly;
    let mut parts = prepared.engine.into_parts();
    let mut slice = parts.world.slices.pop().expect("a one-worker world");
    let (lookahead_us, budget) = (parts.world.state.lookahead_us, parts.world.state.max_events);
    let clip_us = Duration::from_secs_f64(spec.deadline_secs).as_micros();
    let env = parts.env();
    let epoch = |slice: &mut Shard| {
        let (mut reuse, mut events) = (None, 0);
        while let Some(at) = slice.pending_min().filter(|&at| at <= clip_us) {
            let window = Window {
                start_us: at,
                end_us: at + lookahead_us,
                clip_us,
                budget,
            };
            let mut report = slice.run_window(&env, &window, reuse.take());
            events += report.out.deltas.events;
            report.recycle();
            reuse = Some(report);
        }
        let ledger = edgelet_wire::to_bytes(&*assembly.ledger.lock().unwrap());
        (events, ledger)
    };
    let first = epoch(&mut slice);
    let reset = allocations(|| {
        assert!(slice.reset(), "every role restarts");
        assembly.restart();
    });
    let again = epoch(&mut slice);
    assert!(first.0 > 0);
    (reset, contributors + PROCESSORS + 1, first == again)
}

#[test]
fn a_kept_slice_resets_without_allocating() {
    let platform = Platform::build(world());
    let clone = allocations(|| platform.clone());
    let (small, small_devices, small_same) = reset_a_slice(CONTRIBUTORS);
    let (large, large_devices, large_same) = reset_a_slice(2 * CONTRIBUTORS);
    println!(
        "allocations: Platform::clone {clone}; resetting a slice of {small_devices} devices \
         {small}, of {large_devices} devices {large}"
    );
    assert_eq!(clone, 0, "Platform::clone allocated");
    assert!(
        small_same && large_same,
        "a reset slice runs the epoch again"
    );
    assert_eq!(small, KEPT_SLICE_RESET, "resetting a slice allocated");
    assert_eq!(small, large, "a reset allocates per device");
}

/// `pairs` intent + completion pairs, each completion carrying `ledger`
/// and a result payload the size of the benchmark's.
fn wal(pairs: u64, ledger: &Ledger) -> Vec<Vec<u8>> {
    (1..=pairs)
        .flat_map(|epoch| {
            [
                WalRecord::Intent {
                    epoch,
                    spec_digest: 0x5eed,
                },
                WalRecord::Completion {
                    epoch,
                    result_payload: Some(vec![7; 40]),
                    ledger: ledger.clone(),
                    trace_digest: None,
                },
            ]
        })
        .map(|record| edgelet_wire::to_bytes(&record))
        .collect()
}

/// Allocations replaying `records` from an empty state, and its state.
fn replay(records: &[Vec<u8>]) -> (u64, DurableState) {
    let mut state = DurableState::default();
    let count = allocations(|| state.replay(records).expect("the WAL decodes"));
    (count, state)
}

#[test]
fn replay_sums_ledgers_in_one_allocation_whatever_the_records() {
    let mut ledger = Ledger::default();
    for d in (0..1_084)
        .filter(|d| d % 13 != 5)
        .take(REPLAY_DEVICES as usize)
    {
        ledger.raw_tuples(DeviceId::new(d), 1 + d % 3);
        ledger.aggregates(DeviceId::new(d), d % 2);
    }
    let ledgers = |pairs| {
        let (with, state) = replay(&wal(pairs, &ledger));
        let (without, _) = replay(&wal(pairs, &Ledger::default()));
        assert_eq!(state.applied.len() as u64, pairs);
        let raw = &state.ledger.entries()[&DeviceId::new(1_000)].raw_tuples_seen;
        assert_eq!(*raw, 2 * pairs, "every ledger was charged");
        with - without
    };
    let (few, many) = (ledgers(64), ledgers(2_048));
    println!("allocations: replaying the ledgers of 64 pairs {few}, of 2048 pairs {many}");
    assert_eq!(few, many, "replay allocates per record");
    assert!(
        many <= REPLAY_LEDGERS,
        "replaying the ledgers allocated {many}, budget {REPLAY_LEDGERS}"
    );
}

#[test]
fn a_record_naming_a_far_off_device_allocates_what_its_bytes_do() {
    for device in [1, 1 << 40, u64::MAX] {
        let mut ledger = Ledger::default();
        ledger.raw_tuples(DeviceId::new(device), 3);
        let record = edgelet_wire::to_bytes(&WalRecord::Completion {
            epoch: 1,
            result_payload: None,
            ledger,
            trace_digest: None,
        });
        let mut state = DurableState::default();
        let (count, bytes) = allocated(|| state.replay(&[&record]).expect("the record decodes"));
        let per_byte = bytes / record.len() as u64;
        println!(
            "allocations: replaying one {}-byte record naming device {device}: {count} ({bytes} bytes)",
            record.len()
        );
        assert_eq!(state.ledger.entries().len(), 1);
        assert!(
            per_byte <= FAR_RECORD_BYTES_PER_BYTE,
            "a record naming device {device} allocated {bytes} bytes, \
             budget {FAR_RECORD_BYTES_PER_BYTE} per record byte"
        );
    }
}
