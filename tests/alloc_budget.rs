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
//! container and touch no payload. And preparing a query again from the
//! inputs its first preparation recorded (what a socket worker does every
//! epoch after its first) shares the crowd instead of enrolling it anew.

use edgelet_core::exec::assemble_plan;
use edgelet_core::prelude::*;
use edgelet_live::{prepare_live_query, LiveRunOptions, StripedTransport};
use edgelet_sim::{
    Actor, Availability, Context, CrashPlan, DeviceConfig, Duration, NetworkModel, SimConfig,
    SimTime, Simulation,
};
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
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` performs, its result's drop
/// included.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.get();
    drop(f());
    ALLOCATIONS.get() - before
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
/// included (measures 17.74; 22.08 with the cell-per-event queue, a
/// `Vec<Command>` per callback and device vectors grown by doubling).
const POLLING_QUERY_PER_DEVICE: f64 = 19.5;

/// Ceiling on `submit_batch` of [`HOP_ENVELOPES`] envelopes plus the
/// `drain` that takes them back (measures 1: the lane reserves the
/// run once and `drain` hands that vector over; 3 018 when a lane held
/// wire bytes — an encode buffer, a decode buffer and an `Arc` per
/// envelope).
const LANE_HOP: u64 = 4;
const HOP_ENVELOPES: usize = 1_000;

/// Ceiling on preparing a query again from the inputs
/// `prepare_live_query` recorded, per device of the world (measures 1.70:
/// the live world's devices, the plan and its boxed actors; 5.73 for the
/// first preparation, which enrols the crowd — `Platform::build`'s 4.02 —
/// and plans it cold).
const PREPARE_AGAIN_PER_DEVICE: f64 = 2.1;

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

#[test]
fn preparing_again_from_recorded_inputs_enrols_no_one() {
    let platform = Platform::build(world());
    let clone = allocations(|| platform.clone());
    let build = allocations(|| Platform::build(world()));
    let (spec, privacy, resilience) = grouping(&mut Platform::build(world()));
    let transport: Arc<dyn Transport> = Arc::new(StripedTransport::new(4096));

    let mut inputs = None;
    let first = allocations(|| {
        let prepared = prepare_live_query(
            &Platform::build(world()),
            &spec,
            &privacy,
            &resilience,
            transport.clone(),
            &LiveRunOptions::new(1, 1),
        )
        .expect("the world is provisioned for this query");
        inputs = prepared.engine.prepared_from().cloned();
        prepared
    });
    let inputs = inputs.expect("prepare_live_query records its inputs");
    let again = allocations(|| {
        let prepared = inputs
            .prepare(transport.clone(), 2)
            .expect("the recorded inputs prepare again");
        assert_eq!(prepared.engine.epoch(), 2);
        prepared
    });

    let devices = (CONTRIBUTORS + PROCESSORS + 1) as f64;
    let (build, first, again) = (build as f64, first as f64, again as f64);
    println!(
        "allocations: Platform::clone {clone}; first preparation, crowd included, {first} \
         ({:.2}/device); again from its inputs {again} ({:.2}/device); Platform::build \
         {build} ({:.2}/device)",
        first / devices,
        again / devices,
        build / devices,
    );
    assert_eq!(clone, 0, "Platform::clone allocated");
    assert!(
        again / devices <= PREPARE_AGAIN_PER_DEVICE,
        "preparing again: {:.2} allocations per device, budget {PREPARE_AGAIN_PER_DEVICE}",
        again / devices
    );
    assert!(
        first - again >= build,
        "preparing again saved {} allocations, Platform::build alone makes {build}",
        first - again
    );
}
