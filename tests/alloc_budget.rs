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

use edgelet_core::exec::assemble_plan;
use edgelet_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic that publishes
// no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` performs, its result's drop
/// included.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    drop(f());
    ALLOCATIONS.load(Ordering::Relaxed) - before
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

// One test function: the counter is process-wide, so concurrent tests
// would charge each other's allocations.
#[test]
fn crowd_is_shared_not_copied() {
    let mut platform = Platform::build(world());
    let build = allocations(|| Platform::build(world()));

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
