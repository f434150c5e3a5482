//! Building a live world from an enrolled [`Platform`] and running one
//! query on it — the cross-engine parity entry point.
//!
//! [`run_live_query`] takes the steps of [`Platform::run_query`]: same
//! plan (`plan_query`), same world seed (`Platform::sim_seed`), the
//! same enrolment sequence ([`Platform::device_configs`]), same actor
//! wiring ([`edgelet_exec::assemble_plan`]) installed in the same
//! order, same deadline, same report construction
//! ([`edgelet_exec::finish_report`]). The only difference is the host:
//! a [`LiveEngine`] over worker threads and a [`Transport`] instead of
//! the inline simulator — which is exactly the difference the parity
//! harness (`tests/live_parity.rs`) proves invisible.

use crate::engine::{ExitReason, LiveConfig, LiveEngine};
use edgelet_core::{Platform, PlatformConfig};
use edgelet_exec::{assemble_plan, finish_report, ExecutionReport};
use edgelet_query::{PrivacyConfig, QueryPlan, QuerySpec, ResilienceConfig};
use edgelet_sim::{Duration, SimTime, TraceRecord};
use edgelet_util::ids::DeviceId;
use edgelet_util::Result;
use edgelet_wire::Transport;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Per-run options for the live harness.
#[derive(Debug, Clone)]
pub struct LiveRunOptions {
    /// Worker threads hosting the device population.
    pub workers: usize,
    /// The epoch stamped on every envelope; the caller must have
    /// registered it on the transport (lanes = `workers`).
    pub epoch: u64,
    /// Scripted crashes `(device, at)`, applied after actor install —
    /// the live counterpart of [`edgelet_sim::Simulation::crash_at`].
    pub crash_script: Vec<(DeviceId, SimTime)>,
}

impl LiveRunOptions {
    /// Options for a single-worker run under `epoch`.
    pub fn new(workers: usize, epoch: u64) -> Self {
        LiveRunOptions {
            workers,
            epoch,
            crash_script: Vec::new(),
        }
    }
}

/// Everything one live query execution produced — the live counterpart
/// of [`edgelet_core::RunResult`].
#[derive(Debug)]
pub struct LiveRun {
    /// The executed plan.
    pub plan: QueryPlan,
    /// The execution report (including `result_payload`, the bytes the
    /// parity harness compares).
    pub report: ExecutionReport,
    /// Trace digest, when tracing was enabled.
    pub trace_digest: Option<u64>,
    /// The recorded trace events.
    pub trace: Vec<TraceRecord>,
    /// Why the engine stopped.
    pub exit: ExitReason,
}

/// Builds the [`LiveEngine`] world for `spec`: the simulated world's
/// seed, the simulated world's enrolment sequence and its fault plan,
/// hence the same RNG fork schedule, the same crash draws and the same
/// injected faults.
///
/// Fails if the platform configuration needs simulator-only features
/// (churn models, zero-lookahead networks, or a fault plan that is not
/// window-safe).
pub fn build_live_world(
    platform: &Platform,
    spec: &QuerySpec,
    transport: Arc<dyn Transport>,
    opts: &LiveRunOptions,
) -> Result<LiveEngine> {
    let cfg: &PlatformConfig = platform.config();
    let mut engine = LiveEngine::new(
        LiveConfig {
            network: cfg.network.to_model(),
            trace_capacity: cfg.trace_capacity,
            workers: opts.workers,
            ..LiveConfig::default()
        },
        platform.sim_seed(spec),
        transport,
        opts.epoch,
    )?;
    if let Some(plan) = &cfg.fault_plan {
        // As the simulator: an installed plan, even an empty one, also
        // classifies payloads into protocol kinds for the trace.
        engine.set_fault_plan(plan.clone())?;
        engine.set_classifier(edgelet_exec::messages::classify_payload);
    }
    let devices = platform.device_configs(spec);
    engine.reserve(devices.size_hint().0);
    for device in devices {
        engine.add_device(device)?;
    }
    Ok(engine)
}

/// A fully planned, built, and actor-installed live world, stopped just
/// short of execution — the construction half of [`run_live_query`].
///
/// Hosts that drive the rounds themselves (the multi-process socket
/// runtime in `edgelet-net`) take this apart: the worker processes
/// detach `engine` via [`LiveEngine::into_parts`] and keep their
/// slice, the daemon keeps `plan` and the assembly handles for
/// [`edgelet_exec::finish_report`]. `assembly.installs` comes back
/// empty — every actor is already installed on `engine`.
pub struct PreparedQuery {
    /// The executed plan.
    pub plan: QueryPlan,
    /// The built world, every actor installed, not yet stepped.
    pub engine: LiveEngine,
    /// The assembly's report-side handles (`sliced_queries`, `record`,
    /// `ledger`); `installs` is drained.
    pub assembly: edgelet_exec::PlanAssembly,
}

/// What [`prepare_live_query`] was called with, kept on the world it
/// returns ([`LiveEngine::prepared_from`]) so that world can be prepared
/// again under another epoch — by the same function, over a clone of the
/// same crowd handle (no re-enrolment, a warm plan). A world assembled
/// by hand from [`build_live_world`] carries none.
pub struct PreparedInputs {
    platform: Platform,
    spec: QuerySpec,
    privacy: PrivacyConfig,
    resilience: ResilienceConfig,
    opts: LiveRunOptions,
}

impl PreparedInputs {
    /// The privacy configuration the plan was made under.
    pub fn privacy(&self) -> &PrivacyConfig {
        &self.privacy
    }

    /// The resilience configuration the plan was made under.
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// [`prepare_live_query`] over these inputs, stamped with `epoch` and
    /// built over `transport`.
    pub fn prepare(&self, transport: Arc<dyn Transport>, epoch: u64) -> Result<PreparedQuery> {
        let opts = LiveRunOptions {
            epoch,
            ..self.opts.clone()
        };
        prepare_live_query(
            &self.platform,
            &self.spec,
            &self.privacy,
            &self.resilience,
            transport,
            &opts,
        )
    }
}

/// Plans one query and builds its live world with every actor installed
/// and the crash script applied, without running it. The deterministic
/// construction contract is identical to [`run_live_query`] — same
/// plan, same seed, same install order — so any two hosts calling this
/// with the same inputs hold bit-identical worlds. The inputs ride on
/// the returned engine as its [`PreparedInputs`].
pub fn prepare_live_query(
    platform: &Platform,
    spec: &QuerySpec,
    privacy: &PrivacyConfig,
    resilience: &ResilienceConfig,
    transport: Arc<dyn Transport>,
    opts: &LiveRunOptions,
) -> Result<PreparedQuery> {
    let plan = platform.plan_query(spec, privacy, resilience)?;
    let mut engine = build_live_world(platform, spec, transport, opts)?;
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
    for (dev, at) in &opts.crash_script {
        engine.crash_at(*dev, *at);
    }
    engine.prepared_from = Some(Arc::new(PreparedInputs {
        platform: platform.clone(),
        spec: spec.clone(),
        privacy: privacy.clone(),
        resilience: resilience.clone(),
        opts: opts.clone(),
    }));
    Ok(PreparedQuery {
        plan,
        engine,
        assembly,
    })
}

/// Plans and executes one query on a live world, as
/// [`Platform::run_query`] does on a simulated one. `abort` (when given) is polled at window
/// barriers; raising it stops the run with [`ExitReason::Aborted`].
pub fn run_live_query(
    platform: &Platform,
    spec: &QuerySpec,
    privacy: &PrivacyConfig,
    resilience: &ResilienceConfig,
    transport: Arc<dyn Transport>,
    opts: &LiveRunOptions,
    abort: Option<&AtomicBool>,
) -> Result<LiveRun> {
    let PreparedQuery {
        plan,
        mut engine,
        assembly,
    } = prepare_live_query(platform, spec, privacy, resilience, transport, opts)?;
    let deadline = engine.now() + Duration::from_secs_f64(plan.spec.deadline_secs);
    let exit = engine.run_until(deadline, abort);
    let report = finish_report(
        &plan,
        &assembly.sliced_queries,
        &assembly.record,
        &assembly.ledger,
        engine.metrics(),
    )?;
    let trace_digest = engine.trace().enabled().then(|| engine.trace().digest());
    let trace = engine.trace().records().cloned().collect();
    Ok(LiveRun {
        plan,
        report,
        trace_digest,
        trace,
        exit,
    })
}
