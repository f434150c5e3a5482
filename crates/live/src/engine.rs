//! The live engine: the shared executor core
//! ([`edgelet_sim::exec`]) hosting [`edgelet_sim::Actor`]s on std
//! threads, with every message crossing a [`Transport`] as real wire
//! bytes.
//!
//! A live world is an [`edgelet_sim::exec::World`] whose slices are the
//! workers. [`LiveEngine::run_until`] hands it, on a thread spawned for
//! the run, to the same decision loop and the same barriers the
//! simulator uses (inline for one worker, scoped threads otherwise);
//! the only live-specific code on the path is the transport hook in
//! [`crate::round`]. The argument for byte-identical outcomes is
//! DESIGN.md §"One executor, three barriers"; the proof-by-test is
//! `tests/live_parity.rs`.
//!
//! What a live world cannot express, relative to the simulator:
//! churning devices (no store-and-forward layer), a zero lookahead and
//! fault plans that are not [window-safe](FaultPlan::is_window_safe)
//! (`skip`/`limit` counters and `Reorder` holds need the simulator's
//! sequential fallback). Those are refused at construction; the executor
//! branches behind them are simply never reached. Everything else —
//! timers, broadcasts, crashes, tracing, observations and window-safe
//! fault plans — is the same code: a plan's rules fire inside
//! `Shard::process_event`, on whichever slice runs the send or the
//! delivery, as on a simulator shard.
//!
//! The socket runtime (`edgelet-net`) drives the same slices across
//! processes via [`LiveEngine::into_parts`].

use crate::harness::PreparedInputs;
use crate::round::Fabric;
use edgelet_sim::exec::{ClassifierRef, RunEnv, World};
use edgelet_sim::{
    Availability, DeviceConfig, FaultPlan, NetworkModel, SimMetrics, SimTime, Trace,
};
use edgelet_util::ids::DeviceId;
use edgelet_util::Result;
use edgelet_wire::Transport;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

pub use edgelet_sim::exec::ExitReason;

/// Maps payload bytes to a protocol message kind for `MsgKind` trace
/// records.
pub type PayloadClassifier = fn(&[u8]) -> Option<u16>;

/// Global live-engine parameters.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// The link model applied to every message.
    pub network: NetworkModel,
    /// Hard cap on processed events (runaway-protocol backstop).
    pub max_events: u64,
    /// Ring-buffer capacity of the event trace (0 disables tracing).
    pub trace_capacity: usize,
    /// Worker threads hosting the device population (0 is treated as 1).
    pub workers: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            network: NetworkModel::default(),
            max_events: 50_000_000,
            trace_capacity: 0,
            workers: 1,
        }
    }
}

/// A fully built live world detached from the in-process driver, for
/// hosts that cross the window barrier themselves — the multi-process
/// socket runtime's daemon and worker processes.
///
/// Produced by [`LiveEngine::into_parts`] *before* any window has run.
/// A worker process keeps `world.slices[its index]` and discards the
/// rest; the daemon keeps a `CoordinatorTemplate` from its one build and
/// drives a fresh `RunState` each epoch.
pub struct EngineParts {
    /// The engine configuration (network model, budgets, worker count).
    pub config: LiveConfig,
    /// The built world: one slice per configured worker.
    pub world: World,
    /// Payload classifier feeding `MsgKind` trace records and
    /// kind-restricted fault rules.
    pub classifier: Option<PayloadClassifier>,
    /// The installed (window-safe) fault plan.
    pub plan: Option<FaultPlan>,
    /// The epoch stamped on every envelope.
    pub epoch: u64,
}

impl EngineParts {
    /// The run context of a slice whose same-slice deliveries stay in its
    /// own queue (the socket worker's): the installed plan, no TTL.
    pub fn env(&self) -> RunEnv<'_> {
        live_env(
            &self.config,
            &self.classifier,
            &self.plan,
            self.world.device_count(),
            false,
        )
    }
}

/// `deliveries_leave` is the host's choice of whether same-slice
/// deliveries cross its fabric too.
fn live_env<'a>(
    config: &'a LiveConfig,
    classifier: &'a Option<PayloadClassifier>,
    plan: &'a Option<FaultPlan>,
    device_count: usize,
    deliveries_leave: bool,
) -> RunEnv<'a> {
    let trace_enabled = config.trace_capacity > 0;
    let kind_rules = plan.as_ref().is_some_and(FaultPlan::matches_kinds);
    RunEnv {
        network: &config.network,
        ttl: None,
        classifier: classifier.as_ref().map(|c| c as ClassifierRef<'a>),
        plan: plan.as_ref(),
        trace_enabled,
        // As the simulator: classify only when something consumes it.
        need_kind: classifier.is_some() && (trace_enabled || kind_rules),
        device_count,
        shard_count: config.workers.max(1),
        deliveries_leave,
    }
}

/// A deterministic live world of devices and actors, executing over a
/// [`Transport`] on `workers` std threads.
pub struct LiveEngine {
    parts: EngineParts,
    transport: Arc<dyn Transport>,
    pub(crate) prepared_from: Option<Arc<PreparedInputs>>,
}

impl LiveEngine {
    /// Creates a live world seeded with `seed`, exchanging messages for
    /// `epoch` over `transport`.
    ///
    /// Fails if the network model has zero minimum latency: the live
    /// executor is conservative-window only (lookahead = min latency),
    /// there is no sequential fallback outside the simulator.
    pub fn new(
        config: LiveConfig,
        seed: u64,
        transport: Arc<dyn Transport>,
        epoch: u64,
    ) -> Result<Self> {
        let lookahead_us = config.network.min_latency().as_micros();
        if lookahead_us == 0 {
            return Err(edgelet_util::Error::InvalidConfig(
                "live runtime requires a network model with non-zero minimum latency \
                 (the conservative lookahead); zero-lookahead models only run on the simulator"
                    .into(),
            ));
        }
        let world = World::new(
            config.workers,
            lookahead_us,
            config.max_events,
            config.trace_capacity,
            seed,
        );
        Ok(LiveEngine {
            parts: EngineParts {
                config,
                world,
                classifier: None,
                plan: None,
                epoch,
            },
            transport,
            prepared_from: None,
        })
    }

    /// Installs the payload classifier feeding `MsgKind` trace records.
    pub fn set_classifier(&mut self, classifier: PayloadClassifier) {
        self.parts.classifier = Some(classifier);
    }

    /// Installs a fault plan, replacing any previous one.
    ///
    /// Fails for a plan that is not [window-safe](FaultPlan::is_window_safe):
    /// its `skip`/`limit` counters and `Reorder` holds need the global
    /// event order of the simulator's sequential fallback, and the live
    /// runtime has none.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<()> {
        if !plan.is_window_safe() {
            return Err(edgelet_util::Error::InvalidConfig(
                "live runtime requires a window-safe fault plan (no skip, limit or reorder); \
                 stateful plans only run on the simulator"
                    .into(),
            ));
        }
        self.parts.plan = Some(plan);
        Ok(())
    }

    /// Registers a device; returns its id
    /// ([`World::add_device`] — the registration the simulator uses).
    ///
    /// Fails for non-[`Availability::AlwaysUp`] devices: the live
    /// runtime has no store-and-forward layer (a real deployment's
    /// devices are reachable while enrolled; churn experiments belong to
    /// the simulator).
    pub fn add_device(&mut self, cfg: DeviceConfig) -> Result<DeviceId> {
        if cfg.availability != Availability::AlwaysUp {
            return Err(edgelet_util::Error::InvalidConfig(
                "live runtime requires always-up devices; churn models only run on the simulator"
                    .into(),
            ));
        }
        Ok(self.parts.world.add_device(cfg))
    }

    /// Makes room for `devices` more [`LiveEngine::add_device`] calls.
    pub fn reserve(&mut self, devices: usize) {
        self.parts.world.reserve(devices);
    }

    /// Installs an actor on a device; its `on_start` runs at the current
    /// virtual time once the engine is stepped.
    pub fn install_actor(&mut self, device: DeviceId, actor: Box<dyn edgelet_sim::Actor>) {
        self.parts.world.install_actor(device, actor);
    }

    /// Schedules a scripted crash ("power off a device at will").
    pub fn crash_at(&mut self, device: DeviceId, at: SimTime) {
        self.parts.world.crash_at(device, at);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.parts.world.state.now
    }

    /// Metric counters accumulated so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.parts.world.state.metrics
    }

    /// The event trace (empty unless `trace_capacity > 0`).
    pub fn trace(&self) -> &Trace {
        &self.parts.world.state.trace
    }

    /// What [`crate::prepare_live_query`] built this world from; `None`
    /// for a world assembled any other way.
    pub fn prepared_from(&self) -> Option<&Arc<PreparedInputs>> {
        self.prepared_from.as_ref()
    }

    /// Detaches a *built but not yet run* world from the in-process
    /// driver, for hosts that cross the barrier themselves (the socket
    /// runtime).
    pub fn into_parts(self) -> EngineParts {
        debug_assert_eq!(self.now(), SimTime::ZERO, "into_parts on a stepped engine");
        self.parts
    }

    /// Runs until the world drains, virtual time would pass `deadline`,
    /// the event budget is exhausted, or `abort` is raised (checked at
    /// window barriers — the wall-clock hook for live deadlines).
    pub fn run_until(&mut self, deadline: SimTime, abort: Option<&AtomicBool>) -> ExitReason {
        let EngineParts {
            config,
            world,
            classifier,
            plan,
            epoch,
        } = &mut self.parts;
        // Every delivery crosses the transport, same-slice ones too.
        let env = live_env(config, classifier, plan, world.device_count(), true);
        let fabric = Fabric::new(self.transport.as_ref(), *epoch, env.shard_count);
        // The run gets a thread of its own; the caller (a query service
        // between two WAL commits, a serve loop) only blocks until it is
        // done. A fresh thread meets the scheduler in the same state on
        // every run: executed on the caller's long-lived thread, the
        // same durable query took 4 ms or 8 ms from one call to the next
        // on the benchmark's pinned, never-idle CPU (docs/PERF.md, "A
        // run thread per live run").
        let exit = std::thread::scope(|scope| {
            let run = scope.spawn(|| world.run(&env, &fabric, deadline, abort));
            run.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        // An early exit can leave barrier spills uncollected; they go
        // back to the owning queues.
        fabric.mail.flush_into(&mut world.slices);
        // The only barrier error in-process is a dead worker, whose
        // panic the thread scope has already propagated.
        exit.unwrap_or(ExitReason::Aborted)
    }
}
