//! Outside-in instrumentation for the traced run: bench-owned
//! decorators around each layer's public seams, and the decomposed query
//! paths that mirror `Platform::run_query` and `QueryService::submit`
//! step for step with a span around each step.
//!
//! Nothing under `crates/` knows about any of this. Calls too short to
//! record one by one (actor callbacks, transport hops) accumulate into
//! clocks that are flushed as one aggregate child span per query.

use crate::hosts::{NetWorld, Verdict};
use crate::inputs::Inputs;
use crate::trace::Tracer;
use edgelet_core::privacy::analyze_plan;
use edgelet_core::query::{OperatorRole, QueryPlan, QuerySpec};
use edgelet_core::Platform;
use edgelet_exec::{assemble_plan, finish_report, PlanAssembly};
use edgelet_live::{
    build_live_world, LiveRun, LiveRunOptions, PreparedQuery, RemoteExecutor, StripedTransport,
};
use edgelet_net::{CollectorTransport, Daemon, WorldBuilder};
use edgelet_sim::{
    Actor, Context, CrashPlan, DeviceConfig, Duration, SimConfig, Simulation, TimerToken,
};
use edgelet_store::durable::{FrameRef, StorageResult};
use edgelet_store::{DurableBackend, FileBackend};
use edgelet_util::ids::DeviceId;
use edgelet_wire::varint::encoded_len;
use edgelet_wire::{Envelope, Transport, TransportError, ENVELOPE_VERSION};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Envelopes kept for the isolated wire encode/decode measurement.
const CAPTURE: usize = 512;

/// The role an actor plays, for the `exec.actor_ms.*` split.
#[derive(Clone, Copy)]
pub enum Role {
    Contributor,
    Builder,
    Computer,
    Combiner,
    Querier,
}

/// Role names in `Role` order, as the metric suffixes spell them.
pub const ROLE_NAMES: [&str; 5] = ["contributor", "builder", "computer", "combiner", "querier"];

/// A statistic only: counters publish no other data, so `Relaxed`.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Everything the traced run's decorators write into.
#[derive(Default)]
pub struct Clocks {
    /// Actor callback time by role, ns, since the last flush.
    pub actor_ns: [Counter; 5],
    /// Actor callbacks since the last flush.
    pub actor_calls: Counter,
    /// Transport `submit`/`submit_batch` calls and time.
    pub submit_calls: Counter,
    pub submit_ns: Counter,
    /// Transport `drain` calls and time.
    pub drain_calls: Counter,
    pub drain_ns: Counter,
    /// Envelopes accepted by the transport and their wire size.
    pub envelopes: Counter,
    pub envelope_bytes: Counter,
    /// Backend appends (single or batch), syncs, checkpoints, rotations.
    pub append_calls: Counter,
    pub append_ns: Counter,
    pub append_bytes: Counter,
    pub sync_calls: Counter,
    pub sync_ns: Counter,
    pub checkpoints: Counter,
    pub checkpoint_ns: Counter,
    pub rotations: Counter,
    /// Traced queries, and sums over them that spans do not carry.
    pub queries: Counter,
    pub plan_operators: Counter,
    pub messages_sent: Counter,
    pub sim_events: Counter,
    /// The first envelopes seen, for the isolated wire measurement.
    pub captured: Mutex<Vec<Envelope>>,
}

/// The shared state of one traced run. Clocks only ever grow; a
/// per-query share is the difference of two readings.
pub struct Probe {
    pub tracer: Arc<Tracer>,
    pub clocks: Clocks,
}

impl Probe {
    pub fn new(span_capacity: usize) -> Arc<Probe> {
        Arc::new(Probe {
            tracer: Tracer::new(span_capacity),
            clocks: Clocks::default(),
        })
    }

    /// Actor callback time so far, all roles.
    pub fn actor_ns(&self) -> u64 {
        self.clocks.actor_ns.iter().map(Counter::get).sum()
    }

    /// The envelopes captured so far for the isolated wire measurement.
    pub fn captured(&self) -> Vec<Envelope> {
        self.clocks
            .captured
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Transport submit + drain time so far.
    fn transport_ns(&self) -> u64 {
        self.clocks.submit_ns.get() + self.clocks.drain_ns.get()
    }

    /// Counts one traced query and what its report says.
    fn count_query(&self, plan: &QueryPlan, messages_sent: u64) {
        self.clocks.queries.add(1);
        self.clocks.plan_operators.add(plan.operators.len() as u64);
        self.clocks.messages_sent.add(messages_sent);
    }
}

// ---- exec: the Actor wrapper ----

struct TimedActor {
    inner: Box<dyn Actor>,
    role: Role,
    probe: Arc<Probe>,
}

impl TimedActor {
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn Actor) -> R) -> R {
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        self.probe.clocks.actor_ns[self.role as usize].add(elapsed_ns(start));
        self.probe.clocks.actor_calls.add(1);
        out
    }
}

impl Actor for TimedActor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.timed(|a| a.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: DeviceId, payload: &[u8]) {
        self.timed(|a| a.on_message(ctx, from, payload));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        self.timed(|a| a.on_timer(ctx, token));
    }

    fn on_reconnect(&mut self, ctx: &mut Context<'_>) {
        self.timed(|a| a.on_reconnect(ctx));
    }
}

/// Wraps every actor of `assembly` in a [`TimedActor`], keeping the
/// canonical install order.
fn timed_installs(
    probe: &Arc<Probe>,
    plan: &QueryPlan,
    assembly: &mut PlanAssembly,
) -> Vec<(DeviceId, Box<dyn Actor>)> {
    let mut roles: BTreeMap<DeviceId, Role> = BTreeMap::new();
    for op in &plan.operators {
        let role = match op.role {
            OperatorRole::SnapshotBuilder { .. } => Role::Builder,
            OperatorRole::Computer { .. } => Role::Computer,
            OperatorRole::Combiner { .. } => Role::Combiner,
            OperatorRole::Querier => Role::Querier,
        };
        for dev in std::iter::once(&op.device).chain(&op.backups) {
            roles.insert(*dev, role);
        }
    }
    assembly
        .installs
        .drain(..)
        .map(|(dev, inner)| {
            let actor: Box<dyn Actor> = Box::new(TimedActor {
                inner,
                role: roles.get(&dev).copied().unwrap_or(Role::Contributor),
                probe: probe.clone(),
            });
            (dev, actor)
        })
        .collect()
}

// ---- live: the Transport decorator ----

/// Exact length of `env.to_wire()` without encoding it.
fn wire_len(env: &Envelope) -> u64 {
    let header = [
        u64::from(ENVELOPE_VERSION),
        env.epoch,
        env.from.raw(),
        env.to.raw(),
        env.seq,
        env.sent_at_us,
        env.deliver_at_us,
        env.payload.len() as u64,
    ];
    (header.iter().map(|v| encoded_len(*v)).sum::<usize>() + env.payload.len()) as u64
}

/// Times and counts every hop through the striped transport.
pub struct TimedTransport {
    pub inner: Arc<StripedTransport>,
    probe: Arc<Probe>,
}

impl TimedTransport {
    pub fn new(probe: &Arc<Probe>) -> Arc<TimedTransport> {
        Arc::new(TimedTransport {
            inner: Arc::new(StripedTransport::new(
                crate::hosts::SERVICE.mailbox_capacity,
            )),
            probe: probe.clone(),
        })
    }

    fn note(&self, envs: &[Envelope]) {
        let clocks = &self.probe.clocks;
        clocks.envelopes.add(envs.len() as u64);
        clocks.envelope_bytes.add(envs.iter().map(wire_len).sum());
        if clocks.envelopes.get() < (CAPTURE + envs.len()) as u64 {
            let mut captured = clocks.captured.lock().unwrap_or_else(|e| e.into_inner());
            let room = CAPTURE.saturating_sub(captured.len());
            captured.extend(envs.iter().take(room).cloned());
        }
    }
}

impl Transport for TimedTransport {
    fn submit(&self, env: Envelope) -> Result<(), TransportError> {
        self.note(std::slice::from_ref(&env));
        let start = Instant::now();
        let out = self.inner.submit(env);
        self.probe.clocks.submit_ns.add(elapsed_ns(start));
        self.probe.clocks.submit_calls.add(1);
        out
    }

    fn submit_batch(&self, batch: &mut Vec<Envelope>) -> Result<(), TransportError> {
        // Noted whole: a refused tail is resubmitted at the barrier
        // and would count twice, but a 4096-envelope lane never fills
        // on these worlds.
        self.note(batch);
        let start = Instant::now();
        let out = self.inner.submit_batch(batch);
        self.probe.clocks.submit_ns.add(elapsed_ns(start));
        self.probe.clocks.submit_calls.add(1);
        out
    }

    fn drain(&self, epoch: u64, lane: usize) -> Vec<Envelope> {
        let start = Instant::now();
        let out = self.inner.drain(epoch, lane);
        self.probe.clocks.drain_ns.add(elapsed_ns(start));
        self.probe.clocks.drain_calls.add(1);
        out
    }

    fn pending(&self, epoch: u64, lane: usize) -> Option<(usize, u64)> {
        self.inner.pending(epoch, lane)
    }
}

// ---- store: the DurableBackend decorator ----

/// Times appends, syncs and checkpoints of the file backend and records
/// each as a span (a handful per query).
pub struct TimedBackend {
    inner: FileBackend,
    probe: Arc<Probe>,
}

impl TimedBackend {
    pub fn new(inner: FileBackend, probe: &Arc<Probe>) -> Arc<TimedBackend> {
        Arc::new(TimedBackend {
            inner,
            probe: probe.clone(),
        })
    }

    fn timed<R>(&self, name: &str, calls: &Counter, ns: &Counter, f: impl FnOnce() -> R) -> R {
        let _span = self.probe.tracer.span(name);
        let start = Instant::now();
        let out = f();
        ns.add(elapsed_ns(start));
        calls.add(1);
        out
    }
}

impl DurableBackend for TimedBackend {
    fn append(&self, bytes: &[u8]) -> StorageResult<()> {
        let c = &self.probe.clocks;
        c.append_bytes.add(bytes.len() as u64);
        self.timed("store.append", &c.append_calls, &c.append_ns, || {
            self.inner.append(bytes)
        })
    }

    fn append_batch(&self, frames: &[FrameRef<'_>]) -> StorageResult<()> {
        let c = &self.probe.clocks;
        c.append_bytes
            .add(frames.iter().map(|f| f.len() as u64).sum());
        self.timed("store.append", &c.append_calls, &c.append_ns, || {
            self.inner.append_batch(frames)
        })
    }

    fn sync(&self) -> StorageResult<()> {
        let c = &self.probe.clocks;
        self.timed("store.sync", &c.sync_calls, &c.sync_ns, || {
            self.inner.sync()
        })
    }

    fn write_checkpoint(&self, bytes: &[u8]) -> StorageResult<()> {
        let c = &self.probe.clocks;
        self.timed("store.checkpoint", &c.checkpoints, &c.checkpoint_ns, || {
            self.inner.write_checkpoint(bytes)
        })
    }

    fn rotate_wal(&self) -> StorageResult<()> {
        self.probe.clocks.rotations.add(1);
        self.inner.rotate_wal()
    }

    fn read_wal_segments(&self) -> StorageResult<Vec<Vec<u8>>> {
        self.inner.read_wal_segments()
    }

    fn segment_sizes(&self) -> StorageResult<Vec<u64>> {
        self.inner.segment_sizes()
    }

    fn truncate_wal(&self, len: u64) -> StorageResult<()> {
        self.inner.truncate_wal(len)
    }

    fn drop_sealed_segments(&self) -> StorageResult<()> {
        self.inner.drop_sealed_segments()
    }

    fn read_checkpoint(&self) -> StorageResult<Option<Vec<u8>>> {
        self.inner.read_checkpoint()
    }

    fn reset_wal(&self) -> StorageResult<()> {
        self.inner.reset_wal()
    }
}

// ---- net: RemoteExecutor and WorldBuilder decorators ----

/// Spans `Daemon::try_run` and hangs the worker's actor time under it.
pub struct TimedRemote {
    pub daemon: Arc<Daemon>,
    pub probe: Arc<Probe>,
}

impl RemoteExecutor for TimedRemote {
    fn try_run(
        &self,
        epoch: u64,
        spec: &QuerySpec,
        privacy: &edgelet_core::query::PrivacyConfig,
        resilience: &edgelet_core::query::ResilienceConfig,
        abort: &AtomicBool,
    ) -> Option<edgelet_util::Result<LiveRun>> {
        let _span = self.probe.tracer.span("net.try_run");
        let actors_before = self.probe.actor_ns();
        let out = self.daemon.try_run(epoch, spec, privacy, resilience, abort);
        self.probe
            .tracer
            .aggregate("exec.actors", self.probe.actor_ns() - actors_before);
        if let Some(Ok(run)) = &out {
            self.probe.count_query(&run.plan, run.report.messages_sent);
        }
        out
    }
}

/// Rebuilds the epoch's world like [`NetWorld`], with a span around
/// each step and every actor wrapped, on whichever side owns it.
pub struct TimedWorld {
    pub world: NetWorld,
    /// `net.world_build.daemon` or `net.world_build.worker`.
    pub span: &'static str,
    pub probe: Arc<Probe>,
}

impl WorldBuilder for TimedWorld {
    fn build(
        &self,
        spec: &[u8],
        epoch: u64,
        workers: usize,
    ) -> edgelet_util::Result<PreparedQuery> {
        let _span = self.probe.tracer.span(self.span);
        self.world.check(spec)?;
        let inputs = &self.world.inputs;
        let platform = build_platform(&self.probe, inputs);
        let (plan, engine, assembly) = prepare_timed(
            &self.probe,
            &platform,
            inputs,
            &inputs.canonical_spec(),
            Arc::new(CollectorTransport::new(workers)),
            &LiveRunOptions::new(workers, epoch),
        )?;
        Ok(PreparedQuery {
            plan,
            engine,
            assembly,
        })
    }
}

// ---- the decomposed paths ----

/// `Platform::build` under a `core.platform_build` span.
pub fn build_platform(probe: &Probe, inputs: &Inputs) -> Platform {
    let _span = probe.tracer.span("core.platform_build");
    Platform::build(inputs.world.clone())
}

/// `prepare_live_query`, step for step, with a span per step and timed
/// actors: plan, world, assembly, install (no crash script).
fn prepare_timed(
    probe: &Arc<Probe>,
    platform: &Platform,
    inputs: &Inputs,
    spec: &QuerySpec,
    transport: Arc<dyn Transport>,
    opts: &LiveRunOptions,
) -> edgelet_util::Result<(QueryPlan, edgelet_live::LiveEngine, PlanAssembly)> {
    let tracer = &probe.tracer;
    let plan = {
        let _s = tracer.span("query.plan");
        platform.plan_query(spec, &inputs.privacy, &inputs.resilience)?
    };
    let mut engine = {
        let _s = tracer.span("live.world_build");
        build_live_world(platform, spec, transport, opts)?
    };
    let mut assembly = {
        let _s = tracer.span("exec.assemble");
        assemble_plan(
            &plan,
            platform.schema(),
            platform.stores(),
            platform.device_classes(),
            &platform.config().exec,
            platform.root_secret(spec),
            engine.now().as_secs_f64(),
        )?
    };
    {
        let _s = tracer.span("live.install");
        for (dev, actor) in timed_installs(probe, &plan, &mut assembly) {
            engine.install_actor(dev, actor);
        }
    }
    Ok((plan, engine, assembly))
}

/// One query through the live engine as `QueryService::submit` runs it
/// — register the epoch, `prepare_live_query`, `run_until`,
/// `finish_report`, retire — with a span around each piece.
pub fn live_query(
    probe: &Arc<Probe>,
    platform: &Platform,
    transport: &Arc<TimedTransport>,
    inputs: &Inputs,
    spec: &QuerySpec,
    epoch: u64,
) -> Result<Verdict, String> {
    let tracer = &probe.tracer;
    let _query = tracer.query("client.query");
    let workers = crate::hosts::SERVICE.workers;
    {
        let _s = tracer.span("live.register_epoch");
        transport.inner.register_epoch(epoch, workers);
    }
    let prepared = prepare_timed(
        probe,
        platform,
        inputs,
        spec,
        transport.clone(),
        &LiveRunOptions::new(workers, epoch),
    );
    let (plan, mut engine, assembly) = match prepared {
        Ok(p) => p,
        Err(e) => {
            transport.inner.retire_epoch(epoch);
            return Err(e.to_string());
        }
    };
    {
        let _s = tracer.span("live.run_until");
        let (actors_before, transport_before) = (probe.actor_ns(), probe.transport_ns());
        let deadline = engine.now() + Duration::from_secs_f64(plan.spec.deadline_secs);
        engine.run_until(deadline, None);
        tracer.aggregate("exec.actors", probe.actor_ns() - actors_before);
        tracer.aggregate("live.transport", probe.transport_ns() - transport_before);
    }
    let report = {
        let _s = tracer.span("exec.finish_report");
        finish_report(
            &plan,
            &assembly.sliced_queries,
            &assembly.record,
            &assembly.ledger,
            engine.metrics(),
        )
    };
    {
        let _s = tracer.span("live.teardown");
        drop(engine);
        drop(assembly);
        transport.inner.retire_epoch(epoch);
    }
    let report = report.map_err(|e| e.to_string())?;
    probe.count_query(&plan, report.messages_sent);
    Ok(Verdict::of(&report))
}

/// `Platform::build_simulation`, which is private: every enrolled
/// device plus the querier, with the configured churn and crash draws,
/// in enrollment order. (The benchmark's worlds carry no fault plan.)
fn build_simulation(platform: &Platform, spec: &QuerySpec) -> Simulation {
    let cfg = platform.config();
    let mut sim = Simulation::new(
        SimConfig {
            network: cfg.network.to_model(),
            trace_capacity: cfg.trace_capacity,
            shards: cfg.shards.max(1),
            ..SimConfig::default()
        },
        platform.sim_seed(spec),
    );
    let window = if cfg.crash_at_start {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(spec.deadline_secs)
    };
    for entry in platform.directory().entries() {
        let (availability, p) = if entry.contributes_data {
            (
                cfg.contributor_availability.clone(),
                cfg.contributor_crash_probability,
            )
        } else {
            (
                cfg.processor_availability.clone(),
                cfg.processor_crash_probability,
            )
        };
        sim.add_device(DeviceConfig {
            availability,
            crash: CrashPlan::Bernoulli { p, window },
        });
    }
    sim.add_device(DeviceConfig::default());
    sim
}

/// One query through the simulator as `Platform::run_query` runs it —
/// plan, exposure analysis, world, `execute_plan`'s three steps — with
/// a span around each piece.
pub fn sim_query(
    probe: &Arc<Probe>,
    platform: &Platform,
    inputs: &Inputs,
    spec: &QuerySpec,
) -> Result<Verdict, String> {
    let tracer = &probe.tracer;
    let _query = tracer.query("client.query");
    let plan = {
        let _s = tracer.span("query.plan");
        platform
            .plan_query(spec, &inputs.privacy, &inputs.resilience)
            .map_err(|e| e.to_string())?
    };
    {
        let _s = tracer.span("privacy.analyze_plan");
        std::hint::black_box(analyze_plan(&plan));
    }
    let mut sim = {
        let _s = tracer.span("sim.world_build");
        build_simulation(platform, spec)
    };
    let mut assembly = {
        let _s = tracer.span("exec.assemble");
        assemble_plan(
            &plan,
            platform.schema(),
            platform.stores(),
            platform.device_classes(),
            &platform.config().exec,
            platform.root_secret(spec),
            sim.now().as_secs_f64(),
        )
        .map_err(|e| e.to_string())?
    };
    {
        let _s = tracer.span("sim.install");
        for (dev, actor) in timed_installs(probe, &plan, &mut assembly) {
            sim.install_actor(dev, actor);
        }
    }
    {
        let _s = tracer.span("sim.execute");
        let actors_before = probe.actor_ns();
        let deadline = sim.now() + Duration::from_secs_f64(plan.spec.deadline_secs);
        sim.run_until(deadline);
        tracer.aggregate("exec.actors", probe.actor_ns() - actors_before);
    }
    let report = {
        let _s = tracer.span("exec.finish_report");
        finish_report(
            &plan,
            &assembly.sliced_queries,
            &assembly.record,
            &assembly.ledger,
            sim.metrics(),
        )
        .map_err(|e| e.to_string())?
    };
    probe.count_query(&plan, report.messages_sent);
    probe.clocks.sim_events.add(sim.metrics().events_processed);
    {
        let _s = tracer.span("sim.teardown");
        drop(sim);
        drop(assembly);
    }
    Ok(Verdict::of(&report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgelet_util::Payload;

    #[test]
    fn wire_len_matches_the_encoder() {
        for (epoch, seq, len) in [
            (1u64, 0u64, 0usize),
            (300, 70_000, 127),
            (1 << 40, 5, 20_000),
        ] {
            let env = Envelope {
                epoch,
                from: DeviceId::new(129),
                to: DeviceId::new(3),
                seq,
                sent_at_us: 1_000_000,
                deliver_at_us: 1_020_000,
                payload: Payload::from(vec![7u8; len]),
            };
            assert_eq!(wire_len(&env), env.to_wire().len() as u64);
        }
    }
}
