//! The simulator host: a [`World`] plus churn, store-and-forward and a
//! [`FaultPlan`].
//!
//! A run takes one of two routes, selected per run (never per shard
//! count):
//!
//! * **Windowed** — the normal path: [`World::run`] drives the shared
//!   decision loop ([`crate::exec::drive`]) over conservative windows
//!   `[m, m + L)`, `m` the global minimum pending event time and `L` the
//!   *lookahead* (the minimum network latency, see
//!   [`NetworkModel::min_latency`]). `shards = 1` crosses the inline
//!   barrier, `shards > 1` the thread barrier; results are bit-identical
//!   for every shard count (DESIGN.md §"One executor, three barriers").
//! * **Sequential fallback** — used when the lookahead is zero (a
//!   latency model with no lower bound) or the fault plan carries
//!   cross-message state (`skip`/`limit` occurrence windows, `Reorder`
//!   holds). Events pop one at a time in global key order across all
//!   shard queues.
//!
//! Both routes run the exact same per-event code
//! ([`crate::shard::Shard::process_event`]); they differ only in how
//! much reordering freedom the schedule grants.

use crate::actor::Actor;
use crate::exec::{apply_deltas, ExitReason, Mailboxes, RunEnv, WindowOut, World};
use crate::fault::{Classifier, FaultCounters, FaultPlan, HeldMsg};
use crate::metrics::SimMetrics;
use crate::network::NetworkModel;
use crate::time::{Duration, SimTime};
use crate::trace::Trace;
use edgelet_util::ids::DeviceId;

pub use crate::exec::DeviceConfig;

/// Global simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The link model applied to every message.
    pub network: NetworkModel,
    /// Hard cap on processed events (runaway-protocol backstop).
    pub max_events: u64,
    /// Messages parked in a down device's queue longer than this are
    /// dropped (store-and-forward TTL). `None` keeps them forever.
    pub store_and_forward_ttl: Option<Duration>,
    /// Ring-buffer capacity of the event trace (0 disables tracing).
    pub trace_capacity: usize,
    /// Number of shards devices are partitioned into (0 is treated as
    /// 1). Results are bit-identical for every value; values > 1 run
    /// windows on worker threads.
    pub shards: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            network: NetworkModel::default(),
            max_events: 50_000_000,
            store_and_forward_ttl: None,
            trace_capacity: 0,
            shards: 1,
        }
    }
}

/// A deterministic simulated world of devices and actors.
pub struct Simulation {
    config: SimConfig,
    world: World,
    /// Maps payload bytes to a protocol message kind (installed by the
    /// harness; the simulator itself is protocol-agnostic).
    classifier: Option<Classifier>,
    /// The installed fault plan; its occurrence counters live in the
    /// world's [`crate::exec::RunState`].
    fault_plan: Option<FaultPlan>,
    fault_holds: Vec<Option<HeldMsg>>,
}

impl Simulation {
    /// Creates an empty world.
    pub fn new(config: SimConfig, seed: u64) -> Self {
        Self {
            world: World::new(
                config.shards,
                config.network.min_latency().as_micros(),
                config.max_events,
                config.trace_capacity,
                seed,
            ),
            classifier: None,
            fault_plan: None,
            fault_holds: Vec::new(),
            config,
        }
    }

    /// Installs a payload → protocol-kind classifier. Kind-restricted
    /// fault rules and `MsgKind` trace records need one; without it
    /// every payload classifies as `None`.
    pub fn set_classifier(&mut self, classifier: Classifier) {
        self.classifier = Some(classifier);
    }

    /// Installs a fault plan. Replaces any previous plan (and its
    /// occurrence counters).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.world.state.fault_counters = FaultCounters::for_plan(&plan);
        self.fault_holds = (0..plan.rules.len()).map(|_| None).collect();
        self.fault_plan = Some(plan);
    }

    /// How many fault-rule firings have happened so far.
    pub fn faults_injected(&self) -> u64 {
        self.world.state.fault_counters.total_fired()
    }

    /// Registers a device; returns its id.
    pub fn add_device(&mut self, cfg: DeviceConfig) -> DeviceId {
        self.world.add_device(cfg)
    }

    /// Makes room for `devices` more [`Simulation::add_device`] calls.
    pub fn reserve(&mut self, devices: usize) {
        self.world.reserve(devices);
    }

    /// Installs an actor on a device; its `on_start` runs at the current
    /// virtual time (once the simulation is stepped).
    pub fn install_actor(&mut self, device: DeviceId, actor: Box<dyn Actor>) {
        self.world.install_actor(device, actor);
    }

    /// Schedules a scripted crash (the demo's "power off a device").
    pub fn crash_at(&mut self, device: DeviceId, at: SimTime) {
        self.world.crash_at(device, at);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.state.now
    }

    /// Whether a device is currently connected.
    pub fn is_up(&self, device: DeviceId) -> bool {
        self.world.device(device).is_up()
    }

    /// Whether a device has crashed.
    pub fn is_crashed(&self, device: DeviceId) -> bool {
        self.world.device(device).is_crashed()
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &SimMetrics {
        &self.world.state.metrics
    }

    /// The event trace (empty unless `trace_capacity > 0`).
    pub fn trace(&self) -> &Trace {
        &self.world.state.trace
    }

    /// Runs until the event queue empties or `max_events` is hit.
    /// Returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX);
        self.now()
    }

    /// Runs until the queue empties or virtual time would exceed
    /// `deadline`. Returns `true` if events remain (deadline hit first).
    pub fn run_until(&mut self, deadline: SimTime) -> bool {
        let plan = self.fault_plan.as_ref();
        let trace_enabled = self.world.state.trace.enabled();
        let kind_rules = plan.is_some_and(FaultPlan::matches_kinds);
        let env = RunEnv {
            network: &self.config.network,
            ttl: self.config.store_and_forward_ttl,
            classifier: self.classifier.as_deref(),
            plan,
            trace_enabled,
            // Classification only runs when something can consume it.
            need_kind: self.classifier.is_some() && (trace_enabled || kind_rules),
            device_count: self.world.device_count(),
            shard_count: self.world.slices.len(),
            deliveries_leave: false,
        };
        if self.world.state.lookahead_us == 0 || !plan.is_none_or(FaultPlan::is_window_safe) {
            return run_fallback(&mut self.world, &env, &mut self.fault_holds, deadline);
        }
        let mail = Mailboxes::new(env.shard_count);
        let exit = self.world.run(&env, &mail, deadline, None);
        // A deadline or budget stop can leave cross-shard events in
        // flight; they go back into the owning queues.
        mail.flush_into(&mut self.world.slices);
        !matches!(exit, Ok(ExitReason::Quiescent))
    }
}

/// Sequential fallback: pops events one at a time in global key order
/// across all shard queues. Handles zero-lookahead latency models and
/// stateful fault plans (`skip`/`limit`/`Reorder`).
fn run_fallback(
    world: &mut World,
    env: &RunEnv<'_>,
    holds: &mut Vec<Option<HeldMsg>>,
    deadline: SimTime,
) -> bool {
    let World { slices, state, .. } = world;
    let mut out = WindowOut::new(env.shard_count, env.trace_enabled);
    loop {
        // Locate the globally minimal key.
        let mut best: Option<(usize, (SimTime, u64, u64))> = None;
        for (i, sh) in slices.iter_mut().enumerate() {
            if let Some(key) = sh.queue.peek_min_key() {
                if best.is_none_or(|(_, bk)| key < bk) {
                    best = Some((i, key));
                }
            }
        }
        let Some((si, (at, _, _))) = best else { break };
        // Quiescence: churn toggles alone cannot create new work, so
        // stop once no protocol events or parked messages remain.
        if state.real_pending == 0 && state.parked == 0 {
            break;
        }
        if at > deadline {
            state.now = deadline;
            return true;
        }
        if state.metrics.events_processed >= state.max_events {
            return true;
        }
        let Some(ev) = slices[si].queue.pop_min() else {
            break;
        };
        state.now = ev.at;
        out.reset();
        slices[si].process_event(
            ev,
            env,
            &mut out,
            &mut state.fault_counters,
            Some(&mut *holds),
        );
        // Apply effects immediately, in execution order.
        apply_deltas(&mut state.metrics, &out.deltas);
        state.real_pending = ((state.real_pending as i64) + out.deltas.real_pending).max(0) as u64;
        state.parked = ((state.parked as i64) + out.deltas.parked).max(0) as u64;
        for entry in out.journal.drain(..) {
            state.replay(entry);
        }
        for (dest, evs) in out.outbound.iter_mut().enumerate() {
            for ev in evs.drain(..) {
                slices[dest].queue.push(ev);
            }
        }
    }
    if deadline != SimTime::MAX {
        state.now = deadline;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Context, TimerToken};
    use crate::churn::{Availability, CrashPlan};
    use crate::fault::{CrashCause, FaultAction, FaultRule};
    use crate::network::LatencyModel;
    use crate::trace::TraceEvent;
    use std::sync::{Arc, Mutex};

    /// Replies "pong" to any message and counts what it sees.
    struct Pong {
        seen: Arc<Mutex<Vec<Vec<u8>>>>,
    }
    impl Actor for Pong {
        fn on_message(&mut self, ctx: &mut Context<'_>, from: DeviceId, payload: &[u8]) {
            self.seen.lock().unwrap().push(payload.to_vec());
            ctx.send(from, b"pong".to_vec());
        }
    }

    /// Sends `count` pings at start, records replies.
    struct Ping {
        target: DeviceId,
        count: usize,
        replies: Arc<Mutex<usize>>,
    }
    impl Actor for Ping {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.count {
                ctx.send(self.target, b"ping".to_vec());
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: DeviceId, payload: &[u8]) {
            assert_eq!(payload, b"pong");
            *self.replies.lock().unwrap() += 1;
        }
    }

    fn reliable_sim(seed: u64) -> Simulation {
        Simulation::new(
            SimConfig {
                network: NetworkModel::reliable(Duration::from_millis(10)),
                ..SimConfig::default()
            },
            seed,
        )
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut sim = reliable_sim(1);
        let a = sim.add_device(DeviceConfig::default());
        let b = sim.add_device(DeviceConfig::default());
        let replies = Arc::new(Mutex::new(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        sim.install_actor(
            a,
            Box::new(Ping {
                target: b,
                count: 3,
                replies: replies.clone(),
            }),
        );
        sim.install_actor(b, Box::new(Pong { seen: seen.clone() }));
        let end = sim.run();
        assert_eq!(*replies.lock().unwrap(), 3);
        assert_eq!(seen.lock().unwrap().len(), 3);
        assert_eq!(sim.metrics().messages_sent, 6);
        assert_eq!(sim.metrics().messages_delivered, 6);
        // Two 10ms hops.
        assert_eq!(end, SimTime::from_micros(20_000));
        assert!((sim.metrics().delivery_delay.mean() - 0.010).abs() < 1e-9);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(
                SimConfig {
                    network: NetworkModel::lossy(
                        Duration::from_millis(1),
                        Duration::from_millis(50),
                        0.2,
                    ),
                    ..SimConfig::default()
                },
                seed,
            );
            let a = sim.add_device(DeviceConfig::default());
            let b = sim.add_device(DeviceConfig::default());
            let replies = Arc::new(Mutex::new(0));
            sim.install_actor(
                a,
                Box::new(Ping {
                    target: b,
                    count: 100,
                    replies: replies.clone(),
                }),
            );
            sim.install_actor(
                b,
                Box::new(Pong {
                    seen: Arc::new(Mutex::new(Vec::new())),
                }),
            );
            sim.run();
            let reply_count = *replies.lock().unwrap();
            (
                reply_count,
                sim.metrics().messages_dropped,
                sim.now().as_micros(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn drops_reduce_deliveries() {
        let mut sim = Simulation::new(
            SimConfig {
                network: NetworkModel::lossy(Duration::ZERO, Duration::from_millis(1), 0.5),
                ..SimConfig::default()
            },
            3,
        );
        let a = sim.add_device(DeviceConfig::default());
        let b = sim.add_device(DeviceConfig::default());
        let replies = Arc::new(Mutex::new(0));
        sim.install_actor(
            a,
            Box::new(Ping {
                target: b,
                count: 1000,
                replies: replies.clone(),
            }),
        );
        sim.install_actor(
            b,
            Box::new(Pong {
                seen: Arc::new(Mutex::new(Vec::new())),
            }),
        );
        sim.run();
        let m = sim.metrics();
        assert!(m.messages_dropped > 0);
        // Roughly 25% of pings should produce replies (0.5 * 0.5).
        let r = *replies.lock().unwrap() as f64 / 1000.0;
        assert!((r - 0.25).abs() < 0.05, "reply rate {r}");
    }

    /// Timer-driven actor used by timer tests.
    struct TimerActor {
        fired: Arc<Mutex<Vec<u64>>>,
        cancel_second: bool,
    }
    impl Actor for TimerActor {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let _t1 = ctx.set_timer(Duration::from_millis(10));
            let t2 = ctx.set_timer(Duration::from_millis(20));
            if self.cancel_second {
                ctx.cancel_timer(t2);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: DeviceId, _payload: &[u8]) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
            self.fired.lock().unwrap().push(token.0);
            ctx.observe("fired", 1.0);
        }
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut sim = reliable_sim(5);
        let a = sim.add_device(DeviceConfig::default());
        let fired = Arc::new(Mutex::new(Vec::new()));
        sim.install_actor(
            a,
            Box::new(TimerActor {
                fired: fired.clone(),
                cancel_second: true,
            }),
        );
        let end = sim.run();
        assert_eq!(*fired.lock().unwrap(), vec![0]);
        assert_eq!(end, SimTime::from_micros(20_000)); // cancelled event still pops
        assert_eq!(sim.metrics().observations["fired"].count(), 1);
    }

    #[test]
    fn crashed_device_stops_everything() {
        let mut sim = reliable_sim(6);
        let a = sim.add_device(DeviceConfig::default());
        let b = sim.add_device(DeviceConfig {
            availability: Availability::AlwaysUp,
            crash: CrashPlan::At(SimTime::from_micros(5_000)),
        });
        let replies = Arc::new(Mutex::new(0));
        sim.install_actor(
            a,
            Box::new(Ping {
                target: b,
                count: 4,
                replies: replies.clone(),
            }),
        );
        sim.install_actor(
            b,
            Box::new(Pong {
                seen: Arc::new(Mutex::new(Vec::new())),
            }),
        );
        sim.run();
        // Pings arrive at t=10ms, after the crash at t=5ms.
        assert_eq!(*replies.lock().unwrap(), 0);
        assert_eq!(sim.metrics().crashes, 1);
        assert_eq!(sim.metrics().messages_to_crashed, 4);
        assert!(sim.is_crashed(b));
        assert!(!sim.is_up(b));
    }

    #[test]
    fn down_device_defers_and_recovers() {
        // b starts down and reconnects via churn; the ping waits in b's
        // inbox and is delivered on reconnection.
        let mut sim = reliable_sim(9);
        let a = sim.add_device(DeviceConfig::default());
        let b = sim.add_device(DeviceConfig {
            availability: Availability::Intermittent {
                mean_up: Duration::from_secs(1_000_000),
                mean_down: Duration::from_secs(60),
                start_up: false,
            },
            crash: CrashPlan::Never,
        });
        let replies = Arc::new(Mutex::new(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        sim.install_actor(
            a,
            Box::new(Ping {
                target: b,
                count: 1,
                replies: replies.clone(),
            }),
        );
        sim.install_actor(b, Box::new(Pong { seen: seen.clone() }));
        assert!(!sim.is_up(b));
        sim.run();
        assert_eq!(seen.lock().unwrap().len(), 1);
        assert_eq!(*replies.lock().unwrap(), 1);
        assert!(sim.metrics().messages_deferred >= 1);
        // Delivery delay includes the down period, so it exceeds the link
        // latency alone.
        assert!(sim.metrics().delivery_delay.max() > 0.010);
    }

    #[test]
    fn ttl_discards_stale_parked_messages() {
        let mut sim = Simulation::new(
            SimConfig {
                network: NetworkModel::reliable(Duration::from_millis(1)),
                store_and_forward_ttl: Some(Duration::from_secs(1)),
                ..SimConfig::default()
            },
            11,
        );
        let a = sim.add_device(DeviceConfig::default());
        // Down for ~1h on average: far beyond the 1s TTL.
        let b = sim.add_device(DeviceConfig {
            availability: Availability::Intermittent {
                mean_up: Duration::from_secs(1_000_000),
                mean_down: Duration::from_secs(3_600),
                start_up: false,
            },
            crash: CrashPlan::Never,
        });
        let seen = Arc::new(Mutex::new(Vec::new()));
        let replies = Arc::new(Mutex::new(0));
        sim.install_actor(
            a,
            Box::new(Ping {
                target: b,
                count: 1,
                replies: replies.clone(),
            }),
        );
        sim.install_actor(b, Box::new(Pong { seen: seen.clone() }));
        sim.run();
        // The message either expired (down > 1s) or was delivered (down <=
        // 1s); with this seed verify via the TTL bookkeeping.
        let m = sim.metrics();
        assert_eq!(
            seen.lock().unwrap().len() as u64 + m.messages_dropped,
            1,
            "message must be delivered or TTL-dropped"
        );
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = reliable_sim(13);
        let a = sim.add_device(DeviceConfig::default());
        let fired = Arc::new(Mutex::new(Vec::new()));
        sim.install_actor(
            a,
            Box::new(TimerActor {
                fired: fired.clone(),
                cancel_second: false,
            }),
        );
        let more = sim.run_until(SimTime::from_micros(15_000));
        assert!(more, "the 20ms timer is still pending");
        assert_eq!(*fired.lock().unwrap(), vec![0]);
        assert_eq!(sim.now(), SimTime::from_micros(15_000));
        let more = sim.run_until(SimTime::from_micros(100_000));
        assert!(!more);
        assert_eq!(*fired.lock().unwrap(), vec![0, 1]);
    }

    #[test]
    fn corruption_flips_a_byte() {
        struct Recorder {
            seen: Arc<Mutex<Vec<Vec<u8>>>>,
        }
        impl Actor for Recorder {
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: DeviceId, payload: &[u8]) {
                self.seen.lock().unwrap().push(payload.to_vec());
            }
        }
        struct Sender {
            target: DeviceId,
        }
        impl Actor for Sender {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for _ in 0..200 {
                    ctx.send(self.target, vec![0u8; 8]);
                }
            }
            fn on_message(&mut self, _c: &mut Context<'_>, _f: DeviceId, _p: &[u8]) {}
        }
        let mut sim = Simulation::new(
            SimConfig {
                network: NetworkModel {
                    latency: LatencyModel::Fixed(Duration::from_millis(1)),
                    drop_probability: 0.0,
                    corruption_probability: 0.5,
                },
                ..SimConfig::default()
            },
            17,
        );
        let a = sim.add_device(DeviceConfig::default());
        let b = sim.add_device(DeviceConfig::default());
        let seen = Arc::new(Mutex::new(Vec::new()));
        sim.install_actor(a, Box::new(Sender { target: b }));
        sim.install_actor(b, Box::new(Recorder { seen: seen.clone() }));
        sim.run();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 200);
        let corrupted = seen.iter().filter(|p| p.iter().any(|&b| b != 0)).count();
        assert_eq!(corrupted as u64, sim.metrics().messages_corrupted);
        assert!(corrupted > 60 && corrupted < 140, "corrupted {corrupted}");
    }

    #[test]
    fn halt_stops_an_actor() {
        struct HaltOnFirst {
            got: Arc<Mutex<usize>>,
        }
        impl Actor for HaltOnFirst {
            fn on_message(&mut self, ctx: &mut Context<'_>, _f: DeviceId, _p: &[u8]) {
                *self.got.lock().unwrap() += 1;
                ctx.halt();
            }
        }
        let mut sim = reliable_sim(19);
        let a = sim.add_device(DeviceConfig::default());
        let b = sim.add_device(DeviceConfig::default());
        let got = Arc::new(Mutex::new(0));
        sim.install_actor(
            a,
            Box::new(Ping {
                target: b,
                count: 5,
                replies: Arc::new(Mutex::new(0)),
            }),
        );
        sim.install_actor(b, Box::new(HaltOnFirst { got: got.clone() }));
        sim.run();
        assert_eq!(*got.lock().unwrap(), 1, "actor must stop after halting");
    }

    #[test]
    fn max_events_backstop() {
        /// Two actors ping each other forever.
        struct Echo;
        impl Actor for Echo {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(DeviceId::new(1 - ctx.device().raw()), vec![1]);
            }
            fn on_message(&mut self, ctx: &mut Context<'_>, from: DeviceId, _p: &[u8]) {
                ctx.send(from, vec![1]);
            }
        }
        let mut sim = Simulation::new(
            SimConfig {
                network: NetworkModel::reliable(Duration::from_millis(1)),
                max_events: 1_000,
                ..SimConfig::default()
            },
            23,
        );
        let a = sim.add_device(DeviceConfig::default());
        let b = sim.add_device(DeviceConfig::default());
        sim.install_actor(a, Box::new(Echo));
        sim.install_actor(b, Box::new(Echo));
        let more = sim.run_until(SimTime::MAX);
        assert!(more, "backstop must stop the infinite exchange");
        assert_eq!(sim.metrics().events_processed, 1_000);
    }

    /// ping→1, pong→2 (anything else unclassifiable).
    fn test_classifier() -> crate::fault::Classifier {
        Box::new(|bytes: &[u8]| match bytes {
            b"ping" => Some(1),
            b"pong" => Some(2),
            _ => None,
        })
    }

    type PingPongProbes = (Arc<Mutex<usize>>, Arc<Mutex<Vec<Vec<u8>>>>);

    fn ping_pong_world(sim: &mut Simulation, count: usize) -> PingPongProbes {
        let a = sim.add_device(DeviceConfig::default());
        let b = sim.add_device(DeviceConfig::default());
        let replies = Arc::new(Mutex::new(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        sim.install_actor(
            a,
            Box::new(Ping {
                target: b,
                count,
                replies: replies.clone(),
            }),
        );
        sim.install_actor(b, Box::new(Pong { seen: seen.clone() }));
        (replies, seen)
    }

    #[test]
    fn fault_drop_rule_discards_matched_messages() {
        let mut sim = reliable_sim(1);
        sim.set_classifier(test_classifier());
        sim.set_fault_plan(
            FaultPlan::new().rule(FaultRule::new(FaultAction::Drop).on_kinds(&[1]).limit(1)),
        );
        let (replies, seen) = ping_pong_world(&mut sim, 3);
        sim.run();
        assert_eq!(seen.lock().unwrap().len(), 2, "first ping dropped");
        assert_eq!(*replies.lock().unwrap(), 2);
        assert_eq!(sim.metrics().messages_dropped, 1);
        assert_eq!(sim.faults_injected(), 1);
    }

    #[test]
    fn fault_duplicate_rule_delivers_twice() {
        let mut sim = reliable_sim(1);
        sim.set_classifier(test_classifier());
        sim.set_fault_plan(
            FaultPlan::new().rule(
                FaultRule::new(FaultAction::Duplicate {
                    extra_delay: Duration::ZERO,
                })
                .on_kinds(&[1])
                .limit(1),
            ),
        );
        let (replies, seen) = ping_pong_world(&mut sim, 3);
        sim.run();
        assert_eq!(seen.lock().unwrap().len(), 4, "first ping delivered twice");
        assert_eq!(*replies.lock().unwrap(), 4);
    }

    #[test]
    fn fault_delay_rule_postpones_delivery() {
        let run = |delay_ms: u64| {
            let mut sim = reliable_sim(1);
            sim.set_classifier(test_classifier());
            if delay_ms > 0 {
                sim.set_fault_plan(
                    FaultPlan::new().rule(
                        FaultRule::new(FaultAction::Delay(Duration::from_millis(delay_ms)))
                            .on_kinds(&[1]),
                    ),
                );
            }
            let (replies, _) = ping_pong_world(&mut sim, 3);
            let end = sim.run();
            assert_eq!(*replies.lock().unwrap(), 3, "delayed, not lost");
            end
        };
        let baseline = run(0);
        let delayed = run(500);
        assert_eq!(delayed, baseline + Duration::from_millis(500));
    }

    #[test]
    fn fault_reorder_rule_swaps_consecutive_matches() {
        /// Sends two distinct payloads in one batch.
        struct TwoSends {
            target: DeviceId,
        }
        impl Actor for TwoSends {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(self.target, b"first".to_vec());
                ctx.send(self.target, b"second".to_vec());
            }
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: DeviceId, _payload: &[u8]) {}
        }
        /// Records payloads without replying.
        struct Sink {
            seen: Arc<Mutex<Vec<Vec<u8>>>>,
        }
        impl Actor for Sink {
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: DeviceId, payload: &[u8]) {
                self.seen.lock().unwrap().push(payload.to_vec());
            }
        }
        let mut sim = reliable_sim(1);
        sim.set_fault_plan(FaultPlan::new().rule(FaultRule::new(FaultAction::Reorder).limit(2)));
        let a = sim.add_device(DeviceConfig::default());
        let b = sim.add_device(DeviceConfig::default());
        let seen = Arc::new(Mutex::new(Vec::new()));
        sim.install_actor(a, Box::new(TwoSends { target: b }));
        sim.install_actor(b, Box::new(Sink { seen: seen.clone() }));
        sim.run();
        assert_eq!(
            *seen.lock().unwrap(),
            vec![b"second".to_vec(), b"first".to_vec()],
            "the held first message lands after the second"
        );
    }

    #[test]
    fn fault_crash_receiver_consumes_the_trigger() {
        let mut sim = reliable_sim(1);
        sim.set_classifier(test_classifier());
        // Crash the pong server the instant its second ping arrives.
        sim.set_fault_plan(
            FaultPlan::new().rule(
                FaultRule::new(FaultAction::CrashReceiver)
                    .on_kinds(&[1])
                    .skip(1)
                    .limit(1),
            ),
        );
        let (replies, seen) = ping_pong_world(&mut sim, 3);
        sim.run();
        assert_eq!(
            seen.lock().unwrap().len(),
            1,
            "only the first ping was processed"
        );
        assert_eq!(*replies.lock().unwrap(), 1);
        assert_eq!(sim.metrics().crashes, 1);
    }

    #[test]
    fn fault_crash_sender_fires_after_the_batch() {
        let mut sim = Simulation::new(
            SimConfig {
                network: NetworkModel::reliable(Duration::from_millis(10)),
                trace_capacity: 64,
                ..SimConfig::default()
            },
            1,
        );
        sim.set_classifier(test_classifier());
        sim.set_fault_plan(
            FaultPlan::new().rule(
                FaultRule::new(FaultAction::CrashSender)
                    .on_kinds(&[1])
                    .limit(1),
            ),
        );
        let (replies, seen) = ping_pong_world(&mut sim, 3);
        sim.run();
        // All three pings left in the same on_start batch before the
        // crash landed; every pong then hit a crashed device.
        assert_eq!(seen.lock().unwrap().len(), 3);
        assert_eq!(*replies.lock().unwrap(), 0);
        assert_eq!(sim.metrics().crashes, 1);
        assert_eq!(sim.metrics().messages_to_crashed, 3);
        let injected = sim
            .trace()
            .records()
            .filter(|r| {
                matches!(
                    r.event,
                    TraceEvent::Crashed {
                        cause: CrashCause::Injected { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(injected, 1, "the crash is attributed to the rule");
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let run = || {
            let mut sim = Simulation::new(
                SimConfig {
                    network: NetworkModel::lossy(
                        Duration::from_millis(1),
                        Duration::from_millis(50),
                        0.1,
                    ),
                    trace_capacity: 1 << 12,
                    ..SimConfig::default()
                },
                77,
            );
            sim.set_classifier(test_classifier());
            sim.set_fault_plan(
                FaultPlan::new()
                    .rule(
                        FaultRule::new(FaultAction::Drop)
                            .on_kinds(&[2])
                            .skip(3)
                            .limit(2),
                    )
                    .rule(
                        FaultRule::new(FaultAction::Duplicate {
                            extra_delay: Duration::from_millis(200),
                        })
                        .on_kinds(&[1])
                        .skip(5)
                        .limit(1),
                    ),
            );
            let (replies, _) = ping_pong_world(&mut sim, 50);
            sim.run();
            let reply_count = *replies.lock().unwrap();
            (reply_count, sim.faults_injected(), sim.trace().digest())
        };
        assert_eq!(run(), run());
    }

    /// A small churny gossip world used by the shard-parity tests.
    struct Gossiper {
        peers: u64,
        budget: usize,
    }
    impl Actor for Gossiper {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let peer = ctx.rng().range(0..self.peers);
            ctx.send(DeviceId::new(peer), b"gossip".to_vec());
        }
        fn on_message(&mut self, ctx: &mut Context<'_>, _from: DeviceId, _payload: &[u8]) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            let peer = ctx.rng().range(0..self.peers);
            ctx.send(DeviceId::new(peer), b"gossip".to_vec());
            ctx.observe("hops", 1.0);
        }
    }

    fn parity_fingerprint(
        shards: usize,
        seed: u64,
        with_faults: bool,
    ) -> (u64, u64, u64, u64, u64, u64, u64) {
        let n = 18u64;
        let mut sim = Simulation::new(
            SimConfig {
                network: NetworkModel::lossy(
                    Duration::from_millis(5),
                    Duration::from_millis(90),
                    0.1,
                ),
                trace_capacity: 1 << 13,
                shards,
                ..SimConfig::default()
            },
            seed,
        );
        if with_faults {
            sim.set_classifier(test_classifier());
            // Window-safe plan: stateless drop + receiver crash rules.
            sim.set_fault_plan(
                FaultPlan::new()
                    .rule(
                        FaultRule::new(FaultAction::Drop)
                            .from(&[DeviceId::new(2)])
                            .after(SimTime::from_micros(50_000)),
                    )
                    .rule(FaultRule::new(FaultAction::CrashReceiver).to(&[DeviceId::new(5)])),
            );
        }
        for i in 0..n {
            let availability = if i % 3 == 0 {
                Availability::Intermittent {
                    mean_up: Duration::from_secs(2),
                    mean_down: Duration::from_secs(1),
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
        for i in 0..n {
            sim.install_actor(
                DeviceId::new(i),
                Box::new(Gossiper {
                    peers: n,
                    budget: 30,
                }),
            );
        }
        sim.run_until(SimTime::from_micros(30_000_000));
        let m = sim.metrics();
        (
            m.messages_sent,
            m.messages_delivered,
            m.messages_dropped,
            m.crashes,
            m.events_processed,
            sim.faults_injected(),
            sim.trace().digest(),
        )
    }

    #[test]
    fn shard_counts_are_bit_identical() {
        for seed in [1u64, 42, 9_000] {
            let base = parity_fingerprint(1, seed, false);
            for shards in [2usize, 4, 8] {
                assert_eq!(
                    parity_fingerprint(shards, seed, false),
                    base,
                    "seed {seed} shards {shards}"
                );
            }
        }
    }

    #[test]
    fn shard_counts_are_bit_identical_under_faults() {
        for seed in [7u64, 123] {
            let base = parity_fingerprint(1, seed, true);
            assert!(base.5 > 0, "fault plan must actually fire (seed {seed})");
            for shards in [2usize, 4] {
                assert_eq!(
                    parity_fingerprint(shards, seed, true),
                    base,
                    "seed {seed} shards {shards}"
                );
            }
        }
    }
}
