//! One slice of a world: device state and the per-event executor —
//! the only one in the workspace. The simulator's shards, the live
//! runtime's workers and the socket runtime's worker processes are all
//! [`Shard`]s; what differs per host is the [`RunEnv`] it passes in
//! (DESIGN.md §"One executor, three barriers").
//!
//! Devices are partitioned across shards deterministically by id
//! (`device_id % shard_count`), and every event executes on the shard
//! that owns its target device. Event processing is written so that it
//! only ever touches state of the *executing* device (the target), plus
//! pure shared context ([`RunEnv`]): messages to other devices become
//! [`Event`]s routed through per-destination outbound buffers, metric
//! updates become commutative [`Deltas`], and trace/observation records
//! become journal entries ([`JEntry`]) replayed in canonical key order at
//! the window barrier. Because nothing here reads global mutable state,
//! the same executor runs single-threaded (shards=1), multi-threaded
//! (shards=N), and inside the sequential fallback — with bit-identical
//! results.

use crate::actor::{Actor, Command, Context, TimerToken};
use crate::exec::DeviceConfig;
use crate::fault::{
    evaluate_plan, CrashCause, FaultAction, FaultCounters, FaultPlan, HeldMsg, MatchPoint,
};
use crate::metrics::DelayStats;
use crate::network::{Fate, NetworkModel};
use crate::scheduler::{Event, EventKind, EventQueue};
use crate::time::{Duration, SimTime};
use crate::trace::TraceEvent;
use edgelet_util::ids::DeviceId;
use edgelet_util::rng::DetRng;
use edgelet_util::Payload;
use std::collections::BTreeSet;

/// Per-device mutable state. Owned by exactly one shard.
pub struct DeviceState {
    pub(crate) up: bool,
    pub(crate) crashed: bool,
    pub(crate) halted: bool,
    pub(crate) actor: Option<Box<dyn Actor>>,
    /// Actor-visible randomness (forked per device).
    pub(crate) rng: DetRng,
    /// Drives this device's availability renewal process.
    pub(crate) churn_rng: DetRng,
    /// Drives network fate/latency draws for messages this device sends.
    /// Keeping the stream per-sender (instead of one global network RNG)
    /// makes every draw independent of event interleaving, which is what
    /// lets shard counts vary without changing outcomes.
    pub(crate) net_rng: DetRng,
    pub(crate) next_timer: u64,
    /// Private spawn counter: the `seq` component of every event this
    /// device spawns.
    pub(crate) spawn_seq: u64,
    pub(crate) cancelled: BTreeSet<TimerToken>,
    /// What the device was registered with; [`Shard::reset`] derives
    /// its state from it again.
    pub(crate) config: DeviceConfig,
    /// Messages waiting for this (down) sender to reconnect.
    pub(crate) outbox: Vec<(DeviceId, Payload, SimTime)>,
    /// Messages waiting for this (down) receiver to reconnect.
    pub(crate) inbox: Vec<(DeviceId, Payload, SimTime)>,
}

impl DeviceState {
    /// The state registration gives device `id` under `config`: flags,
    /// counters, empty parking and its RNG streams forked from the world
    /// seed `root` by id ("churn", "device", "netdev" — and "crash", whose
    /// one draw is its crash plan's). Also returns its first events' times:
    /// the first availability toggle's delay and the crash drawn.
    fn fresh(
        id: DeviceId,
        config: DeviceConfig,
        root: &DetRng,
    ) -> (Self, Option<Duration>, Option<SimTime>) {
        let fork = |label| root.fork_indexed(label, id.raw());
        let mut churn_rng = fork("churn");
        let up = config.availability.starts_up();
        let first_toggle = config.availability.next_period(up, &mut churn_rng);
        let crash = config.crash.resolve(&mut fork("crash"));
        let state = DeviceState {
            up,
            crashed: false,
            halted: false,
            actor: None,
            rng: fork("device"),
            churn_rng,
            net_rng: fork("netdev"),
            next_timer: 0,
            spawn_seq: 0,
            cancelled: BTreeSet::new(),
            config,
            outbox: Vec::new(),
            inbox: Vec::new(),
        };
        (state, first_toggle, crash)
    }

    /// Whether the device is connected (and has not crashed).
    pub fn is_up(&self) -> bool {
        self.up && !self.crashed
    }

    /// Whether the device has crash-stopped.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }
}

/// Borrowed form of [`crate::fault::Classifier`].
pub type ClassifierRef<'a> = &'a (dyn Fn(&[u8]) -> Option<u16> + Send + Sync);

/// Immutable per-run context shared by all shards. A host's
/// capabilities are this data, not code paths: a world with no fault
/// plan, no TTL and always-up devices simply never reaches the fault,
/// store-and-forward and churn branches of the executor.
pub struct RunEnv<'a> {
    /// The link model applied to every message.
    pub network: &'a NetworkModel,
    /// Store-and-forward TTL for parked messages.
    pub ttl: Option<Duration>,
    /// Payload → protocol-kind classifier.
    pub classifier: Option<ClassifierRef<'a>>,
    /// The installed fault plan.
    pub plan: Option<&'a FaultPlan>,
    /// Whether trace events are journaled.
    pub trace_enabled: bool,
    /// Whether the classifier must run at all: only when a kind-restricted
    /// fault rule or the trace can consume the result.
    pub need_kind: bool,
    /// Total registered devices (send bound).
    pub device_count: usize,
    /// Number of slices the population is partitioned into.
    pub shard_count: usize,
    /// Whether a `Deliver` event addressed to the spawning slice itself
    /// also leaves through `outbound` (the host carries every message
    /// over its fabric) instead of short-cutting into the local queue.
    /// The lookahead puts either route in a later window, so this moves
    /// bytes, never outcomes.
    pub deliveries_leave: bool,
}

/// A journal item: a side effect whose global ordering matters.
#[derive(Debug, Clone, PartialEq)]
pub enum JItem {
    /// A trace record.
    Trace(TraceEvent),
    /// A named metric observation.
    Observe(&'static str, f64),
}

/// One journal entry, tagged with the key of the event that produced it
/// plus an intra-event counter. Sorting by `(at, origin, seq, intra)`
/// reconstructs one canonical global order from any per-shard
/// interleaving.
#[derive(Debug, Clone, PartialEq)]
pub struct JEntry {
    /// Virtual time of the producing event.
    pub at: SimTime,
    /// Raw id of the device that spawned the producing event.
    pub origin: u64,
    /// The producing event's spawn sequence number.
    pub seq: u64,
    /// Ordinal of this side effect within the producing event.
    pub intra: u32,
    /// The side effect itself.
    pub item: JItem,
}

impl JEntry {
    /// The canonical merge key.
    pub fn key(&self) -> (SimTime, u64, u64, u32) {
        (self.at, self.origin, self.seq, self.intra)
    }
}

/// Commutative metric deltas accumulated by one shard over one window
/// (or one event, in the fallback executor). Summing deltas from any
/// partition of the same event set yields identical totals.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Deltas {
    /// Messages submitted by actors.
    pub sent: u64,
    /// Messages handed to receiving actors.
    pub delivered: u64,
    /// Messages dropped (network fate, fault rule, TTL, dead fabric).
    pub dropped: u64,
    /// Messages corrupted in transit.
    pub corrupted: u64,
    /// Messages discarded at a crashed receiver.
    pub to_crashed: u64,
    /// Messages parked in a store-and-forward queue.
    pub deferred: u64,
    /// Payload bytes submitted.
    pub bytes_sent: u64,
    /// Delivery-delay samples.
    pub delay: DelayStats,
    /// Up → down transitions.
    pub disconnections: u64,
    /// Crash events applied.
    pub crashes: u64,
    /// Events processed.
    pub events: u64,
    /// Net change in pending non-churn events (+spawned, -processed).
    pub real_pending: i64,
    /// Net change in parked (inbox/outbox) messages.
    pub parked: i64,
    /// Latest event time processed.
    pub last_at: SimTime,
}

/// Buffered side effects of executing events on one shard.
#[derive(Debug)]
pub struct WindowOut {
    /// Ordered side effects; sorted by [`JEntry::key`] once the window
    /// is done.
    pub journal: Vec<JEntry>,
    /// Events destined to other shards, indexed by destination shard.
    pub outbound: Vec<Vec<Event>>,
    /// Commutative counter deltas.
    pub deltas: Deltas,
    trace_on: bool,
    /// Key of the event currently being processed.
    cur: (SimTime, u64, u64),
    intra: u32,
}

impl WindowOut {
    /// Empty buffers for a slice of a `shard_count`-slice world.
    pub fn new(shard_count: usize, trace_on: bool) -> Self {
        WindowOut {
            journal: Vec::new(),
            outbound: (0..shard_count).map(|_| Vec::new()).collect(),
            deltas: Deltas::default(),
            trace_on,
            cur: (SimTime::ZERO, 0, 0),
            intra: 0,
        }
    }

    /// Clears buffered effects while keeping capacity (fallback executor
    /// reuses one `WindowOut` across events).
    pub(crate) fn reset(&mut self) {
        self.journal.clear();
        for v in &mut self.outbound {
            v.clear();
        }
        self.deltas = Deltas::default();
        self.intra = 0;
    }

    fn begin_event(&mut self, key: (SimTime, u64, u64)) {
        self.cur = key;
        self.intra = 0;
    }

    fn push_item(&mut self, item: JItem) {
        self.journal.push(JEntry {
            at: self.cur.0,
            origin: self.cur.1,
            seq: self.cur.2,
            intra: self.intra,
            item,
        });
        self.intra += 1;
    }

    fn trace(&mut self, ev: TraceEvent) {
        if self.trace_on {
            self.push_item(JItem::Trace(ev));
        }
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.push_item(JItem::Observe(name, value));
    }
}

/// One conservative window `[start_us, end_us)`, as the decision loop
/// hands it to every slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// The global minimum pending time the window is anchored at, µs.
    pub start_us: u64,
    /// Exclusive end: `start_us` plus one lookahead, µs.
    pub end_us: u64,
    /// Deadline clamp (inclusive), µs: later events stay queued.
    pub clip_us: u64,
    /// Events each slice may still process (`max_events` minus the
    /// events processed so far).
    pub budget: u64,
}

/// Result of running one window on one shard.
#[derive(Debug)]
pub struct WindowReport {
    /// The window's buffered side effects.
    pub out: WindowOut,
    /// Per-window fault counters (zero-based; merged at the barrier).
    pub fc: FaultCounters,
    /// Earliest event still queued on this shard after the window.
    pub queue_min_at: Option<u64>,
    /// Earliest event in this shard's outbound buffers.
    pub outbound_min_at: Option<u64>,
    /// The shard stopped early because it exhausted the event budget.
    pub hit_budget: bool,
}

impl WindowReport {
    /// A report assembled from parts that crossed a process boundary
    /// (the socket barrier): no outbound buffers, no fault counters.
    pub fn from_remote(
        deltas: Deltas,
        journal: Vec<JEntry>,
        queue_min_at: Option<u64>,
        hit_budget: bool,
    ) -> Self {
        let mut out = WindowOut::new(0, true);
        out.deltas = deltas;
        out.journal = journal;
        WindowReport {
            out,
            fc: FaultCounters::default(),
            queue_min_at,
            outbound_min_at: None,
            hit_budget,
        }
    }

    /// Empties a merged report, keeping buffer capacity, so the next
    /// window on the same slice allocates nothing.
    pub fn recycle(&mut self) {
        self.out.reset();
        self.fc.reset();
    }
}

/// Mutable references threaded through one event's execution.
struct Exec<'a, 'b> {
    env: &'a RunEnv<'b>,
    out: &'a mut WindowOut,
    fc: &'a mut FaultCounters,
    /// Reorder stashes; only the fallback executor provides them
    /// (Reorder rules are never window-safe).
    holds: Option<&'a mut Vec<Option<HeldMsg>>>,
    now: SimTime,
}

/// One shard: a slice of the device population plus its event queue.
pub struct Shard {
    pub(crate) idx: usize,
    pub(crate) shard_count: usize,
    /// Devices with `id % shard_count == idx`, indexed by `id / shard_count`.
    pub(crate) devices: Vec<DeviceState>,
    pub(crate) queue: EventQueue,
    /// The commands of the actor callback in progress; one buffer
    /// serves every callback of the slice.
    commands: Vec<Command>,
    /// The world's seed stream, which every device's streams fork from.
    root: DetRng,
    /// Scripted crashes of this slice's devices, in the order they were
    /// scheduled.
    pub(crate) scripted: Vec<(DeviceId, SimTime)>,
}

impl Shard {
    pub(crate) fn new(idx: usize, shard_count: usize, width_us: u64, root: DetRng) -> Self {
        Shard {
            idx,
            shard_count,
            devices: Vec::new(),
            queue: EventQueue::new(width_us),
            commands: Vec::new(),
            root,
            scripted: Vec::new(),
        }
    }

    /// This slice's index in `0..shard_count`.
    pub fn idx(&self) -> usize {
        self.idx
    }

    /// Queues an event that arrived over the host's fabric.
    pub fn push(&mut self, ev: Event) {
        debug_assert_eq!(ev.kind.target().index() % self.shard_count, self.idx);
        self.queue.push(ev);
    }

    /// Earliest pending event time in this slice's queue, µs.
    pub fn pending_min(&mut self) -> Option<u64> {
        self.queue.peek_min_key().map(|(at, ..)| at.as_micros())
    }

    /// Makes room for `devices` more devices and their first events.
    pub(crate) fn reserve(&mut self, devices: usize) {
        self.devices.reserve(devices);
        self.queue.reserve(devices);
    }

    pub(crate) fn device_mut(&mut self, id: DeviceId) -> &mut DeviceState {
        debug_assert_eq!(id.index() % self.shard_count, self.idx);
        &mut self.devices[id.index() / self.shard_count]
    }

    pub(crate) fn device(&self, id: DeviceId) -> &DeviceState {
        debug_assert_eq!(id.index() % self.shard_count, self.idx);
        &self.devices[id.index() / self.shard_count]
    }

    /// Gives device `id` the [fresh](DeviceState::fresh) state under
    /// `config`, with `actor` on it, and queues its first events: the
    /// first availability toggle and the crash drawn. Registration (of
    /// the slice's next device) and [`Shard::reset`] both come here.
    /// Returns the non-churn events queued.
    pub(crate) fn derive(
        &mut self,
        id: DeviceId,
        config: DeviceConfig,
        actor: Option<Box<dyn Actor>>,
        now: SimTime,
    ) -> u64 {
        let (mut state, first_toggle, crash) = DeviceState::fresh(id, config, &self.root);
        state.actor = actor;
        let local = id.index() / self.shard_count;
        match self.devices.get_mut(local) {
            Some(d) => *d = state,
            None => {
                debug_assert_eq!(local, self.devices.len(), "devices register in id order");
                self.devices.push(state);
            }
        }
        if let Some(period) = first_toggle {
            self.schedule(id, now + period, EventKind::ChurnToggle(id));
        }
        let Some(at) = crash else { return 0 };
        self.schedule(id, at.max(now), EventKind::Crash(id, CrashCause::Organic));
        1
    }

    /// Queues an event `origin` makes for itself from outside any handler
    /// (registration, its actor's start, a scripted crash), keyed from its
    /// spawn counter.
    pub(crate) fn schedule(&mut self, origin: DeviceId, at: SimTime, kind: EventKind) {
        debug_assert_eq!(kind.target(), origin);
        let d = self.device_mut(origin);
        let seq = d.spawn_seq;
        d.spawn_seq += 1;
        self.queue.push(Event {
            at,
            origin: origin.raw(),
            seq,
            kind,
        });
    }

    /// Returns this slice to what its registrations, installs and
    /// scripted crashes at virtual time zero made it, without allocating:
    /// the queue emptied, every device derived again, every installed
    /// actor restarted and started, every scripted crash queued again.
    /// Each device's events are made in the order `prepare_live_query`
    /// makes them (registration, install, scripted crashes), so every
    /// event key repeats. `false` when an actor cannot restart: the slice
    /// must then be built anew.
    pub fn reset(&mut self) -> bool {
        self.queue.clear();
        for local in 0..self.devices.len() {
            let id = DeviceId::new((local * self.shard_count + self.idx) as u64);
            let d = &mut self.devices[local];
            let (config, actor) = (std::mem::take(&mut d.config), d.actor.take());
            self.derive(id, config, actor, SimTime::ZERO);
            match self.devices[local].actor.as_mut().map(|a| a.restart()) {
                Some(false) => return false,
                Some(true) => self.schedule(id, SimTime::ZERO, EventKind::Start(id)),
                None => {}
            }
        }
        for i in 0..self.scripted.len() {
            let (device, at) = self.scripted[i];
            self.schedule(device, at, EventKind::Crash(device, CrashCause::Organic));
        }
        true
    }

    /// Spawns an event from `origin` (the executing device), assigning
    /// its intrinsic key and routing it to this shard's queue or an
    /// outbound buffer.
    fn spawn(&mut self, origin: DeviceId, at: SimTime, kind: EventKind, cx: &mut Exec<'_, '_>) {
        let seq = {
            let d = self.device_mut(origin);
            let s = d.spawn_seq;
            d.spawn_seq += 1;
            s
        };
        let ev = Event {
            at,
            origin: origin.raw(),
            seq,
            kind,
        };
        self.enqueue(ev, cx);
    }

    /// Routes a freshly keyed event: this shard's queue when it stays
    /// here, the destination's outbound buffer when it leaves (another
    /// slice's device, or any delivery when the host carries them all).
    fn enqueue(&mut self, ev: Event, cx: &mut Exec<'_, '_>) {
        if !ev.kind.is_churn() {
            cx.out.deltas.real_pending += 1;
        }
        let dest = ev.kind.target().index() % self.shard_count;
        let leaves = dest != self.idx
            || (cx.env.deliveries_leave && matches!(ev.kind, EventKind::Deliver { .. }));
        if leaves {
            cx.out.outbound[dest].push(ev);
        } else {
            self.queue.push(ev);
        }
    }

    /// Executes one event. The only mutable state touched is this shard's
    /// (in fact: the target device's); everything else flows into `out`.
    pub(crate) fn process_event(
        &mut self,
        ev: Event,
        env: &RunEnv<'_>,
        out: &mut WindowOut,
        fc: &mut FaultCounters,
        holds: Option<&mut Vec<Option<HeldMsg>>>,
    ) {
        out.begin_event(ev.key());
        out.deltas.events += 1;
        out.deltas.last_at = out.deltas.last_at.max(ev.at);
        if !ev.kind.is_churn() {
            out.deltas.real_pending -= 1;
        }
        let mut cx = Exec {
            env,
            out,
            fc,
            holds,
            now: ev.at,
        };
        self.dispatch(ev.kind, &mut cx);
    }

    fn dispatch(&mut self, kind: EventKind, cx: &mut Exec<'_, '_>) {
        match kind {
            EventKind::Start(device) => {
                self.with_actor(device, cx, |actor, ctx| actor.on_start(ctx));
            }
            EventKind::Deliver {
                to,
                from,
                payload,
                sent_at,
            } => self.handle_delivery(to, from, payload, sent_at, cx),
            EventKind::Timer { device, token } => {
                let state = self.device_mut(device);
                if state.crashed || state.halted {
                    return;
                }
                if state.cancelled.remove(&token) {
                    return;
                }
                cx.out.trace(TraceEvent::TimerFired {
                    device,
                    token: token.0,
                });
                self.with_actor(device, cx, |actor, ctx| actor.on_timer(ctx, token));
            }
            EventKind::ChurnToggle(device) => self.handle_churn(device, cx),
            EventKind::Crash(device, cause) => self.handle_crash(device, cause, cx),
        }
    }

    fn handle_delivery(
        &mut self,
        to: DeviceId,
        from: DeviceId,
        payload: Payload,
        sent_at: SimTime,
        cx: &mut Exec<'_, '_>,
    ) {
        let now = cx.now;
        let state = self.device_mut(to);
        if state.crashed {
            cx.out.deltas.to_crashed += 1;
            return;
        }
        if !state.up {
            // Store-and-forward: park until reconnection.
            cx.out.deltas.deferred += 1;
            cx.out.deltas.parked += 1;
            state.inbox.push((from, payload, sent_at));
            return;
        }
        if state.halted || state.actor.is_none() {
            return;
        }
        // Fault hook (Deliver point): a CrashReceiver rule consumes the
        // triggering message — the device dies at the instant of
        // delivery, before its actor sees the payload.
        if let Some(plan) = cx.env.plan {
            let kind = if cx.env.need_kind {
                cx.env.classifier.and_then(|c| c(payload.as_slice()))
            } else {
                None
            };
            if let Some((rule, action)) =
                evaluate_plan(plan, cx.fc, MatchPoint::Deliver, kind, from, to, now)
            {
                cx.out.trace(TraceEvent::FaultInjected {
                    rule,
                    kind: action.kind(),
                    from,
                    to,
                });
                cx.out.deltas.to_crashed += 1;
                self.handle_crash(to, CrashCause::Injected { rule }, cx);
                return;
            }
        }
        cx.out.deltas.delivered += 1;
        cx.out
            .deltas
            .delay
            .push_micros(now.since(sent_at).as_micros());
        cx.out.trace(TraceEvent::Delivered { from, to });
        self.with_actor(to, cx, |actor, ctx| actor.on_message(ctx, from, &payload));
    }

    fn handle_churn(&mut self, device: DeviceId, cx: &mut Exec<'_, '_>) {
        let now = cx.now;
        let state = self.device_mut(device);
        if state.crashed {
            return;
        }
        state.up = !state.up;
        let now_up = state.up;
        if !now_up {
            cx.out.deltas.disconnections += 1;
            cx.out.trace(TraceEvent::WentDown(device));
        } else {
            cx.out.trace(TraceEvent::CameUp(device));
        }
        // Schedule the next transition.
        let state = self.device_mut(device);
        let availability = state.config.availability.clone();
        let mut churn_rng = state.churn_rng.clone();
        if let Some(period) = availability.next_period(now_up, &mut churn_rng) {
            self.device_mut(device).churn_rng = churn_rng;
            self.spawn(device, now + period, EventKind::ChurnToggle(device), cx);
        }

        if now_up {
            // Flush parked traffic. Inbox messages re-enter as immediate
            // deliveries; outbox messages now traverse the network.
            let state = self.device_mut(device);
            let inbox = std::mem::take(&mut state.inbox);
            let outbox = std::mem::take(&mut state.outbox);
            cx.out.deltas.parked -= (inbox.len() + outbox.len()) as i64;
            let ttl = cx.env.ttl;
            for (from, payload, sent_at) in inbox {
                if let Some(ttl) = ttl {
                    if now.since(sent_at) > ttl {
                        cx.out.deltas.dropped += 1;
                        continue;
                    }
                }
                self.spawn(
                    device,
                    now,
                    EventKind::Deliver {
                        to: device,
                        from,
                        payload,
                        sent_at,
                    },
                    cx,
                );
            }
            for (to, payload, sent_at) in outbox {
                if let Some(ttl) = ttl {
                    if now.since(sent_at) > ttl {
                        cx.out.deltas.dropped += 1;
                        continue;
                    }
                }
                self.route(device, to, payload, sent_at, cx);
            }
            self.with_actor(device, cx, |actor, ctx| actor.on_reconnect(ctx));
        }
    }

    fn handle_crash(&mut self, device: DeviceId, cause: CrashCause, cx: &mut Exec<'_, '_>) {
        let state = self.device_mut(device);
        if state.crashed {
            return;
        }
        // The actor stays: `crashed` gates every callback, and a reset
        // world restarts it.
        state.crashed = true;
        state.up = false;
        let cleared = (state.inbox.len() + state.outbox.len()) as i64;
        state.inbox.clear();
        state.outbox.clear();
        cx.out.deltas.parked -= cleared;
        cx.out.deltas.crashes += 1;
        cx.out.trace(TraceEvent::Crashed { device, cause });
    }

    /// Runs a callback on a device's actor, then applies its commands.
    fn with_actor<F>(&mut self, device: DeviceId, cx: &mut Exec<'_, '_>, f: F)
    where
        F: FnOnce(&mut Box<dyn Actor>, &mut Context<'_>),
    {
        let now = cx.now;
        let state = self.device_mut(device);
        if state.crashed || state.halted {
            return;
        }
        let Some(mut actor) = state.actor.take() else {
            return;
        };
        let commands = std::mem::take(&mut self.commands);
        let state = self.device_mut(device);
        let mut ctx = Context::new(device, now, &mut state.rng, &mut state.next_timer);
        ctx.commands = commands;
        f(&mut actor, &mut ctx);
        let mut commands = ctx.take_commands();
        self.device_mut(device).actor = Some(actor);
        for cmd in commands.drain(..) {
            self.apply_command(device, cmd, cx);
        }
        self.commands = commands;
    }

    fn apply_command(&mut self, device: DeviceId, cmd: Command, cx: &mut Exec<'_, '_>) {
        match cmd {
            Command::Send { to, payload } => self.submit_send(device, to, payload, cx),
            Command::Broadcast { to, payload } => {
                // Every recipient shares the same buffer: fan-out is a
                // reference-count bump per target, not a copy.
                for target in to {
                    self.submit_send(device, target, payload.share(), cx);
                }
            }
            Command::SetTimer { token, fire_at } => {
                self.spawn(device, fire_at, EventKind::Timer { device, token }, cx);
            }
            Command::CancelTimer { token } => {
                self.device_mut(device).cancelled.insert(token);
            }
            Command::Observe { name, value } => cx.out.observe(name, value),
            Command::Halt => self.device_mut(device).halted = true,
        }
    }

    fn submit_send(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        payload: Payload,
        cx: &mut Exec<'_, '_>,
    ) {
        cx.out.deltas.sent += 1;
        cx.out.deltas.bytes_sent += payload.len() as u64;
        let now = cx.now;
        let sender = self.device_mut(from);
        if !sender.up {
            // Sender is offline: park in the outbox until reconnection.
            cx.out.deltas.deferred += 1;
            cx.out.deltas.parked += 1;
            sender.outbox.push((to, payload, now));
            return;
        }
        self.route(from, to, payload, now, cx);
    }

    /// Evaluates send-point fault rules, then applies the network model
    /// and schedules delivery.
    fn route(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        payload: Payload,
        sent_at: SimTime,
        cx: &mut Exec<'_, '_>,
    ) {
        if to.index() >= cx.env.device_count {
            cx.out.deltas.dropped += 1;
            return;
        }
        let now = cx.now;
        // Classification is only needed when a kind-restricted fault rule
        // or a MsgKind trace consumer can use the result.
        let kind = if cx.env.need_kind {
            cx.env.classifier.and_then(|c| c(payload.as_slice()))
        } else {
            None
        };
        if let Some(k) = kind {
            cx.out.trace(TraceEvent::MsgKind { from, to, kind: k });
        }
        let decision = match cx.env.plan {
            Some(plan) => evaluate_plan(plan, cx.fc, MatchPoint::Send, kind, from, to, now),
            None => None,
        };
        let Some((rule, action)) = decision else {
            self.transmit(from, to, payload, sent_at, Duration::ZERO, None, cx);
            return;
        };
        cx.out.trace(TraceEvent::FaultInjected {
            rule,
            kind: action.kind(),
            from,
            to,
        });
        match action {
            FaultAction::Drop => {
                cx.out.deltas.dropped += 1;
            }
            FaultAction::Delay(extra) => {
                self.transmit(from, to, payload, sent_at, extra, None, cx);
            }
            FaultAction::Duplicate { extra_delay } => {
                self.transmit(from, to, payload.share(), sent_at, Duration::ZERO, None, cx);
                self.transmit(from, to, payload, sent_at, extra_delay, None, cx);
            }
            FaultAction::Reorder => {
                // Reorder rules are never window-safe, so `holds` is
                // always available here (fallback executor).
                let held = cx.holds.as_mut().and_then(|h| h[rule as usize].take());
                match held {
                    None => {
                        // Hold until the rule's next match. If none ever
                        // arrives the message is effectively dropped
                        // (documented; deterministic either way). The
                        // resend's fate, latency, and sequence number are
                        // drawn *now*, while this shard owns `from`: the
                        // swap executes on whichever shard the rule's
                        // next match lands on, which must not touch the
                        // original sender's state.
                        let (fate, latency, seq) = {
                            let sender = self.device_mut(from);
                            let fate = cx.env.network.fate(&mut sender.net_rng);
                            if fate == Fate::Dropped {
                                (fate, Duration::ZERO, 0)
                            } else {
                                let latency = cx.env.network.sample_latency(&mut sender.net_rng);
                                let seq = sender.spawn_seq;
                                sender.spawn_seq += 1;
                                (fate, latency, seq)
                            }
                        };
                        if let Some(h) = cx.holds.as_mut() {
                            h[rule as usize] = Some(HeldMsg {
                                from,
                                to,
                                payload,
                                sent_at,
                                fate,
                                latency,
                                seq,
                            });
                        }
                    }
                    Some(held) => {
                        // Swap: the later message goes first, the held
                        // one lands just after it (or normally, if the
                        // network drops the later one).
                        let first =
                            self.transmit(from, to, payload, sent_at, Duration::ZERO, None, cx);
                        let floor = first.map(|t| t + Duration::from_micros(1));
                        self.transmit_held(held, floor, cx);
                    }
                }
            }
            FaultAction::CrashSender => {
                // The send itself succeeds; the sender dies once its
                // current actor callback finishes (the crash event pops
                // at the same virtual time, after it).
                self.transmit(from, to, payload, sent_at, Duration::ZERO, None, cx);
                self.spawn(
                    from,
                    now,
                    EventKind::Crash(from, CrashCause::Injected { rule }),
                    cx,
                );
            }
            FaultAction::CrashReceiver => {
                unreachable!("CrashReceiver is a Deliver-point action")
            }
        }
    }

    /// Applies the network model and schedules delivery. `extra_delay`
    /// is added on top of the drawn latency; `floor` (if given) is the
    /// earliest allowed delivery time. Returns the scheduled delivery
    /// time unless the network dropped the message.
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        mut payload: Payload,
        sent_at: SimTime,
        extra_delay: Duration,
        floor: Option<SimTime>,
        cx: &mut Exec<'_, '_>,
    ) -> Option<SimTime> {
        let now = cx.now;
        let fate = {
            let sender = self.device_mut(from);
            cx.env.network.fate(&mut sender.net_rng)
        };
        match fate {
            Fate::Dropped => {
                cx.out.deltas.dropped += 1;
                cx.out.trace(TraceEvent::Dropped { from, to });
                return None;
            }
            Fate::Corrupted(offset) => {
                // The rare mutating path: detach this recipient's copy
                // from the shared buffer before flipping a bit, so other
                // recipients of the same broadcast stay intact.
                if !payload.is_empty() {
                    let idx = offset % payload.len();
                    let mut bytes = std::mem::take(&mut payload).into_vec();
                    bytes[idx] ^= 0x01;
                    payload = Payload::new(bytes);
                }
                cx.out.deltas.corrupted += 1;
            }
            Fate::Delivered => {}
        }
        let bytes = payload.len();
        cx.out.trace(TraceEvent::Sent { from, to, bytes });
        let latency = {
            let sender = self.device_mut(from);
            cx.env.network.sample_latency(&mut sender.net_rng)
        };
        let mut at = now + latency + extra_delay;
        if let Some(floor) = floor {
            at = at.max(floor);
        }
        self.spawn(
            from,
            at,
            EventKind::Deliver {
                to,
                from,
                payload,
                sent_at,
            },
            cx,
        );
        Some(at)
    }

    /// Releases a [`HeldMsg`] stashed by a `Reorder` rule. Unlike
    /// [`Shard::transmit`], this draws nothing: fate, latency, and the
    /// event sequence number were fixed at stash time, so it never
    /// touches the original sender's device state — which may live on a
    /// different shard than the event triggering the release.
    fn transmit_held(
        &mut self,
        held: HeldMsg,
        floor: Option<SimTime>,
        cx: &mut Exec<'_, '_>,
    ) -> Option<SimTime> {
        let HeldMsg {
            from,
            to,
            mut payload,
            sent_at,
            fate,
            latency,
            seq,
        } = held;
        match fate {
            Fate::Dropped => {
                cx.out.deltas.dropped += 1;
                cx.out.trace(TraceEvent::Dropped { from, to });
                return None;
            }
            Fate::Corrupted(offset) => {
                if !payload.is_empty() {
                    let idx = offset % payload.len();
                    let mut bytes = std::mem::take(&mut payload).into_vec();
                    bytes[idx] ^= 0x01;
                    payload = Payload::new(bytes);
                }
                cx.out.deltas.corrupted += 1;
            }
            Fate::Delivered => {}
        }
        let bytes = payload.len();
        cx.out.trace(TraceEvent::Sent { from, to, bytes });
        let mut at = cx.now + latency;
        if let Some(floor) = floor {
            at = at.max(floor);
        }
        let ev = Event {
            at,
            origin: from.raw(),
            seq,
            kind: EventKind::Deliver {
                to,
                from,
                payload,
                sent_at,
            },
        };
        self.enqueue(ev, cx);
        Some(at)
    }

    /// Runs one conservative window on this shard: pops events with
    /// `at < end_us` and `at <= clip_us` (the deadline clamp) in key
    /// order, up to `budget` of them; whatever the clamp or the budget
    /// stops short of stays queued for the next window. All side effects
    /// land in the returned report, with the journal pre-sorted by the
    /// intrinsic event key so the barrier can k-way-merge the shards'
    /// journals without re-sorting.
    ///
    /// `reuse` recycles the previous window's report (buffers cleared by
    /// the barrier), so steady-state windows allocate nothing.
    pub fn run_window(
        &mut self,
        env: &RunEnv<'_>,
        window: &Window,
        reuse: Option<WindowReport>,
    ) -> WindowReport {
        // Reports are recycled within one run only, so a reused one was
        // sized for this very plan.
        let (mut out, mut fc) = match reuse {
            Some(r) => (r.out, r.fc),
            None => (
                WindowOut::new(env.shard_count, env.trace_enabled),
                env.plan.map(FaultCounters::for_plan).unwrap_or_default(),
            ),
        };
        debug_assert!(out.journal.is_empty());
        let due = |at: SimTime| at.as_micros() < window.end_us && at.as_micros() <= window.clip_us;
        let mut processed = 0u64;
        let hit_budget = loop {
            if !self.queue.peek_min_key().is_some_and(|(at, ..)| due(at)) {
                break false;
            }
            if processed >= window.budget {
                break true;
            }
            let Some(ev) = self.queue.pop_min() else {
                break false;
            };
            processed += 1;
            // real_pending/events bookkeeping happens inside process_event.
            self.process_event(ev, env, &mut out, &mut fc, None);
        };
        // Pre-sort so the barrier merge is a streaming k-way merge.
        out.journal
            .sort_unstable_by_key(|e| (e.at, e.origin, e.seq, e.intra));
        let outbound_min_at = out
            .outbound
            .iter()
            .flat_map(|v| v.iter().map(|e| e.at.as_micros()))
            .min();
        WindowReport {
            out,
            fc,
            queue_min_at: self.pending_min(),
            outbound_min_at,
            hit_budget,
        }
    }
}
