//! The executor core every host shares: the slice executor
//! ([`Shard`]), device registration ([`World`]), the window decision
//! loop ([`drive`]) and the barrier merge ([`merge_reports`]).
//!
//! A host — the simulator, the threaded live runtime, the socket
//! daemon — contributes only a [`Barrier`]: how one conservative window
//! is carried to every slice and how the slices' reports come back.
//! Two barriers live here, an inline one (one slice, no thread) and
//! scoped threads behind an [`EpochGate`] pair; both move events
//! between slices through an [`Exchange`], which is where a host's
//! message fabric plugs in. The socket round-trip barrier lives in
//! `edgelet-net`. Why any barrier yields the same bytes is argued once,
//! in DESIGN.md §"One executor, three barriers".

use crate::actor::Actor;
use crate::churn::{Availability, CrashPlan};
use crate::fault::{CrashCause, FaultCounters};
use crate::metrics::SimMetrics;
use crate::time::SimTime;
use crate::trace::Trace;
use edgelet_util::ids::DeviceId;
use edgelet_util::rng::DetRng;
use edgelet_util::sync::EpochGate;
use edgelet_util::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

pub use crate::scheduler::{Event, EventKind};
pub use crate::shard::{
    ClassifierRef, Deltas, DeviceState, JEntry, JItem, RunEnv, Shard, Window, WindowOut,
    WindowReport,
};

/// Per-device configuration.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Availability (connection churn) model.
    pub availability: Availability,
    /// Crash-stop plan.
    pub crash: CrashPlan,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            availability: Availability::AlwaysUp,
            crash: CrashPlan::Never,
        }
    }
}

/// Why a run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// No runnable work remains.
    Quiescent,
    /// The virtual deadline passed with events still pending.
    Deadline,
    /// The event budget (`max_events`) was exhausted.
    Budget,
    /// The external abort flag was raised (wall-clock deadline or
    /// service shutdown); virtual state stops at the last barrier.
    Aborted,
}

/// `min` over optional values, treating `None` as absent.
pub fn fold_min(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Locks a mutex, ignoring poisoning (a panicked worker propagates its
/// panic through the thread scope anyway; the data itself is plain
/// buffers that stay structurally valid).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The global accumulators of one world: everything the decision loop
/// reads and the barrier merge writes. Slices never touch it.
#[derive(Debug)]
pub struct RunState {
    /// Collected metrics.
    pub metrics: SimMetrics,
    /// The event trace.
    pub trace: Trace,
    /// Fault-rule occurrence counters.
    pub fault_counters: FaultCounters,
    /// Pending events other than churn toggles. When this and `parked`
    /// reach zero the system is quiescent: churn alone cannot create work.
    pub real_pending: u64,
    /// Messages parked in inboxes/outboxes of down devices.
    pub parked: u64,
    /// Current virtual time.
    pub now: SimTime,
    /// Earliest pending event time as of the last barrier, µs; hosts
    /// refresh it before each [`drive`] (registration between runs moves
    /// it).
    pub min_at: Option<u64>,
    /// Exclusive end of the most recently opened window. Windows
    /// interrupted by a deadline resume and *finish* their span before
    /// quiescence is re-evaluated, so the set of processed events never
    /// depends on where `run_until` deadlines happened to fall.
    pub cell_open_until: u64,
    /// Conservative lookahead in µs (minimum network latency).
    pub lookahead_us: u64,
    /// Hard cap on processed events (runaway-protocol backstop).
    pub max_events: u64,
}

impl RunState {
    /// The accumulators of a world nothing has been registered on yet:
    /// virtual time zero, nothing pending, empty metrics and trace.
    /// [`World::new`] starts from it; so does a coordinator that drives
    /// slices it does not hold (the socket daemon).
    pub fn new(lookahead_us: u64, max_events: u64, trace_capacity: usize) -> Self {
        RunState {
            metrics: SimMetrics::default(),
            trace: Trace::new(trace_capacity),
            fault_counters: FaultCounters::default(),
            real_pending: 0,
            parked: 0,
            now: SimTime::ZERO,
            min_at: None,
            cell_open_until: 0,
            lookahead_us,
            max_events,
        }
    }

    /// Applies one journal entry, its turn in the global order come.
    pub(crate) fn replay(&mut self, entry: JEntry) {
        match entry.item {
            JItem::Trace(ev) => self.trace.record(entry.at, ev),
            JItem::Observe(name, value) => self.metrics.observe(name, value),
        }
    }
}

/// How one window reaches every slice and how their reports come back.
pub trait Barrier {
    /// Runs `window` on every slice. Returns the slices' reports
    /// (journals pre-sorted, in slice order) for the one
    /// [`merge_reports`], plus the earliest delivery time of anything
    /// still inside the host's fabric that no report accounts for. The
    /// reports stay owned by the barrier, which recycles them into the
    /// next crossing. A barrier may move events and bytes; it may not
    /// reorder, drop or invent a journal entry, nor touch [`RunState`].
    fn cross(&mut self, window: &Window) -> Result<(&mut [WindowReport], Option<u64>)>;
}

/// The window decision loop, written once for every host.
///
/// Each turn checks, in this order: `abort`; quiescence (nothing
/// pending, or only churn toggles beyond the last opened window with no
/// protocol event or parked message left); `deadline`; the event
/// budget. Otherwise it opens the window `[m, m + L)` — `m` the global
/// minimum pending time, `L` the lookahead — crosses the barrier, and
/// merges. A barrier error ends the run unchanged (the socket host's
/// fallback trigger).
pub fn drive(
    state: &mut RunState,
    barrier: &mut dyn Barrier,
    deadline: SimTime,
    abort: Option<&AtomicBool>,
) -> Result<ExitReason> {
    let width = state.lookahead_us.max(1);
    let deadline_us = deadline.as_micros();
    loop {
        if abort.is_some_and(|a| a.load(Ordering::Acquire)) {
            return Ok(ExitReason::Aborted);
        }
        // Quiescence is only evaluated at fresh window boundaries; a
        // half-finished window (deadline interruption) is completed
        // first so progress never depends on the deadline schedule.
        let m = match state.min_at {
            Some(m) if m < state.cell_open_until => m,
            Some(m) if state.real_pending > 0 || state.parked > 0 => m,
            _ => {
                if deadline != SimTime::MAX {
                    state.now = deadline;
                }
                return Ok(ExitReason::Quiescent);
            }
        };
        if m > deadline_us {
            state.now = deadline;
            return Ok(ExitReason::Deadline);
        }
        if state.metrics.events_processed >= state.max_events {
            return Ok(ExitReason::Budget);
        }
        let window = Window {
            start_us: m,
            end_us: m.saturating_add(width),
            clip_us: deadline_us,
            budget: state.max_events - state.metrics.events_processed,
        };
        state.cell_open_until = window.end_us;
        let (reports, in_fabric) = barrier.cross(&window)?;
        state.min_at = fold_min(merge_reports(reports, state), in_fabric);
    }
}

/// Folds a window's commutative counter deltas into the metrics.
/// Shared by the barrier merge and the sequential fallback (which
/// applies one event's worth of deltas at a time).
pub fn apply_deltas(metrics: &mut SimMetrics, d: &Deltas) {
    metrics.messages_sent += d.sent;
    metrics.messages_delivered += d.delivered;
    metrics.messages_dropped += d.dropped;
    metrics.messages_corrupted += d.corrupted;
    metrics.messages_to_crashed += d.to_crashed;
    metrics.messages_deferred += d.deferred;
    metrics.bytes_sent += d.bytes_sent;
    metrics.delivery_delay.merge(&d.delay);
    metrics.disconnections += d.disconnections;
    metrics.crashes += d.crashes;
    metrics.events_processed += d.events;
}

/// Merges the slices' window reports into the global state and returns
/// the earliest event time the reports know of (queues and outbound
/// buffers; `None` means they drained).
///
/// Deltas and fault counters are plain sums and extrema, so the order
/// of `reports` cannot matter. Each report's journal must be pre-sorted
/// by [`JEntry::key`] — [`Shard::run_window`] guarantees it — so the
/// canonical replay order falls out of a streaming k-way merge:
/// repeatedly take the smallest head among the k journals. Journals are
/// drained in place (capacity kept for recycling); nothing is
/// concatenated or re-sorted, and a lone report's journal is replayed
/// as it stands.
pub fn merge_reports(reports: &mut [WindowReport], state: &mut RunState) -> Option<u64> {
    let mut next_min_at = None;
    for report in reports.iter() {
        let d = &report.out.deltas;
        apply_deltas(&mut state.metrics, d);
        state.real_pending = ((state.real_pending as i64) + d.real_pending).max(0) as u64;
        state.parked = ((state.parked as i64) + d.parked).max(0) as u64;
        state.now = state.now.max(d.last_at);
        state.fault_counters.merge(&report.fc);
        next_min_at = fold_min(next_min_at, report.queue_min_at);
        next_min_at = fold_min(next_min_at, report.outbound_min_at);
    }
    if let [report] = reports {
        for entry in report.out.journal.drain(..) {
            state.replay(entry);
        }
        return next_min_at;
    }
    let mut heads: Vec<_> = reports
        .iter_mut()
        .map(|r| r.out.journal.drain(..).peekable())
        .collect();
    // A linear scan of k heads per entry beats heap bookkeeping for the
    // small slice counts in play.
    while let Some(i) = (0..heads.len())
        .filter_map(|i| heads[i].peek().map(|e| (e.key(), i)))
        .min()
        .map(|(_, i)| i)
    {
        let Some(entry) = heads[i].next() else { break };
        state.replay(entry);
    }
    next_min_at
}

/// How events cross between slices at a window boundary — the per-host
/// hook of the in-process barriers. `ingest` and `publish` run on the
/// slice's own thread; `settle` runs on the coordinator while every
/// slice is idle.
pub trait Exchange: Sync {
    /// A window opens: queue everything addressed to slice `me` on
    /// `shard`.
    fn ingest(&self, me: usize, shard: &mut Shard);
    /// Slice `me` finished its window: take its report's `outbound`
    /// buffers (indexed by destination slice).
    fn publish(&self, me: usize, report: &mut WindowReport);
    /// All slices are idle: finish what `publish` could not, and return
    /// the earliest delivery time of anything still inside the fabric.
    /// Also called once before a run's first window.
    fn settle(&self) -> Option<u64>;
}

/// Per-slice mailboxes of events: the simulator's whole exchange, and
/// the staging area of any fabric that decodes into events. Each slice
/// has two buffers, the one neighbours post into and the one its owner
/// last took; a collect swaps them, so steady-state mail allocates
/// nothing.
#[derive(Debug)]
pub struct Mailboxes(Vec<[Mutex<Vec<Event>>; 2]>);

impl Mailboxes {
    /// One empty mailbox per slice.
    pub fn new(slices: usize) -> Self {
        Mailboxes((0..slices).map(|_| Default::default()).collect())
    }

    /// Leaves events for slice `dest`'s next [`Mailboxes::collect`].
    pub fn post(&self, dest: usize, events: impl IntoIterator<Item = Event>) {
        lock(&self.0[dest][0]).extend(events);
    }

    /// Moves slice `me`'s mail onto its queue. A neighbour that finished
    /// its window early may already be posting the next one's mail, so
    /// the posted buffer is only locked for the swap; the taken one is
    /// `me`'s alone.
    pub fn collect(&self, me: usize, shard: &mut Shard) {
        let [posted, taken] = &self.0[me];
        let mut taken = lock(taken);
        std::mem::swap(&mut *lock(posted), &mut *taken);
        for ev in taken.drain(..) {
            shard.queue.push(ev);
        }
    }

    /// Earliest delivery time of any uncollected event, µs.
    pub fn min_at(&self) -> Option<u64> {
        let min_of = |mb: &Mutex<Vec<Event>>| lock(mb).iter().map(|e| e.at.as_micros()).min();
        self.0
            .iter()
            .map(|[posted, _]| min_of(posted))
            .fold(None, fold_min)
    }

    /// After a run: returns mail a deadline, budget or abort stop left
    /// uncollected to the owning queues.
    pub fn flush_into(&self, slices: &mut [Shard]) {
        for (me, shard) in slices.iter_mut().enumerate() {
            self.collect(me, shard);
        }
    }
}

impl Exchange for Mailboxes {
    fn ingest(&self, me: usize, shard: &mut Shard) {
        self.collect(me, shard);
    }

    fn publish(&self, _me: usize, report: &mut WindowReport) {
        // Destination workers won't look at their mailboxes until the
        // next generation opens.
        for (dest, evs) in report.out.outbound.iter_mut().enumerate() {
            if !evs.is_empty() {
                self.post(dest, evs.drain(..));
            }
        }
    }

    fn settle(&self) -> Option<u64> {
        // `outbound_min_at` in the reports already covers the mail.
        None
    }
}

/// The inline barrier: one slice, run on the caller's thread.
struct Inline<'a> {
    shard: &'a mut Shard,
    env: &'a RunEnv<'a>,
    exchange: &'a dyn Exchange,
    /// The previous window's report (none before the first).
    report: Vec<WindowReport>,
}

impl Barrier for Inline<'_> {
    fn cross(&mut self, window: &Window) -> Result<(&mut [WindowReport], Option<u64>)> {
        let reuse = self.report.pop().map(|mut r| {
            r.recycle();
            r
        });
        self.exchange.ingest(0, self.shard);
        let mut report = self.shard.run_window(self.env, window, reuse);
        self.exchange.publish(0, &mut report);
        self.report.push(report);
        let in_fabric = self.exchange.settle();
        Ok((&mut self.report, in_fabric))
    }
}

/// Shared coordination block between the window coordinator and the
/// per-slice worker threads. One generation = one window. Both barrier
/// directions park instead of spinning ([`EpochGate`]): with more
/// worker threads than free cores, a spinning barrier turns every
/// window into a scheduler fight.
#[derive(Default)]
struct Ctl {
    /// Window generation; the coordinator bumps it to start a window.
    generation: EpochGate,
    /// Cumulative count of worker window completions.
    done: EpochGate,
    /// Set once the run ends; workers exit.
    stop: AtomicBool,
    /// The open [`Window`], field by field.
    window: [AtomicU64; 4],
}

/// Worker body for one slice. Runs until `stop`: parks for the next
/// generation, ingests from the exchange, executes the window with its
/// recycled report, publishes, and signals completion.
fn slice_worker(
    shard: &mut Shard,
    env: &RunEnv<'_>,
    ctl: &Ctl,
    exchange: &dyn Exchange,
    slots: &[Mutex<Option<WindowReport>>],
) {
    let me = shard.idx();
    let mut seen = 0u64;
    loop {
        // Park until the next window (or shutdown) opens.
        ctl.generation.wait_min(seen + 1);
        if ctl.stop.load(Ordering::Acquire) {
            return;
        }
        seen += 1;
        exchange.ingest(me, shard);
        // The coordinator returned last window's emptied report through
        // our slot (None on the first window).
        let reuse = {
            let mut slot = lock(&slots[me]);
            slot.take()
        };
        let [start_us, end_us, clip_us, budget] =
            [0, 1, 2, 3].map(|i| ctl.window[i].load(Ordering::Acquire));
        let window = Window {
            start_us,
            end_us,
            clip_us,
            budget,
        };
        let mut report = shard.run_window(env, &window, reuse);
        exchange.publish(me, &mut report);
        *lock(&slots[me]) = Some(report);
        ctl.done.add(1);
    }
}

/// The thread barrier's coordinator side.
struct Gate<'a> {
    ctl: &'a Ctl,
    slots: &'a [Mutex<Option<WindowReport>>],
    exchange: &'a dyn Exchange,
    reports: Vec<WindowReport>,
    expected_done: u64,
}

impl Barrier for Gate<'_> {
    fn cross(&mut self, window: &Window) -> Result<(&mut [WindowReport], Option<u64>)> {
        // Hand the merged reports back through the slots so this window
        // reuses their buffers.
        for (slot, mut report) in self.slots.iter().zip(self.reports.drain(..)) {
            report.recycle();
            *lock(slot) = Some(report);
        }
        let fields = [
            window.start_us,
            window.end_us,
            window.clip_us,
            window.budget,
        ];
        for (cell, v) in self.ctl.window.iter().zip(fields) {
            cell.store(v, Ordering::Relaxed);
        }
        // The gate's internal lock publishes the Relaxed stores above to
        // workers woken by this bump.
        self.ctl.generation.add(1);
        self.expected_done += self.slots.len() as u64;
        self.ctl.done.wait_min(self.expected_done);
        for slot in self.slots {
            // A missing report means its worker died (actor panic);
            // leaving the scope joins the workers and propagates it.
            let report = lock(slot).take();
            self.reports
                .push(report.ok_or_else(|| Error::Protocol("a slice worker died".into()))?);
        }
        let in_fabric = self.exchange.settle();
        Ok((&mut self.reports, in_fabric))
    }
}

/// A world of devices partitioned into slices: registration and the
/// in-process run. Both `Simulation` and the live engine wrap one, so a
/// simulated and a live world built from the same seed and the same
/// registration calls draw identical random streams and assign
/// identical event keys.
pub struct World {
    /// The slices: device `d` lives on slice `d.index() % slices.len()`.
    pub slices: Vec<Shard>,
    /// The global accumulators.
    pub state: RunState,
    device_count: usize,
}

impl World {
    /// An empty world of `slices` slices (0 is treated as 1).
    pub fn new(
        slices: usize,
        lookahead_us: u64,
        max_events: u64,
        trace_capacity: usize,
        seed: u64,
    ) -> Self {
        let n = slices.max(1);
        let root = DetRng::new(seed);
        World {
            slices: (0..n)
                .map(|i| Shard::new(i, n, lookahead_us.max(1), root.clone()))
                .collect(),
            state: RunState::new(lookahead_us, max_events, trace_capacity),
            device_count: 0,
        }
    }

    /// Number of registered devices.
    pub fn device_count(&self) -> usize {
        self.device_count
    }

    /// Makes room for `devices` more [`World::add_device`] calls, so a
    /// host that knows its enrolment's length grows nothing while it
    /// registers.
    pub fn reserve(&mut self, devices: usize) {
        let per_slice = devices.div_ceil(self.slices.len());
        for shard in &mut self.slices {
            shard.reserve(per_slice);
        }
    }

    /// A registered device's state.
    pub fn device(&self, id: DeviceId) -> &DeviceState {
        self.slices[id.index() % self.slices.len()].device(id)
    }

    /// Registers a device; returns its id. Its state and first events
    /// are derived from the world seed and the id alone
    /// ([`Shard::reset`] derives them again).
    pub fn add_device(&mut self, cfg: DeviceConfig) -> DeviceId {
        let id = DeviceId::new(self.device_count as u64);
        self.device_count += 1;
        let s = id.index() % self.slices.len();
        self.state.real_pending += self.slices[s].derive(id, cfg, None, self.state.now);
        id
    }

    /// Installs an actor on a device; its `on_start` runs at the current
    /// virtual time once the world is stepped. Install order is part of
    /// the deterministic contract (it consumes per-device sequence
    /// numbers).
    pub fn install_actor(&mut self, device: DeviceId, actor: Box<dyn Actor>) {
        let now = self.state.now;
        let slice = self.slice_of(device);
        let state = slice.device_mut(device);
        assert!(
            state.actor.is_none(),
            "device {device} already has an actor"
        );
        state.actor = Some(actor);
        slice.schedule(device, now, EventKind::Start(device));
        self.state.real_pending += 1;
    }

    /// Schedules a scripted crash (the demo's "power off a device").
    pub fn crash_at(&mut self, device: DeviceId, at: SimTime) {
        let at = at.max(self.state.now);
        let slice = self.slice_of(device);
        slice.scripted.push((device, at));
        slice.schedule(device, at, EventKind::Crash(device, CrashCause::Organic));
        self.state.real_pending += 1;
    }

    fn slice_of(&mut self, device: DeviceId) -> &mut Shard {
        let n = self.slices.len();
        &mut self.slices[device.index() % n]
    }

    /// Earliest pending event time across every slice's queue, µs.
    pub fn pending_min(&mut self) -> Option<u64> {
        self.slices
            .iter_mut()
            .map(Shard::pending_min)
            .fold(None, fold_min)
    }

    /// Runs windows in this process until [`drive`] returns: inline for
    /// one slice, on one scoped thread per slice otherwise. Events cross
    /// between slices — and, if the host says so in `env`, every
    /// delivery crosses — through `exchange`.
    pub fn run(
        &mut self,
        env: &RunEnv<'_>,
        exchange: &dyn Exchange,
        deadline: SimTime,
        abort: Option<&AtomicBool>,
    ) -> Result<ExitReason> {
        self.state.min_at = fold_min(self.pending_min(), exchange.settle());
        let state = &mut self.state;
        if let [shard] = &mut self.slices[..] {
            let mut inline = Inline {
                shard,
                env,
                exchange,
                report: Vec::with_capacity(1),
            };
            return drive(state, &mut inline, deadline, abort);
        }
        let ctl = Ctl::default();
        let slots: Vec<Mutex<Option<WindowReport>>> =
            self.slices.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for shard in self.slices.iter_mut() {
                let (ctl, slots) = (&ctl, &slots[..]);
                scope.spawn(move || slice_worker(shard, env, ctl, exchange, slots));
            }
            let mut gate = Gate {
                ctl: &ctl,
                slots: &slots,
                exchange,
                reports: Vec::with_capacity(slots.len()),
                expected_done: 0,
            };
            let exit = drive(state, &mut gate, deadline, abort);
            ctl.stop.store(true, Ordering::Release);
            // Wake parked workers so they observe `stop` and exit.
            ctl.generation.add(1);
            exit
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    const L: u64 = 10;

    /// One scripted crossing: what the slices "report" back.
    struct Step {
        events: u64,
        real_pending: i64,
        queue_min_at: Option<u64>,
        in_fabric: Option<u64>,
    }

    /// A barrier that replays a script and records the windows it was
    /// asked to cross; past the script's end it fails.
    struct Scripted {
        script: std::vec::IntoIter<Step>,
        crossed: Vec<Window>,
        reports: Vec<WindowReport>,
    }

    impl Scripted {
        fn new(script: Vec<Step>) -> Self {
            Scripted {
                script: script.into_iter(),
                crossed: Vec::new(),
                reports: Vec::new(),
            }
        }
    }

    impl Barrier for Scripted {
        fn cross(&mut self, window: &Window) -> Result<(&mut [WindowReport], Option<u64>)> {
            self.crossed.push(*window);
            let step = self
                .script
                .next()
                .ok_or_else(|| Error::Protocol("socket severed".into()))?;
            let deltas = Deltas {
                events: step.events,
                real_pending: step.real_pending,
                ..Deltas::default()
            };
            self.reports = vec![WindowReport::from_remote(
                deltas,
                Vec::new(),
                step.queue_min_at,
                false,
            )];
            Ok((&mut self.reports, step.in_fabric))
        }
    }

    fn state(min_at: Option<u64>, real_pending: u64) -> RunState {
        let mut state = RunState::new(L, 100, 0);
        state.min_at = min_at;
        state.real_pending = real_pending;
        state
    }

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn checks_run_in_order_abort_quiescent_deadline_budget() {
        let raised = AtomicBool::new(true);
        // Abort wins over a drained world.
        let mut s = state(None, 0);
        let mut b = Scripted::new(vec![]);
        let exit = drive(&mut s, &mut b, at(50), Some(&raised));
        assert_eq!(exit, Ok(ExitReason::Aborted));
        assert_eq!(s.now, SimTime::ZERO, "an abort leaves virtual time alone");
        // Quiescence wins over the deadline: only churn is left, past it.
        let mut s = state(Some(70), 0);
        assert_eq!(
            drive(&mut s, &mut b, at(50), None),
            Ok(ExitReason::Quiescent)
        );
        assert_eq!(s.now, at(50), "a drained run ends at its deadline");
        // The deadline wins over an exhausted budget.
        let mut s = state(Some(70), 3);
        s.metrics.events_processed = s.max_events;
        assert_eq!(
            drive(&mut s, &mut b, at(50), None),
            Ok(ExitReason::Deadline)
        );
        assert_eq!(s.now, at(50));
        // The budget stops a run that could otherwise open a window.
        let mut s = state(Some(40), 3);
        s.metrics.events_processed = s.max_events;
        assert_eq!(drive(&mut s, &mut b, at(50), None), Ok(ExitReason::Budget));
        assert!(b.crossed.is_empty(), "no check above crossed the barrier");
    }

    #[test]
    fn an_interrupted_window_is_finished_before_quiescence_is_judged() {
        // A previous run opened [45, 55) and stopped at deadline 50 with
        // an event at 52 left in it. Nothing but that is pending, and it
        // does not count toward `real_pending` (a churn toggle): judged
        // now the world would be quiescent, and the event would be
        // processed or not depending on where the deadline fell.
        let mut s = state(Some(52), 0);
        s.cell_open_until = 55;
        let mut b = Scripted::new(vec![Step {
            events: 1,
            real_pending: 0,
            queue_min_at: Some(90),
            in_fabric: None,
        }]);
        assert_eq!(
            drive(&mut s, &mut b, at(1_000), None),
            Ok(ExitReason::Quiescent)
        );
        assert_eq!(b.crossed.len(), 1, "the open window's remainder ran");
        assert_eq!(b.crossed[0].start_us, 52);
        // 90 is past the window just closed: a fresh boundary, so now
        // quiescence holds.
        assert_eq!((s.min_at, s.cell_open_until), (Some(90), 62));
    }

    #[test]
    fn windows_span_one_lookahead_and_carry_the_remaining_budget() {
        let mut s = state(Some(5), 2);
        let mut b = Scripted::new(vec![
            Step {
                events: 7,
                real_pending: 1,
                queue_min_at: Some(40),
                // The fabric holds something earlier than any queue.
                in_fabric: Some(31),
            },
            Step {
                events: 4,
                real_pending: -3,
                queue_min_at: None,
                in_fabric: None,
            },
        ]);
        assert_eq!(
            drive(&mut s, &mut b, at(60), None),
            Ok(ExitReason::Quiescent)
        );
        let window = |start_us, budget| Window {
            start_us,
            end_us: start_us + L,
            clip_us: 60,
            budget,
        };
        assert_eq!(b.crossed, [window(5, 100), window(31, 100 - 7)]);
        assert_eq!(s.metrics.events_processed, 11);
        assert_eq!((s.real_pending, s.min_at), (0, None));
    }

    #[test]
    fn a_barrier_error_surfaces_unchanged() {
        let mut s = state(Some(5), 1);
        let mut b = Scripted::new(vec![]);
        assert_eq!(
            drive(&mut s, &mut b, at(60), None),
            Err(Error::Protocol("socket severed".into()))
        );
        assert_eq!(b.crossed.len(), 1);
    }

    #[test]
    fn journals_merge_in_key_order_whichever_slice_wrote_them() {
        let entry = |at_us, origin, seq, intra| JEntry {
            at: at(at_us),
            origin,
            seq,
            intra,
            item: JItem::Trace(TraceEvent::TimerFired {
                device: DeviceId::new(origin),
                token: seq,
            }),
        };
        let order = |slices: [Vec<JEntry>; 2]| {
            let mut world = World::new(2, L, 100, 16, 1);
            let mut reports: Vec<_> = slices
                .into_iter()
                .map(|j| WindowReport::from_remote(Deltas::default(), j, None, false))
                .collect();
            merge_reports(&mut reports, &mut world.state);
            assert!(reports.iter().all(|r| r.out.journal.is_empty()));
            world.state.trace.digest()
        };
        let (a, b, c, d) = (
            entry(1, 0, 0, 0),
            entry(1, 0, 0, 1),
            entry(1, 1, 0, 0),
            entry(2, 0, 1, 0),
        );
        let split = order([vec![a.clone(), b.clone(), d.clone()], vec![c.clone()]]);
        assert_eq!(
            split,
            order([vec![c.clone()], vec![a.clone(), b.clone(), d.clone()]])
        );
        assert_eq!(split, order([vec![a, b, c, d], vec![]]));
    }
}
