//! The daemon side of the multi-process deployment: connection
//! acceptance, the worker registry, and the window coordinator that
//! plugs into [`edgelet_live::QueryService`] as its
//! [`RemoteExecutor`].
//!
//! # Control loop
//!
//! `edgelet serve` binds a [`Listener`] and runs:
//!
//! * an **accept thread** that hands each connection to a short-lived
//!   handshake thread;
//! * per-connection **handshake threads** that validate the versioned
//!   `Hello` (reject on frame/envelope/protocol version mismatch),
//!   assign workers the lowest free registry slot, and park the
//!   registered stream — or queue client submissions for the host;
//! * a **deadline sweeper** over a real [`TimerHeap`]: a connection
//!   that has not completed its handshake by the deadline is shut
//!   down, unblocking its handler.
//!
//! # The coordinator
//!
//! [`Daemon::try_run`] runs the shared window decision loop
//! ([`edgelet_sim::exec::drive`]) and the shared barrier merge over a
//! third [`Barrier`]: one `OpenWindow`/`RoundDone` round-trip per
//! worker, with envelope relay in place of a shared transport, every
//! epoch from the `CoordinatorTemplate` the daemon's one world build
//! left. A fault plan rides in the world: each worker evaluates it on
//! its own slice, so the relay forwards what it is given. The
//! parity argument is DESIGN.md §"One executor, three barriers"; the
//! proof-by-test is `tests/net_parity.rs`.
//!
//! # Failure = fallback
//!
//! Any socket error mid-epoch drops every taken worker connection
//! (workers observe EOF and reconnect with backoff) and returns
//! `Some(Err(..))`, which the service answers with a deterministic
//! in-process rerun of the same epoch — the `kill -9` takeover drill
//! in CI exercises exactly this path.

use crate::conn::{Addr, Listener, MsgStream, Stream, TimerHeap};
use crate::proto::{NetMsg, Role, WireRecord, PROTO_VERSION, SLOTS_TAKEN};
use edgelet_exec::{roles::querier::QuerierRecord, GroupingQuery};
use edgelet_live::{ExitReason, LiveRun, PreparedQuery, RemoteExecutor};
use edgelet_query::{PrivacyConfig, QueryPlan, QuerySpec, ResilienceConfig};
use edgelet_sim::exec::{drive, fold_min, Barrier, RunState, Window, WindowReport};
use edgelet_sim::SimTime;
use edgelet_util::{Error, Result};
use edgelet_wire::{from_bytes, Envelope};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Builds the fully-prepared live world for one epoch from canonical
/// world-spec bytes.
///
/// Both the daemon and every worker process run the same builder over
/// the same bytes, so all of them hold bit-identical worlds (same
/// seed, same device order, same RNG fork schedule, same actor install
/// order) — the foundation the relay protocol's parity rests on. The
/// socket layer never interprets the bytes; the host (the CLI) defines
/// their encoding.
pub trait WorldBuilder: Send + Sync {
    /// Builds the world for `epoch`, sliced for `workers` processes.
    ///
    /// `epoch` may only be stamped on what the world sends; it must never
    /// shape the world — plan, devices, actors, seeds and pending events
    /// are a function of `spec` and `workers` alone. The daemon builds
    /// once and starts every epoch from a `CoordinatorTemplate`; a worker
    /// builds once per (`spec`, `workers`, its index) and resets the
    /// slice it kept for every later epoch (a world `prepare_live_query`
    /// did not make is built every epoch).
    fn build(&self, spec: &[u8], epoch: u64, workers: usize) -> Result<PreparedQuery>;
}

/// The coordinator's share of a built world: the plan, the report's
/// sliced queries and the decision loop's starting point. None of it
/// depends on the epoch, so one serves every epoch of a daemon.
#[derive(Debug)]
struct CoordinatorTemplate {
    plan: QueryPlan,
    sliced_queries: Vec<GroupingQuery>,
    real_pending: u64,
    min_at: Option<u64>,
    lookahead_us: u64,
    max_events: u64,
    trace_capacity: usize,
    /// The configs the plan was made under, when the build recorded them.
    configs: Option<(PrivacyConfig, ResilienceConfig)>,
}

impl CoordinatorTemplate {
    /// Keeps the coordinator's share of `prepared`; slices, actors and that
    /// build's ledger and record handles go (workers hold the real ones).
    fn of(prepared: PreparedQuery) -> Self {
        let inputs = prepared.engine.prepared_from();
        let configs = inputs.map(|i| (i.privacy().clone(), i.resilience().clone()));
        let mut parts = prepared.engine.into_parts();
        CoordinatorTemplate {
            configs,
            plan: prepared.plan,
            sliced_queries: prepared.assembly.sliced_queries,
            min_at: parts.world.pending_min(),
            real_pending: parts.world.state.real_pending,
            lookahead_us: parts.world.state.lookahead_us,
            max_events: parts.world.state.max_events,
            trace_capacity: parts.config.trace_capacity,
        }
    }
}

/// Daemon configuration.
#[derive(Clone)]
pub struct NetConfig {
    /// Worker processes the coordinator waits for before running an
    /// epoch remotely (fewer registered → local fallback).
    pub expected_workers: usize,
    /// Handshake completion deadline per connection.
    pub handshake_timeout: Duration,
    /// Per-message receive timeout during an epoch (`RoundDone`,
    /// `QueryDone`); world construction gets `prepare_timeout`.
    pub io_timeout: Duration,
    /// `Ready` deadline after `Prepare` (world building takes a while).
    pub prepare_timeout: Duration,
    /// Canonical world-spec bytes this daemon serves.
    pub world_spec: Vec<u8>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            expected_workers: 1,
            handshake_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_secs(60),
            prepare_timeout: Duration::from_secs(120),
            world_spec: Vec::new(),
        }
    }
}

/// One client submission pulled off a connection: the opaque spec
/// bytes plus the stream to answer on.
pub struct Submission {
    /// The client's world-spec bytes, verbatim.
    pub spec: Vec<u8>,
    stream: MsgStream,
}

impl Submission {
    /// Answers the client and closes the connection.
    pub fn respond(mut self, artifact: Vec<u8>) {
        self.stream.send(&NetMsg::SubmitResp { artifact }).ok();
        self.stream.shutdown();
    }

    /// Refuses the submission with a reason and closes the connection.
    pub fn reject(mut self, reason: String) {
        self.stream.send(&NetMsg::Reject { reason }).ok();
        self.stream.shutdown();
    }
}

/// Shared daemon state.
struct DaemonShared {
    /// Registered worker connections by slot; `None` = free.
    registry: Mutex<Vec<Option<MsgStream>>>,
    registry_cv: Condvar,
    /// Client submissions awaiting the host.
    submissions: Mutex<VecDeque<Submission>>,
    submissions_cv: Condvar,
    /// Handshake deadlines: token → shutdown handle for the pending
    /// connection.
    deadlines: Mutex<TimerHeap<Stream>>,
    deadlines_cv: Condvar,
    shutdown: AtomicBool,
    /// Total workers ever registered (observability).
    registrations: AtomicU64,
    /// Sessions rejected during handshake (observability).
    rejections: AtomicU64,
}

/// The daemon: accept loop, worker registry, and window coordinator.
pub struct Daemon {
    shared: Arc<DaemonShared>,
    config: NetConfig,
    builder: Arc<dyn WorldBuilder>,
    template: Mutex<Option<Arc<CoordinatorTemplate>>>,
    addr: Addr,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    sweeper_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Daemon {
    /// Binds `addr` and starts the accept and sweeper threads.
    pub fn start(addr: &Addr, config: NetConfig, builder: Arc<dyn WorldBuilder>) -> Result<Daemon> {
        let listener = Listener::bind(addr)?;
        let bound = listener.local_addr()?;
        let shared = Arc::new(DaemonShared {
            registry: Mutex::new((0..config.expected_workers).map(|_| None).collect()),
            registry_cv: Condvar::new(),
            submissions: Mutex::new(VecDeque::new()),
            submissions_cv: Condvar::new(),
            deadlines: Mutex::new(TimerHeap::new()),
            deadlines_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            registrations: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let handshake_timeout = config.handshake_timeout;
        let accept_thread = std::thread::Builder::new()
            .name("net-accept".into())
            .spawn(move || {
                accept_loop(listener, accept_shared, handshake_timeout);
            })
            .map_err(|e| Error::Protocol(format!("spawn accept thread: {e}")))?;
        let sweeper_shared = Arc::clone(&shared);
        let sweeper_thread = std::thread::Builder::new()
            .name("net-deadline-sweeper".into())
            .spawn(move || sweeper_loop(sweeper_shared))
            .map_err(|e| Error::Protocol(format!("spawn sweeper thread: {e}")))?;
        Ok(Daemon {
            shared,
            config,
            builder,
            template: Mutex::new(None),
            addr: bound,
            accept_thread: Mutex::new(Some(accept_thread)),
            sweeper_thread: Mutex::new(Some(sweeper_thread)),
        })
    }

    /// The address the daemon is actually listening on.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Number of workers currently registered.
    pub fn registered_workers(&self) -> usize {
        lock(&self.shared.registry)
            .iter()
            .filter(|s| s.is_some())
            .count()
    }

    /// Total worker registrations accepted so far (reconnects count).
    pub fn total_registrations(&self) -> u64 {
        self.shared.registrations.load(Ordering::Relaxed)
    }

    /// Sessions rejected during handshake so far.
    pub fn total_rejections(&self) -> u64 {
        self.shared.rejections.load(Ordering::Relaxed)
    }

    /// Blocks until all expected workers are registered, or `timeout`.
    pub fn wait_workers(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut reg = lock(&self.shared.registry);
        loop {
            if reg.iter().all(|s| s.is_some()) {
                return true;
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                return false;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let (g, _) = self
                .shared
                .registry_cv
                .wait_timeout(reg, left)
                .unwrap_or_else(|e| e.into_inner());
            reg = g;
        }
    }

    /// Pulls the next client submission, blocking up to `timeout`.
    pub fn next_submission(&self, timeout: Duration) -> Option<Submission> {
        let deadline = Instant::now() + timeout;
        let mut q = lock(&self.shared.submissions);
        loop {
            if let Some(s) = q.pop_front() {
                return Some(s);
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                return None;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (g, _) = self
                .shared
                .submissions_cv
                .wait_timeout(q, left)
                .unwrap_or_else(|e| e.into_inner());
            q = g;
        }
    }

    /// Stops the accept loop, closes every registered connection, and
    /// joins the daemon threads.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept thread with a throwaway connection.
        Stream::connect(&self.addr).ok();
        self.shared.deadlines_cv.notify_all();
        self.shared.registry_cv.notify_all();
        self.shared.submissions_cv.notify_all();
        // Take every stream and both thread handles out under their
        // locks, then close/join outside them: a socket shutdown or a
        // join must never stall a handshake contending for the lock.
        let mut streams = Vec::new();
        {
            let mut reg = lock(&self.shared.registry);
            for slot in reg.iter_mut() {
                if let Some(s) = slot.take() {
                    streams.push(s);
                }
            }
        }
        for s in streams {
            s.shutdown();
        }
        let accept = { lock(&self.accept_thread).take() };
        if let Some(h) = accept {
            h.join().ok();
        }
        let sweeper = { lock(&self.sweeper_thread).take() };
        if let Some(h) = sweeper {
            h.join().ok();
        }
    }

    /// Takes every registered worker stream out of the registry,
    /// probing each with a `Ping` (half-open detection: a worker that
    /// was killed leaves a dead socket behind; the probe surfaces it
    /// now rather than mid-epoch). Returns `None` unless all
    /// `expected_workers` slots hold live connections.
    fn take_live_workers(&self) -> Option<Vec<MsgStream>> {
        let mut taken: Vec<(usize, MsgStream)> = {
            let mut reg = lock(&self.shared.registry);
            if reg.iter().any(|s| s.is_none()) {
                return None;
            }
            reg.iter_mut()
                .enumerate()
                .map(|(i, s)| (i, s.take().expect("checked non-empty")))
                .collect()
        };
        let nonce = self.shared.registrations.load(Ordering::Relaxed) ^ 0x6e65_745f_7069_6e67;
        let live: Vec<bool> = taken
            .iter_mut()
            .map(|(_, stream)| {
                stream.send(&NetMsg::Ping { nonce }).is_ok()
                    && matches!(
                        stream.recv(Some(self.config.io_timeout)),
                        Ok(NetMsg::Pong { nonce: n }) if n == nonce
                    )
            })
            .collect();
        if live.iter().all(|&l| l) {
            return Some(taken.into_iter().map(|(_, s)| s).collect());
        }
        // A stream that failed the probe is dropped here, so its slot
        // stays free for a reconnecting or replacement worker; the live
        // ones return to their slots.
        let mut reg = lock(&self.shared.registry);
        for ((i, stream), live) in taken.into_iter().zip(live) {
            if live && reg[i].is_none() {
                reg[i] = Some(stream);
            }
        }
        drop(reg);
        None
    }

    /// Returns worker streams to their registry slots after a
    /// successful epoch.
    fn return_workers(&self, streams: Vec<MsgStream>) {
        let mut reg = lock(&self.shared.registry);
        for (slot, stream) in reg.iter_mut().zip(streams) {
            *slot = Some(stream);
        }
        drop(reg);
        self.shared.registry_cv.notify_all();
    }

    /// The template, built now if no earlier epoch left one (a failed
    /// build leaves none either). A `spec` other than the canonical query,
    /// or configs other than the ones its plan was made under (when the
    /// build recorded them), is refused: the template's plan is the only
    /// one the workers run.
    fn template_for(
        &self,
        spec: &QuerySpec,
        privacy: &PrivacyConfig,
        resilience: &ResilienceConfig,
        epoch: u64,
    ) -> Result<Arc<CoordinatorTemplate>> {
        let kept = { lock(&self.template).clone() };
        let template = match kept {
            Some(template) => template,
            None => {
                // Built outside the lock; of two first epochs racing here
                // the earlier template stays, and they are equal.
                let (world, workers) = (&self.config.world_spec, self.config.expected_workers);
                let built = Arc::new(CoordinatorTemplate::of(
                    self.builder.build(world, epoch, workers)?,
                ));
                lock(&self.template).get_or_insert(built).clone()
            }
        };
        let configs = template.configs.as_ref();
        if *spec != template.plan.spec
            || configs.is_some_and(|(p, r)| (p, r) != (privacy, resilience))
        {
            return Err(Error::InvalidQuery(format!(
                "query {} under these configs is not the canonical query this daemon serves",
                spec.id
            )));
        }
        Ok(template)
    }

    /// The distributed run of one epoch; `Err` here means "fall back to
    /// the in-process path" (the caller drops the worker streams
    /// first).
    fn run_distributed(
        &self,
        epoch: u64,
        template: &CoordinatorTemplate,
        workers: &mut [MsgStream],
        abort: &AtomicBool,
    ) -> Result<LiveRun> {
        let worker_count = workers.len();
        for (i, stream) in workers.iter_mut().enumerate() {
            stream.send(&NetMsg::Prepare {
                epoch,
                spec: self.config.world_spec.clone(),
                worker_count: worker_count as u32,
                worker_index: i as u32,
            })?;
        }

        // This epoch's state: the template's starting point, no charges.
        let plan = template.plan.clone();
        let deadline =
            SimTime::ZERO + edgelet_sim::Duration::from_secs_f64(plan.spec.deadline_secs);
        let mut state = RunState::new(
            template.lookahead_us,
            template.max_events,
            template.trace_capacity,
        );
        state.real_pending = template.real_pending;
        state.min_at = template.min_at;
        let mut ledger = edgelet_exec::Ledger::default();

        // Await all Ready acks.
        for stream in workers.iter_mut() {
            match stream.recv(Some(self.config.prepare_timeout))? {
                NetMsg::Ready { epoch: e } if e == epoch => {}
                NetMsg::Reject { reason } => {
                    return Err(Error::Protocol(format!(
                        "worker rejected prepare: {reason}"
                    )))
                }
                other => return Err(Error::Protocol(format!("expected Ready, got {other:?}"))),
            }
        }

        let mut barrier = SocketBarrier {
            epoch,
            io_timeout: self.config.io_timeout,
            pending_relay: vec![Vec::new(); workers.len()],
            reports: Vec::with_capacity(workers.len()),
            workers: &mut *workers,
        };
        let exit = drive(&mut state, &mut barrier, deadline, Some(abort))?;
        let (metrics, trace) = (state.metrics, state.trace);
        let mut final_record: Option<WireRecord> = None;

        // Teardown: collect every worker's final partials.
        let bye = if exit == ExitReason::Aborted {
            NetMsg::Abort { epoch }
        } else {
            NetMsg::Finish { epoch }
        };
        for stream in workers.iter_mut() {
            stream.send(&bye)?;
        }
        for stream in workers.iter_mut() {
            match stream.recv(Some(self.config.io_timeout))? {
                NetMsg::QueryDone {
                    epoch: e,
                    ledger: partial,
                    record,
                } if e == epoch => {
                    // Ledger charges are per-device and devices are
                    // disjoint across workers, so merging partials in
                    // worker order reconstructs the global ledger
                    // exactly.
                    ledger.merge(&from_bytes::<edgelet_exec::Ledger>(&partial)?);
                    if let Some(r) = record {
                        final_record = Some(r);
                    }
                }
                other => {
                    return Err(Error::Protocol(format!(
                        "expected QueryDone, got {other:?}"
                    )))
                }
            }
        }
        let wire = final_record
            .ok_or_else(|| Error::Protocol("no worker reported the querier record".into()))?;
        let record = QuerierRecord {
            payload: wire.payload,
            completed_at: wire.completed_at_us.map(SimTime::from_micros),
            partitions_merged: wire.partitions_merged,
            partitions_complete: wire.partitions_complete,
            winning_replica: wire.winning_replica,
            results_received: wire.results_received,
        };
        let report = edgelet_exec::finish_report(
            &plan,
            &template.sliced_queries,
            &Arc::new(Mutex::new(record)),
            &Arc::new(Mutex::new(ledger)),
            &metrics,
        )?;
        let trace_digest = trace.enabled().then(|| trace.digest());
        let trace_records = trace.records().cloned().collect();
        Ok(LiveRun {
            plan,
            report,
            trace_digest,
            trace: trace_records,
            exit,
        })
    }
}

/// The socket barrier: one `OpenWindow`/`RoundDone` round-trip per
/// worker, with the daemon relaying every envelope that leaves a worker.
struct SocketBarrier<'a> {
    epoch: u64,
    io_timeout: Duration,
    workers: &'a mut [MsgStream],
    /// Relayed envelopes awaiting each worker's next `OpenWindow`.
    pending_relay: Vec<Vec<Envelope>>,
    reports: Vec<WindowReport>,
}

impl Barrier for SocketBarrier<'_> {
    fn cross(&mut self, window: &Window) -> Result<(&mut [WindowReport], Option<u64>)> {
        let epoch = self.epoch;
        for (stream, relay) in self.workers.iter_mut().zip(&mut self.pending_relay) {
            if !relay.is_empty() {
                stream.send(&NetMsg::Envelopes {
                    epoch,
                    batch: std::mem::take(relay),
                })?;
            }
            stream.send(&NetMsg::OpenWindow {
                epoch,
                window_end_us: window.end_us,
                clip_us: window.clip_us,
                budget: window.budget,
            })?;
        }
        // Collect every worker's round, in worker order.
        self.reports.clear();
        let mut relay_min: Option<u64> = None;
        for stream in self.workers.iter_mut() {
            let round = match stream.recv(Some(self.io_timeout))? {
                NetMsg::RoundDone { epoch: e, round } if e == epoch => round,
                other => {
                    return Err(Error::Protocol(format!(
                        "expected RoundDone, got {other:?}"
                    )))
                }
            };
            // Relay the worker's outgoing envelopes. Event keys are
            // globally unique, so arrival order across workers cannot
            // affect the destination queue's ordering.
            for env in round.outgoing {
                relay_min = fold_min(relay_min, Some(env.deliver_at_us));
                let dest = env.to.index() % self.pending_relay.len();
                self.pending_relay[dest].push(env);
            }
            self.reports.push(WindowReport::from_remote(
                round.deltas,
                round.journal,
                round.pending_min,
                round.hit_budget,
            ));
        }
        Ok((&mut self.reports, relay_min))
    }
}

/// Only the canonical submission runs remotely: its `QuerySpec`, and the
/// `privacy` and `resilience` its plan was made under, which
/// `prepare_live_query` records on the world it builds. Anything else is
/// refused with a typed error before a worker is prepared, so the service
/// answers with its in-process run of what was actually submitted. A
/// template taken from a hand-assembled world carries no configs; only
/// its `QuerySpec` is checked.
impl RemoteExecutor for Daemon {
    fn try_run(
        &self,
        epoch: u64,
        spec: &QuerySpec,
        privacy: &PrivacyConfig,
        resilience: &ResilienceConfig,
        abort: &AtomicBool,
    ) -> Option<edgelet_util::Result<LiveRun>> {
        // No fleet, no world build. Only the canonical query runs here;
        // any other goes back to the service before a worker is prepared.
        let mut workers = self.take_live_workers()?;
        let template = match self.template_for(spec, privacy, resilience, epoch) {
            Ok(t) => t,
            Err(e) => {
                self.return_workers(workers);
                return Some(Err(e));
            }
        };
        match self.run_distributed(epoch, &template, &mut workers, abort) {
            Ok(run) => {
                self.return_workers(workers);
                Some(Ok(run))
            }
            Err(e) => {
                // Drop every taken connection: the workers observe EOF,
                // reset their epoch state, and reconnect with backoff.
                for w in &workers {
                    w.shutdown();
                }
                drop(workers);
                Some(Err(e))
            }
        }
    }
}

/// Accept loop: one handshake thread per connection, each tracked by a
/// deadline in the sweeper's timer heap.
fn accept_loop(listener: Listener, shared: Arc<DaemonShared>, handshake_timeout: Duration) {
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let token = match stream.try_clone() {
            Ok(handle) => {
                let t = lock(&shared.deadlines).push(Instant::now() + handshake_timeout, handle);
                shared.deadlines_cv.notify_all();
                t
            }
            Err(_) => continue,
        };
        let hs_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("net-handshake".into())
            .spawn(move || {
                handshake(stream, &hs_shared, handshake_timeout);
                lock(&hs_shared.deadlines).cancel(token);
            })
            .ok();
    }
}

/// Deadline sweeper: shuts down connections whose handshake deadline
/// passed, unblocking their handler threads.
fn sweeper_loop(shared: Arc<DaemonShared>) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Pop expired streams under the lock, shut them down outside
        // it: the OS-level shutdown must not stall handshake threads
        // scheduling their own deadlines.
        let due = {
            let mut deadlines = lock(&shared.deadlines);
            let due = deadlines.pop_due(Instant::now());
            if due.is_empty() {
                let wait = deadlines
                    .next_deadline()
                    .map(|d| d.saturating_duration_since(Instant::now()))
                    .unwrap_or(Duration::from_secs(1));
                let _woken = shared
                    .deadlines_cv
                    .wait_timeout(deadlines, wait.max(Duration::from_millis(10)))
                    .unwrap_or_else(|e| e.into_inner());
            }
            due
        };
        for stream in due {
            stream.shutdown();
        }
    }
}

/// One connection's handshake: validate versions, register or queue.
fn handshake(stream: Stream, shared: &Arc<DaemonShared>, timeout: Duration) {
    let mut ms = MsgStream::new(stream);
    let hello = match ms.recv(Some(timeout)) {
        Ok(NetMsg::Hello {
            role,
            proto,
            frame_version,
            envelope_version,
        }) => {
            let mut mismatch = Vec::new();
            if proto != PROTO_VERSION {
                mismatch.push(format!("proto {proto} != {PROTO_VERSION}"));
            }
            if frame_version != edgelet_wire::FRAME_VERSION {
                mismatch.push(format!(
                    "frame version {frame_version} != {}",
                    edgelet_wire::FRAME_VERSION
                ));
            }
            if envelope_version != edgelet_wire::ENVELOPE_VERSION {
                mismatch.push(format!(
                    "envelope version {envelope_version} != {}",
                    edgelet_wire::ENVELOPE_VERSION
                ));
            }
            if !mismatch.is_empty() {
                shared.rejections.fetch_add(1, Ordering::Relaxed);
                ms.send(&NetMsg::Reject {
                    reason: format!("version mismatch: {}", mismatch.join(", ")),
                })
                .ok();
                ms.shutdown();
                return;
            }
            role
        }
        _ => {
            shared.rejections.fetch_add(1, Ordering::Relaxed);
            ms.shutdown();
            return;
        }
    };
    match hello {
        Role::Worker => {
            let slot = { lock(&shared.registry).iter().position(|s| s.is_none()) };
            let Some(slot) = slot else {
                shared.rejections.fetch_add(1, Ordering::Relaxed);
                ms.send(&NetMsg::Reject {
                    reason: SLOTS_TAKEN.into(),
                })
                .ok();
                ms.shutdown();
                return;
            };
            if ms
                .send(&NetMsg::Welcome {
                    worker_index: slot as u32,
                })
                .is_err()
            {
                return;
            }
            let mut reg = lock(&shared.registry);
            // Re-check under the lock: another handshake may have taken
            // the slot between the scan and now; fall back to any free
            // slot (the index sent in Welcome is informational for
            // logging — `Prepare` carries the authoritative per-epoch
            // index).
            let slot = match reg.iter().position(|s| s.is_none()) {
                Some(s) => s,
                None => {
                    drop(reg);
                    shared.rejections.fetch_add(1, Ordering::Relaxed);
                    ms.send(&NetMsg::Reject {
                        reason: SLOTS_TAKEN.into(),
                    })
                    .ok();
                    ms.shutdown();
                    return;
                }
            };
            reg[slot] = Some(ms);
            drop(reg);
            shared.registrations.fetch_add(1, Ordering::Relaxed);
            shared.registry_cv.notify_all();
        }
        Role::Client => match ms.recv(Some(timeout)) {
            Ok(NetMsg::SubmitReq { spec }) => {
                lock(&shared.submissions).push_back(Submission { spec, stream: ms });
                shared.submissions_cv.notify_all();
            }
            _ => {
                ms.shutdown();
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgelet_core::prelude::{
        AggSpec, CmpOp, Platform, PlatformConfig, Predicate, PrivacyConfig, ResilienceConfig, Value,
    };
    use edgelet_live::{prepare_live_query, LiveRunOptions};
    use edgelet_sim::FaultPlan;

    /// The template of a small traced world built for `epoch`.
    fn template_at(epoch: u64) -> String {
        let mut platform = Platform::build(PlatformConfig {
            seed: 11,
            contributors: 40,
            processors: 24,
            network: edgelet_core::NetworkProfile::Reliable,
            fault_plan: Some(FaultPlan::new()),
            trace_capacity: 1 << 16,
            ..PlatformConfig::default()
        });
        let spec = platform.grouping_query(
            Predicate::cmp("age", CmpOp::Gt, Value::Int(65)),
            20,
            &[&["sex"], &[]],
            vec![AggSpec::count_star()],
        );
        let built = prepare_live_query(
            &platform,
            &spec,
            &PrivacyConfig::none().with_max_tuples(10),
            &ResilienceConfig {
                failure_probability: 0.0,
                ..ResilienceConfig::default()
            },
            Arc::new(crate::CollectorTransport::new(1)),
            &LiveRunOptions::new(1, epoch),
        )
        .expect("world builds");
        format!("{:#?}", CoordinatorTemplate::of(built))
    }

    #[test]
    fn a_template_kept_from_epoch_1_is_what_epoch_7_would_build() {
        let (first, seventh) = (template_at(1), template_at(7));
        assert_eq!(first, seventh);
        // Every field is in that comparison, and none is trivially empty.
        for field in [
            "plan",
            "sliced_queries",
            "real_pending",
            "min_at: Some",
            "lookahead_us",
            "max_events",
            "trace_capacity: 65536",
            "configs: Some",
        ] {
            assert!(first.contains(field), "{field} missing from {first}");
        }
    }
}
