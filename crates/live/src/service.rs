//! The live query service: admission-controlled concurrent serving of
//! many QEPs over one shared device pool and transport.
//!
//! Each admitted query gets a fresh **epoch**: the service registers it
//! on the shared [`StripedTransport`], runs the query on a
//! [`crate::engine::LiveEngine`] whose envelopes all carry that epoch,
//! and retires the epoch when the query ends. Since the transport
//! refuses envelopes for unregistered epochs and lanes are per-epoch,
//! concurrent queries cannot observe each other's traffic — per-query
//! isolation is structural, not cooperative.
//!
//! Admission control is a simple counted gate (`max_concurrent`);
//! rejected submissions fail fast with [`SubmitError::AtCapacity`] so
//! callers can re-queue. A per-query **wall-clock deadline** arms a
//! watchdog thread that raises the engine's abort flag when real time
//! runs out — virtual time is still fully deterministic; only the
//! decision to stop consults the host clock. [`QueryService::shutdown`]
//! drains gracefully: new submissions are refused while in-flight
//! queries run to completion.

use crate::durable::{
    encode_completion, spec_digest, CrashPoint, DurabilityConfig, DurableState, RecoveryReport,
    WalRecord,
};
use crate::engine::ExitReason;
use crate::harness::{run_live_query, LiveRun, LiveRunOptions};
use crate::transport::StripedTransport;
use edgelet_core::Platform;
use edgelet_exec::Ledger;
use edgelet_query::{PrivacyConfig, QuerySpec, ResilienceConfig};
use edgelet_store::{DurableBackend, GroupCommitConfig, GroupCommitLog, RetryPolicy};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Service-level knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads per query run.
    pub workers: usize,
    /// Queries admitted concurrently; further submissions are rejected.
    pub max_concurrent: usize,
    /// Per-lane transport mailbox capacity (envelopes).
    pub mailbox_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            max_concurrent: 4,
            mailbox_capacity: 4096,
        }
    }
}

/// Why a submission was not executed.
#[derive(Debug)]
pub enum SubmitError {
    /// The admission gate is full.
    AtCapacity {
        /// The configured concurrency limit.
        limit: usize,
    },
    /// The service is shutting down and refuses new work.
    ShuttingDown,
    /// The durable backend is unavailable: the service has drained to
    /// read-only mode and refuses work it could not make durable.
    ReadOnly {
        /// Why the service drained.
        reason: String,
    },
    /// Planning or execution failed.
    Failed(edgelet_util::Error),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::AtCapacity { limit } => {
                write!(f, "admission rejected: {limit} queries already in flight")
            }
            SubmitError::ShuttingDown => write!(f, "admission rejected: service shutting down"),
            SubmitError::ReadOnly { reason } => {
                write!(
                    f,
                    "admission rejected: service drained to read-only ({reason})"
                )
            }
            SubmitError::Failed(e) => write!(f, "query failed: {e}"),
        }
    }
}

impl From<edgelet_util::Error> for SubmitError {
    fn from(e: edgelet_util::Error) -> Self {
        SubmitError::Failed(e)
    }
}

/// The service-level outcome of one query.
#[derive(Debug)]
pub struct SubmitOutcome {
    /// The epoch the query ran under.
    pub epoch: u64,
    /// Everything the execution produced.
    pub run: LiveRun,
    /// The wall-clock watchdog fired before the query finished.
    pub wall_aborted: bool,
    /// The query re-ran a pending intent recovered from the WAL (a
    /// crash interrupted it before its completion was durable).
    pub recovered: bool,
}

impl SubmitOutcome {
    /// A query "succeeded" when it completed within its virtual
    /// deadline, produced a structurally valid result, and was not cut
    /// short by the wall clock — the CLI's exit-code criterion.
    pub fn succeeded(&self) -> bool {
        self.run.report.completed && self.run.report.valid && !self.wall_aborted
    }
}

/// Offloads one epoch's execution to an external runtime — the
/// multi-process socket deployment's daemon-side coordinator
/// (`edgelet-net`).
///
/// The contract keeps the service deterministic regardless of what the
/// remote side does:
///
/// * `None` — the remote runtime cannot take this query (no worker
///   processes registered, or they are busy). The service runs the
///   epoch in-process as if no remote executor were installed.
/// * `Some(Ok(run))` — the remote run completed; the service uses it
///   verbatim.
/// * `Some(Err(_))` — the remote run started and died mid-flight (a
///   worker process was killed, a socket broke). The service falls back
///   to an in-process run of the *same epoch*: the remote path never
///   touches the service's own transport lanes, and both paths build
///   the world from the same spec and seed, so the fallback reproduces
///   byte-identical results — a worker `kill -9` costs wall-clock time,
///   never correctness.
pub trait RemoteExecutor: Send + Sync {
    /// Attempts to run `epoch` remotely; see the trait docs for the
    /// meaning of each return shape. `abort` is the wall-clock watchdog
    /// flag — a remote run should give up promptly once it is raised.
    fn try_run(
        &self,
        epoch: u64,
        spec: &QuerySpec,
        privacy: &PrivacyConfig,
        resilience: &ResilienceConfig,
        abort: &AtomicBool,
    ) -> Option<edgelet_util::Result<LiveRun>>;
}

/// An admission-controlled, multi-query live serving runtime.
pub struct QueryService {
    platform: Platform,
    transport: Arc<StripedTransport>,
    config: ServiceConfig,
    in_flight: Mutex<usize>,
    idle: Condvar,
    next_epoch: AtomicU64,
    shutting_down: AtomicBool,
    watchdog: Watchdog,
    durable: Option<DurableCtl>,
    remote: Mutex<Option<Arc<dyn RemoteExecutor>>>,
    remote_fallbacks: AtomicU64,
}

/// Durable-mode control block: the WAL front end plus the in-memory
/// image of the durable state.
struct DurableCtl {
    log: GroupCommitLog,
    config: DurabilityConfig,
    inner: Mutex<DurableInner>,
    /// Raised when the backend failed permanently: the service keeps
    /// serving reads (inspection) but refuses new submissions.
    drained: AtomicBool,
    drain_reason: Mutex<Option<String>>,
}

struct DurableInner {
    state: DurableState,
    since_checkpoint: u64,
    /// Completions durably appended to the WAL but not yet folded into
    /// `state` by `apply`. A checkpoint taken while this is non-zero
    /// writes a blob that does not cover those records, so it must not
    /// delete the sealed segments that still hold them — compaction is
    /// deferred to the next checkpoint that observes zero.
    unapplied_completions: u64,
}

/// RAII admission slot: releases the gate (and wakes `shutdown`) even
/// if the query run panics.
struct Slot<'a>(&'a QueryService);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut n = lock(&self.0.in_flight);
        *n = n.saturating_sub(1);
        self.0.idle.notify_all();
    }
}

impl QueryService {
    /// Creates a volatile (memory-only) service over an enrolled
    /// platform.
    pub fn new(platform: Platform, config: ServiceConfig) -> Self {
        Self::build(platform, config, None)
    }

    /// Creates a durable service over `backend`, running recovery
    /// first: the checkpoint is loaded, WAL records after it are
    /// replayed idempotently, a torn tail is repaired, and pending
    /// intents are queued for re-execution. A corrupt WAL or an
    /// unavailable backend does not fail construction — the service
    /// comes up **drained** (read-only) with the reason in the report,
    /// so operators can still inspect state.
    pub fn with_durability(
        platform: Platform,
        config: ServiceConfig,
        backend: Arc<dyn DurableBackend>,
        durability: DurabilityConfig,
    ) -> (Self, RecoveryReport) {
        let log = GroupCommitLog::new(
            backend,
            RetryPolicy::default(),
            GroupCommitConfig {
                window: durability.commit_window,
                segment_bytes: durability.segment_bytes,
                ..GroupCommitConfig::default()
            },
        );
        let mut report = RecoveryReport::default();
        let mut state = DurableState::default();
        let mut drain_reason: Option<String> = None;
        match log.recover() {
            Ok(rec) => {
                report.repaired_tail = rec.repaired;
                if let Some(blob) = &rec.checkpoint {
                    match edgelet_wire::from_bytes::<DurableState>(blob) {
                        Ok(s) => {
                            state = s;
                            report.checkpoint_loaded = true;
                        }
                        Err(e) => drain_reason = Some(format!("checkpoint undecodable: {e}")),
                    }
                }
                if drain_reason.is_none() {
                    match state.replay(&rec.records) {
                        Ok(n) => report.records_replayed = n,
                        Err(e) => drain_reason = Some(format!("WAL record undecodable: {e}")),
                    }
                }
            }
            Err(e) => drain_reason = Some(e.message().to_string()),
        }
        report.pending = state.pending.keys().copied().collect();
        report.drained = drain_reason.clone();
        let next_epoch = state.next_epoch.max(1);
        let ctl = DurableCtl {
            log,
            config: durability,
            inner: Mutex::new(DurableInner {
                state,
                since_checkpoint: 0,
                unapplied_completions: 0,
            }),
            drained: AtomicBool::new(drain_reason.is_some()),
            drain_reason: Mutex::new(drain_reason),
        };
        let service = Self::build(platform, config, Some(ctl));
        service.next_epoch.store(next_epoch, Ordering::Release);
        (service, report)
    }

    fn build(platform: Platform, config: ServiceConfig, durable: Option<DurableCtl>) -> Self {
        let transport = Arc::new(StripedTransport::new(config.mailbox_capacity.max(1)));
        QueryService {
            platform,
            transport,
            config,
            in_flight: Mutex::new(0),
            idle: Condvar::new(),
            next_epoch: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            watchdog: Watchdog::new(),
            durable,
            remote: Mutex::new(None),
            remote_fallbacks: AtomicU64::new(0),
        }
    }

    /// Installs (or replaces) the remote executor consulted before each
    /// in-process run; see [`RemoteExecutor`].
    pub fn set_remote(&self, remote: Arc<dyn RemoteExecutor>) {
        *lock(&self.remote) = Some(remote);
    }

    /// Number of epochs that fell back to in-process execution after a
    /// remote attempt declined or failed (0 without a remote executor).
    pub fn remote_fallbacks(&self) -> u64 {
        self.remote_fallbacks.load(Ordering::Acquire)
    }

    /// The shared transport (inspection: pending lanes, rejected
    /// cross-epoch submissions).
    pub fn transport(&self) -> &Arc<StripedTransport> {
        &self.transport
    }

    /// The platform this service executes against.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Queries currently executing.
    pub fn in_flight(&self) -> usize {
        *lock(&self.in_flight)
    }

    fn acquire(&self) -> Result<Slot<'_>, SubmitError> {
        crate::model::yield_point("service.acquire");
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let limit = self.config.max_concurrent.max(1);
        let mut n = lock(&self.in_flight);
        if *n >= limit {
            return Err(SubmitError::AtCapacity { limit });
        }
        *n += 1;
        Ok(Slot(self))
    }

    /// Runs one query to completion on the calling thread (callers
    /// submit from their own threads to serve concurrently). Fails fast
    /// with an admission error when the gate is full or the service is
    /// draining; `wall_deadline` (host time) arms the watchdog.
    ///
    /// In durable mode this logs an intent record before execution and
    /// a completion record after, so a crash anywhere in between is
    /// recoverable; a resubmission of a spec whose intent is pending
    /// from a previous incarnation re-runs under the recorded epoch and
    /// reports `recovered = true`.
    pub fn submit(
        &self,
        spec: &QuerySpec,
        privacy: &PrivacyConfig,
        resilience: &ResilienceConfig,
        wall_deadline: Option<std::time::Duration>,
    ) -> Result<SubmitOutcome, SubmitError> {
        match &self.durable {
            None => {
                let slot = self.acquire()?;
                let epoch = self.next_epoch.fetch_add(1, Ordering::AcqRel);
                let result = self.run_epoch(epoch, spec, privacy, resilience, wall_deadline);
                drop(slot);
                let (run, wall_aborted) = result?;
                Ok(SubmitOutcome {
                    epoch,
                    run,
                    wall_aborted,
                    recovered: false,
                })
            }
            Some(d) => self.submit_durable(d, spec, privacy, resilience, wall_deadline),
        }
    }

    fn submit_durable(
        &self,
        d: &DurableCtl,
        spec: &QuerySpec,
        privacy: &PrivacyConfig,
        resilience: &ResilienceConfig,
        wall_deadline: Option<std::time::Duration>,
    ) -> Result<SubmitOutcome, SubmitError> {
        if d.drained.load(Ordering::Acquire) {
            return Err(self.read_only_error(d));
        }
        let slot = self.acquire()?;
        let digest = spec_digest(spec);
        // A pending intent with this digest is a query a crash
        // interrupted: re-run it under its original epoch instead of
        // admitting a new one (its intent is already durable).
        let (epoch, recovered) = {
            let mut inner = lock(&d.inner);
            match inner.state.pending_for(digest) {
                Some(e) => (e, true),
                None => {
                    let e = self.next_epoch.fetch_add(1, Ordering::AcqRel);
                    inner.state.pending.insert(e, digest);
                    (e, false)
                }
            }
        };
        if !recovered {
            let intent = WalRecord::Intent {
                epoch,
                spec_digest: digest,
            };
            if let Err(err) = d.log.commit(&edgelet_wire::to_bytes(&intent)) {
                lock(&d.inner).state.pending.remove(&epoch);
                self.drain(d, format!("intent append failed: {}", err.message()));
                drop(slot);
                return Err(self.read_only_error(d));
            }
        }
        d.config.trip(CrashPoint::AfterAdmit);
        let result = self.run_epoch(epoch, spec, privacy, resilience, wall_deadline);
        let (run, wall_aborted) = match result {
            Ok(v) => v,
            Err(e) => {
                // The intent stays in the WAL: a deterministic failure
                // will fail identically on re-execution after restart.
                drop(slot);
                return Err(e);
            }
        };
        d.config.trip(CrashPoint::MidQuery);
        let mut completion = edgelet_wire::Writer::new();
        encode_completion(
            &mut completion,
            epoch,
            &run.report.result_payload,
            &run.report.ledger,
            run.trace_digest,
        );
        // Raise the unapplied-completion fence *before* the append: a
        // checkpoint racing with this submit must see that a completion
        // may be durable in the WAL without being in its blob, and keep
        // the sealed segments that could hold it.
        lock(&d.inner).unapplied_completions += 1;
        if let Err(err) = d.log.commit(&completion.into_bytes()) {
            // The result exists but is not durable; refusing the submit
            // keeps "Ok means persisted" true.
            lock(&d.inner).unapplied_completions -= 1;
            self.drain(d, format!("completion append failed: {}", err.message()));
            drop(slot);
            return Err(self.read_only_error(d));
        }
        d.config.trip(CrashPoint::BeforeCheckpoint);
        {
            let mut inner = lock(&d.inner);
            inner.state.apply_completion(epoch, &run.report.ledger);
            inner.unapplied_completions -= 1;
            inner.since_checkpoint += 1;
            if d.config.checkpoint_every > 0 && inner.since_checkpoint >= d.config.checkpoint_every
            {
                let blob = edgelet_wire::to_bytes(&inner.state);
                // Sealed segments may only be deleted when every durable
                // completion is covered by the blob we just encoded.
                let drop_sealed = inner.unapplied_completions == 0;
                match d.log.checkpoint(&blob, drop_sealed) {
                    Ok(()) => inner.since_checkpoint = 0,
                    Err(err) => {
                        // The completion is durable in the WAL; only
                        // compaction failed. Keep the outcome, stop
                        // accepting new work.
                        drop(inner);
                        self.drain(d, format!("checkpoint failed: {}", err.message()));
                    }
                }
            }
        }
        drop(slot);
        Ok(SubmitOutcome {
            epoch,
            run,
            wall_aborted,
            recovered,
        })
    }

    /// Executes one query under `epoch`: a remote attempt first when a
    /// [`RemoteExecutor`] is installed, then the in-process engine (the
    /// deterministic fallback) — registering and retiring the epoch on
    /// the shared transport only around the in-process run, since the
    /// remote path moves envelopes over its own sockets.
    fn run_epoch(
        &self,
        epoch: u64,
        spec: &QuerySpec,
        privacy: &PrivacyConfig,
        resilience: &ResilienceConfig,
        wall_deadline: Option<std::time::Duration>,
    ) -> Result<(LiveRun, bool), SubmitError> {
        let abort = Arc::new(AtomicBool::new(false));
        let armed = wall_deadline.map(|timeout| self.watchdog.arm(timeout, abort.clone()));
        // Clone the executor out so the `remote` lock is not held for
        // the duration of the (potentially long) remote run.
        let remote = { lock(&self.remote).clone() };
        let mut remote_run: Option<LiveRun> = None;
        if let Some(r) = remote {
            match r.try_run(epoch, spec, privacy, resilience, &abort) {
                Some(Ok(run)) => remote_run = Some(run),
                Some(Err(_)) | None => {
                    self.remote_fallbacks.fetch_add(1, Ordering::AcqRel);
                }
            }
        }
        let result = match remote_run {
            Some(run) => Ok(run),
            None => {
                self.transport
                    .register_epoch(epoch, self.config.workers.max(1));
                let opts = LiveRunOptions::new(self.config.workers.max(1), epoch);
                let transport: Arc<dyn edgelet_wire::Transport> = self.transport.clone();
                let result = run_live_query(
                    &self.platform,
                    spec,
                    privacy,
                    resilience,
                    transport,
                    &opts,
                    Some(&abort),
                );
                self.transport.retire_epoch(epoch);
                result
            }
        };
        if let Some(id) = armed {
            self.watchdog.disarm(id);
        }
        let run = result?;
        let wall_aborted = run.exit == ExitReason::Aborted;
        Ok((run, wall_aborted))
    }

    fn drain(&self, d: &DurableCtl, reason: String) {
        d.drained.store(true, Ordering::Release);
        let mut r = lock(&d.drain_reason);
        if r.is_none() {
            *r = Some(reason);
        }
    }

    fn read_only_error(&self, d: &DurableCtl) -> SubmitError {
        SubmitError::ReadOnly {
            reason: lock(&d.drain_reason)
                .clone()
                .unwrap_or_else(|| "backend unavailable".into()),
        }
    }

    /// True when the durable backend failed and the service refuses new
    /// submissions (always `false` for a volatile service).
    pub fn is_drained(&self) -> bool {
        self.durable
            .as_ref()
            .is_some_and(|d| d.drained.load(Ordering::Acquire))
    }

    /// Why the service drained, if it did.
    pub fn drain_reason(&self) -> Option<String> {
        self.durable
            .as_ref()
            .and_then(|d| lock(&d.drain_reason).clone())
    }

    /// The cumulative crowd-liability ledger over every durably applied
    /// completion (`None` for a volatile service).
    pub fn cumulative_ledger(&self) -> Option<Ledger> {
        self.durable
            .as_ref()
            .map(|d| lock(&d.inner).state.ledger.clone())
    }

    /// Epochs recovered as pending and not yet re-executed (`None` for
    /// a volatile service).
    pub fn pending_recovery(&self) -> Option<Vec<u64>> {
        self.durable
            .as_ref()
            .map(|d| lock(&d.inner).state.pending.keys().copied().collect())
    }

    /// Graceful shutdown: refuse new submissions, wait for in-flight
    /// queries to finish, and close the transport.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        let mut n = lock(&self.in_flight);
        while *n > 0 {
            n = self.idle.wait(n).unwrap_or_else(|e| e.into_inner());
        }
        self.transport.close();
    }
}

/// One armed wall-clock deadline.
struct Deadline {
    id: u64,
    fire_at: std::time::Instant,
    abort: Arc<AtomicBool>,
}

/// Book-keeping behind the shared watchdog thread.
#[derive(Default)]
struct WatchState {
    deadlines: Vec<Deadline>,
    next_id: u64,
    shutdown: bool,
}

/// A wall-clock deadline watchdog shared by every query the service
/// runs: raises each armed `abort` flag once its host-time deadline
/// elapses, unless disarmed first.
///
/// Arming used to spawn a dedicated thread per query; the shared
/// thread (spawned at service construction, parked on a condvar while
/// idle) hoists that per-query cost out of the submit path. Deadlines
/// are a handful at most (`max_concurrent`), so a linear scan per
/// wakeup is fine.
struct Watchdog {
    state: Arc<(Mutex<WatchState>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn new() -> Self {
        let state = Arc::new((Mutex::new(WatchState::default()), Condvar::new()));
        let thread_state = Arc::clone(&state);
        Watchdog {
            state,
            handle: Some(std::thread::spawn(move || Watchdog::run(&thread_state))),
        }
    }

    /// Arms a deadline `timeout` of host time from now; returns the id
    /// to disarm it with.
    fn arm(&self, timeout: std::time::Duration, abort: Arc<AtomicBool>) -> u64 {
        // Wall-clock deadlines are real time by definition.
        let fire_at = std::time::Instant::now() + timeout; // lint: allow(E102 wall-clock query deadline watchdog)
        let (st, cv) = &*self.state;
        let mut state = lock(st);
        state.next_id += 1;
        let id = state.next_id;
        state.deadlines.push(Deadline { id, fire_at, abort });
        cv.notify_all();
        id
    }

    /// Disarms a deadline; a no-op if it already fired.
    fn disarm(&self, id: u64) {
        let (st, _) = &*self.state;
        lock(st).deadlines.retain(|d| d.id != id);
    }

    fn run(state: &(Mutex<WatchState>, Condvar)) {
        let (st, cv) = state;
        let mut guard = lock(st);
        loop {
            if guard.shutdown {
                return;
            }
            let now = std::time::Instant::now(); // lint: allow(E102 wall-clock query deadline watchdog)
            let mut earliest: Option<std::time::Instant> = None;
            guard.deadlines.retain(|d| {
                if d.fire_at <= now {
                    d.abort.store(true, Ordering::Release);
                    false
                } else {
                    earliest = Some(earliest.map_or(d.fire_at, |e| e.min(d.fire_at)));
                    true
                }
            });
            guard = match earliest {
                Some(at) => {
                    cv.wait_timeout(guard, at - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
                None => cv.wait(guard).unwrap_or_else(|e| e.into_inner()),
            };
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        {
            let (st, cv) = &*self.state;
            lock(st).shutdown = true;
            cv.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgelet_core::PlatformConfig;
    use std::sync::atomic::AtomicBool;

    fn tiny_platform() -> Platform {
        Platform::build(PlatformConfig {
            contributors: 6,
            processors: 4,
            ..PlatformConfig::default()
        })
    }

    #[test]
    fn admission_gate_counts_and_rejects() {
        let service = QueryService::new(
            tiny_platform(),
            ServiceConfig {
                max_concurrent: 1,
                ..ServiceConfig::default()
            },
        );
        let slot = service.acquire().expect("first slot");
        assert_eq!(service.in_flight(), 1);
        match service.acquire() {
            Err(SubmitError::AtCapacity { limit: 1 }) => {}
            Err(other) => panic!("expected AtCapacity, got {other:?}"),
            Ok(_) => panic!("expected AtCapacity, got an admission"),
        }
        drop(slot);
        assert_eq!(service.in_flight(), 0);
        assert!(service.acquire().is_ok());
    }

    #[test]
    fn shutdown_refuses_new_work() {
        let service = QueryService::new(tiny_platform(), ServiceConfig::default());
        service.shutdown();
        match service.acquire() {
            Err(SubmitError::ShuttingDown) => {}
            Err(other) => panic!("expected ShuttingDown, got {other:?}"),
            Ok(_) => panic!("expected ShuttingDown, got an admission"),
        };
    }

    #[test]
    fn watchdog_fires_after_timeout_and_disarms_cleanly() {
        let w = Watchdog::new();
        let abort = Arc::new(AtomicBool::new(false));
        let id = w.arm(std::time::Duration::from_millis(5), abort.clone());
        while !abort.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        w.disarm(id);
        // A disarmed deadline never fires, and many deadlines share the
        // one thread.
        let abort2 = Arc::new(AtomicBool::new(false));
        let abort3 = Arc::new(AtomicBool::new(false));
        let id2 = w.arm(std::time::Duration::from_secs(3600), abort2.clone());
        let id3 = w.arm(std::time::Duration::from_millis(5), abort3.clone());
        w.disarm(id2);
        while !abort3.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        w.disarm(id3);
        assert!(!abort2.load(Ordering::Acquire));
        drop(w);
    }
}
