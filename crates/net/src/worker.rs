//! The worker side of the multi-process deployment: `edgelet worker
//! --connect <addr>` runs this loop in its own process.
//!
//! A worker connects with truncated-exponential [`Backoff`] (paced by
//! the same real-time [`TimerHeap`] the daemon's sweeper uses),
//! completes the versioned handshake, and then serves the epoch
//! protocol: `Prepare` prepares the *entire* world from the canonical
//! spec bytes (bit-identical to the daemon's and every sibling's copy)
//! and keeps only its assigned slice; each `OpenWindow` runs one
//! conservative window through the very same
//! [`edgelet_sim::exec::Shard::run_window`] every in-process barrier
//! calls; `Finish`/`Abort` reports the ledger partial (and the querier
//! record when this slice owns the querier).
//!
//! Deliveries to the worker's own devices stay in its queue; every
//! other lane's leave in the window report's `outbound` and ship to the
//! daemon for relay. A fault plan is part of the world the spec bytes
//! build: send-point rules fire on the sender's slice and deliver-point
//! rules on the receiver's, exactly as on a simulator shard.
//!
//! The worker calls its [`WorldBuilder`] only for the first `Prepare`
//! of a (world-spec bytes, worker count) pair. It keeps the inputs
//! `prepare_live_query` recorded on that build — the crowd handle, query,
//! configs — and prepares every later epoch of the pair from them: no
//! re-enrolment, a warm plan, the same construction path. Other bytes
//! or another count replace them; a builder whose world carries none
//! (assembled by hand) is called every epoch.
//!
//! Daemon death (EOF or any protocol error) drops all epoch state and
//! re-enters the reconnect loop — a fresh `Prepare` prepares the world
//! deterministically from the spec bytes it names, so a worker
//! surviving a daemon restart poisons nothing.

use crate::conn::{Addr, Backoff, MsgStream, Stream, TimerHeap};
use crate::daemon::WorldBuilder;
use crate::proto::{NetMsg, Role, WireRecord, WireRound};
use crate::CollectorTransport;
use edgelet_live::{EngineParts, PreparedInputs, PreparedQuery};
use edgelet_sim::exec::{Event, Shard, Window, WindowReport};
use edgelet_util::{Error, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Worker process configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The daemon's address.
    pub connect: Addr,
    /// First reconnect delay.
    pub backoff_initial: Duration,
    /// Reconnect delay cap.
    pub backoff_max: Duration,
    /// `Welcome` deadline after sending `Hello`.
    pub handshake_timeout: Duration,
}

impl WorkerConfig {
    /// Defaults for `addr`: 50ms→2s backoff, 10s handshake deadline.
    pub fn new(connect: Addr) -> WorkerConfig {
        WorkerConfig {
            connect,
            backoff_initial: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

/// Why one connection session ended (observability / tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEnd {
    /// The daemon refused the handshake; reconnecting is pointless.
    Rejected(String),
    /// The connection died (EOF, timeout, frame corruption); the loop
    /// backs off and reconnects.
    Disconnected(String),
}

/// Where a worker's worlds come from: its builder, and the inputs the
/// last build recorded with the (spec bytes, worker count) it was for.
struct Worlds {
    builder: Arc<dyn WorldBuilder>,
    kept: Option<(Vec<u8>, usize, Arc<PreparedInputs>)>,
}

impl Worlds {
    fn prepare(&mut self, spec: &[u8], epoch: u64, workers: usize) -> Result<PreparedQuery> {
        if let Some((_, _, inputs)) = self.kept.as_ref().filter(|k| k.0 == spec && k.1 == workers) {
            return inputs.prepare(Arc::new(CollectorTransport::new(workers)), epoch);
        }
        let built = self.builder.build(spec, epoch, workers)?;
        let inputs = built.engine.prepared_from().cloned();
        self.kept = inputs.map(|inputs| (spec.to_vec(), workers, inputs));
        Ok(built)
    }
}

/// The state a worker holds for one prepared epoch.
struct EpochState {
    epoch: u64,
    /// This worker's slice of the world.
    slice: Shard,
    /// The rest of the built world, slices removed.
    parts: EngineParts,
    assembly: edgelet_exec::PlanAssembly,
    worker_index: usize,
    worker_count: usize,
    /// Recycled window report, same as the in-process barriers keep.
    reuse: Option<WindowReport>,
}

impl EpochState {
    /// Prepares the world for `epoch` and keeps slice `worker_index`.
    fn build(
        worlds: &mut Worlds,
        spec: &[u8],
        epoch: u64,
        worker_count: usize,
        worker_index: usize,
    ) -> Result<EpochState> {
        if worker_index >= worker_count {
            return Err(Error::InvalidConfig(format!(
                "worker index {worker_index} out of range for {worker_count} workers"
            )));
        }
        let PreparedQuery {
            plan: _,
            engine,
            assembly,
        } = worlds.prepare(spec, epoch, worker_count)?;
        let mut parts = engine.into_parts();
        if parts.world.slices.len() != worker_count {
            return Err(Error::InvalidConfig(format!(
                "world built {} slices, daemon expects {worker_count}",
                parts.world.slices.len()
            )));
        }
        let slice = parts.world.slices.swap_remove(worker_index);
        parts.world.slices.clear();
        Ok(EpochState {
            epoch,
            slice,
            parts,
            assembly,
            worker_index,
            worker_count,
            reuse: None,
        })
    }

    /// Runs one window and assembles the wire round.
    fn run_window(&mut self, window_end_us: u64, clip_us: u64, budget: u64) -> WireRound {
        let env = self.parts.env();
        let window = Window {
            start_us: window_end_us.saturating_sub(self.parts.world.state.lookahead_us),
            end_us: window_end_us,
            clip_us,
            budget,
        };
        let mut report = self.slice.run_window(&env, &window, self.reuse.take());
        let out = &mut report.out;
        let round = WireRound {
            deltas: out.deltas.clone(),
            pending_min: report.queue_min_at,
            hit_budget: report.hit_budget,
            journal: out.journal.drain(..).collect(),
            outgoing: out
                .outbound
                .iter_mut()
                .flat_map(|lane| lane.drain(..))
                .filter_map(|ev| ev.into_envelope(self.epoch))
                .collect(),
        };
        report.recycle();
        self.reuse = Some(report);
        round
    }

    /// The final partials for `QueryDone`.
    fn finish(&self) -> (Vec<u8>, Option<WireRecord>) {
        let ledger = edgelet_wire::to_bytes(&*lock(&self.assembly.ledger));
        let querier_owner = (self.parts.world.device_count() - 1) % self.worker_count;
        let record = (querier_owner == self.worker_index).then(|| {
            let rec = lock(&self.assembly.record);
            WireRecord {
                payload: rec.payload.clone(),
                completed_at_us: rec.completed_at.map(|t| t.as_micros()),
                partitions_merged: rec.partitions_merged,
                partitions_complete: rec.partitions_complete,
                winning_replica: rec.winning_replica,
                results_received: rec.results_received,
            }
        });
        (ledger, record)
    }
}

/// Runs the worker process loop: connect (with backoff), handshake,
/// serve epochs, reconnect on failure — until `stop` is raised.
///
/// Returns the terminal session end when the daemon *rejected* the
/// handshake (version mismatch — retrying cannot help) or `Ok(())`
/// when stopped.
pub fn run_worker(
    cfg: &WorkerConfig,
    builder: Arc<dyn WorldBuilder>,
    stop: &AtomicBool,
) -> std::result::Result<(), SessionEnd> {
    let mut backoff = Backoff::new(cfg.backoff_initial, cfg.backoff_max);
    let mut timers: TimerHeap<()> = TimerHeap::new();
    let mut worlds = Worlds {
        builder,
        kept: None,
    };
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        match connect_session(cfg, &mut worlds, stop) {
            Ok(()) => return Ok(()),
            Err(SessionEnd::Rejected(reason)) => return Err(SessionEnd::Rejected(reason)),
            Err(SessionEnd::Disconnected(_)) => {
                // Reconnect after the backoff delay, paced through the
                // timer heap so the wait is interruptible by `stop`.
                let token = timers.push(Instant::now() + backoff.delay(), ());
                loop {
                    if stop.load(Ordering::Acquire) {
                        return Ok(());
                    }
                    if !timers.pop_due(Instant::now()).is_empty() {
                        break;
                    }
                    let nap = timers
                        .next_deadline()
                        .map(|d| d.saturating_duration_since(Instant::now()))
                        .unwrap_or_default()
                        .min(Duration::from_millis(50));
                    std::thread::sleep(nap.max(Duration::from_millis(1)));
                }
                timers.cancel(token);
            }
        }
    }
}

/// One connection session: handshake then serve until disconnect.
fn connect_session(
    cfg: &WorkerConfig,
    worlds: &mut Worlds,
    stop: &AtomicBool,
) -> std::result::Result<(), SessionEnd> {
    let disc = |what: String| SessionEnd::Disconnected(what);
    let stream = Stream::connect(&cfg.connect).map_err(|e| disc(format!("connect: {e:?}")))?;
    let mut ms = MsgStream::new(stream);
    ms.send(&NetMsg::hello(Role::Worker))
        .map_err(|e| disc(format!("hello: {e:?}")))?;
    match ms.recv(Some(cfg.handshake_timeout)) {
        Ok(NetMsg::Welcome { .. }) => {}
        Ok(NetMsg::Reject { reason }) => return Err(SessionEnd::Rejected(reason)),
        Ok(other) => return Err(disc(format!("expected Welcome, got {other:?}"))),
        Err(e) => return Err(disc(format!("handshake: {e:?}"))),
    }

    let mut epoch: Option<EpochState> = None;
    loop {
        if stop.load(Ordering::Acquire) {
            ms.shutdown();
            return Ok(());
        }
        // Poll-style receive so `stop` is observed between messages.
        let msg = match ms.recv_or_timeout(Some(Duration::from_millis(500))) {
            Ok(Some(m)) => m,
            Ok(None) => continue,
            Err(e) => return Err(disc(format!("recv: {e:?}"))),
        };
        match msg {
            NetMsg::Ping { nonce } => {
                ms.send(&NetMsg::Pong { nonce })
                    .map_err(|e| disc(format!("pong: {e:?}")))?;
            }
            NetMsg::Prepare {
                epoch: ep,
                spec,
                worker_count,
                worker_index,
            } => {
                match EpochState::build(
                    worlds,
                    &spec,
                    ep,
                    worker_count as usize,
                    worker_index as usize,
                ) {
                    Ok(state) => {
                        epoch = Some(state);
                        ms.send(&NetMsg::Ready { epoch: ep })
                            .map_err(|e| disc(format!("ready: {e:?}")))?;
                    }
                    Err(e) => {
                        ms.send(&NetMsg::Reject {
                            reason: format!("prepare failed: {e:?}"),
                        })
                        .ok();
                        return Err(disc(format!("prepare failed: {e:?}")));
                    }
                }
            }
            NetMsg::Envelopes { epoch: ep, batch } => {
                let Some(state) = epoch.as_mut().filter(|s| s.epoch == ep) else {
                    return Err(disc(format!("envelopes for unprepared epoch {ep}")));
                };
                for env in batch {
                    state.slice.push(Event::from(env));
                }
            }
            NetMsg::OpenWindow {
                epoch: ep,
                window_end_us,
                clip_us,
                budget,
            } => {
                let Some(state) = epoch.as_mut().filter(|s| s.epoch == ep) else {
                    return Err(disc(format!("window for unprepared epoch {ep}")));
                };
                let round = state.run_window(window_end_us, clip_us, budget);
                ms.send(&NetMsg::RoundDone { epoch: ep, round })
                    .map_err(|e| disc(format!("round done: {e:?}")))?;
            }
            NetMsg::Finish { epoch: ep } | NetMsg::Abort { epoch: ep } => {
                let Some(state) = epoch.take().filter(|s| s.epoch == ep) else {
                    return Err(disc(format!("finish for unprepared epoch {ep}")));
                };
                let (ledger, record) = state.finish();
                ms.send(&NetMsg::QueryDone {
                    epoch: ep,
                    ledger,
                    record,
                })
                .map_err(|e| disc(format!("query done: {e:?}")))?;
            }
            other => {
                return Err(disc(format!("unexpected message {other:?}")));
            }
        }
    }
}
