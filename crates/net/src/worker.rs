//! The worker side of the multi-process deployment: `edgelet worker
//! --connect <addr>` runs this loop in its own process.
//!
//! A worker connects with truncated-exponential [`Backoff`] (paced by
//! the same real-time [`TimerHeap`] the daemon's sweeper uses),
//! completes the versioned handshake, and then serves the epoch
//! protocol: `Prepare` builds the *entire* world from the canonical
//! spec bytes (bit-identical to the daemon's and every sibling's copy)
//! and keeps only its assigned slice (or resets the slice it kept,
//! below); each `OpenWindow` runs one
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
//! of a (world-spec bytes, worker count, worker index) key. It keeps
//! the slice that build gave it and resets the kept slice for every
//! later epoch of the key ([`Shard::reset`]: every device derived
//! again, every actor restarted, the initial events queued again, the
//! ledger and querier record cleared in place) — no plan, no assembly,
//! no allocation per device. Another key, a failed prepare or a
//! disconnect drops it; a builder whose world carries no
//! `PreparedInputs` (assembled by hand) is called every epoch.
//!
//! Daemon death (EOF or any protocol error) drops all epoch state and
//! re-enters the reconnect loop — a fresh `Prepare` builds the world
//! deterministically from the spec bytes it names, so a worker
//! surviving a daemon restart poisons nothing.

use crate::conn::{Addr, Backoff, MsgStream, Stream, TimerHeap};
use crate::daemon::WorldBuilder;
use crate::proto::{NetMsg, Role, WireRecord, WireRound};
use edgelet_live::{EngineParts, PreparedQuery};
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

/// The slice a worker holds: built for one (world-spec bytes, worker
/// count, worker index), run for one epoch at a time, and reset in place
/// for the next epoch of the same key.
struct Kept {
    /// The world-spec bytes the slice was built from (its worker count
    /// and index are its own); `None` for a world assembled by hand (no
    /// [`edgelet_live::PreparedInputs`]), which is never reset.
    spec: Option<Vec<u8>>,
    epoch: u64,
    /// Whether `QueryDone` closed the epoch: only then is the slice reset.
    closed: bool,
    /// This worker's slice of the world.
    slice: Shard,
    /// The rest of the built world, slices removed.
    parts: EngineParts,
    assembly: edgelet_exec::PlanAssembly,
    /// Recycled window report, same as the in-process barriers keep.
    reuse: Option<WindowReport>,
}

impl Kept {
    /// The slice for `epoch`: `kept` reset in place when it closed its
    /// last epoch under the same key, otherwise a fresh build.
    fn prepare(
        kept: Option<Kept>,
        builder: &dyn WorldBuilder,
        spec: &[u8],
        epoch: u64,
        (count, index): (usize, usize),
    ) -> Result<Kept> {
        if let Some(mut k) = kept.filter(|k| k.closed) {
            let at = (k.worker_count(), k.slice.idx());
            if k.spec.as_deref() == Some(spec) && at == (count, index) && k.slice.reset() {
                k.assembly.restart();
                (k.epoch, k.closed) = (epoch, false);
                return Ok(k);
            }
        }
        if index >= count {
            return Err(Error::InvalidConfig(format!(
                "worker index {index} out of range for {count} workers"
            )));
        }
        let PreparedQuery {
            engine, assembly, ..
        } = builder.build(spec, epoch, count)?;
        let kept_spec = engine.prepared_from().map(|_| spec.to_vec());
        let mut parts = engine.into_parts();
        if parts.world.slices.len() != count {
            return Err(Error::InvalidConfig(format!(
                "world built {} slices, daemon expects {count}",
                parts.world.slices.len()
            )));
        }
        let slice = parts.world.slices.swap_remove(index);
        parts.world.slices.clear();
        Ok(Kept {
            spec: kept_spec,
            epoch,
            closed: false,
            slice,
            parts,
            assembly,
            reuse: None,
        })
    }

    /// The workers the world was sliced for.
    fn worker_count(&self) -> usize {
        self.parts.config.workers.max(1)
    }

    /// Whether `epoch` is prepared on this slice and not yet closed.
    fn open(&self, epoch: u64) -> bool {
        self.epoch == epoch && !self.closed
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
        let querier_owner = (self.parts.world.device_count() - 1) % self.worker_count();
        let record = (querier_owner == self.slice.idx()).then(|| {
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
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        match connect_session(cfg, builder.as_ref(), stop, &mut backoff) {
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

/// One connection session: handshake then serve until disconnect. A
/// session the daemon welcomed resets `backoff`, so the reconnect after
/// it starts again from the first delay.
fn connect_session(
    cfg: &WorkerConfig,
    builder: &dyn WorldBuilder,
    stop: &AtomicBool,
    backoff: &mut Backoff,
) -> std::result::Result<(), SessionEnd> {
    let disc = |what: String| SessionEnd::Disconnected(what);
    let stream = Stream::connect(&cfg.connect).map_err(|e| disc(format!("connect: {e:?}")))?;
    let mut ms = MsgStream::new(stream);
    ms.send(&NetMsg::hello(Role::Worker))
        .map_err(|e| disc(format!("hello: {e:?}")))?;
    match ms.recv(Some(cfg.handshake_timeout)) {
        Ok(NetMsg::Welcome { .. }) => backoff.reset(),
        Ok(NetMsg::Reject { reason }) => return Err(SessionEnd::Rejected(reason)),
        Ok(other) => return Err(disc(format!("expected Welcome, got {other:?}"))),
        Err(e) => return Err(disc(format!("handshake: {e:?}"))),
    }

    let mut kept: Option<Kept> = None;
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
                let at = (worker_count as usize, worker_index as usize);
                match Kept::prepare(kept.take(), builder, &spec, ep, at) {
                    Ok(k) => {
                        kept = Some(k);
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
                let Some(k) = kept.as_mut().filter(|k| k.open(ep)) else {
                    return Err(disc(format!("envelopes for unprepared epoch {ep}")));
                };
                for env in batch {
                    k.slice.push(Event::from(env));
                }
            }
            NetMsg::OpenWindow {
                epoch: ep,
                window_end_us,
                clip_us,
                budget,
            } => {
                let Some(k) = kept.as_mut().filter(|k| k.open(ep)) else {
                    return Err(disc(format!("window for unprepared epoch {ep}")));
                };
                let round = k.run_window(window_end_us, clip_us, budget);
                ms.send(&NetMsg::RoundDone { epoch: ep, round })
                    .map_err(|e| disc(format!("round done: {e:?}")))?;
            }
            NetMsg::Finish { epoch: ep } | NetMsg::Abort { epoch: ep } => {
                let Some(k) = kept.as_mut().filter(|k| k.open(ep)) else {
                    return Err(disc(format!("finish for unprepared epoch {ep}")));
                };
                let (ledger, record) = k.finish();
                ms.send(&NetMsg::QueryDone {
                    epoch: ep,
                    ledger,
                    record,
                })
                .map_err(|e| disc(format!("query done: {e:?}")))?;
                k.closed = true;
            }
            other => {
                return Err(disc(format!("unexpected message {other:?}")));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::Listener;
    use edgelet_live::PreparedQuery;

    /// A builder no test session reaches: the daemon hangs up first.
    struct NoWorld;

    impl WorldBuilder for NoWorld {
        fn build(&self, _: &[u8], _: u64, _: usize) -> Result<PreparedQuery> {
            Err(Error::InvalidConfig("no world".into()))
        }
    }

    #[test]
    fn a_welcomed_session_resets_the_reconnect_backoff() {
        let dir = std::env::temp_dir().join(format!("eln-worker-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr = Addr::Uds(dir.join("w.sock"));
        let listener = Listener::bind(&addr).unwrap();
        // The daemon side: welcome the worker, then hang up.
        let daemon = std::thread::spawn(move || {
            let mut s = MsgStream::new(listener.accept().unwrap());
            let hello = s.recv(Some(Duration::from_secs(5))).unwrap();
            assert!(matches!(hello, NetMsg::Hello { .. }), "{hello:?}");
            s.send(&NetMsg::Welcome { worker_index: 0 }).unwrap();
        });
        let cfg = WorkerConfig::new(addr);
        let mut backoff = Backoff::new(cfg.backoff_initial, cfg.backoff_max);
        for _ in 0..8 {
            backoff.delay();
        }
        let end = connect_session(&cfg, &NoWorld, &AtomicBool::new(false), &mut backoff);
        daemon.join().unwrap();
        assert!(matches!(end, Err(SessionEnd::Disconnected(_))), "{end:?}");
        assert_eq!(backoff.delay(), cfg.backoff_initial);
        std::fs::remove_dir_all(&dir).ok();
    }
}
