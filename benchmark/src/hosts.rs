//! The four hosts a query can run on, behind one closed-loop client
//! interface: cold-start a host, submit one spec, get the verdict.
//!
//! Every constructor takes an optional [`Probe`]. Without one (every
//! `--trace 0` run) the host is exactly what a deployment would build;
//! with one, the decorators of `layers` sit at the layer seams and the
//! host's own steps are spanned.

use crate::inputs::{Inputs, Kind, PREWRITTEN_EPOCHS};
use crate::layers::{build_platform, Probe, TimedBackend, TimedRemote, TimedWorld};
use crate::trace::SpanGuard;
use edgelet_core::query::QuerySpec;
use edgelet_core::Platform;
use edgelet_exec::ExecutionReport;
use edgelet_live::{
    prepare_live_query, spec_digest, DurabilityConfig, LiveRunOptions, PreparedQuery, QueryService,
    RemoteExecutor, ServiceConfig, WalRecord,
};
use edgelet_net::{
    run_worker, Addr, CollectorTransport, Daemon, MsgStream, NetConfig, NetMsg, Role, Stream,
    WorkerConfig, WorldBuilder,
};
use edgelet_store::{DurableBackend, FileBackend, GroupCommitConfig, GroupCommitLog, RetryPolicy};
use edgelet_wire::{Reader, Writer};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the Querier gets back for one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The run completed before its deadline with a valid result.
    pub ok: bool,
    /// The combiner's result payload, byte for byte.
    pub payload: Option<Vec<u8>>,
    /// The crowd-liability ledger, wire-encoded.
    pub ledger: Vec<u8>,
    /// Protocol payload bytes sent on the edge network.
    pub bytes_sent: u64,
    /// Protocol messages sent on the edge network.
    pub messages_sent: u64,
}

impl Verdict {
    /// The client-visible part of an execution report.
    pub fn of(report: &ExecutionReport) -> Verdict {
        Verdict {
            ok: report.completed && report.valid,
            payload: report.result_payload.clone(),
            ledger: edgelet_wire::to_bytes(&report.ledger),
            bytes_sent: report.bytes_sent,
            messages_sent: report.messages_sent,
        }
    }

    /// The artifact the net host answers a `SubmitReq` with.
    fn to_artifact(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_varint(u64::from(self.ok));
        w.put_varint(self.bytes_sent);
        w.put_varint(self.messages_sent);
        w.put_varint(u64::from(self.payload.is_some()));
        w.put_bytes(self.payload.as_deref().unwrap_or_default());
        w.put_bytes(&self.ledger);
        w.into_bytes()
    }

    fn from_artifact(bytes: &[u8]) -> Result<Verdict, String> {
        let mut r = Reader::new(bytes);
        let mut parse = || -> edgelet_util::Result<Verdict> {
            let ok = r.varint()? == 1;
            let bytes_sent = r.varint()?;
            let messages_sent = r.varint()?;
            let has_payload = r.varint()? == 1;
            let payload = r.bytes()?.to_vec();
            let ledger = r.bytes()?.to_vec();
            r.expect_end()?;
            Ok(Verdict {
                ok,
                payload: has_payload.then_some(payload),
                ledger,
                bytes_sent,
                messages_sent,
            })
        };
        parse().map_err(|e| format!("undecodable artifact: {e}"))
    }
}

/// Conditions that fail the whole run when found after the window.
#[derive(Debug, Default)]
pub struct Health {
    /// Epochs the socket deployment ran in-process instead.
    pub fallbacks: u64,
    /// Why the durable service went read-only, if it did.
    pub drained: Option<String>,
}

/// A started host serving one workload. Dropping it tears it down.
pub trait Host {
    /// Submits one spec and waits for its verdict (the closed loop).
    fn query(&mut self, spec: &QuerySpec) -> Result<Verdict, String>;

    /// The host's health after serving.
    fn health(&self) -> Health {
        Health::default()
    }
}

/// The configuration every threaded host runs at: one engine worker is
/// all a single pinned CPU can interleave deterministically, and the
/// closed loop never has a second query to admit.
pub const SERVICE: ServiceConfig = ServiceConfig {
    workers: 1,
    max_concurrent: 1,
    mailbox_capacity: 4096,
};

fn span<'a>(probe: Option<&'a Arc<Probe>>, name: &str) -> Option<SpanGuard<'a>> {
    probe.map(|p| p.tracer.span(name))
}

fn platform(probe: Option<&Arc<Probe>>, inputs: &Inputs) -> Platform {
    match probe {
        Some(p) => build_platform(p, inputs),
        None => Platform::build(inputs.world.clone()),
    }
}

// ---- simulator ----

struct SimHost {
    inputs: Arc<Inputs>,
    platform: Platform,
}

impl Host for SimHost {
    fn query(&mut self, spec: &QuerySpec) -> Result<Verdict, String> {
        let run = self
            .platform
            .run_query(spec, &self.inputs.privacy, &self.inputs.resilience)
            .map_err(|e| e.to_string())?;
        Ok(Verdict::of(&run.report))
    }
}

// ---- in-process live service, volatile or durable ----

struct ServiceHost {
    inputs: Arc<Inputs>,
    service: QueryService,
    probe: Option<Arc<Probe>>,
}

impl Host for ServiceHost {
    fn query(&mut self, spec: &QuerySpec) -> Result<Verdict, String> {
        // Traced, this is the root the backend decorator's spans hang
        // under; the engine's share of it is attributed by the
        // decomposed path instead.
        let _root = self.probe.as_ref().map(|p| p.tracer.query("client.submit"));
        let outcome = self
            .service
            .submit(spec, &self.inputs.privacy, &self.inputs.resilience, None)
            .map_err(|e| e.to_string())?;
        Ok(Verdict::of(&outcome.run.report))
    }

    fn health(&self) -> Health {
        Health {
            drained: self.service.drain_reason(),
            ..Health::default()
        }
    }
}

impl Drop for ServiceHost {
    fn drop(&mut self) {
        self.service.shutdown();
    }
}

/// Writes the WAL every `durable_grouping` cold start recovers:
/// `PREWRITTEN_EPOCHS` completed epochs (intent + completion each), no
/// checkpoint, carrying one real query's payload and ledger so replay
/// decodes and merges realistic records.
pub fn write_wal_template(inputs: &Inputs, dir: &Path) -> Result<(), String> {
    let spec = inputs.canonical_spec();
    let report = Platform::build(inputs.world.clone())
        .run_query(&spec, &inputs.privacy, &inputs.resilience)
        .map_err(|e| e.to_string())?
        .report;
    let backend = FileBackend::open(dir).map_err(|e| e.to_string())?;
    let log = GroupCommitLog::new(
        Arc::new(backend),
        RetryPolicy::default(),
        GroupCommitConfig::default(),
    );
    let mut records = Vec::with_capacity(2 * PREWRITTEN_EPOCHS as usize);
    for epoch in 1..=PREWRITTEN_EPOCHS {
        records.push(edgelet_wire::to_bytes(&WalRecord::Intent {
            epoch,
            spec_digest: spec_digest(&spec),
        }));
        records.push(edgelet_wire::to_bytes(&WalRecord::Completion {
            epoch,
            result_payload: report.result_payload.clone(),
            ledger: report.ledger.clone(),
            trace_digest: None,
        }));
    }
    log.commit_all(&records).map_err(|e| e.to_string())
}

/// Copies the flat WAL template directory to `to`.
pub fn copy_wal(template: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copy WAL template: {e}");
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(template).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}

// ---- socket deployment ----

/// The world the daemon and its worker each rebuild per epoch from the
/// canonical world-spec bytes, as the CLI's world-spec codec does for
/// real deployments. The seed is all the bytes carry; the inputs are a
/// pure function of it.
pub struct NetWorld {
    /// The generated inputs both sides rebuild from.
    pub inputs: Arc<Inputs>,
}

impl NetWorld {
    /// The bytes a client submits and the daemon compares against.
    pub fn spec_bytes(&self) -> Vec<u8> {
        format!("edgelet-benchmark/1 world-seed={}", self.inputs.world.seed).into_bytes()
    }

    /// Refuses bytes that are not this world's.
    pub fn check(&self, spec: &[u8]) -> edgelet_util::Result<()> {
        if spec == self.spec_bytes() {
            return Ok(());
        }
        Err(edgelet_util::Error::InvalidConfig(
            "world spec does not match the benchmark's canonical world".into(),
        ))
    }
}

impl WorldBuilder for NetWorld {
    fn build(
        &self,
        spec: &[u8],
        epoch: u64,
        workers: usize,
    ) -> edgelet_util::Result<PreparedQuery> {
        self.check(spec)?;
        let platform = Platform::build(self.inputs.world.clone());
        prepare_live_query(
            &platform,
            &self.inputs.canonical_spec(),
            &self.inputs.privacy,
            &self.inputs.resilience,
            Arc::new(CollectorTransport::new(workers)),
            &LiveRunOptions::new(workers, epoch),
        )
    }
}

/// Daemon + one socket worker + the serve loop, all in this process but
/// speaking only through the socket, as `tests/net_parity.rs` deploys
/// them.
struct NetHost {
    addr: Addr,
    path: PathBuf,
    spec_bytes: Vec<u8>,
    daemon: Arc<Daemon>,
    service: Arc<QueryService>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    probe: Option<Arc<Probe>>,
}

impl NetHost {
    /// Binds `path`, starts the worker and the serve loop, and waits
    /// for the worker's handshake.
    fn start(
        inputs: &Arc<Inputs>,
        probe: Option<&Arc<Probe>>,
        path: PathBuf,
    ) -> Result<NetHost, String> {
        let world = |side: &'static str| -> Arc<dyn WorldBuilder> {
            let world = NetWorld {
                inputs: inputs.clone(),
            };
            match probe {
                Some(probe) => Arc::new(TimedWorld {
                    world,
                    span: side,
                    probe: probe.clone(),
                }),
                None => Arc::new(world),
            }
        };
        let spec_bytes = NetWorld {
            inputs: inputs.clone(),
        }
        .spec_bytes();
        let addr = Addr::Uds(path.clone());
        let stop = Arc::new(AtomicBool::new(false));
        let daemon = {
            let _s = span(probe, "net.daemon_start");
            Arc::new(
                Daemon::start(
                    &addr,
                    NetConfig {
                        expected_workers: 1,
                        world_spec: spec_bytes.clone(),
                        ..NetConfig::default()
                    },
                    world("net.world_build.daemon"),
                )
                .map_err(|e| format!("daemon start: {e}"))?,
            )
        };
        let worker = {
            let (addr, stop, builder) =
                (addr.clone(), stop.clone(), world("net.world_build.worker"));
            std::thread::spawn(move || {
                // A rejected session leaves the fleet incomplete; the
                // wait below then times out and reports it.
                let _ = run_worker(&WorkerConfig::new(addr), builder, &stop);
            })
        };
        let service = Arc::new(QueryService::new(platform(probe, inputs), SERVICE));
        service.set_remote(match probe {
            Some(probe) => Arc::new(TimedRemote {
                daemon: daemon.clone(),
                probe: probe.clone(),
            }) as Arc<dyn RemoteExecutor>,
            None => daemon.clone(),
        });
        let serve_loop = {
            let (daemon, service, stop) = (daemon.clone(), service.clone(), stop.clone());
            let (inputs, canonical, probe) = (inputs.clone(), spec_bytes.clone(), probe.cloned());
            std::thread::spawn(move || {
                let spec = inputs.canonical_spec();
                while !stop.load(Ordering::Acquire) {
                    let Some(sub) = daemon.next_submission(Duration::from_millis(100)) else {
                        continue;
                    };
                    if sub.spec != canonical {
                        sub.reject("world spec does not match this daemon's".into());
                        continue;
                    }
                    let result = {
                        let _s = span(probe.as_ref(), "live.submit");
                        service.submit(&spec, &inputs.privacy, &inputs.resilience, None)
                    };
                    match result {
                        Ok(outcome) => sub.respond(Verdict::of(&outcome.run.report).to_artifact()),
                        Err(e) => sub.reject(e.to_string()),
                    }
                }
            })
        };
        let host = NetHost {
            addr,
            path,
            spec_bytes,
            daemon,
            service,
            stop,
            threads: vec![serve_loop, worker],
            probe: probe.cloned(),
        };
        let _s = span(probe, "net.wait_workers");
        if !host.daemon.wait_workers(Duration::from_secs(30)) {
            return Err("the socket worker did not register within 30 s".into());
        }
        Ok(host)
    }
}

impl Host for NetHost {
    fn query(&mut self, _spec: &QuerySpec) -> Result<Verdict, String> {
        let probe = self.probe.as_ref();
        let _root = probe.map(|p| p.tracer.query("client.query"));
        let net = |e: edgelet_util::Error| format!("client: {e}");
        let mut stream = {
            let _s = span(probe, "net.client_connect");
            MsgStream::new(Stream::connect(&self.addr).map_err(net)?)
        };
        // Everything the daemon side does nests under this wait; its
        // self time is the client hop.
        let _wait = span(probe, "net.client_roundtrip");
        stream.send(&NetMsg::hello(Role::Client)).map_err(net)?;
        stream
            .send(&NetMsg::SubmitReq {
                spec: self.spec_bytes.clone(),
            })
            .map_err(net)?;
        match stream.recv(Some(Duration::from_secs(60))).map_err(net)? {
            NetMsg::SubmitResp { artifact } => Verdict::from_artifact(&artifact),
            NetMsg::Reject { reason } => Err(format!("rejected: {reason}")),
            other => Err(format!("unexpected daemon reply: {other:?}")),
        }
    }

    fn health(&self) -> Health {
        Health {
            fallbacks: self.service.remote_fallbacks(),
            ..Health::default()
        }
    }
}

impl Drop for NetHost {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Closing the registered streams wakes the worker out of its
        // receive; it then observes `stop` instead of reconnecting.
        self.daemon.shutdown();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        self.service.shutdown();
        let _ = std::fs::remove_file(&self.path);
    }
}

// ---- cold start ----

/// Cold-starts the workload's host: everything from nothing to "ready
/// for the first query" — crowd enrollment, service construction, and
/// WAL recovery or daemon bind + worker handshake where the host has
/// them. This is what `setup_s` times.
///
/// `wal_dir` must already hold the WAL to recover (`durable_grouping`
/// only; copying it there is preparation, not start-up).
pub fn cold_start(
    inputs: &Arc<Inputs>,
    probe: Option<&Arc<Probe>>,
    wal_dir: &Path,
    socket: PathBuf,
) -> Result<Box<dyn Host>, String> {
    let inputs_arc = inputs.clone();
    match inputs.kind {
        Kind::SimPollingChurn => Ok(Box::new(SimHost {
            platform: platform(probe, inputs),
            inputs: inputs_arc,
        })),
        Kind::LiveKmeans => Ok(Box::new(ServiceHost {
            service: QueryService::new(platform(probe, inputs), SERVICE),
            inputs: inputs_arc,
            probe: probe.cloned(),
        })),
        Kind::DurableGrouping => {
            let platform = platform(probe, inputs);
            let _s = span(probe, "live.with_durability");
            let file = FileBackend::open(wal_dir).map_err(|e| e.to_string())?;
            let backend: Arc<dyn DurableBackend> = match probe {
                Some(probe) => TimedBackend::new(file, probe),
                None => Arc::new(file),
            };
            let (service, recovery) = QueryService::with_durability(
                platform,
                SERVICE,
                backend,
                DurabilityConfig::default(),
            );
            if recovery.records_replayed != 2 * PREWRITTEN_EPOCHS as usize {
                return Err(format!(
                    "recovery replayed {} records, expected {}",
                    recovery.records_replayed,
                    2 * PREWRITTEN_EPOCHS
                ));
            }
            Ok(Box::new(ServiceHost {
                service,
                inputs: inputs_arc,
                probe: probe.cloned(),
            }))
        }
        Kind::NetGrouping => Ok(Box::new(NetHost::start(inputs, probe, socket)?)),
    }
}
