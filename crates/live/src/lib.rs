//! `edgelet-live` — the multithreaded live runtime.
//!
//! The simulator (`edgelet-sim`) answers "what would the protocol do";
//! this crate actually *does* it: the same role actors
//! (`edgelet-exec`'s Contributor, Snapshot Builder, Computer, Combiner,
//! Active Backup, Querier) run on std worker threads, exchanging the
//! same `edgelet-wire` envelopes over a pluggable, lock-striped, bounded
//! [`Transport`](edgelet_wire::Transport) — no async runtime, no
//! scheduler shims.
//!
//! * [`engine`] — the live host of the shared executor core
//!   (`edgelet_sim::exec`): the simulator's slices, decision loop and
//!   barriers, so outcomes are **bit-equivalent** by construction (the
//!   argument is DESIGN.md §"One executor, three barriers"; the
//!   proof-by-test is `tests/live_parity.rs`);
//! * [`round`] — the transport hook, the only live-specific code on a
//!   window's path;
//! * [`transport`] — [`transport::StripedTransport`], the in-process
//!   sharded fabric: per-epoch bounded mailbox lanes of envelopes;
//! * [`harness`] — building a live world from an enrolled
//!   [`Platform`](edgelet_core::Platform) and running one query, step
//!   for step as `Platform::run_query` does;
//! * [`service`] — [`service::QueryService`]: admission control,
//!   concurrent multi-query serving with per-query epochs, wall-clock
//!   deadline watchdogs, graceful shutdown;
//! * [`durable`] — durable service state: WAL records (intent /
//!   completion), the idempotent [`durable::DurableState`] replay, spec
//!   digests, scripted [`durable::CrashPoint`]s, and the recovery
//!   report — the service side of the storage layer in
//!   `edgelet-store::wal` (model in `docs/STORAGE.md`, proof-by-test in
//!   `tests/durability_restart.rs`);
//! * [`model`] — the deterministic schedule-exploration harness:
//!   [`model::yield_point`] seams in the transport and service compile
//!   to nothing in release builds, and under test `model::explore`
//!   enumerates every bounded interleaving of a scripted scenario,
//!   asserting deadlock freedom and byte-identical outcomes (the
//!   dynamic counterpart of the Layer-3 static concurrency analysis in
//!   `docs/ANALYZER.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod engine;
pub mod harness;
pub mod model;
pub(crate) mod round;
pub mod service;
pub mod transport;

pub use durable::{
    spec_digest, state_crc, CrashHandler, CrashPoint, DurabilityConfig, DurableState,
    RecoveryReport, WalRecord,
};
pub use engine::{EngineParts, ExitReason, LiveConfig, LiveEngine, PayloadClassifier};
pub use harness::{
    build_live_world, prepare_live_query, run_live_query, LiveRun, LiveRunOptions, PreparedInputs,
    PreparedQuery,
};
pub use service::{QueryService, RemoteExecutor, ServiceConfig, SubmitError, SubmitOutcome};
pub use transport::StripedTransport;
