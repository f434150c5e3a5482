//! `edgelet-net` — socket-backed transport and multi-process worker
//! deployment for the live runtime.
//!
//! The live runtime (`edgelet-live`) proved the protocol runs
//! bit-identically to the simulator inside one process; this crate
//! takes the remaining step of the paper's edge deployment story: the
//! same conservative-window execution spread across *processes*, over
//! real sockets — Unix domain sockets on one device, TCP across
//! devices — with the same bar: byte-identical result payloads,
//! ledgers, and state CRCs (`tests/net_parity.rs`).
//!
//! * [`framing`] — length-prefixed CRC-trailed frames over a byte
//!   stream; the push decoder is total and deterministic under any
//!   chunking (property-tested);
//! * [`proto`] — the versioned control protocol: handshake, client
//!   submissions, and the daemon↔worker window coordination messages,
//!   all exact integer encodings of the runtime's round state;
//! * [`conn`] — blocking UDS/TCP listeners and streams, framed message
//!   streams, reconnect [`conn::Backoff`], and the real-time
//!   [`conn::TimerHeap`] behind handshake deadlines and reconnect
//!   pacing;
//! * [`transport`] — the [`transport::CollectorTransport`] detached
//!   worlds are built over;
//! * [`daemon`] — the `edgelet serve` side: accept loop, worker
//!   registry with half-open detection, and the socket barrier under
//!   the shared window decision loop, which plugs into [`edgelet_live::QueryService`] as its
//!   [`edgelet_live::RemoteExecutor`] (socket failure → deterministic
//!   in-process fallback);
//! * [`worker`] — the `edgelet worker` side: backoff reconnect loop,
//!   versioned handshake, and the per-window slice server. A fault
//!   plan is part of the world a worker builds: its rules fire on the
//!   worker's own slice, inside the same executor the simulator runs.
//!
//! Protocol and determinism model: `docs/NET.md`, `docs/PROTOCOL.md`
//! §8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod daemon;
pub mod framing;
pub mod proto;
pub mod transport;
pub mod worker;

pub use conn::{Addr, Backoff, Listener, MsgStream, Stream, TimerHeap};
pub use daemon::{Daemon, NetConfig, Submission, WorldBuilder};
pub use framing::{encode_frame, FrameDecoder, FRAME_OVERHEAD, MAX_FRAME_LEN, NET_MAGIC};
pub use proto::{NetMsg, Role, WireRecord, WireRound, PROTO_VERSION};
pub use transport::CollectorTransport;
pub use worker::{run_worker, SessionEnd, WorkerConfig};
