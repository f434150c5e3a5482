//! Deterministic discrete-event simulator for Edgelet computing.
//!
//! The paper's protocols run over "uncertain communications": opportunistic
//! networks, devices that disconnect at will, are temporarily out of reach,
//! or fail outright. This crate provides the virtual world those protocols
//! execute in:
//!
//! * [`time`] — virtual time (`SimTime`, microsecond resolution) and
//!   durations;
//! * [`actor`] — the protocol programming model: actors installed on
//!   devices, exchanging byte messages and timers through a [`actor::Context`];
//! * [`network`] — the link model: latency distributions, message drop and
//!   corruption probabilities;
//! * [`churn`] — per-device availability (up/down renewal process) and
//!   crash-stop failure injection;
//! * [`exec`] — the executor core shared with the live and socket
//!   runtimes: the slice executor, device registration, the window
//!   decision loop and the barrier merge;
//! * [`engine`] — the simulator host around that core (churn,
//!   store-and-forward, fault plans, the sequential fallback);
//! * [`metrics`] — counters every experiment reports (messages, bytes,
//!   drops, delays);
//! * [`trace`] — an optional bounded event log, the textual equivalent of
//!   the demo GUI's step-by-step view.
//!
//! # Semantics
//!
//! *Disconnected* (down) devices keep computing — their timers fire — but
//! cannot send or receive: outgoing messages wait in the sender's outbox,
//! incoming ones in the receiver's inbox, both flushed on reconnection
//! (store-and-forward, as in an OppNet). *Crashed* devices stop entirely
//! and never return. Every random choice derives from one root seed, so
//! runs are exactly reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod churn;
pub mod engine;
pub mod exec;
pub mod fault;
pub mod metrics;
pub mod network;
pub(crate) mod scheduler;
pub(crate) mod shard;
pub mod time;
pub mod trace;

pub use actor::{Actor, Command, Context, TimerToken};
pub use churn::{Availability, CrashPlan};
pub use engine::{DeviceConfig, SimConfig, Simulation};
pub use fault::{
    evaluate_plan, Classifier, CrashCause, FaultAction, FaultCounters, FaultKind, FaultPlan,
    FaultRule, MatchPoint, MsgMatch,
};
pub use metrics::{DelayStats, SimMetrics};
pub use network::{LatencyModel, NetworkModel};
pub use time::{Duration, SimTime};
pub use trace::{Trace, TraceEvent, TraceRecord};
