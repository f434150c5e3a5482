//! Distributed execution of Edgelet query plans over the simulator.
//!
//! This crate turns a [`edgelet_query::QueryPlan`] into protocol actors
//! installed on simulated devices, runs the three phases of §3.2
//! (collection → computation → combination), and reports what the demo
//! platform visualizes: completion, validity, accuracy, message costs and
//! the crowd-liability spread.
//!
//! * [`messages`] — the wire protocol between operators;
//! * [`config`] — execution knobs (timeouts, heartbeat period, channel
//!   encryption);
//! * [`ledger`] — crowd-liability accounting;
//! * [`roles`] — one actor per operator role: Data Contributor, Snapshot
//!   Builder, Computer (grouping and K-Means variants), Computing Combiner
//!   (+ Active Backup), Querier;
//! * [`centralized`] — the reference executor used for validity checks;
//! * [`driver`] — wiring, execution, and the [`driver::ExecutionReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod centralized;
pub mod config;
pub mod driver;
pub mod ledger;
pub mod messages;
pub mod roles;

pub use config::ExecConfig;
pub use driver::{
    assemble_plan, execute_plan, finish_report, ExecutionReport, PlanAssembly, QueryOutcome,
};
/// The element type of [`PlanAssembly::sliced_queries`], for hosts that
/// keep those past the assembly.
pub use edgelet_ml::grouping::GroupingQuery;
pub use ledger::{DenseLedger, FlatLedger, Ledger};
