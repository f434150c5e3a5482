//! Static analysis for Edgelet computing.
//!
//! Every pass reports into one [`Diagnostic`] model:
//!
//! * [`semantic`] — analyzes a built [`QueryPlan`](edgelet_query::QueryPlan)
//!   plus its privacy/resiliency configuration against the paper's
//!   guarantees: DAG wiring, vertical-partitioning safety, the horizontal
//!   raw-tuple cap, resiliency provisioning vs. the binomial survival
//!   tail, crowd-liability skew, and deadline feasibility. The execution
//!   driver runs the plan-only subset as a deny-by-default
//!   [`preflight`]; the CLI exposes the full set as
//!   `edgelet analyze`.
//! * [`faultplan`] — checks a [`FaultPlan`](edgelet_sim::FaultPlan) (the
//!   `--fault-plan` a world installs, and the chaos catalog) for rules
//!   that cannot fire: out-of-world targets, empty windows,
//!   post-deadline activation, first-firing-wins shadowing.
//! * [`simconfig`], [`liveconfig`], [`storageconfig`], [`netconfig`] —
//!   preflight the simulator, live-runtime, durable-storage and
//!   multi-process knobs before a run starts. Where another crate owns a
//!   check (`Addr::parse`, `FileBackend::open`), the caller runs it and
//!   these passes report its outcome.
//! * [`lint`] — a token-level source scanner that keeps nondeterminism,
//!   panic paths, unbounded channels and unsynchronized shared state out
//!   of the workspace's crates.
//! * [`concurrency`] — Layer 3: a per-crate lock model built on the same
//!   [`scanner`] parse, reporting lock-order inversions (`E130`) and
//!   locks held across blocking calls (`E132`).
//! * [`sourcepass`] — runs both source layers in one workspace walk and
//!   audits `lint: allow(..)` directives for staleness (`W131`); the CLI
//!   runs it as `edgelet analyze --workspace-root .`.
//!
//! Diagnostics carry stable codes documented in `docs/ANALYZER.md`, and
//! render as compiler-style text or JSON in a deterministic
//! file/line/code order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrency;
pub mod diagnostic;
pub mod faultplan;
pub mod lint;
pub mod liveconfig;
pub mod netconfig;
pub mod scanner;
pub mod semantic;
pub mod simconfig;
pub mod sourcepass;
pub mod storageconfig;

#[cfg(test)]
pub(crate) mod testutil;

pub use diagnostic::{
    has_errors, render_human, render_json, sort_diagnostics, Diagnostic, Severity,
};
pub use faultplan::check_fault_plan;
pub use liveconfig::check_live_config;
pub use netconfig::{check_net_config, NetSurface};
pub use semantic::{analyze, analyze_plan, preflight, AnalyzeOptions};
pub use simconfig::check_sim_config;
pub use sourcepass::analyze_sources;
pub use storageconfig::check_storage_config;
