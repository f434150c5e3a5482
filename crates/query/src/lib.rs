//! Query Execution Plans (QEPs) for Edgelet computing.
//!
//! A QEP is a directed graph whose vertices are operators (Data
//! Contributors, Snapshot Builders, Computers, Computing Combiners and
//! their Active Backups, the Querier) and whose edges are dataflow (§2.1).
//! This crate turns a query specification plus privacy and resiliency
//! parameters into a concrete plan:
//!
//! * [`spec`] — what to compute: filter, snapshot cardinality `C`,
//!   Grouping-Sets or K-Means payload, deadline;
//! * [`config`] — the knobs the demo lets attendees turn: max raw tuples
//!   per edgelet (horizontal partitioning), attribute pairs to separate
//!   (vertical partitioning), failure probability and target validity
//!   (resiliency), strategy choice;
//! * [`vertical`] — attribute-separation planning (greedy coloring of the
//!   conflict graph);
//! * [`resilience`] — the Overcollection degree `m` and Backup degree `b`
//!   planners built on exact binomial tails;
//! * [`plan`] — plan construction and device assignment;
//! * [`render`] — ASCII and Graphviz rendering of plans;
//! * [`cost`] — an analytic message/latency estimator the tests hold
//!   against the simulator's measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod plan;
pub mod render;
pub mod resilience;
pub mod spec;
pub mod vertical;

pub use config::{PrivacyConfig, ResilienceConfig, Strategy};
pub use cost::{estimate, CostEstimate};
pub use plan::{OperatorRole, PlannedOperator, QueryPlan};
pub use spec::{QueryKind, QuerySpec};
