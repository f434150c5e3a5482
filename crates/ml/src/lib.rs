//! Compute kernels for Edgelet queries.
//!
//! Two families, matching the demo's two queries:
//!
//! * [`aggregate`] + [`grouping`] — distributive SQL aggregates
//!   (COUNT/SUM/MIN/MAX, AVG as SUM+COUNT) and **Grouping Sets** evaluation:
//!   several Group-By clauses over the same sample in one pass, with
//!   mergeable partial states — exactly what the Overcollection strategy
//!   needs (each Computer produces a partial, the Combiner merges);
//! * [`kmeans`] + [`distributed`] — K-Means (k-means++ seeding, Lloyd and
//!   mini-batch refinement) and the distributed-knowledge form used by the
//!   paper's iterative execution: each Computer improves centroids locally
//!   and broadcasts them; peers merge by weighted barycenter;
//! * [`matrix`] — the contiguous row-major [`Matrix`] storage every ML
//!   kernel runs on (one allocation per dataset, rows as flat slices);
//! * [`metrics`] — clustering quality measures (inertia, adjusted Rand
//!   index) used to quantify accuracy vs. heartbeats in experiment E4;
//! * [`gen`] — Gaussian-mixture generator for clusterable synthetic data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod distributed;
pub mod gen;
pub mod grouping;
pub mod kmeans;
pub mod matrix;
pub mod metrics;

pub use aggregate::{AggKind, AggSpec, PartialAgg};
pub use matrix::Matrix;
