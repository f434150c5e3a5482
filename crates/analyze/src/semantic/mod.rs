//! Layer 1: semantic analysis of a [`QueryPlan`] and its configuration.
//!
//! The paper's guarantees — resiliency (complete before the deadline under
//! a fault presumption rate), validity, and crowd liability — are
//! properties of the QEP and the scenario configuration, so most
//! violations are statically detectable before a single simulated message
//! is sent. Each pass inspects one property family and emits
//! [`Diagnostic`]s with stable codes:
//!
//! * [`structure`] — DAG shape and wiring (`E001`–`E005`);
//! * [`privacy`] — vertical-partitioning safety and the horizontal
//!   raw-tuple cap (`E010`, `E011`, `W012`);
//! * [`resiliency`] — provisioning vs. the binomial survival tail
//!   (`E020`, `W021`, `W022`);
//! * [`liability`] — crowd-liability skew bounds (`E030`, `W031`);
//! * [`deadline`] — deadline feasibility against the cost model's
//!   critical path (`E040`, `W041`).

use crate::diagnostic::{Diagnostic, Severity};
use edgelet_query::{PrivacyConfig, QueryPlan, ResilienceConfig};
use edgelet_util::{Error, Result};

pub mod deadline;
pub mod liability;
pub mod privacy;
pub mod resiliency;
pub mod structure;

/// Tunable bounds for the semantic passes.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeOptions {
    /// Expected one-hop message latency, used to lower-bound the critical
    /// path for deadline feasibility. Conservative by default; set it from
    /// the network profile for sharper results (e.g. the opportunistic
    /// median).
    pub expected_hop_latency_secs: f64,
    /// Crowd-liability bound: the maximum Data Processor operator
    /// instances one device may host. The paper's secure assignment
    /// spreads operators, so 1 is the faithful bound.
    pub max_operators_per_device: usize,
    /// Contributor-assignment skew bound: warn when the fullest partition
    /// bucket exceeds this multiple of the mean bucket size.
    pub contributor_skew_factor: f64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        Self {
            expected_hop_latency_secs: 1.0,
            max_operators_per_device: 1,
            contributor_skew_factor: 4.0,
        }
    }
}

/// Runs the passes that need only the plan itself: structure, liability,
/// and deadline feasibility. This is the execution-driver preflight set.
pub fn analyze_plan(plan: &QueryPlan, opts: &AnalyzeOptions) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    structure::check(plan, &mut out);
    let well_formed = !out.iter().any(|d| d.severity == Severity::Error);
    liability::check(plan, opts, &mut out);
    // The cost model behind the deadline pass indexes the plan by
    // partition, so a plan the structure pass refused never reaches it.
    if well_formed {
        deadline::check(plan, opts, &mut out);
    }
    out
}

/// Runs every pass: the plan-only set plus the privacy and resiliency
/// passes, which need the configurations the plan was built from.
pub fn analyze(
    plan: &QueryPlan,
    privacy_config: &PrivacyConfig,
    resilience: &ResilienceConfig,
    opts: &AnalyzeOptions,
) -> Vec<Diagnostic> {
    let mut out = analyze_plan(plan, opts);
    privacy::check(plan, privacy_config, &mut out);
    resiliency::check(plan, resilience, &mut out);
    out.sort_by_key(|d| std::cmp::Reverse(d.severity));
    out
}

/// Deny-by-default preflight: analyzes the plan and converts the first
/// `Error`-severity finding into an [`Error::InvalidConfig`]. The
/// execution driver calls this before wiring actors.
pub fn preflight(plan: &QueryPlan) -> Result<()> {
    let findings = analyze_plan(plan, &AnalyzeOptions::default());
    match findings.iter().find(|d| d.severity == Severity::Error) {
        None => Ok(()),
        Some(d) => Err(Error::InvalidConfig(format!(
            "static analysis rejected the plan: [{}] {} ({})",
            d.code, d.message, d.location
        ))),
    }
}
