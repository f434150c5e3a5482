//! Edgelet computing: resilient, privacy-preserving query processing on
//! personal devices.
//!
//! This crate is the public facade of the reproduction of *"Pushing Edge
//! Computing one Step Further: Resilient and Privacy-Preserving Processing
//! on Personal Devices"* (EDBT 2023). It assembles the substrates —
//! simulated TEE devices, an uncertain network, per-device personal data
//! stores — into a [`Platform`] on which Edgelet queries execute:
//!
//! ```
//! use edgelet_core::prelude::*;
//!
//! // A crowd: 600 contributors with one health record each, 80 volunteer
//! // processors, lossy network, 10% fault presumption.
//! let config = PlatformConfig {
//!     contributors: 600,
//!     processors: 80,
//!     network: NetworkProfile::Lossy { drop_probability: 0.05 },
//!     ..PlatformConfig::default()
//! };
//! let mut platform = Platform::build(config);
//!
//! // "How many people over 65, by sex?" over a snapshot of 200.
//! let spec = platform.grouping_query(
//!     Predicate::cmp("age", CmpOp::Gt, Value::Int(65)),
//!     200,
//!     &[&["sex"], &[]],
//!     vec![AggSpec::count_star(), AggSpec::over(AggKind::Avg, "bmi")],
//! );
//! let run = platform
//!     .run_query(
//!         &spec,
//!         &PrivacyConfig::none().with_max_tuples(50),
//!         &ResilienceConfig::default(),
//!     )
//!     .unwrap();
//! assert!(run.report.completed);
//! ```
//!
//! The per-subsystem crates remain available under their own names and are
//! re-exported here for convenience.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod platform;
pub mod scenario;

pub use config::{DeviceMix, NetworkProfile, PlatformConfig};
pub use platform::{Platform, RunResult};
pub use scenario::Scenario;

pub use edgelet_exec as exec;
pub use edgelet_ml as ml;
pub use edgelet_privacy as privacy;
pub use edgelet_query as query;
pub use edgelet_sim as sim;
pub use edgelet_store as store;
pub use edgelet_tee as tee;
pub use edgelet_util as util;
pub use edgelet_wire as wire;

/// Convenience imports for applications.
pub mod prelude {
    pub use crate::config::{DeviceMix, NetworkProfile, PlatformConfig};
    pub use crate::platform::{Platform, RunResult};
    pub use crate::scenario::Scenario;
    pub use edgelet_exec::{ExecConfig, ExecutionReport, QueryOutcome};
    pub use edgelet_ml::{AggKind, AggSpec};
    pub use edgelet_query::{PrivacyConfig, QueryKind, QuerySpec, ResilienceConfig, Strategy};
    pub use edgelet_store::{CmpOp, Predicate, Value};
    pub use edgelet_tee::DeviceClass;
    pub use edgelet_util::ids::{DeviceId, QueryId};
}
