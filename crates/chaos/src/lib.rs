//! Deterministic chaos harness for the Edgelet platform.
//!
//! The simulator's [`edgelet_sim::FaultPlan`] DSL can drop, delay,
//! duplicate, reorder, and crash messages by *protocol position* — "the
//! third `GROUPING_PARTIAL`", "the contribution that meets the quota".
//! This crate turns that primitive into a campaign harness:
//!
//! * [`scenario`] — the two canonical worlds the campaign perturbs
//!   (a Backup-strategy Grouping-Sets survey and an Overcollection
//!   K-Means), sized so a run takes milliseconds;
//! * [`plans`] — a catalog of named fault plans built against each
//!   world's actual QEP (crash the primary combiner on its first
//!   partial, crash a builder the instant its quota is met, sever
//!   computers from combiners, ...);
//! * [`oracle`] — post-run machine checks replaying the trace ring
//!   buffer: no post-crash sends, single active replica per Backup
//!   operator, ledger liability caps, validity arithmetic, deadline
//!   feasibility against the binomial overcollection model;
//! * [`campaign`] — sweeps seeds x plans, records failing
//!   `(seed, plan, trace_digest)` triples, and *shrinks* each failure
//!   (dropping rules, bisecting skip counts and delays) to a minimal
//!   repro;
//! * [`corpus`] — a line-oriented serialization of repro entries under
//!   `tests/chaos_corpus/`, replayable by tests and CI;
//! * [`storage`] — the durability counterpart: drills that inject
//!   [`edgelet_store::StorageFaultPlan`] faults (torn tails, truncated
//!   records, failed syncs, checksum flips) into the durable live
//!   service's WAL and require byte-identical recovery or a
//!   deterministic read-only drain (see `docs/STORAGE.md`).
//!
//! Everything is virtual-time deterministic: the same seed and plan
//! produce the same trace digest and the same oracle verdict, so a
//! failing triple found by the nightly campaign replays bit-for-bit on
//! a developer machine. See `docs/FAULTS.md` for the fault model and
//! the pinned invariants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod corpus;
pub mod oracle;
pub mod plans;
pub mod scenario;
pub mod storage;

pub use campaign::{
    run_campaign, run_one, run_one_sharded, shrink, shrink_sharded, CampaignConfig, CampaignReport,
    Failure,
};
pub use corpus::{load_dir, CorpusEntry, ReplayReport};
pub use edgelet_sim::FaultPlan;
pub use oracle::{check_run, signature, Violation};
pub use plans::{catalog, plan_for_seed, NamedPlan};
pub use scenario::{ChaosRun, ChaosScenario, Session};
