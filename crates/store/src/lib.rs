//! Per-edgelet personal data store.
//!
//! Each edgelet hosts its owner's raw data (the DomYcile box stores the
//! medical record on a micro-SD card; a phone stores its owner's profile).
//! Edgelet computing treats those stores as a horizontal partitioning of a
//! shared logical database: all stores conform to a common [`Schema`].
//!
//! * [`value`] — typed values and column types;
//! * [`schema`] — schemas and column resolution;
//! * [`row`] — rows and their wire encoding;
//! * [`expr`] — the predicate language (`age > 65 AND gir <= 3`);
//! * [`store`] — the store itself: insert, filtered scans, projection,
//!   reservoir sampling;
//! * [`durable`] — durability substrate: the [`DurableBackend`] trait
//!   over a segmented append-only log + checkpoint blob, with in-memory
//!   and file-backed implementations and deterministic storage-fault
//!   injection ([`FaultyBackend`]);
//! * [`wal`] — checksummed, length-prefixed WAL record framing, the
//!   per-segment torn-tail/corruption recovery scan, and the retrying
//!   [`DurableLog`] front end (see `docs/STORAGE.md`);
//! * [`groupcommit`] — the [`GroupCommitLog`] fast path: leader/follower
//!   sync coalescing, size-triggered segment rotation, and
//!   checkpoint-aware compaction;
//! * [`synth`] — the synthetic health-survey dataset generator standing in
//!   for the private DomYcile data (see DESIGN.md §2);
//! * [`csv`] — plain-text import/export used by the examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod durable;
pub mod expr;
pub mod groupcommit;
pub mod row;
pub mod schema;
pub mod store;
pub mod synth;
pub mod value;
pub mod wal;

pub use durable::{
    DurableBackend, FaultyBackend, FileBackend, FrameRef, MemBackend, StorageError,
    StorageFaultAction, StorageFaultPlan, StorageFaultRule, StorageResult,
};
pub use expr::{CmpOp, Predicate};
pub use groupcommit::{GroupCommitConfig, GroupCommitLog};
pub use row::Row;
pub use schema::{Column, Schema};
pub use store::DataStore;
pub use value::{ColumnType, Value};
pub use wal::{
    frame_header, frame_record, scan_frames, scan_wal, DurableLog, FrameScan, Recovered,
    RetryPolicy, TailState, WalScan,
};
