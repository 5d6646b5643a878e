//! `qrn-store`: an append-only segmented evidence store with time-travel
//! burn-down replay.
//!
//! The QRN method (Warg et al., DSN-W 2020) turns safety assurance into
//! budget accounting over accumulated incident evidence. `qrn-serve`
//! keeps that evidence live in memory and checkpoints whole states; this
//! crate adds the durable, replayable history a real fleet — and a real
//! auditor — needs: every accepted telemetry batch is appended to an
//! on-disk segment log, so "what did the burn-down look like at time T?"
//! and "when did this budget enter Watch?" are answerable *after the
//! fact*, from the store alone.
//!
//! # Architecture
//!
//! * **One writer, many readers.** A [`Store`] is single-writer by
//!   construction: exactly one owner appends, rolls and compacts segment
//!   files ([`writer::StoreWriterHandle`] serialises a multi-threaded
//!   server onto that owner), and cross-process exclusivity is enforced
//!   by an advisory [`LOCK_FILE`] lock taken at [`Store::open`] and
//!   released on drop or process death. Readers ([`StoreReader`]) never
//!   take a lock the writer holds — they list and read closed segments
//!   (immutable once renamed into place) plus the open segment's record
//!   prefix, so historical queries never block ingest.
//! * **Length-prefixed, checksummed records.** Each record frames its
//!   payload with a CRC32 and a millisecond timestamp
//!   ([`record`]-module docs give the exact layout). A torn tail —
//!   the one corruption a crash can produce in an append-only file — is
//!   detected and truncated on reopen; corruption anywhere else is a
//!   loud [`StoreError::Corrupt`], never silently folded evidence.
//! * **Sequence screening.** Batches are screened line-by-line against
//!   per-source monotone `seq` numbers before ingest: duplicates are
//!   rejected, gaps are counted ([`AppendReceipt`] and
//!   [`StoreStatus`] carry the tallies). A lossy uplink therefore shows
//!   up as audited numbers, not as quietly-missing evidence — the
//!   precondition for treating fleet data as validation evidence at all.
//! * **Snapshots and compaction.** Periodic snapshot records carry the
//!   serialised fold state (an [`qrn_fleet::ingest::FleetState`], whose
//!   statistical core is the `EvidenceLedger`), so historical queries
//!   and recovery fold *snapshot + tail* instead of the whole log (they
//!   still checksum every record); compaction rewrites
//!   closed segments into a single snapshot segment. Both are proven
//!   byte-identical to full replay by property tests — the same
//!   associative-merge contract `fold_states` honours.
//!
//! # Determinism
//!
//! A snapshot is the *literal serialised intermediate state* of the same
//! left fold replay performs, and replay folds batch-by-batch in append
//! order — never as one concatenated parse — so snapshot + tail, full
//! replay, post-compaction replay and the live writer's replica agree
//! byte for byte, floats included. Time-travel queries
//! ([`StoreReader::fold_as_of`]) inherit the guarantee because record
//! timestamps are forced monotone at append time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod reader;
pub mod record;
pub mod segment;
pub mod store;
pub mod writer;

pub use reader::{
    HistoryPoint, ReplaySummary, SegmentInfo, StoreHistory, StoreReader, VerifyReport,
};
pub use store::{AppendReceipt, Store, StoreConfig, StoreStatus, LOCK_FILE};
pub use writer::{AppendHook, StoreStats, StoreWriterHandle};

use std::fmt;

use qrn_fleet::error::FleetError;

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// An i/o failure while appending, rolling, compacting or reading.
    Io(String),
    /// Stored bytes that exist but do not decode — a checksum mismatch,
    /// an unknown record kind, an unparseable snapshot, a missing
    /// segment. Never produced for a torn tail of the open segment,
    /// which reopen repairs silently (and reports as
    /// [`ReplaySummary::torn_tail_bytes`]).
    Corrupt(String),
    /// An invalid store configuration or request.
    Config(String),
    /// A fleet-layer failure while folding batch payloads.
    Fleet(FleetError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "store i/o error: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "store corruption: {msg}"),
            StoreError::Config(msg) => write!(f, "invalid store configuration: {msg}"),
            StoreError::Fleet(err) => write!(f, "store fleet error: {err}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<FleetError> for StoreError {
    fn from(err: FleetError) -> Self {
        StoreError::Fleet(err)
    }
}
