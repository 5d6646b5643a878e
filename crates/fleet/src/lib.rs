//! # qrn-fleet — streaming fleet evidence and budget burn-down monitoring
//!
//! The QRN paper's central move is to turn safety goals into *quantitative
//! budgets* (`f_{I_k}`) that must be verified against operational evidence,
//! not argued once at design time. The rest of the workspace can state
//! budgets (`qrn-core`), bound rates (`qrn-stats`) and *simulate* fleets
//! (`qrn-sim`); this crate closes the loop by *monitoring* them:
//!
//! 1. [`event`] — an append-only JSONL event log of incident observations
//!    (vehicle id, odometer exposure, raw incident record) with a tolerant,
//!    versioned parser that skips-and-counts malformed lines instead of
//!    aborting the campaign.
//! 2. [`ingest`] — a sharded streaming ingestion engine reusing the
//!    work-stealing pattern of `qrn-sim::monte_carlo`: worker shards claim
//!    fixed line blocks from an atomic queue and fold them into partial
//!    accumulators that are merged in canonical block order, so the
//!    resulting [`ingest::FleetState`] is byte-identical for any shard
//!    count.
//! 3. [`burndown`] — joins the live state against an
//!    [`Allocation`](qrn_core::allocation::Allocation)/
//!    [`QuantitativeRiskNorm`](qrn_core::norm::QuantitativeRiskNorm) pair
//!    and emits per-`I_k` and per-`v_j` verdicts via Wald's SPRT plus the
//!    exact Poisson bounds of the shared Eq. (1) kernel in
//!    `qrn_core::verification`, with [`burndown::AlertLevel`] escalation
//!    (Ok → Watch → Burned) and a serialisable [`burndown::FleetReport`].
//! 4. [`telemetry`] — a synthetic telemetry generator driving `qrn-sim`
//!    campaigns to produce realistic event logs for rehearsing the
//!    monitoring pipeline before real fleet data exists.
//! 5. [`checkpoint`] — crash-safe (write-to-temp + fsync + atomic rename)
//!    persistence of [`ingest::FleetState`], shared by the CLI's
//!    `fleet ingest --checkpoint` and the `qrn-serve` live server so both
//!    produce byte-identical checkpoint artefacts.
//! 6. [`looks`] — the `<checkpoint>.looks.json` sidecar: per-goal look
//!    counters and `Ok → Watch → Burned` transition timestamps, shared by
//!    the live server, offline `fleet report --checkpoint` and
//!    `qrn evidence inspect` so look accounting is consistent wherever a
//!    verdict is consulted.
//!
//! # A monitoring loop
//!
//! ```
//! use qrn_fleet::burndown::{burn_down_filtered, BurnDownConfig, ContextFilter};
//! use qrn_fleet::{ingest::ingest_str, telemetry};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let classification = qrn_core::examples::paper_classification()?;
//! let allocation = qrn_core::examples::paper_allocation(&classification)?;
//! let norm = qrn_core::examples::paper_norm()?;
//! let events = telemetry::TelemetryConfig::new(4)
//!     .hours(qrn_units::Hours::new(200.0)?)
//!     .generate()?;
//! let log = qrn_fleet::event::to_jsonl(&events);
//! let state = ingest_str(&log, &classification, 2)?;
//! let config = BurnDownConfig::default();
//! let report = burn_down_filtered(&norm, &allocation, &state, &config, &ContextFilter::all())?;
//! assert_eq!(report.exposure_hours, state.exposure().value());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burndown;
pub mod checkpoint;
pub mod error;
pub mod event;
pub mod ingest;
pub mod looks;
pub mod telemetry;

pub use burndown::{burn_down_filtered, AlertLevel, BurnDownConfig, ContextFilter, FleetReport};
pub use error::FleetError;
pub use event::fastpath::{parse_line_hybrid, FastEvent, ParsedLine, ScratchParser};
pub use event::{parse_jsonl, to_jsonl, FleetEvent, SkipCounts, SCHEMA_VERSION};
pub use ingest::{ingest_str, ingest_str_with_scratch, FleetState, FleetTotals};
pub use looks::{AlertTransition, GoalLooks, LookBook};
pub use telemetry::TelemetryConfig;
