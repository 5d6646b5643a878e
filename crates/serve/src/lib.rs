//! # qrn-serve — a live evidence server for the QRN monitoring loop
//!
//! The offline loop (`qrn fleet generate → ingest → report`) treats fleet
//! evidence as files. In operation the evidence is a *stream*: vehicles
//! upload telemetry segments continuously and the safety organisation
//! wants the current burn-down — not tomorrow's batch job. This crate
//! closes that gap with a dependency-free (std-only) HTTP/1.1 service
//! holding live [`FleetState`](qrn_fleet::ingest::FleetState)s in memory:
//!
//! * `POST /v1/ingest` and `POST /v1/<item>/ingest` — JSONL telemetry
//!   segments through the tolerant parser; malformed lines are
//!   skipped-and-counted, never fatal.
//! * `GET /v1/burndown` and `GET /v1/<item>/burndown` (and
//!   `?zone=<name>`) — the current
//!   [`FleetReport`](qrn_fleet::burndown::FleetReport) against the item's
//!   norm, byte-identical to what `qrn fleet report` would produce
//!   offline from the same segments.
//! * `GET /v1/<item>/burndown?as_of=<unix-millis>` — when an evidence
//!   store is configured, the burn-down *as of* a past instant, folded
//!   from the append-only [`qrn_store`] log. Historical replays are
//!   audits, not decisions: they never spend an SPRT look.
//! * `GET /v1/<item>/history` — the store's segment shape and snapshot
//!   timeline (store deployments only).
//! * `GET /metrics` — Prometheus text exposition: exposure, per-kind
//!   incident mass, per-goal budget consumption (all labelled by item),
//!   ingest/skip counters and request latency histograms.
//! * `GET /healthz` — liveness.
//! * `POST /v1/shutdown` — graceful drain (the SIGTERM-equivalent a
//!   std-only binary can actually receive): in-flight requests finish,
//!   then a final crash-safe checkpoint is written per item.
//!
//! One server can host several *items* — named norm/classification/
//! allocation triples, each with its own live state, look
//! counters and checkpoint — so one deployment monitors one fleet
//! against several verification targets. The bare `/v1/ingest` and
//! `/v1/burndown` routes alias the item named
//! [`DEFAULT_ITEM`](server::DEFAULT_ITEM), keeping single-item
//! deployments wire-compatible.
//!
//! # Engineering shape
//!
//! The server is deliberately boring: a fixed accept thread feeding a
//! *bounded* connection queue ([`server`]), a fixed worker pool draining
//! it, and explicit `429 Too Many Requests` when the queue is full —
//! load-shedding is a protocol answer, not an OS accept-backlog mystery.
//! Connections carry read/write timeouts and a request-body cap
//! ([`http`]), so one stalled or abusive client cannot wedge a worker.
//! Each item's live state ([`state`]) publishes its
//! [`FleetTotals`](qrn_fleet::ingest::FleetTotals) after every segment,
//! so burn-downs and scrapes read an `Arc` and never walk the fleet's
//! vehicles; the per-vehicle tallies live in one map that only
//! checkpoints copy, giving the one state offline ingest computes, byte
//! for byte. State
//! checkpoints reuse `qrn-fleet`'s atomic write-to-temp + fsync + rename
//! protocol, so the checkpoint after N ingested segments is
//! byte-identical to `qrn fleet ingest` of the same segments offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod http;
pub mod metrics;
pub mod server;
pub mod state;

pub use server::{ItemConfig, ServeConfig, Server, ServerHandle, DEFAULT_ITEM};
pub use state::ShardedState;

/// Errors starting or operating the evidence server.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid server configuration.
    Config(String),
    /// A socket or filesystem operation failed.
    Io(String),
    /// A fleet-layer operation (ingest, burn-down, checkpoint) failed.
    Fleet(qrn_fleet::FleetError),
    /// An evidence-store operation (open, append, replay) failed.
    Store(qrn_store::StoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "invalid server config: {msg}"),
            ServeError::Io(msg) => write!(f, "server i/o error: {msg}"),
            ServeError::Fleet(e) => write!(f, "{e}"),
            ServeError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Fleet(e) => Some(e),
            ServeError::Store(e) => Some(e),
            ServeError::Config(_) | ServeError::Io(_) => None,
        }
    }
}

impl From<qrn_fleet::FleetError> for ServeError {
    fn from(e: qrn_fleet::FleetError) -> Self {
        ServeError::Fleet(e)
    }
}

impl From<qrn_store::StoreError> for ServeError {
    fn from(e: qrn_store::StoreError) -> Self {
        ServeError::Store(e)
    }
}
