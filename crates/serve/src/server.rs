//! The server proper: bounded accept queue, worker pool, routing, the
//! live state, look accounting and crash-safe checkpointing.
//!
//! # Threading model
//!
//! One **accept thread** owns the listener. Every accepted connection is
//! offered to a *bounded* queue; when the queue is full the accept thread
//! itself answers `429 Too Many Requests` and closes — overload becomes
//! an explicit protocol answer instead of unbounded memory growth or a
//! mysterious kernel backlog stall. A fixed pool of **worker threads**
//! drains the queue: read one request (with socket timeouts and a body
//! cap), route it, write the response, close. One request per
//! connection keeps the worker loop allocation-light and trivially
//! correct.
//!
//! # State and determinism
//!
//! Each served *item* (a norm + classification + allocation triple) owns
//! a [`ShardedState`]: published [`FleetTotals`] that every verdict
//! reads, and per-vehicle tallies in one map that only checkpoints
//! read. Ingested segments are parsed *outside* any lock (the expensive
//! part); each vehicle then merges into the map and the segment's
//! totals into a fresh copy-on-write publication. A burn-down, a
//! `/metrics` scrape or an ingest reply reads the published `Arc` and
//! locks no vehicle map, so its cost does not grow with the fleet.
//! Checkpoints copy the map beside the totals, which is byte-identical
//! to an offline `qrn fleet ingest` of the same segments (see
//! [`crate::state`] for the argument and the tests).
//!
//! With an evidence store configured, ingest instead funnels through the
//! store's single writer thread, whose append hook merges each segment
//! into the live state *in append order* before the upload is
//! acknowledged — so the live state agrees byte for byte with a store
//! replay even under concurrent uploads of arbitrary (non-dyadic) float
//! payloads.
//!
//! # Multi-item serving
//!
//! One server can host several items: `/v1/<item>/ingest` and
//! `/v1/<item>/burndown` address them by name, the bare `/v1/ingest` and
//! `/v1/burndown` routes alias the item named [`DEFAULT_ITEM`], metrics
//! carry an `item` label, and each item checkpoints to its own file
//! (the default item on the bare configured path — name-compatible with
//! a single-item deployment — and every other item on
//! [`checkpoint::item_checkpoint_path`]).
//!
//! # Look accounting
//!
//! Every burn-down evaluation is one more *look* at that item's
//! sequential test. The server counts looks per goal per item, stamps
//! them into served reports
//! ([`GoalBurnDown::looks`](qrn_fleet::burndown::GoalBurnDown)), and
//! persists them in a sidecar next to the item's checkpoint
//! (`<checkpoint>.looks.json`) so the count survives restarts. The
//! sidecar is deliberately *not* part of the [`FleetState`] checkpoint:
//! the main checkpoint must stay byte-identical to offline ingest, which
//! never consults the test.

use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use qrn_core::allocation::Allocation;
use qrn_core::norm::QuantitativeRiskNorm;
use qrn_core::IncidentClassification;
use qrn_fleet::burndown::{
    burn_down_state, join_evidence, BurnDownConfig, ContextFilter, FleetReport,
};
use qrn_fleet::checkpoint;
use qrn_fleet::event::SkipCounts;
use qrn_fleet::ingest::{ingest_str, FleetState, FleetTotals};
use qrn_fleet::looks::LookBook;
use qrn_stats::evidence::EvidenceLedger;
use qrn_stats::prometheus::{render_ledgers, MetricKind, TextFamilies};
use qrn_store::{AppendHook, AppendReceipt, Store, StoreConfig, StoreReader, StoreWriterHandle};

use crate::http::{read_request, Request, Response};
use crate::metrics::{
    render_families, ItemView, ServerMetrics, CLASS_FAMILIES, FLEET_FAMILIES, GOAL_FAMILIES,
    SEQUENTIAL_FAMILIES, STORE_FAMILIES,
};
use crate::state::ShardedState;
use crate::ServeError;

/// Longest a shed (`429`) connection's unread input is drained before
/// the socket closes.
const SHED_DRAIN_TIME: Duration = Duration::from_millis(50);

/// Most bytes drained from a shed connection before it closes.
const SHED_DRAIN_BYTES: usize = 64 * 1024;

/// Name of the item the bare `/v1/ingest` and `/v1/burndown` routes
/// address, and the item [`ServeConfig::new`] creates.
pub const DEFAULT_ITEM: &str = "default";

/// One served norm/allocation item: the verification target a stream of
/// telemetry is checked against.
#[derive(Debug, Clone)]
pub struct ItemConfig {
    /// Item name, as it appears in routes (`/v1/<name>/…`), metric
    /// labels and checkpoint file names. Restricted to
    /// `[A-Za-z0-9_-]+` so it is always safe in all three places.
    pub name: String,
    /// The risk norm served reports are checked against.
    pub norm: QuantitativeRiskNorm,
    /// Incident classification applied to ingested telemetry.
    pub classification: IncidentClassification,
    /// Budget allocation the burn-down rows are computed from.
    pub allocation: Allocation,
    /// Design-time campaign evidence ledgers merged into burn-down and
    /// metrics queries (never into the checkpointed fleet state).
    pub extra_evidence: Vec<EvidenceLedger>,
}

/// Route endpoints that can never be item names: an item named `ingest`
/// would make `/v1/ingest` ambiguous.
const RESERVED_ITEM_NAMES: [&str; 4] = ["ingest", "burndown", "history", "shutdown"];

impl ItemConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.name.is_empty() {
            return Err(ServeError::Config("item name must not be empty".into()));
        }
        if !self
            .name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            return Err(ServeError::Config(format!(
                "item name {:?} is invalid: only ASCII letters, digits, '_' and '-' are allowed",
                self.name
            )));
        }
        if RESERVED_ITEM_NAMES.contains(&self.name.as_str()) {
            return Err(ServeError::Config(format!(
                "item name {:?} is reserved (it is a route endpoint)",
                self.name
            )));
        }
        Ok(())
    }
}

/// Configuration of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The served items, in declaration order (at least one). The item
    /// named [`DEFAULT_ITEM`], when present, is also reachable through
    /// the bare un-prefixed routes.
    pub items: Vec<ItemConfig>,
    /// Address to bind (default `127.0.0.1`). Binding anything
    /// non-loopback logs a loud warning: the server speaks plaintext
    /// HTTP with no authentication.
    pub bind: String,
    /// TCP port to bind (`0` = ephemeral, for tests).
    pub port: u16,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Bounded connection-queue depth; overflow answers `429`.
    pub queue_depth: usize,
    /// Maximum accepted request-body size in bytes; larger uploads
    /// answer `413` before the body is read.
    pub max_body_bytes: usize,
    /// Per-connection socket read/write timeout.
    pub io_timeout: Duration,
    /// Parse shard count for each uploaded segment (see [`ingest_str`]).
    pub shards: usize,
    /// Live-state shard setting (`--state-shards`), validated to be at
    /// least 1. Each item's live state keeps one vehicle map whatever
    /// its value: vehicle shards bought no ingest throughput (DESIGN
    /// §12), and the setting stays so existing configurations and
    /// scripts keep working.
    pub state_shards: usize,
    /// Base checkpoint file; each item's state is resumed from its
    /// per-item path at start and atomically rewritten during operation
    /// and at shutdown.
    pub checkpoint: Option<PathBuf>,
    /// Write a checkpoint every this many ingested segments (≥ 1),
    /// per item.
    pub checkpoint_every: u64,
    /// Burn-down analysis parameters for burn-down and metrics queries.
    pub burndown: BurnDownConfig,
    /// Evidence-store base directory. When set, every ingested segment
    /// is first appended — durably, with per-source sequence screening —
    /// to `<store>/<item>`'s append-only log, the live state is recovered
    /// from the store on restart (the store has fsynced every accepted
    /// batch, so it supersedes the periodic checkpoint), and the
    /// `?as_of=` and `/history` routes come alive.
    pub store: Option<PathBuf>,
    /// Store snapshot cadence: write a snapshot record after this many
    /// ingested events (0 = only at compaction).
    pub store_snapshot_every: u64,
    /// Store segment roll threshold in bytes (≥ 1).
    pub store_roll_bytes: u64,
    /// Compact automatically once this many closed segments accumulate
    /// (0 = never compact automatically).
    pub store_compact_after: u64,
    /// Store group-commit cap (≥ 1): how many queued ingest batches the
    /// writer thread may cover with one fsync per drain cycle. `1`
    /// restores one fsync per batch; durability is identical either way
    /// (no request is acknowledged before the fsync covering its batch).
    pub store_group_commit: usize,
}

impl ServeConfig {
    /// A configuration serving one item named [`DEFAULT_ITEM`], with
    /// production-shaped defaults: loopback bind, port 7878, 4 workers,
    /// queue depth 64, 4 MiB body cap, 10 s socket timeouts, checkpoint
    /// after every segment, `state_shards` at the available core count.
    pub fn new(
        norm: QuantitativeRiskNorm,
        classification: IncidentClassification,
        allocation: Allocation,
    ) -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1);
        ServeConfig {
            items: vec![ItemConfig {
                name: DEFAULT_ITEM.to_string(),
                norm,
                classification,
                allocation,
                extra_evidence: Vec::new(),
            }],
            bind: "127.0.0.1".to_string(),
            port: 7878,
            workers: 4,
            queue_depth: 64,
            max_body_bytes: 4 * 1024 * 1024,
            io_timeout: Duration::from_secs(10),
            shards: parallelism,
            state_shards: parallelism,
            checkpoint: None,
            checkpoint_every: 1,
            burndown: BurnDownConfig::default(),
            store: None,
            store_snapshot_every: StoreConfig::default().snapshot_every_events,
            store_roll_bytes: StoreConfig::default().roll_bytes,
            store_compact_after: 0,
            store_group_commit: qrn_store::writer::DEFAULT_GROUP_COMMIT,
        }
    }

    /// Adds a design-time evidence ledger to the *first* item (the
    /// default item of a [`ServeConfig::new`] configuration).
    pub fn push_evidence(&mut self, ledger: EvidenceLedger) {
        self.items
            .first_mut()
            .expect("ServeConfig::new always creates one item")
            .extra_evidence
            .push(ledger);
    }

    /// Adds another served item.
    pub fn add_item(
        &mut self,
        name: impl Into<String>,
        norm: QuantitativeRiskNorm,
        classification: IncidentClassification,
        allocation: Allocation,
    ) {
        self.items.push(ItemConfig {
            name: name.into(),
            norm,
            classification,
            allocation,
            extra_evidence: Vec::new(),
        });
    }

    fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::Config("workers must be at least 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::Config("queue depth must be at least 1".into()));
        }
        if self.max_body_bytes == 0 {
            return Err(ServeError::Config("max body size must be positive".into()));
        }
        if self.checkpoint_every == 0 {
            return Err(ServeError::Config(
                "checkpoint interval must be at least 1 segment".into(),
            ));
        }
        if self.shards == 0 {
            return Err(ServeError::Config("shards must be at least 1".into()));
        }
        if self.state_shards == 0 {
            return Err(ServeError::Config("state shards must be at least 1".into()));
        }
        if self.store.is_some() && self.store_roll_bytes == 0 {
            return Err(ServeError::Config(
                "store roll threshold must be at least 1 byte".into(),
            ));
        }
        if self.store.is_some() && self.store_group_commit == 0 {
            return Err(ServeError::Config(
                "store group commit cap must be at least 1 batch".into(),
            ));
        }
        if self.bind.is_empty() {
            return Err(ServeError::Config("bind address must not be empty".into()));
        }
        if self.items.is_empty() {
            return Err(ServeError::Config(
                "at least one served item is required".into(),
            ));
        }
        for item in &self.items {
            item.validate()?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if self.items[..i].iter().any(|other| other.name == item.name) {
                return Err(ServeError::Config(format!(
                    "duplicate item name {:?}",
                    item.name
                )));
            }
        }
        Ok(())
    }
}

/// A queued unit of worker work.
enum Job {
    /// Serve one accepted connection.
    Conn(TcpStream),
    /// Drain sentinel: the worker exits.
    Stop,
}

/// The bounded connection queue: a `Mutex<VecDeque>` + `Condvar`,
/// `try_push` refuses when full (the caller sheds load with `429`),
/// `push_unbounded` bypasses the cap for drain sentinels.
struct ConnQueue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    capacity: usize,
}

impl ConnQueue {
    fn new(capacity: usize) -> Self {
        ConnQueue {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues unless the queue is at capacity; returns the job back to
    /// the caller when full.
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut jobs = self.jobs.lock().expect("queue mutex poisoned");
        if jobs.len() >= self.capacity {
            return Err(job);
        }
        jobs.push_back(job);
        drop(jobs);
        self.available.notify_one();
        Ok(())
    }

    /// Enqueues regardless of capacity (drain sentinels only).
    fn push_unbounded(&self, job: Job) {
        self.jobs
            .lock()
            .expect("queue mutex poisoned")
            .push_back(job);
        self.available.notify_one();
    }

    /// Blocks until a job is available.
    fn pop(&self) -> Job {
        let mut jobs = self.jobs.lock().expect("queue mutex poisoned");
        loop {
            if let Some(job) = jobs.pop_front() {
                return job;
            }
            jobs = self.available.wait(jobs).expect("queue mutex poisoned");
        }
    }
}

/// One served item at runtime: its configuration, live state,
/// look counters and checkpoint plumbing.
struct Item {
    config: ItemConfig,
    /// The live state. Shared (`Arc`) with the store writer
    /// thread's append hook when a store is configured: the hook merges
    /// each durably-appended segment in append order, so the live state
    /// stays byte-identical to a store replay under concurrent ingest.
    state: Arc<ShardedState>,
    /// Per-goal look ledger: completed looks plus `Ok → Watch → Burned`
    /// transition timestamps, persisted in the checkpoint sidecar.
    looks: Mutex<LookBook>,
    /// Segments ingested since the last checkpoint write.
    segments_since_checkpoint: AtomicU64,
    /// This item's checkpoint file (the default item keeps the bare
    /// configured base path).
    checkpoint: Option<PathBuf>,
    /// Serialises checkpoint writes so two threshold-crossing ingests
    /// don't interleave their write-temp/rename protocols.
    checkpoint_lock: Mutex<()>,
    /// This item's evidence-store directory (`<store>/<item name>`),
    /// when a store is configured. Readers for `?as_of=` and `/history`
    /// open it directly; only the writer thread ever writes to it.
    store_dir: Option<PathBuf>,
}

/// Validated query of a burn-down route: the optional historical cut,
/// the optional single-row selector (`?context=`, or its pre-0.8 alias
/// `?zone=`), and the dimension filter parsed from `?where=`.
struct BurndownQuery {
    as_of: Option<String>,
    selector: Option<String>,
    filter: ContextFilter,
}

/// Everything threads share.
struct Inner {
    config: ServeConfig,
    items: Vec<Item>,
    addr: SocketAddr,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    started: Instant,
    queue: ConnQueue,
    /// The single-writer evidence-store thread, when `--store` is
    /// configured. Workers append through it; metrics sample its
    /// lock-free per-item stats.
    store: Option<StoreWriterHandle>,
}

/// JSON body answered by `POST /v1/ingest` and `POST /v1/<item>/ingest`.
#[derive(Debug, Serialize, Deserialize)]
struct IngestReply {
    /// Item the segment was ingested into.
    item: String,
    /// Lines in the posted segment.
    segment_lines: u64,
    /// Events accepted from the posted segment.
    segment_events: u64,
    /// Per-reason skip tallies of the posted segment.
    segment_skipped: SkipCounts,
    /// Duplicate sequenced lines the store's screening rejected from
    /// this segment (always 0 without a configured store).
    duplicates_rejected: u64,
    /// Sequence gaps the store detected in this segment (0 without a
    /// store).
    gaps_detected: u64,
    /// Sequence numbers missing across those gaps (0 without a store).
    missing_seqs: u64,
    /// Whether the segment was durably appended to the evidence store
    /// before this reply.
    stored: bool,
    /// Lines folded into this item's live state so far (all segments).
    total_lines: u64,
    /// Events folded into this item's live state so far.
    total_events: u64,
    /// Total fleet exposure hours in this item's live state.
    total_exposure_hours: f64,
    /// Distinct vehicles seen by this item so far.
    vehicles: u64,
    /// Whether this request triggered a checkpoint write.
    checkpointed: bool,
}

impl Inner {
    fn item(&self, name: &str) -> Option<&Item> {
        self.items.iter().find(|item| item.config.name == name)
    }

    /// Folds the item's live state and writes its checkpoint pair (state +
    /// look sidecar) atomically, under the item's checkpoint lock.
    fn write_checkpoint(&self, path: &Path, item: &Item) -> Result<(), ServeError> {
        let _serialised = item
            .checkpoint_lock
            .lock()
            .expect("checkpoint mutex poisoned");
        let snapshot = item.state.fold();
        checkpoint::save_state(path, &snapshot)?;
        let looks = item.looks.lock().expect("look mutex poisoned").clone();
        looks.save(&LookBook::sidecar_path(path))?;
        self.metrics.count_checkpoint();
        Ok(())
    }

    fn handle_ingest(&self, item: &Item, req: &Request) -> Response {
        let text = match std::str::from_utf8(&req.body) {
            Ok(text) => text,
            Err(_) => return Response::text(400, "Bad Request", "body is not valid UTF-8"),
        };
        // With a store, the batch goes through the writer thread:
        // screened for duplicates/gaps, appended and fsynced, and merged
        // into the live state by the append hook — still on the writer
        // thread, so live merges happen in exact append order and an
        // acknowledged segment is always recoverable. Without one, parse
        // outside any state lock as before: sharded parsing is the
        // expensive part and must not serialise concurrent uploads.
        let (segment, duplicates_rejected, gaps_detected, missing_seqs, stored) = match &self.store
        {
            Some(writer) => {
                match writer.append(&item.config.name, text.to_string(), now_millis()) {
                    Ok(receipt) => (
                        receipt.segment,
                        receipt.duplicates,
                        receipt.gap_events,
                        receipt.missing_seqs,
                        true,
                    ),
                    Err(qrn_store::StoreError::Fleet(e)) => {
                        return Response::text(400, "Bad Request", &format!("ingest failed: {e}"))
                    }
                    Err(e) => return Response::internal_error("store append", e),
                }
            }
            None => match ingest_str(text, &item.config.classification, self.config.shards) {
                Ok(segment) => {
                    item.state.ingest(&segment);
                    (segment, 0, 0, 0, false)
                }
                Err(e) => {
                    return Response::text(400, "Bad Request", &format!("ingest failed: {e}"))
                }
            },
        };
        self.metrics.count_segment();
        let mut checkpointed = false;
        if let Some(path) = &item.checkpoint {
            // The counter is advisory: two racing ingests can both cross
            // the threshold (one extra checkpoint) or a reset can absorb
            // a neighbour's increment (one checkpoint a few segments
            // late). Either way the final drain checkpoint is exact.
            let since = item
                .segments_since_checkpoint
                .fetch_add(1, Ordering::AcqRel)
                + 1;
            if since >= self.config.checkpoint_every {
                item.segments_since_checkpoint.store(0, Ordering::Release);
                if let Err(e) = self.write_checkpoint(path, item) {
                    return Response::internal_error("checkpoint write", e);
                }
                checkpointed = true;
            }
        }
        let totals = item.state.totals();
        let reply = IngestReply {
            item: item.config.name.clone(),
            segment_lines: segment.lines(),
            segment_events: segment.events(),
            segment_skipped: segment.skipped(),
            duplicates_rejected,
            gaps_detected,
            missing_seqs,
            stored,
            total_lines: totals.lines(),
            total_events: totals.events(),
            total_exposure_hours: totals.exposure().value(),
            vehicles: totals.vehicle_count(),
            checkpointed,
        };
        Response::json(serde_json::to_string_pretty(&reply).expect("reply is serialisable"))
    }

    /// One item's burn-down over its totals joined with the item's
    /// design-time evidence — the join `qrn fleet report --evidence`
    /// performs offline. A context selector or filter turns the
    /// refinement rows on; a failed evaluation is the 500 answer.
    fn query_report(
        &self,
        item: &Item,
        totals: &FleetTotals,
        query: &BurndownQuery,
    ) -> Result<FleetReport, Response> {
        let mut config = self.config.burndown;
        config.by_zone |= query.selector.is_some() || !query.filter.is_empty();
        let evidence = join_evidence(totals.evidence(), &item.config.extra_evidence);
        let (norm, allocation) = (&item.config.norm, &item.config.allocation);
        burn_down_state(norm, allocation, totals, &evidence, &config, &query.filter)
            .map_err(|e| Response::internal_error("burn-down", e))
    }

    /// Parses the query string shared by both burn-down routes. Unknown
    /// keys are a hard 400 naming the offender, so a typo like
    /// `?whre=weather=fog` fails loudly instead of silently returning
    /// the unfiltered report. `context` selects a single refinement row;
    /// `zone` remains as its documented pre-0.8 alias. `where` restricts
    /// the refinement rows to contexts matching every comma-separated
    /// `dim=value` clause.
    fn parse_burndown_query(req: &Request) -> Result<BurndownQuery, Response> {
        for key in req.query_keys() {
            if !matches!(key.as_str(), "as_of" | "context" | "zone" | "where") {
                return Err(Response::text(
                    400,
                    "Bad Request",
                    &format!(
                        "unknown query parameter {key:?}; supported: as_of, context, zone, where"
                    ),
                ));
            }
        }
        let context = req.query_param("context");
        let zone = req.query_param("zone");
        let selector = match (context, zone) {
            (Some(context), Some(zone)) if context != zone => {
                return Err(Response::text(
                    400,
                    "Bad Request",
                    "context and zone select different rows; pass only one (zone is an alias)",
                ))
            }
            (Some(context), _) => Some(context),
            (None, zone) => zone,
        };
        let filter = match req.query_param("where") {
            None => ContextFilter::all(),
            Some(clauses) => match ContextFilter::parse(clauses.split(',')) {
                Ok(filter) => filter,
                Err(e) => {
                    return Err(Response::text(
                        400,
                        "Bad Request",
                        &format!("bad where filter: {e}"),
                    ))
                }
            },
        };
        Ok(BurndownQuery {
            as_of: req.query_param("as_of"),
            selector,
            filter,
        })
    }

    /// Renders the report body: the full report, or — when a selector
    /// was given — just the named refinement row, 404 if absent.
    fn render_burndown(report: &FleetReport, selector: Option<&str>) -> Response {
        match selector {
            None => Response::json(report.to_canonical_json()),
            Some(name) => match report.zones.iter().find(|z| z.zone == name) {
                Some(row) => Response::json(
                    serde_json::to_string_pretty(row).expect("zone rows are serialisable"),
                ),
                None => Response::text(
                    404,
                    "Not Found",
                    &format!("no evidence context named {name:?}"),
                ),
            },
        }
    }

    /// The item's evidence-store directory, or the 400 answer saying that
    /// `needs` (the audit route) needs a server started with a store.
    fn store_dir<'i>(item: &'i Item, needs: &str) -> Result<&'i Path, Response> {
        item.store_dir.as_deref().ok_or_else(|| {
            let message = format!("{needs} a server started with an evidence store (--store)");
            Response::text(400, "Bad Request", &message)
        })
    }

    /// The item's totals replayed from its evidence store up to the
    /// `as_of` cut (unix milliseconds).
    fn replay(&self, item: &Item, as_of: &str) -> Result<FleetTotals, Response> {
        let dir = Self::store_dir(item, "as_of queries need")?;
        let cut: u64 = as_of.parse().map_err(|_| {
            Response::text(
                400,
                "Bad Request",
                "as_of must be a unix timestamp in milliseconds",
            )
        })?;
        StoreReader::open(dir, item.config.classification.clone(), self.config.shards)
            .and_then(|reader| reader.fold_as_of(Some(cut)))
            .map(|summary| summary.state.into_parts().0)
            .map_err(|e| Response::internal_error("store replay", e))
    }

    /// Serves `GET /v1/<item>/history`: the store's segment shape and
    /// snapshot timeline. Like `as_of`, reading history is not a look.
    fn handle_history(&self, item: &Item) -> Response {
        let dir = match Self::store_dir(item, "history needs") {
            Ok(dir) => dir,
            Err(response) => return response,
        };
        match StoreReader::open(dir, item.config.classification.clone(), self.config.shards)
            .and_then(|reader| reader.history())
        {
            Ok(history) => Response::json(
                serde_json::to_string_pretty(&history).expect("store history is serialisable"),
            ),
            Err(e) => Response::internal_error("store history", e),
        }
    }

    fn handle_burndown(&self, item: &Item, req: &Request) -> Response {
        let query = match Self::parse_burndown_query(req) {
            Ok(query) => query,
            Err(response) => return response,
        };
        let totals = match &query.as_of {
            Some(as_of) => match self.replay(item, as_of) {
                Ok(totals) => Arc::new(totals),
                Err(response) => return response,
            },
            None => item.state.totals(),
        };
        let mut report = match self.query_report(item, &totals, &query) {
            Ok(report) => report,
            Err(response) => return response,
        };
        // A live evaluation is one more look at the item's sequential
        // test: spend it, record the alert edges (so "when did I2 enter
        // Watch?" survives in the sidecar) and stamp the counts into the
        // served rows. A historical replay is an audit, not a test
        // decision: it spends no look and stamps no counters, which keeps
        // its body byte-identical to an offline `qrn fleet report` over
        // the same accepted prefix.
        if query.as_of.is_none() {
            item.looks
                .lock()
                .expect("look mutex poisoned")
                .take_look(&mut report, now_millis());
        }
        Self::render_burndown(&report, query.selector.as_deref())
    }

    fn handle_metrics(&self) -> Response {
        // One evaluation per item over its published totals, then every
        // family rendered once with the item label varying inside it.
        let totals: Vec<Arc<FleetTotals>> =
            self.items.iter().map(|item| item.state.totals()).collect();
        let mut views = Vec::with_capacity(self.items.len());
        for (item, totals) in self.items.iter().zip(&totals) {
            let looks = item.looks.lock().expect("look mutex poisoned").clone();
            let evidence = join_evidence(totals.evidence(), &item.config.extra_evidence);
            let (norm, allocation) = (&item.config.norm, &item.config.allocation);
            let config = &self.config.burndown;
            let all = ContextFilter::all();
            let report = match burn_down_state(norm, allocation, totals, &evidence, config, &all) {
                Ok(report) => report,
                Err(e) => return Response::internal_error("metrics", e),
            };
            let name = item.config.name.as_str();
            let store = self
                .store
                .as_ref()
                .and_then(|w| w.stats(name))
                .map(|s| &**s);
            views.push(ItemView {
                name,
                totals,
                looks,
                evidence,
                report,
                store,
            });
        }

        let mut out = TextFamilies::new();
        out.family(
            "qrn_server_uptime_seconds",
            "Seconds since the server started",
            MetricKind::Gauge,
        );
        out.sample(
            "qrn_server_uptime_seconds",
            &[],
            self.started.elapsed().as_secs_f64(),
        );
        self.metrics.render(&mut out);
        render_families(&mut out, &views, &FLEET_FAMILIES);
        if self.store.is_some() {
            render_families(&mut out, &views, &STORE_FAMILIES);
        }
        // Evidence gauges over the same joined view burn-down sees.
        let ledgers: Vec<(&str, &EvidenceLedger)> =
            views.iter().map(|v| (v.name, &*v.evidence)).collect();
        render_ledgers(&mut out, "qrn_evidence", &ledgers);
        render_families(&mut out, &views, &GOAL_FAMILIES);
        if self.config.burndown.sequential {
            render_families(&mut out, &views, &SEQUENTIAL_FAMILIES);
        }
        render_families(&mut out, &views, &CLASS_FAMILIES);
        Response::prometheus(out.finish())
    }

    fn handle_shutdown(&self) -> Response {
        self.request_shutdown();
        Response::text(200, "OK", "shutting down: draining in-flight requests")
    }

    /// Raises the shutdown flag and nudges the accept loop awake with a
    /// throwaway connection (the std listener has no other wakeup).
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// Splits a path into its item routing: `/v1/ingest` →
    /// `(DEFAULT_ITEM, "ingest")`, `/v1/<item>/burndown` →
    /// `(<item>, "burndown")`, anything else → `None`.
    fn parse_item_route(path: &str) -> Option<(&str, &str)> {
        let rest = path.strip_prefix("/v1/")?;
        match rest.split_once('/') {
            None => match rest {
                "ingest" | "burndown" | "history" => Some((DEFAULT_ITEM, rest)),
                _ => None,
            },
            Some((item, endpoint)) => match endpoint {
                "ingest" | "burndown" | "history" if !item.is_empty() => Some((item, endpoint)),
                _ => None,
            },
        }
    }

    fn route(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::text(200, "OK", "ok"),
            ("GET", "/metrics") => self.handle_metrics(),
            ("POST", "/v1/shutdown") => self.handle_shutdown(),
            (_, "/healthz" | "/metrics" | "/v1/shutdown") => {
                Response::text(405, "Method Not Allowed", "wrong method for this endpoint")
            }
            (method, path) => match Self::parse_item_route(path) {
                Some((name, endpoint)) => match self.item(name) {
                    None => Response::text(404, "Not Found", &format!("no item named {name:?}")),
                    Some(item) => match (method, endpoint) {
                        ("POST", "ingest") => self.handle_ingest(item, req),
                        ("GET", "burndown") => self.handle_burndown(item, req),
                        ("GET", "history") => self.handle_history(item),
                        _ => Response::text(
                            405,
                            "Method Not Allowed",
                            "wrong method for this endpoint",
                        ),
                    },
                },
                None => Response::text(404, "Not Found", &format!("no route for {path}")),
            },
        }
    }

    fn worker_loop(self: &Arc<Self>) {
        loop {
            match self.queue.pop() {
                Job::Stop => break,
                Job::Conn(mut stream) => {
                    let start = Instant::now();
                    let response = match read_request(&mut stream, self.config.max_body_bytes) {
                        Ok(req) => {
                            self.metrics.count_request(&req.path);
                            self.route(&req)
                        }
                        Err(e) => match e.response() {
                            Some(response) => response,
                            None => {
                                self.metrics.count_dropped();
                                continue;
                            }
                        },
                    };
                    self.metrics.count_response(response.status);
                    let _ = response.write_to(&mut stream);
                    self.metrics.observe_latency(start.elapsed());
                }
            }
        }
    }

    fn accept_loop(self: &Arc<Self>, listener: &TcpListener) {
        for conn in listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            let _ = stream.set_read_timeout(Some(self.config.io_timeout));
            let _ = stream.set_write_timeout(Some(self.config.io_timeout));
            if let Err(Job::Conn(stream)) = self.queue.try_push(Job::Conn(stream)) {
                self.shed(stream);
            }
        }
    }

    /// Back-pressure: the queue is full, so the accept thread itself
    /// answers `429`. Closing a socket whose request bytes were never
    /// read makes the kernel reset the connection, which can destroy the
    /// answer before the client reads it; so the write side is shut
    /// (FIN after the response) and the client's input is drained until
    /// it closes — capped in bytes and time, so a flood of shed
    /// connections cannot park the accept thread.
    fn shed(&self, mut stream: TcpStream) {
        self.metrics.count_queue_full();
        let response = Response::text(
            429,
            "Too Many Requests",
            "request queue is full, retry later",
        );
        self.metrics.count_response(429);
        let _ = response.write_to(&mut stream);
        let _ = stream.shutdown(Shutdown::Write);
        let deadline = Instant::now() + SHED_DRAIN_TIME;
        let mut buf = [0u8; 4096];
        let mut drained = 0;
        while drained < SHED_DRAIN_BYTES {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
                break;
            }
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => drained += n,
            }
        }
    }
}

/// Milliseconds since the Unix epoch, for stamping store records. The
/// store writer forces record times non-decreasing, so a clock stepping
/// backwards cannot break the `as_of` prefix property.
fn now_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Whether an address string names the loopback interface.
fn is_loopback(bind: &str) -> bool {
    if bind == "localhost" {
        return true;
    }
    bind.parse::<std::net::IpAddr>()
        .map(|ip| ip.is_loopback())
        .unwrap_or(false)
}

/// The evidence server. [`Server::start`] binds, resumes any checkpoints
/// and spawns the thread pool; the returned [`ServerHandle`] owns the
/// threads.
pub struct Server;

impl Server {
    /// Starts a server on `{config.bind}:{config.port}`.
    ///
    /// When a checkpoint path is configured, each item's fleet state
    /// (and its look-counter sidecar, if present) is resumed from the
    /// item's checkpoint file; a corrupt checkpoint is a startup error,
    /// never a silent fresh start. Binding a non-loopback address logs a
    /// loud warning to stderr.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] for invalid configuration, an unbindable
    /// address, or an unreadable/corrupt checkpoint.
    pub fn start(config: ServeConfig) -> Result<ServerHandle, ServeError> {
        config.validate()?;
        let store_config = StoreConfig {
            snapshot_every_events: config.store_snapshot_every,
            roll_bytes: config.store_roll_bytes,
            compact_after_segments: config.store_compact_after,
            parse_shards: config.shards,
        };
        let mut items = Vec::with_capacity(config.items.len());
        let mut stores: Vec<(String, Store, Option<AppendHook>)> = Vec::new();
        for item_config in &config.items {
            let path = config.checkpoint.as_ref().map(|base| {
                if item_config.name == DEFAULT_ITEM {
                    base.clone()
                } else {
                    checkpoint::item_checkpoint_path(base, &item_config.name)
                }
            });
            let store_dir = config
                .store
                .as_ref()
                .map(|base| base.join(&item_config.name));
            // Recovery precedence: the store fsyncs every accepted batch
            // while checkpoints are periodic, so when both exist the
            // store's replayed state is at least as new — it wins. The
            // look sidecar stays with the checkpoint: looks are test
            // metadata, never part of the evidence fold.
            let (fleet, opened_store) = match (&store_dir, &path) {
                (Some(dir), _) => {
                    let store = Store::open(dir, item_config.classification.clone(), store_config)?;
                    let recovered = store.state().clone();
                    (recovered, Some(store))
                }
                (None, Some(path)) => (
                    checkpoint::load_state_if_exists(path)?.unwrap_or_default(),
                    None,
                ),
                (None, None) => (FleetState::default(), None),
            };
            let state = Arc::new(ShardedState::new(config.state_shards, fleet));
            if let Some(store) = opened_store {
                // The append hook runs on the writer thread before each
                // append is acknowledged, so live merges happen one at a
                // time in the log's append order. The published totals
                // and each vehicle's tallies are then the append-order
                // sums a store replay computes, so the live state is
                // byte-equal to the replay for any float payloads (see
                // [`crate::state`]).
                let live = Arc::clone(&state);
                let hook: AppendHook =
                    Box::new(move |receipt: &AppendReceipt| live.ingest(&receipt.segment));
                stores.push((item_config.name.clone(), store, Some(hook)));
            }
            let looks: LookBook = match &path {
                Some(path) => {
                    let sidecar = LookBook::sidecar_path(path);
                    LookBook::load_if_exists(&sidecar)
                        .map_err(|e| {
                            ServeError::Io(format!(
                                "{} is not a valid look sidecar ({e}); \
                                 delete it to reset look accounting",
                                sidecar.display()
                            ))
                        })?
                        .unwrap_or_default()
                }
                None => LookBook::new(),
            };
            items.push(Item {
                config: item_config.clone(),
                state,
                looks: Mutex::new(looks),
                segments_since_checkpoint: AtomicU64::new(0),
                checkpoint: path,
                checkpoint_lock: Mutex::new(()),
                store_dir,
            });
        }
        let store = if stores.is_empty() {
            None
        } else {
            Some(qrn_store::writer::spawn_with(
                stores,
                config.store_group_commit,
            )?)
        };

        if !is_loopback(&config.bind) {
            eprintln!(
                "qrn-serve: WARNING: binding non-loopback address {}:{} — the server speaks \
                 plaintext HTTP with no authentication; restrict access at the network layer",
                config.bind, config.port
            );
        }
        let listener = TcpListener::bind((config.bind.as_str(), config.port)).map_err(|e| {
            ServeError::Io(format!("cannot bind {}:{}: {e}", config.bind, config.port))
        })?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("cannot read bound address: {e}")))?;

        let workers = config.workers;
        let queue_depth = config.queue_depth;
        let inner = Arc::new(Inner {
            addr,
            items,
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            queue: ConnQueue::new(queue_depth),
            store,
            config,
        });

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let inner = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("qrn-serve-worker-{i}"))
                .spawn(move || inner.worker_loop())
                .map_err(|e| ServeError::Io(format!("cannot spawn worker thread: {e}")))?;
            worker_handles.push(handle);
        }
        let accept_handle = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("qrn-serve-accept".into())
                .spawn(move || inner.accept_loop(&listener))
                .map_err(|e| ServeError::Io(format!("cannot spawn accept thread: {e}")))?
        };

        Ok(ServerHandle {
            inner,
            accept_thread: Some(accept_handle),
            workers: worker_handles,
        })
    }
}

/// Handle to a running server: its address, a shutdown trigger, and the
/// join point that drains and checkpoints.
pub struct ServerHandle {
    inner: Arc<Inner>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.inner.addr.port()
    }

    /// Raises the shutdown flag, as `POST /v1/shutdown` does. Returns
    /// immediately; pair with [`ServerHandle::wait`].
    pub fn request_shutdown(&self) {
        self.inner.request_shutdown();
    }

    /// Blocks until shutdown is requested (via [`request_shutdown`] or
    /// `POST /v1/shutdown`), then drains: queued connections are served,
    /// workers joined, and — when a checkpoint is configured — a final
    /// atomic checkpoint (state + look sidecar) written per item.
    ///
    /// [`request_shutdown`]: ServerHandle::request_shutdown
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when a final checkpoint cannot be written.
    pub fn wait(mut self) -> Result<(), ServeError> {
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        // The accept thread is gone: nothing enqueues conns any more.
        // One sentinel per worker lets each drain the backlog and exit.
        for _ in 0..self.workers.len() {
            self.inner.queue.push_unbounded(Job::Stop);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        for item in &self.inner.items {
            if let Some(path) = &item.checkpoint {
                self.inner.write_checkpoint(path, item)?;
            }
        }
        // Every acknowledged append is already durable; closing just
        // joins the writer thread so the store directory is quiescent
        // when wait() returns.
        if let Some(writer) = &self.inner.store {
            writer.close();
        }
        Ok(())
    }

    /// [`request_shutdown`](ServerHandle::request_shutdown) +
    /// [`wait`](ServerHandle::wait).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when a final checkpoint cannot be written.
    pub fn stop(self) -> Result<(), ServeError> {
        self.request_shutdown();
        self.wait()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A dropped handle must not leave threads parked forever; raise
        // the flag and let them unwind detached (no join in drop).
        if self.accept_thread.is_some() {
            self.inner.request_shutdown();
            for _ in 0..self.workers.len() {
                self.inner.queue.push_unbounded(Job::Stop);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrn_core::examples::{paper_allocation, paper_classification, paper_norm};
    use std::io::{Read, Write};

    fn test_config() -> ServeConfig {
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        let mut config = ServeConfig::new(paper_norm().unwrap(), classification, allocation);
        config.port = 0;
        config.workers = 2;
        config.io_timeout = Duration::from_secs(2);
        config.shards = 2;
        config.state_shards = 2;
        config
    }

    fn request(addr: SocketAddr, head_and_body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(head_and_body.as_bytes()).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        let status: u16 = reply
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = reply
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        request(addr, &format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
        request(
            addr,
            &format!(
                "POST {target} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    #[test]
    fn healthz_and_404_and_405() {
        let handle = Server::start(test_config()).unwrap();
        let addr = handle.addr();
        assert_eq!(get(addr, "/healthz"), (200, "ok\n".to_string()));
        assert_eq!(get(addr, "/nope").0, 404);
        assert_eq!(post(addr, "/healthz", "").0, 405);
        assert_eq!(get(addr, "/v1/ingest").0, 405);
        // Item routes: wrong method is 405, unknown item is 404.
        assert_eq!(get(addr, "/v1/default/ingest").0, 405);
        assert_eq!(post(addr, "/v1/ghost/ingest", "").0, 404);
        assert_eq!(get(addr, "/v1/ghost/burndown").0, 404);
        handle.stop().unwrap();
    }

    #[test]
    fn ingest_then_burndown_and_metrics() {
        let handle = Server::start(test_config()).unwrap();
        let addr = handle.addr();
        let log = "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":8.0}\n\
                   not json at all\n";
        let (status, body) = post(addr, "/v1/ingest", log);
        assert_eq!(status, 200, "{body}");
        let reply: IngestReply = serde_json::from_str(&body).unwrap();
        assert_eq!(reply.item, DEFAULT_ITEM);
        assert_eq!(reply.segment_lines, 2);
        assert_eq!(reply.segment_events, 1);
        assert_eq!(reply.segment_skipped.bad_json, 1);
        assert_eq!(reply.total_exposure_hours, 8.0);
        assert!(!reply.checkpointed);

        let (status, body) = get(addr, "/v1/burndown");
        assert_eq!(status, 200);
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.exposure_hours, 8.0);
        assert!(report.goals.iter().all(|g| g.looks == 1));

        // The named route aliases the same item: one more look.
        let (status, body) = get(addr, "/v1/default/burndown");
        assert_eq!(status, 200);
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert!(report.goals.iter().all(|g| g.looks == 2));

        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(
            metrics.contains("qrn_evidence_exposure_hours{item=\"default\"} 8"),
            "{metrics}"
        );
        assert!(metrics
            .contains("qrn_fleet_skipped_lines_total{item=\"default\",reason=\"bad_json\"} 1"));
        assert!(
            metrics.contains("qrn_goal_sprt_looks_total{item=\"default\",goal=\"I1\"} 2"),
            "{metrics}"
        );
        // Sequential families exist only in sequential mode.
        assert!(!metrics.contains("qrn_goal_e_value"), "{metrics}");
        assert!(!metrics.contains("qrn_goal_seq_upper"), "{metrics}");
        handle.stop().unwrap();
    }

    /// One severe VRU collision line (classifies as I3 under the paper
    /// classification) in fleet-event JSONL.
    fn crash_lines(n: usize) -> String {
        let events: Vec<qrn_fleet::FleetEvent> = (0..n)
            .map(|i| qrn_fleet::FleetEvent::Incident {
                vehicle: format!("V{i:03}"),
                record: qrn_core::incident::IncidentRecord::collision(
                    qrn_core::object::Involvement::ego_with(qrn_core::object::ObjectType::Vru),
                    qrn_units::Speed::from_kmh(30.0).unwrap(),
                ),
            })
            .collect();
        qrn_fleet::to_jsonl(&events)
    }

    #[test]
    fn sequential_hammering_never_moves_the_verdict_columns() {
        // The tentpole E2E property: in sequential mode the anytime-valid
        // columns are functions of the evidence alone. Hammering the
        // burn-down route with no new data moves `looks` and nothing
        // else — the validity accounting cannot be flipped by polling.
        let mut config = test_config();
        config.burndown.sequential = true;
        let handle = Server::start(config).unwrap();
        let addr = handle.addr();
        let log = format!(
            "{{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":50.0}}\n{}",
            crash_lines(1)
        );
        assert_eq!(post(addr, "/v1/ingest", &log).0, 200);

        let (status, body) = get(addr, "/v1/burndown");
        assert_eq!(status, 200, "{body}");
        let first: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(
            first.schema_version,
            qrn_fleet::burndown::SEQUENTIAL_REPORT_SCHEMA_VERSION
        );
        for g in &first.goals {
            assert!(g.seq_lower.is_some() && g.seq_upper.is_some() && g.e_value.is_some());
        }
        for look in 2..=20u64 {
            let (status, body) = get(addr, "/v1/burndown");
            assert_eq!(status, 200);
            let report: FleetReport = serde_json::from_str(&body).unwrap();
            for (g, f) in report.goals.iter().zip(&first.goals) {
                assert_eq!(g.looks, look, "{}", g.incident);
                assert_eq!(g.alert, f.alert, "{}", g.incident);
                assert_eq!(g.e_value, f.e_value, "{}", g.incident);
                assert_eq!(g.seq_lower, f.seq_lower, "{}", g.incident);
                assert_eq!(g.seq_upper, f.seq_upper, "{}", g.incident);
            }
        }

        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        qrn_stats::prometheus::validate_exposition(&metrics).unwrap();
        assert!(
            metrics.contains("qrn_goal_e_value{item=\"default\",goal=\"I1\"}"),
            "{metrics}"
        );
        assert!(
            metrics.contains("qrn_goal_seq_upper{item=\"default\",goal=\"I1\"}"),
            "{metrics}"
        );
        handle.stop().unwrap();
    }

    #[test]
    fn alert_transitions_survive_in_the_look_sidecar() {
        let dir =
            std::env::temp_dir().join(format!("qrn-serve-transitions-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("fleet.ckpt");
        let mut config = test_config();
        config.burndown.sequential = true;
        config.checkpoint = Some(ckpt.clone());
        let handle = Server::start(config).unwrap();
        let addr = handle.addr();
        // First look over clean exposure: everything Ok, no transitions.
        let exposure = "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":8.0}\n";
        assert_eq!(post(addr, "/v1/ingest", exposure).0, 200);
        assert_eq!(get(addr, "/v1/burndown").0, 200);
        // 40 severe VRU collisions: I3 burns; the second look records the
        // Ok → Burned edge.
        assert_eq!(post(addr, "/v1/ingest", &crash_lines(40)).0, 200);
        let (status, body) = get(addr, "/v1/burndown");
        assert_eq!(status, 200);
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        let i3 = report.goal(&"I3".into()).unwrap();
        assert_eq!(i3.alert, qrn_fleet::AlertLevel::Burned, "{body}");
        handle.stop().unwrap();

        let book = LookBook::load_if_exists(&LookBook::sidecar_path(&ckpt))
            .unwrap()
            .expect("final checkpoint writes the sidecar");
        let entry = book.goal("I3").unwrap();
        assert_eq!(entry.looks, 2);
        assert_eq!(entry.alert, qrn_fleet::AlertLevel::Burned);
        assert_eq!(entry.transitions.len(), 1);
        assert_eq!(entry.transitions[0].to, qrn_fleet::AlertLevel::Burned);
        assert!(entry.transitions[0].at_unix_millis > 0);
        // A restarted server resumes both counts and history.
        let mut config = test_config();
        config.burndown.sequential = true;
        config.checkpoint = Some(ckpt.clone());
        let handle = Server::start(config).unwrap();
        let (status, body) = get(handle.addr(), "/v1/burndown");
        assert_eq!(status, 200);
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert!(report.goals.iter().all(|g| g.looks == 3), "{body}");
        handle.stop().unwrap();
        let book = LookBook::load_if_exists(&LookBook::sidecar_path(&ckpt))
            .unwrap()
            .unwrap();
        // The burned edge is still the only transition: the restart's
        // look observed the same level.
        assert_eq!(book.goal("I3").unwrap().transitions.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn named_ingest_reaches_the_named_item_only() {
        let mut config = test_config();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        config.add_item("vru", paper_norm().unwrap(), classification, allocation);
        let handle = Server::start(config).unwrap();
        let addr = handle.addr();

        let log = "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":4.0}";
        let (status, body) = post(addr, "/v1/vru/ingest", log);
        assert_eq!(status, 200, "{body}");
        let reply: IngestReply = serde_json::from_str(&body).unwrap();
        assert_eq!(reply.item, "vru");
        assert_eq!(reply.total_exposure_hours, 4.0);

        // The default item saw nothing.
        let (_, body) = get(addr, "/v1/burndown");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.exposure_hours, 0.0);
        // The named item serves its own burn-down.
        let (_, body) = get(addr, "/v1/vru/burndown");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.exposure_hours, 4.0);

        // Both items are present, separately labelled, in the metrics.
        let (_, metrics) = get(addr, "/metrics");
        assert!(
            metrics.contains("qrn_evidence_exposure_hours{item=\"default\"} 0"),
            "{metrics}"
        );
        assert!(
            metrics.contains("qrn_evidence_exposure_hours{item=\"vru\"} 4"),
            "{metrics}"
        );
        handle.stop().unwrap();
    }

    #[test]
    fn store_backed_server_screens_recovers_and_time_travels() {
        let dir = std::env::temp_dir().join(format!("qrn-serve-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = test_config();
        config.store = Some(dir.clone());
        let handle = Server::start(config.clone()).unwrap();
        let addr = handle.addr();

        // Sequenced batch; one duplicate line; one gap (seq 2 → 4).
        let log = "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":8.0,\"seq\":1}\n\
                   {\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":2.0,\"seq\":1}\n\
                   {\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":4.0,\"seq\":2}\n\
                   {\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":1.0,\"seq\":4}\n";
        let (status, body) = post(addr, "/v1/ingest", log);
        assert_eq!(status, 200, "{body}");
        let reply: IngestReply = serde_json::from_str(&body).unwrap();
        assert!(reply.stored);
        assert_eq!(reply.duplicates_rejected, 1);
        assert_eq!(reply.gaps_detected, 1);
        assert_eq!(reply.missing_seqs, 1);
        assert_eq!(reply.total_exposure_hours, 13.0);

        // Historical query: everything so far, no look spent.
        let (status, body) = get(addr, &format!("/v1/burndown?as_of={}", u64::MAX));
        assert_eq!(status, 200, "{body}");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.exposure_hours, 13.0);
        // The live route afterwards sees its *first* look: as_of spent
        // none.
        let (_, body) = get(addr, "/v1/burndown");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert!(report.goals.iter().all(|g| g.looks == 1));

        let (status, body) = get(addr, "/v1/history");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"segments\""), "{body}");

        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        qrn_stats::prometheus::validate_exposition(&metrics).unwrap();
        assert!(
            metrics.contains("qrn_store_segments_total{item=\"default\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("qrn_store_duplicates_rejected_total{item=\"default\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("qrn_store_gaps_detected_total{item=\"default\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("qrn_store_appended_bytes_total"),
            "{metrics}"
        );
        assert!(metrics.contains("qrn_store_compactions_total"), "{metrics}");
        // One sequential ingest → one group commit of one batch.
        assert!(
            metrics.contains("qrn_store_group_commits_total{item=\"default\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("qrn_store_group_commit_size{item=\"default\"} 1"),
            "{metrics}"
        );
        handle.stop().unwrap();

        // Restart on the same store: the state is recovered from the log
        // and the duplicate screen still remembers every cursor.
        let handle = Server::start(config).unwrap();
        let addr = handle.addr();
        let (_, body) = get(addr, "/v1/burndown");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.exposure_hours, 13.0);
        let replayed =
            "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":4.0,\"seq\":2}\n";
        let (_, body) = post(addr, "/v1/ingest", replayed);
        let reply: IngestReply = serde_json::from_str(&body).unwrap();
        assert_eq!(reply.duplicates_rejected, 1);
        assert_eq!(reply.total_exposure_hours, 13.0);
        handle.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn as_of_and_history_without_a_store_are_400() {
        let handle = Server::start(test_config()).unwrap();
        let addr = handle.addr();
        assert_eq!(get(addr, "/v1/burndown?as_of=123").0, 400);
        assert_eq!(get(addr, "/v1/history").0, 400);
        handle.stop().unwrap();
    }

    #[test]
    fn unknown_zone_is_404() {
        let handle = Server::start(test_config()).unwrap();
        let addr = handle.addr();
        assert_eq!(get(addr, "/v1/burndown?zone=atlantis").0, 404);
        handle.stop().unwrap();
    }

    #[test]
    fn unknown_query_params_are_400_naming_the_key() {
        let handle = Server::start(test_config()).unwrap();
        let addr = handle.addr();
        let (status, body) = get(addr, "/v1/burndown?foo=bar");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("\"foo\""), "{body}");
        // A typo'd filter key fails loudly instead of silently serving
        // the unfiltered report.
        let (status, body) = get(addr, "/v1/burndown?whre=weather%3Dfog");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("\"whre\""), "{body}");
        // Conflicting selector spellings are a client error too.
        let (status, body) = get(addr, "/v1/burndown?context=a=b&zone=c");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("alias"), "{body}");
        // A malformed where clause names the route's own parameter.
        let (status, body) = get(addr, "/v1/burndown?where=nonsense");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("where"), "{body}");
        handle.stop().unwrap();
    }

    #[test]
    fn context_selector_zone_alias_and_where_filter() {
        let handle = Server::start(test_config()).unwrap();
        let addr = handle.addr();
        let log = "{\"ctx\":\"weather=clear,zone=urban\",\"event\":\"exposure\",\"hours\":2.0,\"v\":2,\"vehicle\":\"V1\"}\n\
                   {\"ctx\":\"weather=fog,zone=urban\",\"event\":\"exposure\",\"hours\":1.0,\"v\":2,\"vehicle\":\"V1\"}\n\
                   {\"ctx\":\"weather=fog,zone=highway\",\"event\":\"exposure\",\"hours\":4.0,\"v\":2,\"vehicle\":\"V2\"}\n";
        let (status, body) = post(addr, "/v1/ingest", log);
        assert_eq!(status, 200, "{body}");

        // `?context=` selects one refinement row by its canonical key.
        let (status, body) = get(addr, "/v1/burndown?context=weather=fog,zone=urban");
        assert_eq!(status, 200, "{body}");
        let row: qrn_fleet::burndown::ZoneBurnDown = serde_json::from_str(&body).unwrap();
        assert_eq!(row.zone, "weather=fog,zone=urban");
        assert_eq!(row.exposure_hours, 1.0);

        // `?zone=` is the documented pre-0.8 alias: same row (only the
        // look counters advance between the two requests).
        let (status, body) = get(addr, "/v1/burndown?zone=weather=fog,zone=urban");
        assert_eq!(status, 200, "{body}");
        let aliased: qrn_fleet::burndown::ZoneBurnDown = serde_json::from_str(&body).unwrap();
        assert_eq!(aliased.zone, row.zone);
        assert_eq!(aliased.exposure_hours, row.exposure_hours);

        // `?where=` keeps the global report but restricts refinement
        // rows to matching contexts across *both* zones.
        let (status, body) = get(addr, "/v1/burndown?where=weather%3Dfog");
        assert_eq!(status, 200, "{body}");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.exposure_hours, 7.0);
        let names: Vec<&str> = report.zones.iter().map(|z| z.zone.as_str()).collect();
        assert_eq!(
            names,
            ["weather=fog,zone=highway", "weather=fog,zone=urban"],
            "{body}"
        );

        // Two clauses intersect; an unmatched filter yields no rows.
        let (_, body) = get(addr, "/v1/burndown?where=weather%3Dfog,zone%3Durban");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.zones.len(), 1);
        let (_, body) = get(addr, "/v1/burndown?where=weather%3Dsnow");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert!(report.zones.is_empty());

        // The metrics page labels every named context (the `zone` label
        // carries the full canonical key).
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        qrn_stats::prometheus::validate_exposition(&metrics).unwrap();
        assert!(
            metrics.contains(
                "qrn_evidence_exposure_hours{item=\"default\",zone=\"weather=fog,zone=highway\"} 4"
            ),
            "{metrics}"
        );
        handle.stop().unwrap();
    }

    #[test]
    fn post_shutdown_drains_and_wait_returns() {
        let handle = Server::start(test_config()).unwrap();
        let addr = handle.addr();
        let (status, body) = post(addr, "/v1/shutdown", "");
        assert_eq!(status, 200, "{body}");
        handle.wait().unwrap();
        // The port is released after the drain.
        assert!(TcpListener::bind(addr).is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for mutate in [
            (|c: &mut ServeConfig| c.workers = 0) as fn(&mut ServeConfig),
            |c| c.queue_depth = 0,
            |c| c.max_body_bytes = 0,
            |c| c.checkpoint_every = 0,
            |c| c.shards = 0,
            |c| c.state_shards = 0,
            |c| c.bind = String::new(),
            |c| c.items.clear(),
            |c| c.items[0].name = String::new(),
            |c| c.items[0].name = "has space".into(),
            |c| c.items[0].name = "ingest".into(),
            |c| {
                let dup = c.items[0].clone();
                c.items.push(dup);
            },
            |c| {
                c.store = Some(std::env::temp_dir());
                c.store_roll_bytes = 0;
            },
            |c| {
                c.store = Some(std::env::temp_dir());
                c.store_group_commit = 0;
            },
            |c| c.items[0].name = "history".into(),
        ] {
            let mut config = test_config();
            mutate(&mut config);
            assert!(matches!(Server::start(config), Err(ServeError::Config(_))));
        }
    }

    #[test]
    fn item_routes_parse() {
        assert_eq!(
            Inner::parse_item_route("/v1/ingest"),
            Some((DEFAULT_ITEM, "ingest"))
        );
        assert_eq!(
            Inner::parse_item_route("/v1/burndown"),
            Some((DEFAULT_ITEM, "burndown"))
        );
        assert_eq!(
            Inner::parse_item_route("/v1/vru/ingest"),
            Some(("vru", "ingest"))
        );
        assert_eq!(
            Inner::parse_item_route("/v1/vru/burndown"),
            Some(("vru", "burndown"))
        );
        assert_eq!(
            Inner::parse_item_route("/v1/history"),
            Some((DEFAULT_ITEM, "history"))
        );
        assert_eq!(
            Inner::parse_item_route("/v1/vru/history"),
            Some(("vru", "history"))
        );
        assert_eq!(Inner::parse_item_route("/v1/shutdown"), None);
        assert_eq!(Inner::parse_item_route("/v1//ingest"), None);
        assert_eq!(Inner::parse_item_route("/v1/a/b/ingest"), None);
        assert_eq!(Inner::parse_item_route("/v2/ingest"), None);
    }

    #[test]
    fn loopback_detection() {
        assert!(is_loopback("127.0.0.1"));
        assert!(is_loopback("::1"));
        assert!(is_loopback("localhost"));
        assert!(!is_loopback("0.0.0.0"));
        assert!(!is_loopback("192.168.1.10"));
    }
}
