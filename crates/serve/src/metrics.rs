//! Server-side operational counters, the request-latency histogram, and
//! the per-item families `/metrics` renders over each item's burn-down.
//!
//! Everything here is updated on the hot path, so *every* counter is a
//! plain relaxed atomic: the route and status label spaces are small
//! and known at compile time ([`ROUTE_LABELS`], [`STATUS_CODES`]), so a
//! fixed atomic slot per label replaces the mutex-guarded maps the
//! first server version used — `/metrics` scrapes and concurrent
//! ingests no longer serialise on telemetry bookkeeping. Rendering
//! reuses the shared [`qrn_stats::prometheus`] writer so `/metrics`
//! output is structurally valid by construction.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use qrn_fleet::burndown::{FleetReport, GoalBurnDown};
use qrn_fleet::ingest::FleetTotals;
use qrn_fleet::looks::LookBook;
use qrn_stats::evidence::EvidenceLedger;
use qrn_stats::prometheus::{MetricKind, TextFamilies};
use qrn_store::StoreStats;

/// Upper bounds (seconds) of the request-latency histogram buckets. The
/// final implicit bucket is `+Inf`.
pub const LATENCY_BUCKETS: [f64; 8] = [0.001, 0.005, 0.025, 0.1, 0.25, 1.0, 5.0, 30.0];

/// The route label space: every request is counted under exactly one of
/// these. Item-addressed routes collapse onto `{item}` placeholders so
/// the label cardinality stays fixed no matter how many items a server
/// hosts.
pub const ROUTE_LABELS: [&str; 8] = [
    "/healthz",
    "/metrics",
    "/v1/ingest",
    "/v1/burndown",
    "/v1/shutdown",
    "/v1/{item}/ingest",
    "/v1/{item}/burndown",
    "other",
];

/// Status codes the server emits; anything else lands in the final
/// `other` slot.
pub const STATUS_CODES: [u16; 10] = [200, 400, 404, 405, 408, 411, 413, 429, 431, 500];

/// Maps a request path to its [`ROUTE_LABELS`] index.
fn route_index(path: &str) -> usize {
    if let Some(exact) = ROUTE_LABELS[..5].iter().position(|&label| label == path) {
        return exact;
    }
    if let Some(rest) = path.strip_prefix("/v1/") {
        if let Some((item, endpoint)) = rest.split_once('/') {
            if !item.is_empty() {
                match endpoint {
                    "ingest" => return 5,
                    "burndown" => return 6,
                    _ => {}
                }
            }
        }
    }
    ROUTE_LABELS.len() - 1
}

/// Maps a status code to its slot in the per-status array (the last slot
/// is `other`).
fn status_index(status: u16) -> usize {
    STATUS_CODES
        .iter()
        .position(|&code| code == status)
        .unwrap_or(STATUS_CODES.len())
}

/// Operational counters of one running server. All lock-free.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests fully read and routed, one slot per [`ROUTE_LABELS`]
    /// entry.
    requests_by_route: [AtomicU64; ROUTE_LABELS.len()],
    /// Responses written, one slot per [`STATUS_CODES`] entry plus a
    /// final `other`.
    responses_by_status: [AtomicU64; STATUS_CODES.len() + 1],
    /// Connections shed with `429` because the queue was full.
    rejected_queue_full: AtomicU64,
    /// Connections dropped without a response (client vanished).
    connections_dropped: AtomicU64,
    /// Ingest requests accepted (segments merged into the live state).
    segments_ingested: AtomicU64,
    /// Checkpoints successfully written.
    checkpoints_written: AtomicU64,
    /// Latency histogram: counts per bucket of [`LATENCY_BUCKETS`] plus
    /// the `+Inf` bucket.
    latency_counts: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    /// Sum of observed latencies, nanoseconds.
    latency_sum_nanos: AtomicU64,
    /// Number of observed requests.
    latency_observations: AtomicU64,
}

impl ServerMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        ServerMetrics::default()
    }

    /// Counts one routed request by its path.
    pub fn count_request(&self, path: &str) {
        self.requests_by_route[route_index(path)].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one written response.
    pub fn count_response(&self, status: u16) {
        self.responses_by_status[status_index(status)].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection shed with `429` at the accept stage.
    pub fn count_queue_full(&self) {
        self.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection dropped without a response.
    pub fn count_dropped(&self) {
        self.connections_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one accepted ingest segment.
    pub fn count_segment(&self) {
        self.segments_ingested.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one written checkpoint.
    pub fn count_checkpoint(&self) {
        self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of checkpoints written so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints_written.load(Ordering::Relaxed)
    }

    /// Records one request's wall-clock service time.
    pub fn observe_latency(&self, elapsed: Duration) {
        let seconds = elapsed.as_secs_f64();
        let bucket = LATENCY_BUCKETS
            .iter()
            .position(|&le| seconds <= le)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.latency_counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_nanos.fetch_add(
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.latency_observations.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders every family under the `qrn_http` / `qrn_server`
    /// prefixes. Zero-valued route/status slots are skipped, matching
    /// the sparse output of the old map-based counters.
    pub fn render(&self, out: &mut TextFamilies) {
        out.family(
            "qrn_http_requests_total",
            "Requests fully read and routed, by route",
            MetricKind::Counter,
        );
        for (route, slot) in ROUTE_LABELS.iter().zip(&self.requests_by_route) {
            let count = slot.load(Ordering::Relaxed);
            if count > 0 {
                out.sample_u64("qrn_http_requests_total", &[("route", route)], count);
            }
        }

        out.family(
            "qrn_http_responses_total",
            "Responses written, by status code",
            MetricKind::Counter,
        );
        for (i, slot) in self.responses_by_status.iter().enumerate() {
            let count = slot.load(Ordering::Relaxed);
            if count > 0 {
                let label = match STATUS_CODES.get(i) {
                    Some(code) => code.to_string(),
                    None => "other".to_string(),
                };
                out.sample_u64("qrn_http_responses_total", &[("status", &label)], count);
            }
        }

        out.family(
            "qrn_http_rejected_total",
            "Connections shed or dropped before routing, by reason",
            MetricKind::Counter,
        );
        out.sample_u64(
            "qrn_http_rejected_total",
            &[("reason", "queue_full")],
            self.rejected_queue_full.load(Ordering::Relaxed),
        );
        out.sample_u64(
            "qrn_http_rejected_total",
            &[("reason", "client_gone")],
            self.connections_dropped.load(Ordering::Relaxed),
        );

        out.family(
            "qrn_server_segments_ingested_total",
            "Telemetry segments merged into the live fleet state",
            MetricKind::Counter,
        );
        out.sample_u64(
            "qrn_server_segments_ingested_total",
            &[],
            self.segments_ingested.load(Ordering::Relaxed),
        );

        out.family(
            "qrn_server_checkpoints_written_total",
            "Crash-safe checkpoints written",
            MetricKind::Counter,
        );
        out.sample_u64(
            "qrn_server_checkpoints_written_total",
            &[],
            self.checkpoints_written.load(Ordering::Relaxed),
        );

        out.family(
            "qrn_http_request_seconds",
            "Request service time, accept to response written",
            MetricKind::Histogram,
        );
        let mut cumulative = 0;
        for (i, le) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += self.latency_counts[i].load(Ordering::Relaxed);
            out.sample_u64(
                "qrn_http_request_seconds_bucket",
                &[("le", &format!("{le}"))],
                cumulative,
            );
        }
        cumulative += self.latency_counts[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        out.sample_u64(
            "qrn_http_request_seconds_bucket",
            &[("le", "+Inf")],
            cumulative,
        );
        out.sample(
            "qrn_http_request_seconds_sum",
            &[],
            self.latency_sum_nanos.load(Ordering::Relaxed) as f64 / 1.0e9,
        );
        out.sample_u64(
            "qrn_http_request_seconds_count",
            &[],
            self.latency_observations.load(Ordering::Relaxed),
        );
    }
}

/// One served item as a `/metrics` scrape sees it: the published totals,
/// the look counters, the evidence joined with the item's design-time
/// ledgers, the burn-down over that evidence, and the store statistics
/// (when the server has a store).
pub(crate) struct ItemView<'a> {
    pub name: &'a str,
    pub totals: &'a FleetTotals,
    pub looks: LookBook,
    pub evidence: Cow<'a, EvidenceLedger>,
    pub report: FleetReport,
    pub store: Option<&'a StoreStats>,
}

/// A sample value: counts render as integers, gauges as floats.
pub(crate) enum Value {
    Count(u64),
    Gauge(f64),
}

/// Emits one sample: its label beyond `item` (if any) and its value.
pub(crate) type Emit<'e> = dyn FnMut(Option<(&str, &str)>, Value) + 'e;

/// One per-item metric family: `samples` emits an item's samples, and the
/// family renders them item by item so its samples stay contiguous, as
/// the exposition format requires. Following the Prometheus naming
/// convention, a family is a counter exactly when its name ends in
/// `_total`, and a gauge otherwise.
pub(crate) struct Family {
    pub name: &'static str,
    pub help: &'static str,
    pub samples: fn(&ItemView<'_>, &mut Emit<'_>),
}

/// Renders every family over every item, in table then item order.
pub(crate) fn render_families(out: &mut TextFamilies, views: &[ItemView<'_>], families: &[Family]) {
    for family in families {
        let kind = if family.name.ends_with("_total") {
            MetricKind::Counter
        } else {
            MetricKind::Gauge
        };
        out.family(family.name, family.help, kind);
        for view in views {
            (family.samples)(view, &mut |label, value| {
                let item = ("item", view.name);
                let pair;
                let labels: &[(&str, &str)] = match label {
                    Some(label) => {
                        pair = [item, label];
                        &pair
                    }
                    None => std::slice::from_ref(&item),
                };
                match value {
                    Value::Count(n) => out.sample_u64(family.name, labels, n),
                    Value::Gauge(x) => out.sample(family.name, labels, x),
                };
            });
        }
    }
}

/// Fleet-state families.
pub(crate) const FLEET_FAMILIES: [Family; 4] = [
    Family {
        name: "qrn_fleet_lines_total",
        help: "Telemetry lines offered to the parser",
        samples: |v, emit| emit(None, Value::Count(v.totals.lines())),
    },
    Family {
        name: "qrn_fleet_events_total",
        help: "Telemetry events accepted",
        samples: |v, emit| emit(None, Value::Count(v.totals.events())),
    },
    Family {
        name: "qrn_fleet_vehicles",
        help: "Distinct vehicles that reported",
        samples: |v, emit| emit(None, Value::Count(v.totals.vehicle_count())),
    },
    Family {
        name: "qrn_fleet_skipped_lines_total",
        help: "Telemetry lines skipped by the tolerant parser, by reason",
        samples: |v, emit| {
            let skipped = v.totals.skipped();
            for (reason, count) in [
                ("bad_json", skipped.bad_json),
                ("not_an_object", skipped.not_an_object),
                ("unsupported_version", skipped.unsupported_version),
                ("unknown_kind", skipped.unknown_kind),
                ("missing_field", skipped.missing_field),
                ("invalid_value", skipped.invalid_value),
            ] {
                emit(Some(("reason", reason)), Value::Count(count));
            }
        },
    },
];

/// Emits one store counter of an item that has a store.
fn store_counter(v: &ItemView<'_>, emit: &mut Emit<'_>, counter: fn(&StoreStats) -> &AtomicU64) {
    if let Some(stats) = v.store {
        emit(None, Value::Count(counter(stats).load(Ordering::Relaxed)));
    }
}

/// Evidence-store families, sampled from the writer thread's lock-free
/// published stats (rendered only on servers with a store).
pub(crate) const STORE_FAMILIES: [Family; 7] = [
    Family {
        name: "qrn_store_segments_total",
        help: "Evidence-store segment files created (rolls and compactions)",
        samples: |v, emit| store_counter(v, emit, |s| &s.segments_created),
    },
    Family {
        name: "qrn_store_appended_bytes_total",
        help: "Record bytes appended to the evidence store",
        samples: |v, emit| store_counter(v, emit, |s| &s.appended_bytes),
    },
    Family {
        name: "qrn_store_duplicates_rejected_total",
        help: "Duplicate sequenced telemetry lines rejected by store screening",
        samples: |v, emit| store_counter(v, emit, |s| &s.duplicates),
    },
    Family {
        name: "qrn_store_gaps_detected_total",
        help: "Sequence gaps detected in ingested telemetry",
        samples: |v, emit| store_counter(v, emit, |s| &s.gap_events),
    },
    Family {
        name: "qrn_store_compactions_total",
        help: "Evidence-store compactions performed",
        samples: |v, emit| store_counter(v, emit, |s| &s.compactions),
    },
    Family {
        name: "qrn_store_group_commits_total",
        help: "Evidence-store group commits (one fsync each, per item)",
        samples: |v, emit| store_counter(v, emit, |s| &s.group_commits),
    },
    Family {
        name: "qrn_store_group_commit_size",
        help: "Batches covered by the most recent group commit",
        samples: |v, emit| store_counter(v, emit, |s| &s.last_group_commit_size),
    },
];

/// Emits `value` of every goal row of the item's report that has one.
fn per_goal(
    v: &ItemView<'_>,
    emit: &mut Emit<'_>,
    value: fn(&ItemView<'_>, &GoalBurnDown) -> Option<Value>,
) {
    for g in &v.report.goals {
        if let Some(value) = value(v, g) {
            emit(Some(("goal", g.incident.as_str())), value);
        }
    }
}

/// Goal burn-down families. Reading metrics is *not* a look: the SPRT is
/// not consulted for a decision here, the last burn-down's counters are
/// simply re-exposed.
pub(crate) const GOAL_FAMILIES: [Family; 3] = [
    Family {
        name: "qrn_goal_budget_consumed",
        help: "Point-estimate share of each safety goal's frequency budget",
        samples: |v, emit| per_goal(v, emit, |_, g| Some(Value::Gauge(g.consumed))),
    },
    Family {
        name: "qrn_goal_alert_level",
        help: "Alert level per goal: 0 ok, 1 watch, 2 burned",
        samples: |v, emit| per_goal(v, emit, |_, g| Some(Value::Count(g.alert as u64))),
    },
    Family {
        name: "qrn_goal_sprt_looks_total",
        help: "Completed SPRT looks per goal (burn-down evaluations served)",
        samples: |v, emit| {
            per_goal(v, emit, |v, g| {
                Some(Value::Count(v.looks.looks(g.incident.as_str())))
            })
        },
    },
];

/// Anytime-valid goal families, rendered only in sequential mode (the
/// columns do not exist otherwise).
pub(crate) const SEQUENTIAL_FAMILIES: [Family; 2] = [
    Family {
        name: "qrn_goal_e_value",
        help: "Running budget e-process value per goal (anytime-valid; reaching 1/alpha rejects the budget)",
        samples: |v, emit| per_goal(v, emit, |_, g| g.e_value.map(Value::Gauge)),
    },
    Family {
        name: "qrn_goal_seq_upper",
        help: "Upper endpoint of the anytime-valid confidence sequence on each goal's rate, per hour",
        samples: |v, emit| {
            per_goal(v, emit, |_, g| {
                g.seq_upper.map(|upper| Value::Gauge(upper.as_per_hour()))
            })
        },
    },
];

/// Consequence-class burn-down families.
pub(crate) const CLASS_FAMILIES: [Family; 1] = [Family {
    name: "qrn_class_budget_consumed",
    help: "Point-estimate share of each consequence-class budget",
    samples: |v, emit| {
        for c in &v.report.classes {
            emit(Some(("class", c.class.as_str())), Value::Gauge(c.consumed));
        }
    },
}];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = ServerMetrics::new();
        m.count_request("/healthz");
        m.count_request("/healthz");
        m.count_request("/v1/ingest");
        m.count_request("/v1/vru/ingest");
        m.count_response(200);
        m.count_response(429);
        m.count_queue_full();
        m.count_segment();
        m.count_checkpoint();
        m.observe_latency(Duration::from_millis(3));
        m.observe_latency(Duration::from_secs(120));

        let mut out = TextFamilies::new();
        m.render(&mut out);
        let body = out.finish();
        assert!(
            body.contains("qrn_http_requests_total{route=\"/healthz\"} 2"),
            "{body}"
        );
        assert!(
            body.contains("qrn_http_requests_total{route=\"/v1/{item}/ingest\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("qrn_http_responses_total{status=\"429\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("qrn_http_rejected_total{reason=\"queue_full\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("qrn_server_checkpoints_written_total 1"),
            "{body}"
        );
        // 3 ms lands in the 0.005 bucket; 120 s only in +Inf. Buckets are
        // cumulative.
        assert!(
            body.contains("qrn_http_request_seconds_bucket{le=\"0.005\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("qrn_http_request_seconds_bucket{le=\"+Inf\"} 2"),
            "{body}"
        );
        assert!(body.contains("qrn_http_request_seconds_count 2"), "{body}");
        // Unseen routes and statuses render nothing, as the old
        // map-based counters did.
        assert!(!body.contains("route=\"/metrics\""), "{body}");
        assert!(!body.contains("status=\"500\""), "{body}");
        assert_eq!(m.checkpoints(), 1);
    }

    #[test]
    fn every_path_maps_to_a_fixed_route_label() {
        assert_eq!(ROUTE_LABELS[route_index("/healthz")], "/healthz");
        assert_eq!(ROUTE_LABELS[route_index("/v1/ingest")], "/v1/ingest");
        assert_eq!(
            ROUTE_LABELS[route_index("/v1/vru/ingest")],
            "/v1/{item}/ingest"
        );
        assert_eq!(
            ROUTE_LABELS[route_index("/v1/highway/burndown")],
            "/v1/{item}/burndown"
        );
        assert_eq!(ROUTE_LABELS[route_index("/v1//ingest")], "other");
        assert_eq!(ROUTE_LABELS[route_index("/v1/a/b/ingest")], "other");
        assert_eq!(ROUTE_LABELS[route_index("/favicon.ico")], "other");
        assert_eq!(status_index(200), 0);
        assert_eq!(status_index(599), STATUS_CODES.len());
    }

    #[test]
    fn unknown_status_renders_as_other() {
        let m = ServerMetrics::new();
        m.count_response(599);
        let mut out = TextFamilies::new();
        m.render(&mut out);
        let body = out.finish();
        assert!(
            body.contains("qrn_http_responses_total{status=\"other\"} 1"),
            "{body}"
        );
    }

    #[test]
    fn latency_histogram_is_monotone() {
        let m = ServerMetrics::new();
        for ms in [0, 1, 2, 10, 50, 400, 2000, 60_000] {
            m.observe_latency(Duration::from_millis(ms));
        }
        let mut out = TextFamilies::new();
        m.render(&mut out);
        let body = out.finish();
        let counts: Vec<u64> = body
            .lines()
            .filter(|l| l.starts_with("qrn_http_request_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.len(), LATENCY_BUCKETS.len() + 1);
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_eq!(*counts.last().unwrap(), 8);
    }
}
