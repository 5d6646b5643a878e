//! The traced run's per-layer numbers. After the server has stopped, a
//! sample of the window's traced requests is replayed in-process through
//! each layer's public entry point on the same generated inputs. Each
//! call that redoes part of a request's work is a child span of that
//! request's root span (the parse is a child of `ingest_str`, which does
//! it), so a root's self time is what the replayed layers leave
//! unexplained; the contention probe, `Store::open` and the snapshots
//! are spans of their own.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use qrn_fleet::burndown::{burn_down_filtered, BurnDownConfig, ContextFilter};
use qrn_fleet::event::fastpath::{parse_line_hybrid, ParsedLine};
use qrn_fleet::ingest::{ingest_str, FleetState};
use qrn_serve::http::read_request;
use qrn_serve::ShardedState;
use qrn_stats::prometheus::{render_ledgers, TextFamilies};
use qrn_store::{Store, StoreConfig, StoreReader};

use crate::client::request_bytes;
use crate::stats::{median, rank};
use crate::trace::{attributed_share, layer_totals, Tracer};
use crate::workloads::{remove_dir, Call, Env, Kind, Lane, Phase};
use crate::Metric;

/// Replayed requests per kind (evenly spaced over the traced ones).
const INGEST_SAMPLES: usize = 200;
const QUERY_SAMPLES: usize = 30;
const AS_OF_SAMPLES: usize = 3;
/// Ingests timed against a concurrently folding state.
const CONTENDED_SAMPLES: usize = 50;
/// Snapshots written at the workload's fleet size.
const SNAPSHOTS: usize = 5;
/// Layers whose count and busy time are reported, the subset whose
/// spans have children (self time differs from busy time only there) and
/// the subset whose spans can block.
const LAYERS: [&str; 10] = [
    "client",
    "loadgen",
    "http",
    "parse",
    "ingest",
    "state",
    "burndown",
    "prometheus",
    "store",
    "reader",
];
const SELF_LAYERS: [&str; 2] = ["client", "ingest"];
const WAIT_LAYERS: [&str; 3] = ["loadgen", "state", "store"];

pub struct Replay<'a> {
    pub env: &'a Env,
    pub lane: &'a Lane,
    /// Segments ingested per group commit over the timed phases, from
    /// the server's counters.
    pub batches_per_fsync: f64,
    /// Regenerates the body of ingest `(lane, input)`.
    pub regen: &'a dyn Fn(u64, u64) -> String,
    /// The served state at the end of the run (the workload's fleet size).
    pub reference: &'a FleetState,
    /// The server's item store (the server has stopped).
    pub store_dir: &'a Path,
    /// The request kind the workload is about, for the tracing overhead.
    pub primary: Kind,
}

/// Up to `n` evenly spaced calls of `kind`, from the window when it
/// issued that kind, else from the probes.
fn sample<'a>(calls: &[&'a Call], kind: Kind, n: usize) -> Vec<&'a Call> {
    let in_window = calls
        .iter()
        .any(|c| c.kind == kind && c.phase == Phase::Window);
    let of_kind: Vec<&Call> = calls
        .iter()
        .copied()
        .filter(|c| c.kind == kind && (c.phase == Phase::Window) == in_window)
        .collect();
    let step = of_kind.len().div_ceil(n).max(1);
    of_kind.into_iter().step_by(step).collect()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn replay(tracer: &Tracer, r: &Replay<'_>) -> Result<Vec<Metric>, String> {
    let env = r.env;
    let classification = &env.case.classification;
    let nproc = env.nproc;
    let traced: Vec<&Call> = r
        .lane
        .calls
        .iter()
        .filter(|c| c.ok && c.root_span.is_some())
        .collect();
    let ingests = sample(&traced, Kind::Ingest, INGEST_SAMPLES);
    let mut queries = sample(&traced, Kind::Burndown, QUERY_SAMPLES);
    queries.extend(sample(&traced, Kind::Scrape, QUERY_SAMPLES));
    queries.sort_by_key(|c| c.request);
    let as_ofs = sample(&traced, Kind::AsOf, AS_OF_SAMPLES);
    let mut out = Vec::new();

    // http: the exact request bytes through the server's request reader.
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(err)?;
    let addr = listener.local_addr().map_err(err)?;
    let mut read_us = Vec::new();
    for c in ingests.iter().chain(&queries).chain(&as_ofs) {
        let bytes = match c.kind {
            Kind::Ingest => {
                request_bytes("POST", "/v1/ingest", (r.regen)(c.lane, c.input).as_bytes())
            }
            Kind::Burndown => request_bytes("GET", "/v1/burndown", b""),
            Kind::Scrape => request_bytes("GET", "/metrics", b""),
            Kind::AsOf => request_bytes("GET", &format!("/v1/burndown?as_of={}", c.input), b""),
        };
        let secs = std::thread::scope(|scope| {
            let writer = scope.spawn(move || {
                let mut stream = TcpStream::connect(addr)?;
                stream.write_all(&bytes)
            });
            let (mut stream, _) = listener.accept().map_err(err)?;
            let (request, secs) = tracer.time("http.read_request", c.root_span, c.request, || {
                read_request(&mut stream, 4 * 1024 * 1024)
            });
            request.map_err(|e| format!("read_request: {e:?}"))?;
            writer.join().expect("request writer").map_err(err)?;
            Ok::<f64, String>(secs)
        })?;
        read_us.push(secs * 1e6);
    }
    out.push(Metric::new("http.read_us_p50", "us", median(&read_us)));

    // parse, ingest, store and state on every sampled ingest body.
    let replay_dir = env.work.join("replay-store");
    remove_dir(&replay_dir);
    let config = StoreConfig {
        parse_shards: nproc,
        ..StoreConfig::default()
    };
    let mut store = Store::open(&replay_dir, classification.clone(), config).map_err(err)?;
    let group = r.batches_per_fsync.round().max(1.0) as usize;
    let sharded = ShardedState::new(nproc, r.reference.clone());
    let mut merge_target = r.reference.clone();
    let appended_before = store.status().appended_bytes;
    let (mut lines, mut fast, mut parse_s, mut input_bytes) = (0u64, 0u64, 0.0, 0u64);
    let (mut segment_us, mut merge_us, mut append_us, mut sync_ms) =
        (vec![], vec![], vec![], vec![]);
    let mut segments = Vec::new();
    for (i, c) in ingests.iter().enumerate() {
        let text = (r.regen)(c.lane, c.input);
        let (parent, req) = (c.root_span, c.request);
        let start = Instant::now();
        let segment = ingest_str(&text, classification, nproc);
        let end = Instant::now();
        let segment_span = tracer.record("ingest.segment", parent, req, start, end, false);
        let segment = segment.map_err(err)?;
        segment_us.push((end - start).as_secs_f64() * 1e6);
        // The parse `ingest_str` does, timed on its own as part of it.
        let ((n, f), secs) = tracer.time("parse.lines", Some(segment_span), req, || {
            text.lines().fold((0u64, 0u64), |(n, f), line| {
                let fast = matches!(parse_line_hybrid(line), ParsedLine::Fast(..));
                (n + 1, f + u64::from(fast))
            })
        });
        (lines, fast, parse_s) = (lines + n, fast + f, parse_s + secs);
        let ((), secs) = tracer.time("ingest.merge", parent, req, || merge_target.merge(&segment));
        merge_us.push(secs * 1e6);
        let (appended, secs) = tracer.time("store.append", parent, req, || {
            store.append_batch_deferred(&text, i as u64 + 1)
        });
        appended.map_err(err)?;
        append_us.push(secs * 1e6);
        input_bytes += text.len() as u64;
        if (i + 1) % group == 0 || i + 1 == ingests.len() {
            let (synced, secs) = tracer.time_as("store.sync", parent, req, true, || store.sync());
            synced.map_err(err)?;
            sync_ms.push(secs * 1e3);
        }
        tracer.time("state.ingest", parent, req, || sharded.ingest(&segment));
        segments.push(segment);
    }
    let appended = store.status().appended_bytes - appended_before;
    drop(store);
    remove_dir(&replay_dir);
    out.extend([
        Metric::new(
            "parse.ns_per_line",
            "ns",
            parse_s * 1e9 / lines.max(1) as f64,
        ),
        Metric::new(
            "parse.fast_share",
            "ratio",
            fast as f64 / lines.max(1) as f64,
        ),
        Metric::new("ingest.segment_us_p50", "us", median(&segment_us)),
        Metric::new("ingest.merge_us_p50", "us", median(&merge_us)),
        Metric::new("store.append_us_p50", "us", median(&append_us)),
        Metric::new("store.sync_ms_p50", "ms", median(&sync_ms)),
        Metric::new(
            "store.bytes_per_input_byte",
            "ratio",
            appended as f64 / input_bytes.max(1) as f64,
        ),
    ]);

    // state, burndown and prometheus on every sampled query.
    let (mut fold_ms, mut eval_us, mut render_us, mut rendered) = (vec![], vec![], vec![], 0usize);
    let config = BurnDownConfig::default();
    let filter = ContextFilter::all();
    let case = &env.case;
    for c in &queries {
        let (folded, secs) = tracer.time("state.fold", c.root_span, c.request, || sharded.fold());
        fold_ms.push(secs * 1e3);
        if c.kind == Kind::Burndown {
            let (report, secs) = tracer.time("burndown.eval", c.root_span, c.request, || {
                burn_down_filtered(&case.norm, &case.allocation, &folded, &config, &filter)
            });
            report.map_err(err)?;
            eval_us.push(secs * 1e6);
        } else {
            let (text, secs) = tracer.time("prometheus.render", c.root_span, c.request, || {
                let mut families = TextFamilies::new();
                render_ledgers(
                    &mut families,
                    "qrn_evidence",
                    &[("default", folded.evidence())],
                );
                families.finish()
            });
            render_us.push(secs * 1e6);
            rendered = text.len();
        }
    }
    out.extend([
        Metric::new("state.fold_ms_p50", "ms", median(&fold_ms)),
        Metric::new(
            "state.vehicles",
            "count",
            r.reference.vehicle_count() as f64,
        ),
        Metric::new("burndown.eval_us_p50", "us", median(&eval_us)),
        Metric::new("prometheus.render_us_p50", "us", median(&render_us)),
        Metric::new("prometheus.bytes", "bytes", rendered as f64),
    ]);

    // state: ingests handed over while another thread keeps folding.
    let stop = AtomicBool::new(false);
    let mut waits = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                drop(sharded.fold());
            }
        });
        for (c, segment) in ingests.iter().zip(&segments).take(CONTENDED_SAMPLES) {
            // A contention probe rather than the request's own work, so
            // not a child of its root span.
            let ((), secs) =
                tracer.time_as("state.ingest_contended", None, c.request, true, || {
                    sharded.ingest(segment)
                });
            waits.push(secs * 1e3);
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
    });
    out.push(Metric::new(
        "state.ingest_wait_ms_p90",
        "ms",
        rank(&waits, 0.9),
    ));

    // reader: the server's own store, as the requests saw it.
    let reader = StoreReader::open(r.store_dir, classification.clone(), nproc).map_err(err)?;
    let (mut fold_as_of_ms, mut folded_records) = (vec![], vec![]);
    for c in &as_ofs {
        let (summary, secs) = tracer.time("reader.fold_as_of", c.root_span, c.request, || {
            reader.fold_as_of(Some(c.input))
        });
        let summary = summary.map_err(err)?;
        fold_as_of_ms.push(secs * 1e3);
        folded_records.push(summary.records as f64);
        let (report, _) = tracer.time("burndown.eval", c.root_span, c.request, || {
            burn_down_filtered(
                &case.norm,
                &case.allocation,
                &summary.state,
                &config,
                &filter,
            )
        });
        report.map_err(err)?;
    }
    let config = StoreConfig {
        parse_shards: nproc,
        ..StoreConfig::default()
    };
    let (opened, open_s) = tracer.time("reader.open", None, 0, || {
        Store::open(r.store_dir, classification.clone(), config)
    });
    let mut store = opened.map_err(err)?;
    let status = store.status();
    let records = (status.batches + status.snapshots) as f64;
    let mut snapshot_ms = Vec::new();
    for k in 0..SNAPSHOTS {
        let (written, secs) = tracer.time("store.snapshot", None, 0, || {
            store.write_snapshot(status.last_ts + k as u64)
        });
        written.map_err(err)?;
        snapshot_ms.push(secs * 1e3);
    }
    drop(store);
    out.extend([
        Metric::new("reader.open_s", "s", open_s),
        Metric::new("reader.fold_as_of_ms_p50", "ms", median(&fold_as_of_ms)),
        Metric::new(
            "reader.fold_share",
            "ratio",
            median(&folded_records) / records.max(1.0),
        ),
        Metric::new("store.snapshot_ms_p50", "ms", median(&snapshot_ms)),
        Metric::new("store.snapshots", "count", status.snapshots as f64),
        Metric::new("writer.batches_per_fsync", "ratio", r.batches_per_fsync),
    ]);

    // loadgen and the cost of tracing itself.
    let window: Vec<&Call> = r
        .lane
        .calls
        .iter()
        .filter(|c| c.phase == Phase::Window)
        .collect();
    let late_max = window
        .iter()
        .map(|c| c.late.as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    out.push(Metric::new("loadgen.late_max_ms", "ms", late_max));
    let latencies = |traced: bool| -> Vec<f64> {
        window
            .iter()
            .filter(|c| c.kind == r.primary && c.ok && c.root_span.is_some() == traced)
            .map(|c| c.latency_ms())
            .collect()
    };
    out.push(Metric::new(
        "trace.overhead_ms",
        "ms",
        median(&latencies(true)) - median(&latencies(false)),
    ));
    let record_us: Vec<f64> = window
        .iter()
        .filter(|c| c.kind == r.primary && c.root_span.is_some())
        .map(|c| c.record.as_secs_f64() * 1e6)
        .collect();
    out.push(Metric::new("trace.record_us_p50", "us", median(&record_us)));

    let spans = tracer.spans();
    let root = format!("client.{}", r.primary.name());
    out.push(Metric::new(
        "client.attributed_share",
        "ratio",
        attributed_share(&spans, &root).unwrap_or(0.0),
    ));
    let totals = layer_totals(&spans);
    for layer in LAYERS {
        let t = totals.get(layer);
        let ms = |ns: Option<u64>| ns.unwrap_or(0) as f64 / 1e6;
        out.push(Metric::new(
            &format!("{layer}.spans"),
            "count",
            t.map_or(0, |t| t.count) as f64,
        ));
        out.push(Metric::new(
            &format!("{layer}.busy_ms"),
            "ms",
            ms(t.map(|t| t.busy_ns)),
        ));
        if SELF_LAYERS.contains(&layer) {
            out.push(Metric::new(
                &format!("{layer}.self_ms"),
                "ms",
                ms(t.map(|t| t.self_ns)),
            ));
        }
        if WAIT_LAYERS.contains(&layer) {
            out.push(Metric::new(
                &format!("{layer}.wait_ms"),
                "ms",
                ms(t.map(|t| t.wait_ns)),
            ));
        }
    }
    Ok(out)
}
