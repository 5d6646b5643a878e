//! Criterion bench of the telemetry ingest path: the zero-allocation
//! fast parser against the tolerant serde fallback on identical
//! canonical lines, end-to-end `ingest_str` folding, and the served
//! POST→200 ingest rate with and without store group commit.
//!
//! After the criterion groups run, the harness writes the machine-local
//! perf baseline `results/BENCH_ingest.json`: lines/second for the fast
//! and fallback parsers (asserting the fast path is never slower),
//! events/second through `ingest_str`, and accepted events/second under
//! concurrent store-backed POSTs for group-commit caps 1 (one fsync per
//! batch) and the default (one fsync per drained group). The absolute
//! numbers are machine-local; on a 1-CPU container the serve rows show
//! fsync amortisation only, not the multi-core scaling an ingestion
//! host would see.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use qrn_bench::report::save_json;
use qrn_core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn_fleet::event::fastpath::try_parse_strict;
use qrn_fleet::event::{parse_line_with_meta, parse_line_with_seq};
use qrn_fleet::ingest_str;
use qrn_fleet::telemetry::{Scenario, TelemetryConfig};
use qrn_serve::{ServeConfig, Server};
use qrn_units::Hours;

fn quick() -> bool {
    std::env::var("QRN_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// A clean canonical telemetry log: every line is well-formed, so every
/// line is eligible for the fast path and both parsers do full work.
fn canonical_log(vehicles: usize, hours: f64) -> String {
    TelemetryConfig::new(vehicles)
        .hours(Hours::new(hours).expect("positive"))
        .seed(17)
        .generate_jsonl()
        .expect("telemetry generates")
}

/// A clean ODD-banded log: every line carries a canonical `ctx` context
/// key (schema v2), so the fast path also validates and borrows the key
/// bytes on every line.
fn banded_log(vehicles: usize, hours: f64) -> String {
    TelemetryConfig::new(vehicles)
        .hours(Hours::new(hours).expect("positive"))
        .scenario(Scenario::Banded)
        .seed(17)
        .generate_jsonl()
        .expect("telemetry generates")
}

fn bench_parse(c: &mut Criterion) {
    let log = canonical_log(8, 64.0);
    let lines = log.lines().count();
    c.bench_function(format!("ingest/parse_fast_{lines}_lines").as_str(), |b| {
        b.iter(|| {
            let mut parsed = 0u64;
            for line in black_box(&log).lines() {
                if try_parse_strict(line).is_some() {
                    parsed += 1;
                }
            }
            parsed
        })
    });
    c.bench_function(
        format!("ingest/parse_fallback_{lines}_lines").as_str(),
        |b| {
            b.iter(|| {
                let mut parsed = 0u64;
                for line in black_box(&log).lines() {
                    if matches!(parse_line_with_seq(line), Ok(Some(_))) {
                        parsed += 1;
                    }
                }
                parsed
            })
        },
    );
    let banded = banded_log(8, 64.0);
    let banded_lines = banded.lines().count();
    c.bench_function(
        format!("ingest/parse_fast_ctx_{banded_lines}_lines").as_str(),
        |b| {
            b.iter(|| {
                let mut parsed = 0u64;
                for line in black_box(&banded).lines() {
                    if try_parse_strict(line).is_some() {
                        parsed += 1;
                    }
                }
                parsed
            })
        },
    );
}

fn bench_fold(c: &mut Criterion) {
    let classification = paper_classification().expect("paper example");
    let log = canonical_log(8, 64.0);
    let lines = log.lines().count();
    for shards in [1usize, 2] {
        c.bench_function(
            format!("ingest/ingest_str_{lines}_lines_{shards}_shards").as_str(),
            |b| {
                b.iter(|| {
                    ingest_str(black_box(&log), &classification, shards).expect("clean log folds")
                })
            },
        );
    }
}

/// Lines/second of one parser over the log, measured directly (the
/// criterion groups above measure the same loops with statistics; this
/// single number feeds the JSON baseline).
fn timed_parse(log: &str, iters: usize, parse: impl Fn(&str) -> bool) -> f64 {
    let lines = log.lines().count();
    let start = Instant::now();
    let mut parsed = 0u64;
    for _ in 0..iters {
        for line in log.lines() {
            if parse(black_box(line)) {
                parsed += 1;
            }
        }
    }
    assert_eq!(
        parsed as usize,
        lines * iters,
        "parser rejected clean lines"
    );
    (lines * iters) as f64 / start.elapsed().as_secs_f64()
}

fn roundtrip(addr: SocketAddr, raw: &[u8]) -> usize {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("send");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("recv");
    assert!(reply.starts_with(b"HTTP/1.1 200 "), "non-200 reply");
    reply.len()
}

fn ingest_request(segment: &str) -> String {
    format!(
        "POST /v1/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{segment}",
        segment.len()
    )
}

/// Accepted events/second under `clients` concurrent store-backed
/// POSTs with the given group-commit cap (1 = one fsync per batch).
fn timed_store_ingest(group_commit: usize, clients: usize, posts_per_client: usize) -> f64 {
    let dir = std::env::temp_dir().join(format!(
        "qrn-bench-ingest-gc{group_commit}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let classification = paper_classification().expect("paper example");
    let allocation = paper_allocation(&classification).expect("paper example");
    let mut config = ServeConfig::new(
        paper_norm().expect("paper example"),
        classification,
        allocation,
    );
    config.port = 0;
    config.workers = clients;
    config.queue_depth = clients * 4;
    config.shards = 1;
    config.store = Some(dir.clone());
    config.store_group_commit = group_commit;
    let handle = Server::start(config).expect("bind 127.0.0.1:0");
    let addr = handle.addr();

    // Distinct small segments per client: many fsync-bound batches, the
    // regime group commit exists for.
    let requests: Vec<Vec<String>> = (0..clients)
        .map(|client| {
            (0..posts_per_client)
                .map(|post| {
                    let segment = TelemetryConfig::new(2)
                        .hours(Hours::new(4.0).expect("positive"))
                        .seed((client * posts_per_client + post) as u64 + 1)
                        .generate_jsonl()
                        .expect("telemetry generates");
                    ingest_request(&segment)
                })
                .collect()
        })
        .collect();
    let events: u64 = requests
        .iter()
        .flatten()
        .map(|req| req.lines().count() as u64)
        .sum();

    let start = Instant::now();
    let uploads: Vec<_> = requests
        .into_iter()
        .map(|client_requests| {
            std::thread::spawn(move || {
                for request in client_requests {
                    roundtrip(addr, request.as_bytes());
                }
            })
        })
        .collect();
    for upload in uploads {
        upload.join().expect("client thread");
    }
    let secs = start.elapsed().as_secs_f64();
    handle.stop().expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
    events as f64 / secs
}

/// Writes `results/BENCH_ingest.json` and asserts the fast parser is
/// never slower than the tolerant fallback on the same clean log.
fn emit_ingest_baseline() {
    let host_cpus = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let log = canonical_log(8, 64.0);
    let lines = log.lines().count();
    let (parse_iters, fold_iters, clients, posts_per_client) = if quick() {
        (5, 3, 4, 6)
    } else {
        (40, 20, 4, 24)
    };

    let fast = timed_parse(&log, parse_iters, |line| try_parse_strict(line).is_some());
    let fallback = timed_parse(&log, parse_iters, |line| {
        matches!(parse_line_with_seq(line), Ok(Some(_)))
    });
    let speedup = fast / fallback;
    println!(
        "ingest/parse fast: {fast:.0} lines/s, fallback: {fallback:.0} lines/s ({speedup:.2}x)"
    );

    // Ctx-stamped (schema v2) lines: the fast path additionally
    // validates and borrows the canonical context key, and must still
    // beat the tolerant fallback.
    let banded = banded_log(8, 64.0);
    let banded_lines = banded.lines().count();
    let ctx_fast = timed_parse(&banded, parse_iters, |line| {
        try_parse_strict(line).is_some()
    });
    let ctx_fallback = timed_parse(&banded, parse_iters, |line| {
        matches!(parse_line_with_meta(line), Ok(Some(_)))
    });
    let ctx_speedup = ctx_fast / ctx_fallback;
    println!(
        "ingest/parse_ctx fast: {ctx_fast:.0} lines/s, fallback: {ctx_fallback:.0} lines/s \
         ({ctx_speedup:.2}x)"
    );

    let classification = paper_classification().expect("paper example");
    let events = log.lines().count();
    let start = Instant::now();
    for _ in 0..fold_iters {
        ingest_str(black_box(&log), &classification, 1).expect("clean log folds");
    }
    let fold_rate = (events * fold_iters) as f64 / start.elapsed().as_secs_f64();
    println!("ingest/ingest_str: {fold_rate:.0} events/s");

    let per_batch = timed_store_ingest(1, clients, posts_per_client);
    let grouped = timed_store_ingest(
        qrn_store::writer::DEFAULT_GROUP_COMMIT,
        clients,
        posts_per_client,
    );
    println!(
        "ingest/serve_store group_commit=1: {per_batch:.0} events/s, \
         group_commit=default: {grouped:.0} events/s"
    );

    save_json(
        "BENCH_ingest",
        &serde_json::json!({
            "host_cpus": host_cpus,
            "lines": lines,
            "quick": quick(),
            "parse": {
                "fast_lines_per_second": fast,
                "fallback_lines_per_second": fallback,
                "speedup": speedup,
            },
            "parse_ctx": {
                "lines": banded_lines,
                "fast_lines_per_second": ctx_fast,
                "fallback_lines_per_second": ctx_fallback,
                "speedup": ctx_speedup,
            },
            "fold": {
                "events_per_second": fold_rate,
            },
            "serve_store": {
                "clients": clients,
                "posts_per_client": posts_per_client,
                "per_batch_fsync_events_per_second": per_batch,
                "group_commit_events_per_second": grouped,
                "group_commit_max": qrn_store::writer::DEFAULT_GROUP_COMMIT,
            },
            "note": "machine-local: parse rows compare the zero-allocation scanner \
                     with the tolerant serde fallback on one clean log; serve rows \
                     compare one fsync per batch with group commit under concurrent \
                     POSTs — on a 1-CPU container they show fsync amortisation, not \
                     multi-core scaling",
        }),
    );

    assert!(
        fast >= fallback,
        "the fast parser ({fast:.0} lines/s) is slower than the tolerant \
         fallback ({fallback:.0} lines/s)"
    );
    assert!(
        ctx_fast >= ctx_fallback,
        "the fast parser on ctx-stamped lines ({ctx_fast:.0} lines/s) is slower \
         than the tolerant fallback ({ctx_fallback:.0} lines/s)"
    );
}

criterion_group!(benches, bench_parse, bench_fold);

fn main() {
    benches();
    emit_ingest_baseline();
}
