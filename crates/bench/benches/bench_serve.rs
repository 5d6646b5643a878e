//! Criterion bench of the live evidence server: end-to-end HTTP
//! round-trips against a real listener on 127.0.0.1 — segment ingest
//! throughput, burn-down query latency and the metrics scrape — plus an
//! ingest-saturation sweep over the number of concurrent uploaders.
//!
//! After the criterion groups run, the harness writes the machine-local
//! perf baseline `results/BENCH_serve.json`: accepted events/second
//! when 1, 2, 4 or 8 clients POST concurrently, each client uploading
//! segments of its own four vehicles (no vehicle is shared between
//! clients, as when each uploader owns part of the fleet). Every upload
//! is parsed outside any lock and merged into the item's one vehicle
//! map, so the sweep asserts that concurrent uploaders are never slower
//! than a single one (within a 10 % noise margin): the shared merge
//! must not turn concurrency into a loss. As with `BENCH_sim`'s worker
//! scaling, the *shape* of the curve is machine-local: on a 1-CPU
//! container every worker shares one core, so the curve is flat there,
//! not the multi-core scaling a fleet ingestion host would see.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use qrn_bench::report::save_json;
use qrn_core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn_fleet::telemetry::TelemetryConfig;
use qrn_serve::{ServeConfig, Server, ServerHandle};
use qrn_units::Hours;

fn quick() -> bool {
    std::env::var("QRN_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn server_config() -> ServeConfig {
    let classification = paper_classification().expect("paper example");
    let allocation = paper_allocation(&classification).expect("paper example");
    let mut config = ServeConfig::new(
        paper_norm().expect("paper example"),
        classification,
        allocation,
    );
    config.port = 0;
    config.workers = 2;
    config.shards = 2;
    config
}

fn start_server() -> ServerHandle {
    Server::start(server_config()).expect("bind 127.0.0.1:0")
}

fn roundtrip(addr: SocketAddr, raw: &[u8]) -> usize {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("send");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("recv");
    assert!(reply.starts_with(b"HTTP/1.1 200 "), "non-200 reply");
    reply.len()
}

fn segment_jsonl() -> String {
    TelemetryConfig::new(8)
        .hours(Hours::new(64.0).expect("positive"))
        .seed(11)
        .generate_jsonl()
        .expect("telemetry generates")
}

fn ingest_request(segment: &str) -> String {
    format!(
        "POST /v1/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{segment}",
        segment.len()
    )
}

fn bench_ingest(c: &mut Criterion) {
    let handle = start_server();
    let addr = handle.addr();
    let segment = segment_jsonl();
    let request = ingest_request(&segment);
    let lines = segment.lines().count();
    c.bench_function(format!("serve/ingest_{lines}_lines").as_str(), |b| {
        b.iter(|| roundtrip(addr, black_box(request.as_bytes())))
    });
    handle.stop().expect("drain");
}

fn bench_burndown_query(c: &mut Criterion) {
    let handle = start_server();
    let addr = handle.addr();
    let segment = segment_jsonl();
    roundtrip(addr, ingest_request(&segment).as_bytes());
    let query = b"GET /v1/burndown HTTP/1.1\r\nHost: x\r\n\r\n";
    c.bench_function("serve/burndown_query", |b| {
        b.iter(|| roundtrip(addr, black_box(query)))
    });
    let scrape = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
    c.bench_function("serve/metrics_scrape", |b| {
        b.iter(|| roundtrip(addr, black_box(scrape)))
    });
    handle.stop().expect("drain");
}

/// One saturation measurement: `clients` concurrent threads each POST
/// `posts_per_client` pre-built segments of their own four vehicles;
/// returns accepted events per wall-clock second.
fn timed_saturation(clients: usize, posts_per_client: usize) -> f64 {
    let mut config = server_config();
    config.workers = clients;
    config.queue_depth = clients * 4;
    // Parse sharding off: the sweep measures concurrent uploads, not
    // the (already parallel) parser.
    config.shards = 1;
    let handle = Server::start(config).expect("bind 127.0.0.1:0");
    let addr = handle.addr();

    // Distinct dyadic segments; client `c` renames the generator's
    // vehicles `V0001`–`V0004` to `C<c>-V0001`–`C<c>-V0004`.
    let requests: Vec<Vec<String>> = (0..clients)
        .map(|client| {
            (0..posts_per_client)
                .map(|post| {
                    let segment = TelemetryConfig::new(4)
                        .hours(Hours::new(8.0).expect("positive"))
                        .seed((client * posts_per_client + post) as u64 + 1)
                        .generate_jsonl()
                        .expect("telemetry generates")
                        .replace("\"vehicle\":\"V", &format!("\"vehicle\":\"C{client}-V"));
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
    events as f64 / secs
}

/// Writes `results/BENCH_serve.json` and asserts concurrent uploaders
/// are never slower than one (10 % noise margin: the measurement rides
/// on scheduler jitter, especially on 1-CPU hosts).
fn emit_serve_baseline() {
    let host_cpus = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let posts_per_client = if quick() { 6 } else { 24 };

    let mut rows = Vec::new();
    let mut single = 0.0f64;
    let mut best_concurrent = 0.0f64;
    for clients in [1usize, 2, 4, 8] {
        let rate = timed_saturation(clients, posts_per_client);
        if clients == 1 {
            single = rate;
        } else {
            best_concurrent = best_concurrent.max(rate);
        }
        println!("serve/saturation clients={clients}: {rate:.0} events/s");
        rows.push(serde_json::json!({
            "clients": clients,
            "events_per_second": rate,
        }));
    }

    save_json(
        "BENCH_serve",
        &serde_json::json!({
            "host_cpus": host_cpus,
            "posts_per_client": posts_per_client,
            "quick": quick(),
            "saturation": rows,
            "note": "events/second under concurrent ingest POSTs vs the number of \
                     clients, each uploading its own four vehicles; on a 1-CPU \
                     container all workers share one core, so the curve is flat there",
        }),
    );

    assert!(
        best_concurrent >= single * 0.9,
        "concurrent ingest ({best_concurrent:.0} events/s) fell more than 10% below \
         one client ({single:.0} events/s)"
    );
}

criterion_group!(benches, bench_ingest, bench_burndown_query);

fn main() {
    benches();
    emit_serve_baseline();
}
