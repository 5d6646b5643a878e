//! End-to-end tests of the live evidence server over real localhost TCP:
//! concurrent ingest determinism, checkpoint byte-identity with the
//! offline pipeline, protocol defence (413/400-skip/429) and graceful
//! drain with look-counter persistence.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use qrn::core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn::fleet::burndown::{burn_down_filtered, BurnDownConfig, ContextFilter, FleetReport};
use qrn::fleet::ingest::{ingest_str, FleetState};
use qrn::fleet::telemetry::TelemetryConfig;
use qrn::serve::{ServeConfig, Server};
use qrn::stats::prometheus::validate_exposition;
use qrn::units::Hours;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qrn-serve-e2e-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_config(tag: &str) -> (ServeConfig, PathBuf) {
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    let mut config = ServeConfig::new(paper_norm().unwrap(), classification, allocation);
    config.port = 0;
    config.workers = 3;
    config.io_timeout = Duration::from_secs(5);
    config.shards = 2;
    let checkpoint = temp_dir(tag).join("live-state.json");
    let _ = std::fs::remove_file(&checkpoint);
    let _ = std::fs::remove_file(temp_dir(tag).join("live-state.json.looks.json"));
    config.checkpoint = Some(checkpoint.clone());
    (config, checkpoint)
}

/// One raw HTTP exchange; returns (status, body).
fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let status = reply
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

/// Three disjoint telemetry segments with dyadic exposure chunks, so
/// float folds are exact and merge order cannot matter.
fn segments() -> Vec<String> {
    [3u64, 4, 5]
        .iter()
        .map(|&seed| {
            TelemetryConfig::new(4)
                .hours(Hours::new(32.0).unwrap())
                .seed(seed)
                .generate_jsonl()
                .unwrap()
        })
        .collect()
}

/// The offline fold of the same segments: `qrn fleet ingest` semantics.
fn offline_state(segments: &[String]) -> FleetState {
    let classification = paper_classification().unwrap();
    let mut state = FleetState::default();
    for segment in segments {
        state.merge(&ingest_str(segment, &classification, 4).unwrap());
    }
    state
}

#[test]
fn concurrent_ingest_matches_offline_pipeline_byte_for_byte() {
    // The shard count must never change a single byte of any served or
    // checkpointed artefact. It spreads each upload's parse over that
    // many workers. Without a store the workers merge concurrent uploads
    // into the live state themselves; with one, the store's writer merges
    // them, and the replay of the batches behind `?as_of=` and recovery
    // runs on the same workers. Every path merges in one fixed order.
    for shards in [1usize, 2, 4, 8] {
        for with_store in [false, true] {
            concurrent_ingest_round(shards, with_store);
        }
    }
}

fn concurrent_ingest_round(shards: usize, with_store: bool) {
    let case = format!("shards={shards} store={with_store}");
    let tag = format!("determinism-{shards}-{with_store}");
    let (mut config, checkpoint) = test_config(&tag);
    config.shards = shards;
    if with_store {
        let store = temp_dir(&tag).join("store");
        let _ = std::fs::remove_dir_all(&store);
        config.store = Some(store);
    }
    let handle = Server::start(config.clone()).unwrap();
    let addr = handle.addr();

    // Concurrent clients upload disjoint segments in whatever order
    // the scheduler produces.
    let segments = segments();
    let uploads: Vec<_> = segments
        .iter()
        .cloned()
        .map(|segment| {
            std::thread::spawn(move || {
                let (status, body) = post(addr, "/v1/ingest", &segment);
                assert_eq!(status, 200, "{body}");
            })
        })
        .collect();
    for upload in uploads {
        upload.join().unwrap();
    }

    // The served burn-down must be byte-identical to the offline
    // pipeline: ingest the same segments, run the same analysis,
    // print canonical JSON. (First server look == offline's one and
    // only look.)
    let offline = offline_state(&segments);
    let norm = paper_norm().unwrap();
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    let offline_report = burn_down_filtered(
        &norm,
        &allocation,
        &offline,
        &BurnDownConfig::default(),
        &ContextFilter::all(),
    )
    .unwrap();
    let (status, served) = get(addr, "/v1/burndown");
    assert_eq!(status, 200);
    assert_eq!(served, offline_report.to_canonical_json(), "{case}");
    if with_store {
        // The store replay of all three batches (no snapshot: the whole
        // log is the tail) serves the same bytes.
        let (status, replayed) = get(addr, &format!("/v1/burndown?as_of={}", u64::MAX));
        assert_eq!(status, 200, "{case}: {replayed}");
        assert_eq!(replayed, served, "{case}: as_of");
    }

    // Graceful shutdown writes the final checkpoint; its bytes equal
    // the offline `fleet ingest --checkpoint` artefact of the same
    // segments.
    let (status, _) = post(addr, "/v1/shutdown", "");
    assert_eq!(status, 200);
    handle.wait().unwrap();
    assert_eq!(
        std::fs::read_to_string(&checkpoint).unwrap(),
        serde_json::to_string_pretty(&offline).unwrap(),
        "{case}"
    );

    if with_store {
        // A restart recovers the same state from the store.
        config.checkpoint = None;
        let handle = Server::start(config).unwrap();
        let (status, recovered) = get(handle.addr(), "/v1/burndown");
        assert_eq!(status, 200, "{case}: {recovered}");
        assert_eq!(recovered, served, "{case}: recovery");
        handle.stop().unwrap();
    }
}

#[test]
fn multi_item_server_keeps_items_fully_isolated() {
    let (mut config, checkpoint) = test_config("multi-item");
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    config.add_item("vru", paper_norm().unwrap(), classification, allocation);
    let vru_checkpoint = qrn::fleet::checkpoint::item_checkpoint_path(&checkpoint, "vru");
    let _ = std::fs::remove_file(&vru_checkpoint);
    let mut vru_sidecar = vru_checkpoint.clone().into_os_string();
    vru_sidecar.push(".looks.json");
    let _ = std::fs::remove_file(PathBuf::from(vru_sidecar));
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();

    let segments = segments();
    // Default item gets segments 0 and 1; the vru item gets segment 2.
    assert_eq!(post(addr, "/v1/ingest", &segments[0]).0, 200);
    assert_eq!(post(addr, "/v1/default/ingest", &segments[1]).0, 200);
    assert_eq!(post(addr, "/v1/vru/ingest", &segments[2]).0, 200);

    // Each item's burn-down sees only its own evidence, and looks are
    // counted per item: the vru look below must not move the default
    // item's counters.
    let (status, body) = get(addr, "/v1/vru/burndown");
    assert_eq!(status, 200, "{body}");
    let vru_report: FleetReport = serde_json::from_str(&body).unwrap();
    assert_eq!(vru_report.exposure_hours, 32.0);
    assert!(vru_report.goals.iter().all(|g| g.looks == 1), "{body}");

    let (_, body) = get(addr, "/v1/burndown");
    let default_report: FleetReport = serde_json::from_str(&body).unwrap();
    assert_eq!(default_report.exposure_hours, 64.0);
    assert!(default_report.goals.iter().all(|g| g.looks == 1), "{body}");

    // Metrics label both items and keep the exposition valid.
    let (_, metrics) = get(addr, "/metrics");
    validate_exposition(&metrics).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{metrics}"));
    assert!(
        metrics.contains("qrn_evidence_exposure_hours{item=\"default\"} 64"),
        "{metrics}"
    );
    assert!(
        metrics.contains("qrn_evidence_exposure_hours{item=\"vru\"} 32"),
        "{metrics}"
    );

    // The drain writes one checkpoint per item; each matches the offline
    // ingest of only that item's segments, byte for byte.
    handle.stop().unwrap();
    assert_eq!(
        std::fs::read_to_string(&checkpoint).unwrap(),
        serde_json::to_string_pretty(&offline_state(&segments[..2])).unwrap()
    );
    assert_eq!(
        std::fs::read_to_string(&vru_checkpoint).unwrap(),
        serde_json::to_string_pretty(&offline_state(&segments[2..])).unwrap()
    );
}

#[test]
fn look_counters_survive_restart_via_sidecar() {
    let (config, checkpoint) = test_config("looks");
    let segments = segments();

    // First server: one segment, two looks.
    let handle = Server::start(config.clone()).unwrap();
    let addr = handle.addr();
    assert_eq!(post(addr, "/v1/ingest", &segments[0]).0, 200);
    for expected in [1u64, 2] {
        let (_, body) = get(addr, "/v1/burndown");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert!(report.goals.iter().all(|g| g.looks == expected), "{body}");
    }
    handle.stop().unwrap();
    let mut sidecar = checkpoint.clone().into_os_string();
    sidecar.push(".looks.json");
    assert!(PathBuf::from(&sidecar).exists());

    // Second server resumes both the state and the look counters: the
    // next look is the third, not a fresh first.
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();
    let (_, body) = get(addr, "/v1/burndown");
    let report: FleetReport = serde_json::from_str(&body).unwrap();
    assert!(report.goals.iter().all(|g| g.looks == 3), "{body}");
    assert_eq!(report.exposure_hours, 32.0);
    handle.stop().unwrap();
}

#[test]
fn metrics_are_valid_prometheus_exposition() {
    let (config, _) = test_config("metrics");
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();
    assert_eq!(post(addr, "/v1/ingest", &segments()[0]).0, 200);
    let _ = get(addr, "/v1/burndown");
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    validate_exposition(&body).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{body}"));
    assert!(
        body.contains("qrn_evidence_exposure_hours{item=\"default\"} 32"),
        "{body}"
    );
    assert!(body.contains("qrn_http_request_seconds_bucket"), "{body}");
    assert!(body.contains("qrn_goal_budget_consumed"), "{body}");
    handle.stop().unwrap();
}

#[test]
fn oversized_body_answers_413_without_reading_it() {
    let (mut config, _) = test_config("oversized");
    config.max_body_bytes = 1024;
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();

    // Declare a 10 MiB body but never send it: the server must answer
    // from the headers alone.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /v1/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 10485760\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 413 "), "{reply}");

    // A fitting body still works afterwards.
    let log = "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":1.0}";
    assert_eq!(post(addr, "/v1/ingest", log).0, 200);
    handle.stop().unwrap();
}

#[test]
fn bad_jsonl_is_skipped_per_line_not_rejected() {
    let (config, _) = test_config("badlines");
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();
    let log = "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":2.0}\n\
               this is not json\n\
               {\"v\":99,\"event\":\"exposure\",\"vehicle\":\"V2\",\"hours\":1.0}\n\
               {\"v\":1,\"event\":\"warp\",\"vehicle\":\"V3\"}\n";
    let (status, body) = post(addr, "/v1/ingest", log);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"segment_events\": 1"), "{body}");
    assert!(body.contains("\"bad_json\": 1"), "{body}");
    assert!(body.contains("\"unsupported_version\": 1"), "{body}");
    assert!(body.contains("\"unknown_kind\": 1"), "{body}");
    handle.stop().unwrap();
}

#[test]
fn full_queue_sheds_load_with_429() {
    let (mut config, _) = test_config("backpressure");
    config.workers = 1;
    config.queue_depth = 1;
    config.io_timeout = Duration::from_secs(10);
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();

    // Occupy the single worker with a held-open connection (no request
    // head yet), give the worker time to claim it, then fill the
    // one-slot queue with a second held connection.
    let mut held_a = TcpStream::connect(addr).unwrap();
    held_a.write_all(b"GET /healthz").unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let mut held_b = TcpStream::connect(addr).unwrap();
    held_b.write_all(b"GET /healthz").unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // Worker busy + queue full: the accept thread itself answers 429.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 429, "{body}");

    // Releasing the held connections lets the backlog drain: finish the
    // first request and the server serves both, then new requests pass.
    held_a.write_all(b" HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut reply = String::new();
    held_a.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200 "), "{reply}");
    held_b.write_all(b" HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut reply = String::new();
    held_b.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200 "), "{reply}");
    assert_eq!(get(addr, "/healthz").0, 200);

    // The shed connection is visible in the metrics.
    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("qrn_http_rejected_total{reason=\"queue_full\"} 1"),
        "{metrics}"
    );
    handle.stop().unwrap();
}

#[test]
fn zone_queries_serve_refinement_rows() {
    let (mut config, _) = test_config("zones");
    // A design-time campaign ledger with an "urban" refinement row.
    let mut ledger = qrn::stats::evidence::EvidenceLedger::new();
    ledger.add_exposure(None, 1024.0);
    ledger.add_exposure(Some("urban"), 256.0);
    ledger.add_incident(None, "I2", 0.5);
    ledger.add_incident(Some("urban"), "I2", 0.5);
    config.push_evidence(ledger);
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();

    let (status, body) = get(addr, "/v1/burndown?zone=urban");
    assert_eq!(status, 200, "{body}");
    let zone: qrn::fleet::burndown::ZoneBurnDown = serde_json::from_str(&body).unwrap();
    assert_eq!(zone.zone, "urban");
    assert_eq!(zone.exposure_hours, 256.0);
    assert!(!zone.goals.is_empty());

    assert_eq!(get(addr, "/v1/burndown?zone=nowhere").0, 404);
    handle.stop().unwrap();
}

#[test]
fn corrupt_checkpoint_fails_startup_with_clear_error() {
    let (config, checkpoint) = test_config("corrupt");
    std::fs::write(&checkpoint, "{\"schema_ver").unwrap();
    let err = match Server::start(config) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("corrupt checkpoint must not start silently"),
    };
    assert!(err.contains("corrupt checkpoint"), "{err}");
    assert!(err.contains("live-state.json"), "{err}");
}
