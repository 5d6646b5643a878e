//! End-to-end tests of the store-backed evidence server over real
//! localhost TCP: store recovery versus the checkpoint path (byte
//! identity), and `?as_of=` time travel versus the offline report
//! pipeline (byte identity, no SPRT look spent).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use qrn::core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn::fleet::burndown::{burn_down_filtered, BurnDownConfig, ContextFilter, FleetReport};
use qrn::fleet::event::FleetEvent;
use qrn::fleet::ingest::{ingest_str, FleetState};
use qrn::fleet::telemetry::TelemetryConfig;
use qrn::serve::{ServeConfig, Server};
use qrn::store::StoreReader;
use qrn::units::Hours;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qrn-store-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_config(store: &std::path::Path) -> ServeConfig {
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    let mut config = ServeConfig::new(paper_norm().unwrap(), classification, allocation);
    config.port = 0;
    config.workers = 2;
    config.io_timeout = Duration::from_secs(5);
    config.shards = 2;
    config.store = Some(store.to_path_buf());
    config
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

/// One sequenced telemetry log split into three upload batches.
/// Splitting *after* seq stamping keeps every vehicle's sequence
/// monotone across batches, so the store's screening accepts them all.
fn sequenced_batches() -> Vec<String> {
    let log = TelemetryConfig::new(4)
        .hours(Hours::new(96.0).unwrap())
        .seed(5)
        .stamp_seq(true)
        .generate_jsonl()
        .unwrap();
    let lines: Vec<&str> = log.lines().collect();
    let per_batch = lines.len().div_ceil(3);
    lines
        .chunks(per_batch)
        .map(|chunk| {
            let mut batch = String::new();
            for line in chunk {
                batch.push_str(line);
                batch.push('\n');
            }
            batch
        })
        .collect()
}

/// The offline fold of the same batches: `qrn fleet ingest` semantics.
fn offline_state(batches: &[String]) -> FleetState {
    let classification = paper_classification().unwrap();
    let mut state = FleetState::default();
    for batch in batches {
        state.merge(&ingest_str(batch, &classification, 4).unwrap());
    }
    state
}

fn offline_report(batches: &[String]) -> String {
    let norm = paper_norm().unwrap();
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    burn_down_filtered(
        &norm,
        &allocation,
        &offline_state(batches),
        &BurnDownConfig::default(),
        &ContextFilter::all(),
    )
    .unwrap()
    .to_canonical_json()
}

fn now_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Twelve seq-stamped batches of exposure from three vehicles, with
/// hours that are not dyadic and differ from batch to batch
/// (0.1 + k·0.017 h): every float sum they feed depends on the order its
/// terms are added in, so only an append-order merge reproduces it.
fn non_dyadic_batches() -> Vec<String> {
    let vehicles = ["V-a", "V-b", "V-c"];
    (0..12u64)
        .map(|batch| {
            let mut text = String::new();
            for (i, vehicle) in (0u64..).zip(vehicles) {
                let event = FleetEvent::Exposure {
                    vehicle: vehicle.into(),
                    hours: Hours::new(0.1 + (batch * 3 + i) as f64 * 0.017).unwrap(),
                };
                text.push_str(&event.to_line_with_seq(batch + 1));
                text.push('\n');
            }
            text
        })
        .collect()
}

#[test]
fn store_recovery_is_byte_identical_to_the_checkpoint_path() {
    assert_recovery_is_byte_identical("recovery", &sequenced_batches(), None);
    // Four state shards: when shards took whole segments round-robin,
    // the twelve batches wrapped that assignment three times and the
    // live sums drifted from the replay's.
    assert_recovery_is_byte_identical("recovery-non-dyadic", &non_dyadic_batches(), Some(4));
}

/// Serves `batches` from a store-backed server (with `state_shards`, or
/// the default) and checks one state on every path: the first live
/// burn-down, the drained checkpoint, the store replay, the offline fold
/// and a restarted server's burn-down.
fn assert_recovery_is_byte_identical(tag: &str, batches: &[String], state_shards: Option<usize>) {
    let dir = temp_dir(tag);
    let store_dir = dir.join("store");
    let config = |checkpoint: Option<PathBuf>| {
        let mut config = test_config(&store_dir);
        config.checkpoint = checkpoint;
        if let Some(state_shards) = state_shards {
            config.state_shards = state_shards;
        }
        config
    };
    // Both durability paths at once: every accepted batch goes to the
    // store, and the graceful drain writes a final checkpoint.
    let checkpoint = dir.join("live-state.json");
    let handle = Server::start(config(Some(checkpoint.clone()))).unwrap();
    let addr = handle.addr();
    for batch in batches {
        let (status, body) = post(addr, "/v1/ingest", batch);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"stored\": true"), "{body}");
    }
    // The live verdict is the offline one: its first look matches the
    // offline report's one and only look.
    let (status, body) = get(addr, "/v1/burndown");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, offline_report(batches), "{tag}: live burn-down");
    handle.stop().unwrap();

    // The store's full replay folds to exactly the bytes the checkpoint
    // holds — two independent durability paths, one state.
    let reader = StoreReader::open(
        &store_dir.join("default"),
        paper_classification().unwrap(),
        3,
    )
    .unwrap();
    let replayed = reader.fold_as_of(None).unwrap();
    assert_eq!(
        std::fs::read_to_string(&checkpoint).unwrap(),
        serde_json::to_string_pretty(&replayed.state).unwrap(),
        "{tag}: store replay differs from the final checkpoint"
    );
    assert_eq!(
        serde_json::to_string_pretty(&replayed.state).unwrap(),
        serde_json::to_string_pretty(&offline_state(batches)).unwrap(),
        "{tag}: store replay differs from offline ingest"
    );

    // A restarted store-backed server (no checkpoint configured) serves
    // the identical burn-down: recovery comes from the store alone.
    let handle = Server::start(config(None)).unwrap();
    let addr = handle.addr();
    let (status, body) = get(addr, "/v1/burndown");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, offline_report(batches), "{tag}: restarted burn-down");
    handle.stop().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn as_of_time_travel_matches_the_offline_report_and_spends_no_look() {
    let dir = temp_dir("as-of");
    let store_dir = dir.join("store");
    let batches = sequenced_batches();
    let handle = Server::start(test_config(&store_dir)).unwrap();
    let addr = handle.addr();

    // First batch, then a cut timestamp strictly between the first and
    // second append (record timestamps come from the server's clock and
    // are forced monotone, so sleeping past the cut keeps it strict).
    let (status, body) = post(addr, "/v1/ingest", &batches[0]);
    assert_eq!(status, 200, "{body}");
    let cut = now_millis();
    std::thread::sleep(Duration::from_millis(25));
    for batch in &batches[1..] {
        assert_eq!(post(addr, "/v1/ingest", batch).0, 200);
    }

    // Time travel to the cut sees exactly the first batch, rendered
    // byte-identically to the offline `fleet report` pipeline; the far
    // future sees everything.
    let (status, body) = get(addr, &format!("/v1/burndown?as_of={cut}"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, offline_report(&batches[..1]));
    let (status, body) = get(addr, &format!("/v1/burndown?as_of={}", u64::MAX));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, offline_report(&batches));

    // The history timeline is served and non-trivial.
    let (status, body) = get(addr, "/v1/history");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"points\""), "{body}");

    // Historical replays are audits, not decisions: the live burn-down
    // below is still the *first* SPRT look.
    let (status, body) = get(addr, "/v1/burndown");
    assert_eq!(status, 200, "{body}");
    let report: FleetReport = serde_json::from_str(&body).unwrap();
    assert!(report.goals.iter().all(|g| g.looks == 1), "{body}");

    // Malformed cuts are client errors, not replays.
    assert_eq!(get(addr, "/v1/burndown?as_of=yesterday").0, 400);
    handle.stop().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
