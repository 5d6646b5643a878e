//! Byte pin on the full `/metrics` exposition of a two-item server with
//! design-time evidence and an evidence store, in both verdict modes.
//! Only the values that depend on the wall clock are masked: the uptime
//! gauge and the request-latency histogram samples. Every other byte —
//! family order, help text, labels and every gauge derived from the
//! burn-down — must match `tests/golden/`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use qrn::core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn::fleet::telemetry::{Scenario, TelemetryConfig};
use qrn::serve::{ServeConfig, Server};
use qrn::stats::evidence::EvidenceLedger;
use qrn::units::Hours;

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

fn get(addr: SocketAddr, target: &str) -> String {
    let (status, body) = request(addr, &format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n"));
    assert_eq!(status, 200, "GET {target}: {body}");
    body
}

fn post(addr: SocketAddr, target: &str, body: &str) {
    let (status, reply) = request(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 200, "POST {target}: {reply}");
}

/// A weighted design-time ledger with one named context, standing in for
/// a splitting campaign's evidence.
fn campaign_ledger() -> EvidenceLedger {
    let mut ledger = EvidenceLedger::new();
    ledger.add_exposure(None, 4096.0);
    ledger.add_exposure(Some("zone=urban"), 1024.0);
    for _ in 0..6 {
        ledger.add_incident(None, "I3", 0.125);
        ledger.add_incident(Some("zone=urban"), "I3", 0.125);
    }
    ledger.add_incident(None, "I1", 1.0);
    ledger
}

/// Replaces the sample value of wall-clock-dependent lines.
fn mask(body: &str) -> String {
    body.lines()
        .map(|line| {
            let timed = line.starts_with("qrn_server_uptime_seconds ")
                || line.starts_with("qrn_http_request_seconds_");
            match line.rsplit_once(' ') {
                Some((series, _)) if timed => format!("{series} <masked>\n"),
                _ => format!("{line}\n"),
            }
        })
        .collect()
}

/// Starts a two-item store-backed server, feeds both items a fixed
/// request sequence and returns the masked `/metrics` body.
fn scrape(sequential: bool) -> String {
    let dir = std::env::temp_dir().join(format!("qrn-golden-metrics-{sequential}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    let mut config = ServeConfig::new(
        paper_norm().unwrap(),
        classification.clone(),
        allocation.clone(),
    );
    config.add_item("depot", paper_norm().unwrap(), classification, allocation);
    config.push_evidence(campaign_ledger());
    config.port = 0;
    config.workers = 2;
    config.shards = 2;
    config.io_timeout = Duration::from_secs(5);
    config.store = Some(dir.join("store"));
    config.burndown.sequential = sequential;
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();

    let banded = TelemetryConfig::new(3)
        .hours(Hours::new(48.0).unwrap())
        .scenario(Scenario::Banded)
        .seed(11)
        .generate_jsonl()
        .unwrap();
    let urban = TelemetryConfig::new(2)
        .hours(Hours::new(32.0).unwrap())
        .seed(12)
        .generate_jsonl()
        .unwrap();
    post(addr, "/v1/ingest", &banded);
    post(addr, "/v1/depot/ingest", &urban);
    get(addr, "/v1/burndown");
    get(addr, "/v1/burndown?where=weather=fog");
    get(addr, "/v1/depot/burndown");
    let body = get(addr, "/metrics");
    handle.stop().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    mask(&body)
}

#[test]
fn metrics_exposition_is_pinned_in_legacy_mode() {
    assert_eq!(scrape(false), include_str!("golden/metrics_legacy.prom"));
}

#[test]
fn metrics_exposition_is_pinned_in_sequential_mode() {
    assert_eq!(scrape(true), include_str!("golden/metrics_sequential.prom"));
}
