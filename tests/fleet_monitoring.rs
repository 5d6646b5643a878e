//! End-to-end fleet monitoring through the facade: synthetic telemetry →
//! JSONL → sharded ingest → burn-down report, with the two contract
//! properties the subsystem exists for:
//!
//! 1. **Determinism**: the serialised [`FleetReport`] is byte-identical
//!    for any ingest shard count (1 vs 8), because the block partition of
//!    the log depends only on the log, never on scheduling.
//! 2. **Alerting**: a deliberately over-budget incident type comes out
//!    `Burned` with the sequential test at `AcceptAlternative`.

use qrn::core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn::core::incident::IncidentRecord;
use qrn::core::object::{Involvement, ObjectType};
use qrn::fleet::burndown::{burn_down_filtered, AlertLevel, BurnDownConfig, ContextFilter};
use qrn::fleet::event::{parse_jsonl, to_jsonl};
use qrn::fleet::ingest::ingest_str;
use qrn::fleet::telemetry::TelemetryConfig;
use qrn::stats::sequential::SprtDecision;
use qrn::units::{Hours, Speed};

fn telemetry_log(hours: f64, injected_crashes: u64) -> String {
    let crash = IncidentRecord::collision(
        Involvement::ego_with(ObjectType::Vru),
        Speed::from_kmh(45.0).unwrap(),
    );
    let events = TelemetryConfig::new(6)
        .hours(Hours::new(hours).unwrap())
        .seed(1234)
        .inject(crash, injected_crashes)
        .generate()
        .unwrap();
    to_jsonl(&events)
}

#[test]
fn report_bytes_identical_for_one_and_eight_shards() {
    let log = telemetry_log(90.0, 5);
    let norm = paper_norm().unwrap();
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();

    let mut jsons = Vec::new();
    for shards in [1usize, 8] {
        let state = ingest_str(&log, &classification, shards).unwrap();
        let report = burn_down_filtered(
            &norm,
            &allocation,
            &state,
            &BurnDownConfig::default(),
            &ContextFilter::all(),
        )
        .unwrap();
        jsons.push(report.to_canonical_json());
    }
    assert_eq!(jsons[0], jsons[1]);
}

#[test]
fn over_budget_incident_type_is_burned_with_accept_alternative() {
    // 15 injected severe VRU collisions in 120 h against I3's ~1e-8/h
    // budget: the SPRT must conclude for the alternative and the row must
    // escalate to Burned.
    let log = telemetry_log(120.0, 15);
    let norm = paper_norm().unwrap();
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    let state = ingest_str(&log, &classification, 4).unwrap();
    let report = burn_down_filtered(
        &norm,
        &allocation,
        &state,
        &BurnDownConfig::default(),
        &ContextFilter::all(),
    )
    .unwrap();

    let i3 = report.goal(&"I3".into()).expect("I3 is allocated");
    assert_eq!(i3.sprt, SprtDecision::AcceptAlternative);
    assert_eq!(i3.alert, AlertLevel::Burned);
    assert!(i3.observed.count >= 15);
    assert!(report.any_burned());
    // The burn propagates to the consequence classes I3 feeds.
    assert_eq!(
        report.class(&"vS3".into()).unwrap().alert,
        AlertLevel::Burned
    );
}

#[test]
fn tolerant_parser_survives_a_corrupted_log_segment() {
    let clean = telemetry_log(50.0, 0);
    let clean_events = parse_jsonl(&clean).0.len();
    // Corrupt the stream the ways real pipelines do: truncation garbage,
    // a future schema version, and an unknown event kind.
    let dirty = format!(
        "{clean}{{\"v\":1,\"event\":\"exposure\",\"vehicle\"\n\
         {{\"v\":99,\"event\":\"exposure\",\"vehicle\":\"V9\",\"hours\":1.0}}\n\
         {{\"v\":1,\"event\":\"teleport\",\"vehicle\":\"V9\"}}\n"
    );
    let classification = paper_classification().unwrap();
    let state = ingest_str(&dirty, &classification, 3).unwrap();
    assert_eq!(state.events(), clean_events as u64);
    assert_eq!(state.skipped().total(), 3);
    // The corrupted tail never changes the monitored quantities.
    let clean_state = ingest_str(&clean, &classification, 3).unwrap();
    assert_eq!(state.exposure(), clean_state.exposure());
    assert_eq!(
        state.counts().collect::<Vec<_>>(),
        clean_state.counts().collect::<Vec<_>>()
    );
}

/// Scale demonstration: a hundred-thousand-hour fleet streamed through
/// generation, ingest and burn-down. Run explicitly (release mode
/// recommended): `cargo test --release --test fleet_monitoring -- --ignored`.
#[test]
#[ignore = "long-running scale demonstration"]
fn hundred_thousand_hour_fleet_burns_down() {
    let log = telemetry_log(100_000.0, 50);
    let norm = paper_norm().unwrap();
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    let state = ingest_str(&log, &classification, 8).unwrap();
    assert!((state.exposure().value() - 100_000.0).abs() < 1e-6 * 100_000.0);
    let report = burn_down_filtered(
        &norm,
        &allocation,
        &state,
        &BurnDownConfig::default(),
        &ContextFilter::all(),
    )
    .unwrap();
    assert_eq!(
        report.goal(&"I3".into()).unwrap().sprt,
        SprtDecision::AcceptAlternative
    );
    assert!(report.any_burned());
}
