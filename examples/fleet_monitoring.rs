//! Fleet monitoring: generate synthetic telemetry, ingest it with the
//! sharded streaming engine, and burn down the risk budgets against the
//! paper's norm and allocation — the operational half of the QRN loop,
//! where design-time budgets meet (simulated) field evidence.
//!
//! Run with: `cargo run --example fleet_monitoring`

use std::error::Error;

use qrn::core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn::core::incident::IncidentRecord;
use qrn::core::object::{Involvement, ObjectType};
use qrn::fleet::burndown::{burn_down_filtered, AlertLevel, BurnDownConfig, ContextFilter};
use qrn::fleet::event::to_jsonl;
use qrn::fleet::ingest::ingest_str;
use qrn::fleet::telemetry::TelemetryConfig;
use qrn::stats::sequential::SprtDecision;
use qrn::units::{Hours, Speed};

fn main() -> Result<(), Box<dyn Error>> {
    // 1. The design-time artefacts: acceptable risk, MECE incident types,
    //    budget allocation (Figs. 2, 4 and 5 of the paper).
    let norm = paper_norm()?;
    let classification = paper_classification()?;
    let allocation = paper_allocation(&classification)?;

    // 2. A synthetic fleet: eight vehicles, 160 h of urban driving — plus
    //    a dozen deliberately injected severe VRU collisions, the kind of
    //    systematic fault monitoring exists to catch.
    let crash = IncidentRecord::collision(
        Involvement::ego_with(ObjectType::Vru),
        Speed::from_kmh(45.0)?,
    );
    let events = TelemetryConfig::new(8)
        .hours(Hours::new(160.0)?)
        .seed(42)
        .inject(crash, 12)
        .generate()?;
    let log = to_jsonl(&events);
    println!(
        "telemetry: {} events, {} log bytes",
        events.len(),
        log.len()
    );

    // 3. Sharded streaming ingest. The shard count is a throughput knob
    //    only: four shards and one shard produce byte-identical state.
    let state = ingest_str(&log, &classification, 4)?;
    let single = ingest_str(&log, &classification, 1)?;
    assert_eq!(state, single);
    let incidents: u64 = state.counts().map(|(_, n)| n).sum();
    println!(
        "ingested {:.1} h from {} vehicles: {} incidents, {} benign observations",
        state.exposure().value(),
        state.vehicle_count(),
        incidents,
        state.unclassified(),
    );

    // 4. Burn down the budgets: Wald's SPRT plus exact Poisson bounds per
    //    incident type, conservative share-weighted propagation per
    //    consequence class.
    let report = burn_down_filtered(
        &norm,
        &allocation,
        &state,
        &BurnDownConfig::default(),
        &ContextFilter::all(),
    )?;
    print!("{report}");

    // The injected collisions land in I3 (severe VRU collision), whose
    // tiny budget cannot survive 12 events in 160 h: the sequential test
    // concludes against the null and the row comes out Burned.
    let i3 = report.goal(&"I3".into()).expect("I3 is allocated");
    assert_eq!(i3.sprt, SprtDecision::AcceptAlternative);
    assert_eq!(i3.alert, AlertLevel::Burned);
    assert!(report.any_burned());
    println!("\nverdict: at least one budget is burned -> investigate before further deployment");
    Ok(())
}
