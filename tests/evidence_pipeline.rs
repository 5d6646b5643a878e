//! End-to-end evidence-ledger pipeline: campaigns and splitting runs emit
//! ledgers, fleet ingest builds a ledger-backed state, and the combined
//! burn-down consumes the merged whole — with golden guards on the
//! checked-in experiment artefacts.

use qrn::core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn::core::verification::verify;
use qrn::fleet::burndown::{
    burn_down_evidence_filtered, BurnDownConfig, ContextFilter, REPORT_SCHEMA_VERSION,
};
use qrn::fleet::ingest::ingest_str;
use qrn::fleet::telemetry::{Policy, Scenario, TelemetryConfig};
use qrn::sim::monte_carlo::Campaign;
use qrn::sim::policy::{CautiousPolicy, ReactivePolicy};
use qrn::sim::scenario::urban_scenario;
use qrn::sim::SplittingConfig;
use qrn::stats::evidence::EvidenceLedger;
use qrn::stats::poisson::PoissonRate;
use qrn::units::Hours;

/// The combined design-time + operational burn-down artefact is a pure
/// function of the evidence: worker counts, shard counts and merge order
/// must never change a byte of it.
#[test]
fn combined_burn_down_artefact_is_byte_stable() {
    let norm = paper_norm().unwrap();
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    let log = TelemetryConfig::new(4)
        .scenario(Scenario::Urban)
        .policy(Policy::Cautious)
        .hours(Hours::new(60.0).unwrap())
        .seed(5)
        .generate_jsonl()
        .unwrap();

    let build = |workers: usize, shards: usize, flip_merge: bool| {
        let splitting = Campaign::new(urban_scenario().unwrap(), ReactivePolicy::default())
            .hours(Hours::new(30.0).unwrap())
            .seed(9)
            .workers(workers)
            .run_splitting(&classification, &SplittingConfig::geometric(4))
            .unwrap();
        let state = ingest_str(&log, &classification, shards).unwrap();
        let mut combined = if flip_merge {
            let mut c = splitting.evidence.clone();
            c.merge(state.evidence());
            c
        } else {
            let mut c = state.evidence().clone();
            c.merge(&splitting.evidence);
            c
        };
        // Merging an empty ledger is the identity.
        combined.merge(&EvidenceLedger::new());
        let config = BurnDownConfig {
            by_zone: true,
            ..BurnDownConfig::default()
        };
        let report = burn_down_evidence_filtered(
            &norm,
            &allocation,
            &combined,
            &config,
            &ContextFilter::all(),
        )
        .unwrap();
        serde_json::to_string_pretty(&report).unwrap()
    };

    let reference = build(1, 1, false);
    assert_eq!(
        reference,
        build(4, 7, false),
        "workers/shards changed bytes"
    );
    assert_eq!(reference, build(2, 3, true), "merge order changed bytes");

    let report: qrn::fleet::burndown::FleetReport = serde_json::from_str(&reference).unwrap();
    assert_eq!(report.schema_version, REPORT_SCHEMA_VERSION);
    assert!((report.exposure_hours - 90.0).abs() < 1e-6);
    assert!(!report.zones.is_empty(), "splitting zones must survive");
}

/// The unit-weight ledger path is exact: verifying a crude campaign via
/// its evidence ledger must reproduce the exact Garwood bound of a plain
/// tally of the classified records, goal by goal.
#[test]
fn crude_ledger_verification_matches_record_tally() {
    let norm = paper_norm().unwrap();
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    let result = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
        .hours(Hours::new(150.0).unwrap())
        .seed(3)
        .run()
        .unwrap();
    let ledger = result.evidence(&classification);
    let via_ledger = verify(&norm, &allocation, &ledger, 0.95).unwrap();
    assert_eq!(via_ledger.goals.len(), allocation.budgets().count());
    for goal in &via_ledger.goals {
        let tally = result
            .records
            .iter()
            .filter(|r| classification.classify(r).map(|t| t.id()) == Some(&goal.incident))
            .count() as u64;
        let direct = PoissonRate::new(tally, result.exposure());
        assert_eq!(goal.observed, direct, "{}", goal.incident);
        assert_eq!(goal.upper_bound, direct.upper_bound(0.95).unwrap());
        assert!(
            goal.weighted.is_none(),
            "unit-weight evidence must stay exact"
        );
    }
}

/// Golden guard: the checked-in experiment artefacts keep their schema.
/// CI regenerates them and fails on any byte drift; this test documents
/// (and locally enforces) the key layout a reader of `results/` relies on.
#[test]
fn checked_in_experiment_artefacts_keep_their_schema() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |name: &str| -> String {
        std::fs::read_to_string(root.join("results").join(name)).unwrap()
    };

    let eq1 = read("exp_eq1_montecarlo.json");
    for key in [
        "allocation_margin",
        "budget_margin",
        "eq1_fulfilled",
        "fault_injected",
        "hours",
        "verification",
    ] {
        assert!(
            eq1.contains(&format!("\"{key}\"")),
            "exp_eq1_montecarlo.json lost {key}"
        );
    }

    let rare = read("exp_rare_event.json");
    for key in [
        "cross_check",
        "crude",
        "quick",
        "rare_leaf",
        "splitting",
        "variance_reduction",
        "world",
    ] {
        assert!(
            rare.contains(&format!("\"{key}\"")),
            "exp_rare_event.json lost {key}"
        );
    }
    // The checked-in artefact is the full-budget run, not the CI smoke.
    assert!(rare.contains("\"quick\": false"));
}
