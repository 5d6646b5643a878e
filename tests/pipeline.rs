//! End-to-end integration: ODD → norm → classification → allocation →
//! safety goals → simulation → statistical verdicts, across all crates.

use qrn::core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn::core::safety_goal::{derive_with_certificate, goal_for};
use qrn::core::verification::{verify, Verdict};
use qrn::sim::faults::{Degradation, FaultPlan};
use qrn::sim::monte_carlo::Campaign;
use qrn::sim::policy::{CautiousPolicy, ReactivePolicy};
use qrn::sim::scenario::{mixed_scenario, urban_scenario};
use qrn::stats::evidence::EvidenceLedger;
use qrn::units::{Hours, Probability};

#[test]
fn paper_pipeline_holds_together() {
    let norm = paper_norm().unwrap();
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();

    // Eq. (1) holds for the example allocation.
    let eq1 = allocation.check(&norm).unwrap();
    assert!(eq1.is_fulfilled());

    // One budgeted goal per MECE leaf, certificate holds.
    let (goals, certificate) = derive_with_certificate(&classification, &allocation).unwrap();
    assert!(certificate.holds());
    assert_eq!(goals.len(), classification.leaves().len());

    // The paper's named goal exists with the paper's wording.
    let sg_i2 = goal_for(&goals, &"I2".into()).unwrap();
    assert!(sg_i2.to_string().contains("Avoid collision Ego↔VRU"));
}

#[test]
fn simulated_fleet_feeds_verification() {
    let norm = paper_norm().unwrap();
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();

    let result = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
        .hours(Hours::new(200.0).unwrap())
        .seed(1)
        .run()
        .unwrap();
    let evidence = result.evidence(&classification);

    // Every raw record is either classified or a benign closest approach.
    assert_eq!(
        (evidence.incident_observations() + evidence.unclassified().observations()) as usize,
        result.records.len()
    );

    // Verification runs and produces a verdict for every goal and class.
    let report = verify(&norm, &allocation, &evidence, 0.95).unwrap();
    assert_eq!(report.goals.len(), classification.leaves().len());
    assert_eq!(report.classes.len(), norm.len());
}

#[test]
fn campaigns_are_reproducible_across_runs() {
    let run = || {
        Campaign::new(mixed_scenario().unwrap(), ReactivePolicy::default())
            .hours(Hours::new(80.0).unwrap())
            .seed(42)
            .workers(2)
            .run()
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b);
}

#[test]
fn fault_injection_worsens_measured_rates() {
    let classification = paper_classification().unwrap();
    let run = |faults: FaultPlan, seed: u64| {
        let result = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
            .hours(Hours::new(400.0).unwrap())
            .seed(seed)
            .faults(faults)
            .run()
            .unwrap();
        result.evidence(&classification)
    };
    let healthy = run(FaultPlan::none(), 5);
    let degraded = run(
        FaultPlan {
            brake: Some(Degradation {
                probability: Probability::new(0.5).unwrap(),
                factor: 0.3,
            }),
            sensor: Some(Degradation {
                probability: Probability::new(0.2).unwrap(),
                factor: 0.4,
            }),
        },
        5,
    );
    // Collisions in the severe VRU band go up under degradation.
    let severe = |e: &EvidenceLedger| e.count("I3").observations() + e.count("I4").observations();
    assert!(
        severe(&degraded) > severe(&healthy),
        "degraded {} vs healthy {}",
        severe(&degraded),
        severe(&healthy)
    );
}

#[test]
fn pooling_measurements_tightens_bounds() {
    let classification = paper_classification().unwrap();
    let run = |seed: u64| {
        Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
            .hours(Hours::new(100.0).unwrap())
            .seed(seed)
            .run()
            .unwrap()
            .evidence(&classification)
    };
    let a = run(10);
    let b = run(11);
    let pooled = a.clone().merged(&b);
    assert_eq!(pooled.exposure(), 200.0);
    // The pooled upper bound on a rare type is tighter than either part's.
    let bound = |e: &EvidenceLedger| e.rate("I4").upper_bound(0.95).unwrap();
    assert!(bound(&pooled) <= bound(&a));
    assert!(bound(&pooled) <= bound(&b));
}

#[test]
fn verdicts_move_in_the_right_direction_with_exposure() {
    let norm = paper_norm().unwrap();
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    // Zero incidents: with little exposure everything is inconclusive,
    // with astronomic exposure everything is demonstrated.
    let clean = |hours: f64| {
        let mut evidence = EvidenceLedger::new();
        evidence.add_exposure(None, hours);
        evidence
    };
    let (short, long) = (clean(1.0), clean(1e13));
    let short_report = verify(&norm, &allocation, &short, 0.95).unwrap();
    let long_report = verify(&norm, &allocation, &long, 0.95).unwrap();
    assert!(short_report
        .goals
        .iter()
        .all(|g| g.verdict == Verdict::Inconclusive));
    assert!(long_report.all_demonstrated());
}
