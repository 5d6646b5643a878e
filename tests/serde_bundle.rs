//! Cross-crate serde integration: a complete safety-case bundle survives a
//! JSON round trip bit-for-bit. In practice this is the artefact a safety
//! organisation would check into its evidence store.

use serde::{Deserialize, Serialize};

use qrn::core::allocation::Allocation;
use qrn::core::classification::IncidentClassification;
use qrn::core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn::core::norm::QuantitativeRiskNorm;
use qrn::core::safety_goal::{derive_with_certificate, CompletenessCertificate, SafetyGoal};
use qrn::core::verification::{verify, VerificationReport};
use qrn::odd::attribute::{Constraint, Dimension};
use qrn::odd::spec::OddSpec;
use qrn::sim::monte_carlo::Campaign;
use qrn::sim::policy::CautiousPolicy;
use qrn::sim::scenario::urban_scenario;
use qrn::stats::evidence::EvidenceLedger;
use qrn::units::Hours;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct SafetyCaseBundle {
    odd: OddSpec,
    norm: QuantitativeRiskNorm,
    classification: IncidentClassification,
    allocation: Allocation,
    goals: Vec<SafetyGoal>,
    certificate: CompletenessCertificate,
    evidence: EvidenceLedger,
    report: VerificationReport,
}

fn bundle() -> SafetyCaseBundle {
    let odd = OddSpec::builder()
        .constrain(
            Dimension::new("zone"),
            Constraint::any_of(["residential", "school", "arterial"]),
        )
        .constrain(
            Dimension::new("speed_limit_kmh"),
            Constraint::range(0.0, 60.0).unwrap(),
        )
        .build();
    let norm = paper_norm().unwrap();
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    let (goals, certificate) = derive_with_certificate(&classification, &allocation).unwrap();
    let result = Campaign::new(urban_scenario().unwrap(), CautiousPolicy::default())
        .hours(Hours::new(60.0).unwrap())
        .seed(3)
        .run()
        .unwrap();
    let evidence = result.evidence(&classification);
    let report = verify(&norm, &allocation, &evidence, 0.95).unwrap();
    SafetyCaseBundle {
        odd,
        norm,
        classification,
        allocation,
        goals,
        certificate,
        evidence,
        report,
    }
}

#[test]
fn bundle_round_trips_exactly() {
    let original = bundle();
    let json = serde_json::to_string_pretty(&original).unwrap();
    let back: SafetyCaseBundle = serde_json::from_str(&json).unwrap();
    assert_eq!(original, back);
}

#[test]
fn deserialized_bundle_is_still_checkable() {
    let original = bundle();
    let json = serde_json::to_string(&original).unwrap();
    let back: SafetyCaseBundle = serde_json::from_str(&json).unwrap();

    // Re-running the checks on the deserialized artefacts reproduces the
    // stored conclusions — the bundle is evidence, not just data.
    assert!(back.allocation.check(&back.norm).unwrap().is_fulfilled());
    assert!(back.certificate.holds());
    let recheck = verify(&back.norm, &back.allocation, &back.evidence, 0.95).unwrap();
    assert_eq!(recheck, back.report);
    let mece = back.classification.verify_mece();
    assert!(mece.is_mece());
}

#[test]
fn bundle_json_is_human_greppable() {
    let json = serde_json::to_string_pretty(&bundle()).unwrap();
    // The artefact should read like the safety case it encodes.
    for needle in ["vS3", "I2", "EgoVru", "confidence", "budget"] {
        assert!(json.contains(needle), "bundle JSON lacks {needle}");
    }
}
