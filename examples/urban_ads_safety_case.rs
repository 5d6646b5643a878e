//! A miniature end-to-end safety case for an urban ADS feature:
//! ODD → risk norm → MECE classification → allocation → safety goals →
//! simulated fleet campaign → statistical verdicts.
//!
//! The budgets here are calibrated to the *synthetic* world so the
//! statistics have something to bite on — the point is the pipeline, not
//! the absolute numbers (the paper's footnote 3 applies throughout).
//!
//! Run with: `cargo run --release --example urban_ads_safety_case`

use std::error::Error;

use qrn::core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn::core::safety_case::SafetyCase;
use qrn::core::safety_goal::derive_with_certificate;
use qrn::core::verification::{verify, Verdict};
use qrn::odd::attribute::{Constraint, Dimension};
use qrn::odd::context::{Context, Value};
use qrn::odd::monitor::OddMonitor;
use qrn::odd::spec::OddSpec;
use qrn::sim::monte_carlo::Campaign;
use qrn::sim::policy::CautiousPolicy;
use qrn::sim::scenario::urban_scenario;
use qrn::units::Hours;

fn main() -> Result<(), Box<dyn Error>> {
    // --- Problem domain: ODD, norm, classification, goals -------------
    let odd = OddSpec::builder()
        .constrain(
            Dimension::new("zone"),
            Constraint::any_of(["residential", "school", "arterial"]),
        )
        .build();
    println!("Feature ODD: {odd}\n");

    let norm = paper_norm()?;
    println!("{norm}");

    let classification = paper_classification()?;
    let allocation = paper_allocation(&classification)?;
    let eq1 = allocation.check(&norm)?;
    print!("{eq1}");
    assert!(eq1.is_fulfilled());

    let (goals, certificate) = derive_with_certificate(&classification, &allocation)?;
    println!("\n{certificate}");
    println!("{} safety goals; the Fig. 5 trio:", goals.len());
    for goal in &goals {
        if matches!(goal.id(), "SG-I1" | "SG-I2" | "SG-I3") {
            println!("  {goal}");
        }
    }

    // --- Solution domain: drive the feature, watch the ODD ------------
    let hours = Hours::new(2_000.0)?;
    let campaign = Campaign::new(urban_scenario()?, CautiousPolicy::default())
        .hours(hours)
        .seed(2024)
        .workers(8);
    let result = campaign.run()?;
    println!("\nCampaign: {result}");

    // Exposure only counts inside the ODD; every zone of the urban route
    // is inside, which the monitor confirms.
    let mut monitor = OddMonitor::new(odd);
    for zone in ["residential", "school", "arterial"] {
        let ctx = Context::builder()
            .set(Dimension::new("zone"), Value::category(zone))
            .build();
        monitor.observe(&ctx, Hours::new(1.0)?);
    }
    assert_eq!(monitor.exits(), 0);
    println!(
        "ODD monitor: {:.0}% of sampled contexts inside, {} exits",
        monitor.inside_fraction().unwrap_or(0.0) * 100.0,
        monitor.exits()
    );

    // --- Verification: measured rates against goals and norm ----------
    let evidence = result.evidence(&classification);
    println!(
        "\nClassified {} incidents ({} uneventful closest approaches) over {}",
        evidence.incident_observations(),
        evidence.unclassified().observations(),
        result.exposure()
    );
    let report = verify(&norm, &allocation, &evidence, 0.95)?;
    let count = |v: Verdict| report.goals.iter().filter(|g| g.verdict == v).count();
    println!(
        "Safety-goal verdicts at 95%: {} demonstrated, {} inconclusive, {} violated",
        count(Verdict::Demonstrated),
        count(Verdict::Inconclusive),
        count(Verdict::Violated),
    );
    for class in &report.classes {
        println!(
            "  {}: load ≤ {} vs budget {} -> {}",
            class.class, class.load_upper_bound, class.budget, class.verdict
        );
    }
    // --- The assembled argument ----------------------------------------
    let case = SafetyCase::assemble(
        "urban ADS feature",
        &norm,
        &classification,
        &allocation,
        &report,
    )?;
    println!("\nAssembled safety case ({} claims):", case.size());
    // Print the top two levels; the full tree lives in the JSON bundle.
    println!(
        "[{}] {} — {}",
        case.top.id, case.top.statement, case.top.status
    );
    for child in &case.top.children {
        println!("  [{}] {} — {}", child.id, child.statement, child.status);
    }

    println!(
        "\nThe synthetic world is deliberately challenge-dense, so severe
classes are typically *violated* here: the machinery detects it instead of
hiding it, which is the property a safety case needs. Scale the norm (or
tame the world) and the verdicts flip to demonstrated — see the
exp_eq1_montecarlo experiment for that calibration."
    );
    Ok(())
}
