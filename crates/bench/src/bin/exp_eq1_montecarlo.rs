//! EQ1 — Validates the fulfilment inequality (Eq. 1) end-to-end with
//! Monte Carlo:
//!
//! 1. a **calibration** fleet campaign measures incident-type rates and
//!    consequence shares in the synthetic world;
//! 2. a QRN is **derived** from those measurements (budgets = measured ×
//!    margin, monotonicity enforced), together with a share matrix and an
//!    allocation, and Eq. (1) is checked analytically;
//! 3. an independent **verification** campaign (fresh seeds) is verified
//!    against the derived norm with exact Poisson bounds — the verdicts
//!    must not report a violation;
//! 4. a **fault-injected** campaign (degraded brakes) must flip verdicts —
//!    the machinery detects the regression.

use std::collections::BTreeMap;

use serde_json::json;

use qrn_bench::report::save_json;
use qrn_core::allocation::{Allocation, ShareMatrix};
use qrn_core::consequence::{ConsequenceClass, ConsequenceClassId, ConsequenceDomain};
use qrn_core::examples::paper_classification;
use qrn_core::incident::IncidentTypeId;
use qrn_core::norm::QuantitativeRiskNorm;
use qrn_core::verification::{verify, Verdict, VerificationReport};
use qrn_sim::monte_carlo::{Campaign, CampaignResult};
use qrn_sim::policy::CautiousPolicy;
use qrn_sim::scenario::urban_scenario;
use qrn_sim::severity::OutcomeModel;
use qrn_stats::rng::seeded;
use qrn_units::{Frequency, Hours, Probability};

const HOURS: f64 = 4_000.0;
const BUDGET_MARGIN: f64 = 2.0;
const ALLOCATION_MARGIN: f64 = 1.6;

fn campaign(seed: u64) -> CampaignResult {
    Campaign::new(
        urban_scenario().expect("scenario builds"),
        CautiousPolicy::default(),
    )
    .hours(Hours::new(HOURS).expect("positive"))
    .seed(seed)
    .workers(8)
    .run()
    .expect("campaign runs")
}

fn verdict_counts(report: &VerificationReport) -> (usize, usize, usize) {
    let count = |v: Verdict| {
        report.goals.iter().filter(|g| g.verdict == v).count()
            + report.classes.iter().filter(|c| c.verdict == v).count()
    };
    (
        count(Verdict::Demonstrated),
        count(Verdict::Inconclusive),
        count(Verdict::Violated),
    )
}

fn main() {
    let classification = paper_classification().expect("classification builds");
    let outcome_model = OutcomeModel::new();
    let mut rng = seeded(99);

    // ---- 1. Calibration ------------------------------------------------
    println!("EQ1: calibration campaign ({HOURS} h, cautious, urban)…");
    let calibration = campaign(1);
    let evidence = calibration.evidence(&classification);
    let exposure = calibration.exposure();

    // Per-type rates and per-(type, class) outcome counts.
    let mut class_counts: BTreeMap<IncidentTypeId, BTreeMap<ConsequenceClassId, u64>> =
        BTreeMap::new();
    let mut class_totals: BTreeMap<ConsequenceClassId, u64> = BTreeMap::new();
    for record in &calibration.records {
        let Some(leaf) = classification.classify(record) else {
            continue;
        };
        if let Some(class) = outcome_model.sample(record, &mut rng) {
            *class_counts
                .entry(leaf.id().clone())
                .or_default()
                .entry(class.clone())
                .or_insert(0) += 1;
            *class_totals.entry(class).or_insert(0) += 1;
        }
    }

    // ---- 2. Derive the QRN ---------------------------------------------
    // Class budgets: measured class rate x margin, monotone non-increasing
    // with severity (walk from the most severe class down, taking maxima).
    let class_order = ["vQ1", "vQ2", "vQ3", "vS1", "vS2", "vS3"];
    let descriptions = [
        "perceived safety",
        "forced emergency manoeuvre",
        "material damage",
        "light to moderate injuries",
        "severe injuries",
        "life-threatening or fatal injuries",
    ];
    let mut budgets = [0.0f64; 6];
    for (i, id) in class_order.iter().enumerate().rev() {
        let measured_rate = class_totals
            .get(&ConsequenceClassId::new(*id))
            .map(|&n| n as f64 / exposure.value())
            .unwrap_or(0.0);
        let floor = 6.0 / exposure.value(); // demonstrable with zero events
        budgets[i] = (measured_rate * BUDGET_MARGIN).max(floor);
        if i + 1 < 6 {
            budgets[i] = budgets[i].max(budgets[i + 1]);
        }
    }
    let mut norm_builder = QuantitativeRiskNorm::builder();
    for (i, id) in class_order.iter().enumerate() {
        let domain = if id.starts_with("vQ") {
            ConsequenceDomain::Quality
        } else {
            ConsequenceDomain::Safety
        };
        norm_builder = norm_builder.class(
            ConsequenceClass::new(*id, domain, i as u8, descriptions[i]),
            Frequency::per_hour(budgets[i]).expect("finite"),
        );
    }
    let norm = norm_builder.build().expect("derived norm is monotone");
    println!("\nDerived norm (budgets = measured × {BUDGET_MARGIN}, monotone):");
    print!("{norm}");

    // Shares: empirical proportions per incident type.
    let mut share_builder = ShareMatrix::builder();
    for (incident, per_class) in &class_counts {
        let n_k = evidence.count(incident.as_str()).observations().max(1);
        for (class, n_kj) in per_class {
            let p = (*n_kj as f64 / n_k as f64).min(1.0);
            share_builder = share_builder.share(
                incident.clone(),
                class.clone(),
                Probability::new(p).expect("proportion"),
            );
        }
    }
    let shares = share_builder.build().expect("rows sum to at most 1");

    // Incident budgets: measured rate x margin, floored for rare types.
    let floor = 6.0 / exposure.value();
    let budgets: BTreeMap<IncidentTypeId, Frequency> = classification
        .leaves()
        .iter()
        .map(|leaf| {
            let rate = evidence.count(leaf.id().as_str()).observations() as f64 / exposure.value();
            let budget = (rate * ALLOCATION_MARGIN).max(floor);
            (
                leaf.id().clone(),
                Frequency::per_hour(budget).expect("finite"),
            )
        })
        .collect();
    let allocation = Allocation::new(budgets, shares).expect("budgets cover shares");

    // Eq. (1) analytically.
    let eq1 = allocation.check(&norm).expect("classes in norm");
    print!("\n{eq1}");
    assert!(
        eq1.is_fulfilled(),
        "derived allocation must satisfy Eq. (1)"
    );

    // ---- 3. Independent verification ------------------------------------
    // The verification campaigns only need classified counts, so they run
    // through the streaming accumulator: no per-record vectors, and the
    // counts are identical to classifying a recorded run after the fact.
    println!("\nVerification campaign (fresh seed)…");
    let verification = Campaign::new(
        urban_scenario().expect("scenario builds"),
        CautiousPolicy::default(),
    )
    .hours(Hours::new(HOURS).expect("positive"))
    .seed(2)
    .workers(8)
    .run_counting(&classification)
    .expect("campaign runs");
    if let Some(throughput) = &verification.throughput {
        println!("  {throughput}");
    }
    let report =
        verify(&norm, &allocation, &verification.evidence, 0.90).expect("verification runs");
    let (demonstrated, inconclusive, violated) = verdict_counts(&report);
    println!(
        "verdicts at 90%: {demonstrated} demonstrated, {inconclusive} inconclusive, {violated} violated"
    );
    assert_eq!(
        violated, 0,
        "an independent campaign of the same system must not violate the derived norm"
    );

    // ---- 4. Fault injection ----------------------------------------------
    println!("\nFault-injected campaign (brakes degraded to 40% in 30% of encounters)…");
    let degraded = Campaign::new(
        urban_scenario().expect("scenario builds"),
        CautiousPolicy::default(),
    )
    .hours(Hours::new(HOURS).expect("positive"))
    .seed(3)
    .workers(8)
    .faults(qrn_sim::faults::FaultPlan {
        brake: Some(qrn_sim::faults::Degradation {
            probability: Probability::new(0.3).expect("probability"),
            factor: 0.4,
        }),
        sensor: None,
    })
    .run_counting(&classification)
    .expect("campaign runs");
    if let Some(throughput) = &degraded.throughput {
        println!("  {throughput}");
    }
    let fault_report =
        verify(&norm, &allocation, &degraded.evidence, 0.90).expect("verification runs");
    let (f_dem, f_inc, f_vio) = verdict_counts(&fault_report);
    println!("verdicts at 90%: {f_dem} demonstrated, {f_inc} inconclusive, {f_vio} violated");
    assert!(
        f_vio > 0,
        "degraded brakes must be detected as a statistically established violation"
    );

    // Wall-clock throughput is printed above but deliberately NOT saved:
    // the artefact must be bit-reproducible from (config, policy, seed,
    // hours) alone, and machine-dependent timings would defeat that.
    save_json(
        "exp_eq1_montecarlo",
        &json!({
            "hours": HOURS,
            "budget_margin": BUDGET_MARGIN,
            "allocation_margin": ALLOCATION_MARGIN,
            "eq1_fulfilled": eq1.is_fulfilled(),
            "verification": {
                "demonstrated": demonstrated,
                "inconclusive": inconclusive,
                "violated": violated,
            },
            "fault_injected": {
                "demonstrated": f_dem,
                "inconclusive": f_inc,
                "violated": f_vio,
            },
        }),
    );
}
