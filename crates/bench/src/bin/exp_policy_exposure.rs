//! CLM2 — Makes the exposure arguments of Sec. II-B.2/3 executable: the
//! same world produces *different exposure* under different tactical
//! policies, so exposure cannot be a policy-independent HARA input — while
//! the QRN safety goals and the verification procedure are identical for
//! both policies.
//!
//! The yardstick is the paper's own: how often does driving demand braking
//! "significantly harder than 4 m/s²"?

use serde_json::json;

use qrn_bench::report::save_json;
use qrn_core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn_core::incident::IncidentKind;
use qrn_core::verification::{verify, Verdict};
use qrn_sim::monte_carlo::{Campaign, CampaignResult};
use qrn_sim::policy::{CautiousPolicy, ReactivePolicy, TacticalPolicy};
use qrn_sim::scenario::mixed_scenario;
use qrn_stats::poisson::{rate_equality_p_value, PoissonRate};
use qrn_units::Hours;

const HOURS: f64 = 2_000.0;

fn run<P: TacticalPolicy>(policy: P) -> CampaignResult {
    Campaign::new(mixed_scenario().expect("scenario builds"), policy)
        .hours(Hours::new(HOURS).expect("positive"))
        .seed(7)
        .workers(8)
        .run()
        .expect("campaign runs")
}

fn collisions(result: &CampaignResult) -> usize {
    result
        .records
        .iter()
        .filter(|r| matches!(r.kind, IncidentKind::Collision { .. }))
        .count()
}

fn main() {
    println!("CLM2: exposure is policy-dependent ({HOURS} h, mixed route, common seeds)\n");
    let cautious = run(CautiousPolicy::default());
    let reactive = run(ReactivePolicy::default());

    let classification = paper_classification().expect("classification builds");
    let norm = paper_norm().expect("norm builds");
    let allocation = paper_allocation(&classification).expect("allocation builds");

    println!("metric                         | cautious   | reactive");
    let metric = |name: &str, c: f64, r: f64| {
        println!("{name:<30} | {c:<10.4} | {r:<10.4}");
    };
    metric(
        "mean cruise speed (km/h)",
        cautious.mean_cruise_kmh,
        reactive.mean_cruise_kmh,
    );
    metric(
        "encounters per hour",
        cautious
            .encounter_rate()
            .expect("exposure > 0")
            .as_per_hour(),
        reactive
            .encounter_rate()
            .expect("exposure > 0")
            .as_per_hour(),
    );
    metric(
        "hard-brake demand (>4 m/s²) /h",
        cautious
            .hard_brake_rate()
            .expect("exposure > 0")
            .as_per_hour(),
        reactive
            .hard_brake_rate()
            .expect("exposure > 0")
            .as_per_hour(),
    );
    metric(
        "collisions per 1000 h",
        collisions(&cautious) as f64 / HOURS * 1000.0,
        collisions(&reactive) as f64 / HOURS * 1000.0,
    );

    // The claims, pinned: the proactive policy needs hard braking less
    // often and collides at most as often.
    assert!(
        cautious.hard_brake_rate().unwrap() < reactive.hard_brake_rate().unwrap(),
        "the cautious policy must demand hard braking less often"
    );
    assert!(collisions(&cautious) <= collisions(&reactive));

    // And the difference is statistically established, not a seed
    // artefact: exact conditional test on the hard-brake counts…
    let obs = |r: &CampaignResult| PoissonRate::new(r.hard_brake_demands, r.exposure());
    let p = rate_equality_p_value(obs(&cautious), obs(&reactive)).expect("counts present");
    println!("\nhard-brake rate difference: exact p-value {p:.2e}");
    assert!(p < 1e-6, "difference must be significant, p = {p}");

    // …and stable across independent replications (error bars).
    fn replicate<P: TacticalPolicy>(policy: P) -> qrn_stats::summary::OnlineStats {
        Campaign::new(mixed_scenario().expect("scenario builds"), policy)
            .hours(Hours::new(400.0).expect("positive"))
            .seed(100)
            .workers(8)
            .run_replications(5)
            .expect("replications run")
            .hard_brake_rate
    }
    let c_stats = replicate(CautiousPolicy::default());
    let r_stats = replicate(ReactivePolicy::default());
    println!(
        "replications (5 x 400 h): cautious {:.3} ± {:.3}/h, reactive {:.3} ± {:.3}/h",
        c_stats.mean(),
        c_stats.std_dev(),
        r_stats.mean(),
        r_stats.std_dev(),
    );
    assert!(
        c_stats.mean() + 2.0 * c_stats.std_dev() < r_stats.mean() - 2.0 * r_stats.std_dev(),
        "the policy gap must exceed the replication noise"
    );

    // Same QRN, same SGs, same verification procedure — applied to both.
    println!("\nIdentical QRN verification applied to both policies (95%):");
    let mut verdicts = Vec::new();
    for result in [&cautious, &reactive] {
        let evidence = result.evidence(&classification);
        let report = verify(&norm, &allocation, &evidence, 0.95).expect("verification runs");
        let count = |v: Verdict| report.goals.iter().filter(|g| g.verdict == v).count();
        println!(
            "  {:<9}: {} demonstrated, {} inconclusive, {} violated (of {} goals)",
            result.policy_name,
            count(Verdict::Demonstrated),
            count(Verdict::Inconclusive),
            count(Verdict::Violated),
            report.goals.len(),
        );
        verdicts.push(json!({
            "policy": result.policy_name,
            "demonstrated": count(Verdict::Demonstrated),
            "inconclusive": count(Verdict::Inconclusive),
            "violated": count(Verdict::Violated),
        }));
    }
    println!(
        "\nThe safety goals did not change between policies — only the measured\n\
         exposure and rates did. That is the decoupling the QRN buys (Sec. III)."
    );

    save_json(
        "exp_policy_exposure",
        &json!({
            "hours": HOURS,
            "cautious": {
                "mean_cruise_kmh": cautious.mean_cruise_kmh,
                "encounter_rate": cautious.encounter_rate().unwrap().as_per_hour(),
                "hard_brake_rate": cautious.hard_brake_rate().unwrap().as_per_hour(),
                "collisions": collisions(&cautious),
            },
            "reactive": {
                "mean_cruise_kmh": reactive.mean_cruise_kmh,
                "encounter_rate": reactive.encounter_rate().unwrap().as_per_hour(),
                "hard_brake_rate": reactive.hard_brake_rate().unwrap().as_per_hour(),
                "collisions": collisions(&reactive),
            },
            "verdicts": verdicts,
        }),
    );
}
