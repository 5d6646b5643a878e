//! RARE — Demonstrates the multilevel-splitting engine on a genuinely
//! rare incident type, head-to-head against crude Monte Carlo at matched
//! compute.
//!
//! The world is a single 50 km/h corridor with pedestrian crossings at
//! 2/h and a deliberately weak perception stack (60 m range, 32% per-scan
//! miss at 10 Hz). Every crossing appears well outside the ~16 m
//! stop-from-50 envelope, so a collision requires missing **every** scan
//! for roughly 1.5 s while the pedestrian happens not to clear — a
//! ~1e-8..1e-6 per-hour event. A crude campaign of several hundred
//! thousand hours typically observes zero such events; the splitting
//! campaign estimates the rate with many effective events from a fraction
//! of the compute.
//!
//! Two legs:
//!
//! 1. **Cross-check** (inflated rate): gaps straddle the stop envelope so
//!    the severe VRU band `I3` is common enough for both estimators —
//!    their rates must agree. The `qrn-sim` proptests verify unbiasedness
//!    statistically; this leg pins the exact artefact configuration.
//! 2. **Rare**: gaps start at 35 m and the ladder is placed from the
//!    kinematics — the danger ratio r = v²/(2·a·gap) crossed at gaps of
//!    33 m down to 13.5 m, about two missed scans apart, so each stage's
//!    continuation effort balances the per-stage survival odds. The
//!    coarse default geometric ladder would go extinct between levels
//!    here, which is why [`SplittingConfig::new`] accepts bespoke rungs.
//!
//! Matched compute uses the deterministic `encounter_seconds` proxy both
//! engines report (integrated 10 ms-step simulation time), not wall
//! clock, so the artefact is bit-reproducible:
//!
//! ```text
//! VR_stat    = Σw / Σw²                       (crude variance / splitting
//!                                              variance at equal hours)
//! cost_ratio = (S_split/T_split) / (S_crude/T_crude)
//! VR_matched = VR_stat / cost_ratio           (at equal encounter-seconds)
//! ```
//!
//! Set `QRN_RARE_QUICK=1` to shrink every campaign ~100× for CI smoke
//! runs; the quick artefact keeps the same shape but skips the headline
//! assertions (the rare-rate estimate needs the full budget).

use serde_json::json;

use qrn_bench::report::save_json;
use qrn_core::examples::paper_classification;
use qrn_core::incident::IncidentTypeId;
use qrn_core::object::ObjectType;
use qrn_odd::attribute::Dimension;
use qrn_odd::context::{Context, Value};
use qrn_odd::exposure::{ExposureModel, SituationalFactor};
use qrn_sim::monte_carlo::Campaign;
use qrn_sim::policy::ReactivePolicy;
use qrn_sim::scenario::{ChallengeTemplate, ObjectMotion, WorldConfig, ZoneSpec};
use qrn_sim::{PerceptionParams, SplittingConfig};
use qrn_units::{Frequency, Hours, Meters, Probability, Speed, UnitError};

/// Crude baseline exposure for the rare leg, hours.
const CRUDE_HOURS: f64 = 300_000.0;
/// Splitting exposure for the rare leg, hours (the cost gap is folded
/// into the matched-compute factor, so the budgets need not be equal).
const SPLIT_HOURS: f64 = 40_000.0;
/// Cross-check leg budgets, hours.
const CHECK_CRUDE_HOURS: f64 = 40_000.0;
const CHECK_SPLIT_HOURS: f64 = 4_000.0;
/// Per-scan miss probability of the degraded perception stack.
const MISS_PROBABILITY: f64 = 0.32;
/// Continuation budget per splitting stage.
const EFFORT: usize = 10;
/// Gaps (m) at which the rare-leg ladder rungs sit: ~2 missed scans
/// apart at 50 km/h, spanning entry (35 m) to past the stop envelope. The first rung sits
/// just above the worst-case initial danger ratio, so nearly every
/// undetected approach is inside the ladder from its first missed scans.
const LADDER_GAPS_M: [f64; 12] = [
    34.5, 33.0, 31.0, 29.0, 27.0, 25.0, 23.0, 21.0, 19.0, 17.0, 15.0, 13.5,
];
/// The rare leaf the experiment is about: VRU collision at 10–70 km/h.
const RARE_LEAF: &str = "I3";

/// One corridor, pedestrian crossings only: every encounter exercises
/// the detection-or-collide mechanics the splitting ladder accelerates.
fn corridor_world(gap_range_m: (f64, f64)) -> Result<WorldConfig, UnitError> {
    let crossing = SituationalFactor::new("vru_crossing");
    Ok(WorldConfig {
        zones: vec![ZoneSpec {
            name: "corridor".to_string(),
            context: Context::builder()
                .set(Dimension::new("zone"), Value::category("corridor"))
                .build(),
            speed_limit: Speed::from_kmh(50.0)?,
            dwell: Hours::new(1.0)?,
            perception_factor: 1.0,
        }],
        exposure: ExposureModel::builder()
            .base_rate(crossing.clone(), Frequency::per_hour(2.0)?)
            .build()
            .expect("base rate present"),
        challenges: vec![ChallengeTemplate {
            factor: crossing,
            object: ObjectType::Vru,
            gap_range_m,
            motion: ObjectMotion::Stationary,
        }],
    })
}

fn weak_perception() -> PerceptionParams {
    PerceptionParams {
        detection_range: Meters::new(60.0).expect("static value"),
        miss_probability: Probability::new(MISS_PROBABILITY).expect("static value"),
        scan_period_s: 0.1,
    }
}

fn campaign(gap_range_m: (f64, f64), hours: f64, seed: u64) -> Campaign<ReactivePolicy> {
    Campaign::new(
        corridor_world(gap_range_m).expect("world builds"),
        ReactivePolicy::default(),
    )
    .hours(Hours::new(hours).expect("positive"))
    .seed(seed)
    .workers(8)
    .perception(weak_perception())
}

/// The danger ratio the severity function reports for an undetected
/// approach at 50 km/h with full 8 m/s² braking authority left.
fn danger_at_gap(gap_m: f64) -> f64 {
    let closing = Speed::from_kmh(50.0).expect("static value").as_mps();
    closing * closing / (2.0 * 8.0 * gap_m)
}

fn main() {
    let quick = std::env::var("QRN_RARE_QUICK").is_ok();
    let scale = if quick { 0.01 } else { 1.0 };
    let classification = paper_classification().expect("classification builds");
    let rare = IncidentTypeId::new(RARE_LEAF);

    // ---- Leg 1: cross-check at an inflated rate -------------------------
    // Gaps straddle the stop envelope, so I3 is common enough for crude
    // statistics and the default geometric ladder works.
    println!("RARE: cross-check leg (gaps 16–40 m, inflated rate)…");
    let check_crude = campaign((16.0, 40.0), CHECK_CRUDE_HOURS * scale, 11)
        .run_counting(&classification)
        .expect("crude campaign runs");
    let check_split = campaign((16.0, 40.0), CHECK_SPLIT_HOURS * scale, 12)
        .run_splitting(
            &classification,
            &SplittingConfig::geometric(4)
                .with_effort(4)
                .expect("effort"),
        )
        .expect("splitting campaign runs");
    let check_crude_rate = check_crude.evidence.count(rare.as_str()).observations() as f64
        / check_crude.exposure().value();
    let check_split_rate = check_split
        .rate(&rare)
        .expect("leaf exists")
        .point_estimate()
        .expect("exposure positive")
        .as_per_hour();
    let check_ratio = check_split_rate / check_crude_rate;
    println!(
        "  {RARE_LEAF}: crude {check_crude_rate:.3e}/h ({} events) vs splitting {check_split_rate:.3e}/h (ratio {check_ratio:.3})",
        check_crude.evidence.count(rare.as_str()).observations(),
    );

    // ---- Leg 2: the rare event ------------------------------------------
    let ladder: Vec<f64> = LADDER_GAPS_M.iter().map(|&g| danger_at_gap(g)).collect();
    let config = SplittingConfig::new(ladder.clone(), EFFORT).expect("increasing ladder");
    let crude_hours = CRUDE_HOURS * scale;
    let split_hours = SPLIT_HOURS * scale;

    println!("RARE: crude campaign ({crude_hours} h, gaps 35–55 m)…");
    let crude = campaign((35.0, 55.0), crude_hours, 1)
        .run_counting(&classification)
        .expect("crude campaign runs");
    if let Some(throughput) = &crude.throughput {
        println!("  {throughput}");
    }
    let crude_exposure = crude.exposure();
    let crude_rare = crude.evidence.count(rare.as_str()).observations();
    let crude_cost_per_hour = crude.encounter_seconds / crude_exposure.value();
    println!(
        "  {RARE_LEAF}: {crude_rare} events in {:.0} h; cost {crude_cost_per_hour:.2} enc-s/h",
        crude_exposure.value(),
    );

    println!(
        "RARE: splitting campaign ({split_hours} h, {} kinematic levels, effort {EFFORT})…",
        ladder.len()
    );
    let split = campaign((35.0, 55.0), split_hours, 2)
        .run_splitting(&classification, &config)
        .expect("splitting campaign runs");
    if let Some(throughput) = &split.throughput {
        println!("  {throughput}");
    }
    let split_cost_per_hour = split.encounter_seconds / split.exposure().value();
    let cost_ratio = split_cost_per_hour / crude_cost_per_hour;
    println!(
        "  {} encounters -> {} particles; cost {split_cost_per_hour:.2} enc-s/h ({cost_ratio:.2}x crude)",
        split.encounters, split.particles,
    );

    let rare_count = *split.count(&rare).expect("leaf exists");
    let rare_rate = split.rate(&rare).expect("leaf exists");
    let rare_point = rare_rate.point_estimate().expect("exposure positive");
    let rare_interval = rare_rate.confidence_interval(0.95).expect("valid level");
    let (rare_k_eff, rare_t_eff) = rare_rate.effective();
    let vr_stat = rare_count.variance_reduction();
    let vr_matched = vr_stat / cost_ratio;
    println!(
        "  {RARE_LEAF}: {rare_point} (95% CI {}..{}), {rare_k_eff:.1} effective events over {:.3e} effective h",
        rare_interval.lower,
        rare_interval.upper,
        rare_t_eff.value(),
    );
    println!(
        "  variance reduction: x{vr_stat:.3e} statistical, x{cost_ratio:.2} dearer per hour -> x{vr_matched:.3e} at matched compute"
    );

    if !quick {
        assert!(
            (0.7..=1.4).contains(&check_ratio),
            "cross-check estimates must agree, got ratio {check_ratio:.3}"
        );
        assert!(
            rare_point.as_per_hour() <= 1e-6,
            "the rare leaf must sit at or below 1e-6/h, got {rare_point}"
        );
        assert!(
            vr_matched >= 100.0,
            "splitting must beat crude by >=100x at matched compute, got {vr_matched:.1}"
        );
        assert!(
            rare_k_eff >= 30.0,
            "the rare estimate must rest on enough effective events, got {rare_k_eff:.1}"
        );
    }

    // Wall-clock throughput is printed above but deliberately NOT saved:
    // the artefact must be bit-reproducible from (world, policy, seed,
    // budgets) alone. `encounter_seconds` is the deterministic stand-in.
    save_json(
        "exp_rare_event",
        &json!({
            "quick": quick,
            "world": {
                "scenario": "single 50 km/h corridor, VRU crossings at 2/h",
                "perception": {
                    "detection_range_m": 60.0,
                    "miss_probability": MISS_PROBABILITY,
                    "scan_period_s": 0.1,
                },
                "policy": "reactive",
            },
            "cross_check": {
                "gap_range_m": [16.0, 40.0],
                "crude_hours": check_crude.exposure().value(),
                "crude_events": check_crude.evidence.count(rare.as_str()).observations(),
                "crude_rate_per_hour": check_crude_rate,
                "splitting_hours": check_split.exposure().value(),
                "splitting_rate_per_hour": check_split_rate,
                "ratio": check_ratio,
            },
            "crude": {
                "gap_range_m": [35.0, 55.0],
                "hours": crude_exposure.value(),
                "rare_events": crude_rare,
                "encounter_seconds": crude.encounter_seconds,
                "cost_per_hour": crude_cost_per_hour,
            },
            "splitting": {
                "hours": split.exposure().value(),
                "levels": split.levels,
                "ladder_gaps_m": LADDER_GAPS_M,
                "effort": split.effort,
                "encounters": split.encounters,
                "particles": split.particles,
                "encounter_seconds": split.encounter_seconds,
                "cost_per_hour": split_cost_per_hour,
            },
            "rare_leaf": {
                "id": RARE_LEAF,
                "rate_per_hour": rare_point.as_per_hour(),
                "ci95_lower": rare_interval.lower.as_per_hour(),
                "ci95_upper": rare_interval.upper.as_per_hour(),
                "effective_events": rare_k_eff,
                "effective_hours": rare_t_eff.value(),
            },
            "variance_reduction": {
                "statistical": vr_stat,
                "cost_ratio": cost_ratio,
                "matched_compute": vr_matched,
            },
        }),
    );
}
