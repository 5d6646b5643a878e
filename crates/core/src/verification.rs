//! Statistical verification of a QRN against measured incident data.
//!
//! A safety goal with a quantitative integrity attribute is *demonstrated*
//! statistically: `k` observed instances of the incident type over fleet
//! exposure `T` give an exact Poisson upper confidence bound on the true
//! rate; if the bound lies below the budget, the goal is demonstrated at
//! that confidence. Class-level verdicts propagate the per-type bounds
//! through the share matrix — conservatively, by summing upper bounds.
//!
//! Evidence arrives as a unified [`EvidenceLedger`]: crude campaigns,
//! splitting campaigns and fleet logs all produce one, and ledgers merge,
//! so design-time and operational evidence combine into a single Eq. (1)
//! check ([`verify`]).
//!
//! The Eq. (1) kernel — per-goal bounds ([`GoalEvidence::bounds`]), the
//! share-matrix class propagation ([`class_loads`]) and the
//! referenced-class check ([`check_referenced_classes`]) — is public: the
//! fleet burn-down (`qrn_fleet::burndown`) renders the same evaluation as
//! alert levels instead of verdicts.

use std::fmt;

use serde::{Deserialize, Serialize};

use qrn_stats::evidence::EvidenceLedger;
use qrn_stats::poisson::{PoissonRate, WeightedCount, WeightedPoissonRate};
use qrn_stats::special::chi_square_quantile;
use qrn_stats::StatsError;
use qrn_units::{Frequency, Hours};

use crate::allocation::Allocation;
use crate::consequence::ConsequenceClassId;
use crate::error::CoreError;
use crate::incident::IncidentTypeId;
use crate::norm::QuantitativeRiskNorm;

/// The evidence behind one safety goal: its weighted incident mass over an
/// exposure, held as the integer observation plus — only when the weights
/// are not all one — the weighted view the bounds then come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoalEvidence {
    /// Observed count (number of weighted observations) and exposure.
    pub observed: PoissonRate,
    /// The weighted observation, `None` for exact unit-weight counts.
    pub weighted: Option<WeightedPoissonRate>,
}

impl GoalEvidence {
    /// Splits a weighted mass over `exposure` into the exact integer path
    /// (unit weights, [`WeightedCount::is_unweighted`]) or the Kish
    /// effective-count path.
    pub fn new(count: WeightedCount, exposure: Hours) -> Self {
        GoalEvidence {
            observed: PoissonRate::new(count.observations(), exposure),
            weighted: (!count.is_unweighted()).then(|| WeightedPoissonRate::new(count, exposure)),
        }
    }

    /// Effective event count and exposure `(k_eff, T_eff)`: the raw count
    /// and exposure for unit weights, Kish's otherwise.
    pub fn effective(&self) -> (f64, Hours) {
        match &self.weighted {
            Some(w) => w.effective(),
            None => (self.observed.count as f64, self.observed.exposure),
        }
    }

    /// Point estimate and one-sided bounds on the rate at `confidence`:
    /// exact Garwood bounds for unit weights, effective-count bounds
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] for zero exposure or an invalid confidence.
    pub fn bounds(&self, confidence: f64) -> Result<RateBounds, StatsError> {
        Ok(match &self.weighted {
            Some(w) => RateBounds {
                point: w.point_estimate()?,
                upper: w.upper_bound(confidence)?,
                lower: w.lower_bound(confidence)?,
            },
            None => RateBounds {
                point: self.observed.point_estimate()?,
                upper: self.observed.upper_bound(confidence)?,
                lower: self.observed.lower_bound(confidence)?,
            },
        })
    }
}

/// A rate's point estimate with its one-sided upper and lower bounds — the
/// per-goal triple [`class_loads`] propagates, and the per-class load it
/// returns. The default is all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RateBounds {
    /// Point estimate.
    pub point: Frequency,
    /// One-sided upper confidence bound.
    pub upper: Frequency,
    /// One-sided lower confidence bound.
    pub lower: Frequency,
}

/// Rejects share matrices that reference consequence classes outside the
/// norm.
///
/// # Errors
///
/// Returns [`CoreError::UnknownId`] naming the first unknown class.
pub fn check_referenced_classes(
    norm: &QuantitativeRiskNorm,
    allocation: &Allocation,
) -> Result<(), CoreError> {
    for class in allocation.shares().referenced_classes() {
        if norm.class(class).is_none() {
            return Err(CoreError::UnknownId {
                kind: "consequence class",
                id: class.as_str().to_string(),
            });
        }
    }
    Ok(())
}

/// The share-matrix propagation of Eq. (1): for every class of the norm,
/// in severity order, its budget and the share-weighted sums of the
/// per-goal triples. `goals` holds one triple per safety goal, in
/// [`Allocation::budgets`] order.
///
/// The upper sum is conservative (a sum of individual upper bounds), so a
/// class whose load upper bound clears its budget genuinely clears it at
/// no less than the goals' confidence.
pub fn class_loads<'a>(
    norm: &'a QuantitativeRiskNorm,
    allocation: &'a Allocation,
    goals: &'a [RateBounds],
) -> impl Iterator<Item = (&'a ConsequenceClassId, Frequency, RateBounds)> + 'a {
    norm.classes().map(move |c| {
        let budget = norm.budget(c.id()).expect("class is in norm");
        let mut load = RateBounds::default();
        for ((incident, _), goal) in allocation.budgets().zip(goals) {
            let share = allocation.shares().share(incident, c.id());
            load.point = load.point + goal.point * share;
            load.upper = load.upper + goal.upper * share;
            load.lower = load.lower + goal.lower * share;
        }
        (c.id(), budget, load)
    })
}

/// Outcome of a statistical check against a budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// The upper confidence bound lies below the budget: demonstrated.
    Demonstrated,
    /// Neither demonstrated nor violated at this confidence: more exposure
    /// needed.
    Inconclusive,
    /// The lower confidence bound lies above the budget: statistically
    /// established violation.
    Violated,
}

impl Verdict {
    /// `Demonstrated` when the upper bound clears the budget, `Violated`
    /// when the lower bound exceeds it, `Inconclusive` otherwise.
    fn of(bounds: &RateBounds, budget: Frequency) -> Verdict {
        if bounds.upper <= budget {
            Verdict::Demonstrated
        } else if bounds.lower > budget {
            Verdict::Violated
        } else {
            Verdict::Inconclusive
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Demonstrated => f.write_str("demonstrated"),
            Verdict::Inconclusive => f.write_str("inconclusive"),
            Verdict::Violated => f.write_str("violated"),
        }
    }
}

/// Verdict for one safety goal (incident type budget).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoalVerdict {
    /// The incident type.
    pub incident: IncidentTypeId,
    /// Its frequency budget.
    pub budget: Frequency,
    /// Observed count and exposure. For weighted evidence the count is the
    /// number of weighted observations; the bounds then come from
    /// [`GoalVerdict::weighted`] instead.
    pub observed: PoissonRate,
    /// The weighted observation behind the bounds, when the evidence
    /// carried non-unit weights (`None` for exact integer counts, whose
    /// bounds are the classic Garwood ones on `observed`).
    pub weighted: Option<WeightedPoissonRate>,
    /// One-sided upper confidence bound on the true rate.
    pub upper_bound: Frequency,
    /// The verdict.
    pub verdict: Verdict,
}

/// Verdict for one consequence class of the norm.
///
/// The class-level bounds combine per-incident-type bounds through the
/// share matrix. The **upper** bound (used for `Demonstrated`) is a sum of
/// individual upper bounds and therefore *conservative*: if it clears the
/// budget, the class genuinely clears it at ≥ the nominal confidence. The
/// **lower** bound (used for `Violated`) sums individual lower bounds,
/// whose joint confidence is weaker than nominal when many types
/// contribute; treat a class-level `Violated` as a strong flag to
/// investigate the per-goal verdicts (which are individually exact).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassVerdict {
    /// The consequence class.
    pub class: ConsequenceClassId,
    /// Its acceptable budget.
    pub budget: Frequency,
    /// Point estimate of the class load (sum of point rates × shares).
    pub point_load: Frequency,
    /// Conservative upper bound on the class load (sum of per-type upper
    /// bounds × shares).
    pub load_upper_bound: Frequency,
    /// The verdict.
    pub verdict: Verdict,
}

/// Full verification of a QRN against measured data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerificationReport {
    /// One-sided confidence level used for every bound.
    pub confidence: f64,
    /// Per-safety-goal verdicts, in incident id order.
    pub goals: Vec<GoalVerdict>,
    /// Per-consequence-class verdicts, in severity order.
    pub classes: Vec<ClassVerdict>,
}

impl VerificationReport {
    /// Returns `true` when every goal and every class is demonstrated.
    pub fn all_demonstrated(&self) -> bool {
        self.goals
            .iter()
            .all(|g| g.verdict == Verdict::Demonstrated)
            && self
                .classes
                .iter()
                .all(|c| c.verdict == Verdict::Demonstrated)
    }

    /// Returns `true` when any goal or class is a statistically established
    /// violation.
    pub fn any_violated(&self) -> bool {
        self.goals.iter().any(|g| g.verdict == Verdict::Violated)
            || self.classes.iter().any(|c| c.verdict == Verdict::Violated)
    }

    /// The verdict row of one goal, if present.
    pub fn goal(&self, id: &IncidentTypeId) -> Option<&GoalVerdict> {
        self.goals.iter().find(|g| &g.incident == id)
    }

    /// The verdict row of one class, if present.
    pub fn class(&self, id: &ConsequenceClassId) -> Option<&ClassVerdict> {
        self.classes.iter().find(|c| &c.class == id)
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Verification at {:.0}% confidence:",
            self.confidence * 100.0
        )?;
        for g in &self.goals {
            writeln!(
                f,
                "  SG-{}: {} events, upper bound {} vs budget {} -> {}",
                g.incident, g.observed.count, g.upper_bound, g.budget, g.verdict
            )?;
        }
        for c in &self.classes {
            writeln!(
                f,
                "  {}: load ≤ {} vs budget {} -> {}",
                c.class, c.load_upper_bound, c.budget, c.verdict
            )?;
        }
        Ok(())
    }
}

/// Additional *failure-free* exposure needed before an observation would
/// demonstrate its budget at the given one-sided confidence.
///
/// Solves `χ²(γ; 2k + 2) / (2(T + x)) ≤ budget` for `x`, returning zero
/// when the observation already demonstrates.
///
/// # Errors
///
/// Returns [`CoreError`] for a zero budget or an invalid confidence.
///
/// # Examples
///
/// ```
/// use qrn_core::verification::additional_clean_exposure;
/// use qrn_stats::poisson::PoissonRate;
/// use qrn_units::{Frequency, Hours};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let observed = PoissonRate::new(0, Hours::new(1.0e5)?);
/// let budget = Frequency::per_hour(1e-5)?;
/// let more = additional_clean_exposure(observed, budget, 0.95)?;
/// // ~3/budget total needed, 1e5 already driven:
/// assert!((more.value() - 1.9957e5).abs() / 1.9957e5 < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn additional_clean_exposure(
    observed: PoissonRate,
    budget: Frequency,
    confidence: f64,
) -> Result<Hours, CoreError> {
    if budget.as_per_hour() <= 0.0 {
        return Err(CoreError::InvalidAllocation(
            "a zero budget can never be demonstrated by exposure".into(),
        ));
    }
    if !(confidence.is_finite() && 0.0 < confidence && confidence < 1.0) {
        return Err(CoreError::InvalidAllocation(format!(
            "confidence must lie strictly between 0 and 1, got {confidence}"
        )));
    }
    let q = chi_square_quantile(2.0 * observed.count as f64 + 2.0, confidence)
        .map_err(CoreError::from)?;
    let total_needed = q / (2.0 * budget.as_per_hour());
    Hours::new((total_needed - observed.exposure.value()).max(0.0)).map_err(CoreError::from)
}

impl VerificationReport {
    /// The demonstration plan: for every not-yet-demonstrated goal, the
    /// additional failure-free exposure needed at this report's confidence.
    /// Violated goals are included — their number answers "how much clean
    /// driving would it take to outweigh what we saw", which is exactly
    /// the cost of having observed the events.
    pub fn demonstration_plan(&self) -> Vec<(IncidentTypeId, Hours)> {
        self.goals
            .iter()
            .filter(|g| g.verdict != Verdict::Demonstrated)
            .map(|g| {
                let hours = additional_clean_exposure(g.observed, g.budget, self.confidence)
                    .unwrap_or(Hours::ZERO);
                (g.incident.clone(), hours)
            })
            .collect()
    }
}

/// Verifies an [`EvidenceLedger`] against the allocation's safety goals
/// and the norm's consequence-class budgets — the Eq. (1) check for
/// evidence from *any* producer: crude campaigns, multilevel-splitting
/// campaigns, operational fleet logs, or any merge of them.
///
/// Per safety goal, the ledger's global weighted mass for the incident
/// kind is bounded over the global exposure ([`GoalEvidence::bounds`]):
/// unit-weight masses take the exact integer Garwood path, weighted
/// masses use effective-count (Kish) intervals, reported in the verdict's
/// [`GoalVerdict::weighted`] field.
///
/// # Errors
///
/// Returns [`CoreError`] for invalid confidence, zero exposure, or share
/// matrices referencing classes outside the norm.
///
/// # Examples
///
/// ```
/// use qrn_core::examples::{paper_allocation, paper_classification, paper_norm};
/// use qrn_core::verification::verify;
/// use qrn_stats::evidence::EvidenceLedger;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let norm = paper_norm()?;
/// let classification = paper_classification()?;
/// let allocation = paper_allocation(&classification)?;
///
/// // A clean trillion-hour fleet campaign demonstrates everything.
/// let mut evidence = EvidenceLedger::new();
/// evidence.add_exposure(None, 1.0e12);
/// let report = verify(&norm, &allocation, &evidence, 0.95)?;
/// assert!(report.all_demonstrated());
/// # Ok(())
/// # }
/// ```
pub fn verify(
    norm: &QuantitativeRiskNorm,
    allocation: &Allocation,
    evidence: &EvidenceLedger,
    confidence: f64,
) -> Result<VerificationReport, CoreError> {
    check_referenced_classes(norm, allocation)?;
    let exposure = Hours::new(evidence.exposure()).map_err(CoreError::from)?;
    let mut goals = Vec::new();
    let mut bounds = Vec::new();
    for (incident, budget) in allocation.budgets() {
        let goal = GoalEvidence::new(evidence.count(incident.as_str()), exposure);
        let b = goal.bounds(confidence)?;
        goals.push(GoalVerdict {
            incident: incident.clone(),
            budget,
            observed: goal.observed,
            weighted: goal.weighted,
            upper_bound: b.upper,
            verdict: Verdict::of(&b, budget),
        });
        bounds.push(b);
    }
    let classes = class_loads(norm, allocation, &bounds)
        .map(|(class, budget, load)| ClassVerdict {
            class: class.clone(),
            budget,
            point_load: load.point,
            load_upper_bound: load.upper,
            verdict: Verdict::of(&load, budget),
        })
        .collect();
    Ok(VerificationReport {
        confidence,
        goals,
        classes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classification::IncidentClassification;
    use crate::examples::{paper_allocation, paper_classification, paper_norm};

    fn h(x: f64) -> Hours {
        Hours::new(x).unwrap()
    }

    /// A global-row-only unit-weight ledger: exact counts over `hours`.
    fn counted(counts: &[(&str, u64)], hours: f64) -> EvidenceLedger {
        let mut ledger = EvidenceLedger::new();
        ledger.add_exposure(None, hours);
        for &(kind, n) in counts {
            ledger.add_count(None, kind, &WeightedCount::unit(n));
        }
        ledger
    }

    fn setup() -> (QuantitativeRiskNorm, IncidentClassification, Allocation) {
        let norm = paper_norm().unwrap();
        let c = paper_classification().unwrap();
        let a = paper_allocation(&c).unwrap();
        (norm, c, a)
    }

    #[test]
    fn clean_long_campaign_demonstrates() {
        let (norm, _, a) = setup();
        let report = verify(&norm, &a, &counted(&[], 1e12), 0.95).unwrap();
        assert!(report.all_demonstrated());
        assert!(!report.any_violated());
    }

    #[test]
    fn short_campaign_is_inconclusive() {
        let (norm, _, a) = setup();
        let report = verify(&norm, &a, &counted(&[], 10.0), 0.95).unwrap();
        assert!(!report.all_demonstrated());
        assert!(!report.any_violated());
        assert!(report
            .goals
            .iter()
            .any(|g| g.verdict == Verdict::Inconclusive));
    }

    #[test]
    fn heavy_incident_load_is_violated() {
        let (norm, _, a) = setup();
        // 1000 severe VRU collisions in 1000 hours: far above any budget.
        let report = verify(&norm, &a, &counted(&[("I3", 1000)], 1000.0), 0.95).unwrap();
        assert!(report.any_violated());
        assert_eq!(
            report.goal(&"I3".into()).unwrap().verdict,
            Verdict::Violated
        );
        // the classes I3 feeds are violated too
        assert_eq!(
            report.class(&"vS3".into()).unwrap().verdict,
            Verdict::Violated
        );
    }

    #[test]
    fn class_upper_bound_dominates_point_load() {
        let (norm, _, a) = setup();
        let report = verify(&norm, &a, &counted(&[("I2", 3)], 1e7), 0.95).unwrap();
        for c in &report.classes {
            assert!(c.load_upper_bound >= c.point_load, "{}", c.class);
        }
    }

    #[test]
    fn invalid_confidence_is_an_error() {
        let (norm, _, a) = setup();
        assert!(verify(&norm, &a, &counted(&[], 100.0), 1.0).is_err());
    }

    #[test]
    fn display_lists_goals_and_classes() {
        let (norm, _, a) = setup();
        let text = verify(&norm, &a, &counted(&[], 1e12), 0.95)
            .unwrap()
            .to_string();
        assert!(text.contains("SG-I2"));
        assert!(text.contains("vS3"));
        assert!(text.contains("demonstrated"));
    }

    #[test]
    fn serde_round_trip() {
        let (norm, _, a) = setup();
        let report = verify(&norm, &a, &counted(&[], 1e9), 0.95).unwrap();
        let back: VerificationReport =
            serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn additional_exposure_reaches_exactly_the_demonstration_boundary() {
        let budget = Frequency::per_hour(1e-6).unwrap();
        for k in [0u64, 2, 7] {
            let observed = PoissonRate::new(k, h(1e5));
            let more = additional_clean_exposure(observed, budget, 0.95).unwrap();
            // Driving exactly that much more, cleanly, demonstrates.
            let after = PoissonRate::new(k, h(1e5 + more.value() + 1.0));
            assert!(after.demonstrates_below(budget, 0.95).unwrap(), "k={k}");
            // A little less does not (when more > 0).
            if more.value() > 10.0 {
                let before = PoissonRate::new(k, h(1e5 + more.value() * 0.99));
                assert!(!before.demonstrates_below(budget, 0.95).unwrap(), "k={k}");
            }
        }
    }

    #[test]
    fn additional_exposure_is_zero_once_demonstrated() {
        let budget = Frequency::per_hour(1e-3).unwrap();
        let observed = PoissonRate::new(0, h(1e6));
        assert!(observed.demonstrates_below(budget, 0.95).unwrap());
        let more = additional_clean_exposure(observed, budget, 0.95).unwrap();
        assert_eq!(more, Hours::ZERO);
    }

    #[test]
    fn additional_exposure_rejects_degenerate_inputs() {
        let observed = PoissonRate::new(0, h(1.0));
        assert!(additional_clean_exposure(observed, Frequency::ZERO, 0.95).is_err());
        let budget = Frequency::per_hour(1e-6).unwrap();
        assert!(additional_clean_exposure(observed, budget, 1.0).is_err());
    }

    #[test]
    fn unit_weight_goals_take_the_exact_garwood_bounds() {
        let (norm, _, a) = setup();
        let cases: Vec<(Vec<(&str, u64)>, f64)> = vec![
            (vec![], 1e12),
            (vec![], 10.0),
            (vec![("I2", 3)], 1e7),
            (vec![("I3", 1000)], 1000.0),
            (vec![("I1", 2), ("I3", 5)], 4.0e4),
        ];
        for (counts, hours) in cases {
            let report = verify(&norm, &a, &counted(&counts, hours), 0.95).unwrap();
            for g in &report.goals {
                let n = counts
                    .iter()
                    .find(|(kind, _)| *kind == g.incident.as_str())
                    .map_or(0, |&(_, n)| n);
                let direct = PoissonRate::new(n, h(hours));
                assert_eq!(g.observed, direct, "{}", g.incident);
                assert!(g.weighted.is_none(), "{}", g.incident);
                let upper = direct.upper_bound(0.95).unwrap();
                assert_eq!(
                    g.upper_bound.as_per_hour().to_bits(),
                    upper.as_per_hour().to_bits(),
                    "{}",
                    g.incident
                );
                let lower = direct.lower_bound(0.95).unwrap();
                let expected = if upper <= g.budget {
                    Verdict::Demonstrated
                } else if lower > g.budget {
                    Verdict::Violated
                } else {
                    Verdict::Inconclusive
                };
                assert_eq!(g.verdict, expected, "{}", g.incident);
            }
        }
    }

    #[test]
    fn weighted_evidence_uses_effective_bounds() {
        let (norm, _, a) = setup();
        let mut ledger = EvidenceLedger::new();
        ledger.add_exposure(None, 1.0e6);
        // Importance-weighted splitting mass: 16 observations of 1/8 each.
        for _ in 0..16 {
            ledger.add_incident(None, "I3", 0.125);
        }
        let report = verify(&norm, &a, &ledger, 0.95).unwrap();
        let goal = report.goal(&"I3".into()).unwrap();
        let w = goal
            .weighted
            .expect("non-unit weights take the weighted path");
        assert_eq!(goal.observed.count, 16);
        assert!((w.count.total() - 2.0).abs() < 1e-12);
        // The effective bound is driven by mass 2 over 1e6 h, not by 16
        // integer events.
        assert!(goal.upper_bound < PoissonRate::new(16, h(1.0e6)).upper_bound(0.95).unwrap());
    }

    #[test]
    fn merged_sim_and_fleet_evidence_verifies_combined_exposure() {
        let (norm, _, a) = setup();
        // Design-time campaign: weighted, with zone refinements.
        let mut sim = EvidenceLedger::new();
        sim.add_exposure(None, 5.0e5);
        sim.add_exposure(Some("urban"), 2.0e5);
        sim.add_incident(None, "I2", 0.25);
        sim.add_incident(Some("urban"), "I2", 0.25);
        // Operational fleet: unit weights, global row only.
        let fleet = counted(&[("I2", 1)], 5.0e5);
        let combined = sim.merged(&fleet);
        assert_eq!(combined.exposure(), 1.0e6);
        let report = verify(&norm, &a, &combined, 0.95).unwrap();
        let goal = report.goal(&"I2".into()).unwrap();
        // Mixed unit + fractional weights: the weighted path.
        assert!(goal.weighted.is_some());
        assert_eq!(goal.observed.exposure, h(1.0e6));
        assert_eq!(goal.observed.count, 2);
    }

    #[test]
    fn demonstration_plan_covers_non_demonstrated_goals() {
        let (norm, _, a) = setup();
        // Short campaign: everything inconclusive.
        let report = verify(&norm, &a, &counted(&[], 100.0), 0.95).unwrap();
        let plan = report.demonstration_plan();
        assert_eq!(plan.len(), report.goals.len());
        assert!(plan.iter().all(|(_, hours)| hours.value() > 0.0));
        // Astronomic campaign: everything demonstrated, empty plan.
        let report = verify(&norm, &a, &counted(&[], 1e13), 0.95).unwrap();
        assert!(report.demonstration_plan().is_empty());
    }
}
