//! Safety-case argumentation: assembling the QRN artefacts into the
//! structured argument the paper's method is designed to support.
//!
//! "The risk norm defines what is regarded 'sufficiently safe' in the
//! design-time safety case top claim" (Sec. III-A). The argument shape the
//! method buys is fixed:
//!
//! ```text
//! G0  the ADS is sufficiently safe inside its ODD
//! ├── S1 argue over the quantitative risk norm
//! │   └── G1..Gm  every consequence class v_j stays within f_acc(v_j)
//! │       └── S2 argue over the MECE incident types (Eq. 1)
//! │           └── G(I_k)  every incident type stays within f(I_k)
//! │               └── E  statistical evidence (exact Poisson bound)
//! ├── C1 completeness: the classification is MECE (certificate)
//! └── C2 the evidence exposure was driven inside the ODD
//! ```
//!
//! [`SafetyCase::assemble`] builds that tree from a norm, a
//! classification, an allocation, and a verification report, and
//! [`SafetyCase::status`] folds the evidence into a single supported /
//! undermined / insufficient verdict for the top claim.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::allocation::Allocation;
use crate::classification::IncidentClassification;
use crate::error::CoreError;
use crate::norm::QuantitativeRiskNorm;
use crate::safety_goal::{derive_with_certificate, CompletenessCertificate, SafetyGoal};
use crate::verification::{Verdict, VerificationReport};

/// Support status of a claim after folding in its evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClaimStatus {
    /// All sub-claims and evidence support the claim.
    Supported,
    /// At least one piece of evidence statistically contradicts the claim.
    Undermined,
    /// No contradiction, but some evidence is insufficient so far.
    Insufficient,
}

impl fmt::Display for ClaimStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClaimStatus::Supported => f.write_str("supported"),
            ClaimStatus::Undermined => f.write_str("UNDERMINED"),
            ClaimStatus::Insufficient => f.write_str("insufficient evidence"),
        }
    }
}

impl ClaimStatus {
    /// Combines the status of sub-claims: any undermined child undermines
    /// the parent; otherwise any insufficient child leaves the parent
    /// insufficient.
    pub fn combine(self, other: ClaimStatus) -> ClaimStatus {
        use ClaimStatus::*;
        match (self, other) {
            (Undermined, _) | (_, Undermined) => Undermined,
            (Insufficient, _) | (_, Insufficient) => Insufficient,
            (Supported, Supported) => Supported,
        }
    }

    fn from_verdict(v: Verdict) -> ClaimStatus {
        match v {
            Verdict::Demonstrated => ClaimStatus::Supported,
            Verdict::Inconclusive => ClaimStatus::Insufficient,
            Verdict::Violated => ClaimStatus::Undermined,
        }
    }
}

/// One node of the argument tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Claim {
    /// Claim identifier, e.g. `G0`, `G.vS3`, `G.SG-I2`.
    pub id: String,
    /// The claim text.
    pub statement: String,
    /// Status after folding in children and evidence.
    pub status: ClaimStatus,
    /// Sub-claims.
    pub children: Vec<Claim>,
}

impl Claim {
    fn render(&self, indent: usize, out: &mut String) {
        use fmt::Write;
        let pad = "  ".repeat(indent);
        writeln!(
            out,
            "{pad}[{}] {} — {}",
            self.id, self.statement, self.status
        )
        .expect("writing to String cannot fail");
        for child in &self.children {
            child.render(indent + 1, out);
        }
    }

    /// Total number of claims in this subtree (including self).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(Claim::size).sum::<usize>()
    }
}

/// A fully assembled QRN safety case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SafetyCase {
    /// The top-level claim with the full argument beneath it.
    pub top: Claim,
    /// The completeness certificate backing the argument structure.
    pub certificate: CompletenessCertificate,
    /// The safety goals the argument decomposes into.
    pub goals: Vec<SafetyGoal>,
}

impl SafetyCase {
    /// Assembles the argument from the QRN artefacts and a verification
    /// report over them.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when the artefacts are inconsistent (a leaf
    /// without a budget, shares referencing classes outside the norm).
    pub fn assemble(
        item: &str,
        norm: &QuantitativeRiskNorm,
        classification: &IncidentClassification,
        allocation: &Allocation,
        report: &VerificationReport,
    ) -> Result<SafetyCase, CoreError> {
        let (goals, certificate) = derive_with_certificate(classification, allocation)?;

        let mut class_claims = Vec::new();
        for class in norm.classes() {
            let budget = norm.budget(class.id())?;
            let verdict = report
                .class(class.id())
                .map(|c| c.verdict)
                .unwrap_or(Verdict::Inconclusive);
            // The incident types contributing to this class become the
            // sub-claims, each backed by its goal verdict.
            let mut goal_claims = Vec::new();
            for goal_verdict in &report.goals {
                let share = allocation
                    .shares()
                    .share(&goal_verdict.incident, class.id());
                if share.value() == 0.0 {
                    continue;
                }
                goal_claims.push(Claim {
                    id: format!("G.SG-{}", goal_verdict.incident),
                    statement: format!(
                        "incident {} occurs below {} ({} events over {}, bound {})",
                        goal_verdict.incident,
                        goal_verdict.budget,
                        goal_verdict.observed.count,
                        goal_verdict.observed.exposure,
                        goal_verdict.upper_bound,
                    ),
                    status: ClaimStatus::from_verdict(goal_verdict.verdict),
                    children: Vec::new(),
                });
            }
            let status = goal_claims
                .iter()
                .map(|c| c.status)
                .fold(ClaimStatus::from_verdict(verdict), ClaimStatus::combine);
            class_claims.push(Claim {
                id: format!("G.{}", class.id()),
                statement: format!(
                    "consequences \"{}\" occur below {budget}",
                    class.description()
                ),
                status,
                children: goal_claims,
            });
        }

        let completeness_status = if certificate.holds() {
            ClaimStatus::Supported
        } else {
            ClaimStatus::Undermined
        };
        let completeness = Claim {
            id: "C1".into(),
            statement: format!(
                "the incident classification is MECE ({} probes, {} multi-matches, {} mismatches)",
                certificate.mece.probes,
                certificate.mece.multi_matched,
                certificate.mece.mismatches
            ),
            status: completeness_status,
            children: Vec::new(),
        };

        let top_status = class_claims
            .iter()
            .map(|c| c.status)
            .fold(completeness.status, ClaimStatus::combine);
        let top = Claim {
            id: "G0".into(),
            statement: format!("{item} is sufficiently safe inside its ODD (QRN top claim)"),
            status: top_status,
            children: {
                let mut children = vec![completeness];
                children.extend(class_claims);
                children
            },
        };
        Ok(SafetyCase {
            top,
            certificate,
            goals,
        })
    }

    /// The folded status of the top claim.
    pub fn status(&self) -> ClaimStatus {
        self.top.status
    }

    /// Total number of claims in the argument.
    pub fn size(&self) -> usize {
        self.top.size()
    }
}

impl fmt::Display for SafetyCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.top.render(0, &mut out);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{paper_allocation, paper_classification, paper_norm};
    use crate::verification::verify;
    use qrn_stats::evidence::EvidenceLedger;
    use qrn_stats::poisson::WeightedCount;

    fn artefacts() -> (QuantitativeRiskNorm, IncidentClassification, Allocation) {
        let norm = paper_norm().unwrap();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        (norm, classification, allocation)
    }

    /// Unit-weight evidence: `counts` over `hours`, global row only.
    fn counted(counts: &[(&str, u64)], hours: f64) -> EvidenceLedger {
        let mut ledger = EvidenceLedger::new();
        ledger.add_exposure(None, hours);
        for &(kind, n) in counts {
            ledger.add_count(None, kind, &WeightedCount::unit(n));
        }
        ledger
    }

    fn case_with(evidence: EvidenceLedger) -> SafetyCase {
        let (norm, classification, allocation) = artefacts();
        let report = verify(&norm, &allocation, &evidence, 0.95).unwrap();
        SafetyCase::assemble("example ADS", &norm, &classification, &allocation, &report).unwrap()
    }

    #[test]
    fn clean_long_campaign_supports_the_top_claim() {
        let case = case_with(counted(&[], 1e13));
        assert_eq!(case.status(), ClaimStatus::Supported);
        assert!(case.certificate.holds());
    }

    #[test]
    fn short_campaign_is_insufficient() {
        let case = case_with(counted(&[], 10.0));
        assert_eq!(case.status(), ClaimStatus::Insufficient);
    }

    #[test]
    fn violations_undermine_the_top_claim() {
        let case = case_with(counted(&[("I3", 500)], 1000.0));
        assert_eq!(case.status(), ClaimStatus::Undermined);
        // The undermined path is visible: the vS3 class claim is undermined.
        let vs3 = case.top.children.iter().find(|c| c.id == "G.vS3").unwrap();
        assert_eq!(vs3.status, ClaimStatus::Undermined);
    }

    #[test]
    fn argument_has_one_subclaim_per_class_plus_completeness() {
        let case = case_with(counted(&[], 1e12));
        let (norm, ..) = artefacts();
        assert_eq!(case.top.children.len(), norm.len() + 1);
        assert!(case.size() > norm.len() + 2);
    }

    #[test]
    fn class_claims_nest_their_contributing_goals() {
        let case = case_with(counted(&[], 1e12));
        let vq1 = case.top.children.iter().find(|c| c.id == "G.vQ1").unwrap();
        // I1 contributes to vQ1, so its goal claim nests here.
        assert!(vq1.children.iter().any(|c| c.id == "G.SG-I1"));
        // I3 does not contribute to vQ1.
        assert!(!vq1.children.iter().any(|c| c.id == "G.SG-I3"));
    }

    #[test]
    fn status_combination_is_pessimistic() {
        use ClaimStatus::*;
        assert_eq!(Supported.combine(Supported), Supported);
        assert_eq!(Supported.combine(Insufficient), Insufficient);
        assert_eq!(Insufficient.combine(Undermined), Undermined);
        assert_eq!(Undermined.combine(Supported), Undermined);
    }

    #[test]
    fn display_renders_the_tree() {
        let case = case_with(counted(&[], 1e12));
        let text = case.to_string();
        assert!(text.contains("[G0]"));
        assert!(text.contains("[C1]"));
        assert!(text.contains("[G.vS3]"));
        assert!(text.contains("[G.SG-I2]"));
    }

    #[test]
    fn serde_round_trip() {
        let case = case_with(counted(&[], 1e12));
        let back: SafetyCase =
            serde_json::from_str(&serde_json::to_string(&case).unwrap()).unwrap();
        assert_eq!(case, back);
    }
}
