//! Markdown rendering of the full QRN safety documentation.
//!
//! A safety case is reviewed by humans; this module renders every artefact
//! — norm, classification, allocation, safety goals, verification verdicts
//! and the assembled argument — as one markdown document suitable for a
//! review package or a CI artifact.

use std::fmt::Write;

use crate::allocation::Allocation;
use crate::classification::IncidentClassification;
use crate::error::CoreError;
use crate::norm::QuantitativeRiskNorm;
use crate::object::InvolvementClass;
use crate::safety_case::SafetyCase;
use crate::safety_goal::derive_with_certificate;
use crate::verification::VerificationReport;

/// Renders the complete safety documentation as markdown.
///
/// When a [`VerificationReport`] is supplied, the verdict tables, the
/// demonstration plan and the assembled argument tree are included;
/// without one the document covers the design-time artefacts only.
///
/// # Errors
///
/// Returns [`CoreError`] when the artefacts are inconsistent (a leaf
/// without a budget, shares referencing classes outside the norm).
///
/// # Examples
///
/// ```
/// use qrn_core::examples::{paper_allocation, paper_classification, paper_norm};
/// use qrn_core::report::render_markdown;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let classification = paper_classification()?;
/// let allocation = paper_allocation(&classification)?;
/// let doc = render_markdown("demo ADS", &paper_norm()?, &classification, &allocation, None)?;
/// assert!(doc.contains("# Safety documentation: demo ADS"));
/// assert!(doc.contains("SG-I2"));
/// # Ok(())
/// # }
/// ```
pub fn render_markdown(
    item: &str,
    norm: &QuantitativeRiskNorm,
    classification: &IncidentClassification,
    allocation: &Allocation,
    verification: Option<&VerificationReport>,
) -> Result<String, CoreError> {
    let mut out = String::new();
    let w = &mut out;
    writeln!(w, "# Safety documentation: {item}\n").expect("string write");
    writeln!(
        w,
        "Produced by the QRN toolkit (quantitative risk norm tailoring of HARA).\n"
    )
    .expect("string write");

    // --- Norm ----------------------------------------------------------
    writeln!(w, "## 1. Quantitative risk norm\n").expect("string write");
    writeln!(
        w,
        "| class | domain | severity rank | acceptable frequency | description |"
    )
    .expect("string write");
    writeln!(w, "|---|---|---|---|---|").expect("string write");
    for class in norm.classes() {
        writeln!(
            w,
            "| {} | {} | {} | {} | {} |",
            class.id(),
            class.domain(),
            class.severity_rank(),
            norm.budget(class.id())?,
            class.description(),
        )
        .expect("string write");
    }

    // --- Classification --------------------------------------------------
    let mece = classification.verify_mece();
    writeln!(w, "\n## 2. Incident classification (MECE)\n").expect("string write");
    writeln!(
        w,
        "{} incident types over {} involvement groups. MECE probe: {} probes, \
         {} multi-matches, {} mismatches → **{}**.\n",
        classification.leaves().len(),
        InvolvementClass::ALL.len(),
        mece.probes,
        mece.multi_matched,
        mece.mismatches,
        if mece.is_mece() { "MECE" } else { "BROKEN" },
    )
    .expect("string write");
    writeln!(w, "| id | involvement | tolerance margin |").expect("string write");
    writeln!(w, "|---|---|---|").expect("string write");
    for leaf in classification.leaves() {
        writeln!(
            w,
            "| {} | {} | {} |",
            leaf.id(),
            leaf.involvement(),
            leaf.margin(),
        )
        .expect("string write");
    }

    // --- Allocation and Eq. (1) ------------------------------------------
    writeln!(w, "\n## 3. Allocation and fulfilment (Eq. 1)\n").expect("string write");
    let eq1 = allocation.check(norm)?;
    writeln!(
        w,
        "| consequence class | budget | allocated load | utilisation | status |"
    )
    .expect("string write");
    writeln!(w, "|---|---|---|---|---|").expect("string write");
    for row in eq1.rows() {
        writeln!(
            w,
            "| {} | {} | {} | {} | {} |",
            row.class,
            row.budget,
            row.load,
            row.utilisation
                .map(|u| format!("{:.1}%", u * 100.0))
                .unwrap_or_else(|| "—".into()),
            if row.is_fulfilled() {
                "OK"
            } else {
                "**VIOLATED**"
            },
        )
        .expect("string write");
    }
    writeln!(
        w,
        "\nEq. (1) overall: **{}**.",
        if eq1.is_fulfilled() {
            "fulfilled"
        } else {
            "VIOLATED"
        }
    )
    .expect("string write");

    // --- Safety goals -----------------------------------------------------
    let (goals, certificate) = derive_with_certificate(classification, allocation)?;
    writeln!(w, "\n## 4. Safety goals\n").expect("string write");
    for goal in &goals {
        writeln!(w, "- {goal}").expect("string write");
    }
    writeln!(w, "\nCompleteness: {certificate}").expect("string write");

    // --- Verification ------------------------------------------------------
    if let Some(report) = verification {
        writeln!(
            w,
            "\n## 5. Verification at {:.0}% confidence\n",
            report.confidence * 100.0
        )
        .expect("string write");
        writeln!(
            w,
            "| goal | events | exposure | upper bound | budget | verdict |"
        )
        .expect("string write");
        writeln!(w, "|---|---|---|---|---|---|").expect("string write");
        for g in &report.goals {
            writeln!(
                w,
                "| SG-{} | {} | {} | {} | {} | {} |",
                g.incident,
                g.observed.count,
                g.observed.exposure,
                g.upper_bound,
                g.budget,
                g.verdict,
            )
            .expect("string write");
        }
        writeln!(w, "\n| consequence class | load ≤ | budget | verdict |").expect("string write");
        writeln!(w, "|---|---|---|---|").expect("string write");
        for c in &report.classes {
            writeln!(
                w,
                "| {} | {} | {} | {} |",
                c.class, c.load_upper_bound, c.budget, c.verdict,
            )
            .expect("string write");
        }
        let plan = report.demonstration_plan();
        if !plan.is_empty() {
            writeln!(
                w,
                "\n### Demonstration plan (additional failure-free exposure)\n"
            )
            .expect("string write");
            for (incident, hours) in plan {
                writeln!(w, "- SG-{incident}: {hours} more").expect("string write");
            }
        }
        // --- Argument -----------------------------------------------------
        let case = SafetyCase::assemble(item, norm, classification, allocation, report)?;
        writeln!(w, "\n## 6. Assembled argument\n").expect("string write");
        writeln!(w, "```").expect("string write");
        write!(w, "{case}").expect("string write");
        writeln!(w, "```").expect("string write");
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{paper_allocation, paper_classification, paper_norm};
    use crate::verification::verify;
    use qrn_stats::evidence::EvidenceLedger;

    fn clean(hours: f64) -> EvidenceLedger {
        let mut ledger = EvidenceLedger::new();
        ledger.add_exposure(None, hours);
        ledger
    }

    fn artefacts() -> (QuantitativeRiskNorm, IncidentClassification, Allocation) {
        let norm = paper_norm().unwrap();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        (norm, classification, allocation)
    }

    #[test]
    fn design_time_document_has_all_sections() {
        let (norm, classification, allocation) = artefacts();
        let doc = render_markdown("item", &norm, &classification, &allocation, None).unwrap();
        for needle in [
            "# Safety documentation: item",
            "## 1. Quantitative risk norm",
            "## 2. Incident classification",
            "## 3. Allocation and fulfilment",
            "## 4. Safety goals",
            "SG-I2",
            "Eq. (1) overall: **fulfilled**",
            "completeness: HOLDS",
        ] {
            assert!(doc.contains(needle), "missing {needle:?}");
        }
        assert!(
            !doc.contains("## 5."),
            "no verification section without a report"
        );
    }

    #[test]
    fn verified_document_includes_verdicts_and_argument() {
        let (norm, classification, allocation) = artefacts();
        let report = verify(&norm, &allocation, &clean(1e12), 0.95).unwrap();
        let doc =
            render_markdown("item", &norm, &classification, &allocation, Some(&report)).unwrap();
        for needle in [
            "## 5. Verification at 95% confidence",
            "## 6. Assembled argument",
            "[G0]",
            "demonstrated",
        ] {
            assert!(doc.contains(needle), "missing {needle:?}");
        }
        assert!(
            !doc.contains("Demonstration plan"),
            "everything demonstrated: no plan section"
        );
    }

    #[test]
    fn inconclusive_document_includes_the_plan() {
        let (norm, classification, allocation) = artefacts();
        let report = verify(&norm, &allocation, &clean(10.0), 0.95).unwrap();
        let doc =
            render_markdown("item", &norm, &classification, &allocation, Some(&report)).unwrap();
        assert!(doc.contains("Demonstration plan"));
        assert!(doc.contains("more"));
    }

    #[test]
    fn tables_are_well_formed() {
        let (norm, classification, allocation) = artefacts();
        let doc = render_markdown("item", &norm, &classification, &allocation, None).unwrap();
        // every table row in section 1 has exactly 5 columns
        let norm_rows: Vec<&str> = doc
            .lines()
            .skip_while(|l| !l.starts_with("| class"))
            .take_while(|l| l.starts_with('|'))
            .collect();
        assert!(norm_rows.len() >= 2 + norm.len());
        for row in norm_rows {
            assert_eq!(row.matches('|').count(), 6, "bad row: {row}");
        }
    }
}
