//! The Quantitative Risk Norm (QRN): the primary contribution of
//! *"The Quantitative Risk Norm — A Proposed Tailoring of HARA for ADS"*
//! (Warg et al., DSN-W/SSIV 2020).
//!
//! The QRN method replaces the qualitative hazard analysis of ISO 26262
//! with a quantitative pipeline, and this crate implements each stage as a
//! first-class, checkable object:
//!
//! 1. **[`consequence`] / [`norm`]** — consequence classes spanning quality
//!    (scared pedestrian, material damage) *and* safety (injuries,
//!    fatalities), each with a strict acceptable frequency budget
//!    (the paper's Figs. 2–3).
//! 2. **[`object`] / [`incident`] / [`classification`]** — incidents are
//!    partitioned into incident types, "an interaction between ego vehicle
//!    and `<object_type>` within `<tolerance_margin>`", organised in a
//!    classification that is **MECE by construction** (mutually exclusive,
//!    collectively exhaustive — the paper's Fig. 4) and verified by probing.
//! 3. **[`allocation`]** — each incident type gets a frequency budget and
//!    contribution shares into consequence classes; the fulfilment
//!    inequality (the paper's Eq. 1) `Σ_k f(v_j, I_k) ≤ f_acc(v_j)` is
//!    checked per class, and solvers distribute budgets automatically.
//! 4. **[`safety_goal`]** — every incident type becomes one safety goal
//!    with a quantitative integrity attribute, rendered exactly like the
//!    paper's *SG-I2*, together with a completeness certificate tying the
//!    goal set to the MECE leaves.
//! 5. **[`verification`]** — an evidence ledger (incident masses over
//!    fleet exposure) turns into statistically sound verdicts per safety
//!    goal and per consequence class (exact Poisson upper bounds from
//!    `qrn-stats`), through the one Eq. (1) kernel the fleet burn-down
//!    shares.
//!
//! # Quickstart
//!
//! ```
//! use qrn_core::examples::{paper_allocation, paper_classification, paper_norm};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let norm = paper_norm()?;
//! let classification = paper_classification()?;
//! let allocation = paper_allocation(&classification)?;
//!
//! // Eq. (1): every consequence class stays within its budget.
//! let report = allocation.check(&norm)?;
//! assert!(report.is_fulfilled());
//!
//! // One safety goal per incident type, completeness certified.
//! let goals = qrn_core::safety_goal::derive_safety_goals(&classification, &allocation)?;
//! assert!(goals.iter().any(|g| g.id() == "SG-I2"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod classification;
pub mod consequence;
pub mod error;
pub mod examples;
pub mod incident;
pub mod norm;
pub mod object;
pub mod report;
pub mod safety_case;
pub mod safety_goal;
pub mod verification;

#[cfg(test)]
mod proptests;

pub use allocation::{
    allocate_proportional, allocate_waterfill, Allocation, FulfilmentReport, ShareMatrix,
};
pub use classification::{GroupRules, IncidentClassification, MeceReport};
pub use consequence::{ConsequenceClass, ConsequenceClassId, ConsequenceDomain};
pub use error::CoreError;
pub use incident::{IncidentKind, IncidentRecord, IncidentType, IncidentTypeId, ToleranceMargin};
pub use norm::QuantitativeRiskNorm;
pub use object::{Involvement, InvolvementClass, ObjectType};
pub use safety_case::{ClaimStatus, SafetyCase};
pub use safety_goal::{derive_safety_goals, CompletenessCertificate, SafetyGoal};
pub use verification::{ClassVerdict, Verdict, VerificationReport};
