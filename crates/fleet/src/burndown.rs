//! Budget burn-down: live fleet state × (norm, allocation) → alerting.
//!
//! For every incident type `I_k` with budget `f_{I_k}` the tracker runs
//! two complementary statistical instruments over the same evidence:
//!
//! * **Wald's SPRT** ([`qrn_stats::sequential::PoissonSprt`]) of
//!   `H0: rate = fraction·budget` against `H1: rate = budget` — the
//!   *sequential* view, legitimate to consult after every event, which is
//!   exactly what a continuously-monitoring fleet does.
//! * The **exact Poisson upper bound** (Garwood) at the configured
//!   confidence — the *snapshot* view, comparable with the design-time
//!   verification in `qrn_core::verification`.
//!
//! # Alert levels
//!
//! | Level | Meaning | Trigger |
//! |---|---|---|
//! | `Ok` | consuming the budget as planned | neither of the below |
//! | `Watch` | consumption is elevated; investigate | point estimate ≥ `watch_ratio`·budget |
//! | `Burned` | budget statistically exhausted | SPRT accepts H1, or the exact lower bound exceeds the budget |
//!
//! `Burned` is deliberately evidence-based, not point-estimate-based: one
//! unlucky incident in ten fleet-hours does not burn a `1e-6/h` budget —
//! it sets `Watch` until the exposure is large enough for the SPRT or the
//! exact bound to conclude. Consequence-class (`v_j`) rows reuse the
//! conservative share-matrix propagation of `qrn_core::verification`:
//! class upper bounds sum per-type upper bounds, so a class-level `Ok` is
//! trustworthy while a class-level `Burned` (lower bounds above budget) is
//! a strong flag to read the per-goal rows.

use std::borrow::Cow;
use std::fmt;

use serde::{Deserialize, Serialize};

use qrn_core::allocation::Allocation;
use qrn_core::consequence::ConsequenceClassId;
use qrn_core::incident::IncidentTypeId;
use qrn_core::norm::QuantitativeRiskNorm;
use qrn_core::verification::{check_referenced_classes, class_loads, GoalEvidence, RateBounds};
use qrn_stats::confseq::{BudgetEValue, GammaMixture, PoissonConfSeq};
use qrn_stats::evidence::EvidenceLedger;
use qrn_stats::poisson::{PoissonRate, WeightedCount, WeightedPoissonRate};
use qrn_stats::sequential::{PoissonSprt, SprtDecision};
use qrn_units::{Frequency, Hours};

use crate::error::FleetError;
use crate::event::SkipCounts;
use crate::ingest::{FleetState, FleetTotals};

/// Version of the [`FleetReport`] artefact schema. Version 2 added the
/// `weighted` goal field, the `zones` rows and the `by_zone` config flag
/// when burn-down moved onto [`EvidenceLedger`] evidence. Version 3 added
/// the per-goal `looks` counter for repeated-SPRT-look accounting.
pub const REPORT_SCHEMA_VERSION: u64 = 3;

/// Schema version stamped on reports produced in *sequential* mode
/// ([`BurnDownConfig::sequential`]): version 4 adds the per-goal
/// `seq_lower` / `seq_upper` / `e_value` columns and switches the alert
/// verdict to the anytime-valid confidence-sequence/e-process test.
/// Non-sequential reports keep [`REPORT_SCHEMA_VERSION`] and their exact
/// legacy bytes.
pub const SEQUENTIAL_REPORT_SCHEMA_VERSION: u64 = 4;

/// Escalation level of one budget row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AlertLevel {
    /// Budget consumption is unremarkable.
    Ok,
    /// Consumption is elevated relative to the budget; investigate.
    Watch,
    /// The budget is statistically exhausted at the configured error
    /// levels.
    Burned,
}

impl fmt::Display for AlertLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlertLevel::Ok => f.write_str("ok"),
            AlertLevel::Watch => f.write_str("WATCH"),
            AlertLevel::Burned => f.write_str("BURNED"),
        }
    }
}

/// Parameters of the burn-down analysis.
///
/// Serialisation is hand-written: the `sequential` flag is emitted only
/// when set, so non-sequential configs serialise to exactly their
/// pre-sequential bytes, and deserialisation defaults a missing
/// `sequential` to `false` so old artefacts load unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnDownConfig {
    /// One-sided confidence for the exact Poisson bounds.
    pub confidence: f64,
    /// SPRT α: probability of accepting H1 when the true rate is the
    /// comfortable H0 fraction of the budget.
    pub alpha: f64,
    /// SPRT β: probability of accepting H0 when the true rate is at the
    /// budget.
    pub beta: f64,
    /// H0 rate as a fraction of the budget (`0 < fraction < 1`): the rate
    /// the safety organisation planned for.
    pub sprt_fraction: f64,
    /// Point-estimate share of budget above which a row escalates to
    /// [`AlertLevel::Watch`].
    pub watch_ratio: f64,
    /// Emit per-context burn-down rows for every named context in the
    /// evidence ledger. Named contexts are canonical ODD-band keys
    /// (`lighting=dusk,weather=fog,zone=school`) for banded logs, or bare
    /// zone names for legacy campaign ledgers — the field keeps its
    /// historical `by_zone` name (and serialised spelling) from the days
    /// when zones were the only contexts.
    pub by_zone: bool,
    /// Anytime-valid sequential mode. When set, every goal row carries a
    /// gamma-mixture confidence sequence (`seq_lower` / `seq_upper`, at
    /// level [`BurnDownConfig::confidence`]) and a budget e-process
    /// (`e_value`), and the `Ok/Watch/Burned` verdict comes from them:
    /// `Burned` iff the e-value reaches `1/alpha` or the sequence's lower
    /// bound clears the budget — tests whose error guarantees survive
    /// unlimited data-dependent looks. The SPRT and Garwood columns are
    /// still computed, as byte-stable descriptive legacy, and `looks`
    /// becomes purely informational.
    pub sequential: bool,
}

impl Serialize for BurnDownConfig {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert(String::from("confidence"), self.confidence.to_value());
        map.insert(String::from("alpha"), self.alpha.to_value());
        map.insert(String::from("beta"), self.beta.to_value());
        map.insert(String::from("sprt_fraction"), self.sprt_fraction.to_value());
        map.insert(String::from("watch_ratio"), self.watch_ratio.to_value());
        map.insert(String::from("by_zone"), self.by_zone.to_value());
        if self.sequential {
            map.insert(String::from("sequential"), self.sequential.to_value());
        }
        serde::Value::Object(map)
    }
}

impl Deserialize for BurnDownConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Object(map) = value else {
            return Err(serde::Error::expected("object", value, "BurnDownConfig"));
        };
        Ok(BurnDownConfig {
            confidence: serde::__private::field(map, "confidence")?,
            alpha: serde::__private::field(map, "alpha")?,
            beta: serde::__private::field(map, "beta")?,
            sprt_fraction: serde::__private::field(map, "sprt_fraction")?,
            watch_ratio: serde::__private::field(map, "watch_ratio")?,
            by_zone: serde::__private::field(map, "by_zone")?,
            // Absent in every pre-sequential artefact: default off.
            sequential: match map.get("sequential") {
                Some(v) => bool::from_value(v)?,
                None => false,
            },
        })
    }
}

/// Dimension filter over named evidence contexts: the parsed form of one
/// or more `--where dim=value` clauses. A context key matches when every
/// clause's `dim=value` pair appears among the key's pairs; the empty
/// filter matches everything. Legacy bare-name contexts (no `=`) only
/// match the empty filter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContextFilter {
    clauses: Vec<(String, String)>,
}

impl ContextFilter {
    /// The filter matching every context.
    pub fn all() -> Self {
        ContextFilter::default()
    }

    /// Parses `dim=value` clauses (e.g. from repeated `--where` flags).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for a clause without `=` or
    /// with an empty dimension or value.
    pub fn parse<I, S>(clauses: I) -> Result<Self, FleetError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut parsed = Vec::new();
        for clause in clauses {
            let clause = clause.as_ref();
            let (dim, value) = clause.split_once('=').ok_or_else(|| {
                FleetError::InvalidConfig(format!(
                    "context filter clause {clause:?} is not of the form dim=value"
                ))
            })?;
            if dim.is_empty() || value.is_empty() {
                return Err(FleetError::InvalidConfig(format!(
                    "context filter clause {clause:?} has an empty dimension or value"
                )));
            }
            parsed.push((dim.to_string(), value.to_string()));
        }
        Ok(ContextFilter { clauses: parsed })
    }

    /// True when the filter has no clauses (matches everything).
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// True when the named context satisfies every clause.
    pub fn wants(&self, context: &str) -> bool {
        self.clauses.iter().all(|(dim, value)| {
            context
                .split(',')
                .any(|pair| pair.split_once('=') == Some((dim.as_str(), value.as_str())))
        })
    }
}

impl Default for BurnDownConfig {
    fn default() -> Self {
        BurnDownConfig {
            confidence: 0.95,
            alpha: 0.05,
            beta: 0.05,
            sprt_fraction: 0.1,
            watch_ratio: 0.5,
            by_zone: false,
            sequential: false,
        }
    }
}

impl BurnDownConfig {
    /// The escalation level of a row: `Burned` on statistical exhaustion,
    /// else `Watch` once the point estimate consumes `watch_ratio` of the
    /// budget.
    fn alert(&self, burned: bool, consumed: f64) -> AlertLevel {
        if burned {
            AlertLevel::Burned
        } else if consumed >= self.watch_ratio {
            AlertLevel::Watch
        } else {
            AlertLevel::Ok
        }
    }

    fn validate(&self) -> Result<(), FleetError> {
        for (name, v) in [
            ("confidence", self.confidence),
            ("alpha", self.alpha),
            ("beta", self.beta),
            ("sprt_fraction", self.sprt_fraction),
        ] {
            if !(v.is_finite() && 0.0 < v && v < 1.0) {
                return Err(FleetError::InvalidConfig(format!(
                    "{name} must lie strictly between 0 and 1, got {v}"
                )));
            }
        }
        if !(self.watch_ratio.is_finite() && self.watch_ratio > 0.0) {
            return Err(FleetError::InvalidConfig(format!(
                "watch_ratio must be positive, got {}",
                self.watch_ratio
            )));
        }
        Ok(())
    }
}

/// Burn-down row of one incident-type budget (one safety goal).
///
/// Serialisation is hand-written so the sequential columns are omitted
/// entirely when absent: a non-sequential row serialises to exactly its
/// pre-sequential bytes.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct GoalBurnDown {
    /// The incident type.
    pub incident: IncidentTypeId,
    /// Its frequency budget `f_{I_k}`.
    pub budget: Frequency,
    /// Observed count over the fleet exposure (number of weighted
    /// observations; equal to the raw event count for unit-weight
    /// evidence).
    pub observed: PoissonRate,
    /// The weighted view of the same evidence, present only when the
    /// evidence actually carries non-unit likelihood weights (e.g. merged
    /// multilevel-splitting campaign ledgers). When set, `point`,
    /// `upper_bound` and the SPRT decision are computed from the Kish
    /// effective count `k_eff` over the effective exposure `T_eff`.
    pub weighted: Option<WeightedPoissonRate>,
    /// Point estimate of the rate (count / exposure; zero at zero
    /// exposure).
    pub point: Frequency,
    /// Exact one-sided upper confidence bound on the rate.
    pub upper_bound: Frequency,
    /// `point / budget`: the fraction of the budget the point estimate
    /// consumes.
    pub consumed: f64,
    /// The sequential test's current decision.
    pub sprt: SprtDecision,
    /// How many times this goal's SPRT has been consulted against this
    /// (growing) evidence stream, **including this report**. A one-shot
    /// offline report is its own first look, so the burn-down functions
    /// always report `1`; the `qrn-serve` live server and `fleet report
    /// --checkpoint` stamp their persisted per-goal look counters instead.
    /// Wald's SPRT is sequentially valid — its error guarantees survive
    /// continuous monitoring — but the exact Poisson bounds are snapshot
    /// statistics: consulting them repeatedly at every look inflates
    /// their effective error rate, which is why the counter is carried in
    /// the artefact (see DESIGN §10). In sequential mode the verdict comes
    /// from the anytime-valid columns below and the counter is purely
    /// informational.
    pub looks: u64,
    /// The escalation level.
    pub alert: AlertLevel,
    /// Lower endpoint of the anytime-valid confidence sequence for the
    /// rate (sequential mode only; zero at zero exposure).
    pub seq_lower: Option<Frequency>,
    /// Upper endpoint of the anytime-valid confidence sequence
    /// (sequential mode only; zero at zero exposure, where the sequence
    /// is vacuous).
    pub seq_upper: Option<Frequency>,
    /// Running e-value of the budget e-process (sequential mode only).
    /// Starts at 1; `e_value ≥ 1/alpha` at any look is the anytime-valid
    /// `Burned` rejection of "the rate is within budget". Capped at
    /// `f64::MAX` for JSON representability.
    pub e_value: Option<f64>,
}

impl Serialize for GoalBurnDown {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert(String::from("incident"), self.incident.to_value());
        map.insert(String::from("budget"), self.budget.to_value());
        map.insert(String::from("observed"), self.observed.to_value());
        // `weighted` keeps its explicit `null` from the derived days —
        // legacy rows must stay byte-identical.
        map.insert(String::from("weighted"), self.weighted.to_value());
        map.insert(String::from("point"), self.point.to_value());
        map.insert(String::from("upper_bound"), self.upper_bound.to_value());
        map.insert(String::from("consumed"), self.consumed.to_value());
        map.insert(String::from("sprt"), self.sprt.to_value());
        map.insert(String::from("looks"), self.looks.to_value());
        map.insert(String::from("alert"), self.alert.to_value());
        if let Some(v) = &self.seq_lower {
            map.insert(String::from("seq_lower"), v.to_value());
        }
        if let Some(v) = &self.seq_upper {
            map.insert(String::from("seq_upper"), v.to_value());
        }
        if let Some(v) = &self.e_value {
            map.insert(String::from("e_value"), v.to_value());
        }
        serde::Value::Object(map)
    }
}

/// Burn-down row of one consequence class of the norm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassBurnDown {
    /// The consequence class.
    pub class: ConsequenceClassId,
    /// Its acceptable budget `f_acc(v_j)`.
    pub budget: Frequency,
    /// Point estimate of the class load (share-weighted sum of point
    /// rates).
    pub point_load: Frequency,
    /// Conservative upper bound on the class load (share-weighted sum of
    /// per-type upper bounds).
    pub load_upper_bound: Frequency,
    /// `point_load / budget`.
    pub consumed: f64,
    /// The escalation level.
    pub alert: AlertLevel,
}

/// Burn-down rows of one named evidence context: the context's share of
/// the exposure and its per-goal budget consumption, computed from its
/// refinement row in the [`EvidenceLedger`]. The context name is a
/// canonical ODD-band key for banded fleet logs (any number of
/// dimensions), or a bare zone name for legacy campaign ledgers — the
/// struct and its `zone` field keep their historical names for artefact
/// compatibility.
///
/// Context rows are *refinements*: per-goal alerts here localise where a
/// budget is being spent, while the authoritative global verdict stays
/// with [`FleetReport::goals`] (computed from the exact global row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZoneBurnDown {
    /// The context name (serialised as `zone` for artefact
    /// compatibility).
    pub zone: String,
    /// Exposure attributed to this zone, hours.
    pub exposure_hours: f64,
    /// Per-safety-goal rows within this zone, in incident-id order.
    pub goals: Vec<GoalBurnDown>,
}

/// The serialisable burn-down artefact: one snapshot of "how fast is the
/// fleet spending its risk budgets".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Version of this report schema (see [`REPORT_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Analysis parameters.
    pub config: BurnDownConfig,
    /// Total fleet exposure, hours.
    pub exposure_hours: f64,
    /// Distinct vehicles that reported.
    pub vehicles: u64,
    /// Events successfully parsed.
    pub events: u64,
    /// Raw observations that were not incidents under the classification.
    pub unclassified: u64,
    /// Skipped-line tallies of the underlying log.
    pub skipped: SkipCounts,
    /// Per-safety-goal rows, in incident-id order.
    pub goals: Vec<GoalBurnDown>,
    /// Per-consequence-class rows, in severity order.
    pub classes: Vec<ClassBurnDown>,
    /// Per-zone refinement rows (empty unless
    /// [`BurnDownConfig::by_zone`] is set), in zone-name order.
    pub zones: Vec<ZoneBurnDown>,
}

impl FleetReport {
    /// Returns `true` when any goal or class is burned.
    pub fn any_burned(&self) -> bool {
        self.goals.iter().any(|g| g.alert == AlertLevel::Burned)
            || self.classes.iter().any(|c| c.alert == AlertLevel::Burned)
    }

    /// The highest alert level across all rows.
    pub fn worst_alert(&self) -> AlertLevel {
        self.goals
            .iter()
            .map(|g| g.alert)
            .chain(self.classes.iter().map(|c| c.alert))
            .max()
            .unwrap_or(AlertLevel::Ok)
    }

    /// The row of one goal, if present.
    pub fn goal(&self, id: &IncidentTypeId) -> Option<&GoalBurnDown> {
        self.goals.iter().find(|g| &g.incident == id)
    }

    /// The row of one class, if present.
    pub fn class(&self, id: &ConsequenceClassId) -> Option<&ClassBurnDown> {
        self.classes.iter().find(|c| &c.class == id)
    }

    /// Canonical pretty-printed JSON. Deterministic: the same state and
    /// config always produce the same bytes, for any ingest shard count.
    pub fn to_canonical_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports are serialisable")
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fleet burn-down over {:.1} h from {} vehicles ({} events, {} lines skipped):",
            self.exposure_hours,
            self.vehicles,
            self.events,
            self.skipped.total(),
        )?;
        for g in &self.goals {
            writeln!(
                f,
                "  I_{}: {} events, point {} / budget {} ({:.0}% consumed), sprt {:?} -> {}",
                g.incident,
                g.observed.count,
                g.point,
                g.budget,
                g.consumed * 100.0,
                g.sprt,
                g.alert,
            )?;
        }
        for c in &self.classes {
            writeln!(
                f,
                "  {}: load {} / budget {} ({:.0}% consumed) -> {}",
                c.class,
                c.point_load,
                c.budget,
                c.consumed * 100.0,
                c.alert,
            )?;
        }
        for z in &self.zones {
            let label = if z.zone.contains('=') {
                "context"
            } else {
                "zone"
            };
            writeln!(f, "  {label} {} ({:.1} h):", z.zone, z.exposure_hours)?;
            for g in &z.goals {
                writeln!(
                    f,
                    "    I_{}: {} events, point {} / budget {} ({:.0}% consumed) -> {}",
                    g.incident,
                    g.observed.count,
                    g.point,
                    g.budget,
                    g.consumed * 100.0,
                    g.alert,
                )?;
            }
        }
        Ok(())
    }
}

/// Per-goal rows over one evidence slice (the global row or one context's
/// refinement row), plus the per-goal triples the class propagation
/// needs: the Eq. (1) bounds, with the anytime-valid lower bound standing
/// in for Garwood's in sequential mode so the class rows inherit the
/// verdict's currency.
fn goal_rows(
    allocation: &Allocation,
    exposure: Hours,
    count_of: &dyn Fn(&str) -> WeightedCount,
    config: &BurnDownConfig,
) -> Result<(Vec<GoalBurnDown>, Vec<RateBounds>), FleetError> {
    let mut goals = Vec::new();
    let mut triples = Vec::new();
    for (incident, budget) in allocation.budgets() {
        if budget.as_per_hour() <= 0.0 {
            return Err(FleetError::InvalidConfig(format!(
                "incident {incident} has a zero budget; burn-down needs positive budgets"
            )));
        }
        let evidence = GoalEvidence::new(count_of(incident.as_str()), exposure);
        // With zero exposure there is no evidence in either direction: the
        // exact bounds are undefined (reported as zero) and only the SPRT's
        // `Continue` carries meaning.
        let bounds = if exposure.value() > 0.0 {
            evidence.bounds(config.confidence)?
        } else {
            RateBounds::default()
        };
        // Weighted evidence is monitored as its Kish effective count over
        // the effective exposure; unit weights as the raw count.
        let (k_eff, t_eff) = evidence.effective();
        let sprt = PoissonSprt::new(
            budget.scaled(config.sprt_fraction)?,
            budget,
            config.alpha,
            config.beta,
        )?
        .decide_effective(k_eff, t_eff);
        let consumed = bounds.point.ratio(budget).unwrap_or(0.0);
        // Sequential mode: the same effective evidence drives the
        // anytime-valid instruments — a confidence sequence at the
        // configured confidence and the budget e-process at SPRT α — and
        // the verdict moves onto them.
        let (seq_lower, seq_upper, e_value, burned) = if config.sequential {
            let mixture = GammaMixture::default_at(budget)?;
            let confseq = PoissonConfSeq::new(1.0 - config.confidence, mixture)?;
            let log_e = BudgetEValue::new(budget, mixture)?.log_e_value_effective(k_eff, t_eff)?;
            let (seq_lo, seq_hi) = if t_eff.value() > 0.0 {
                let interval = confseq.interval_effective(k_eff, t_eff)?;
                (interval.lower, interval.upper)
            } else {
                // No exposure: the sequence is vacuous, reported as zeros
                // like the exact bounds.
                (Frequency::ZERO, Frequency::ZERO)
            };
            (
                Some(seq_lo),
                Some(seq_hi),
                Some(log_e.exp().min(f64::MAX)),
                log_e >= -config.alpha.ln() || seq_lo > budget,
            )
        } else {
            let burned = sprt == SprtDecision::AcceptAlternative || bounds.lower > budget;
            (None, None, None, burned)
        };
        triples.push(RateBounds {
            lower: seq_lower.unwrap_or(bounds.lower),
            ..bounds
        });
        goals.push(GoalBurnDown {
            incident: incident.clone(),
            budget,
            observed: evidence.observed,
            weighted: evidence.weighted,
            point: bounds.point,
            upper_bound: bounds.upper,
            consumed,
            sprt,
            looks: 1,
            alert: config.alert(burned, consumed),
            seq_lower,
            seq_upper,
            e_value,
        });
    }
    Ok((goals, triples))
}

/// Computes the burn-down of every budget directly against an
/// [`EvidenceLedger`] — the evidence-currency entry point. The ledger may
/// be pure fleet evidence ([`FleetState::evidence`]), a design-time
/// campaign ledger (weighted or not), or any merge of the two
/// ([`join_evidence`]); weighted counts are monitored via their Kish
/// effective statistics while unit-weight evidence takes the exact
/// integer-count analysis. A [`ContextFilter`] restricts which named
/// contexts get refinement rows (when [`BurnDownConfig::by_zone`] is
/// set); it only selects rows — the global goal and class verdicts always
/// cover the whole ledger, so filtering can never hide a burned budget.
///
/// The per-goal bounds, class propagation and referenced-class check are
/// the Eq. (1) kernel of `qrn_core::verification`; this function adds the
/// SPRT and confidence-sequence columns and the zero-exposure rule.
/// Fleet-operational metadata (vehicles, events, skip tallies) is zeroed
/// here; [`burn_down_state`] fills it from a [`FleetTotals`].
///
/// # Errors
///
/// Returns [`FleetError`] for an invalid configuration, a zero budget in
/// the allocation (a zero budget cannot parametrise the SPRT), or a share
/// matrix referencing classes outside the norm.
pub fn burn_down_evidence_filtered(
    norm: &QuantitativeRiskNorm,
    allocation: &Allocation,
    evidence: &EvidenceLedger,
    config: &BurnDownConfig,
    filter: &ContextFilter,
) -> Result<FleetReport, FleetError> {
    config.validate()?;
    check_referenced_classes(norm, allocation)?;
    let exposure = Hours::new(evidence.exposure())?;
    let (goals, triples) = goal_rows(allocation, exposure, &|k| evidence.count(k), config)?;
    let classes = class_loads(norm, allocation, &triples)
        .map(|(class, budget, load)| {
            let consumed = load.point.ratio(budget).unwrap_or(0.0);
            ClassBurnDown {
                class: class.clone(),
                budget,
                point_load: load.point,
                load_upper_bound: load.upper,
                consumed,
                alert: config.alert(load.lower > budget, consumed),
            }
        })
        .collect();
    let mut zones = Vec::new();
    if config.by_zone {
        for (name, row) in evidence.named_contexts() {
            if !filter.wants(name) {
                continue;
            }
            let zone_exposure = Hours::new(row.exposure_hours())?;
            let (zone_goals, _) = goal_rows(allocation, zone_exposure, &|k| row.count(k), config)?;
            zones.push(ZoneBurnDown {
                zone: name.to_string(),
                exposure_hours: row.exposure_hours(),
                goals: zone_goals,
            });
        }
    }
    Ok(FleetReport {
        schema_version: if config.sequential {
            SEQUENTIAL_REPORT_SCHEMA_VERSION
        } else {
            REPORT_SCHEMA_VERSION
        },
        config: *config,
        exposure_hours: evidence.exposure(),
        vehicles: 0,
        events: 0,
        unclassified: evidence.unclassified().observations(),
        skipped: SkipCounts::default(),
        goals,
        classes,
        zones,
    })
}

/// A fleet's evidence joined with design-time ledgers: `fleet` merged with
/// every ledger of `extra`, in order. This is the one join behind every
/// combined report — served burn-downs and metrics, `qrn fleet report
/// --evidence` and `qrn verify --evidence`.
///
/// The fleet ledger is copied only when there is something to merge.
pub fn join_evidence<'a>(
    fleet: &'a EvidenceLedger,
    extra: &[EvidenceLedger],
) -> Cow<'a, EvidenceLedger> {
    extra
        .iter()
        .fold(Cow::Borrowed(fleet), |mut joined, ledger| {
            joined.to_mut().merge(ledger);
            joined
        })
}

/// [`burn_down_evidence_filtered`] over `evidence` — the totals' own
/// ledger or a [`join_evidence`] of it — stamped with the totals'
/// operational metadata (vehicles, events, skip tallies). Takes
/// [`FleetTotals`], not a [`FleetState`]: a verdict never reads the
/// per-vehicle map.
///
/// # Errors
///
/// As [`burn_down_evidence_filtered`].
pub fn burn_down_state(
    norm: &QuantitativeRiskNorm,
    allocation: &Allocation,
    totals: &FleetTotals,
    evidence: &EvidenceLedger,
    config: &BurnDownConfig,
    filter: &ContextFilter,
) -> Result<FleetReport, FleetError> {
    let mut report = burn_down_evidence_filtered(norm, allocation, evidence, config, filter)?;
    report.vehicles = totals.vehicle_count();
    report.events = totals.events();
    report.skipped = totals.skipped();
    Ok(report)
}

/// Computes the burn-down of every incident-type and consequence-class
/// budget against the live fleet state, with refinement rows restricted
/// by `filter` (pass [`ContextFilter::all`] for every context).
///
/// # Errors
///
/// As [`burn_down_evidence_filtered`].
pub fn burn_down_filtered(
    norm: &QuantitativeRiskNorm,
    allocation: &Allocation,
    state: &FleetState,
    config: &BurnDownConfig,
    filter: &ContextFilter,
) -> Result<FleetReport, FleetError> {
    burn_down_state(
        norm,
        allocation,
        state.totals(),
        state.evidence(),
        config,
        filter,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{to_jsonl, FleetEvent};
    use crate::ingest::ingest_str;
    use qrn_core::examples::{paper_allocation, paper_classification, paper_norm};
    use qrn_core::incident::IncidentRecord;
    use qrn_core::object::{Involvement, ObjectType};
    use qrn_units::{Hours, Speed};

    fn clean_log(hours_total: f64) -> String {
        let events: Vec<FleetEvent> = (0..13)
            .map(|i| FleetEvent::Exposure {
                vehicle: format!("V{i:03}"),
                hours: Hours::new(hours_total / 13.0).unwrap(),
            })
            .collect();
        to_jsonl(&events)
    }

    fn vru_crash_log(hours_total: f64, crashes: usize) -> String {
        let mut events = vec![FleetEvent::Exposure {
            vehicle: "V000".into(),
            hours: Hours::new(hours_total).unwrap(),
        }];
        for i in 0..crashes {
            events.push(FleetEvent::Incident {
                vehicle: format!("V{:03}", i % 7),
                record: IncidentRecord::collision(
                    Involvement::ego_with(ObjectType::Vru),
                    Speed::from_kmh(30.0).unwrap(),
                ),
            });
        }
        to_jsonl(&events)
    }

    fn setup(log: &str) -> FleetReport {
        let norm = paper_norm().unwrap();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        let state = ingest_str(log, &classification, 2).unwrap();
        burn_down_filtered(
            &norm,
            &allocation,
            &state,
            &BurnDownConfig::default(),
            &ContextFilter::all(),
        )
        .unwrap()
    }

    #[test]
    fn clean_fleet_is_ok_everywhere_eventually() {
        // Long clean exposure: every SPRT accepts H0, nothing consumed.
        // Needs to be astronomically long because zero-event acceptance of
        // the *smallest* budget takes T ≳ ln((1-α)/β) / (0.9·f_{I_k}).
        let report = setup(&clean_log(1.0e12));
        assert!(!report.any_burned());
        assert_eq!(report.worst_alert(), AlertLevel::Ok);
        for g in &report.goals {
            assert_eq!(g.sprt, SprtDecision::AcceptNull, "{}", g.incident);
            assert_eq!(g.observed.count, 0);
            assert_eq!(g.consumed, 0.0);
        }
    }

    #[test]
    fn young_fleet_is_ok_but_undecided() {
        let report = setup(&clean_log(100.0));
        assert!(!report.any_burned());
        for g in &report.goals {
            assert_eq!(g.sprt, SprtDecision::Continue, "{}", g.incident);
        }
    }

    #[test]
    fn over_budget_type_burns_with_accept_alternative() {
        // 40 severe VRU collisions (I3) in 1000 h: astronomically above
        // I3's ~1e-7/h budget.
        let report = setup(&vru_crash_log(1000.0, 40));
        let i3 = report.goal(&"I3".into()).unwrap();
        assert_eq!(i3.alert, AlertLevel::Burned);
        assert_eq!(i3.sprt, SprtDecision::AcceptAlternative);
        assert!(i3.consumed > 1.0);
        assert!(report.any_burned());
        assert_eq!(report.worst_alert(), AlertLevel::Burned);
        // The classes I3 feeds into burn too.
        assert_eq!(
            report.class(&"vS3".into()).unwrap().alert,
            AlertLevel::Burned
        );
    }

    #[test]
    fn zero_exposure_reports_without_panic() {
        let report = setup("");
        assert_eq!(report.exposure_hours, 0.0);
        for g in &report.goals {
            assert_eq!(g.point, Frequency::ZERO);
            assert_eq!(g.consumed, 0.0);
            // No evidence at all: the sequential test must keep observing.
            assert_eq!(g.sprt, SprtDecision::Continue);
            assert_ne!(g.alert, AlertLevel::Burned);
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let norm = paper_norm().unwrap();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        let state = ingest_str("", &classification, 1).unwrap();
        for bad in [
            BurnDownConfig {
                confidence: 1.0,
                ..BurnDownConfig::default()
            },
            BurnDownConfig {
                alpha: 0.0,
                ..BurnDownConfig::default()
            },
            BurnDownConfig {
                sprt_fraction: 1.5,
                ..BurnDownConfig::default()
            },
            BurnDownConfig {
                watch_ratio: -1.0,
                ..BurnDownConfig::default()
            },
        ] {
            assert!(
                burn_down_filtered(&norm, &allocation, &state, &bad, &ContextFilter::all())
                    .is_err()
            );
        }
    }

    #[test]
    fn report_carries_schema_version_3_and_no_zone_rows_by_default() {
        let report = setup(&clean_log(100.0));
        assert_eq!(report.schema_version, REPORT_SCHEMA_VERSION);
        assert!(report.zones.is_empty());
        assert!(report.goals.iter().all(|g| g.weighted.is_none()));
        // An offline one-shot report is its own first SPRT look.
        assert!(report.goals.iter().all(|g| g.looks == 1));
    }

    #[test]
    fn ledger_burn_down_matches_state_burn_down() {
        // The FleetState path is the evidence path plus operational
        // metadata: rows must be identical.
        let norm = paper_norm().unwrap();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        let state = ingest_str(&vru_crash_log(5000.0, 3), &classification, 2).unwrap();
        let config = BurnDownConfig::default();
        let from_state =
            burn_down_filtered(&norm, &allocation, &state, &config, &ContextFilter::all()).unwrap();
        let from_ledger = burn_down_evidence_filtered(
            &norm,
            &allocation,
            state.evidence(),
            &config,
            &ContextFilter::all(),
        )
        .unwrap();
        assert_eq!(from_state.goals, from_ledger.goals);
        assert_eq!(from_state.classes, from_ledger.classes);
        assert_eq!(from_state.exposure_hours, from_ledger.exposure_hours);
        assert_eq!(from_ledger.vehicles, 0);
        assert_eq!(from_state.vehicles, state.vehicle_count());
    }

    #[test]
    fn fleet_and_verification_renderings_agree_bit_for_bit() {
        // One Eq. (1) evaluation, two renderings: on the same ledger and
        // confidence the burn-down's class loads are the verification
        // report's, to the bit.
        let norm = paper_norm().unwrap();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        let fleet = ingest_str(&vru_crash_log(5000.0, 3), &classification, 2).unwrap();
        let config = BurnDownConfig::default();
        for ledger in [fleet.evidence().clone(), weighted_ledger(), banded_ledger()] {
            let report = burn_down_evidence_filtered(
                &norm,
                &allocation,
                &ledger,
                &config,
                &ContextFilter::all(),
            )
            .unwrap();
            let verified =
                qrn_core::verification::verify(&norm, &allocation, &ledger, config.confidence)
                    .unwrap();
            assert_eq!(report.classes.len(), verified.classes.len());
            for (f, v) in report.classes.iter().zip(&verified.classes) {
                assert_eq!(f.class, v.class);
                let bits = |x: Frequency| x.as_per_hour().to_bits();
                assert_eq!(
                    bits(f.load_upper_bound),
                    bits(v.load_upper_bound),
                    "{}",
                    f.class
                );
                assert_eq!(bits(f.point_load), bits(v.point_load), "{}", f.class);
            }
            for (f, v) in report.goals.iter().zip(&verified.goals) {
                assert_eq!(f.incident, v.incident);
                assert_eq!(f.observed, v.observed);
                assert_eq!(f.weighted, v.weighted);
                assert_eq!(f.upper_bound, v.upper_bound, "{}", f.incident);
            }
        }
    }

    /// A weighted campaign-style ledger: 16 observations of weight 0.125
    /// on I3 over a million hours, with an "urban" refinement row.
    fn weighted_ledger() -> EvidenceLedger {
        let mut ledger = EvidenceLedger::new();
        ledger.add_exposure(None, 1.0e6);
        ledger.add_exposure(Some("urban"), 4.0e5);
        for _ in 0..16 {
            ledger.add_incident(None, "I3", 0.125);
            ledger.add_incident(Some("urban"), "I3", 0.125);
        }
        ledger
    }

    #[test]
    fn weighted_evidence_uses_effective_statistics() {
        let norm = paper_norm().unwrap();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        let config = BurnDownConfig::default();
        let report = burn_down_evidence_filtered(
            &norm,
            &allocation,
            &weighted_ledger(),
            &config,
            &ContextFilter::all(),
        )
        .unwrap();

        let i3 = report.goal(&"I3".into()).unwrap();
        let w = i3
            .weighted
            .as_ref()
            .expect("weighted evidence sets the weighted view");
        assert_eq!(i3.observed.count, 16);
        assert!((w.count.total() - 2.0).abs() < 1e-12);
        // Point estimate is the weighted mass over the exposure, not the
        // observation count.
        let exposure = Hours::new(1.0e6).unwrap();
        let expected_point = w.point_estimate().unwrap();
        assert_eq!(i3.point, expected_point);
        assert!(
            i3.point.as_per_hour()
                < PoissonRate::new(16, exposure)
                    .point_estimate()
                    .unwrap()
                    .as_per_hour()
        );
        // The upper bound comes from k_eff = 2 effective events, so it is
        // far below the integer-16 Garwood bound.
        let integer_upper = PoissonRate::new(16, exposure)
            .upper_bound(config.confidence)
            .unwrap();
        assert!(i3.upper_bound < integer_upper);
        // SPRT runs on (k_eff, T_eff), and must agree with calling the
        // test directly.
        let (k_eff, t_eff) = w.effective();
        let expected_sprt = PoissonSprt::new(
            i3.budget.scaled(config.sprt_fraction).unwrap(),
            i3.budget,
            config.alpha,
            config.beta,
        )
        .unwrap()
        .decide_effective(k_eff, t_eff);
        assert_eq!(i3.sprt, expected_sprt);
        // Unweighted goals in the same report stay on the exact path.
        assert!(report
            .goals
            .iter()
            .filter(|g| g.incident != "I3".into())
            .all(|g| g.weighted.is_none()));
    }

    #[test]
    fn by_zone_reports_refinement_rows() {
        let norm = paper_norm().unwrap();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        let config = BurnDownConfig {
            by_zone: true,
            ..BurnDownConfig::default()
        };
        let report = burn_down_evidence_filtered(
            &norm,
            &allocation,
            &weighted_ledger(),
            &config,
            &ContextFilter::all(),
        )
        .unwrap();
        assert_eq!(report.zones.len(), 1);
        let zone = &report.zones[0];
        assert_eq!(zone.zone, "urban");
        assert_eq!(zone.exposure_hours, 4.0e5);
        assert_eq!(zone.goals.len(), report.goals.len());
        let i3 = zone
            .goals
            .iter()
            .find(|g| g.incident == "I3".into())
            .unwrap();
        assert_eq!(i3.observed.count, 16);
        assert!(i3.weighted.is_some());
        // Same mass over less exposure: the zone's point estimate exceeds
        // the global one.
        let global_i3 = report.goal(&"I3".into()).unwrap();
        assert!(i3.point > global_i3.point);
        // The zone rows render in the text report.
        let text = report.to_string();
        assert!(text.contains("zone urban"), "{text}");
    }

    #[test]
    fn fleet_and_campaign_ledgers_merge_into_combined_burn_down() {
        // The acceptance scenario: operational fleet evidence (unit
        // weight, global row) merged with a weighted design-time campaign
        // ledger (weighted counts + zone refinement) drives one combined
        // burn-down.
        let norm = paper_norm().unwrap();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        let state = ingest_str(&vru_crash_log(2.0e5, 1), &classification, 2).unwrap();

        let combined = state.evidence().clone().merged(&weighted_ledger());
        let config = BurnDownConfig {
            by_zone: true,
            ..BurnDownConfig::default()
        };
        let report = burn_down_evidence_filtered(
            &norm,
            &allocation,
            &combined,
            &config,
            &ContextFilter::all(),
        )
        .unwrap();
        assert!((report.exposure_hours - 1.2e6).abs() < 1e-3);
        let i3 = report.goal(&"I3".into()).unwrap();
        // 1 fleet crash (weight 1) + 16 campaign observations (0.125 each).
        assert_eq!(i3.observed.count, 17);
        let w = i3.weighted.as_ref().expect("merged evidence is weighted");
        assert!((w.count.total() - 3.0).abs() < 1e-12);
        // Zone refinement survives the merge.
        assert_eq!(report.zones.len(), 1);
        assert_eq!(report.zones[0].zone, "urban");
    }

    /// A banded ledger with context-key rows across three dimensions.
    fn banded_ledger() -> EvidenceLedger {
        let mut ledger = EvidenceLedger::new();
        for (key, hours) in [
            ("lighting=day,weather=clear,zone=urban", 50.0),
            ("lighting=day,weather=fog,zone=urban", 20.0),
            ("lighting=night,weather=fog,zone=highway", 30.0),
        ] {
            ledger.add_exposure(None, hours);
            ledger.add_exposure(Some(key), hours);
        }
        ledger.add_incident(None, "I3", 1.0);
        ledger.add_incident(Some("lighting=day,weather=fog,zone=urban"), "I3", 1.0);
        ledger
    }

    #[test]
    fn context_filter_parses_and_matches_key_pairs() {
        let fog = ContextFilter::parse(["weather=fog"]).unwrap();
        assert!(fog.wants("lighting=day,weather=fog,zone=urban"));
        assert!(!fog.wants("lighting=day,weather=clear,zone=urban"));
        // bare legacy names match only the empty filter
        assert!(!fog.wants("urban"));
        assert!(ContextFilter::all().wants("urban"));
        let both = ContextFilter::parse(["weather=fog", "zone=urban"]).unwrap();
        assert!(both.wants("lighting=day,weather=fog,zone=urban"));
        assert!(!both.wants("lighting=night,weather=fog,zone=highway"));
        // a clause value must match the whole token, not a prefix
        let urban = ContextFilter::parse(["zone=urban"]).unwrap();
        assert!(!urban.wants("zone=urbanish"));
        assert!(ContextFilter::parse(["weather"]).is_err());
        assert!(ContextFilter::parse(["=fog"]).is_err());
        assert!(ContextFilter::parse(["weather="]).is_err());
    }

    #[test]
    fn by_context_rows_respect_the_dimension_filter() {
        let norm = paper_norm().unwrap();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        let config = BurnDownConfig {
            by_zone: true,
            ..BurnDownConfig::default()
        };
        let ledger = banded_ledger();
        let all = burn_down_evidence_filtered(
            &norm,
            &allocation,
            &ledger,
            &config,
            &ContextFilter::all(),
        )
        .unwrap();
        assert_eq!(all.zones.len(), 3);
        let fog = burn_down_evidence_filtered(
            &norm,
            &allocation,
            &ledger,
            &config,
            &ContextFilter::parse(["weather=fog"]).unwrap(),
        )
        .unwrap();
        assert_eq!(fog.zones.len(), 2);
        assert!(fog.zones.iter().all(|z| z.zone.contains("weather=fog")));
        // filtering selects rows; it never changes the global verdict
        assert_eq!(fog.goals, all.goals);
        assert_eq!(fog.classes, all.classes);
        assert_eq!(fog.exposure_hours, all.exposure_hours);
        // filtered rows are the matching subset of the unfiltered rows
        for z in &fog.zones {
            assert!(all.zones.contains(z));
        }
        // context-key rows render with the "context" label
        let text = fog.to_string();
        assert!(text.contains("context lighting=day,weather=fog,zone=urban"));
    }

    #[test]
    fn legacy_report_bytes_carry_no_sequential_keys() {
        // The flag off is the pre-sequential world: canonical JSON must
        // not even mention the new columns, so existing artefacts stay
        // byte-identical.
        let report = setup(&vru_crash_log(5000.0, 3));
        assert_eq!(report.schema_version, REPORT_SCHEMA_VERSION);
        let json = report.to_canonical_json();
        for key in ["seq_lower", "seq_upper", "e_value", "sequential"] {
            assert!(!json.contains(key), "legacy bytes grew a {key:?} key");
        }
        // The legacy `weighted: null` placeholder is still emitted.
        assert!(json.contains("\"weighted\": null"), "{json}");
    }

    fn sequential_report(log: &str) -> FleetReport {
        let norm = paper_norm().unwrap();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        let state = ingest_str(log, &classification, 2).unwrap();
        let config = BurnDownConfig {
            sequential: true,
            ..BurnDownConfig::default()
        };
        burn_down_filtered(&norm, &allocation, &state, &config, &ContextFilter::all()).unwrap()
    }

    #[test]
    fn sequential_mode_stamps_schema_4_and_fills_the_columns() {
        let report = sequential_report(&vru_crash_log(5000.0, 3));
        assert_eq!(report.schema_version, SEQUENTIAL_REPORT_SCHEMA_VERSION);
        for g in &report.goals {
            let lo = g.seq_lower.expect("sequential rows carry seq_lower");
            let hi = g.seq_upper.expect("sequential rows carry seq_upper");
            let e = g.e_value.expect("sequential rows carry e_value");
            assert!(lo <= hi, "{}", g.incident);
            assert!(e.is_finite() && e >= 0.0, "{}", g.incident);
            // Anytime validity costs width: the sequence's upper endpoint
            // is never tighter than Garwood's at the same evidence.
            assert!(hi >= g.upper_bound, "{}", g.incident);
        }
        let json = report.to_canonical_json();
        assert!(json.contains("\"seq_upper\""));
        assert!(json.contains("\"sequential\": true"));
    }

    #[test]
    fn sequential_verdict_burns_on_overwhelming_evidence_only() {
        // 40 I3 events in 1000 h, ~5 orders of magnitude over budget:
        // the e-process must reject.
        let burned = sequential_report(&vru_crash_log(1000.0, 40));
        let i3 = burned.goal(&"I3".into()).unwrap();
        assert_eq!(i3.alert, AlertLevel::Burned);
        assert!(i3.e_value.unwrap() > 1.0 / burned.config.alpha);
        // The class propagation uses the sequential lower bounds and
        // still flags the class I3 feeds.
        assert_eq!(
            burned.class(&"vS3".into()).unwrap().alert,
            AlertLevel::Burned
        );
        // A clean young fleet stays Ok: no evidence, e-value ≈ 1.
        let clean = sequential_report(&clean_log(100.0));
        for g in &clean.goals {
            assert_eq!(g.alert, AlertLevel::Ok, "{}", g.incident);
            assert!(g.e_value.unwrap() <= 1.0 + 1e-9, "{}", g.incident);
            assert_eq!(g.seq_lower.unwrap(), Frequency::ZERO);
        }
    }

    #[test]
    fn sequential_zero_exposure_reports_vacuous_zeros() {
        let report = sequential_report("");
        for g in &report.goals {
            assert_eq!(g.seq_lower.unwrap(), Frequency::ZERO);
            assert_eq!(g.seq_upper.unwrap(), Frequency::ZERO);
            assert!((g.e_value.unwrap() - 1.0).abs() < 1e-12);
            assert_ne!(g.alert, AlertLevel::Burned);
        }
    }

    #[test]
    fn sequential_report_round_trips_and_old_configs_deserialise() {
        let report = sequential_report(&vru_crash_log(5000.0, 3));
        let json = report.to_canonical_json();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert!(back.config.sequential);
        // A config serialised before the sequential column existed loads
        // with the flag off.
        let legacy = r#"{
            "confidence": 0.95, "alpha": 0.05, "beta": 0.05,
            "sprt_fraction": 0.1, "watch_ratio": 0.5, "by_zone": false
        }"#;
        let config: BurnDownConfig = serde_json::from_str(legacy).unwrap();
        assert!(!config.sequential);
        assert_eq!(config, BurnDownConfig::default());
    }

    #[test]
    fn sequential_weighted_evidence_drives_effective_statistics() {
        let norm = paper_norm().unwrap();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        let config = BurnDownConfig {
            sequential: true,
            ..BurnDownConfig::default()
        };
        let report = burn_down_evidence_filtered(
            &norm,
            &allocation,
            &weighted_ledger(),
            &config,
            &ContextFilter::all(),
        )
        .unwrap();
        let i3 = report.goal(&"I3".into()).unwrap();
        let w = i3.weighted.as_ref().unwrap();
        let (k_eff, t_eff) = w.effective();
        // The stored columns are exactly the confseq primitives evaluated
        // at the Kish effective statistics.
        let mixture = GammaMixture::default_at(i3.budget).unwrap();
        let expected = PoissonConfSeq::new(1.0 - config.confidence, mixture)
            .unwrap()
            .interval_effective(k_eff, t_eff)
            .unwrap();
        assert_eq!(i3.seq_lower.unwrap(), expected.lower);
        assert_eq!(i3.seq_upper.unwrap(), expected.upper);
        let expected_e = BudgetEValue::new(i3.budget, mixture)
            .unwrap()
            .log_e_value_effective(k_eff, t_eff)
            .unwrap()
            .exp();
        assert!((i3.e_value.unwrap() - expected_e).abs() <= 1e-12 * expected_e.abs());
    }

    #[test]
    fn report_serde_round_trip_and_canonical_json() {
        let report = setup(&vru_crash_log(5000.0, 3));
        let json = report.to_canonical_json();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert_eq!(back.to_canonical_json(), json);
    }

    #[test]
    fn display_lists_goals_classes_and_alerts() {
        let text = setup(&vru_crash_log(1000.0, 40)).to_string();
        assert!(text.contains("I_I3"));
        assert!(text.contains("BURNED"));
        assert!(text.contains("vS3"));
    }
}
