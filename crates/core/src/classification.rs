//! The incident classification: the paper's Fig. 4, made MECE by
//! construction and verified by probing.
//!
//! "We can guarantee completeness by making the classification scheme
//! complete by definition, i.e. every theoretically possible incident
//! belongs to one of the defined incident types" (Sec. III-B). The
//! construction here guarantees exactly that:
//!
//! * The top split is a *total function* from
//!   [`Involvement`](crate::object::Involvement) to
//!   [`InvolvementClass`] (an exhaustive `match` — see `qrn-core::object`),
//!   so no incident can fall outside the group level.
//! * Within a group, **collision** bands must tile `[0, ∞)` over impact
//!   speed: the builder takes ascending upper bounds plus a mandatory
//!   unbounded tail band, so every collision lands in exactly one band.
//! * **Near-miss** bands tile `[s₁, ∞)` over relative speed inside a
//!   distance margin; interactions milder than `s₁` (or farther than the
//!   margin) are *not incidents* — the classification itself defines where
//!   "undesired event" begins, mirroring the paper's quality incidents.
//!
//! Mutual exclusivity and collective exhaustiveness are therefore theorems
//! of the construction. [`IncidentClassification::verify_mece`] re-checks
//! them empirically by probing the whole event space and counting, for
//! each probe, how many leaf predicates match — defence in depth for the
//! safety case, and the generator behind the Fig. 4 experiment.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use qrn_stats::evidence::EvidenceLedger;
use qrn_stats::poisson::WeightedCount;
use qrn_units::{Hours, Meters, Speed};

use crate::error::CoreError;
use crate::incident::{
    IncidentKind, IncidentRecord, IncidentType, IncidentTypeId, ToleranceMargin,
};
use crate::object::InvolvementClass;

/// Near-miss (quality incident) banding for one involvement group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NearMissRule {
    /// Interactions count only when closer than this (exclusive).
    max_distance: Meters,
    /// Ascending relative-speed band starts; band `i` covers
    /// `[bounds[i], bounds[i+1])`, the last band is unbounded. Relative
    /// speeds below `bounds[0]` are not incidents.
    bounds: Vec<Speed>,
    /// One label per band.
    labels: Vec<String>,
}

/// Banding rules for one involvement group of the classification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupRules {
    /// Ascending internal impact-speed boundaries; with `n` boundaries the
    /// group has `n + 1` collision bands, the last unbounded.
    collision_bounds: Vec<Speed>,
    /// One label per collision band (`collision_bounds.len() + 1`).
    collision_labels: Vec<String>,
    /// Optional near-miss banding.
    near_miss: Option<NearMissRule>,
}

impl GroupRules {
    /// Starts building rules for a group.
    pub fn builder() -> GroupRulesBuilder {
        GroupRulesBuilder::default()
    }

    /// The collision band index for an impact speed (always succeeds: the
    /// bands tile `[0, ∞)`).
    fn collision_band(&self, v: Speed) -> usize {
        self.collision_bounds
            .iter()
            .position(|b| v < *b)
            .unwrap_or(self.collision_bounds.len())
    }

    /// The near-miss band index, or `None` when the interaction is not an
    /// incident under this group's rules.
    fn near_miss_band(&self, distance: Meters, v: Speed) -> Option<usize> {
        let rule = self.near_miss.as_ref()?;
        if distance >= rule.max_distance {
            return None;
        }
        if v < rule.bounds[0] {
            return None;
        }
        Some(
            rule.bounds
                .iter()
                .skip(1)
                .position(|b| v < *b)
                .unwrap_or(rule.bounds.len() - 1),
        )
    }

    /// Number of leaves (collision bands + near-miss bands) in this group.
    pub fn leaf_count(&self) -> usize {
        self.collision_labels.len() + self.near_miss.as_ref().map_or(0, |r| r.labels.len())
    }
}

/// Incremental builder for [`GroupRules`].
#[derive(Debug, Clone, Default)]
pub struct GroupRulesBuilder {
    collision: Vec<(Option<Speed>, String)>,
    near_miss_distance: Option<Meters>,
    near_miss: Vec<(Speed, String)>,
}

impl GroupRulesBuilder {
    /// Adds a collision band from the previous boundary up to `hi`
    /// (exclusive).
    pub fn collision_band_below(mut self, hi: Speed, label: impl Into<String>) -> Self {
        self.collision.push((Some(hi), label.into()));
        self
    }

    /// Adds the mandatory final collision band (previous boundary to ∞).
    pub fn collision_tail(mut self, label: impl Into<String>) -> Self {
        self.collision.push((None, label.into()));
        self
    }

    /// Enables near-miss incidents within `max_distance`.
    pub fn near_miss_within(mut self, max_distance: Meters) -> Self {
        self.near_miss_distance = Some(max_distance);
        self
    }

    /// Adds a near-miss band starting at relative speed `from` (the band
    /// extends to the next band's start, or ∞ for the last band).
    pub fn near_miss_band_from(mut self, from: Speed, label: impl Into<String>) -> Self {
        self.near_miss.push((from, label.into()));
        self
    }

    /// Validates and builds the group rules.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidClassification`] when the tail band is
    /// missing or not last, boundaries are not strictly ascending, or
    /// near-miss bands were given without a distance margin.
    pub fn build(self) -> Result<GroupRules, CoreError> {
        let invalid = |msg: String| Err(CoreError::InvalidClassification(msg));
        if self.collision.is_empty() {
            return invalid("a group needs at least the unbounded collision tail band".into());
        }
        let (tail, body) = self.collision.split_last().expect("non-empty");
        if tail.0.is_some() {
            return invalid(
                "the last collision band must be unbounded (use collision_tail)".into(),
            );
        }
        let mut bounds = Vec::with_capacity(body.len());
        let mut labels = Vec::with_capacity(self.collision.len());
        for (hi, label) in body {
            let hi = hi.ok_or_else(|| {
                CoreError::InvalidClassification(
                    "only the last collision band may be unbounded".into(),
                )
            })?;
            if let Some(&prev) = bounds.last() {
                if hi <= prev {
                    return invalid(format!(
                        "collision boundaries must be strictly ascending ({} after {})",
                        hi, prev
                    ));
                }
            }
            bounds.push(hi);
            labels.push(label.clone());
        }
        labels.push(tail.1.clone());

        let near_miss = match (self.near_miss_distance, self.near_miss.is_empty()) {
            (None, true) => None,
            (None, false) => {
                return invalid("near-miss bands require near_miss_within(distance)".into())
            }
            (Some(_), true) => {
                return invalid("near_miss_within requires at least one near-miss band".into())
            }
            (Some(max_distance), false) => {
                let mut nm_bounds = Vec::with_capacity(self.near_miss.len());
                let mut nm_labels = Vec::with_capacity(self.near_miss.len());
                for (from, label) in &self.near_miss {
                    if let Some(&prev) = nm_bounds.last() {
                        if *from <= prev {
                            return invalid(format!(
                                "near-miss band starts must be strictly ascending ({} after {})",
                                from, prev
                            ));
                        }
                    }
                    nm_bounds.push(*from);
                    nm_labels.push(label.clone());
                }
                Some(NearMissRule {
                    max_distance,
                    bounds: nm_bounds,
                    labels: nm_labels,
                })
            }
        };

        Ok(GroupRules {
            collision_bounds: bounds,
            collision_labels: labels,
            near_miss,
        })
    }
}

/// The result of empirically probing a classification for the MECE
/// property.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeceReport {
    /// Total probe events generated.
    pub probes: usize,
    /// Probes classified to exactly one incident type.
    pub classified: usize,
    /// Probes that are not incidents under the classification (milder than
    /// every quality threshold).
    pub non_incidents: usize,
    /// Probes matched by more than one leaf predicate (must be 0).
    pub multi_matched: usize,
    /// Probes where the set of matching leaf predicates disagreed with
    /// `classify` (must be 0).
    pub mismatches: usize,
    /// Leaves that no probe reached (indicates a probe-coverage gap, not a
    /// MECE violation; empty for the built-in probe set).
    pub unreached_leaves: Vec<IncidentTypeId>,
}

impl MeceReport {
    /// Returns `true` when the probing found no MECE violation.
    pub fn is_mece(&self) -> bool {
        self.multi_matched == 0 && self.mismatches == 0
    }
}

/// A complete incident classification: banding rules for every involvement
/// group, with the leaf incident types precomputed.
///
/// # Examples
///
/// ```
/// use qrn_core::examples::paper_classification;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let classification = paper_classification()?;
/// let report = classification.verify_mece();
/// assert!(report.is_mece());
/// assert!(report.unreached_leaves.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentClassification {
    rules: BTreeMap<InvolvementClass, GroupRules>,
    leaves: Vec<IncidentType>,
    /// Per group: leaf index of each collision band.
    collision_leaf_index: BTreeMap<InvolvementClass, Vec<usize>>,
    /// Per group: leaf index of each near-miss band.
    near_miss_leaf_index: BTreeMap<InvolvementClass, Vec<usize>>,
}

impl IncidentClassification {
    /// Starts building a classification.
    pub fn builder() -> IncidentClassificationBuilder {
        IncidentClassificationBuilder::default()
    }

    /// The leaf incident types, in group then band order.
    pub fn leaves(&self) -> &[IncidentType] {
        &self.leaves
    }

    /// Looks up a leaf by id.
    pub fn incident_type(&self, id: &IncidentTypeId) -> Option<&IncidentType> {
        self.leaves.iter().find(|t| t.id() == id)
    }

    /// The rules of one group.
    pub fn group_rules(&self, class: InvolvementClass) -> &GroupRules {
        &self.rules[&class]
    }

    /// Classifies a concrete record to its unique incident type, or `None`
    /// when the event is not an incident (milder than every threshold).
    pub fn classify(&self, record: &IncidentRecord) -> Option<&IncidentType> {
        let class = record.involvement.class();
        let rules = &self.rules[&class];
        let leaf_idx = match record.kind {
            IncidentKind::Collision { impact_speed } => {
                let band = rules.collision_band(impact_speed);
                self.collision_leaf_index[&class][band]
            }
            IncidentKind::NearMiss {
                distance,
                relative_speed,
            } => {
                let band = rules.near_miss_band(distance, relative_speed)?;
                self.near_miss_leaf_index[&class][band]
            }
        };
        Some(&self.leaves[leaf_idx])
    }

    /// Classifies raw records observed over `exposure` into the unified
    /// evidence representation: a global-row-only [`EvidenceLedger`] with
    /// an exact unit-weight mass for every leaf (unobserved leaves appear
    /// with a zero count) and the non-incidents as unclassified mass.
    pub fn evidence<'a, I>(&self, records: I, exposure: Hours) -> EvidenceLedger
    where
        I: IntoIterator<Item = &'a IncidentRecord>,
    {
        let mut ledger = EvidenceLedger::new();
        ledger.add_exposure(None, exposure.value());
        for leaf in &self.leaves {
            ledger.add_count(None, leaf.id().as_str(), &WeightedCount::unit(0));
        }
        for record in records {
            match self.classify(record) {
                Some(t) => ledger.add_incident(None, t.id().as_str(), 1.0),
                None => ledger.add_unclassified(None, 1.0),
            }
        }
        ledger
    }

    /// Probes the entire event space and checks that every probe matches at
    /// most one leaf predicate, consistently with [`Self::classify`].
    pub fn verify_mece(&self) -> MeceReport {
        let mut report = MeceReport {
            probes: 0,
            classified: 0,
            non_incidents: 0,
            multi_matched: 0,
            mismatches: 0,
            unreached_leaves: Vec::new(),
        };
        let mut reached = vec![false; self.leaves.len()];
        for record in self.probe_records() {
            report.probes += 1;
            let matching: Vec<usize> = self
                .leaves
                .iter()
                .enumerate()
                .filter(|(_, t)| t.matches(&record))
                .map(|(i, _)| i)
                .collect();
            if matching.len() > 1 {
                report.multi_matched += 1;
            }
            let classified = self.classify(&record);
            match (classified, matching.as_slice()) {
                (Some(t), [single]) if self.leaves[*single].id() == t.id() => {
                    report.classified += 1;
                    reached[*single] = true;
                }
                (None, []) => report.non_incidents += 1,
                _ => report.mismatches += 1,
            }
        }
        report.unreached_leaves = reached
            .iter()
            .enumerate()
            .filter(|(_, r)| !**r)
            .map(|(i, _)| self.leaves[i].id().clone())
            .collect();
        report
    }

    /// Generates the probe set: for every involvement group, collision
    /// speeds sweeping 0–200 km/h plus every band boundary ± ε, and
    /// near-miss probes across distance and relative-speed grids.
    fn probe_records(&self) -> Vec<IncidentRecord> {
        let eps = 0.01;
        let mut out = Vec::new();
        for (&class, rules) in &self.rules {
            let involvement = class.representative();
            let mut speeds: Vec<f64> = (0..=200).map(f64::from).collect();
            for b in &rules.collision_bounds {
                speeds.push((b.as_kmh() - eps).max(0.0));
                speeds.push(b.as_kmh());
                speeds.push(b.as_kmh() + eps);
            }
            for v in &speeds {
                out.push(IncidentRecord::collision(
                    involvement,
                    Speed::from_kmh(*v).expect("probe speeds are valid"),
                ));
            }
            if let Some(rule) = &rules.near_miss {
                let d_max = rule.max_distance.value();
                let distances = [
                    0.0,
                    d_max * 0.5,
                    (d_max - 1e-4).max(0.0),
                    d_max,
                    d_max + 0.5,
                ];
                let mut nm_speeds: Vec<f64> = (0..=200).step_by(2).map(f64::from).collect();
                for b in &rule.bounds {
                    nm_speeds.push((b.as_kmh() - eps).max(0.0));
                    nm_speeds.push(b.as_kmh());
                    nm_speeds.push(b.as_kmh() + eps);
                }
                for d in distances {
                    for v in &nm_speeds {
                        out.push(IncidentRecord::near_miss(
                            involvement,
                            Meters::new(d).expect("probe distances are valid"),
                            Speed::from_kmh(*v).expect("probe speeds are valid"),
                        ));
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for IncidentClassification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Incident classification ({} leaves):", self.leaves.len())?;
        for leaf in &self.leaves {
            writeln!(f, "  {leaf}")?;
        }
        Ok(())
    }
}

/// Incremental builder for [`IncidentClassification`].
#[derive(Debug, Clone, Default)]
pub struct IncidentClassificationBuilder {
    rules: BTreeMap<InvolvementClass, GroupRules>,
}

impl IncidentClassificationBuilder {
    /// Sets the rules for one involvement group.
    pub fn group(mut self, class: InvolvementClass, rules: GroupRules) -> Self {
        self.rules.insert(class, rules);
        self
    }

    /// Validates and builds the classification.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidClassification`] when a group is missing
    /// (collective exhaustiveness requires rules for *every* involvement
    /// class) or when leaf labels collide across groups.
    pub fn build(self) -> Result<IncidentClassification, CoreError> {
        for class in InvolvementClass::ALL {
            if !self.rules.contains_key(&class) {
                return Err(CoreError::InvalidClassification(format!(
                    "missing rules for involvement group {class}; \
                     every group needs rules for the classification to be exhaustive"
                )));
            }
        }
        let mut leaves: Vec<IncidentType> = Vec::new();
        let mut collision_leaf_index = BTreeMap::new();
        let mut near_miss_leaf_index = BTreeMap::new();
        for (&class, rules) in &self.rules {
            let involvement = class.representative();
            let mut collision_idx = Vec::new();
            for (band, label) in rules.collision_labels.iter().enumerate() {
                let lo = if band == 0 {
                    Speed::ZERO
                } else {
                    rules.collision_bounds[band - 1]
                };
                let hi = rules.collision_bounds.get(band).copied();
                collision_idx.push(leaves.len());
                leaves.push(IncidentType::new(
                    label.as_str(),
                    involvement,
                    ToleranceMargin::ImpactSpeed { lo, hi },
                ));
            }
            collision_leaf_index.insert(class, collision_idx);
            let mut nm_idx = Vec::new();
            if let Some(rule) = &rules.near_miss {
                for (band, label) in rule.labels.iter().enumerate() {
                    let lo = rule.bounds[band];
                    let hi = rule.bounds.get(band + 1).copied();
                    nm_idx.push(leaves.len());
                    leaves.push(IncidentType::new(
                        label.as_str(),
                        involvement,
                        ToleranceMargin::Proximity {
                            max_distance: rule.max_distance,
                            lo,
                            hi,
                        },
                    ));
                }
            }
            near_miss_leaf_index.insert(class, nm_idx);
        }
        // Leaf ids must be globally unique.
        let mut ids: Vec<&IncidentTypeId> = leaves.iter().map(IncidentType::id).collect();
        ids.sort();
        for pair in ids.windows(2) {
            if pair[0] == pair[1] {
                return Err(CoreError::InvalidClassification(format!(
                    "duplicate incident type label {}",
                    pair[0]
                )));
            }
        }
        Ok(IncidentClassification {
            rules: self.rules,
            leaves,
            collision_leaf_index,
            near_miss_leaf_index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::paper_classification;
    use crate::object::{Involvement, ObjectType};

    fn kmh(v: f64) -> Speed {
        Speed::from_kmh(v).unwrap()
    }

    fn m(d: f64) -> Meters {
        Meters::new(d).unwrap()
    }

    #[test]
    fn group_rules_builder_validates() {
        // missing tail
        assert!(GroupRules::builder()
            .collision_band_below(kmh(10.0), "a")
            .build()
            .is_err());
        // non-ascending bounds
        assert!(GroupRules::builder()
            .collision_band_below(kmh(50.0), "a")
            .collision_band_below(kmh(10.0), "b")
            .collision_tail("c")
            .build()
            .is_err());
        // near-miss bands without distance
        assert!(GroupRules::builder()
            .collision_tail("c")
            .near_miss_band_from(kmh(10.0), "nm")
            .build()
            .is_err());
        // distance without bands
        assert!(GroupRules::builder()
            .collision_tail("c")
            .near_miss_within(m(1.0))
            .build()
            .is_err());
        // a valid group
        assert!(GroupRules::builder()
            .collision_band_below(kmh(10.0), "a")
            .collision_tail("b")
            .near_miss_within(m(1.0))
            .near_miss_band_from(kmh(10.0), "nm")
            .build()
            .is_ok());
    }

    #[test]
    fn classification_requires_every_group() {
        let err = IncidentClassification::builder().build().unwrap_err();
        assert!(matches!(err, CoreError::InvalidClassification(_)));
    }

    #[test]
    fn duplicate_labels_rejected() {
        let rules = || {
            GroupRules::builder()
                .collision_tail("same-label")
                .build()
                .unwrap()
        };
        let mut builder = IncidentClassification::builder();
        for class in InvolvementClass::ALL {
            builder = builder.group(class, rules());
        }
        assert!(matches!(
            builder.build(),
            Err(CoreError::InvalidClassification(_))
        ));
    }

    #[test]
    fn paper_classification_classifies_fig5_examples() {
        let c = paper_classification().unwrap();
        let ego_vru = Involvement::ego_with(ObjectType::Vru);
        // I1: near-miss within 1 m at Δv > 10 km/h
        let i1 = c
            .classify(&IncidentRecord::near_miss(ego_vru, m(0.5), kmh(20.0)))
            .unwrap();
        assert_eq!(i1.id().as_str(), "I1");
        // I2: collision below 10 km/h
        let i2 = c
            .classify(&IncidentRecord::collision(ego_vru, kmh(7.0)))
            .unwrap();
        assert_eq!(i2.id().as_str(), "I2");
        // I3: collision in [10, 70)
        let i3 = c
            .classify(&IncidentRecord::collision(ego_vru, kmh(45.0)))
            .unwrap();
        assert_eq!(i3.id().as_str(), "I3");
        // boundary: exactly 10 km/h belongs to I3 (10 ≤ Δv < 70)
        let b = c
            .classify(&IncidentRecord::collision(ego_vru, kmh(10.0)))
            .unwrap();
        assert_eq!(b.id().as_str(), "I3");
    }

    #[test]
    fn mild_interactions_are_not_incidents() {
        let c = paper_classification().unwrap();
        let ego_vru = Involvement::ego_with(ObjectType::Vru);
        // slow pass within the margin: below the 10 km/h quality threshold
        assert!(c
            .classify(&IncidentRecord::near_miss(ego_vru, m(0.5), kmh(5.0)))
            .is_none());
        // fast pass but outside the distance margin
        assert!(c
            .classify(&IncidentRecord::near_miss(ego_vru, m(2.0), kmh(50.0)))
            .is_none());
    }

    #[test]
    fn every_collision_is_an_incident() {
        let c = paper_classification().unwrap();
        for object in ObjectType::ALL {
            for v in [0.0, 5.0, 10.0, 50.0, 150.0, 300.0] {
                let record = IncidentRecord::collision(Involvement::ego_with(object), kmh(v));
                assert!(c.classify(&record).is_some(), "{object:?} at {v} km/h");
            }
        }
        // induced incidents too
        let record = IncidentRecord::collision(
            Involvement::induced(ObjectType::Car, ObjectType::Truck),
            kmh(80.0),
        );
        assert!(c.classify(&record).is_some());
    }

    #[test]
    fn paper_classification_is_mece() {
        let report = paper_classification().unwrap().verify_mece();
        assert!(report.is_mece(), "{report:?}");
        assert_eq!(report.multi_matched, 0);
        assert_eq!(report.mismatches, 0);
        assert!(report.unreached_leaves.is_empty(), "{report:?}");
        assert!(report.probes > 1000);
        assert!(report.non_incidents > 0, "quality thresholds exist");
    }

    #[test]
    fn classify_agrees_with_leaf_predicates() {
        let c = paper_classification().unwrap();
        let record = IncidentRecord::collision(Involvement::ego_with(ObjectType::Car), kmh(33.0));
        let by_classify = c.classify(&record).unwrap();
        let by_predicate: Vec<&IncidentType> =
            c.leaves().iter().filter(|t| t.matches(&record)).collect();
        assert_eq!(by_predicate.len(), 1);
        assert_eq!(by_predicate[0].id(), by_classify.id());
    }

    #[test]
    fn incident_type_lookup() {
        let c = paper_classification().unwrap();
        assert!(c.incident_type(&"I2".into()).is_some());
        assert!(c.incident_type(&"nope".into()).is_none());
    }

    #[test]
    fn serde_round_trip() {
        let c = paper_classification().unwrap();
        let back: IncidentClassification =
            serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(c, back);
    }
}
