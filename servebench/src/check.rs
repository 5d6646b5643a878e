//! Reference checks: served bodies against the offline pipeline.

use qrn_core::IncidentClassification;
use qrn_fleet::burndown::{burn_down_filtered, BurnDownConfig, ContextFilter, FleetReport};
use qrn_fleet::ingest::{ingest_str, FleetState};
use serde_json::Value;

use crate::Case;

/// Folds batches in the given order exactly as the store does: one
/// `ingest_str` per batch, merged in append order.
pub struct Reference<'a> {
    classification: &'a IncidentClassification,
    pub state: FleetState,
}

impl<'a> Reference<'a> {
    pub fn new(classification: &'a IncidentClassification) -> Reference<'a> {
        Reference {
            classification,
            state: FleetState::default(),
        }
    }

    pub fn add(&mut self, batch: &str) -> Result<(), String> {
        let segment = ingest_str(batch, self.classification, 1)
            .map_err(|e| format!("reference ingest failed: {e}"))?;
        self.state.merge(&segment);
        Ok(())
    }
}

/// The report `qrn serve` answers for `state` with default flags.
pub fn report(case: &Case, state: &FleetState) -> Result<FleetReport, String> {
    burn_down_filtered(
        &case.norm,
        &case.allocation,
        state,
        &BurnDownConfig::default(),
        &ContextFilter::all(),
    )
    .map_err(|e| format!("reference burn-down failed: {e}"))
}

/// Compares a served burn-down body with the reference report, field by
/// field except `looks` (the live route stamps how often it was asked).
pub fn same_report(served: &[u8], reference: &FleetReport) -> Result<(), String> {
    let served = std::str::from_utf8(served).map_err(|_| "served body is not UTF-8")?;
    let mut served = serde_json::parse(served).map_err(|e| format!("served body: {e}"))?;
    let mut expected = serde_json::parse(&reference.to_canonical_json())
        .map_err(|e| format!("reference body: {e}"))?;
    strip_looks(&mut served);
    strip_looks(&mut expected);
    if served == expected {
        Ok(())
    } else {
        Err(format!(
            "served report differs from the reference:\n served: {}\n expect: {}",
            served.to_json(),
            expected.to_json()
        ))
    }
}

fn strip_looks(value: &mut Value) {
    match value {
        Value::Object(map) => {
            map.remove("looks");
            map.values_mut().for_each(strip_looks);
        }
        Value::Array(items) => items.iter_mut().for_each(strip_looks),
        _ => {}
    }
}
