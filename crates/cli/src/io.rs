//! JSON artefact reading and writing, plus the fleet-records file format.

use std::fs;
use std::path::Path;

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use qrn_core::incident::IncidentRecord;
use qrn_core::IncidentClassification;
use qrn_stats::evidence::EvidenceLedger;
use qrn_units::Hours;

use crate::CliError;

/// Reads a JSON artefact from disk.
///
/// # Errors
///
/// Returns [`CliError`] for unreadable files or invalid JSON.
pub fn read_artefact<T: DeserializeOwned>(path: &Path) -> Result<T, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read {}: {e}", path.display())))?;
    serde_json::from_str(&text)
        .map_err(|e| CliError(format!("{} is not a valid artefact: {e}", path.display())))
}

/// Writes a JSON artefact to disk (pretty-printed).
///
/// # Errors
///
/// Returns [`CliError`] for unwritable paths.
pub fn write_artefact<T: Serialize>(path: &Path, value: &T) -> Result<(), CliError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let json = serde_json::to_string_pretty(value).expect("artefacts are serialisable");
    fs::write(path, json).map_err(|e| CliError(format!("cannot write {}: {e}", path.display())))?;
    Ok(())
}

/// The fleet-records file format: raw incident records over an exposure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordsFile {
    /// Total exposure the records were collected over, in operating hours.
    pub exposure_hours: f64,
    /// The raw records (collisions and closest approaches).
    pub records: Vec<IncidentRecord>,
}

impl RecordsFile {
    /// Classifies the records into unit-weight evidence over the file's
    /// exposure (non-incidents as unclassified mass).
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] for a non-finite or negative exposure.
    pub fn evidence(
        &self,
        classification: &IncidentClassification,
    ) -> Result<EvidenceLedger, CliError> {
        let exposure = Hours::new(self.exposure_hours)?;
        Ok(classification.evidence(&self.records, exposure))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrn_core::examples::paper_classification;
    use qrn_core::object::{Involvement, ObjectType};
    use qrn_units::Speed;

    #[test]
    fn records_file_round_trips_and_classifies() {
        let file = RecordsFile {
            exposure_hours: 100.0,
            records: vec![IncidentRecord::collision(
                Involvement::ego_with(ObjectType::Vru),
                Speed::from_kmh(5.0).unwrap(),
            )],
        };
        let dir = std::env::temp_dir().join("qrn-cli-io-test");
        let path = dir.join("records.json");
        write_artefact(&path, &file).unwrap();
        let back: RecordsFile = read_artefact(&path).unwrap();
        assert_eq!(file, back);
        let classification = paper_classification().unwrap();
        let evidence = back.evidence(&classification).unwrap();
        assert_eq!(evidence.count("I2").observations(), 1);
        assert_eq!(evidence.unclassified().observations(), 0);
    }

    #[test]
    fn missing_file_is_a_clear_error() {
        let err = read_artefact::<RecordsFile>(Path::new("/nonexistent/x.json")).unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn invalid_json_is_a_clear_error() {
        let dir = std::env::temp_dir().join("qrn-cli-io-test2");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.json");
        fs::write(&path, "{not json").unwrap();
        let err = read_artefact::<RecordsFile>(&path).unwrap_err();
        assert!(err.to_string().contains("not a valid artefact"));
    }
}
