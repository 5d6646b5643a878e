//! Per-goal look accounting and alert-transition history: the
//! `<checkpoint>.looks.json` sidecar.
//!
//! Every consultation of a goal's verdict against a growing evidence
//! stream is a *look*, and looks are test state, not evidence state: they
//! must survive restarts alongside the checkpoint but never contaminate
//! the evidence bytes. Historically the sidecar was a plain
//! `{"goal": count}` map owned by `qrn-serve`; this module promotes it to
//! a shared [`LookBook`] used by the live server, offline
//! `fleet report --checkpoint` and `qrn evidence inspect` alike, and
//! extends each entry with the goal's `Ok → Watch → Burned` transition
//! timestamps — answering "when did SG-I2 enter Watch?" from the sidecar
//! alone, without replaying the store.
//!
//! # Sidecar format
//!
//! A goal that has never left [`AlertLevel::Ok`] serialises as the bare
//! look count, byte-identical to the historical format:
//!
//! ```json
//! { "I1": 17 }
//! ```
//!
//! A goal with alert history serialises as an object:
//!
//! ```json
//! { "I3": { "alert": "Watch", "looks": 17, "transitions": [
//!     { "at_unix_millis": 1754700000000, "to": "Watch" } ] } }
//! ```
//!
//! Both forms deserialise; a fleet whose goals all stay `Ok` keeps its
//! legacy sidecar bytes forever.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::burndown::{AlertLevel, FleetReport};
use crate::checkpoint;
use crate::error::FleetError;

/// One recorded alert-level change of a goal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlertTransition {
    /// Wall-clock of the look that observed the change, Unix epoch
    /// milliseconds.
    pub at_unix_millis: u64,
    /// The level the goal moved to.
    pub to: AlertLevel,
}

/// Look count and alert history of one goal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoalLooks {
    /// Completed looks at this goal's verdict.
    pub looks: u64,
    /// The alert level as of the last recorded look.
    pub alert: AlertLevel,
    /// Every observed change of alert level, in look order. Empty for a
    /// goal that has only ever been `Ok`.
    pub transitions: Vec<AlertTransition>,
}

impl Default for GoalLooks {
    fn default() -> Self {
        GoalLooks {
            looks: 0,
            alert: AlertLevel::Ok,
            transitions: Vec::new(),
        }
    }
}

impl GoalLooks {
    /// True when the entry is representable as a bare count — the goal
    /// has no alert history.
    fn is_plain(&self) -> bool {
        self.alert == AlertLevel::Ok && self.transitions.is_empty()
    }
}

impl Serialize for GoalLooks {
    fn to_value(&self) -> serde::Value {
        if self.is_plain() {
            return self.looks.to_value();
        }
        let mut map = serde::Map::new();
        map.insert(String::from("looks"), self.looks.to_value());
        map.insert(String::from("alert"), self.alert.to_value());
        map.insert(String::from("transitions"), self.transitions.to_value());
        serde::Value::Object(map)
    }
}

impl Deserialize for GoalLooks {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            // Legacy bare count: a goal with no alert history.
            serde::Value::Number(_) => Ok(GoalLooks {
                looks: u64::from_value(value)?,
                ..GoalLooks::default()
            }),
            serde::Value::Object(map) => Ok(GoalLooks {
                looks: serde::__private::field(map, "looks")?,
                alert: serde::__private::field(map, "alert")?,
                transitions: match map.get("transitions") {
                    Some(v) => Vec::from_value(v)?,
                    None => Vec::new(),
                },
            }),
            other => Err(serde::Error::expected(
                "look count or goal-looks object",
                other,
                "GoalLooks",
            )),
        }
    }
}

/// The per-goal look ledger persisted next to a checkpoint. Serialises
/// as the bare `{"goal": entry}` map — the historical sidecar layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LookBook {
    goals: BTreeMap<String, GoalLooks>,
}

impl Serialize for LookBook {
    fn to_value(&self) -> serde::Value {
        self.goals.to_value()
    }
}

impl Deserialize for LookBook {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(LookBook {
            goals: BTreeMap::from_value(value)?,
        })
    }
}

impl LookBook {
    /// An empty book (no goal has been looked at).
    pub fn new() -> Self {
        LookBook::default()
    }

    /// Path of the sidecar belonging to `checkpoint`:
    /// `<checkpoint>.looks.json`.
    pub fn sidecar_path(checkpoint: &Path) -> PathBuf {
        let mut name = checkpoint.file_name().unwrap_or_default().to_os_string();
        name.push(".looks.json");
        checkpoint.with_file_name(name)
    }

    /// Loads a sidecar, distinguishing "not there yet" (a fresh
    /// checkpoint, `Ok(None)`) from "there but unreadable" (an error the
    /// operator must see, not silently reset look accounting for).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] for an unreadable file and
    /// [`FleetError::Corrupt`] for unparseable contents.
    pub fn load_if_exists(path: &Path) -> Result<Option<LookBook>, FleetError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(FleetError::Io(e.to_string())),
        };
        let text = String::from_utf8(bytes)
            .map_err(|e| FleetError::Corrupt(format!("look sidecar {path:?}: {e}")))?;
        let book = serde_json::from_str(&text)
            .map_err(|e| FleetError::Corrupt(format!("look sidecar {path:?}: {e}")))?;
        Ok(Some(book))
    }

    /// Atomically persists the book (write-to-temp + fsync + rename, like
    /// every checkpoint artefact).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] when the write fails.
    pub fn save(&self, path: &Path) -> Result<(), FleetError> {
        let json = serde_json::to_string_pretty(self).expect("look books are serialisable");
        checkpoint::save_bytes(path, json.as_bytes())
    }

    /// Records one look at `goal` and returns the new completed-look
    /// count (first look returns 1).
    pub fn spend_look(&mut self, goal: &str) -> u64 {
        let entry = self.goals.entry(goal.to_string()).or_default();
        entry.looks += 1;
        entry.looks
    }

    /// Records the alert level `alert` observed at `now_unix_millis`. A
    /// change from the last recorded level appends a transition; an
    /// unchanged level is a no-op, so the history holds only the edges.
    pub fn observe_alert(&mut self, goal: &str, alert: AlertLevel, now_unix_millis: u64) {
        let entry = self.goals.entry(goal.to_string()).or_default();
        if entry.alert != alert {
            entry.alert = alert;
            entry.transitions.push(AlertTransition {
                at_unix_millis: now_unix_millis,
                to: alert,
            });
        }
    }

    /// Counts `report` as one more look: spends a look per goal, records
    /// the alert edges of its global goal rows (context rows are
    /// refinements, not verdicts) and stamps the completed-look counts
    /// into every goal row, context rows included.
    pub fn take_look(&mut self, report: &mut FleetReport, now_unix_millis: u64) {
        for goal in &report.goals {
            self.spend_look(goal.incident.as_str());
            self.observe_alert(goal.incident.as_str(), goal.alert, now_unix_millis);
        }
        let zone_goals = report.zones.iter_mut().flat_map(|z| z.goals.iter_mut());
        for goal in report.goals.iter_mut().chain(zone_goals) {
            goal.looks = self.looks(goal.incident.as_str()).max(1);
        }
    }

    /// Completed looks at `goal` (zero when never looked at).
    pub fn looks(&self, goal: &str) -> u64 {
        self.goals.get(goal).map_or(0, |g| g.looks)
    }

    /// The full entry of `goal`, if any look was recorded.
    pub fn goal(&self, goal: &str) -> Option<&GoalLooks> {
        self.goals.get(goal)
    }

    /// Iterates entries in goal order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &GoalLooks)> {
        self.goals.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when no goal has been looked at.
    pub fn is_empty(&self) -> bool {
        self.goals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spend_and_look_counts_accumulate() {
        let mut book = LookBook::new();
        assert_eq!(book.looks("I1"), 0);
        assert_eq!(book.spend_look("I1"), 1);
        assert_eq!(book.spend_look("I1"), 2);
        assert_eq!(book.spend_look("I2"), 1);
        assert_eq!(book.looks("I1"), 2);
    }

    #[test]
    fn clean_goals_keep_the_legacy_bare_count_bytes() {
        let mut book = LookBook::new();
        book.spend_look("I1");
        book.spend_look("I1");
        book.observe_alert("I1", AlertLevel::Ok, 1000);
        let json = serde_json::to_string_pretty(&book).unwrap();
        // Exactly the historical plain-map sidecar.
        let legacy =
            serde_json::to_string_pretty(&BTreeMap::from([(String::from("I1"), 2u64)])).unwrap();
        assert_eq!(json, legacy);
    }

    #[test]
    fn legacy_sidecars_deserialise_as_clean_goals() {
        let book: LookBook = serde_json::from_str(r#"{"I1": 5, "I2": 1}"#).unwrap();
        assert_eq!(book.looks("I1"), 5);
        assert_eq!(book.goal("I2").unwrap().alert, AlertLevel::Ok);
        assert!(book.goal("I2").unwrap().transitions.is_empty());
    }

    #[test]
    fn transitions_record_edges_only_and_round_trip() {
        let mut book = LookBook::new();
        book.spend_look("I3");
        book.observe_alert("I3", AlertLevel::Ok, 1);
        book.spend_look("I3");
        book.observe_alert("I3", AlertLevel::Watch, 2);
        book.spend_look("I3");
        book.observe_alert("I3", AlertLevel::Watch, 3);
        book.spend_look("I3");
        book.observe_alert("I3", AlertLevel::Burned, 4);
        let entry = book.goal("I3").unwrap();
        assert_eq!(entry.looks, 4);
        assert_eq!(entry.alert, AlertLevel::Burned);
        assert_eq!(
            entry.transitions,
            vec![
                AlertTransition {
                    at_unix_millis: 2,
                    to: AlertLevel::Watch
                },
                AlertTransition {
                    at_unix_millis: 4,
                    to: AlertLevel::Burned
                },
            ]
        );
        let json = serde_json::to_string_pretty(&book).unwrap();
        let back: LookBook = serde_json::from_str(&json).unwrap();
        assert_eq!(book, back);
    }

    #[test]
    fn a_recovered_goal_keeps_its_history() {
        // Watch then back to Ok: the entry is no longer "plain" (it has
        // history) and must keep the object form.
        let mut book = LookBook::new();
        book.spend_look("I2");
        book.observe_alert("I2", AlertLevel::Watch, 10);
        book.spend_look("I2");
        book.observe_alert("I2", AlertLevel::Ok, 20);
        let json = serde_json::to_string_pretty(&book).unwrap();
        assert!(json.contains("transitions"), "{json}");
        let back: LookBook = serde_json::from_str(&json).unwrap();
        assert_eq!(back.goal("I2").unwrap().transitions.len(), 2);
    }

    #[test]
    fn sidecar_path_appends_to_the_checkpoint_name() {
        assert_eq!(
            LookBook::sidecar_path(Path::new("/tmp/fleet.ckpt")),
            PathBuf::from("/tmp/fleet.ckpt.looks.json")
        );
    }

    #[test]
    fn save_and_load_round_trip_and_missing_is_none() {
        let dir = std::env::temp_dir().join(format!("qrn-looks-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.ckpt.looks.json");
        assert_eq!(LookBook::load_if_exists(&path).unwrap(), None);
        let mut book = LookBook::new();
        book.spend_look("I1");
        book.observe_alert("I1", AlertLevel::Watch, 42);
        book.save(&path).unwrap();
        let loaded = LookBook::load_if_exists(&path).unwrap().unwrap();
        assert_eq!(loaded, book);
        std::fs::write(&path, "{ not json").unwrap();
        assert!(LookBook::load_if_exists(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
