//! Segment files: naming, listing, scanning and the shared replay fold.
//!
//! A store directory holds one *open* segment (`open.seg`, appended in
//! place) and any number of *closed* segments (`seg-00000001.seg`, …),
//! which are immutable from the moment the atomic rename that closed
//! them becomes visible. Closed segments are decoded *strictly* — any
//! damage is [`StoreError::Corrupt`] — while the open segment is scanned
//! *tolerantly*: a crash can only ever tear its tail, so everything
//! after the first undecodable position is treated as the torn tail and
//! (by the writer on reopen) truncated away.
//!
//! Both kinds go through one decoding loop ([`scan_open`]); a closed
//! segment only adds the rule that nothing past its records may remain.
//!
//! [`ReplayState`] is the one fold the live writer, its recovery and
//! every reader query use: each batch merges into it in append order
//! through one merge (the writer merges the batch it just appended,
//! replay re-ingests the stored text), and snapshots *replace* the
//! running state with their stored payload. Byte-identity of recovery,
//! time travel and compaction all reduce to this single code path.
//! [`TailFold`] drives it from the newest snapshot: since a snapshot
//! replaces everything folded before it, the records before it are
//! checked (by the decoders here) and counted, but never folded. The
//! tail it does fold goes through [`ReplayState::apply_run`], which
//! parses the tail's batches on the caller's `shards` workers and
//! merges them on the calling thread in append order — only the merge
//! is serial.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use qrn_core::IncidentClassification;
use qrn_fleet::event::fastpath::{parse_line_hybrid, ParsedLine};
use qrn_fleet::ingest::{ingest_str, par_map, FleetState};

use crate::record::{decode, Decoded, Record, RecordKind, RecordRef, MAGIC};
use crate::StoreError;

/// File name of the open (appending) segment.
pub const OPEN_SEGMENT: &str = "open.seg";

/// File name of the closed segment with 1-based `index`.
pub fn closed_segment_name(index: u64) -> String {
    format!("seg-{index:08}.seg")
}

/// Parses a closed-segment file name back to its index.
pub fn parse_segment_index(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    if rest.len() != 8 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Lists the closed segments of `dir`, ascending by index.
///
/// # Errors
///
/// Returns [`StoreError::Io`] when the directory cannot be read and
/// [`StoreError::Corrupt`] when the surviving indices are not
/// contiguous — compaction deletes oldest-first precisely so that a
/// crash mid-compaction leaves a contiguous suffix.
pub fn list_closed(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let entries = fs::read_dir(dir)
        .map_err(|e| StoreError::Io(format!("cannot list {}: {e}", dir.display())))?;
    let mut segments = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| StoreError::Io(format!("cannot list {}: {e}", dir.display())))?;
        let name = entry.file_name();
        if let Some(index) = name.to_str().and_then(parse_segment_index) {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|(index, _)| *index);
    for pair in segments.windows(2) {
        if pair[1].0 != pair[0].0 + 1 {
            return Err(StoreError::Corrupt(format!(
                "closed segments are not contiguous in {}: {} is followed by {}",
                dir.display(),
                pair[0].1.display(),
                pair[1].1.display()
            )));
        }
    }
    Ok(segments)
}

/// Decodes a *closed* segment strictly: [`scan_open`]'s records, where
/// the magic is required and a torn tail is corruption. The records
/// borrow their payloads from `bytes`.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] for a bad magic, a damaged record or
/// a truncated file — closed segments were fully synced before the
/// rename that closed them, so none of these can be a crash artefact.
pub fn decode_closed<'a>(bytes: &'a [u8], path: &Path) -> Result<Vec<RecordRef<'a>>, StoreError> {
    let scan = scan_open(bytes, path)?;
    let offset = scan.valid_len as usize;
    if offset < MAGIC.len() {
        return Err(StoreError::Corrupt(format!(
            "{} does not start with the segment magic",
            path.display()
        )));
    }
    if scan.torn_bytes == 0 {
        return Ok(scan.records);
    }
    // The scan stopped short: decode the record there again for why.
    Err(StoreError::Corrupt(match decode(&bytes[offset..]) {
        Err(StoreError::Corrupt(msg)) => format!("{} at byte {offset}: {msg}", path.display()),
        _ => format!(
            "{} is truncated at byte {offset} (closed segments are immutable)",
            path.display()
        ),
    }))
}

/// Outcome of tolerantly scanning the open segment.
#[derive(Debug)]
pub struct OpenScan<'a> {
    /// The checksum-valid record prefix, borrowed from the scanned bytes.
    pub records: Vec<RecordRef<'a>>,
    /// Byte length of the valid prefix (magic included). Anything past
    /// this is the torn tail; the writer truncates to this length on
    /// reopen.
    pub valid_len: u64,
    /// Bytes past the valid prefix.
    pub torn_bytes: u64,
}

/// Scans open-segment `bytes` tolerantly: decoding stops at the first
/// position that does not hold a complete, checksum-valid record, and
/// everything from there on is reported as the torn tail. A file too
/// short to hold the magic (a crash during segment creation) is an
/// entirely-torn scan with `valid_len` 0.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] only when the file is long enough to
/// hold the magic but holds *different* bytes — that is never a crash
/// artefact of this store and must not be silently overwritten.
pub fn scan_open<'a>(bytes: &'a [u8], path: &Path) -> Result<OpenScan<'a>, StoreError> {
    if bytes.len() < MAGIC.len() {
        return Ok(OpenScan {
            records: Vec::new(),
            valid_len: 0,
            torn_bytes: bytes.len() as u64,
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::Corrupt(format!(
            "{} does not start with the segment magic",
            path.display()
        )));
    }
    let mut records = Vec::new();
    let mut offset = MAGIC.len();
    while offset < bytes.len() {
        match decode(&bytes[offset..]) {
            Ok(Decoded::Record(record, consumed)) => {
                records.push(record);
                offset += consumed;
            }
            // A short or damaged tail: the crash frontier. The scan is
            // sequential, so every record before `offset` is intact.
            Ok(Decoded::Truncated) | Err(StoreError::Corrupt(_)) => break,
            Err(other) => return Err(other),
        }
    }
    Ok(OpenScan {
        records,
        valid_len: offset as u64,
        torn_bytes: (bytes.len() - offset) as u64,
    })
}

/// The payload of a snapshot record: the cumulative fold state and the
/// sequence-screening bookkeeping at one point of the log. On replay it
/// *replaces* the running [`ReplayState`] — it is the literal serialised
/// intermediate of the same fold, which is what makes snapshot + tail
/// byte-identical to full replay.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SnapshotPayload {
    /// The cumulative fold state.
    pub state: FleetState,
    /// Per-source sequence cursors (highest accepted `seq` per vehicle).
    pub cursors: BTreeMap<String, u64>,
    /// Cumulative duplicate lines rejected.
    pub duplicates: u64,
    /// Cumulative sequence gaps detected.
    pub gap_events: u64,
    /// Cumulative sequence numbers missing across those gaps.
    pub missing_seqs: u64,
}

/// A [`SnapshotPayload`] by reference: serialises to the same bytes
/// without cloning the state and cursors it is written from — at fleet
/// scale the per-vehicle map is most of a snapshot.
pub(crate) struct SnapshotView<'a> {
    state: &'a FleetState,
    cursors: &'a BTreeMap<String, u64>,
    duplicates: u64,
    gap_events: u64,
    missing_seqs: u64,
}

impl Serialize for SnapshotView<'_> {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert(String::from("state"), self.state.to_value());
        map.insert(String::from("cursors"), self.cursors.to_value());
        map.insert(String::from("duplicates"), self.duplicates.to_value());
        map.insert(String::from("gap_events"), self.gap_events.to_value());
        map.insert(String::from("missing_seqs"), self.missing_seqs.to_value());
        serde::Value::Object(map)
    }
}

impl SnapshotView<'_> {
    /// The snapshot record carrying this payload, stamped `ts`.
    pub(crate) fn record(&self, ts: u64) -> Record {
        Record {
            kind: RecordKind::Snapshot,
            ts,
            duplicates: 0,
            gap_events: 0,
            missing_seqs: 0,
            payload: serde_json::to_string(self)
                .expect("snapshot payload is serialisable")
                .into_bytes(),
        }
    }
}

/// The running state of a replay fold — the live writer's replica, and
/// the fold of its recovery and of every reader query.
#[derive(Debug, Clone, Default)]
pub struct ReplayState {
    /// The cumulative fold state.
    pub state: FleetState,
    /// Per-source sequence cursors.
    pub cursors: BTreeMap<String, u64>,
    /// Cumulative duplicates rejected.
    pub duplicates: u64,
    /// Cumulative gaps detected.
    pub gap_events: u64,
    /// Cumulative sequence numbers missing.
    pub missing_seqs: u64,
    /// Timestamp of the last record applied.
    pub last_ts: u64,
    /// Batch records applied (or replaced-over) so far.
    pub batches: u64,
    /// Snapshot records applied so far.
    pub snapshots: u64,
    /// Events folded since the last snapshot (drives the writer's
    /// snapshot cadence across restarts).
    pub events_since_snapshot: u64,
}

impl ReplayState {
    /// The snapshot payload of the fold so far, by reference.
    pub(crate) fn snapshot_view(&self) -> SnapshotView<'_> {
        SnapshotView {
            state: &self.state,
            cursors: &self.cursors,
            duplicates: self.duplicates,
            gap_events: self.gap_events,
            missing_seqs: self.missing_seqs,
        }
    }

    /// Applies one record: a batch is re-ingested from its stored text
    /// and merged (the same fold the live writer performed), a snapshot
    /// replaces the running state with its payload.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] for a batch payload that is not
    /// UTF-8 or a snapshot payload that does not parse, and propagates
    /// fleet errors from batch ingestion.
    pub fn apply(
        &mut self,
        record: RecordRef<'_>,
        classification: &IncidentClassification,
        shards: usize,
    ) -> Result<(), StoreError> {
        match record.kind {
            RecordKind::Batch => {
                let batch = BatchFold::of(record.payload, classification, shards)?;
                self.absorb(record, &batch.state, batch.seqs);
            }
            RecordKind::Snapshot => {
                let text = std::str::from_utf8(record.payload).map_err(|_| {
                    StoreError::Corrupt("snapshot payload is not valid UTF-8".to_string())
                })?;
                let payload: SnapshotPayload = serde_json::from_str(text).map_err(|e| {
                    StoreError::Corrupt(format!("snapshot payload does not parse: {e}"))
                })?;
                self.state = payload.state;
                self.cursors = payload.cursors;
                self.duplicates = payload.duplicates;
                self.gap_events = payload.gap_events;
                self.missing_seqs = payload.missing_seqs;
                self.snapshots += 1;
                self.events_since_snapshot = 0;
                self.last_ts = self.last_ts.max(record.ts);
            }
        }
        Ok(())
    }

    /// Applies `records` in log order, with the result and the error of
    /// [`ReplayState::apply`] on each in turn: the first failing record
    /// wins, and the records before it are applied.
    ///
    /// Each run of batches between snapshots is parsed on up to `shards`
    /// workers, one batch per worker at a time (a stored batch is a
    /// block or two, too small to split), and merged in log order on the
    /// calling thread. A lone batch spreads its blocks over the `shards`
    /// instead. A batch parses to the same state on any number of
    /// shards, so the merged bytes are the sequential ones.
    ///
    /// # Errors
    ///
    /// As [`ReplayState::apply`] for the first record that fails.
    pub(crate) fn apply_run(
        &mut self,
        records: &[Record],
        classification: &IncidentClassification,
        shards: usize,
    ) -> Result<(), StoreError> {
        for chunk in records.split_inclusive(|r| r.kind == RecordKind::Snapshot) {
            let (batches, snapshot) = match chunk.split_last() {
                Some((last, batches)) if last.kind == RecordKind::Snapshot => (batches, Some(last)),
                _ => (chunk, None),
            };
            let block_shards = if batches.len() == 1 { shards } else { 1 };
            // Rounds bound how many parsed batches wait for the merge.
            for round in batches.chunks(BATCHES_PER_WORKER * shards) {
                let parsed = par_map(round.len(), shards, |i| {
                    BatchFold::of(&round[i].payload, classification, block_shards)
                });
                for (record, batch) in round.iter().zip(parsed) {
                    let batch = batch?;
                    self.absorb(record.view(), &batch.state, batch.seqs);
                }
            }
            if let Some(snapshot) = snapshot {
                self.apply(snapshot.view(), classification, shards)?;
            }
        }
        Ok(())
    }

    /// Merges one batch record into the fold: the `state` its text folds
    /// to, and per vehicle the highest `seq` it kept. Replay merges the
    /// batches it re-ingests through here, and the live writer the batch
    /// it just appended.
    pub(crate) fn absorb(
        &mut self,
        record: RecordRef<'_>,
        state: &FleetState,
        seqs: BatchSeqs<'_>,
    ) {
        self.events_since_snapshot += state.events();
        self.state.merge(state);
        for (vehicle, seq) in seqs {
            match self.cursors.get_mut(vehicle.as_ref()) {
                Some(cursor) => *cursor = (*cursor).max(seq),
                None => {
                    self.cursors.insert(vehicle.into_owned(), seq);
                }
            }
        }
        self.duplicates += u64::from(record.duplicates);
        self.gap_events += u64::from(record.gap_events);
        self.missing_seqs += u64::from(record.missing_seqs);
        self.batches += 1;
        self.last_ts = self.last_ts.max(record.ts);
    }
}

/// Batches each worker parses per round of [`ReplayState::apply_run`].
const BATCHES_PER_WORKER: usize = 8;

/// Per vehicle, the highest `seq` among a batch's sequenced lines. Ids
/// borrow from the batch text where the fast parser read them.
pub(crate) type BatchSeqs<'a> = BTreeMap<Cow<'a, str>, u64>;

/// The vehicle id and `seq` of a sequenced line; `None` for unsequenced,
/// blank and malformed lines. The hybrid parser yields the same pair as
/// the tolerant one.
pub(crate) fn sequenced(line: &str) -> Option<(Cow<'_, str>, u64)> {
    match parse_line_hybrid(line) {
        ParsedLine::Fast(event, Some(seq), _) => Some((Cow::Borrowed(event.vehicle()), seq)),
        ParsedLine::Owned(event, Some(seq), _) => {
            Some((Cow::Owned(event.vehicle().to_string()), seq))
        }
        _ => None,
    }
}

/// What one batch record contributes to a replay, before the merge: the
/// fold of its stored text, and its [`BatchSeqs`].
struct BatchFold<'a> {
    state: FleetState,
    seqs: BatchSeqs<'a>,
}

impl<'a> BatchFold<'a> {
    /// Parses one batch payload on `shards` shards.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] for a payload that is not UTF-8,
    /// and propagates fleet errors from ingestion.
    fn of(
        payload: &'a [u8],
        classification: &IncidentClassification,
        shards: usize,
    ) -> Result<BatchFold<'a>, StoreError> {
        let text = batch_text(payload)?;
        let state = ingest_str(text, classification, shards)?;
        // The stored text is the *screened* batch: surviving sequenced
        // lines carry strictly increasing seqs per vehicle, so the
        // highest one per vehicle rebuilds the exact cursors.
        let mut seqs = BatchSeqs::new();
        for (vehicle, seq) in text.lines().filter_map(sequenced) {
            let max = seqs.entry(vehicle).or_default();
            *max = (*max).max(seq);
        }
        Ok(BatchFold { state, seqs })
    }
}

/// A batch record's payload as the JSONL text it must be.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] when the payload is not UTF-8.
pub(crate) fn batch_text(payload: &[u8]) -> Result<&str, StoreError> {
    std::str::from_utf8(payload)
        .map_err(|_| StoreError::Corrupt("batch payload is not valid UTF-8".to_string()))
}

/// What a fold from the newest snapshot can need of one segment: its
/// records from the segment's newest snapshot on, or all of them when
/// it holds none, copied out of the segment buffer. The records before
/// that snapshot are only counted.
#[derive(Debug, Default)]
pub(crate) struct SegmentTail {
    /// The copied records, oldest first.
    records: Vec<Record>,
    /// Whether `records` starts with a snapshot.
    from_snapshot: bool,
    /// Batch records in the segment, copied or not.
    batches: u64,
    /// Snapshot records in the segment, copied or not.
    snapshots: u64,
}

impl SegmentTail {
    /// The tail of one segment's checked records.
    pub(crate) fn of(records: &[RecordRef<'_>]) -> SegmentTail {
        let snapshots = records
            .iter()
            .filter(|r| r.kind == RecordKind::Snapshot)
            .count() as u64;
        let newest = records.iter().rposition(|r| r.kind == RecordKind::Snapshot);
        SegmentTail {
            records: records[newest.unwrap_or(0)..]
                .iter()
                .map(|r| r.owned())
                .collect(),
            from_snapshot: newest.is_some(),
            batches: records.len() as u64 - snapshots,
            snapshots,
        }
    }
}

/// A [`ReplayState`] fold that starts at the newest snapshot.
///
/// Segments are offered in log order as [`SegmentTail`]s of checked
/// records (the decoders above have checksummed every one of them). A
/// snapshot replaces all state folded before it, so the fold holds the
/// newest snapshot's tail back and folds it only once a later segment
/// without a snapshot shows that nothing will replace it, or at
/// [`TailFold::finish`]. Everything before that snapshot is counted,
/// never folded.
#[derive(Debug, Default)]
pub(crate) struct TailFold {
    /// The fold of the records before `pending`.
    replay: ReplayState,
    /// The newest snapshot offered so far and the records after it in
    /// its segment, not folded yet.
    pending: Vec<Record>,
    /// Batch records offered, folded or not.
    batches: u64,
    /// Snapshot records offered, folded or not.
    snapshots: u64,
}

impl TailFold {
    /// Offers the next segment's tail, in log order.
    ///
    /// # Errors
    ///
    /// As [`ReplayState::apply_run`] for the records this folds.
    pub(crate) fn push(
        &mut self,
        tail: SegmentTail,
        classification: &IncidentClassification,
        shards: usize,
    ) -> Result<(), StoreError> {
        self.batches += tail.batches;
        self.snapshots += tail.snapshots;
        if tail.from_snapshot {
            self.replay = ReplayState::default();
            self.pending = tail.records;
        } else if !tail.records.is_empty() {
            // Nothing later can replace the held-back snapshot now: fold
            // it together with this tail, as one run.
            self.pending.extend(tail.records);
            self.flush(classification, shards)?;
        }
        Ok(())
    }

    fn flush(
        &mut self,
        classification: &IncidentClassification,
        shards: usize,
    ) -> Result<(), StoreError> {
        let pending = std::mem::take(&mut self.pending);
        self.replay.apply_run(&pending, classification, shards)
    }

    /// The fold as of the last record offered. Its batch and snapshot
    /// counts are the records actually folded.
    ///
    /// # Errors
    ///
    /// As [`ReplayState::apply`].
    pub(crate) fn finish(
        mut self,
        classification: &IncidentClassification,
        shards: usize,
    ) -> Result<ReplayState, StoreError> {
        self.flush(classification, shards)?;
        Ok(self.replay)
    }

    /// As [`TailFold::finish`], but counting every record offered — the
    /// tallies a full sequential replay reports.
    ///
    /// # Errors
    ///
    /// As [`ReplayState::apply`].
    pub(crate) fn finish_counting_all(
        self,
        classification: &IncidentClassification,
        shards: usize,
    ) -> Result<ReplayState, StoreError> {
        let (batches, snapshots) = (self.batches, self.snapshots);
        let mut replay = self.finish(classification, shards)?;
        replay.batches = batches;
        replay.snapshots = snapshots;
        Ok(replay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrn_core::examples::paper_classification;
    use qrn_fleet::event::FleetEvent;
    use qrn_units::Hours;

    #[test]
    fn snapshot_view_serialises_like_the_owned_payload() {
        let line = |vehicle: &str, hours: f64, seq: u64| {
            FleetEvent::Exposure {
                vehicle: vehicle.into(),
                hours: Hours::new(hours).unwrap(),
            }
            .to_line_with_seq(seq)
        };
        let batch = Record {
            kind: RecordKind::Batch,
            ts: 5,
            duplicates: 1,
            gap_events: 1,
            missing_seqs: 2,
            payload: format!("{}\n{}\n", line("A", 0.1, 1), line("B", 2.5, 4)).into_bytes(),
        };
        let mut replay = ReplayState::default();
        replay
            .apply(batch.view(), &paper_classification().unwrap(), 1)
            .unwrap();
        let view = replay.snapshot_view();
        let owned = SnapshotPayload {
            state: replay.state.clone(),
            cursors: replay.cursors.clone(),
            duplicates: replay.duplicates,
            gap_events: replay.gap_events,
            missing_seqs: replay.missing_seqs,
        };
        assert!(owned.gap_events > 0 && owned.cursors.len() == 2);
        assert_eq!(
            serde_json::to_string(&view).unwrap(),
            serde_json::to_string(&owned).unwrap()
        );
    }

    #[test]
    fn a_run_with_two_corrupt_batches_fails_at_the_earlier_one() {
        let classification = paper_classification().unwrap();
        let batch = |ts: u64, payload: Vec<u8>| Record {
            kind: RecordKind::Batch,
            ts,
            duplicates: 0,
            gap_events: 0,
            missing_seqs: 0,
            payload,
        };
        let text = |vehicle: &str, seq: u64| {
            FleetEvent::Exposure {
                vehicle: vehicle.into(),
                hours: Hours::new(0.1).unwrap(),
            }
            .to_line_with_seq(seq)
            .into_bytes()
        };
        let run = vec![
            batch(1, text("A", 1)),
            batch(2, text("B", 1)),
            batch(3, vec![0xff, b'\n']),
            batch(4, text("A", 2)),
            batch(5, vec![b'{', 0xfe]),
            batch(6, text("B", 2)),
        ];
        let mut sequential = ReplayState::default();
        let expected = run
            .iter()
            .try_for_each(|r| sequential.apply(r.view(), &classification, 1))
            .unwrap_err()
            .to_string();
        assert_eq!(sequential.batches, 2);
        for shards in 2..=4 {
            let mut parallel = ReplayState::default();
            let err = parallel
                .apply_run(&run, &classification, shards)
                .unwrap_err();
            assert_eq!(err.to_string(), expected, "shards={shards}");
            // The batches before the earlier corrupt one are applied, as
            // sequentially; none after it is.
            assert_eq!(parallel.batches, sequential.batches, "shards={shards}");
            assert_eq!(parallel.last_ts, 2, "shards={shards}");
            assert_eq!(parallel.cursors, sequential.cursors, "shards={shards}");
            assert_eq!(
                serde_json::to_string(&parallel.state).unwrap(),
                serde_json::to_string(&sequential.state).unwrap()
            );
        }
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(closed_segment_name(1), "seg-00000001.seg");
        assert_eq!(parse_segment_index("seg-00000001.seg"), Some(1));
        assert_eq!(parse_segment_index("seg-12345678.seg"), Some(12_345_678));
        assert_eq!(parse_segment_index("open.seg"), None);
        assert_eq!(parse_segment_index("seg-1.seg"), None);
        assert_eq!(parse_segment_index("seg-0000000x.seg"), None);
        assert_eq!(parse_segment_index("seg-00000001.seg.tmp"), None);
    }

    #[test]
    fn tolerant_scan_stops_at_the_tear_and_counts_it() {
        let record = Record {
            kind: RecordKind::Batch,
            ts: 5,
            duplicates: 0,
            gap_events: 0,
            missing_seqs: 0,
            payload: b"{\"v\":1}\n".to_vec(),
        };
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&record.encode());
        let valid = bytes.len() as u64;
        // Tear: half of a second record.
        let second = record.encode();
        bytes.extend_from_slice(&second[..second.len() / 2]);
        let scan = scan_open(&bytes, Path::new("open.seg")).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, valid);
        assert_eq!(scan.torn_bytes, (second.len() / 2) as u64);
    }

    #[test]
    fn closed_segments_reject_what_open_segments_tolerate() {
        let record = Record {
            kind: RecordKind::Batch,
            ts: 5,
            duplicates: 0,
            gap_events: 0,
            missing_seqs: 0,
            payload: b"x".to_vec(),
        };
        let mut bytes = MAGIC.to_vec();
        let encoded = record.encode();
        bytes.extend_from_slice(&encoded[..encoded.len() - 1]);
        assert!(scan_open(&bytes, Path::new("open.seg")).is_ok());
        assert!(matches!(
            decode_closed(&bytes, Path::new("seg-00000001.seg")),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn a_wrong_magic_is_never_silently_overwritten() {
        let bytes = b"NOTSTORE-some-other-file".to_vec();
        assert!(matches!(
            scan_open(&bytes, Path::new("open.seg")),
            Err(StoreError::Corrupt(_))
        ));
        // But a file shorter than the magic is a crash artefact of
        // segment creation and scans as entirely torn.
        let scan = scan_open(b"QRN", Path::new("open.seg")).unwrap();
        assert_eq!(scan.valid_len, 0);
        assert_eq!(scan.torn_bytes, 3);
    }
}
