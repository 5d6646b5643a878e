//! Skipping the fold never skips the check.
//!
//! Recovery and `as_of` queries fold only from the newest snapshot, but
//! every record they read is still checksummed, and recovery still
//! requires every batch payload to be UTF-8. These tests damage a store
//! where the fold never looks — before the newest snapshot, and past
//! the query's cut — and require every read to refuse it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use qrn_core::examples::paper_classification;
use qrn_fleet::event::FleetEvent;
use qrn_store::record::{decode, Decoded, RecordKind, INNER_HEADER, MAGIC, OUTER_HEADER};
use qrn_store::segment::closed_segment_name;
use qrn_store::{Store, StoreConfig, StoreError, StoreReader};
use qrn_units::Hours;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("qrn-store-guard-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> StoreConfig {
    StoreConfig {
        snapshot_every_events: 4,
        roll_bytes: 1500,
        compact_after_segments: 0,
        parse_shards: 1,
    }
}

/// A store of 24 two-line batches stamped 100, 200, …: several closed
/// segments, each holding snapshots with batches before and after them.
fn build() -> PathBuf {
    let dir = temp_dir();
    let mut store = Store::open(&dir, paper_classification().unwrap(), config()).unwrap();
    let mut seq = 0;
    for batch in 1..=24u64 {
        let mut text = String::new();
        for vehicle in ["A", "B"] {
            seq += 1;
            let line = FleetEvent::Exposure {
                vehicle: vehicle.into(),
                hours: Hours::new(0.25 * batch as f64).unwrap(),
            }
            .to_line_with_seq(seq);
            text.push_str(&line);
            text.push('\n');
        }
        store.append_batch(&text, batch * 100).unwrap();
    }
    assert!(store.status().closed_segments >= 3, "{:?}", store.status());
    dir
}

/// One record of a closed segment: where it starts, its kind and time.
struct Located {
    offset: usize,
    kind: RecordKind,
    ts: u64,
}

fn records_of(path: &Path) -> Vec<Located> {
    let bytes = std::fs::read(path).unwrap();
    let mut offset = MAGIC.len();
    let mut out = Vec::new();
    while offset < bytes.len() {
        let Decoded::Record(record, len) = decode(&bytes[offset..]).unwrap() else {
            panic!("closed segment is truncated");
        };
        out.push(Located {
            offset,
            kind: record.kind,
            ts: record.ts,
        });
        offset += len;
    }
    out
}

/// The first closed segment's first batch that a later snapshot in the
/// same segment supersedes.
fn batch_before_a_snapshot(dir: &Path) -> (PathBuf, Located) {
    let path = dir.join(closed_segment_name(1));
    let mut records = records_of(&path);
    let newest = records
        .iter()
        .rposition(|r| r.kind == RecordKind::Snapshot)
        .expect("the first segment holds a snapshot");
    let index = records[..newest]
        .iter()
        .position(|r| r.kind == RecordKind::Batch)
        .expect("a batch precedes that snapshot");
    (path, records.swap_remove(index))
}

/// The last closed segment's last batch.
fn last_closed_batch(dir: &Path) -> (PathBuf, Located) {
    let status = Store::open(dir, paper_classification().unwrap(), config())
        .unwrap()
        .status();
    let path = dir.join(closed_segment_name(status.closed_segments));
    let mut records = records_of(&path);
    let last = records
        .iter()
        .rposition(|r| r.kind == RecordKind::Batch)
        .expect("the last closed segment holds a batch");
    (path, records.swap_remove(last))
}

fn flip_payload_byte(path: &Path, record: &Located) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[record.offset + OUTER_HEADER + INNER_HEADER + 2] ^= 0x20;
    std::fs::write(path, bytes).unwrap();
}

fn assert_every_read_refuses(dir: &Path, damaged_ts: u64) {
    let opened = Store::open(dir, paper_classification().unwrap(), config());
    assert!(
        matches!(opened, Err(StoreError::Corrupt(_))),
        "Store::open: {opened:?}"
    );
    let reader = StoreReader::open(dir, paper_classification().unwrap(), 2).unwrap();
    for cut in [
        Some(damaged_ts - 1),
        Some(damaged_ts),
        Some(damaged_ts + 1),
        None,
    ] {
        let folded = reader.fold_as_of(cut);
        assert!(
            matches!(folded, Err(StoreError::Corrupt(_))),
            "fold_as_of({cut:?}): {:?}",
            folded.map(|s| s.records)
        );
    }
}

#[test]
fn damage_before_the_newest_snapshot_fails_every_read() {
    let dir = build();
    let (path, record) = batch_before_a_snapshot(&dir);
    flip_payload_byte(&path, &record);
    assert_every_read_refuses(&dir, record.ts);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damage_past_the_cut_fails_every_read() {
    let dir = build();
    let (path, record) = last_closed_batch(&dir);
    flip_payload_byte(&path, &record);
    assert_every_read_refuses(&dir, record.ts);
    // A cut well before the damaged record still reads it, and refuses.
    let reader = StoreReader::open(&dir, paper_classification().unwrap(), 1).unwrap();
    assert!(matches!(
        reader.fold_as_of(Some(100)),
        Err(StoreError::Corrupt(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_non_utf8_batch_under_a_valid_checksum_fails_recovery() {
    let dir = build();
    let (path, located) = batch_before_a_snapshot(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let Decoded::Record(record, len) = decode(&bytes[located.offset..]).unwrap() else {
        panic!("record is truncated");
    };
    let mut record = record.owned();
    record.payload[0] = 0xFF;
    let encoded = record.encode();
    assert_eq!(encoded.len(), len);
    bytes[located.offset..located.offset + len].copy_from_slice(&encoded);
    std::fs::write(&path, bytes).unwrap();
    match Store::open(&dir, paper_classification().unwrap(), config()) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("UTF-8"), "{msg}"),
        other => panic!("expected Corrupt, got {:?}", other.map(|s| s.status())),
    }
    std::fs::remove_dir_all(&dir).ok();
}
