//! Property tests for the store's central contracts:
//!
//! * **snapshot + tail ≡ full replay** — the fast-path fold that starts
//!   at the newest snapshot is byte-identical to sequentially replaying
//!   every record, which is in turn byte-identical to the live writer's
//!   replica and to a reopened store's recovered state;
//! * **compacted ≡ replay** — compaction, on request or on a segment
//!   cadence, and also of a reopened-and-appended store, rewrites closed
//!   segments into a snapshot without changing a single byte of any
//!   queryable state;
//! * **`as_of` ≡ offline prefix** — the time-travelled state at T
//!   equals the batch-wise fold of exactly the batches with ts ≤ T, and
//!   equals a one-shot offline ingest of the accepted (screened) log
//!   prefix;
//! * **recovery ≡ live** — a reopened store, which folds only from the
//!   newest snapshot, reports the live store's state, cursors and
//!   counters, also after appending to a reopened store;
//! * **parallel tail ≡ sequential prefix** — `as_of` at every record
//!   timestamp, whose tail is parsed on up to `shards` workers, equals
//!   applying the same record prefix one record at a time, for any
//!   float payloads (the merge order is the log order either way).
//!
//! Apart from the last property, hours are dyadic (multiples of 0.25 h,
//! as the telemetry layer emits), so every floating-point sum in play is
//! exact and byte-comparisons are legitimate for arbitrary groupings.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use qrn_core::examples::paper_classification;
use qrn_core::incident::IncidentRecord;
use qrn_core::object::{Involvement, ObjectType};
use qrn_fleet::event::FleetEvent;
use qrn_fleet::ingest::{fold_states, ingest_str, FleetState};
use qrn_store::record::Record;
use qrn_store::segment::{decode_closed, list_closed, scan_open, ReplayState, OPEN_SEGMENT};
use qrn_store::{ReplaySummary, Store, StoreConfig, StoreReader, StoreStatus};
use qrn_units::{Hours, Speed};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> std::path::PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("qrn-store-prop-{}-{n}", std::process::id()))
}

fn json(state: &FleetState) -> String {
    serde_json::to_string(state).unwrap()
}

/// The counters recovery re-derives from disk (the others count this
/// process's own rolls, compactions and appends).
fn recovered(status: StoreStatus) -> [u64; 7] {
    [
        status.batches,
        status.snapshots,
        status.duplicates,
        status.gap_events,
        status.missing_seqs,
        status.last_ts,
        status.closed_segments,
    ]
}

/// Renders the generated events as sequenced JSONL lines, injecting a
/// duplicate after every `dup_stride`-th line and a sequence gap before
/// every `gap_stride`-th line. An event `(vehicle, units)` reports
/// `units × 0.25` hours.
fn render_lines(
    events: &[(usize, u32)],
    incident_stride: usize,
    dup_stride: usize,
    gap_stride: usize,
) -> Vec<String> {
    render_lines_in(events, 0.25, incident_stride, dup_stride, gap_stride)
}

/// As [`render_lines`], with `units × hours_per_unit` hours per report.
fn render_lines_in(
    events: &[(usize, u32)],
    hours_per_unit: f64,
    incident_stride: usize,
    dup_stride: usize,
    gap_stride: usize,
) -> Vec<String> {
    let mut counters = std::collections::BTreeMap::new();
    let mut lines = Vec::new();
    for (i, (vehicle_idx, units)) in events.iter().enumerate() {
        let vehicle = format!("V{vehicle_idx:02}");
        let event = if (i + 1) % incident_stride == 0 {
            FleetEvent::Incident {
                vehicle: vehicle.clone(),
                record: IncidentRecord::collision(
                    Involvement::ego_with(ObjectType::Vru),
                    Speed::from_kmh(5.0 + (i % 40) as f64).unwrap(),
                ),
            }
        } else {
            FleetEvent::Exposure {
                vehicle: vehicle.clone(),
                hours: Hours::new(*units as f64 * hours_per_unit).unwrap(),
            }
        };
        let counter = counters.entry(vehicle).or_insert(0u64);
        // A gap: the source "lost" one event before this line.
        if (i + 1) % gap_stride == 0 {
            *counter += 1;
        }
        *counter += 1;
        let line = event.to_line_with_seq(*counter);
        // A duplicate: at-least-once delivery re-sends the same line.
        if (i + 1) % dup_stride == 0 {
            lines.push(line.clone());
        }
        lines.push(line);
    }
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn snapshot_tail_compaction_and_time_travel_are_byte_identical(
        events in proptest::collection::vec((0usize..4, 1u32..40), 4..100),
        cut_permilles in proptest::collection::vec(1usize..1000, 0..5),
        snapshot_every in prop_oneof![Just(0u64), Just(1u64), Just(3u64), Just(7u64)],
        roll_bytes in prop_oneof![Just(1u64), Just(900u64), Just(8u64 * 1024 * 1024)],
        compact_after in prop_oneof![Just(0u64), Just(1u64), Just(3u64)],
        incident_stride in 3usize..9,
        dup_stride in 4usize..11,
        gap_stride in 5usize..13,
    ) {
        let classification = paper_classification().unwrap();
        let lines = render_lines(&events, incident_stride, dup_stride, gap_stride);

        // Split the line stream into batches at the generated cuts.
        let mut cuts: Vec<usize> = cut_permilles
            .iter()
            .map(|p| p * lines.len() / 1000)
            .filter(|c| *c > 0 && *c < lines.len())
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        cuts.push(lines.len());
        let mut batches = Vec::new();
        let mut start = 0;
        for cut in cuts {
            if cut > start {
                batches.push(lines[start..cut].join("\n") + "\n");
                start = cut;
            }
        }

        let config = StoreConfig {
            snapshot_every_events: snapshot_every,
            roll_bytes,
            compact_after_segments: compact_after,
            parse_shards: 2,
        };
        let dir = temp_dir();
        let mut store = Store::open(&dir, classification.clone(), config).unwrap();
        let mut receipts = Vec::new();
        let mut timestamps = Vec::new();
        for (b, batch) in batches.iter().enumerate() {
            let ts = (b as u64 + 1) * 1_000;
            receipts.push(store.append_batch(batch, ts).unwrap());
            timestamps.push(ts);
        }
        let compacted = store.status().compactions > 0;

        // Screening actually fired: the injected duplicates were all
        // rejected.
        let injected_dups = (1..=events.len()).filter(|i| i % dup_stride == 0).count() as u64;
        let total_dups: u64 = receipts.iter().map(|r| r.duplicates).sum();
        prop_assert_eq!(total_dups, injected_dups);

        // Fast path (snapshot + tail) ≡ sequential full replay ≡ live ≡
        // reopened, with or without snapshots to start from.
        let reader = StoreReader::open(&dir, classification.clone(), 3).unwrap();
        let mut store = check_recovery(store, &reader, &dir, config);

        // Time travel: as_of each batch timestamp ≡ the batch-wise fold
        // of the receipts up to it, for every batch a compaction has not
        // folded into a snapshot.
        let oldest = stored_records(&dir).first().map_or(0, |r| r.ts);
        for (k, ts) in timestamps.iter().enumerate().filter(|(_, ts)| **ts >= oldest) {
            let at = reader.fold_as_of(Some(*ts)).unwrap();
            let expected = fold_states(receipts[..=k].iter().map(|r| r.segment.clone()));
            prop_assert_eq!(&json(&at.state), &json(&expected));
        }
        // …and the accepted-log prefix one-shot ingests to the same
        // bytes (hours are dyadic, so grouping cannot round). After a
        // compaction the log holds only the tail past its snapshot.
        if !compacted {
            let mid_ts = timestamps[timestamps.len() / 2];
            let dump = reader.dump_log(Some(mid_ts)).unwrap();
            let offline = ingest_str(&dump, &classification, 1).unwrap();
            let at = reader.fold_as_of(Some(mid_ts)).unwrap();
            prop_assert_eq!(&json(&offline), &json(&at.state));
        }

        // Compaction changes no queryable byte.
        store.compact().unwrap();
        let mut store = check_recovery(store, &reader, &dir, config);

        // Reopen → append → reopen, then compact: the appended store
        // recovers to its own live bytes and counters both times.
        let extra = render_lines(&events[..events.len().min(8)], incident_stride, dup_stride, gap_stride);
        let next_ts = timestamps.last().unwrap() + 1_000;
        store.append_batch(&(extra.join("\n") + "\n"), next_ts).unwrap();
        let mut store = check_recovery(store, &reader, &dir, config);
        store.compact().unwrap();
        check_recovery(store, &reader, &dir, config);

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Checks that the live `store`, the `reader`'s `fold_as_of(None)` and
/// `replay_sequential`, and the store reopened from `dir` agree on state
/// bytes, cursors and screening tallies, that the reopened store counts
/// the records on disk, and that the store verifies. Returns the
/// reopened store.
fn check_recovery(
    store: Store,
    reader: &StoreReader,
    dir: &std::path::Path,
    config: StoreConfig,
) -> Store {
    let live = json(store.state());
    let cursors = store.cursors().clone();
    let status = store.status();
    drop(store);
    let reopened = Store::open(dir, paper_classification().unwrap(), config).unwrap();
    let fast = reader.fold_as_of(None).unwrap();
    let full = reader.replay_sequential().unwrap();
    for (state, folded_cursors) in [
        (&fast.state, &fast.cursors),
        (&full.state, &full.cursors),
        (reopened.state(), reopened.cursors()),
    ] {
        prop_assert_eq!(&json(state), &live);
        prop_assert_eq!(folded_cursors, &cursors);
    }
    let tallies = |s: &ReplaySummary| (s.duplicates, s.gap_events, s.missing_seqs, s.last_ts);
    let live_tallies = (
        status.duplicates,
        status.gap_events,
        status.missing_seqs,
        status.last_ts,
    );
    prop_assert_eq!(tallies(&fast), live_tallies);
    prop_assert_eq!(tallies(&full), live_tallies);
    // Recovery counts the records on disk, which are all the records
    // appended until a compaction replaces some by one snapshot.
    let on_disk = StoreStatus {
        batches: full.batches,
        snapshots: full.snapshots,
        ..status
    };
    prop_assert_eq!(recovered(reopened.status()), recovered(on_disk));
    if status.compactions == 0 {
        prop_assert_eq!(recovered(on_disk), recovered(status));
    }
    let report = reader.verify().unwrap();
    prop_assert!(report.ok(), "{:?}", report.mismatches);
    reopened
}

/// Every checksum-valid record of the store at `dir`, in log order.
fn stored_records(dir: &std::path::Path) -> Vec<Record> {
    let mut records = Vec::new();
    for (_, path) in list_closed(dir).unwrap() {
        let bytes = std::fs::read(&path).unwrap();
        records.extend(
            decode_closed(&bytes, &path)
                .unwrap()
                .into_iter()
                .map(Record::owned),
        );
    }
    let open = dir.join(OPEN_SEGMENT);
    let bytes = std::fs::read(&open).unwrap();
    records.extend(
        scan_open(&bytes, &open)
            .unwrap()
            .records
            .into_iter()
            .map(Record::owned),
    );
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_tail_folds_equal_the_sequential_prefix_replay(
        events in proptest::collection::vec((0usize..5, 1u32..60), 8..160),
        cut_permilles in proptest::collection::vec(1usize..1000, 1..12),
        long_batch_at in 0usize..12,
        long_batch_lines in 513usize..700,
        snapshot_every in prop_oneof![Just(0u64), Just(1u64), Just(5u64), Just(40u64)],
        roll_bytes in prop_oneof![Just(1u64), Just(1500u64), Just(8u64 * 1024 * 1024)],
        shards in 1usize..=4,
        incident_stride in 3usize..9,
        dup_stride in 4usize..11,
        gap_stride in 5usize..13,
    ) {
        let classification = paper_classification().unwrap();
        // Non-dyadic hours: sums round, so only an identical merge order
        // yields identical bytes.
        let lines = render_lines_in(&events, 0.017, incident_stride, dup_stride, gap_stride);
        let mut cuts: Vec<usize> = cut_permilles.iter().map(|p| p * lines.len() / 1000).collect();
        cuts.push(lines.len());
        cuts.sort_unstable();
        cuts.dedup();
        let mut batches = Vec::new();
        let mut start = 0;
        for cut in cuts {
            if cut > start {
                batches.push(lines[start..cut].join("\n") + "\n");
                start = cut;
            }
        }
        // One batch of more than one parse block, of unsequenced lines.
        let long: String = (0..long_batch_lines)
            .map(|i| {
                FleetEvent::Exposure {
                    vehicle: format!("L{:02}", i % 7),
                    hours: Hours::new(0.1 + (i % 13) as f64 * 0.013).unwrap(),
                }
                .to_line()
                    + "\n"
            })
            .collect();
        batches.insert(long_batch_at.min(batches.len()), long);

        let config = StoreConfig {
            snapshot_every_events: snapshot_every,
            roll_bytes,
            compact_after_segments: 0,
            parse_shards: shards,
        };
        let dir = temp_dir();
        let mut store = Store::open(&dir, classification.clone(), config).unwrap();
        for (b, batch) in batches.iter().enumerate() {
            store.append_batch(batch, (b as u64 + 1) * 1_000).unwrap();
        }

        // `as_of` every record timestamp ≡ applying the records up to it,
        // one at a time, snapshots included.
        let reader = StoreReader::open(&dir, classification.clone(), shards).unwrap();
        let records = stored_records(&dir);
        let mut sequential = ReplayState::default();
        for (i, record) in records.iter().enumerate() {
            sequential.apply(record.view(), &classification, 1).unwrap();
            if records.get(i + 1).is_some_and(|next| next.ts == record.ts) {
                continue;
            }
            let at = reader.fold_as_of(Some(record.ts)).unwrap();
            prop_assert_eq!(json(&at.state), json(&sequential.state), "ts {}", record.ts);
            prop_assert_eq!(&at.cursors, &sequential.cursors);
            prop_assert_eq!(
                (at.duplicates, at.gap_events, at.missing_seqs, at.last_ts),
                (
                    sequential.duplicates,
                    sequential.gap_events,
                    sequential.missing_seqs,
                    sequential.last_ts
                )
            );
        }
        prop_assert_eq!(json(&sequential.state), json(store.state()));

        // Recovery folds its tail the same way: a reopened store reports
        // the live state and status.
        let live = (json(store.state()), store.cursors().clone(), store.status());
        drop(store);
        let store = Store::open(&dir, classification.clone(), config).unwrap();
        prop_assert_eq!(json(store.state()), live.0);
        prop_assert_eq!(store.cursors(), &live.1);
        prop_assert_eq!(store.status(), live.2);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}
