//! The live state of one served item, split by who reads it: published
//! totals for every verdict, and the per-vehicle tallies for checkpoints.
//!
//! # Totals without a fold
//!
//! A verdict is Eq. 1 over per-incident-type exposure and counts; no
//! vehicle appears in it. So every ingest publishes the item's
//! [`FleetTotals`] — evidence ledger, line, event and skip tallies, and
//! the distinct-vehicle count — as an `Arc` behind one short lock, and
//! every read (live burn-down, `/metrics`, the ingest reply) takes that
//! `Arc` with [`ShardedState::totals`]: no vehicle lock and no
//! per-vehicle copy, so a read costs the same at ten vehicles or a
//! million. Publishing is copy-on-write (`Arc::make_mut`): the ledger is
//! cloned only while a reader still holds the previous copy. A segment's
//! totals merge in one step under that lock, so a reader never sees half
//! of a segment.
//!
//! # One vehicle map
//!
//! The per-vehicle tallies are read only by checkpoints
//! ([`ShardedState::fold`]). They live in one locked map. An ingest
//! locks it, merges each of its vehicles, and publishes the totals
//! before it releases the map; `fold` locks the map and reads the totals
//! while holding it, so it sees each segment wholly or not at all. Both
//! paths take the map lock before the totals lock, so neither can
//! deadlock. Splitting the map into shards by vehicle id bought no
//! throughput on any measured ingest traffic (DESIGN §12): an upload's
//! parse and HTTP handling dwarf its per-vehicle merge.
//!
//! # Why the fold is byte-identical to a replay
//!
//! Every float sum of the state is merged in exactly one place — the
//! totals under the totals lock, each vehicle's tallies under the map
//! lock — and both see the segments in the same order, because an
//! ingest holds the map until it has published. With an evidence store
//! the ingests are the writer thread's append hook, one at a time in
//! append order, so the live state is the append-order
//! [`FleetState::merge`] that store replay and offline `qrn fleet
//! ingest` perform — for any float payloads, not only dyadic ones. The
//! tests at the bottom check this for arbitrary segmentations, and that
//! concurrent readers only ever see whole segments.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use qrn_fleet::ingest::{merge_vehicle, FleetState, FleetTotals, VehicleState};

/// The published totals plus the per-vehicle tallies behind their own
/// lock. See the module docs for the locking and determinism argument.
#[derive(Debug)]
pub struct ShardedState {
    /// Per-vehicle tallies in id order.
    vehicles: Mutex<BTreeMap<String, VehicleState>>,
    /// What every verdict reads, republished after each segment.
    totals: Mutex<Arc<FleetTotals>>,
}

impl ShardedState {
    /// Creates the live state seeded with `resume` (a checkpointed or
    /// recovered state, or [`FleetState::default`] for a fresh server):
    /// its totals are published as they are and its vehicles move into
    /// the map. `shard_count` is the `--state-shards` setting; the state
    /// keeps one vehicle map whatever its value.
    ///
    /// # Panics
    ///
    /// Panics when `shard_count` is zero (configs validate this before
    /// construction).
    pub fn new(shard_count: usize, resume: FleetState) -> Self {
        assert!(shard_count >= 1, "shard count must be at least 1");
        let (totals, vehicles) = resume.into_parts();
        ShardedState {
            vehicles: Mutex::new(vehicles),
            totals: Mutex::new(Arc::new(totals)),
        }
    }

    /// Merges a parsed segment: each of its vehicles into the map, then
    /// its totals into the published copy. The map stays locked until
    /// the totals are published, so neither a fold nor another ingest
    /// can see the segment half applied.
    pub fn ingest(&self, segment: &FleetState) {
        let mut vehicles = self.vehicles.lock().expect("vehicle mutex poisoned");
        let mut new_vehicles = 0;
        for (vehicle, tallies) in segment.vehicles() {
            new_vehicles += u64::from(merge_vehicle(&mut vehicles, vehicle, tallies));
        }
        let mut totals = self.totals.lock().expect("totals mutex poisoned");
        Arc::make_mut(&mut totals).merge(segment.totals(), new_vehicles);
        drop(totals);
        drop(vehicles);
    }

    /// The published totals: evidence, log tallies and the distinct-
    /// vehicle count after the last whole segment. Locks no vehicle map
    /// and copies nothing; the holder keeps a consistent snapshot however
    /// long it reads.
    pub fn totals(&self) -> Arc<FleetTotals> {
        Arc::clone(&self.totals.lock().expect("totals mutex poisoned"))
    }

    /// The whole [`FleetState`] — the published totals plus a copy of
    /// the vehicle map — for checkpoints. The totals are read while the
    /// map is locked, so the two describe the same segments.
    pub fn fold(&self) -> FleetState {
        let vehicles = self.vehicles.lock().expect("vehicle mutex poisoned");
        let totals = FleetTotals::clone(&self.totals());
        FleetState::from_parts(totals, vehicles.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrn_core::examples::paper_classification;
    use qrn_core::incident::IncidentRecord;
    use qrn_core::object::{Involvement, ObjectType};
    use qrn_fleet::event::FleetEvent;
    use qrn_fleet::ingest::ingest_str;
    use qrn_units::{Hours, Speed};

    fn to_jsonl(events: &[FleetEvent]) -> String {
        let mut out = String::new();
        for event in events {
            out.push_str(&event.to_line());
            out.push('\n');
        }
        out
    }

    /// A deterministic log of `n` events with dyadic exposure chunks and
    /// periodic VRU collisions, spread over five vehicles.
    fn sample_events(n: usize) -> Vec<FleetEvent> {
        (0..n)
            .map(|i| {
                let vehicle = format!("V{:03}", i % 5);
                if i % 7 == 0 {
                    FleetEvent::Incident {
                        vehicle,
                        record: IncidentRecord::collision(
                            Involvement::ego_with(ObjectType::Vru),
                            Speed::from_kmh(5.0 + (i % 40) as f64).unwrap(),
                        ),
                    }
                } else {
                    FleetEvent::Exposure {
                        vehicle,
                        hours: Hours::new(((i % 13) + 1) as f64 * 0.25).unwrap(),
                    }
                }
            })
            .collect()
    }

    /// The published totals agree with `state`'s own, field by field and
    /// in the ledger's bytes.
    fn assert_totals_match(totals: &FleetTotals, state: &FleetState) {
        assert_eq!(
            serde_json::to_string(totals.evidence()).unwrap(),
            serde_json::to_string(state.evidence()).unwrap()
        );
        assert_eq!(totals.lines(), state.lines());
        assert_eq!(totals.events(), state.events());
        assert_eq!(totals.skipped(), state.skipped());
        assert_eq!(totals.vehicle_count(), state.vehicle_count());
    }

    #[test]
    fn resume_state_publishes_its_totals() {
        let classification = paper_classification().unwrap();
        let log = to_jsonl(&sample_events(50));
        let resume = ingest_str(&log, &classification, 2).unwrap();
        let expected_json = serde_json::to_string(&resume).unwrap();

        let state = ShardedState::new(4, resume.clone());
        assert_totals_match(&state.totals(), &resume);
        // An ingest-free fold returns the resumed state byte-identically.
        assert_eq!(serde_json::to_string(&state.fold()).unwrap(), expected_json);
    }

    #[test]
    fn concurrent_ingest_totals_are_exact() {
        let classification = paper_classification().unwrap();
        let segments: Vec<FleetState> = (0..8)
            .map(|i| {
                let events = sample_events(40 + i);
                ingest_str(&to_jsonl(&events), &classification, 2).unwrap()
            })
            .collect();
        let mut reference = FleetState::default();
        for segment in &segments {
            reference.merge(segment);
        }

        let state = Arc::new(ShardedState::new(4, FleetState::default()));
        let handles: Vec<_> = segments
            .into_iter()
            .map(|segment| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || state.ingest(&segment))
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }

        assert_totals_match(&state.totals(), &reference);
        // The fold has the same bytes as the in-order merge.
        assert_eq!(
            serde_json::to_string(&state.fold()).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
    }

    /// Several writers ingest segments of one fixed shape (`K` exposure
    /// lines of 0.25 h each) while a reader loops over `totals()`: every
    /// snapshot it sees is made of whole segments, and the snapshots
    /// never go backwards.
    #[test]
    fn readers_never_see_a_half_applied_segment() {
        const K: u64 = 6;
        const WRITERS: usize = 3;
        const SEGMENTS_PER_WRITER: usize = 200;
        let classification = paper_classification().unwrap();
        let segments: Vec<FleetState> = (0..WRITERS)
            .map(|writer| {
                let events: Vec<FleetEvent> = (0..K)
                    .map(|i| FleetEvent::Exposure {
                        vehicle: format!("W{writer}-{i}"),
                        hours: Hours::new(0.25).unwrap(),
                    })
                    .collect();
                ingest_str(&to_jsonl(&events), &classification, 1).unwrap()
            })
            .collect();

        let state = ShardedState::new(4, FleetState::default());
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut last = 0;
                let mut looks = 0u64;
                loop {
                    let finished = done.load(std::sync::atomic::Ordering::Acquire);
                    let totals = state.totals();
                    let lines = totals.lines();
                    assert_eq!(lines, totals.events());
                    assert_eq!(lines % K, 0, "a half-applied segment: {lines} lines");
                    assert_eq!(totals.exposure().value(), 0.25 * lines as f64);
                    assert!(lines >= last, "totals went backwards: {last} -> {lines}");
                    last = lines;
                    looks += 1;
                    if finished {
                        return (last, looks);
                    }
                }
            });
            let writers: Vec<_> = segments
                .iter()
                .map(|segment| {
                    let state = &state;
                    scope.spawn(move || {
                        for _ in 0..SEGMENTS_PER_WRITER {
                            state.ingest(segment);
                        }
                    })
                })
                .collect();
            for writer in writers {
                writer.join().unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::Release);
            let (last, looks) = reader.join().unwrap();
            assert_eq!(last, K * (WRITERS * SEGMENTS_PER_WRITER) as u64);
            assert!(looks > 1);
        });
        assert_eq!(state.totals().vehicle_count(), K * WRITERS as u64);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The segmentation contract, machine-checked: for any event log
        /// with dyadic exposure chunks, any segmentation and any parse
        /// shard count, ingesting the segments one by one and folding is
        /// byte-identical to one-shot offline `ingest_str` of the whole
        /// log, and so are the published totals.
        #[test]
        fn any_sharding_folds_byte_identical_to_one_shot_ingest(
            event_count in 1usize..300,
            cut_permilles in proptest::collection::vec(0usize..=1000, 0..6),
            parse_shards in 1usize..5,
        ) {
            let classification = paper_classification().unwrap();
            let log = to_jsonl(&sample_events(event_count));
            let whole = ingest_str(&log, &classification, parse_shards).unwrap();

            // Split the log at the requested permille marks into
            // contiguous segments (empty segments allowed).
            let lines: Vec<&str> = log.lines().collect();
            let mut cuts: Vec<usize> = cut_permilles
                .iter()
                .map(|p| lines.len() * p / 1000)
                .collect();
            cuts.sort_unstable();
            let mut segments = Vec::new();
            let mut prev = 0;
            for cut in cuts.into_iter().chain(std::iter::once(lines.len())) {
                segments.push(lines[prev..cut].join("\n"));
                prev = cut;
            }

            let state = ShardedState::new(1, FleetState::default());
            for segment in &segments {
                let parsed = ingest_str(segment, &classification, parse_shards).unwrap();
                state.ingest(&parsed);
            }

            prop_assert_eq!(
                serde_json::to_string(&state.fold()).unwrap(),
                serde_json::to_string(&whole).unwrap()
            );
            let totals = state.totals();
            prop_assert_eq!(
                serde_json::to_string(totals.evidence()).unwrap(),
                serde_json::to_string(whole.evidence()).unwrap()
            );
            prop_assert_eq!(totals.lines(), whole.lines());
            prop_assert_eq!(totals.events(), whole.events());
            prop_assert_eq!(totals.skipped(), whole.skipped());
            prop_assert_eq!(totals.vehicle_count(), whole.vehicle_count());
        }
    }
}
