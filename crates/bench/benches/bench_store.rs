//! Criterion bench of the append-only evidence store: durable batch
//! append throughput (screen + fold + fsync per batch) and historical
//! replay latency, with and without snapshot records bounding the tail.
//!
//! After the criterion groups run, the harness writes the machine-local
//! perf baseline `results/BENCH_store.json`: append rate, `as_of`
//! replay cost and `Store::open` recovery time for a store that never
//! snapshots versus one that snapshots every 512 events, the
//! mid-history `as_of` fold read on one and on two workers, and the
//! command that produced it. The *timings* are machine-local; the
//! structural claims are not, and are asserted here: both stores fold
//! to byte-identical fleet states, and the snapshotted store answers
//! the same `as_of` query by folding strictly fewer records (snapshot +
//! tail instead of the whole log).

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use qrn_bench::report::save_json;
use qrn_core::examples::paper_classification;
use qrn_fleet::telemetry::TelemetryConfig;
use qrn_store::{Store, StoreConfig, StoreReader};
use qrn_units::Hours;

fn quick() -> bool {
    std::env::var("QRN_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qrn-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One sequenced telemetry log split into `lines_per_batch`-line upload
/// batches. Splitting *after* seq stamping keeps every vehicle's
/// sequence monotone across batches, as a well-behaved uplink would.
fn sequenced_batches(hours: f64, lines_per_batch: usize) -> Vec<String> {
    let log = TelemetryConfig::new(8)
        .hours(Hours::new(hours).expect("positive"))
        .seed(7)
        .stamp_seq(true)
        .generate_jsonl()
        .expect("telemetry generates");
    let lines: Vec<&str> = log.lines().collect();
    lines
        .chunks(lines_per_batch)
        .map(|chunk| {
            let mut batch = String::with_capacity(chunk.iter().map(|l| l.len() + 1).sum());
            for line in chunk {
                batch.push_str(line);
                batch.push('\n');
            }
            batch
        })
        .collect()
}

fn store_config(snapshot_every_events: u64) -> StoreConfig {
    StoreConfig {
        snapshot_every_events,
        roll_bytes: 256 * 1024,
        compact_after_segments: 0,
        parse_shards: 1,
    }
}

/// Appends every batch at 1 ms spacing; returns the elapsed seconds.
fn append_all(store: &mut Store, batches: &[String]) -> f64 {
    let start = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        store
            .append_batch(batch, (i as u64 + 1) * 1_000)
            .expect("append");
    }
    start.elapsed().as_secs_f64()
}

fn bench_append(c: &mut Criterion) {
    let dir = temp_dir("append");
    let mut store = Store::open(
        &dir,
        paper_classification().expect("paper example"),
        store_config(512),
    )
    .expect("store opens");
    // Unsequenced lines: repeated appends of the same batch must not be
    // screened out as duplicates, so the bench measures the full
    // screen + fold + fsync path on every iteration.
    let batch = TelemetryConfig::new(8)
        .hours(Hours::new(64.0).expect("positive"))
        .seed(11)
        .generate_jsonl()
        .expect("telemetry generates");
    let lines = batch.lines().count();
    let mut ts = 0u64;
    c.bench_function(format!("store/append_{lines}_lines").as_str(), |b| {
        b.iter(|| {
            ts += 1_000;
            store.append_batch(black_box(&batch), ts).expect("append")
        })
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_replay(c: &mut Criterion) {
    let dir = temp_dir("replay");
    let classification = paper_classification().expect("paper example");
    let mut store =
        Store::open(&dir, classification.clone(), store_config(512)).expect("store opens");
    let batches = sequenced_batches(256.0, 64);
    append_all(&mut store, &batches);
    let last_ts = batches.len() as u64 * 1_000;
    drop(store);

    let reader = StoreReader::open(&dir, classification, 1).expect("reader opens");
    c.bench_function("store/replay_full", |b| {
        b.iter(|| reader.fold_as_of(black_box(None)).expect("fold"))
    });
    c.bench_function("store/replay_as_of_mid", |b| {
        b.iter(|| {
            reader
                .fold_as_of(black_box(Some(last_ts / 2)))
                .expect("fold")
        })
    });
    drop(reader);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What [`timed_store`] measured.
struct Timed {
    append_secs: f64,
    fold_secs: f64,
    open_secs: f64,
    records_folded: u64,
    /// Median `as_of` fold at the middle batch, on 1 and on 2 workers.
    mid_fold_secs: [f64; 2],
    state: String,
}

/// Median seconds of `runs` calls of `f`.
fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut secs: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[runs / 2]
}

/// Builds a store with the given snapshot cadence from `batches`, then
/// times the median `as_of` fold at the newest batch, the median
/// `as_of` fold at the middle batch on one and on two reader workers,
/// and one `Store::open` recovery, and keeps the folded state's
/// canonical JSON. The append time is the median of building the store
/// five times, since one fsync-bound run spreads widely.
fn timed_store(snapshot_every_events: u64, batches: &[String]) -> Timed {
    let dir = temp_dir(&format!("baseline-{snapshot_every_events}"));
    let classification = paper_classification().expect("paper example");
    let mut append_runs: Vec<f64> = (0..5)
        .map(|_| {
            let _ = std::fs::remove_dir_all(&dir);
            let mut store = Store::open(
                &dir,
                classification.clone(),
                store_config(snapshot_every_events),
            )
            .expect("store opens");
            append_all(&mut store, batches)
        })
        .collect();
    append_runs.sort_by(f64::total_cmp);
    let append_secs = append_runs[append_runs.len() / 2];

    let reader = StoreReader::open(&dir, classification.clone(), 1).expect("reader opens");
    let last_ts = batches.len() as u64 * 1_000;
    let summary = reader.fold_as_of(Some(last_ts)).expect("fold");
    let fold_secs = median_secs(21, || {
        black_box(reader.fold_as_of(Some(last_ts)).expect("fold"));
    });
    let mid_fold_secs = [1, 2].map(|shards| {
        let reader = StoreReader::open(&dir, classification.clone(), shards).expect("reader opens");
        median_secs(21, || {
            black_box(reader.fold_as_of(Some(last_ts / 2)).expect("fold"));
        })
    });
    let start = Instant::now();
    let store = Store::open(&dir, classification, store_config(snapshot_every_events))
        .expect("store reopens");
    let open_secs = start.elapsed().as_secs_f64();
    let state = serde_json::to_string(&summary.state).expect("state serialises");
    assert_eq!(
        serde_json::to_string(store.state()).expect("state serialises"),
        state,
        "recovery and the as_of fold disagree"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Timed {
        append_secs,
        fold_secs,
        open_secs,
        records_folded: summary.records,
        mid_fold_secs,
        state,
    }
}

/// Writes `results/BENCH_store.json` and asserts the structural claims
/// that hold on any machine: snapshot cadence never changes the folded
/// state (byte-identical JSON) and a snapshotted store answers the same
/// `as_of` query by folding strictly fewer records.
fn emit_store_baseline() {
    let host_cpus = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let hours = if quick() { 256.0 } else { 1024.0 };
    let batches = sequenced_batches(hours, 32);
    let events: usize = batches.iter().map(|b| b.lines().count()).sum();

    let mut rows = Vec::new();
    let mut folded_records = Vec::new();
    let mut states = Vec::new();
    for snapshot_every in [0u64, 512] {
        let timed = timed_store(snapshot_every, &batches);
        let append_rate = events as f64 / timed.append_secs;
        let [mid_1, mid_2] = timed.mid_fold_secs.map(|secs| secs * 1e3);
        println!(
            "store/baseline snapshot_every={snapshot_every}: {append_rate:.0} events/s appended, \
             as_of fold {:.2} ms over {} record(s), mid-history as_of {mid_1:.2} ms on 1 \
             worker and {mid_2:.2} ms on 2, open {:.2} ms",
            timed.fold_secs * 1e3,
            timed.records_folded,
            timed.open_secs * 1e3,
        );
        rows.push(serde_json::json!({
            "snapshot_every_events": snapshot_every,
            "append_events_per_second": append_rate,
            "as_of_fold_millis": timed.fold_secs * 1e3,
            "as_of_records_folded": timed.records_folded,
            "as_of_mid_millis_1_shard": mid_1,
            "as_of_mid_millis_2_shards": mid_2,
            "open_millis": timed.open_secs * 1e3,
        }));
        folded_records.push(timed.records_folded);
        states.push(timed.state);
    }
    let command = format!(
        "{}cargo bench -p qrn-bench --bench bench_store",
        if quick() { "QRN_BENCH_QUICK=1 " } else { "" }
    );

    save_json(
        "BENCH_store",
        &serde_json::json!({
            "host_cpus": host_cpus,
            "events": events,
            "batches": batches.len(),
            "quick": quick(),
            "command": command,
            "baseline": rows,
            "note": "durable append rate (median of 5 builds), as_of replay cost (median of 21 \
                     folds at the newest batch, and at the middle batch read on 1 and 2 \
                     workers) and Store::open recovery time \
                     without vs with snapshot records; timings are machine-local, but the \
                     snapshotted store must fold strictly fewer records for the same query \
                     and both must fold, and recover, to byte-identical states",
        }),
    );

    assert_eq!(
        states[0], states[1],
        "snapshot cadence changed the folded state"
    );
    assert!(
        folded_records[1] < folded_records[0],
        "snapshotted as_of replay folded {} record(s), not fewer than the \
         snapshot-free store's {}",
        folded_records[1],
        folded_records[0],
    );
}

criterion_group!(benches, bench_append, bench_replay);

fn main() {
    benches();
    emit_store_baseline();
}
