//! The `qrn store` subcommand family: offline access to a server's
//! append-only evidence store.
//!
//! ```text
//! qrn store inspect case/classification.json --dir case/store/default
//! qrn store replay  case/classification.json --dir case/store/default \
//!     --as-of 1700000000000 --out state.json --dump-log accepted.jsonl
//! qrn store verify  case/classification.json --dir case/store/default
//! qrn store compact case/classification.json --dir case/store/default
//! ```
//!
//! All four commands operate on one item's store directory
//! (`<--store>/<item>` of a `qrn serve --store` deployment). `inspect`,
//! `replay` and `verify` are pure readers, safe against a live server;
//! `compact` takes the writer role, so the store's advisory `.lock`
//! makes it refuse to run while a live server holds the directory.

use std::path::{Path, PathBuf};

use qrn_core::IncidentClassification;
use qrn_store::{Store, StoreConfig, StoreReader};

use crate::commands::{flag, parse_int, required_flag};
use crate::io::{read_artefact, write_artefact};
use crate::{CliError, CommandOutcome};

/// Dispatches a `store …` argument vector (without the leading `store`).
///
/// # Errors
///
/// Returns [`CliError`] for unknown subcommands, malformed flags,
/// unreadable artefacts or a corrupt store.
pub fn run(rest: &[&str]) -> Result<CommandOutcome, CliError> {
    match rest {
        ["inspect", classification, rest @ ..] => inspect(Path::new(classification), rest),
        ["replay", classification, rest @ ..] => replay(Path::new(classification), rest),
        ["compact", classification, rest @ ..] => compact(Path::new(classification), rest),
        ["verify", classification, rest @ ..] => verify(Path::new(classification), rest),
        [cmd, ..] => Err(CliError(format!(
            "unknown store subcommand {cmd:?}; expected inspect|replay|compact|verify"
        ))),
        [] => Err(CliError(
            "store needs a subcommand: inspect|replay|compact|verify".into(),
        )),
    }
}

fn open_reader(
    classification_path: &Path,
    rest: &[&str],
) -> Result<(StoreReader, PathBuf), CliError> {
    let classification: IncidentClassification = read_artefact(classification_path)?;
    let dir = PathBuf::from(required_flag(rest, "--dir")?);
    let shards = match flag(rest, "--shards") {
        Some(text) => parse_int(text, "--shards")?,
        None => std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1),
    };
    Ok((StoreReader::open(&dir, classification, shards)?, dir))
}

fn parse_as_of(rest: &[&str]) -> Result<Option<u64>, CliError> {
    flag(rest, "--as-of")
        .map(|text| {
            text.parse().map_err(|_| {
                CliError(format!(
                    "--as-of must be a unix timestamp in milliseconds, got {text:?}"
                ))
            })
        })
        .transpose()
}

fn inspect(classification_path: &Path, rest: &[&str]) -> Result<CommandOutcome, CliError> {
    let (reader, dir) = open_reader(classification_path, rest)?;
    let history = reader.history()?;
    println!(
        "store {}: {} segment file(s)",
        dir.display(),
        history.segments.len()
    );
    for segment in &history.segments {
        let span = match (segment.first_ts, segment.last_ts) {
            (Some(first), Some(last)) => format!("ts {first}..{last}"),
            _ => "empty".to_string(),
        };
        println!(
            "  {}: {} bytes, {} record(s) ({} batch(es), {} snapshot(s)), {span}",
            segment.file, segment.bytes, segment.records, segment.batches, segment.snapshots,
        );
    }
    if history.points.is_empty() {
        println!("no records stored yet");
    } else {
        println!("history:");
        for point in &history.points {
            println!(
                "  as of {}: {} events over {:.1} h{}",
                point.ts,
                point.state.events(),
                point.state.exposure().value(),
                if point.live { " (live)" } else { " (snapshot)" },
            );
        }
    }
    Ok(CommandOutcome::Ok)
}

fn replay(classification_path: &Path, rest: &[&str]) -> Result<CommandOutcome, CliError> {
    let (reader, dir) = open_reader(classification_path, rest)?;
    let as_of = parse_as_of(rest)?;
    let summary = reader.fold_as_of(as_of)?;
    match as_of {
        Some(cut) => println!(
            "replayed {} up to {cut}: {} record(s) ({} batch(es), {} snapshot(s))",
            dir.display(),
            summary.records,
            summary.batches,
            summary.snapshots,
        ),
        None => println!(
            "replayed {}: {} record(s) ({} batch(es), {} snapshot(s))",
            dir.display(),
            summary.records,
            summary.batches,
            summary.snapshots,
        ),
    }
    crate::fleet::print_state(&summary.state);
    println!(
        "  screening: {} duplicate(s) rejected, {} gap(s), {} missing seq(s), {} source cursor(s)",
        summary.duplicates,
        summary.gap_events,
        summary.missing_seqs,
        summary.cursors.len(),
    );
    if summary.torn_tail_bytes > 0 {
        println!(
            "  note: {} torn byte(s) at the open segment's tail (the writer repairs this on \
             its next open)",
            summary.torn_tail_bytes
        );
    }
    if let Some(out) = flag(rest, "--out") {
        let path = PathBuf::from(out);
        write_artefact(&path, &summary.state)?;
        println!("wrote fleet state to {}", path.display());
    }
    if let Some(out) = flag(rest, "--dump-log") {
        let path = PathBuf::from(out);
        let log = reader.dump_log(as_of)?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(&path, &log)
            .map_err(|e| CliError(format!("cannot write {}: {e}", path.display())))?;
        println!(
            "wrote {} accepted line(s) to {}",
            log.lines().count(),
            path.display()
        );
    }
    Ok(CommandOutcome::Ok)
}

fn compact(classification_path: &Path, rest: &[&str]) -> Result<CommandOutcome, CliError> {
    let classification: IncidentClassification = read_artefact(classification_path)?;
    let dir = PathBuf::from(required_flag(rest, "--dir")?);
    let mut store = Store::open(&dir, classification, StoreConfig::default())?;
    let before = store.status();
    if store.compact()? {
        let after = store.status();
        println!(
            "compacted {}: {} closed segment(s) -> 1 snapshot segment ({} compaction(s) total)",
            dir.display(),
            before.closed_segments.max(1),
            after.compactions,
        );
    } else {
        println!("nothing to compact in {}", dir.display());
    }
    Ok(CommandOutcome::Ok)
}

fn verify(classification_path: &Path, rest: &[&str]) -> Result<CommandOutcome, CliError> {
    let (reader, dir) = open_reader(classification_path, rest)?;
    let report = reader.verify()?;
    println!(
        "verified {}: {} record(s) ({} batch(es), {} snapshot(s), {} snapshot(s) checked \
         against independent replay)",
        dir.display(),
        report.records,
        report.batches,
        report.snapshots,
        report.snapshots_verified,
    );
    if report.torn_tail_bytes > 0 {
        println!(
            "  note: {} torn byte(s) at the open segment's tail",
            report.torn_tail_bytes
        );
    }
    if report.ok() {
        println!("store is internally consistent");
        Ok(CommandOutcome::Ok)
    } else {
        for mismatch in &report.mismatches {
            println!("  MISMATCH: {mismatch}");
        }
        Ok(CommandOutcome::CheckFailed(format!(
            "{} snapshot mismatch(es) found",
            report.mismatches.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::run as run_cli;
    use qrn_core::examples::paper_classification;
    use qrn_fleet::event::FleetEvent;
    use qrn_units::Hours;

    fn run_strs(args: &[&str]) -> Result<CommandOutcome, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run_cli(&owned)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qrn-store-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seed_store(dir: &Path) {
        let mut store = Store::open(
            dir,
            paper_classification().unwrap(),
            StoreConfig {
                snapshot_every_events: 2,
                roll_bytes: 1,
                compact_after_segments: 0,
                parse_shards: 1,
            },
        )
        .unwrap();
        for i in 1..=4u64 {
            let line = FleetEvent::Exposure {
                vehicle: "V1".into(),
                hours: Hours::new(0.5).unwrap(),
            }
            .to_line_with_seq(i);
            store.append_batch(&format!("{line}\n"), i * 1000).unwrap();
        }
    }

    #[test]
    fn inspect_replay_verify_compact_round_trip() {
        let base = temp_dir("roundtrip");
        run_strs(&["example", "emit", "--dir", base.to_str().unwrap()]).unwrap();
        let classification = base.join("classification.json");
        let c = classification.to_str().unwrap();
        let store_dir = base.join("store");
        seed_store(&store_dir);
        let d = store_dir.to_str().unwrap();

        assert_eq!(
            run_strs(&["store", "inspect", c, "--dir", d]).unwrap(),
            CommandOutcome::Ok
        );
        assert_eq!(
            run_strs(&["store", "verify", c, "--dir", d]).unwrap(),
            CommandOutcome::Ok
        );
        // Replay with dump: the accepted log re-ingests to the same state.
        let state_path = base.join("replayed.json");
        let log_path = base.join("accepted.jsonl");
        assert_eq!(
            run_strs(&[
                "store",
                "replay",
                c,
                "--dir",
                d,
                "--out",
                state_path.to_str().unwrap(),
                "--dump-log",
                log_path.to_str().unwrap(),
            ])
            .unwrap(),
            CommandOutcome::Ok
        );
        let ingested = base.join("ingested.json");
        run_strs(&[
            "fleet",
            "ingest",
            c,
            "--log",
            log_path.to_str().unwrap(),
            "--shards",
            "2",
            "--out",
            ingested.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(
            std::fs::read(&state_path).unwrap(),
            std::fs::read(&ingested).unwrap()
        );
        // Time travel: as of ts 2000, only the first two batches count.
        let early = base.join("early.json");
        run_strs(&[
            "store",
            "replay",
            c,
            "--dir",
            d,
            "--as-of",
            "2000",
            "--out",
            early.to_str().unwrap(),
        ])
        .unwrap();
        let state: qrn_fleet::ingest::FleetState =
            serde_json::from_str(&std::fs::read_to_string(&early).unwrap()).unwrap();
        assert!((state.exposure().value() - 1.0).abs() < 1e-12);
        // Compact, then everything still verifies and replays identically.
        assert_eq!(
            run_strs(&["store", "compact", c, "--dir", d]).unwrap(),
            CommandOutcome::Ok
        );
        assert_eq!(
            run_strs(&["store", "verify", c, "--dir", d]).unwrap(),
            CommandOutcome::Ok
        );
        let recompacted = base.join("compacted.json");
        run_strs(&[
            "store",
            "replay",
            c,
            "--dir",
            d,
            "--out",
            recompacted.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(
            std::fs::read(&state_path).unwrap(),
            std::fs::read(&recompacted).unwrap()
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn store_validates_arguments() {
        assert!(run_strs(&["store"]).is_err());
        assert!(run_strs(&["store", "teleport"]).is_err());
        assert!(run_strs(&["store", "inspect", "/nonexistent.json", "--dir", "/tmp/x"]).is_err());
    }
}
