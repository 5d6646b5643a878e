//! The `qrn serve` subcommand: the live evidence server.
//!
//! ```text
//! qrn serve case/norm.json case/classification.json case/allocation.json \
//!     --port 7878 --checkpoint case/live-state.json \
//!     --item vru=vru-norm.json,vru-classification.json,vru-allocation.json
//! curl -X POST --data-binary @segment.jsonl http://127.0.0.1:7878/v1/ingest
//! curl http://127.0.0.1:7878/v1/burndown
//! curl http://127.0.0.1:7878/v1/vru/burndown
//! curl http://127.0.0.1:7878/metrics
//! curl -X POST http://127.0.0.1:7878/v1/shutdown
//! ```
//!
//! The positional artefacts define the item named `default`, reachable
//! through the bare `/v1/ingest` and `/v1/burndown` routes; each
//! `--item <name>=<norm>,<classification>,<allocation>` adds another
//! independently served item. The process blocks until
//! `POST /v1/shutdown`, then drains in-flight requests and writes a
//! final crash-safe checkpoint per item.

use std::path::{Path, PathBuf};
use std::time::Duration;

use qrn_core::allocation::Allocation;
use qrn_core::norm::QuantitativeRiskNorm;
use qrn_core::IncidentClassification;
use qrn_serve::{ServeConfig, Server};

use crate::commands::{burndown_config_from, evidence_from, flag, flag_values, parse_int};
use crate::io::read_artefact;
use crate::{CliError, CommandOutcome};

/// Runs `serve <norm> <classification> <allocation> [flags]`.
///
/// # Errors
///
/// Returns [`CliError`] for malformed flags, unreadable artefacts, an
/// unbindable port or a corrupt checkpoint.
pub fn run(
    norm_path: &Path,
    classification_path: &Path,
    allocation_path: &Path,
    rest: &[&str],
) -> Result<CommandOutcome, CliError> {
    let norm: QuantitativeRiskNorm = read_artefact(norm_path)?;
    let classification: IncidentClassification = read_artefact(classification_path)?;
    let allocation: Allocation = read_artefact(allocation_path)?;

    let mut config = ServeConfig::new(norm, classification, allocation);
    for spec in flag_values(rest, "--item") {
        let (name, artefacts) = spec.split_once('=').ok_or_else(|| {
            CliError(format!(
                "--item must be <name>=<norm.json>,<classification.json>,<allocation.json>, \
                 got {spec:?}"
            ))
        })?;
        let paths: Vec<&str> = artefacts.split(',').collect();
        let [norm_path, classification_path, allocation_path] = paths.as_slice() else {
            return Err(CliError(format!(
                "--item {name} needs exactly three comma-separated artefacts \
                 (norm, classification, allocation), got {}",
                paths.len()
            )));
        };
        let norm: QuantitativeRiskNorm = read_artefact(Path::new(norm_path))?;
        let classification: IncidentClassification = read_artefact(Path::new(classification_path))?;
        let allocation: Allocation = read_artefact(Path::new(allocation_path))?;
        config.add_item(name, norm, classification, allocation);
    }
    if let Some(text) = flag(rest, "--bind") {
        config.bind = text.to_string();
    }
    if let Some(text) = flag(rest, "--port") {
        config.port = parse_int(text, "--port")?;
    }
    if let Some(text) = flag(rest, "--workers") {
        config.workers = parse_int(text, "--workers")?;
    }
    if let Some(text) = flag(rest, "--queue-depth") {
        config.queue_depth = parse_int(text, "--queue-depth")?;
    }
    if let Some(text) = flag(rest, "--max-body-bytes") {
        config.max_body_bytes = parse_int(text, "--max-body-bytes")?;
    }
    if let Some(text) = flag(rest, "--io-timeout-secs") {
        config.io_timeout = Duration::from_secs(parse_int(text, "--io-timeout-secs")?);
    }
    if let Some(text) = flag(rest, "--shards") {
        config.shards = parse_int(text, "--shards")?;
    }
    if let Some(text) = flag(rest, "--state-shards") {
        config.state_shards = parse_int(text, "--state-shards")?;
    }
    if let Some(text) = flag(rest, "--checkpoint") {
        config.checkpoint = Some(PathBuf::from(text));
    }
    if let Some(text) = flag(rest, "--checkpoint-every") {
        config.checkpoint_every = parse_int(text, "--checkpoint-every")?;
    }
    if let Some(text) = flag(rest, "--store") {
        config.store = Some(PathBuf::from(text));
    }
    if let Some(text) = flag(rest, "--store-snapshot-every") {
        config.store_snapshot_every = parse_int(text, "--store-snapshot-every")?;
    }
    if let Some(text) = flag(rest, "--store-roll-bytes") {
        config.store_roll_bytes = parse_int(text, "--store-roll-bytes")?;
    }
    if let Some(text) = flag(rest, "--store-compact-after") {
        config.store_compact_after = parse_int(text, "--store-compact-after")?;
    }
    if let Some(text) = flag(rest, "--store-group-commit") {
        config.store_group_commit = parse_int(text, "--store-group-commit")?;
    }
    for ledger in evidence_from(rest)? {
        config.push_evidence(ledger);
    }
    config.burndown = burndown_config_from(rest)?;

    let checkpoint = config.checkpoint.clone();
    let store = config.store.clone();
    let item_names: Vec<String> = config.items.iter().map(|item| item.name.clone()).collect();
    let handle = Server::start(config)?;
    println!(
        "serving on http://{} — POST /v1/[<item>/]ingest, \
         GET /v1/[<item>/]burndown[?context=..][&where=..], \
         GET /metrics, GET /healthz, POST /v1/shutdown",
        handle.addr()
    );
    println!("items: {}", item_names.join(", "));
    if let Some(path) = &checkpoint {
        println!(
            "checkpointing to {} (non-default items get per-item files)",
            path.display()
        );
    }
    if let Some(path) = &store {
        println!(
            "evidence store at {} (per-item append-only logs; GET \
             /v1/[<item>/]burndown?as_of=<millis> and /v1/[<item>/]history enabled)",
            path.display()
        );
    }
    handle.wait()?;
    match &checkpoint {
        Some(path) => println!("drained; final checkpoint written to {}", path.display()),
        None => println!("drained; no checkpoint configured"),
    }
    Ok(CommandOutcome::Ok)
}
