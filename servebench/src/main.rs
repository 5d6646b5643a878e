//! `servebench`: the end-to-end and per-layer benchmark of
//! `qrn serve --store`.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload ingest_durable --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. The benchmark builds the release `qrn`
//! binary, drives `qrn serve --store <dir> --port 0` (every other flag at
//! its default) over loopback TCP, checks the served bodies against the
//! offline pipeline and prints one metric per line, then a JSON summary
//! as the last line. `--trace 1` adds in-process layer replays and prints
//! the per-layer metrics instead. See `servebench/README.md`.

mod check;
mod client;
mod gen;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use qrn_core::allocation::Allocation;
use qrn_core::norm::QuantitativeRiskNorm;
use qrn_core::IncidentClassification;

use crate::trace::Tracer;
use crate::workloads::Env;

/// The served item's artefacts, as `qrn example emit` writes them.
pub struct Case {
    pub norm: QuantitativeRiskNorm,
    pub classification: IncidentClassification,
    pub allocation: Allocation,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
    })
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs one workload; `Ok(false)` when a reference check failed.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/cli is missing)".into());
    }
    let qrn = build_qrn(&root)?;
    let base = root.join(".servebench");
    let work = base.join(format!("work-{}-{}", args.workload, std::process::id()));
    let out_dir = base.join("results");
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let result = run_in(&args, &root, &qrn, &work, &out_dir);
    workloads::remove_dir(&work);
    result
}

fn run_in(
    args: &Args,
    root: &Path,
    qrn: &Path,
    work: &Path,
    out_dir: &Path,
) -> Result<bool, String> {
    let case_dir = work.join("case");
    let status = Command::new(qrn)
        .args(["example", "emit", "--dir"])
        .arg(&case_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run qrn example emit: {e}"))?;
    if !status.success() {
        return Err("qrn example emit failed".into());
    }
    let read = |name: &str| -> Result<String, String> {
        std::fs::read_to_string(case_dir.join(name)).map_err(|e| format!("{name}: {e}"))
    };
    let case = Case {
        norm: serde_json::from_str(&read("norm.json")?).map_err(|e| e.to_string())?,
        classification: serde_json::from_str(&read("classification.json")?)
            .map_err(|e| e.to_string())?,
        allocation: serde_json::from_str(&read("allocation.json")?).map_err(|e| e.to_string())?,
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let started = Instant::now();
    let env = Env {
        qrn: qrn.to_path_buf(),
        case_dir,
        case,
        work: work.to_path_buf(),
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        tally: Default::default(),
        tracer: args.trace.then(|| Tracer::new(started)),
        next_request: Default::default(),
    };
    let outcome = env.run(&args.workload)?;

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Some(tracer) = &env.tracer {
        tracer
            .write_jsonl(&out_dir.join(format!("{stem}.spans.jsonl")))
            .map_err(|e| format!("cannot write spans: {e}"))?;
    }
    let mut provenance = outcome.provenance.clone();
    provenance.extend(
        [
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("nproc", nproc.to_string()),
            ("command", std::env::args().collect::<Vec<_>>().join(" ")),
            (
                "server_flags",
                "serve <norm> <classification> <allocation> --store <dir> --port 0".into(),
            ),
            ("git_rev", git_rev(root)),
            ("run_s", format!("{:.3}", started.elapsed().as_secs_f64())),
            ("attempted", env.tally.attempted().to_string()),
            ("failed", env.tally.failed().to_string()),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    let correct = outcome.check_failures.is_empty();
    for failure in &outcome.check_failures {
        eprintln!("servebench: reference check failed: {failure}");
    }
    let metrics = if !correct {
        &[][..]
    } else if args.trace {
        &outcome.layers[..]
    } else {
        &outcome.e2e[..]
    };
    for (k, v) in &provenance {
        println!("# {k}: {v}");
    }
    let row = |m: &Metric| println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    if correct && !args.trace {
        println!("# per request kind (informational, not bounded)");
        outcome.kinds.iter().for_each(row);
        println!("# end-to-end (bounded; also in the summary line)");
    }
    metrics.iter().for_each(row);
    let result = summary_json(correct, &env, metrics);
    let kinds = summary_json(correct, &env, &outcome.kinds);
    let record = format!(
        "{{\"provenance\":{},\"checks\":{},\"kinds\":{kinds},\"result\":{result}}}\n",
        json_map(&provenance),
        json_list(&outcome.check_failures),
    );
    std::fs::write(out_dir.join(format!("{stem}.json")), record)
        .map_err(|e| format!("cannot write the result record: {e}"))?;
    println!("{result}");
    Ok(correct)
}

/// Builds the release `qrn` binary from the checkout and returns its path.
fn build_qrn(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "qrn-cli",
            "--bin",
            "qrn",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("cargo build of qrn failed".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let qrn = target.join("release").join("qrn");
    if qrn.is_file() {
        Ok(qrn)
    } else {
        Err(format!("no binary at {}", qrn.display()))
    }
}

fn git_rev(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".into())
}

fn summary_json(correct: bool, env: &Env, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        env.tally.attempted().max(1),
        env.tally.failed(),
        body.join(", ")
    )
}

/// A finite JSON number with every digit the measurement has.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialise")
}

fn json_map(map: &BTreeMap<String, String>) -> String {
    let body: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn json_list(items: &[String]) -> String {
    let body: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", body.join(","))
}
