//! Subcommand implementations and argument dispatch.

use std::path::{Path, PathBuf};

use qrn_core::allocation::Allocation;
use qrn_core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn_core::incident::IncidentRecord;
use qrn_core::norm::QuantitativeRiskNorm;
use qrn_core::object::{Involvement, ObjectType};
use qrn_core::safety_case::{ClaimStatus, SafetyCase};
use qrn_core::safety_goal::derive_with_certificate;
use qrn_core::verification::verify;
use qrn_core::IncidentClassification;
use qrn_fleet::burndown::{join_evidence, BurnDownConfig};
use qrn_sim::monte_carlo::Campaign;
use qrn_sim::policy::{CautiousPolicy, ReactivePolicy, TacticalPolicy};
use qrn_sim::scenario::{highway_scenario, mixed_scenario, urban_scenario, WorldConfig};
use qrn_sim::SplittingConfig;
use qrn_stats::evidence::EvidenceLedger;
use qrn_units::{Hours, Meters, Speed};

use crate::io::{read_artefact, write_artefact, RecordsFile};
use crate::{CliError, CommandOutcome, USAGE};

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, malformed flags, or
/// unreadable artefacts.
pub fn run(args: &[String]) -> Result<CommandOutcome, CliError> {
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.as_slice() {
        [] | ["--help"] | ["-h"] | ["help"] => {
            println!("{USAGE}");
            Ok(CommandOutcome::Ok)
        }
        ["example", "emit", rest @ ..] => example_emit(rest),
        ["norm", "check", path] => norm_check(Path::new(path)),
        ["classify", path, rest @ ..] => classify(Path::new(path), rest),
        ["mece", path] => mece(Path::new(path)),
        ["eq1", norm, allocation] => eq1(Path::new(norm), Path::new(allocation)),
        ["goals", classification, allocation] => {
            goals(Path::new(classification), Path::new(allocation))
        }
        ["simulate", rest @ ..] => simulate(rest),
        ["verify", norm, classification, allocation, records, rest @ ..] => verify_cmd(
            Path::new(norm),
            Path::new(classification),
            Path::new(allocation),
            Path::new(records),
            rest,
        ),
        ["safety-case", item, norm, classification, allocation, records, rest @ ..] => safety_case(
            item,
            Path::new(norm),
            Path::new(classification),
            Path::new(allocation),
            Path::new(records),
            rest,
        ),
        ["report", item, norm, classification, allocation, rest @ ..] => report_cmd(
            item,
            Path::new(norm),
            Path::new(classification),
            Path::new(allocation),
            rest,
        ),
        ["fleet", rest @ ..] => crate::fleet::run(rest),
        ["evidence", rest @ ..] => crate::evidence::run(rest),
        ["store", rest @ ..] => crate::store::run(rest),
        ["serve", norm, classification, allocation, rest @ ..] => crate::serve::run(
            Path::new(norm),
            Path::new(classification),
            Path::new(allocation),
            rest,
        ),
        ["serve", ..] => Err(CliError(
            "serve needs <norm.json> <classification.json> <allocation.json>".into(),
        )),
        [cmd, ..] => Err(CliError(format!(
            "unknown command {cmd:?}; run `qrn --help` for usage"
        ))),
    }
}

/// Extracts `--name value` from an argument slice.
pub(crate) fn flag<'a>(args: &'a [&str], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| *a == name)
        .and_then(|i| args.get(i + 1))
        .copied()
}

/// Extracts every `--name value` occurrence, in argument order.
pub(crate) fn flag_values<'a>(args: &'a [&str], name: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| **a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .copied()
        .collect()
}

/// Returns `true` when the valueless `--name` switch is present.
pub(crate) fn has_flag(args: &[&str], name: &str) -> bool {
    args.contains(&name)
}

pub(crate) fn required_flag<'a>(args: &'a [&str], name: &str) -> Result<&'a str, CliError> {
    flag(args, name).ok_or_else(|| CliError(format!("missing required flag {name} <value>")))
}

pub(crate) fn parse_f64(text: &str, what: &str) -> Result<f64, CliError> {
    text.parse()
        .map_err(|_| CliError(format!("{what} must be a number, got {text:?}")))
}

pub(crate) fn parse_int<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, CliError> {
    text.parse()
        .map_err(|_| CliError(format!("{what} must be an integer, got {text:?}")))
}

/// The burn-down analysis flags `fleet report` and `serve` share:
/// `--confidence`, `--alpha`, `--beta`, `--sprt-fraction`,
/// `--watch-ratio`, `--sequential`, and `--by-context` (or its pre-0.8
/// alias `--by-zone`).
pub(crate) fn burndown_config_from(args: &[&str]) -> Result<BurnDownConfig, CliError> {
    let mut config = BurnDownConfig::default();
    for (name, value) in [
        ("--confidence", &mut config.confidence),
        ("--alpha", &mut config.alpha),
        ("--beta", &mut config.beta),
        ("--sprt-fraction", &mut config.sprt_fraction),
        ("--watch-ratio", &mut config.watch_ratio),
    ] {
        if let Some(text) = flag(args, name) {
            *value = parse_f64(text, name)?;
        }
    }
    // `--sequential` switches the verdict onto the anytime-valid
    // confidence sequence and budget e-process (report schema 4, plus the
    // `qrn_goal_e_value` / `qrn_goal_seq_upper` metric families); the
    // SPRT and Garwood columns remain as descriptive legacy.
    config.sequential = has_flag(args, "--sequential");
    config.by_zone = has_flag(args, "--by-context") || has_flag(args, "--by-zone");
    Ok(config)
}

/// Reads every `--evidence <ledger.json>` artefact, in argument order.
pub(crate) fn evidence_from(args: &[&str]) -> Result<Vec<EvidenceLedger>, CliError> {
    flag_values(args, "--evidence")
        .iter()
        .map(|path| read_artefact(Path::new(path)))
        .collect()
}

fn parse_object(text: &str) -> Result<ObjectType, CliError> {
    match text {
        "vru" => Ok(ObjectType::Vru),
        "car" => Ok(ObjectType::Car),
        "truck" => Ok(ObjectType::Truck),
        "animal" => Ok(ObjectType::Animal),
        "static" => Ok(ObjectType::StaticObject),
        "other" => Ok(ObjectType::Other),
        _ => Err(CliError(format!(
            "unknown object type {text:?}; expected vru|car|truck|animal|static|other"
        ))),
    }
}

fn example_emit(rest: &[&str]) -> Result<CommandOutcome, CliError> {
    let strs: Vec<&str> = rest.to_vec();
    let dir = PathBuf::from(required_flag(&strs, "--dir")?);
    let norm = paper_norm()?;
    let classification = paper_classification()?;
    let allocation = paper_allocation(&classification)?;
    write_artefact(&dir.join("norm.json"), &norm)?;
    write_artefact(&dir.join("classification.json"), &classification)?;
    write_artefact(&dir.join("allocation.json"), &allocation)?;
    println!(
        "wrote norm.json, classification.json, allocation.json to {}",
        dir.display()
    );
    Ok(CommandOutcome::Ok)
}

fn norm_check(path: &Path) -> Result<CommandOutcome, CliError> {
    // Deserialisation re-validates nothing by itself, so rebuild the norm
    // through its builder to re-run every invariant.
    let norm: QuantitativeRiskNorm = read_artefact(path)?;
    let mut builder = QuantitativeRiskNorm::builder();
    for class in norm.classes() {
        builder = builder.class(class.clone(), norm.budget(class.id())?);
    }
    let rebuilt = builder.build()?;
    print!("{rebuilt}");
    println!("norm is valid: {} classes, budgets monotone", rebuilt.len());
    Ok(CommandOutcome::Ok)
}

fn classify(path: &Path, rest: &[&str]) -> Result<CommandOutcome, CliError> {
    let classification: IncidentClassification = read_artefact(path)?;
    let strs: Vec<&str> = rest.to_vec();
    let record = if let Some(i) = strs.iter().position(|a| *a == "--collision") {
        let object = parse_object(strs.get(i + 1).copied().unwrap_or_default())?;
        let kmh = parse_f64(strs.get(i + 2).copied().unwrap_or_default(), "impact speed")?;
        IncidentRecord::collision(Involvement::ego_with(object), Speed::from_kmh(kmh)?)
    } else if let Some(i) = strs.iter().position(|a| *a == "--near-miss") {
        let object = parse_object(strs.get(i + 1).copied().unwrap_or_default())?;
        let d = parse_f64(strs.get(i + 2).copied().unwrap_or_default(), "distance")?;
        let kmh = parse_f64(
            strs.get(i + 3).copied().unwrap_or_default(),
            "relative speed",
        )?;
        IncidentRecord::near_miss(
            Involvement::ego_with(object),
            Meters::new(d)?,
            Speed::from_kmh(kmh)?,
        )
    } else {
        return Err(CliError(
            "classify needs --collision <OBJ> <KMH> or --near-miss <OBJ> <M> <KMH>".into(),
        ));
    };
    match classification.classify(&record) {
        Some(leaf) => println!("{record}\n-> {leaf}"),
        None => println!("{record}\n-> not an incident under this classification"),
    }
    Ok(CommandOutcome::Ok)
}

fn mece(path: &Path) -> Result<CommandOutcome, CliError> {
    let classification: IncidentClassification = read_artefact(path)?;
    let report = classification.verify_mece();
    println!(
        "{} probes: {} classified, {} non-incidents, {} multi-matches, {} mismatches",
        report.probes,
        report.classified,
        report.non_incidents,
        report.multi_matched,
        report.mismatches
    );
    if report.is_mece() {
        println!("classification is MECE");
        Ok(CommandOutcome::Ok)
    } else {
        Ok(CommandOutcome::CheckFailed(
            "classification is NOT mutually exclusive / consistent".into(),
        ))
    }
}

fn eq1(norm_path: &Path, allocation_path: &Path) -> Result<CommandOutcome, CliError> {
    let norm: QuantitativeRiskNorm = read_artefact(norm_path)?;
    let allocation: Allocation = read_artefact(allocation_path)?;
    let report = allocation.check(&norm)?;
    print!("{report}");
    if report.is_fulfilled() {
        Ok(CommandOutcome::Ok)
    } else {
        Ok(CommandOutcome::CheckFailed(
            "Eq. (1) violated for at least one consequence class".into(),
        ))
    }
}

fn goals(classification_path: &Path, allocation_path: &Path) -> Result<CommandOutcome, CliError> {
    let classification: IncidentClassification = read_artefact(classification_path)?;
    let allocation: Allocation = read_artefact(allocation_path)?;
    let (goals, certificate) = derive_with_certificate(&classification, &allocation)?;
    for goal in &goals {
        println!("{goal}");
    }
    println!("\n{certificate}");
    if certificate.holds() {
        Ok(CommandOutcome::Ok)
    } else {
        Ok(CommandOutcome::CheckFailed(
            "completeness certificate does not hold".into(),
        ))
    }
}

/// Parses the optional `--splitting-levels <N>` / `--splitting-effort <E>`
/// pair into a splitting configuration.
pub(crate) fn splitting_from(strs: &[&str]) -> Result<Option<SplittingConfig>, CliError> {
    let Some(text) = flag(strs, "--splitting-levels") else {
        if flag(strs, "--splitting-effort").is_some() {
            return Err(CliError(
                "--splitting-effort requires --splitting-levels".into(),
            ));
        }
        return Ok(None);
    };
    let levels: usize = parse_int(text, "--splitting-levels")?;
    if levels == 0 {
        return Err(CliError("--splitting-levels must be at least 1".into()));
    }
    let mut config = SplittingConfig::geometric(levels);
    if let Some(text) = flag(strs, "--splitting-effort") {
        let effort: usize = parse_int(text, "--splitting-effort")?;
        config = config.with_effort(effort)?;
    }
    Ok(Some(config))
}

/// Prints the per-leaf weighted rates of a splitting result: point
/// estimate, 95 % Garwood interval on the effective counts, Kish
/// effective sample size and the variance-reduction factor.
pub(crate) fn print_splitting_rates(result: &qrn_sim::SplittingResult) -> Result<(), CliError> {
    for (id, count) in result.counts() {
        let rate = result
            .rate(id)
            .expect("counts() only yields ids the result knows");
        if count.observations() == 0 {
            let upper = rate.upper_bound(0.95)?;
            println!("  {id}: no weighted mass; 95% upper bound {upper}");
            continue;
        }
        let point = rate.point_estimate()?;
        let interval = rate.confidence_interval(0.95)?;
        let (k_eff, t_eff) = rate.effective();
        println!(
            "  {id}: {point} (95% CI {}..{}), {k_eff:.1} effective events over {:.0} effective h, variance reduction x{:.1}",
            interval.lower,
            interval.upper,
            t_eff.value(),
            count.variance_reduction(),
        );
    }
    Ok(())
}

/// Where `simulate` writes its artefacts: the main result plus the
/// optional evidence ledger.
struct SimulateOutputs<'a> {
    out: &'a Path,
    evidence_out: Option<&'a Path>,
}

fn simulate_campaign<P: TacticalPolicy>(
    config: WorldConfig,
    policy: P,
    hours: Hours,
    seed: u64,
    workers: Option<usize>,
    splitting: Option<&SplittingConfig>,
    outputs: SimulateOutputs<'_>,
) -> Result<CommandOutcome, CliError> {
    let SimulateOutputs { out, evidence_out } = outputs;
    let mut campaign = Campaign::new(config, policy).hours(hours).seed(seed);
    if let Some(workers) = workers {
        campaign = campaign.workers(workers);
    }
    match splitting {
        Some(splitting) => {
            let classification = paper_classification()?;
            let mut result = campaign.run_splitting(&classification, splitting)?;
            println!("{result}");
            if let Some(throughput) = &result.throughput {
                println!("{throughput}");
            }
            print_splitting_rates(&result)?;
            // Artefacts must be reproducible from (config, policy, seed,
            // hours) alone: wall clock goes to stdout, never to disk.
            result.throughput = None;
            write_artefact(out, &result)?;
            println!("wrote splitting result to {}", out.display());
            if let Some(path) = evidence_out {
                write_artefact(path, &result.evidence)?;
                println!("wrote evidence ledger to {}", path.display());
            }
        }
        None => {
            let result = campaign.run()?;
            println!("{result}");
            if let Some(throughput) = &result.throughput {
                println!("{throughput}");
            }
            let file = RecordsFile {
                exposure_hours: result.exposure().value(),
                records: result.records.clone(),
            };
            write_artefact(out, &file)?;
            println!("wrote {} records to {}", file.records.len(), out.display());
            if let Some(path) = evidence_out {
                let ledger = result.evidence(&paper_classification()?);
                write_artefact(path, &ledger)?;
                println!("wrote evidence ledger to {}", path.display());
            }
        }
    }
    Ok(CommandOutcome::Ok)
}

fn simulate(rest: &[&str]) -> Result<CommandOutcome, CliError> {
    let strs: Vec<&str> = rest.to_vec();
    let scenario = required_flag(&strs, "--scenario")?;
    let policy = required_flag(&strs, "--policy")?;
    let hours = parse_f64(required_flag(&strs, "--hours")?, "--hours")?;
    let seed = flag(&strs, "--seed")
        .map(|s| parse_int(s, "--seed"))
        .transpose()?
        .unwrap_or(0);
    let workers = flag(&strs, "--workers")
        .map(|s| parse_int(s, "--workers"))
        .transpose()?;
    let splitting = splitting_from(&strs)?;
    let out = PathBuf::from(required_flag(&strs, "--out")?);
    let evidence_out = flag(&strs, "--evidence-out").map(PathBuf::from);

    let config: WorldConfig = match scenario {
        "urban" => urban_scenario()?,
        "highway" => highway_scenario()?,
        "mixed" => mixed_scenario()?,
        _ => {
            return Err(CliError(format!(
                "unknown scenario {scenario:?}; expected urban|highway|mixed"
            )))
        }
    };
    let hours = Hours::new(hours)?;
    // The worker count only changes wall-clock time, never the outcome, so
    // defaulting to all available CPUs is safe for reproducibility.
    match policy {
        "cautious" => simulate_campaign(
            config,
            CautiousPolicy::default(),
            hours,
            seed,
            workers,
            splitting.as_ref(),
            SimulateOutputs {
                out: &out,
                evidence_out: evidence_out.as_deref(),
            },
        ),
        "reactive" => simulate_campaign(
            config,
            ReactivePolicy::default(),
            hours,
            seed,
            workers,
            splitting.as_ref(),
            SimulateOutputs {
                out: &out,
                evidence_out: evidence_out.as_deref(),
            },
        ),
        _ => Err(CliError(format!(
            "unknown policy {policy:?}; expected cautious|reactive"
        ))),
    }
}

fn confidence_from(rest: &[&str]) -> Result<f64, CliError> {
    match flag(rest, "--confidence") {
        Some(text) => parse_f64(text, "--confidence"),
        None => Ok(0.95),
    }
}

fn load_case(
    norm_path: &Path,
    classification_path: &Path,
    allocation_path: &Path,
    records_path: &Path,
) -> Result<
    (
        QuantitativeRiskNorm,
        IncidentClassification,
        Allocation,
        RecordsFile,
    ),
    CliError,
> {
    Ok((
        read_artefact(norm_path)?,
        read_artefact(classification_path)?,
        read_artefact(allocation_path)?,
        read_artefact(records_path)?,
    ))
}

fn verify_cmd(
    norm_path: &Path,
    classification_path: &Path,
    allocation_path: &Path,
    records_path: &Path,
    rest: &[&str],
) -> Result<CommandOutcome, CliError> {
    let confidence = confidence_from(rest)?;
    let (norm, classification, allocation, records) = load_case(
        norm_path,
        classification_path,
        allocation_path,
        records_path,
    )?;
    let records_evidence = records.evidence(&classification)?;
    println!(
        "classified {} incidents ({} uneventful records) over {} h",
        records_evidence.incident_observations(),
        records_evidence.unclassified().observations(),
        records.exposure_hours
    );
    // Extra `--evidence <ledger.json>` artefacts (campaign or fleet
    // ledgers, possibly weighted) join the records' evidence into one
    // combined verification.
    let extra = evidence_from(rest)?;
    let evidence = join_evidence(&records_evidence, &extra);
    if !extra.is_empty() {
        println!(
            "merged {} evidence ledger(s): combined exposure {} h",
            extra.len(),
            evidence.exposure()
        );
    }
    let report = verify(&norm, &allocation, &evidence, confidence)?;
    print!("{report}");
    if report.any_violated() {
        Ok(CommandOutcome::CheckFailed(
            "at least one goal or class is statistically violated".into(),
        ))
    } else {
        Ok(CommandOutcome::Ok)
    }
}

fn report_cmd(
    item: &str,
    norm_path: &Path,
    classification_path: &Path,
    allocation_path: &Path,
    rest: &[&str],
) -> Result<CommandOutcome, CliError> {
    let norm: QuantitativeRiskNorm = read_artefact(norm_path)?;
    let classification: IncidentClassification = read_artefact(classification_path)?;
    let allocation: Allocation = read_artefact(allocation_path)?;
    let confidence = confidence_from(rest)?;
    let verification = match flag(rest, "--records") {
        Some(records_path) => {
            let records: RecordsFile = read_artefact(Path::new(records_path))?;
            let evidence = records.evidence(&classification)?;
            Some(verify(&norm, &allocation, &evidence, confidence)?)
        }
        None => None,
    };
    let doc = qrn_core::report::render_markdown(
        item,
        &norm,
        &classification,
        &allocation,
        verification.as_ref(),
    )?;
    match flag(rest, "--out") {
        Some(out) => {
            let path = PathBuf::from(out);
            std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))?;
            std::fs::write(&path, &doc)
                .map_err(|e| CliError(format!("cannot write {}: {e}", path.display())))?;
            println!("wrote report to {}", path.display());
        }
        None => print!("{doc}"),
    }
    Ok(CommandOutcome::Ok)
}

fn safety_case(
    item: &str,
    norm_path: &Path,
    classification_path: &Path,
    allocation_path: &Path,
    records_path: &Path,
    rest: &[&str],
) -> Result<CommandOutcome, CliError> {
    let confidence = confidence_from(rest)?;
    let (norm, classification, allocation, records) = load_case(
        norm_path,
        classification_path,
        allocation_path,
        records_path,
    )?;
    let evidence = records.evidence(&classification)?;
    let report = verify(&norm, &allocation, &evidence, confidence)?;
    let case = SafetyCase::assemble(item, &norm, &classification, &allocation, &report)?;
    print!("{case}");
    match case.status() {
        ClaimStatus::Undermined => Ok(CommandOutcome::CheckFailed(
            "the top claim is undermined by the evidence".into(),
        )),
        _ => Ok(CommandOutcome::Ok),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_strs(args: &[&str]) -> Result<CommandOutcome, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&owned)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qrn-cli-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn help_and_unknown_command() {
        assert_eq!(run_strs(&["--help"]).unwrap(), CommandOutcome::Ok);
        assert!(run_strs(&["frobnicate"]).is_err());
    }

    #[test]
    fn emit_then_check_pipeline() {
        let dir = temp_dir("pipeline");
        let dir_s = dir.to_str().unwrap();
        assert_eq!(
            run_strs(&["example", "emit", "--dir", dir_s]).unwrap(),
            CommandOutcome::Ok
        );
        let norm = dir.join("norm.json");
        let classification = dir.join("classification.json");
        let allocation = dir.join("allocation.json");
        assert_eq!(
            run_strs(&["norm", "check", norm.to_str().unwrap()]).unwrap(),
            CommandOutcome::Ok
        );
        assert_eq!(
            run_strs(&["mece", classification.to_str().unwrap()]).unwrap(),
            CommandOutcome::Ok
        );
        assert_eq!(
            run_strs(&["eq1", norm.to_str().unwrap(), allocation.to_str().unwrap()]).unwrap(),
            CommandOutcome::Ok
        );
        assert_eq!(
            run_strs(&[
                "goals",
                classification.to_str().unwrap(),
                allocation.to_str().unwrap()
            ])
            .unwrap(),
            CommandOutcome::Ok
        );
    }

    #[test]
    fn classify_commands() {
        let dir = temp_dir("classify");
        let dir_s = dir.to_str().unwrap();
        run_strs(&["example", "emit", "--dir", dir_s]).unwrap();
        let classification = dir.join("classification.json");
        let c = classification.to_str().unwrap();
        assert_eq!(
            run_strs(&["classify", c, "--collision", "vru", "7"]).unwrap(),
            CommandOutcome::Ok
        );
        assert_eq!(
            run_strs(&["classify", c, "--near-miss", "vru", "0.5", "20"]).unwrap(),
            CommandOutcome::Ok
        );
        assert!(run_strs(&["classify", c, "--collision", "dragon", "7"]).is_err());
        assert!(run_strs(&["classify", c]).is_err());
    }

    #[test]
    fn simulate_verify_and_safety_case() {
        let dir = temp_dir("verify");
        let dir_s = dir.to_str().unwrap();
        run_strs(&["example", "emit", "--dir", dir_s]).unwrap();
        let records = dir.join("records.json");
        assert_eq!(
            run_strs(&[
                "simulate",
                "--scenario",
                "urban",
                "--policy",
                "cautious",
                "--hours",
                "30",
                "--seed",
                "5",
                "--out",
                records.to_str().unwrap(),
            ])
            .unwrap(),
            CommandOutcome::Ok
        );
        // The synthetic world is harsh and the paper budgets tiny, so the
        // verification typically fails — which must map to CheckFailed,
        // not an error.
        let outcome = run_strs(&[
            "verify",
            dir.join("norm.json").to_str().unwrap(),
            dir.join("classification.json").to_str().unwrap(),
            dir.join("allocation.json").to_str().unwrap(),
            records.to_str().unwrap(),
        ])
        .unwrap();
        assert!(matches!(
            outcome,
            CommandOutcome::Ok | CommandOutcome::CheckFailed(_)
        ));
        let outcome = run_strs(&[
            "safety-case",
            "test ADS",
            dir.join("norm.json").to_str().unwrap(),
            dir.join("classification.json").to_str().unwrap(),
            dir.join("allocation.json").to_str().unwrap(),
            records.to_str().unwrap(),
            "--confidence",
            "0.9",
        ])
        .unwrap();
        assert!(matches!(
            outcome,
            CommandOutcome::Ok | CommandOutcome::CheckFailed(_)
        ));
    }

    #[test]
    fn report_renders_markdown_to_file() {
        let dir = temp_dir("report");
        let dir_s = dir.to_str().unwrap();
        run_strs(&["example", "emit", "--dir", dir_s]).unwrap();
        let out = dir.join("report.md");
        assert_eq!(
            run_strs(&[
                "report",
                "report ADS",
                dir.join("norm.json").to_str().unwrap(),
                dir.join("classification.json").to_str().unwrap(),
                dir.join("allocation.json").to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ])
            .unwrap(),
            CommandOutcome::Ok
        );
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("# Safety documentation: report ADS"));
        assert!(text.contains("SG-I2"));
    }

    #[test]
    fn simulate_validates_flags() {
        assert!(run_strs(&["simulate", "--scenario", "moon"]).is_err());
        assert!(run_strs(&[
            "simulate",
            "--scenario",
            "urban",
            "--policy",
            "cautious",
            "--hours",
            "abc",
            "--out",
            "/tmp/x.json"
        ])
        .is_err());
        assert!(run_strs(&[
            "simulate",
            "--scenario",
            "urban",
            "--policy",
            "cautious",
            "--hours",
            "10",
            "--workers",
            "abc",
            "--out",
            "/tmp/x.json"
        ])
        .is_err());
        assert!(run_strs(&[
            "simulate",
            "--scenario",
            "urban",
            "--policy",
            "cautious",
            "--hours",
            "10",
            "--workers",
            "0",
            "--out",
            "/tmp/x.json"
        ])
        .is_err());
        // Splitting flags: non-integer or zero levels, zero effort and a
        // dangling --splitting-effort must all be usage errors.
        for bad in [
            &["--splitting-levels", "abc"][..],
            &["--splitting-levels", "0"][..],
            &["--splitting-levels", "3", "--splitting-effort", "0"][..],
            &["--splitting-levels", "3", "--splitting-effort", "x"][..],
            &["--splitting-effort", "4"][..],
        ] {
            let mut args = vec![
                "simulate",
                "--scenario",
                "urban",
                "--policy",
                "cautious",
                "--hours",
                "10",
                "--out",
                "/tmp/x.json",
            ];
            args.extend_from_slice(bad);
            assert!(run_strs(&args).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn simulate_splitting_writes_weighted_result() {
        let dir = temp_dir("splitting");
        let out = dir.join("splitting.json");
        assert_eq!(
            run_strs(&[
                "simulate",
                "--scenario",
                "urban",
                "--policy",
                "reactive",
                "--hours",
                "20",
                "--seed",
                "11",
                "--splitting-levels",
                "4",
                "--splitting-effort",
                "4",
                "--out",
                out.to_str().unwrap(),
            ])
            .unwrap(),
            CommandOutcome::Ok
        );
        let text = std::fs::read_to_string(&out).unwrap();
        let result: qrn_sim::SplittingResult = serde_json::from_str(&text).unwrap();
        assert_eq!(result.levels.len(), 4);
        assert_eq!(result.effort, 4);
        assert!(result.exposure().value() >= 19.0);
        assert!(result.particles >= result.encounters);
    }

    #[test]
    fn simulate_writes_crude_evidence_ledger() {
        let dir = temp_dir("evidence-out");
        let dir_s = dir.to_str().unwrap();
        run_strs(&["example", "emit", "--dir", dir_s]).unwrap();
        let records = dir.join("records.json");
        let ledger_path = dir.join("evidence.json");
        assert_eq!(
            run_strs(&[
                "simulate",
                "--scenario",
                "urban",
                "--policy",
                "cautious",
                "--hours",
                "25",
                "--seed",
                "7",
                "--out",
                records.to_str().unwrap(),
                "--evidence-out",
                ledger_path.to_str().unwrap(),
            ])
            .unwrap(),
            CommandOutcome::Ok
        );
        let ledger: qrn_stats::evidence::EvidenceLedger =
            serde_json::from_str(&std::fs::read_to_string(&ledger_path).unwrap()).unwrap();
        // Crude campaigns emit unit-weight evidence covering the full
        // simulated exposure.
        assert!((ledger.exposure() - 25.0).abs() < 1.0);
        for kind in ledger.kinds() {
            assert!(ledger.count(kind).is_unweighted(), "{kind}");
        }
        // The ledger is accepted back by `verify --evidence`.
        let outcome = run_strs(&[
            "verify",
            dir.join("norm.json").to_str().unwrap(),
            dir.join("classification.json").to_str().unwrap(),
            dir.join("allocation.json").to_str().unwrap(),
            records.to_str().unwrap(),
            "--evidence",
            ledger_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(matches!(
            outcome,
            CommandOutcome::Ok | CommandOutcome::CheckFailed(_)
        ));
    }

    #[test]
    fn missing_artefacts_error_cleanly() {
        assert!(run_strs(&["norm", "check", "/nonexistent.json"]).is_err());
        assert!(run_strs(&["eq1", "/a.json", "/b.json"]).is_err());
    }
}
