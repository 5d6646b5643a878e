//! Byte pins on the stdout of the Eq. (1) reporting commands — `verify`,
//! `verify --evidence`, `safety-case` and `report --records` — over the
//! `example emit` artefacts and a fixed-seed simulated fleet. Any change
//! to how evidence is classified, merged or evaluated shows up here as a
//! byte difference against `tests/golden/`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn qrn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qrn"))
        .args(args)
        .output()
        .expect("binary spawns")
}

/// Runs `qrn` and returns its stdout, asserting the expected exit code.
fn stdout_of(args: &[&str], code: i32) -> String {
    let out = qrn(args);
    assert_eq!(
        out.status.code(),
        Some(code),
        "qrn {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn s(path: &Path) -> &str {
    path.to_str().unwrap()
}

/// The `example emit` case plus a crude records file, its crude evidence
/// ledger and a weighted splitting ledger, all from fixed seeds.
fn case() -> PathBuf {
    let dir = std::env::temp_dir().join("qrn-golden-stdout");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    stdout_of(&["example", "emit", "--dir", s(&dir)], 0);
    let simulate = |out: &str, evidence: &str, extra: &[&str]| {
        let mut args = vec![
            "simulate",
            "--scenario",
            "urban",
            "--policy",
            "cautious",
            "--seed",
            "7",
            "--workers",
            "2",
        ];
        args.extend_from_slice(extra);
        let out = dir.join(out);
        let evidence = dir.join(evidence);
        args.extend_from_slice(&["--out", s(&out), "--evidence-out", s(&evidence)]);
        stdout_of(&args, 0);
    };
    simulate("records.json", "crude-ledger.json", &["--hours", "300"]);
    simulate(
        "split.json",
        "split-ledger.json",
        &["--hours", "60", "--splitting-levels", "2"],
    );
    dir
}

#[test]
fn eq1_reporting_commands_print_pinned_bytes() {
    let dir = case();
    let norm = dir.join("norm.json");
    let classification = dir.join("classification.json");
    let allocation = dir.join("allocation.json");
    let records = dir.join("records.json");
    let artefacts = [s(&norm), s(&classification), s(&allocation)];

    let mut verify = vec!["verify"];
    verify.extend_from_slice(&artefacts);
    verify.push(s(&records));
    assert_eq!(
        stdout_of(&verify, 1),
        include_str!("golden/verify.txt"),
        "verify"
    );

    let split_ledger = dir.join("split-ledger.json");
    let crude_ledger = dir.join("crude-ledger.json");
    verify.extend_from_slice(&[
        "--evidence",
        s(&split_ledger),
        "--evidence",
        s(&crude_ledger),
    ]);
    assert_eq!(
        stdout_of(&verify, 1),
        include_str!("golden/verify_evidence.txt"),
        "verify --evidence"
    );

    let mut case = vec!["safety-case", "urban-pilot"];
    case.extend_from_slice(&artefacts);
    case.push(s(&records));
    assert_eq!(
        stdout_of(&case, 1),
        include_str!("golden/safety_case.txt"),
        "safety-case"
    );

    let mut report = vec!["report", "urban-pilot"];
    report.extend_from_slice(&artefacts);
    report.extend_from_slice(&["--records", s(&records)]);
    assert_eq!(
        stdout_of(&report, 0),
        include_str!("golden/report_records.txt"),
        "report --records"
    );
}
