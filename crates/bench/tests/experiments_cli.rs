//! The `experiments` binary rejects malformed command lines with exit
//! status 2 and its usage text instead of falling back to defaults: a typo
//! or a bad value must never turn into a run (or a passing CI gate) with
//! settings nobody asked for.

use std::process::Command;

/// Runs `experiments` with `args` and returns its exit code and stderr.
fn experiments(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str]) {
    let (code, stderr) = experiments(args);
    assert_eq!(
        code,
        Some(2),
        "{args:?} should be a usage error; stderr: {stderr}"
    );
    assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
}

#[test]
fn malformed_figure_flags_are_usage_errors() {
    for args in [
        ["fig7", "--quick", "--max", "x"].as_slice(),
        &["fig7", "--quick", "--max", "2", "--requests", "2k"],
        &["fig7", "--quick", "--max", "2", "--base-seed", "x"],
        &["fig7", "--quick", "--max", "2", "--trails", "3"],
        &["fig7", "--quick", "--max"],
        &["fig7", "--quick", "--max", "2", "--trials", "0"],
        &["table1", "--quik"],
    ] {
        assert_usage_error(args);
    }
}

#[test]
fn gate_rejects_bad_thresholds_and_unknown_flags() {
    // A report gated against itself passes at any valid threshold, so
    // only the flag checks can fail these runs.
    let report = concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json");
    let gate = ["gate", "--candidate", report, "--baseline", report];
    for extra in [
        ["--threshold", "NaN"].as_slice(),
        &["--threshold", "abc"],
        &["--threshold", "-0.1"],
        &["--threshold", "inf"],
        &["--threshold"],
        &["--treshold", "0.2"],
    ] {
        assert_usage_error(&[gate.as_slice(), extra].concat());
    }
    let (code, stderr) = experiments(&[gate.as_slice(), &["--threshold", "0.2"]].concat());
    assert_eq!(code, Some(0), "{stderr}");
}
