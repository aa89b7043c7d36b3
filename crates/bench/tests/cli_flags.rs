//! `repro_figures` argument handling: an unknown `--` flag is a hard error
//! (exit 2, flag named on stderr) instead of being ignored — so a typo in
//! `--resume` cannot silently rerun everything, and a retired flag such as
//! `--intra-threads 2` cannot have its value read as a target.

use std::process::{Command, Output};

fn repro_figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro_figures"))
        .args(args)
        .output()
        .expect("spawn repro_figures")
}

fn assert_rejected(args: &[&str], flag: &str) {
    let out = repro_figures(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2; stderr: {stderr}"
    );
    assert!(
        stderr.contains(flag),
        "{args:?}: stderr must name {flag}, got: {stderr}"
    );
}

#[test]
fn misspelt_flag_exits_2_and_names_it() {
    assert_rejected(
        &[
            "--fast",
            "--scale",
            "0.05",
            "--resum",
            "--no-such-flag",
            "lower-bound",
        ],
        "--resum",
    );
}

#[test]
fn retired_flags_fail_loudly() {
    for (flag, value) in [
        ("--intra-threads", "2"),
        ("--pr", "9"),
        ("--ledger-file", "ledger.json"),
    ] {
        assert_rejected(&["--fast", flag, value, "lower-bound"], flag);
    }
}

#[test]
fn retired_ledger_target_fails_loudly() {
    assert_rejected(&["ledger"], "unknown target: ledger");
}

#[test]
fn valid_fast_invocation_still_exits_0() {
    let out = repro_figures(&["--fast", "--scale", "0.05", "--threads", "1", "lower-bound"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
