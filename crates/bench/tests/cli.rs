//! Contract of the command-line tools: exit codes 0/1/2, the committed
//! bytes from `exp`, and a `<tool>: error: --flag value: …` message
//! instead of a panic for every out-of-range flag value.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("USYSTOLIC_FORMAT")
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"))
}

fn code(out: &Output) -> Option<i32> {
    out.status.code()
}

const EXP: &str = env!("CARGO_BIN_EXE_exp");
const SIM: &str = env!("CARGO_BIN_EXE_sim_cli");
const SERVE: &str = env!("CARGO_BIN_EXE_serve_cli");

#[test]
fn exp_usage_errors_exit_2() {
    for args in [
        &[][..],
        &["bogus"],
        &["--quick"],
        &["table1", "--bogus"],
        &["table1", "--out", "t.json"],
        &["all", "--out", "t.json"],
        &["kernel", "--out"],
    ] {
        let out = run(EXP, args);
        assert_eq!(code(&out), Some(2), "exp {args:?}");
        assert!(out.stdout.is_empty(), "exp {args:?}");
    }
}

#[test]
fn exp_table1_prints_the_committed_result() {
    let out = run(EXP, &["table1"]);
    assert_eq!(code(&out), Some(0));
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/exp_table1.txt");
    let committed = std::fs::read(committed).expect("committed result");
    assert!(out.stdout == committed, "exp table1 drifted from results/");
}

#[test]
fn sim_cli_check_exits_1_on_an_error_diagnostic() {
    let out = run(SIM, &["--check", "--scheme", "UR", "--acc-width", "4"]);
    assert_eq!(code(&out), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("USY020"));
}

#[test]
fn bad_flag_values_exit_2_with_the_flag_named() {
    for (bin, tool, args, flag) in [
        (
            SIM,
            "sim_cli",
            &["--bits", "0", "--matmul", "4,4,4"][..],
            "--bits 0:",
        ),
        (SIM, "sim_cli", &["--bogus"], "unknown flag '--bogus'"),
        (SERVE, "serve_cli", &["--bits", "99"], "--bits 99:"),
        (
            SERVE,
            "serve_cli",
            &["--closed-loop", "0"],
            "--closed-loop 0:",
        ),
        (SERVE, "serve_cli", &["--deadline", "-1"], "--deadline -1:"),
        (
            SERVE,
            "serve_cli",
            &["--think", "-5", "--closed-loop", "2"],
            "--think -5:",
        ),
        (SERVE, "serve_cli", &["--bogus"], "unknown flag '--bogus'"),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), Some(2), "{tool} {args:?}: {stderr}");
        let want = format!("{tool}: error: {flag}");
        assert!(stderr.starts_with(&want), "{tool} {args:?}: {stderr}");
    }
}
