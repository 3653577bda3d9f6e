//! `bench_report` rejects malformed arguments with a usage error and a
//! failing exit status instead of silently running its defaults. The
//! arguments are parsed before any timed work, so these runs are quick.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_report"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("bench_report starts")
}

#[test]
fn a_non_numeric_budget_is_a_usage_error() {
    let out = run(&["abc"]);
    assert!(!out.status.success(), "bench_report abc exited {:?}", out.status);
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn bad_rows_zero_values_and_extra_arguments_are_usage_errors() {
    for args in [&["60000", "x"][..], &["60000", "16", "extra"], &["0"], &["60000", "0"]] {
        let out = run(args);
        assert!(!out.status.success(), "bench_report {args:?} exited {:?}", out.status);
    }
}
