//! The `sweep` binary's fault-tolerance gate, end to end: a
//! fault-injected `selftest` sweep must retry, degrade the permanently
//! failing shard without aborting its siblings, and, rerun into the same
//! directory with the faults lifted, resume every finished shard from
//! its checkpoint and recompute the degraded one.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use th_sweep::json::Json;
use th_sweep::FAULT_ENV;

/// Runs `sweep selftest` into `dir`, with `fault` as the fault plan.
fn sweep_selftest(dir: &Path, fault: Option<&str>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep"));
    cmd.args(["selftest", "--quiet", "--dir"]).arg(dir).env_remove(FAULT_ENV);
    if let Some(plan) = fault {
        cmd.env(FAULT_ENV, plan);
    }
    let out = cmd.output().expect("sweep starts");
    assert!(out.status.success(), "sweep selftest exited {:?}", out.status);
}

/// A shard checkpoint's `status` field.
fn shard_status(dir: &Path, id: &str) -> String {
    let path = dir.join("shards").join(format!("{id}.json"));
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let checkpoint = Json::parse(&text).expect("checkpoint parses");
    assert_eq!(checkpoint.get("id").and_then(Json::as_str), Some(id));
    checkpoint.get("status").and_then(Json::as_str).expect("status field").to_string()
}

/// How many telemetry lines carry `"event": event`.
fn telemetry_events(dir: &Path, event: &str) -> usize {
    fs::read_to_string(dir.join("telemetry.jsonl"))
        .expect("telemetry written")
        .lines()
        .map(|line| Json::parse(line).expect("telemetry line parses"))
        .filter(|line| line.get("event").and_then(Json::as_str) == Some(event))
        .count()
}

struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn fault_injected_selftest_degrades_then_resumes() {
    let run = RunDir(std::env::temp_dir().join(format!("th-sweep-cli-{}", std::process::id())));
    let _ = fs::remove_dir_all(&run.0);
    let dir = run.0.join("selftest");

    sweep_selftest(&dir, Some("selftest-2:1,selftest-5:inf"));
    assert_eq!(shard_status(&dir, "selftest-5"), "degraded");
    assert_eq!(shard_status(&dir, "selftest-2"), "done", "one injected failure is retried");
    assert!(telemetry_events(&dir, "shard_retry") >= 1, "fault injection produced no retries");

    let started = telemetry_events(&dir, "shard_start");
    sweep_selftest(&dir, None);
    assert_eq!(shard_status(&dir, "selftest-5"), "done", "the degraded shard was not recomputed");
    assert_eq!(telemetry_events(&dir, "shard_start"), started + 1, "finished shards reran");
}

/// Runs `sweep fig10` with `args` into a fresh directory tagged `tag` and
/// asserts the command is rejected with the usage text before any run
/// directory exists.
fn assert_usage_error_before_any_run(tag: &str, args: &[&str]) {
    let dir = std::env::temp_dir().join(format!("th-sweep-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("fig10")
        .args(args)
        .args(["--attempts", "1", "--quiet", "--dir"])
        .arg(&dir)
        .env_remove(FAULT_ENV)
        .output()
        .expect("sweep starts");
    let created = dir.exists();
    let _ = fs::remove_dir_all(&dir);
    assert!(!out.status.success(), "`{}` exited {:?}", args.join(" "), out.status);
    assert!(!created, "a run directory was created");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("usage: sweep"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn zero_rows_is_a_usage_error_before_any_run() {
    assert_usage_error_before_any_run("rows", &["--rows", "0", "--budget", "2000"]);
}

#[test]
fn zero_budget_is_a_usage_error_before_any_run() {
    assert_usage_error_before_any_run("budget", &["--budget", "0", "--rows", "4"]);
}
