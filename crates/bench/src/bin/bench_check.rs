//! Typed checks over the repo's benchmark JSON, for `ci.sh`:
//!
//! ```text
//! bench_check rerun-args <report.json>          the report's "<budget> <rows>"
//! bench_check guard <committed.json> <fresh.json>
//!                                               the two perf guards
//! bench_check workloads <BENCHMARK.json>        one workload name per line
//! bench_check verdict <workload> < output       sweepbench's digest verdict
//! ```
//!
//! The guards compare a fresh `bench_report` run against the committed
//! `BENCH_pipeline.json`: the fig8 sequential sweep (`seq_s`) and the
//! closed-loop co-simulation smoke (`cosim.total_s`) each fail when the
//! fresh time exceeds [`MAX_SLOWDOWN`] times the committed one. Shared
//! CI hosts are noisy, so only a large slowdown fails; faster always
//! passes. `verdict` reads sweepbench's output on stdin and passes only
//! if its last line says `"correct": true`. A missing file, field or
//! number is an error, never a pass.

use std::io::Read as _;
use std::process::ExitCode;
use th_sweep::json::Json;

/// The largest fresh/committed time ratio a guard accepts.
const MAX_SLOWDOWN: f64 = 1.5;

const USAGE: &str = "usage: bench_check rerun-args <report.json>\n       \
                     bench_check guard <committed.json> <fresh.json>\n       \
                     bench_check workloads <BENCHMARK.json>\n       \
                     bench_check verdict <workload> < sweepbench-output";

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path} is not JSON: {e}"))
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn number(j: &Json, key: &str) -> Result<f64, String> {
    field(j, key)?.as_f64().ok_or_else(|| format!("field {key:?} is not a number"))
}

/// A whole, positive count such as a budget or a grid size.
fn count(j: &Json, key: &str) -> Result<u64, String> {
    let v = number(j, key)?;
    if v >= 1.0 && v.fract() == 0.0 && v <= u64::MAX as f64 {
        Ok(v as u64)
    } else {
        Err(format!("field {key:?} is {v}, not a positive whole number"))
    }
}

/// The `bench_report` arguments that reproduce `report`.
fn rerun_args(report: &Json) -> Result<String, String> {
    Ok(format!("{} {}", count(report, "budget_insts")?, count(report, "fig10_rows")?))
}

/// The fig8 sweep's sequential time.
fn fig8_seq_s(report: &Json) -> Result<f64, String> {
    let experiments =
        field(report, "experiments")?.as_arr().ok_or("\"experiments\" is not an array")?;
    let fig8 = experiments
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("fig8"))
        .ok_or("no fig8 experiment")?;
    number(fig8, "seq_s")
}

/// The closed-loop co-simulation smoke's total time.
fn cosim_total_s(report: &Json) -> Result<f64, String> {
    number(field(report, "cosim")?, "total_s")
}

/// One guard: `Ok` with its report line if `fresh` is at most
/// [`MAX_SLOWDOWN`] times `committed`.
fn guard(label: &str, committed: f64, fresh: f64) -> Result<String, String> {
    if !(committed > 0.0 && fresh >= 0.0) {
        return Err(format!(
            "{label}: times must be positive (committed {committed}, fresh {fresh})"
        ));
    }
    let ratio = fresh / committed;
    let line = format!("{label} {fresh:.2}s fresh vs {committed:.2}s committed ({ratio:.2}x)");
    if ratio > MAX_SLOWDOWN {
        Err(format!("{line}: regressed more than {MAX_SLOWDOWN}x"))
    } else {
        Ok(format!("perf guard: {line}"))
    }
}

/// Both guards of `fresh` against `committed`, every one reported.
fn guards(committed: &Json, fresh: &Json) -> Result<Vec<String>, String> {
    type Read = fn(&Json) -> Result<f64, String>;
    let checks: [(&str, Read); 2] = [("fig8 seq", fig8_seq_s), ("cosim smoke", cosim_total_s)];
    checks
        .iter()
        .map(|&(label, read)| {
            let committed = read(committed).map_err(|e| format!("committed report: {e}"))?;
            let fresh = read(fresh).map_err(|e| format!("fresh report: {e}"))?;
            guard(label, committed, fresh)
        })
        .collect()
}

/// The names of `BENCHMARK.json`'s workloads, in order.
fn workloads(benchmark: &Json) -> Result<Vec<&str>, String> {
    let list = field(benchmark, "workloads")?.as_arr().ok_or("\"workloads\" is not an array")?;
    if list.is_empty() {
        return Err("the benchmark lists no workloads".into());
    }
    list.iter()
        .map(|w| {
            w.get("name").and_then(Json::as_str).ok_or_else(|| "a workload has no name".into())
        })
        .collect()
}

/// Passes if the last non-blank line of sweepbench's output says every
/// shard matched its recorded digest.
fn verdict(output: &str) -> Result<(), String> {
    let last = output.lines().rev().find(|l| !l.trim().is_empty()).ok_or("no output")?;
    let result = Json::parse(last).map_err(|e| format!("last line is not JSON: {e}"))?;
    match result.get("correct") {
        Some(Json::Bool(true)) => Ok(()),
        Some(Json::Bool(false)) => Err("does not match its recorded digests".into()),
        _ => Err("last line has no boolean \"correct\" field".into()),
    }
}

fn run(args: &[String]) -> Result<Vec<String>, String> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        ["rerun-args", report] => Ok(vec![rerun_args(&load(report)?)?]),
        ["guard", committed, fresh] => guards(&load(committed)?, &load(fresh)?),
        ["workloads", benchmark] => {
            Ok(workloads(&load(benchmark)?)?.into_iter().map(String::from).collect())
        }
        ["verdict", workload] => {
            let mut output = String::new();
            std::io::stdin().read_to_string(&mut output).map_err(|e| e.to_string())?;
            verdict(&output).map_err(|e| format!("sweepbench {workload}: {e}"))?;
            Ok(vec![format!("digest smoke: {workload} matches its recorded digests")])
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_check: FAIL - {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(fig8_seq_s: &str, cosim_total_s: &str) -> Json {
        Json::parse(&format!(
            r#"{{"budget_insts": 60000.0, "fig10_rows": 16.0,
                "experiments": [{{"name": "fig9", "seq_s": 9.0}},
                                {{"name": "fig8", "seq_s": {fig8_seq_s}}}],
                "cosim": {{"intervals": 30.0, "total_s": {cosim_total_s}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn a_slowdown_above_the_bound_fails() {
        let committed = report("2.0", "1.0");
        assert!(guards(&committed, &report("3.02", "1.0")).is_err(), "fig8 at 1.51x passed");
        assert!(guards(&committed, &report("2.0", "1.51")).is_err(), "cosim at 1.51x passed");
    }

    #[test]
    fn a_slowdown_at_or_below_the_bound_passes_and_so_does_a_speedup() {
        let committed = report("2.0", "1.0");
        let lines = guards(&committed, &report("3.0", "1.5")).expect("exactly 1.5x passes");
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("(1.50x)"), "{}", lines[0]);
        assert!(guards(&committed, &report("2.9", "1.2")).is_ok());
        assert!(guards(&committed, &report("0.5", "0.1")).is_ok(), "a faster run failed");
    }

    #[test]
    fn missing_or_non_numeric_fields_are_errors() {
        let good = report("2.0", "1.0");
        assert!(guards(&good, &report("\"fast\"", "1.0")).is_err());
        assert!(guards(&report("2.0", "null"), &good).is_err());
        assert!(guards(&good, &report("0.0", "1.0")).is_ok(), "a zero fresh time is fast");
        assert!(guards(&report("0.0", "1.0"), &good).is_err(), "a zero committed time divides");
        let no_fig8 = Json::parse(r#"{"experiments": [], "cosim": {"total_s": 1.0}}"#).unwrap();
        assert!(guards(&good, &no_fig8).is_err());
        assert!(guards(&no_fig8, &good).is_err());
        let no_cosim = Json::parse(r#"{"experiments": [{"name": "fig8", "seq_s": 1.0}]}"#).unwrap();
        assert!(guards(&good, &no_cosim).is_err());
        assert!(rerun_args(&Json::parse(r#"{"budget_insts": 60000.0}"#).unwrap()).is_err());
        assert!(rerun_args(&Json::parse(r#"{"budget_insts": 1.5, "fig10_rows": 16}"#).unwrap())
            .is_err());
    }

    #[test]
    fn rerun_args_are_whole_numbers() {
        assert_eq!(rerun_args(&report("2.0", "1.0")).unwrap(), "60000 16");
    }

    #[test]
    fn the_digest_verdict_reads_the_last_line() {
        let line = |correct: &str| {
            format!(
                "progress...\n{{\"correct\": {correct}, \"attempted\": 6.0, \"failed\": 0.0}}\n"
            )
        };
        assert!(verdict(&line("true")).is_ok());
        assert!(verdict(&line("false")).is_err());
        assert!(verdict(&line("\"true\"")).is_err());
        assert!(verdict("{\"failed\": 0.0}").is_err());
        assert!(verdict("{\"correct\": true}\nnot json").is_err());
        assert!(verdict("").is_err());
    }

    #[test]
    fn workloads_come_from_the_benchmark_in_order() {
        let benchmark = Json::parse(
            r#"{"workloads": [{"name": "fig10-sweep", "why": "x"}, {"name": "dtm-cosim"}]}"#,
        )
        .unwrap();
        assert_eq!(workloads(&benchmark).unwrap(), ["fig10-sweep", "dtm-cosim"]);
        assert!(workloads(&Json::parse(r#"{"workloads": []}"#).unwrap()).is_err());
        assert!(workloads(&Json::parse(r#"{"workloads": [{"why": "x"}]}"#).unwrap()).is_err());
    }

    #[test]
    fn the_committed_files_pass_their_own_checks() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let committed = load(&format!("{root}/BENCH_pipeline.json")).unwrap();
        assert!(guards(&committed, &committed).is_ok());
        rerun_args(&committed).unwrap();
        workloads(&load(&format!("{root}/BENCHMARK.json")).unwrap()).unwrap();
    }
}
