//! Typed checks over the repo's benchmark JSON, for `ci.sh`:
//!
//! ```text
//! bench_check rerun-args <report.json>          the report's "<budget> <rows>"
//! bench_check guard <committed.json> <fresh.json>...
//!                                               the two perf guards
//! bench_check workloads <BENCHMARK.json>        one workload name per line
//! bench_check verdict <workload> < output       sweepbench's digest verdict
//! ```
//!
//! The guards compare fresh `bench_report` runs against the committed
//! `BENCH_pipeline.json`: the fig8 sequential sweep (`seq_s`) and the
//! closed-loop co-simulation smoke (`cosim.total_s`), each divided by
//! its own report's `host_calibration_s` (a fixed integer loop timed
//! between the legs), fail when the fastest fresh ratio exceeds
//! [`MAX_SLOWDOWN`] times the committed one. Shared CI hosts are noisy
//! (the same binary's fig8 time swings by a third within minutes, and a
//! slow spell can outlast several runs), so each time is read relative
//! to the host's speed at that moment, the minimum over several fresh
//! runs, and only a large slowdown fails; faster always passes.
//! Every report must also carry the core loop's throughput block
//! (`core`), every rate a number; it is reported, not guarded.
//! `verdict` reads sweepbench's output on stdin and passes only
//! if its last line says `"correct": true`. A missing file, field or
//! number is an error, never a pass.

use std::io::Read as _;
use std::process::ExitCode;
use th_sweep::json::Json;

/// The largest fresh/committed time ratio a guard accepts.
const MAX_SLOWDOWN: f64 = 1.5;

const USAGE: &str = "usage: bench_check rerun-args <report.json>\n       \
                     bench_check guard <committed.json> <fresh.json>...\n       \
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

/// A guarded time and its report's host-calibration time.
#[derive(Clone, Copy)]
struct HostTime {
    secs: f64,
    calibration_s: f64,
}

impl HostTime {
    /// `read`'s time from `report`, with the report's calibration time,
    /// which must be positive.
    fn read(report: &Json, read: fn(&Json) -> Result<f64, String>) -> Result<HostTime, String> {
        let calibration_s = number(report, "host_calibration_s")?;
        if !(calibration_s > 0.0 && calibration_s.is_finite()) {
            return Err(format!("field \"host_calibration_s\" is {calibration_s}, not positive"));
        }
        Ok(HostTime { secs: read(report)?, calibration_s })
    }

    /// The time in units of the calibration loop.
    fn relative(self) -> f64 {
        self.secs / self.calibration_s
    }
}

/// The runs the `core` block measures, and each one's rates.
const CORE_RUNS: [&str; 2] = ["chip", "cosim"];
const CORE_RATES: [&str; 3] = ["minst_per_s", "mcycles_per_s", "idle_skip_ratio"];

/// The `core` block's report line, if every rate is present and a
/// finite, non-negative number.
fn core_block(report: &Json) -> Result<String, String> {
    let core = field(report, "core")?;
    let mut parts = Vec::new();
    for run in CORE_RUNS {
        let block = field(core, run).map_err(|e| format!("core: {e}"))?;
        for key in CORE_RATES {
            let v = number(block, key).map_err(|e| format!("core.{run}: {e}"))?;
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("core.{run}: field {key:?} is {v}"));
            }
        }
        parts.push(format!("{run} {:.2} Minst/s", number(block, "minst_per_s")?));
    }
    Ok(format!("core loop: {}", parts.join(", ")))
}

/// One guard: `Ok` with its report line if `fresh`, relative to its
/// host calibration, is at most [`MAX_SLOWDOWN`] times `committed`.
fn guard(label: &str, committed: HostTime, fresh: HostTime) -> Result<String, String> {
    if !(committed.secs > 0.0 && fresh.secs >= 0.0) {
        return Err(format!(
            "{label}: times must be positive (committed {}, fresh {})",
            committed.secs, fresh.secs
        ));
    }
    let ratio = fresh.relative() / committed.relative();
    let line = format!(
        "{label} {:.2}s fresh vs {:.2}s committed, host calibration {:.3}s vs {:.3}s \
         ({ratio:.2}x)",
        fresh.secs, committed.secs, fresh.calibration_s, committed.calibration_s
    );
    if ratio > MAX_SLOWDOWN {
        Err(format!("{line}: regressed more than {MAX_SLOWDOWN}x"))
    } else {
        Ok(format!("perf guard: {line}"))
    }
}

/// Both guards of the minimum host-relative time over the `fresh`
/// reports against `committed`, every one reported, then each fresh
/// `core` block; every report must be well formed.
fn guards(committed: &Json, fresh: &[Json]) -> Result<Vec<String>, String> {
    if fresh.is_empty() {
        return Err("no fresh report to guard".into());
    }
    type Read = fn(&Json) -> Result<f64, String>;
    let checks: [(&str, Read); 2] = [("fig8 seq", fig8_seq_s), ("cosim smoke", cosim_total_s)];
    let mut lines = checks
        .iter()
        .map(|&(label, read)| {
            let committed =
                HostTime::read(committed, read).map_err(|e| format!("committed report: {e}"))?;
            let times = fresh
                .iter()
                .enumerate()
                .map(|(k, report)| {
                    HostTime::read(report, read)
                        .map_err(|e| format!("fresh report {}: {e}", k + 1))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let best = times
                .into_iter()
                .min_by(|a, b| a.relative().total_cmp(&b.relative()))
                .expect("at least one fresh report");
            guard(label, committed, best)
        })
        .collect::<Result<Vec<_>, _>>()?;
    core_block(committed).map_err(|e| format!("committed report: {e}"))?;
    for (k, report) in fresh.iter().enumerate() {
        lines.push(core_block(report).map_err(|e| format!("fresh report {}: {e}", k + 1))?);
    }
    Ok(lines)
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
        ["guard", committed, ref fresh @ ..] => {
            let fresh = fresh.iter().map(|path| load(path)).collect::<Result<Vec<_>, _>>()?;
            guards(&load(committed)?, &fresh)
        }
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

    const CORE: &str = r#"{"chip": {"minst_per_s": 0.9, "mcycles_per_s": 1.1, "idle_skip_ratio": 0.2},
                           "cosim": {"minst_per_s": 0.5, "mcycles_per_s": 1.4, "idle_skip_ratio": 0.6}}"#;

    fn report_on_host_with_core(
        fig8_seq_s: &str,
        cosim_total_s: &str,
        calibration_s: &str,
        core: &str,
    ) -> Json {
        Json::parse(&format!(
            r#"{{"budget_insts": 60000.0, "fig10_rows": 16.0,
                "host_calibration_s": {calibration_s},
                "experiments": [{{"name": "fig9", "seq_s": 9.0}},
                                {{"name": "fig8", "seq_s": {fig8_seq_s}}}],
                "cosim": {{"intervals": 30.0, "total_s": {cosim_total_s}}},
                "core": {core}}}"#
        ))
        .unwrap()
    }

    fn report_with_core(fig8_seq_s: &str, cosim_total_s: &str, core: &str) -> Json {
        report_on_host_with_core(fig8_seq_s, cosim_total_s, "0.1", core)
    }

    fn report(fig8_seq_s: &str, cosim_total_s: &str) -> Json {
        report_with_core(fig8_seq_s, cosim_total_s, CORE)
    }

    fn report_on_host(fig8_seq_s: &str, cosim_total_s: &str, calibration_s: &str) -> Json {
        report_on_host_with_core(fig8_seq_s, cosim_total_s, calibration_s, CORE)
    }

    #[test]
    fn a_uniformly_slower_host_passes() {
        let committed = report_on_host("2.0", "1.0", "0.1");
        let lines = guards(&committed, &[report_on_host("4.0", "2.0", "0.2")])
            .expect("a host 2x slower at everything passed");
        assert!(lines[0].contains("fig8 seq 4.00s fresh"), "{}", lines[0]);
        assert!(lines[0].contains("(1.00x)"), "{}", lines[0]);
        assert!(lines[1].contains("(1.00x)"), "{}", lines[1]);
    }

    #[test]
    fn a_slowdown_of_fig8_alone_fails_on_any_host() {
        let committed = report_on_host("2.0", "1.0", "0.1");
        let slower = guards(&committed, &[report_on_host("3.2", "1.0", "0.1")]);
        assert!(slower.is_err(), "fig8 at 1.6x on the same host passed");
        let slower_on_slow_host = guards(&committed, &[report_on_host("6.4", "2.0", "0.2")]);
        assert!(slower_on_slow_host.is_err(), "fig8 at 1.6x on a 2x slower host passed");
        // Absolute fig8 time within the bound, but the host got faster.
        let faster_host = guards(&committed, &[report_on_host("2.0", "0.5", "0.05")]);
        assert!(faster_host.is_err(), "fig8 at 2x on a 2x faster host passed");
    }

    #[test]
    fn each_guard_picks_the_fresh_run_fastest_relative_to_its_host() {
        let committed = report_on_host("2.0", "1.0", "0.1");
        // The second run is slower in seconds but ran on a slow host.
        let fresh = [report_on_host("3.2", "1.2", "0.1"), report_on_host("4.4", "2.4", "0.2")];
        let lines = guards(&committed, &fresh).expect("the slow-host run is within the bound");
        assert!(lines[0].contains("fig8 seq 4.40s fresh"), "{}", lines[0]);
        assert!(lines[0].contains("(1.10x)"), "{}", lines[0]);
        assert!(lines[1].contains("cosim smoke 1.20s fresh"), "{}", lines[1]);
    }

    #[test]
    fn a_missing_or_non_positive_calibration_is_an_error() {
        let good = report("2.0", "1.0");
        for bad in ["0.0", "-0.1", "null", "\"fast\""] {
            let fresh = report_on_host("2.0", "1.0", bad);
            assert!(guards(&good, std::slice::from_ref(&fresh)).is_err(), "fresh {bad} passed");
            assert!(guards(&fresh, std::slice::from_ref(&good)).is_err(), "committed {bad} passed");
        }
        let uncalibrated = Json::parse(
            r#"{"experiments": [{"name": "fig8", "seq_s": 2.0}], "cosim": {"total_s": 1.0}}"#,
        )
        .unwrap();
        assert!(guards(&good, &[uncalibrated]).is_err(), "a report without calibration passed");
    }

    #[test]
    fn a_slowdown_above_the_bound_fails() {
        let committed = report("2.0", "1.0");
        assert!(guards(&committed, &[report("3.02", "1.0")]).is_err(), "fig8 at 1.51x passed");
        assert!(guards(&committed, &[report("2.0", "1.51")]).is_err(), "cosim at 1.51x passed");
    }

    #[test]
    fn a_slowdown_at_or_below_the_bound_passes_and_so_does_a_speedup() {
        let committed = report("2.0", "1.0");
        let lines = guards(&committed, &[report("3.0", "1.5")]).expect("exactly 1.5x passes");
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("(1.50x)"), "{}", lines[0]);
        assert!(lines[2].contains("chip 0.90 Minst/s"), "{}", lines[2]);
        assert!(guards(&committed, &[report("2.9", "1.2")]).is_ok());
        assert!(guards(&committed, &[report("0.5", "0.1")]).is_ok(), "a faster run failed");
    }

    #[test]
    fn each_guard_reads_the_fastest_fresh_run() {
        let committed = report("2.0", "1.0");
        let fresh = [report("3.6", "0.9"), report("2.4", "1.7"), report("3.3", "1.2")];
        let lines = guards(&committed, &fresh).expect("fastest runs are within the bound");
        assert!(lines[0].contains("fig8 seq 2.40s fresh"), "{}", lines[0]);
        assert!(lines[1].contains("cosim smoke 0.90s fresh"), "{}", lines[1]);
        assert_eq!(lines.len(), 2 + fresh.len(), "one core line per fresh report");
    }

    #[test]
    fn a_guard_fails_only_when_every_fresh_run_is_over_the_bound() {
        let committed = report("2.0", "1.0");
        let slow = [report("3.1", "1.0"), report("3.4", "1.0"), report("3.02", "1.0")];
        assert!(guards(&committed, &slow).is_err(), "three runs over 1.5x passed");
        let one_fast = [report("3.1", "1.0"), report("2.9", "1.0"), report("3.4", "1.0")];
        assert!(guards(&committed, &one_fast).is_ok(), "one run within 1.5x failed");
    }

    #[test]
    fn a_malformed_or_missing_fresh_report_is_an_error() {
        let good = report("2.0", "1.0");
        assert!(guards(&good, &[]).is_err(), "no fresh report passed");
        let bad_time = [report("1.0", "1.0"), report("\"fast\"", "1.0")];
        assert!(guards(&good, &bad_time).is_err(), "a non-numeric time among fast runs passed");
        let no_core = Json::parse(
            r#"{"experiments": [{"name": "fig8", "seq_s": 1.0}], "cosim": {"total_s": 0.5}}"#,
        )
        .unwrap();
        let bad_core = [report("2.0", "1.0"), no_core];
        assert!(guards(&good, &bad_core).is_err(), "a fresh report without core passed");
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
        let guard_args = |fresh: &[&str]| {
            let mut args = vec!["guard".to_string(), committed.to_string()];
            args.extend(fresh.iter().map(|f| f.to_string()));
            args
        };
        assert!(run(&guard_args(&[committed])).is_ok());
        assert!(run(&guard_args(&[])).is_err(), "a guard without fresh reports passed");
        let missing = run(&guard_args(&[committed, "no-such-dir/BENCH_pipeline.json"]));
        assert!(missing.is_err(), "a missing fresh report passed");
    }

    #[test]
    fn missing_or_non_numeric_fields_are_errors() {
        let good = report("2.0", "1.0");
        assert!(guards(&good, &[report("\"fast\"", "1.0")]).is_err());
        assert!(guards(&report("2.0", "null"), std::slice::from_ref(&good)).is_err());
        assert!(guards(&good, &[report("0.0", "1.0")]).is_ok(), "a zero fresh time is fast");
        assert!(guards(&report("0.0", "1.0"), std::slice::from_ref(&good)).is_err(), "a zero committed time divides");
        let no_fig8 = Json::parse(r#"{"experiments": [], "cosim": {"total_s": 1.0}}"#).unwrap();
        assert!(guards(&good, std::slice::from_ref(&no_fig8)).is_err());
        assert!(guards(&no_fig8, std::slice::from_ref(&good)).is_err());
        let no_cosim = Json::parse(r#"{"experiments": [{"name": "fig8", "seq_s": 1.0}]}"#).unwrap();
        assert!(guards(&good, &[no_cosim]).is_err());
        assert!(rerun_args(&Json::parse(r#"{"budget_insts": 60000.0}"#).unwrap()).is_err());
        assert!(rerun_args(&Json::parse(r#"{"budget_insts": 1.5, "fig10_rows": 16}"#).unwrap())
            .is_err());
    }

    #[test]
    fn a_missing_core_block_is_an_error() {
        let good = report("2.0", "1.0");
        let no_core = Json::parse(
            r#"{"experiments": [{"name": "fig8", "seq_s": 2.0}], "cosim": {"total_s": 1.0}}"#,
        )
        .unwrap();
        let fresh_without_core = guards(&good, std::slice::from_ref(&no_core));
        assert!(fresh_without_core.is_err(), "fresh report without core passed");
        let committed_without_core = guards(&no_core, std::slice::from_ref(&good));
        assert!(committed_without_core.is_err(), "committed report without core passed");
        let no_cosim_run = report_with_core("2.0", "1.0", &CORE.replace("\"cosim\"", "\"other\""));
        assert!(guards(&good, &[no_cosim_run]).is_err(), "core without its cosim run passed");
    }

    #[test]
    fn a_missing_core_field_is_an_error() {
        let good = report("2.0", "1.0");
        for key in CORE_RATES {
            let renamed = CORE.replacen(&format!("\"{key}\""), "\"renamed\"", 1);
            assert!(guards(&good, &[report_with_core("2.0", "1.0", &renamed)]).is_err(), "{key}");
        }
    }

    #[test]
    fn a_non_numeric_core_field_is_an_error() {
        let good = report("2.0", "1.0");
        for bad in ["\"fast\"", "null", "true", "[1.0]", "-1.0"] {
            let core = CORE.replacen("0.9", bad, 1);
            assert!(
                guards(&good, &[report_with_core("2.0", "1.0", &core)]).is_err(),
                "minst_per_s = {bad} passed"
            );
        }
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
        assert!(guards(&committed, std::slice::from_ref(&committed)).is_ok());
        rerun_args(&committed).unwrap();
        workloads(&load(&format!("{root}/BENCHMARK.json")).unwrap()).unwrap();
    }
}
