//! End-to-end pipeline benchmark: times the Figure 8/9/10 experiment
//! sweeps at one thread and at the configured thread count, the
//! closed-loop co-simulation smoke, the core loop's throughput and, as
//! the thermal smoke, the steady solve the Figure 10 sweep runs, and
//! writes the measurements to `BENCH_pipeline.json`. A fixed
//! host-calibration loop, timed between those legs, gives the report's
//! `host_calibration_s`: `bench_check guard` compares times relative to
//! it, so a host that is slower right now does not read as a
//! regression.
//!
//! ```text
//! cargo run --release -p th-bench --bin bench_report [budget] [fig10-rows]
//! ```
//!
//! The experiment legs run as `th-sweep` preset sweeps (the same
//! orchestrator the `sweep` binary drives), each timed into a fresh
//! scratch run directory so no checkpoint resume short-circuits the
//! measurement. The parallel leg uses `TH_THREADS` lanes (default:
//! available parallelism); the sequential leg always uses one.
//! Defaults: a 60 000-instruction budget and a 16×16 Figure 10 grid, so
//! the report finishes in seconds rather than the full paper-scale
//! sweep. `bench_check` reads the report back.

use std::process::ExitCode;
use std::time::Instant;
use th_exec::Pool;
use th_sweep::json::Json;
use th_sweep::{presets, run_sweep, SweepOptions, SweepOutcome, SweepSpec};
use th_workloads::workload_by_name;
use thermal_herding::{run_chip_with_work, CoreWork, Variant};

const USAGE: &str = "usage: bench_report [budget-insts] [fig10-rows] (positive integers; \
                     defaults 60000 and 16)";

fn time_s<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    std::hint::black_box(&r);
    (t0.elapsed().as_secs_f64(), r)
}

/// Rounds of the host-calibration loop (about 0.1 s on a current x86-64 core).
const CALIBRATION_ROUNDS: u64 = 60_000_000;

/// One timing of the host-calibration loop: a serial chain of integer
/// multiplies, xors and rotates, touching no memory and no workspace
/// code, so its time moves only with the host's speed.
fn calibration_s() -> f64 {
    time_s(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..std::hint::black_box(CALIBRATION_ROUNDS) {
            x = (x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17);
        }
        x
    })
    .0
}

/// The median of `samples`.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    (samples[(n - 1) / 2] + samples[n / 2]) / 2.0
}

/// One timed pass of a preset sweep into a fresh scratch run directory,
/// so no checkpoint resume short-circuits the measurement. Every shard
/// must succeed — a degraded shard means the measurement is not
/// comparable, so fail loudly instead of reporting a skewed number.
fn timed_sweep(spec: &SweepSpec, pool: &Pool) -> (f64, SweepOutcome) {
    let dir =
        std::env::temp_dir().join(format!("th-bench-sweep-{}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SweepOptions::default();
    let (secs, outcome) = time_s(|| run_sweep(spec, &dir, &opts, pool).expect("sweep runs"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(outcome.degraded(), 0, "{}: degraded shards skew the timing", spec.name);
    (secs, outcome)
}

/// `[budget] [rows]`, both positive integers; `None` on anything else.
fn parse_args(args: &[String]) -> Option<(u64, usize)> {
    let (budget, rows) = match args {
        [] => (60_000, 16),
        [budget] => (budget.parse().ok()?, 16),
        [budget, rows] => (budget.parse().ok()?, rows.parse().ok()?),
        _ => return None,
    };
    (budget > 0 && rows > 0).then_some((budget, rows))
}

/// A JSON number at the report's four-decimal precision.
fn num(v: f64) -> Json {
    Json::Num((v * 1e4).round() / 1e4)
}

fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The core loop's throughput over `secs` of simulation: committed
/// instructions and simulated cycles per second, and the share of those
/// cycles idle skipping jumped over.
fn core_rates(work: &CoreWork, secs: f64) -> Json {
    let cycles = work.cycles_stepped + work.cycles_skipped;
    obj([
        ("minst_per_s", num(work.committed as f64 / secs / 1e6)),
        ("mcycles_per_s", num(cycles as f64 / secs / 1e6)),
        ("idle_skip_ratio", num(work.idle_skip_ratio())),
    ])
}

/// The report with one top-level field per line, and one array element
/// per line.
fn render(report: &Json) -> String {
    let fields = report.as_obj().expect("the report is an object");
    let lines: Vec<String> = fields
        .iter()
        .map(|(key, value)| match value.as_arr() {
            Some(items) => {
                let items: Vec<String> = items.iter().map(|v| format!("    {v}")).collect();
                format!("  {}: [\n{}\n  ]", Json::Str(key.clone()), items.join(",\n"))
            }
            None => format!("  {}: {value}", Json::Str(key.clone())),
        })
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((budget, rows)) = parse_args(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let par_threads = th_exec::threads_from_env().max(1);

    let seq = Pool::new(1);
    let par = Pool::new(par_threads);

    // The calibration loop runs before the first leg and after each of
    // the fig8, fig9, fig10 and cosim legs.
    let mut calibration = vec![calibration_s()];
    let mut experiments = Vec::new();
    for spec in [presets::fig8(budget), presets::fig9(budget), presets::fig10(budget, rows)] {
        let name = &spec.name;
        eprintln!("timing the {name} sweep ({} shards) at 1 thread...", spec.shards.len());
        let (seq_s, outcome) = timed_sweep(&spec, &seq);
        let par_s = if par_threads == 1 {
            // One lane: the parallel pool *is* the sequential pool, so
            // re-timing it would only report scheduling noise as a
            // "regression". Reuse the sequential measurement.
            eprintln!("{name}: 1 thread requested, reusing the sequential timing");
            seq_s
        } else {
            eprintln!("timing the {name} sweep at {par_threads} threads...");
            timed_sweep(&spec, &par).0
        };
        let speedup = seq_s / par_s;
        println!(
            "{name:>6}: {seq_s:8.2} s sequential, {par_s:8.2} s at {par_threads} threads \
             ({speedup:.2}x)"
        );
        if name == "fig10" {
            // The worst-case row reduction, computed from sweep records.
            for (variant, workload, peak_k) in presets::fig10_worst_rows(&outcome) {
                println!("         worst {variant:<8} {workload:<14} {peak_k:6.1} K");
            }
        }
        experiments.push(obj([
            ("name", Json::Str(name.clone())),
            ("seq_s", num(seq_s)),
            ("par_s", num(par_s)),
            ("threads", num(par_threads as f64)),
            ("speedup", num(speedup)),
        ]));
        calibration.push(calibration_s());
    }

    // Closed-loop co-simulation smoke: the dtm-smoke preset (one shard —
    // 30 intervals, 20k-cycle slices, 12x12 thermal grid) timed end to
    // end through the orchestrator, with the wall-clock split between
    // the cycle simulator and the transient solver taken from the
    // shard's telemetry.
    eprintln!("timing the closed-loop co-simulation smoke...");
    let (cosim_s, cosim) = timed_sweep(&presets::dtm_smoke(), &seq);
    calibration.push(calibration_s());
    let host_calibration_s = median(calibration);
    println!("host: calibration loop {:.1} ms (median)", host_calibration_s * 1e3);
    let shard = &cosim.records[0];
    let intervals = shard.metric("intervals").expect("intervals metric");
    let intervals_per_s = intervals / cosim_s;
    let sim_wall_s = shard.timing("sim_wall_s").expect("sim wall time");
    let counter =
        |key: &str| shard.timing(key).unwrap_or_else(|| panic!("no {key} telemetry")) as u64;
    let cosim_work = CoreWork {
        committed: counter("core_committed"),
        cycles_stepped: counter("core_cycles_stepped"),
        cycles_skipped: counter("core_cycles_skipped"),
        events: counter("core_events"),
    };
    let solver_wall_s = shard.timing("solver_wall_s").expect("solver wall time");
    let solver_share = solver_wall_s / cosim_s;
    println!(
        "cosim: {intervals} intervals in {cosim_s:.2} s ({intervals_per_s:.1}/s), \
         solver share {:.0}%",
        100.0 * solver_share
    );
    let cosim = obj([
        ("intervals", num(intervals)),
        ("total_s", num(cosim_s)),
        ("intervals_per_s", num(intervals_per_s)),
        ("sim_wall_s", num(sim_wall_s)),
        ("solver_wall_s", num(solver_wall_s)),
        ("solver_share", num(solver_share)),
    ]);

    // Core loop throughput on a fig10-shaped chip run: the full 3D
    // design on the peak-power workload, with the fig10 sweep's budget
    // and warmup; the best of three runs.
    let w = workload_by_name("mpeg2-like").expect("known workload");
    eprintln!("timing the core loop on a fig10-shaped chip run ({})...", w.name);
    let mut best_s = f64::INFINITY;
    let mut chip = None;
    for _ in 0..3 {
        let (secs, out) =
            time_s(|| run_chip_with_work(Variant::ThreeD, &w, budget).expect("chip run"));
        best_s = best_s.min(secs);
        chip = Some(out);
    }
    let (run, work) = chip.expect("three runs");
    println!(
        "core: {:.2} Minst/s on the chip run ({:.0}% of cycles skipped idle)",
        work.committed as f64 / best_s / 1e6,
        100.0 * work.idle_skip_ratio()
    );
    let core = obj([
        ("chip", core_rates(&work, best_s)),
        ("cosim", core_rates(&cosim_work, sim_wall_s)),
    ]);

    // Herding payoff, measured on the same run, priced from its activity
    // ledger, with the per-unit top-die power fractions of every
    // width-partitioned unit. Stays off the orchestrator: it needs the
    // run's full SimStats, not a shard summary.
    eprintln!("measuring herding top-die fractions ({})...", w.name);
    let ledger_w = run.power.dynamic_w();
    let measured = run.die_table();
    println!("herding: dynamic {ledger_w:.2} W from the activity ledger");
    let units = th_stack3d::Unit::all()
        .iter()
        .filter(|u| u.is_width_partitioned())
        .map(|&unit| {
            let m = measured.fractions(unit)[0];
            println!("  {:<10} top-die {:.1}% measured", unit.label(), 100.0 * m);
            obj([("unit", Json::Str(unit.label().to_string())), ("measured_top_die", num(m))])
        })
        .collect();
    let herding = obj([
        ("workload", Json::Str(w.name.to_string())),
        ("ledger_dynamic_w", num(ledger_w)),
        ("units", Json::Arr(units)),
    ]);

    // Thermal smoke: the steady solve as the fig10 sweep runs it, on
    // the mpeg2-like 3D run above, the four-die stack and the sweep's
    // grid. Assembly and power painting are included, as in the sweep's
    // `solve_s`.
    eprintln!("timing the fig10-shaped steady solve...");
    let analysis = thermal_herding::thermal_analysis(&run, rows).expect("fig10 solve");
    let layers = analysis.map.layer_count();
    let sweeps = analysis.map.solve_stats().sweeps;
    let fig10_ms = 1e3
        * (0..3)
            .map(|_| time_s(|| thermal_herding::thermal_analysis(&run, rows).expect("solves")).0)
            .fold(f64::INFINITY, f64::min);
    println!("thermal smoke: fig10 {rows}x{rows}x{layers} solve {fig10_ms:.2} ms, {sweeps} sweeps");
    let thermal = obj([
        ("variant", Json::Str("3D".into())),
        ("workload", Json::Str(w.name.to_string())),
        ("rows", num(rows as f64)),
        ("layers", num(layers as f64)),
        ("red_black_ms", num(fig10_ms)),
        ("sweeps", num(sweeps as f64)),
    ]);

    let report = obj([
        ("budget_insts", num(budget as f64)),
        ("fig10_rows", num(rows as f64)),
        ("threads", num(par_threads as f64)),
        ("host_calibration_s", num(host_calibration_s)),
        ("experiments", Json::Arr(experiments)),
        ("cosim", cosim),
        ("core", core),
        ("herding", herding),
        ("thermal_solve_fig10", thermal),
    ]);
    std::fs::write("BENCH_pipeline.json", render(&report)).expect("write BENCH_pipeline.json");
    println!("wrote BENCH_pipeline.json");
    ExitCode::SUCCESS
}
