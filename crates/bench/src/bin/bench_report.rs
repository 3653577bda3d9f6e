//! End-to-end pipeline benchmark: times the Figure 8/9/10 experiment
//! sweeps at one thread and at the configured thread count, the core
//! loop under both engines, and the thermal steady-state solve (scalar
//! reference kernel vs red-black), and writes the measurements to
//! `BENCH_pipeline.json`.
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
//! the report finishes in minutes rather than the full paper-scale
//! sweep.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use th_exec::Pool;
use th_sim::{CoreEngine, SimConfig, Simulator};
use th_sweep::{presets, run_sweep, SweepOptions, SweepOutcome, SweepSpec};
use th_thermal::{
    Kernel, Material, ModelLayer, PowerGrid, SolveOptions, StackModel, SteadySolver,
};
use th_workloads::workload_by_name;
use thermal_herding::experiments::fig8;
use thermal_herding::Variant;

fn time_s<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    std::hint::black_box(&r);
    (t0.elapsed().as_secs_f64(), r)
}

/// A throwaway sweep run directory; removed on drop so back-to-back
/// timings never resume each other's checkpoints.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!(
            "th-bench-sweep-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// One timed pass of a preset sweep into a fresh scratch directory.
/// Every shard must succeed — a degraded shard means the measurement is
/// not comparable, so fail loudly instead of reporting a skewed number.
fn timed_sweep(spec: &SweepSpec, pool: &Pool) -> (f64, SweepOutcome) {
    let scratch = ScratchDir::new(&spec.name);
    let opts = SweepOptions::default();
    let (secs, outcome) = time_s(|| {
        run_sweep(spec, &scratch.0, &opts, pool).expect("sweep runs")
    });
    assert_eq!(outcome.degraded(), 0, "{}: degraded shards skew the timing", spec.name);
    (secs, outcome)
}

/// A 9-layer, 3-active-die stack for the thermal kernel comparison.
fn nine_layer_model() -> StackModel {
    StackModel::new(
        5.5e-3,
        5.8e-3,
        vec![
            ModelLayer::passive(1.0e-3, Material::COPPER),
            ModelLayer::passive(50e-6, Material::TIM_ALLOY),
            ModelLayer::passive(100e-6, Material::SILICON),
            ModelLayer::active(2e-6, Material::SILICON, 0),
            ModelLayer::passive(5e-6, Material::BOND_INTERFACE),
            ModelLayer::active(2e-6, Material::SILICON, 1),
            ModelLayer::passive(20e-6, Material::BOND_INTERFACE),
            ModelLayer::active(2e-6, Material::SILICON, 2),
            ModelLayer::passive(50e-6, Material::SILICON),
        ],
        Default::default(),
    )
}

fn thermal_solve_s(kernel: Kernel, rows: usize) -> f64 {
    let solver = SteadySolver::new(nine_layer_model(), rows, rows);
    let grids: Vec<PowerGrid> = (0..3)
        .map(|die| {
            let mut g = PowerGrid::new(rows, rows, 5.5e-3, 5.8e-3);
            g.paint_rect(0.0, 0.0, 5.5e-3, 5.8e-3, 10.0);
            g.paint_rect(1.1e-3, 1.7e-3, 1.9e-3, 2.9e-3, 4.0 + die as f64);
            g
        })
        .collect();
    let opts = SolveOptions { kernel, ..SolveOptions::default() };
    // Warm once, then report the best of three (solve cost dominates any
    // cache warm-up, but the minimum is the stablest point estimate).
    solver.solve_steady(&grids, &opts).expect("converges");
    (0..3)
        .map(|_| time_s(|| solver.solve_steady(&grids, &opts).expect("converges")).0)
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let budget: u64 =
        std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(60_000);
    let rows: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(16);
    let par_threads = th_exec::threads_from_env().max(1);

    let seq = Pool::new(1);
    let par = Pool::new(par_threads);

    let experiments = [
        presets::fig8(budget),
        presets::fig9(budget),
        presets::fig10(budget, rows),
    ];

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"budget_insts\": {budget},").unwrap();
    writeln!(json, "  \"fig10_rows\": {rows},").unwrap();
    writeln!(json, "  \"threads\": {par_threads},").unwrap();
    writeln!(json, "  \"experiments\": [").unwrap();
    for (i, spec) in experiments.iter().enumerate() {
        let name = &spec.name;
        eprintln!("timing the {name} sweep ({} shards) at 1 thread...", spec.shards.len());
        let (seq_s, outcome) = timed_sweep(spec, &seq);
        let par_s = if par_threads == 1 {
            // One lane: the parallel pool *is* the sequential pool, so
            // re-timing it would only report scheduling noise as a
            // "regression". Reuse the sequential measurement.
            eprintln!("{name}: 1 thread requested, reusing the sequential timing");
            seq_s
        } else {
            eprintln!("timing the {name} sweep at {par_threads} threads...");
            timed_sweep(spec, &par).0
        };
        let speedup = seq_s / par_s;
        println!(
            "{name:>6}: {seq_s:8.2} s sequential, {par_s:8.2} s at {par_threads} threads \
             ({speedup:.2}x)"
        );
        if name == "fig10" {
            // The worst-case row reduction, now computed from sweep
            // records instead of the experiment's private loop.
            for (variant, workload, peak_k) in presets::fig10_worst_rows(&outcome) {
                println!("         worst {variant:<8} {workload:<14} {peak_k:6.1} K");
            }
        }
        let comma = if i + 1 < experiments.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"name\": \"{name}\", \"seq_s\": {seq_s:.4}, \"par_s\": {par_s:.4}, \
             \"threads\": {par_threads}, \"speedup\": {speedup:.4}}}{comma}"
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();

    // Engine A/B: the core loop alone over fig8's grid, same budget, one
    // thread, under the per-cycle scan engine and the event-driven
    // engine. Workloads are built outside the timed region. The two
    // engines produce identical statistics (enforced by the equivalence
    // tests); this block records how much wall-clock the event core saves.
    let workloads = th_workloads::all_workloads();
    let core_loop_s = |engine: CoreEngine| {
        eprintln!("timing fig8's core loop under the {engine:?} engine...");
        time_s(|| {
            fig8::grid()
                .map(|(name, variant)| {
                    let w = workloads.iter().find(|w| w.name == name).expect("registry workload");
                    let n = budget.min(w.inst_budget);
                    let cfg = SimConfig { engine, ..variant.sim_config() };
                    let run = Simulator::new(cfg).run_with_warmup(&w.program, n / 5, n);
                    run.expect("workload runs").stats.committed
                })
                .sum::<u64>()
        })
        .0
    };
    let scan_s = core_loop_s(CoreEngine::Scan);
    let event_s = core_loop_s(CoreEngine::Event);
    println!(
        "engine: fig8 scan {scan_s:.2} s, event {event_s:.2} s ({:.2}x)",
        scan_s / event_s
    );
    writeln!(
        json,
        "  \"engine\": {{\"experiment\": \"fig8\", \"scan_s\": {scan_s:.4}, \
         \"event_s\": {event_s:.4}, \"speedup\": {:.4}}},",
        scan_s / event_s
    )
    .unwrap();

    // Closed-loop co-simulation smoke: the dtm-smoke preset (one shard —
    // 30 intervals, 20k-cycle slices, 12x12 thermal grid) timed end to
    // end through the orchestrator, with the wall-clock split between
    // the cycle simulator and the transient solver taken from the
    // shard's telemetry.
    eprintln!("timing the closed-loop co-simulation smoke...");
    let (cosim_s, cosim) = timed_sweep(&presets::dtm_smoke(), &seq);
    let shard = &cosim.records[0];
    let intervals = shard.metric("intervals").expect("intervals metric") as usize;
    let intervals_per_s = intervals as f64 / cosim_s;
    let sim_wall_s = shard.timing("sim_wall_s").expect("sim wall time");
    let solver_wall_s = shard.timing("solver_wall_s").expect("solver wall time");
    let solver_share = solver_wall_s / cosim_s;
    println!(
        "cosim: {intervals} intervals in {cosim_s:.2} s ({intervals_per_s:.1}/s), \
         solver share {:.0}%",
        100.0 * solver_share
    );
    writeln!(
        json,
        "  \"cosim\": {{\"intervals\": {intervals}, \"total_s\": {cosim_s:.4}, \
         \"intervals_per_s\": {intervals_per_s:.4}, \"sim_wall_s\": {sim_wall_s:.4}, \
         \"solver_wall_s\": {solver_wall_s:.4}, \"solver_share\": {solver_share:.4}}},",
    )
    .unwrap();

    // Herding payoff, measured: the peak-power workload under the full
    // 3D design, priced from its activity ledger, with the per-unit
    // top-die power fractions of every width-partitioned unit. Stays off
    // the orchestrator: it needs the run's full SimStats, not a shard
    // summary.
    let w = workload_by_name("mpeg2-like").expect("known workload");
    eprintln!("measuring herding top-die fractions ({})...", w.name);
    let run = thermal_herding::run_chip(Variant::ThreeD, &w, budget).expect("herding run");
    let ledger_w = run.power.dynamic_w();
    let measured = run.die_table();
    println!("herding: dynamic {ledger_w:.2} W from the activity ledger");
    writeln!(
        json,
        "  \"herding\": {{\"workload\": \"{}\", \"ledger_dynamic_w\": {ledger_w:.4}, \
         \"units\": [",
        w.name
    )
    .unwrap();
    let herded: Vec<th_stack3d::Unit> = th_stack3d::Unit::all()
        .iter()
        .copied()
        .filter(|u| u.is_width_partitioned())
        .collect();
    for (i, &unit) in herded.iter().enumerate() {
        let m = measured.fractions(unit)[0];
        println!("  {:<10} top-die {:.1}% measured", unit.label(), 100.0 * m);
        let comma = if i + 1 < herded.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"unit\": \"{}\", \"measured_top_die\": {m:.4}}}{comma}",
            unit.label()
        )
        .unwrap();
    }
    writeln!(json, "  ]}},").unwrap();

    eprintln!("timing thermal solve kernels at 64x64x9...");
    let scalar_s = thermal_solve_s(Kernel::Lexicographic, 64);
    let rb_s = thermal_solve_s(Kernel::RedBlack, 64);
    println!(
        "thermal solve 64x64x9: scalar {scalar_s:.3} s, red-black {rb_s:.3} s ({:.2}x)",
        scalar_s / rb_s
    );
    writeln!(
        json,
        "  \"thermal_solve_64x64x9\": {{\"scalar_s\": {scalar_s:.4}, \
         \"red_black_s\": {rb_s:.4}, \"speedup\": {:.4}}}",
        scalar_s / rb_s
    )
    .unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("wrote BENCH_pipeline.json");
}
