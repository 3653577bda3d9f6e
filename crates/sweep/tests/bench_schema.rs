//! Golden schema test for the committed `BENCH_pipeline.json`: the
//! report the `bench_report` binary regenerates and `bench_check` reads
//! its perf guards from. If a bench_report change drops a block or lets
//! a number drift out of its sane range, this fails before the guards
//! ever see it.

use th_sweep::json::Json;

fn report() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("BENCH_pipeline.json must be committed at the repo root: {e}"));
    Json::parse(&text).expect("BENCH_pipeline.json parses")
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {key:?}"))
}

#[test]
fn experiments_block_lists_the_three_sweeps_with_positive_timings() {
    let r = report();
    assert!(num(&r, "budget_insts") >= 1000.0, "implausibly small budget");
    assert!(num(&r, "fig10_rows") >= 4.0);
    let experiments = r.get("experiments").and_then(Json::as_arr).expect("experiments array");
    let names: Vec<&str> = experiments
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).expect("experiment name"))
        .collect();
    assert_eq!(names, ["fig8", "fig9", "fig10"]);
    for e in experiments {
        let seq_s = num(e, "seq_s");
        let par_s = num(e, "par_s");
        let speedup = num(e, "speedup");
        assert!(seq_s > 0.0 && par_s > 0.0, "timings must be positive");
        assert!(num(e, "threads") >= 1.0);
        assert!(
            (speedup - seq_s / par_s).abs() < 0.01,
            "speedup must be seq/par, got {speedup}"
        );
    }
}

#[test]
fn cosim_block_accounts_for_its_wall_clock() {
    let r = report();
    let cosim = r.get("cosim").expect("cosim block");
    let intervals = num(cosim, "intervals");
    let total_s = num(cosim, "total_s");
    assert!(intervals >= 1.0);
    assert!(total_s > 0.0);
    assert!((num(cosim, "intervals_per_s") - intervals / total_s).abs() < 0.1);
    let sim = num(cosim, "sim_wall_s");
    let solver = num(cosim, "solver_wall_s");
    assert!(sim >= 0.0 && solver >= 0.0);
    // The two tracked phases can't exceed the orchestrated total.
    assert!(sim + solver <= total_s * 1.05, "phase times exceed the total");
    let share = num(cosim, "solver_share");
    assert!((0.0..=1.0).contains(&share));
}

#[test]
fn herding_block_stays_within_its_guarded_ranges() {
    let r = report();
    let herding = r.get("herding").expect("herding block");
    assert!(herding.get("workload").and_then(Json::as_str).is_some());
    assert!(num(herding, "ledger_dynamic_w") > 0.0);
    let units = herding.get("units").and_then(Json::as_arr).expect("units array");
    assert!(!units.is_empty(), "at least one width-partitioned unit");
    for u in units {
        let label = u.get("unit").and_then(Json::as_str).expect("unit label");
        let frac = num(u, "measured_top_die");
        assert!((0.0..=1.0).contains(&frac), "{label} measured_top_die = {frac} out of [0,1]");
    }
    // The register file is the paper's flagship herded structure: the
    // ledger must observe a real top-die bias, not a uniform split.
    let rf = units
        .iter()
        .find(|u| u.get("unit").and_then(Json::as_str) == Some("RegFile"))
        .expect("register file row");
    assert!(num(rf, "measured_top_die") > 0.4, "RF top-die concentration lost");
}

#[test]
fn fig10_solve_block_reports_the_sweeps_shape() {
    let r = report();
    let solve = r.get("thermal_solve_fig10").expect("fig10 thermal solve block");
    assert!(solve.get("workload").and_then(Json::as_str).is_some());
    assert_eq!(solve.get("variant").and_then(Json::as_str), Some("3D"));
    // The four-die stack at the report's own fig10 grid.
    assert_eq!(num(solve, "rows"), num(&r, "fig10_rows"));
    assert!(num(solve, "layers") >= 4.0, "a four-die stack has at least four layers");
    assert!(num(solve, "red_black_ms") > 0.0);
    let sweeps = num(solve, "sweeps");
    assert!(sweeps >= 1.0 && sweeps.fract() == 0.0, "sweeps must be a whole count, got {sweeps}");
}
