//! The orchestrator's acceptance properties, end to end on real run
//! directories:
//!
//! * **Resumability** — a sweep interrupted mid-run (emulated by
//!   deleting checkpoints, exactly the state a kill leaves behind) or
//!   degraded by injected faults resumes from the manifest, recomputes
//!   only the unfinished shards, and merges to metrics bit-identical to
//!   an uninterrupted run — at one thread and at four.
//! * **Fault tolerance** — `TH_SWEEP_FAULT`-style plans forcing N
//!   failures still complete the sweep: retries appear in the JSONL
//!   telemetry, permanently failing shards end up degraded, and their
//!   siblings are unaffected.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;
use th_exec::Pool;
use th_sweep::json::Json;
use th_sweep::{
    presets, run_sweep, FaultPlan, ShardRecord, ShardSpec, ShardStatus, ShardTask,
    SweepOptions, SweepSpec,
};
use thermal_herding::Variant;

/// A fresh run directory under the target-adjacent temp dir, removed on
/// drop so failed tests don't pollute reruns.
struct RunDir(PathBuf);

impl RunDir {
    fn new(tag: &str) -> RunDir {
        let dir = std::env::temp_dir().join(format!(
            "th-sweep-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        RunDir(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn fast_opts() -> SweepOptions {
    SweepOptions { backoff: Duration::from_millis(1), ..SweepOptions::default() }
}

/// Metric lists must match bit for bit — the determinism contract.
fn assert_metrics_identical(a: &[ShardRecord], b: &[ShardRecord]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.status, y.status, "{}: status differs", x.id);
        assert_eq!(x.metrics.len(), y.metrics.len(), "{}: metric counts differ", x.id);
        for ((ka, va), (kb, vb)) in x.metrics.iter().zip(&y.metrics) {
            assert_eq!(ka, kb, "{}: metric names differ", x.id);
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{}: metric {ka} differs: {va} vs {vb}",
                x.id
            );
        }
    }
}

fn telemetry_events(dir: &std::path::Path) -> Vec<(String, Json)> {
    let text = fs::read_to_string(dir.join("telemetry.jsonl")).expect("telemetry exists");
    text.lines()
        .map(|line| {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("bad telemetry {line:?}: {e}"));
            (v.get("event").and_then(Json::as_str).expect("event field").to_string(), v)
        })
        .collect()
}

/// A small grid of real simulation shards: two workloads × two design
/// points at a smoke budget, plus a coarse thermal solve — enough to
/// exercise the chip and solver paths (including their nested fan-outs)
/// without paper-scale cost.
fn mixed_spec() -> SweepSpec {
    let mut shards = Vec::new();
    for workload in ["gzip-like", "mpeg2-like"] {
        for variant in [Variant::Base, Variant::ThreeD] {
            shards.push(ShardSpec {
                id: format!("chip/{workload}/{}", variant.label()),
                task: ShardTask::ChipRun {
                    workload: workload.into(),
                    variant,
                    budget: 15_000,
                },
            });
        }
    }
    shards.push(ShardSpec {
        id: "thermal/gzip-like/3D".into(),
        task: ShardTask::ThermalRun {
            workload: "gzip-like".into(),
            variant: Variant::ThreeD,
            budget: 15_000,
            rows: 8,
        },
    });
    SweepSpec { name: "mixed".into(), shards }
}

#[test]
fn killed_sweep_resumes_from_manifest_and_recomputes_only_unfinished_shards() {
    // The reference: one uninterrupted run.
    let reference_dir = RunDir::new("ref");
    let spec = presets::selftest();
    let pool = Pool::new(2);
    let reference =
        run_sweep(&spec, &reference_dir.0, &fast_opts(), &pool).expect("reference run");
    assert_eq!(reference.done(), spec.shards.len());

    // The "killed" run: complete once, then erase three checkpoints —
    // the on-disk state of a sweep killed before those shards finished
    // (the manifest and the other checkpoints survive).
    let killed_dir = RunDir::new("killed");
    run_sweep(&spec, &killed_dir.0, &fast_opts(), &pool).expect("first pass");
    let shards_dir = killed_dir.0.join("shards");
    for id in ["selftest-1", "selftest-4", "selftest-6"] {
        fs::remove_file(shards_dir.join(format!("{id}.json"))).expect("checkpoint exists");
    }
    // A truncated checkpoint (killed mid-write before the rename) must
    // also count as unfinished, not crash the resume.
    fs::write(shards_dir.join("selftest-0.json"), "{\"id\": \"selftest-0\"").unwrap();

    let resumed = run_sweep(&spec, &killed_dir.0, &fast_opts(), &pool).expect("resume");
    assert_eq!(resumed.resumed, spec.shards.len() - 4, "finished shards must not rerun");
    assert_eq!(resumed.executed, 4, "only the missing/corrupt shards recompute");
    assert_eq!(resumed.done(), spec.shards.len());
    assert_metrics_identical(&resumed.records, &reference.records);

    // The resume's telemetry says so too.
    let events = telemetry_events(&killed_dir.0);
    let starts: Vec<&str> = events
        .iter()
        .filter(|(e, _)| e == "shard_start")
        .map(|(_, v)| v.get("shard").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(starts.len(), spec.shards.len() + 4, "first pass + the four recomputes");
}

#[test]
fn fault_injected_resume_is_bit_identical_at_one_and_four_threads() {
    // Reference: the mixed grid, uninterrupted, single-threaded.
    let reference_dir = RunDir::new("mixed-ref");
    let spec = mixed_spec();
    let reference = run_sweep(&spec, &reference_dir.0, &fast_opts(), &Pool::new(1))
        .expect("reference run");
    assert_eq!(reference.done(), spec.shards.len());

    for threads in [1, 4] {
        let dir = RunDir::new(&format!("mixed-{threads}"));
        let pool = Pool::new(threads);

        // First pass: one shard recovers after a failure, one is
        // permanently down and ends degraded.
        let mut opts = fast_opts();
        opts.fault =
            FaultPlan::parse("chip/gzip-like/Base:1,thermal/*:inf").expect("valid plan");
        let first = run_sweep(&spec, &dir.0, &opts, &pool).expect("faulted pass");
        assert_eq!(first.degraded(), 1, "{threads} threads: thermal shard must degrade");
        assert_eq!(
            first.record("chip/gzip-like/Base").unwrap().attempts,
            2,
            "{threads} threads: recovered shard consumed a retry"
        );

        // Second pass, faults lifted: only the degraded shard reruns,
        // and the merged metrics equal the uninterrupted reference's,
        // bit for bit.
        let second = run_sweep(&spec, &dir.0, &fast_opts(), &pool).expect("resume");
        assert_eq!(second.resumed, spec.shards.len() - 1);
        assert_eq!(second.executed, 1);
        assert_metrics_identical(&second.records, &reference.records);
    }
}

#[test]
fn forced_failures_retry_then_degrade_without_aborting_siblings() {
    let dir = RunDir::new("faults");
    let spec = presets::selftest();
    let mut opts = fast_opts();
    // selftest-2 fails twice then recovers; selftest-5 panics forever.
    opts.fault = FaultPlan::parse("selftest-2:2,selftest-5:inf!").expect("valid plan");
    let outcome = run_sweep(&spec, &dir.0, &opts, &Pool::new(3)).expect("sweep completes");

    // The sweep completed around the permanent failure.
    assert_eq!(outcome.degraded(), 1);
    assert_eq!(outcome.done(), spec.shards.len() - 1);
    let recovered = outcome.record("selftest-2").unwrap();
    assert_eq!(recovered.status, ShardStatus::Done);
    assert_eq!(recovered.attempts, 3);
    let dead = outcome.record("selftest-5").unwrap();
    assert_eq!(dead.status, ShardStatus::Degraded);
    assert_eq!(dead.attempts, 3);
    assert!(
        dead.error.as_deref().unwrap_or("").contains("panic"),
        "panic mode must surface in the error: {:?}",
        dead.error
    );

    // Retries are visible in the telemetry stream.
    let events = telemetry_events(&dir.0);
    let retries_of = |id: &str| {
        events
            .iter()
            .filter(|(e, v)| {
                e == "shard_retry" && v.get("shard").and_then(Json::as_str) == Some(id)
            })
            .count()
    };
    assert_eq!(retries_of("selftest-2"), 2);
    assert_eq!(retries_of("selftest-5"), 2, "attempt 3 degrades instead of retrying");
    assert_eq!(
        events
            .iter()
            .filter(|(e, v)| {
                e == "shard_degraded"
                    && v.get("shard").and_then(Json::as_str) == Some("selftest-5")
            })
            .count(),
        1
    );
}

#[test]
fn injected_panics_cross_the_watchdog_thread() {
    // With a timeout every attempt runs on the watchdog's thread, so the
    // injected panic must unwind there and come back as the attempt's
    // error, never as a timeout or a lost sibling.
    let dir = RunDir::new("panic-watchdog");
    let spec = presets::selftest();
    let opts = SweepOptions {
        max_attempts: 2,
        timeout: Some(Duration::from_secs(60)),
        fault: FaultPlan::parse("selftest-1:1!,selftest-4:inf!").expect("valid plan"),
        ..fast_opts()
    };
    let outcome = run_sweep(&spec, &dir.0, &opts, &Pool::new(2)).expect("sweep completes");
    assert_eq!(outcome.done(), spec.shards.len() - 1);
    let recovered = outcome.record("selftest-1").unwrap();
    assert_eq!((recovered.status, recovered.attempts), (ShardStatus::Done, 2));
    let dead = outcome.record("selftest-4").unwrap();
    assert_eq!((dead.status, dead.attempts), (ShardStatus::Degraded, 2));
    assert_eq!(
        dead.error.as_deref(),
        Some("panic at shard boundary: TH_SWEEP_FAULT: injected panic (attempt 2)")
    );
}

#[test]
fn timed_out_attempts_fail_and_degrade() {
    let dir = RunDir::new("timeout");
    // A shard that spins far longer than the timeout.
    let spec = SweepSpec {
        name: "slow".into(),
        shards: vec![
            ShardSpec {
                id: "slow-0".into(),
                task: ShardTask::SelfTest { seed: 1, spin: u64::MAX / 4 },
            },
            ShardSpec { id: "fast-0".into(), task: ShardTask::SelfTest { seed: 2, spin: 10 } },
        ],
    };
    let opts = SweepOptions {
        max_attempts: 2,
        backoff: Duration::from_millis(1),
        timeout: Some(Duration::from_millis(20)),
        ..SweepOptions::default()
    };
    let outcome = run_sweep(&spec, &dir.0, &opts, &Pool::new(2)).expect("sweep completes");
    let slow = outcome.record("slow-0").unwrap();
    assert_eq!(slow.status, ShardStatus::Degraded);
    assert!(slow.error.as_deref().unwrap_or("").contains("timed out"), "{:?}", slow.error);
    assert_eq!(outcome.record("fast-0").unwrap().status, ShardStatus::Done);
}

#[test]
fn mismatched_spec_refuses_to_reuse_a_run_directory() {
    let dir = RunDir::new("mismatch");
    let pool = Pool::new(1);
    run_sweep(&presets::selftest(), &dir.0, &fast_opts(), &pool).expect("first sweep");

    // Same shard ids, different task parameters: the fingerprint check
    // must reject the directory rather than serve stale checkpoints.
    let mut altered = presets::selftest();
    altered.shards[0].task = ShardTask::SelfTest { seed: 1234, spin: 50_000 };
    let err = run_sweep(&altered, &dir.0, &fast_opts(), &pool).unwrap_err();
    assert!(err.to_string().contains("different sweep"), "{err}");
}

#[test]
fn telemetry_lines_all_parse_and_bracket_the_run() {
    let dir = RunDir::new("telemetry");
    let spec = presets::selftest();
    run_sweep(&spec, &dir.0, &fast_opts(), &Pool::new(2)).expect("sweep completes");
    let events = telemetry_events(&dir.0);
    assert_eq!(events.first().map(|(e, _)| e.as_str()), Some("sweep_start"));
    assert_eq!(events.last().map(|(e, _)| e.as_str()), Some("sweep_done"));
    let dones = events.iter().filter(|(e, _)| e == "shard_done").count();
    assert_eq!(dones, spec.shards.len());
}

#[test]
fn sweep_done_line_carries_the_sweep_wall_time_and_lanes() {
    let dir = RunDir::new("sweep-done");
    let pool = Pool::new(2);
    run_sweep(&presets::selftest(), &dir.0, &fast_opts(), &pool).expect("sweep completes");
    let events = telemetry_events(&dir.0);
    let (event, done) = events.last().expect("telemetry written");
    assert_eq!(event, "sweep_done");
    assert_eq!(done.get("lanes").and_then(Json::as_f64), Some(pool.threads() as f64));
    assert_eq!(pool.threads(), 2);
    let wall_s = done.get("wall_s").and_then(Json::as_f64).expect("numeric wall_s");
    let slowest_shard = events
        .iter()
        .filter(|(e, _)| e == "shard_done")
        .map(|(_, v)| v.get("wall_s").and_then(Json::as_f64).expect("shard wall_s"))
        .fold(0.0, f64::max);
    assert!(slowest_shard > 0.0, "shards report their wall time");
    assert!(wall_s >= slowest_shard, "sweep wall_s {wall_s} < shard wall_s {slowest_shard}");
}

#[test]
fn sweep_start_carries_lanes_and_sweep_done_the_checkpoint_time() {
    let dir = RunDir::new("checkpoint-time");
    let pool = Pool::new(2);
    let spec = presets::selftest();
    run_sweep(&spec, &dir.0, &fast_opts(), &pool).expect("sweep completes");
    let events = telemetry_events(&dir.0);
    let (event, start) = events.first().expect("telemetry written");
    assert_eq!(event, "sweep_start");
    assert_eq!(start.get("lanes").and_then(Json::as_f64), Some(2.0));
    let (event, done) = events.last().expect("telemetry written");
    assert_eq!(event, "sweep_done");
    let wall_s = done.get("wall_s").and_then(Json::as_f64).expect("numeric wall_s");
    let checkpoint_s =
        done.get("checkpoint_s").and_then(Json::as_f64).expect("numeric checkpoint_s");
    // The manifest and every shard checkpoint were written, inside the sweep.
    assert!(checkpoint_s > 0.0, "checkpoint_s {checkpoint_s}");
    assert!(checkpoint_s <= wall_s, "checkpoint_s {checkpoint_s} > wall_s {wall_s}");

    // A resume that finds every shard done writes nothing durable.
    run_sweep(&spec, &dir.0, &fast_opts(), &pool).expect("resume completes");
    let events = telemetry_events(&dir.0);
    let (_, done) = events.last().expect("telemetry written");
    assert_eq!(done.get("checkpoint_s").and_then(Json::as_f64), Some(0.0));
}

#[test]
fn thermal_shard_done_line_carries_its_phase_timings() {
    let dir = RunDir::new("phase-timings");
    let spec = SweepSpec {
        name: "phase-timings".into(),
        shards: vec![ShardSpec {
            id: "thermal/gzip-like/Base".into(),
            task: ShardTask::ThermalRun {
                workload: "gzip-like".into(),
                variant: Variant::Base,
                budget: 5_000,
                rows: 8,
            },
        }],
    };
    let outcome = run_sweep(&spec, &dir.0, &fast_opts(), &Pool::new(1)).expect("sweep completes");
    let record = &outcome.records[0];
    let events = telemetry_events(&dir.0);
    let done = events.iter().find(|(e, _)| e == "shard_done").map(|(_, v)| v).expect("done");
    assert!(done.get("wall_s").and_then(Json::as_f64).is_some(), "wall_s stays numeric");
    for key in ["build_s", "sim_s", "solve_s"] {
        let logged = done.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("no {key}"));
        assert!(logged >= 0.0, "{key} = {logged}");
        assert_eq!(Some(logged.to_bits()), record.timing(key).map(f64::to_bits), "{key}");
    }
    // Timings are telemetry: the deterministic metrics carry none of them.
    assert!(record.metrics.iter().all(|(k, _)| !k.ends_with("_s")));
}

#[test]
fn fig10_preset_worst_rows_match_the_experiment_driver() {
    let dir = RunDir::new("fig10-worst");
    let spec = presets::fig10(15_000, 10);
    let outcome = run_sweep(&spec, &dir.0, &fast_opts(), &Pool::new(2)).expect("sweep completes");
    let rows = presets::fig10_worst_rows(&outcome);
    let driver = thermal_herding::experiments::fig10::run(15_000, 10);
    assert_eq!(rows.len(), driver.worst.len());
    for ((label, workload, peak_k), w) in rows.iter().zip(&driver.worst) {
        assert_eq!(label, w.variant.label());
        assert_eq!(workload, w.workload, "{label}: worst app");
        assert_eq!(peak_k.to_bits(), w.peak_k().to_bits(), "{label}: peak {peak_k}");
    }
}

#[test]
fn core_work_counters_are_logged_and_identical_at_one_and_four_lanes() {
    let mut spec = mixed_spec();
    spec.name = "core-work".into();
    spec.shards.push(ShardSpec {
        id: "cosim/mpeg2-like/3D".into(),
        task: ShardTask::CosimRun {
            workload: "mpeg2-like".into(),
            variant: Variant::ThreeD,
            policy: th_cosim::PolicyKind::Dvfs,
            cap_k: 358.0,
            rows: 6,
            interval_s: 0.02,
            slice_cycles: 5_000,
            steps: 4,
        },
    });
    let keys = ["core_committed", "core_cycles_stepped", "core_cycles_skipped", "core_events"];
    let counters = |lanes: usize| -> Vec<Vec<u64>> {
        let dir = RunDir::new(&format!("core-work-{lanes}"));
        let outcome =
            run_sweep(&spec, &dir.0, &fast_opts(), &Pool::new(lanes)).expect("sweep completes");
        let events = telemetry_events(&dir.0);
        outcome
            .records
            .iter()
            .map(|r| {
                let done = events
                    .iter()
                    .find(|(e, v)| {
                        e == "shard_done" && v.get("shard").and_then(Json::as_str) == Some(&r.id)
                    })
                    .map(|(_, v)| v)
                    .expect("a shard_done line per shard");
                keys.iter()
                    .map(|&k| {
                        let v = r.timing(k).unwrap_or_else(|| panic!("{}: no {k}", r.id));
                        let logged = done.get(k).and_then(Json::as_f64);
                        assert_eq!(logged.map(f64::to_bits), Some(v.to_bits()), "{}: {k}", r.id);
                        assert!(v >= 0.0 && v.fract() == 0.0, "{}: {k} = {v}", r.id);
                        v as u64
                    })
                    .collect()
            })
            .collect()
    };
    let one = counters(1);
    assert_eq!(one, counters(4), "the work counters depend on the lane count");
    for (shard, c) in spec.shards.iter().zip(&one) {
        assert!(c[0] > 0 && c[1] > 0, "{}: no work counted: {c:?}", shard.id);
        assert!(c[3] >= c[0], "{}: fewer completion events than commits: {c:?}", shard.id);
    }
}
