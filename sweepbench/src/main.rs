//! Sweep-path benchmark.
//!
//! Drives the user-facing `th-sweep` path — `presets::by_name` plus
//! `run_sweep` into a fresh run directory — on one workload per process,
//! at one `th-exec` lane. `BENCHMARK.json` lists `fig10-sweep` and
//! `dtm-cosim`; `fig8-sweep` runs on request (BASELINE.md says why):
//!
//! * `fig8-sweep`: the `fig8` preset, 110 chip-run shards. Workload
//!   construction, the core loop and checkpoint writes; no thermal work.
//! * `fig10-sweep`: the `fig10` preset, 15 chip-plus-steady-thermal shards
//!   at 16 rows. The steady solver is its largest compute layer.
//! * `dtm-cosim`: the `dtm` preset, 6 closed-loop co-simulation shards of
//!   30 intervals. Short simulator intervals, per-interval pricing and
//!   transient solves: the same layers, used differently.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path sweepbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record]
//! ```
//!
//! `--trace 0` repeats the untraced sweep for about `--seconds` and
//! prints the end-to-end metrics. `--trace 1` pairs each untraced sweep
//! with a traced replay of its shards and prints the per-layer metrics.
//! Every shard's deterministic metrics are checked against the digests in
//! `expected/`; `--record` rewrites them (seed 0) instead of measuring.
//! The last line of standard output is one JSON object.

mod stats;
mod trace;

use stats::{digest, median, parse_digests, ratio, self_time, shard_order, tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use th_exec::Pool;
use th_sweep::json::{self, Json};
use th_sweep::presets::{self, DEFAULT_BUDGET, DEFAULT_ROWS};
use th_sweep::{run_sweep, ShardRecord, ShardStatus, SweepOptions, SweepOutcome, SweepSpec};
use thermal_herding::Variant;
use trace::{Counts, Trace};

/// Lanes of the sweep's pool. On a small shared host a parallel speed-up
/// is too noisy to gate on, so the benchmark measures one lane only.
const LANES: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Bench {
    Fig8,
    Fig10,
    Dtm,
}

impl Bench {
    fn by_name(name: &str) -> Option<Bench> {
        [Bench::Fig8, Bench::Fig10, Bench::Dtm]
            .into_iter()
            .find(|b| b.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            Bench::Fig8 => "fig8-sweep",
            Bench::Fig10 => "fig10-sweep",
            Bench::Dtm => "dtm-cosim",
        }
    }

    fn preset(self) -> &'static str {
        match self {
            Bench::Fig8 => "fig8",
            Bench::Fig10 => "fig10",
            Bench::Dtm => "dtm",
        }
    }

    /// Digests recorded from the seed commit, keyed by shard id.
    fn expected(self) -> &'static str {
        match self {
            Bench::Fig8 => include_str!("../expected/fig8-sweep.digest"),
            Bench::Fig10 => include_str!("../expected/fig10-sweep.digest"),
            Bench::Dtm => include_str!("../expected/dtm-cosim.digest"),
        }
    }

    fn expected_path(self) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("expected")
            .join(format!("{}.digest", self.name()))
    }
}

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut bench = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => bench = Some(Bench::by_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload fig8-sweep|fig10-sweep|dtm-cosim is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        record,
    })
}

/// Set-up: preset expansion plus pool creation, timed; the seed's shard
/// permutation between them is the benchmark's input and is not timed.
fn setup(bench: Bench, seed: u64) -> (SweepSpec, Pool, f64) {
    let t = Instant::now();
    let spec = presets::by_name(bench.preset(), DEFAULT_BUDGET, DEFAULT_ROWS)
        .expect("benchmark presets exist");
    let expand_s = t.elapsed().as_secs_f64();
    let spec = permute(spec, seed);
    let t = Instant::now();
    let pool = Pool::new(LANES);
    (spec, pool, expand_s + t.elapsed().as_secs_f64())
}

fn permute(mut spec: SweepSpec, seed: u64) -> SweepSpec {
    let order = shard_order(spec.shards.len(), seed);
    spec.shards = order.iter().map(|&i| spec.shards[i].clone()).collect();
    spec
}

/// One untraced sweep down the user path.
struct Pass {
    setup_s: f64,
    /// Set-up plus `run_sweep`, to the returned outcome.
    wall_s: f64,
    run_sweep_s: f64,
    outcome: SweepOutcome,
    /// Per-shard seconds from the `shard_done` telemetry lines.
    shard_s: Vec<f64>,
    telemetry_lines: usize,
    checkpoint_bytes: u64,
}

impl Pass {
    /// Perform→price(→heat) passes completed: a co-simulation shard
    /// reports its intervals, a chip or thermal run is a single pass.
    fn intervals(&self) -> f64 {
        self.outcome
            .records
            .iter()
            .map(|r| r.metric("intervals").unwrap_or(1.0))
            .sum()
    }

    /// `run_sweep` time not spent inside a shard attempt: checkpoints,
    /// telemetry and bookkeeping.
    fn overhead_s(&self) -> f64 {
        self_time(
            self.run_sweep_s,
            self.outcome.records.iter().map(|r| r.wall_s),
        )
    }
}

fn runs_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    target.join("sweepbench-runs")
}

fn run_pass(bench: Bench, seed: u64) -> Result<Pass, String> {
    let dir = runs_root().join(format!("{}-{}", bench.name(), std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    let t = Instant::now();
    let (spec, pool, setup_s) = setup(bench, seed);
    let t_run = Instant::now();
    let outcome = run_sweep(&spec, &dir, &SweepOptions::default(), &pool)
        .map_err(|e| format!("run_sweep: {e}"))?;
    let run_sweep_s = t_run.elapsed().as_secs_f64();
    let wall_s = t.elapsed().as_secs_f64();

    let telemetry = std::fs::read_to_string(dir.join("telemetry.jsonl"))
        .map_err(|e| format!("read telemetry: {e}"))?;
    let mut shard_s = Vec::new();
    for line in telemetry.lines() {
        let v = Json::parse(line).map_err(|e| format!("telemetry line {line:?}: {e}"))?;
        if v.get("event").and_then(Json::as_str) == Some("shard_done") {
            shard_s.push(
                v.get("wall_s")
                    .and_then(Json::as_f64)
                    .ok_or("shard_done without wall_s")?,
            );
        }
    }
    let mut checkpoint_bytes = 0;
    for entry in std::fs::read_dir(dir.join("shards")).map_err(|e| format!("read shards: {e}"))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("stat checkpoint: {e}"))?;
        checkpoint_bytes += meta.len();
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    if shard_s.is_empty() {
        return Err("no shard completed".into());
    }
    Ok(Pass {
        setup_s,
        wall_s,
        run_sweep_s,
        outcome,
        shard_s,
        telemetry_lines: telemetry.lines().count(),
        checkpoint_bytes,
    })
}

/// Counts the shards that degraded or whose metrics miss their digest in
/// `expected` (a digest file's text).
fn failed_shards(expected: &str, records: &[ShardRecord]) -> Result<usize, String> {
    let expected: BTreeMap<String, u64> = parse_digests(expected)?.into_iter().collect();
    if expected.len() != records.len() {
        return Err(format!(
            "the expected digests cover {} shards, the sweep ran {}",
            expected.len(),
            records.len()
        ));
    }
    let mut failed = 0;
    for r in records {
        let ok = r.status == ShardStatus::Done && expected.get(&r.id) == Some(&digest(&r.metrics));
        if !ok {
            failed += 1;
            eprintln!(
                "FAILED shard {} ({:?}, {:?}): metrics {:?}",
                r.id, r.status, r.error, r.metrics
            );
        }
    }
    Ok(failed)
}

/// Repeats `f` for about `seconds`: a new repetition starts only if the
/// last one's duration still fits, and there is always at least one.
fn repeat<T>(seconds: f64, mut f: impl FnMut() -> Result<T, String>) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut last = 0.0;
    while out.is_empty() || start.elapsed().as_secs_f64() + last <= seconds {
        let t = Instant::now();
        out.push(f()?);
        last = t.elapsed().as_secs_f64();
    }
    Ok(out)
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// A set-up is timed in batches of calls that last at least this long,
/// so a set-up of a microsecond is not read off the clock one call at a
/// time.
const SETUP_BATCH_S: f64 = 0.05;

/// Set-up times per call. A set-up shorter than a batch is timed in a
/// batch before each sweep, so its median spans the run as the sweeps'
/// does; a longer one is timed by the sweeps' own set-ups.
struct SetupTimer {
    bench: Bench,
    seed: u64,
    short: bool,
    calls: u32,
    per_call: Vec<f64>,
    timed_s: f64,
}

impl SetupTimer {
    fn new(bench: Bench, seed: u64) -> SetupTimer {
        SetupTimer {
            bench,
            seed,
            short: setup(bench, seed).2 < SETUP_BATCH_S,
            calls: 1,
            per_call: Vec::new(),
            timed_s: 0.0,
        }
    }

    /// Times one batch, doubling its calls until it lasts a whole batch.
    fn batch(&mut self) {
        loop {
            let total: f64 = (0..self.calls)
                .map(|_| setup(self.bench, self.seed).2)
                .sum();
            if total >= SETUP_BATCH_S {
                self.per_call.push(total / f64::from(self.calls));
                self.timed_s += total;
                return;
            }
            self.calls *= 2;
        }
    }

    fn before_sweep(&mut self) {
        if self.short {
            self.batch();
        }
    }

    fn after_sweep(&mut self, pass: &Pass) {
        if !self.short {
            self.per_call.push(pass.setup_s);
            self.timed_s += pass.setup_s;
        }
    }

    /// The median per call, over at least 5 batches and half a second of
    /// set-up.
    fn median_s(mut self) -> f64 {
        while self.per_call.len() < 5 || self.timed_s < 0.5 {
            self.batch();
        }
        median(&self.per_call)
    }
}

fn end_to_end(setup_s: f64, passes: &[Pass]) -> Result<Metrics, String> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    Ok(vec![
        ("wall_s", per_pass(&|p| p.wall_s), "s"),
        ("setup_s", setup_s, "s"),
        (
            "shard_ms_p50",
            per_pass(&|p| median(&p.shard_s) * 1e3),
            "ms",
        ),
        (
            "intervals_per_s",
            per_pass(&|p| p.intervals() / p.wall_s),
            "1/s",
        ),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

/// The traced replay of one pass's sweep.
struct Replay {
    wall_s: f64,
    trace: Trace,
    counts: Counts,
    mismatches: usize,
}

fn bit_equal(a: &[(String, f64)], b: &[(String, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

fn run_replay(bench: Bench, seed: u64, pass: &Pass) -> Replay {
    let mut trace = Trace::new();
    let mut counts = Counts::default();
    let mut mismatches = 0;
    let t = Instant::now();
    let spec = trace.time("sweep.expand", || {
        presets::by_name(bench.preset(), DEFAULT_BUDGET, DEFAULT_ROWS).expect("presets exist")
    });
    for shard in &permute(spec, seed).shards {
        let replayed = trace::replay(&shard.task, &mut trace, &mut counts);
        let executed = pass.outcome.record(&shard.id).map(|r| &r.metrics);
        match (&replayed, executed) {
            (Ok(m), Some(e)) if bit_equal(m, e) => {}
            _ => {
                mismatches += 1;
                eprintln!(
                    "REPLAY MISMATCH {}: replayed {replayed:?}, executed {executed:?}",
                    shard.id
                );
            }
        }
    }
    Replay {
        wall_s: t.elapsed().as_secs_f64(),
        trace,
        counts,
        mismatches,
    }
}

/// Layers whose spans lie on the real path; `isa.machine_new` is extra
/// work the replay adds to time the set-up `sim.run` also pays.
const PATH_LAYERS: [&str; 7] = [
    "sweep.expand",
    "workloads.build",
    "sim.run",
    "power.price",
    "power.die_table",
    "thermal.steady",
    "cosim.run",
];

fn per_layer(pass: &Pass, replay: &Replay) -> Metrics {
    let t = &replay.trace;
    let c = &replay.counts;
    let sim_s = t.busy("sim.run");
    let cosim_s = t.busy("cosim.run");
    let overhead_s = pass.overhead_s();
    let machine_new_s = t.busy("isa.machine_new");
    let path_s: f64 = PATH_LAYERS.iter().map(|l| t.busy(l)).sum();
    // The traced run's wall time: the replay without its extra
    // Machine::new calls, plus the orchestration it does not repeat.
    let traced_wall_s = replay.wall_s - machine_new_s + overhead_s;
    let shards = pass.outcome.records.len() as f64;
    let attempts: u32 = pass.outcome.records.iter().map(|r| r.attempts).sum();
    vec![
        (
            "workloads.build_s",
            t.busy("workloads.build") + t.busy("sweep.expand"),
            "s",
        ),
        (
            "workloads.calls",
            (t.count("workloads.build") + t.count("sweep.expand")) as f64,
            "count",
        ),
        ("isa.machine_new_s", machine_new_s, "s"),
        ("sim.run_s", sim_s, "s"),
        ("sim.runs", t.count("sim.run") as f64, "count"),
        ("sim.committed", c.sim_committed as f64, "count"),
        ("sim.cycles", c.sim_cycles as f64, "count"),
        (
            "sim.minst_per_s",
            ratio(c.sim_committed as f64 / 1e6, sim_s),
            "Minst/s",
        ),
        (
            "sim.mcycles_per_s",
            ratio(c.sim_cycles as f64 / 1e6, sim_s),
            "Mcycles/s",
        ),
        ("power.price_s", t.busy("power.price"), "s"),
        ("power.price_calls", t.count("power.price") as f64, "count"),
        ("power.die_table_s", t.busy("power.die_table"), "s"),
        (
            "power.die_table_calls",
            t.count("power.die_table") as f64,
            "count",
        ),
        ("thermal.steady_s", t.busy("thermal.steady"), "s"),
        (
            "thermal.steady_solves",
            t.count("thermal.steady") as f64,
            "count",
        ),
        ("cosim.run_s", cosim_s, "s"),
        ("cosim.intervals", c.cosim_intervals as f64, "count"),
        ("cosim.sim_s", t.busy("cosim.sim"), "s"),
        ("cosim.solver_s", t.busy("cosim.solver"), "s"),
        ("cosim.other_s", t.self_s("cosim.run"), "s"),
        (
            "cosim.solver_share",
            ratio(t.busy("cosim.solver"), cosim_s),
            "share",
        ),
        ("sweep.expand_s", t.busy("sweep.expand"), "s"),
        ("sweep.overhead_s", overhead_s, "s"),
        ("sweep.shard_ms_p90", tail(&pass.shard_s) * 1e3, "ms"),
        (
            "sweep.attempts_per_shard",
            f64::from(attempts) / shards,
            "count",
        ),
        (
            "sweep.checkpoint_bytes",
            pass.checkpoint_bytes as f64,
            "bytes",
        ),
        (
            "sweep.telemetry_lines",
            pass.telemetry_lines as f64,
            "count",
        ),
        ("trace.replay_self_s", t.self_s("shard"), "s"),
        ("trace.overhead_s", traced_wall_s - pass.wall_s, "s"),
        (
            "trace.accounted_share",
            (path_s + overhead_s) / traced_wall_s,
            "share",
        ),
    ]
}

/// Medians across repetitions, metric by metric.
fn median_metrics(runs: &[Metrics]) -> Metrics {
    runs[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            (
                name,
                median(&runs.iter().map(|m| m[i].1).collect::<Vec<_>>()),
                unit,
            )
        })
        .collect()
}

/// The modelled design's results beside the paper's. These are outputs
/// of the substitute model, not timed metrics.
fn paper_comparison(bench: Bench, outcome: &SweepOutcome) -> Vec<String> {
    let mut out = Vec::new();
    match bench {
        Bench::Fig8 => {
            let metric = |w: &str, v: Variant, m: &str| {
                outcome.metric(&format!("fig8/{w}/{}", v.label()), m)
            };
            // The paper's headline is a mean of per-suite geometric means.
            let mut by_suite: BTreeMap<_, Vec<f64>> = BTreeMap::new();
            let mut savings = Vec::new();
            for w in th_workloads::all_workloads() {
                let (Some(b), Some(d)) = (
                    metric(w.name, Variant::Base, "ipns"),
                    metric(w.name, Variant::ThreeD, "ipns"),
                ) else {
                    continue;
                };
                by_suite.entry(w.suite).or_default().push((d / b).ln());
                if let (Some(pb), Some(pd)) = (
                    metric(w.name, Variant::Base, "total_w"),
                    metric(w.name, Variant::ThreeD, "total_w"),
                ) {
                    savings.push(1.0 - pd / pb);
                }
            }
            let groups: Vec<f64> = by_suite
                .values()
                .map(|l| (l.iter().sum::<f64>() / l.len() as f64).exp())
                .collect();
            let speedup = groups.iter().sum::<f64>() / groups.len() as f64;
            let saving = savings.iter().sum::<f64>() / savings.len() as f64;
            out.push(format!(
                "3D/Base ipns speed-up (mean of suite means): {:+.1} % (paper +47.0 %)",
                (speedup - 1.0) * 1e2
            ));
            out.push(format!(
                "3D/Base chip power reduction (mean over workloads): {:.1} % (paper 20 %)",
                saving * 1e2
            ));
        }
        Bench::Fig10 => {
            let rows = presets::fig10_worst_rows(outcome);
            let peak = |label: &str| rows.iter().find(|r| r.0 == label).map_or(f64::NAN, |r| r.2);
            let base = peak(Variant::Base.label());
            out.push(format!("planar worst-case peak: {base:.1} K (paper 360 K)"));
            out.push(format!(
                "3D without herding: {:+.1} K over planar (paper +17 K)",
                peak(Variant::ThreeDNoTh.label()) - base
            ));
            out.push(format!(
                "3D with herding: {:+.1} K over planar (paper +12 K)",
                peak(Variant::ThreeD.label()) - base
            ));
        }
        Bench::Dtm => {}
    }
    if !out.is_empty() {
        out.push(
            "(the model is a substitute, not validated against hardware; DESIGN.md section 2)"
                .into(),
        );
    }
    out
}

fn json_result(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let metrics: Vec<(String, String)> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is {value}");
            let body = [
                ("value".into(), json::num(value)),
                ("unit".into(), json::quote(unit)),
            ];
            (name.to_string(), json::obj(&body))
        })
        .collect();
    json::obj(&[
        ("correct".into(), correct.to_string()),
        ("attempted".into(), attempted.to_string()),
        ("failed".into(), failed.to_string()),
        ("metrics".into(), json::obj(&metrics)),
    ])
}

fn record(bench: Bench) -> Result<(), String> {
    let pass = run_pass(bench, 0)?;
    let mut text = format!(
        "# {} shard digests: FNV-1a over each metric name and its f64 bits.\n\
         # Regenerate with --record only when the model's outputs change on purpose.\n",
        bench.name()
    );
    for r in &pass.outcome.records {
        if r.status != ShardStatus::Done {
            return Err(format!("shard {} degraded: {:?}", r.id, r.error));
        }
        writeln!(text, "{} {:016x}", r.id, digest(&r.metrics)).expect("write to String");
    }
    let path = bench.expected_path();
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "wrote {} ({} shards); rebuild to embed it",
        path.display(),
        pass.outcome.records.len()
    );
    Ok(())
}

fn run(args: &Args) -> Result<String, String> {
    if args.record {
        record(args.bench)?;
        return Ok(String::new());
    }
    let (bench, seed) = (args.bench, args.seed);
    let mut attempted = 0;
    let mut failed = 0;
    let (metrics, first) = if args.trace {
        let pairs = repeat(args.seconds, || {
            let pass = run_pass(bench, seed)?;
            let replay = run_replay(bench, seed, &pass);
            Ok((pass, replay))
        })?;
        let mut layers = Vec::new();
        for (pass, replay) in &pairs {
            attempted += pass.outcome.records.len();
            failed += failed_shards(bench.expected(), &pass.outcome.records)? + replay.mismatches;
            layers.push(per_layer(pass, replay));
        }
        (
            median_metrics(&layers),
            pairs.into_iter().next().expect("one pair").0,
        )
    } else {
        let mut setups = SetupTimer::new(bench, seed);
        let passes = repeat(args.seconds, || {
            setups.before_sweep();
            let pass = run_pass(bench, seed)?;
            setups.after_sweep(&pass);
            Ok(pass)
        })?;
        for pass in &passes {
            attempted += pass.outcome.records.len();
            failed += failed_shards(bench.expected(), &pass.outcome.records)?;
        }
        let metrics = end_to_end(setups.median_s(), &passes)?;
        let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
        eprintln!(
            "{}: {} sweep(s), wall_s [{}]",
            bench.name(),
            passes.len(),
            walls.join(", ")
        );
        (metrics, passes.into_iter().next().expect("one pass"))
    };
    for line in paper_comparison(bench, &first.outcome) {
        println!("{line}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:>26} {value:>14.6} {unit}");
    }
    Ok(json_result(failed == 0, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    // One lane everywhere (the thermal solver fans out over the global
    // pool), and no environment knob may change what is measured.
    std::env::set_var("TH_THREADS", LANES.to_string());
    for knob in ["TH_CORE_ENGINE", "TH_ACTIVITY", "TH_SWEEP_FAULT"] {
        std::env::remove_var(knob);
    }
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(json) => {
            if !json.is_empty() {
                println!("{json}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweepbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, metrics: &[(&str, f64)]) -> ShardRecord {
        ShardRecord {
            id: id.into(),
            status: ShardStatus::Done,
            attempts: 1,
            wall_s: 0.1,
            error: None,
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            timings: Vec::new(),
            resumed: false,
        }
    }

    #[test]
    fn one_ulp_off_or_degraded_fails_its_shard_only() {
        let records = vec![
            record("a/x", &[("ipc", 1.5), ("peak_k", 360.9)]),
            record("b/y", &[("ipc", 0.75)]),
        ];
        let expected: String = records
            .iter()
            .map(|r| format!("{} {:016x}\n", r.id, digest(&r.metrics)))
            .collect();
        assert_eq!(failed_shards(&expected, &records), Ok(0));

        let mut off = records.clone();
        off[0].metrics[1].1 = f64::from_bits(360.9f64.to_bits() + 1);
        assert_eq!(failed_shards(&expected, &off), Ok(1));

        let mut degraded = records.clone();
        degraded[1].status = ShardStatus::Degraded;
        assert_eq!(failed_shards(&expected, &degraded), Ok(1));

        // Digests are keyed by id, so execution order does not matter.
        let mut reordered = records.clone();
        reordered.reverse();
        assert_eq!(failed_shards(&expected, &reordered), Ok(0));
        assert!(failed_shards(&expected, &records[..1]).is_err());
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let line = json_result(
            true,
            3,
            0,
            &vec![("wall_s", 1.25, "s"), ("setup_s", 1.5e-6, "s")],
        );
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(3.0));
        let metrics = v.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), 2);
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.5e-6));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn recorded_digests_cover_every_preset_shard() {
        for bench in [Bench::Fig8, Bench::Fig10, Bench::Dtm] {
            let spec = presets::by_name(bench.preset(), DEFAULT_BUDGET, DEFAULT_ROWS).unwrap();
            let ids: Vec<String> = parse_digests(bench.expected())
                .unwrap()
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            let preset: Vec<String> = spec.shards.into_iter().map(|s| s.id).collect();
            assert_eq!(ids, preset, "{}", bench.name());
        }
    }
}
