//! # th-sweep: a sharded, resumable experiment-sweep orchestrator.
//!
//! Every experiment driver in this workspace used to hand-roll a
//! one-shot run loop: a crash or a solver non-convergence 90 % of the
//! way through a sweep threw everything away, and nothing recorded
//! per-shard progress. This crate makes sweeps first-class,
//! checkpointed artifacts (the way interval thermal toolchains like
//! CoMeT become usable at scale):
//!
//! * A declarative [`SweepSpec`] — a list of [`ShardSpec`]s, each one an
//!   independently runnable unit of work ([`ShardTask`]): a chip run, a
//!   chip-plus-thermal solve, a closed-loop co-simulation, or a cheap
//!   self-test shard. [`presets`] expands the named grids reproducing
//!   the paper experiments (`fig8`, `fig9`, `fig10`, `dtm`).
//! * [`run_sweep`] executes the shards over an existing
//!   [`th_exec::Pool`], streaming one JSONL telemetry line per event
//!   into the run directory and durably checkpointing each completed
//!   shard (write-to-temp, rename). A killed sweep **resumes** from the
//!   manifest: finished shards load from their checkpoints bit-for-bit
//!   and only unfinished ones recompute.
//! * Per-shard failures — panics caught at the shard boundary, solver
//!   non-convergence, a configurable per-attempt timeout — are retried
//!   with exponential backoff and then recorded as **degraded** instead
//!   of aborting sibling shards. The [`FaultPlan`] / `TH_SWEEP_FAULT`
//!   knob injects such failures on demand for testing.
//! * Co-simulation shards that differ only in their DTM policy share
//!   work: each `run_sweep` call keeps the trajectories its
//!   [`ShardTask::CosimRun`] shards have simulated, and a shard whose
//!   policy makes exactly the decisions of a stored trajectory replays it
//!   ([`th_cosim::CoSimReport::replay`]) instead of simulating. The
//!   trajectory is a deterministic function of the task and its actions,
//!   so a replayed shard's metrics are bit-identical to a simulated
//!   one's.
//!
//! ## Run-directory layout
//!
//! ```text
//! <dir>/manifest.json    the sweep's identity: name, shard ids, fingerprint
//! <dir>/telemetry.jsonl  append-only event stream (start/retry/done/degraded)
//! <dir>/shards/<id>.json one durable checkpoint per completed shard
//! ```
//!
//! The opening `sweep_start` line carries the pool's `lanes`. Each
//! `shard_done` line carries the shard's `wall_s`, and a co-simulation
//! shard's line carries `replayed` (1 if it replayed a sibling's
//! trajectory, else 0); the closing `sweep_done` line carries the whole
//! sweep's `wall_s` (set-up, resume scan and checkpoint I/O included),
//! the pool's `lanes`, the count of `replayed` shards and
//! `checkpoint_s`, the summed time of the sweep's durable writes
//! (manifest and shard checkpoints), so the time spent outside shards
//! can be read from the telemetry alone.
//!
//! Shard **metrics** are deterministic simulation outputs; wall-clock
//! numbers live in separate telemetry fields, so a resumed sweep's
//! merged metrics are bit-identical to an uninterrupted run's at any
//! `TH_THREADS`.

#![deny(missing_docs)]

mod fault;
pub mod json;
pub mod presets;

pub use fault::{FaultMode, FaultPlan, FAULT_ENV};

use json::Json;
use std::fs;
use std::io::{self, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use th_cosim::{CoSimConfig, CoSimReport, DtmPolicy, PolicyKind};
use th_stack3d::Unit;
use th_workloads::{workload_by_name, Workload};
use thermal_herding::experiments::dtm::{self, DtmTrace};
use thermal_herding::{run_chip_with_work, thermal_analysis, CoreWork, Variant};

/// One independently runnable unit of sweep work.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardTask {
    /// Simulate one workload at one design point and price the chip.
    ChipRun {
        /// Workload name (see [`th_workloads::workload_by_name`]).
        workload: String,
        /// Design point.
        variant: Variant,
        /// Instruction budget per core.
        budget: u64,
    },
    /// [`ShardTask::ChipRun`] plus a steady-state thermal solve — the
    /// Figure 10 row unit. Solver non-convergence surfaces as a shard
    /// failure (retried, then degraded).
    ThermalRun {
        /// Workload name.
        workload: String,
        /// Design point.
        variant: Variant,
        /// Instruction budget per core.
        budget: u64,
        /// Thermal grid resolution (rows = cols).
        rows: usize,
    },
    /// A closed-loop perform/price/heat/react co-simulation under a DTM
    /// policy (the `dtm` experiment unit).
    CosimRun {
        /// Workload name.
        workload: String,
        /// Design point.
        variant: Variant,
        /// DTM policy.
        policy: PolicyKind,
        /// Temperature cap, kelvin.
        cap_k: f64,
        /// Thermal grid resolution.
        rows: usize,
        /// Thermal seconds per interval.
        interval_s: f64,
        /// Pipeline cycles per interval.
        slice_cycles: u64,
        /// Number of intervals.
        steps: usize,
    },
    /// A cheap, fully deterministic shard for exercising the
    /// orchestrator itself (tests, the CI resume gate).
    SelfTest {
        /// Seed for the deterministic pseudo-metrics.
        seed: u64,
        /// Busy-work rounds, so the shard has measurable wall time.
        spin: u64,
    },
}

impl ShardTask {
    /// A canonical, stable one-line description — the fingerprint input
    /// that pins a run directory to its spec.
    pub fn canonical(&self) -> String {
        match self {
            ShardTask::ChipRun { workload, variant, budget } => {
                format!("chip workload={workload} variant={} budget={budget}", variant.label())
            }
            ShardTask::ThermalRun { workload, variant, budget, rows } => format!(
                "thermal workload={workload} variant={} budget={budget} rows={rows}",
                variant.label()
            ),
            ShardTask::CosimRun {
                workload,
                variant,
                policy,
                cap_k,
                rows,
                interval_s,
                slice_cycles,
                steps,
            } => format!(
                "cosim workload={workload} variant={} policy={} cap_k={cap_k} rows={rows} \
                 interval_s={interval_s} slice_cycles={slice_cycles} steps={steps}",
                variant.label(),
                policy.name()
            ),
            ShardTask::SelfTest { seed, spin } => format!("selftest seed={seed} spin={spin}"),
        }
    }

    /// Runs the task to completion on the current thread.
    ///
    /// This is the path [`run_sweep`] takes, with no sibling trajectories
    /// to replay: a [`ShardTask::CosimRun`] always simulates here.
    ///
    /// # Errors
    ///
    /// Unknown workloads, pipeline traps, and thermal-solver
    /// non-convergence, as messages.
    pub fn execute(&self) -> Result<ShardPayload, String> {
        self.execute_with(&Trajectories::default()).map(|(payload, _)| payload)
    }

    /// Runs the task. A [`ShardTask::CosimRun`] first replays each
    /// trajectory `store` holds under its key, and simulates only if its
    /// policy reproduces none of them; a simulated trajectory comes back
    /// for the caller to publish once the attempt has succeeded.
    fn execute_with(&self, store: &Trajectories) -> Result<Executed, String> {
        let payload = match self {
            ShardTask::ChipRun { workload, variant, budget } => {
                let (w, build_s) = build_workload(workload)?;
                let (run, sim_s) = timed(|| run_chip_with_work(*variant, &w, *budget));
                let (run, work) = run.map_err(|t| format!("pipeline trap: {t:?}"))?;
                let table = run.die_table();
                ShardPayload {
                    metrics: vec![
                        ("ipc".into(), run.ipc()),
                        ("ipns".into(), run.ipns()),
                        ("total_w".into(), run.power.total_w()),
                        ("cycles".into(), run.cycles() as f64),
                        ("committed".into(), run.core_stats.committed as f64),
                        ("rf_top_die".into(), table.fractions(Unit::RegFile)[0]),
                    ],
                    timings: with_core_work(
                        vec![("build_s".into(), build_s), ("sim_s".into(), sim_s)],
                        &work,
                    ),
                }
            }
            ShardTask::ThermalRun { workload, variant, budget, rows } => {
                let (w, build_s) = build_workload(workload)?;
                let (run, sim_s) = timed(|| run_chip_with_work(*variant, &w, *budget));
                let (run, work) = run.map_err(|t| format!("pipeline trap: {t:?}"))?;
                let (analysis, solve_s) = timed(|| thermal_analysis(&run, *rows));
                let analysis = analysis.map_err(|e| e.to_string())?;
                ShardPayload {
                    metrics: vec![
                        ("ipc".into(), run.ipc()),
                        ("total_w".into(), run.power.total_w()),
                        ("peak_k".into(), analysis.peak_k()),
                    ],
                    timings: with_core_work(
                        vec![
                            ("build_s".into(), build_s),
                            ("sim_s".into(), sim_s),
                            ("solve_s".into(), solve_s),
                            ("solve_sweeps".into(), analysis.map.solve_stats().sweeps as f64),
                        ],
                        &work,
                    ),
                }
            }
            ShardTask::CosimRun {
                workload,
                variant,
                policy,
                cap_k,
                rows,
                interval_s,
                slice_cycles,
                steps,
            } => {
                // Every field but the policy: the trajectory's inputs.
                let key = ShardTask::CosimRun {
                    workload: workload.clone(),
                    variant: *variant,
                    policy: PolicyKind::None,
                    cap_k: *cap_k,
                    rows: *rows,
                    interval_s: *interval_s,
                    slice_cycles: *slice_cycles,
                    steps: *steps,
                };
                if let Some(report) = store.replay(&key, || policy.build(*cap_k)) {
                    let trace = DtmTrace { variant: *variant, cap_k: *cap_k, report };
                    return Ok((cosim_payload(&trace, 0.0, true), None));
                }
                let (w, build_s) = build_workload(workload)?;
                let cfg = CoSimConfig::sampled(*interval_s, *slice_cycles, *steps);
                let trace = dtm::run_variant_scaled(
                    *variant,
                    &w,
                    *cap_k,
                    *rows,
                    policy.build(*cap_k),
                    cfg,
                );
                let payload = cosim_payload(&trace, build_s, false);
                return Ok((payload, Some((key, trace.report))));
            }
            ShardTask::SelfTest { seed, spin } => {
                let mut x = *seed ^ 0x9e37_79b9_7f4a_7c15;
                for _ in 0..(*spin).max(1) {
                    x = splitmix64(x);
                }
                ShardPayload {
                    metrics: vec![
                        ("seed".into(), *seed as f64),
                        ("value".into(), (x >> 11) as f64 / (1u64 << 53) as f64),
                    ],
                    timings: Vec::new(),
                }
            }
        };
        Ok((payload, None))
    }
}

/// A finished co-simulation: its [`ShardTask::CosimRun`] with the policy
/// erased (the key), and its report.
type Trajectory = (ShardTask, CoSimReport);

/// A task's payload, plus the trajectory a simulated co-simulation
/// publishes once its attempt has succeeded.
type Executed = (ShardPayload, Option<Trajectory>);

/// The co-simulation trajectories one [`run_sweep`] call has finished.
/// Shared behind an `Arc` because a timed attempt runs on a detached
/// watchdog thread. A lane that panics holding the lock leaves the list
/// valid (it only reads, or pushes whole entries), so a poisoned lock is
/// recovered.
#[derive(Clone, Default)]
struct Trajectories(Arc<Mutex<Vec<Trajectory>>>);

impl Trajectories {
    /// The first stored trajectory under `key` that a fresh policy from
    /// `policy` reproduces decision for decision, replayed under it.
    fn replay(
        &self,
        key: &ShardTask,
        policy: impl Fn() -> Box<dyn DtmPolicy>,
    ) -> Option<CoSimReport> {
        let stored = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        stored
            .iter()
            .filter(|(k, _)| k == key)
            .find_map(|(_, report)| report.replay(policy().as_mut()))
    }

    fn publish(&self, trajectory: Trajectory) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(trajectory);
    }
}

/// A co-simulation shard's metrics, and as timings its build time,
/// whether it was `replayed` (1) or simulated (0), and the simulation's
/// own telemetry (all zero for a replay).
fn cosim_payload(trace: &DtmTrace, build_s: f64, replayed: bool) -> ShardPayload {
    let report = &trace.report;
    ShardPayload {
        metrics: vec![
            ("intervals".into(), report.intervals.len() as f64),
            ("max_peak_k".into(), trace.max_peak_k()),
            ("mean_clock_ghz".into(), trace.mean_clock_ghz()),
            ("throttled_fraction".into(), trace.throttled_fraction()),
            ("delivered_ginst".into(), trace.delivered_ginst()),
            ("ipc".into(), trace.ipc()),
            ("rf_top_die".into(), trace.rf_top_die()),
        ],
        timings: with_core_work(
            vec![
                ("build_s".into(), build_s),
                ("replayed".into(), if replayed { 1.0 } else { 0.0 }),
                ("sim_wall_s".into(), report.sim_wall_s),
                ("solver_wall_s".into(), report.solver_wall_s),
                ("solver_sweeps".into(), report.solver_sweeps as f64),
            ],
            &report.sim_work,
        ),
    }
}

/// Appends the core loop's work counters to a shard's timings, so the
/// `shard_done` telemetry line carries them next to the wall times.
fn with_core_work(mut timings: Vec<(String, f64)>, work: &CoreWork) -> Vec<(String, f64)> {
    timings.extend([
        ("core_committed".into(), work.committed as f64),
        ("core_cycles_stepped".into(), work.cycles_stepped as f64),
        ("core_cycles_skipped".into(), work.cycles_skipped as f64),
        ("core_events".into(), work.events as f64),
    ]);
    timings
}

/// Runs `f`, returning its result and its wall-clock seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Builds the named workload, timing the build.
fn build_workload(name: &str) -> Result<(Workload, f64), String> {
    let (w, build_s) = timed(|| workload_by_name(name));
    Ok((w.ok_or_else(|| format!("unknown workload {name:?}"))?, build_s))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a successful shard produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardPayload {
    /// Deterministic simulation outputs (bit-identical across resumes
    /// and thread counts).
    pub metrics: Vec<(String, f64)>,
    /// Wall-clock measurements — telemetry, excluded from determinism.
    pub timings: Vec<(String, f64)>,
}

/// One shard of a sweep: a stable id plus its task.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSpec {
    /// Unique id within the sweep; also the checkpoint filename (after
    /// sanitization), so keep it filesystem-friendly.
    pub id: String,
    /// The work.
    pub task: ShardTask,
}

/// A declarative sweep: a name plus its shards, in execution order.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// The sweep's name (recorded in the manifest).
    pub name: String,
    /// The shards.
    pub shards: Vec<ShardSpec>,
}

impl SweepSpec {
    /// A fingerprint over the name and every shard's id + canonical
    /// task description. A run directory refuses to resume under a
    /// different fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        let mut eat = |s: &str| {
            for b in s.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        eat(&self.name);
        for shard in &self.shards {
            eat(&shard.id);
            eat(&shard.task.canonical());
        }
        h
    }
}

/// Terminal status of a shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardStatus {
    /// Completed successfully.
    Done,
    /// Every attempt failed; the recorded error is the last one. The
    /// sweep completed around it.
    Degraded,
}

impl ShardStatus {
    fn name(self) -> &'static str {
        match self {
            ShardStatus::Done => "done",
            ShardStatus::Degraded => "degraded",
        }
    }

    fn by_name(name: &str) -> Option<ShardStatus> {
        match name {
            "done" => Some(ShardStatus::Done),
            "degraded" => Some(ShardStatus::Degraded),
            _ => None,
        }
    }
}

/// The durable per-shard result.
#[derive(Clone, Debug)]
pub struct ShardRecord {
    /// Shard id.
    pub id: String,
    /// Terminal status.
    pub status: ShardStatus,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Wall-clock seconds across all attempts (telemetry).
    pub wall_s: f64,
    /// The last error, for degraded shards.
    pub error: Option<String>,
    /// Deterministic metrics (empty for degraded shards).
    pub metrics: Vec<(String, f64)>,
    /// Wall-clock measurements from inside the task (telemetry).
    pub timings: Vec<(String, f64)>,
    /// Loaded from a checkpoint rather than computed by this run.
    pub resumed: bool,
}

impl ShardRecord {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Looks up a timing by name.
    pub fn timing(&self, name: &str) -> Option<f64> {
        self.timings.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    fn to_json(&self) -> String {
        let pairs = |kv: &[(String, f64)]| {
            let body: Vec<String> =
                kv.iter().map(|(k, v)| format!("{}: {}", json::quote(k), json::num(*v))).collect();
            format!("{{{}}}", body.join(", "))
        };
        json::obj(&[
            ("id".into(), json::quote(&self.id)),
            ("status".into(), json::quote(self.status.name())),
            ("attempts".into(), format!("{}", self.attempts)),
            ("wall_s".into(), json::num(self.wall_s)),
            (
                "error".into(),
                self.error.as_deref().map_or("null".into(), json::quote),
            ),
            ("metrics".into(), pairs(&self.metrics)),
            ("timings".into(), pairs(&self.timings)),
        ])
    }

    fn from_json(v: &Json) -> Option<ShardRecord> {
        let kv = |key: &str| -> Option<Vec<(String, f64)>> {
            v.get(key)?
                .as_obj()?
                .iter()
                .map(|(k, val)| Some((k.clone(), val.as_f64()?)))
                .collect()
        };
        Some(ShardRecord {
            id: v.get("id")?.as_str()?.to_string(),
            status: ShardStatus::by_name(v.get("status")?.as_str()?)?,
            attempts: v.get("attempts")?.as_f64()? as u32,
            wall_s: v.get("wall_s")?.as_f64()?,
            error: match v.get("error")? {
                Json::Null => None,
                Json::Str(s) => Some(s.clone()),
                _ => return None,
            },
            metrics: kv("metrics")?,
            timings: kv("timings")?,
            resumed: true,
        })
    }
}

/// Orchestration knobs.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Attempts per shard before it is recorded degraded (>= 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
    /// Per-attempt wall-clock limit. `Some` runs each attempt on a
    /// watchdog thread; an attempt that overruns is abandoned (the
    /// thread is detached) and counts as a failure.
    pub timeout: Option<Duration>,
    /// Injected failures (see [`FaultPlan`]).
    pub fault: FaultPlan,
    /// Print per-shard progress to stderr.
    pub verbose: bool,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            max_attempts: 3,
            backoff: Duration::from_millis(100),
            timeout: None,
            fault: FaultPlan::default(),
            verbose: false,
        }
    }
}

impl SweepOptions {
    /// Applies environment knobs: the [`FAULT_ENV`] fault plan.
    pub fn from_env() -> SweepOptions {
        SweepOptions { fault: FaultPlan::from_env(), ..SweepOptions::default() }
    }
}

/// The merged result of a sweep run.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The sweep's name.
    pub sweep: String,
    /// The run directory.
    pub dir: PathBuf,
    /// One record per shard, in spec order (resumed and fresh alike).
    pub records: Vec<ShardRecord>,
    /// Shards loaded from checkpoints (not recomputed).
    pub resumed: usize,
    /// Shards computed by this run.
    pub executed: usize,
}

impl SweepOutcome {
    /// Number of successful shards.
    pub fn done(&self) -> usize {
        self.records.iter().filter(|r| r.status == ShardStatus::Done).count()
    }

    /// Number of degraded shards.
    pub fn degraded(&self) -> usize {
        self.records.iter().filter(|r| r.status == ShardStatus::Degraded).count()
    }

    /// Number of co-simulation shards this run replayed from a sibling's
    /// trajectory instead of simulating.
    pub fn replayed(&self) -> usize {
        self.records.iter().filter(|r| !r.resumed && r.timing("replayed") == Some(1.0)).count()
    }

    /// A record by shard id.
    pub fn record(&self, id: &str) -> Option<&ShardRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    /// A metric of one shard.
    pub fn metric(&self, id: &str, name: &str) -> Option<f64> {
        self.record(id)?.metric(name)
    }
}

/// A shard id reduced to a safe checkpoint filename.
fn sanitize_id(id: &str) -> String {
    id.chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '-' })
        .collect()
}

fn manifest_json(spec: &SweepSpec) -> String {
    let ids: Vec<String> = spec.shards.iter().map(|s| json::quote(&s.id)).collect();
    let tasks: Vec<String> =
        spec.shards.iter().map(|s| json::quote(&s.task.canonical())).collect();
    json::obj(&[
        ("sweep".into(), json::quote(&spec.name)),
        ("fingerprint".into(), json::quote(&format!("{:016x}", spec.fingerprint()))),
        ("shards".into(), format!("{}", spec.shards.len())),
        ("ids".into(), format!("[{}]", ids.join(", "))),
        ("tasks".into(), format!("[{}]", tasks.join(", "))),
    ])
}

/// Writes `content` durably: to a temp file in the same directory, then
/// an atomic rename over the destination.
fn write_durable(path: &Path, content: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, content)?;
    fs::rename(&tmp, path)
}

fn err_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Append-only telemetry stream, shared across shard lanes.
struct Telemetry {
    file: Mutex<fs::File>,
}

impl Telemetry {
    fn open(path: &Path) -> io::Result<Telemetry> {
        let file = fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Telemetry { file: Mutex::new(file) })
    }

    fn emit(&self, pairs: &[(String, String)]) {
        let line = json::obj(pairs);
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        // Telemetry is best-effort: an unwritable line must not fail the
        // shard that produced it.
        let _ = writeln!(f, "{line}");
    }
}

fn str_pair(k: &str, v: &str) -> (String, String) {
    (k.to_string(), json::quote(v))
}

fn raw_pair(k: &str, v: String) -> (String, String) {
    (k.to_string(), v)
}

/// One attempt of a task against the sweep's `store`, with the unwind
/// boundary and optional watchdog timeout. `injected_panic` (the attempt
/// number, from a [`FaultMode::Panic`] rule) raises a panic inside the
/// guarded work in place of the task, so it crosses the same catch and
/// watchdog thread as a real one.
fn run_attempt(
    task: &ShardTask,
    store: &Trajectories,
    timeout: Option<Duration>,
    injected_panic: Option<u32>,
) -> Result<Executed, String> {
    let guarded = move |task: &ShardTask, store: &Trajectories| -> Result<Executed, String> {
        let work = || {
            if let Some(attempt) = injected_panic {
                panic!("{FAULT_ENV}: injected panic (attempt {attempt})");
            }
            task.execute_with(store)
        };
        match catch_unwind(AssertUnwindSafe(work)) {
            Ok(r) => r,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                Err(format!("panic at shard boundary: {msg}"))
            }
        }
    };
    match timeout {
        None => guarded(task, store),
        Some(limit) => {
            let (tx, rx) = std::sync::mpsc::channel();
            let task = task.clone();
            let store = store.clone();
            // The watchdog owns the attempt; on overrun the thread is
            // abandoned (detached) and its eventual result, trajectory
            // included, discarded.
            std::thread::Builder::new()
                .name("th-sweep-attempt".into())
                .spawn(move || {
                    let _ = tx.send(guarded(&task, &store));
                })
                .map_err(|e| format!("spawn attempt thread: {e}"))?;
            match rx.recv_timeout(limit) {
                Ok(result) => result,
                Err(_) => Err(format!("attempt timed out after {:.3} s", limit.as_secs_f64())),
            }
        }
    }
}

/// Runs (or resumes) `spec` in `dir` over `pool`.
///
/// Finished shards found in `dir` are loaded from their checkpoints and
/// **not** recomputed; shards previously recorded degraded are retried.
/// Per-shard failures never abort sibling shards.
///
/// # Errors
///
/// I/O problems with the run directory, or a manifest that belongs to a
/// different spec (fingerprint mismatch).
pub fn run_sweep(
    spec: &SweepSpec,
    dir: &Path,
    opts: &SweepOptions,
    pool: &th_exec::Pool,
) -> io::Result<SweepOutcome> {
    assert!(opts.max_attempts >= 1, "at least one attempt");
    let t_sweep = Instant::now();
    // Summed durable-write time over every lane, in nanoseconds.
    let checkpoint_ns = AtomicU64::new(0);
    let timed_write = |path: &Path, content: &str| {
        let t0 = Instant::now();
        let result = write_durable(path, content);
        checkpoint_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    };
    {
        let mut seen = std::collections::BTreeSet::new();
        for s in &spec.shards {
            if !seen.insert(sanitize_id(&s.id)) {
                return Err(err_data(format!("duplicate shard id {:?}", s.id)));
            }
        }
    }
    let shards_dir = dir.join("shards");
    fs::create_dir_all(&shards_dir)?;

    // Manifest: create on first run, verify identity on resume.
    let manifest_path = dir.join("manifest.json");
    match fs::read_to_string(&manifest_path) {
        Ok(text) => {
            let v = Json::parse(&text)
                .map_err(|e| err_data(format!("corrupt manifest: {e}")))?;
            let found = v.get("fingerprint").and_then(Json::as_str).unwrap_or("");
            let expect = format!("{:016x}", spec.fingerprint());
            if found != expect {
                return Err(err_data(format!(
                    "run directory {} belongs to a different sweep \
                     (manifest fingerprint {found}, spec {expect})",
                    dir.display()
                )));
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            timed_write(&manifest_path, &manifest_json(spec))?;
        }
        Err(e) => return Err(e),
    }

    // Partition: shards with a parseable Done checkpoint are complete;
    // everything else (missing, corrupt, degraded) is pending.
    let mut slots: Vec<Option<ShardRecord>> = vec![None; spec.shards.len()];
    let mut pending: Vec<usize> = Vec::new();
    for (i, shard) in spec.shards.iter().enumerate() {
        let path = shards_dir.join(format!("{}.json", sanitize_id(&shard.id)));
        let loaded = fs::read_to_string(&path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|v| ShardRecord::from_json(&v))
            .filter(|r| r.id == shard.id && r.status == ShardStatus::Done);
        match loaded {
            Some(record) => slots[i] = Some(record),
            None => pending.push(i),
        }
    }
    let resumed = spec.shards.len() - pending.len();

    let telemetry = Telemetry::open(&dir.join("telemetry.jsonl"))?;
    let store = Trajectories::default();
    telemetry.emit(&[
        str_pair("event", "sweep_start"),
        str_pair("sweep", &spec.name),
        raw_pair("shards", format!("{}", spec.shards.len())),
        raw_pair("resumed_done", format!("{resumed}")),
        raw_pair("pending", format!("{}", pending.len())),
        raw_pair("lanes", format!("{}", pool.threads())),
    ]);
    if opts.verbose && resumed > 0 {
        eprintln!(
            "sweep {}: resuming — {resumed} shard(s) already done, {} pending",
            spec.name,
            pending.len()
        );
    }

    let executed = pool.map(&pending, |&i| {
        let shard = &spec.shards[i];
        let t0 = Instant::now();
        telemetry.emit(&[str_pair("event", "shard_start"), str_pair("shard", &shard.id)]);
        let mut last_err = String::new();
        let mut result = None;
        let mut attempts = 0;
        for attempt in 1..=opts.max_attempts {
            attempts = attempt;
            let outcome = match opts.fault.should_fail(&shard.id, attempt) {
                Some(FaultMode::Error) => {
                    Err(format!("{FAULT_ENV}: injected failure (attempt {attempt})"))
                }
                Some(FaultMode::Panic) => {
                    run_attempt(&shard.task, &store, opts.timeout, Some(attempt))
                }
                None => run_attempt(&shard.task, &store, opts.timeout, None),
            };
            match outcome {
                Ok((payload, trajectory)) => {
                    // Published only now: a failed, panicked or timed-out
                    // attempt never reaches a sibling.
                    if let Some(trajectory) = trajectory {
                        store.publish(trajectory);
                    }
                    result = Some(payload);
                    break;
                }
                Err(msg) => {
                    last_err = msg;
                    if attempt < opts.max_attempts {
                        telemetry.emit(&[
                            str_pair("event", "shard_retry"),
                            str_pair("shard", &shard.id),
                            raw_pair("attempt", format!("{attempt}")),
                            str_pair("error", &last_err),
                        ]);
                        if opts.verbose {
                            eprintln!(
                                "sweep {}: shard {} attempt {attempt} failed ({last_err}); \
                                 retrying",
                                spec.name, shard.id
                            );
                        }
                        let backoff = opts.backoff.saturating_mul(1 << (attempt - 1).min(16));
                        if backoff > Duration::ZERO {
                            std::thread::sleep(backoff);
                        }
                    }
                }
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let record = match result {
            Some(payload) => ShardRecord {
                id: shard.id.clone(),
                status: ShardStatus::Done,
                attempts,
                wall_s,
                error: None,
                metrics: payload.metrics,
                timings: payload.timings,
                resumed: false,
            },
            None => ShardRecord {
                id: shard.id.clone(),
                status: ShardStatus::Degraded,
                attempts,
                wall_s,
                error: Some(last_err.clone()),
                metrics: Vec::new(),
                timings: Vec::new(),
                resumed: false,
            },
        };
        // Durable checkpoint first, then the telemetry line announcing
        // it — a kill between the two re-runs nothing.
        let path = shards_dir.join(format!("{}.json", sanitize_id(&shard.id)));
        let write_err = timed_write(&path, &record.to_json()).err();
        match record.status {
            ShardStatus::Done => {
                let mut line = vec![
                    str_pair("event", "shard_done"),
                    str_pair("shard", &shard.id),
                    raw_pair("attempts", format!("{attempts}")),
                    raw_pair("wall_s", json::num(wall_s)),
                ];
                line.extend(record.timings.iter().map(|(k, v)| raw_pair(k, json::num(*v))));
                telemetry.emit(&line)
            }
            ShardStatus::Degraded => telemetry.emit(&[
                str_pair("event", "shard_degraded"),
                str_pair("shard", &shard.id),
                raw_pair("attempts", format!("{attempts}")),
                str_pair("error", &last_err),
            ]),
        }
        if opts.verbose {
            eprintln!(
                "sweep {}: shard {} {} ({attempts} attempt(s), {wall_s:.2} s)",
                spec.name,
                shard.id,
                record.status.name()
            );
        }
        (record, write_err)
    });

    let mut write_failure = None;
    for (record, write_err) in executed {
        let i = spec
            .shards
            .iter()
            .position(|s| s.id == record.id)
            .expect("executed shard is in the spec");
        if let Some(e) = write_err {
            write_failure.get_or_insert(e);
        }
        slots[i] = Some(record);
    }
    if let Some(e) = write_failure {
        return Err(e);
    }

    let records: Vec<ShardRecord> =
        slots.into_iter().map(|r| r.expect("every slot filled")).collect();
    let outcome = SweepOutcome {
        sweep: spec.name.clone(),
        dir: dir.to_path_buf(),
        records,
        resumed,
        executed: pending.len(),
    };
    telemetry.emit(&[
        str_pair("event", "sweep_done"),
        raw_pair("done", format!("{}", outcome.done())),
        raw_pair("degraded", format!("{}", outcome.degraded())),
        raw_pair("replayed", format!("{}", outcome.replayed())),
        raw_pair("wall_s", json::num(t_sweep.elapsed().as_secs_f64())),
        raw_pair("lanes", format!("{}", pool.threads())),
        raw_pair("checkpoint_s", json::num(checkpoint_ns.load(Ordering::Relaxed) as f64 * 1e-9)),
    ]);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selftest_spec(n: usize) -> SweepSpec {
        SweepSpec {
            name: "unit".into(),
            shards: (0..n)
                .map(|i| ShardSpec {
                    id: format!("selftest-{i}"),
                    task: ShardTask::SelfTest { seed: i as u64, spin: 4 },
                })
                .collect(),
        }
    }

    #[test]
    fn fingerprint_is_stable_and_spec_sensitive() {
        let a = selftest_spec(3);
        assert_eq!(a.fingerprint(), selftest_spec(3).fingerprint());
        assert_ne!(a.fingerprint(), selftest_spec(4).fingerprint());
        let mut renamed = selftest_spec(3);
        renamed.name = "other".into();
        assert_ne!(a.fingerprint(), renamed.fingerprint());
        let mut retasked = selftest_spec(3);
        retasked.shards[1].task = ShardTask::SelfTest { seed: 99, spin: 4 };
        assert_ne!(a.fingerprint(), retasked.fingerprint());
    }

    #[test]
    fn shard_record_round_trips_through_json() {
        let record = ShardRecord {
            id: "fig8/gzip-like/3D".into(),
            status: ShardStatus::Done,
            attempts: 2,
            wall_s: 1.25,
            error: None,
            metrics: vec![("ipc".into(), 1.234567890123), ("x".into(), -0.0)],
            timings: vec![("sim_wall_s".into(), 0.5)],
            resumed: false,
        };
        let parsed =
            ShardRecord::from_json(&Json::parse(&record.to_json()).unwrap()).unwrap();
        assert_eq!(parsed.id, record.id);
        assert_eq!(parsed.status, record.status);
        assert_eq!(parsed.attempts, record.attempts);
        assert_eq!(parsed.error, None);
        assert_eq!(parsed.metrics.len(), 2);
        for ((ka, va), (kb, vb)) in parsed.metrics.iter().zip(&record.metrics) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits());
        }
        assert!(parsed.resumed);

        let degraded = ShardRecord {
            status: ShardStatus::Degraded,
            error: Some("solver did not converge".into()),
            metrics: Vec::new(),
            ..record
        };
        let parsed =
            ShardRecord::from_json(&Json::parse(&degraded.to_json()).unwrap()).unwrap();
        assert_eq!(parsed.status, ShardStatus::Degraded);
        assert_eq!(parsed.error.as_deref(), Some("solver did not converge"));
    }

    #[test]
    fn selftest_task_is_deterministic() {
        let t = ShardTask::SelfTest { seed: 7, spin: 100 };
        let a = t.execute().unwrap();
        let b = t.execute().unwrap();
        assert_eq!(a, b);
        let other = ShardTask::SelfTest { seed: 8, spin: 100 }.execute().unwrap();
        assert_ne!(a.metrics, other.metrics);
    }

    #[test]
    fn unknown_workload_is_a_shard_error_not_a_panic() {
        let t = ShardTask::ChipRun {
            workload: "no-such-kernel".into(),
            variant: Variant::Base,
            budget: 1000,
        };
        let err = t.execute().unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
    }

    #[test]
    fn sanitize_keeps_safe_chars_and_replaces_the_rest() {
        assert_eq!(sanitize_id("fig8/gzip-like/3D"), "fig8-gzip-like-3D");
        assert_eq!(sanitize_id("a.b_c-9"), "a.b_c-9");
    }

    #[test]
    fn duplicate_shard_ids_are_rejected() {
        let mut spec = selftest_spec(2);
        spec.shards[1].id = spec.shards[0].id.clone();
        let dir = std::env::temp_dir().join(format!("th-sweep-dup-{}", std::process::id()));
        let pool = th_exec::Pool::new(1);
        let err = run_sweep(&spec, &dir, &SweepOptions::default(), &pool).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
