//! The traced replay: each shard is run again through the same public
//! calls that `ShardTask::execute` makes, with a span around every call
//! into a layer. Spans live in memory; the per-layer metrics are read off
//! them when the replay ends.

use crate::stats::self_time;
use std::hint::black_box;
use std::time::Instant;
use th_cosim::CoSimConfig;
use th_isa::Machine;
use th_power::PowerModel;
use th_sim::Simulator;
use th_stack3d::Unit;
use th_sweep::ShardTask;
use th_workloads::{workload_by_name, Workload};
use thermal_herding::experiments::dtm;
use thermal_herding::{thermal_analysis, ChipResult, Variant};

/// One timed interval. Children are nested inside their parent.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    dur_s: f64,
}

/// An in-memory span recorder.
pub struct Trace {
    spans: Vec<Span>,
    /// Open spans, innermost last, with their start instants.
    open: Vec<(usize, Instant)>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().map(|&(p, _)| p);
        self.spans.push(Span {
            name,
            parent,
            dur_s: 0.0,
        });
        self.open.push((id, Instant::now()));
        id
    }

    /// Closes the innermost span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let (open, start) = self.open.pop().expect("a span is open");
        assert_eq!(open, id, "spans close innermost first");
        self.spans[id].dur_s = start.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Records a child of `parent` whose duration was measured by the
    /// program itself (the co-simulation's sim/solver split).
    pub fn child(&mut self, parent: usize, name: &'static str, dur_s: f64) {
        self.spans.push(Span {
            name,
            parent: Some(parent),
            dur_s,
        });
    }

    /// Total seconds spent in spans named `name`. The sums fold from
    /// +0.0 because an empty `f64` sum is -0.0.
    pub fn busy(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_s)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of the spans named `name`: their durations minus what
    /// their children cover.
    pub fn self_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .fold(0.0, |acc, (id, s)| {
                let children = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(|c| c.dur_s);
                acc + self_time(s.dur_s, children)
            })
    }
}

/// Work counts the spans cannot carry.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub sim_committed: u64,
    pub sim_cycles: u64,
    pub cosim_intervals: u64,
}

fn lookup(trace: &mut Trace, name: &str) -> Result<Workload, String> {
    trace
        .time("workloads.build", || workload_by_name(name))
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

/// `run_chip`, call by call. `Machine::new` is timed on its own first:
/// the simulator pays the same set-up again inside `sim.run`.
fn chip_run(
    trace: &mut Trace,
    counts: &mut Counts,
    variant: Variant,
    w: &Workload,
    max_insts: u64,
) -> Result<ChipResult, String> {
    trace.time("isa.machine_new", || {
        black_box(Machine::new(black_box(&w.program)));
    });
    let cfg = variant.sim_config();
    let budget = max_insts.min(w.inst_budget);
    let result = trace
        .time("sim.run", || {
            Simulator::new(cfg).run_with_warmup(&w.program, budget / 5, budget)
        })
        .map_err(|t| format!("pipeline trap: {t:?}"))?;
    counts.sim_committed += result.stats.committed;
    counts.sim_cycles += result.stats.cycles;
    Ok(trace.time("power.price", || {
        let core_stats = result.stats;
        let mut chip_stats = core_stats.clone();
        chip_stats.merge(&core_stats);
        let power =
            PowerModel::new().compute(&chip_stats, core_stats.cycles, &variant.power_config());
        ChipResult {
            variant,
            workload: w.name,
            clock_ghz: cfg.clock_ghz,
            core_stats,
            chip_stats,
            power,
        }
    }))
}

/// Replays one shard inside a `shard` span and returns the metrics
/// `ShardTask::execute` reports for it, computed the same way.
pub fn replay(
    task: &ShardTask,
    trace: &mut Trace,
    counts: &mut Counts,
) -> Result<Vec<(String, f64)>, String> {
    let shard = trace.enter("shard");
    let metrics = replay_task(task, trace, counts);
    trace.exit(shard);
    metrics
}

fn replay_task(
    task: &ShardTask,
    trace: &mut Trace,
    counts: &mut Counts,
) -> Result<Vec<(String, f64)>, String> {
    match task {
        ShardTask::ChipRun {
            workload,
            variant,
            budget,
        } => {
            let w = lookup(trace, workload)?;
            let run = chip_run(trace, counts, *variant, &w, *budget)?;
            let table = trace.time("power.die_table", || run.die_table());
            Ok(vec![
                ("ipc".into(), run.ipc()),
                ("ipns".into(), run.ipns()),
                ("total_w".into(), run.power.total_w()),
                ("cycles".into(), run.cycles() as f64),
                ("committed".into(), run.core_stats.committed as f64),
                ("rf_top_die".into(), table.fractions(Unit::RegFile)[0]),
            ])
        }
        ShardTask::ThermalRun {
            workload,
            variant,
            budget,
            rows,
        } => {
            let w = lookup(trace, workload)?;
            let run = chip_run(trace, counts, *variant, &w, *budget)?;
            let analysis = trace.time("thermal.steady", || thermal_analysis(&run, *rows))?;
            Ok(vec![
                ("ipc".into(), run.ipc()),
                ("total_w".into(), run.power.total_w()),
                ("peak_k".into(), analysis.peak_k()),
            ])
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
            let w = lookup(trace, workload)?;
            let cfg = CoSimConfig::sampled(*interval_s, *slice_cycles, *steps);
            let span = trace.enter("cosim.run");
            let t = dtm::run_variant_scaled(*variant, &w, *cap_k, *rows, policy.build(*cap_k), cfg);
            trace.exit(span);
            trace.child(span, "cosim.sim", t.report.sim_wall_s);
            trace.child(span, "cosim.solver", t.report.solver_wall_s);
            counts.cosim_intervals += t.report.intervals.len() as u64;
            Ok(vec![
                ("intervals".into(), t.report.intervals.len() as f64),
                ("max_peak_k".into(), t.max_peak_k()),
                ("mean_clock_ghz".into(), t.mean_clock_ghz()),
                ("throttled_fraction".into(), t.throttled_fraction()),
                ("delivered_ginst".into(), t.delivered_ginst()),
                ("ipc".into(), t.ipc()),
                ("rf_top_die".into(), t.rf_top_die()),
            ])
        }
        ShardTask::SelfTest { .. } => Err("self-test shards are not benchmark work".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_reported_children() {
        let mut t = Trace::new();
        let root = t.enter("shard");
        t.time("sim.run", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let cosim = t.enter("cosim.run");
        t.exit(cosim);
        t.child(cosim, "cosim.sim", 0.0);
        t.exit(root);
        assert_eq!(t.count("sim.run"), 1);
        let shard = t.busy("shard");
        assert!(t.busy("sim.run") >= 0.005);
        let own = t.self_s("shard");
        assert!((own - (shard - t.busy("sim.run") - t.busy("cosim.run"))).abs() < 1e-12);
        assert!(own >= 0.0 && own < shard);
        // A leaf's self time is its whole duration.
        assert_eq!(t.self_s("sim.run"), t.busy("sim.run"));
    }
}
