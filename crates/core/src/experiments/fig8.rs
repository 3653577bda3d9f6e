//! Figure 8: IPC (a), instructions per nanosecond (b), and relative
//! speedup over the baseline (c), per benchmark group, for the five
//! design points — plus the §3.8 width-prediction accuracy statistic.

use super::run_grid;
use crate::config::Variant;
use std::collections::BTreeMap;
use std::fmt;
use th_workloads::{workload_names, workload_suite, Suite};

/// Per-workload results across the five design points.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Workload name.
    pub workload: &'static str,
    /// Suite.
    pub suite: Suite,
    /// IPC per design point, in [`Variant::figure8`] order.
    pub ipc: [f64; 5],
    /// Instructions per nanosecond, same order.
    pub ipns: [f64; 5],
}

impl Fig8Row {
    /// Speedup of a design point over the baseline.
    pub fn speedup(&self, point: usize) -> f64 {
        self.ipns[point] / self.ipns[0]
    }

    /// Speedup of the full 3D processor over the baseline.
    pub fn speedup_3d(&self) -> f64 {
        self.speedup(4)
    }
}

/// Per-suite geometric means.
#[derive(Clone, Debug)]
pub struct Fig8Group {
    /// Suite.
    pub suite: Suite,
    /// Geometric-mean IPC per design point.
    pub ipc: [f64; 5],
    /// Geometric-mean IPns per design point.
    pub ipns: [f64; 5],
}

impl Fig8Group {
    /// Geometric-mean speedup of the 3D point over the baseline.
    pub fn speedup_3d(&self) -> f64 {
        self.ipns[4] / self.ipns[0]
    }
}

/// The full Figure 8 result.
#[derive(Clone, Debug)]
pub struct Fig8 {
    /// Per-workload rows.
    pub rows: Vec<Fig8Row>,
    /// Per-suite geometric means.
    pub groups: Vec<Fig8Group>,
    /// Aggregate width-prediction accuracy across every workload under
    /// the 3D configuration (§3.8 reports ≈97 %).
    pub width_accuracy: f64,
    /// Register-file top-die power fraction under the 3D configuration,
    /// measured from the activity ledger aggregated over every workload.
    pub measured_rf_top_die: f64,
}

impl Fig8 {
    /// Mean-of-(group-)means speedup — the paper's headline 1.47×.
    pub fn mean_of_means_speedup(&self) -> f64 {
        let n = self.groups.len() as f64;
        self.groups.iter().map(|g| g.speedup_3d()).sum::<f64>() / n
    }

    /// Minimum and maximum per-workload 3D speedup.
    pub fn speedup_range(&self) -> (f64, f64) {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for r in &self.rows {
            min = min.min(r.speedup_3d());
            max = max.max(r.speedup_3d());
        }
        (min, max)
    }

    /// A group's result.
    pub fn group(&self, suite: Suite) -> Option<&Fig8Group> {
        self.groups.iter().find(|g| g.suite == suite)
    }

    /// A row by workload name.
    pub fn row(&self, workload: &str) -> Option<&Fig8Row> {
        self.rows.iter().find(|r| r.workload == workload)
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// The Figure 8 grid: every workload × the five design points
/// ([`Variant::figure8`]), workload-major.
pub fn grid() -> impl Iterator<Item = (&'static str, Variant)> {
    workload_names().flat_map(|name| Variant::figure8().iter().map(move |&v| (name, v)))
}

/// Runs the Figure 8 sweep over [`grid`], `max_insts` per core per run,
/// fanned out over the global [`th_exec::pool`].
pub fn run(max_insts: u64) -> Fig8 {
    run_with_pool(max_insts, th_exec::pool())
}

/// [`run`] on an explicit pool. The results are reduced in workload
/// order, so the output is identical for any thread count.
pub fn run_with_pool(max_insts: u64, pool: &th_exec::Pool) -> Fig8 {
    let results = run_grid(grid(), max_insts, pool);

    let mut rows = Vec::new();
    let mut width_correct = 0u64;
    let mut width_total = 0u64;
    let mut three_d_stats = th_sim::SimStats::default();
    for runs in results.chunks(Variant::figure8().len()) {
        let mut ipc = [0.0; 5];
        let mut ipns = [0.0; 5];
        for (i, r) in runs.iter().enumerate() {
            ipc[i] = r.ipc();
            ipns[i] = r.ipns();
            if r.variant == Variant::ThreeD {
                let wp = &r.core_stats.width_pred;
                width_correct += wp.correct_low + wp.correct_full;
                width_total += wp.predictions;
                three_d_stats.merge(&r.core_stats);
            }
        }
        let workload = runs[0].workload;
        let suite = workload_suite(workload).expect("registry workload");
        rows.push(Fig8Row { workload, suite, ipc, ipns });
    }
    // Measured herding payoff over the whole suite: the register file's
    // top-die power fraction from the aggregated activity ledger.
    let model = th_power::PowerModel::new();
    let measured_rf_top_die = th_power::DieFractionTable::new(
        &three_d_stats,
        model.energies(),
        &Variant::ThreeD.power_config(),
    )
    .fractions(th_stack3d::Unit::RegFile)[0];

    let mut groups = Vec::new();
    let mut by_suite: BTreeMap<Suite, Vec<&Fig8Row>> = BTreeMap::new();
    for r in &rows {
        by_suite.entry(r.suite).or_default().push(r);
    }
    for (&suite, members) in &by_suite {
        let mut ipc = [0.0; 5];
        let mut ipns = [0.0; 5];
        for i in 0..5 {
            ipc[i] = geomean(members.iter().map(|r| r.ipc[i]));
            ipns[i] = geomean(members.iter().map(|r| r.ipns[i]));
        }
        groups.push(Fig8Group { suite, ipc, ipns });
    }

    let width_accuracy =
        if width_total == 0 { 1.0 } else { width_correct as f64 / width_total as f64 };
    Fig8 { rows, groups, width_accuracy, measured_rf_top_die }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels: Vec<&str> = Variant::figure8().iter().map(|v| v.label()).collect();
        writeln!(f, "Figure 8(a): geometric-mean IPC per benchmark group")?;
        write!(f, "{:<12}", "Group")?;
        for l in &labels {
            write!(f, "{l:>9}")?;
        }
        writeln!(f)?;
        for g in &self.groups {
            write!(f, "{:<12}", g.suite.label())?;
            for v in g.ipc {
                write!(f, "{v:>9.3}")?;
            }
            writeln!(f)?;
        }
        writeln!(f)?;
        writeln!(f, "Figure 8(b): geometric-mean instructions/ns")?;
        write!(f, "{:<12}", "Group")?;
        for l in &labels {
            write!(f, "{l:>9}")?;
        }
        writeln!(f)?;
        for g in &self.groups {
            write!(f, "{:<12}", g.suite.label())?;
            for v in g.ipns {
                write!(f, "{v:>9.3}")?;
            }
            writeln!(f)?;
        }
        writeln!(f)?;
        writeln!(f, "Figure 8(c): 3D speedup over Base (per workload)")?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<16} ({:<10}) {:>6.2}x",
                r.workload,
                r.suite.label(),
                r.speedup_3d()
            )?;
        }
        let (min, max) = self.speedup_range();
        writeln!(f)?;
        writeln!(
            f,
            "Mean-of-means speedup: {:.3}x (paper: 1.470x); range {:.2}x..{:.2}x (paper: 1.07x..1.77x)",
            self.mean_of_means_speedup(),
            min,
            max
        )?;
        writeln!(
            f,
            "Width prediction accuracy (3D): {:.1}% (paper §3.8: ~97%)",
            100.0 * self.width_accuracy
        )?;
        write!(
            f,
            "Measured RF top-die power fraction (3D, ledger): {:.1}%",
            100.0 * self.measured_rf_top_die
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_complete_structure() {
        // A tiny budget keeps this a smoke test of the plumbing; the
        // full-budget numbers are pinned by tests/paper_results.rs.
        let fig8 = run(15_000);
        assert_eq!(fig8.rows.len(), th_workloads::all_workloads().len());
        assert_eq!(fig8.groups.len(), Suite::all().len());
        for r in &fig8.rows {
            for i in 0..5 {
                assert!(r.ipc[i] > 0.0, "{}: zero IPC at point {i}", r.workload);
                assert!(r.ipns[i] > 0.0);
            }
        }
        assert!(fig8.width_accuracy > 0.5 && fig8.width_accuracy <= 1.0);
        assert!(
            fig8.measured_rf_top_die > 0.4,
            "measured RF top-die fraction {:.3}",
            fig8.measured_rf_top_die
        );
        let (min, max) = fig8.speedup_range();
        assert!(min <= max);
        assert!(fig8.mean_of_means_speedup() > 1.0, "3D must win on average");
        // Lookups work.
        assert!(fig8.group(Suite::Media).is_some());
        assert!(fig8.row("mcf-like").is_some());
        // The report renders every section.
        let text = fig8.to_string();
        for needle in
            ["Figure 8(a)", "Figure 8(b)", "Figure 8(c)", "Mean-of-means", "Measured RF top-die"]
        {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }
}
