//! Named sweep presets reproducing the paper's experiment grids.
//!
//! Each preset expands one experiment into its independent shards:
//! `fig8` and `fig9` are chip-run grids (workload × design point),
//! `fig10` is the worst-case thermal search grid, and `dtm` is the
//! closed-loop policy comparison. The figure presets map the grids the
//! experiment drivers run (`thermal_herding::experiments::*::grid`), so
//! each grid is defined once. `selftest` is the orchestrator's own
//! cheap exercise grid (used by tests and the CI resume gate).

use crate::{ShardSpec, ShardTask, SweepSpec};
use th_cosim::PolicyKind;
use thermal_herding::experiments::{fig10, fig8, fig9};
use thermal_herding::Variant;

/// Default per-core instruction budget for the chip-run presets.
pub const DEFAULT_BUDGET: u64 = 60_000;
/// Default thermal grid resolution for `fig10`.
pub const DEFAULT_ROWS: usize = 16;
/// The DTM presets' temperature cap, kelvin (between the herded and
/// unherded steady-state ceilings, as in the `dtm` experiment).
pub const DTM_CAP_K: f64 = 376.0;

/// Maps a figure's `(workload, design point)` grid into a sweep with
/// one `{name}/{workload}/{label}` shard per point, in grid order.
fn grid_sweep(
    name: &str,
    grid: impl Iterator<Item = (&'static str, Variant)>,
    task: impl Fn(String, Variant) -> ShardTask,
) -> SweepSpec {
    let shards = grid
        .map(|(workload, variant)| ShardSpec {
            id: format!("{name}/{workload}/{}", variant.label()),
            task: task(workload.to_string(), variant),
        })
        .collect();
    SweepSpec { name: name.into(), shards }
}

/// The Figure 8 grid ([`fig8::grid`]): every workload × the five design
/// points.
pub fn fig8(budget: u64) -> SweepSpec {
    grid_sweep("fig8", fig8::grid(), chip_run(budget))
}

/// The Figure 9 grid ([`fig9::grid`]): every workload × {planar, 3D with
/// herding}, plus the bar workload × 3D without herding.
pub fn fig9(budget: u64) -> SweepSpec {
    grid_sweep("fig9", fig9::grid(), chip_run(budget))
}

fn chip_run(budget: u64) -> impl Fn(String, Variant) -> ShardTask {
    move |workload, variant| ShardTask::ChipRun { workload, variant, budget }
}

/// The Figure 10 worst-case search grid ([`fig10::grid`]): the hotspot
/// candidate workloads × {planar, 3D without herding, 3D with herding},
/// each shard a chip run plus a steady-state thermal solve.
pub fn fig10(budget: u64, rows: usize) -> SweepSpec {
    grid_sweep("fig10", fig10::grid(), |workload, variant| ShardTask::ThermalRun {
        workload,
        variant,
        budget,
        rows,
    })
}

/// The closed-loop DTM comparison: the two 3D design points × the three
/// active policies under one cap, at the scaled smoke-budget interval
/// structure (30 × 20 ms intervals, 20k-cycle slices, 12×12 grid).
pub fn dtm() -> SweepSpec {
    let variants = [Variant::ThreeDNoTh, Variant::ThreeD];
    let policies = [PolicyKind::Dvfs, PolicyKind::Fetch, PolicyKind::Herding];
    let shards = variants
        .iter()
        .flat_map(|&variant| {
            policies.iter().map(move |&policy| ShardSpec {
                id: format!("dtm/{}/{}", variant.label(), policy.name()),
                task: dtm_task(variant, policy),
            })
        })
        .collect();
    SweepSpec { name: "dtm".into(), shards }
}

/// The single-shard co-simulation smoke (the benchmark report's DTM
/// timing leg): the unherded 3D stack under the DVFS ladder.
pub fn dtm_smoke() -> SweepSpec {
    SweepSpec {
        name: "dtm-smoke".into(),
        shards: vec![ShardSpec {
            id: "dtm/3D-noTH/dvfs".into(),
            task: dtm_task(Variant::ThreeDNoTh, PolicyKind::Dvfs),
        }],
    }
}

fn dtm_task(variant: Variant, policy: PolicyKind) -> ShardTask {
    ShardTask::CosimRun {
        workload: "mpeg2-like".into(),
        variant,
        policy,
        cap_k: DTM_CAP_K,
        rows: 12,
        interval_s: 0.02,
        slice_cycles: 20_000,
        steps: 30,
    }
}

/// The Figure 10 worst-case rows of a `fig10` sweep, reduced by
/// [`fig10::worst_case_rows`] (first strict maximum in candidate order,
/// whatever order the records come in). Degraded shards simply don't
/// compete. Returns `(variant label, workload, peak kelvin)` rows in
/// design-point order.
pub fn fig10_worst_rows(outcome: &crate::SweepOutcome) -> Vec<(String, String, f64)> {
    let points = outcome.records.iter().filter_map(|r| {
        let peak_k = r.metric("peak_k")?;
        let mut parts = r.id.splitn(3, '/');
        let (Some("fig10"), Some(workload), Some(label)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return None;
        };
        let variant = fig10::VARIANTS.into_iter().find(|v| v.label() == label)?;
        Some((variant, workload, peak_k))
    });
    fig10::worst_case_rows(points)
        .into_iter()
        .map(|(variant, workload, peak_k)| (variant.label().into(), workload.into(), peak_k))
        .collect()
}

/// Eight cheap deterministic shards for exercising the orchestrator
/// itself (resume, retries, fault injection).
pub fn selftest() -> SweepSpec {
    SweepSpec {
        name: "selftest".into(),
        shards: (0..8)
            .map(|i| ShardSpec {
                id: format!("selftest-{i}"),
                task: ShardTask::SelfTest { seed: i, spin: 50_000 },
            })
            .collect(),
    }
}

/// All preset names, for help text.
pub fn names() -> &'static [&'static str] {
    &["fig8", "fig9", "fig10", "dtm", "dtm-smoke", "selftest"]
}

/// Expands a preset by name. `budget` and `rows` apply to the presets
/// that use them.
pub fn by_name(name: &str, budget: u64, rows: usize) -> Option<SweepSpec> {
    match name {
        "fig8" => Some(fig8(budget)),
        "fig9" => Some(fig9(budget)),
        "fig10" => Some(fig10(budget, rows)),
        "dtm" => Some(dtm()),
        "dtm-smoke" => Some(dtm_smoke()),
        "selftest" => Some(selftest()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_expands_with_unique_ids() {
        for name in names() {
            let spec = by_name(name, 1000, 8).unwrap();
            assert_eq!(&spec.name, name);
            assert!(!spec.shards.is_empty(), "{name} expanded empty");
            let mut ids: Vec<&str> = spec.shards.iter().map(|s| s.id.as_str()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), spec.shards.len(), "{name} has duplicate shard ids");
        }
        assert!(by_name("bogus", 1000, 8).is_none());
    }

    #[test]
    fn grid_sizes_match_the_experiments() {
        let n = th_workloads::workload_names().len();
        assert_eq!(fig8(1000).shards.len(), 5 * n);
        assert_eq!(fig9(1000).shards.len(), 2 * n + 1);
        assert_eq!(dtm().shards.len(), 6);
        assert_eq!(dtm_smoke().shards.len(), 1);
    }

    #[test]
    fn fig10_shard_ids_are_pinned() {
        let ids: Vec<String> = fig10(1000, 8).shards.into_iter().map(|s| s.id).collect();
        assert_eq!(
            ids,
            [
                "fig10/mpeg2-like/Base",
                "fig10/susan-like/Base",
                "fig10/yacr2-like/Base",
                "fig10/crafty-like/Base",
                "fig10/gzip-like/Base",
                "fig10/mpeg2-like/3D-noTH",
                "fig10/susan-like/3D-noTH",
                "fig10/yacr2-like/3D-noTH",
                "fig10/crafty-like/3D-noTH",
                "fig10/gzip-like/3D-noTH",
                "fig10/mpeg2-like/3D",
                "fig10/susan-like/3D",
                "fig10/yacr2-like/3D",
                "fig10/crafty-like/3D",
                "fig10/gzip-like/3D",
            ]
        );
    }

    #[test]
    fn fig10_row_reduction_picks_first_strict_maximum_per_variant() {
        let record = |id: &str, peak: Option<f64>| crate::ShardRecord {
            id: id.into(),
            status: if peak.is_some() {
                crate::ShardStatus::Done
            } else {
                crate::ShardStatus::Degraded
            },
            attempts: 1,
            wall_s: 0.0,
            error: None,
            metrics: peak.map(|p| ("peak_k".into(), p)).into_iter().collect(),
            timings: Vec::new(),
            resumed: false,
        };
        let outcome = crate::SweepOutcome {
            sweep: "fig10".into(),
            dir: std::path::PathBuf::new(),
            records: vec![
                record("fig10/mpeg2-like/Base", Some(360.0)),
                record("fig10/yacr2-like/Base", Some(360.0)), // tie: first wins
                record("fig10/gzip-like/Base", Some(355.0)),
                record("fig10/mpeg2-like/3D", Some(370.0)),
                record("fig10/yacr2-like/3D", Some(372.0)),
                record("fig10/gzip-like/3D", None), // degraded: out of the race
            ],
            resumed: 0,
            executed: 6,
        };
        let rows = fig10_worst_rows(&outcome);
        assert_eq!(
            rows,
            vec![
                ("Base".to_string(), "mpeg2-like".to_string(), 360.0),
                ("3D".to_string(), "yacr2-like".to_string(), 372.0),
            ]
        );
        // Ties break in candidate order, not record order.
        let mut reversed = outcome;
        reversed.records.reverse();
        assert_eq!(fig10_worst_rows(&reversed), rows);
    }

    #[test]
    fn budget_changes_the_fingerprint() {
        assert_ne!(fig8(1000).fingerprint(), fig8(2000).fingerprint());
        assert_eq!(fig8(1000).fingerprint(), fig8(1000).fingerprint());
    }
}
