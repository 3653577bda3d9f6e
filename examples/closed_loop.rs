//! Closed-loop DTM: the full co-simulation — pipeline, phase-coupled
//! power with temperature-dependent leakage, transient thermal solve,
//! and a DTM policy reacting every interval — on the unherded and herded
//! 3D designs under one thermal cap.
//!
//! ```text
//! cargo run --release -p thermal-herding --example closed_loop \
//!     [policy] [cap-kelvin] [workload]
//! ```
//!
//! `policy` is one of `none`, `dvfs`, `fetch`, `herding` (default
//! `dvfs`). The run uses the DTM study's standard interval structure
//! (`DTM_INTERVAL_S` × `DTM_STEPS`, `DTM_SLICE_CYCLES` per interval). Set
//! `TH_THREADS` to bound the fan-out — the trace is bit-identical at any
//! thread count.

use th_cosim::PolicyKind;
use th_workloads::workload_by_name;
use thermal_herding::experiments::dtm;
use thermal_herding::Variant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let policy_name = std::env::args().nth(1).unwrap_or_else(|| "dvfs".into());
    let kind = PolicyKind::by_name(&policy_name)
        .ok_or_else(|| format!("unknown policy `{policy_name}` (none|dvfs|fetch|herding)"))?;
    let cap_k: f64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(376.0);
    let workload = std::env::args().nth(3).unwrap_or_else(|| "mpeg2-like".into());
    let w = workload_by_name(&workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;

    println!(
        "closed-loop DTM [{}]: {cap_k:.0} K cap on {}, {:.1} ms interval x {} steps\n",
        kind.name(),
        w.name,
        dtm::DTM_INTERVAL_S * 1e3,
        dtm::DTM_STEPS,
    );

    let traces = th_exec::pool().map(&[Variant::ThreeDNoTh, Variant::ThreeD], |&v| {
        dtm::run_variant_with_policy(v, &w, cap_k, 24, kind.build(cap_k))
    });

    for t in &traces {
        println!("{} ({} nominal {:.2} GHz):", t.variant.label(), t.report.policy, t.nominal_ghz());
        println!("{}", t.report);
    }

    let (noth, th) = (&traces[0], &traces[1]);
    println!(
        "under a {:.0} K cap, herding throttles {:.1}% of intervals vs {:.1}% unherded \
         and delivers {:+.1}% throughput",
        cap_k,
        100.0 * th.throttled_fraction(),
        100.0 * noth.throttled_fraction(),
        100.0 * (th.delivered_ginst() / noth.delivered_ginst() - 1.0),
    );
    Ok(())
}
