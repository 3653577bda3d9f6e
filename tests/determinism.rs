//! Parallel determinism: the experiment drivers must produce
//! byte-identical results at any thread count. The fan-out layer claims
//! work dynamically but reduces in item order, and the red-black thermal
//! kernel's color passes are order-independent, so nothing downstream may
//! observe the thread count.

use th_exec::Pool;
use thermal_herding::experiments::{fig10, fig8, fig9};

const BUDGET: u64 = 15_000;

#[test]
fn fig8_is_bit_identical_across_thread_counts() {
    let seq = fig8::run_with_pool(BUDGET, &Pool::new(1));
    let par = fig8::run_with_pool(BUDGET, &Pool::new(4));

    assert_eq!(seq.rows.len(), par.rows.len());
    for (a, b) in seq.rows.iter().zip(&par.rows) {
        assert_eq!(a.workload, b.workload);
        for i in 0..5 {
            assert_eq!(
                a.ipc[i].to_bits(),
                b.ipc[i].to_bits(),
                "{}: IPC differs at point {i}: {} vs {}",
                a.workload,
                a.ipc[i],
                b.ipc[i]
            );
            assert_eq!(
                a.ipns[i].to_bits(),
                b.ipns[i].to_bits(),
                "{}: IPns differs at point {i}",
                a.workload
            );
        }
    }
    for (a, b) in seq.groups.iter().zip(&par.groups) {
        assert_eq!(a.suite, b.suite);
        for i in 0..5 {
            assert_eq!(a.ipc[i].to_bits(), b.ipc[i].to_bits());
            assert_eq!(a.ipns[i].to_bits(), b.ipns[i].to_bits());
        }
    }
    assert_eq!(
        seq.width_accuracy.to_bits(),
        par.width_accuracy.to_bits(),
        "width accuracy differs: {} vs {}",
        seq.width_accuracy,
        par.width_accuracy
    );
}

#[test]
fn fig9_power_is_bit_identical_across_thread_counts() {
    let seq = fig9::run_with_pool(BUDGET, &Pool::new(1));
    let par = fig9::run_with_pool(BUDGET, &Pool::new(3));

    for (a, b) in seq.bars.iter().zip(&par.bars) {
        assert_eq!(a.variant, b.variant);
        assert_eq!(
            a.total_w().to_bits(),
            b.total_w().to_bits(),
            "{}: total power differs",
            a.variant
        );
    }
    for (a, b) in seq.savings.iter().zip(&par.savings) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.base_w.to_bits(), b.base_w.to_bits(), "{}", a.workload);
        assert_eq!(a.three_d_w.to_bits(), b.three_d_w.to_bits(), "{}", a.workload);
    }
}

#[test]
fn fig10_is_bit_identical_across_thread_counts() {
    let seq = fig10::run_with_pool(BUDGET, 10, &Pool::new(1));
    let par = fig10::run_with_pool(BUDGET, 10, &Pool::new(4));

    assert_eq!(seq.worst.len(), par.worst.len());
    for (a, b) in seq.worst.iter().zip(&par.worst) {
        assert_eq!(a.variant, b.variant);
        assert_eq!(a.workload, b.workload, "{}: worst app differs", a.variant);
        let bits = |w: &fig10::WorstCase| -> Vec<u64> {
            w.analysis.map.temps().iter().map(|t| t.to_bits()).collect()
        };
        assert_eq!(bits(a), bits(b), "{}: thermal map differs", a.variant);
    }
    assert_eq!(seq.same_app_workload, par.same_app_workload);
    for (a, b) in seq.same_app.iter().zip(&par.same_app) {
        assert_eq!(a.variant, b.variant);
        assert_eq!(a.peak_k().to_bits(), b.peak_k().to_bits(), "{}: same-app peak", a.variant);
    }
    assert_eq!(seq.iso_power_peak_k.to_bits(), par.iso_power_peak_k.to_bits());
    assert_eq!(seq.rob_ratios.0.to_bits(), par.rob_ratios.0.to_bits());
    assert_eq!(seq.rob_ratios.1.to_bits(), par.rob_ratios.1.to_bits());
    for ((ua, fa), (ub, fb)) in seq.measured_top_die.iter().zip(&par.measured_top_die) {
        assert_eq!(ua, ub);
        assert_eq!(fa.to_bits(), fb.to_bits(), "{}: top-die fraction", ua.label());
    }
}
