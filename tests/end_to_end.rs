//! End-to-end integration tests: assemble → simulate → price power →
//! solve thermals, across crates.

use th_cosim::{CoSimConfig, PolicyKind};
use th_isa::parse_asm;
use th_sim::{SimConfig, Simulator};
use th_stack3d::Unit;
use th_workloads::{all_workloads, workload_by_name};
use thermal_herding::experiments::dtm;
use thermal_herding::{run_chip, thermal_analysis, Variant};

#[test]
fn asm_text_to_timing_pipeline() {
    let p = parse_asm(
        "
        .data v 3, 1, 4, 1, 5, 9, 2, 6
            la   x5, v
            li   x6, 8
            li   x10, 0
        loop:
            ld   x1, 0(x5)
            add  x10, x10, x1
            addi x5, x5, 8
            addi x6, x6, -1
            bne  x6, x0, loop
            halt
        ",
    )
    .expect("assembles");
    let r = Simulator::new(SimConfig::baseline()).run(&p, 1_000).expect("runs");
    // 3 setup (li/li are 1 inst each, la is 4) + 8×5 loop + halt.
    assert_eq!(r.stats.committed, 47);
    assert!(r.stats.cycles > 0);
}

#[test]
fn timing_matches_functional_instruction_count() {
    // The timing model must commit exactly the instructions the golden
    // model executes, for every bundled workload.
    for w in all_workloads().into_iter().take(6) {
        let mut m = th_isa::Machine::new(&w.program);
        let summary = m.run(w.inst_budget).expect("functional run");
        let r = Simulator::new(SimConfig::baseline())
            .run(&w.program, w.inst_budget)
            .expect("timing run");
        assert_eq!(
            r.stats.committed, summary.instructions,
            "{}: timing committed {} vs functional {}",
            w.name, r.stats.committed, summary.instructions
        );
    }
}

#[test]
fn every_variant_runs_every_suite_representative() {
    for name in ["gzip-like", "swim-like", "mpeg2-like", "susan-like", "treeadd-like", "blast-like"]
    {
        let w = workload_by_name(name).unwrap();
        for &variant in Variant::figure8() {
            let r = run_chip(variant, &w, 60_000).expect("runs");
            assert!(r.ipc() > 0.0, "{name} at {variant}: zero IPC");
            assert!(r.power.total_w() > 30.0 && r.power.total_w() < 150.0);
        }
    }
}

#[test]
fn chip_to_thermal_round_trip() {
    let w = workload_by_name("gzip-like").unwrap();
    for variant in [Variant::Base, Variant::ThreeDNoTh, Variant::ThreeD] {
        let run = run_chip(variant, &w, 60_000).expect("runs");
        let t = thermal_analysis(&run, 20).expect("solves");
        assert!(t.peak_k() > th_thermal::AMBIENT_K);
        assert!(t.peak_k() < 460.0, "{variant}: {:.1} K", t.peak_k());
        // Hotter-than-ambient cells exist on every active die.
        let dies = if variant.is_three_d() { 4 } else { 1 };
        for die in 0..dies {
            let layer = t.map.layer_of_power_index(die).expect("active layer");
            assert!(t.map.layer_max(layer) > th_thermal::AMBIENT_K + 1.0);
        }
    }
}

#[test]
fn herding_only_ever_reduces_power() {
    // For every workload, 3D+TH must cost no more than 3D-noTH, which
    // must cost no more than planar.
    for w in all_workloads().into_iter().take(8) {
        let base = run_chip(Variant::Base, &w, 50_000).unwrap().power.total_w();
        let noth = run_chip(Variant::ThreeDNoTh, &w, 50_000).unwrap().power.total_w();
        let th = run_chip(Variant::ThreeD, &w, 50_000).unwrap().power.total_w();
        assert!(noth < base, "{}: 3D {noth:.1} !< planar {base:.1}", w.name);
        assert!(th <= noth + 0.5, "{}: TH {th:.1} > noTH {noth:.1}", w.name);
    }
}

#[test]
fn warmup_reduces_cold_start_artifacts() {
    let w = workload_by_name("susan-like").unwrap();
    let cold = Simulator::new(SimConfig::baseline()).run(&w.program, w.inst_budget).unwrap();
    let warm = Simulator::new(SimConfig::baseline())
        .run_with_warmup(&w.program, w.inst_budget / 5, w.inst_budget)
        .unwrap();
    assert!(
        warm.stats.dram_per_kilo_inst() < cold.stats.dram_per_kilo_inst(),
        "warm {} !< cold {}",
        warm.stats.dram_per_kilo_inst(),
        cold.stats.dram_per_kilo_inst()
    );
    assert!(warm.ipc() >= cold.ipc());
}

#[test]
fn herding_top_die_fractions_golden() {
    // The measured (activity-ledger) top-die share of every
    // width-partitioned unit for the peak-power workload under the full
    // 3D design. The ledger is deterministic, so these are exact pins: a
    // drift means recording sites were lost or herding stopped steering
    // gated accesses to the top die (§5.2).
    const GOLDEN: [(Unit, f64); 6] = [
        (Unit::Rob, 0.907_072_7),
        (Unit::RegFile, 0.754_313_1),
        (Unit::IntExec, 0.873_688_6),
        (Unit::Bypass, 0.900_102_0),
        (Unit::Lsq, 1.0),
        (Unit::DCache, 0.988_300_7),
    ];
    let w = workload_by_name("mpeg2-like").unwrap();
    let run = run_chip(Variant::ThreeD, &w, 60_000).expect("runs");
    let table = run.die_table();
    let partitioned: Vec<Unit> =
        Unit::all().iter().copied().filter(|u| u.is_width_partitioned()).collect();
    assert_eq!(partitioned, GOLDEN.map(|(u, _)| u), "width-partitioned unit set changed");
    for (unit, want) in GOLDEN {
        let got = table.fractions(unit)[0];
        assert!((got - want).abs() < 1e-4, "{unit}: measured top-die {got:.6}, golden {want:.6}");
    }
}

#[test]
fn thermal_peaks_bit_golden() {
    // Exact f64 bits of the steady peaks (mpeg2-like at 15 000
    // instructions, on the fig10 sweep's 16-row grid) and of one short
    // closed-loop run's transient peak (3D under DVFS, 10 intervals at
    // 10 rows). Any change to the solver's arithmetic, however small,
    // moves these bits, as it would move the sweepbench digests; a
    // faster kernel must leave them alone.
    const STEADY: [(Variant, u64); 3] = [
        (Variant::Base, 0x4075_4d1f_d3b0_8806),
        (Variant::ThreeDNoTh, 0x4075_bb0f_d32a_ce6b),
        (Variant::ThreeD, 0x4075_a38d_2282_8e4c),
    ];
    const COSIM_MAX_PEAK: u64 = 0x4076_e96f_c8d3_9a6a;
    let w = workload_by_name("mpeg2-like").unwrap();
    for (variant, want) in STEADY {
        let run = run_chip(variant, &w, 15_000).expect("runs");
        let peak = thermal_analysis(&run, 16).expect("solves").peak_k();
        assert_eq!(
            peak.to_bits(),
            want,
            "{variant}: peak {peak} K, golden {} K",
            f64::from_bits(want)
        );
    }
    let trace = dtm::run_variant_scaled(
        Variant::ThreeD,
        &w,
        376.0,
        10,
        PolicyKind::Dvfs.build(376.0),
        CoSimConfig::sampled(0.02, 20_000, 10),
    );
    let peak = trace.max_peak_k();
    assert_eq!(
        peak.to_bits(),
        COSIM_MAX_PEAK,
        "cosim max peak {peak} K, golden {} K",
        f64::from_bits(COSIM_MAX_PEAK)
    );
}
