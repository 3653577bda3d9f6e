//! The activity ledger is *event-sourced*: every cell is incremented at
//! the pipeline access site that burned the energy. The legacy scalar
//! width-split counters are incremented at the same sites, so for any
//! program the ledger rows must reproduce them exactly — `rf_reads_low +
//! rf_writes_low == Σ_die RegFile.low`, and every full access touches all
//! four dies (`Σ_die row.full == 4 × full accesses`). These proptests pin
//! that contract on random programs for both engines.

use crate::core::CoreEngine;
use crate::{SimConfig, SimStats, Simulator};
use proptest::prelude::*;
use th_isa::parse_asm;
use th_stack3d::{Unit, DIES};

fn run_stats(src: &str, cfg: SimConfig, engine: CoreEngine, budget: u64) -> SimStats {
    let program = parse_asm(src).expect("assembles");
    Simulator::new(cfg).with_engine(engine).run(&program, budget).expect("runs").stats
}

/// Sum of a ledger row's gated accesses.
fn low_sum(stats: &SimStats, unit: Unit) -> u64 {
    stats.activity.row(unit).iter().map(|c| c.low).sum()
}

/// Sum of a ledger row's full-access die-touches.
fn full_sum(stats: &SimStats, unit: Unit) -> u64 {
    stats.activity.row(unit).iter().map(|c| c.full).sum()
}

/// The exact ledger-vs-scalar identities. `herding` mirrors the config:
/// with herding off no access is ever gated, so every legacy low counter
/// shows up as full die-touches instead.
fn assert_rows_match_counters(stats: &SimStats, herding: bool, ctx: &str) {
    let dies = DIES as u64;
    // (unit, legacy gated count, legacy full count)
    let expected = [
        (Unit::RegFile, stats.rf_reads_low + stats.rf_writes_low,
         stats.rf_reads_full + stats.rf_writes_full),
        (Unit::Rob, stats.rob_reads_low + stats.rob_writes_low,
         stats.rob_reads_full + stats.rob_writes_full),
        (Unit::IntExec, stats.int_ops_low, stats.int_ops_full),
        (Unit::Bypass, stats.bypass_low, stats.bypass_full),
        (Unit::FpExec, 0, stats.fp_ops),
    ];
    for (unit, gated, full) in expected {
        let (want_low, want_full) =
            if herding { (gated, full) } else { (0, gated + full) };
        assert_eq!(low_sum(stats, unit), want_low, "{ctx}: {unit} low");
        assert_eq!(full_sum(stats, unit), dies * want_full, "{ctx}: {unit} full");
        // Gated accesses land only on the top die (die 0).
        let row = stats.activity.row(unit);
        assert!(row[1..].iter().all(|c| c.low == 0), "{ctx}: {unit} gated off-top");
    }
    // LSQ: a gated search is exactly a PAM match (§3.5); the PAM only
    // broadcasts when enabled, which the herding presets turn on.
    if herding {
        assert_eq!(low_sum(stats, Unit::Lsq), stats.pam.matches, "{ctx}: Lsq low");
    } else {
        assert_eq!(low_sum(stats, Unit::Lsq), 0, "{ctx}: Lsq low");
    }
    // Front-end arrays are never width-gated: pure full-access rows.
    for unit in [Unit::ICache, Unit::Itlb, Unit::Decode, Unit::Rename, Unit::Dtlb] {
        assert_eq!(low_sum(stats, unit), 0, "{ctx}: {unit} low");
        assert_eq!(full_sum(stats, unit) % dies, 0, "{ctx}: {unit} uneven touches");
    }
    assert_eq!(dies * stats.icache_accesses, full_sum(stats, Unit::ICache), "{ctx}: ICache");
    assert_eq!(dies * stats.itlb_accesses, full_sum(stats, Unit::Itlb), "{ctx}: Itlb");
    assert_eq!(dies * stats.dtlb_accesses, full_sum(stats, Unit::Dtlb), "{ctx}: Dtlb");
    assert_eq!(dies * stats.fetched, full_sum(stats, Unit::Decode), "{ctx}: Decode");
}

/// Emits one loop-body instruction for the random program generator
/// (mirrors `engine_equivalence.rs`, trimmed to the width-relevant mix).
fn push_body_inst(out: &mut String, kind: u8, a: u8, b: u8, imm: i16) {
    let d = 1 + (a % 8);
    let s = 1 + (b % 8);
    let t = 1 + ((a ^ b) % 8);
    let off8 = ((imm as i32 & 0x1ff) * 8).rem_euclid(4088);
    match kind % 10 {
        0 => out.push_str(&format!("    add  x{d}, x{s}, x{t}\n")),
        1 => out.push_str(&format!("    sub  x{d}, x{s}, x{t}\n")),
        2 => out.push_str(&format!("    addi x{d}, x{s}, {}\n", imm as i32 % 2048)),
        3 => out.push_str(&format!("    mul  x{d}, x{s}, x{t}\n")),
        4 => out.push_str(&format!("    slli x{d}, x{s}, {}\n", b % 64)),
        5 => out.push_str(&format!("    srli x{d}, x{s}, {}\n", a % 64)),
        6 => out.push_str(&format!("    ld   x{d}, {off8}(x9)\n")),
        7 => out.push_str(&format!("    sd   x{s}, {off8}(x9)\n")),
        8 => out.push_str(&format!(
            "    fadd f{}, f{}, f{}\n",
            1 + (a % 3),
            1 + (b % 3),
            1 + ((a ^ b) % 3)
        )),
        _ => out.push_str(&format!(
            "    fmul f{}, f{}, f{}\n",
            1 + (a % 3),
            1 + (b % 3),
            1 + ((a ^ b) % 3)
        )),
    }
}

fn build_program(seeds: &[u64], body: &[(u8, u8, u8, i16)], iters: u16) -> String {
    let mut src = String::from("    .zeros buf 4096\n    la   x9, buf\n");
    for (i, &v) in seeds.iter().enumerate().take(8) {
        src.push_str(&format!("    li   x{}, {}\n", i + 1, v as i64));
    }
    src.push_str("    fcvt.d.l f1, x1\n    fcvt.d.l f2, x2\n    fcvt.d.l f3, x3\n");
    src.push_str(&format!("    li   x20, 0\n    li   x21, {}\nloop:\n", 50 + iters % 200));
    for &(kind, a, b, imm) in body {
        push_body_inst(&mut src, kind, a, b, imm);
    }
    src.push_str("    addi x20, x20, 1\n    bne  x20, x21, loop\n    halt\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ledger_rows_reproduce_scalar_counters(
        seeds in proptest::collection::vec(any::<u64>(), 8),
        body in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<i16>()), 2..12),
        iters in any::<u16>(),
        herding in any::<bool>(),
        event_engine in any::<bool>(),
    ) {
        let cfg = if herding { SimConfig::thermal_herding() } else { SimConfig::baseline() };
        let engine = if event_engine { CoreEngine::Event } else { CoreEngine::Scan };
        let src = build_program(&seeds, &body, iters);
        let stats = run_stats(&src, cfg, engine, 4_000);
        assert_rows_match_counters(&stats, herding, &format!("herding={herding}"));
    }
}

#[test]
fn fixed_kernel_rows_match_on_both_engines() {
    const KERNEL: &str = "
        .zeros buf 64
        la   x9, buf
        li   x10, 0
        li   x11, 2000
    loop:
        sd   x10, 0(x9)
        ld   x3, 0(x9)
        mul  x4, x3, x10
        addi x10, x10, 1
        bne  x10, x11, loop
        halt
    ";
    for cfg in [SimConfig::baseline(), SimConfig::thermal_herding(), SimConfig::three_d(3.93)] {
        let herding = cfg.herding.enabled;
        for engine in [CoreEngine::Scan, CoreEngine::Event] {
            let stats = run_stats(KERNEL, cfg, engine, 20_000);
            assert!(!stats.activity.is_empty(), "ledger recorded nothing");
            assert_rows_match_counters(
                &stats,
                herding,
                &format!("kernel herding={herding} engine={engine:?}"),
            );
        }
    }
}
