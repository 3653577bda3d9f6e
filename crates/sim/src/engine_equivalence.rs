//! The event-driven engine must be *statistically invisible*: for any
//! program and configuration, `CoreEngine::Event` and `CoreEngine::Scan`
//! produce bit-identical [`SimStats`]. The scan engine is the reference
//! oracle; these tests drive both over fixed kernels and proptest-random
//! programs/configurations.

use crate::core::CoreEngine;
use crate::{SimConfig, SimStats, Simulator};
use proptest::prelude::*;
use th_isa::parse_asm;

/// Runs `src` under one engine, optionally with a warmup window.
fn run_stats(src: &str, cfg: SimConfig, engine: CoreEngine, warmup: u64, budget: u64) -> SimStats {
    let program = parse_asm(src).expect("assembles");
    let sim = Simulator::new(cfg).with_engine(engine);
    let result = if warmup > 0 {
        sim.run_with_warmup(&program, warmup, budget)
    } else {
        sim.run(&program, budget)
    };
    result.expect("runs").stats
}

/// Asserts both engines agree on every counter for `src` × `cfg`.
fn assert_equivalent(src: &str, cfg: SimConfig, warmup: u64, budget: u64) {
    let scan = run_stats(src, cfg, CoreEngine::Scan, warmup, budget);
    let event = run_stats(src, cfg, CoreEngine::Event, warmup, budget);
    assert_eq!(scan, event, "engines diverged (warmup {warmup}, budget {budget})");
}

/// The paper's design-point configurations plus structural stress points
/// (tiny queues force every stall path; narrow machines serialize issue).
fn config_pool() -> Vec<SimConfig> {
    let mut cfgs = vec![
        SimConfig::baseline(),
        SimConfig::thermal_herding(),
        SimConfig::pipe(),
        SimConfig::fast(3.93),
        SimConfig::three_d(3.93),
    ];
    let mut tiny = SimConfig::baseline();
    tiny.core.rob_size = 8;
    tiny.core.rs_size = 4;
    tiny.core.ifq_size = 8;
    tiny.core.lq_size = 2;
    tiny.core.sq_size = 2;
    tiny.core.fetch_width = 2;
    tiny.core.decode_width = 2;
    tiny.core.commit_width = 1;
    tiny.core.issue_width = 2;
    cfgs.push(tiny);
    let mut tiny_th = SimConfig::three_d(3.93);
    tiny_th.core.rob_size = 16;
    tiny_th.core.rs_size = 8;
    tiny_th.core.sq_size = 3;
    tiny_th.pipeline.frontend_depth = 3;
    tiny_th.pipeline.redirect_extra = 0;
    cfgs.push(tiny_th);
    let mut narrow = SimConfig::thermal_herding();
    narrow.core.issue_width = 1;
    narrow.core.int_alu = 1;
    narrow.core.int_shift = 1;
    narrow.core.load_only_ports = 0;
    cfgs.push(narrow);
    cfgs
}

const DEP_CHAIN: &str = "
    li   x10, 0
    li   x11, 3000
loop:
    add  x1, x1, x10
    add  x1, x1, x10
    mul  x2, x1, x10
    addi x10, x10, 1
    bne  x10, x11, loop
    halt
";

const MEM_BOUND: &str = "
    li   x1, 0x100000
    li   x2, 0x500000
loop:
    ld   x3, 0(x1)
    add  x4, x4, x3
    addi x1, x1, 64
    bne  x1, x2, loop
    halt
";

const STORE_FORWARD: &str = "
    .zeros buf 64
    la   x9, buf
    li   x10, 0
    li   x11, 2000
loop:
    sd   x10, 0(x9)
    ld   x3, 0(x9)
    addi x10, x10, 1
    bne  x10, x11, loop
    halt
";

const DIV_AND_FP: &str = "
    li   x1, 7
    li   x2, 123456789
    fcvt.d.l f1, x1
    fcvt.d.l f2, x2
    li   x10, 0
    li   x11, 500
loop:
    div  x3, x2, x1
    rem  x4, x2, x1
    fdiv f3, f2, f1
    fadd f2, f2, f3
    addi x10, x10, 1
    bne  x10, x11, loop
    halt
";

const BRANCHY: &str = "
    li   x10, 0
    li   x11, 3000
    li   x12, 12345
    li   x15, 6364136223846793005
loop:
    mul  x12, x12, x15
    addi x12, x12, 1442695041
    srli x13, x12, 17
    andi x13, x13, 1
    beq  x13, x0, skip
    addi x14, x14, 1
skip:
    addi x10, x10, 1
    bne  x10, x11, loop
    halt
";

#[test]
fn fixed_kernels_match_on_every_config() {
    for cfg in config_pool() {
        for src in [DEP_CHAIN, MEM_BOUND, STORE_FORWARD, DIV_AND_FP, BRANCHY] {
            assert_equivalent(src, cfg, 0, 20_000);
        }
    }
}

#[test]
fn warmup_windows_match() {
    for cfg in [SimConfig::baseline(), SimConfig::three_d(3.93)] {
        for src in [MEM_BOUND, STORE_FORWARD, BRANCHY] {
            assert_equivalent(src, cfg, 1_000, 6_000);
        }
    }
}

#[test]
fn tiny_budgets_match() {
    // Budget-exhaustion exits mid-pipeline; the cycle count at the exit
    // must agree exactly.
    for budget in [1, 2, 3, 7, 50, 333] {
        assert_equivalent(BRANCHY, SimConfig::thermal_herding(), 0, budget);
        assert_equivalent(STORE_FORWARD, SimConfig::baseline(), 0, budget);
    }
}

/// Emits one loop-body instruction for the random program generator.
/// Destinations stay in x1..x8 / f1..f3; x9 is the buffer base, x20/x21
/// the loop counter and bound.
fn push_body_inst(out: &mut String, kind: u8, a: u8, b: u8, imm: i16, tag: usize) {
    let d = 1 + (a % 8); // x1..x8
    let s = 1 + (b % 8);
    let t = 1 + ((a ^ b) % 8);
    let off8 = ((imm as i32 & 0x1ff) * 8).rem_euclid(4088);
    match kind % 14 {
        0 => out.push_str(&format!("    add  x{d}, x{s}, x{t}\n")),
        1 => out.push_str(&format!("    sub  x{d}, x{s}, x{t}\n")),
        2 => out.push_str(&format!("    addi x{d}, x{s}, {}\n", imm as i32 % 2048)),
        3 => out.push_str(&format!("    and  x{d}, x{s}, x{t}\n")),
        4 => out.push_str(&format!("    mul  x{d}, x{s}, x{t}\n")),
        5 => out.push_str(&format!("    div  x{d}, x{s}, x{t}\n")),
        6 => out.push_str(&format!("    slli x{d}, x{s}, {}\n", b % 64)),
        7 => out.push_str(&format!("    srli x{d}, x{s}, {}\n", a % 64)),
        8 => out.push_str(&format!("    ld   x{d}, {off8}(x9)\n")),
        9 => out.push_str(&format!("    sd   x{s}, {off8}(x9)\n")),
        10 => {
            // A data-dependent forward branch over one instruction.
            out.push_str(&format!("    andi x{t}, x{s}, {}\n", 1 + (imm as i32 & 7)));
            out.push_str(&format!("    beq  x{t}, x0, fwd{tag}\n"));
            out.push_str(&format!("    addi x{d}, x{d}, 1\n"));
            out.push_str(&format!("fwd{tag}:\n"));
        }
        11 => out.push_str(&format!("    fadd f{}, f{}, f{}\n", 1 + (a % 3), 1 + (b % 3), 1 + ((a ^ b) % 3))),
        12 => out.push_str(&format!("    fmul f{}, f{}, f{}\n", 1 + (a % 3), 1 + (b % 3), 1 + ((a ^ b) % 3))),
        _ => out.push_str(&format!("    fdiv f{}, f{}, f{}\n", 1 + (a % 3), 1 + (b % 3), 1 + ((a ^ b) % 3))),
    }
}

/// Builds a random halting program: a prologue seeding x1..x8 with mixed
/// widths (and f1..f3), then a counted loop over a random body.
fn build_program(seeds: &[u64], body: &[(u8, u8, u8, i16)], iters: u16) -> String {
    let mut src = String::from("    .zeros buf 4096\n    la   x9, buf\n");
    for (i, &v) in seeds.iter().enumerate().take(8) {
        src.push_str(&format!("    li   x{}, {}\n", i + 1, v as i64));
    }
    src.push_str("    fcvt.d.l f1, x1\n    fcvt.d.l f2, x2\n    fcvt.d.l f3, x3\n");
    src.push_str(&format!("    li   x20, 0\n    li   x21, {}\nloop:\n", 50 + iters % 200));
    for (tag, &(kind, a, b, imm)) in body.iter().enumerate() {
        push_body_inst(&mut src, kind, a, b, imm, tag);
    }
    src.push_str("    addi x20, x20, 1\n    bne  x20, x21, loop\n    halt\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_programs_match(
        seeds in proptest::collection::vec(any::<u64>(), 8),
        body in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<i16>()), 2..12),
        iters in any::<u16>(),
        cfg_pick in any::<u8>(),
        warmup in 0u64..2,
    ) {
        let cfgs = config_pool();
        let cfg = cfgs[cfg_pick as usize % cfgs.len()];
        let src = build_program(&seeds, &body, iters);
        let budget = 4_000;
        let warmup = warmup * 500;
        let scan = run_stats(&src, cfg, CoreEngine::Scan, warmup, budget);
        let event = run_stats(&src, cfg, CoreEngine::Event, warmup, budget);
        prop_assert_eq!(scan, event);
    }
}
