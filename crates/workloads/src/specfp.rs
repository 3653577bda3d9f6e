//! SPECfp2000-class kernels: stencil sweeps, neural-net dot products, and
//! sparse gathers. Floating-point values are always full-width, and the
//! working sets stream from L2/DRAM — which is why the paper's FP group
//! sees the smallest (29.5 %) speedup.

use crate::{Suite, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use th_isa::{Assembler, Reg};

/// `swim`-like: a 1-D three-point stencil swept over a 2 MB f64 field —
/// streaming FP with every line touched once.
pub(crate) fn swim_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x73_77_69);
    let n = 256 * 1024usize; // 2 MB
    a.data_f64s("field", (0..n).map(|_| rng.gen_range(0.0..1.0)));
    a.data_zeros("out", n * 8);

    a.la(Reg::X5, "field");
    a.la(Reg::X6, "out");
    a.li(Reg::X7, (n - 2) as i64 / 8); // process every 8th point: one per line
    // Stencil coefficients 0.25, 0.5, 0.25.
    a.li(Reg::X8, 1);
    a.fcvtdl(Reg::F10, Reg::X8);
    a.li(Reg::X8, 4);
    a.fcvtdl(Reg::F11, Reg::X8);
    a.fdiv(Reg::F10, Reg::F10, Reg::F11); // 0.25
    a.fadd(Reg::F12, Reg::F10, Reg::F10); // 0.5
    a.label("loop");
    a.fld(Reg::F1, 0, Reg::X5);
    a.fld(Reg::F2, 8, Reg::X5);
    a.fld(Reg::F3, 16, Reg::X5);
    a.fmul(Reg::F1, Reg::F1, Reg::F10);
    a.fmul(Reg::F2, Reg::F2, Reg::F12);
    a.fmul(Reg::F3, Reg::F3, Reg::F10);
    a.fadd(Reg::F4, Reg::F1, Reg::F2);
    a.fadd(Reg::F4, Reg::F4, Reg::F3);
    a.fsd(Reg::F4, 8, Reg::X6);
    a.addi(Reg::X5, Reg::X5, 64);
    a.addi(Reg::X6, Reg::X6, 64);
    a.addi(Reg::X7, Reg::X7, -1);
    a.bne(Reg::X7, Reg::X0, "loop");
    a.fcvtld(Reg::X28, Reg::F4);
    a.halt();

    Workload {
        name: "swim-like",
        suite: Suite::SpecFp,
        program: a.assemble().expect("swim-like assembles"),
        inst_budget: 600_000,
    }
}

/// `art`-like: repeated dot products against an L2-resident weight matrix
/// (neural-network F1 layer) — FP compute with L1-miss traffic.
pub(crate) fn art_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x61_72_74);
    let neurons = 64usize;
    let inputs = 256usize;
    let weights: Vec<f64> =
        (0..neurons * inputs).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let input: Vec<f64> = (0..inputs).map(|_| rng.gen_range(0.0..1.0)).collect();
    a.data_f64s("weights", weights);
    a.data_f64s("input", input);
    a.data_zeros("activations", neurons * 8);

    a.li(Reg::X20, 5); // epochs
    a.label("epoch");
    a.la(Reg::X5, "weights");
    a.la(Reg::X7, "activations");
    a.li(Reg::X8, neurons as i64);
    a.label("neuron");
    a.la(Reg::X6, "input");
    a.li(Reg::X9, inputs as i64 / 4);
    a.fmvdx(Reg::F4, Reg::X0); // accumulator = 0
    a.label("dot");
    a.fld(Reg::F1, 0, Reg::X5);
    a.fld(Reg::F2, 0, Reg::X6);
    a.fmul(Reg::F3, Reg::F1, Reg::F2);
    a.fadd(Reg::F4, Reg::F4, Reg::F3);
    a.fld(Reg::F1, 8, Reg::X5);
    a.fld(Reg::F2, 8, Reg::X6);
    a.fmul(Reg::F3, Reg::F1, Reg::F2);
    a.fadd(Reg::F4, Reg::F4, Reg::F3);
    a.fld(Reg::F1, 16, Reg::X5);
    a.fld(Reg::F2, 16, Reg::X6);
    a.fmul(Reg::F3, Reg::F1, Reg::F2);
    a.fadd(Reg::F4, Reg::F4, Reg::F3);
    a.fld(Reg::F1, 24, Reg::X5);
    a.fld(Reg::F2, 24, Reg::X6);
    a.fmul(Reg::F3, Reg::F1, Reg::F2);
    a.fadd(Reg::F4, Reg::F4, Reg::F3);
    a.addi(Reg::X5, Reg::X5, 32);
    a.addi(Reg::X6, Reg::X6, 32);
    a.addi(Reg::X9, Reg::X9, -1);
    a.bne(Reg::X9, Reg::X0, "dot");
    a.fsd(Reg::F4, 0, Reg::X7);
    a.addi(Reg::X7, Reg::X7, 8);
    a.addi(Reg::X8, Reg::X8, -1);
    a.bne(Reg::X8, Reg::X0, "neuron");
    a.addi(Reg::X20, Reg::X20, -1);
    a.bne(Reg::X20, Reg::X0, "epoch");
    a.fcvtld(Reg::X28, Reg::F4);
    a.halt();

    Workload {
        name: "art-like",
        suite: Suite::SpecFp,
        program: a.assemble().expect("art-like assembles"),
        inst_budget: 800_000,
    }
}

/// `equake`-like: sparse matrix-vector product — indirect integer indexing
/// feeding FP accumulation, with a 4 MB-class combined working set.
pub(crate) fn equake_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x65_71_75);
    let nnz = 16_000usize;
    let ncols = 128 * 1024usize; // 1 MB vector
    a.data_u64s("cols", (0..nnz).map(|_| rng.gen_range(0..ncols as u64)));
    a.data_f64s("vals", (0..nnz).map(|_| rng.gen_range(-1.0..1.0)));
    a.data_f64s("vec", (0..ncols).map(|_| rng.gen_range(0.0..1.0)));

    a.li(Reg::X29, 3); // solver iterations
    a.fmvdx(Reg::F4, Reg::X0);
    a.label("iter");
    a.la(Reg::X5, "cols");
    a.la(Reg::X6, "vals");
    a.la(Reg::X7, "vec");
    a.li(Reg::X8, nnz as i64);
    a.label("loop");
    a.ld(Reg::X9, 0, Reg::X5); // column index
    a.slli(Reg::X9, Reg::X9, 3);
    a.add(Reg::X9, Reg::X9, Reg::X7);
    a.fld(Reg::F1, 0, Reg::X9); // gather
    a.fld(Reg::F2, 0, Reg::X6);
    a.fmul(Reg::F3, Reg::F1, Reg::F2);
    a.fadd(Reg::F4, Reg::F4, Reg::F3);
    a.addi(Reg::X5, Reg::X5, 8);
    a.addi(Reg::X6, Reg::X6, 8);
    a.addi(Reg::X8, Reg::X8, -1);
    a.bne(Reg::X8, Reg::X0, "loop");
    a.addi(Reg::X29, Reg::X29, -1);
    a.bne(Reg::X29, Reg::X0, "iter");
    a.fcvtld(Reg::X28, Reg::F4);
    a.halt();

    Workload {
        name: "equake-like",
        suite: Suite::SpecFp,
        program: a.assemble().expect("equake-like assembles"),
        inst_budget: 700_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use th_isa::Machine;

    #[test]
    fn swim_writes_smoothed_field() {
        let w = swim_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        let out = w.program.label("out").unwrap();
        let v = f64::from_bits(m.mem().read_u64(out + 8));
        assert!(v > 0.0 && v < 1.0, "smoothed value {v}");
    }

    #[test]
    fn art_activations_are_finite() {
        let w = art_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        let act = w.program.label("activations").unwrap();
        for i in 0..64u64 {
            let v = f64::from_bits(m.mem().read_u64(act + i * 8));
            assert!(v.is_finite(), "activation {i} = {v}");
            assert!(v.abs() < 512.0);
        }
    }

    #[test]
    fn equake_dot_product_matches_reference() {
        let w = equake_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        // Recompute the sparse dot product from the memory image.
        let cols = w.program.label("cols").unwrap();
        let vals = w.program.label("vals").unwrap();
        let vec = w.program.label("vec").unwrap();
        let mut acc = 0.0f64;
        for _ in 0..3 {
            for i in 0..16_000u64 {
                let c = m.mem().read_u64(cols + i * 8);
                let v = f64::from_bits(m.mem().read_u64(vals + i * 8));
                let x = f64::from_bits(m.mem().read_u64(vec + c * 8));
                acc += v * x;
            }
        }
        assert_eq!(m.reg(Reg::X28), acc as i64 as u64);
    }
}
