//! MediaBench-class kernels: DCT-based video encoding, ADPCM speech
//! coding, JPEG quantisation, and GSM-style LPC filtering. Media data is 8/16-bit, so these kernels
//! are the richest in low-width values — and `mpeg2`-like is the paper's
//! peak-power workload (Figure 9).

use crate::{Suite, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use th_isa::{Assembler, Reg};

/// `gsm`-like: LPC short-term analysis filtering — an 8-tap
/// multiply-accumulate lattice over 16-bit speech samples with
/// saturation checks. Pure 16-bit compute, tiny working set.
pub(crate) fn gsm_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x67_73_6d);
    let n = 6_000usize;
    let mut s = 0i32;
    let samples: Vec<u64> = (0..n)
        .map(|_| {
            s = (s + rng.gen_range(-700..=700)).clamp(-20_000, 20_000);
            (s as i64) as u64
        })
        .collect();
    let coeffs: Vec<u64> = [13, -27, 42, -57, 57, -42, 27, -13]
        .iter()
        .map(|&c: &i64| c as u64)
        .collect();
    a.data_u64s("samples", samples);
    a.data_u64s("coeffs", coeffs);
    a.data_zeros("filtered", n * 8);

    a.la(Reg::X5, "samples");
    a.la(Reg::X6, "filtered");
    a.li(Reg::X7, (n - 8) as i64);
    a.la(Reg::X8, "coeffs");
    // Load the 8 filter taps once.
    for (i, reg) in [Reg::X16, Reg::X17, Reg::X18, Reg::X19, Reg::X20, Reg::X21, Reg::X22, Reg::X23]
        .into_iter()
        .enumerate()
    {
        a.ld(reg, (i * 8) as i32, Reg::X8);
    }
    a.li(Reg::X24, 32767); // saturation bound
    a.li(Reg::X29, 2); // analysis passes (short-term then long-term)
    a.label("pass");
    a.la(Reg::X5, "samples");
    a.la(Reg::X6, "filtered");
    a.li(Reg::X7, (n - 8) as i64);
    a.label("loop");
    // 8-tap MAC, fully unrolled.
    a.ld(Reg::X9, 0, Reg::X5);
    a.mul(Reg::X10, Reg::X9, Reg::X16);
    a.ld(Reg::X9, 8, Reg::X5);
    a.mul(Reg::X11, Reg::X9, Reg::X17);
    a.add(Reg::X10, Reg::X10, Reg::X11);
    a.ld(Reg::X9, 16, Reg::X5);
    a.mul(Reg::X11, Reg::X9, Reg::X18);
    a.add(Reg::X10, Reg::X10, Reg::X11);
    a.ld(Reg::X9, 24, Reg::X5);
    a.mul(Reg::X11, Reg::X9, Reg::X19);
    a.add(Reg::X10, Reg::X10, Reg::X11);
    a.ld(Reg::X9, 32, Reg::X5);
    a.mul(Reg::X11, Reg::X9, Reg::X20);
    a.add(Reg::X10, Reg::X10, Reg::X11);
    a.ld(Reg::X9, 40, Reg::X5);
    a.mul(Reg::X11, Reg::X9, Reg::X21);
    a.add(Reg::X10, Reg::X10, Reg::X11);
    a.ld(Reg::X9, 48, Reg::X5);
    a.mul(Reg::X11, Reg::X9, Reg::X22);
    a.add(Reg::X10, Reg::X10, Reg::X11);
    a.ld(Reg::X9, 56, Reg::X5);
    a.mul(Reg::X11, Reg::X9, Reg::X23);
    a.add(Reg::X10, Reg::X10, Reg::X11);
    // Rescale and saturate to 16 bits.
    a.srai(Reg::X10, Reg::X10, 7);
    a.blt(Reg::X10, Reg::X24, "no_sat_hi");
    a.mv(Reg::X10, Reg::X24);
    a.label("no_sat_hi");
    a.sub(Reg::X12, Reg::X0, Reg::X24);
    a.bge(Reg::X10, Reg::X12, "no_sat_lo");
    a.mv(Reg::X10, Reg::X12);
    a.label("no_sat_lo");
    a.sd(Reg::X10, 0, Reg::X6);
    a.addi(Reg::X5, Reg::X5, 8);
    a.addi(Reg::X6, Reg::X6, 8);
    a.addi(Reg::X7, Reg::X7, -1);
    a.bne(Reg::X7, Reg::X0, "loop");
    a.addi(Reg::X29, Reg::X29, -1);
    a.bne(Reg::X29, Reg::X0, "pass");
    a.mv(Reg::X28, Reg::X10);
    a.halt();

    Workload {
        name: "gsm-like",
        suite: Suite::Media,
        program: a.assemble().expect("gsm-like assembles"),
        inst_budget: 600_000,
    }
}

/// `mpeg2`-encode-like: 1-D 8-point integer DCT butterflies applied to
/// every row of 8×8 pixel blocks — compute-bound, high-ILP, 16-bit data.
pub(crate) fn mpeg2_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x6d_70_67);
    // A cache-resident frame slice processed repeatedly (motion search
    // revisits reference blocks many times in a real encoder).
    let blocks = 80usize;
    let pixels: Vec<u8> = (0..blocks * 64).map(|_| rng.gen()).collect();
    a.data_bytes("pixels", &pixels);
    a.data_zeros("coeffs", blocks * 64 * 2);

    a.li(Reg::X29, 10); // encoding passes
    a.label("pass");
    a.la(Reg::X5, "pixels");
    a.la(Reg::X6, "coeffs");
    a.li(Reg::X7, (blocks * 8) as i64); // rows of 8 pixels
    a.label("row");
    // Load 8 pixels.
    a.lbu(Reg::X10, 0, Reg::X5);
    a.lbu(Reg::X11, 1, Reg::X5);
    a.lbu(Reg::X12, 2, Reg::X5);
    a.lbu(Reg::X13, 3, Reg::X5);
    a.lbu(Reg::X14, 4, Reg::X5);
    a.lbu(Reg::X15, 5, Reg::X5);
    a.lbu(Reg::X16, 6, Reg::X5);
    a.lbu(Reg::X17, 7, Reg::X5);
    // Stage 1 butterflies: s[i] = x[i] + x[7-i], d[i] = x[i] - x[7-i].
    a.add(Reg::X18, Reg::X10, Reg::X17);
    a.sub(Reg::X19, Reg::X10, Reg::X17);
    a.add(Reg::X20, Reg::X11, Reg::X16);
    a.sub(Reg::X21, Reg::X11, Reg::X16);
    a.add(Reg::X22, Reg::X12, Reg::X15);
    a.sub(Reg::X23, Reg::X12, Reg::X15);
    a.add(Reg::X24, Reg::X13, Reg::X14);
    a.sub(Reg::X25, Reg::X13, Reg::X14);
    // Stage 2.
    a.add(Reg::X10, Reg::X18, Reg::X24);
    a.sub(Reg::X11, Reg::X18, Reg::X24);
    a.add(Reg::X12, Reg::X20, Reg::X22);
    a.sub(Reg::X13, Reg::X20, Reg::X22);
    // Stage 3 with scaled rotations (integer approximation).
    a.add(Reg::X14, Reg::X10, Reg::X12); // DC
    a.sub(Reg::X15, Reg::X10, Reg::X12);
    a.slli(Reg::X16, Reg::X11, 1);
    a.add(Reg::X16, Reg::X16, Reg::X13);
    a.slli(Reg::X17, Reg::X19, 1);
    a.add(Reg::X17, Reg::X17, Reg::X21);
    a.add(Reg::X17, Reg::X17, Reg::X23);
    a.add(Reg::X17, Reg::X17, Reg::X25);
    // Store 4 coefficients (16-bit).
    a.sh(Reg::X14, 0, Reg::X6);
    a.sh(Reg::X15, 2, Reg::X6);
    a.sh(Reg::X16, 4, Reg::X6);
    a.sh(Reg::X17, 6, Reg::X6);
    a.addi(Reg::X5, Reg::X5, 8);
    a.addi(Reg::X6, Reg::X6, 16);
    a.addi(Reg::X7, Reg::X7, -1);
    a.bne(Reg::X7, Reg::X0, "row");
    a.addi(Reg::X29, Reg::X29, -1);
    a.bne(Reg::X29, Reg::X0, "pass");
    a.mv(Reg::X28, Reg::X14);
    a.halt();

    Workload {
        name: "mpeg2-like",
        suite: Suite::Media,
        program: a.assemble().expect("mpeg2-like assembles"),
        inst_budget: 300_000,
    }
}

/// `adpcm`-like: adaptive step-size speech coder — byte samples, a
/// data-dependent branch per sample, tiny working set.
pub(crate) fn adpcm_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x61_64_70);
    let n = 20_000usize;
    // Smooth-ish waveform: random walk clamped to i8.
    let mut s = 0i32;
    let samples: Vec<u8> = (0..n)
        .map(|_| {
            s = (s + rng.gen_range(-9..=9)).clamp(-120, 120);
            s as i8 as u8
        })
        .collect();
    a.data_bytes("samples", &samples);
    a.data_zeros("encoded", n);

    a.la(Reg::X5, "samples");
    a.la(Reg::X6, "encoded");
    a.li(Reg::X7, n as i64);
    a.li(Reg::X10, 0); // predictor
    a.li(Reg::X11, 4); // step
    a.label("loop");
    a.lb(Reg::X12, 0, Reg::X5);
    a.sub(Reg::X13, Reg::X12, Reg::X10); // diff
    a.blt(Reg::X13, Reg::X0, "neg");
    // diff >= 0: code = diff / step (clamped), grow step.
    a.div(Reg::X14, Reg::X13, Reg::X11);
    a.addi(Reg::X11, Reg::X11, 1);
    a.jmp("emit");
    a.label("neg");
    a.sub(Reg::X13, Reg::X0, Reg::X13);
    a.div(Reg::X14, Reg::X13, Reg::X11);
    a.sub(Reg::X14, Reg::X0, Reg::X14);
    a.srai(Reg::X11, Reg::X11, 1);
    a.ori(Reg::X11, Reg::X11, 2); // keep step ≥ 2
    a.label("emit");
    a.sb(Reg::X14, 0, Reg::X6);
    // Reconstruct predictor: pred += code * step.
    a.mul(Reg::X15, Reg::X14, Reg::X11);
    a.add(Reg::X10, Reg::X10, Reg::X15);
    a.addi(Reg::X5, Reg::X5, 1);
    a.addi(Reg::X6, Reg::X6, 1);
    a.addi(Reg::X7, Reg::X7, -1);
    a.bne(Reg::X7, Reg::X0, "loop");
    a.mv(Reg::X28, Reg::X10);
    a.halt();

    Workload {
        name: "adpcm-like",
        suite: Suite::Media,
        program: a.assemble().expect("adpcm-like assembles"),
        inst_budget: 400_000,
    }
}

/// `jpeg`-like: coefficient quantisation — multiply/shift on 16-bit data
/// against a 64-entry quantisation table.
pub(crate) fn jpeg_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x6a_70_67);
    // An L1/L2-resident coefficient batch re-quantised at several quality
    // levels, as an encoder's rate-control loop does.
    let n = 8_000usize;
    let coeffs: Vec<u64> = (0..n).map(|_| (rng.gen::<i16>() / 8) as i64 as u64).collect();
    let qtable: Vec<u64> = (0..64).map(|i| 8 + (i as u64 * 3) % 24).collect();
    a.data_u64s("coeffs", coeffs);
    a.data_u64s("qtable", qtable);
    a.data_zeros("quant", n * 8);

    a.li(Reg::X29, 3); // quality levels
    a.label("pass");
    a.la(Reg::X5, "coeffs");
    a.la(Reg::X6, "qtable");
    a.la(Reg::X7, "quant");
    a.li(Reg::X8, n as i64);
    a.li(Reg::X9, 0); // position within block (0..64)
    a.label("loop");
    a.ld(Reg::X10, 0, Reg::X5);
    a.slli(Reg::X11, Reg::X9, 3);
    a.add(Reg::X11, Reg::X11, Reg::X6);
    a.ld(Reg::X12, 0, Reg::X11); // quantiser
    a.div(Reg::X13, Reg::X10, Reg::X12);
    a.sd(Reg::X13, 0, Reg::X7);
    a.addi(Reg::X9, Reg::X9, 1);
    a.andi(Reg::X9, Reg::X9, 63);
    a.addi(Reg::X5, Reg::X5, 8);
    a.addi(Reg::X7, Reg::X7, 8);
    a.addi(Reg::X8, Reg::X8, -1);
    a.bne(Reg::X8, Reg::X0, "loop");
    a.addi(Reg::X29, Reg::X29, -1);
    a.bne(Reg::X29, Reg::X0, "pass");
    a.mv(Reg::X28, Reg::X13);
    a.halt();

    Workload {
        name: "jpeg-like",
        suite: Suite::Media,
        program: a.assemble().expect("jpeg-like assembles"),
        inst_budget: 400_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use th_isa::Machine;

    #[test]
    fn mpeg2_dc_coefficient_is_pixel_sum() {
        let w = mpeg2_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        // DC of the first row = sum of its 8 pixels (by construction of
        // the butterfly network).
        let pixels = w.program.label("pixels").unwrap();
        let coeffs = w.program.label("coeffs").unwrap();
        let sum: u16 = (0..8).map(|i| m.mem().read_u8(pixels + i) as u16).sum();
        assert_eq!(m.mem().read_u16(coeffs), sum);
    }

    #[test]
    fn adpcm_tracks_waveform() {
        let w = adpcm_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        // The predictor must stay in the vicinity of the waveform range.
        let pred = m.reg(Reg::X28) as i64;
        assert!(pred.abs() < 1024, "predictor diverged: {pred}");
    }

    #[test]
    fn gsm_filter_output_is_saturated_16_bit() {
        let w = gsm_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        let out = w.program.label("filtered").unwrap();
        for i in 0..500u64 {
            let v = m.mem().read_u64(out + i * 8) as i64;
            assert!((-32767..=32767).contains(&v), "sample {i} = {v}");
        }
    }

    #[test]
    fn jpeg_quantisation_matches_reference() {
        let w = jpeg_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        let coeffs = w.program.label("coeffs").unwrap();
        let qtable = w.program.label("qtable").unwrap();
        let quant = w.program.label("quant").unwrap();
        for i in 0..200u64 {
            let c = m.mem().read_u64(coeffs + i * 8) as i64;
            let q = m.mem().read_u64(qtable + (i % 64) * 8) as i64;
            let got = m.mem().read_u64(quant + i * 8) as i64;
            assert_eq!(got, c.wrapping_div(q), "coeff {i}");
        }
    }
}
