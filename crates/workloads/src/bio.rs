//! BioBench/BioPerf-class kernels: exact k-mer matching over a DNA
//! sequence, Smith-Waterman-style dynamic-programming alignment, and
//! profile-HMM Viterbi scoring. Byte alphabets and 16-bit scores make
//! these low-width-rich, like the media suite, but with more irregular
//! control flow.

use crate::{Suite, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use th_isa::{Assembler, Reg};

/// `hmmer`-like: profile-HMM Viterbi scoring — per sequence position,
/// take the max over match/delete transitions with small log-odds scores.
/// Compute-bound with two data-dependent selects per cell.
pub(crate) fn hmmer_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x68_6d_6d);
    let states = 64usize;
    let seqlen = 500usize;
    // Emission scores per (state, symbol): small signed values.
    let emit: Vec<u64> =
        (0..states * 4).map(|_| rng.gen_range(-8i64..12) as u64).collect();
    let seq: Vec<u8> = (0..seqlen).map(|_| rng.gen::<u8>() % 4).collect();
    a.data_u64s("emit", emit);
    a.data_bytes("seq", &seq);
    a.data_zeros("vprev", states * 8);
    a.data_zeros("vcurr", states * 8);

    a.la(Reg::X5, "seq");
    a.li(Reg::X6, seqlen as i64);
    a.li(Reg::X26, 0); // best path score
    a.label("position");
    a.lbu(Reg::X7, 0, Reg::X5); // symbol
    a.la(Reg::X8, "emit");
    a.slli(Reg::X9, Reg::X7, 3);
    a.add(Reg::X8, Reg::X8, Reg::X9); // &emit[0][sym]; state stride 32 B
    a.la(Reg::X10, "vprev");
    a.la(Reg::X11, "vcurr");
    a.li(Reg::X12, states as i64 - 1);
    a.li(Reg::X13, 0); // diagonal carry (vprev[k-1])
    a.label("state");
    // match = max(vprev[k], vprev[k-1] + 2)
    a.ld(Reg::X14, 0, Reg::X10);
    a.addi(Reg::X15, Reg::X13, 2);
    a.bge(Reg::X14, Reg::X15, "keep");
    a.mv(Reg::X14, Reg::X15);
    a.label("keep");
    // add the emission for this state/symbol
    a.ld(Reg::X16, 0, Reg::X8);
    a.add(Reg::X14, Reg::X14, Reg::X16);
    // delete-path decay: drop by 1, clamp at 0
    a.addi(Reg::X14, Reg::X14, -1);
    a.bge(Reg::X14, Reg::X0, "clamped");
    a.li(Reg::X14, 0);
    a.label("clamped");
    a.sd(Reg::X14, 0, Reg::X11);
    a.ld(Reg::X13, 0, Reg::X10); // new diagonal = old vprev[k]
    a.blt(Reg::X14, Reg::X26, "not_best");
    a.mv(Reg::X26, Reg::X14);
    a.label("not_best");
    a.addi(Reg::X8, Reg::X8, 32); // next state's emission row
    a.addi(Reg::X10, Reg::X10, 8);
    a.addi(Reg::X11, Reg::X11, 8);
    a.addi(Reg::X12, Reg::X12, -1);
    a.bne(Reg::X12, Reg::X0, "state");
    // vprev <- vcurr
    a.la(Reg::X10, "vprev");
    a.la(Reg::X11, "vcurr");
    a.li(Reg::X12, states as i64);
    a.label("copy");
    a.ld(Reg::X14, 0, Reg::X11);
    a.sd(Reg::X14, 0, Reg::X10);
    a.addi(Reg::X10, Reg::X10, 8);
    a.addi(Reg::X11, Reg::X11, 8);
    a.addi(Reg::X12, Reg::X12, -1);
    a.bne(Reg::X12, Reg::X0, "copy");
    a.addi(Reg::X5, Reg::X5, 1);
    a.addi(Reg::X6, Reg::X6, -1);
    a.bne(Reg::X6, Reg::X0, "position");
    a.mv(Reg::X28, Reg::X26);
    a.halt();

    Workload {
        name: "hmmer-like",
        suite: Suite::Bio,
        program: a.assemble().expect("hmmer-like assembles"),
        inst_budget: 800_000,
    }
}

/// `blast`-like seed matching: slide an 8-mer over a DNA sequence using a
/// rolling 2-bit-packed code and count exact seed hits.
pub(crate) fn blast_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x62_6c_61);
    let n = 30_000usize;
    let dna: Vec<u8> = (0..n).map(|_| rng.gen::<u8>() % 4).collect();
    a.data_bytes("dna", &dna);
    // The query seed: the 8-mer starting at a chosen position, so at
    // least one hit is guaranteed.
    let seed_pos = 12_345usize;
    let mut seed_code = 0u64;
    for i in 0..8 {
        seed_code = (seed_code << 2) | dna[seed_pos + i] as u64;
    }

    a.la(Reg::X5, "dna");
    a.li(Reg::X6, n as i64);
    a.li(Reg::X7, seed_code as i64);
    a.li(Reg::X11, 0); // hit count
    a.li(Reg::X12, 0xffff); // 16-bit mask (8 bases × 2 bits)
    a.li(Reg::X29, 2); // database passes (one per query batch)
    a.label("pass");
    a.li(Reg::X9, 0); // rolling code
    a.li(Reg::X10, 0); // position
    a.label("loop");
    a.add(Reg::X13, Reg::X5, Reg::X10);
    a.lbu(Reg::X14, 0, Reg::X13);
    a.slli(Reg::X9, Reg::X9, 2);
    a.or(Reg::X9, Reg::X9, Reg::X14);
    a.and(Reg::X9, Reg::X9, Reg::X12);
    a.bne(Reg::X9, Reg::X7, "miss");
    a.addi(Reg::X11, Reg::X11, 1);
    a.label("miss");
    a.addi(Reg::X10, Reg::X10, 1);
    a.bne(Reg::X10, Reg::X6, "loop");
    a.addi(Reg::X29, Reg::X29, -1);
    a.bne(Reg::X29, Reg::X0, "pass");
    a.mv(Reg::X28, Reg::X11);
    a.halt();

    Workload {
        name: "blast-like",
        suite: Suite::Bio,
        program: a.assemble().expect("blast-like assembles"),
        inst_budget: 650_000,
    }
}

/// Smith-Waterman-like local alignment: the DP inner loop with
/// match/mismatch scoring and a max-with-zero clamp — 16-bit scores,
/// three data-dependent selects per cell.
pub(crate) fn swalign_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x73_77_61);
    let qlen = 48usize;
    let dlen = 600usize;
    let query: Vec<u8> = (0..qlen).map(|_| rng.gen::<u8>() % 4).collect();
    let db: Vec<u8> = (0..dlen).map(|_| rng.gen::<u8>() % 4).collect();
    a.data_bytes("query", &query);
    a.data_bytes("db", &db);
    // Two DP rows of 16-bit scores.
    a.data_zeros("prev", (qlen + 1) * 2);
    a.data_zeros("curr", (qlen + 1) * 2);

    a.li(Reg::X26, 0); // best score
    a.la(Reg::X5, "db");
    a.li(Reg::X6, dlen as i64);
    a.label("outer");
    a.lbu(Reg::X7, 0, Reg::X5); // db char
    a.la(Reg::X8, "query");
    a.la(Reg::X9, "prev");
    a.la(Reg::X10, "curr");
    a.li(Reg::X11, qlen as i64);
    a.li(Reg::X12, 0); // left neighbour (curr[j-1])
    a.label("inner");
    a.lbu(Reg::X13, 0, Reg::X8); // query char
    a.lhu(Reg::X14, 0, Reg::X9); // prev[j-1] (diagonal)
    // score = diag + (match ? +3 : -2)
    a.beq(Reg::X13, Reg::X7, "match");
    a.addi(Reg::X15, Reg::X14, -2);
    a.jmp("gap");
    a.label("match");
    a.addi(Reg::X15, Reg::X14, 3);
    a.label("gap");
    // up = prev[j] - 1; left = curr[j-1] - 1
    a.lhu(Reg::X16, 2, Reg::X9);
    a.addi(Reg::X16, Reg::X16, -1);
    a.addi(Reg::X17, Reg::X12, -1);
    // cell = max(score, up, left, 0)
    a.blt(Reg::X16, Reg::X15, "skip_up");
    a.mv(Reg::X15, Reg::X16);
    a.label("skip_up");
    a.blt(Reg::X17, Reg::X15, "skip_left");
    a.mv(Reg::X15, Reg::X17);
    a.label("skip_left");
    a.bge(Reg::X15, Reg::X0, "clamped");
    a.li(Reg::X15, 0);
    a.label("clamped");
    a.sh(Reg::X15, 2, Reg::X10);
    a.mv(Reg::X12, Reg::X15);
    // track the best
    a.blt(Reg::X15, Reg::X26, "not_best");
    a.mv(Reg::X26, Reg::X15);
    a.label("not_best");
    a.addi(Reg::X8, Reg::X8, 1);
    a.addi(Reg::X9, Reg::X9, 2);
    a.addi(Reg::X10, Reg::X10, 2);
    a.addi(Reg::X11, Reg::X11, -1);
    a.bne(Reg::X11, Reg::X0, "inner");
    // Swap rows: copy curr -> prev (round the 2-byte cells up to whole
    // 8-byte chunks; the trailing padding bytes are dead space).
    a.la(Reg::X9, "prev");
    a.la(Reg::X10, "curr");
    a.li(Reg::X11, ((qlen + 1) * 2).div_ceil(8) as i64);
    a.label("copy");
    a.ld(Reg::X13, 0, Reg::X10);
    a.sd(Reg::X13, 0, Reg::X9);
    a.addi(Reg::X9, Reg::X9, 8);
    a.addi(Reg::X10, Reg::X10, 8);
    a.addi(Reg::X11, Reg::X11, -1);
    a.bne(Reg::X11, Reg::X0, "copy");
    a.addi(Reg::X5, Reg::X5, 1);
    a.addi(Reg::X6, Reg::X6, -1);
    a.bne(Reg::X6, Reg::X0, "outer");
    a.mv(Reg::X28, Reg::X26);
    a.halt();

    Workload {
        name: "swalign-like",
        suite: Suite::Bio,
        program: a.assemble().expect("swalign-like assembles"),
        inst_budget: 900_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use th_isa::Machine;

    #[test]
    fn blast_finds_the_planted_seed() {
        let w = blast_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        let hits = m.reg(Reg::X28);
        // The planted occurrence guarantees ≥1; random 8-mers over a
        // 4-letter alphabet give ~30000/65536 expected extras.
        assert!(hits >= 2, "no seed hits (two passes)");
        assert!(hits.is_multiple_of(2), "both passes must agree: {hits}");
        assert!(hits < 100, "implausible hit count {hits}");
    }

    #[test]
    fn hmmer_score_is_positive_and_bounded() {
        let w = hmmer_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        let best = m.reg(Reg::X28) as i64;
        // Clamped-at-zero Viterbi with max emission 11 and diagonal bonus
        // 2: the best score is positive and bounded by seqlen × 13.
        assert!(best > 0, "best = {best}");
        assert!(best <= 500 * 13, "best = {best}");
    }

    #[test]
    fn swalign_score_is_positive_and_bounded() {
        let w = swalign_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        let best = m.reg(Reg::X28) as i64;
        // A 48-long query over a 4-letter alphabet: local alignment score
        // must be positive (matches exist) and ≤ 3×qlen.
        assert!(best > 0, "best = {best}");
        assert!(best <= 3 * 48, "best = {best}");
    }
}
