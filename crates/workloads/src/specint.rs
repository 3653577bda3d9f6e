//! SPECint2000-class kernels: compression, compiler-style dispatch,
//! memory-bound network optimisation, and chess bitboards.

use crate::{Suite, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use th_isa::{Assembler, Reg};

/// `parser`-like: dictionary hash-table probing — an L1-resident table,
/// short dependence chains, data-dependent hit/miss branches.
pub(crate) fn parser_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x70_61_72);
    let table_entries = 2_048usize;
    // Dictionary: ~60% of slots filled with the key that hashes there.
    let table: Vec<u64> = (0..table_entries)
        .map(|i| if rng.gen_bool(0.6) { ((i as u64) << 16) | 1 } else { 0 })
        .collect();
    a.data_u64s("dict", table);
    let words: Vec<u64> = (0..8_192).map(|_| rng.gen::<u64>() & 0x7ff).collect();
    a.data_u64s("words", words.iter().copied());

    a.li(Reg::X29, 3); // sentence batches
    a.li(Reg::X26, 0); // found-word count
    a.la(Reg::X5, "dict");
    a.label("batch");
    a.la(Reg::X6, "words");
    a.li(Reg::X7, words.len() as i64);
    a.label("word");
    a.ld(Reg::X8, 0, Reg::X6);
    // Hash: multiplicative, masked to the table.
    a.slli(Reg::X9, Reg::X8, 5);
    a.add(Reg::X9, Reg::X9, Reg::X8);
    a.andi(Reg::X9, Reg::X9, (table_entries - 1) as i32);
    a.slli(Reg::X10, Reg::X9, 3);
    a.add(Reg::X10, Reg::X10, Reg::X5);
    a.ld(Reg::X11, 0, Reg::X10); // probe
    a.srli(Reg::X12, Reg::X11, 16);
    a.bne(Reg::X12, Reg::X9, "miss");
    a.addi(Reg::X26, Reg::X26, 1);
    a.label("miss");
    a.addi(Reg::X6, Reg::X6, 8);
    a.addi(Reg::X7, Reg::X7, -1);
    a.bne(Reg::X7, Reg::X0, "word");
    a.addi(Reg::X29, Reg::X29, -1);
    a.bne(Reg::X29, Reg::X0, "batch");
    a.mv(Reg::X28, Reg::X26);
    a.halt();

    Workload {
        name: "parser-like",
        suite: Suite::SpecInt,
        program: a.assemble().expect("parser-like assembles"),
        inst_budget: 450_000,
    }
}

/// `gzip`-like: byte histogram plus rolling hash over pseudo-text.
///
/// Byte-granular data makes nearly every value low-width; the 64 KB text
/// streams through the L1 while the histogram stays resident.
pub(crate) fn gzip_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x67_7a_69_70);
    // Skewed byte distribution, like real text.
    let text: Vec<u8> = (0..12_000).map(|_| (rng.gen::<u8>() % 64) + 32).collect();
    a.data_bytes("text", &text);
    a.data_zeros("hist", 256 * 8);

    a.li(Reg::X29, 2); // passes (deflate re-scans its window)
    a.label("pass");
    a.la(Reg::X5, "text");
    a.li(Reg::X6, text.len() as i64);
    a.la(Reg::X7, "hist");
    a.li(Reg::X11, 0); // rolling hash
    a.label("loop");
    a.lbu(Reg::X8, 0, Reg::X5);
    a.slli(Reg::X9, Reg::X8, 3);
    a.add(Reg::X9, Reg::X9, Reg::X7);
    a.ld(Reg::X10, 0, Reg::X9);
    a.addi(Reg::X10, Reg::X10, 1);
    a.sd(Reg::X10, 0, Reg::X9);
    a.slli(Reg::X11, Reg::X11, 1);
    a.xor(Reg::X11, Reg::X11, Reg::X8);
    a.andi(Reg::X11, Reg::X11, 0x7fff);
    a.addi(Reg::X5, Reg::X5, 1);
    a.addi(Reg::X6, Reg::X6, -1);
    a.bne(Reg::X6, Reg::X0, "loop");
    a.addi(Reg::X29, Reg::X29, -1);
    a.bne(Reg::X29, Reg::X0, "pass");
    a.mv(Reg::X28, Reg::X11); // checksum
    a.halt();

    Workload {
        name: "gzip-like",
        suite: Suite::SpecInt,
        program: a.assemble().expect("gzip-like assembles"),
        inst_budget: 400_000,
    }
}

/// `gcc`-like: interpret a pseudo-IR stream with a compare-branch opcode
/// switch — branchy integer code with a mid-size table working set.
pub(crate) fn gcc_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x67_63_63);
    // IR: (opcode in 0..4, operand) pairs, packed as u64s.
    let n = 8_000usize;
    let ir: Vec<u64> =
        (0..n).map(|_| ((rng.gen::<u64>() % 4) << 32) | (rng.gen::<u64>() % 1000)).collect();
    a.data_u64s("ir", ir);
    a.data_zeros("symtab", 1024 * 8);

    a.li(Reg::X29, 2); // compiler passes over the IR
    a.label("pass");
    a.la(Reg::X5, "ir");
    a.li(Reg::X6, n as i64);
    a.la(Reg::X7, "symtab");
    a.li(Reg::X12, 0); // accumulator
    a.label("loop");
    a.ld(Reg::X8, 0, Reg::X5);
    a.srli(Reg::X9, Reg::X8, 32); // opcode
    a.slli(Reg::X10, Reg::X8, 32);
    a.srli(Reg::X10, Reg::X10, 32); // operand
    a.li(Reg::X11, 1);
    a.beq(Reg::X9, Reg::X0, "op_add");
    a.beq(Reg::X9, Reg::X11, "op_store");
    a.addi(Reg::X11, Reg::X11, 1);
    a.beq(Reg::X9, Reg::X11, "op_load");
    // default: shift-mix
    a.slli(Reg::X12, Reg::X12, 1);
    a.xor(Reg::X12, Reg::X12, Reg::X10);
    a.jmp("next");
    a.label("op_add");
    a.add(Reg::X12, Reg::X12, Reg::X10);
    a.jmp("next");
    a.label("op_store");
    a.andi(Reg::X13, Reg::X10, 1023);
    a.slli(Reg::X13, Reg::X13, 3);
    a.add(Reg::X13, Reg::X13, Reg::X7);
    a.sd(Reg::X12, 0, Reg::X13);
    a.jmp("next");
    a.label("op_load");
    a.andi(Reg::X13, Reg::X10, 1023);
    a.slli(Reg::X13, Reg::X13, 3);
    a.add(Reg::X13, Reg::X13, Reg::X7);
    a.ld(Reg::X14, 0, Reg::X13);
    a.add(Reg::X12, Reg::X12, Reg::X14);
    a.label("next");
    a.addi(Reg::X5, Reg::X5, 8);
    a.addi(Reg::X6, Reg::X6, -1);
    a.bne(Reg::X6, Reg::X0, "loop");
    a.addi(Reg::X29, Reg::X29, -1);
    a.bne(Reg::X29, Reg::X0, "pass");
    a.mv(Reg::X28, Reg::X12);
    a.halt();

    Workload {
        name: "gcc-like",
        suite: Suite::SpecInt,
        program: a.assemble().expect("gcc-like assembles"),
        inst_budget: 400_000,
    }
}

/// `mcf`-like: serialized pointer chasing across a 16 MB permutation —
/// the archetypal DRAM-latency-bound workload (the paper's 7 % minimum
/// speedup case).
pub(crate) fn mcf_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x6d_63_66);
    // A single-cycle random permutation (Sattolo's algorithm) so the
    // chase visits distinct cache lines for the full run. It is shuffled
    // in page-sized blocks that the image consumes in order, each freed
    // once written, so the 16 MB array never exists twice.
    let n = 1 << 21; // 2M entries × 8 B = 16 MB
    const BLOCK: usize = 512; // one 4 KiB page of entries
    let mut next: Vec<Vec<u64>> =
        (0..n / BLOCK).map(|b| (b * BLOCK..(b + 1) * BLOCK).map(|v| v as u64).collect()).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i);
        let t = next[i / BLOCK][i % BLOCK];
        next[i / BLOCK][i % BLOCK] = next[j / BLOCK][j % BLOCK];
        next[j / BLOCK][j % BLOCK] = t;
    }
    a.data_u64s("net", next.into_iter().flatten());

    a.la(Reg::X5, "net");
    a.li(Reg::X6, 10_000); // chase steps
    a.li(Reg::X7, 0); // current node
    a.li(Reg::X9, 0); // cost accumulator
    a.label("loop");
    a.slli(Reg::X8, Reg::X7, 3);
    a.add(Reg::X8, Reg::X8, Reg::X5);
    a.ld(Reg::X7, 0, Reg::X8); // dependent load: the chase
    a.add(Reg::X9, Reg::X9, Reg::X7); // arc cost update
    a.srli(Reg::X10, Reg::X7, 4);
    a.xor(Reg::X9, Reg::X9, Reg::X10);
    a.addi(Reg::X6, Reg::X6, -1);
    a.bne(Reg::X6, Reg::X0, "loop");
    a.mv(Reg::X28, Reg::X9);
    a.halt();

    Workload {
        name: "mcf-like",
        suite: Suite::SpecInt,
        program: a.assemble().expect("mcf-like assembles"),
        inst_budget: 150_000,
    }
}

/// `crafty`-like: chess bitboard evaluation — full-width 64-bit masks,
/// parallel popcounts, high ILP, cache-resident (the paper's 65 % case).
pub(crate) fn crafty_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x63_72_61);
    let masks: Vec<u64> = (0..256).map(|_| rng.gen()).collect();
    a.data_u64s("masks", masks);

    a.la(Reg::X5, "masks");
    a.li(Reg::X6, 10_000); // positions evaluated
    a.li(Reg::X7, 0x9e3779b97f4a7c15u64 as i64); // board state seed
    // Popcount constants.
    a.li(Reg::X20, 0x5555555555555555u64 as i64);
    a.li(Reg::X21, 0x3333333333333333u64 as i64);
    a.li(Reg::X22, 0x0f0f0f0f0f0f0f0fu64 as i64);
    a.li(Reg::X23, 0x0101010101010101u64 as i64);
    a.li(Reg::X26, 0); // score
    a.label("loop");
    // Evolve the "board" with an LCG-style mix.
    a.li(Reg::X8, 6364136223846793005);
    a.mul(Reg::X7, Reg::X7, Reg::X8);
    a.addi(Reg::X7, Reg::X7, 1442695041);
    // Pick an attack mask.
    a.srli(Reg::X9, Reg::X7, 40);
    a.andi(Reg::X9, Reg::X9, 255);
    a.slli(Reg::X9, Reg::X9, 3);
    a.add(Reg::X9, Reg::X9, Reg::X5);
    a.ld(Reg::X10, 0, Reg::X9);
    a.and(Reg::X11, Reg::X10, Reg::X7); // attacked squares
    // Parallel popcount of x11.
    a.srli(Reg::X12, Reg::X11, 1);
    a.and(Reg::X12, Reg::X12, Reg::X20);
    a.sub(Reg::X11, Reg::X11, Reg::X12);
    a.srli(Reg::X12, Reg::X11, 2);
    a.and(Reg::X12, Reg::X12, Reg::X21);
    a.and(Reg::X11, Reg::X11, Reg::X21);
    a.add(Reg::X11, Reg::X11, Reg::X12);
    a.srli(Reg::X12, Reg::X11, 4);
    a.add(Reg::X11, Reg::X11, Reg::X12);
    a.and(Reg::X11, Reg::X11, Reg::X22);
    a.mul(Reg::X11, Reg::X11, Reg::X23);
    a.srli(Reg::X11, Reg::X11, 56);
    // Mobility bonus with a data-dependent branch.
    a.slti(Reg::X13, Reg::X11, 28);
    a.beq(Reg::X13, Reg::X0, "strong");
    a.add(Reg::X26, Reg::X26, Reg::X11);
    a.jmp("cont");
    a.label("strong");
    a.slli(Reg::X14, Reg::X11, 1);
    a.add(Reg::X26, Reg::X26, Reg::X14);
    a.label("cont");
    a.addi(Reg::X6, Reg::X6, -1);
    a.bne(Reg::X6, Reg::X0, "loop");
    a.mv(Reg::X28, Reg::X26);
    a.halt();

    Workload {
        name: "crafty-like",
        suite: Suite::SpecInt,
        program: a.assemble().expect("crafty-like assembles"),
        inst_budget: 500_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use th_isa::Machine;

    #[test]
    fn gzip_histogram_sums_to_text_length() {
        let w = gzip_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        let hist = w.program.label("hist").unwrap();
        let total: u64 = (0..256).map(|i| m.mem().read_u64(hist + i * 8)).sum();
        assert_eq!(total, 24_000); // 2 passes x 12_000 bytes
    }

    #[test]
    fn mcf_chase_follows_permutation() {
        let w = mcf_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        // Independently chase the first few steps.
        let net = w.program.label("net").unwrap();
        let mut node = 0u64;
        for _ in 0..10_000 {
            node = {
                // Read from the *final* memory image: the kernel never
                // writes the array, so this matches the initial data.
                m.mem().read_u64(net + node * 8)
            };
        }
        // The chase ends wherever x7 ended up.
        assert_eq!(m.reg(Reg::X7), node);
    }

    #[test]
    fn crafty_scores_are_plausible_popcounts() {
        let w = crafty_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        let score = m.reg(Reg::X28);
        // Mean popcount of (random & random) ≈ 16, doubled when ≥ 28;
        // the score of 10k evaluations must land in a sane band.
        assert!(score > 100_000 && score < 400_000, "score = {score}");
    }

    #[test]
    fn gcc_interpreter_halts_with_checksum() {
        let w = gcc_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        assert_ne!(m.reg(Reg::X28), 0);
    }
}
