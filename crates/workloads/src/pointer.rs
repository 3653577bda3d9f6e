//! Wisconsin pointer-intensive-class kernels. `yacr2`-like is the paper's
//! low end of the power savings range (15 %, §5.2) and its worst-case
//! thermal workload under Thermal Herding (the D-cache hotspot of Figure
//! 10c): memory-intensive, with mixed-width data that defeats width
//! prediction more often than the other suites.

use crate::{Suite, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use th_isa::{Assembler, Reg};

/// `perimeter`-like: quadtree boundary walk — an L2-resident pointer
/// chase interleaved with per-node boundary arithmetic. Its performance
/// is L2-latency-sensitive, so it gains the most from the 3D pipeline's
/// faster L2 (the analogue of the paper's 77 % best case).
pub(crate) fn perimeter_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x70_65_72);
    // A shuffled ring of 8K nodes (64 KB — misses the L1, lives in the
    // L2): child pointers jump around the heap like a freshly built
    // quadtree.
    let n = 1 << 13;
    let mut next: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i);
        next.swap(i, j);
    }
    a.data_u64s("tree", next);

    a.la(Reg::X5, "tree");
    a.li(Reg::X6, 28_000); // boundary cells visited
    a.li(Reg::X7, 0); // current cell
    a.li(Reg::X9, 0); // perimeter accumulator
    a.label("walk");
    a.slli(Reg::X8, Reg::X7, 3);
    a.add(Reg::X8, Reg::X8, Reg::X5);
    a.ld(Reg::X7, 0, Reg::X8); // dependent chase (L2 hit)
    // Boundary contribution: a dependent chain per cell whose result
    // feeds the next step's index computation (boundary state carries
    // from cell to cell), serialising load latency with the arithmetic.
    a.andi(Reg::X10, Reg::X7, 63);
    a.slli(Reg::X11, Reg::X10, 2);
    a.add(Reg::X11, Reg::X11, Reg::X10);
    a.srli(Reg::X12, Reg::X11, 1);
    a.xor(Reg::X12, Reg::X12, Reg::X10);
    a.add(Reg::X9, Reg::X9, Reg::X12);
    a.xor(Reg::X14, Reg::X12, Reg::X12); // always 0, but data-dependent
    a.add(Reg::X7, Reg::X7, Reg::X14);
    a.andi(Reg::X13, Reg::X7, 3);
    a.beq(Reg::X13, Reg::X0, "corner");
    a.addi(Reg::X9, Reg::X9, 1);
    a.label("corner");
    a.addi(Reg::X6, Reg::X6, -1);
    a.bne(Reg::X6, Reg::X0, "walk");
    a.mv(Reg::X28, Reg::X9);
    a.halt();

    Workload {
        name: "perimeter-like",
        suite: Suite::Pointer,
        program: a.assemble().expect("perimeter-like assembles"),
        inst_budget: 500_000,
    }
}

/// `yacr2`-like: channel-routing constraint scans — streaming passes over
/// multi-megabyte track arrays holding full-width packed records, with a
/// data-dependent update per element.
pub(crate) fn yacr2_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x79_61_63);
    let n = 512 * 1024usize; // 4 MB of packed constraint records
    // Mixed widths on purpose: alternating cache lines hold small values
    // and full 64-bit packed records (the kernel reads one record per
    // line), so width prediction sees an unstable stream. The records
    // stream into the image as they are drawn.
    let tracks =
        (0..n).map(|i| if (i / 8) % 2 == 0 { rng.gen::<u64>() % 256 } else { rng.gen() });
    a.data_u64s("tracks", tracks);

    a.la(Reg::X5, "tracks");
    a.li(Reg::X6, 40_000); // records scanned (within one pass)
    a.li(Reg::X9, 0); // conflict count
    a.label("loop");
    a.ld(Reg::X7, 0, Reg::X5);
    a.srli(Reg::X8, Reg::X7, 56); // top byte: track id
    a.andi(Reg::X10, Reg::X7, 255); // bottom byte: pin
    a.bltu(Reg::X8, Reg::X10, "conflict");
    a.addi(Reg::X9, Reg::X9, 1);
    a.jmp("next");
    a.label("conflict");
    a.xor(Reg::X9, Reg::X9, Reg::X7);
    a.label("next");
    a.addi(Reg::X5, Reg::X5, 64); // one record per cache line
    a.addi(Reg::X6, Reg::X6, -1);
    a.bne(Reg::X6, Reg::X0, "loop");
    a.mv(Reg::X28, Reg::X9);
    a.halt();

    Workload {
        name: "yacr2-like",
        suite: Suite::Pointer,
        program: a.assemble().expect("yacr2-like assembles"),
        inst_budget: 500_000,
    }
}

/// `treeadd`-like: sum a pointer-linked binary tree with an explicit
/// stack — dependent loads over a shuffled 384 KB heap of nodes, traversed three times.
pub(crate) fn treeadd_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x74_72_65);
    // Nodes: [left_ptr, right_ptr, value] × 2^15, laid out in *shuffled*
    // order so child pointers jump around the heap.
    let n = 1 << 14;
    let mut order: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut slot_of = vec![0u64; n];
    for (slot, &node) in order.iter().enumerate() {
        slot_of[node as usize] = slot as u64;
    }
    let base = th_isa::Assembler::DEFAULT_DATA_BASE;
    let addr_of = |node: u64| base + slot_of[node as usize] * 24;
    let mut heap = vec![0u64; n * 3];
    for node in 0..n as u64 {
        let slot = slot_of[node as usize] as usize;
        let (l, r) = (2 * node + 1, 2 * node + 2);
        heap[slot * 3] = if l < n as u64 { addr_of(l) } else { 0 };
        heap[slot * 3 + 1] = if r < n as u64 { addr_of(r) } else { 0 };
        heap[slot * 3 + 2] = node % 97;
    }
    a.data_u64s("heap", heap);
    a.data_zeros("stack", 64 * 1024);

    a.la(Reg::X5, "heap"); // == DEFAULT_DATA_BASE
    a.li(Reg::X9, 0); // sum
    a.li(Reg::X29, 3); // traversals
    let root = addr_of(0);
    a.label("traverse");
    a.la(Reg::X2, "stack");
    a.la(Reg::X10, "stack"); // stack base for emptiness test
    // Push root address.
    a.li(Reg::X7, root as i64);
    a.sd(Reg::X7, 0, Reg::X2);
    a.addi(Reg::X2, Reg::X2, 8);
    a.label("loop");
    a.beq(Reg::X2, Reg::X10, "done");
    a.addi(Reg::X2, Reg::X2, -8);
    a.ld(Reg::X7, 0, Reg::X2); // pop node address
    a.ld(Reg::X11, 0, Reg::X7); // left
    a.ld(Reg::X12, 8, Reg::X7); // right
    a.ld(Reg::X13, 16, Reg::X7); // value
    a.add(Reg::X9, Reg::X9, Reg::X13);
    a.beq(Reg::X11, Reg::X0, "no_left");
    a.sd(Reg::X11, 0, Reg::X2);
    a.addi(Reg::X2, Reg::X2, 8);
    a.label("no_left");
    a.beq(Reg::X12, Reg::X0, "loop");
    a.sd(Reg::X12, 0, Reg::X2);
    a.addi(Reg::X2, Reg::X2, 8);
    a.jmp("loop");
    a.label("done");
    a.addi(Reg::X29, Reg::X29, -1);
    a.bne(Reg::X29, Reg::X0, "traverse");
    a.mv(Reg::X28, Reg::X9);
    a.halt();

    Workload {
        name: "treeadd-like",
        suite: Suite::Pointer,
        program: a.assemble().expect("treeadd-like assembles"),
        inst_budget: 850_000,
    }
}

/// `bisort`-like: in-place bitonic-style compare-exchange passes over a
/// linked sequence of keys — pointer arithmetic plus unpredictable
/// compare branches.
pub(crate) fn bisort_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x62_69_73);
    let n = 8_192usize;
    let keys: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() >> 16).collect();
    a.data_u64s("keys", keys);

    a.li(Reg::X20, 6); // passes
    a.label("pass");
    a.la(Reg::X5, "keys");
    a.li(Reg::X6, (n - 1) as i64);
    a.label("loop");
    a.ld(Reg::X7, 0, Reg::X5);
    a.ld(Reg::X8, 8, Reg::X5);
    a.bgeu(Reg::X8, Reg::X7, "inorder");
    a.sd(Reg::X8, 0, Reg::X5);
    a.sd(Reg::X7, 8, Reg::X5);
    a.label("inorder");
    a.addi(Reg::X5, Reg::X5, 8);
    a.addi(Reg::X6, Reg::X6, -1);
    a.bne(Reg::X6, Reg::X0, "loop");
    a.addi(Reg::X20, Reg::X20, -1);
    a.bne(Reg::X20, Reg::X0, "pass");
    // Checksum: first and last keys after partial bubble passes.
    a.la(Reg::X5, "keys");
    a.ld(Reg::X28, 0, Reg::X5);
    a.halt();

    Workload {
        name: "bisort-like",
        suite: Suite::Pointer,
        program: a.assemble().expect("bisort-like assembles"),
        inst_budget: 600_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use th_isa::Machine;

    #[test]
    fn treeadd_sum_matches_closed_form() {
        let w = treeadd_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        let expected: u64 = 3 * (0..(1u64 << 14)).map(|v| v % 97).sum::<u64>();
        assert_eq!(m.reg(Reg::X28), expected);
    }

    #[test]
    fn bisort_passes_push_minimum_forward() {
        let w = bisort_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        let keys = w.program.label("keys").unwrap();
        // After 6 bubble passes the first element is the minimum of a
        // prefix; it must be ≤ its successor.
        let k0 = m.mem().read_u64(keys);
        let k1 = m.mem().read_u64(keys + 8);
        assert!(k0 <= k1, "{k0} > {k1}");
    }

    #[test]
    fn yacr2_scans_expected_records() {
        let w = yacr2_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        // x5 advanced 40_000 records × 64 bytes.
        let tracks = w.program.label("tracks").unwrap();
        assert_eq!(m.reg(Reg::X5), tracks + 40_000 * 64);
    }
}
