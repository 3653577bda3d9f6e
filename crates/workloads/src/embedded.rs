//! MiBench-class embedded kernels: SUSAN image smoothing, Patricia-trie
//! routing lookups, and Dijkstra shortest paths. `susan`-like is the
//! paper's best power-savings case (30 %, §5.2); `patricia`-like its best
//! speedup case (77 %, §5.1.2).

use crate::{Suite, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use th_isa::{Assembler, Reg};

/// `susan`-smoothing-like: 3×1 box filter over an 8-bit image —
/// computation-intensive byte processing with an L1-resident window.
pub(crate) fn susan_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x73_75_73);
    let w = 128usize;
    let h = 96usize;
    let image: Vec<u8> = (0..w * h).map(|_| rng.gen()).collect();
    a.data_bytes("image", &image);
    a.data_zeros("smoothed", w * h);

    a.li(Reg::X20, 4); // passes (repeated smoothing)
    a.label("pass");
    a.la(Reg::X5, "image");
    a.la(Reg::X6, "smoothed");
    a.li(Reg::X7, (w * h - 2) as i64);
    a.label("loop");
    a.lbu(Reg::X10, 0, Reg::X5);
    a.lbu(Reg::X11, 1, Reg::X5);
    a.lbu(Reg::X12, 2, Reg::X5);
    // weighted average: (a + 2b + c) / 4
    a.slli(Reg::X13, Reg::X11, 1);
    a.add(Reg::X13, Reg::X13, Reg::X10);
    a.add(Reg::X13, Reg::X13, Reg::X12);
    a.srli(Reg::X13, Reg::X13, 2);
    a.sb(Reg::X13, 1, Reg::X6);
    a.addi(Reg::X5, Reg::X5, 1);
    a.addi(Reg::X6, Reg::X6, 1);
    a.addi(Reg::X7, Reg::X7, -1);
    a.bne(Reg::X7, Reg::X0, "loop");
    a.addi(Reg::X20, Reg::X20, -1);
    a.bne(Reg::X20, Reg::X0, "pass");
    a.mv(Reg::X28, Reg::X13);
    a.halt();

    Workload {
        name: "susan-like",
        suite: Suite::Embedded,
        program: a.assemble().expect("susan-like assembles"),
        inst_budget: 750_000,
    }
}

/// `patricia`-like: longest-prefix routing lookups in a bit trie. The
/// trie is cache-resident; each lookup is a short chain of dependent
/// loads and bit tests — branchy, high-frequency control flow.
pub(crate) fn patricia_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x70_61_74);
    // Trie nodes: [left, right] child indices (0 = leaf/end), 1023 nodes.
    let nodes = 1023usize;
    let mut trie = vec![0u64; nodes * 2];
    // A complete binary trie of depth 9 over the first 511 nodes, the
    // rest random back-links to mid-levels to vary lookup depth.
    for i in 0..511 {
        trie[i * 2] = (2 * i + 1) as u64;
        trie[i * 2 + 1] = (2 * i + 2) as u64;
    }
    for i in 511..nodes {
        trie[i * 2] = 0;
        trie[i * 2 + 1] = if rng.gen_bool(0.3) { rng.gen_range(1..256) } else { 0 };
    }
    a.data_u64s("trie", trie);
    let queries: Vec<u64> = (0..4_000).map(|_| rng.gen()).collect();
    a.data_u64s("queries", queries.iter().copied());

    a.la(Reg::X5, "trie");
    a.li(Reg::X26, 0); // matched-depth accumulator
    a.li(Reg::X29, 2); // rounds (routers re-resolve flows)
    a.label("round");
    a.la(Reg::X6, "queries");
    a.li(Reg::X7, queries.len() as i64);
    a.label("query");
    a.ld(Reg::X8, 0, Reg::X6); // key
    a.li(Reg::X9, 0); // node
    a.li(Reg::X10, 0); // depth
    a.label("walk");
    a.andi(Reg::X11, Reg::X8, 1); // branch bit
    a.slli(Reg::X12, Reg::X9, 4); // node * 16 bytes
    a.slli(Reg::X13, Reg::X11, 3);
    a.add(Reg::X12, Reg::X12, Reg::X13);
    a.add(Reg::X12, Reg::X12, Reg::X5);
    a.ld(Reg::X9, 0, Reg::X12); // next node
    a.srli(Reg::X8, Reg::X8, 1);
    a.addi(Reg::X10, Reg::X10, 1);
    a.bne(Reg::X9, Reg::X0, "walk");
    a.add(Reg::X26, Reg::X26, Reg::X10);
    a.addi(Reg::X6, Reg::X6, 8);
    a.addi(Reg::X7, Reg::X7, -1);
    a.bne(Reg::X7, Reg::X0, "query");
    a.addi(Reg::X29, Reg::X29, -1);
    a.bne(Reg::X29, Reg::X0, "round");
    a.mv(Reg::X28, Reg::X26);
    a.halt();

    Workload {
        name: "patricia-like",
        suite: Suite::Embedded,
        program: a.assemble().expect("patricia-like assembles"),
        inst_budget: 1_100_000,
    }
}

/// `dijkstra`-like: repeated relaxation sweeps over a dense adjacency
/// matrix — regular loads and compare-branches on small integers.
pub(crate) fn dijkstra_like() -> Workload {
    let mut a = Assembler::new(0x1000);
    let mut rng = StdRng::seed_from_u64(0x64_69_6a);
    let n = 96usize;
    let adj: Vec<u64> =
        (0..n * n).map(|_| if rng.gen_bool(0.25) { rng.gen_range(1..100) } else { 10_000 }).collect();
    let mut dist = vec![10_000u64; n];
    dist[0] = 0;
    a.data_u64s("adj", adj);
    a.data_u64s("dist", dist);

    a.li(Reg::X20, 8); // relaxation rounds
    a.label("round");
    a.la(Reg::X5, "adj");
    a.la(Reg::X6, "dist");
    a.li(Reg::X7, 0); // u
    a.label("outer");
    a.slli(Reg::X8, Reg::X7, 3);
    a.add(Reg::X8, Reg::X8, Reg::X6);
    a.ld(Reg::X9, 0, Reg::X8); // dist[u]
    a.li(Reg::X10, 0); // v
    a.label("inner");
    a.ld(Reg::X11, 0, Reg::X5); // adj[u][v]
    a.add(Reg::X12, Reg::X9, Reg::X11); // candidate
    a.slli(Reg::X13, Reg::X10, 3);
    a.add(Reg::X13, Reg::X13, Reg::X6);
    a.ld(Reg::X14, 0, Reg::X13); // dist[v]
    a.bgeu(Reg::X12, Reg::X14, "no_relax");
    a.sd(Reg::X12, 0, Reg::X13);
    a.label("no_relax");
    a.addi(Reg::X5, Reg::X5, 8);
    a.addi(Reg::X10, Reg::X10, 1);
    a.slti(Reg::X15, Reg::X10, n as i32);
    a.bne(Reg::X15, Reg::X0, "inner");
    a.addi(Reg::X7, Reg::X7, 1);
    a.slti(Reg::X15, Reg::X7, n as i32);
    a.bne(Reg::X15, Reg::X0, "outer");
    a.addi(Reg::X20, Reg::X20, -1);
    a.bne(Reg::X20, Reg::X0, "round");
    // Checksum: sum of distances.
    a.la(Reg::X6, "dist");
    a.li(Reg::X7, n as i64);
    a.li(Reg::X26, 0);
    a.label("sum");
    a.ld(Reg::X9, 0, Reg::X6);
    a.add(Reg::X26, Reg::X26, Reg::X9);
    a.addi(Reg::X6, Reg::X6, 8);
    a.addi(Reg::X7, Reg::X7, -1);
    a.bne(Reg::X7, Reg::X0, "sum");
    a.mv(Reg::X28, Reg::X26);
    a.halt();

    Workload {
        name: "dijkstra-like",
        suite: Suite::Embedded,
        program: a.assemble().expect("dijkstra-like assembles"),
        inst_budget: 900_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use th_isa::Machine;

    #[test]
    fn susan_smooths_toward_local_average() {
        let w = susan_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        let img = w.program.label("image").unwrap();
        let out = w.program.label("smoothed").unwrap();
        // Check one pixel against the filter formula.
        let a0 = m.mem().read_u8(img) as u32;
        let b = m.mem().read_u8(img + 1) as u32;
        let c = m.mem().read_u8(img + 2) as u32;
        assert_eq!(m.mem().read_u8(out + 1) as u32, (a0 + 2 * b + c) / 4);
    }

    #[test]
    fn patricia_walks_full_depth_paths() {
        let w = patricia_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        let total_depth = m.reg(Reg::X28);
        // 2 rounds x 4000 lookups of depth ≥ 9 each — some longer.
        assert!(total_depth >= 2 * 4_000 * 9, "total depth {total_depth}");
    }

    #[test]
    fn dijkstra_distances_converge() {
        let w = dijkstra_like();
        let mut m = Machine::new(&w.program);
        m.run(w.inst_budget).unwrap();
        assert!(m.is_halted());
        let dist = w.program.label("dist").unwrap();
        assert_eq!(m.mem().read_u64(dist), 0, "source distance");
        // After 8 rounds of Bellman-Ford-style sweeps on a dense random
        // graph, everything reachable should be far below the sentinel.
        let d1 = m.mem().read_u64(dist + 8);
        assert!(d1 < 1_000, "dist[1] = {d1}");
    }
}
