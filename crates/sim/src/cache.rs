//! Caches, TLBs, and the memory hierarchy (Table 1).

use crate::config::{MemConfig, SimConfig};

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub latency: u64,
}

/// Which level a memory access was serviced from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheKind {
    /// Hit in the L1 (I or D).
    L1,
    /// Missed L1, hit L2.
    L2,
    /// Missed both; went to DRAM.
    Dram,
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    lru: u64,
}

/// A set-associative, write-back, write-allocate cache with true LRU.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    tick: u64,
    /// `log2(line_bytes)`: an address's line number is `addr >> line_shift`.
    line_shift: u32,
    /// `log2(line_bytes * sets)`: an address's tag is `addr >> tag_shift`.
    tag_shift: u32,
    /// The line the last access hit or filled, and its line number: a
    /// repeat access to the same line (the next fetch group, the next
    /// word of a stream, the same page in a TLB) finds it without
    /// scanning the set. Only `access` moves lines, and it updates both.
    mru: usize,
    mru_line: u64,
}

impl Cache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if sets or line size are not powers of two, ways is 0, or
    /// `sets * line_bytes` is 2^64 or more.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(cfg.ways > 0, "cache needs at least one way");
        let line_shift = cfg.line_bytes.trailing_zeros();
        let tag_shift = line_shift + cfg.sets.trailing_zeros();
        assert!(tag_shift < 64, "a cache must map less than the whole address space");
        Cache {
            cfg,
            lines: vec![Line::default(); cfg.sets * cfg.ways],
            tick: 0,
            line_shift,
            tag_shift,
            mru: 0,
            mru_line: 0,
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.cfg.sets as u64 * self.cfg.ways as u64 * self.cfg.line_bytes
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) & (self.cfg.sets - 1)
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    /// Probes for `addr` without fills or LRU updates.
    pub fn probe(&self, addr: u64) -> bool {
        let base = self.set_of(addr) * self.cfg.ways;
        let tag = self.tag_of(addr);
        self.lines[base..base + self.cfg.ways].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Accesses `addr`; on a miss, fills the line (evicting LRU).
    ///
    /// Returns `(hit, evicted_dirty_line_addr)`.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> (bool, Option<u64>) {
        self.tick += 1;
        let line = addr >> self.line_shift;
        // A valid line is unique in its set, so the MRU line is the one
        // `access_set` would find (`valid` covers the empty cache).
        let mru = &mut self.lines[self.mru];
        if self.mru_line == line && mru.valid {
            mru.lru = self.tick;
            mru.dirty |= write;
            return (true, None);
        }
        self.mru_line = line;
        self.access_set(addr, write)
    }

    /// The rest of [`Cache::access`] for a line other than the MRU one:
    /// scan its set, and on a miss fill the LRU way.
    #[inline(never)]
    fn access_set(&mut self, addr: u64, write: bool) -> (bool, Option<u64>) {
        let set = self.set_of(addr);
        let base = set * self.cfg.ways;
        let tag = self.tag_of(addr);
        for (way, l) in self.lines[base..base + self.cfg.ways].iter_mut().enumerate() {
            if l.valid && l.tag == tag {
                l.lru = self.tick;
                l.dirty |= write;
                self.mru = base + way;
                return (true, None);
            }
        }
        // Miss: pick victim (prefer invalid, else LRU).
        let (way, victim) = self.lines[base..base + self.cfg.ways]
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru + 1 } else { 0 })
            .expect("ways > 0");
        self.mru = base + way;
        let evicted = if victim.valid && victim.dirty {
            Some((victim.tag << self.tag_shift) | ((set as u64) << self.line_shift))
        } else {
            None
        };
        *victim = Line { valid: true, dirty: write, tag, lru: self.tick };
        (false, evicted)
    }
}

/// A set-associative TLB (modelled as a small cache of page numbers).
#[derive(Clone, Debug)]
pub struct Tlb {
    cache: Cache,
    page_bytes: u64,
}

impl Tlb {
    /// Builds a TLB with `entries` total entries at associativity `ways`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not divisible into power-of-two sets.
    pub fn new(entries: usize, ways: usize, page_bytes: u64) -> Tlb {
        let sets = entries / ways;
        Tlb {
            cache: Cache::new(CacheConfig { sets, ways, line_bytes: page_bytes, latency: 0 }),
            page_bytes,
        }
    }

    /// Translates `addr`; returns whether it hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.cache.access(addr, false).0
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }
}

/// Result of a hierarchy access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency in cycles (including any TLB-miss penalty).
    pub cycles: u64,
    /// Deepest level reached.
    pub level: CacheKind,
    /// Whether the TLB missed.
    pub tlb_miss: bool,
    /// L1→L2 or L2→L1 line transfers performed (fills + dirty
    /// writebacks) — each touches all four dies of both caches (§3.6).
    pub spill_fills: u64,
}

/// The full memory hierarchy: split L1s, TLBs, unified L2, DRAM.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    tlb_miss_penalty: u64,
    dram_cycles: u64,
    l2_latency: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy for a simulator configuration.
    pub fn new(cfg: &SimConfig) -> MemoryHierarchy {
        let m: &MemConfig = &cfg.mem;
        let mk = |geom: (usize, usize), latency: u64| {
            Cache::new(CacheConfig {
                sets: geom.0,
                ways: geom.1,
                line_bytes: m.line_bytes,
                latency,
            })
        };
        MemoryHierarchy {
            l1i: mk(m.l1i, m.l1_latency),
            l1d: mk(m.l1d, m.l1_latency),
            l2: mk(m.l2, cfg.pipeline.l2_latency),
            itlb: Tlb::new(m.itlb.0, m.itlb.1, m.page_bytes),
            dtlb: Tlb::new(m.dtlb.0, m.dtlb.1, m.page_bytes),
            tlb_miss_penalty: m.tlb_miss_penalty,
            dram_cycles: cfg.dram_cycles(),
            l2_latency: cfg.pipeline.l2_latency,
        }
    }

    /// Reprices the clock-dependent latencies after a frequency change
    /// (DVFS): DRAM is fixed in nanoseconds, so its cycle count scales
    /// with the clock. Cache *contents* are untouched — only timing moves.
    pub fn retime(&mut self, cfg: &SimConfig) {
        self.dram_cycles = cfg.dram_cycles();
        self.l2_latency = cfg.pipeline.l2_latency;
    }

    fn through_l2(&mut self, addr: u64) -> (u64, CacheKind, u64) {
        let (l2_hit, l2_evict) = self.l2.access(addr, false);
        let mut transfers = 1; // the L1 fill itself
        if l2_evict.is_some() {
            transfers += 1;
        }
        if l2_hit {
            (self.l2_latency, CacheKind::L2, transfers)
        } else {
            (self.l2_latency + self.dram_cycles, CacheKind::Dram, transfers)
        }
    }

    /// Instruction fetch at `addr`.
    #[inline]
    pub fn fetch(&mut self, addr: u64) -> AccessResult {
        let tlb_hit = self.itlb.access(addr);
        let mut cycles = if tlb_hit { 0 } else { self.tlb_miss_penalty };
        let (hit, evicted) = self.l1i.access(addr, false);
        cycles += self.l1i.config().latency;
        let mut spill_fills = 0;
        let mut level = CacheKind::L1;
        if !hit {
            let (extra, lvl, transfers) = self.through_l2(addr);
            cycles += extra;
            level = lvl;
            spill_fills += transfers;
        }
        if let Some(victim) = evicted {
            self.l2.access(victim, true);
            spill_fills += 1;
        }
        AccessResult { cycles, level, tlb_miss: !tlb_hit, spill_fills }
    }

    /// Data access at `addr` (`write` = store).
    #[inline]
    pub fn data_access(&mut self, addr: u64, write: bool) -> AccessResult {
        let tlb_hit = self.dtlb.access(addr);
        let mut cycles = if tlb_hit { 0 } else { self.tlb_miss_penalty };
        let (hit, evicted) = self.l1d.access(addr, write);
        cycles += self.l1d.config().latency;
        let mut spill_fills = 0;
        let mut level = CacheKind::L1;
        if !hit {
            let (extra, lvl, transfers) = self.through_l2(addr);
            cycles += extra;
            level = lvl;
            spill_fills += transfers;
        }
        if let Some(victim) = evicted {
            self.l2.access(victim, true);
            spill_fills += 1;
        }
        AccessResult { cycles, level, tlb_miss: !tlb_hit, spill_fills }
    }

    /// Probes whether `addr` currently hits in the L1-D (no state change).
    pub fn l1d_probe(&self, addr: u64) -> bool {
        self.l1d.probe(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Cache {
        Cache::new(CacheConfig { sets: 4, ways: 2, line_bytes: 64, latency: 3 })
    }

    proptest! {
        /// Shift indexing agrees with the division formulas it replaced,
        /// and an evicted line's address maps back to its set and tag.
        #[test]
        fn shift_indexing_matches_division(
            set_bits in 0u32..20,
            line_bits in 0u32..20,
            addr in any::<u64>(),
        ) {
            let sets = 1usize << set_bits;
            let line_bytes = 1u64 << line_bits;
            let c = Cache::new(CacheConfig { sets, ways: 1, line_bytes, latency: 1 });
            let set = ((addr / line_bytes) as usize) & (sets - 1);
            let tag = addr / line_bytes / sets as u64;
            prop_assert_eq!(c.set_of(addr), set);
            prop_assert_eq!(c.tag_of(addr), tag);
            let line_addr = (tag * sets as u64 + set as u64) * line_bytes;
            prop_assert_eq!((tag << c.tag_shift) | ((set as u64) << c.line_shift), line_addr);
        }

        /// The most-recently-used shortcut against a reference that scans
        /// the set on every access: the same hits, evictions and final
        /// line state for streams that revisit lines (runs of the same
        /// line, set conflicts, dirty evictions) in small caches.
        #[test]
        fn mru_shortcut_matches_a_full_scan(
            set_bits in 0u32..3,
            ways in 1usize..4,
            line_bits in 0u32..4,
            stream in proptest::collection::vec((0u64..48, any::<bool>(), 1usize..4), 1..300),
        ) {
            let cfg = CacheConfig { sets: 1 << set_bits, ways, line_bytes: 1 << line_bits, latency: 1 };
            let mut cache = Cache::new(cfg);
            let mut reference = ScanCache { lines: vec![Line::default(); cfg.sets * ways], tick: 0 };
            for (line, write, repeat) in stream {
                for offset in 0..repeat as u64 {
                    let addr = (line << line_bits) | (offset & (cfg.line_bytes - 1));
                    prop_assert_eq!(cache.access(addr, write), reference.access(&cache, addr, write));
                }
            }
            for (got, want) in cache.lines.iter().zip(&reference.lines) {
                prop_assert_eq!(
                    (got.valid, got.dirty, got.tag, got.lru),
                    (want.valid, want.dirty, want.tag, want.lru)
                );
            }
        }
    }

    /// `Cache::access` without the MRU shortcut, indexing with the
    /// geometry of the cache under test.
    struct ScanCache {
        lines: Vec<Line>,
        tick: u64,
    }

    impl ScanCache {
        fn access(&mut self, geometry: &Cache, addr: u64, write: bool) -> (bool, Option<u64>) {
            self.tick += 1;
            let set = geometry.set_of(addr);
            let base = set * geometry.cfg.ways;
            let tag = geometry.tag_of(addr);
            let lines = &mut self.lines[base..base + geometry.cfg.ways];
            if let Some(l) = lines.iter_mut().find(|l| l.valid && l.tag == tag) {
                l.lru = self.tick;
                l.dirty |= write;
                return (true, None);
            }
            let victim = lines
                .iter_mut()
                .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
                .expect("ways > 0");
            let evicted = (victim.valid && victim.dirty)
                .then(|| (victim.tag << geometry.tag_shift) | ((set as u64) << geometry.line_shift));
            *victim = Line { valid: true, dirty: write, tag, lru: self.tick };
            (false, evicted)
        }
    }

    #[test]
    fn a_dirty_eviction_reports_the_victim_line_address() {
        let mut c = small();
        c.access(0x1254, true); // set 1 of a 4-set, 64 B cache: line 0x1240
        c.access(0x1354, false);
        let (_, evicted) = c.access(0x1454, false); // third line in set 1
        assert_eq!(evicted, Some(0x1240));
    }

    #[test]
    fn miss_then_hit_same_line() {
        let mut c = small();
        let (hit, _) = c.access(0x100, false);
        assert!(!hit);
        let (hit, _) = c.access(0x13f, false); // same 64B line
        assert!(hit);
        let (hit, _) = c.access(0x140, false); // next line
        assert!(!hit);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to set 0 (stride = line*sets = 256).
        c.access(0x000, false); // A
        c.access(0x100, false); // B
        c.access(0x000, false); // touch A
        c.access(0x200, false); // C evicts B (LRU)
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn dirty_eviction_reports_victim_address() {
        let mut c = small();
        c.access(0x000, true); // dirty A
        c.access(0x100, false); // B
        let (_, evicted) = c.access(0x200, false); // evicts A
        assert_eq!(evicted, Some(0x000));
        // Clean eviction reports nothing.
        let (_, evicted) = c.access(0x300, false); // evicts B (clean)
        assert_eq!(evicted, None);
    }

    #[test]
    fn capacity_matches_table1() {
        let cfg = SimConfig::baseline();
        let h = MemoryHierarchy::new(&cfg);
        assert_eq!(h.l1d.capacity_bytes(), 32 * 1024);
        assert_eq!(h.l1i.capacity_bytes(), 32 * 1024);
        assert_eq!(h.l2.capacity_bytes(), 4 * 1024 * 1024);
    }

    #[test]
    fn hierarchy_latencies() {
        let cfg = SimConfig::baseline();
        let mut h = MemoryHierarchy::new(&cfg);
        // Cold: TLB miss + L1 miss + L2 miss + DRAM.
        let r = h.data_access(0x10_000, false);
        assert_eq!(r.level, CacheKind::Dram);
        assert!(r.tlb_miss);
        assert_eq!(r.cycles, 30 + 3 + 12 + 200);
        // Warm: L1 hit.
        let r = h.data_access(0x10_000, false);
        assert_eq!(r.level, CacheKind::L1);
        assert!(!r.tlb_miss);
        assert_eq!(r.cycles, 3);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let cfg = SimConfig::baseline();
        let mut h = MemoryHierarchy::new(&cfg);
        // Fill one L1-D set (8 ways, set stride 64*64 = 4096) + 1 to evict.
        // Use the same page so TLB effects vanish after the first access...
        // page is 4096 so use the itlb-free path: pre-touch pages.
        for i in 0..9u64 {
            h.data_access(i * 4096, false);
        }
        // First line was evicted from L1 but lives in L2.
        let r = h.data_access(0, false);
        assert_eq!(r.level, CacheKind::L2);
        assert_eq!(r.cycles, 3 + 12);
    }

    #[test]
    fn tlb_covers_pages() {
        let mut t = Tlb::new(8, 4, 4096);
        assert!(!t.access(0x0));
        assert!(t.access(0xfff)); // same page
        assert!(!t.access(0x1000)); // next page
    }

    #[test]
    fn spill_fill_counting() {
        let cfg = SimConfig::baseline();
        let mut h = MemoryHierarchy::new(&cfg);
        let r = h.data_access(0x2000, false);
        // One L1 fill transfer (plus the L2's own fill from DRAM).
        assert!(r.spill_fills >= 1);
        let r = h.data_access(0x2000, false);
        assert_eq!(r.spill_fills, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Cache::new(CacheConfig { sets: 3, ways: 1, line_bytes: 64, latency: 1 });
    }
}
