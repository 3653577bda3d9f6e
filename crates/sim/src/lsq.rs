//! Load and store queue ordering model (§3.5).
//!
//! The queues track program order between memory operations. Memory
//! dependence prediction is modelled as *perfect* (the oracle-driven
//! simulator knows every store's address at dispatch, standing in for the
//! aggressive speculation Core 2-class machines performed): a load waits
//! only for truly conflicting older stores, and forwards when an older
//! store wholly covers it — after that store has executed and its data is
//! available. Partial address memoization statistics are recorded on
//! every address broadcast into the queues.

/// One store tracked by the store queue.
#[derive(Clone, Copy, Debug)]
struct SqEntry {
    addr: u64,
    size: u64,
    /// Cycle at which the store executed (address broadcast + data
    /// available); `u64::MAX` until it issues.
    ready_cycle: u64,
}

/// Result of a load's store-queue search.
///
/// Cycle payloads are `u64::MAX` while the matching store has not yet
/// executed — the load cannot issue before then.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadSearch {
    /// An older store wholly covers the load: forward from it (the
    /// payload is the cycle the store data became available).
    Forward(u64),
    /// An older store partially overlaps the load: the load must wait for
    /// the store's data and then access memory.
    PartialOverlap(u64),
    /// No conflict: access the cache.
    Cache,
}

/// The load/store queues.
///
/// The store queue is a power-of-two ring indexed by *store number*:
/// stores are numbered 0, 1, 2, … in allocation (program) order, the
/// queue holds `[sq_head, sq_tail)`, and a store's entry sits at its
/// number modulo the ring size. Dispatch is in order, so a load's older
/// stores are exactly those numbered below [`Lsq::sq_mark`] read at its
/// dispatch, minus those already committed.
#[derive(Clone, Debug)]
pub struct Lsq {
    sq: Vec<SqEntry>,
    mask: u64,
    /// Number of the oldest store still queued.
    sq_head: u64,
    /// Number the next allocated store receives.
    sq_tail: u64,
    sq_cap: usize,
    lq_occupancy: usize,
    lq_cap: usize,
}

impl Lsq {
    /// Creates queues with the Table 1 capacities.
    pub fn new(lq_cap: usize, sq_cap: usize) -> Lsq {
        let ring = sq_cap.next_power_of_two();
        Lsq {
            sq: vec![SqEntry { addr: 0, size: 0, ready_cycle: u64::MAX }; ring],
            mask: ring as u64 - 1,
            sq_head: 0,
            sq_tail: 0,
            sq_cap,
            lq_occupancy: 0,
            lq_cap,
        }
    }

    /// Whether a load can be allocated.
    #[inline]
    pub fn lq_has_space(&self) -> bool {
        self.lq_occupancy < self.lq_cap
    }

    /// Whether a store can be allocated.
    #[inline]
    pub fn sq_has_space(&self) -> bool {
        self.sq_occupancy() < self.sq_cap
    }

    /// Current store-queue occupancy.
    #[inline]
    pub fn sq_occupancy(&self) -> usize {
        (self.sq_tail - self.sq_head) as usize
    }

    /// Stores allocated so far: the number the next store receives. A
    /// load records it at dispatch and searches the stores below it.
    #[inline]
    pub fn sq_mark(&self) -> u64 {
        self.sq_tail
    }

    /// Allocates a load-queue entry (call after checking
    /// [`Lsq::lq_has_space`]).
    #[inline]
    pub fn alloc_load(&mut self) {
        debug_assert!(self.lq_has_space());
        self.lq_occupancy += 1;
    }

    /// Releases a load-queue entry at commit.
    #[inline]
    pub fn free_load(&mut self) {
        debug_assert!(self.lq_occupancy > 0);
        self.lq_occupancy -= 1;
    }

    /// Allocates a store-queue entry, in program order, with its
    /// oracle-known address, and returns the store's number.
    #[inline]
    pub fn alloc_store(&mut self, addr: u64, size: u64) -> u64 {
        debug_assert!(self.sq_has_space());
        let store = self.sq_tail;
        self.sq[(store & self.mask) as usize] = SqEntry { addr, size, ready_cycle: u64::MAX };
        self.sq_tail += 1;
        store
    }

    /// Records that store number `store` has executed (data available
    /// for forwarding).
    #[inline]
    pub fn set_store_ready(&mut self, store: u64, cycle: u64) {
        debug_assert!(self.sq_head <= store && store < self.sq_tail, "store {store} not queued");
        self.sq[(store & self.mask) as usize].ready_cycle = cycle;
    }

    /// Removes the oldest store, number `store` (at commit).
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty or the head is not `store` (stores
    /// commit in order).
    #[inline]
    pub fn commit_store(&mut self, store: u64) {
        assert!(self.sq_head < self.sq_tail, "store queue underflow");
        assert_eq!(self.sq_head, store, "stores must commit in order");
        self.sq_head += 1;
    }

    /// Searches the store queue on behalf of a load accessing
    /// `[addr, addr+size)` that was dispatched when [`Lsq::sq_mark`] read
    /// `mark`: the queued stores numbered below `mark` are older than
    /// it. They are walked youngest-first so the nearest match wins.
    #[inline]
    pub fn search_for_load(&self, mark: u64, addr: u64, size: u64) -> LoadSearch {
        debug_assert!(mark <= self.sq_tail);
        // The older stores as at most two runs of the ring: from the
        // head's slot to the end, then from slot 0 where they wrap.
        let start = (self.sq_head & self.mask) as usize;
        let end = start + mark.saturating_sub(self.sq_head) as usize;
        let (first, wrapped) = match end.checked_sub(self.sq.len()) {
            Some(wrap) => (&self.sq[start..], &self.sq[..wrap]),
            None => (&self.sq[start..end], &self.sq[..0]),
        };
        for e in wrapped.iter().rev().chain(first.iter().rev()) {
            let covers = e.addr <= addr && addr + size <= e.addr + e.size;
            let overlaps = e.addr < addr + size && addr < e.addr + e.size;
            if covers {
                return LoadSearch::Forward(e.ready_cycle);
            }
            if overlaps {
                return LoadSearch::PartialOverlap(e.ready_cycle);
            }
        }
        LoadSearch::Cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn capacity_limits() {
        let mut lsq = Lsq::new(2, 1);
        assert!(lsq.lq_has_space());
        lsq.alloc_load();
        lsq.alloc_load();
        assert!(!lsq.lq_has_space());
        lsq.free_load();
        assert!(lsq.lq_has_space());

        assert!(lsq.sq_has_space());
        lsq.alloc_store(0x100, 8);
        assert!(!lsq.sq_has_space());
    }

    #[test]
    fn disjoint_load_never_waits() {
        let mut lsq = Lsq::new(4, 4);
        lsq.alloc_store(0x900, 8);
        // Address disjoint from the pending store: the load can go to the
        // cache even though the store has not executed.
        assert_eq!(lsq.search_for_load(lsq.sq_mark(), 0x100, 8), LoadSearch::Cache);
    }

    #[test]
    fn covered_load_waits_until_store_executes() {
        let mut lsq = Lsq::new(4, 4);
        let store = lsq.alloc_store(0x100, 8);
        let load = lsq.sq_mark();
        assert_eq!(lsq.search_for_load(load, 0x100, 8), LoadSearch::Forward(u64::MAX));
        lsq.set_store_ready(store, 12);
        assert_eq!(lsq.search_for_load(load, 0x100, 8), LoadSearch::Forward(12));
    }

    #[test]
    fn forwarding_requires_full_coverage() {
        let mut lsq = Lsq::new(4, 4);
        let store = lsq.alloc_store(0x100, 8);
        lsq.set_store_ready(store, 12);
        let load = lsq.sq_mark();
        // Fully covered 4-byte load inside the 8-byte store.
        assert_eq!(lsq.search_for_load(load, 0x104, 4), LoadSearch::Forward(12));
        // Partial overlap: load straddles the store's end.
        assert_eq!(lsq.search_for_load(load, 0x104, 8), LoadSearch::PartialOverlap(12));
    }

    #[test]
    fn younger_stores_are_ignored() {
        let mut lsq = Lsq::new(4, 4);
        // The load dispatches before the store: no conflict.
        let load = lsq.sq_mark();
        let store = lsq.alloc_store(0x100, 8);
        lsq.set_store_ready(store, 3);
        assert_eq!(lsq.search_for_load(load, 0x100, 8), LoadSearch::Cache);
    }

    #[test]
    fn nearest_older_store_wins() {
        let mut lsq = Lsq::new(4, 4);
        let first = lsq.alloc_store(0x100, 8);
        let second = lsq.alloc_store(0x100, 8);
        lsq.set_store_ready(first, 5);
        lsq.set_store_ready(second, 9);
        assert_eq!(lsq.search_for_load(lsq.sq_mark(), 0x100, 8), LoadSearch::Forward(9));
    }

    #[test]
    fn commit_in_order() {
        let mut lsq = Lsq::new(4, 4);
        let first = lsq.alloc_store(0, 8);
        let second = lsq.alloc_store(8, 8);
        lsq.commit_store(first);
        lsq.commit_store(second);
        assert_eq!(lsq.sq_occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_commit_panics() {
        let mut lsq = Lsq::new(4, 4);
        lsq.alloc_store(0, 8);
        let second = lsq.alloc_store(8, 8);
        lsq.commit_store(second);
    }

    /// The store queue as it was before the ring: a `VecDeque` ordered by
    /// program sequence number, binary-searched for the stores older than
    /// a load.
    #[derive(Default)]
    struct SeqOrderedSq {
        /// `(seq, addr, size, ready_cycle)` per queued store.
        sq: VecDeque<(u64, u64, u64, u64)>,
    }

    impl SeqOrderedSq {
        fn alloc_store(&mut self, seq: u64, addr: u64, size: u64) {
            self.sq.push_back((seq, addr, size, u64::MAX));
        }

        fn set_store_ready(&mut self, seq: u64, cycle: u64) {
            let idx = self.sq.partition_point(|e| e.0 < seq);
            if let Some(e) = self.sq.get_mut(idx) {
                if e.0 == seq {
                    e.3 = cycle;
                }
            }
        }

        fn commit_store(&mut self, seq: u64) {
            let head = self.sq.pop_front().expect("store queue underflow");
            assert_eq!(head.0, seq, "stores must commit in order");
        }

        fn search_for_load(&self, load_seq: u64, addr: u64, size: u64) -> LoadSearch {
            let older = self.sq.partition_point(|e| e.0 < load_seq);
            for &(_, e_addr, e_size, ready) in self.sq.iter().take(older).rev() {
                let covers = e_addr <= addr && addr + size <= e_addr + e_size;
                let overlaps = e_addr < addr + size && addr < e_addr + e_size;
                if covers {
                    return LoadSearch::Forward(ready);
                }
                if overlaps {
                    return LoadSearch::PartialOverlap(ready);
                }
            }
            LoadSearch::Cache
        }
    }

    proptest! {
        /// The store-numbered ring against the sequence-ordered reference:
        /// a program-order stream of store and load dispatches (each takes
        /// the next `seq`), store executions, in-order store commits and
        /// repeated searches by every load dispatched so far, over many
        /// laps of the ring. Addresses share a few lines, so covering,
        /// partial and disjoint stores all occur.
        #[test]
        fn ring_matches_the_sequence_ordered_queue(
            sq_cap in 1usize..12,
            ops in proptest::collection::vec((0u8..5, any::<u16>()), 1..500),
        ) {
            let mut ring = Lsq::new(1, sq_cap);
            let mut reference = SeqOrderedSq::default();
            let mut seq = 0u64;
            // Queued stores `(seq, number)`, oldest first, and dispatched
            // loads `(seq, mark, addr, size)`.
            let mut stores: VecDeque<(u64, u64)> = VecDeque::new();
            let mut loads: Vec<(u64, u64, u64, u64)> = Vec::new();
            let mut cycle = 0u64;
            for (op, x) in ops {
                let x = u64::from(x);
                let addr = x % 48;
                let size = 1 << (x / 48 % 4);
                match op {
                    0 if ring.sq_has_space() => {
                        let store = ring.alloc_store(addr, size);
                        reference.alloc_store(seq, addr, size);
                        stores.push_back((seq, store));
                        seq += 1;
                    }
                    1 => {
                        loads.push((seq, ring.sq_mark(), addr, size));
                        seq += 1;
                    }
                    2 if !stores.is_empty() => {
                        let (store_seq, store) = stores[x as usize % stores.len()];
                        cycle += 1;
                        ring.set_store_ready(store, cycle);
                        reference.set_store_ready(store_seq, cycle);
                    }
                    3 => {
                        if let Some((store_seq, store)) = stores.pop_front() {
                            ring.commit_store(store);
                            reference.commit_store(store_seq);
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(ring.sq_occupancy(), stores.len());
                for &(load_seq, mark, addr, size) in &loads {
                    prop_assert_eq!(
                        ring.search_for_load(mark, addr, size),
                        reference.search_for_load(load_seq, addr, size)
                    );
                }
            }
        }
    }
}
