//! The event core's containers, keyed by sequence number or by cycle on
//! power-of-two rings: nothing on the per-instruction path allocates,
//! hashes or rebalances.
//!
//! * [`BitRing`] — a set of keys living inside a window narrower than
//!   its capacity, iterated in key order from the window's start. The
//!   ready set is one (keyed by `seq`, window the ROB), and so is the
//!   completion wheel's bucket-occupancy map (keyed by cycle).
//! * [`CompletionWheel`] — pending completion events, bucketed by cycle
//!   over a fixed span, drained in `(cycle, seq)` order; events due past
//!   the span wait in a short sorted overflow.
//! * [`InFlight`] — one ring holding every fetched, uncommitted
//!   instruction, indexed by `seq & mask`: the ROB is
//!   `[head, dispatched)` and the IFQ is `[dispatched, tail)`.

/// A set of `u64` keys that all lie in `[start, start + capacity)` for
/// the caller's current window start, stored as one bit per key modulo
/// the capacity.
#[derive(Clone, Debug)]
pub(crate) struct BitRing {
    words: Vec<u64>,
    mask: u64,
}

impl BitRing {
    /// A ring holding at least `span` consecutive keys (capacity a power
    /// of two, at least 64).
    pub(crate) fn new(span: usize) -> BitRing {
        let cap = span.next_power_of_two().max(64);
        BitRing { words: vec![0; cap / 64], mask: cap as u64 - 1 }
    }

    /// The key window's width.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    #[inline]
    fn bit(&self, key: u64) -> (usize, u64) {
        let b = key & self.mask;
        ((b >> 6) as usize, 1 << (b & 63))
    }

    #[inline]
    pub(crate) fn insert(&mut self, key: u64) {
        let (w, bit) = self.bit(key);
        debug_assert_eq!(self.words[w] & bit, 0, "key {key} already present");
        self.words[w] |= bit;
    }

    #[inline]
    pub(crate) fn remove(&mut self, key: u64) {
        let (w, bit) = self.bit(key);
        debug_assert_ne!(self.words[w] & bit, 0, "key {key} not present");
        self.words[w] &= !bit;
    }

    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The number of chunks [`BitRing::chunk`] splits a walk into.
    #[inline]
    pub(crate) fn chunks(&self) -> usize {
        self.words.len() + 1
    }

    /// Chunk `k` (of [`BitRing::chunks`]) of a walk in key order from
    /// `start`, as `(base, bits)`: bit `i` of `bits` stands for key
    /// `base + i`. Chunk 0 is `start`'s word from `start` up, the middle
    /// chunks are the following words, and the last chunk is `start`'s
    /// word below `start`, one lap on. A copy, so the caller may remove
    /// keys while it walks.
    #[inline]
    pub(crate) fn chunk(&self, start: u64, k: usize) -> (u64, u64) {
        let n = self.words.len();
        let off = start & 63;
        let first = ((start & self.mask) >> 6) as usize;
        // `n` is a power of two: the capacity is, and is at least 64.
        let word = self.words[(first + k) & (n - 1)];
        let bits = if k == 0 {
            word & (!0 << off)
        } else if k == n {
            word & ((1 << off) - 1)
        } else {
            word
        };
        (start - off + 64 * k as u64, bits)
    }

    /// The keys at or after `start`, in key order.
    pub(crate) fn iter_from(&self, start: u64) -> impl Iterator<Item = u64> + '_ {
        (0..self.chunks()).flat_map(move |k| {
            let (base, mut bits) = self.chunk(start, k);
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let i = bits.trailing_zeros();
                    bits &= bits - 1;
                    base + u64::from(i)
                })
            })
        })
    }

    /// The smallest key at or after `start`.
    #[inline]
    pub(crate) fn first_from(&self, start: u64) -> Option<u64> {
        (0..self.chunks()).find_map(|k| {
            let (base, bits) = self.chunk(start, k);
            (bits != 0).then(|| base + u64::from(bits.trailing_zeros()))
        })
    }
}

/// End of a wheel bucket's event list.
const NIL: u32 = u32::MAX;

/// Pending completion events `(at, seq)`, drained cycle by cycle in
/// `(at, seq)` order — the order a min-heap of `(at, seq)` pops them.
///
/// An event due less than `span` cycles after the cycle it is pushed in
/// goes into the bucket `at & (span - 1)`; one due later waits in a
/// sorted overflow until its cycle comes. Each bucket is a list threaded
/// through flat node arrays, one node per in-flight `seq` (every
/// instruction has at most one pending event), kept sorted by `seq`. The
/// occupancy bitmap answers "when is the next event?" for idle skipping.
///
/// The caller must drain every cycle that has events (it may skip
/// cycles only up to [`CompletionWheel::next_at`]), and the `seq`s of
/// pending events must span fewer than the node capacity.
#[derive(Clone, Debug)]
pub(crate) struct CompletionWheel {
    /// First node of each bucket's list.
    heads: Vec<u32>,
    occupied: BitRing,
    span_mask: u64,
    /// Per node: the next node in its bucket, its event's cycle, its seq.
    next: Vec<u32>,
    at: Vec<u64>,
    seq: Vec<u64>,
    node_mask: u64,
    /// Events due past the span, sorted latest first.
    overflow: Vec<(u64, u64)>,
}

impl CompletionWheel {
    /// A wheel whose buckets cover at least `span` cycles, for events
    /// whose `seq`s span fewer than `seq_span`.
    pub(crate) fn new(span: usize, seq_span: usize) -> CompletionWheel {
        let occupied = BitRing::new(span);
        let buckets = occupied.words.len() * 64;
        let nodes = seq_span.next_power_of_two();
        assert!(nodes < NIL as usize, "node index must fit the list links");
        CompletionWheel {
            heads: vec![NIL; buckets],
            occupied,
            span_mask: buckets as u64 - 1,
            next: vec![NIL; nodes],
            at: vec![0; nodes],
            seq: vec![0; nodes],
            node_mask: nodes as u64 - 1,
            overflow: Vec::new(),
        }
    }

    /// The bucket span in cycles.
    #[cfg(test)]
    pub(crate) fn span(&self) -> u64 {
        self.span_mask + 1
    }

    /// Schedules `seq`'s completion at cycle `at`, pushed during cycle
    /// `now` (`at > now`).
    #[inline]
    pub(crate) fn push(&mut self, at: u64, seq: u64, now: u64) {
        debug_assert!(at > now, "event at {at} is not in the future of {now}");
        if at - now > self.span_mask {
            let pos = self.overflow.partition_point(|&e| e > (at, seq));
            self.overflow.insert(pos, (at, seq));
        } else {
            self.link(at, seq, now);
        }
    }

    /// Inserts a node into bucket `at`'s list, keeping it sorted by seq.
    #[inline]
    fn link(&mut self, at: u64, seq: u64, now: u64) {
        let node = (seq & self.node_mask) as u32;
        let b = (at & self.span_mask) as usize;
        debug_assert!(self.at[node as usize] <= now, "seq {seq} reuses a pending event's node");
        self.at[node as usize] = at;
        self.seq[node as usize] = seq;
        let head = self.heads[b];
        if head == NIL {
            self.occupied.insert(at);
        }
        if head == NIL || self.seq[head as usize] > seq {
            self.next[node as usize] = head;
            self.heads[b] = node;
            return;
        }
        let mut prev = head;
        loop {
            let after = self.next[prev as usize];
            if after == NIL || self.seq[after as usize] > seq {
                self.next[node as usize] = after;
                self.next[prev as usize] = node;
                return;
            }
            prev = after;
        }
    }

    /// Pops the lowest-`seq` event due at cycle `now`, if any.
    #[inline]
    pub(crate) fn pop(&mut self, now: u64) -> Option<u64> {
        while let Some(&(at, seq)) = self.overflow.last() {
            if at > now {
                break;
            }
            debug_assert_eq!(at, now, "completion event missed its cycle");
            self.overflow.pop();
            self.link(at, seq, now);
        }
        let b = (now & self.span_mask) as usize;
        let node = self.heads[b];
        if node == NIL {
            return None;
        }
        let node = node as usize;
        debug_assert_eq!(self.at[node], now, "completion event missed its cycle");
        self.heads[b] = self.next[node];
        if self.heads[b] == NIL {
            self.occupied.remove(now);
        }
        Some(self.seq[node])
    }

    /// The cycle of the earliest event after `now`, when every event due
    /// at or before `now` has been popped.
    #[inline]
    pub(crate) fn next_at(&self, now: u64) -> Option<u64> {
        let bucketed = self.occupied.first_from(now + 1);
        let overflow = self.overflow.last().map(|&(at, _)| at);
        match (bucketed, overflow) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Drops every pending event.
    pub(crate) fn clear(&mut self) {
        self.heads.fill(NIL);
        self.at.fill(0);
        self.occupied.clear();
        self.overflow.clear();
    }
}

/// Every fetched, uncommitted instruction, in one ring indexed by
/// `seq & mask`. Sequence numbers are contiguous: entries enter at the
/// tail in `seq` order (fetch), cross from the IFQ into the ROB in
/// order (dispatch) and leave at the head in order (commit), so
///
/// `head <= dispatched <= tail`, the ROB is `[head, dispatched)` and
/// the IFQ is `[dispatched, tail)`.
///
/// The ring doubles when fetch finds it full, so its capacity needs no
/// bound on the front end's depth.
#[derive(Clone, Debug)]
pub(crate) struct InFlight<T> {
    entries: Vec<T>,
    mask: u64,
    head: u64,
    dispatched: u64,
    tail: u64,
}

impl<T: Copy> InFlight<T> {
    /// An empty ring of at least `cap` entries, filled with `filler`.
    pub(crate) fn new(cap: usize, filler: T) -> InFlight<T> {
        let cap = cap.next_power_of_two().max(2);
        InFlight { entries: vec![filler; cap], mask: cap as u64 - 1, head: 0, dispatched: 0, tail: 0 }
    }

    /// The oldest uncommitted `seq`.
    #[inline]
    pub(crate) fn head(&self) -> u64 {
        self.head
    }

    /// The first undispatched `seq`.
    #[inline]
    pub(crate) fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// The next `seq` fetch will push.
    #[cfg(test)]
    pub(crate) fn tail(&self) -> u64 {
        self.tail
    }

    #[inline]
    pub(crate) fn rob_len(&self) -> usize {
        (self.dispatched - self.head) as usize
    }

    #[inline]
    pub(crate) fn ifq_len(&self) -> usize {
        (self.tail - self.dispatched) as usize
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Whether `seq` is in the ROB.
    #[inline]
    pub(crate) fn in_rob(&self, seq: u64) -> bool {
        self.head <= seq && seq < self.dispatched
    }

    /// The entry of in-flight `seq`.
    #[inline]
    pub(crate) fn get(&self, seq: u64) -> &T {
        debug_assert!(self.head <= seq && seq < self.tail, "seq {seq} not in flight");
        &self.entries[(seq & self.mask) as usize]
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, seq: u64) -> &mut T {
        debug_assert!(self.head <= seq && seq < self.tail, "seq {seq} not in flight");
        &mut self.entries[(seq & self.mask) as usize]
    }

    /// The oldest ROB entry.
    #[inline]
    pub(crate) fn rob_front(&self) -> Option<&T> {
        (self.head < self.dispatched).then(|| self.get(self.head))
    }

    /// The `i`-th IFQ entry from its front.
    #[inline]
    pub(crate) fn ifq(&self, i: usize) -> Option<&T> {
        let seq = self.dispatched + i as u64;
        (seq < self.tail).then(|| self.get(seq))
    }

    /// Appends fetched `seq` to the IFQ and returns its entry, which
    /// still holds whatever the ring last stored there: the caller
    /// writes the fields it owns.
    #[inline]
    pub(crate) fn push(&mut self, seq: u64) -> &mut T {
        debug_assert_eq!(seq, self.tail, "fetch must push contiguous seqs");
        if self.tail - self.head > self.mask {
            self.grow();
        }
        self.tail += 1;
        &mut self.entries[(seq & self.mask) as usize]
    }

    /// Moves the IFQ front into the ROB, in place, and returns its seq.
    #[inline]
    pub(crate) fn dispatch(&mut self) -> u64 {
        debug_assert!(self.dispatched < self.tail, "dispatch from an empty IFQ");
        self.dispatched += 1;
        self.dispatched - 1
    }

    /// Retires the ROB head.
    #[inline]
    pub(crate) fn commit(&mut self) {
        debug_assert!(self.head < self.dispatched, "commit from an empty ROB");
        self.head += 1;
    }

    /// Empties the ring; the next fetched seq is 0.
    pub(crate) fn clear(&mut self) {
        self.head = 0;
        self.dispatched = 0;
        self.tail = 0;
    }

    #[cold]
    fn grow(&mut self) {
        let cap = self.entries.len() * 2;
        let mut entries = vec![self.entries[0]; cap];
        let mask = cap as u64 - 1;
        for seq in self.head..self.tail {
            entries[(seq & mask) as usize] = self.entries[(seq & self.mask) as usize];
        }
        self.entries = entries;
        self.mask = mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::{BTreeSet, BinaryHeap};

    proptest! {
        /// The ready ring against a `BTreeSet` reference: random inserts,
        /// removals and window advances over many laps of the ring, the
        /// walk always oldest first.
        #[test]
        fn bit_ring_matches_an_ordered_set(
            span in 1usize..200,
            ops in proptest::collection::vec((0u8..4, any::<u16>()), 1..600),
        ) {
            let mut ring = BitRing::new(span);
            let cap = ring.capacity() as u64;
            prop_assert!(cap >= 64 && cap >= span as u64 && cap.is_power_of_two());
            let mut reference = BTreeSet::new();
            let mut start = 0u64;
            for (op, x) in ops {
                match op {
                    0 | 1 => {
                        let key = start + u64::from(x) % cap;
                        if reference.insert(key) {
                            ring.insert(key);
                        }
                    }
                    2 => {
                        if let Some(&key) = reference.iter().nth(usize::from(x) % reference.len().max(1)) {
                            reference.remove(&key);
                            ring.remove(key);
                        }
                    }
                    _ => {
                        // Advance the window past keys it no longer covers
                        // (as commit moves the ROB head past issued slots).
                        let new_start = start + u64::from(x) % (cap / 2 + 1) + 1;
                        let gone: Vec<u64> = reference.range(..new_start).copied().collect();
                        for key in gone {
                            reference.remove(&key);
                            ring.remove(key);
                        }
                        start = new_start;
                    }
                }
                let walked: Vec<u64> = ring.iter_from(start).collect();
                let expected: Vec<u64> = reference.iter().copied().collect();
                prop_assert_eq!(&walked, &expected);
                prop_assert_eq!(ring.first_from(start), expected.first().copied());
            }
        }

        /// The wheel against a `(cycle, seq)` min-heap: latencies from 1 to
        /// 4x the span (so the overflow is used), several events per
        /// cycle, cycles skipped up to `next_at`, and `clear` midway.
        #[test]
        fn wheel_matches_a_min_heap(
            span_exp in 6u32..9,
            steps in proptest::collection::vec(
                (proptest::collection::vec(any::<u16>(), 0..6), any::<bool>(), 0u8..40),
                1..300,
            ),
        ) {
            let span = 1usize << span_exp;
            let seq_span = 64;
            let mut wheel = CompletionWheel::new(span, seq_span);
            prop_assert_eq!(wheel.span(), span as u64);
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut now = 0u64;
            let mut next_seq = 0u64;
            let mut live: BTreeSet<u64> = BTreeSet::new();
            for (step, (lats, skip, clear_at)) in steps.into_iter().enumerate() {
                // Drain this cycle, in (at, seq) order.
                let mut popped = Vec::new();
                while let Some(seq) = wheel.pop(now) {
                    popped.push(seq);
                }
                let mut expected = Vec::new();
                while let Some(&Reverse((at, seq))) = heap.peek() {
                    if at > now {
                        break;
                    }
                    prop_assert_eq!(at, now, "reference event missed");
                    heap.pop();
                    expected.push(seq);
                }
                prop_assert_eq!(&popped, &expected);
                for seq in &popped {
                    live.remove(seq);
                }
                if clear_at == 0 && step > 0 {
                    // A restart: the pipeline drained, seqs start over.
                    wheel.clear();
                    heap.clear();
                    live.clear();
                    next_seq = 0;
                }
                // Push new events with random latencies; seqs are assigned
                // out of order within the cycle.
                let mut batch: Vec<(u64, u64)> = Vec::new();
                for x in lats {
                    if live.len() + batch.len() >= seq_span / 2 {
                        break;
                    }
                    let lat = 1 + u64::from(x) % (4 * span as u64);
                    batch.push((now + lat, next_seq));
                    next_seq += 1;
                }
                batch.reverse();
                for &(at, seq) in &batch {
                    // Keep live seqs within the node capacity.
                    let far = |o: &u64| o.abs_diff(seq) >= seq_span as u64;
                    if live.first().is_some_and(far) || live.last().is_some_and(far) {
                        continue;
                    }
                    wheel.push(at, seq, now);
                    heap.push(Reverse((at, seq)));
                    live.insert(seq);
                }
                let want = heap.peek().map(|&Reverse((at, _))| at);
                prop_assert_eq!(wheel.next_at(now), want);
                now = match (skip, want) {
                    (true, Some(at)) => at,
                    _ => now + 1,
                };
            }
        }

        /// The in-flight ring keeps `head <= dispatched <= tail`, finds
        /// every entry by its seq across wraps and growth, and clears.
        #[test]
        fn in_flight_ring_keeps_its_windows(
            ops in proptest::collection::vec(0u8..3, 1..800),
        ) {
            let mut ring = InFlight::new(4, u64::MAX);
            let (mut head, mut dispatched, mut tail) = (0u64, 0u64, 0u64);
            for op in ops {
                match op {
                    0 => {
                        *ring.push(tail) = tail * 7;
                        tail += 1;
                    }
                    1 if dispatched < tail => {
                        prop_assert_eq!(ring.dispatch(), dispatched);
                        dispatched += 1;
                    }
                    2 if head < dispatched => {
                        prop_assert_eq!(ring.rob_front(), Some(&(head * 7)));
                        ring.commit();
                        head += 1;
                    }
                    _ => {}
                }
                prop_assert_eq!((ring.head(), ring.dispatched(), ring.tail()), (head, dispatched, tail));
                prop_assert_eq!(ring.rob_len() as u64, dispatched - head);
                prop_assert_eq!(ring.ifq_len() as u64, tail - dispatched);
                prop_assert_eq!(ring.is_empty(), head == tail);
                for seq in head..tail {
                    prop_assert_eq!(*ring.get(seq), seq * 7);
                    prop_assert_eq!(ring.in_rob(seq), seq < dispatched);
                }
                prop_assert_eq!(ring.ifq(0).copied(), (dispatched < tail).then_some(dispatched * 7));
            }
            ring.clear();
            prop_assert!(ring.is_empty() && ring.rob_front().is_none() && ring.ifq(0).is_none());
            *ring.push(0) = 42;
            prop_assert_eq!(*ring.get(0), 42);
        }
    }
}
