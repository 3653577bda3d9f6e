//! Sparse, paged, little-endian memory image with copy-on-write pages.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Hashes a page number with one multiply (Fibonacci hashing), folding
/// the product's well-mixed high half into the low bits the table
/// indexes with, so strided page numbers still spread. Page numbers are
/// the simulated program's addresses, and SipHash's flooding resistance
/// is not worth its cost on every memory access.
#[derive(Clone, Copy, Default)]
struct PageHasher(u64);

impl PageHasher {
    #[inline]
    fn mix(&mut self, n: u64) {
        let x = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }
}

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type Page = [u8; PAGE_SIZE];

/// A sparse 64-bit byte-addressable memory.
///
/// Pages (4 KiB) are allocated on first touch and read as zero before any
/// write — the usual simulator convention, which also means workloads get
/// deterministic initial state.
///
/// Pages sit behind [`Arc`], so `clone` copies page pointers, not bytes:
/// a program's image is built once and every machine started from it
/// shares its pages. A write copies only the page it lands on, and only
/// while another memory still shares that page (copy on first write).
///
/// ```
/// use th_isa::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0x1000, 0xdead_beef_cafe_f00d);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef_cafe_f00d);
/// assert_eq!(m.read_u32(0x1004), 0xdead_beef);
/// assert_eq!(m.read_u8(0x9999), 0); // untouched memory reads zero
/// ```
#[derive(Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Arc<Page>, BuildHasherDefault<PageHasher>>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of 4 KiB pages that have been touched.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&Page> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|p| p.as_ref())
    }

    fn page_mut(&mut self, addr: u64) -> &mut Page {
        Arc::make_mut(
            self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Arc::new([0u8; PAGE_SIZE])),
        )
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr).map_or(0, |p| p[(addr & PAGE_MASK) as usize])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr` (may span pages).
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        // Fast path: contained in one page.
        if (addr & PAGE_MASK) as usize + N <= PAGE_SIZE {
            if let Some(p) = self.page(addr) {
                let off = (addr & PAGE_MASK) as usize;
                out.copy_from_slice(&p[off..off + N]);
            }
            return out;
        }
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = self.read_u8(addr.wrapping_add(i as u64));
        }
        out
    }

    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        // Copy page-sized runs; a large segment (workload data images run
        // to megabytes) must not degrade to per-byte page lookups.
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(rest.len());
            self.page_mut(addr)[off..off + n].copy_from_slice(&rest[..n]);
            addr = addr.wrapping_add(n as u64);
            rest = &rest[n..];
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Copies a byte slice into memory at `addr`.
    pub fn write_slice(&mut self, addr: u64, bytes: &[u8]) {
        self.write_bytes(addr, bytes);
    }

    /// Writes the `N`-byte chunks of `chunks` back to back from `addr` and
    /// returns the number of bytes written. The chunks are gathered into
    /// page-sized runs, so a multi-megabyte stream costs one page lookup
    /// per page rather than one per chunk, and no caller-side buffer of
    /// the whole stream is needed.
    pub(crate) fn write_chunks<const N: usize>(
        &mut self,
        addr: u64,
        chunks: impl IntoIterator<Item = [u8; N]>,
    ) -> u64 {
        const { assert!(N > 0 && N <= PAGE_SIZE, "a chunk must fit in a page") };
        let mut chunks = chunks.into_iter();
        let mut run = [0u8; PAGE_SIZE];
        let full = PAGE_SIZE / N * N;
        let mut written = 0u64;
        loop {
            let mut len = 0;
            // `zip` pulls a slot before a chunk, so none is dropped when
            // the run fills up.
            for (slot, chunk) in run[..full].chunks_exact_mut(N).zip(chunks.by_ref()) {
                slot.copy_from_slice(&chunk);
                len += N;
            }
            if len > 0 {
                self.write_bytes(addr.wrapping_add(written), &run[..len]);
                written += len as u64;
            }
            if len < full {
                return written;
            }
        }
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    pub fn read_vec(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(addr.wrapping_add(i as u64))).collect()
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory").field("pages", &self.pages.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn strided_pages_hash_apart() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<PageHasher>::default();
        // Pages 1 MiB apart: a plain multiply leaves their low bits equal.
        let low: std::collections::HashSet<u64> =
            (0..64u64).map(|i| build.hash_one(i << 8) & 0x3f).collect();
        assert!(low.len() > 32, "only {} distinct low-bit buckets", low.len());
    }

    #[test]
    fn zero_before_write() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u8(u64::MAX), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn rw_roundtrip_sizes() {
        let mut m = Memory::new();
        m.write_u8(10, 0xab);
        m.write_u16(12, 0x1234);
        m.write_u32(16, 0xdeadbeef);
        m.write_u64(24, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u16(12), 0x1234);
        assert_eq!(m.read_u32(16), 0xdeadbeef);
        assert_eq!(m.read_u64(24), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE as u64 - 3; // spans the first page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn slice_and_vec() {
        let mut m = Memory::new();
        m.write_slice(100, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_vec(100, 5), vec![1, 2, 3, 4, 5]);
        assert_eq!(m.read_vec(98, 3), vec![0, 0, 1]);
    }

    #[test]
    fn multi_page_slice_roundtrips() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..3 * PAGE_SIZE + 100).map(|i| (i % 251) as u8).collect();
        let base = PAGE_SIZE as u64 - 7; // straddle the first boundary
        m.write_slice(base, &data);
        assert_eq!(m.read_vec(base, data.len()), data);
        assert_eq!(m.page_count(), 5);
    }

    #[test]
    fn clone_shares_pages_until_written() {
        let mut a = Memory::new();
        a.write_u64(0, 1);
        a.write_u64(PAGE_SIZE as u64, 2);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.pages[&0], &b.pages[&0]));
        b.write_u8(3, 0xff);
        assert!(!Arc::ptr_eq(&a.pages[&0], &b.pages[&0]), "the written page is copied");
        assert!(Arc::ptr_eq(&a.pages[&1], &b.pages[&1]), "the other page stays shared");
        assert_eq!((a.read_u64(0), b.read_u64(0)), (1, 0xff00_0001));
    }

    #[test]
    fn chunks_fill_pages_across_boundaries() {
        // Three-byte chunks do not divide a page, and the start straddles one.
        let base = 2 * PAGE_SIZE as u64 - 5;
        let chunks: Vec<[u8; 3]> = (0..3000u32).map(|i| [i as u8, (i >> 8) as u8, 7]).collect();
        let mut streamed = Memory::new();
        assert_eq!(streamed.write_chunks(base, chunks.iter().copied()), 9000);
        let flat: Vec<u8> = chunks.concat();
        assert_eq!(streamed.read_vec(base - 1, flat.len() + 2), [&[0][..], &flat, &[0]].concat());
        assert_eq!(streamed.write_chunks(base, std::iter::empty::<[u8; 8]>()), 0);
        assert_eq!(streamed.page_count(), 4);
    }

    /// `(size, addr, value)`: a `u8`/`u16`/`u32`/`u64` write into the
    /// first pages, half of them within eight bytes of a page edge so
    /// wide writes straddle it.
    fn sized_write() -> impl Strategy<Value = (u32, u64, u64)> {
        (0u32..4, 0u64..4, any::<bool>(), 0u64..PAGE_SIZE as u64, any::<u64>()).prop_map(
            |(size, page, near_edge, off, value)| {
                let off = if near_edge { PAGE_SIZE as u64 - 8 + off % 8 } else { off };
                (size, page * PAGE_SIZE as u64 + off, value)
            },
        )
    }

    fn apply(m: &mut Memory, reference: &mut HashMap<u64, u8>, write: (u32, u64, u64)) {
        let (size, addr, value) = write;
        match size {
            0 => m.write_u8(addr, value as u8),
            1 => m.write_u16(addr, value as u16),
            2 => m.write_u32(addr, value as u32),
            _ => m.write_u64(addr, value),
        }
        for (i, &b) in value.to_le_bytes()[..1 << size].iter().enumerate() {
            reference.insert(addr + i as u64, b);
        }
    }

    fn reads_like(m: &Memory, reference: &HashMap<u64, u8>) -> Result<(), TestCaseError> {
        for addr in 0..5 * PAGE_SIZE as u64 {
            prop_assert_eq!(m.read_u8(addr), reference.get(&addr).copied().unwrap_or(0));
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn writes_to_a_clone_never_show_in_the_original(
            before in proptest::collection::vec(sized_write(), 0..24),
            after in proptest::collection::vec(sized_write(), 1..24),
        ) {
            let (mut original, mut original_ref) = (Memory::new(), HashMap::new());
            for &w in &before {
                apply(&mut original, &mut original_ref, w);
            }
            let (mut copy, mut copy_ref) = (original.clone(), original_ref.clone());
            for &w in &after {
                apply(&mut copy, &mut copy_ref, w);
            }
            reads_like(&original, &original_ref)?;
            reads_like(&copy, &copy_ref)?;
            for &(_, addr, _) in &after {
                let wide = |r: &HashMap<u64, u8>| {
                    (0..8).fold(0u64, |v, i| {
                        v | u64::from(r.get(&(addr + i)).copied().unwrap_or(0)) << (8 * i)
                    })
                };
                prop_assert_eq!(copy.read_u64(addr), wide(&copy_ref));
                prop_assert_eq!(original.read_u64(addr), wide(&original_ref));
            }
        }

        #[test]
        fn u64_roundtrip(addr in any::<u64>(), value in any::<u64>()) {
            // Avoid wrapping past the end of the address space mid-value.
            let addr = addr & !0xf;
            let mut m = Memory::new();
            m.write_u64(addr, value);
            prop_assert_eq!(m.read_u64(addr), value);
        }

        #[test]
        fn byte_composition(addr in 0u64..1_000_000, value in any::<u64>()) {
            let mut m = Memory::new();
            m.write_u64(addr, value);
            let mut rebuilt = 0u64;
            for i in 0..8 {
                rebuilt |= (m.read_u8(addr + i) as u64) << (8 * i);
            }
            prop_assert_eq!(rebuilt, value);
        }

        #[test]
        fn disjoint_writes_do_not_interfere(a in 0u64..100_000, b in 0u64..100_000,
                                            va in any::<u64>(), vb in any::<u64>()) {
            prop_assume!(a.abs_diff(b) >= 8);
            let mut m = Memory::new();
            m.write_u64(a, va);
            m.write_u64(b, vb);
            prop_assert_eq!(m.read_u64(a), va);
            prop_assert_eq!(m.read_u64(b), vb);
        }
    }
}
