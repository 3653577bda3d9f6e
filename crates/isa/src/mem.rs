//! Sparse, paged, little-endian memory image.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

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

/// A sparse 64-bit byte-addressable memory.
///
/// Pages (4 KiB) are allocated on first touch and read as zero before any
/// write — the usual simulator convention, which also means workloads get
/// deterministic initial state.
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
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
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
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|p| p.as_ref())
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
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

    proptest! {
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
