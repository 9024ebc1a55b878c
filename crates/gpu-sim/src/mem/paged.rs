//! Sparse, lazily-materialized backing store for device memory.

use super::DevicePtr;
use std::collections::HashMap;

/// Size of one backing page in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// A sparse byte store covering the whole simulated device address space.
///
/// Pages are allocated on first touch and zero-filled, matching the behaviour
/// most workloads rely on after `cudaMemset(ptr, 0, size)`. Untouched pages
/// cost nothing, so simulated programs may overallocate wildly (the paper's
/// *overallocation* pattern) without bloating the host process.
///
/// # Examples
///
/// ```
/// use gpu_sim::mem::{PagedStore, DevicePtr};
///
/// let mut store = PagedStore::new();
/// let p = DevicePtr::new(0x7f00_0000_0000);
/// store.write_bytes(p, &[1, 2, 3]);
/// let mut buf = [0u8; 3];
/// store.read_bytes(p, &mut buf);
/// assert_eq!(buf, [1, 2, 3]);
/// ```
#[derive(Debug, Default)]
pub struct PagedStore {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
}

impl PagedStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PagedStore::default()
    }

    /// Number of pages that have been materialized so far.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of resident bytes (pages × page size).
    pub fn resident_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE
    }

    /// Returns `true` if the page containing `addr` has been materialized.
    pub fn is_resident(&self, addr: DevicePtr) -> bool {
        self.pages.contains_key(&(addr.addr() / PAGE_SIZE))
    }

    fn page_mut(&mut self, index: u64) -> &mut [u8; PAGE_SIZE as usize] {
        self.pages
            .entry(index)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]))
    }

    /// Writes `data` starting at `addr`, materializing pages as needed.
    pub fn write_bytes(&mut self, addr: DevicePtr, data: &[u8]) {
        let mut offset = 0usize;
        let mut cur = addr.addr();
        while offset < data.len() {
            let page = cur / PAGE_SIZE;
            let in_page = (cur % PAGE_SIZE) as usize;
            let n = usize::min(PAGE_SIZE as usize - in_page, data.len() - offset);
            self.page_mut(page)[in_page..in_page + n].copy_from_slice(&data[offset..offset + n]);
            offset += n;
            cur += n as u64;
        }
    }

    /// Reads into `buf` starting at `addr`. Unmaterialized pages read as zero.
    pub fn read_bytes(&self, addr: DevicePtr, buf: &mut [u8]) {
        let mut offset = 0usize;
        let mut cur = addr.addr();
        while offset < buf.len() {
            let page = cur / PAGE_SIZE;
            let in_page = (cur % PAGE_SIZE) as usize;
            let n = usize::min(PAGE_SIZE as usize - in_page, buf.len() - offset);
            match self.pages.get(&page) {
                Some(p) => buf[offset..offset + n].copy_from_slice(&p[in_page..in_page + n]),
                None => buf[offset..offset + n].fill(0),
            }
            offset += n;
            cur += n as u64;
        }
    }

    /// Fills `len` bytes starting at `addr` with `value`.
    ///
    /// A `value` of zero on fully unmaterialized pages is a no-op, mirroring
    /// how real `cudaMemset` to zero leaves untouched physical pages zero.
    pub fn fill(&mut self, addr: DevicePtr, len: u64, value: u8) {
        if value == 0 {
            // Only touch pages that already exist; virgin pages are zero.
            let first = addr.addr() / PAGE_SIZE;
            let last = (addr.addr() + len.saturating_sub(1)) / PAGE_SIZE;
            for page in first..=last {
                if let Some(p) = self.pages.get_mut(&page) {
                    let page_start = page * PAGE_SIZE;
                    let s = u64::max(addr.addr(), page_start) - page_start;
                    let e = u64::min(addr.addr() + len, page_start + PAGE_SIZE) - page_start;
                    p[s as usize..e as usize].fill(0);
                }
            }
            return;
        }
        let mut remaining = len;
        let mut cur = addr.addr();
        while remaining > 0 {
            let page = cur / PAGE_SIZE;
            let in_page = (cur % PAGE_SIZE) as usize;
            let n = u64::min(PAGE_SIZE - in_page as u64, remaining) as usize;
            self.page_mut(page)[in_page..in_page + n].fill(value);
            remaining -= n as u64;
            cur += n as u64;
        }
    }

    /// Copies `len` bytes from `src` to `dst` within the device.
    pub fn copy_within(&mut self, dst: DevicePtr, src: DevicePtr, len: u64) {
        // Simple and correct for overlapping ranges: stage through a buffer.
        let mut buf = vec![0u8; len as usize];
        self.read_bytes(src, &mut buf);
        self.write_bytes(dst, &buf);
    }

    /// Reads a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: DevicePtr) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32` at `addr`.
    pub fn write_u32(&mut self, addr: DevicePtr, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: DevicePtr) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: DevicePtr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads an `f32` at `addr`.
    pub fn read_f32(&self, addr: DevicePtr) -> f32 {
        f32::from_le_bytes({
            let mut b = [0u8; 4];
            self.read_bytes(addr, &mut b);
            b
        })
    }

    /// Writes an `f32` at `addr`.
    pub fn write_f32(&mut self, addr: DevicePtr, v: f32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads an `f64` at `addr`.
    pub fn read_f64(&self, addr: DevicePtr) -> f64 {
        f64::from_le_bytes({
            let mut b = [0u8; 8];
            self.read_bytes(addr, &mut b);
            b
        })
    }

    /// Writes an `f64` at `addr`.
    pub fn write_f64(&mut self, addr: DevicePtr, v: f64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Discards all materialized pages whose addresses fall entirely inside
    /// `[start, start + len)`, releasing host memory for freed allocations.
    pub fn discard(&mut self, start: DevicePtr, len: u64) {
        if len == 0 {
            return;
        }
        let first_full = start.addr().div_ceil(PAGE_SIZE);
        let end = start.addr() + len;
        let last_full = end / PAGE_SIZE; // exclusive
        for page in first_full..last_full {
            self.pages.remove(&page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DevicePtr {
        DevicePtr::new(super::super::DEVICE_ADDR_BASE)
    }

    #[test]
    fn read_unwritten_memory_is_zero() {
        let store = PagedStore::new();
        let mut buf = [7u8; 16];
        store.read_bytes(base(), &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(store.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip_across_page_boundary() {
        let mut store = PagedStore::new();
        let p = base() + (PAGE_SIZE - 3);
        let data: Vec<u8> = (0..10).collect();
        store.write_bytes(p, &data);
        let mut out = vec![0u8; 10];
        store.read_bytes(p, &mut out);
        assert_eq!(out, data);
        assert_eq!(store.resident_pages(), 2);
    }

    #[test]
    fn zero_fill_does_not_materialize_pages() {
        let mut store = PagedStore::new();
        store.fill(base(), 1 << 20, 0);
        assert_eq!(store.resident_pages(), 0);
    }

    #[test]
    fn nonzero_fill_materializes_pages() {
        let mut store = PagedStore::new();
        store.fill(base(), 2 * PAGE_SIZE, 0xAB);
        assert_eq!(store.resident_pages(), 2);
        let mut b = [0u8; 1];
        store.read_bytes(base() + PAGE_SIZE + 7, &mut b);
        assert_eq!(b[0], 0xAB);
    }

    #[test]
    fn zero_fill_clears_existing_data() {
        let mut store = PagedStore::new();
        store.write_bytes(base(), &[9u8; 32]);
        store.fill(base() + 8, 16, 0);
        let mut out = [0u8; 32];
        store.read_bytes(base(), &mut out);
        assert_eq!(&out[..8], &[9u8; 8]);
        assert_eq!(&out[8..24], &[0u8; 16]);
        assert_eq!(&out[24..], &[9u8; 8]);
    }

    #[test]
    fn typed_accessors_round_trip() {
        let mut store = PagedStore::new();
        store.write_u32(base(), 0xDEAD_BEEF);
        assert_eq!(store.read_u32(base()), 0xDEAD_BEEF);
        store.write_u64(base() + 8, u64::MAX - 5);
        assert_eq!(store.read_u64(base() + 8), u64::MAX - 5);
        store.write_f32(base() + 16, 3.25);
        assert_eq!(store.read_f32(base() + 16), 3.25);
        store.write_f64(base() + 24, -1.5e300);
        assert_eq!(store.read_f64(base() + 24), -1.5e300);
    }

    #[test]
    fn copy_within_handles_overlap() {
        let mut store = PagedStore::new();
        let data: Vec<u8> = (0..64).collect();
        store.write_bytes(base(), &data);
        store.copy_within(base() + 8, base(), 64);
        let mut out = vec![0u8; 64];
        store.read_bytes(base() + 8, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn discard_releases_full_pages_only() {
        let mut store = PagedStore::new();
        store.write_bytes(base(), &[1u8; (3 * PAGE_SIZE) as usize]);
        assert_eq!(store.resident_pages(), 3);
        // Range covers the middle page fully, the outer two partially.
        store.discard(base() + 100, 2 * PAGE_SIZE);
        assert_eq!(store.resident_pages(), 2);
        assert!(store.is_resident(base()));
        assert!(!store.is_resident(base() + PAGE_SIZE));
    }
}
