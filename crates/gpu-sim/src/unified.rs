//! Unified (managed) memory: CPU/GPU-shared allocations with page
//! migration — the substrate for the DrGPUM paper's future-work direction
//! ("memory inefficiencies that reside in CPU-GPU interactions, such as
//! page-level false sharing in unified memory", Sec. 8).
//!
//! A managed allocation ([`crate::DeviceContext::malloc_managed`]) is
//! addressable from both sides. Residency is tracked per 4 KiB page: a host
//! access to a device-resident page (or a kernel access to a host-resident
//! page) migrates the page, costs simulated time, and emits a
//! [`PageMigration`] event to the Sanitizer hooks — the raw signal behind
//! page-thrashing and false-sharing analysis.

use crate::mem::{DevicePtr, PAGE_SIZE};
use std::collections::BTreeMap;
use std::fmt;

/// Which processor a page currently resides with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Resident in host (CPU) memory.
    Host,
    /// Resident in device (GPU) memory.
    Device,
}

impl Side {
    /// The other side.
    pub fn other(self) -> Side {
        match self {
            Side::Host => Side::Device,
            Side::Device => Side::Host,
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Host => f.write_str("host"),
            Side::Device => f.write_str("device"),
        }
    }
}

/// One page migration event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMigration {
    /// Base address of the managed region the page belongs to.
    pub region_base: DevicePtr,
    /// Index of the page within the region.
    pub page_index: u32,
    /// The side the page migrated *to* (the accessor).
    pub to: Side,
    /// First byte of the access that triggered the migration.
    pub cause_addr: DevicePtr,
    /// Size of the triggering access.
    pub cause_size: u32,
}

#[derive(Debug)]
struct ManagedRegion {
    base: u64,
    size: u64,
    pages: Vec<Side>,
}

impl ManagedRegion {
    fn page_count(size: u64) -> usize {
        size.div_ceil(PAGE_SIZE) as usize
    }
}

/// The residency tracker for all managed regions of a context.
#[derive(Debug, Default)]
pub struct UnifiedManager {
    regions: BTreeMap<u64, ManagedRegion>,
    total_migrations: u64,
}

impl UnifiedManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        UnifiedManager::default()
    }

    /// Registers a managed region. Pages start host-resident (managed data
    /// is typically initialized by the CPU before the first kernel).
    pub fn register(&mut self, base: DevicePtr, size: u64) {
        self.regions.insert(
            base.addr(),
            ManagedRegion {
                base: base.addr(),
                size,
                pages: vec![Side::Host; ManagedRegion::page_count(size)],
            },
        );
    }

    /// Unregisters a managed region (at free).
    pub fn unregister(&mut self, base: DevicePtr) -> bool {
        self.regions.remove(&base.addr()).is_some()
    }

    /// Returns `true` if `addr` falls inside a managed region.
    pub fn is_managed(&self, addr: DevicePtr) -> bool {
        self.region_of(addr).is_some()
    }

    fn region_of(&self, addr: DevicePtr) -> Option<&ManagedRegion> {
        self.regions
            .range(..=addr.addr())
            .next_back()
            .map(|(_, r)| r)
            .filter(|r| addr.addr() < r.base + r.size)
    }

    /// Total page migrations ever performed.
    pub fn total_migrations(&self) -> u64 {
        self.total_migrations
    }

    /// Ensures the pages covering `[addr, addr + size)` are resident on
    /// `side`, migrating as needed. Returns the migrations performed (for
    /// cost accounting and event dispatch). A no-op for unmanaged
    /// addresses.
    pub fn ensure_resident(
        &mut self,
        addr: DevicePtr,
        size: u64,
        side: Side,
    ) -> Vec<PageMigration> {
        let Some((&base, _)) = self
            .regions
            .range(..=addr.addr())
            .next_back()
            .filter(|(_, r)| addr.addr() < r.base + r.size)
        else {
            return Vec::new();
        };
        let Some(region) = self.regions.get_mut(&base) else {
            return Vec::new();
        };
        let mut migrations = Vec::new();
        if size == 0 {
            return migrations;
        }
        let first = (addr.addr() - region.base) / PAGE_SIZE;
        let last = (addr.addr() + size - 1 - region.base) / PAGE_SIZE;
        for page in first..=last.min(region.pages.len() as u64 - 1) {
            let slot = &mut region.pages[page as usize];
            if *slot != side {
                *slot = side;
                migrations.push(PageMigration {
                    region_base: DevicePtr::new(region.base),
                    page_index: u32::try_from(page).unwrap_or(u32::MAX),
                    to: side,
                    cause_addr: addr,
                    cause_size: u32::try_from(size.min(u64::from(u32::MAX))).unwrap_or(u32::MAX),
                });
            }
        }
        self.total_migrations += migrations.len() as u64;
        migrations
    }

    /// Current residency of the page containing `addr`, if managed.
    pub fn residency(&self, addr: DevicePtr) -> Option<Side> {
        let region = self.region_of(addr)?;
        let page = (addr.addr() - region.base) / PAGE_SIZE;
        region.pages.get(page as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DevicePtr {
        DevicePtr::new(0x7f00_0000_0000)
    }

    #[test]
    fn pages_start_host_resident() {
        let mut m = UnifiedManager::new();
        m.register(base(), 3 * PAGE_SIZE);
        assert_eq!(m.residency(base()), Some(Side::Host));
        assert_eq!(m.residency(base() + 2 * PAGE_SIZE), Some(Side::Host));
        assert_eq!(m.residency(base() + 3 * PAGE_SIZE), None);
    }

    #[test]
    fn device_access_migrates_touched_pages_only() {
        let mut m = UnifiedManager::new();
        m.register(base(), 4 * PAGE_SIZE);
        let migs = m.ensure_resident(base() + PAGE_SIZE + 100, 8, Side::Device);
        assert_eq!(migs.len(), 1);
        assert_eq!(migs[0].page_index, 1);
        assert_eq!(migs[0].to, Side::Device);
        assert_eq!(m.residency(base()), Some(Side::Host));
        assert_eq!(m.residency(base() + PAGE_SIZE), Some(Side::Device));
    }

    #[test]
    fn repeated_same_side_access_is_free() {
        let mut m = UnifiedManager::new();
        m.register(base(), PAGE_SIZE);
        assert_eq!(m.ensure_resident(base(), 4, Side::Device).len(), 1);
        assert_eq!(m.ensure_resident(base() + 8, 4, Side::Device).len(), 0);
        assert_eq!(m.total_migrations(), 1);
    }

    #[test]
    fn ping_pong_counts_every_bounce() {
        let mut m = UnifiedManager::new();
        m.register(base(), PAGE_SIZE);
        for _ in 0..3 {
            m.ensure_resident(base(), 4, Side::Device);
            m.ensure_resident(base() + 2048, 4, Side::Host);
        }
        assert_eq!(m.total_migrations(), 6);
    }

    #[test]
    fn spanning_access_migrates_every_page() {
        let mut m = UnifiedManager::new();
        m.register(base(), 4 * PAGE_SIZE);
        let migs = m.ensure_resident(base() + 100, 3 * PAGE_SIZE, Side::Device);
        assert_eq!(migs.len(), 4, "partial first/last pages still migrate");
    }

    #[test]
    fn unmanaged_addresses_are_noops() {
        let mut m = UnifiedManager::new();
        m.register(base(), PAGE_SIZE);
        assert!(m
            .ensure_resident(base() + 10 * PAGE_SIZE, 4, Side::Device)
            .is_empty());
        assert!(!m.is_managed(base() + PAGE_SIZE));
        assert!(m.is_managed(base() + 100));
    }

    #[test]
    fn unregister_removes_tracking() {
        let mut m = UnifiedManager::new();
        m.register(base(), PAGE_SIZE);
        assert!(m.unregister(base()));
        assert!(!m.unregister(base()));
        assert!(!m.is_managed(base()));
    }
}
