//! Data objects and the memory map `M` (Sec. 5.1).
//!
//! DrGPUM maintains a memory map from live address ranges to data objects.
//! At each allocation the range and the unwound call path are inserted; at
//! each deallocation the record is retired (never discarded — retired objects
//! still carry findings). Lookups by address are interval searches, exactly
//! the binary search the paper offloads to the GPU in Fig. 5.

use crate::names::PathId;
use gpu_sim::{AddrRange, DevicePtr};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::Arc;

/// Stable identity of a data object across its whole lifetime.
///
/// Device addresses are reused after `cudaFree`; object ids are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// A hasher for integer keys — object ids and trace indices: one
/// multiply per word (the Fx scheme). The keys come from this program's
/// registry or from a trace it wrote, not from text an attacker chooses,
/// so SipHash's flood resistance is traded for speed; a trace crafted so
/// that its ids collide only slows its own load. Ids are not dense row
/// indices: a hand-written trace may number its objects 1, 2, 7 or near
/// `u64::MAX`, so maps stay maps.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        // The table indexes buckets by the low bits, which a product takes
        // from the key's low bits only: rotate the well-mixed high bits
        // down, so ids that differ only above bit 32 still spread.
        self.0.rotate_left(26)
    }
}

/// A hash map keyed by object ids or trace indices, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A hash set of object ids or trace indices, hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Where an object's memory came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectSource {
    /// A direct `cudaMalloc` allocation.
    Cuda,
    /// The backing slab of a caching pool (excluded from pattern findings;
    /// its tensors are analyzed instead).
    PoolSlab,
    /// A tensor carved out of a caching pool via custom allocator APIs
    /// (Sec. 5.4).
    PoolTensor,
}

impl ObjectSource {
    /// Whether objects from this source participate in pattern detection.
    pub fn is_analyzable(self) -> bool {
        !matches!(self, ObjectSource::PoolSlab)
    }
}

/// One data object: an allocation observed by the collector.
#[derive(Debug, Clone)]
pub struct DataObject {
    /// Stable id.
    pub id: ObjectId,
    /// Program-supplied label (variable name), e.g. `"q_dx"`. The trace's
    /// ALLOC and FREE rows share it.
    pub label: Arc<str>,
    /// Base address and requested size.
    pub range: AddrRange,
    /// Provenance of the memory.
    pub source: ObjectSource,
    /// Index into the GPU-API trace *after* which the object existed: the
    /// allocation API's own index for CUDA objects, or the number of GPU
    /// APIs seen so far for pool tensors (whose allocs are not GPU APIs).
    pub alloc_api: usize,
    /// Like `alloc_api`, but for the deallocation; `None` while live — and,
    /// at the end of a run, `None` means the paper's *memory leak* pattern.
    pub free_api: Option<usize>,
    /// Host call path at allocation, in the session's
    /// [`crate::names::PathTable`].
    pub alloc_path: PathId,
    /// Whether the allocation API itself is a GPU API in the trace (true for
    /// `cudaMalloc`, false for pool tensors).
    pub alloc_is_api: bool,
    /// Whether the deallocation is a GPU API (`cudaFree`) rather than a
    /// pool-level free anchored between GPU APIs.
    pub free_is_api: bool,
}

impl DataObject {
    /// Requested size in bytes.
    pub fn size(&self) -> u64 {
        self.range.len
    }

    /// Returns `true` if the object was never deallocated.
    pub fn leaked(&self) -> bool {
        self.free_api.is_none()
    }
}

/// The memory map `M`: all data objects ever observed, with interval lookup
/// over the currently-live ones.
///
/// # Examples
///
/// ```
/// use drgpum_core::names::PathId;
/// use drgpum_core::object::{ObjectRegistry, ObjectSource};
/// use gpu_sim::{AddrRange, DevicePtr};
///
/// let mut reg = ObjectRegistry::new();
/// let id = reg.on_alloc(
///     "weights",
///     AddrRange::new(DevicePtr::new(0x1000), 64),
///     ObjectSource::Cuda,
///     0,
///     true,
///     PathId(0),
/// );
/// assert_eq!(reg.resolve(DevicePtr::new(0x1020)), Some(id));
/// reg.on_free(DevicePtr::new(0x1000), 5);
/// assert_eq!(reg.resolve(DevicePtr::new(0x1020)), None);
/// assert!(reg.get(id).unwrap().free_api.is_some());
/// ```
#[derive(Debug, Default)]
pub struct ObjectRegistry {
    objects: Vec<DataObject>,
    /// Live `cudaMalloc` objects, pool slabs included: base address →
    /// object id. They never overlap one another.
    apis: BTreeMap<u64, ObjectId>,
    /// Live pool tensors: base address → object id. They never overlap one
    /// another, but each sits inside a slab in `apis` — possibly at the
    /// slab's own base, which is why the two classes need separate maps.
    tensors: BTreeMap<u64, ObjectId>,
    /// Bumped on every allocation and free; invalidates any
    /// [`ResolveCache`] filled under an older memory map.
    epoch: u64,
}

/// Last-hit cache for [`ObjectRegistry::resolve_cached`].
///
/// Holds the address window `[lo, hi)` inside which every address resolves
/// to `id` (the window is clamped to exclude nested pool tensors), plus the
/// registry epoch the entry was filled under. A stale epoch — any alloc or
/// free since the fill — misses and refills; a hit never consults the maps.
#[derive(Debug, Clone, Copy)]
pub struct ResolveCache {
    epoch: u64,
    lo: u64,
    hi: u64,
    /// Base address of the cached object (offsets are relative to this, not
    /// to `lo`, which may sit past a nested tensor).
    base: u64,
    id: ObjectId,
}

impl Default for ResolveCache {
    fn default() -> Self {
        // An empty window under an impossible epoch: always misses.
        ResolveCache {
            epoch: u64::MAX,
            lo: 1,
            hi: 0,
            base: 0,
            id: ObjectId(u64::MAX),
        }
    }
}

impl ResolveCache {
    /// Creates an empty (always-miss) cache.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One contiguous piece of a resolved address span: `len` bytes at `offset`
/// within `object`. See [`ObjectRegistry::resolve_span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSegment {
    /// The innermost live object covering this piece.
    pub object: ObjectId,
    /// Byte offset of the piece within the object.
    pub offset: u64,
    /// Length of the piece in bytes.
    pub len: u64,
}

impl ObjectRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ObjectRegistry::default()
    }

    /// Records an allocation and returns the new object's id.
    ///
    /// Pool tensors go to the tensor map, everything else to the API map.
    /// A new range must not overlap a live range of its own class.
    pub fn on_alloc(
        &mut self,
        label: impl Into<Arc<str>>,
        range: AddrRange,
        source: ObjectSource,
        alloc_api: usize,
        alloc_is_api: bool,
        alloc_path: PathId,
    ) -> ObjectId {
        let id = ObjectId(self.objects.len() as u64);
        let (start, end) = (range.start.addr(), range.end().addr());
        let map = if source == ObjectSource::PoolTensor {
            &mut self.tensors
        } else {
            &mut self.apis
        };
        debug_assert!(
            !overlaps_live(map, &self.objects, start, end),
            "{source:?} allocation [{start:#x}, {end:#x}) overlaps a live object of its class"
        );
        map.insert(start, id);
        self.objects.push(DataObject {
            id,
            label: label.into(),
            range,
            source,
            alloc_api,
            free_api: None,
            alloc_path,
            alloc_is_api,
            free_is_api: true,
        });
        self.epoch = self.epoch.wrapping_add(1);
        id
    }

    /// Records a `cudaFree` of the API object based at `base`.
    ///
    /// Returns the retired object's id, or `None` if no live API object
    /// starts at `base` (a pool tensor's base included: tensors retire only
    /// through [`ObjectRegistry::on_pool_free`]).
    pub fn on_free(&mut self, base: DevicePtr, free_api: usize) -> Option<ObjectId> {
        let id = self.apis.remove(&base.addr())?;
        Some(self.retire(id, free_api, true))
    }

    /// Records a pool-level deallocation of the tensor based at `base`,
    /// anchored *before* GPU API `anchor`; the free itself is not a GPU API
    /// (Sec. 5.4). Returns `None` if no live tensor starts at `base`.
    pub fn on_pool_free(&mut self, base: DevicePtr, anchor: usize) -> Option<ObjectId> {
        let id = self.tensors.remove(&base.addr())?;
        Some(self.retire(id, anchor, false))
    }

    fn retire(&mut self, id: ObjectId, free_api: usize, is_api: bool) -> ObjectId {
        let obj = &mut self.objects[id.0 as usize];
        obj.free_api = Some(free_api);
        obj.free_is_api = is_api;
        self.epoch = self.epoch.wrapping_add(1);
        id
    }

    /// Whether any pool tensor is live.
    pub fn has_live_pool_tensors(&self) -> bool {
        !self.tensors.is_empty()
    }

    /// Interval lookup: the live object containing `addr`, innermost wins.
    ///
    /// When a pool tensor and its backing slab both cover `addr`, the tensor
    /// is preferred so that accesses attribute to tensors, not slabs.
    pub fn resolve(&self, addr: DevicePtr) -> Option<ObjectId> {
        self.window(addr.addr()).map(|w| w.id)
    }

    /// Cache-assisted interval lookup returning `(object, byte offset)`.
    ///
    /// On a hit — same epoch, address inside the cached window — this is a
    /// pair of comparisons; allocation locality makes hits the common case.
    /// On a miss the live maps are searched and the cache refilled with the
    /// containing window.
    pub fn resolve_cached(
        &self,
        addr: DevicePtr,
        cache: &mut ResolveCache,
    ) -> Option<(ObjectId, u64)> {
        let a = addr.addr();
        self.fill_cache(a, cache)
            .then(|| (cache.id, a - cache.base))
    }

    /// Cache-assisted [`ObjectRegistry::resolve_span`]: appends the segments
    /// of `[start, start + len)` to `out`.
    ///
    /// A span inside the cached window — the common case for access records
    /// — costs what [`ObjectRegistry::resolve_cached`] does and yields one
    /// segment. A span that starts outside every object or runs past the
    /// window's end (a merged record crossing from one pool tensor into the
    /// next) is split at every boundary exactly as `resolve_span` splits it.
    pub fn resolve_span_cached(
        &self,
        start: DevicePtr,
        len: u64,
        cache: &mut ResolveCache,
        out: &mut Vec<SpanSegment>,
    ) {
        let a = start.addr();
        if self.fill_cache(a, cache) && a.saturating_add(len) <= cache.hi {
            out.push(SpanSegment {
                object: cache.id,
                offset: a - cache.base,
                len,
            });
        } else {
            self.resolve_span(start, len, out);
        }
    }

    /// Makes `cache` hold the window containing `a`, searching the maps
    /// only when the cached window is stale or elsewhere. Returns `false`
    /// (leaving the cache untouched) when no live object contains `a`.
    fn fill_cache(&self, a: u64, cache: &mut ResolveCache) -> bool {
        if cache.epoch == self.epoch && cache.lo <= a && a < cache.hi {
            return true;
        }
        let Some(w) = self.window(a) else {
            return false;
        };
        *cache = w;
        true
    }

    /// Finds the innermost object containing `a` plus the widest window
    /// `[lo, hi)` around `a` in which every address resolves to that same
    /// object, stamped with the current epoch.
    ///
    /// A tensor containing `a` can only be the last tensor starting at or
    /// below `a`, and its window is its whole range. Otherwise the API
    /// object containing `a` owns the bytes between the tensors nearest `a`
    /// on either side.
    fn window(&self, a: u64) -> Option<ResolveCache> {
        let end = |id: ObjectId| self.objects[id.0 as usize].range.end().addr();
        let (mut lo, mut hi) = (0, u64::MAX);
        if !self.tensors.is_empty() {
            if let Some((&base, &id)) = self.tensors.range(..=a).next_back() {
                let t_end = end(id);
                if a < t_end {
                    return Some(self.stamp(id, base, base, t_end));
                }
                lo = t_end;
            }
            if let Some(next) = next_base(&self.tensors, a) {
                hi = next;
            }
        }
        let (&base, &id) = self.apis.range(..=a).next_back()?;
        let o_end = end(id);
        (a < o_end).then(|| self.stamp(id, base, lo.max(base), hi.min(o_end)))
    }

    fn stamp(&self, id: ObjectId, base: u64, lo: u64, hi: u64) -> ResolveCache {
        ResolveCache {
            epoch: self.epoch,
            lo,
            hi,
            base,
            id,
        }
    }

    /// Resolves the byte span `[start, start + len)` to the sequence of
    /// innermost objects covering it, in address order, appending the
    /// segments to `out`. A span crossing an object's end is split at the
    /// boundary; bytes covered by no live object are omitted. A zero-length
    /// span resolves like a point.
    pub fn resolve_span(&self, start: DevicePtr, len: u64, out: &mut Vec<SpanSegment>) {
        let mut a = start.addr();
        if len == 0 {
            if let Some(w) = self.window(a) {
                out.push(SpanSegment {
                    object: w.id,
                    offset: a - w.base,
                    len: 0,
                });
            }
            return;
        }
        let span_end = a.saturating_add(len);
        while a < span_end {
            match self.window(a) {
                Some(w) => {
                    let seg_end = w.hi.min(span_end);
                    out.push(SpanSegment {
                        object: w.id,
                        offset: a - w.base,
                        len: seg_end - a,
                    });
                    a = seg_end;
                }
                None => {
                    // Gap: skip to the next live base, if it is in the span.
                    let next = [next_base(&self.apis, a), next_base(&self.tensors, a)]
                        .into_iter()
                        .flatten()
                        .min();
                    match next {
                        Some(n) if n < span_end => a = n,
                        _ => break,
                    }
                }
            }
        }
    }

    /// The object record for `id`.
    pub fn get(&self, id: ObjectId) -> Option<&DataObject> {
        self.objects.get(id.0 as usize)
    }

    /// Reclassifies an object's provenance. Used when the profiler learns
    /// that a `cudaMalloc` allocation is actually a pool's backing slab
    /// (the first pool tensor carved inside it reveals this, Sec. 5.4).
    pub fn reclassify(&mut self, id: ObjectId, source: ObjectSource) {
        if let Some(obj) = self.objects.get_mut(id.0 as usize) {
            obj.source = source;
        }
    }

    /// Iterates over all objects ever observed, in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = &DataObject> {
        self.objects.iter()
    }

    /// Number of objects ever observed.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Returns `true` if no objects were observed.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Number of currently-live objects.
    pub fn live_count(&self) -> usize {
        self.apis.len() + self.tensors.len()
    }
}

/// The lowest live base strictly above `a` in `map`.
fn next_base(map: &BTreeMap<u64, ObjectId>, a: u64) -> Option<u64> {
    map.range((Excluded(a), Unbounded)).next().map(|(&b, _)| b)
}

/// Whether `[start, end)` overlaps, or shares its base with, a live range
/// in `map`.
fn overlaps_live(
    map: &BTreeMap<u64, ObjectId>,
    objects: &[DataObject],
    start: u64,
    end: u64,
) -> bool {
    let below = map
        .range(..=start)
        .next_back()
        .is_some_and(|(&b, id)| b == start || objects[id.0 as usize].range.end().addr() > start);
    let above = map.range(start..).next().is_some_and(|(&b, _)| b < end);
    below || above
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(base: u64, len: u64) -> AddrRange {
        AddrRange::new(DevicePtr::new(base), len)
    }

    #[test]
    fn id_hashes_spread_low_and_high_bit_keys() {
        // The table picks a bucket from the low bits of the hash: both
        // sequential ids and ids that differ only above bit 32 must spread
        // over many of 1,024 buckets (a bare product puts the latter in one).
        for shift in [0, 32] {
            let buckets: HashSet<u64> = (0..1024u64)
                .map(|k| {
                    let mut h = IdHasher::default();
                    h.write_u64(k << shift);
                    h.finish() & 1023
                })
                .collect();
            assert!(
                buckets.len() >= 400,
                "shift {shift}: {} buckets",
                buckets.len()
            );
        }
    }

    fn span(reg: &ObjectRegistry, start: u64, len: u64) -> Vec<SpanSegment> {
        let mut out = Vec::new();
        reg.resolve_span(DevicePtr::new(start), len, &mut out);
        out
    }

    fn alloc(reg: &mut ObjectRegistry, label: &str, base: u64, len: u64, api: usize) -> ObjectId {
        reg.on_alloc(
            label,
            range(base, len),
            ObjectSource::Cuda,
            api,
            true,
            PathId(0),
        )
    }

    #[test]
    fn ids_survive_address_reuse() {
        let mut reg = ObjectRegistry::new();
        let a = alloc(&mut reg, "a", 0x1000, 64, 0);
        reg.on_free(DevicePtr::new(0x1000), 1);
        let b = alloc(&mut reg, "b", 0x1000, 64, 2);
        assert_ne!(a, b);
        assert_eq!(reg.resolve(DevicePtr::new(0x1000)), Some(b));
        assert_eq!(reg.len(), 2);
        assert!(!reg.get(a).unwrap().leaked());
    }

    fn alloc_as(reg: &mut ObjectRegistry, source: ObjectSource, base: u64, len: u64) -> ObjectId {
        let is_api = source != ObjectSource::PoolTensor;
        reg.on_alloc("o", range(base, len), source, 0, is_api, PathId(0))
    }

    /// `resolve_cached` through the carried `cache`, checked against the
    /// uncached `resolve`: a stale window would serve a different id.
    fn probe(reg: &ObjectRegistry, cache: &mut ResolveCache, addr: u64) -> Option<(ObjectId, u64)> {
        let got = reg.resolve_cached(DevicePtr::new(addr), cache);
        assert_eq!(got.map(|(id, _)| id), reg.resolve(DevicePtr::new(addr)));
        got
    }

    fn seg(object: ObjectId, offset: u64, len: u64) -> SpanSegment {
        SpanSegment {
            object,
            offset,
            len,
        }
    }

    #[test]
    fn resolve_prefers_inner_pool_tensor() {
        let mut reg = ObjectRegistry::new();
        let slab = alloc_as(&mut reg, ObjectSource::PoolSlab, 0x1000, 0x1000);
        let tensor = alloc_as(&mut reg, ObjectSource::PoolTensor, 0x1200, 0x100);
        assert_eq!(reg.resolve(DevicePtr::new(0x1250)), Some(tensor));
        assert_eq!(reg.resolve(DevicePtr::new(0x1100)), Some(slab));
        // After the tensor is freed, the slab reclaims the range.
        assert_eq!(reg.on_pool_free(DevicePtr::new(0x1200), 2), Some(tensor));
        assert_eq!(reg.resolve(DevicePtr::new(0x1250)), Some(slab));
    }

    #[test]
    fn tensor_at_slab_offset_zero_does_not_shadow_the_slab() {
        let mut reg = ObjectRegistry::new();
        let mut cache = ResolveCache::new();
        let slab = alloc_as(&mut reg, ObjectSource::PoolSlab, 0x1000, 0x1000);
        assert_eq!(probe(&reg, &mut cache, 0x1050), Some((slab, 0x50)));
        let t = alloc_as(&mut reg, ObjectSource::PoolTensor, 0x1000, 0x100);
        // The tensor resolves inside itself, the slab past it.
        assert_eq!(probe(&reg, &mut cache, 0x1050), Some((t, 0x50)));
        assert_eq!(probe(&reg, &mut cache, 0x1100), Some((slab, 0x100)));
        assert_eq!(probe(&reg, &mut cache, 0x1FFF), Some((slab, 0xFFF)));
        assert_eq!(probe(&reg, &mut cache, 0x10FF), Some((t, 0xFF)));
        assert_eq!(reg.live_count(), 2);
        assert_eq!(
            span(&reg, 0x10F0, 0x20),
            vec![seg(t, 0xF0, 0x10), seg(slab, 0x100, 0x10)]
        );
        // The pool returns the tensor, then the slab is freed by its base.
        assert_eq!(reg.on_pool_free(DevicePtr::new(0x1000), 1), Some(t));
        assert_eq!(probe(&reg, &mut cache, 0x1050), Some((slab, 0x50)));
        assert_eq!(reg.on_free(DevicePtr::new(0x1000), 2), Some(slab));
        assert_eq!(probe(&reg, &mut cache, 0x1050), None);
        assert_eq!(reg.live_count(), 0);
    }

    #[test]
    fn tensor_flush_with_slab_end_splits_spans() {
        let mut reg = ObjectRegistry::new();
        let mut cache = ResolveCache::new();
        let slab = alloc_as(&mut reg, ObjectSource::PoolSlab, 0x1000, 0x1000);
        let next = alloc_as(&mut reg, ObjectSource::Cuda, 0x2000, 0x100);
        // Fill the cache with the whole slab before the tensor exists.
        assert_eq!(probe(&reg, &mut cache, 0x1800), Some((slab, 0x800)));
        let t = alloc_as(&mut reg, ObjectSource::PoolTensor, 0x1F00, 0x100);
        assert_eq!(probe(&reg, &mut cache, 0x1FFF), Some((t, 0xFF)));
        assert_eq!(probe(&reg, &mut cache, 0x2000), Some((next, 0)));
        assert_eq!(probe(&reg, &mut cache, 0x1EFF), Some((slab, 0xEFF)));
        let want = vec![seg(slab, 0xEF0, 0x10), seg(t, 0, 0x100), seg(next, 0, 0x20)];
        assert_eq!(span(&reg, 0x1EF0, 0x130), want);
        // The cached form, starting inside the slab's clipped window, splits
        // the same way.
        let mut out = Vec::new();
        reg.resolve_span_cached(DevicePtr::new(0x1EF0), 0x130, &mut cache, &mut out);
        assert_eq!(out, want);
        // A span ending at the tensor's base is one slab segment.
        out.clear();
        reg.resolve_span_cached(DevicePtr::new(0x1800), 0x700, &mut cache, &mut out);
        assert_eq!(out, vec![seg(slab, 0x800, 0x700)]);
    }

    #[test]
    fn cuda_free_of_tensor_base_is_unknown() {
        let mut reg = ObjectRegistry::new();
        let mut cache = ResolveCache::new();
        let slab = alloc_as(&mut reg, ObjectSource::PoolSlab, 0x1000, 0x1000);
        let t = alloc_as(&mut reg, ObjectSource::PoolTensor, 0x1200, 0x100);
        assert_eq!(probe(&reg, &mut cache, 0x1250), Some((t, 0x50)));
        assert_eq!(reg.on_free(DevicePtr::new(0x1200), 1), None);
        // Neither object retired; the tensor still wins inside itself.
        assert_eq!(reg.live_count(), 2);
        assert!(reg.get(t).unwrap().leaked());
        assert_eq!(probe(&reg, &mut cache, 0x1250), Some((t, 0x50)));
        assert_eq!(probe(&reg, &mut cache, 0x1100), Some((slab, 0x100)));
        // Likewise a pool free of the slab's base retires nothing.
        assert_eq!(reg.on_pool_free(DevicePtr::new(0x1000), 2), None);
        assert_eq!(reg.live_count(), 2);
    }

    #[test]
    fn resolve_misses_outside_any_object() {
        let mut reg = ObjectRegistry::new();
        alloc(&mut reg, "a", 0x1000, 64, 0);
        assert_eq!(reg.resolve(DevicePtr::new(0xFFF)), None);
        assert_eq!(reg.resolve(DevicePtr::new(0x1040)), None);
    }

    #[test]
    fn free_of_unknown_base_is_none() {
        let mut reg = ObjectRegistry::new();
        alloc(&mut reg, "a", 0x1000, 64, 0);
        assert_eq!(reg.on_free(DevicePtr::new(0x1008), 1), None);
        assert_eq!(reg.live_count(), 1);
    }

    #[test]
    fn leaked_objects_detected() {
        let mut reg = ObjectRegistry::new();
        let a = alloc(&mut reg, "a", 0x1000, 64, 0);
        let b = alloc(&mut reg, "b", 0x2000, 64, 1);
        reg.on_free(DevicePtr::new(0x1000), 2);
        assert!(!reg.get(a).unwrap().leaked());
        assert!(reg.get(b).unwrap().leaked());
    }

    #[test]
    fn resolve_cache_invalidated_across_free_and_address_reuse() {
        let mut reg = ObjectRegistry::new();
        let a = alloc(&mut reg, "a", 0x1000, 64, 0);
        let mut cache = ResolveCache::new();
        assert_eq!(
            reg.resolve_cached(DevicePtr::new(0x1020), &mut cache),
            Some((a, 0x20))
        );
        // A second probe hits the cached window and must agree.
        assert_eq!(
            reg.resolve_cached(DevicePtr::new(0x1010), &mut cache),
            Some((a, 0x10))
        );
        // Free bumps the epoch: the stale window must miss, not serve `a`.
        reg.on_free(DevicePtr::new(0x1000), 1);
        assert_eq!(reg.resolve_cached(DevicePtr::new(0x1020), &mut cache), None);
        // Address reuse: a new object at the same base must resolve to the
        // new id even though the dead cache window still covers the address.
        let b = alloc(&mut reg, "b", 0x1000, 64, 2);
        assert_ne!(a, b);
        assert_eq!(
            reg.resolve_cached(DevicePtr::new(0x1020), &mut cache),
            Some((b, 0x20))
        );
    }

    #[test]
    fn resolve_span_splits_at_object_boundaries() {
        let mut reg = ObjectRegistry::new();
        let a = alloc(&mut reg, "a", 0x1000, 0x100, 0);
        let b = alloc(&mut reg, "b", 0x1100, 0x100, 1);
        // Span covering the tail of `a` and the head of `b`.
        let segs = span(&reg, 0x10C0, 0x80);
        assert_eq!(
            segs,
            vec![
                SpanSegment {
                    object: a,
                    offset: 0xC0,
                    len: 0x40
                },
                SpanSegment {
                    object: b,
                    offset: 0,
                    len: 0x40
                },
            ]
        );
        // Span running past the last live byte: the overhang is dropped.
        let segs = span(&reg, 0x11F0, 0x40);
        assert_eq!(
            segs,
            vec![SpanSegment {
                object: b,
                offset: 0xF0,
                len: 0x10
            }]
        );
        // Span across a gap between objects skips the dead bytes.
        let c = alloc(&mut reg, "c", 0x1300, 0x100, 2);
        let segs = span(&reg, 0x11F0, 0x200);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].object, b);
        assert_eq!(
            segs[1],
            SpanSegment {
                object: c,
                offset: 0,
                len: 0xF0
            }
        );
    }

    #[test]
    fn pool_slab_not_analyzable() {
        assert!(!ObjectSource::PoolSlab.is_analyzable());
        assert!(ObjectSource::Cuda.is_analyzable());
        assert!(ObjectSource::PoolTensor.is_analyzable());
    }
}
