//! Sanitizer-style instrumentation API: the simulated analogue of NVIDIA's
//! Sanitizer API (callback interception + SASS memory-instruction patching).
//!
//! Tools register [`SanitizerHooks`] with a device context. The context then
//! delivers:
//!
//! * [`SanitizerHooks::on_api`] — after every GPU API invocation, with the
//!   full [`ApiEvent`] (kind, stream, call path, timing);
//! * [`SanitizerHooks::on_kernel_begin`] — before each kernel, letting the
//!   tool choose a [`PatchMode`] (no patching, object hit-flags as in the
//!   paper's Fig. 5, or full per-instruction records);
//! * [`SanitizerHooks::on_mem_access_buffer`] — buffered memory-access
//!   records streamed out of a fully-patched kernel, mirroring the real
//!   Sanitizer's device→host record buffers;
//! * [`SanitizerHooks::on_kernel_end`] — after the kernel, with the set of
//!   data objects it touched (the GPU-side hit-flag summary) and aggregate
//!   work counters.

use crate::api::ApiEvent;
use crate::callstack::{FrameId, SourceLoc};
use crate::error::SimError;
use crate::kernel::{Dim3, KernelCounters};
use crate::mem::{DeviceAllocator, DevicePtr};
use crate::stream::StreamId;
use crate::unified::PageMigration;
use parking_lot::Mutex;
use std::sync::Arc;

/// Whether a memory instruction read or wrote global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A global-memory load.
    Read,
    /// A global-memory store.
    Write,
}

/// One instrumented memory instruction execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccessRecord {
    /// First byte touched.
    pub addr: DevicePtr,
    /// Access width in bytes.
    pub size: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// Flattened global thread id of the executing thread.
    pub flat_thread: u64,
    /// Pseudo program counter: the ordinal of this memory instruction within
    /// its thread's execution (stable across threads on convergent paths).
    pub pc: u32,
}

/// Identity and geometry of a launched kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelInfo {
    /// Kernel name, interned once per launch and shared with the API event.
    pub name: Arc<str>,
    /// Global API sequence number of the launch.
    pub api_seq: u64,
    /// Stream the kernel was launched on.
    pub stream: StreamId,
    /// Grid extent.
    pub grid: Dim3,
    /// Block extent.
    pub block: Dim3,
    /// The how-many-th launch of a kernel with this name (0-based), used for
    /// kernel sampling.
    pub instance: u64,
}

/// Degree of instrumentation applied to one kernel launch.
///
/// Ordered by cost: `None < HitFlags < Full`. When several tools are
/// registered the most demanding request wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PatchMode {
    /// Do not observe memory instructions at all.
    None,
    /// Only mark which data objects the kernel touches (binary search over
    /// the memory map per access + a hit flag; the paper's Fig. 5 design).
    HitFlags,
    /// Stream every memory-access record to the tool (intra-object mode).
    Full,
}

/// Read/write summary for one data object touched by a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchedObject {
    /// Base address of the allocation.
    pub base: DevicePtr,
    /// The kernel executed at least one load from the object.
    pub read: bool,
    /// The kernel executed at least one store to the object.
    pub written: bool,
}

/// Slot sentinel for an empty [`CandidateMap`] entry. Warp ids are flat
/// thread ids divided by 32, so `u64::MAX` is unreachable.
const NO_WARP: u64 = u64::MAX;

/// Upper bound on directly-indexed merge-candidate slots. Kernels whose
/// per-thread memory-instruction count exceeds this skip the slot lookup
/// for the excess pcs and rely on the window scan — a merge-quality
/// matter, never a correctness one.
const CANDIDATE_CAP: usize = 1 << 16;

/// Direct-indexed merge-candidate table: the open record index per program
/// counter, tagged with the warp that left it. Simulated threads execute
/// sequentially, so at any moment at most one warp has an open record at a
/// given pc, and a plain slot load beats a hashed `(warp, pc) → idx` map on
/// the per-access path.
#[derive(Debug, Default)]
struct CandidateMap {
    /// `(warp, record idx)` per pc; `warp == NO_WARP` means empty.
    slots: Vec<(u64, usize)>,
}

impl CandidateMap {
    /// The open record this warp left at `pc`, if any.
    #[inline]
    fn get(&self, warp: u64, pc: u32) -> Option<usize> {
        match self.slots.get(pc as usize) {
            Some(&(w, idx)) if w == warp => Some(idx),
            _ => None,
        }
    }

    /// Marks `idx` as the open record at `pc` for `warp`.
    #[inline]
    fn insert(&mut self, warp: u64, pc: u32, idx: usize) {
        let i = pc as usize;
        if i >= CANDIDATE_CAP {
            return;
        }
        if i >= self.slots.len() {
            self.slots.resize(i + 1, (NO_WARP, 0));
        }
        self.slots[i] = (warp, idx);
    }

    fn clear(&mut self) {
        self.slots.clear();
    }
}

/// Cached result of the last containing-allocation lookup, with a copy of
/// that object's `touched` flags (kept in sync by [`AccessSink::note_access`]
/// so repeat hits skip the `touched` map entirely).
#[derive(Debug, Clone, Copy)]
struct LastHit {
    base: DevicePtr,
    start: u64,
    end: u64,
    read: bool,
    written: bool,
}

/// A collection-pressure hint a tool returns before each kernel launch.
///
/// This is the backpressure channel of the resource governor: a tool under
/// memory pressure can request cheaper record delivery without changing the
/// [`PatchMode`] contract. The default hint changes nothing, so tools that
/// never degrade observe byte-identical behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectionHint {
    /// Cap the device-side record-buffer capacity (in records) for this
    /// kernel; `None` keeps the sanitizer-wide capacity.
    pub buffer_capacity: Option<usize>,
}

/// Callbacks a profiling tool registers with the simulated Sanitizer API.
///
/// All methods have empty default bodies so tools override only what they
/// need.
pub trait SanitizerHooks {
    /// Called after every GPU API invocation completes.
    fn on_api(&mut self, _event: &ApiEvent) {}

    /// Called before a kernel executes; returns the desired [`PatchMode`].
    fn on_kernel_begin(&mut self, _info: &KernelInfo) -> PatchMode {
        PatchMode::None
    }

    /// Delivers a buffer of memory-access records from a fully-patched
    /// kernel. May be called multiple times per kernel as the device-side
    /// buffer fills.
    fn on_mem_access_buffer(&mut self, _info: &KernelInfo, _records: &[MemAccessRecord]) {}

    /// Called after a kernel finishes, with the hit-flag summary of touched
    /// objects (present in `HitFlags` and `Full` modes) and work counters.
    fn on_kernel_end(
        &mut self,
        _info: &KernelInfo,
        _touched: &[TouchedObject],
        _counters: &KernelCounters,
    ) {
    }

    /// Called on every unified-memory page migration (the raw signal for
    /// page-thrashing and page-level false-sharing analysis — the paper's
    /// future-work extension, Sec. 8).
    fn on_page_migration(&mut self, _migration: &PageMigration) {}

    /// Called when a device allocation request fails (out of memory, whether
    /// real or injected). No API event is emitted for the failed call; this
    /// hook is how tools learn about it and can downgrade to cheaper
    /// collection modes instead of losing the run.
    fn on_alloc_failure(&mut self, _requested: u64, _label: &str, _error: &SimError) {}

    /// Called when a host call-stack frame is interned, with its id and
    /// source location. Lets tools mirror the frame table incrementally —
    /// e.g. to resolve call paths while streaming a crash-consistent trace,
    /// without access to the context-owned [`crate::FrameTable`].
    fn on_frame(&mut self, _id: FrameId, _loc: &SourceLoc) {}

    /// Queried before each kernel launch (after
    /// [`SanitizerHooks::on_kernel_begin`]); lets a tool under resource
    /// pressure ask for cheaper record delivery. See [`CollectionHint`].
    fn collection_hint(&self) -> CollectionHint {
        CollectionHint::default()
    }
}

/// A shared, lockable hook registration.
pub type SharedHooks = Arc<Mutex<dyn SanitizerHooks>>;

/// Instrumentation cost model: simulated-time surcharges for patched kernels.
///
/// These constants drive the *simulated* overhead of profiling; the paper's
/// Figure 6 wall-clock overheads are measured separately by the benchmark
/// harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    /// Extra ns per access in [`PatchMode::Full`].
    pub full_access_ns: f64,
    /// Extra ns per access in [`PatchMode::HitFlags`] (binary search + flag).
    pub hitflag_access_ns: f64,
    /// Bytes per record used to cost device→host record-buffer flushes.
    pub record_bytes: u64,
    /// ns per live allocation to copy the memory map to the device at each
    /// patched kernel launch (Fig. 5).
    pub map_copy_ns_per_entry: f64,
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel {
            full_access_ns: 12.0,
            hitflag_access_ns: 1.5,
            record_bytes: 24,
            map_copy_ns_per_entry: 2.0,
        }
    }
}

/// Number of threads per warp; coalescing only merges accesses issued by
/// threads of the same warp, mirroring how hardware combines the lanes of
/// one memory instruction into as few transactions as possible.
pub const WARP_SIZE: u64 = 32;

/// How many buffered records coalescing scans backwards for a merge
/// partner. The simulator executes threads sequentially, so accesses that
/// are simultaneous on real hardware (warp lanes at one instruction) appear
/// slightly interleaved with other instructions in the buffer; a small
/// window re-discovers them without an unbounded scan.
const COALESCE_WINDOW: usize = 8;

/// The Sanitizer registry owned by a device context.
pub struct Sanitizer {
    hooks: Vec<SharedHooks>,
    /// Capacity (in records) of the simulated device-side record buffer.
    buffer_capacity: usize,
    /// When set, contiguous same-kind accesses from one warp at one pc are
    /// merged into a single record before buffering (the paper's "merging
    /// memory accesses", Sec. 5.5).
    coalescing: bool,
    /// Merge-junction alignment in bytes, relative to the containing
    /// allocation's base. Records only grow at offsets that are multiples
    /// of this, so per-element frequency counts (element width = this
    /// alignment) are preserved exactly. 1 = unrestricted.
    coalesce_alignment: u32,
    overhead: OverheadModel,
}

impl std::fmt::Debug for Sanitizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sanitizer")
            .field("hooks", &self.hooks.len())
            .field("buffer_capacity", &self.buffer_capacity)
            .field("coalescing", &self.coalescing)
            .field("coalesce_alignment", &self.coalesce_alignment)
            .field("overhead", &self.overhead)
            .finish()
    }
}

impl Default for Sanitizer {
    fn default() -> Self {
        Sanitizer {
            hooks: Vec::new(),
            buffer_capacity: 16 * 1024,
            coalescing: false,
            coalesce_alignment: 1,
            overhead: OverheadModel::default(),
        }
    }
}

impl Sanitizer {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Sanitizer::default()
    }

    /// Registers a tool; returns nothing — keep your own `Arc` clone to read
    /// results back after the run.
    pub fn register(&mut self, hooks: SharedHooks) {
        self.hooks.push(hooks);
    }

    /// Removes all registered tools.
    pub fn clear(&mut self) {
        self.hooks.clear();
    }

    /// Number of registered tools.
    pub fn hook_count(&self) -> usize {
        self.hooks.len()
    }

    /// Sets the simulated device-side record-buffer capacity.
    pub fn set_buffer_capacity(&mut self, records: usize) {
        self.buffer_capacity = records.max(1);
    }

    /// The current record-buffer capacity.
    pub fn buffer_capacity(&self) -> usize {
        self.buffer_capacity
    }

    /// Enables or disables warp-level access coalescing (Sec. 5.5).
    pub fn set_coalescing(&mut self, on: bool) {
        self.coalescing = on;
    }

    /// Whether warp-level access coalescing is enabled.
    pub fn coalescing(&self) -> bool {
        self.coalescing
    }

    /// Sets the merge-junction alignment for coalescing: records only grow
    /// at allocation-relative offsets that are multiples of `bytes`. Tools
    /// that count per-element access frequencies pass their element width
    /// here so merging cannot collapse two same-element accesses into one
    /// count. Zero is treated as 1 (unrestricted).
    pub fn set_coalesce_alignment(&mut self, bytes: u32) {
        self.coalesce_alignment = bytes.max(1);
    }

    /// The current merge-junction alignment in bytes.
    pub fn coalesce_alignment(&self) -> u32 {
        self.coalesce_alignment
    }

    /// The instrumentation cost model.
    pub fn overhead_model(&self) -> OverheadModel {
        self.overhead
    }

    /// Replaces the instrumentation cost model.
    pub fn set_overhead_model(&mut self, model: OverheadModel) {
        self.overhead = model;
    }

    /// Dispatches an API event to every tool.
    pub(crate) fn dispatch_api(&self, event: &ApiEvent) {
        for h in &self.hooks {
            h.lock().on_api(event);
        }
    }

    /// Asks every tool for a patch mode; the most demanding wins.
    pub(crate) fn dispatch_kernel_begin(&self, info: &KernelInfo) -> PatchMode {
        self.hooks
            .iter()
            .map(|h| h.lock().on_kernel_begin(info))
            .max()
            .unwrap_or(PatchMode::None)
    }

    pub(crate) fn dispatch_kernel_end(
        &self,
        info: &KernelInfo,
        touched: &[TouchedObject],
        counters: &KernelCounters,
    ) {
        for h in &self.hooks {
            h.lock().on_kernel_end(info, touched, counters);
        }
    }

    pub(crate) fn dispatch_buffer(&self, info: &KernelInfo, records: &[MemAccessRecord]) {
        for h in &self.hooks {
            h.lock().on_mem_access_buffer(info, records);
        }
    }

    pub(crate) fn dispatch_page_migration(&self, migration: &PageMigration) {
        for h in &self.hooks {
            h.lock().on_page_migration(migration);
        }
    }

    pub(crate) fn dispatch_alloc_failure(&self, requested: u64, label: &str, error: &SimError) {
        for h in &self.hooks {
            h.lock().on_alloc_failure(requested, label, error);
        }
    }

    pub(crate) fn dispatch_frame(&self, id: FrameId, loc: &SourceLoc) {
        for h in &self.hooks {
            h.lock().on_frame(id, loc);
        }
    }

    /// Merges every tool's [`CollectionHint`]: buffer caps take the
    /// minimum.
    pub(crate) fn dispatch_collection_hint(&self) -> CollectionHint {
        let mut merged = CollectionHint::default();
        for h in &self.hooks {
            let hint = h.lock().collection_hint();
            merged.buffer_capacity = match (merged.buffer_capacity, hint.buffer_capacity) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        merged
    }
}

/// Largest pc the per-pc allocation memo tracks. pcs are per-thread access
/// ordinals, so a single long-running thread can push them far past the
/// range where cross-thread reuse (the point of the memo) happens; the cap
/// bounds the memo at 1 MiB while covering every instruction of any
/// realistic kernel body.
const PC_MEMO_CAP: usize = 1 << 16;

/// An empty per-pc memo slot: a range no address is contained in.
const EMPTY_HINT: (u64, u64) = (u64::MAX, 0);

/// Bounds of a record that opened outside every allocation: no access
/// lies below their end, so such a record never grows.
const NO_BOUNDS: (u64, u64) = (0, 0);

/// Reusable collection storage, owned by the device context and lent to
/// each launch's [`AccessSink`].
///
/// Two things make this worth threading through every launch: the record
/// buffer, merge-candidate table and hit-flag summary keep their
/// high-water capacity instead of reallocating per kernel, and the per-pc
/// allocation memo stays warm *across* launches — consecutive kernels
/// usually run with an unchanged allocation map, so the second launch
/// onward skips the Fig. 5 binary search almost entirely. The memo is
/// wiped whenever the allocator epoch changes, which is exactly when its
/// entries could go stale.
#[derive(Debug)]
pub(crate) struct SinkArena {
    buffer: Vec<MemAccessRecord>,
    bounds: Vec<(u64, u64)>,
    merge_candidates: CandidateMap,
    /// Per-pc `(start, end)` of the containing allocation, or
    /// [`EMPTY_HINT`].
    pc_hints: Vec<(u64, u64)>,
    /// Allocator epoch `pc_hints` was built under; `u64::MAX` = never.
    hint_epoch: u64,
    touched: Vec<TouchedObject>,
}

impl Default for SinkArena {
    fn default() -> Self {
        SinkArena {
            buffer: Vec::new(),
            bounds: Vec::new(),
            merge_candidates: CandidateMap::default(),
            pc_hints: Vec::new(),
            hint_epoch: u64::MAX,
            touched: Vec::new(),
        }
    }
}

impl SinkArena {
    /// Builds the sink for one launch from recycled storage. `alloc_epoch`
    /// is the allocator's current epoch; a mismatch with the stored one
    /// invalidates the per-pc memo.
    pub(crate) fn sink(
        &mut self,
        mode: PatchMode,
        capacity: usize,
        coalesce: bool,
        align: u32,
        alloc_epoch: u64,
    ) -> AccessSink {
        let mut buffer = std::mem::take(&mut self.buffer);
        buffer.clear();
        let bounds = std::mem::take(&mut self.bounds);
        if mode == PatchMode::Full {
            buffer.reserve(capacity);
        }
        let mut merge_candidates = std::mem::take(&mut self.merge_candidates);
        merge_candidates.clear();
        let mut pc_hints = std::mem::take(&mut self.pc_hints);
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        if self.hint_epoch != alloc_epoch {
            pc_hints.iter_mut().for_each(|h| *h = EMPTY_HINT);
            self.hint_epoch = alloc_epoch;
        }
        let coalesce_align = u64::from(align.max(1));
        AccessSink {
            mode,
            buffer,
            bounds,
            capacity,
            coalesce,
            coalesce_align,
            align_mask: coalesce_align.is_power_of_two().then(|| coalesce_align - 1),
            merge_candidates,
            last_hit: None,
            pc_hints,
            touched,
            flushes: 0,
            records_seen: 0,
            coalesced_away: 0,
            fault: None,
        }
    }

    /// Takes a finished sink's storage back for the next launch. The per-pc
    /// memo is kept as-is — entries can only go stale through an allocator
    /// mutation, which bumps the epoch checked at the next
    /// [`SinkArena::sink`].
    pub(crate) fn reclaim(&mut self, mut sink: AccessSink) {
        sink.buffer.clear();
        self.buffer = sink.buffer;
        sink.bounds.clear();
        self.bounds = sink.bounds;
        sink.merge_candidates.clear();
        self.merge_candidates = sink.merge_candidates;
        self.pc_hints = sink.pc_hints;
        self.touched = sink.touched;
    }
}

/// Collects memory-access observations during one kernel execution and
/// streams them to the registered tools: records are buffered, coalesced
/// when enabled, and flushed to the tools as the kernel executes.
///
/// Created internally by [`crate::DeviceContext::launch`]; kernels interact
/// with it only indirectly through [`crate::ThreadCtx`].
pub struct AccessSink {
    mode: PatchMode,
    buffer: Vec<MemAccessRecord>,
    /// `(start, end)` of the allocation each buffered record opened in
    /// ([`NO_BOUNDS`] outside every allocation), index for index with
    /// `buffer`. Set once, when the record opens: a merge stays inside
    /// these bounds, so it needs no lookup of its own.
    bounds: Vec<(u64, u64)>,
    capacity: usize,
    /// When set, merge an incoming access into a recent buffered record
    /// it extends contiguously (same kind, same warp).
    coalesce: bool,
    /// Merge-junction alignment (bytes, relative to the containing
    /// allocation's base); see [`Sanitizer::set_coalesce_alignment`].
    coalesce_align: u64,
    /// `coalesce_align - 1` when the alignment is a power of two: the
    /// junction test is then a mask instead of a 64-bit division.
    align_mask: Option<u64>,
    /// Open merge candidates: `(warp, pc)` → buffer index of the record a
    /// neighbouring lane's access at the same instruction would extend.
    /// Rebuilt per flush (indices are invalidated when the buffer drains).
    merge_candidates: CandidateMap,
    /// One-entry cache of the allocation containing the previous access,
    /// mirroring its `touched` flags so repeat hits skip both the binary
    /// search and the map update.
    last_hit: Option<LastHit>,
    /// Per-pc `(start, end)` of the containing allocation (see
    /// [`SinkArena`]). Consulted when `last_hit` misses; hits are validated
    /// by containment, so a stale entry can only cause one extra binary
    /// search, never a wrong attribution.
    pc_hints: Vec<(u64, u64)>,
    /// Touched-object hit flags, in first-touch order. A kernel touches few
    /// distinct objects and lookups only happen on `last_hit`/`pc_hints`
    /// misses, so a linear scan beats the `BTreeMap` it replaced;
    /// [`AccessSink::take_touched`] sorts by base, reproducing the map's
    /// iteration order byte-for-byte.
    touched: Vec<TouchedObject>,
    /// Number of buffer flushes performed (for the cost model).
    pub(crate) flushes: u64,
    /// Number of records observed (for the cost model). Counts *raw*
    /// accesses even when coalescing merges them, so the simulated
    /// instrumentation cost — and therefore every simulated timestamp — is
    /// identical with coalescing on or off.
    pub(crate) records_seen: u64,
    /// Number of raw accesses folded into a previous record by coalescing.
    pub(crate) coalesced_away: u64,
    /// First device-side access fault observed during the kernel. Faulting
    /// accesses are skipped (no memory side effect); the launch converts
    /// this into [`SimError::KernelFaulted`] after the partial results have
    /// been delivered to the tools.
    pub(crate) fault: Option<SimError>,
}

impl std::fmt::Debug for AccessSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessSink")
            .field("mode", &self.mode)
            .field("buffered", &self.buffer.len())
            .field("touched_objects", &self.touched.len())
            .field("records_seen", &self.records_seen)
            .finish()
    }
}

impl AccessSink {
    /// The patch mode this sink operates in.
    pub fn mode(&self) -> PatchMode {
        self.mode
    }

    /// The hit-flag summary, sorted by base address.
    pub(crate) fn sorted_touched(&mut self) -> &[TouchedObject] {
        self.touched.sort_unstable_by_key(|t| t.base.addr());
        &self.touched
    }

    /// The hit-flag entry for the allocation based at `base`, created on
    /// first touch.
    fn touch_entry(touched: &mut Vec<TouchedObject>, base: DevicePtr) -> &mut TouchedObject {
        match touched.iter().position(|t| t.base == base) {
            Some(i) => &mut touched[i],
            None => {
                touched.push(TouchedObject {
                    base,
                    read: false,
                    written: false,
                });
                touched.last_mut().expect("entry just pushed")
            }
        }
    }

    /// Resolves and stores one access. The containing object is looked up in
    /// the live-allocation map (the Fig. 5 binary search) and its hit flag is
    /// updated; in [`PatchMode::Full`] the record is also buffered and
    /// streamed to the tools when the device-side buffer fills. An access
    /// merged into a buffered record skips the lookup: it lies in the
    /// allocation the record opened in, with the record's kind, and that
    /// hit flag was set when the record opened.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn note_access(
        &mut self,
        alloc: &DeviceAllocator,
        sanitizer: &Sanitizer,
        info: &KernelInfo,
        addr: DevicePtr,
        size: u32,
        kind: AccessKind,
        flat_thread: u64,
        pc: u32,
    ) {
        if self.mode == PatchMode::None {
            return;
        }
        self.records_seen += 1;
        if self.mode == PatchMode::Full && self.coalesce {
            // Merge into a buffered record the incoming access extends
            // contiguously (same kind, same warp, adjacent address, no
            // size overflow). The merged record keeps the first access's
            // thread and pc. All downstream per-object maps (bitmap OR,
            // range insert, per-byte frequency add) see exactly the same
            // byte coverage, so in-place growth cannot change any
            // analysis.
            let raw = addr.addr();
            let warp = flat_thread / WARP_SIZE;
            // (a) Warp-lane merge: an earlier lane of this warp executed
            //     the same instruction (pc) and left an open record; this
            //     mirrors hardware coalescing across a warp and holds
            //     even when other accesses were buffered in between.
            if let Some(idx) = self.merge_candidates.get(warp, pc) {
                if self.extends(idx, raw, size, kind) {
                    self.buffer[idx].size += size;
                    self.coalesced_away += 1;
                    return;
                }
            }
            // (b) Intra-thread run merge: a recent record from the same
            //     warp this access extends (a thread streaming through a
            //     matrix row, with the pc advancing each step).
            let window = self.buffer.len().saturating_sub(COALESCE_WINDOW);
            if let Some(idx) = (window..self.buffer.len()).rev().find(|&i| {
                self.buffer[i].flat_thread / WARP_SIZE == warp && self.extends(i, raw, size, kind)
            }) {
                self.buffer[idx].size += size;
                self.merge_candidates.insert(warp, pc, idx);
                self.coalesced_away += 1;
                return;
            }
            self.merge_candidates.insert(warp, pc, self.buffer.len());
        }
        let bounds = self.update_touched(alloc, addr, kind, pc);
        if self.mode != PatchMode::Full {
            return;
        }
        self.bounds.push(bounds.unwrap_or(NO_BOUNDS));
        self.buffer.push(MemAccessRecord {
            addr,
            size,
            kind,
            flat_thread,
            pc,
        });
        if self.buffer.len() >= self.capacity {
            self.flush(sanitizer, info);
        }
    }

    /// Whether an access of `kind` at `raw` may grow buffered record `idx`:
    /// same kind, starting at the record's end, without overflowing its
    /// size, inside the allocation the record opened in — adjacent
    /// allocations can abut exactly (sizes that are multiples of the
    /// 256-byte alignment), and a record spanning two objects would corrupt
    /// per-object attribution downstream — and at a junction aligned to the
    /// tools' element width, so per-element frequency counts (one per
    /// record per overlapped element) stay exact. A record lies inside its
    /// bounds, so `start <= raw` holds whenever `raw < end` does.
    #[inline]
    fn extends(&self, idx: usize, raw: u64, size: u32, kind: AccessKind) -> bool {
        let rec = &self.buffer[idx];
        let (start, end) = self.bounds[idx];
        rec.kind == kind
            && rec.addr.addr() + u64::from(rec.size) == raw
            && rec.size.checked_add(size).is_some()
            && raw < end
            && match self.align_mask {
                Some(mask) => (raw - start) & mask == 0,
                None => (raw - start).is_multiple_of(self.coalesce_align),
            }
    }

    /// Updates the touched-object hit flags for one access and returns the
    /// containing allocation's `(start, end)`, if any.
    fn update_touched(
        &mut self,
        alloc: &DeviceAllocator,
        addr: DevicePtr,
        kind: AccessKind,
        pc: u32,
    ) -> Option<(u64, u64)> {
        // One-entry cache of the containing allocation. Access streams are
        // bursty per object, so the Fig. 5 binary search and the touched-map
        // update can usually be skipped. The live-allocation map cannot
        // change while a kernel executes, so a cached range stays valid for
        // the sink's lifetime.
        let raw = addr.addr();
        match &mut self.last_hit {
            Some(h) if raw >= h.start && raw < h.end => {
                let flag = match kind {
                    AccessKind::Read => &mut h.read,
                    AccessKind::Write => &mut h.written,
                };
                if !*flag {
                    *flag = true;
                    let entry = Self::touch_entry(&mut self.touched, h.base);
                    match kind {
                        AccessKind::Read => entry.read = true,
                        AccessKind::Write => entry.written = true,
                    }
                }
                Some((h.start, h.end))
            }
            _ => {
                // Second level: the per-pc memo. Kernels that alternate
                // between objects (pc 0 reads A, pc 1 writes B) thrash
                // `last_hit`, but every thread repeats the same instruction
                // sequence, so the object seen at this pc by an earlier
                // thread is almost always the right one. Containment makes
                // a hit exact; a stale entry just falls through.
                let (start, end) = match self.pc_hints.get(pc as usize) {
                    Some(&(s, e)) if raw >= s && raw < e => (s, e),
                    _ => {
                        let obj = alloc.find_containing(addr)?;
                        let start = obj.ptr.addr();
                        let end = start + obj.size;
                        if (pc as usize) < PC_MEMO_CAP {
                            let i = pc as usize;
                            if i >= self.pc_hints.len() {
                                self.pc_hints.resize(i + 1, EMPTY_HINT);
                            }
                            self.pc_hints[i] = (start, end);
                        }
                        (start, end)
                    }
                };
                let base = DevicePtr::new(start);
                let entry = Self::touch_entry(&mut self.touched, base);
                match kind {
                    AccessKind::Read => entry.read = true,
                    AccessKind::Write => entry.written = true,
                }
                self.last_hit = Some(LastHit {
                    base,
                    start,
                    end,
                    read: entry.read,
                    written: entry.written,
                });
                Some((start, end))
            }
        }
    }

    pub(crate) fn flush(&mut self, sanitizer: &Sanitizer, info: &KernelInfo) {
        if self.buffer.is_empty() {
            return;
        }
        sanitizer.dispatch_buffer(info, &self.buffer);
        self.buffer.clear();
        self.bounds.clear();
        // Buffer indices held by open merge candidates die with the drain.
        self.merge_candidates.clear();
        self.flushes += 1;
    }
}
