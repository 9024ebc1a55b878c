//! Exact heap-allocation counts of the profiler's GPU-API callbacks.
//!
//! DrGPUM's online half should record compact facts per intercepted API
//! and leave text to the offline analyzer (Fig. 1). This binary counts the
//! heap allocations the object-level profiler adds to each API kind: the
//! same 1,000 APIs run once natively and once profiled, on the test's own
//! thread, and the difference is divided by 1,000.
//!
//! A counting global allocator tallies, per thread (so the test harness's
//! other threads do not disturb it), new blocks (`alloc`, `alloc_zeroed`)
//! and resized ones (`realloc`) apart. New blocks are the per-API cost
//! the targets bound. Resizes are the amortized doubling of the trace's
//! growing vectors: each test also checks that they stay rare.

use drgpum::prelude::*;
use gpu_sim::DevicePtr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static RESIZES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&RESIZES);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(new blocks, resizes)` so far on this thread.
fn counts() -> (u64, u64) {
    (ALLOCATIONS.with(Cell::get), RESIZES.with(Cell::get))
}

/// APIs per measured run.
const N: u64 = 1_000;

/// Bytes each copy or set moves.
const BYTES: u64 = 256;

#[derive(Debug, Clone, Copy)]
enum Api {
    Malloc,
    Free,
    H2D,
    Memset,
    Launch,
}

/// `(new blocks, resizes)` made by the second `N` of `2 N` APIs of kind `api`.
/// The first `N` warm up: the trace's and the registry's vectors reach a
/// capacity where growth is rare, as it is in a long-running program. The
/// profiler, when attached, sees every API.
fn counts_for(api: Api, profiled: bool) -> (u64, u64) {
    let mut ctx = DeviceContext::new_default();
    let profiler = profiled.then(|| Profiler::attach(&mut ctx, ProfilerOptions::object_level()));
    let a = ctx.malloc(BYTES, "a").unwrap();
    let b = ctx.malloc(BYTES, "b").unwrap();
    let mut bufs: Vec<DevicePtr> = match api {
        Api::Free => (0..2 * N)
            .map(|_| ctx.malloc(BYTES, "buf").unwrap())
            .collect(),
        _ => Vec::with_capacity(2 * N as usize),
    };
    let host = vec![7u8; BYTES as usize];
    let config = LaunchConfig::cover(4, 4).unwrap();
    let mut before = (0, 0);
    for i in 0..2 * N {
        if i == N {
            before = counts();
        }
        match api {
            Api::Malloc => bufs.push(ctx.malloc(BYTES, "buf").unwrap()),
            Api::Free => ctx.free(bufs[i as usize]).unwrap(),
            Api::H2D => ctx.memcpy_h2d(a, &host).unwrap(),
            Api::Memset => ctx.memset(a, 0, BYTES).unwrap(),
            Api::Launch => {
                ctx.launch("copy", config, StreamId::DEFAULT, move |t| {
                    let i = t.global_x();
                    if i < 4 {
                        let v = t.load_f32(a + i * 4);
                        t.store_f32(b + i * 4, v);
                    }
                })
                .unwrap();
            }
        }
    }
    let after = counts();
    drop(profiler);
    (after.0 - before.0, after.1 - before.1)
}

/// Extra new blocks per API of a profiled run over a native one. Also
/// checks that the profiled run resizes at most once per 100 APIs.
fn extra_per_api(api: Api) -> f64 {
    let (native, native_resizes) = counts_for(api, false);
    let (profiled, profiled_resizes) = counts_for(api, true);
    let extra = (profiled as f64 - native as f64) / N as f64;
    let extra_resizes = (profiled_resizes as f64 - native_resizes as f64) / N as f64;
    eprintln!(
        "{api:?}: {native} -> {profiled} new blocks ({extra:.3} extra per API), \
         {native_resizes} -> {profiled_resizes} resizes"
    );
    assert!(
        extra_resizes <= 0.01,
        "{api:?}: {extra_resizes} extra resizes per API"
    );
    extra
}

#[test]
fn h2d_copy_adds_no_allocation() {
    // The access's entry in the copy's `writes` list is held in place.
    assert!(extra_per_api(Api::H2D) <= 0.01);
}

#[test]
fn memset_adds_no_allocation() {
    assert!(extra_per_api(Api::Memset) <= 0.01);
}

#[test]
fn free_adds_no_allocation() {
    // The `frees` list is held in place; the row shares the object's label.
    assert!(extra_per_api(Api::Free) <= 0.01);
    // A native FREE moves the object's label into its event, not a copy.
    let (native, _) = counts_for(Api::Free, false);
    assert!(native <= N, "{native} new blocks for {N} native frees");
}

#[test]
fn kernel_launch_adds_no_allocation() {
    // The `reads` and `writes` lists are held in place; the row shares the
    // kernel's name.
    assert!(extra_per_api(Api::Launch) <= 0.01);
}

#[test]
fn malloc_adds_about_one_allocation() {
    // The shared label, plus the registry's map nodes; the `writes` list
    // is held in place.
    assert!(extra_per_api(Api::Malloc) <= 1.2);
}
