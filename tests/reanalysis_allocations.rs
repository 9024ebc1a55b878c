//! Exact heap-allocation counts of reloading and reanalyzing a trace.
//!
//! DrGPUM records once and explains many times (Fig. 1): a user re-runs
//! the offline analysis on one recording while tuning the `X` thresholds
//! (Sec. 3). This binary records a churn program of 600 objects, then
//! counts the heap blocks `trace_io::load` makes per API row and the
//! blocks `reanalyze` + `render_text` make per finding. Text shared by
//! many rows — kernel names, labels, call-path frames — is held once per
//! load, so neither count grows with the rows that repeat it.
//!
//! A counting global allocator tallies new blocks (`alloc`,
//! `alloc_zeroed`) per thread, so the test harness's other threads do not
//! disturb it; resizes (`realloc`) are not counted.

use drgpum::prelude::*;
use drgpum::profiler::trace_io;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// New blocks so far on this thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Objects the churn program allocates.
const OBJECTS: u64 = 600;

/// The saved trace text of a grow-and-evict program: 600 allocations
/// under 40 labels, each left untouched, set, or copied in and read by a
/// kernel; a window of 24 stays live and every seventh object leaks.
fn churn_trace() -> String {
    let mut ctx = DeviceContext::new_default();
    let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
    let host = vec![1u8; 1280];
    let config = LaunchConfig::cover(64, 64).unwrap();
    let mut live = VecDeque::new();
    for i in 0..OBJECTS {
        let bytes = 256 + 64 * (i % 16);
        let p = ctx.malloc(bytes, format!("buf{}", i % 40)).unwrap();
        match i % 5 {
            0 => {}
            1 => ctx.memset(p, 0, bytes).unwrap(),
            _ => {
                ctx.memcpy_h2d(p, &host[..bytes as usize]).unwrap();
                ctx.launch("scale", config, StreamId::DEFAULT, move |t| {
                    let i = t.global_x();
                    if i < 64 {
                        let v = t.load_f32(p + i * 4);
                        t.store_f32(p + i * 4, 2.0 * v);
                    }
                })
                .unwrap();
            }
        }
        live.push_back(p);
        if live.len() > 24 && i % 7 != 0 {
            ctx.free(live.pop_front().unwrap()).unwrap();
        }
    }
    let collector = profiler.collector();
    let collector = collector.lock();
    trace_io::save(&collector, ctx.call_stack().table(), &ctx.config().name).to_text()
}

#[test]
fn reload_and_reanalysis_allocate_per_distinct_text() {
    let text = churn_trace();

    let before = allocations();
    let saved = trace_io::load(&text).expect("the churn trace loads strictly");
    let load = allocations() - before;

    let before = allocations();
    let report = saved.reanalyze(&Thresholds::default());
    let rendered = report.render_text();
    let analysis = allocations() - before;

    let rows = saved.api_count() as f64;
    let findings = report.findings.len() as f64;
    let per_row = load as f64 / rows;
    let per_finding = analysis as f64 / findings;
    eprintln!(
        "load: {load} blocks for {rows} API rows ({per_row:.3} per row); \
         reanalyze + render: {analysis} blocks for {findings} findings \
         ({per_finding:.3} per finding)"
    );
    assert!(saved.object_count() as u64 >= OBJECTS);
    assert!(findings >= OBJECTS as f64, "{findings} findings");
    assert!(
        rendered.contains("[UA] buf0 "),
        "untouched objects are reported"
    );
    // Detail text, labels and def/use lists are held in place or shared:
    // what is left is the trace's own vectors and one entry per distinct
    // text or call path.
    assert!(per_row <= 0.1, "{per_row:.3} blocks per API row on load");
    // The finding's label and suggestion, plus the per-object access lists
    // and the detectors' scratch.
    assert!(
        per_finding <= 3.5,
        "{per_finding:.3} blocks per finding on reanalyze + render"
    );
}
