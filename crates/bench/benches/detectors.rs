//! Micro-benchmarks for the pattern detectors and their data structures —
//! the profiler-side costs behind Figure 6's overhead. Uses the offline
//! timing harness in [`drgpum_bench::timing`].

use drgpum_bench::timing::{bench, group};
use drgpum_core::accessmap::{AccessBitmap, FreqMap, RangeSet};
use drgpum_core::depgraph::{DependencyGraph, ObjectList, VertexAccess};
use drgpum_core::object::ObjectId;
use drgpum_core::options::Thresholds;
use drgpum_core::patterns::{
    object_level, redundant, AccessVia, ApiRef, ObjectAccess, ObjectView, TraceView,
};
use gpu_sim::StreamId;
use std::hint::black_box;

/// Builds a synthetic trace of `n_objects` objects, each with a handful of
/// accesses spread over a `4 * n_objects`-API trace.
fn synthetic_trace(n_objects: usize) -> TraceView {
    let n_apis = n_objects * 4;
    let mut tv = TraceView::synthetic(n_apis);
    let names = tv.api_names.clone();
    for i in 0..n_objects {
        let base = i * 4;
        let mk = |idx: usize| ObjectAccess {
            api: ApiRef {
                idx,
                ts: idx as u64,
                name: names[idx],
            },
            read: true,
            write: idx.is_multiple_of(2),
            via: AccessVia::Kernel,
        };
        tv.objects.push(ObjectView {
            id: ObjectId(i as u64),
            label: format!("obj{i}").into(),
            size: 1024 + (i as u64 % 7) * 64,
            alloc: Some(ApiRef {
                idx: base,
                ts: base as u64,
                name: names[base],
            }),
            alloc_anchor: base,
            free: None,
            free_anchor: None,
            accesses: vec![mk(base + 1), mk(base + 2), mk(base + 3)],
            analyzable: true,
        });
    }
    tv
}

fn bench_object_level() {
    group("object_level_detectors");
    for n in [100usize, 1000] {
        let tv = synthetic_trace(n);
        let thresholds = Thresholds::default();
        bench(&format!("detect_all/{n}"), 50, || {
            black_box(object_level::detect_all(&tv, &thresholds))
        });
        bench(&format!("redundant_one_pass/{n}"), 50, || {
            black_box(redundant::detect_redundant_allocations(&tv, 10.0))
        });
    }
}

fn bench_depgraph() {
    group("dependency_graph");
    for n in [1000usize, 10_000] {
        let vertices: Vec<VertexAccess> = (0..n)
            .map(|i| VertexAccess {
                stream: StreamId((i % 4) as u32),
                reads: ObjectList::from_iter([ObjectId((i % 50) as u64)]),
                writes: ObjectList::from_iter([ObjectId(((i + 1) % 50) as u64)]),
                frees: ObjectList::new(),
                after: vec![],
            })
            .collect();
        bench(&format!("build_and_sort/{n}"), 20, || {
            black_box(DependencyGraph::build(&vertices))
        });
    }
}

fn bench_access_maps() {
    group("access_maps");
    bench("bitmap_set_4k_ranges_in_1m", 20, || {
        let mut bm = AccessBitmap::new(1 << 20);
        for i in 0..4096u64 {
            bm.set_range(i * 256, i * 256 + 128);
        }
        black_box(bm.count_set())
    });
    let mut bm = AccessBitmap::new(1 << 20);
    for i in 0..2048u64 {
        bm.set_range(i * 512, i * 512 + 256);
    }
    bench("bitmap_fragmentation_1m", 20, || {
        black_box(drgpum_core::metrics::fragmentation_pct(&bm))
    });
    bench("rangeset_insert_4k", 20, || {
        let mut rs = RangeSet::new();
        for i in 0..4096u64 {
            let s = (i * 37) % 100_000;
            rs.insert(s, s + 64);
        }
        black_box(rs.covered())
    });
    bench("freqmap_record_64k", 20, || {
        let mut fm = FreqMap::new(1 << 16, 4);
        for i in 0..65_536u64 {
            fm.record((i * 4) % (1 << 16), 4);
        }
        black_box(fm.coefficient_of_variation_pct())
    });
}

fn main() {
    bench_object_level();
    bench_depgraph();
    bench_access_maps();
}
