//! Golden digests of the collection pipeline's two byte-exact artifacts.
//!
//! For every registered workload (`Unoptimized` variant, intra-object
//! analysis, the spec's element-size and pool hints) this profiles one clean
//! run and digests the rendered report text, the trace text, the report
//! text rendered after strictly loading that trace back and reanalyzing it
//! with the default thresholds, the report's pretty JSON export (what
//! `drgpum run --json` writes) and the Perfetto GUI trace (what
//! `drgpum run --perfetto` writes). Each line of
//! `tests/golden/pipeline_digests.txt` holds
//!
//! ```text
//! <workload> <report bytes> <report fnv1a64> <trace bytes> <trace fnv1a64>
//!     <reanalyzed bytes> <reanalyzed fnv1a64> <json bytes> <json fnv1a64>
//!     <perfetto bytes> <perfetto fnv1a64>
//! ```
//!
//! (one line per workload). Any change to collection, analysis or trace
//! encoding that alters a single byte of any artifact fails this test. The
//! reanalyzed column pins what a saved trace carries into offline analysis,
//! independently of how the trace text itself is encoded. On a mismatch the full
//! recomputed table is printed, so an intended change is accepted by pasting
//! it over the digest file.
//!
//! Every workload is also profiled with the simulator's raw record mode
//! (`set_coalescing(false)` after attach) and must match the default,
//! merged run byte for byte: merging accesses never changes DrGPUM's
//! output, and that is checked live here rather than only through the
//! recorded digests.

use drgpum::prelude::*;
use drgpum::profiler::{export, trace_io};
use drgpum::sim::pool::{CachingPool, SharedPoolObserver};
use drgpum::workloads::common::Variant;
use drgpum::workloads::registry::{RunConfig, WorkloadSpec};

const GOLDEN: &str = include_str!("golden/pipeline_digests.txt");

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The artifacts of one finished run: the rendered report text, the
/// report's pretty JSON, the trace text and the Perfetto GUI trace.
struct Artifacts {
    report: String,
    json: String,
    trace: String,
    perfetto: String,
}

/// Profiles one clean run and returns its artifacts. With `merge` off the
/// sanitizer delivers one record per access.
fn profile(spec: &WorkloadSpec, merge: bool) -> Artifacts {
    let mut ctx = DeviceContext::with_config(SimConfig::default());
    let mut options = ProfilerOptions::intra_object();
    if let Some(elem) = spec.elem_size_hint {
        options.elem_size = elem;
    }
    if spec.uses_pool {
        options.track_pool_tensors = true;
    }
    let profiler = Profiler::attach(&mut ctx, options);
    ctx.sanitizer_mut().set_coalescing(merge);
    let cfg = RunConfig {
        pool_observer: spec
            .uses_pool
            .then(|| profiler.collector() as SharedPoolObserver),
    };
    (spec.run)(&mut ctx, Variant::Unoptimized, &cfg)
        .unwrap_or_else(|e| panic!("workload {} failed: {e}", spec.name));
    artifacts(&profiler, &ctx)
}

/// The artifacts of a finished run.
fn artifacts(profiler: &Profiler, ctx: &DeviceContext) -> Artifacts {
    let trace = {
        let collector = profiler.collector();
        let collector = collector.lock();
        trace_io::save(&collector, ctx.call_stack().table(), "rtx3090").to_text()
    };
    let report = profiler.report(ctx);
    let perfetto = profiler.perfetto_trace(&report);
    Artifacts {
        report: report.render_text(),
        json: export::report_json(&report),
        trace,
        perfetto,
    }
}

#[test]
fn reports_and_traces_match_golden_digests() {
    let table: String = drgpum::workloads::all()
        .iter()
        .map(|spec| {
            let Artifacts {
                report,
                json,
                trace,
                perfetto,
            } = profile(spec, true);
            let raw = profile(spec, false);
            assert!(
                report == raw.report
                    && json == raw.json
                    && trace == raw.trace
                    && perfetto == raw.perfetto,
                "{}: merged records changed the report or trace",
                spec.name
            );
            let reanalyzed = trace_io::load(&trace)
                .unwrap_or_else(|e| panic!("{}: saved trace does not load: {e}", spec.name))
                .reanalyze(&Thresholds::default())
                .render_text();
            format!(
                "{} {} {:016x} {} {:016x} {} {:016x} {} {:016x} {} {:016x}\n",
                spec.name,
                report.len(),
                fnv1a64(report.as_bytes()),
                trace.len(),
                fnv1a64(trace.as_bytes()),
                reanalyzed.len(),
                fnv1a64(reanalyzed.as_bytes()),
                json.len(),
                fnv1a64(json.as_bytes()),
                perfetto.len(),
                fnv1a64(perfetto.as_bytes()),
            )
        })
        .collect();
    assert_eq!(
        table.lines().count(),
        12,
        "the registry holds Table 1's 12 workloads"
    );
    if table != GOLDEN {
        panic!(
            "pipeline output diverged from tests/golden/pipeline_digests.txt; \
             recomputed table:\n{table}"
        );
    }
}

/// Profiles three kernels over three abutting 512-byte pool tensors
/// `a | b | out`, each making accesses that merge across the `a`/`b`
/// boundary: a warp whose lanes straddle it, a stencil whose neighbour load
/// of `a`'s last element reads `b[0]`, and one thread streaming across it.
/// `b` is read only through those crossings. Returns the run's artifacts
/// and the number of merged-away records.
fn profile_tensor_crossings(merge: bool) -> (Artifacts, u64) {
    let mut ctx = DeviceContext::with_config(SimConfig::default());
    let mut options = ProfilerOptions::intra_object();
    options.track_pool_tensors = true;
    let profiler = Profiler::attach(&mut ctx, options);
    ctx.sanitizer_mut().set_coalescing(merge);
    let mut pool = CachingPool::reserve(&mut ctx, 4096).unwrap();
    pool.register_observer(profiler.collector() as SharedPoolObserver);
    let a = pool.alloc(&mut ctx, 512, "a").unwrap();
    let b = pool.alloc(&mut ctx, 512, "b").unwrap();
    let out = pool.alloc(&mut ctx, 512, "out").unwrap();
    assert_eq!(b, a + 512, "pool tensors abut");
    ctx.h2d_f32(a, &[1.0; 128]).unwrap();
    ctx.h2d_f32(b, &[2.0; 128]).unwrap();
    let cfg = |threads| LaunchConfig::cover(threads, 32).unwrap();
    ctx.launch("straddle", cfg(32), StreamId::DEFAULT, move |t| {
        let i = t.global_x();
        let v = t.load_f32(a + (112 + i) * 4);
        t.store_f32(out + i * 4, v);
    })
    .unwrap();
    ctx.launch("stencil", cfg(128), StreamId::DEFAULT, move |t| {
        let i = t.global_x();
        let v = t.load_f32(a + i * 4) + t.load_f32(a + (i + 1) * 4);
        t.store_f32(out + i * 4, v);
    })
    .unwrap();
    ctx.launch("stream", cfg(1), StreamId::DEFAULT, move |t| {
        let sum: f32 = (120..136).map(|k| t.load_f32(a + k * 4)).sum();
        t.store_f32(out, sum);
    })
    .unwrap();
    (artifacts(&profiler, &ctx), ctx.stats().coalesced_records)
}

#[test]
fn records_merged_across_abutting_pool_tensors_match_raw_records() {
    let (merged, merged_away) = profile_tensor_crossings(true);
    let (raw, raw_merged_away) = profile_tensor_crossings(false);
    assert!(merged_away > 0, "the kernels must produce merged records");
    assert_eq!(raw_merged_away, 0);
    assert_eq!(merged.report, raw.report);
    assert_eq!(merged.json, raw.json);
    assert_eq!(merged.trace, raw.trace);
    assert_eq!(merged.perfetto, raw.perfetto);
}
