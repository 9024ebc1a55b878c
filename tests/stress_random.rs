//! Randomized stress test: generate random (but valid) GPU programs, run
//! the full profiler stack over them, and check global invariants —
//! robustness beyond the hand-written workloads.

use drgpum::prelude::*;
use drgpum::profiler::{export, trace_io};
use gpu_sim::SplitMix64;

/// Uniform draw in `[lo, hi)` from the deterministic generator.
fn range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo)
}

#[derive(Debug)]
struct Program {
    ops: Vec<Op>,
}

#[derive(Debug)]
enum Op {
    Malloc {
        size: u64,
    },
    FreeNth(usize),
    MemsetNth {
        nth: usize,
        value: u8,
    },
    H2dNth(usize),
    KernelTouch {
        nth: usize,
        write: bool,
        fraction: u8,
    },
}

fn random_program(rng: &mut SplitMix64, len: usize) -> Program {
    let ops = (0..len)
        .map(|_| match range(rng, 0, 10) {
            0..=2 => Op::Malloc {
                size: range(rng, 64, 16_384),
            },
            3 => Op::FreeNth(range(rng, 0, 32) as usize),
            4..=5 => Op::MemsetNth {
                nth: range(rng, 0, 32) as usize,
                value: range(rng, 0, 256) as u8,
            },
            6 => Op::H2dNth(range(rng, 0, 32) as usize),
            _ => Op::KernelTouch {
                nth: range(rng, 0, 32) as usize,
                write: rng.chance(0.5),
                fraction: range(rng, 1, 5) as u8,
            },
        })
        .collect();
    Program { ops }
}

/// Executes the program; returns the number of GPU APIs issued and live
/// allocations left.
fn execute(ctx: &mut DeviceContext, program: &Program) -> (u64, usize) {
    let mut live: Vec<(gpu_sim::DevicePtr, u64)> = Vec::new();
    let mut api_count = 0u64;
    for op in &program.ops {
        match op {
            Op::Malloc { size } => {
                let ptr = ctx.malloc(*size, format!("obj{api_count}")).expect("fits");
                live.push((ptr, *size));
                api_count += 1;
            }
            Op::FreeNth(n) => {
                if !live.is_empty() {
                    let (ptr, _) = live.remove(n % live.len());
                    ctx.free(ptr).expect("valid");
                    api_count += 1;
                }
            }
            Op::MemsetNth { nth, value } => {
                if !live.is_empty() {
                    let (ptr, size) = live[nth % live.len()];
                    ctx.memset(ptr, *value, size).expect("valid");
                    api_count += 1;
                }
            }
            Op::H2dNth(nth) => {
                if !live.is_empty() {
                    let (ptr, size) = live[nth % live.len()];
                    ctx.memcpy_h2d(ptr, &vec![7u8; size as usize])
                        .expect("valid");
                    api_count += 1;
                }
            }
            Op::KernelTouch {
                nth,
                write,
                fraction,
            } => {
                if !live.is_empty() {
                    let (ptr, size) = live[nth % live.len()];
                    let elems = (size / 4 / u64::from(*fraction)).max(1);
                    let write = *write;
                    ctx.launch(
                        "touch",
                        LaunchConfig::cover(elems, 32).unwrap(),
                        StreamId::DEFAULT,
                        move |t| {
                            let i = t.global_x();
                            if i < elems {
                                if write {
                                    t.store_f32(ptr + i * 4, i as f32);
                                } else {
                                    let _ = t.load_f32(ptr + i * 4);
                                }
                            }
                        },
                    )
                    .expect("launches");
                    api_count += 1;
                }
            }
        }
    }
    (api_count, live.len())
}

#[test]
fn random_programs_uphold_profiler_invariants() {
    for seed in 0..40u64 {
        let mut rng = SplitMix64::new(seed);
        let len = range(&mut rng, 5, 60) as usize;
        let program = random_program(&mut rng, len);
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(&mut ctx, ProfilerOptions::intra_object());
        let (api_count, leaked) = execute(&mut ctx, &program);
        let report = profiler.report(&ctx);

        // Accounting invariants.
        assert_eq!(report.stats.gpu_apis, api_count, "seed {seed}");
        assert_eq!(report.stats.leaked_objects as usize, leaked, "seed {seed}");
        assert_eq!(
            report.stats.peak_bytes,
            ctx.allocator().stats().peak_bytes,
            "seed {seed}"
        );

        // Findings reference known objects with non-empty suggestions.
        for f in &report.findings {
            assert!(!f.object.label.is_empty(), "seed {seed}");
            assert!(!f.suggestion.is_empty(), "seed {seed}");
        }
        // Soundness spot-check: every reported leak is genuinely live.
        let leak_count = report
            .findings
            .iter()
            .filter(|f| f.kind() == PatternKind::MemoryLeak)
            .count();
        assert_eq!(leak_count, leaked, "seed {seed}");

        // Renderers never panic and exports round-trip.
        let _ = report.render_text();
        let json = export::report_json(&report);
        let _: serde_json::Value = serde_json::from_str(&json).expect("round-trip");
        let trace: serde_json::Value =
            serde_json::from_str(&profiler.perfetto_trace(&report)).expect("round-trip");
        assert!(trace["traceEvents"].is_array(), "seed {seed}");

        // The trace text carries everything the live analysis read: loaded
        // back and reanalyzed, it renders the same report byte for byte.
        let collector = profiler.collector();
        let text = trace_io::save(&collector.lock(), ctx.call_stack().table(), "rtx3090").to_text();
        let replayed = trace_io::load(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: the saved trace does not load: {e}"))
            .reanalyze(&Thresholds::default());
        assert_eq!(report.render_text(), replayed.render_text(), "seed {seed}");
        assert_eq!(json, export::report_json(&replayed), "seed {seed}");

        // The advisor stays in range.
        let est = profiler.estimate_savings(&report);
        assert!(est.estimated_peak <= est.original_peak, "seed {seed}");
    }
}
