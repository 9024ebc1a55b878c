//! Chaos matrix: every injectable fault kind crossed with every registered
//! workload, plus seeded corruption of saved traces. The contract under
//! test is the robustness pipeline's core guarantee — the profiler always
//! comes back with a report carrying per-detector status, degraded where
//! necessary, and never panics.

use drgpum::prelude::*;
use drgpum::profiler::{trace_io, ResourceBudget, Thresholds};
use drgpum::workloads::common::Variant;
use drgpum::workloads::faults;
use drgpum::workloads::registry::RunConfig;
use gpu_sim::{FaultKind, SplitMix64};

#[test]
fn every_fault_kind_on_every_workload_still_yields_a_report() {
    for kind in FaultKind::ALL {
        for spec in drgpum::workloads::all() {
            let mut ctx = DeviceContext::new_default();
            let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
            let cfg = RunConfig {
                pool_observer: spec
                    .uses_pool
                    .then(|| profiler.collector() as drgpum::sim::pool::SharedPoolObserver),
            };
            let run = faults::run_under_fault(&mut ctx, &spec, kind, 0x00D0_6F00, &cfg);
            let case = format!("{kind} on {}", spec.name);

            // A failed run is acceptable under injected faults; a panic or
            // a missing report is not.
            let report = profiler.report(&ctx);
            let names: Vec<&str> = report.detectors.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(
                names,
                ["object_level", "redundant", "intra", "unified"],
                "{case}: every detector family must be accounted for"
            );

            // An injected allocation failure must surface as an explicit
            // degradation record, never silence.
            let oom_injected = ctx
                .fault_log()
                .iter()
                .any(|f| f.kind == FaultKind::AllocFail);
            if oom_injected {
                assert!(
                    report.is_degraded(),
                    "{case}: injected OOM must mark the report degraded"
                );
                assert!(
                    report.degradations.iter().any(|d| d.stage == "collector"),
                    "{case}: the collector must record its CPU-side fallback"
                );
            }

            // Exports stay well-formed whatever happened.
            let json = drgpum::profiler::export::report_json(&report);
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("{case}: export failed: {e}"));
            if run.is_ok() {
                assert!(
                    report.stats.gpu_apis > 0,
                    "{case}: successful run records APIs"
                );
            }
        }
    }
}

#[test]
fn faults_under_tiny_budgets_never_panic() {
    // The chaos cross-product: injected faults × a budget small enough to
    // walk the whole degradation ladder. Whatever the combination, the
    // outcome is a report (degraded where honest) or a typed error — never
    // a panic.
    for kind in FaultKind::ALL {
        for workload in ["BICG", "huffman", "SimpleMultiCopy"] {
            let spec = drgpum::workloads::by_name(workload).expect("registered");
            let mut ctx = DeviceContext::with_config(SimConfig::default());
            let budget = ResourceBudget::unlimited().with_resident_bytes(16 << 10);
            let profiler = Profiler::attach(
                &mut ctx,
                ProfilerOptions::intra_object().with_budget(budget),
            );
            let cfg = RunConfig {
                pool_observer: spec
                    .uses_pool
                    .then(|| profiler.collector() as drgpum::sim::pool::SharedPoolObserver),
            };
            let run = faults::run_under_fault(&mut ctx, &spec, kind, 0xBAD_B0D9E7, &cfg);
            let case = format!("{kind} on {workload}");
            if let Err(e) = &run {
                // Typed simulator errors are an acceptable outcome.
                assert!(
                    !e.to_string().is_empty(),
                    "{case}: error must describe itself"
                );
            }
            let report = profiler.report(&ctx);
            assert_eq!(
                report.detectors.len(),
                4,
                "{case}: every detector family accounted for"
            );
            // 16 KiB cannot hold BICG/huffman intra state: the ladder
            // must have been walked and reported, not silently ignored.
            if report.degradations.iter().any(|d| d.stage == "governor") {
                assert!(report.is_degraded(), "{case}: demotions mark the report");
            }
            let json = drgpum::profiler::export::report_json(&report);
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("{case}: export failed: {e}"));
        }
    }
}

#[test]
fn shared_memory_overrun_is_a_device_fault_with_a_full_report() {
    let mut ctx = DeviceContext::new_default();
    let profiler = Profiler::attach(&mut ctx, ProfilerOptions::intra_object());
    let out = ctx.malloc(64, "out").expect("fits");
    // Threads 2 and 3 index past the 16-byte shared window. This used to
    // panic the host mid-kernel; it must surface as a device fault instead,
    // with the profiler still producing a complete report afterwards.
    let cfg = LaunchConfig::cover(4, 4).unwrap().with_shared_mem(16);
    let err = ctx
        .launch("oob_shared", cfg, StreamId::DEFAULT, |t| {
            let i = t.global_x();
            t.shared_store_f32(i as u32 * 8, 1.0);
            let v = t.shared_load_f32(i as u32 * 8);
            t.store_f32(out + i * 4, v);
        })
        .expect_err("shared-memory overrun must fail the launch");
    match err {
        SimError::KernelFaulted { kernel, reason } => {
            assert_eq!(kernel, "oob_shared");
            assert!(
                reason.contains("shared"),
                "fault names shared memory: {reason}"
            );
        }
        other => panic!("expected KernelFaulted, got {other:?}"),
    }
    let report = profiler.report(&ctx);
    let names: Vec<&str> = report.detectors.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(
        names,
        ["object_level", "redundant", "intra", "unified"],
        "a faulted kernel must not lose any detector family"
    );
    let json = drgpum::profiler::export::report_json(&report);
    serde_json::from_str(&json).expect("report for a faulted run still exports");
}

#[test]
fn salvage_of_corrupted_traces_never_panics_and_reports_losses() {
    for name in ["2MM", "huffman", "SimpleMultiCopy"] {
        let spec = drgpum::workloads::by_name(name).expect("registered");
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
        (spec.run)(&mut ctx, Variant::Unoptimized, &RunConfig::default()).expect("clean run");
        let collector = profiler.collector();
        let collector = collector.lock();
        let saved = trace_io::save(&collector, ctx.call_stack().table(), "rtx3090");
        drop(collector);
        let text = saved.to_text();

        let mut rng = SplitMix64::new(42);
        for round in 0..24 {
            let mut bytes = text.clone().into_bytes();
            if rng.chance(0.5) {
                let cut = rng.next_below(bytes.len() as u64) as usize;
                bytes.truncate(cut);
            } else {
                let pos = rng.next_below(bytes.len() as u64) as usize;
                let bit = rng.next_below(8) as u32;
                bytes[pos] ^= 1 << bit;
            }
            let mutated = String::from_utf8_lossy(&bytes).into_owned();
            let report = trace_io::reanalyze_salvaged(&mutated, &Thresholds::default());
            assert_eq!(
                report.detectors.len(),
                4,
                "{name} round {round}: salvage must still run every detector"
            );
            // Damage that strict loading rejects must be visible as an
            // explicit degradation, never silently absorbed.
            if trace_io::load(&mutated).is_err() {
                assert!(
                    report.is_degraded(),
                    "{name} round {round}: salvage losses must be reported"
                );
                assert!(
                    report
                        .degradations
                        .iter()
                        .any(|d| d.stage == "trace-salvage"),
                    "{name} round {round}: loss records carry the salvage stage"
                );
            }
        }
    }
}
