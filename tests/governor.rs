//! Resource-governed sessions: the memory budget's adaptive degradation
//! ladder, fidelity with an ample budget, and crash-consistent streaming
//! traces (including the trace-byte budget).
//!
//! The contract: a tripped budget demotes collection one honest,
//! reported rung at a time; an ample budget changes *nothing* — reports
//! and saved traces are byte-identical to an ungoverned run.

use drgpum::prelude::*;
use drgpum::profiler::{export, trace_io, CollectionRung, ResourceBudget};
use drgpum::workloads::common::Variant;
use drgpum::workloads::registry::RunConfig;
use std::path::PathBuf;

/// A per-test temp path that never collides across parallel test runs.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("drgpum-gov-{}-{name}", std::process::id()))
}

/// Runs `workload` under `options`, returning the profiler and context.
fn profiled_run(workload: &str, options: ProfilerOptions) -> (Profiler, DeviceContext) {
    let spec = drgpum::workloads::by_name(workload).expect("registered workload");
    let mut ctx = DeviceContext::new_default();
    let profiler = Profiler::attach(&mut ctx, options);
    (spec.run)(&mut ctx, Variant::Unoptimized, &RunConfig::default()).expect("clean run");
    (profiler, ctx)
}

#[test]
fn tiny_budget_walks_every_ladder_rung_and_names_each_demotion() {
    let budget = ResourceBudget::unlimited().with_resident_bytes(64 << 10);
    let (profiler, ctx) = profiled_run("BICG", ProfilerOptions::intra_object().with_budget(budget));
    let report = profiler.report(&ctx);
    assert!(
        report.is_degraded(),
        "a tripped budget must mark the report"
    );

    let governor_msgs: Vec<&str> = report
        .degradations
        .iter()
        .filter(|d| d.stage == "governor")
        .map(|d| d.detail.as_str())
        .collect();
    for step in [
        "full-access-maps -> coalesced-only",
        "coalesced-only -> sampled",
        "sampled -> counters-only",
    ] {
        assert!(
            governor_msgs.iter().any(|m| m.contains(step)),
            "missing ladder step `{step}` in {governor_msgs:?}"
        );
    }
    let rung = profiler.collector().lock().collection_rung();
    assert_eq!(rung, CollectionRung::CountersOnly);

    // The degraded report still accounts for every detector family and
    // still exports.
    assert_eq!(report.detectors.len(), 4);
    serde_json::from_str(&export::report_json(&report)).expect("degraded report exports");
}

#[test]
fn ample_budget_is_byte_identical_to_an_ungoverned_run() {
    for workload in ["BICG", "huffman"] {
        let (free, free_ctx) = profiled_run(workload, ProfilerOptions::intra_object());
        let governed_opts = ProfilerOptions::intra_object().with_budget(
            ResourceBudget::unlimited()
                .with_resident_bytes(1 << 30)
                .with_trace_bytes(1 << 30),
        );
        let (governed, governed_ctx) = profiled_run(workload, governed_opts);

        let (r1, r2) = (free.report(&free_ctx), governed.report(&governed_ctx));
        assert!(!r2.is_degraded(), "{workload}: ample budget never degrades");
        assert_eq!(
            r1.render_text(),
            r2.render_text(),
            "{workload}: rendered reports must be byte-identical"
        );
        assert_eq!(
            export::report_json(&r1),
            export::report_json(&r2),
            "{workload}: JSON exports must be byte-identical"
        );

        let save = |p: &Profiler, ctx: &DeviceContext| {
            let collector = p.collector();
            let collector = collector.lock();
            trace_io::save(&collector, ctx.call_stack().table(), "rtx3090").to_text()
        };
        assert_eq!(
            save(&free, &free_ctx),
            save(&governed, &governed_ctx),
            "{workload}: saved traces must be byte-identical"
        );
    }
}

#[test]
fn streaming_trace_round_trips_losslessly_and_matches_the_batch_report() {
    let path = temp_path("roundtrip.trace");
    let spec = drgpum::workloads::by_name("BICG").expect("registered");
    let mut ctx = DeviceContext::new_default();
    let profiler = Profiler::attach_streaming(&mut ctx, ProfilerOptions::intra_object(), &path)
        .expect("trace file creatable");
    (spec.run)(&mut ctx, Variant::Unoptimized, &RunConfig::default()).expect("clean run");
    profiler.finish_stream().expect("clean finish");

    let text = std::fs::read_to_string(&path).expect("trace readable");
    let (salvaged, losses) = trace_io::salvage(&text);
    assert!(
        losses.is_lossless(),
        "a cleanly finished stream recovers losslessly: {:?}",
        losses.notes
    );

    // The streamed recording must analyze exactly like the batch one.
    let collector = profiler.collector();
    let collector = collector.lock();
    let batch = trace_io::save(&collector, ctx.call_stack().table(), &ctx.config().name);
    drop(collector);
    assert_eq!(salvaged.api_count(), batch.api_count());
    assert_eq!(salvaged.object_count(), batch.object_count());
    assert_eq!(
        salvaged.reanalyze(&Thresholds::default()).render_text(),
        batch.reanalyze(&Thresholds::default()).render_text(),
        "streamed and batch recordings must yield identical reports"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_byte_budget_stops_streaming_with_an_honest_record() {
    let path = temp_path("budget.trace");
    let options = ProfilerOptions::intra_object()
        .with_budget(ResourceBudget::unlimited().with_trace_bytes(4 << 10));
    let spec = drgpum::workloads::by_name("BICG").expect("registered");
    let mut ctx = DeviceContext::new_default();
    let profiler =
        Profiler::attach_streaming(&mut ctx, options, &path).expect("trace file creatable");
    (spec.run)(&mut ctx, Variant::Unoptimized, &RunConfig::default()).expect("clean run");
    profiler
        .finish_stream()
        .expect("idempotent on a stopped stream");

    let report = profiler.report(&ctx);
    assert!(
        report
            .degradations
            .iter()
            .any(|d| d.stage == "governor" && d.detail.contains("trace budget exceeded")),
        "the trace-budget trip must be recorded: {:?}",
        report.degradations
    );

    // Appending stopped at the trip (a single frame may overshoot the
    // budget — the check runs between frames — but nothing follows it).
    assert!(
        !profiler.collector().lock().is_streaming(),
        "the trace-budget trip must stop the stream"
    );

    // The truncated stream still salvages to a usable prefix: the final
    // checkpoint written at the trip keeps the analysis state consistent.
    let text = std::fs::read_to_string(&path).expect("trace readable");
    let (salvaged, losses) = trace_io::salvage(&text);
    assert!(
        !losses.is_lossless(),
        "a budget-stopped stream has no clean finish"
    );
    let report = salvaged.reanalyze_with(&Thresholds::default(), losses.to_degradations());
    assert_eq!(report.detectors.len(), 4);
    std::fs::remove_file(&path).ok();
}
