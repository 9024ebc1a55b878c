//! Integration test: the Perfetto GUI export (Fig. 7) produces a
//! well-formed Chrome trace with the paper's headline content.

use drgpum::prelude::*;
use drgpum::workloads::common::Variant;
use drgpum::workloads::registry::RunConfig;
use serde_json::Value;

/// Profiles the unoptimized SimpleMultiCopy run.
fn simple_multi_copy_run() -> (Profiler, Report) {
    let spec = drgpum::workloads::by_name("SimpleMultiCopy").expect("registered");
    let mut ctx = DeviceContext::new_default();
    let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
    (spec.run)(&mut ctx, Variant::Unoptimized, &RunConfig::default()).expect("runs");
    let report = profiler.report(&ctx);
    (profiler, report)
}

fn parse(profiler: &Profiler, report: &Report) -> Value {
    serde_json::from_str(&profiler.perfetto_trace(report)).expect("the trace parses")
}

fn simple_multi_copy_trace() -> (Report, Value) {
    let (profiler, report) = simple_multi_copy_run();
    let trace = parse(&profiler, &report);
    (report, trace)
}

#[test]
fn trace_is_valid_chrome_trace_json() {
    let (_, trace) = simple_multi_copy_trace();
    let events = trace["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        let ph = e["ph"].as_str().expect("phase");
        assert!(matches!(ph, "X" | "i" | "M" | "C"), "unexpected phase {ph}");
        if ph == "X" {
            assert!(e["ts"].is_number());
            assert!(e["dur"].is_number());
            assert!(e["pid"].is_number());
            assert!(e["tid"].is_number());
        }
        if ph == "C" {
            assert!(e["ts"].is_number());
            assert!(e["pid"].is_number());
            assert!(e["args"]["bytes"].is_number());
        }
    }
}

#[test]
fn trace_shows_streams_objects_and_patterns() {
    let (report, trace) = simple_multi_copy_trace();
    let events = trace["traceEvents"].as_array().expect("array");

    // Pane 1: every GPU API slice, across multiple stream tracks.
    let api_slices: Vec<&Value> = events
        .iter()
        .filter(|e| e["pid"] == 1 && e["ph"] == "X")
        .collect();
    assert_eq!(api_slices.len(), report.stats.gpu_apis as usize);
    let streams: std::collections::HashSet<u64> = api_slices
        .iter()
        .filter_map(|e| e["tid"].as_u64())
        .collect();
    assert!(streams.len() >= 2, "multi-stream program: several tracks");

    // Pane 2: object lifetimes for the peak objects with attached findings.
    let lifetimes: Vec<&Value> = events
        .iter()
        .filter(|e| e["pid"] == 2 && e["cat"] == "object")
        .collect();
    assert!(!lifetimes.is_empty());
    let out1 = lifetimes
        .iter()
        .find(|e| e["name"].as_str().unwrap_or("").contains("d_data_out1"))
        .expect("d_data_out1 lifetime slice");
    let patterns = out1["args"]["inefficiency_patterns"]
        .as_array()
        .expect("patterns");
    assert!(
        patterns.iter().any(|p| p["code"] == "EA"),
        "Fig. 7 headline: d_data_out1 matches early allocation"
    );
    // Suggestions ride along in the args.
    assert!(patterns.iter().all(|p| p["suggestion"]
        .as_str()
        .map(|s| !s.is_empty())
        .unwrap_or(false)));

    // Access instants reference topological timestamps.
    let instants: Vec<&Value> = events
        .iter()
        .filter(|e| e["pid"] == 2 && e["ph"] == "i")
        .collect();
    assert!(!instants.is_empty());
    assert!(instants
        .iter()
        .all(|e| e["args"]["topological_ts"].is_number()));
}

#[test]
fn api_slices_carry_call_paths_and_topo_order() {
    let (_, trace) = simple_multi_copy_trace();
    let events = trace["traceEvents"].as_array().expect("array");
    let with_paths = events
        .iter()
        .filter(|e| e["pid"] == 1 && e["ph"] == "X")
        .all(|e| e["args"]["call_path"].is_string() && e["args"]["topological_ts"].is_number());
    assert!(with_paths);
}

/// The object pane tells apart objects that share a label: an 8 KiB `buf`
/// allocated and freed untouched (UA), then a 16 KiB `buf` set and leaked
/// (ML). Only the second is live at the one highlighted peak, and each
/// lifetime slice carries its own object's findings.
#[test]
fn object_pane_matches_objects_by_id_not_label() {
    let mut ctx = DeviceContext::new_default();
    let mut options = ProfilerOptions::object_level();
    options.thresholds.top_peaks = 1;
    let profiler = Profiler::attach(&mut ctx, options);
    let small = ctx.malloc(8 << 10, "buf").unwrap();
    ctx.free(small).unwrap();
    let big = ctx.malloc(16 << 10, "buf").unwrap();
    ctx.memset(big, 0, 16 << 10).unwrap();
    let report = profiler.report(&ctx);
    let trace = parse(&profiler, &report);
    let lifetimes: Vec<&Value> = trace["traceEvents"]
        .as_array()
        .expect("array")
        .iter()
        .filter(|e| e["pid"] == 2 && e["cat"] == "object")
        .collect();
    assert_eq!(report.peaks.len(), 1);
    assert_eq!(
        lifetimes.len(),
        1,
        "only the 16 KiB buf is live at the peak"
    );
    assert_eq!(lifetimes[0]["args"]["size_bytes"], 16u64 << 10);
    let codes: Vec<&str> = lifetimes[0]["args"]["inefficiency_patterns"]
        .as_array()
        .expect("patterns")
        .iter()
        .map(|p| p["code"].as_str().expect("code"))
        .collect();
    assert_eq!(codes, ["ML"]);
}

#[test]
fn usage_curve_is_a_counter_track_with_one_instant_per_peak() {
    let (profiler, report) = simple_multi_copy_run();
    let trace = parse(&profiler, &report);
    let events = trace["traceEvents"].as_array().expect("array");

    let counter: Vec<u64> = events
        .iter()
        .filter(|e| e["ph"] == "C")
        .map(|e| e["args"]["bytes"].as_u64().expect("bytes"))
        .collect();
    let curve: Vec<u64> = profiler
        .collector()
        .lock()
        .usage_curve()
        .iter()
        .map(|s| s.bytes_in_use)
        .collect();
    assert_eq!(counter, curve, "one counter value per usage sample");
    assert_eq!(counter.iter().max(), Some(&report.stats.peak_bytes));

    let peaks: Vec<&Value> = events.iter().filter(|e| e["cat"] == "peak").collect();
    assert!(!report.peaks.is_empty());
    assert_eq!(peaks.len(), report.peaks.len());
    for (k, (event, peak)) in peaks.iter().zip(&report.peaks).enumerate() {
        assert_eq!(event["name"], format!("peak #{}", k + 1));
        assert_eq!(event["ph"], "i");
        assert_eq!(event["s"], "p", "a peak marks the whole process");
        assert_eq!(event["args"]["bytes"], peak.bytes);
    }
}

#[test]
fn labels_needing_escapes_parse_back_unchanged() {
    let label = "q\"uote \\ back\nline \u{1} <script>alert(1)</script>";
    let mut ctx = DeviceContext::new_default();
    let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
    let leak = ctx.malloc(4096, label).unwrap();
    ctx.memset(leak, 0, 4096).unwrap();
    let report = profiler.report(&ctx);
    let trace = parse(&profiler, &report);
    let events = trace["traceEvents"].as_array().expect("array");
    let lifetime = events
        .iter()
        .find(|e| e["cat"] == "object")
        .expect("the leaked object is live at the peak");
    assert_eq!(lifetime["name"], format!("lifetime of {label}"));
    let alloc = events
        .iter()
        .find(|e| e["cat"] == "ALLOC")
        .expect("the allocation slice");
    assert_eq!(alloc["args"]["detail"], label);
}
