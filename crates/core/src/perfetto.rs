//! Perfetto/Chrome-trace export — the feed for DrGPUM's web GUI (Sec. 4,
//! Fig. 7).
//!
//! The paper's GUI is built atop Perfetto UI and shows three panes: the
//! topological order of GPU APIs in a timeline, the lifetimes of the data
//! objects involved in the top memory peaks, and per-API details (call
//! paths, patterns, inefficiency distances, suggestions). This module emits
//! a `liveness.json` in the Chrome trace-event format that Perfetto renders
//! with the same structure:
//!
//! * process 1 — "GPU APIs": one track per stream, one slice per GPU API;
//! * process 2 — "Data objects": one track per object, a lifetime slice
//!   from allocation to deallocation plus an instant event per access;
//! * slice `args` carry call paths, detected patterns, and suggestions.

use crate::analyzer::build_trace_view;
use crate::collector::Collector;
use crate::report::Report;
use serde_json::{json, Value};
use std::fmt::Write as _;

/// Builds the Chrome-trace JSON for a profiled run.
///
/// Load the result in [Perfetto UI](https://ui.perfetto.dev) via
/// *Open trace file* — the workflow in the paper's artifact appendix.
pub fn trace_json(collector: &Collector, report: &Report) -> Value {
    let mut events = Vec::new();
    let tv = build_trace_view(collector);

    // Process metadata.
    events.push(json!({
        "name": "process_name", "ph": "M", "pid": 1,
        "args": {"name": "GPU APIs (topological order)"}
    }));
    events.push(json!({
        "name": "process_name", "ph": "M", "pid": 2,
        "args": {"name": "Data objects"}
    }));

    // --- Pane 1: GPU APIs, one track per stream. -------------------------
    let mut streams_seen = std::collections::BTreeSet::new();
    for (idx, api) in collector.gpu_apis().iter().enumerate() {
        let tid = u64::from(api.stream.0) + 1;
        if streams_seen.insert(api.stream.0) {
            events.push(json!({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": format!("stream {}", api.stream.0)}
            }));
        }
        let dur = (api.end_ns.saturating_sub(api.start_ns)).max(1) as f64 / 1000.0;
        // A backtrace, innermost frame first: `  #0 f @ file:line` lines.
        let mut call_path = String::new();
        for (depth, frame) in collector.paths().text(api.path).iter().enumerate() {
            let _ = writeln!(call_path, "  #{depth} {frame}");
        }
        events.push(json!({
            "name": api.name().to_string(),
            "cat": api.kind.mnemonic(),
            "ph": "X",
            "ts": api.start_ns as f64 / 1000.0,
            "dur": dur,
            "pid": 1,
            "tid": tid,
            "args": {
                "detail": api.detail.to_string(),
                "topological_ts": tv.api_ts[idx],
                "call_path": call_path,
            }
        }));
    }

    // --- Pane 2: data objects of the top peaks (plus their accesses). ----
    let peak_labels: std::collections::HashSet<&str> = report
        .peaks
        .iter()
        .flat_map(|p| p.objects.iter().map(|(l, _)| l.as_str()))
        .collect();
    let end_of_trace_ns = collector
        .gpu_apis()
        .iter()
        .map(|a| a.end_ns)
        .max()
        .unwrap_or(0);

    for obj in &tv.objects {
        // Like the paper's GUI we focus the object pane on the data objects
        // involved in the top memory peaks (Sec. 4).
        if !peak_labels.contains(&*obj.label) {
            continue;
        }
        let tid = obj.id.0 + 1;
        events.push(json!({
            "name": "thread_name", "ph": "M", "pid": 2, "tid": tid,
            "args": {"name": format!("{} ({} B)", obj.label, obj.size)}
        }));
        let start_ns = obj
            .alloc
            .as_ref()
            .map(|a| collector.gpu_apis()[a.idx].start_ns)
            .unwrap_or(0);
        let end_ns = obj
            .free
            .as_ref()
            .map(|f| collector.gpu_apis()[f.idx].end_ns)
            .unwrap_or(end_of_trace_ns)
            .max(start_ns + 1);
        let findings: Vec<Value> = report
            .findings_for(&obj.label)
            .iter()
            .map(|f| {
                json!({
                    "pattern": f.kind().name(),
                    "code": f.kind().code(),
                    "suggestion": f.suggestion,
                    "wasted_bytes": f.wasted_bytes,
                })
            })
            .collect();
        events.push(json!({
            "name": format!("lifetime of {}", obj.label),
            "cat": "object",
            "ph": "X",
            "ts": start_ns as f64 / 1000.0,
            "dur": (end_ns - start_ns) as f64 / 1000.0,
            "pid": 2,
            "tid": tid,
            "args": {
                "size_bytes": obj.size,
                "inefficiency_patterns": findings,
            }
        }));
        for acc in &obj.accesses {
            let api = &collector.gpu_apis()[acc.api.idx];
            let rw = match (acc.read, acc.write) {
                (true, true) => "read+write",
                (true, false) => "read",
                _ => "write",
            };
            events.push(json!({
                "name": format!("{} {}", api.name(), rw),
                "cat": "access",
                "ph": "i",
                "s": "t",
                "ts": api.start_ns as f64 / 1000.0,
                "pid": 2,
                "tid": tid,
                "args": {"topological_ts": acc.api.ts}
            }));
        }
    }

    json!({
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "tool": "DrGPUM (Rust reproduction)",
            "platform": report.platform,
            "peak_bytes": report.stats.peak_bytes,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze;
    use crate::options::ProfilerOptions;
    use gpu_sim::DeviceContext;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn trace_json_structure() {
        let mut ctx = DeviceContext::new_default();
        let c = Arc::new(Mutex::new(Collector::new(
            ProfilerOptions::object_level(),
            ctx.config().device_memory_bytes,
        )));
        ctx.sanitizer_mut().register(c.clone());
        let s1 = ctx.create_stream();
        let a = ctx.malloc(4096, "d_data_in1").unwrap();
        ctx.memset(a, 0, 4096).unwrap();
        ctx.memcpy_h2d_on(a, &[1u8; 4096], s1).unwrap();
        ctx.sync_device();
        ctx.free(a).unwrap();

        let col = c.lock();
        let report = analyze(&col, "rtx3090");
        let v = trace_json(&col, &report);

        let events = v["traceEvents"].as_array().unwrap();
        assert!(!events.is_empty());
        // Every GPU API appears as a complete ("X") slice under pid 1.
        let api_slices: Vec<&Value> = events
            .iter()
            .filter(|e| e["ph"] == "X" && e["pid"] == 1)
            .collect();
        assert_eq!(api_slices.len(), col.gpu_apis().len());
        // Stream 1's copy runs on its own track.
        assert!(api_slices.iter().any(|e| e["tid"] == 2));
        // The peak object gets a lifetime slice with patterns attached.
        let lifetime = events
            .iter()
            .find(|e| e["pid"] == 2 && e["cat"] == "object")
            .expect("object lifetime slice");
        assert!(lifetime["args"]["size_bytes"] == 4096);
        // JSON round-trips.
        let s = serde_json::to_string(&v).unwrap();
        let _parsed: Value = serde_json::from_str(&s).unwrap();
    }
}
