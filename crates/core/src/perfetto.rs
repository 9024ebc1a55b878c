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
//! * process 2 — "Data objects": one track per object live at a top peak,
//!   a lifetime slice from allocation to deallocation plus an instant
//!   event per access; above them a `device memory` counter track (the
//!   bytes in use at each GPU API) and a process-wide `peak #k` instant
//!   per reported peak;
//! * slice `args` carry call paths, detected patterns, and suggestions.
//!
//! The JSON is written by [`crate::export`]'s writer, so its bytes follow
//! the same rules as the report export.

use crate::analyzer::assemble_trace_view;
use crate::export::Pretty;
use crate::report::Report;
use crate::trace_io::SavedTrace;
use std::fmt::Write as _;

/// Nanoseconds as the trace-event format's microseconds.
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// A metadata event naming process `pid`, or its thread `tid`.
fn metadata(j: &mut Pretty, pid: u64, tid: Option<u64>, name: &str) {
    j.element(|j| {
        j.object("args", |j| j.field("name", name));
        let kind = if tid.is_some() {
            "thread_name"
        } else {
            "process_name"
        };
        j.field("name", kind);
        j.field("ph", "M");
        j.field("pid", &pid);
        if let Some(tid) = tid {
            j.field("tid", &tid);
        }
    });
}

/// Builds the Chrome-trace JSON for a recording and `report`, its
/// analysis.
///
/// Load the result in [Perfetto UI](https://ui.perfetto.dev) via
/// *Open trace file* — the workflow in the paper's artifact appendix.
pub fn trace_json(trace: &SavedTrace, report: &Report) -> String {
    let tv = assemble_trace_view(trace);
    let apis = &trace.apis;
    Pretty::document(|j| {
        j.field("displayTimeUnit", "ns");
        j.object("otherData", |j| {
            j.field("peak_bytes", &report.stats.peak_bytes);
            j.field("platform", &report.platform);
            j.field("tool", "DrGPUM (Rust reproduction)");
        });
        j.array("traceEvents", |j| {
            metadata(j, 1, None, "GPU APIs (topological order)");
            metadata(j, 2, None, "Data objects");

            // --- Pane 1: GPU APIs, one track per stream. -----------------
            let mut streams_seen = std::collections::BTreeSet::new();
            for (idx, api) in apis.iter().enumerate() {
                let tid = u64::from(api.stream.0) + 1;
                if streams_seen.insert(api.stream.0) {
                    metadata(j, 1, Some(tid), &format!("stream {}", api.stream.0));
                }
                // A backtrace, innermost frame first: `  #0 f @ file:line` lines.
                let mut call_path = String::new();
                for (depth, frame) in trace.path(api.path).iter().enumerate() {
                    let _ = writeln!(call_path, "  #{depth} {frame}");
                }
                j.element(|j| {
                    j.object("args", |j| {
                        j.field("call_path", &call_path);
                        j.field("detail", &api.detail.to_string());
                        j.field("topological_ts", &tv.api_ts[idx]);
                    });
                    j.field("cat", api.kind.mnemonic());
                    j.field("dur", &us(api.end_ns.saturating_sub(api.start_ns).max(1)));
                    j.field("name", &api.name());
                    j.field("ph", "X");
                    j.field("pid", &1u64);
                    j.field("tid", &tid);
                    j.field("ts", &us(api.start_ns));
                });
            }

            // --- Pane 2: data objects of the top peaks (plus accesses). --
            let end_of_trace_ns = apis.iter().map(|a| a.end_ns).max().unwrap_or(0);
            for obj in &tv.objects {
                // Like the paper's GUI we focus the object pane on the data
                // objects involved in the top memory peaks (Sec. 4): those
                // live at a peak by the analyzer's rule.
                let free_api = obj.free.as_ref().map(|f| f.idx).or(obj.free_anchor);
                let at_peak = report.peaks.iter().any(|p| {
                    obj.alloc_anchor <= p.api_idx && free_api.is_none_or(|f| p.api_idx < f)
                });
                if !at_peak {
                    continue;
                }
                let tid = obj.id.0 + 1;
                metadata(j, 2, Some(tid), &format!("{} ({} B)", obj.label, obj.size));
                let start_ns = obj
                    .alloc
                    .as_ref()
                    .map(|a| apis[a.idx].start_ns)
                    .unwrap_or(0);
                let end_ns = obj
                    .free
                    .as_ref()
                    .map(|f| apis[f.idx].end_ns)
                    .unwrap_or(end_of_trace_ns)
                    .max(start_ns + 1);
                j.element(|j| {
                    j.object("args", |j| {
                        j.array("inefficiency_patterns", |j| {
                            for f in report.findings.iter().filter(|f| f.object.id == obj.id) {
                                j.element(|j| {
                                    j.field("code", f.kind().code());
                                    j.field("pattern", f.kind().name());
                                    j.field("suggestion", &f.suggestion);
                                    j.field("wasted_bytes", &f.wasted_bytes);
                                });
                            }
                        });
                        j.field("size_bytes", &obj.size);
                    });
                    j.field("cat", "object");
                    j.field("dur", &us(end_ns - start_ns));
                    j.field("name", &format!("lifetime of {}", obj.label));
                    j.field("ph", "X");
                    j.field("pid", &2u64);
                    j.field("tid", &tid);
                    j.field("ts", &us(start_ns));
                });
                for acc in &obj.accesses {
                    let api = &apis[acc.api.idx];
                    let rw = match (acc.read, acc.write) {
                        (true, true) => "read+write",
                        (true, false) => "read",
                        _ => "write",
                    };
                    j.element(|j| {
                        j.object("args", |j| j.field("topological_ts", &acc.api.ts));
                        j.field("cat", "access");
                        j.field("name", &format!("{} {rw}", api.name()));
                        j.field("ph", "i");
                        j.field("pid", &2u64);
                        j.field("s", "t");
                        j.field("tid", &tid);
                        j.field("ts", &us(api.start_ns));
                    });
                }
            }

            // --- The usage curve under the objects: a counter track, and
            // one process-wide instant per peak. --------------------------
            let start_us = |idx: usize| us(apis.get(idx).map_or(0, |a| a.start_ns));
            for sample in &trace.usage {
                j.element(|j| {
                    j.object("args", |j| j.field("bytes", &sample.bytes_in_use));
                    j.field("name", "device memory");
                    j.field("ph", "C");
                    j.field("pid", &2u64);
                    j.field("ts", &start_us(sample.api_idx));
                });
            }
            for (k, peak) in report.peaks.iter().enumerate() {
                j.element(|j| {
                    j.object("args", |j| {
                        j.field("api", &peak.api_name);
                        j.field("bytes", &peak.bytes);
                        j.field("topological_ts", &tv.api_ts.get(peak.api_idx).copied());
                    });
                    j.field("cat", "peak");
                    j.field("name", &format!("peak #{}", k + 1));
                    j.field("ph", "i");
                    j.field("pid", &2u64);
                    j.field("s", "p");
                    j.field("ts", &start_us(peak.api_idx));
                });
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use crate::options::ProfilerOptions;
    use crate::profiler::Profiler;
    use gpu_sim::DeviceContext;
    use serde_json::Value;

    #[test]
    fn trace_json_structure() {
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
        let s1 = ctx.create_stream();
        let a = ctx.malloc(4096, "d_data_in1").unwrap();
        ctx.memset(a, 0, 4096).unwrap();
        ctx.memcpy_h2d_on(a, &[1u8; 4096], s1).unwrap();
        ctx.sync_device();
        ctx.free(a).unwrap();

        let report = profiler.report(&ctx);
        let v: Value = serde_json::from_str(&profiler.perfetto_trace(&report)).unwrap();

        let events = v["traceEvents"].as_array().unwrap();
        assert!(!events.is_empty());
        // Every GPU API appears as a complete ("X") slice under pid 1.
        let api_slices: Vec<&Value> = events
            .iter()
            .filter(|e| e["ph"] == "X" && e["pid"] == 1)
            .collect();
        assert_eq!(
            api_slices.len(),
            profiler.collector().lock().gpu_apis().len()
        );
        // Stream 1's copy runs on its own track.
        assert!(api_slices.iter().any(|e| e["tid"] == 2));
        // The peak object gets a lifetime slice with patterns attached.
        let lifetime = events
            .iter()
            .find(|e| e["pid"] == 2 && e["cat"] == "object")
            .expect("object lifetime slice");
        assert!(lifetime["args"]["size_bytes"] == 4096);
    }
}
