//! The offline analyzer (Sec. 4): builds the timestamp-augmented trace from
//! a recording, runs every pattern detector, resolves call paths to
//! source locations (the DWARF step), pinpoints memory peaks, and assembles
//! the final [`Report`].
//!
//! Its one input is a [`SavedTrace`]: the live report analyzes a clone of
//! the collector's recording ([`crate::trace_io::save`]) through the same
//! entry, `SavedTrace::analyze`, that reanalyzes a trace loaded back.

use crate::collector::GpuApi;
use crate::depgraph::DependencyGraph;
use crate::governor::CancelToken;
use crate::names::{ApiDetail, ApiName, GpuApiKind};
use crate::object::{IdMap, IdSet, ObjectId, ObjectSource};
use crate::options::Thresholds;
use crate::patterns::{
    intra, object_level, redundant, ApiRef, ObjectAccess, ObjectView, PatternFinding, TraceView,
};
use crate::peaks;
use crate::report::{
    suggestion_for, wasted_bytes_estimate, DegradationRecord, DetectorOutcome, DetectorStatus,
    Finding, ObjectSummary, PeakSummary, Report, ReportStats,
};
use crate::trace_io::{SavedObject, SavedTrace};
use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builds the [`TraceView`] — the timestamp-augmented object-level memory
/// access trace of Fig. 2 — from a recording's APIs, raw accesses and
/// object rows.
pub(crate) fn assemble_trace_view(t: &SavedTrace) -> TraceView {
    let apis = &t.apis;
    let api_ts = DependencyGraph::build(apis.iter().map(|a| &a.vertex)).into_timestamps();
    let api_names: Vec<ApiName> = apis.iter().map(GpuApi::name).collect();
    let api_kernels = apis
        .iter()
        .map(|a| match &a.detail {
            // A launch's detail is its kernel name, shared with the launch
            // event or with every loaded row of the same kernel.
            _ if a.kind != GpuApiKind::Kerl => None,
            ApiDetail::Kernel(name) => Some(name.clone()),
            detail => detail.text().map(Arc::from),
        })
        .collect();
    let api_is_dealloc = apis.iter().map(|a| a.kind == GpuApiKind::Free).collect();

    // Group accesses per object. An access with a dangling API index (which
    // a faulting run can produce) is dropped rather than panicking.
    let mut per_object: IdMap<ObjectId, Vec<ObjectAccess>> = IdMap::default();
    for acc in &t.accesses {
        let (Some(&ts), Some(&name)) = (api_ts.get(acc.api_idx), api_names.get(acc.api_idx)) else {
            continue;
        };
        per_object
            .entry(acc.object)
            .or_default()
            .push(ObjectAccess {
                api: ApiRef {
                    idx: acc.api_idx,
                    ts,
                    name,
                },
                read: acc.read,
                write: acc.write,
                via: acc.via,
            });
    }

    let objects: Vec<ObjectView> = t
        .objects
        .iter()
        .map(|obj| {
            let mut accesses = per_object.remove(&obj.id).unwrap_or_default();
            accesses.sort_by_key(|a| (a.api.ts, a.api.idx));
            let mk_ref = |idx: usize| ApiRef {
                idx,
                ts: api_ts.get(idx).copied().unwrap_or(0),
                name: api_names.get(idx).copied().unwrap_or(ApiName::missing(idx)),
            };
            ObjectView {
                id: obj.id,
                label: obj.label.clone(),
                size: obj.size,
                alloc: obj.alloc_is_api.then(|| mk_ref(obj.alloc_api)),
                alloc_anchor: obj.alloc_api,
                free: obj.free_api.filter(|_| obj.free_is_api).map(mk_ref),
                free_anchor: obj.free_api.filter(|_| !obj.free_is_api),
                accesses,
                analyzable: obj.source.is_analyzable(),
            }
        })
        .collect();

    TraceView {
        api_ts,
        api_names,
        api_kernels,
        api_is_dealloc,
        objects,
        between: Default::default(),
    }
}

/// Recovers a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// One detector family: its report name and its body, which polls the
/// token it is given and returns `None` once that token is cancelled.
type Family<'a> = (
    &'static str,
    &'a dyn Fn(&CancelToken) -> Option<Vec<PatternFinding>>,
);

/// Runs the detector families one after another on the calling thread,
/// each under panic isolation and with its own deadline token whose clock
/// starts when that family starts. Findings and statuses come back in the
/// order of `families`.
fn run_families(
    families: &[Family<'_>],
    deadline_ms: Option<u64>,
) -> (Vec<PatternFinding>, Vec<DetectorStatus>) {
    let mut raw = Vec::new();
    let mut statuses = Vec::with_capacity(families.len());
    for &(name, detect) in families {
        let cancel = match deadline_ms {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            serve_stall(name, &cancel)?;
            detect(&cancel)
        }));
        let outcome = match result {
            Ok(Some(found)) => {
                let findings = found.len();
                raw.extend(found);
                DetectorOutcome::Ok { findings }
            }
            Ok(None) => DetectorOutcome::TimedOut {
                deadline_ms: deadline_ms.unwrap_or(0),
            },
            Err(payload) => DetectorOutcome::Failed {
                message: panic_message(payload),
            },
        };
        statuses.push(DetectorStatus {
            name: name.to_owned(),
            outcome,
        });
    }
    (raw, statuses)
}

/// Fault-injection hook for the watchdog tests: when
/// `DRGPUM_FAULT_STALL_DETECTOR` is set to `<name>:<millis>`, the named
/// detector family sleeps that long (polling its cancel token) before
/// doing any real work — a deterministic stand-in for a wedged detector.
/// Returns `None` (the cancelled outcome) if the token is cancelled before
/// the stall elapses.
fn serve_stall(name: &str, cancel: &CancelToken) -> Option<()> {
    let spec = std::env::var("DRGPUM_FAULT_STALL_DETECTOR").unwrap_or_default();
    let millis = match spec.split_once(':') {
        Some((who, ms)) if who == name => ms.trim().parse().unwrap_or(0),
        _ => return Some(()),
    };
    let until = Instant::now() + Duration::from_millis(millis);
    while Instant::now() < until {
        if cancel.is_cancelled() {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Some(())
}

/// Runs all detectors over a recording and its trace view and assembles
/// the final report. Its one caller is the analysis entry,
/// `SavedTrace::analyze`.
///
/// Each detector family runs under panic isolation: one crashing detector
/// loses only its own findings and is marked `Failed` in the report's
/// detector statuses. `degradations` carries downgrade records accumulated
/// upstream (collector fallbacks, trace salvage losses).
///
/// When `detector_deadline_ms` is set, each family gets that long from its
/// own start; a family still running at its deadline observes its
/// [`CancelToken`] cancelled and is recorded as
/// [`DetectorOutcome::TimedOut`]. Families that finished in time are
/// unaffected — their findings land in the report exactly as without a
/// deadline.
pub(crate) fn assemble_report(
    trace: &TraceView,
    t: &SavedTrace,
    thresholds: &Thresholds,
    degradations: Vec<DegradationRecord>,
    detector_deadline_ms: Option<u64>,
) -> Report {
    let (raw, detectors) = run_families(
        &[
            ("object_level", &|c| {
                object_level::detect_all_cancellable(trace, thresholds, c)
            }),
            ("redundant", &|c| {
                redundant::detect_redundant_allocations_cancellable(
                    trace,
                    thresholds.redundant_size_pct,
                    c,
                )
            }),
            ("intra", &|c| {
                intra::detect_all_cancellable(&t.intra, trace, thresholds, c)
            }),
            ("unified", &|c| {
                crate::patterns::unified::detect_all_cancellable(&t.unified, thresholds, c)
            }),
        ],
        detector_deadline_ms,
    );

    // Peak analysis over the object rows: the objects live at each peak,
    // largest first.
    let objects = &t.objects;
    let by_id: IdMap<ObjectId, &SavedObject> = objects.iter().map(|o| (o.id, o)).collect();
    let mut peak_objects: IdSet<ObjectId> = IdSet::default();
    let peaks: Vec<PeakSummary> = peaks::find_peaks(&t.usage, thresholds.top_peaks)
        .into_iter()
        .map(|(api_idx, bytes)| {
            let mut live: Vec<&SavedObject> = objects
                .iter()
                .filter(|o| o.alloc_api <= api_idx && o.free_api.is_none_or(|f| f > api_idx))
                .collect();
            live.sort_by(|a, b| b.size.cmp(&a.size).then(a.id.cmp(&b.id)));
            peak_objects.extend(live.iter().map(|o| o.id));
            PeakSummary {
                api_name: trace
                    .api_names
                    .get(api_idx)
                    .copied()
                    .unwrap_or(ApiName::missing(api_idx)),
                api_idx,
                bytes,
                objects: live.iter().map(|o| (o.label.to_string(), o.size)).collect(),
            }
        })
        .collect();

    // Assemble findings with suggestions.
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter_map(|pf| {
            let obj = by_id.get(&pf.object)?;
            let summary = ObjectSummary {
                id: obj.id,
                label: obj.label.to_string(),
                size: obj.size,
                source: obj.source,
                alloc_path: t.path(obj.alloc_path),
            };
            let suggestion = suggestion_for(&pf, &obj.label);
            let wasted = wasted_bytes_estimate(&pf, summary.size);
            Some(Finding {
                object: summary,
                suggestion,
                wasted_bytes: wasted,
                at_peak: peak_objects.contains(&pf.object),
                evidence: pf.evidence,
            })
        })
        .collect();
    findings.sort_by_cached_key(|f| (Reverse(f.priority()), f.object.id));

    // Statistics.
    let (leaked_objects, leaked_bytes) = objects
        .iter()
        .filter(|o| o.free_api.is_none() && o.source != ObjectSource::PoolSlab)
        .fold((0, 0), |(n, bytes), o| (n + 1, bytes + o.size));
    let stats = ReportStats {
        gpu_apis: trace.api_ts.len() as u64,
        objects: objects.len() as u64,
        peak_bytes: t.usage.iter().map(|s| s.bytes_in_use).max().unwrap_or(0),
        leaked_objects,
        leaked_bytes,
    };

    Report {
        platform: t.platform.clone(),
        findings,
        peaks,
        stats,
        detectors,
        degradations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::options::ProfilerOptions;
    use crate::patterns::PatternKind;
    use crate::profiler::Profiler;
    use crate::trace_io;
    use gpu_sim::sanitizer::SanitizerHooks;
    use gpu_sim::{DeviceContext, LaunchConfig, SourceLoc, StreamId};

    fn run_and_analyze(opts: ProfilerOptions, body: impl FnOnce(&mut DeviceContext)) -> Report {
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(&mut ctx, opts);
        body(&mut ctx);
        profiler.report(&ctx)
    }

    #[test]
    fn end_to_end_early_allocation_and_leak() {
        let report = run_and_analyze(ProfilerOptions::object_level(), |ctx| {
            ctx.with_frame(SourceLoc::new("main", "app.rs", 1), |ctx| {
                let early = ctx.malloc(4096, "early").unwrap(); // EA victim
                let other = ctx.malloc(4096, "other").unwrap();
                ctx.memset(other, 0, 4096).unwrap(); // intervening API
                ctx.memset(early, 0, 4096).unwrap(); // first touch of early
                ctx.free(other).unwrap();
                // `early` is never freed → memory leak.
            });
        });
        assert!(report.has_pattern(PatternKind::EarlyAllocation));
        assert!(report.has_pattern(PatternKind::MemoryLeak));
        let ea = report.findings_for("early");
        assert!(ea.iter().any(|f| f.kind() == PatternKind::EarlyAllocation));
        assert_eq!(report.stats.leaked_objects, 1);
        assert_eq!(report.stats.leaked_bytes, 4096);
        // Call paths resolved through the frame table.
        let leak = report
            .findings_for("early")
            .into_iter()
            .find(|f| f.kind() == PatternKind::MemoryLeak)
            .unwrap();
        assert!(leak.object.alloc_path[0].contains("main"));
    }

    #[test]
    fn end_to_end_intra_object_overallocation() {
        let report = run_and_analyze(ProfilerOptions::intra_object(), |ctx| {
            let big = ctx.malloc(100_000, "big").unwrap();
            ctx.launch(
                "touch_little",
                LaunchConfig::cover(16, 16).unwrap(),
                StreamId::DEFAULT,
                |t| {
                    let i = t.global_x();
                    if i < 16 {
                        t.store_f32(big + i * 4, 1.0);
                    }
                },
            )
            .unwrap();
            ctx.free(big).unwrap();
        });
        let oa = report
            .findings_for("big")
            .into_iter()
            .find(|f| f.kind() == PatternKind::Overallocation)
            .expect("`big` is overallocated");
        assert!(matches!(
            oa.evidence,
            crate::patterns::PatternEvidence::Overallocation { accessed_pct, .. } if accessed_pct < 1.0
        ));
    }

    #[test]
    fn peak_objects_are_flagged() {
        let report = run_and_analyze(ProfilerOptions::object_level(), |ctx| {
            let a = ctx.malloc(10_000, "a").unwrap();
            let b = ctx.malloc(20_000, "b").unwrap();
            ctx.memset(a, 0, 10_000).unwrap();
            ctx.memset(b, 0, 20_000).unwrap();
            ctx.free(a).unwrap();
            ctx.free(b).unwrap();
        });
        assert!(!report.peaks.is_empty());
        assert_eq!(report.peaks[0].bytes, 30_000);
        assert_eq!(report.stats.peak_bytes, 30_000);
        let labels: Vec<&str> = report.peaks[0]
            .objects
            .iter()
            .map(|(l, _)| l.as_str())
            .collect();
        assert_eq!(labels, ["b", "a"], "largest first");
    }

    #[test]
    fn trace_view_timestamps_are_invocation_order_single_stream() {
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
        let a = ctx.malloc(64, "a").unwrap();
        ctx.memset(a, 0, 64).unwrap();
        ctx.free(a).unwrap();
        let col = profiler.collector();
        let tv = assemble_trace_view(&trace_io::save(
            &col.lock(),
            ctx.call_stack().table(),
            "rtx3090",
        ));
        assert_eq!(tv.api_ts, vec![0, 1, 2]);
        assert_eq!(tv.objects.len(), 1);
        assert_eq!(tv.objects[0].accesses.len(), 1);
    }

    #[test]
    fn a_panicking_and_a_stalled_family_leave_the_others_ok() {
        let finding = |id| PatternFinding {
            object: ObjectId(id),
            evidence: crate::patterns::PatternEvidence::UnusedAllocation,
        };
        // The last family polls its token after the stalled one's deadline
        // has passed: it must see a clock of its own.
        let ok = |c: &CancelToken| (!c.is_cancelled()).then(|| vec![finding(1)]);
        let panics = |_: &CancelToken| -> Option<Vec<PatternFinding>> { panic!("detector bug") };
        let stalls = |c: &CancelToken| {
            while !c.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            None
        };
        let (raw, statuses) = run_families(
            &[("a", &ok), ("b", &panics), ("c", &stalls), ("d", &ok)],
            Some(30),
        );
        let names: Vec<&str> = statuses.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c", "d"]);
        assert_eq!(statuses[0].outcome, DetectorOutcome::Ok { findings: 1 });
        assert!(
            matches!(&statuses[1].outcome, DetectorOutcome::Failed { message } if message == "detector bug")
        );
        assert_eq!(
            statuses[2].outcome,
            DetectorOutcome::TimedOut { deadline_ms: 30 }
        );
        assert_eq!(statuses[3].outcome, DetectorOutcome::Ok { findings: 1 });
        assert_eq!(raw.len(), 2);
    }

    /// Verify the hooks trait is object-safe the way the profiler uses it.
    #[test]
    fn collector_is_sanitizer_hooks() {
        fn takes_hooks<T: SanitizerHooks>(_t: &T) {}
        let c = Collector::new(ProfilerOptions::object_level(), 1 << 30);
        takes_hooks(&c);
    }
}
