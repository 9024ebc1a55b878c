//! The offline analyzer (Sec. 4): builds the timestamp-augmented trace from
//! collected data, runs every pattern detector, resolves call paths to
//! source locations (the DWARF step), pinpoints memory peaks, and assembles
//! the final [`Report`].

use crate::collector::{Collector, GpuApi, RawAccess};
use crate::depgraph::DependencyGraph;
use crate::governor::CancelToken;
use crate::names::{ApiDetail, ApiName, GpuApiKind, PathText};
use crate::object::{IdMap, IdSet, ObjectId, ObjectSource};
use crate::patterns::{
    intra, object_level, redundant, ApiRef, ObjectAccess, ObjectView, PatternFinding, TraceView,
};
use crate::peaks;
use crate::report::{
    suggestion_for, wasted_bytes_estimate, DegradationRecord, DetectorOutcome, DetectorStatus,
    Finding, ObjectSummary, PeakSummary, Report, ReportStats,
};
use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builds the [`TraceView`] — the timestamp-augmented object-level memory
/// access trace of Fig. 2 — from the collector's raw data.
pub fn build_trace_view(collector: &Collector) -> TraceView {
    assemble_trace_view(
        collector.gpu_apis(),
        collector.accesses(),
        collector.registry().iter().map(|o| ObjectFacts {
            id: o.id,
            label: &o.label,
            size: o.size(),
            analyzable: o.source.is_analyzable(),
            alloc_api: o.alloc_api,
            alloc_is_api: o.alloc_is_api,
            free_api: o.free_api,
            free_is_api: o.free_is_api,
        }),
    )
}

/// What the trace view needs of one data object, from the live registry
/// or from a saved trace.
pub(crate) struct ObjectFacts<'a> {
    pub id: ObjectId,
    pub label: &'a Arc<str>,
    pub size: u64,
    pub analyzable: bool,
    pub alloc_api: usize,
    pub alloc_is_api: bool,
    pub free_api: Option<usize>,
    pub free_is_api: bool,
}

/// Builds the [`TraceView`] from the APIs, the raw accesses and the
/// objects — the step the live analysis ([`build_trace_view`]) and trace
/// reanalysis ([`crate::trace_io`]) share.
pub(crate) fn assemble_trace_view<'a>(
    apis: &[GpuApi],
    accesses: &[RawAccess],
    objects: impl Iterator<Item = ObjectFacts<'a>>,
) -> TraceView {
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
    for acc in accesses {
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

    let objects: Vec<ObjectView> = objects
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
                analyzable: obj.analyzable,
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

/// Everything the assembly stage needs to know about one data object,
/// with call paths already resolved to source strings. Both the live path
/// ([`analyze`]) and the offline replay path ([`crate::trace_io`]) produce
/// this form.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectMeta {
    /// Stable id.
    pub id: crate::object::ObjectId,
    /// Program label, shared with the registry object or the saved row.
    pub label: Arc<str>,
    /// Size in bytes.
    pub size: u64,
    /// Provenance.
    pub source: ObjectSource,
    /// Resolved allocation call path, innermost frame first, shared with
    /// the session's path table.
    pub alloc_path: PathText,
    /// Trace position after which the object existed.
    pub alloc_api: usize,
    /// Trace position of the deallocation, `None` if leaked.
    pub free_api: Option<usize>,
}

impl ObjectMeta {
    /// Returns `true` if the object was never deallocated.
    pub fn leaked(&self) -> bool {
        self.free_api.is_none()
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

/// Runs all detectors over prepared inputs and assembles the final report.
///
/// Shared by the online path (profiling a live context) and the offline
/// path (re-analyzing a saved trace, possibly with different thresholds).
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
#[allow(clippy::too_many_arguments)] // the two call sites pass through prepared inputs 1:1
pub fn assemble_report(
    trace: &TraceView,
    intra: &[crate::patterns::intra::IntraObjectData],
    usage: &[crate::peaks::UsageSample],
    objects: &[ObjectMeta],
    unified: &[crate::patterns::unified::UnifiedPageStats],
    thresholds: &crate::options::Thresholds,
    platform: &str,
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
                intra::detect_all_cancellable(intra, trace, thresholds, c)
            }),
            ("unified", &|c| {
                crate::patterns::unified::detect_all_cancellable(unified, thresholds, c)
            }),
        ],
        detector_deadline_ms,
    );

    // Peak analysis over the object metadata.
    let by_id: IdMap<ObjectId, &ObjectMeta> = objects.iter().map(|o| (o.id, o)).collect();
    let peak_points = peaks::find_peaks(usage, thresholds.top_peaks);
    let peak_list: Vec<(usize, u64, Vec<&ObjectMeta>)> = peak_points
        .into_iter()
        .map(|(api_idx, bytes)| {
            let mut live: Vec<&ObjectMeta> = objects
                .iter()
                .filter(|o| {
                    o.alloc_api <= api_idx && o.free_api.map(|f| f > api_idx).unwrap_or(true)
                })
                .collect();
            live.sort_by(|a, b| b.size.cmp(&a.size).then(a.id.cmp(&b.id)));
            (api_idx, bytes, live)
        })
        .collect();
    let peak_objects: IdSet<ObjectId> = peak_list
        .iter()
        .flat_map(|(_, _, live)| live.iter().map(|o| o.id))
        .collect();
    let peaks: Vec<PeakSummary> = peak_list
        .iter()
        .map(|(api_idx, bytes, live)| PeakSummary {
            api_name: trace
                .api_names
                .get(*api_idx)
                .copied()
                .unwrap_or(ApiName::missing(*api_idx)),
            api_idx: *api_idx,
            bytes: *bytes,
            objects: live.iter().map(|o| (o.label.to_string(), o.size)).collect(),
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
                alloc_path: obj.alloc_path.clone(),
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
    let leaked: Vec<&ObjectMeta> = objects
        .iter()
        .filter(|o| o.leaked() && o.source != ObjectSource::PoolSlab)
        .collect();
    let stats = ReportStats {
        gpu_apis: trace.api_ts.len() as u64,
        objects: objects.len() as u64,
        peak_bytes: usage.iter().map(|s| s.bytes_in_use).max().unwrap_or(0),
        leaked_objects: leaked.len() as u64,
        leaked_bytes: leaked.iter().map(|o| o.size).sum(),
    };

    Report {
        platform: platform.to_owned(),
        findings,
        peaks,
        stats,
        detectors,
        degradations,
    }
}

/// Extracts the [`ObjectMeta`] list from a collector, with call paths
/// from its path table.
pub fn object_metas(collector: &Collector) -> Vec<ObjectMeta> {
    collector
        .registry()
        .iter()
        .map(|o| ObjectMeta {
            id: o.id,
            label: o.label.clone(),
            size: o.size(),
            source: o.source,
            alloc_path: collector.paths().text(o.alloc_path),
            alloc_api: o.alloc_api,
            free_api: o.free_api,
        })
        .collect()
}

/// Runs the complete offline analysis and assembles the report.
///
/// Call paths come rendered from the collector's path table, which mirrors
/// the profiled context's frame table (the stand-in for DWARF debugging
/// sections); `platform` names the machine for the report header.
pub fn analyze(collector: &Collector, platform: &str) -> Report {
    let trace = build_trace_view(collector);
    let intra_data: Vec<_> = collector.intra_data().into_iter().cloned().collect();
    let objects = object_metas(collector);
    assemble_report(
        &trace,
        &intra_data,
        collector.usage_curve(),
        &objects,
        &collector.unified_page_stats(),
        &collector.options().thresholds,
        platform,
        collector.degradations().to_vec(),
        collector.budget().detector_deadline_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ProfilerOptions;
    use crate::patterns::PatternKind;
    use gpu_sim::sanitizer::SanitizerHooks;
    use gpu_sim::{DeviceContext, LaunchConfig, SourceLoc, StreamId};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn run_and_analyze(opts: ProfilerOptions, body: impl FnOnce(&mut DeviceContext)) -> Report {
        let mut ctx = DeviceContext::new_default();
        let c = Arc::new(Mutex::new(Collector::new(
            opts,
            ctx.config().device_memory_bytes,
        )));
        ctx.sanitizer_mut().register(c.clone());
        body(&mut ctx);
        let col = c.lock();
        analyze(&col, &ctx.config().name)
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
        assert!(report.has_pattern(PatternKind::Overallocation));
        let f = &report.findings_for("big")[0];
        match &f.evidence {
            crate::patterns::PatternEvidence::Overallocation { accessed_pct, .. } => {
                assert!(*accessed_pct < 1.0);
            }
            _ => {
                // Overallocation may not be the first finding; search it.
                assert!(report
                    .findings_for("big")
                    .iter()
                    .any(|f| f.kind() == PatternKind::Overallocation));
            }
        }
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
        let c = Arc::new(Mutex::new(Collector::new(
            ProfilerOptions::object_level(),
            ctx.config().device_memory_bytes,
        )));
        ctx.sanitizer_mut().register(c.clone());
        let a = ctx.malloc(64, "a").unwrap();
        ctx.memset(a, 0, 64).unwrap();
        ctx.free(a).unwrap();
        let col = c.lock();
        let tv = build_trace_view(&col);
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
