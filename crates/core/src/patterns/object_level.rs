//! Object-level pattern detectors: early allocation, late deallocation,
//! unused allocation, memory leak, temporary idleness, dead write
//! (Sec. 5.1, "Automating pattern detection").
//!
//! Each detector walks a data object's slice of the timestamp-augmented
//! memory access trace from allocation to deallocation and applies the
//! paper's rule verbatim. Redundant allocation has its own one-pass
//! algorithm in [`crate::patterns::redundant`].

use super::{IdleSpan, ObjectAccess, ObjectView, PatternEvidence, PatternFinding, TraceView};
use crate::governor::CancelToken;
use crate::names::GpuApiKind;
use crate::options::Thresholds;

/// Runs all six rule-based object-level detectors over every analyzable
/// object in the trace.
pub fn detect_all(trace: &TraceView, thresholds: &Thresholds) -> Vec<PatternFinding> {
    detect_all_cancellable(trace, thresholds, &CancelToken::new())
        .expect("fresh token is never cancelled")
}

/// Like [`detect_all`], polling `cancel` between objects; returns `None`
/// (dropping partial findings) once cancellation is observed.
pub fn detect_all_cancellable(
    trace: &TraceView,
    thresholds: &Thresholds,
    cancel: &CancelToken,
) -> Option<Vec<PatternFinding>> {
    let mut findings = Vec::new();
    for obj in trace.objects.iter().filter(|o| o.analyzable) {
        if cancel.is_cancelled() {
            return None;
        }
        findings.extend(detect_early_allocation(trace, obj));
        findings.extend(detect_late_deallocation(trace, obj));
        findings.extend(detect_unused_allocation(obj));
        findings.extend(detect_memory_leak(obj));
        findings.extend(detect_temporary_idleness(
            trace,
            obj,
            thresholds.idleness_min_apis,
        ));
        findings.extend(detect_dead_writes(obj));
    }
    Some(findings)
}

/// Early allocation (Def. 3.1): GPU API invocations exist between the
/// allocation and the first API that accesses the object.
pub fn detect_early_allocation(trace: &TraceView, obj: &ObjectView) -> Option<PatternFinding> {
    let first = obj.first_access()?;
    let (intervening, distance) = match &obj.alloc {
        Some(alloc) => (
            trace.apis_strictly_between(alloc.ts, first.api.ts),
            first.api.ts.saturating_sub(alloc.ts),
        ),
        // Pool tensor: count trace positions between the anchor and the
        // first access (single-stream pools; index order == timestamp order).
        None => {
            let n = trace.apis_in_index_range(obj.alloc_anchor, first.api.idx);
            (n, n)
        }
    };
    if intervening == 0 {
        return None;
    }
    Some(PatternFinding {
        object: obj.id,
        evidence: PatternEvidence::EarlyAllocation {
            intervening,
            distance,
            first_access: first.api,
        },
    })
}

/// Late deallocation (Def. 3.2): GPU API invocations exist between the last
/// API that accesses the object and its deallocation.
pub fn detect_late_deallocation(trace: &TraceView, obj: &ObjectView) -> Option<PatternFinding> {
    let last = obj.last_access()?;
    let (intervening, distance) = match (&obj.free, obj.free_anchor) {
        (Some(free), _) => (
            trace.non_dealloc_apis_strictly_between(last.api.ts, free.ts),
            free.ts.saturating_sub(last.api.ts),
        ),
        (None, Some(anchor)) => {
            let n = trace.non_dealloc_apis_in_index_range(last.api.idx + 1, anchor);
            (n, n)
        }
        // Never freed: that is the memory-leak pattern, not late dealloc.
        (None, None) => return None,
    };
    if intervening == 0 {
        return None;
    }
    Some(PatternFinding {
        object: obj.id,
        evidence: PatternEvidence::LateDeallocation {
            intervening,
            distance,
            last_access: last.api,
        },
    })
}

/// Unused allocation (Def. 3.4): no GPU API ever accesses the object.
pub fn detect_unused_allocation(obj: &ObjectView) -> Option<PatternFinding> {
    if !obj.accesses.is_empty() {
        return None;
    }
    Some(PatternFinding {
        object: obj.id,
        evidence: PatternEvidence::UnusedAllocation,
    })
}

/// Memory leak (Def. 3.5): no deallocation by the end of execution.
pub fn detect_memory_leak(obj: &ObjectView) -> Option<PatternFinding> {
    if !obj.leaked() {
        return None;
    }
    Some(PatternFinding {
        object: obj.id,
        evidence: PatternEvidence::MemoryLeak,
    })
}

/// Temporary idleness (Def. 3.6): at least `min_apis` GPU APIs execute
/// between two consecutive accesses of the object.
pub fn detect_temporary_idleness(
    trace: &TraceView,
    obj: &ObjectView,
    min_apis: u64,
) -> Option<PatternFinding> {
    let mut spans = Vec::new();
    for pair in obj.accesses.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let intervening = trace.apis_strictly_between(a.api.ts, b.api.ts);
        if intervening >= min_apis {
            spans.push(IdleSpan {
                from: a.api,
                to: b.api,
                intervening,
            });
        }
    }
    if spans.is_empty() {
        return None;
    }
    Some(PatternFinding {
        object: obj.id,
        evidence: PatternEvidence::TemporaryIdleness { spans },
    })
}

/// Dead write (Def. 3.7): two consecutive accesses are both pure writes via
/// memory copy or memory set — the first write is never consumed.
pub fn detect_dead_writes(obj: &ObjectView) -> Vec<PatternFinding> {
    let mut findings = Vec::new();
    let copy_set_write = |a: &ObjectAccess| {
        matches!(a.api.name.kind(), Some(GpuApiKind::Cpy | GpuApiKind::Set)) && a.write && !a.read
    };
    for pair in obj.accesses.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if copy_set_write(a) && copy_set_write(b) {
            findings.push(PatternFinding {
                object: obj.id,
                evidence: PatternEvidence::DeadWrite {
                    first: a.api,
                    second: b.api,
                },
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::ApiName;
    use crate::object::ObjectId;
    use crate::patterns::{ApiRef, PatternKind};
    use gpu_sim::StreamId;

    /// Builds a trace with `n` GPU APIs at timestamps `0..n`.
    fn trace(n: usize) -> TraceView {
        TraceView::synthetic(n)
    }

    fn api(trace: &TraceView, idx: usize) -> ApiRef {
        trace.api_ref(idx)
    }

    /// An access by API `idx`, renamed to the given kind.
    fn access(
        trace: &TraceView,
        idx: usize,
        read: bool,
        write: bool,
        kind: GpuApiKind,
    ) -> ObjectAccess {
        let name = ApiName::new(kind, StreamId::DEFAULT, idx as u64);
        ObjectAccess {
            api: ApiRef {
                name,
                ..api(trace, idx)
            },
            read,
            write,
        }
    }

    fn object(trace: &TraceView, alloc_idx: usize, free_idx: Option<usize>) -> ObjectView {
        ObjectView {
            id: ObjectId(0),
            label: "obj".into(),
            size: 1024,
            alloc: Some(api(trace, alloc_idx)),
            alloc_anchor: alloc_idx,
            free: free_idx.map(|i| api(trace, i)),
            free_anchor: None,
            accesses: vec![],
            analyzable: true,
        }
    }

    /// Reproduces the paper's Figure 2: object B is allocated at T=2, first
    /// accessed at T=7, last accessed at T=9, freed at T=12 → early
    /// allocation (4 intervening APIs) and late deallocation (2 intervening).
    #[test]
    fn figure2_object_b() {
        let tv = trace(13);
        let mut b = object(&tv, 2, Some(12));
        b.accesses = vec![
            access(&tv, 7, true, false, GpuApiKind::Kerl),
            access(&tv, 9, true, false, GpuApiKind::Kerl),
        ];
        let ea = detect_early_allocation(&tv, &b).expect("EA fires");
        match ea.evidence {
            PatternEvidence::EarlyAllocation {
                intervening,
                distance,
                ..
            } => {
                assert_eq!(intervening, 4, "APIs at T=3,4,5,6");
                assert_eq!(distance, 5, "T=7 - T=2");
            }
            other => panic!("unexpected {other:?}"),
        }
        let ld = detect_late_deallocation(&tv, &b).expect("LD fires");
        match ld.evidence {
            PatternEvidence::LateDeallocation {
                intervening,
                distance,
                ..
            } => {
                assert_eq!(intervening, 2, "APIs at T=10,11");
                assert_eq!(distance, 3, "T=12 - T=9");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Figure 2's object C: never freed and with a long access gap →
    /// memory leak + temporary idleness.
    #[test]
    fn figure2_object_c() {
        let tv = trace(13);
        let mut c = object(&tv, 0, None);
        c.accesses = vec![
            access(&tv, 1, true, true, GpuApiKind::Kerl),
            access(&tv, 8, true, false, GpuApiKind::Kerl),
        ];
        assert_eq!(
            detect_memory_leak(&c).expect("ML").kind(),
            PatternKind::MemoryLeak
        );
        let ti = detect_temporary_idleness(&tv, &c, 2).expect("TI fires");
        match ti.evidence {
            PatternEvidence::TemporaryIdleness { spans } => {
                assert_eq!(spans.len(), 1);
                assert_eq!(spans[0].intervening, 6, "APIs at T=2..=7");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tight_lifetime_has_no_findings() {
        let tv = trace(4);
        let mut o = object(&tv, 0, Some(2));
        o.accesses = vec![access(&tv, 1, true, true, GpuApiKind::Kerl)];
        assert!(detect_early_allocation(&tv, &o).is_none());
        assert!(detect_late_deallocation(&tv, &o).is_none());
        assert!(detect_unused_allocation(&o).is_none());
        assert!(detect_memory_leak(&o).is_none());
        assert!(detect_temporary_idleness(&tv, &o, 2).is_none());
        assert!(detect_dead_writes(&o).is_empty());
    }

    #[test]
    fn unused_allocation_fires_without_accesses() {
        let tv = trace(3);
        let o = object(&tv, 0, Some(2));
        assert_eq!(
            detect_unused_allocation(&o).expect("UA").kind(),
            PatternKind::UnusedAllocation
        );
    }

    #[test]
    fn unused_object_is_not_late_deallocated() {
        // LD requires a last access; an unused object reports UA only.
        let tv = trace(10);
        let o = object(&tv, 0, Some(9));
        assert!(detect_late_deallocation(&tv, &o).is_none());
    }

    #[test]
    fn leaked_object_is_not_late_deallocated() {
        let tv = trace(10);
        let mut o = object(&tv, 0, None);
        o.accesses = vec![access(&tv, 1, true, false, GpuApiKind::Kerl)];
        assert!(detect_late_deallocation(&tv, &o).is_none());
        assert!(detect_memory_leak(&o).is_some());
    }

    /// The Darknet scenario (Sec. 7.2): two host→device copies write
    /// `l.weights_gpu` with no intervening read — a dead write.
    #[test]
    fn darknet_style_dead_write() {
        let tv = trace(5);
        let mut o = object(&tv, 0, Some(4));
        o.accesses = vec![
            access(&tv, 1, false, true, GpuApiKind::Cpy),
            access(&tv, 2, false, true, GpuApiKind::Cpy),
            access(&tv, 3, true, false, GpuApiKind::Kerl),
        ];
        let dw = detect_dead_writes(&o);
        assert_eq!(dw.len(), 1);
        match &dw[0].evidence {
            PatternEvidence::DeadWrite { first, second } => {
                assert_eq!(first.idx, 1);
                assert_eq!(second.idx, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn kernel_write_then_copy_is_not_dead() {
        // A kernel write followed by a copy write is not the pattern: the
        // definition requires both writes to be memory copies or sets.
        let tv = trace(4);
        let mut o = object(&tv, 0, Some(3));
        o.accesses = vec![
            access(&tv, 1, false, true, GpuApiKind::Kerl),
            access(&tv, 2, false, true, GpuApiKind::Cpy),
        ];
        assert!(detect_dead_writes(&o).is_empty());
    }

    #[test]
    fn intervening_read_kills_dead_write() {
        let tv = trace(5);
        let mut o = object(&tv, 0, Some(4));
        o.accesses = vec![
            access(&tv, 1, false, true, GpuApiKind::Cpy),
            access(&tv, 2, true, false, GpuApiKind::Kerl),
            access(&tv, 3, false, true, GpuApiKind::Cpy),
        ];
        assert!(detect_dead_writes(&o).is_empty());
    }

    #[test]
    fn memset_then_memcpy_is_dead_write() {
        // Def. 3.7 covers set→copy and copy→set combinations too.
        let tv = trace(4);
        let mut o = object(&tv, 0, Some(3));
        o.accesses = vec![
            access(&tv, 1, false, true, GpuApiKind::Set),
            access(&tv, 2, false, true, GpuApiKind::Cpy),
        ];
        assert_eq!(detect_dead_writes(&o).len(), 1);
    }

    #[test]
    fn pool_tensor_anchors_use_index_counting() {
        let tv = trace(10);
        let mut o = object(&tv, 0, None);
        o.alloc = None;
        o.alloc_anchor = 2; // allocated just before API 2
        o.free = None;
        o.free_anchor = Some(9); // freed just before API 9
        o.accesses = vec![
            access(&tv, 5, true, false, GpuApiKind::Kerl),
            access(&tv, 6, true, false, GpuApiKind::Kerl),
        ];
        let ea = detect_early_allocation(&tv, &o).expect("EA");
        match ea.evidence {
            PatternEvidence::EarlyAllocation { intervening, .. } => {
                assert_eq!(intervening, 3, "APIs 2,3,4 run before first touch")
            }
            other => panic!("unexpected {other:?}"),
        }
        let ld = detect_late_deallocation(&tv, &o).expect("LD");
        match ld.evidence {
            PatternEvidence::LateDeallocation { intervening, .. } => {
                assert_eq!(intervening, 2, "APIs 7,8 run after last touch")
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            detect_memory_leak(&o).is_none(),
            "pool tensor with a free anchor is not leaked"
        );
    }

    #[test]
    fn detect_all_skips_non_analyzable_objects() {
        let tv0 = trace(3);
        let mut o = object(&tv0, 0, None);
        o.analyzable = false;
        let tv = TraceView {
            objects: vec![o],
            ..tv0
        };
        assert!(detect_all(&tv, &Thresholds::default()).is_empty());
    }

    #[test]
    fn idleness_threshold_is_inclusive() {
        let tv = trace(5);
        let mut o = object(&tv, 0, None);
        o.accesses = vec![
            access(&tv, 1, true, false, GpuApiKind::Kerl),
            access(&tv, 4, true, false, GpuApiKind::Kerl),
        ];
        // Exactly 2 intervening APIs (T=2,3): fires at threshold 2.
        assert!(detect_temporary_idleness(&tv, &o, 2).is_some());
        assert!(detect_temporary_idleness(&tv, &o, 3).is_none());
    }
}
