//! The one-pass redundant-allocation algorithm (Def. 3.3, Fig. 3).
//!
//! For each data object the first and last GPU APIs that access it are
//! extracted from the memory access trace. The resulting `First`/`Last`
//! events are sorted by timestamp (`Last` after `First` on ties) and
//! traversed from the tail to the head while tracking per-object status:
//!
//! * `Initial` — not visited yet;
//! * `InUse` — its `Last` event has been visited, but not its `First`;
//! * `Done` — both visited;
//! * `Reused` — selected as a reuse source (no longer reusable by others,
//!   but may itself still reuse another object).
//!
//! When an object turns `Done`, the nearest event to its left whose object
//! is still `Initial` and of compatible size identifies the reuse partner:
//! that object's lifetime ended before this object's began.

use super::{ObjectView, PatternEvidence, PatternFinding, TraceView};
use crate::object::ObjectId;

/// Returns `true` if two object sizes are within `pct` percent of each
/// other, measured against the *reused* object's size (Def. 3.3's "does not
/// exceed X% in size" with the paper's default X = 10).
pub fn sizes_compatible(candidate: u64, reused: u64, pct: f64) -> bool {
    if reused == 0 {
        return candidate == 0;
    }
    let diff = candidate.abs_diff(reused) as f64;
    diff <= reused as f64 * (pct / 100.0)
}

/// Visit progression during the tail→head traversal. The paper's four
/// statuses decompose into this progression plus a `reused` flag, because a
/// `Reused` object "can still reuse others" — being selected as a reuse
/// source must not stop the object's own `Done` transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Progress {
    /// Paper's `Initial`: no event visited yet.
    NotVisited,
    /// Paper's `In Use`: the last-access event has been visited.
    LastSeen,
    /// Paper's `Done`: both events visited.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    First,
    Last,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    ts: u64,
    kind: EventKind,
    obj: usize, // index into `candidates`
}

/// Detects redundant allocations across the whole trace with the one-pass
/// algorithm of Fig. 3. `size_pct` is the size-compatibility window
/// (paper default 10 %).
pub fn detect_redundant_allocations(trace: &TraceView, size_pct: f64) -> Vec<PatternFinding> {
    detect_redundant_allocations_cancellable(trace, size_pct, &crate::governor::CancelToken::new())
        .expect("fresh token is never cancelled")
}

/// Like [`detect_redundant_allocations`], polling `cancel` during the
/// tail→head traversal; returns `None` (dropping partial findings) once
/// cancellation is observed.
pub fn detect_redundant_allocations_cancellable(
    trace: &TraceView,
    size_pct: f64,
    cancel: &crate::governor::CancelToken,
) -> Option<Vec<PatternFinding>> {
    // ① Extract first/last accessing APIs per object. Objects never
    // accessed cannot participate (they are *unused allocations* instead).
    let candidates: Vec<&ObjectView> = trace
        .objects
        .iter()
        .filter(|o| o.analyzable && !o.accesses.is_empty())
        .collect();
    if candidates.len() < 2 {
        return Some(Vec::new());
    }

    // ② Build and sort the event list: by timestamp, with `Last` after
    // `First` on equal timestamps (Fig. 3 step ②), then by object index for
    // determinism.
    let mut events = Vec::with_capacity(candidates.len() * 2);
    for (i, obj) in candidates.iter().enumerate() {
        // `candidates` filters out access-free objects, but stay defensive:
        // a missing endpoint just drops the object from pairing.
        let (Some(first), Some(last)) = (obj.first_access(), obj.last_access()) else {
            continue;
        };
        let (first, last) = (first.api.ts, last.api.ts);
        events.push(Event {
            ts: first,
            kind: EventKind::First,
            obj: i,
        });
        events.push(Event {
            ts: last,
            kind: EventKind::Last,
            obj: i,
        });
    }
    events.sort_by_key(|e| (e.ts, matches!(e.kind, EventKind::Last), e.obj));

    // ③④ Traverse tail → head, updating statuses and pairing on `Done`.
    let mut progress = vec![Progress::NotVisited; candidates.len()];
    let mut reused = vec![false; candidates.len()];
    let mut findings = Vec::new();
    for pos in (0..events.len()).rev() {
        if cancel.is_cancelled() {
            return None;
        }
        let ev = events[pos];
        let st = &mut progress[ev.obj];
        match ev.kind {
            EventKind::Last => {
                if *st == Progress::NotVisited {
                    *st = Progress::LastSeen;
                }
            }
            EventKind::First => {
                if *st == Progress::LastSeen {
                    *st = Progress::Done;
                    // Select the closest event to the left belonging to an
                    // object that is still Initial (not visited, not yet
                    // reused) and size-compatible.
                    let me = ev.obj;
                    let my_size = candidates[me].size;
                    let partner = events[..pos].iter().rev().find_map(|left| {
                        if left.obj != me
                            && progress[left.obj] == Progress::NotVisited
                            && !reused[left.obj]
                            && sizes_compatible(my_size, candidates[left.obj].size, size_pct)
                        {
                            Some(left.obj)
                        } else {
                            None
                        }
                    });
                    if let Some(p) = partner {
                        reused[p] = true;
                        let reused = candidates[p];
                        let size_diff_pct = if reused.size == 0 {
                            0.0
                        } else {
                            (my_size.abs_diff(reused.size) as f64 / reused.size as f64) * 100.0
                        };
                        findings.push(PatternFinding {
                            object: candidates[me].id,
                            evidence: PatternEvidence::RedundantAllocation {
                                reuse_of: reused.id,
                                reuse_label: reused.label.to_string(),
                                size_diff_pct,
                            },
                        });
                    }
                }
            }
        }
    }
    findings.sort_by_key(|f| f.object);
    Some(findings)
}

/// Convenience: the set of (consumer, reuse source) pairs.
pub fn reuse_pairs(findings: &[PatternFinding]) -> Vec<(ObjectId, ObjectId)> {
    findings
        .iter()
        .filter_map(|f| match &f.evidence {
            PatternEvidence::RedundantAllocation { reuse_of, .. } => Some((f.object, *reuse_of)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::{ApiRef, ObjectAccess};

    fn mk_trace(n: usize) -> TraceView {
        TraceView::synthetic(n)
    }

    fn obj(trace: &mut TraceView, id: u64, size: u64, first: usize, last: usize) {
        let mk = |idx: usize| ObjectAccess {
            api: ApiRef {
                idx,
                ts: idx as u64,
                name: trace.api_names[idx],
            },
            read: true,
            write: true,
        };
        let accesses = if first == last {
            vec![mk(first)]
        } else {
            vec![mk(first), mk(last)]
        };
        trace.objects.push(ObjectView {
            id: ObjectId(id),
            label: format!("o{id}").into(),
            size,
            alloc: None,
            alloc_anchor: 0,
            free: None,
            free_anchor: None,
            accesses,
            analyzable: true,
        });
    }

    #[test]
    fn basic_sequential_reuse() {
        // o0 lives [1,2]; o1 lives [4,5] — o1 can reuse o0.
        let mut tv = mk_trace(6);
        obj(&mut tv, 0, 1000, 1, 2);
        obj(&mut tv, 1, 1000, 4, 5);
        let f = detect_redundant_allocations(&tv, 10.0);
        assert_eq!(reuse_pairs(&f), vec![(ObjectId(1), ObjectId(0))]);
    }

    #[test]
    fn overlapping_lifetimes_do_not_pair() {
        let mut tv = mk_trace(6);
        obj(&mut tv, 0, 1000, 1, 4);
        obj(&mut tv, 1, 1000, 3, 5);
        assert!(detect_redundant_allocations(&tv, 10.0).is_empty());
    }

    #[test]
    fn size_window_enforced() {
        let mut tv = mk_trace(6);
        obj(&mut tv, 0, 1000, 1, 2);
        obj(&mut tv, 1, 2000, 4, 5); // 100% larger: incompatible at 10%
        assert!(detect_redundant_allocations(&tv, 10.0).is_empty());
        // …but compatible with a generous window.
        assert_eq!(detect_redundant_allocations(&tv, 100.0).len(), 1);
    }

    #[test]
    fn size_compatibility_is_symmetric_enough() {
        assert!(sizes_compatible(1000, 1000, 10.0));
        assert!(sizes_compatible(1050, 1000, 10.0));
        assert!(sizes_compatible(950, 1000, 10.0));
        assert!(!sizes_compatible(1200, 1000, 10.0));
        assert!(sizes_compatible(0, 0, 10.0));
        assert!(!sizes_compatible(1, 0, 10.0));
    }

    #[test]
    fn reused_object_cannot_be_reused_twice() {
        // o0 dies early; o1 and o2 both start after. Only one may reuse o0.
        let mut tv = mk_trace(10);
        obj(&mut tv, 0, 1000, 1, 2);
        obj(&mut tv, 1, 1000, 4, 5);
        obj(&mut tv, 2, 1000, 7, 8);
        let f = detect_redundant_allocations(&tv, 10.0);
        let pairs = reuse_pairs(&f);
        // o1 reuses o0; o2 then reuses o1 (whose lifetime ended at 5).
        assert!(pairs.contains(&(ObjectId(1), ObjectId(0))));
        assert!(pairs.contains(&(ObjectId(2), ObjectId(1))));
        assert_eq!(pairs.len(), 2);
    }

    /// The Figure 3 scenario: four objects; when O4's first API is visited,
    /// O4 turns Done and reuses O1 (the closest Initial object to the left).
    #[test]
    fn figure3_example() {
        let mut tv = mk_trace(12);
        // O1: first 1, last 5 (its last coincides with O3's first at ts 5;
        // Last sorts after First).
        obj(&mut tv, 1, 1000, 1, 5);
        // O2: first 2, last 3.
        obj(&mut tv, 2, 1000, 2, 3);
        // O3: first 5, last 9.
        obj(&mut tv, 3, 1000, 5, 9);
        // O4: first 6, last 8.
        obj(&mut tv, 4, 1000, 6, 8);
        let f = detect_redundant_allocations(&tv, 10.0);
        let pairs = reuse_pairs(&f);
        assert!(
            pairs.contains(&(ObjectId(4), ObjectId(1))),
            "O4 reuses O1: {pairs:?}"
        );
        // O3 starts exactly when O1 ends (ts 5) — with Last-after-First
        // ordering O1 is NOT dead before O3's first API, so O3 must not
        // reuse O1. O3 may reuse O2 (dead at ts 3).
        assert!(pairs.contains(&(ObjectId(3), ObjectId(2))), "{pairs:?}");
        assert!(!pairs.contains(&(ObjectId(3), ObjectId(1))));
    }

    #[test]
    fn single_object_no_findings() {
        let mut tv = mk_trace(3);
        obj(&mut tv, 0, 100, 0, 1);
        assert!(detect_redundant_allocations(&tv, 10.0).is_empty());
    }

    #[test]
    fn unaccessed_objects_are_excluded() {
        let mut tv = mk_trace(6);
        obj(&mut tv, 0, 1000, 1, 2);
        tv.objects.push(ObjectView {
            id: ObjectId(9),
            label: "never_touched".into(),
            size: 1000,
            alloc: None,
            alloc_anchor: 0,
            free: None,
            free_anchor: None,
            accesses: vec![],
            analyzable: true,
        });
        assert!(detect_redundant_allocations(&tv, 10.0).is_empty());
    }
}
