//! The savings advisor: predicts the peak-memory reduction achievable by
//! applying a report's suggestions.
//!
//! The paper's users "make optimization choices" from DrGPUM's findings and
//! then measure the result (Table 4). The advisor closes that loop ahead of
//! time: it replays the recorded memory-usage curve with each fix modelled
//! as a byte reduction over an API-index interval —
//!
//! * **unused allocation** — the object never exists;
//! * **early allocation** — the object exists only from its first touch;
//! * **late deallocation** — the object dies at its last touch;
//! * **memory leak** — treated as a free at the last touch;
//! * **overallocation** — the object shrinks to its accessed bytes;
//! * **temporary idleness** — the object is offloaded across each idle span;
//! * **redundant allocation** — the object occupies its reuse source's
//!   memory instead of new space.
//!
//! The resulting estimate is an *upper bound* (fixes are assumed perfectly
//! composable) but lands close to the measured Table 4 reductions on the
//! paper's workloads — see `table4`'s "est." column.

use crate::object::ObjectId;
use crate::patterns::{PatternEvidence, PatternKind};
use crate::report::{Finding, Report};
use crate::trace_io::{SavedObject, SavedTrace};
use std::collections::HashMap;

/// One modelled fix: subtract `bytes` from the usage curve over the
/// half-open API-index interval `[from, to)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeledFix {
    /// The fixed object.
    pub object: ObjectId,
    /// Pattern the fix addresses.
    pub pattern: PatternKind,
    /// Bytes saved while the fix is active.
    pub bytes: u64,
    /// First API index the saving applies to.
    pub from: usize,
    /// One-past-last API index the saving applies to.
    pub to: usize,
}

/// The advisor's prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct SavingsEstimate {
    /// Peak of the recorded run.
    pub original_peak: u64,
    /// Predicted peak with all suggestions applied.
    pub estimated_peak: u64,
    /// The individual modelled fixes.
    pub fixes: Vec<ModeledFix>,
}

impl SavingsEstimate {
    /// Predicted reduction in percent.
    pub fn reduction_pct(&self) -> f64 {
        if self.original_peak == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.estimated_peak as f64 / self.original_peak as f64)
    }
}

fn lifetime_end(meta: &SavedObject, curve_len: usize) -> usize {
    meta.free_api.unwrap_or(curve_len)
}

fn fix_for(finding: &Finding, meta: &SavedObject, curve_len: usize) -> Vec<ModeledFix> {
    let whole_life = (meta.alloc_api, lifetime_end(meta, curve_len));
    match &finding.evidence {
        PatternEvidence::UnusedAllocation => vec![ModeledFix {
            object: meta.id,
            pattern: PatternKind::UnusedAllocation,
            bytes: meta.size,
            from: whole_life.0,
            to: whole_life.1,
        }],
        PatternEvidence::MemoryLeak => {
            // Free at the last touch; without one the object is unused and
            // the UA fix already removes it.
            Vec::new()
        }
        PatternEvidence::EarlyAllocation { first_access, .. } => vec![ModeledFix {
            object: meta.id,
            pattern: PatternKind::EarlyAllocation,
            bytes: meta.size,
            from: meta.alloc_api,
            to: first_access.idx,
        }],
        PatternEvidence::LateDeallocation { last_access, .. } => vec![ModeledFix {
            object: meta.id,
            pattern: PatternKind::LateDeallocation,
            bytes: meta.size,
            from: last_access.idx + 1,
            to: lifetime_end(meta, curve_len),
        }],
        PatternEvidence::Overallocation { wasted_bytes, .. } => vec![ModeledFix {
            object: meta.id,
            pattern: PatternKind::Overallocation,
            bytes: *wasted_bytes,
            from: whole_life.0,
            to: whole_life.1,
        }],
        PatternEvidence::TemporaryIdleness { spans } => spans
            .iter()
            .map(|s| ModeledFix {
                object: meta.id,
                pattern: PatternKind::TemporaryIdleness,
                bytes: meta.size,
                from: s.from.idx + 1,
                to: s.to.idx,
            })
            .collect(),
        PatternEvidence::RedundantAllocation { .. } => vec![ModeledFix {
            object: meta.id,
            pattern: PatternKind::RedundantAllocation,
            bytes: meta.size,
            from: whole_life.0,
            to: whole_life.1,
        }],
        PatternEvidence::StructuredAccess {
            max_slice_bytes, ..
        } => vec![ModeledFix {
            // The Sec. 7.3 fix: allocate one slice and reuse it across
            // kernel instances instead of the whole object.
            object: meta.id,
            pattern: PatternKind::StructuredAccess,
            bytes: meta.size.saturating_sub(*max_slice_bytes),
            from: whole_life.0,
            to: whole_life.1,
        }],
        // Dead writes, NUAF, and the unified-memory patterns save time,
        // not curve bytes.
        _ => Vec::new(),
    }
}

/// Predicts the achievable peak from a report and the recording it came
/// from: its usage curve and object rows.
///
/// A leak also reported as a late deallocation is only modelled once; for
/// each object and API index, the subtracted bytes are capped at the
/// object's size (overlapping fixes on one object do not double-count).
pub fn estimate(report: &Report, trace: &SavedTrace) -> SavingsEstimate {
    let usage = &trace.usage;
    let by_id: HashMap<ObjectId, &SavedObject> = trace.objects.iter().map(|o| (o.id, o)).collect();
    let curve_len = usage.len();
    let mut fixes: Vec<ModeledFix> = Vec::new();
    for finding in &report.findings {
        if let Some(meta) = by_id.get(&finding.object.id) {
            fixes.extend(fix_for(finding, meta, curve_len));
        }
    }

    // Per-object, per-index saving, capped at the object's size.
    let mut savings: HashMap<ObjectId, Vec<u64>> = HashMap::new();
    for fix in &fixes {
        let per_obj = savings
            .entry(fix.object)
            .or_insert_with(|| vec![0u64; curve_len]);
        let cap = by_id.get(&fix.object).map(|m| m.size).unwrap_or(fix.bytes);
        for slot in per_obj
            .iter_mut()
            .take(fix.to.min(curve_len))
            .skip(fix.from)
        {
            *slot = (*slot + fix.bytes).min(cap);
        }
    }
    let mut total = vec![0u64; curve_len];
    for per_obj in savings.values() {
        for (t, s) in total.iter_mut().zip(per_obj) {
            *t += s;
        }
    }

    let original_peak = usage.iter().map(|s| s.bytes_in_use).max().unwrap_or(0);
    let estimated_peak = usage
        .iter()
        .map(|s| {
            s.bytes_in_use
                .saturating_sub(total.get(s.api_idx).copied().unwrap_or(0))
        })
        .max()
        .unwrap_or(0);
    SavingsEstimate {
        original_peak,
        estimated_peak,
        fixes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ProfilerOptions;
    use crate::profiler::Profiler;
    use gpu_sim::{DeviceContext, SourceLoc};

    fn profile(body: impl FnOnce(&mut DeviceContext)) -> SavingsEstimate {
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(&mut ctx, ProfilerOptions::intra_object());
        body(&mut ctx);
        profiler.estimate_savings(&profiler.report(&ctx))
    }

    #[test]
    fn unused_allocation_is_fully_reclaimed() {
        let est = profile(|ctx| {
            ctx.push_frame(SourceLoc::new("main", "m.rs", 1));
            let used = ctx.malloc(1000, "used").unwrap();
            let _unused = ctx.malloc(3000, "unused").unwrap();
            ctx.memset(used, 0, 1000).unwrap();
            ctx.free(used).unwrap();
            ctx.pop_frame();
        });
        assert_eq!(est.original_peak, 4000);
        // The unused 3000 bytes disappear entirely.
        assert!(
            est.estimated_peak <= 1000,
            "estimated {}",
            est.estimated_peak
        );
        assert!(est.reduction_pct() >= 75.0);
    }

    #[test]
    fn early_allocation_saving_covers_only_the_gap() {
        let est = profile(|ctx| {
            let early = ctx.malloc(1000, "early").unwrap();
            let other = ctx.malloc(1000, "other").unwrap();
            ctx.memset(other, 0, 1000).unwrap();
            ctx.memset(early, 0, 1000).unwrap(); // first touch
            ctx.free(other).unwrap();
            ctx.free(early).unwrap();
        });
        // Peak is 2000 with both live; deferring `early` to its first touch
        // does not help the peak because `other` is still live then…
        // but the LD fix on `other` (freed after early's touch? no — other
        // is freed right after) interplays. The net estimate must never
        // exceed the original peak and the EA fix must appear.
        assert!(est.estimated_peak <= est.original_peak);
        assert!(est
            .fixes
            .iter()
            .any(|f| f.pattern == PatternKind::EarlyAllocation));
    }

    #[test]
    fn overlapping_fixes_do_not_double_count() {
        let est = profile(|ctx| {
            // One object that is early-allocated AND late-deallocated AND
            // temporarily idle: fixes overlap across its whole life.
            let victim = ctx.malloc(1000, "victim").unwrap();
            let a = ctx.malloc(100, "a").unwrap();
            let b = ctx.malloc(100, "b").unwrap();
            ctx.memset(a, 0, 100).unwrap();
            ctx.memset(b, 0, 100).unwrap();
            ctx.memset(victim, 0, 1000).unwrap();
            ctx.memset(a, 1, 100).unwrap();
            ctx.memset(b, 1, 100).unwrap();
            ctx.memset(victim, 1, 1000).unwrap();
            ctx.memset(a, 2, 100).unwrap();
            ctx.memset(b, 2, 100).unwrap();
            ctx.free(victim).unwrap();
            ctx.free(a).unwrap();
            ctx.free(b).unwrap();
        });
        // Savings on `victim` can never exceed its 1000 bytes at any point.
        assert!(est.original_peak - est.estimated_peak <= 1200);
        assert!(est.estimated_peak >= 200, "a and b remain live");
    }

    #[test]
    fn clean_program_estimates_zero_savings() {
        let est = profile(|ctx| {
            let a = ctx.malloc(500, "a").unwrap();
            ctx.memset(a, 0, 500).unwrap();
            ctx.free(a).unwrap();
        });
        assert_eq!(est.original_peak, est.estimated_peak);
        assert_eq!(est.reduction_pct(), 0.0);
    }
}
