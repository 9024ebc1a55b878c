//! Intra-object pattern detectors: overallocation, structured access,
//! non-uniform access frequency (Sec. 5.2).

use super::{NuafScope, PatternEvidence, PatternFinding, TraceView};
use crate::accessmap::{AccessBitmap, FreqMap, RangeSet};
use crate::guidance::OverallocGuidance;
use crate::metrics;
use crate::object::ObjectId;
use crate::options::Thresholds;
use std::collections::HashMap;

/// One observed non-uniform-access-frequency peak:
/// `(trace index, CoV %, histogram)`.
pub type NuafObservation = (usize, f64, Vec<(u32, usize)>);

/// Everything the collector gathered about one monitored object's elements.
#[derive(Debug, Clone)]
pub struct IntraObjectData {
    /// The monitored object.
    pub object: ObjectId,
    /// Cumulative one-bit-per-byte access map.
    pub bitmap: AccessBitmap,
    /// Per-GPU-API footprints: `(trace index, byte ranges touched)`.
    pub per_api: Vec<(usize, RangeSet)>,
    /// The strongest per-API non-uniform-access-frequency observation seen
    /// online.
    pub nuaf_peak: Option<NuafObservation>,
    /// Lifetime frequency map: never zeroed, accumulated at the configured
    /// element granularity. Captures cross-API skew like GramSchmidt's
    /// per-slice variance (Sec. 7.3).
    pub lifetime_freq: Option<FreqMap>,
}

impl IntraObjectData {
    /// Creates an empty record for an object of `size` bytes.
    pub fn new(object: ObjectId, size: u64) -> Self {
        IntraObjectData {
            object,
            bitmap: AccessBitmap::new(size),
            per_api: Vec::new(),
            nuaf_peak: None,
            lifetime_freq: None,
        }
    }

    /// Approximate bytes of host memory this record occupies — the
    /// quantity the session governor meters against the resident budget.
    pub fn footprint_bytes(&self) -> u64 {
        self.bitmap.footprint_bytes()
            + self
                .per_api
                .iter()
                .map(|(_, rs)| 16 + rs.footprint_bytes())
                .sum::<u64>()
            + self
                .lifetime_freq
                .as_ref()
                .map(FreqMap::footprint_bytes)
                .unwrap_or(0)
    }
}

/// Overallocation (Def. 3.8): fewer than `overalloc_accessed_pct` percent of
/// the object's bytes were ever accessed. The finding carries the Eq. 1
/// fragmentation and the Table 2 guidance quadrant.
pub fn detect_overallocation(
    data: &IntraObjectData,
    thresholds: &Thresholds,
) -> Option<PatternFinding> {
    // Objects never observed by a fully-patched API have an all-clear
    // bitmap; without positive evidence of element-level behaviour we stay
    // silent (no false positives, Sec. 5.6).
    if data.per_api.is_empty() {
        return None;
    }
    let accessed = metrics::accessed_pct(&data.bitmap);
    if accessed >= thresholds.overalloc_accessed_pct {
        return None;
    }
    let frag = metrics::fragmentation_pct(&data.bitmap);
    Some(PatternFinding {
        object: data.object,
        evidence: PatternEvidence::Overallocation {
            accessed_pct: accessed,
            fragmentation_pct: frag,
            guidance: OverallocGuidance::classify(
                accessed,
                frag,
                thresholds.overalloc_accessed_pct,
                thresholds.overalloc_frag_pct,
            ),
            wasted_bytes: data.bitmap.count_clear(),
        },
    })
}

/// Structured access (Def. 3.10): across the instances of one kernel, each
/// instance accesses a non-empty slice of the object and no two slices
/// overlap. The paper reports the pattern per kernel ("R_gpu matches the
/// structured access pattern at GPU kernel gramschmidt_kernel3", Sec. 7.3),
/// so footprints are grouped by kernel name.
pub fn detect_structured_access(
    data: &IntraObjectData,
    trace: &TraceView,
    thresholds: &Thresholds,
) -> Option<PatternFinding> {
    // Kernels in the order of their first instance in `per_api`.
    let mut slot: HashMap<&str, usize> = HashMap::new();
    let mut per_kernel: Vec<(&str, Vec<&RangeSet>)> = Vec::new();
    for (api_idx, rs) in &data.per_api {
        if rs.is_empty() {
            continue;
        }
        if let Some(Some(kernel)) = trace.api_kernels.get(*api_idx) {
            let k = *slot.entry(kernel).or_insert_with(|| {
                per_kernel.push((kernel, Vec::new()));
                per_kernel.len() - 1
            });
            per_kernel[k].1.push(rs);
        }
    }
    // Among qualifying kernels, report the one slicing the most bytes of
    // the object — GramSchmidt's kernel3 (half the matrix) wins over
    // kernel1 (one diagonal element per instance). On equal coverage the
    // kernel whose first instance comes first wins.
    let mut best: Option<(u64, usize, &str, u64)> = None;
    for (kernel, slices) in &per_kernel {
        if slices.len() < thresholds.structured_min_slices {
            continue;
        }
        let covered: u64 = slices.iter().map(|rs| rs.covered()).sum();
        if best.is_some_and(|(c, ..)| covered <= c) || !slices_are_disjoint(slices, data, trace) {
            continue;
        }
        let max_slice = slices.iter().map(|rs| rs.covered()).max().unwrap_or(0);
        best = Some((covered, slices.len(), kernel, max_slice));
    }
    let (_, slices, kernel, max_slice_bytes) = best?;
    Some(PatternFinding {
        object: data.object,
        evidence: PatternEvidence::StructuredAccess {
            kernel: kernel.to_owned(),
            slices,
            max_slice_bytes,
        },
    })
}

/// Whether one kernel's slices of the object are disjoint in space and in
/// time, in O((R + H) log R) for R slice ranges and H slice hits.
fn slices_are_disjoint(slices: &[&RangeSet], data: &IntraObjectData, trace: &TraceView) -> bool {
    // Every slice range, tagged with its slice, sorted by start. A slice's
    // own ranges never overlap, so two slices share a byte exactly when
    // two neighbours overlap.
    let mut ranges: Vec<(u64, u64, usize)> = slices
        .iter()
        .enumerate()
        .flat_map(|(i, rs)| rs.ranges().iter().map(move |&(s, e)| (s, e, i)))
        .collect();
    ranges.sort_unstable();
    if ranges.windows(2).any(|w| w[1].0 < w[0].1) {
        return false;
    }
    // The memory-saving fix replaces the object with per-slice allocations
    // "whose lifetimes do not overlap" (Def. 3.10), so the slices must also
    // be *temporally* disjoint: considering every GPU API that touches the
    // object (copies, other kernels), each slice's first-to-last-touch
    // interval must not overlap another slice's. GramSchmidt's `R` rows
    // qualify; its `A` columns do not (every iteration reads many columns)
    // and neither does a `Q` copied out wholesale at the end. The ranges
    // are now disjoint, so their ends are sorted too and each footprint
    // range binary-searches to the slice ranges it overlaps.
    let mut lifetimes = vec![(u64::MAX, 0u64); slices.len()];
    for (api_idx, rs) in &data.per_api {
        let ts = trace.api_ts.get(*api_idx).copied().unwrap_or(0);
        for &(s, e) in rs.ranges() {
            let first = ranges.partition_point(|r| r.1 <= s);
            for &(_, _, slice) in ranges[first..].iter().take_while(|r| r.0 < e) {
                let (lo, hi) = &mut lifetimes[slice];
                *lo = (*lo).min(ts);
                *hi = (*hi).max(ts);
            }
        }
    }
    lifetimes.sort_unstable();
    lifetimes.windows(2).all(|w| w[1].0 > w[0].1)
}

/// Non-uniform access frequency (Def. 3.9): the coefficient of variation of
/// per-element access counts exceeds `nuaf_cov_pct`, either within one GPU
/// API (the per-API map, zeroed at each API) or accumulated over the
/// object's lifetime at the configured element granularity.
pub fn detect_nuaf(
    data: &IntraObjectData,
    trace: &TraceView,
    thresholds: &Thresholds,
) -> Option<PatternFinding> {
    // Prefer the per-API observation (the paper's Def. 3.9); fall back to
    // the lifetime aggregation.
    let per_api = data
        .nuaf_peak
        .as_ref()
        .filter(|(_, cov, _)| *cov > thresholds.nuaf_cov_pct);
    if let Some((api_idx, cov, histogram)) = per_api {
        return Some(PatternFinding {
            object: data.object,
            evidence: PatternEvidence::NonUniformAccessFrequency {
                cov_pct: *cov,
                at_api: trace.api_ref(*api_idx),
                histogram: histogram.clone(),
                scope: NuafScope::PerApi,
            },
        });
    }
    let lifetime = data.lifetime_freq.as_ref()?;
    // The lifetime aggregation is only meaningful at a user-chosen coarse
    // slice granularity (GramSchmidt's per-row analysis); at the default
    // per-element width every partially-reused buffer would trip it.
    if lifetime.elem_size() <= crate::options::DEFAULT_ELEM_SIZE {
        return None;
    }
    let cov = lifetime.coefficient_of_variation_pct();
    if cov <= thresholds.nuaf_cov_pct {
        return None;
    }
    let last_api = data.per_api.last().map(|(idx, _)| *idx)?;
    Some(PatternFinding {
        object: data.object,
        evidence: PatternEvidence::NonUniformAccessFrequency {
            cov_pct: cov,
            at_api: trace.api_ref(last_api),
            histogram: lifetime.histogram(),
            scope: NuafScope::Lifetime,
        },
    })
}

/// Runs all three intra-object detectors over every monitored object.
pub fn detect_all(
    intra: &[IntraObjectData],
    trace: &TraceView,
    thresholds: &Thresholds,
) -> Vec<PatternFinding> {
    detect_all_cancellable(
        intra,
        trace,
        thresholds,
        &crate::governor::CancelToken::new(),
    )
    .expect("fresh token is never cancelled")
}

/// Like [`detect_all`], polling `cancel` between objects; returns `None`
/// (dropping partial findings) once cancellation is observed.
pub fn detect_all_cancellable(
    intra: &[IntraObjectData],
    trace: &TraceView,
    thresholds: &Thresholds,
    cancel: &crate::governor::CancelToken,
) -> Option<Vec<PatternFinding>> {
    let mut findings = Vec::new();
    for data in intra {
        if cancel.is_cancelled() {
            return None;
        }
        findings.extend(detect_overallocation(data, thresholds));
        findings.extend(detect_structured_access(data, trace, thresholds));
        findings.extend(detect_nuaf(data, trace, thresholds));
    }
    Some(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::PatternKind;

    fn trace(n: usize) -> TraceView {
        TraceView::synthetic(n)
    }

    /// A synthetic trace where every API is an instance of kernel `k`.
    fn kernel_trace(n: usize) -> TraceView {
        let mut tv = TraceView::synthetic(n);
        tv.api_kernels = vec![Some("k".into()); n];
        tv
    }

    fn data_with_accesses(size: u64, ranges: &[(usize, u64, u64)]) -> IntraObjectData {
        let mut d = IntraObjectData::new(ObjectId(0), size);
        for &(api, s, e) in ranges {
            d.bitmap.set_range(s, e);
            let mut rs = RangeSet::new();
            rs.insert(s, e);
            d.per_api.push((api, rs));
        }
        d
    }

    #[test]
    fn minimdock_style_overallocation() {
        // A huge object with a tiny accessed prefix: OA fires, EasyWin.
        let d = data_with_accesses(1_000_000, &[(0, 0, 100)]);
        let f = detect_overallocation(&d, &Thresholds::default()).expect("OA");
        match f.evidence {
            PatternEvidence::Overallocation {
                accessed_pct,
                fragmentation_pct,
                guidance,
                wasted_bytes,
            } => {
                assert!(accessed_pct < 0.011);
                assert!(fragmentation_pct < 0.01);
                assert_eq!(guidance, OverallocGuidance::EasyWin);
                assert_eq!(wasted_bytes, 999_900);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn well_used_object_is_not_overallocated() {
        let d = data_with_accesses(1000, &[(0, 0, 900)]);
        assert!(detect_overallocation(&d, &Thresholds::default()).is_none());
    }

    #[test]
    fn unmonitored_object_is_silent() {
        let tv = kernel_trace(2);
        let d = IntraObjectData::new(ObjectId(0), 1000);
        assert!(detect_overallocation(&d, &Thresholds::default()).is_none());
        assert!(detect_structured_access(&d, &tv, &Thresholds::default()).is_none());
    }

    /// The GramSchmidt scenario (Fig. 8): each kernel instance accesses one
    /// disjoint slice of `R_gpu`.
    #[test]
    fn gramschmidt_style_structured_access() {
        let slices: Vec<(usize, u64, u64)> = (0..8)
            .map(|i| (i, i as u64 * 128, (i as u64 + 1) * 128))
            .collect();
        let d = data_with_accesses(1024, &slices);
        let tv = kernel_trace(8);
        let f = detect_structured_access(&d, &tv, &Thresholds::default()).expect("SA");
        match f.evidence {
            PatternEvidence::StructuredAccess {
                kernel,
                slices,
                max_slice_bytes,
            } => {
                assert_eq!(kernel, "k");
                assert_eq!(slices, 8);
                assert_eq!(max_slice_bytes, 128);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn slices_of_different_kernels_do_not_mix() {
        // Two kernels, each with one slice: neither alone reaches the
        // two-slice minimum, so SA must not fire even though the slices are
        // disjoint across kernels.
        let d = data_with_accesses(1024, &[(0, 0, 128), (1, 128, 256)]);
        let mut tv = TraceView::synthetic(2);
        tv.api_kernels = vec![Some("k1".into()), Some("k2".into())];
        assert!(detect_structured_access(&d, &tv, &Thresholds::default()).is_none());
    }

    #[test]
    fn copies_do_not_count_as_slices_but_extend_lifetimes() {
        // A copy touching only the first slice before its kernel instance:
        // not an instance itself (grouping ignores it), and slice lifetimes
        // stay disjoint, so SA fires.
        let mut d = data_with_accesses(1024, &[(1, 0, 512), (2, 512, 1024)]);
        let mut partial = RangeSet::new();
        partial.insert(0, 128);
        d.per_api.push((0, partial));
        let mut tv = TraceView::synthetic(3);
        tv.api_kernels = vec![None, Some("k".into()), Some("k".into())];
        assert!(detect_structured_access(&d, &tv, &Thresholds::default()).is_some());
    }

    #[test]
    fn whole_object_copy_breaks_slice_lifetimes() {
        // A full-object init copy makes every slice live at the same time:
        // the Def. 3.10 fix (per-slice allocations with non-overlapping
        // lifetimes) no longer applies, so SA stays silent.
        let mut d = data_with_accesses(1024, &[(1, 0, 512), (2, 512, 1024)]);
        let mut full = RangeSet::new();
        full.insert(0, 1024);
        d.per_api.push((0, full));
        d.bitmap.set_range(0, 1024);
        let mut tv = TraceView::synthetic(3);
        tv.api_kernels = vec![None, Some("k".into()), Some("k".into())];
        assert!(detect_structured_access(&d, &tv, &Thresholds::default()).is_none());
    }

    #[test]
    fn equal_coverage_names_the_kernel_seen_first() {
        // Kernel `b` (first instance at API 0) and kernel `a` each slice
        // 256 bytes into two disjoint, temporally ordered halves.
        let d = data_with_accesses(
            1024,
            &[(0, 0, 128), (1, 128, 256), (2, 256, 384), (3, 384, 512)],
        );
        let mut tv = TraceView::synthetic(4);
        tv.api_kernels = ["b", "b", "a", "a"].map(|k| Some(k.into())).to_vec();
        for _ in 0..32 {
            let f = detect_structured_access(&d, &tv, &Thresholds::default()).expect("SA");
            match f.evidence {
                PatternEvidence::StructuredAccess { kernel, .. } => assert_eq!(kernel, "b"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn overlapping_slices_are_not_structured() {
        let d = data_with_accesses(1024, &[(0, 0, 200), (1, 100, 300)]);
        let tv = kernel_trace(2);
        assert!(detect_structured_access(&d, &tv, &Thresholds::default()).is_none());
    }

    #[test]
    fn single_api_is_not_structured() {
        let d = data_with_accesses(1024, &[(0, 0, 128)]);
        let tv = kernel_trace(1);
        assert!(detect_structured_access(&d, &tv, &Thresholds::default()).is_none());
    }

    #[test]
    fn structured_access_can_coexist_with_overallocation() {
        // Disjoint slices covering only 20% of the object: both OA and SA.
        let d = data_with_accesses(10_000, &[(0, 0, 1000), (1, 1000, 2000)]);
        let tv = kernel_trace(4);
        let all = detect_all(&[d], &tv, &Thresholds::default());
        let kinds: Vec<PatternKind> = all.iter().map(|f| f.kind()).collect();
        assert!(kinds.contains(&PatternKind::Overallocation));
        assert!(kinds.contains(&PatternKind::StructuredAccess));
    }

    #[test]
    fn nuaf_respects_threshold() {
        let tv = trace(3);
        let mut d = IntraObjectData::new(ObjectId(0), 64);
        d.nuaf_peak = Some((1, 58.0, vec![(1, 10), (5, 2)]));
        let f = detect_nuaf(&d, &tv, &Thresholds::default()).expect("NUAF");
        match f.evidence {
            PatternEvidence::NonUniformAccessFrequency {
                cov_pct, at_api, ..
            } => {
                assert_eq!(cov_pct, 58.0);
                assert_eq!(at_api.idx, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        d.nuaf_peak = Some((1, 19.0, vec![]));
        assert!(detect_nuaf(&d, &tv, &Thresholds::default()).is_none());
    }

    #[test]
    fn nuaf_without_observation_is_silent() {
        let tv = trace(1);
        let d = IntraObjectData::new(ObjectId(0), 64);
        assert!(detect_nuaf(&d, &tv, &Thresholds::default()).is_none());
    }

    #[test]
    fn lifetime_nuaf_catches_cross_api_skew() {
        use crate::patterns::NuafScope;
        let tv = trace(4);
        let mut d = IntraObjectData::new(ObjectId(0), 64);
        // per-API observation uniform (CoV 0), but lifetime counts at a
        // coarse 16-byte slice granularity are skewed: slice 0 accessed 100
        // times, the others once.
        let mut lf = FreqMap::new(64, 16);
        for _ in 0..100 {
            lf.record(0, 4);
        }
        for i in 1..4 {
            lf.record(i * 16, 4);
        }
        d.lifetime_freq = Some(lf);
        let mut rs = RangeSet::new();
        rs.insert(0, 64);
        d.per_api.push((2, rs));
        let f = detect_nuaf(&d, &tv, &Thresholds::default()).expect("lifetime NUAF");
        match f.evidence {
            PatternEvidence::NonUniformAccessFrequency { scope, cov_pct, .. } => {
                assert_eq!(scope, NuafScope::Lifetime);
                assert!(cov_pct > 20.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
