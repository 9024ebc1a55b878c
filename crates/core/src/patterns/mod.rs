//! The ten patterns of GPU memory inefficiency (Sec. 3) and their detectors.
//!
//! Object-level patterns (Sec. 3.1) are detected on the timestamp-augmented
//! object-level access trace; intra-object patterns (Sec. 3.2) on per-element
//! access maps. Every detector is *sound by construction*: it only reports
//! conditions that definitionally hold on the observed trace, so DrGPUM
//! "does not incur false positives" (Sec. 5.6).

pub mod intra;
pub mod object_level;
pub mod redundant;
pub mod unified;

use crate::guidance::OverallocGuidance;
use crate::names::{ApiName, GpuApiKind};
use crate::object::ObjectId;
use gpu_sim::StreamId;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The ten inefficiency patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatternKind {
    /// Allocated well before first use (Def. 3.1).
    EarlyAllocation,
    /// Freed well after last use (Def. 3.2).
    LateDeallocation,
    /// Could have reused a dead object of similar size (Def. 3.3).
    RedundantAllocation,
    /// Never accessed by any GPU API (Def. 3.4).
    UnusedAllocation,
    /// Never deallocated (Def. 3.5).
    MemoryLeak,
    /// Long gaps between consecutive accesses (Def. 3.6).
    TemporaryIdleness,
    /// A copy/set overwritten by another copy/set with no use between
    /// (Def. 3.7).
    DeadWrite,
    /// Few elements ever accessed (Def. 3.8).
    Overallocation,
    /// Highly skewed per-element access counts (Def. 3.9).
    NonUniformAccessFrequency,
    /// Disjoint per-API slices (Def. 3.10).
    StructuredAccess,
    /// *Extension* (the paper's future work, Sec. 8): a unified-memory page
    /// migrating back and forth between host and device.
    PageThrashing,
    /// *Extension* (Sec. 8): page thrashing where the host and device touch
    /// *disjoint* bytes of the page — page-level false sharing.
    PageFalseSharing,
}

impl PatternKind {
    /// All ten patterns, object-level first — the row order of Table 5.
    pub const ALL: [PatternKind; 10] = [
        PatternKind::EarlyAllocation,
        PatternKind::LateDeallocation,
        PatternKind::RedundantAllocation,
        PatternKind::UnusedAllocation,
        PatternKind::MemoryLeak,
        PatternKind::TemporaryIdleness,
        PatternKind::DeadWrite,
        PatternKind::Overallocation,
        PatternKind::NonUniformAccessFrequency,
        PatternKind::StructuredAccess,
    ];

    /// The paper's Table 4 abbreviation (`EA`, `LD`, …).
    pub fn code(self) -> &'static str {
        match self {
            PatternKind::EarlyAllocation => "EA",
            PatternKind::LateDeallocation => "LD",
            PatternKind::RedundantAllocation => "RA",
            PatternKind::UnusedAllocation => "UA",
            PatternKind::MemoryLeak => "ML",
            PatternKind::TemporaryIdleness => "TI",
            PatternKind::DeadWrite => "DW",
            PatternKind::Overallocation => "OA",
            PatternKind::NonUniformAccessFrequency => "NUAF",
            PatternKind::StructuredAccess => "SA",
            PatternKind::PageThrashing => "PT",
            PatternKind::PageFalseSharing => "PFS",
        }
    }

    /// Human-readable pattern name.
    pub fn name(self) -> &'static str {
        match self {
            PatternKind::EarlyAllocation => "early allocation",
            PatternKind::LateDeallocation => "late deallocation",
            PatternKind::RedundantAllocation => "redundant allocation",
            PatternKind::UnusedAllocation => "unused allocation",
            PatternKind::MemoryLeak => "memory leak",
            PatternKind::TemporaryIdleness => "temporary idleness",
            PatternKind::DeadWrite => "dead write",
            PatternKind::Overallocation => "overallocation",
            PatternKind::NonUniformAccessFrequency => "non-uniform access frequency",
            PatternKind::StructuredAccess => "structured access",
            PatternKind::PageThrashing => "page thrashing (unified memory)",
            PatternKind::PageFalseSharing => "page-level false sharing (unified memory)",
        }
    }

    /// Whether this is an object-level (vs intra-object) pattern. The
    /// unified-memory extension patterns are neither; they describe
    /// CPU-GPU interactions.
    pub fn is_object_level(self) -> bool {
        !matches!(
            self,
            PatternKind::Overallocation
                | PatternKind::NonUniformAccessFrequency
                | PatternKind::StructuredAccess
                | PatternKind::PageThrashing
                | PatternKind::PageFalseSharing
        )
    }

    /// Whether this pattern is one of the paper's original ten (vs the
    /// unified-memory extension from the paper's future-work section).
    pub fn is_paper_pattern(self) -> bool {
        PatternKind::ALL.contains(&self)
    }
}

impl fmt::Display for PatternKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A reference to one GPU API invocation in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApiRef {
    /// Index into the GPU-API trace (host invocation order).
    pub idx: usize,
    /// Topological timestamp (Sec. 5.3).
    pub ts: u64,
    /// Display name; renders as e.g. `KERL(0, 1)`.
    pub name: ApiName,
}

/// One access of a data object by a GPU API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectAccess {
    /// The accessing API.
    pub api: ApiRef,
    /// The API read the object.
    pub read: bool,
    /// The API wrote the object.
    pub write: bool,
}

/// One data object's view of the trace, the input to object-level detectors.
#[derive(Debug, Clone)]
pub struct ObjectView {
    /// Object identity.
    pub id: ObjectId,
    /// Program label, shared with the registry object or the saved row.
    pub label: Arc<str>,
    /// Requested size in bytes.
    pub size: u64,
    /// The allocation: `Some` for `cudaMalloc` objects (a trace API), `None`
    /// for pool tensors (whose allocation is not a GPU API).
    pub alloc: Option<ApiRef>,
    /// For pool tensors: the trace index before which the allocation
    /// happened.
    pub alloc_anchor: usize,
    /// The deallocation, if the object was ever freed via a GPU API.
    pub free: Option<ApiRef>,
    /// For pool tensors: the trace index before which the free happened, if
    /// freed.
    pub free_anchor: Option<usize>,
    /// Accesses in timestamp order.
    pub accesses: Vec<ObjectAccess>,
    /// Whether this object participates in pattern detection.
    pub analyzable: bool,
}

impl ObjectView {
    /// First access, if any.
    pub fn first_access(&self) -> Option<&ObjectAccess> {
        self.accesses.first()
    }

    /// Last access, if any.
    pub fn last_access(&self) -> Option<&ObjectAccess> {
        self.accesses.last()
    }

    /// Returns `true` if the object was never freed (the *memory leak*
    /// pattern precondition).
    pub fn leaked(&self) -> bool {
        self.free.is_none() && self.free_anchor.is_none()
    }
}

/// The whole trace, as consumed by detectors.
///
/// The "GPU API invocations between" counts use an index over `api_ts`
/// and `api_is_dealloc` that is built on the first count, so those two
/// fields must not be edited after a view has been counted.
#[derive(Debug, Clone, Default)]
pub struct TraceView {
    /// Topological timestamp of every GPU API, indexed by trace position.
    /// Topological order need not follow trace order: independent streams
    /// share timestamps and a later API may carry an earlier one.
    pub api_ts: Vec<u64>,
    /// Display names of every GPU API (`ALLOC(0, 2)` …).
    pub api_names: Vec<ApiName>,
    /// Kernel name for launch APIs, `None` for other GPU APIs. Used by the
    /// structured-access detector, which compares footprints across the
    /// instances of one kernel (the paper reports the pattern "at GPU
    /// kernel gramschmidt_kernel3", Sec. 7.3).
    pub api_kernels: Vec<Option<Arc<str>>>,
    /// `true` for deallocation APIs (`cudaFree`). The late-deallocation
    /// rule skips these when counting intervening APIs: a deallocation
    /// neither accesses data objects (paper footnote 2) nor keeps the
    /// program holding memory, so a *batch* of frees directly after an
    /// object's last use is not itself a late deallocation.
    pub api_is_dealloc: Vec<bool>,
    /// Per-object views.
    pub objects: Vec<ObjectView>,
    /// The between-count index, built on first use.
    pub(crate) between: OnceLock<BetweenIndex>,
}

/// What the between counts look up, so each count is two binary searches
/// (or two array reads) instead of a scan of the whole trace.
#[derive(Debug, Clone)]
pub(crate) struct BetweenIndex {
    /// Every API's timestamp, sorted.
    all: Vec<u64>,
    /// The timestamps of the non-deallocation APIs, sorted.
    non_dealloc: Vec<u64>,
    /// `non_dealloc_before[i]` is the number of non-deallocation APIs at
    /// trace positions `< i`, for `i` in `0..=api_is_dealloc.len()`.
    non_dealloc_before: Vec<u64>,
}

impl BetweenIndex {
    fn build(api_ts: &[u64], api_is_dealloc: &[bool]) -> Self {
        let mut all = api_ts.to_vec();
        all.sort_unstable();
        let mut non_dealloc: Vec<u64> = api_ts
            .iter()
            .zip(api_is_dealloc)
            .filter(|(_, &dealloc)| !dealloc)
            .map(|(&t, _)| t)
            .collect();
        non_dealloc.sort_unstable();
        let mut non_dealloc_before = Vec::with_capacity(api_is_dealloc.len() + 1);
        non_dealloc_before.push(0);
        for &dealloc in api_is_dealloc {
            let n = non_dealloc_before[non_dealloc_before.len() - 1];
            non_dealloc_before.push(n + u64::from(!dealloc));
        }
        BetweenIndex {
            all,
            non_dealloc,
            non_dealloc_before,
        }
    }
}

/// Number of entries of the sorted `ts` strictly between `a` and `b`.
fn count_strictly_between(ts: &[u64], a: u64, b: u64) -> u64 {
    if b <= a {
        return 0;
    }
    (ts.partition_point(|&t| t < b) - ts.partition_point(|&t| t <= a)) as u64
}

impl TraceView {
    /// A synthetic trace of `n` kernel launches `KERL(0, i)` at timestamps
    /// `0..n`, for tests.
    pub fn synthetic(n: usize) -> Self {
        TraceView {
            api_ts: (0..n as u64).collect(),
            api_names: (0..n as u64)
                .map(|i| ApiName::new(GpuApiKind::Kerl, StreamId::DEFAULT, i))
                .collect(),
            api_kernels: vec![None; n],
            api_is_dealloc: vec![false; n],
            objects: vec![],
            between: OnceLock::new(),
        }
    }

    fn between(&self) -> &BetweenIndex {
        let index = self
            .between
            .get_or_init(|| BetweenIndex::build(&self.api_ts, &self.api_is_dealloc));
        debug_assert_eq!(
            (index.all.len(), index.non_dealloc_before.len()),
            (self.api_ts.len(), self.api_is_dealloc.len() + 1),
            "TraceView edited after its first between count"
        );
        index
    }

    /// Number of GPU APIs with a timestamp strictly between `a` and `b`.
    ///
    /// This is the paper's "GPU API invocations between" test used by the
    /// early-allocation, late-deallocation, and temporary-idleness rules.
    pub fn apis_strictly_between(&self, a: u64, b: u64) -> u64 {
        count_strictly_between(&self.between().all, a, b)
    }

    /// Number of GPU APIs at trace positions `[from_idx, to_idx)` — the
    /// index-based between test used for pool-tensor anchors.
    pub fn apis_in_index_range(&self, from_idx: usize, to_idx: usize) -> u64 {
        to_idx.saturating_sub(from_idx) as u64
    }

    /// Like [`TraceView::apis_strictly_between`], but skipping deallocation
    /// APIs — the late-deallocation rule's counting (batch frees after the
    /// last use are fine; work holding memory open is not).
    pub fn non_dealloc_apis_strictly_between(&self, a: u64, b: u64) -> u64 {
        count_strictly_between(&self.between().non_dealloc, a, b)
    }

    /// Index-range variant of the non-dealloc count, for pool anchors.
    pub fn non_dealloc_apis_in_index_range(&self, from_idx: usize, to_idx: usize) -> u64 {
        let before = &self.between().non_dealloc_before;
        let to_idx = to_idx.min(before.len() - 1);
        if from_idx >= to_idx {
            return 0;
        }
        before[to_idx] - before[from_idx]
    }

    /// An [`ApiRef`] for trace position `idx`.
    pub fn api_ref(&self, idx: usize) -> ApiRef {
        ApiRef {
            idx,
            ts: self.api_ts[idx],
            name: self.api_names[idx],
        }
    }
}

/// One span of temporary idleness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleSpan {
    /// Access before the gap.
    pub from: ApiRef,
    /// Access after the gap.
    pub to: ApiRef,
    /// Number of GPU APIs executed in between.
    pub intervening: u64,
}

/// Pattern-specific evidence attached to a finding.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternEvidence {
    /// Early allocation: the gap between allocation and first touch.
    EarlyAllocation {
        /// GPU APIs executed between allocation and first touch.
        intervening: u64,
        /// Inefficiency distance (timestamp difference).
        distance: u64,
        /// The first-touch API.
        first_access: ApiRef,
    },
    /// Late deallocation: the gap between last touch and the free.
    LateDeallocation {
        /// GPU APIs executed between last touch and the free.
        intervening: u64,
        /// Inefficiency distance (timestamp difference).
        distance: u64,
        /// The last-touch API.
        last_access: ApiRef,
    },
    /// Redundant allocation: this object could reuse another's memory.
    RedundantAllocation {
        /// The object whose memory could be reused.
        reuse_of: ObjectId,
        /// Label of the reusable object.
        reuse_label: String,
        /// Size difference as a percentage of the reused object's size.
        size_diff_pct: f64,
    },
    /// Unused allocation: no accesses at all.
    UnusedAllocation,
    /// Memory leak: never freed.
    MemoryLeak,
    /// Temporary idleness: long gaps between accesses.
    TemporaryIdleness {
        /// All idle spans exceeding the threshold.
        spans: Vec<IdleSpan>,
    },
    /// Dead write: consecutive copy/set writes with no use between.
    DeadWrite {
        /// The overwritten (dead) write.
        first: ApiRef,
        /// The overwriting write.
        second: ApiRef,
    },
    /// Overallocation: few bytes ever accessed.
    Overallocation {
        /// Percentage of bytes accessed.
        accessed_pct: f64,
        /// Fragmentation of the unaccessed bytes (Eq. 1).
        fragmentation_pct: f64,
        /// Table 2 guidance quadrant.
        guidance: OverallocGuidance,
        /// Unaccessed bytes.
        wasted_bytes: u64,
    },
    /// Non-uniform access frequency at one GPU API.
    NonUniformAccessFrequency {
        /// Coefficient of variation of per-element counts, in percent.
        cov_pct: f64,
        /// The API exhibiting the skew (for [`NuafScope::PerApi`]) or the
        /// last contributing API (for [`NuafScope::Lifetime`]).
        at_api: ApiRef,
        /// Histogram (access count → number of elements), for the GUI.
        histogram: Vec<(u32, usize)>,
        /// Whether the skew was observed within one API or accumulated over
        /// the object's lifetime (GramSchmidt's per-slice skew, Sec. 7.3).
        scope: NuafScope,
    },
    /// Page thrashing in unified memory (extension).
    PageThrashing {
        /// Page index within the managed allocation.
        page_index: u32,
        /// Number of host↔device migrations of that page.
        migrations: u64,
    },
    /// Page-level false sharing in unified memory (extension).
    PageFalseSharing {
        /// Page index within the managed allocation.
        page_index: u32,
        /// Number of host↔device migrations of that page.
        migrations: u64,
        /// Bytes of the page touched by the host.
        host_bytes: u64,
        /// Bytes of the page touched by the device.
        device_bytes: u64,
    },
    /// Structured access: disjoint per-kernel-instance slices.
    StructuredAccess {
        /// The kernel whose instances slice the object (the paper's
        /// `gramschmidt_kernel3`).
        kernel: String,
        /// Number of disjoint slices.
        slices: usize,
        /// Size of the largest slice in bytes.
        max_slice_bytes: u64,
    },
}

/// Aggregation scope of a non-uniform-access-frequency observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NuafScope {
    /// The per-API frequency map of Def. 3.9 (zeroed at each GPU API).
    PerApi,
    /// Frequencies accumulated over the whole execution at the configured
    /// element granularity — how the paper's 58 % per-slice variance on
    /// GramSchmidt's `R_gpu` manifests.
    Lifetime,
}

impl PatternEvidence {
    /// The pattern this evidence belongs to.
    pub fn kind(&self) -> PatternKind {
        match self {
            PatternEvidence::EarlyAllocation { .. } => PatternKind::EarlyAllocation,
            PatternEvidence::LateDeallocation { .. } => PatternKind::LateDeallocation,
            PatternEvidence::RedundantAllocation { .. } => PatternKind::RedundantAllocation,
            PatternEvidence::UnusedAllocation => PatternKind::UnusedAllocation,
            PatternEvidence::MemoryLeak => PatternKind::MemoryLeak,
            PatternEvidence::TemporaryIdleness { .. } => PatternKind::TemporaryIdleness,
            PatternEvidence::DeadWrite { .. } => PatternKind::DeadWrite,
            PatternEvidence::Overallocation { .. } => PatternKind::Overallocation,
            PatternEvidence::NonUniformAccessFrequency { .. } => {
                PatternKind::NonUniformAccessFrequency
            }
            PatternEvidence::StructuredAccess { .. } => PatternKind::StructuredAccess,
            PatternEvidence::PageThrashing { .. } => PatternKind::PageThrashing,
            PatternEvidence::PageFalseSharing { .. } => PatternKind::PageFalseSharing,
        }
    }
}

/// A detected inefficiency: one pattern on one data object.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternFinding {
    /// The affected object.
    pub object: ObjectId,
    /// The evidence (which also identifies the pattern).
    pub evidence: PatternEvidence,
}

impl PatternFinding {
    /// The pattern kind.
    pub fn kind(&self) -> PatternKind {
        self.evidence.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_table4_legend() {
        let codes: Vec<&str> = PatternKind::ALL.iter().map(|p| p.code()).collect();
        assert_eq!(
            codes,
            ["EA", "LD", "RA", "UA", "ML", "TI", "DW", "OA", "NUAF", "SA"]
        );
    }

    #[test]
    fn object_level_split_matches_section3() {
        let object_level: Vec<PatternKind> = PatternKind::ALL
            .into_iter()
            .filter(|p| p.is_object_level())
            .collect();
        assert_eq!(object_level.len(), 7);
        let intra: Vec<PatternKind> = PatternKind::ALL
            .into_iter()
            .filter(|p| !p.is_object_level())
            .collect();
        assert_eq!(intra.len(), 3);
    }

    #[test]
    fn between_counting() {
        let tv = TraceView::synthetic(6);
        assert_eq!(tv.apis_strictly_between(0, 5), 4);
        assert_eq!(tv.apis_strictly_between(2, 3), 0);
        assert_eq!(tv.apis_strictly_between(4, 4), 0);
        assert_eq!(tv.apis_strictly_between(5, 0), 0);
    }

    #[test]
    fn evidence_reports_its_kind() {
        let e = PatternEvidence::UnusedAllocation;
        assert_eq!(e.kind(), PatternKind::UnusedAllocation);
        assert_eq!(e.kind().code(), "UA");
    }
}
