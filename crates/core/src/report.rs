//! The profiler's output: findings with call paths, metrics, optimization
//! suggestions, and memory-peak context.
//!
//! DrGPUM's GUI (Sec. 4, Fig. 7) presents, per GPU API and data object:
//! call paths, inefficiency patterns, inefficiency distances, and
//! optimization suggestions, with data objects involved in the top memory
//! peaks highlighted. This module is the structured form of that output; the
//! text renderer produces a terminal-friendly equivalent and
//! [`crate::perfetto`] the GUI feed.

use crate::names::{push_u64, ApiName, PathText};
use crate::object::{ObjectId, ObjectSource};
use crate::patterns::{PatternEvidence, PatternFinding, PatternKind};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// A data object as it appears in the report, with resolved call path.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectSummary {
    /// Stable id.
    pub id: ObjectId,
    /// Program label (variable name).
    pub label: String,
    /// Size in bytes.
    pub size: u64,
    /// Provenance.
    pub source: ObjectSource,
    /// Resolved allocation call path, innermost frame first, shared with
    /// the session's path table.
    pub alloc_path: PathText,
}

impl ObjectSummary {
    /// The innermost allocation frame, if a call path was captured.
    pub fn alloc_site(&self) -> Option<&str> {
        self.alloc_path.first().map(|frame| &**frame)
    }
}

/// One reported inefficiency.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The affected object.
    pub object: ObjectSummary,
    /// The pattern and its evidence.
    pub evidence: PatternEvidence,
    /// Actionable suggestion, in the paper's voice.
    pub suggestion: String,
    /// Estimated wasted bytes (prioritization key).
    pub wasted_bytes: u64,
    /// Whether the object is live at one of the top memory peaks.
    pub at_peak: bool,
}

impl Finding {
    /// The pattern kind.
    pub fn kind(&self) -> PatternKind {
        self.evidence.kind()
    }

    /// Ranking key: peak involvement first, then wasted bytes.
    pub fn priority(&self) -> (bool, u64) {
        (self.at_peak, self.wasted_bytes)
    }
}

/// One memory peak in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct PeakSummary {
    /// Display name of the GPU API at the peak.
    pub api_name: ApiName,
    /// Trace index of that API.
    pub api_idx: usize,
    /// Peak bytes.
    pub bytes: u64,
    /// Objects live at the peak: `(label, size)`, largest first.
    pub objects: Vec<(String, u64)>,
}

/// How one pattern-detector family fared during analysis.
///
/// Detectors run isolated from each other: a panicking detector loses its
/// own findings but nothing else (the analyzer catches the unwind and
/// records it here). A report therefore always carries one status per
/// detector family, so consumers can tell "no findings" from "detector
/// died".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorStatus {
    /// Detector family name (`"object_level"`, `"redundant"`, `"intra"`,
    /// `"unified"`).
    pub name: String,
    /// What happened.
    pub outcome: DetectorOutcome,
}

/// Outcome of one detector family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectorOutcome {
    /// Ran to completion.
    Ok {
        /// Number of raw findings it produced.
        findings: usize,
    },
    /// Panicked; its findings were dropped.
    Failed {
        /// Recovered panic message.
        message: String,
    },
    /// Not run, e.g. its input section was lost to trace salvage.
    Skipped {
        /// Why it was skipped.
        reason: String,
    },
    /// Exceeded its watchdog deadline and was cooperatively cancelled; its
    /// findings were dropped but all other detectors ran to completion.
    TimedOut {
        /// The deadline it exceeded, in milliseconds.
        deadline_ms: u64,
    },
}

impl DetectorStatus {
    /// `true` if the detector ran to completion.
    pub fn is_ok(&self) -> bool {
        matches!(self.outcome, DetectorOutcome::Ok { .. })
    }
}

/// One recorded loss of fidelity somewhere in the pipeline — degraded
/// collection after an allocation failure, data dropped by trace salvage,
/// a tolerated spurious API. The report stays honest about what it could
/// not see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationRecord {
    /// Pipeline stage that degraded (`"collector"`, `"trace-salvage"`,
    /// `"governor"`, …).
    pub stage: String,
    /// Human-readable description of what was lost or downgraded.
    pub detail: String,
    /// Milliseconds since session start when the degradation happened, if
    /// the stage tracks wall-clock time (the session governor does).
    pub at_ms: Option<u64>,
}

impl DegradationRecord {
    /// Convenience constructor (no timestamp).
    pub fn new(stage: impl Into<String>, detail: impl Into<String>) -> Self {
        DegradationRecord {
            stage: stage.into(),
            detail: detail.into(),
            at_ms: None,
        }
    }

    /// Constructor with a session-relative timestamp in milliseconds.
    pub fn at(stage: impl Into<String>, detail: impl Into<String>, at_ms: u64) -> Self {
        DegradationRecord {
            stage: stage.into(),
            detail: detail.into(),
            at_ms: Some(at_ms),
        }
    }
}

/// Aggregate run statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReportStats {
    /// GPU API invocations observed.
    pub gpu_apis: u64,
    /// Data objects observed.
    pub objects: u64,
    /// Peak device memory in use.
    pub peak_bytes: u64,
    /// Objects never freed.
    pub leaked_objects: u64,
    /// Total bytes never freed.
    pub leaked_bytes: u64,
}

/// The complete profiling report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Platform name the run executed on.
    pub platform: String,
    /// Findings, highest priority first.
    pub findings: Vec<Finding>,
    /// Top memory peaks (paper default: 2).
    pub peaks: Vec<PeakSummary>,
    /// Aggregate statistics.
    pub stats: ReportStats,
    /// Per-detector execution status — one entry per detector family, even
    /// (especially) when a detector failed.
    pub detectors: Vec<DetectorStatus>,
    /// Fidelity losses recorded along the pipeline; empty for a clean run.
    pub degradations: Vec<DegradationRecord>,
}

impl Report {
    /// The set of distinct patterns found — one program's row of Table 1.
    pub fn patterns_present(&self) -> BTreeSet<PatternKind> {
        self.findings.iter().map(Finding::kind).collect()
    }

    /// `true` if anything along the pipeline degraded: a detector failed or
    /// was skipped, or a degradation was recorded.
    pub fn is_degraded(&self) -> bool {
        !self.degradations.is_empty() || self.detectors.iter().any(|d| !d.is_ok())
    }

    /// The status of the named detector family, if present.
    pub fn detector(&self, name: &str) -> Option<&DetectorStatus> {
        self.detectors.iter().find(|d| d.name == name)
    }

    /// Returns `true` if any finding has the given pattern.
    pub fn has_pattern(&self, kind: PatternKind) -> bool {
        self.findings.iter().any(|f| f.kind() == kind)
    }

    /// Findings on the object with the given label.
    pub fn findings_for(&self, label: &str) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.object.label == label)
            .collect()
    }

    /// Renders the report as human-readable text. Text, integers and API
    /// names are appended in place; only percentages go through the
    /// formatter.
    pub fn render_text(&self) -> String {
        // A finding renders to about 300 bytes.
        let mut out = String::with_capacity(512 + 320 * self.findings.len());
        let o = &mut out;
        push(o, &["DrGPUM report — platform ", &self.platform, "\n  "]);
        push_u64(o, self.stats.gpu_apis);
        o.push_str(" GPU APIs, ");
        push_u64(o, self.stats.objects);
        o.push_str(" data objects, peak memory ");
        push_u64(o, self.stats.peak_bytes);
        o.push_str(" bytes\n");
        if self.stats.leaked_objects > 0 {
            o.push_str("  ");
            push_u64(o, self.stats.leaked_objects);
            o.push_str(" leaked objects (");
            push_u64(o, self.stats.leaked_bytes);
            o.push_str(" bytes)\n");
        }
        for d in &self.detectors {
            match &d.outcome {
                DetectorOutcome::Ok { .. } => {}
                DetectorOutcome::Failed { message } => {
                    push(o, &["  detector ", &d.name, " FAILED: ", message, "\n"]);
                }
                DetectorOutcome::Skipped { reason } => {
                    push(o, &["  detector ", &d.name, " skipped: ", reason, "\n"]);
                }
                DetectorOutcome::TimedOut { deadline_ms } => {
                    push(o, &["  detector ", &d.name, " TIMED OUT (exceeded the "]);
                    push_u64(o, *deadline_ms);
                    o.push_str("ms watchdog deadline; cancelled)\n");
                }
            }
        }
        for deg in &self.degradations {
            push(o, &["  degraded [", &deg.stage, "]"]);
            if let Some(ms) = deg.at_ms {
                o.push_str(" at ");
                push_u64(o, ms);
                o.push_str("ms");
            }
            push(o, &[": ", &deg.detail, "\n"]);
        }
        for (i, peak) in self.peaks.iter().enumerate() {
            o.push_str("  peak #");
            push_u64(o, i as u64 + 1);
            o.push_str(": ");
            push_u64(o, peak.bytes);
            o.push_str(" bytes at ");
            peak.api_name.write_to(o);
            o.push('\n');
            for (label, size) in peak.objects.iter().take(5) {
                push(o, &["    - ", label, " ("]);
                push_u64(o, *size);
                o.push_str(" bytes)\n");
            }
        }
        o.push_str("findings (");
        push_u64(o, self.findings.len() as u64);
        o.push_str("):\n");
        for f in &self.findings {
            push(o, &["  [", f.kind().code(), "] ", &f.object.label, " ("]);
            push_u64(o, f.object.size);
            o.push_str(" bytes)");
            if f.at_peak {
                o.push_str(" [at peak]");
            }
            push(o, &["\n      pattern: ", f.kind().name()]);
            push(o, &["\n      suggestion: ", &f.suggestion, "\n"]);
            if let Some(site) = f.object.alloc_site() {
                push(o, &["      allocated at: ", site, "\n"]);
            }
            match &f.evidence {
                PatternEvidence::EarlyAllocation {
                    intervening,
                    distance,
                    first_access,
                } => {
                    o.push_str("      ");
                    push_u64(o, *intervening);
                    o.push_str(" GPU APIs before first touch ");
                    first_access.name.write_to(o);
                    o.push_str(" (inefficiency distance ");
                    push_u64(o, *distance);
                    o.push_str(")\n");
                }
                PatternEvidence::LateDeallocation {
                    intervening,
                    distance,
                    last_access,
                } => {
                    o.push_str("      ");
                    push_u64(o, *intervening);
                    o.push_str(" GPU APIs after last touch ");
                    last_access.name.write_to(o);
                    o.push_str(" (inefficiency distance ");
                    push_u64(o, *distance);
                    o.push_str(")\n");
                }
                PatternEvidence::Overallocation {
                    accessed_pct,
                    fragmentation_pct,
                    guidance,
                    wasted_bytes,
                } => {
                    let _ = write!(
                        o,
                        "      {accessed_pct:.3}% accessed, {fragmentation_pct:.3}% \
                         fragmentation, "
                    );
                    push_u64(o, *wasted_bytes);
                    push(o, &[" wasted bytes — ", guidance.advice(), "\n"]);
                }
                PatternEvidence::NonUniformAccessFrequency {
                    cov_pct, at_api, ..
                } => {
                    let _ = write!(o, "      access-frequency variance {cov_pct:.1}% at ");
                    at_api.name.write_to(o);
                    o.push('\n');
                }
                PatternEvidence::TemporaryIdleness { spans } => {
                    for s in spans.iter().take(3) {
                        o.push_str("      idle for ");
                        push_u64(o, s.intervening);
                        o.push_str(" GPU APIs between ");
                        s.from.name.write_to(o);
                        o.push_str(" and ");
                        s.to.name.write_to(o);
                        o.push('\n');
                    }
                }
                _ => {}
            }
        }
        out
    }
}

/// Appends each of `parts` to `out`.
fn push(out: &mut String, parts: &[&str]) {
    for part in parts {
        out.push_str(part);
    }
}

/// Builds the optimization suggestion for one finding, in the paper's
/// voice, appending text, integers and API names in place.
pub fn suggestion_for(finding: &PatternFinding, object_label: &str) -> String {
    let label = object_label;
    let mut s = String::with_capacity(2 * label.len() + 160);
    let o = &mut s;
    match &finding.evidence {
        PatternEvidence::EarlyAllocation { first_access, .. } => {
            push(
                o,
                &["defer the allocation of ", label, " until just before "],
            );
            first_access.name.write_to(o);
        }
        PatternEvidence::LateDeallocation { last_access, .. } => {
            push(
                o,
                &["free ", label, " immediately after its last-touch GPU API "],
            );
            last_access.name.write_to(o);
        }
        PatternEvidence::RedundantAllocation { reuse_label, .. } => push(
            o,
            &[
                "reuse the memory of ",
                reuse_label,
                " instead of allocating ",
                label,
            ],
        ),
        PatternEvidence::UnusedAllocation => push(
            o,
            &[
                label,
                " is never accessed by GPU APIs; remove or conditionally bypass its allocation",
            ],
        ),
        PatternEvidence::MemoryLeak => push(
            o,
            &[
                label,
                " is never deallocated; pair its allocation with a free",
            ],
        ),
        PatternEvidence::TemporaryIdleness { spans } => {
            match spans.iter().max_by_key(|s| s.intervening) {
                Some(longest) => {
                    push(o, &["free or offload ", label, " to the CPU just before "]);
                    longest.from.name.write_to(o);
                    o.push_str(" and bring it back just before ");
                    longest.to.name.write_to(o);
                }
                // Defensive: evidence should carry spans, but a salvaged
                // trace may have lost them.
                None => push(
                    o,
                    &[
                        "free or offload ",
                        label,
                        " to the CPU during its idle phases",
                    ],
                ),
            }
        }
        PatternEvidence::DeadWrite { first, second } => {
            push(o, &["the write to ", label, " at "]);
            first.name.write_to(o);
            o.push_str(" is overwritten by ");
            second.name.write_to(o);
            o.push_str(" without an intervening read; remove the first write");
        }
        PatternEvidence::Overallocation { guidance, .. } => push(
            o,
            &[
                "shrink the allocation of ",
                label,
                " to the accessed portion (",
                guidance.advice(),
                ")",
            ],
        ),
        PatternEvidence::NonUniformAccessFrequency { cov_pct, .. } => {
            push(
                o,
                &["place the hottest slices of ", label, " in shared memory"],
            );
            let _ = write!(o, " (access-frequency variance {cov_pct:.0}%)");
        }
        PatternEvidence::PageThrashing {
            page_index,
            migrations,
        } => {
            o.push_str("page ");
            push_u64(o, u64::from(*page_index));
            push(o, &[" of ", label, " migrated "]);
            push_u64(o, *migrations);
            o.push_str(
                " times between host and device; batch same-side accesses or \
                 prefetch with cudaMemPrefetchAsync",
            );
        }
        PatternEvidence::PageFalseSharing {
            page_index,
            migrations,
            host_bytes,
            device_bytes,
        } => {
            o.push_str("page ");
            push_u64(o, u64::from(*page_index));
            push(o, &[" of ", label, " thrashes ("]);
            push_u64(o, *migrations);
            o.push_str(" migrations) although the host (");
            push_u64(o, *host_bytes);
            o.push_str(" B) and device (");
            push_u64(o, *device_bytes);
            push(
                o,
                &[
                    " B) touch disjoint bytes — split or pad ",
                    label,
                    " at page boundaries to end the false sharing",
                ],
            );
        }
        PatternEvidence::StructuredAccess {
            kernel,
            slices,
            max_slice_bytes,
        } => {
            push(o, &[label, " is accessed as "]);
            push_u64(o, *slices as u64);
            push(
                o,
                &[
                    " disjoint slices by the instances of kernel ",
                    kernel,
                    "; allocate one ",
                ],
            );
            push_u64(o, *max_slice_bytes);
            o.push_str("-byte slice and reuse it across instances");
        }
    }
    s
}

/// Estimated wasted bytes for prioritization.
pub fn wasted_bytes_estimate(finding: &PatternFinding, object_size: u64) -> u64 {
    match &finding.evidence {
        PatternEvidence::Overallocation { wasted_bytes, .. } => *wasted_bytes,
        PatternEvidence::UnusedAllocation
        | PatternEvidence::MemoryLeak
        | PatternEvidence::EarlyAllocation { .. }
        | PatternEvidence::LateDeallocation { .. }
        | PatternEvidence::TemporaryIdleness { .. }
        | PatternEvidence::RedundantAllocation { .. } => object_size,
        PatternEvidence::StructuredAccess {
            max_slice_bytes, ..
        } => object_size.saturating_sub(*max_slice_bytes),
        // Dead writes, NUAF, and page traffic waste time, not bytes.
        PatternEvidence::DeadWrite { .. }
        | PatternEvidence::NonUniformAccessFrequency { .. }
        | PatternEvidence::PageThrashing { .. }
        | PatternEvidence::PageFalseSharing { .. } => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::GpuApiKind;
    use crate::patterns::ApiRef;
    use gpu_sim::StreamId;

    fn summary(label: &str) -> ObjectSummary {
        ObjectSummary {
            id: ObjectId(0),
            label: label.to_owned(),
            size: 1024,
            source: ObjectSource::Cuda,
            alloc_path: ["alloc_buffers @ app.rs:10".into()].into(),
        }
    }

    fn api(kind: GpuApiKind, ordinal: u64) -> ApiRef {
        ApiRef {
            idx: 0,
            ts: 0,
            name: ApiName::new(kind, StreamId(0), ordinal),
        }
    }

    #[test]
    fn suggestions_name_the_apis() {
        let f = PatternFinding {
            object: ObjectId(0),
            evidence: PatternEvidence::EarlyAllocation {
                intervening: 3,
                distance: 3,
                first_access: api(GpuApiKind::Kerl, 1),
            },
        };
        let s = suggestion_for(&f, "d_data_out1");
        assert!(s.contains("d_data_out1"));
        assert!(s.contains("KERL(0, 1)"));
    }

    #[test]
    fn wasted_bytes_by_pattern() {
        let ua = PatternFinding {
            object: ObjectId(0),
            evidence: PatternEvidence::UnusedAllocation,
        };
        assert_eq!(wasted_bytes_estimate(&ua, 500), 500);
        let dw = PatternFinding {
            object: ObjectId(0),
            evidence: PatternEvidence::DeadWrite {
                first: api(GpuApiKind::Cpy, 0),
                second: api(GpuApiKind::Cpy, 1),
            },
        };
        assert_eq!(wasted_bytes_estimate(&dw, 500), 0);
    }

    #[test]
    fn report_queries() {
        let report = Report {
            platform: "rtx3090".to_owned(),
            findings: vec![Finding {
                object: summary("q_dx"),
                evidence: PatternEvidence::MemoryLeak,
                suggestion: "pair with a free".to_owned(),
                wasted_bytes: 1024,
                at_peak: true,
            }],
            peaks: vec![],
            stats: ReportStats::default(),
            detectors: vec![],
            degradations: vec![],
        };
        assert!(report.has_pattern(PatternKind::MemoryLeak));
        assert!(!report.has_pattern(PatternKind::DeadWrite));
        assert_eq!(report.findings_for("q_dx").len(), 1);
        assert_eq!(report.patterns_present().len(), 1);
    }

    #[test]
    fn render_text_mentions_pattern_and_suggestion() {
        let report = Report {
            platform: "a100".to_owned(),
            findings: vec![Finding {
                object: summary("backup"),
                evidence: PatternEvidence::UnusedAllocation,
                suggestion: "remove it".to_owned(),
                wasted_bytes: 1024,
                at_peak: false,
            }],
            peaks: vec![PeakSummary {
                api_name: ApiName::new(GpuApiKind::Alloc, StreamId(0), 3),
                api_idx: 3,
                bytes: 4096,
                objects: vec![("backup".to_owned(), 1024)],
            }],
            stats: ReportStats {
                gpu_apis: 10,
                objects: 4,
                peak_bytes: 4096,
                leaked_objects: 0,
                leaked_bytes: 0,
            },
            detectors: vec![],
            degradations: vec![],
        };
        let text = report.render_text();
        assert!(text.contains("[UA] backup"));
        assert!(text.contains("remove it"));
        assert!(text.contains("peak #1: 4096 bytes"));
        assert!(text.contains("allocated at: alloc_buffers"));
    }

    #[test]
    fn priority_orders_peak_first() {
        let mk = |at_peak, wasted| Finding {
            object: summary("x"),
            evidence: PatternEvidence::UnusedAllocation,
            suggestion: String::new(),
            wasted_bytes: wasted,
            at_peak,
        };
        let small_at_peak = mk(true, 10);
        let big_off_peak = mk(false, 1000);
        assert!(small_at_peak.priority() > big_off_peak.priority());
    }
}
