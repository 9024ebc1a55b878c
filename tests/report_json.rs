//! The report's JSON export (`export::report_json`, what `drgpum run
//! --json` writes) is written directly, without a JSON tree. It must print
//! exactly what the vendored `serde_json` pretty printer prints for the
//! same data: sorted keys, two-space indent, `[]`/`{}` for empties, the
//! same float and string escape rules.

use drgpum::profiler::export::report_json;
use drgpum::profiler::guidance::OverallocGuidance;
use drgpum::profiler::names::{ApiName, GpuApiKind, PathText};
use drgpum::profiler::object::{ObjectId, ObjectSource};
use drgpum::profiler::patterns::{ApiRef, IdleSpan, NuafScope, PatternEvidence};
use drgpum::profiler::report::{
    DegradationRecord, DetectorOutcome, DetectorStatus, Finding, ObjectSummary, PeakSummary, Report,
};
use gpu_sim::StreamId;
use serde_json::Value;

/// A report with every evidence arm and detector outcome, awkward
/// strings and floats, and optionally empty peaks and degradations.
fn awkward_report(empty: bool) -> Report {
    let nasty = "q\"uote\\back\nnl\r\t\u{8}\u{c}\u{1}\u{1f}\u{7f} é 😀";
    let name = |kind, ordinal| ApiName::new(kind, StreamId(0), ordinal);
    // The one name form with punctuation beyond the paper's naming.
    let placeholder = ApiName::missing(7);
    let api = |name: ApiName| ApiRef {
        idx: 0,
        ts: 0,
        name,
    };
    let object = |alloc_path: PathText| ObjectSummary {
        id: ObjectId(0),
        label: format!("label {nasty}"),
        size: 128,
        source: ObjectSource::Cuda,
        alloc_path,
    };
    let evidences = vec![
        PatternEvidence::EarlyAllocation {
            intervening: 2,
            distance: u64::MAX,
            first_access: api(placeholder),
        },
        PatternEvidence::LateDeallocation {
            intervening: 0,
            distance: 1,
            last_access: api(name(GpuApiKind::Cpy, 0)),
        },
        PatternEvidence::RedundantAllocation {
            reuse_of: ObjectId(1),
            reuse_label: nasty.to_owned(),
            size_diff_pct: 5.0,
        },
        PatternEvidence::UnusedAllocation,
        PatternEvidence::MemoryLeak,
        PatternEvidence::TemporaryIdleness { spans: vec![] },
        PatternEvidence::TemporaryIdleness {
            spans: vec![
                IdleSpan {
                    from: api(name(GpuApiKind::Kerl, 1)),
                    to: api(name(GpuApiKind::Kerl, 2)),
                    intervening: 5,
                },
                IdleSpan {
                    from: api(name(GpuApiKind::Kerl, 2)),
                    to: api(placeholder),
                    intervening: 7,
                },
            ],
        },
        PatternEvidence::DeadWrite {
            first: api(name(GpuApiKind::Set, 0)),
            second: api(name(GpuApiKind::Cpy, 1)),
        },
        PatternEvidence::Overallocation {
            accessed_pct: f64::NAN,
            fragmentation_pct: -0.0,
            guidance: OverallocGuidance::DifficultScattered,
            wasted_bytes: 100,
        },
        PatternEvidence::Overallocation {
            accessed_pct: 1e20,
            fragmentation_pct: 1.0 / 3.0,
            guidance: OverallocGuidance::LittleBenefit,
            wasted_bytes: 0,
        },
        PatternEvidence::NonUniformAccessFrequency {
            cov_pct: f64::INFINITY,
            at_api: api(name(GpuApiKind::Kerl, 3)),
            histogram: vec![(1, 10)],
            scope: NuafScope::PerApi,
        },
        PatternEvidence::NonUniformAccessFrequency {
            cov_pct: -58.25,
            at_api: api(name(GpuApiKind::Kerl, 4)),
            histogram: vec![],
            scope: NuafScope::Lifetime,
        },
        PatternEvidence::StructuredAccess {
            kernel: nasty.to_owned(),
            slices: 8,
            max_slice_bytes: 128,
        },
        PatternEvidence::PageThrashing {
            page_index: u32::MAX,
            migrations: 3,
        },
        PatternEvidence::PageFalseSharing {
            page_index: 0,
            migrations: 4,
            host_bytes: 10,
            device_bytes: 20,
        },
    ];
    let (peaks, degradations) = if empty {
        (vec![], vec![])
    } else {
        (
            vec![
                PeakSummary {
                    api_name: placeholder,
                    api_idx: 3,
                    bytes: 4096,
                    objects: vec![("a".to_owned(), 1), (nasty.to_owned(), 2)],
                },
                PeakSummary {
                    api_name: name(GpuApiKind::Kerl, 1),
                    api_idx: 1,
                    bytes: 0,
                    objects: vec![],
                },
            ],
            vec![
                DegradationRecord::new("collector", nasty),
                DegradationRecord::at("governor", "demoted", 12),
            ],
        )
    };
    let detectors = [
        DetectorOutcome::Ok { findings: 3 },
        DetectorOutcome::Failed {
            message: nasty.to_owned(),
        },
        DetectorOutcome::Skipped {
            reason: "budget".to_owned(),
        },
        DetectorOutcome::TimedOut { deadline_ms: 50 },
    ]
    .into_iter()
    .map(|outcome| DetectorStatus {
        name: format!("detector {nasty}"),
        outcome,
    })
    .collect();
    Report {
        platform: nasty.to_owned(),
        findings: evidences
            .into_iter()
            .enumerate()
            .map(|(i, evidence)| Finding {
                object: object(if i % 2 == 0 {
                    PathText::from([])
                } else {
                    PathText::from(["main.cu:3".into(), nasty.into()])
                }),
                suggestion: format!("fix \"{nasty}\""),
                wasted_bytes: i as u64,
                at_peak: i % 3 == 0,
                evidence,
            })
            .collect(),
        peaks,
        stats: Default::default(),
        detectors: if empty { vec![] } else { detectors },
        degradations,
    }
}

#[test]
fn direct_writer_matches_the_pretty_printed_tree() {
    for empty in [true, false] {
        let text = report_json(&awkward_report(empty));
        let tree: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(serde_json::to_string_pretty(&tree).unwrap(), text);
        assert_eq!(tree["findings"].as_array().unwrap().len(), 15);
        if empty {
            assert!(text.contains("\"peaks\": []"), "{text}");
            assert!(text.contains("\"degradations\": []"), "{text}");
            assert!(text.contains("\"evidence\": {}"), "{text}");
        }
    }
}
