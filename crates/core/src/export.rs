//! Machine-readable report export.
//!
//! The GUI consumes Perfetto JSON ([`crate::perfetto`]); CI pipelines and
//! scripts consume this flat JSON form of the [`Report`]. Field names are
//! stable; unknown fields may be added in minor releases.
//!
//! [`report_json`] writes the JSON text directly, with no JSON tree in
//! between. Its bytes are what `serde_json::to_string_pretty` prints for
//! the same data: keys in sorted order, two-space indent, and the vendored
//! crate's number and string escape rules. Only floats go through the
//! formatter: keys are static words written as they are, integers and API
//! names are written digit by digit, and a string is scanned once and
//! copied whole when nothing in it needs escaping.

use crate::guidance::OverallocGuidance;
use crate::names::{push_u64, ApiName};
use crate::patterns::{NuafScope, PatternEvidence};
use crate::report::{DetectorOutcome, DetectorStatus, Finding, Report};
use std::fmt::Write;

fn guidance_str(g: OverallocGuidance) -> &'static str {
    match g {
        OverallocGuidance::EasyWin => "easy_win",
        OverallocGuidance::LittleBenefit => "little_benefit",
        OverallocGuidance::DifficultScattered => "difficult_scattered",
        OverallocGuidance::NoAction => "no_action",
    }
}

/// A JSON scalar, printed by the vendored `serde_json`'s rules.
trait Scalar {
    fn write(&self, out: &mut String);
}

impl Scalar for str {
    /// `"` and `\` are backslash-escaped, as are `\n`, `\r`, `\t`, `\b`
    /// and `\f`; other control characters are written as `\u00XX`.
    fn write(&self, out: &mut String) {
        out.push('"');
        if !self.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
            out.push_str(self);
            out.push('"');
            return;
        }
        let mut plain = 0;
        for (i, c) in self.char_indices() {
            let escape = match c {
                '"' => "\\\"",
                '\\' => "\\\\",
                '\n' => "\\n",
                '\r' => "\\r",
                '\t' => "\\t",
                '\u{8}' => "\\b",
                '\u{c}' => "\\f",
                c if c < ' ' => "",
                _ => continue,
            };
            out.push_str(&self[plain..i]);
            if escape.is_empty() {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            } else {
                out.push_str(escape);
            }
            plain = i + c.len_utf8();
        }
        out.push_str(&self[plain..]);
        out.push('"');
    }
}

impl Scalar for String {
    fn write(&self, out: &mut String) {
        self.as_str().write(out);
    }
}

impl Scalar for ApiName {
    /// A name never needs escaping: a mnemonic and two numbers, or
    /// `<api N>`.
    fn write(&self, out: &mut String) {
        out.push('"');
        self.write_to(out);
        out.push('"');
    }
}

impl Scalar for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Scalar for f64 {
    /// Non-finite values are `null`; integral values keep one decimal
    /// (`5.0`) so they read back as floats.
    fn write(&self, out: &mut String) {
        let f = *self;
        if !f.is_finite() {
            out.push_str("null");
        } else if f.fract() == 0.0 && f.abs() < 1e16 {
            let _ = write!(out, "{f:.1}");
        } else {
            let _ = write!(out, "{f}");
        }
    }
}

macro_rules! integer_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write(&self, out: &mut String) {
                push_u64(out, u64::from(*self));
            }
        }
    )*};
}
integer_scalar!(u32, u64);

impl Scalar for usize {
    fn write(&self, out: &mut String) {
        push_u64(out, *self as u64);
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
}

/// Indentation for up to 16 levels; deeper levels take it more than once.
const INDENT: &str = "                                ";

/// Writes pretty JSON straight into one `String`: two-space indent, one
/// member or element per line, `{}` and `[]` for empties. Callers write
/// object members in sorted key order.
struct Pretty {
    out: String,
    depth: usize,
    /// No member or element written yet at the current depth.
    empty: bool,
}

impl Pretty {
    fn new_line(&mut self) {
        self.out.push('\n');
        let mut width = 2 * self.depth;
        while width > 0 {
            let n = width.min(INDENT.len());
            self.out.push_str(&INDENT[..n]);
            width -= n;
        }
    }

    /// Starts the next member or element on its own line.
    fn line(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.new_line();
        self.empty = false;
    }

    /// A member's key: a static word that needs no escaping.
    fn key(&mut self, key: &'static str) {
        debug_assert!(key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'));
        self.line();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\": ");
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            self.new_line();
        }
        self.out.push(bracket);
        self.empty = false;
    }

    /// A member holding a scalar.
    fn field(&mut self, key: &'static str, value: &(impl Scalar + ?Sized)) {
        self.key(key);
        value.write(&mut self.out);
    }

    /// A member holding an object whose members `body` writes.
    fn object(&mut self, key: &'static str, body: impl FnOnce(&mut Self)) {
        self.key(key);
        self.open('{');
        body(self);
        self.close('}');
    }

    /// A member holding an array with one object per item.
    fn objects<T>(&mut self, key: &'static str, items: &[T], mut body: impl FnMut(&mut Self, &T)) {
        self.key(key);
        self.open('[');
        for item in items {
            self.line();
            self.open('{');
            body(self, item);
            self.close('}');
        }
        self.close(']');
    }
}

fn evidence_json(j: &mut Pretty, evidence: &PatternEvidence) {
    match evidence {
        PatternEvidence::EarlyAllocation {
            intervening,
            distance,
            first_access,
        } => {
            j.field("first_access", &first_access.name);
            j.field("inefficiency_distance", distance);
            j.field("intervening_apis", intervening);
        }
        PatternEvidence::LateDeallocation {
            intervening,
            distance,
            last_access,
        } => {
            j.field("inefficiency_distance", distance);
            j.field("intervening_apis", intervening);
            j.field("last_access", &last_access.name);
        }
        PatternEvidence::RedundantAllocation {
            reuse_label,
            size_diff_pct,
            ..
        } => {
            j.field("reuse_of", reuse_label);
            j.field("size_diff_pct", size_diff_pct);
        }
        PatternEvidence::UnusedAllocation | PatternEvidence::MemoryLeak => {}
        PatternEvidence::TemporaryIdleness { spans } => {
            j.objects("idle_spans", spans, |j, s| {
                j.field("from", &s.from.name);
                j.field("intervening_apis", &s.intervening);
                j.field("to", &s.to.name);
            });
        }
        PatternEvidence::DeadWrite { first, second } => {
            j.field("dead_write", &first.name);
            j.field("overwritten_by", &second.name);
        }
        PatternEvidence::Overallocation {
            accessed_pct,
            fragmentation_pct,
            guidance,
            wasted_bytes,
        } => {
            j.field("accessed_pct", accessed_pct);
            j.field("fragmentation_pct", fragmentation_pct);
            j.field("guidance", guidance_str(*guidance));
            j.field("wasted_bytes", wasted_bytes);
        }
        PatternEvidence::NonUniformAccessFrequency {
            cov_pct,
            at_api,
            scope,
            ..
        } => {
            j.field("at_api", &at_api.name);
            j.field("cov_pct", cov_pct);
            let scope = match scope {
                NuafScope::PerApi => "per_api",
                NuafScope::Lifetime => "lifetime",
            };
            j.field("scope", scope);
        }
        PatternEvidence::StructuredAccess {
            kernel,
            slices,
            max_slice_bytes,
        } => {
            j.field("kernel", kernel);
            j.field("max_slice_bytes", max_slice_bytes);
            j.field("slices", slices);
        }
        PatternEvidence::PageThrashing {
            page_index,
            migrations,
        } => {
            j.field("migrations", migrations);
            j.field("page_index", page_index);
        }
        PatternEvidence::PageFalseSharing {
            page_index,
            migrations,
            host_bytes,
            device_bytes,
        } => {
            j.field("device_bytes", device_bytes);
            j.field("host_bytes", host_bytes);
            j.field("migrations", migrations);
            j.field("page_index", page_index);
        }
    }
}

fn finding_json(j: &mut Pretty, f: &Finding) {
    j.field("at_peak", &f.at_peak);
    j.field("code", f.kind().code());
    j.object("evidence", |j| evidence_json(j, &f.evidence));
    j.object("object", |j| {
        j.key("alloc_path");
        j.open('[');
        for frame in f.object.alloc_path.iter() {
            j.line();
            frame.write(&mut j.out);
        }
        j.close(']');
        j.field("label", &f.object.label);
        j.field("size_bytes", &f.object.size);
    });
    j.field("pattern", f.kind().name());
    j.field("suggestion", &f.suggestion);
    j.field("wasted_bytes", &f.wasted_bytes);
}

fn detector_json(j: &mut Pretty, d: &DetectorStatus) {
    match &d.outcome {
        DetectorOutcome::Ok { findings } => {
            j.field("findings", findings);
            j.field("name", &d.name);
            j.field("status", "ok");
        }
        DetectorOutcome::Failed { message } => {
            j.field("message", message);
            j.field("name", &d.name);
            j.field("status", "failed");
        }
        DetectorOutcome::Skipped { reason } => {
            j.field("name", &d.name);
            j.field("reason", reason);
            j.field("status", "skipped");
        }
        DetectorOutcome::TimedOut { deadline_ms } => {
            j.field("deadline_ms", deadline_ms);
            j.field("name", &d.name);
            j.field("status", "timed_out");
        }
    }
}

/// Serializes a report to stable, pretty-printed JSON: two-space indent,
/// object keys in sorted order. This is what `drgpum run --json` and
/// `drgpum reanalyze --json` write.
pub fn report_json(report: &Report) -> String {
    let mut j = Pretty {
        out: String::new(),
        depth: 0,
        empty: true,
    };
    j.open('{');
    j.objects("degradations", &report.degradations, |j, d| {
        j.field("at_ms", &d.at_ms);
        j.field("detail", &d.detail);
        j.field("stage", &d.stage);
    });
    j.field("degraded", &report.is_degraded());
    j.objects("detectors", &report.detectors, detector_json);
    j.objects("findings", &report.findings, finding_json);
    j.objects("peaks", &report.peaks, |j, p| {
        j.field("api", &p.api_name);
        j.field("bytes", &p.bytes);
        j.objects("objects", &p.objects, |j, (label, size)| {
            j.field("label", label);
            j.field("size_bytes", size);
        });
    });
    j.field("platform", &report.platform);
    j.object("stats", |j| {
        let s = &report.stats;
        j.field("gpu_apis", &s.gpu_apis);
        j.field("leaked_bytes", &s.leaked_bytes);
        j.field("leaked_objects", &s.leaked_objects);
        j.field("objects", &s.objects);
        j.field("peak_bytes", &s.peak_bytes);
    });
    j.field("tool", "drgpum");
    j.close('}');
    j.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ProfilerOptions;
    use crate::profiler::Profiler;
    use gpu_sim::{DeviceContext, LaunchConfig, StreamId};
    use serde_json::Value;

    #[test]
    fn report_json_round_trips_and_carries_findings() {
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(&mut ctx, ProfilerOptions::intra_object());
        let big = ctx.malloc(100_000, "big").unwrap();
        let small = ctx.malloc(64, "small").unwrap();
        ctx.memset(small, 0, 64).unwrap();
        ctx.launch(
            "touch",
            LaunchConfig::cover(4, 4).unwrap(),
            StreamId::DEFAULT,
            move |t| {
                let i = t.global_x();
                if i < 4 {
                    t.store_f32(big + i * 4, 0.0);
                }
            },
        )
        .unwrap();
        ctx.free(big).unwrap();
        // `small` leaks.
        let report = profiler.report(&ctx);
        let parsed: Value = serde_json::from_str(&report_json(&report)).unwrap();
        assert_eq!(parsed["tool"], "drgpum");
        assert_eq!(parsed["stats"]["leaked_objects"], 1);
        let findings = parsed["findings"].as_array().unwrap();
        assert!(!findings.is_empty());
        let oa = findings
            .iter()
            .find(|f| f["code"] == "OA")
            .expect("overallocation present");
        assert!(oa["evidence"]["accessed_pct"].as_f64().unwrap() < 1.0);
        assert_eq!(oa["evidence"]["guidance"], "easy_win");
        let ml = findings.iter().find(|f| f["code"] == "ML").expect("leak");
        assert_eq!(ml["object"]["label"], "small");
    }

    #[test]
    fn every_pattern_serializes() {
        // Exercise all evidence arms through a synthetic report.
        use crate::names::GpuApiKind;
        use crate::object::{ObjectId, ObjectSource};
        use crate::patterns::{ApiRef, IdleSpan};
        use crate::report::ObjectSummary;
        let api = |kind, ordinal| ApiRef {
            idx: 0,
            ts: 0,
            name: ApiName::new(kind, gpu_sim::StreamId(0), ordinal),
        };
        let object = ObjectSummary {
            id: ObjectId(0),
            label: "x".to_owned(),
            size: 128,
            source: ObjectSource::Cuda,
            alloc_path: [].into(),
        };
        let evidences = vec![
            PatternEvidence::EarlyAllocation {
                intervening: 2,
                distance: 3,
                first_access: api(GpuApiKind::Kerl, 0),
            },
            PatternEvidence::LateDeallocation {
                intervening: 1,
                distance: 1,
                last_access: api(GpuApiKind::Cpy, 0),
            },
            PatternEvidence::RedundantAllocation {
                reuse_of: ObjectId(1),
                reuse_label: "y".to_owned(),
                size_diff_pct: 0.0,
            },
            PatternEvidence::UnusedAllocation,
            PatternEvidence::MemoryLeak,
            PatternEvidence::TemporaryIdleness {
                spans: vec![IdleSpan {
                    from: api(GpuApiKind::Kerl, 1),
                    to: api(GpuApiKind::Kerl, 2),
                    intervening: 5,
                }],
            },
            PatternEvidence::DeadWrite {
                first: api(GpuApiKind::Set, 0),
                second: api(GpuApiKind::Cpy, 1),
            },
            PatternEvidence::Overallocation {
                accessed_pct: 5.0,
                fragmentation_pct: 1.0,
                guidance: OverallocGuidance::EasyWin,
                wasted_bytes: 100,
            },
            PatternEvidence::NonUniformAccessFrequency {
                cov_pct: 58.0,
                at_api: api(GpuApiKind::Kerl, 3),
                histogram: vec![(1, 10)],
                scope: NuafScope::Lifetime,
            },
            PatternEvidence::StructuredAccess {
                kernel: "k3".to_owned(),
                slices: 8,
                max_slice_bytes: 128,
            },
        ];
        let report = Report {
            platform: "rtx3090".to_owned(),
            findings: evidences
                .into_iter()
                .map(|evidence| Finding {
                    object: object.clone(),
                    suggestion: "fix it".to_owned(),
                    wasted_bytes: 0,
                    at_peak: false,
                    evidence,
                })
                .collect(),
            peaks: vec![],
            stats: Default::default(),
            detectors: vec![],
            degradations: vec![],
        };
        let v = serde_json::from_str(&report_json(&report)).unwrap();
        assert_eq!(v["findings"].as_array().unwrap().len(), 10);
        let codes: Vec<&str> = v["findings"]
            .as_array()
            .unwrap()
            .iter()
            .map(|f| f["code"].as_str().unwrap())
            .collect();
        assert_eq!(
            codes,
            ["EA", "LD", "RA", "UA", "ML", "TI", "DW", "OA", "NUAF", "SA"]
        );
    }
}
