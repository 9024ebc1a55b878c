//! Self-contained HTML report: the memory-usage curve with peaks marked
//! (inline SVG) plus the prioritized findings table — a no-dependency
//! complement to the Perfetto GUI feed.

use crate::peaks::UsageSample;
use crate::report::Report;
use std::fmt::Write as _;

fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Renders the usage curve as an inline SVG line chart with the top peaks
/// marked. Returns an empty string for an empty curve.
pub fn usage_svg(usage: &[UsageSample], peaks: &[(usize, u64)]) -> String {
    if usage.is_empty() {
        return String::new();
    }
    let (w, h, pad) = (640.0f64, 180.0f64, 24.0f64);
    let max_bytes = usage
        .iter()
        .map(|s| s.bytes_in_use)
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let max_idx = usage.last().map(|s| s.api_idx).unwrap_or(0).max(1) as f64;
    let x = |idx: usize| pad + (idx as f64 / max_idx) * (w - 2.0 * pad);
    let y = |bytes: u64| h - pad - (bytes as f64 / max_bytes) * (h - 2.0 * pad);
    let mut points = String::new();
    // Step chart: memory changes at API boundaries.
    let mut prev_y = y(0);
    for s in usage {
        let _ = write!(points, "{:.1},{:.1} ", x(s.api_idx), prev_y);
        prev_y = y(s.bytes_in_use);
        let _ = write!(points, "{:.1},{:.1} ", x(s.api_idx), prev_y);
    }
    let mut svg = format!(
        r##"<svg viewBox="0 0 {w} {h}" width="{w}" height="{h}" role="img" aria-label="memory usage over GPU APIs">
<rect width="{w}" height="{h}" fill="#fafafa"/>
<polyline points="{points}" fill="none" stroke="#3465a4" stroke-width="1.5"/>
"##
    );
    for (idx, bytes) in peaks {
        let _ = write!(
            svg,
            r##"<circle cx="{:.1}" cy="{:.1}" r="4" fill="#cc0000"/>
<text x="{:.1}" y="{:.1}" font-size="10" fill="#cc0000">{} B</text>
"##,
            x(*idx),
            y(*bytes),
            x(*idx) + 6.0,
            y(*bytes) - 4.0,
            bytes
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Renders a complete standalone HTML report.
pub fn report_html(report: &Report, usage: &[UsageSample]) -> String {
    let peaks: Vec<(usize, u64)> = report.peaks.iter().map(|p| (p.api_idx, p.bytes)).collect();
    let mut html = String::new();
    let _ = write!(
        html,
        r#"<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>DrGPUM report — {platform}</title>
<style>
body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 60rem; color: #222; }}
table {{ border-collapse: collapse; width: 100%; }}
th, td {{ border: 1px solid #ddd; padding: 0.4rem 0.6rem; text-align: left; vertical-align: top; }}
th {{ background: #f0f0f0; }}
code {{ background: #f5f5f5; padding: 0 0.2rem; }}
.peak {{ color: #cc0000; font-weight: 600; }}
.code {{ font-family: ui-monospace, monospace; }}
</style></head><body>
<h1>DrGPUM report</h1>
<p>platform <code>{platform}</code> · {apis} GPU APIs · {objects} data objects ·
peak memory <strong>{peak} bytes</strong>{leaks}</p>
"#,
        platform = escape(&report.platform),
        apis = report.stats.gpu_apis,
        objects = report.stats.objects,
        peak = report.stats.peak_bytes,
        leaks = if report.stats.leaked_objects > 0 {
            format!(
                " · <span class=\"peak\">{} leaked objects ({} bytes)</span>",
                report.stats.leaked_objects, report.stats.leaked_bytes
            )
        } else {
            String::new()
        },
    );
    let _ = write!(
        html,
        "<h2>Memory usage</h2>\n{}\n",
        usage_svg(usage, &peaks)
    );
    for (i, p) in report.peaks.iter().enumerate() {
        let objs: Vec<String> = p
            .objects
            .iter()
            .take(6)
            .map(|(l, s)| format!("<code>{}</code> ({s} B)", escape(l)))
            .collect();
        let _ = writeln!(
            html,
            "<p>peak #{}: <strong>{} bytes</strong> at <code>{}</code> — live: {}</p>",
            i + 1,
            p.bytes,
            escape(&p.api_name.to_string()),
            objs.join(", ")
        );
    }
    let _ = write!(
        html,
        "<h2>Findings ({})</h2>\n<table>\n<tr><th>pattern</th><th>object</th>\
         <th>wasted</th><th>suggestion</th><th>allocated at</th></tr>\n",
        report.findings.len()
    );
    for f in &report.findings {
        let _ = writeln!(
            html,
            "<tr><td class=\"code\">{}{}</td><td><code>{}</code> ({} B)</td>\
             <td>{}</td><td>{}</td><td class=\"code\">{}</td></tr>",
            f.kind().code(),
            if f.at_peak {
                " <span class=\"peak\">@peak</span>"
            } else {
                ""
            },
            escape(&f.object.label),
            f.object.size,
            if f.wasted_bytes > 0 {
                format!("{} B", f.wasted_bytes)
            } else {
                "—".to_owned()
            },
            escape(&f.suggestion),
            escape(f.object.alloc_site().unwrap_or("-")),
        );
    }
    html.push_str("</table>\n</body></html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ProfilerOptions;
    use crate::profiler::Profiler;
    use gpu_sim::DeviceContext;

    #[test]
    fn html_report_contains_findings_and_svg() {
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
        let a = ctx.malloc(5000, "big_buffer").unwrap();
        let b = ctx.malloc(1000, "<script>alert(1)</script>").unwrap();
        ctx.memset(a, 0, 5000).unwrap();
        ctx.memset(b, 0, 1000).unwrap();
        ctx.free(a).unwrap();
        // b leaks.
        let report = profiler.report(&ctx);
        let collector = profiler.collector();
        let collector = collector.lock();
        let html = report_html(&report, collector.usage_curve());
        assert!(html.contains("<!DOCTYPE html>"));
        assert!(html.contains("big_buffer"));
        assert!(html.contains("<svg"));
        assert!(html.contains("peak #1"));
        // Labels are escaped.
        assert!(!html.contains("<script>alert"));
        assert!(html.contains("&lt;script&gt;"));
    }

    #[test]
    fn empty_curve_renders_no_svg() {
        assert!(usage_svg(&[], &[]).is_empty());
    }

    #[test]
    fn svg_marks_every_peak() {
        let usage: Vec<UsageSample> = [10u64, 50, 10, 90, 10]
            .iter()
            .enumerate()
            .map(|(i, &b)| UsageSample {
                api_idx: i,
                bytes_in_use: b,
            })
            .collect();
        let svg = usage_svg(&usage, &[(1, 50), (3, 90)]);
        assert_eq!(svg.matches("<circle").count(), 2);
        assert!(svg.contains("90 B"));
    }
}
