//! The `drgpum` command-line tool.
//!
//! ```text
//! drgpum list
//! drgpum run <workload> [--optimized] [--intra] [--platform rtx3090|a100]
//!                       [--period N] [--kernel NAME] [--estimate] [--json FILE]
//!                       [--perfetto FILE] [--save-trace FILE]
//!                       [--mem-budget SIZE] [--deadline MS]
//!                       [--stream-trace FILE] [--strict]
//! drgpum run --resume <trace> [--json FILE] [--strict]
//! drgpum reanalyze <trace.json> [--idleness N] [--overalloc-pct X]
//!                               [--nuaf-cov X] [--redundant-pct X] [--json FILE]
//!                               [--strict]
//! drgpum diff <before.json> <after.json>
//! ```
//!
//! `run` profiles one of the paper's workloads and prints the report;
//! `reanalyze` re-runs the offline analysis on a saved trace with different
//! thresholds — no program re-run required; `diff` compares two recordings
//! (e.g. before and after applying the suggested fixes) the way the
//! paper's evaluation compares unoptimized and optimized programs.
//!
//! # Exit codes
//!
//! * `0` — clean run, full-fidelity report;
//! * `1` — error (or, under `--strict`, a degraded/salvaged report);
//! * `2` — usage error;
//! * `3` — the report is degraded (budget demotions, timed-out detectors)
//!   or was recovered by salvage. CI pipelines can gate on `0` only.

use drgpum::prelude::*;
use drgpum::profiler::governor::parse_byte_size;
use drgpum::profiler::{export, trace_io, ResourceBudget, SavedTrace};
use drgpum::workloads::common::Variant;
use drgpum::workloads::registry::RunConfig;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  drgpum list\n  drgpum run <workload> [--optimized] [--intra] \
         [--platform rtx3090|a100] [--period N] [--kernel NAME] [--estimate] [--json FILE] \
         [--perfetto FILE] [--save-trace FILE] [--mem-budget SIZE] \
         [--deadline MS] [--stream-trace FILE] [--strict]\n  \
         drgpum run --resume <trace> [--json FILE] [--strict]\n  \
         drgpum reanalyze <trace.json> [--idleness N] \
         [--overalloc-pct X] [--nuaf-cov X] [--redundant-pct X] [--json FILE] [--strict]\n  \
         drgpum diff <before.json> <after.json>\n\n\
         exit codes: 0 clean, 1 error (or --strict escalation), 2 usage, \
         3 degraded/salvaged report"
    );
    ExitCode::from(2)
}

/// Removes `--flag value` or `--flag=value` from `args`, returning the value.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let prefix = format!("{flag}=");
    if let Some(pos) = args
        .iter()
        .position(|a| a == flag || a.starts_with(&prefix))
    {
        if args[pos] != flag {
            // `--flag=value` in one token.
            let value = args.remove(pos).split_off(prefix.len());
            if value.is_empty() {
                return Err(format!("{flag} requires a value"));
            }
            return Ok(Some(value));
        }
        if pos + 1 >= args.len() {
            return Err(format!("{flag} requires a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Maps a run/reanalysis outcome to the process exit code: `0` for a clean,
/// full-fidelity report, `3` when it is degraded or salvaged, escalated to
/// `1` under `--strict`.
fn outcome_code(degraded: bool, strict: bool) -> ExitCode {
    if !degraded {
        ExitCode::SUCCESS
    } else if strict {
        eprintln!("error: report is degraded or salvaged and --strict was given");
        ExitCode::FAILURE
    } else {
        ExitCode::from(3)
    }
}

/// A usage error (exit 2) naming the first argument left once the known
/// flags are taken: an unrecognised `-`-prefixed token, else the first
/// positional past the `positionals` the command takes.
fn reject_stray(args: &[String], positionals: usize) -> Option<ExitCode> {
    let token = args
        .iter()
        .find(|a| a.starts_with('-'))
        .or_else(|| args.get(positionals))?;
    eprintln!("error: unexpected argument `{token}`");
    Some(usage())
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn cmd_list() -> ExitCode {
    println!(
        "{:<18} {:<10} {:<26} paper patterns",
        "name", "suite", "domain"
    );
    for spec in drgpum::workloads::all() {
        let patterns: Vec<&str> = spec.expected_patterns.iter().map(|p| p.code()).collect();
        println!(
            "{:<18} {:<10} {:<26} {}",
            spec.name,
            spec.suite,
            spec.domain,
            patterns.join(",")
        );
    }
    ExitCode::SUCCESS
}

fn cmd_run(mut args: Vec<String>) -> Result<ExitCode, String> {
    let json_out = take_value(&mut args, "--json")?;
    let perfetto_out = take_value(&mut args, "--perfetto")?;
    let trace_out = take_value(&mut args, "--save-trace")?;
    let mem_budget = take_value(&mut args, "--mem-budget")?;
    let deadline_ms: Option<u64> = take_value(&mut args, "--deadline")?
        .map(|v| {
            v.parse()
                .map_err(|_| "--deadline must be a number of milliseconds".to_owned())
        })
        .transpose()?;
    let stream_trace = take_value(&mut args, "--stream-trace")?;
    let resume = take_value(&mut args, "--resume")?;
    let strict = take_flag(&mut args, "--strict");
    let platform_name = take_value(&mut args, "--platform")?.unwrap_or_else(|| "rtx3090".into());
    let period: u64 = take_value(&mut args, "--period")?
        .map(|v| {
            v.parse()
                .map_err(|_| "--period must be a number".to_owned())
        })
        .transpose()?
        .unwrap_or(1);
    let kernel_whitelist = take_value(&mut args, "--kernel")?;
    let optimized = take_flag(&mut args, "--optimized");
    let intra = take_flag(&mut args, "--intra");
    let estimate = take_flag(&mut args, "--estimate");
    if let Some(code) = reject_stray(&args, usize::from(resume.is_none())) {
        return Ok(code);
    }
    if let Some(trace_path) = resume {
        return replay_trace(&trace_path, &Thresholds::default(), json_out, strict, true);
    }
    let Some(name) = args.first() else {
        return Err("run: missing workload name".into());
    };
    let Some(spec) = drgpum::workloads::by_name(name) else {
        return Err(format!("unknown workload `{name}` (see `drgpum list`)"));
    };
    let platform = match platform_name.as_str() {
        "rtx3090" => PlatformConfig::rtx3090(),
        "a100" => PlatformConfig::a100(),
        other => return Err(format!("unknown platform `{other}`")),
    };

    let mut ctx = DeviceContext::new(platform);
    let mut options = if intra {
        ProfilerOptions::intra_object()
    } else {
        ProfilerOptions::object_level()
    };
    options.sampling = SamplingPolicy::with_period(period);
    if let Some(kernel) = kernel_whitelist {
        // The paper's kernel whitelist (Sec. 5.5): only this kernel is
        // fully patched for intra-object analysis.
        options.sampling = options.sampling.with_whitelist([kernel]);
    }
    if let Some(elem) = spec.elem_size_hint {
        options.elem_size = elem;
    }
    if spec.uses_pool {
        options.track_pool_tensors = true;
    }
    let mut budget = ResourceBudget::unlimited();
    if let Some(size) = mem_budget {
        budget = budget.with_resident_bytes(parse_byte_size(&size)?);
    }
    if let Some(ms) = deadline_ms {
        // One wall-clock deadline governs both watchdogs: each offline
        // detector and each kernel's block loop.
        budget = budget
            .with_detector_deadline_ms(ms)
            .with_kernel_deadline_ms(ms);
        ctx.set_kernel_deadline_ms(Some(ms));
    }
    options.budget = budget;
    let profiler = match &stream_trace {
        Some(path) => {
            Profiler::attach_streaming(&mut ctx, options, path).map_err(|e| e.to_string())?
        }
        None => Profiler::attach(&mut ctx, options),
    };
    let cfg = RunConfig {
        pool_observer: spec
            .uses_pool
            .then(|| profiler.collector() as drgpum::sim::pool::SharedPoolObserver),
    };
    let variant = if optimized {
        Variant::Optimized
    } else {
        Variant::Unoptimized
    };
    let outcome = (spec.run)(&mut ctx, variant, &cfg).map_err(|e| e.to_string())?;
    let mut stream_failed = false;
    if stream_trace.is_some() {
        if let Err(e) = profiler.finish_stream() {
            eprintln!("warning: {e}; the trace keeps everything up to the last fsync");
            stream_failed = true;
        }
    }
    let report = profiler.report(&ctx);
    println!("{}", report.render_text());
    println!(
        "peak memory {} bytes, simulated time {} us, checksum {:.3}",
        outcome.pool_peak_bytes.unwrap_or(outcome.peak_bytes),
        outcome.elapsed.as_ns() / 1000,
        outcome.checksum
    );

    if estimate {
        let est = profiler.estimate_savings(&report);
        println!(
            "advisor: applying the suggestions above would cut peak memory \
             from {} to ~{} bytes ({:.1}% reduction, upper bound)",
            est.original_peak,
            est.estimated_peak,
            est.reduction_pct()
        );
    }
    if let Some(path) = json_out {
        std::fs::write(&path, export::report_json(&report))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("report JSON written to {path}");
    }
    if let Some(path) = perfetto_out {
        std::fs::write(&path, profiler.perfetto_trace(&report))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("Perfetto trace written to {path} (open at https://ui.perfetto.dev)");
    }
    if let Some(path) = trace_out {
        let collector = profiler.collector();
        let collector = collector.lock();
        let saved = trace_io::save(&collector, ctx.call_stack().table(), &ctx.config().name);
        std::fs::write(&path, saved.to_text()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("raw trace written to {path} (reanalyze with `drgpum reanalyze`)");
    }
    if let Some(path) = stream_trace {
        println!("streaming trace written to {path} (recover with `drgpum run --resume`)");
    }
    Ok(outcome_code(report.is_degraded() || stream_failed, strict))
}

/// Salvages the trace at `path` and re-runs the offline analysis on what
/// it holds. `drgpum reanalyze` reports a trace that loads without loss as
/// loaded and a damaged one as salvaged; `drgpum run --resume` (`resume`)
/// recovers a crash-truncated stream, the recovery half of
/// `--stream-trace`. Salvage and strict loading replay the same frames, so
/// a lossless salvage is exactly a trace that loads strictly.
fn replay_trace(
    path: &str,
    thresholds: &Thresholds,
    json_out: Option<String>,
    strict: bool,
    resume: bool,
) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (saved, losses) = trace_io::salvage(&text);
    let summary = format!(
        "{} GPU APIs, {} objects, platform {}",
        saved.api_count(),
        saved.object_count(),
        saved.platform
    );
    if resume {
        let how = if losses.is_lossless() {
            "clean finish"
        } else {
            "recovered prefix"
        };
        println!("resumed trace: {summary} ({how})");
    } else if let Some(first) = losses.notes.first() {
        eprintln!("warning: {path} is damaged ({first}); salvaging what remains");
        println!("salvaged trace: {summary}");
    } else {
        println!("loaded trace: {summary}");
    }
    let report = saved.reanalyze_with(thresholds, losses.to_degradations());
    println!("{}", report.render_text());
    if let Some(out) = json_out {
        std::fs::write(&out, export::report_json(&report))
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("report JSON written to {out}");
    }
    Ok(outcome_code(report.is_degraded(), strict))
}

fn cmd_reanalyze(mut args: Vec<String>) -> Result<ExitCode, String> {
    let json_out = take_value(&mut args, "--json")?;
    let strict = take_flag(&mut args, "--strict");
    let mut thresholds = Thresholds::default();
    if let Some(v) = take_value(&mut args, "--idleness")? {
        thresholds.idleness_min_apis = v.parse().map_err(|_| "--idleness must be a number")?;
    }
    if let Some(v) = take_value(&mut args, "--overalloc-pct")? {
        thresholds.overalloc_accessed_pct =
            v.parse().map_err(|_| "--overalloc-pct must be a number")?;
    }
    if let Some(v) = take_value(&mut args, "--nuaf-cov")? {
        thresholds.nuaf_cov_pct = v.parse().map_err(|_| "--nuaf-cov must be a number")?;
    }
    if let Some(v) = take_value(&mut args, "--redundant-pct")? {
        thresholds.redundant_size_pct =
            v.parse().map_err(|_| "--redundant-pct must be a number")?;
    }
    if let Some(code) = reject_stray(&args, 1) {
        return Ok(code);
    }
    let Some(path) = args.first() else {
        return Err("reanalyze: missing trace file".into());
    };
    replay_trace(path, &thresholds, json_out, strict, false)
}

fn cmd_diff(args: Vec<String>) -> Result<ExitCode, String> {
    let [before_path, after_path] = args.as_slice() else {
        return Err("diff: expected exactly two trace files".into());
    };
    let load = |path: &String| -> Result<(SavedTrace, Report), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let saved = trace_io::load(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        let report = saved.reanalyze(&Thresholds::default());
        Ok((saved, report))
    };
    let (_, before) = load(before_path)?;
    let (_, after) = load(after_path)?;

    let reduction = if before.stats.peak_bytes > 0 {
        100.0 * (1.0 - after.stats.peak_bytes as f64 / before.stats.peak_bytes as f64)
    } else {
        0.0
    };
    println!(
        "peak memory: {} -> {} bytes ({:+.1}% change)",
        before.stats.peak_bytes, after.stats.peak_bytes, -reduction
    );
    println!(
        "leaked objects: {} -> {}",
        before.stats.leaked_objects, after.stats.leaked_objects
    );
    println!(
        "findings: {} -> {}",
        before.findings.len(),
        after.findings.len()
    );

    // Per-pattern resolution.
    let count = |report: &Report, kind| report.findings.iter().filter(|f| f.kind() == kind).count();
    println!(
        "
{:<32} {:>7} {:>7}",
        "pattern", "before", "after"
    );
    let mut kinds: Vec<PatternKind> = before
        .patterns_present()
        .union(&after.patterns_present())
        .copied()
        .collect();
    kinds.sort();
    for kind in kinds {
        let (b, a) = (count(&before, kind), count(&after, kind));
        let mark = if a < b { "  fixed" } else { "" };
        println!("{:<32} {:>7} {:>7}{}", kind.name(), b, a, mark);
    }

    // Findings that disappeared / appeared, by object label.
    let labels = |r: &Report| -> std::collections::BTreeSet<(String, &'static str)> {
        r.findings
            .iter()
            .map(|f| (f.object.label.clone(), f.kind().code()))
            .collect()
    };
    let (lb, la) = (labels(&before), labels(&after));
    for (label, code) in lb.difference(&la) {
        println!("resolved: [{code}] {label}");
    }
    for (label, code) in la.difference(&lb) {
        println!("NEW:      [{code}] {label}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let command = args.remove(0);
    let result = match command.as_str() {
        "list" => Ok(cmd_list()),
        "run" => cmd_run(args),
        "reanalyze" => cmd_reanalyze(args),
        "diff" => cmd_diff(args),
        "--help" | "-h" | "help" => return usage(),
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn take_value_space_separated() {
        let mut args = argv(&["--json", "out.json", "workload"]);
        assert_eq!(
            take_value(&mut args, "--json").unwrap().as_deref(),
            Some("out.json")
        );
        assert_eq!(args, argv(&["workload"]));
    }

    #[test]
    fn take_value_equals_form() {
        let mut args = argv(&["--json=out.json", "workload"]);
        assert_eq!(
            take_value(&mut args, "--json").unwrap().as_deref(),
            Some("out.json")
        );
        assert_eq!(args, argv(&["workload"]));
    }

    #[test]
    fn take_value_equals_form_keeps_later_equals_signs() {
        let mut args = argv(&["--kernel=vec=add"]);
        assert_eq!(
            take_value(&mut args, "--kernel").unwrap().as_deref(),
            Some("vec=add")
        );
        assert!(args.is_empty());
    }

    #[test]
    fn take_value_absent_flag() {
        let mut args = argv(&["workload"]);
        assert_eq!(take_value(&mut args, "--json").unwrap(), None);
        assert_eq!(args, argv(&["workload"]));
    }

    #[test]
    fn take_value_missing_value_is_an_error() {
        let mut args = argv(&["--json"]);
        assert!(take_value(&mut args, "--json").is_err());
        let mut args = argv(&["--json="]);
        assert!(take_value(&mut args, "--json").is_err());
    }

    #[test]
    fn take_value_does_not_match_prefix_flags() {
        // `--jsonx` must not be mistaken for `--json`.
        let mut args = argv(&["--jsonx", "v"]);
        assert_eq!(take_value(&mut args, "--json").unwrap(), None);
        assert_eq!(args, argv(&["--jsonx", "v"]));
    }

    #[test]
    fn outcome_code_policy() {
        // `ExitCode` has no `PartialEq`; compare via its `Debug` form.
        let code = |degraded, strict| format!("{:?}", outcome_code(degraded, strict));
        assert_eq!(code(false, false), format!("{:?}", ExitCode::SUCCESS));
        assert_eq!(code(false, true), format!("{:?}", ExitCode::SUCCESS));
        assert_eq!(code(true, false), format!("{:?}", ExitCode::from(3)));
        assert_eq!(code(true, true), format!("{:?}", ExitCode::FAILURE));
    }
}
