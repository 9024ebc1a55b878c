//! Profiling-session benchmark for the DrGPUM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload intra-dense|alloc-churn|paper-suite --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, one driving thread, closed loop: each iteration runs one
//! program natively and in a profiling session, then reanalyzes the saved
//! trace (see [`session`]). Set-up generates the workload's programs from
//! the seed and warms up with one iteration per program; it is repeated
//! [`SETUP_REPS`] times and its median reported. Timing then runs for
//! `--seconds`, rounded up to whole passes over the workload's programs.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics.
//! With `--trace 1` every other pass records spans around each call
//! into a layer, the last line carries the per-layer metrics, and the spans
//! are written to `.bench_out/spans-<workload>-seed<N>.json`.

mod gen_churn;
mod gen_intra;
mod paper;
mod program;
mod session;
mod spans;
mod stats;

use drgpum_core::Thresholds;
use session::{iteration, Counts, Sample, Subject};
use spans::Tracer;
use stats::{median, quantile};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Generated programs per run of `intra-dense` and `alloc-churn`.
const GENERATED_PROGRAMS: usize = 4;
/// Threshold sets in the `paper-suite` sweep, and how many of them each
/// program's trace is reanalyzed under (besides the defaults).
const SWEEP_SETS: usize = 8;
const SWEEP_PER_PROGRAM: usize = 2;
/// Variables that would move the profiler off the `drgpum run` defaults:
/// worker count, resource budgets, watchdog deadlines, injected stalls.
const PINNED_ENV: [&str; 5] = [
    "DRGPUM_KERNEL_WORKERS",
    "DRGPUM_MEM_BUDGET",
    "DRGPUM_DETECTOR_DEADLINE_MS",
    "DRGPUM_KERNEL_DEADLINE_MS",
    "DRGPUM_FAULT_STALL_DETECTOR",
];
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    IntraDense,
    AllocChurn,
    PaperSuite,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::IntraDense,
        Workload::AllocChurn,
        Workload::PaperSuite,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::IntraDense => "intra-dense",
            Workload::AllocChurn => "alloc-churn",
            Workload::PaperSuite => "paper-suite",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let pos = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(pos + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or(format!("unknown workload `{name}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The programs of one run and the threshold sets their traces are
/// reanalyzed under.
struct Suite {
    subjects: Vec<Subject>,
    sweep: Vec<Thresholds>,
}

impl Suite {
    fn generate(workload: Workload, seed: u64) -> Suite {
        let generated = |f: fn(u64, usize, usize) -> program::Program| {
            (0..GENERATED_PROGRAMS)
                .map(|i| Subject::Generated(f(seed, i, GENERATED_PROGRAMS)))
                .collect()
        };
        match workload {
            Workload::IntraDense => Suite {
                subjects: generated(gen_intra::generate),
                sweep: Vec::new(),
            },
            Workload::AllocChurn => Suite {
                subjects: generated(gen_churn::generate),
                sweep: Vec::new(),
            },
            Workload::PaperSuite => Suite {
                subjects: paper::suite(seed),
                sweep: paper::threshold_sweep(seed, SWEEP_SETS),
            },
        }
    }

    /// The non-default threshold sets program `j`'s trace is reanalyzed
    /// under.
    fn sweep_for(&self, j: usize) -> &[Thresholds] {
        if self.sweep.is_empty() {
            return &[];
        }
        let at = (j * SWEEP_PER_PROGRAM) % self.sweep.len();
        &self.sweep[at..at + SWEEP_PER_PROGRAM]
    }

    /// Variants of one registry program must compute the same checksum.
    fn variant_problems(&self, counts: &[Counts]) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, a) in self.subjects.iter().enumerate() {
            for (j, b) in self.subjects.iter().enumerate().skip(i + 1) {
                let (Subject::Paper { spec: sa, .. }, Subject::Paper { spec: sb, .. }) = (a, b)
                else {
                    continue;
                };
                let (x, y) = (counts[i].checksum, counts[j].checksum);
                if sa.name == sb.name && (x - y).abs() > 1e-6 * x.abs().max(y.abs()).max(1.0) {
                    problems.push(format!("{} variants disagree: {x} vs {y}", sa.name));
                }
            }
        }
        problems
    }
}

/// [`iteration`] with a panic anywhere in it counted as a failure.
fn guarded_iteration(
    subject: &Subject,
    tr: &mut Tracer,
    sweep: &[Thresholds],
    native_first: bool,
) -> Sample {
    match catch_unwind(AssertUnwindSafe(|| {
        iteration(subject, tr, sweep, native_first)
    })) {
        Ok(sample) => sample,
        Err(payload) => {
            tr.abandon_open();
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into());
            Sample {
                problems: vec![format!("panicked: {msg}")],
                ..Sample::default()
            }
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

const MIB: f64 = 1024.0 * 1024.0;

/// Per-layer metrics of the traced iterations. Counts are summed over one
/// pass of the suite (sizes are maxima); times are medians over traced
/// sessions of each layer's self time.
fn per_layer_metrics(
    tracer: &Tracer,
    traced: &[(u64, &Sample)],
    untraced_p50: f64,
    baseline: &[Counts],
) -> Vec<(&'static str, f64, &'static str)> {
    let self_times = tracer.self_times_ms();
    let per_session = |names: &[&str], per_reanalysis: bool| -> f64 {
        let v: Vec<f64> = traced
            .iter()
            .map(|(sid, s)| {
                let total: f64 = names
                    .iter()
                    .map(|n| self_times.get(&(*sid, *n)).copied().unwrap_or(0.0))
                    .sum();
                if per_reanalysis {
                    total / s.reanalyze_ms.len().max(1) as f64
                } else {
                    total
                }
            })
            .collect();
        median(&v)
    };
    let phase = |f: fn(&Sample) -> u64| -> f64 {
        median(
            &traced
                .iter()
                .map(|(_, s)| f(s) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let sum = |f: fn(&Counts) -> u64| -> f64 { baseline.iter().map(f).sum::<u64>() as f64 };
    let max = |f: fn(&Counts) -> u64| -> f64 { baseline.iter().map(f).max().unwrap_or(0) as f64 };
    let traced_p50 = median(&traced.iter().map(|(_, s)| s.session_ms).collect::<Vec<_>>());
    let accesses = sum(|c| c.instrumented_accesses);
    vec![
        ("sim.native_ms", per_session(&["sim.native"], false), "ms"),
        (
            "sim.coalesced_frac",
            sum(|c| c.coalesced_records) / accesses.max(1.0),
            "ratio",
        ),
        ("sim.kernel_launches", sum(|c| c.kernel_launches), "count"),
        ("sim.gpu_api_calls", sum(|c| c.gpu_api_calls), "count"),
        ("sim.instrumented_accesses", accesses, "count"),
        ("sim.simulated_us", sum(|c| c.simulated_ns) / 1e3, "us"),
        (
            "sim.peak_device_mb",
            max(|c| c.peak_device_bytes) / MIB,
            "MiB",
        ),
        ("collector.resolve_ms", phase(|s| s.phases.resolve_ns), "ms"),
        (
            "collector.aggregate_ms",
            phase(|s| s.phases.aggregate_ns),
            "ms",
        ),
        ("collector.flush_ms", phase(|s| s.phases.flush_ns), "ms"),
        (
            "collector.resident_mb",
            max(|c| c.resident_bytes) / MIB,
            "MiB",
        ),
        ("collector.records", sum(|c| c.records), "count"),
        ("collector.objects", sum(|c| c.objects), "count"),
        (
            "analyzer.report_ms",
            per_session(&["analyzer.report"], false),
            "ms",
        ),
        (
            "analyzer.reanalyze_ms",
            per_session(&["analyzer.reanalyze"], true),
            "ms",
        ),
        ("analyzer.findings", sum(|c| c.findings), "count"),
        (
            "trace_io.save_ms",
            per_session(&["trace_io.save", "trace_io.to_text"], false),
            "ms",
        ),
        (
            "trace_io.load_ms",
            per_session(&["trace_io.load"], true),
            "ms",
        ),
        ("trace_io.bytes", sum(|c| c.trace_bytes), "bytes"),
        (
            "report.render_ms",
            per_session(&["report.render_text", "report.json"], false),
            "ms",
        ),
        (
            "trace.overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
            "%",
        ),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload intra-dense|alloc-churn|paper-suite \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // Before any context exists: `gpu-sim` reads some of these once per
    // process.
    let cleared: Vec<&str> = PINNED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    for v in PINNED_ENV {
        std::env::remove_var(v);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tracer = Tracer::new();
    let mut setup_problems: Vec<String> = Vec::new();

    // Set-up: generate, then warm up with one untraced iteration per
    // program; the warm-up counts are the reference every later session of
    // the same program must repeat exactly.
    let mut setup_s = Vec::new();
    let mut built: Option<(Suite, Vec<Counts>)> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let suite = Suite::generate(args.workload, args.seed);
        let mut counts = Vec::with_capacity(suite.subjects.len());
        for (j, subject) in suite.subjects.iter().enumerate() {
            let sample = guarded_iteration(subject, &mut tracer, suite.sweep_for(j), true);
            for p in &sample.problems {
                setup_problems.push(format!("warm-up {}: {p}", subject.name()));
            }
            counts.push(sample.counts);
        }
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some((_, first)) = &built {
            if *first != counts {
                setup_problems.push("warm-up counts differ between set-ups".into());
            }
        }
        setup_problems.extend(suite.variant_problems(&counts));
        built = Some((suite, counts));
    }
    let (suite, baseline) = built.expect("SETUP_REPS >= 1");

    let mut samples: Vec<(u64, bool, Sample)> = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    // Whole passes over the suite only, so every program weighs the same
    // in the quantiles. With tracing, every other pass is traced, so the
    // traced and untraced sessions cover the same programs; the order of
    // native run and session alternates between neighbours and flips
    // every two passes, so each program sees both orders in both modes.
    let programs = suite.subjects.len();
    let min_passes = if args.trace { 2 } else { 1 };
    while i < min_passes * programs
        || !i.is_multiple_of(programs)
        || start.elapsed().as_secs_f64() < args.seconds
    {
        let (j, pass) = (i % programs, i / programs);
        let traced = args.trace && pass % 2 == 1;
        tracer.enabled = traced;
        tracer.session = i as u64;
        let mut sample = guarded_iteration(
            &suite.subjects[j],
            &mut tracer,
            suite.sweep_for(j),
            (i + pass / 2).is_multiple_of(2),
        );
        if sample.problems.is_empty() && sample.counts != baseline[j] {
            sample.problems.push(format!(
                "counts {:?} differ from the warm-up run {:?}",
                sample.counts, baseline[j]
            ));
        }
        samples.push((i as u64, traced, sample));
        i += 1;
    }
    tracer.enabled = false;

    let attempted = samples.len();
    let failed = samples
        .iter()
        .filter(|(_, _, s)| !s.problems.is_empty())
        .count();
    for p in setup_problems.iter().chain(
        samples
            .iter()
            .flat_map(|(_, _, s)| s.problems.iter())
            .take(10),
    ) {
        eprintln!("check failed: {p}");
    }
    let untraced: Vec<&Sample> = samples
        .iter()
        .filter(|(_, t, _)| !t)
        .map(|(_, _, s)| s)
        .collect();
    let session_ms: Vec<f64> = untraced.iter().map(|s| s.session_ms).collect();
    let Some(rss) = peak_rss_mb() else {
        eprintln!("error: no VmHWM in /proc/self/status");
        return ExitCode::FAILURE;
    };
    let metrics = if args.trace {
        let traced: Vec<(u64, &Sample)> = samples
            .iter()
            .filter(|(_, t, _)| *t)
            .map(|(sid, _, s)| (*sid, s))
            .collect();
        let spans_path = PathBuf::from(OUT_DIR).join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&spans_path, tracer.to_json()));
        if let Err(e) = written {
            eprintln!("warning: writing {}: {e}", spans_path.display());
        }
        per_layer_metrics(&tracer, &traced, median(&session_ms), &baseline)
    } else {
        let overhead: Vec<f64> = untraced.iter().map(|s| s.run_ms - s.native_ms).collect();
        let reanalyze: Vec<f64> = untraced
            .iter()
            .flat_map(|s| s.reanalyze_ms.iter().copied())
            .collect();
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("session_ms_p50", median(&session_ms), "ms"),
            ("session_ms_p90", quantile(&session_ms, 0.9), "ms"),
            ("overhead_ms_p50", median(&overhead), "ms"),
            ("reanalyze_ms_p50", median(&reanalyze), "ms"),
            ("peak_rss_mb", rss, "MiB"),
        ]
    };

    let mut correct = failed == 0 && setup_problems.is_empty();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} programs={} \
         sessions={attempted} cleared_env=[{}]",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        suite.subjects.len(),
        cleared.join(",")
    );
    // The exact counts of one pass, in both modes: equal lines for equal
    // seeds show that tracing does not change the work.
    let total = |f: fn(&Counts) -> u64| baseline.iter().map(f).sum::<u64>();
    println!(
        "  exact counts: instrumented_accesses={} simulated_ns={} records={} findings={} \
         trace_bytes={}",
        total(|c| c.instrumented_accesses),
        total(|c| c.simulated_ns),
        total(|c| c.records),
        total(|c| c.findings),
        total(|c| c.trace_bytes)
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<26} {value:>14.4} {unit}");
    }
    println!(
        "  {:<26} {:>14.4} ratio ({failed} of {attempted} sessions)",
        "failed_frac",
        failed as f64 / attempted as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                *value
            } else {
                correct = false;
                0.0
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}
