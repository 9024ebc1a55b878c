//! One profiling session and its correctness oracle.
//!
//! A session attaches the profiler, runs the program, calls
//! [`Profiler::report`], renders the report (text and JSON) and saves the
//! trace (`trace_io::save` + `to_text`). The saved text is then reloaded
//! and reanalyzed once per threshold set, as `drgpum reanalyze` does. The
//! text stays in memory: file I/O would time the host's disk, not a layer
//! of the profiler. A native run of the same program runs beside
//! each session, so profiling overhead is a paired difference.

use crate::program::{execute, Program, RunFacts};
use crate::spans::Tracer;
use drgpum_core::{
    export, trace_io, PatternKind, PhaseTimings, Profiler, ProfilerOptions, Report, ResourceBudget,
    SamplingPolicy, Thresholds,
};
use drgpum_workloads::{RunConfig, Variant, WorkloadSpec};
use gpu_sim::pool::SharedPoolObserver;
use gpu_sim::{DeviceContext, PlatformConfig};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// A program the benchmark profiles.
pub enum Subject {
    Generated(Program),
    Paper {
        spec: WorkloadSpec,
        variant: Variant,
    },
}

impl Subject {
    pub fn name(&self) -> String {
        match self {
            Subject::Generated(p) => p.name.clone(),
            Subject::Paper { spec, variant } => format!("{}/{variant:?}", spec.name),
        }
    }

    fn uses_pool(&self) -> bool {
        match self {
            Subject::Generated(p) => p.uses_pool(),
            Subject::Paper { spec, .. } => spec.uses_pool,
        }
    }

    /// The options `drgpum run` builds for this program: `--intra` where
    /// the workload asks for it, period 1, the spec's element-size hint,
    /// pool tracking for pool users, and an unlimited budget.
    fn options(&self) -> ProfilerOptions {
        let (intra, elem_hint) = match self {
            Subject::Generated(p) => (p.intra, None),
            Subject::Paper { spec, .. } => (true, spec.elem_size_hint),
        };
        let mut options = if intra {
            ProfilerOptions::intra_object()
        } else {
            ProfilerOptions::object_level()
        };
        options.sampling = SamplingPolicy::with_period(1);
        if let Some(elem) = elem_hint {
            options.elem_size = elem;
        }
        options.track_pool_tensors = self.uses_pool();
        options.budget = ResourceBudget::unlimited();
        options
    }

    fn run(
        &self,
        ctx: &mut DeviceContext,
        observer: Option<SharedPoolObserver>,
    ) -> Result<RunFacts, String> {
        match self {
            Subject::Generated(p) => execute(p, ctx, observer).map_err(|e| e.to_string()),
            Subject::Paper { spec, variant } => {
                let cfg = RunConfig {
                    pool_observer: observer,
                };
                let out = (spec.run)(ctx, *variant, &cfg).map_err(|e| e.to_string())?;
                Ok(RunFacts {
                    checksum: out.checksum,
                    simulated_ns: out.elapsed.as_ns(),
                    peak_device_bytes: out.peak_bytes,
                })
            }
        }
    }

    /// Ground-truth violations in a live report: a planted (or Table 1)
    /// pattern missing, a wrong leak count, or a wrong checksum.
    fn ground_truth(&self, report: &Report, facts: &RunFacts) -> Vec<String> {
        let mut problems = Vec::new();
        let present = report.patterns_present();
        match self {
            Subject::Generated(p) => {
                let found: HashSet<(&str, PatternKind)> = report
                    .findings
                    .iter()
                    .map(|f| (f.object.label.as_str(), f.kind()))
                    .collect();
                for (label, kind) in &p.planted {
                    if !found.contains(&(label.as_str(), *kind)) {
                        problems.push(format!("planted {} on `{label}` not reported", kind.code()));
                    }
                }
                for kind in &p.planted_anywhere {
                    if !present.contains(kind) {
                        problems.push(format!("planted {} not reported", kind.code()));
                    }
                }
                if report.stats.leaked_objects != p.expected_leaks {
                    problems.push(format!(
                        "{} leaked objects reported, {} planted",
                        report.stats.leaked_objects, p.expected_leaks
                    ));
                }
                if facts.checksum != p.expected_checksum {
                    problems.push(format!(
                        "checksum {} differs from host reference {}",
                        facts.checksum, p.expected_checksum
                    ));
                }
            }
            Subject::Paper { spec, variant } => {
                if *variant == Variant::Unoptimized {
                    for kind in spec.expected_patterns {
                        if !present.contains(kind) {
                            problems.push(format!("Table 1 pattern {} missing", kind.code()));
                        }
                    }
                }
            }
        }
        problems
    }
}

/// Exact quantities of one session; they must repeat for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Counts {
    pub kernel_launches: u64,
    pub gpu_api_calls: u64,
    pub instrumented_accesses: u64,
    pub coalesced_records: u64,
    pub simulated_ns: u64,
    pub peak_device_bytes: u64,
    pub records: u64,
    pub objects: u64,
    pub resident_bytes: u64,
    pub findings: u64,
    pub leaked_objects: u64,
    pub trace_bytes: u64,
    pub checksum: f64,
}

/// Measurements and verdict of one iteration (native run + session +
/// reanalyses).
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub session_ms: f64,
    pub run_ms: f64,
    pub native_ms: f64,
    pub reanalyze_ms: Vec<f64>,
    pub phases: PhaseTimings,
    pub counts: Counts,
    pub problems: Vec<String>,
}

/// A degradation the current profiler records on every caching-pool run:
/// the object registry keys live objects by base address, so the tensor
/// carved at slab offset 0 shadows the slab, and the slab's `cudaFree` is
/// then reported as a free of an unknown pointer. It is a known defect, not
/// a property of the profiled program, so the oracle tolerates exactly
/// this record (`drgpum run PyTorch` exits 3 because of it).
const KNOWN_POOL_SLAB_DEFECT: &str =
    "FREE of unknown pointer (memory_pool_slab) ignored in usage accounting";

/// [`Report::is_degraded`] without [`KNOWN_POOL_SLAB_DEFECT`].
fn degraded(report: &Report) -> bool {
    report.detectors.iter().any(|d| !d.is_ok())
        || report
            .degradations
            .iter()
            .any(|d| !(d.stage == "collector" && d.detail == KNOWN_POOL_SLAB_DEFECT))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn context() -> DeviceContext {
    DeviceContext::new(PlatformConfig::rtx3090())
}

/// Runs the program without a profiler; returns host time and outcome.
fn native(subject: &Subject, tr: &mut Tracer) -> (f64, Result<RunFacts, String>) {
    let mut ctx = context();
    tr.enter("native");
    let start = Instant::now();
    let facts = tr.span("sim.native", || subject.run(&mut ctx, None));
    let elapsed = ms_since(start);
    tr.exit();
    (elapsed, facts)
}

/// The live half of a session: everything from attach to the saved trace
/// text.
fn session(
    subject: &Subject,
    tr: &mut Tracer,
    sample: &mut Sample,
) -> Result<(Report, RunFacts, String), String> {
    let mut ctx = context();
    let start = Instant::now();
    tr.enter("session");
    let profiler = tr.span("profiler.attach", || {
        Profiler::attach(&mut ctx, subject.options())
    });
    let observer = subject
        .uses_pool()
        .then(|| profiler.collector() as SharedPoolObserver);
    let run_start = Instant::now();
    let facts = tr.span("sim.run", || subject.run(&mut ctx, observer))?;
    sample.run_ms = ms_since(run_start);
    let report = tr.span("analyzer.report", || profiler.report(&ctx));
    black_box(tr.span("report.render_text", || report.render_text()));
    black_box(tr.span("report.json", || export::report_json(&report).to_string()));
    let collector = profiler.collector();
    let text = {
        let c = collector.lock();
        let saved = tr.span("trace_io.save", || {
            trace_io::save(&c, ctx.call_stack().table(), &ctx.config().name)
        });
        let text = tr.span("trace_io.to_text", || saved.to_text());
        let stats = ctx.stats();
        sample.phases = c.phase_timings();
        sample.counts = Counts {
            kernel_launches: stats.kernel_launches,
            gpu_api_calls: stats.gpu_api_calls,
            instrumented_accesses: stats.instrumented_accesses,
            coalesced_records: stats.coalesced_records,
            simulated_ns: facts.simulated_ns,
            peak_device_bytes: facts.peak_device_bytes,
            records: c.accesses().len() as u64,
            objects: c.registry().iter().count() as u64,
            resident_bytes: c.governor().resident_bytes(),
            findings: report.findings.len() as u64,
            leaked_objects: report.stats.leaked_objects,
            trace_bytes: text.len() as u64,
            checksum: facts.checksum,
        };
        text
    };
    tr.exit();
    sample.session_ms = ms_since(start);
    Ok((report, facts, text))
}

/// Reloads the saved trace text and reanalyzes it under `thresholds`, as
/// `drgpum reanalyze` does; returns the report.
fn reanalyze(tr: &mut Tracer, text: &str, thresholds: &Thresholds) -> Result<Report, String> {
    tr.enter("reanalyze");
    let saved = tr
        .span("trace_io.load", || trace_io::load(text))
        .map_err(|e| format!("reloading the trace: {e}"))?;
    let report = tr.span("analyzer.reanalyze", || saved.reanalyze(thresholds));
    black_box(tr.span("report.render_text", || report.render_text()));
    tr.exit();
    Ok(report)
}

/// One closed-loop iteration: a native run and a profiled session of
/// `subject` (in the order `native_first` gives), then one reanalysis with
/// the default thresholds and one per entry of `sweep`. Every check that
/// fails lands in `Sample::problems`.
pub fn iteration(
    subject: &Subject,
    tr: &mut Tracer,
    sweep: &[Thresholds],
    native_first: bool,
) -> Sample {
    let mut sample = Sample::default();
    let mut native_facts = None;
    let mut live = None;
    for step in 0..2 {
        if (step == 0) == native_first {
            let (elapsed, facts) = native(subject, tr);
            sample.native_ms = elapsed;
            native_facts = Some(facts);
        } else {
            live = Some(session(subject, tr, &mut sample));
        }
    }
    let (report, facts, text) = match live.expect("the session ran") {
        Ok(live) => live,
        Err(e) => {
            tr.abandon_open();
            sample.problems.push(format!("session failed: {e}"));
            return sample;
        }
    };
    match native_facts.expect("the native run ran") {
        Ok(n) if n.checksum == facts.checksum => {}
        Ok(n) => sample.problems.push(format!(
            "profiled checksum {} differs from native {}",
            facts.checksum, n.checksum
        )),
        Err(e) => sample.problems.push(format!("native run failed: {e}")),
    }
    sample
        .problems
        .extend(subject.ground_truth(&report, &facts));
    if degraded(&report) {
        sample.problems.push(format!(
            "live report is degraded: {:?}",
            report.degradations
        ));
    }
    let default = Thresholds::default();
    for (i, thresholds) in std::iter::once(&default).chain(sweep).enumerate() {
        let start = Instant::now();
        let re = match reanalyze(tr, &text, thresholds) {
            Ok(re) => re,
            Err(e) => {
                tr.abandon_open();
                sample.problems.push(e);
                continue;
            }
        };
        sample.reanalyze_ms.push(ms_since(start));
        if degraded(&re) {
            sample.problems.push(format!(
                "reanalyzed report is degraded: {:?}",
                re.degradations
            ));
        }
        if re.stats != report.stats {
            sample.problems.push(format!(
                "reanalyzed stats {:?} differ from live {:?}",
                re.stats, report.stats
            ));
        }
        if i == 0 && re.patterns_present() != report.patterns_present() {
            sample
                .problems
                .push("reanalyzed patterns differ from the live report".into());
        }
    }
    sample
}
