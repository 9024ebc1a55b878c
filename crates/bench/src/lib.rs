//! # drgpum-bench: experiment harnesses for every table and figure
//!
//! Shared machinery for the binaries that regenerate the paper's results:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — inefficiency patterns per program |
//! | `table4` | Table 4 — peak-memory reductions and speedups |
//! | `table5` | Table 5 — DrGPUM vs ValueExpert vs Compute Sanitizer |
//! | `figure6` | Figure 6 — profiling overhead (two platforms, two modes) |
//! | `figure7` | Figure 7 — Perfetto GUI trace (`results/liveness.json`) |
//! | `ablation_accessmap` | Sec. 5.5 — GPU- vs CPU-side access maps |
//! | `ablation_sampling` | Sec. 5.5 — kernel sampling period sweep |

#![warn(missing_docs)]

use drgpum_core::{AnalysisLevel, GpuApiKind, Profiler, ProfilerOptions, Report, SamplingPolicy};
use drgpum_workloads::common::{RunOutcome, Variant};
use drgpum_workloads::registry::{RunConfig, WorkloadSpec};
use gpu_sim::{DeviceContext, PlatformConfig};
use std::time::{Duration, Instant};

/// Profiles one workload run with DrGPUM attached.
///
/// Wires up everything the paper's workflow needs: analysis level, the
/// workload's element-granularity hint, pool observation for pool-based
/// workloads, and the kernel-sampling policy.
///
/// # Panics
///
/// Panics if the workload itself fails (a workload bug, not a profiler
/// condition).
pub fn profile_workload(
    spec: &WorkloadSpec,
    variant: Variant,
    analysis: AnalysisLevel,
    platform: PlatformConfig,
    sampling: SamplingPolicy,
) -> (Report, RunOutcome) {
    let mut ctx = DeviceContext::new(platform);
    let mut options = match analysis {
        AnalysisLevel::ObjectLevel => ProfilerOptions::object_level(),
        AnalysisLevel::IntraObject => ProfilerOptions::intra_object(),
    };
    options.sampling = sampling;
    if let Some(elem) = spec.elem_size_hint {
        options.elem_size = elem;
    }
    if spec.uses_pool {
        options.track_pool_tensors = true;
    }
    let profiler = Profiler::attach(&mut ctx, options);
    let cfg = RunConfig {
        pool_observer: spec.uses_pool.then(|| {
            let collector = profiler.collector();
            collector as gpu_sim::pool::SharedPoolObserver
        }),
    };
    let outcome = (spec.run)(&mut ctx, variant, &cfg)
        .unwrap_or_else(|e| panic!("workload {} failed: {e}", spec.name));
    (profiler.report(&ctx), outcome)
}

/// Convenience: profile with the paper's defaults (intra-object analysis,
/// every kernel instance, RTX 3090 platform).
pub fn profile_default(spec: &WorkloadSpec, variant: Variant) -> (Report, RunOutcome) {
    profile_workload(
        spec,
        variant,
        AnalysisLevel::IntraObject,
        PlatformConfig::rtx3090(),
        SamplingPolicy::every_instance(),
    )
}

/// Runs one workload *without* any profiler and measures wall-clock time —
/// the "native execution" side of Figure 6's overhead ratio.
///
/// # Panics
///
/// Panics if the workload fails.
pub fn run_native(spec: &WorkloadSpec, platform: PlatformConfig) -> (Duration, RunOutcome) {
    let mut ctx = DeviceContext::new(platform);
    let start = Instant::now();
    let outcome = (spec.run)(&mut ctx, Variant::Unoptimized, &RunConfig::default())
        .unwrap_or_else(|e| panic!("workload {} failed: {e}", spec.name));
    (start.elapsed(), outcome)
}

/// Runs one workload with DrGPUM attached and measures wall-clock time —
/// the "with DrGPUM" side of Figure 6's overhead ratio.
///
/// # Panics
///
/// Panics if the workload fails.
pub fn run_profiled(
    spec: &WorkloadSpec,
    platform: PlatformConfig,
    analysis: AnalysisLevel,
    sampling: SamplingPolicy,
) -> Duration {
    let start = Instant::now();
    let _ = profile_workload(spec, Variant::Unoptimized, analysis, platform, sampling);
    start.elapsed()
}

/// Finds the kernel with the largest memory footprint in a workload — the
/// kernel Figure 6's intra-object analysis monitors. Footprint is the total
/// size of the data objects one instance touches, measured with a cheap
/// object-level pre-pass (exactly how a user would scope the analysis with
/// the kernel whitelist).
pub fn largest_footprint_kernel(spec: &WorkloadSpec) -> Option<String> {
    let mut ctx = DeviceContext::new_default();
    let mut options = ProfilerOptions::object_level();
    if spec.uses_pool {
        options.track_pool_tensors = true;
    }
    let profiler = Profiler::attach(&mut ctx, options);
    let cfg = RunConfig {
        pool_observer: spec
            .uses_pool
            .then(|| profiler.collector() as gpu_sim::pool::SharedPoolObserver),
    };
    (spec.run)(&mut ctx, Variant::Unoptimized, &cfg)
        .unwrap_or_else(|e| panic!("workload {} failed: {e}", spec.name));
    let collector = profiler.collector();
    let collector = collector.lock();
    let mut best: Option<(u64, String)> = None;
    for api in collector.gpu_apis() {
        if api.kind != GpuApiKind::Kerl {
            continue;
        }
        // The objects the kernel touched: its row's reads and writes.
        let mut touched: Vec<_> = api.vertex.reads.iter().chain(&api.vertex.writes).collect();
        touched.sort_unstable();
        touched.dedup();
        let footprint: u64 = touched
            .into_iter()
            .filter_map(|&o| collector.registry().get(o).map(|o| o.size()))
            .sum();
        if best.as_ref().map(|(b, _)| footprint > *b).unwrap_or(true) {
            best = Some((footprint, api.detail.to_string()));
        }
    }
    best.map(|(_, name)| name)
}

/// Median of a slice (not-NaN floats).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Geometric mean of a slice of positive floats.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
        let g = geomean(&[2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn profile_default_smoke() {
        let spec = drgpum_workloads::by_name("2MM").unwrap();
        let (report, outcome) = profile_default(&spec, Variant::Unoptimized);
        assert!(outcome.peak_bytes > 0);
        assert!(!report.findings.is_empty());
    }
}
