//! Regenerates the paper's **Table 4**: peak memory reductions and
//! performance gains guided by DrGPUM.
//!
//! Every workload runs in its unoptimized and optimized variants; peak
//! device memory comes from the allocator's high-water mark (the caching
//! pool's peak for the PyTorch workload) and speedups from the simulated
//! end-to-end time on both platform models. The paper's numbers are printed
//! alongside for comparison. Checksum equality between the variants is the
//! "optimization preserves semantics" validation.
//!
//! Run with `cargo run -p drgpum-bench --bin table4`.

use drgpum_core::{Profiler, ProfilerOptions};
use drgpum_workloads::common::{RunOutcome, Variant};
use drgpum_workloads::registry::RunConfig;
use gpu_sim::{DeviceContext, PlatformConfig};

fn run_on(
    spec: &drgpum_workloads::WorkloadSpec,
    variant: Variant,
    platform: PlatformConfig,
) -> RunOutcome {
    let mut ctx = DeviceContext::new(platform);
    (spec.run)(&mut ctx, variant, &RunConfig::default())
        .unwrap_or_else(|e| panic!("workload {} failed: {e}", spec.name))
}

/// The advisor's predicted reduction from the unoptimized run's report —
/// what a user would see *before* writing any fix.
fn predicted_reduction(spec: &drgpum_workloads::WorkloadSpec) -> f64 {
    let mut ctx = DeviceContext::new(PlatformConfig::rtx3090());
    let mut options = ProfilerOptions::intra_object();
    if let Some(elem) = spec.elem_size_hint {
        options.elem_size = elem;
    }
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
    profiler
        .estimate_savings(&profiler.report(&ctx))
        .reduction_pct()
}

fn peak(outcome: &RunOutcome) -> u64 {
    outcome.pool_peak_bytes.unwrap_or(outcome.peak_bytes)
}

fn main() {
    println!("Table 4: peak memory reductions and speedups (measured vs paper)\n");
    println!(
        "{:<17} {:>6} {:>11} {:>10} {:>7} {:>12} {:>11} {:>12} {:>11}",
        "Program",
        "SLOC*",
        "mem (meas)",
        "(paper)",
        "est.**",
        "rtx3090 spd",
        "(paper)",
        "a100 spd",
        "(paper)"
    );
    println!("{}", "-".repeat(106));

    let mut ok = true;
    for spec in drgpum_workloads::all() {
        let rtx = PlatformConfig::rtx3090();
        let a100 = PlatformConfig::a100();
        let u_rtx = run_on(&spec, Variant::Unoptimized, rtx.clone());
        let o_rtx = run_on(&spec, Variant::Optimized, rtx);
        let u_a100 = run_on(&spec, Variant::Unoptimized, a100.clone());
        let o_a100 = run_on(&spec, Variant::Optimized, a100);

        // Semantics preserved (paper: "passes validation tests").
        assert!(
            ((u_rtx.checksum - o_rtx.checksum) / u_rtx.checksum.abs().max(1.0)).abs() < 1e-6,
            "{}: optimized variant changed results",
            spec.name
        );

        let reduction = 100.0 * (1.0 - peak(&o_rtx) as f64 / peak(&u_rtx) as f64);
        // The paper reports identical reductions on both platforms; verify.
        let reduction_a100 = 100.0 * (1.0 - peak(&o_a100) as f64 / peak(&u_a100) as f64);
        assert!(
            (reduction - reduction_a100).abs() < 1e-9,
            "{}: reduction differs across platforms",
            spec.name
        );

        let speed_rtx = u_rtx.elapsed.as_ns() as f64 / o_rtx.elapsed.as_ns() as f64;
        let speed_a100 = u_a100.elapsed.as_ns() as f64 / o_a100.elapsed.as_ns() as f64;

        let predicted = predicted_reduction(&spec);
        let mem_meas = if spec.expected_reduction_pct.is_some() {
            format!("{reduction:.1}%")
        } else {
            "-".to_owned()
        };
        let mem_paper = spec
            .expected_reduction_pct
            .map(|p| format!("{p:.0}%"))
            .unwrap_or_else(|| "-".to_owned());
        let (s_rtx, s_a100, p_rtx, p_a100) = match spec.expected_speedup {
            Some((pr, pa)) => (
                format!("{speed_rtx:.2}x"),
                format!("{speed_a100:.2}x"),
                format!("{pr:.2}x"),
                format!("{pa:.2}x"),
            ),
            None => (
                "-".to_owned(),
                "-".to_owned(),
                "-".to_owned(),
                "-".to_owned(),
            ),
        };
        println!(
            "{:<17} {:>6} {:>11} {:>10} {:>6.1}% {:>12} {:>11} {:>12} {:>11}",
            spec.name,
            spec.sloc_modified,
            mem_meas,
            mem_paper,
            predicted,
            s_rtx,
            p_rtx,
            s_a100,
            p_a100
        );

        if let Some(expected) = spec.expected_reduction_pct {
            if (reduction - expected).abs() > 3.0 {
                println!("  !! reduction off by more than 3 points");
                ok = false;
            }
        }
        if let Some((pr, _)) = spec.expected_speedup {
            if speed_rtx < 1.0 + (pr - 1.0) * 0.5 {
                println!("  !! speedup far below the paper's");
                ok = false;
            }
        }
    }
    println!("\n*: SLOC modified is the paper's count for the original CUDA sources.");
    println!(
        "**: est. is the advisor's predicted reduction from the unoptimized \
         run's findings alone (an upper bound; pool workloads predict at the \
         CUDA level)."
    );
    if !ok {
        std::process::exit(1);
    }
    println!("all reductions within 3 points of the paper; speedup shapes hold");
}
