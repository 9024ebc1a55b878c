//! End-to-end benchmarks: each paper workload natively and under DrGPUM's
//! two analysis modes — the measured form of Figure 6's bars. Uses the
//! offline timing harness in [`drgpum_bench::timing`].

use drgpum_bench::timing::{bench, group};
use drgpum_bench::{profile_workload, run_native};
use drgpum_core::{AnalysisLevel, SamplingPolicy};
use drgpum_workloads::common::Variant;
use gpu_sim::PlatformConfig;
use std::hint::black_box;

fn main() {
    group("workloads");
    // A representative subset keeps `cargo bench` within a coffee break;
    // the figure6 binary covers the full suite.
    for name in ["2MM", "huffman", "Laghos", "SimpleMultiCopy"] {
        let spec = drgpum_workloads::by_name(name).expect("registered");
        bench(&format!("native/{name}"), 10, || {
            black_box(run_native(&spec, PlatformConfig::rtx3090()).1.peak_bytes)
        });
        bench(&format!("object_level/{name}"), 10, || {
            let (report, _) = profile_workload(
                &spec,
                Variant::Unoptimized,
                AnalysisLevel::ObjectLevel,
                PlatformConfig::rtx3090(),
                SamplingPolicy::default(),
            );
            black_box(report.findings.len())
        });
        bench(&format!("intra_object/{name}"), 10, || {
            let (report, _) = profile_workload(
                &spec,
                Variant::Unoptimized,
                AnalysisLevel::IntraObject,
                PlatformConfig::rtx3090(),
                SamplingPolicy::every_instance(),
            );
            black_box(report.findings.len())
        });
    }
}
