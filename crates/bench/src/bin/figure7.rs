//! Regenerates the paper's **Figure 7**: the DrGPUM GUI for
//! SimpleMultiCopy.
//!
//! Profiles the unoptimized SimpleMultiCopy run and writes
//! `results/liveness.json` in the Chrome trace-event format. Load it at
//! <https://ui.perfetto.dev> via *Open trace file* — the workflow of the
//! paper's artifact appendix. The trace shows the topological order of GPU
//! APIs per stream, the lifetimes of the data objects of the top memory
//! peaks, and per-object inefficiency patterns with suggestions in the
//! slice arguments (e.g. `d_data_out1`'s early allocation).
//!
//! Run with `cargo run -p drgpum-bench --bin figure7`.

use drgpum_core::{Profiler, ProfilerOptions};
use drgpum_workloads::common::Variant;
use drgpum_workloads::registry::RunConfig;
use gpu_sim::DeviceContext;
use std::fs;
use std::path::Path;

fn main() {
    let spec = drgpum_workloads::by_name("SimpleMultiCopy").expect("registered");
    let mut ctx = DeviceContext::new_default();
    let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
    (spec.run)(&mut ctx, Variant::Unoptimized, &RunConfig::default()).expect("workload runs");

    let report = profiler.report(&ctx);
    println!("{}", report.render_text());

    let trace = profiler.perfetto_trace(&report);
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join("liveness.json");
    fs::write(&path, &trace).expect("write trace");
    // Every trace event carries exactly one phase member.
    let events = trace.matches("\"ph\": ").count();
    println!("wrote {} ({events} trace events)", path.display());
    println!("open it at https://ui.perfetto.dev via `Open trace file`");

    // Sanity: the paper's headline finding must be present.
    let out1 = report.findings_for("d_data_out1");
    assert!(
        out1.iter()
            .any(|f| f.kind() == drgpum_core::PatternKind::EarlyAllocation),
        "d_data_out1 must match the early allocation pattern (Fig. 7)"
    );
}
