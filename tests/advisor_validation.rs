//! Integration test: the savings advisor's predictions versus the
//! reductions actually achieved by the paper's fixes (Table 4).
//!
//! The advisor models each finding as a byte reduction over an interval of
//! the recorded usage curve; its estimate is an upper bound but should land
//! near the measured reduction where the paper's fix covers the findings.

use drgpum::prelude::*;
use drgpum::workloads::common::Variant;
use drgpum::workloads::registry::{RunConfig, WorkloadSpec};
use gpu_sim::DeviceContext;

fn predicted(spec: &WorkloadSpec) -> f64 {
    let mut ctx = DeviceContext::new_default();
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
            .then(|| profiler.collector() as drgpum::sim::pool::SharedPoolObserver),
    };
    (spec.run)(&mut ctx, Variant::Unoptimized, &cfg).expect("runs");
    profiler
        .estimate_savings(&profiler.report(&ctx))
        .reduction_pct()
}

fn achieved(spec: &WorkloadSpec) -> f64 {
    let peak = |variant| {
        let out = spec.run_fresh(variant).expect("runs");
        out.pool_peak_bytes.unwrap_or(out.peak_bytes) as f64
    };
    100.0 * (1.0 - peak(Variant::Optimized) / peak(Variant::Unoptimized))
}

#[test]
fn advisor_predictions_track_achieved_reductions() {
    // Workloads whose Table 4 fix is exactly the set of modelled findings:
    // the prediction should land within a few points of the measurement.
    for name in ["dwt2d", "2MM", "3MM", "XSBench", "GramSchmidt"] {
        let spec = drgpum::workloads::by_name(name).expect("registered");
        let predicted = predicted(&spec);
        let achieved = achieved(&spec);
        assert!(
            (predicted - achieved).abs() <= 5.0,
            "{name}: predicted {predicted:.1}% vs achieved {achieved:.1}%"
        );
    }
}

#[test]
fn advisor_upper_bounds_hold_where_fixes_compose_loosely() {
    // huffman/Darknet/Laghos/MiniMDock: the estimate is an upper bound on
    // top of the achieved reduction (all modelled fixes assumed perfectly
    // composable) but must stay in the same ballpark.
    for name in ["huffman", "Darknet", "Laghos", "MiniMDock"] {
        let spec = drgpum::workloads::by_name(name).expect("registered");
        let predicted = predicted(&spec);
        let achieved = achieved(&spec);
        assert!(
            predicted + 3.0 >= achieved,
            "{name}: prediction {predicted:.1}% must not undershoot {achieved:.1}% badly"
        );
        assert!(
            predicted - achieved <= 15.0,
            "{name}: prediction {predicted:.1}% is wildly above {achieved:.1}%"
        );
    }
}

#[test]
fn advisor_never_predicts_negative_or_impossible_savings() {
    for spec in drgpum::workloads::all() {
        let p = predicted(&spec);
        assert!(
            (0.0..=100.0).contains(&p),
            "{}: prediction {p}% out of range",
            spec.name
        );
    }
}
