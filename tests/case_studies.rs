//! Integration tests mirroring the paper's Sec. 7 case studies: not just
//! *that* each pattern fires, but the quantitative evidence behind it.

use drgpum::prelude::*;
use drgpum::profiler::{GpuApiKind, PatternEvidence};
use drgpum::workloads::common::Variant;
use drgpum::workloads::registry::{RunConfig, WorkloadSpec};

fn profile(spec: &WorkloadSpec) -> Report {
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
    profiler.report(&ctx)
}

fn by_name(name: &str) -> Report {
    profile(&drgpum::workloads::by_name(name).expect("registered"))
}

/// Sec. 7.1: SimpleMultiCopy — `d_data_out1` matches early allocation with
/// several GPU APIs before its first-touch kernel.
#[test]
fn simple_multi_copy_out1_early_allocation() {
    let report = by_name("SimpleMultiCopy");
    let ea = report
        .findings_for("d_data_out1")
        .into_iter()
        .find(|f| f.kind() == PatternKind::EarlyAllocation)
        .expect("EA on d_data_out1");
    match &ea.evidence {
        PatternEvidence::EarlyAllocation {
            intervening,
            first_access,
            ..
        } => {
            // The paper counts three APIs (ALLOC, SET, ALLOC); our setup
            // phase has four. The first touch is the stream-1 kernel.
            assert!(*intervening >= 3, "got {intervening}");
            assert!(
                first_access.name.kind() == Some(GpuApiKind::Kerl),
                "{}",
                first_access.name
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    // d_data_in1 idles through the allocations and memsets (Fig. 7 ①).
    let ti = report
        .findings_for("d_data_in1")
        .into_iter()
        .find(|f| f.kind() == PatternKind::TemporaryIdleness)
        .expect("TI on d_data_in1");
    match &ti.evidence {
        PatternEvidence::TemporaryIdleness { spans } => {
            assert!(spans.iter().any(|s| s.intervening >= 4), "{spans:?}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// Sec. 7.2: Darknet — `l.weights_gpu` is initialized twice without an
/// intervening read; outputs are early; deltas are unused.
#[test]
fn darknet_weights_dead_write_details() {
    let report = by_name("Darknet");
    let dw = report
        .findings_for("l0.weights_gpu")
        .into_iter()
        .find(|f| f.kind() == PatternKind::DeadWrite)
        .expect("DW on l0.weights_gpu");
    match &dw.evidence {
        PatternEvidence::DeadWrite { first, second } => {
            // Both writes are host→device copies (cuda_make_array then
            // cuda_push_array).
            assert_eq!(first.name.kind(), Some(GpuApiKind::Cpy), "{}", first.name);
            assert_eq!(second.name.kind(), Some(GpuApiKind::Cpy), "{}", second.name);
        }
        other => panic!("unexpected {other:?}"),
    }
    // Every layer's delta buffer is an unused allocation.
    let ua_count = report
        .findings
        .iter()
        .filter(|f| {
            f.kind() == PatternKind::UnusedAllocation && f.object.label.contains("delta_gpu")
        })
        .count();
    assert_eq!(ua_count, drgpum::workloads::darknet::LAYERS);
    // The workspace leaks.
    assert!(report
        .findings_for("net.workspace")
        .iter()
        .any(|f| f.kind() == PatternKind::MemoryLeak));
}

/// Sec. 7.3: GramSchmidt — `R_gpu` is sliced by `gramschmidt_kernel3`
/// (n−1 disjoint slices) and its per-slice access frequencies are highly
/// skewed (the paper measures 58 % variance; ours lands nearby).
#[test]
fn gramschmidt_r_gpu_structured_access_and_variance() {
    let report = by_name("GramSchmidt");
    let n = drgpum::workloads::polybench::gramschmidt::N as usize;
    let sa = report
        .findings_for("R_gpu")
        .into_iter()
        .find(|f| f.kind() == PatternKind::StructuredAccess)
        .expect("SA on R_gpu");
    match &sa.evidence {
        PatternEvidence::StructuredAccess { kernel, slices, .. } => {
            assert_eq!(kernel, "gramschmidt_kernel3");
            assert_eq!(*slices, n - 1, "one slice per iteration except the last");
        }
        other => panic!("unexpected {other:?}"),
    }
    let nuaf = report
        .findings_for("R_gpu")
        .into_iter()
        .find(|f| f.kind() == PatternKind::NonUniformAccessFrequency)
        .expect("NUAF on R_gpu");
    match &nuaf.evidence {
        PatternEvidence::NonUniformAccessFrequency { cov_pct, .. } => {
            assert!(
                (40.0..75.0).contains(cov_pct),
                "paper reports 58%; measured {cov_pct:.1}%"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// Sec. 7.3: BICG — `s_gpu` and `q_gpu` match non-uniform access frequency.
#[test]
fn bicg_vectors_have_skewed_access_frequencies() {
    let report = by_name("BICG");
    for label in ["s_gpu", "q_gpu"] {
        let nuaf = report
            .findings_for(label)
            .into_iter()
            .find(|f| f.kind() == PatternKind::NonUniformAccessFrequency)
            .unwrap_or_else(|| panic!("NUAF on {label}"));
        match &nuaf.evidence {
            PatternEvidence::NonUniformAccessFrequency { cov_pct, .. } => {
                assert!(*cov_pct > 20.0, "{label}: {cov_pct:.1}%");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// Sec. 7.4: PyTorch — the `columns` tensor of 1×1 conv layers is an
/// unused allocation (the upstreamed PR 79183 fix).
#[test]
fn pytorch_columns_unused_for_1x1_convs() {
    let report = by_name("PyTorch");
    let unused_columns: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.kind() == PatternKind::UnusedAllocation)
        .map(|f| f.object.label.clone())
        .filter(|l| l.starts_with("columns"))
        .collect();
    assert_eq!(
        unused_columns.len(),
        2,
        "layers 2 and 3 are 1x1: {unused_columns:?}"
    );
    // And their allocation call path points into slow_conv2d_forward, like
    // the paper's Listing 4.
    let f = report
        .findings
        .iter()
        .find(|f| f.object.label == "columns3")
        .expect("columns3 finding");
    assert!(f
        .object
        .alloc_path
        .iter()
        .any(|frame| frame.contains("slow_conv2d_forward")));
}

/// Sec. 7.5: XSBench — `GSD.index_grid` has ~5 % of elements accessed with
/// near-zero fragmentation (easy-win quadrant); `GSD.concs` leaks.
#[test]
fn xsbench_index_grid_overallocation_details() {
    let report = by_name("XSBench");
    let oa = report
        .findings_for("GSD.index_grid")
        .into_iter()
        .find(|f| f.kind() == PatternKind::Overallocation)
        .expect("OA on GSD.index_grid");
    match &oa.evidence {
        PatternEvidence::Overallocation {
            accessed_pct,
            fragmentation_pct,
            guidance,
            ..
        } => {
            assert!(
                (*accessed_pct - 5.0).abs() < 0.2,
                "paper: 5%; measured {accessed_pct:.2}%"
            );
            assert!(*fragmentation_pct < 1.0, "chunks are clustered");
            assert!(guidance.worth_investigating(), "easy-win quadrant");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(report
        .findings_for("GSD.concs")
        .iter()
        .any(|f| f.kind() == PatternKind::MemoryLeak));
}

/// Sec. 7.6: MiniMDock — `pMem_conformations` is the largest object, with
/// a vanishing accessed fraction and near-zero fragmentation.
#[test]
fn minimdock_conformations_overallocation_details() {
    let report = by_name("MiniMDock");
    let oa = report
        .findings_for("pMem_conformations")
        .into_iter()
        .find(|f| f.kind() == PatternKind::Overallocation)
        .expect("OA on pMem_conformations");
    assert!(oa.at_peak, "the largest object sits at the memory peak");
    match &oa.evidence {
        PatternEvidence::Overallocation {
            accessed_pct,
            fragmentation_pct,
            ..
        } => {
            // Paper: 2.4e-3 % accessed, 4.89e-3 % fragmentation.
            assert!(*accessed_pct < 0.05, "measured {accessed_pct}%");
            assert!(*fragmentation_pct < 0.05, "measured {fragmentation_pct}%");
        }
        other => panic!("unexpected {other:?}"),
    }
    // It is also the single largest wasted-bytes finding, so it ranks first.
    assert_eq!(report.findings[0].object.label, "pMem_conformations");
}

/// Sec. 7.7: Laghos — `q_dx` and `q_dy` are last accessed in
/// UpdateQuadratureData and freed only at exit.
#[test]
fn laghos_quadrature_buffers_late_deallocation_details() {
    let report = by_name("Laghos");
    for label in ["q_dx", "q_dy"] {
        let ld = report
            .findings_for(label)
            .into_iter()
            .find(|f| f.kind() == PatternKind::LateDeallocation)
            .unwrap_or_else(|| panic!("LD on {label}"));
        match &ld.evidence {
            PatternEvidence::LateDeallocation {
                last_access,
                intervening,
                ..
            } => {
                assert_eq!(
                    last_access.name.kind(),
                    Some(GpuApiKind::Kerl),
                    "{}",
                    last_access.name
                );
                assert!(*intervening >= 2, "the whole solver runs in between");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(ld.suggestion.contains(label), "suggestion names the object");
    }
}
