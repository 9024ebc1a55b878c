//! A caching-pool run is clean: the pool's backing slab and the tensor
//! carved at its base are separate live objects, so the slab's `cudaFree`
//! retires the slab instead of being reported as a free of an unknown
//! pointer, and `drgpum run PyTorch` exits 0 rather than 3 (degraded).

use std::process::Command;

#[test]
fn pytorch_run_frees_its_pool_slab_cleanly() {
    let run = Command::new(env!("CARGO_BIN_EXE_drgpum"))
        .args(["run", "PyTorch"])
        .output()
        .expect("spawn drgpum run");
    let out = format!(
        "{}{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    assert_eq!(run.status.code(), Some(0), "PyTorch run degraded: {out}");
    assert!(!out.contains("unknown pointer"), "{out}");
}

#[test]
fn cuda_free_of_a_tensor_base_names_its_call_path() {
    use drgpum::prelude::*;
    use drgpum::sim::pool::CachingPool;

    let mut ctx = DeviceContext::new_default();
    // The pool is reserved before the profiler attaches, so its slab is no
    // data object: a `cudaFree` of the tensor carved at the slab's base
    // retires nothing and is an unknown free.
    let mut pool = CachingPool::reserve(&mut ctx, 1 << 16).unwrap();
    let profiler = Profiler::attach(
        &mut ctx,
        ProfilerOptions::object_level().with_pool_tracking(),
    );
    profiler.observe_pool(&mut pool);
    let tensor = pool.alloc(&mut ctx, 256, "tensor").unwrap();
    assert_eq!(
        tensor,
        pool.slab(),
        "the first tensor sits at the slab base"
    );
    ctx.with_frame(SourceLoc::new("main", "train.py", 1), |ctx| {
        ctx.with_frame(SourceLoc::new("release_early", "train.py", 42), |ctx| {
            ctx.free(tensor).unwrap();
        });
    });
    let report = profiler.report(&ctx);
    let unknown: Vec<&str> = report
        .degradations
        .iter()
        .map(|d| d.detail.as_str())
        .filter(|d| d.contains("unknown pointer"))
        .collect();
    assert_eq!(unknown.len(), 1, "{:?}", report.degradations);
    assert!(
        unknown[0].ends_with("; freed at #0 release_early @ train.py:42, #1 main @ train.py:1"),
        "{}",
        unknown[0]
    );
}
