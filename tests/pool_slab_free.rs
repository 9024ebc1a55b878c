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
