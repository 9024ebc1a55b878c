//! A cleanly finished streaming trace is a complete trace: batch and
//! streaming recordings share one format, so `drgpum reanalyze --strict`
//! loads a finished `--stream-trace` file with no salvage and exits 0,
//! exactly as it does a `--save-trace` file.

use std::path::PathBuf;
use std::process::Command;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("drgpum-strict-{}-{name}", std::process::id()))
}

/// Records Darknet under `--intra` with `flag` and returns the stdout of
/// `drgpum reanalyze --strict` on the recording, asserting exit code 0.
fn record_and_reanalyze_strictly(flag: &str, name: &str) -> String {
    let bin = env!("CARGO_BIN_EXE_drgpum");
    let trace = temp_path(name);
    let run = Command::new(bin)
        .args(["run", "Darknet", "--intra", flag])
        .arg(&trace)
        .output()
        .expect("spawn drgpum run");
    assert!(run.status.success(), "{flag}: profiled run failed: {run:?}");
    let reanalyzed = Command::new(bin)
        .args(["reanalyze", "--strict"])
        .arg(&trace)
        .output()
        .expect("spawn drgpum reanalyze");
    std::fs::remove_file(&trace).ok();
    let stdout = String::from_utf8_lossy(&reanalyzed.stdout).into_owned();
    assert_eq!(
        reanalyzed.status.code(),
        Some(0),
        "{flag}: strict reanalysis must succeed: {stdout}{}",
        String::from_utf8_lossy(&reanalyzed.stderr)
    );
    assert!(
        stdout.starts_with("loaded trace: "),
        "{flag}: the trace loads strictly, without salvage: {stdout}"
    );
    stdout
}

#[test]
fn finished_stream_trace_passes_strict_reanalyze() {
    let streamed = record_and_reanalyze_strictly("--stream-trace", "darknet.stream");
    let batch = record_and_reanalyze_strictly("--save-trace", "darknet.trace");
    assert_eq!(
        streamed, batch,
        "streamed and batch recordings reanalyze to the same report"
    );
}
