//! A cleanly finished streaming trace is a complete trace: batch and
//! streaming recordings share one format, so `drgpum reanalyze --strict`
//! loads a finished `--stream-trace` file with no salvage and exits 0,
//! exactly as it does a `--save-trace` file. Every API row goes out once,
//! complete, so each delta-prefix of a stream recovers its rows with the
//! accesses the finished trace gives them.

use drgpum::profiler::trace_io;
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

/// Byte offsets at which each `delta` frame of a trace's text ends.
fn delta_ends(text: &str) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0;
    while let Some(off) = text[at..].find("section delta ") {
        let header = at + off;
        let payload = header + text[header..].find('\n').unwrap() + 1;
        let len: usize = text[header..payload]
            .split(' ')
            .nth(2)
            .unwrap()
            .parse()
            .unwrap();
        at = payload + len + 1;
        ends.push(at);
    }
    ends
}

#[test]
fn every_delta_prefix_recovers_complete_api_rows() {
    let trace = temp_path("darknet-prefixes.stream");
    let run = Command::new(env!("CARGO_BIN_EXE_drgpum"))
        .args(["run", "Darknet", "--intra", "--stream-trace"])
        .arg(&trace)
        .output()
        .expect("spawn drgpum run");
    assert!(run.status.success(), "profiled run failed: {run:?}");
    let text = std::fs::read_to_string(&trace).expect("trace readable");
    std::fs::remove_file(&trace).ok();
    let full = trace_io::load(&text).expect("a finished stream loads strictly");
    let all = full.accesses();
    let ends = delta_ends(&text);
    // One delta per API row: a kernel's row waits for kernel end instead of
    // going out at launch and again with its accesses.
    assert_eq!(ends.len(), full.api_count(), "deltas per API row");
    for (k, &end) in ends.iter().enumerate() {
        let (prefix, _) = trace_io::salvage(&text[..end]);
        let n = prefix.api_count();
        assert_eq!(n, k + 1, "delta {k} adds one API row");
        let expected: Vec<_> = all.iter().filter(|a| a.api_idx < n).copied().collect();
        assert_eq!(prefix.accesses(), expected, "delta {k}: rows lack accesses");
    }
}
