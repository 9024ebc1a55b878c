//! `drgpum run` and `drgpum reanalyze` reject any argument they do not
//! take: a misspelled or removed flag, or an extra positional, is a usage
//! error (exit 2) that names the token, never a silent run.

use std::process::Command;

/// Runs the CLI and returns its exit code and stderr.
fn drgpum(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_drgpum"))
        .args(args)
        .output()
        .expect("spawn drgpum");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_rejected(args: &[&str], token: &str) {
    let (code, stderr) = drgpum(args);
    assert_eq!(code, Some(2), "drgpum {args:?} exit code; stderr: {stderr}");
    assert!(
        stderr.contains(&format!("unexpected argument `{token}`")),
        "drgpum {args:?} must name `{token}`; stderr: {stderr}"
    );
}

#[test]
fn run_rejects_a_misspelled_flag() {
    assert_rejected(&["run", "huffman", "--bogus-flag", "x"], "--bogus-flag");
    assert_rejected(&["run", "--platfrom", "a100", "huffman"], "--platfrom");
}

#[test]
fn run_rejects_the_deleted_html_flag() {
    assert_rejected(&["run", "huffman", "--html", "out.html"], "--html");
}

#[test]
fn run_rejects_an_extra_positional() {
    assert_rejected(&["run", "huffman", "2MM"], "2MM");
    assert_rejected(&["run", "--resume", "t.trace", "extra"], "extra");
}

#[test]
fn reanalyze_rejects_unknown_flags_and_extra_positionals() {
    assert_rejected(&["reanalyze", "--no-such-flag", "t"], "--no-such-flag");
    assert_rejected(&["reanalyze", "a.trace", "b.trace"], "b.trace");
}

#[test]
fn known_flags_are_still_accepted() {
    let (code, stderr) = drgpum(&["run", "huffman", "--intra", "--period", "2", "--strict"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
}
