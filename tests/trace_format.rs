//! The trace format (version 3) pinned through hand-written traces: object
//! updates replayed across deltas, lifetime frequency runs that a strict
//! load rejects and a salvage drops, and strings that need escaping.
//!
//! Frames are built here with a bitwise CRC-32, an independent reference
//! for the table-driven one the library uses.

use drgpum::prelude::*;
use drgpum::profiler::{trace_io, TraceError};

/// CRC-32 (IEEE 802.3, reflected), one bit at a time.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// A finished trace holding `frames` (`(name, payload)`) after the meta
/// frame.
fn trace(frames: &[(&str, String)]) -> String {
    let mut text = String::from("DRGPUM-TRACE 3\n");
    let meta = ("meta", r#"["rtx3090"]"#.to_owned());
    for (name, payload) in std::iter::once(&meta).chain(frames) {
        text += &format!(
            "section {name} {} {}\n{payload}\n",
            payload.len(),
            crc32(payload.as_bytes())
        );
    }
    text + "end\n"
}

/// An object row: 64 bytes, allocated before the first API.
fn object(id: u64, free_api: Option<usize>) -> String {
    let free = free_api.map_or("null".to_owned(), |f| f.to_string());
    format!(r#"[{id},"obj{id}",64,"cuda",0,false,{free},false,[]]"#)
}

/// A delta payload with no API, access or usage rows.
fn delta(objects: &[String], updates: &[String]) -> (&'static str, String) {
    (
        "delta",
        format!(
            "[[],[],[],[{}],[{}],[]]",
            objects.join(","),
            updates.join(",")
        ),
    )
}

/// A checkpoint whose one map, for object 1 (64 bytes, 4-byte elements, so
/// 16 elements), has the flat lifetime runs `runs`.
fn checkpoint(runs: &str) -> (&'static str, String) {
    (
        "checkpoint",
        format!("[0,[[1,64,[],[],null,[4,[{runs}]]]],[]]"),
    )
}

/// Loads `text` strictly, checks a salvage of it is lossless, and returns
/// the reanalyzed report.
fn load_losslessly(text: &str) -> Report {
    let loaded = trace_io::load(text).expect("crafted trace loads strictly");
    let (salvaged, losses) = trace_io::salvage(text);
    assert!(losses.is_lossless(), "{:?}", losses.notes);
    assert_eq!(salvaged.object_count(), loaded.object_count());
    loaded.reanalyze(&Thresholds::default())
}

#[test]
fn object_update_replaces_an_early_row_in_place() {
    let text = trace(&[
        delta(&[object(1, None), object(2, None)], &[]),
        delta(&[], &[object(1, Some(0))]),
        checkpoint(""),
    ]);
    let report = load_losslessly(&text);
    assert_eq!(report.stats.objects, 2);
    // Object 1 was freed by the update, so only object 2 leaks.
    assert_eq!(report.stats.leaked_objects, 1);
}

#[test]
fn object_update_with_an_unknown_id_is_appended() {
    let text = trace(&[
        delta(&[object(1, None), object(2, None)], &[]),
        delta(&[], &[object(7, None)]),
        checkpoint(""),
    ]);
    let report = load_losslessly(&text);
    assert_eq!(report.stats.objects, 3);
    assert_eq!(report.stats.leaked_objects, 3);
}

/// Asserts a strict load rejects `runs` with a reason containing `why`,
/// and a salvage drops only that map's counts, with one note.
fn assert_runs_rejected(runs: &str, why: &str) {
    let text = trace(&[delta(&[object(1, None)], &[]), checkpoint(runs)]);
    match trace_io::load(&text) {
        Err(TraceError::Malformed { section, reason }) => {
            assert_eq!(section, "checkpoint");
            assert!(reason.contains(why), "{reason}");
        }
        other => panic!("runs [{runs}] must be rejected, got {other:?}"),
    }
    let (salvaged, losses) = trace_io::salvage(&text);
    assert_eq!(losses.notes.len(), 1, "{:?}", losses.notes);
    assert!(losses.notes[0].contains("dropped the lifetime counts of object 1"));
    assert_eq!(salvaged.object_count(), 1);
    let report = salvaged.reanalyze_with(&Thresholds::default(), losses.to_degradations());
    assert!(report.is_degraded());
}

#[test]
fn runs_out_of_order_are_rejected() {
    assert_runs_rejected("4,2,1,0,2,1", "not sorted");
}

#[test]
fn overlapping_runs_are_rejected() {
    assert_runs_rejected("0,4,1,2,4,2", "overlaps");
}

#[test]
fn zero_length_runs_are_rejected() {
    assert_runs_rejected("0,0,1", "zero length");
}

#[test]
fn zero_count_runs_are_rejected() {
    assert_runs_rejected("0,3,0", "zero count");
}

#[test]
fn runs_past_the_last_element_are_rejected() {
    assert_runs_rejected("15,2,1", "ends past element 16");
}

#[test]
fn runs_at_both_ends_with_extreme_counts_load() {
    let text = trace(&[
        delta(&[object(1, None)], &[]),
        checkpoint("0,1,4294967295,15,1,3"),
    ]);
    load_losslessly(&text);
}

#[test]
fn strings_round_trip_through_escapes() {
    let mut ctx = DeviceContext::new_default();
    let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
    let label = "quote\" back\\slash\nnew\ttab\u{1}ctl é [,]";
    ctx.malloc(64, label).unwrap();
    let collector = profiler.collector();
    let collector = collector.lock();
    let mut saved = trace_io::save(&collector, ctx.call_stack().table(), "rtx3090");
    drop(collector);
    saved.platform = label.to_owned();
    let back = trace_io::load(&saved.to_text()).expect("escaped strings load");
    assert_eq!(back.platform, label);
    assert_eq!(
        back.reanalyze(&Thresholds::default()).render_text(),
        saved.reanalyze(&Thresholds::default()).render_text()
    );
}
