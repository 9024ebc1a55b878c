//! The trace format (version 5) pinned through hand-written traces: object
//! updates replayed across deltas, lifetime frequency runs that a strict
//! load rejects and a salvage drops, call-path references to undefined
//! path entries, and strings that need escaping; plus a streamed trace cut
//! after every delta frame.
//!
//! Frames are built here with a bitwise CRC-32, an independent reference
//! for the slicing-by-8 one the library uses.

use drgpum::prelude::*;
use drgpum::profiler::{trace_io, TraceError};
use drgpum::sim::pool::SharedPoolObserver;
use drgpum::workloads::common::Variant;
use drgpum::workloads::registry::RunConfig;

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
/// frame and a first delta that defines call path 0 and nothing else.
fn trace(frames: &[(&str, String)]) -> String {
    let mut text = String::from("DRGPUM-TRACE 5\n");
    let meta = ("meta", r#"["rtx3090"]"#.to_owned());
    let path = ("delta", r#"[[["main @ app.rs:1"]],[],[],[],[]]"#.to_owned());
    for (name, payload) in [&meta, &path].into_iter().chain(frames) {
        text += &format!(
            "section {name} {} {}\n{payload}\n",
            payload.len(),
            crc32(payload.as_bytes())
        );
    }
    text + "end\n"
}

/// An object row: 64 bytes, allocated before the first API at call
/// path 0.
fn object(id: u64, free_api: Option<usize>) -> String {
    let free = free_api.map_or("null".to_owned(), |f| f.to_string());
    format!(r#"[{id},"obj{id}",64,"cuda",0,false,{free},false,0]"#)
}

/// A delta payload with no path entry and no API or usage rows.
fn delta(objects: &[String], updates: &[String]) -> (&'static str, String) {
    (
        "delta",
        format!("[[],[],[{}],[{}],[]]", objects.join(","), updates.join(",")),
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

#[test]
fn api_details_render_their_old_text_and_round_trip() {
    let mut ctx = DeviceContext::new_default();
    // Allocated before the profiler attaches: its FREE names a pointer the
    // registry never saw.
    let unseen_label = "unseen \"before\" attach";
    let unseen = ctx.malloc(64, unseen_label).unwrap();
    let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
    let label = "quote\" back\\slash\nnew\ttab\u{1}ctl é [,]";
    let kernel = "kern\"el\\ \u{2} é";
    let a = ctx.malloc(256, label).unwrap();
    let b = ctx.malloc(4096, "b").unwrap();
    ctx.memset(a, 0, 256).unwrap();
    ctx.memcpy_h2d(b, &[1u8; 100]).unwrap();
    ctx.memcpy_d2h(&mut [0u8; 7], a).unwrap();
    ctx.memcpy_d2d(b, a, 256).unwrap();
    let cfg = LaunchConfig::cover(4, 4).unwrap();
    ctx.launch(kernel, cfg, StreamId::DEFAULT, move |t| {
        let i = t.global_x();
        if i < 4 {
            t.store_f32(a + i * 4, 1.0);
        }
    })
    .unwrap();
    ctx.free(a).unwrap();
    ctx.free(unseen).unwrap();

    let collector = profiler.collector();
    let collector = collector.lock();
    // What each row's detail was formatted as when it was a `String`.
    let size = 256u64;
    let want = [
        label.to_owned(),
        "b".to_owned(),
        format!("{size}B set"),
        format!("{}B H2D", 100),
        format!("{}B D2H", 7),
        format!("{size}B D2D"),
        kernel.to_owned(),
        label.to_owned(),
        unseen_label.to_owned(),
    ];
    let details: Vec<String> = collector
        .gpu_apis()
        .iter()
        .map(|api| api.detail.to_string())
        .collect();
    assert_eq!(details, want);
    for api in collector.gpu_apis() {
        let mut text = String::new();
        api.detail.write_to(&mut text);
        assert_eq!(text, api.detail.to_string());
        assert_eq!(api.detail.rendered_len(), text.len(), "{text}");
    }
    // A loaded row holds its detail as text: writing it again must give
    // the bytes the live rows were written as.
    let text = trace_io::save(&collector, ctx.call_stack().table(), "rtx3090").to_text();
    let again = trace_io::load(&text).expect("loads strictly").to_text();
    assert_eq!(again, text);
}

#[test]
fn crc32_matches_a_bytewise_model_at_every_length_and_offset() {
    let mut rng = drgpum::sim::SplitMix64::new(0xC0C);
    let bytes: Vec<u8> = (0..308).map(|_| rng.next_below(256) as u8).collect();
    assert_eq!(trace_io::crc32(b"123456789"), 0xCBF4_3926);
    for start in 0..8 {
        for len in 0..300 {
            let slice = &bytes[start..start + len];
            assert_eq!(
                trace_io::crc32(slice),
                crc32(slice),
                "start {start}, length {len}"
            );
        }
    }
}

#[test]
fn a_version_3_trace_is_unsupported() {
    // Versions 3 and 4 both carried a separate access list; neither loads.
    let v5 = trace(&[delta(&[object(1, None)], &[]), checkpoint("")]);
    for old in [3, 4] {
        let text = v5.replacen("DRGPUM-TRACE 5", &format!("DRGPUM-TRACE {old}"), 1);
        match trace_io::load(&text) {
            Err(TraceError::UnsupportedVersion {
                found,
                supported: 5,
            }) if found == old => {}
            other => panic!("a v{old} trace must be refused, got {other:?}"),
        }
    }
}

#[test]
fn an_undefined_path_id_is_a_dangling_reference() {
    // One ALLOC row naming path 7; only path 0 is defined.
    let api = r#"["ALLOC","obj1",0,0,[],[1],[],[],0,1,7]"#;
    let rows = (
        "delta",
        format!("[[],[{api}],[{}],[],[0,64]]", object(1, None)),
    );
    let text = trace(&[rows, ("checkpoint", "[1,[],[]]".to_owned())]);
    match trace_io::load(&text) {
        Err(TraceError::BadReference { section, reason }) => {
            assert_eq!(section, "paths");
            assert!(reason.contains("api #0 names path 7"), "{reason}");
        }
        other => panic!("an undefined path id must be refused, got {other:?}"),
    }
    let (salvaged, losses) = trace_io::salvage(&text);
    assert_eq!(
        losses.notes,
        ["dropped 1 dangling call-path reference(s)"],
        "exactly the dangling path is noted"
    );
    assert_eq!(salvaged.api_call_path(0).map(|p| p.len()), Some(0));
    assert_eq!(
        salvaged.object_call_path(0).map(|p| &*p[0]),
        Some("main @ app.rs:1")
    );
    let report = salvaged.reanalyze_with(&Thresholds::default(), losses.to_degradations());
    assert!(report.is_degraded());
    assert_eq!(report.stats.gpu_apis, 1);
}

/// Streams an intra-object PyTorch run (its caching pool observed) and
/// returns the finished trace text.
fn streamed_pytorch() -> String {
    let path = std::env::temp_dir().join(format!("drgpum-v5-{}-pytorch", std::process::id()));
    let spec = drgpum::workloads::by_name("PyTorch").expect("registered workload");
    let mut ctx = DeviceContext::new_default();
    let mut options = ProfilerOptions::intra_object();
    options.track_pool_tensors = spec.uses_pool;
    let profiler =
        Profiler::attach_streaming(&mut ctx, options, &path).expect("trace file creatable");
    let cfg = RunConfig {
        pool_observer: Some(profiler.collector() as SharedPoolObserver),
    };
    (spec.run)(&mut ctx, Variant::Unoptimized, &cfg).expect("clean run");
    profiler.finish_stream().expect("clean finish");
    let text = std::fs::read_to_string(&path).expect("trace readable");
    std::fs::remove_file(&path).ok();
    text
}

#[test]
fn every_delta_prefix_of_a_stream_resolves_its_call_paths() {
    let text = streamed_pytorch();
    let full = trace_io::load(&text).expect("a finished stream loads strictly");
    // Ends of the delta frames, and which of them define new paths (a
    // payload opening `[[[` starts a non-empty path list).
    let mut cuts = Vec::new();
    let mut with_paths = Vec::new();
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
        if text[payload..].starts_with("[[[") {
            with_paths.push(cuts.len());
        }
        at = payload + len + 1;
        cuts.push(at);
    }
    assert!(cuts.len() > 10, "{} delta frames", cuts.len());
    assert!(
        with_paths.len() >= 2 && with_paths[1] > 0,
        "later deltas must bring new call paths: {with_paths:?}"
    );
    for (k, &cut) in cuts.iter().enumerate() {
        let (prefix, losses) = trace_io::salvage(&text[..cut]);
        assert!(
            losses.notes.iter().all(|n| !n.contains("call-path")),
            "delta {k}: {:?}",
            losses.notes
        );
        assert!(prefix.api_count() <= full.api_count());
        for i in 0..prefix.api_count() {
            let path = prefix.api_call_path(i).expect("api path resolves");
            assert_eq!(Some(path), full.api_call_path(i), "delta {k}: api {i}");
        }
        for i in 0..prefix.object_count() {
            let path = prefix.object_call_path(i).expect("object path resolves");
            assert_eq!(
                Some(path),
                full.object_call_path(i),
                "delta {k}: object {i}"
            );
        }
    }
}
