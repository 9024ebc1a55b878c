//! Deterministic trace-salvage edge cases: a zero-length final section,
//! truncation inside a frame's length prefix, truncation inside the CRC,
//! and an intact frame whose intra-object map declares a size its object
//! does not have. Each must salvage to exactly what is intact, with the
//! losses counted in the `SalvageReport` — never a panic or an abort,
//! never silent loss.

use drgpum::prelude::*;
use drgpum::profiler::{trace_io, TraceError};
use drgpum::workloads::common::Variant;
use drgpum::workloads::registry::RunConfig;
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("drgpum-edge-{}-{name}", std::process::id()))
}

/// Streams a small, fully controlled session: five API events (two
/// mallocs, two memsets, one free) — few enough that the only checkpoint
/// is the final one — then returns the on-disk stream text.
fn small_streamed_trace(name: &str) -> String {
    let path = temp_path(name);
    let mut ctx = DeviceContext::new_default();
    let profiler = Profiler::attach_streaming(&mut ctx, ProfilerOptions::intra_object(), &path)
        .expect("trace file creatable");
    let a = ctx.malloc(512, "a").unwrap();
    ctx.memset(a, 0, 512).unwrap();
    let b = ctx.malloc(256, "b").unwrap();
    ctx.memset(b, 1, 256).unwrap();
    ctx.free(a).unwrap();
    // `b` is deliberately leaked so the prefix has a finding to report.
    profiler.finish_stream().expect("clean finish");
    let text = std::fs::read_to_string(&path).expect("trace readable");
    std::fs::remove_file(&path).ok();
    text
}

#[test]
fn zero_length_final_section_is_dropped_and_counted() {
    let clean = small_streamed_trace("zerolen.trace");
    let base = clean
        .strip_suffix("end\n")
        .expect("clean stream ends with the finish marker");
    // A zero-length `delta` frame: framing-valid, but an empty payload is
    // not decodable JSON, so salvage must stop exactly there.
    let crafted = format!("{base}section delta 0 0\n");

    let (damaged, losses) = trace_io::salvage(&crafted);
    let (intact, _) = trace_io::salvage(&clean);
    assert_eq!(damaged.api_count(), intact.api_count());
    assert_eq!(damaged.object_count(), intact.object_count());
    assert_eq!(
        losses.notes.len(),
        2,
        "exactly the damaged frame and the missing finish marker: {:?}",
        losses.notes
    );
    assert!(losses.notes[0].contains("damaged streaming frame"));
    assert!(losses.notes[1].contains("no clean-finish marker"));

    // Everything before the damage survived, so the analysis matches the
    // cleanly finished recording.
    assert_eq!(
        damaged.reanalyze(&Thresholds::default()).render_text(),
        intact.reanalyze(&Thresholds::default()).render_text()
    );
}

#[test]
fn truncation_inside_a_length_prefix_keeps_the_intact_prefix() {
    let clean = small_streamed_trace("midlen.trace");
    // Cut inside the final checkpoint's header, right after the first
    // digit of its length field: `section checkpoint 1…` with no CRC.
    let header_at = clean
        .rfind("section checkpoint ")
        .expect("final checkpoint present");
    let cut = header_at + "section checkpoint ".len() + 1;
    let crafted = &clean[..cut];

    let (damaged, losses) = trace_io::salvage(crafted);
    let (intact, _) = trace_io::salvage(&clean);
    // All five delta frames precede the checkpoint, so every API event
    // survives; only the checkpointed maps are lost.
    assert_eq!(damaged.api_count(), intact.api_count());
    assert_eq!(
        losses.notes.len(),
        3,
        "damaged frame + no finish marker + lost checkpoint: {:?}",
        losses.notes
    );
    assert!(losses.notes[0].contains("damaged streaming frame"));
    assert!(losses.notes[1].contains("no clean-finish marker"));
    assert!(losses.notes[2].contains("no checkpoint recovered"));

    let report = trace_io::reanalyze_salvaged(crafted, &Thresholds::default());
    assert!(report.is_degraded(), "losses must surface in the report");
    assert_eq!(report.detectors.len(), 4);
    assert_eq!(report.stats.gpu_apis, damaged.api_count() as u64);
}

#[test]
fn truncation_inside_a_crc_stops_at_the_previous_frame() {
    let clean = small_streamed_trace("midcrc.trace");
    // Chop the last character of the final delta frame's CRC (and with it
    // the whole payload): the header still parses, the payload is gone.
    let header_at = clean.rfind("section delta ").expect("delta frames present");
    let header_end = header_at + clean[header_at..].find('\n').expect("header line ends");
    let crafted = &clean[..header_end - 1];
    // The intact prefix ends just before that frame's header line.
    let prefix = &clean[..header_at];

    let (damaged, losses) = trace_io::salvage(crafted);
    let (intact_prefix, _) = trace_io::salvage(prefix);
    assert_eq!(
        damaged.api_count(),
        intact_prefix.api_count(),
        "salvage must recover exactly the frames before the damage"
    );
    assert_eq!(
        damaged.api_count() + 1,
        clean.matches("section delta ").count(),
        "exactly the final delta frame is lost"
    );
    assert!(!losses.is_lossless());
    assert!(losses.notes[0].contains("damaged streaming frame"));

    // Same prefix in, same analysis out.
    assert_eq!(
        damaged.reanalyze(&Thresholds::default()).render_text(),
        intact_prefix
            .reanalyze(&Thresholds::default())
            .render_text()
    );
}

#[test]
fn batch_trace_truncated_mid_frame_salvages_the_intact_sections() {
    // The same edge cases hold for the batch (non-streaming) format: cut a
    // saved trace inside a section header and salvage what frames intact.
    let mut ctx = DeviceContext::new_default();
    let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
    let a = ctx.malloc(512, "a").unwrap();
    ctx.memset(a, 0, 512).unwrap();
    ctx.free(a).unwrap();
    let collector = profiler.collector();
    let collector = collector.lock();
    let text = trace_io::save(&collector, ctx.call_stack().table(), "rtx3090").to_text();
    drop(collector);

    let header_at = text.rfind("section ").expect("framed sections");
    let cut = header_at + "section ".len() + 2;
    let crafted = &text[..cut];
    let (salvaged, losses) = trace_io::salvage(crafted);
    assert!(!losses.is_lossless());
    // Earlier sections frame-check independently, so the APIs survive the
    // loss of the trailing section.
    assert_eq!(salvaged.api_count(), 3);
    let report = trace_io::reanalyze_salvaged(crafted, &Thresholds::default());
    assert!(report.is_degraded());
    assert_eq!(report.detectors.len(), 4);
}

/// Profiles `2MM` as `drgpum run 2MM --intra --save-trace` does and returns
/// the saved trace text.
fn two_mm_trace() -> String {
    let spec = drgpum::workloads::registry::by_name("2MM").expect("2MM is registered");
    let mut ctx = DeviceContext::new_default();
    let mut options = ProfilerOptions::intra_object();
    if let Some(elem) = spec.elem_size_hint {
        options.elem_size = elem;
    }
    let profiler = Profiler::attach(&mut ctx, options);
    let cfg = RunConfig {
        pool_observer: None,
    };
    (spec.run)(&mut ctx, Variant::Unoptimized, &cfg).expect("2MM runs");
    let collector = profiler.collector();
    let text = trace_io::save(&collector.lock(), ctx.call_stack().table(), "rtx3090").to_text();
    text
}

#[test]
fn an_intra_map_sized_unlike_its_object_is_refused_before_it_is_built() {
    let clean = two_mm_trace();
    // Declare the first map (object 0, 2304 bytes) 2^62 bytes, then
    // reframe the checkpoint with the new length and CRC: the frame is
    // intact, only the size is wrong. Built as declared, the map's bitmap
    // alone would need 2^59 bytes.
    let header_at = clean.find("section checkpoint ").expect("checkpoint");
    let payload_at = header_at + clean[header_at..].find('\n').expect("header ends") + 1;
    let payload_end = payload_at + clean[payload_at..].find('\n').expect("payload ends");
    let payload = &clean[payload_at..payload_end];
    assert!(payload.contains("[[0,2304,"), "{payload}");
    let payload = payload.replacen("[[0,2304,", &format!("[[0,{},", 1u64 << 62), 1);
    let crafted = format!(
        "{}section checkpoint {} {}\n{payload}{}",
        &clean[..header_at],
        payload.len(),
        trace_io::crc32(payload.as_bytes()),
        &clean[payload_end..]
    );

    match trace_io::load(&crafted) {
        Err(TraceError::Malformed { section, reason }) => {
            assert_eq!(section, "checkpoint");
            assert!(reason.contains(&(1u64 << 62).to_string()), "{reason}");
        }
        other => panic!("unexpected {other:?}"),
    }

    let (salvaged, losses) = trace_io::salvage(&crafted);
    assert_eq!(losses.notes.len(), 1, "{:?}", losses.notes);
    assert!(losses.notes[0].contains("dropped an intra-object map"));
    let intact = trace_io::load(&clean).expect("the clean trace loads");
    assert_eq!(salvaged.api_count(), intact.api_count());
    assert_eq!(salvaged.object_count(), intact.object_count());

    let report = trace_io::reanalyze_salvaged(&crafted, &Thresholds::default());
    assert!(report.is_degraded(), "the dropped map must surface");
    assert_eq!(report.stats, intact.reanalyze(&Thresholds::default()).stats);
}
