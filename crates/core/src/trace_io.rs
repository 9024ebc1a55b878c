//! Saving, loading, and re-analyzing traces offline — resiliently.
//!
//! DrGPUM's workflow splits online collection from offline analysis
//! (Fig. 1). A [`SavedTrace`] is the analyzer's one input: everything the
//! offline analyzer consumes — the GPU-API trace with object def/use sets,
//! object rows with call-path ids and the path table, the usage curve, the
//! intra-object access maps and the unified-memory pages — in the forms
//! the detectors read. [`save`] clones it out of a collector; the live
//! [`crate::Profiler::report`] analyzes that clone, and
//! [`SavedTrace::reanalyze`] re-runs the same analysis on a trace loaded
//! back, possibly with *different thresholds*, without re-running the
//! program. That is how a user tunes the paper's user-tunable `X`
//! parameters (Sec. 3) interactively over one recording.
//!
//! # On-disk format (version 4)
//!
//! There is one format. A batch trace ([`SavedTrace::to_text`]) is a stream
//! with a single `delta` and a single `checkpoint`; a streaming trace
//! ([`crate::trace_stream`]) appends one `delta` per GPU API event and a
//! `checkpoint` every few deltas:
//!
//! ```text
//! DRGPUM-TRACE 4
//! section meta <byte-len> <crc32>
//! ["rtx3090"]
//! section delta <byte-len> <crc32>
//! [[path...],[api...],[[idx,api]...],[access...],[object...],[object...],[idx,bytes,...]]
//! section checkpoint <byte-len> <crc32>
//! [api_count,[intra...],[unified...]]
//! end
//! ```
//!
//! Every frame carries its payload's length and CRC-32, so a reader can
//! tell exactly which frames of a damaged file are intact. Payloads are
//! positional JSON arrays with no whitespace, written straight into the
//! output text and read back by a byte cursor. Deltas append rows at
//! implicit indices (path entries in path-id order, API rows in trace
//! order) and re-emit rows whose def/use sets or free state changed.
//!
//! A path entry is one call path, its frames rendered innermost first. An
//! API row `[kind,detail,stream,ordinal,reads,writes,frees,after,start,
//! end,path]` and an object row `[id,label,size,source,alloc_api,
//! alloc_is_api,free_api,free_is_api,path]` name their call path by id,
//! and a delta carries each new path entry ahead of its rows, so every
//! prefix of a stream that ends on a frame defines every path it uses. An
//! API's display name is not stored: it is `kind(stream, ordinal)`. The
//! enum fields `kind`, `source` and an access's `via` are short words
//! (`"KERL"`, `"pool_tensor"`, `"memcpy"`).
//!
//! Intra-object and unified-memory maps are mutated in place during
//! collection, so they travel in `checkpoint` snapshots, the latest of
//! which wins. The encoder writes a map's bitmap as its accessed byte
//! ranges and its lifetime access frequencies as sorted, disjoint runs
//! `(first element, elements, count)` of equal nonzero counts.
//!
//! Loading shares text instead of copying it per row. A string is read
//! in place, borrowed from the payload unless it holds an escape. A
//! launch's kernel name, an ALLOC's or FREE's label, an object row's label
//! and a call-path frame come from one table keyed by text, which lives
//! across all delta frames: rows with the same text share one `Arc<str>`.
//! A CPY or SET row's detail becomes [`ApiDetail::Bytes`] only when its
//! text is exactly what that variant renders — a canonical `u64`, `B `,
//! and the row kind's word; any other text stays [`ApiDetail::Text`].
//! Every decoded detail renders its source text, so save → load → save is
//! byte-identical.
//!
//! Both readers replay the frames in order with one decoder:
//!
//! * [`load`] is **strict**: the replay must lose nothing — any framing
//!   damage, checksum mismatch, version skew (a version 3 trace
//!   included), missing finish marker, invalid frequency run, or dangling
//!   cross-reference — a path id no entry defines among them — is a typed
//!   [`TraceError`].
//! * [`salvage`] **never fails**: it drops a frame whose length is intact
//!   but whose checksum or payload is bad, continues past a dropped `meta`
//!   or `checkpoint` frame, stops at the first damaged `delta` (deltas are
//!   positional) or broken framing, then drops dangling records and points
//!   rows with an undefined path id at an empty path. Every loss is
//!   reported as a [`DegradationRecord`] so a partial report is
//!   honest about being partial.
//!
//! Both readers build a map's bitmap and frequency map only after checking
//! the map against its object row: a map sized unlike its object is a
//! typed error to [`load`] and a dropped map to [`salvage`], so a crafted
//! size never reaches an allocation.

use crate::accessmap::{AccessBitmap, FreqMap, RangeSet};
use crate::analyzer;
use crate::collector::{Collector, GpuApi, RawAccess};
use crate::depgraph::{ObjectList, VertexAccess};
use crate::error::TraceError;
use crate::names::{push_u64, ApiDetail, ByteOp, GpuApiKind, PathId, PathText};
use crate::object::{DataObject, IdMap, ObjectId, ObjectSource};
use crate::options::Thresholds;
use crate::patterns::intra::{IntraObjectData, NuafObservation};
use crate::patterns::unified::UnifiedPageStats;
use crate::patterns::AccessVia;
use crate::peaks::UsageSample;
use crate::report::{DegradationRecord, Report};
use gpu_sim::{FrameTable, StreamId};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// Serialization format version this build writes and reads strictly.
pub const FORMAT_VERSION: u32 = 4;

/// Magic word opening every trace file.
const MAGIC: &str = "DRGPUM-TRACE";

/// One data object as the analyzer reads it: a registry object without
/// its address.
#[derive(Debug, Clone)]
pub(crate) struct SavedObject {
    pub(crate) id: ObjectId,
    /// Shared with the registry object, or with every row of a loaded
    /// trace that carries the same text.
    pub(crate) label: Arc<str>,
    pub(crate) size: u64,
    pub(crate) source: ObjectSource,
    /// Trace position after which the object existed.
    pub(crate) alloc_api: usize,
    pub(crate) alloc_is_api: bool,
    /// Trace position of the deallocation, `None` if leaked.
    pub(crate) free_api: Option<usize>,
    pub(crate) free_is_api: bool,
    pub(crate) alloc_path: PathId,
}

/// One run of equal lifetime counts: `(first element, elements, count)`.
type Run = (u64, u64, u32);

/// A complete, self-contained recording of one profiled run: the
/// analyzer's one input (see the module docs).
#[derive(Debug, Clone)]
pub struct SavedTrace {
    /// Format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// Platform name of the recorded run.
    pub platform: String,
    /// The call-path table: every API and object row names its path by
    /// index into it.
    pub(crate) paths: Vec<PathText>,
    pub(crate) apis: Vec<GpuApi>,
    pub(crate) accesses: Vec<RawAccess>,
    pub(crate) objects: Vec<SavedObject>,
    pub(crate) usage: Vec<UsageSample>,
    pub(crate) intra: Vec<IntraObjectData>,
    pub(crate) unified: Vec<UnifiedPageStats>,
}

/// The words an enum field is written as, in code order.
type Tags<T> = [(&'static str, T)];

const KINDS: [(&str, GpuApiKind); 5] = [
    ("ALLOC", GpuApiKind::Alloc),
    ("FREE", GpuApiKind::Free),
    ("CPY", GpuApiKind::Cpy),
    ("SET", GpuApiKind::Set),
    ("KERL", GpuApiKind::Kerl),
];

const VIAS: [(&str, AccessVia); 3] = [
    ("memcpy", AccessVia::Memcpy),
    ("memset", AccessVia::Memset),
    ("kernel", AccessVia::Kernel),
];

const SOURCES: [(&str, ObjectSource); 3] = [
    ("cuda", ObjectSource::Cuda),
    ("pool_slab", ObjectSource::PoolSlab),
    ("pool_tensor", ObjectSource::PoolTensor),
];

/// The word `value` is written as.
fn tag_of<T: PartialEq>(tags: &Tags<T>, value: T) -> &'static str {
    tags.iter()
        .find(|(_, v)| *v == value)
        .map(|(word, _)| *word)
        .expect("every enum variant has a word in its table")
}

fn object_row(o: &DataObject) -> SavedObject {
    SavedObject {
        id: o.id,
        label: o.label.clone(),
        size: o.size(),
        source: o.source,
        alloc_api: o.alloc_api,
        alloc_is_api: o.alloc_is_api,
        free_api: o.free_api,
        free_is_api: o.free_is_api,
        alloc_path: o.alloc_path,
    }
}

/// Clones a collector's recording.
///
/// Call paths come from the collector's path table, which rendered them
/// through its mirror of the context's frame table (`_frames`) while the
/// program ran: each distinct path is shared by refcount, not rendered
/// again per row.
pub fn save(collector: &Collector, _frames: &FrameTable, platform: &str) -> SavedTrace {
    snapshot(collector, platform)
}

/// The recording so far, as [`save`] clones it.
pub(crate) fn snapshot(collector: &Collector, platform: &str) -> SavedTrace {
    SavedTrace {
        version: FORMAT_VERSION,
        platform: platform.to_owned(),
        paths: collector.paths().paths().to_vec(),
        apis: collector.gpu_apis().to_vec(),
        accesses: collector.accesses().to_vec(),
        objects: collector.registry().iter().map(object_row).collect(),
        usage: collector.usage_curve().to_vec(),
        intra: collector.intra_data().into_iter().cloned().collect(),
        unified: collector.unified_page_stats(),
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Slicing-by-8 CRC-32 tables (IEEE 802.3 polynomial, reflected), built
/// at compile time. `CRC_TABLES[0]` is the bytewise table; entry `i` of
/// table `k` is the CRC of byte `i` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3) of a frame payload, eight bytes per step
/// (slicing-by-8), then one table lookup per remaining byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Writes one frame payload into the output text. Every value starts with
/// a comma unless it opens the payload or follows a `[`, so rows read as
/// chains of fields.
struct Enc<'a> {
    out: &'a mut String,
    start: usize,
}

impl Enc<'_> {
    fn sep(&mut self) {
        if self.out.len() > self.start && !self.out.ends_with('[') {
            self.out.push(',');
        }
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        push_u64(self.out, v);
        self
    }

    fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    fn f64(&mut self, v: f64) -> &mut Self {
        self.sep();
        // Display prints the shortest text that parses back to `v`.
        let _ = write!(self.out, "{v}");
        self
    }

    fn bool(&mut self, v: bool) -> &mut Self {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    fn null(&mut self) -> &mut Self {
        self.sep();
        self.out.push_str("null");
        self
    }

    /// A JSON string: `"` and `\\` are backslash-escaped, control
    /// characters written as `\\u00XX`.
    fn str(&mut self, s: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
            for c in s.chars() {
                match c {
                    '"' | '\\' => self.out.extend(['\\', c]),
                    c if c < ' ' => drop(write!(self.out, "\\u{:04x}", u32::from(c))),
                    c => self.out.push(c),
                }
            }
        } else {
            self.out.push_str(s);
        }
        self.out.push('"');
        self
    }

    /// An API's detail as a JSON string, rendered in place: a byte count
    /// never needs escaping.
    fn detail(&mut self, d: &ApiDetail) -> &mut Self {
        match d.text() {
            Some(text) => self.str(text),
            None => {
                self.sep();
                self.out.push('"');
                d.write_to(self.out);
                self.out.push('"');
                self
            }
        }
    }

    fn open(&mut self) -> &mut Self {
        self.sep();
        self.out.push('[');
        self
    }

    fn close(&mut self) -> &mut Self {
        self.out.push(']');
        self
    }

    fn u64s(&mut self, vs: impl IntoIterator<Item = u64>) -> &mut Self {
        self.open();
        for v in vs {
            self.u64(v);
        }
        self.close()
    }

    /// Pairs as one flat list `[a0,b0,a1,b1,...]`.
    fn pairs(&mut self, ps: &[(u64, u64)]) -> &mut Self {
        self.u64s(ps.iter().flat_map(|&(a, b)| [a, b]))
    }

    fn strs(&mut self, ss: &[Arc<str>]) -> &mut Self {
        self.open();
        for s in ss {
            self.str(s);
        }
        self.close()
    }

    /// An enum field, as its word from `tags`.
    fn tag<T: PartialEq>(&mut self, tags: &Tags<T>, value: T) -> &mut Self {
        self.str(tag_of(tags, value))
    }
}

/// Appends one frame — header line, payload, newline — to `out`. The
/// payload is encoded in place; the header, which needs its length and
/// checksum, is inserted in front of it afterwards.
fn write_frame(out: &mut String, name: &str, payload: impl FnOnce(&mut Enc<'_>)) {
    let start = out.len();
    payload(&mut Enc { out, start });
    let len = out.len() - start;
    let crc = crc32(&out.as_bytes()[start..]);
    out.insert_str(start, &format!("section {name} {len} {crc}\n"));
    out.push('\n');
}

fn put_api(e: &mut Enc<'_>, a: &GpuApi) {
    e.open()
        .tag(&KINDS, a.kind)
        .detail(&a.detail)
        .u64(u64::from(a.vertex.stream.0))
        .u64(a.ordinal_in_stream)
        .u64s(a.vertex.reads.iter().map(|o| o.0))
        .u64s(a.vertex.writes.iter().map(|o| o.0))
        .u64s(a.vertex.frees.iter().map(|o| o.0))
        .u64s(a.vertex.after.iter().map(|&d| d as u64))
        .u64(a.start_ns)
        .u64(a.end_ns)
        .u64(u64::from(a.path.0))
        .close();
}

fn put_object(e: &mut Enc<'_>, o: &SavedObject) {
    e.open()
        .u64(o.id.0)
        .str(&o.label)
        .u64(o.size)
        .tag(&SOURCES, o.source)
        .usize(o.alloc_api)
        .bool(o.alloc_is_api);
    match o.free_api {
        Some(f) => e.usize(f),
        None => e.null(),
    };
    e.bool(o.free_is_api).u64(u64::from(o.alloc_path.0)).close();
}

/// One `delta` payload: new call paths, then new rows plus re-emitted
/// (updated) rows.
#[allow(clippy::too_many_arguments)] // one argument per payload list, in payload order
fn put_delta<'a>(
    e: &mut Enc<'_>,
    paths: &[PathText],
    apis: &[GpuApi],
    api_updates: impl IntoIterator<Item = (usize, &'a GpuApi)>,
    accesses: &[RawAccess],
    objects: &[SavedObject],
    object_updates: &[SavedObject],
    usage: &[UsageSample],
) {
    e.open().open();
    for p in paths {
        e.strs(p);
    }
    e.close().open();
    for a in apis {
        put_api(e, a);
    }
    e.close().open();
    for (idx, a) in api_updates {
        e.open().usize(idx);
        put_api(e, a);
        e.close();
    }
    e.close().open();
    for a in accesses {
        e.open()
            .usize(a.api_idx)
            .u64(a.object.0)
            .bool(a.read)
            .bool(a.write)
            .tag(&VIAS, a.via)
            .close();
    }
    e.close().open();
    for o in objects {
        put_object(e, o);
    }
    e.close().open();
    for o in object_updates {
        put_object(e, o);
    }
    e.close()
        .u64s(
            usage
                .iter()
                .flat_map(|u| [u.api_idx as u64, u.bytes_in_use]),
        )
        .close();
}

/// One `checkpoint` payload: the full intra-object and unified-memory
/// state as of API `api_count`. A map's bitmap goes out as its accessed
/// ranges and its lifetime counts as [`FreqMap::runs`].
fn put_checkpoint<'a>(
    e: &mut Enc<'_>,
    api_count: usize,
    intra: impl IntoIterator<Item = &'a IntraObjectData>,
    unified: &[UnifiedPageStats],
) {
    e.open().usize(api_count).open();
    for s in intra {
        e.open()
            .u64(s.object.0)
            .u64(s.bitmap.len())
            .pairs(&s.bitmap.accessed_ranges())
            .open();
        for (idx, ranges) in &s.per_api {
            e.open().usize(*idx).pairs(ranges.ranges()).close();
        }
        e.close();
        match &s.nuaf_peak {
            Some((idx, cov, hist)) => e
                .open()
                .usize(*idx)
                .f64(*cov)
                .u64s(hist.iter().flat_map(|&(c, n)| [u64::from(c), n as u64]))
                .close(),
            None => e.null(),
        };
        match &s.lifetime_freq {
            Some(freq) => e
                .open()
                .u64(u64::from(freq.elem_size()))
                .u64s(
                    freq.runs()
                        .into_iter()
                        .flat_map(|(at, len, n)| [at, len, u64::from(n)]),
                )
                .close(),
            None => e.null(),
        };
        e.close();
    }
    e.close().open();
    for p in unified {
        e.open()
            .u64(p.object.0)
            .u64(u64::from(p.page_index))
            .u64(p.migrations)
            .pairs(p.host_ranges.ranges())
            .pairs(p.device_ranges.ranges())
            .close();
    }
    e.close().close();
}

fn put_header(out: &mut String, version: u32, platform: &str) {
    let _ = writeln!(out, "{MAGIC} {version}");
    write_frame(out, "meta", |e| {
        e.open().str(platform).close();
    });
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Reads one frame payload back, mirroring [`Enc`]: every value read first
/// consumes the comma that separates it from the previous one. The
/// per-value readers are `#[inline]`: a row is a dozen of them.
struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("expected {what} at byte {}", self.i))
    }

    #[inline]
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.b.get(self.i) == Some(&byte);
        self.i += usize::from(hit);
        hit
    }

    #[inline]
    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            self.fail(&format!("`{}`", char::from(byte)))
        }
    }

    fn eat_word(&mut self, word: &[u8]) -> bool {
        let hit = self
            .b
            .get(self.i..)
            .is_some_and(|rest| rest.starts_with(word));
        if hit {
            self.i += word.len();
        }
        hit
    }

    #[inline]
    fn sep(&mut self) -> Result<(), String> {
        match self.i.checked_sub(1).map(|p| self.b[p]) {
            None | Some(b'[' | b',') => Ok(()),
            Some(_) => self.expect(b','),
        }
    }

    #[inline]
    fn u64(&mut self) -> Result<u64, String> {
        self.sep()?;
        let start = self.i;
        let mut v: u64 = 0;
        while let Some(&d) = self.b.get(self.i).filter(|d| d.is_ascii_digit()) {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| format!("number at byte {start} overflows u64"))?;
            self.i += 1;
        }
        if self.i == start {
            return self.fail("a number");
        }
        Ok(v)
    }

    /// A number that must fit `T`.
    #[inline]
    fn num<T: TryFrom<u64>>(&mut self) -> Result<T, String> {
        let at = self.i;
        T::try_from(self.u64()?).map_err(|_| format!("number at byte {at} is out of range"))
    }

    #[inline]
    fn object(&mut self) -> Result<ObjectId, String> {
        self.u64().map(ObjectId)
    }

    /// A list of object ids, read into place without a `Vec`.
    #[inline]
    fn objects(&mut self) -> Result<ObjectList, String> {
        self.open()?;
        let mut list = ObjectList::new();
        while !self.eat(b']') {
            list.push(self.object()?);
        }
        Ok(list)
    }

    fn f64(&mut self) -> Result<f64, String> {
        self.sep()?;
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|&c| !matches!(c, b',' | b']'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("expected a float at byte {start}"))
    }

    #[inline]
    fn bool(&mut self) -> Result<bool, String> {
        self.sep()?;
        if self.eat_word(b"true") {
            Ok(true)
        } else if self.eat_word(b"false") {
            Ok(false)
        } else {
            self.fail("a boolean")
        }
    }

    /// `None` for `null`, otherwise the value `item` reads.
    fn opt<T>(
        &mut self,
        item: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.sep()?;
        if self.eat_word(b"null") {
            Ok(None)
        } else {
            item(self).map(Some)
        }
    }

    /// A JSON string, borrowed from the payload when it holds no escape.
    #[inline]
    fn text(&mut self) -> Result<Cow<'a, str>, String> {
        self.sep()?;
        self.expect(b'"')?;
        let b = self.b;
        let mut unescaped: Option<String> = None;
        loop {
            let start = self.i;
            while b
                .get(self.i)
                .is_some_and(|&c| c >= 0x20 && c != b'"' && c != b'\\')
            {
                self.i += 1;
            }
            let plain = std::str::from_utf8(&b[start..self.i])
                .map_err(|_| format!("string at byte {start} is not UTF-8"))?;
            match b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(plain),
                        Some(mut s) => {
                            s.push_str(plain);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = unescaped.get_or_insert_with(String::new);
                    s.push_str(plain);
                    let esc = b.get(self.i + 1).copied();
                    self.i += 2;
                    match esc {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'u') => {
                            let code = b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            let Some(c) = code else {
                                return self.fail("a \\u escape");
                            };
                            s.push(c);
                            self.i += 4;
                        }
                        _ => return self.fail("a string escape"),
                    }
                }
                _ => return self.fail("a closing quote"),
            }
        }
    }

    /// An enum field: one of the words in `tags`, matched in place
    /// without building a `String`.
    #[inline]
    fn tag<T: Copy>(&mut self, tags: &Tags<T>, what: &str) -> Result<T, String> {
        self.sep()?;
        let at = self.i;
        self.expect(b'"')?;
        let rest = &self.b[self.i..];
        let found = tags.iter().find(|(word, _)| {
            rest.starts_with(word.as_bytes()) && rest.get(word.len()) == Some(&b'"')
        });
        let Some(&(word, value)) = found else {
            return Err(format!("unknown {what} at byte {at}"));
        };
        self.i += word.len() + 1;
        Ok(value)
    }

    #[inline]
    fn open(&mut self) -> Result<(), String> {
        self.sep()?;
        self.expect(b'[')
    }

    #[inline]
    fn close(&mut self) -> Result<(), String> {
        self.expect(b']')
    }

    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.open()?;
        let mut items = Vec::new();
        while !self.eat(b']') {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// A flat list of numbers read back as groups of `N`.
    fn groups<const N: usize>(&mut self) -> Result<Vec<[u64; N]>, String> {
        let at = self.i;
        let flat = self.list(Self::u64)?;
        if flat.len() % N != 0 {
            return Err(format!(
                "list at byte {at} holds {} numbers, not a multiple of {N}",
                flat.len()
            ));
        }
        Ok(flat
            .chunks_exact(N)
            .map(|g| std::array::from_fn(|k| g[k]))
            .collect())
    }

    fn pairs(&mut self) -> Result<Vec<(u64, u64)>, String> {
        Ok(self
            .groups::<2>()?
            .into_iter()
            .map(|[a, b]| (a, b))
            .collect())
    }
}

/// Decodes a whole payload with `item`; trailing bytes are an error.
fn decode<T>(
    payload: &[u8],
    item: impl FnOnce(&mut Cursor<'_>) -> Result<T, String>,
) -> Result<T, String> {
    let mut c = Cursor { b: payload, i: 0 };
    let v = item(&mut c)?;
    if c.i != payload.len() {
        return c.fail("the end of the payload");
    }
    Ok(v)
}

fn get_path(c: &mut Cursor<'_>) -> Result<PathId, String> {
    c.num().map(PathId)
}

/// The kernel names, labels and call-path frames one load has read, each
/// held once: every row with the same text shares one `Arc<str>`, across
/// all delta frames.
#[derive(Default)]
struct Interner(HashSet<Arc<str>>);

impl Interner {
    fn intern(&mut self, text: &str) -> Arc<str> {
        if let Some(shared) = self.0.get(text) {
            return shared.clone();
        }
        let shared = Arc::<str>::from(text);
        self.0.insert(shared.clone());
        shared
    }
}

/// `text` as the byte count a copy or set row of `kind` renders, if it is
/// exactly that rendering: a canonical `u64` (no sign, no leading zero),
/// `B `, and the kind's word.
fn byte_detail(kind: GpuApiKind, text: &str) -> Option<ApiDetail> {
    let (count, word) = text.split_once("B ")?;
    let canonical = !count.is_empty()
        && count.bytes().all(|d| d.is_ascii_digit())
        && (count == "0" || !count.starts_with('0'));
    if !canonical {
        return None;
    }
    let ops: &[ByteOp] = match kind {
        GpuApiKind::Cpy => &[ByteOp::H2D, ByteOp::D2H, ByteOp::D2D],
        GpuApiKind::Set => &[ByteOp::Set],
        _ => &[],
    };
    let op = *ops.iter().find(|op| op.word() == word)?;
    Some(ApiDetail::Bytes(count.parse().ok()?, op))
}

/// The typed detail of a row of `kind` whose trace text is `text`; it
/// renders `text` again. A launch's kernel name and an ALLOC's or FREE's
/// label are interned; a copy or set count that does not render back
/// exactly stays text.
fn api_detail(kind: GpuApiKind, text: Cow<'_, str>, interner: &mut Interner) -> ApiDetail {
    match kind {
        GpuApiKind::Kerl => ApiDetail::Kernel(interner.intern(&text)),
        GpuApiKind::Alloc | GpuApiKind::Free => ApiDetail::Label(interner.intern(&text)),
        GpuApiKind::Cpy | GpuApiKind::Set => {
            byte_detail(kind, &text).unwrap_or_else(|| ApiDetail::Text(text.into_owned()))
        }
    }
}

fn get_api(c: &mut Cursor<'_>, interner: &mut Interner) -> Result<GpuApi, String> {
    c.open()?;
    let kind = c.tag(&KINDS, "API kind")?;
    let detail = api_detail(kind, c.text()?, interner);
    let stream = StreamId(c.num()?);
    let api = GpuApi {
        kind,
        detail,
        stream,
        ordinal_in_stream: c.u64()?,
        vertex: VertexAccess {
            stream,
            reads: c.objects()?,
            writes: c.objects()?,
            frees: c.objects()?,
            after: c.list(Cursor::num)?,
        },
        start_ns: c.u64()?,
        end_ns: c.u64()?,
        path: get_path(c)?,
    };
    c.close()?;
    Ok(api)
}

fn get_access(c: &mut Cursor<'_>) -> Result<RawAccess, String> {
    c.open()?;
    let access = RawAccess {
        api_idx: c.num()?,
        object: c.object()?,
        read: c.bool()?,
        write: c.bool()?,
        via: c.tag(&VIAS, "access kind")?,
    };
    c.close()?;
    Ok(access)
}

fn get_object(c: &mut Cursor<'_>, interner: &mut Interner) -> Result<SavedObject, String> {
    c.open()?;
    let object = SavedObject {
        id: c.object()?,
        label: interner.intern(&c.text()?),
        size: c.u64()?,
        source: c.tag(&SOURCES, "object source")?,
        alloc_api: c.num()?,
        alloc_is_api: c.bool()?,
        free_api: c.opt(Cursor::num)?,
        free_is_api: c.bool()?,
        alloc_path: get_path(c)?,
    };
    c.close()?;
    Ok(object)
}

/// A decoded intra-object map, kept as read until [`scrub`] has checked
/// it against its object row: its declared size sizes the bitmap and the
/// frequency map built from it.
struct IntraRow {
    object: ObjectId,
    size: u64,
    /// Accessed byte ranges (the bitmap, run-length encoded).
    accessed: Vec<(u64, u64)>,
    per_api: Vec<(usize, RangeSet)>,
    nuaf_peak: Option<NuafObservation>,
    /// Element size and lifetime counts as [`FreqMap::runs`].
    lifetime: Option<(u32, Vec<Run>)>,
}

fn get_intra(c: &mut Cursor<'_>) -> Result<IntraRow, String> {
    c.open()?;
    let object = c.object()?;
    let size = c.u64()?;
    let accessed = c.pairs()?;
    let per_api = c.list(|c| {
        c.open()?;
        let entry = (c.num()?, c.pairs()?.into_iter().collect());
        c.close()?;
        Ok(entry)
    })?;
    let nuaf_peak = c.opt(|c| {
        c.open()?;
        let idx = c.num()?;
        let cov = c.f64()?;
        let hist = c
            .groups::<2>()?
            .into_iter()
            .map(|[count, n]| {
                Ok((
                    u32::try_from(count).map_err(|_| "histogram count exceeds u32")?,
                    usize::try_from(n).map_err(|_| "histogram bucket exceeds usize")?,
                ))
            })
            .collect::<Result<Vec<_>, &str>>()?;
        c.close()?;
        Ok((idx, cov, hist))
    })?;
    let lifetime = c.opt(|c| {
        c.open()?;
        let elem = c.num()?;
        let runs = c
            .groups::<3>()?
            .into_iter()
            .map(|[at, len, n]| Ok((at, len, u32::try_from(n).map_err(|_| "count exceeds u32")?)))
            .collect::<Result<_, &str>>()?;
        c.close()?;
        Ok((elem, runs))
    })?;
    c.close()?;
    Ok(IntraRow {
        object,
        size,
        accessed,
        per_api,
        nuaf_peak,
        lifetime,
    })
}

fn get_unified(c: &mut Cursor<'_>) -> Result<UnifiedPageStats, String> {
    c.open()?;
    let page = UnifiedPageStats {
        object: c.object()?,
        page_index: c.num()?,
        migrations: c.u64()?,
        host_ranges: c.pairs()?.into_iter().collect(),
        device_ranges: c.pairs()?.into_iter().collect(),
    };
    c.close()?;
    Ok(page)
}

/// A decoded `delta` payload.
struct Delta {
    paths: Vec<PathText>,
    apis: Vec<GpuApi>,
    api_updates: Vec<(usize, GpuApi)>,
    accesses: Vec<RawAccess>,
    objects: Vec<SavedObject>,
    object_updates: Vec<SavedObject>,
    usage: Vec<UsageSample>,
}

fn get_delta(c: &mut Cursor<'_>, interner: &mut Interner) -> Result<Delta, String> {
    c.open()?;
    let delta = Delta {
        paths: c.list(|c| {
            let frames: Vec<Arc<str>> = c.list(|c| Ok(interner.intern(&c.text()?)))?;
            Ok(PathText::from(frames))
        })?,
        apis: c.list(|c| get_api(c, interner))?,
        api_updates: c.list(|c| {
            c.open()?;
            let update = (c.num()?, get_api(c, interner)?);
            c.close()?;
            Ok(update)
        })?,
        accesses: c.list(get_access)?,
        objects: c.list(|c| get_object(c, interner))?,
        object_updates: c.list(|c| get_object(c, interner))?,
        usage: c
            .pairs()?
            .into_iter()
            .map(|(idx, bytes_in_use)| {
                usize::try_from(idx)
                    .map(|api_idx| UsageSample {
                        api_idx,
                        bytes_in_use,
                    })
                    .map_err(|_| "usage api_idx exceeds usize".to_owned())
            })
            .collect::<Result<_, _>>()?,
    };
    c.close()?;
    Ok(delta)
}

/// A decoded `checkpoint` payload.
struct Checkpoint {
    api_count: usize,
    intra: Vec<IntraRow>,
    unified: Vec<UnifiedPageStats>,
}

fn get_checkpoint(c: &mut Cursor<'_>) -> Result<Checkpoint, String> {
    c.open()?;
    let checkpoint = Checkpoint {
        api_count: c.num()?,
        intra: c.list(get_intra)?,
        unified: c.list(get_unified)?,
    };
    c.close()?;
    Ok(checkpoint)
}

fn get_meta(c: &mut Cursor<'_>) -> Result<String, String> {
    c.open()?;
    let platform = c.text()?.into_owned();
    c.close()?;
    Ok(platform)
}

// ---------------------------------------------------------------------------
// Framing and replay
// ---------------------------------------------------------------------------

/// Reads the next `\n`-terminated line as bytes, advancing `pos`.
fn read_line<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    if *pos >= bytes.len() {
        return None;
    }
    let start = *pos;
    match bytes[start..].iter().position(|&b| b == b'\n') {
        Some(i) => {
            *pos = start + i + 1;
            Some(&bytes[start..start + i])
        }
        None => {
            *pos = bytes.len();
            Some(&bytes[start..])
        }
    }
}

/// Parses the header line, returning the declared version.
fn parse_header(line: Option<&[u8]>) -> Result<u32, TraceError> {
    let line = line.ok_or(TraceError::MissingHeader)?;
    let text = std::str::from_utf8(line).map_err(|_| TraceError::MissingHeader)?;
    let mut words = text.split_ascii_whitespace();
    if words.next() != Some(MAGIC) {
        return Err(TraceError::MissingHeader);
    }
    words
        .next()
        .and_then(|w| w.parse::<u32>().ok())
        .ok_or(TraceError::MissingHeader)
}

/// One step of the frame walk.
enum FrameStep<'a> {
    /// A frame whose payload matched its checksum.
    Section(&'a str, &'a [u8]),
    /// The clean-finish marker.
    End,
    /// The input ended without a finish marker.
    Eof,
}

fn next_frame<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<FrameStep<'a>, TraceError> {
    let malformed = |reason: &str| TraceError::Malformed {
        section: "frame".to_owned(),
        reason: reason.to_owned(),
    };
    let Some(line) = read_line(bytes, pos) else {
        return Ok(FrameStep::Eof);
    };
    let text = std::str::from_utf8(line).map_err(|_| malformed("frame line is not UTF-8"))?;
    let words: Vec<&str> = text.split_ascii_whitespace().collect();
    match words.as_slice() {
        ["end"] => Ok(FrameStep::End),
        ["section", name, len, crc] => {
            let len: usize = len
                .parse()
                .map_err(|_| malformed("section length is not a number"))?;
            let expected_crc: u32 = crc
                .parse()
                .map_err(|_| malformed("section checksum is not a number"))?;
            let available = bytes.len().saturating_sub(*pos);
            if len > available {
                return Err(TraceError::Truncated {
                    section: (*name).to_owned(),
                    expected: len,
                    available,
                });
            }
            let payload = &bytes[*pos..*pos + len];
            *pos += len;
            // Consume the newline separating payload from the next frame.
            if bytes.get(*pos) == Some(&b'\n') {
                *pos += 1;
            }
            let actual = crc32(payload);
            if actual != expected_crc {
                return Err(TraceError::ChecksumMismatch {
                    section: (*name).to_owned(),
                    expected: expected_crc,
                    actual,
                });
            }
            Ok(FrameStep::Section(name, payload))
        }
        _ => Err(malformed("unrecognized frame line")),
    }
}

fn malformed(section: &str, reason: String) -> TraceError {
    TraceError::Malformed {
        section: section.to_owned(),
        reason,
    }
}

/// Appends `rows` to `into`; into an empty list — a batch trace's one
/// delta — they move without a copy.
fn append<T>(into: &mut Vec<T>, rows: Vec<T>) {
    if into.is_empty() {
        *into = rows;
    } else {
        into.extend(rows);
    }
}

/// Appends one decoded delta to the replayed trace. `ids` maps each
/// object id to its row, so an update finds its row in constant time.
/// Checks before it mutates, so a bad delta leaves the trace untouched.
fn apply_delta(
    trace: &mut SavedTrace,
    ids: &mut IdMap<ObjectId, usize>,
    d: Delta,
) -> Result<(), String> {
    let n = trace.apis.len() + d.apis.len();
    if let Some((idx, _)) = d.api_updates.iter().find(|(idx, _)| *idx >= n) {
        return Err(format!("api update index {idx} out of range ({n} apis)"));
    }
    append(&mut trace.paths, d.paths);
    append(&mut trace.apis, d.apis);
    for (idx, row) in d.api_updates {
        trace.apis[idx] = row;
    }
    append(&mut trace.accesses, d.accesses);
    let first = trace.objects.len();
    for (i, o) in d.objects.iter().enumerate() {
        ids.entry(o.id).or_insert(first + i);
    }
    append(&mut trace.objects, d.objects);
    for o in d.object_updates {
        match ids.get(&o.id) {
            Some(&i) => trace.objects[i] = o,
            None => {
                ids.insert(o.id, trace.objects.len());
                trace.objects.push(o);
            }
        }
    }
    append(&mut trace.usage, d.usage);
    Ok(())
}

/// Everything a replay lost, in order: the typed error [`load`] reports
/// and the note [`salvage`] reports for the same loss.
type Losses = Vec<(TraceError, String)>;

/// Records a damaged frame, noted as `what: <error>`.
fn lose_frame(losses: &mut Losses, what: &str, e: TraceError) {
    let note = format!("{what}: {e}");
    losses.push((e, note));
}

/// Replays a trace's frames in order, then [`scrub`]s what it rebuilt —
/// the one decoder behind [`load`] and [`salvage`]. Never fails: each loss
/// is recorded and the replay goes on where it can (see the module docs
/// for the rule).
fn replay(text: &str) -> (SavedTrace, Losses) {
    let mut losses = Losses::new();
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let mut trace = empty_trace();
    match parse_header(read_line(bytes, &mut pos)) {
        Ok(FORMAT_VERSION) => {}
        Ok(found) => losses.push((
            TraceError::UnsupportedVersion {
                found,
                supported: FORMAT_VERSION,
            },
            format!(
                "trace declares format version {found} (this build writes \
                 {FORMAT_VERSION}); attempting best-effort read"
            ),
        )),
        Err(e) => {
            losses.push((e, "missing trace header; nothing could be recovered".into()));
            return (trace, losses);
        }
    }
    let mut ids = IdMap::default();
    let mut interner = Interner::default();
    let mut platform = None;
    let mut checkpoint: Option<Checkpoint> = None;
    let mut deltas = 0usize;
    let clean_end = loop {
        let (name, payload) = match next_frame(bytes, &mut pos) {
            Ok(FrameStep::Section(name, payload)) => (name, payload),
            Ok(FrameStep::End) => break true,
            Ok(FrameStep::Eof) => break false,
            Err(e) => {
                // A checksum mismatch means the frame's length was intact:
                // it was skipped whole and the next frame is reachable.
                // Only deltas are positional, so only they end the replay.
                let skipped = matches!(&e, TraceError::ChecksumMismatch { section, .. }
                    if section != "delta");
                if skipped {
                    lose_frame(&mut losses, "dropped damaged frame", e);
                    continue;
                }
                lose_frame(&mut losses, "stopped at damaged streaming frame", e);
                break false;
            }
        };
        match name {
            "meta" => match decode(payload, get_meta) {
                Ok(p) => platform = Some(p),
                Err(reason) => {
                    lose_frame(
                        &mut losses,
                        "dropped damaged frame",
                        malformed("meta", reason),
                    );
                }
            },
            "delta" => {
                deltas += 1;
                let applied = decode(payload, |c| get_delta(c, &mut interner))
                    .and_then(|d| apply_delta(&mut trace, &mut ids, d));
                if let Err(reason) = applied {
                    let e = malformed("delta", reason);
                    lose_frame(&mut losses, "stopped at damaged streaming frame", e);
                    break false;
                }
            }
            "checkpoint" => match decode(payload, get_checkpoint) {
                Ok(cp) if cp.api_count <= trace.apis.len() => checkpoint = Some(cp),
                Ok(cp) => {
                    let reason = format!(
                        "checkpoint claims {} APIs, only {} replayed",
                        cp.api_count,
                        trace.apis.len()
                    );
                    losses.push((
                        malformed("checkpoint", reason.clone()),
                        format!("ignored checkpoint: {reason}"),
                    ));
                }
                Err(reason) => {
                    let e = malformed("checkpoint", reason);
                    lose_frame(&mut losses, "dropped damaged frame", e);
                }
            },
            other => losses.push((
                malformed(other, "unknown section".to_owned()),
                format!("ignored unknown section `{other}`"),
            )),
        }
    };
    if !clean_end {
        losses.push((
            malformed("frame", "missing `end` marker".to_owned()),
            format!(
                "no clean-finish marker reached; recovered the intact prefix \
                 ({} APIs, {} delta frames)",
                trace.apis.len(),
                deltas
            ),
        ));
    }
    match platform {
        Some(p) => trace.platform = p,
        None => losses.push((
            malformed("meta", "section missing".to_owned()),
            "platform name lost with the meta section".to_owned(),
        )),
    }
    let mut maps = Vec::new();
    match checkpoint {
        Some(cp) => {
            if cp.api_count < trace.apis.len() {
                let reason = format!(
                    "intra-object and unified-memory maps are as of the last \
                     checkpoint (API {} of {})",
                    cp.api_count,
                    trace.apis.len()
                );
                losses.push((malformed("checkpoint", reason.clone()), reason));
            }
            maps = cp.intra;
            trace.unified = cp.unified;
        }
        None if !trace.apis.is_empty() => losses.push((
            malformed("checkpoint", "section missing".to_owned()),
            "no checkpoint recovered; intra-object and unified-memory maps lost".to_owned(),
        )),
        None => {}
    }
    losses.extend(scrub(&mut trace, maps));
    (trace, losses)
}

/// Checks one map's lifetime runs: sorted, disjoint, nonzero, and inside
/// the object's `ceil(size / elem_size)` elements.
fn check_runs(s: &IntraRow) -> Result<(), String> {
    let Some((elem, runs)) = &s.lifetime else {
        return Ok(());
    };
    if *elem == 0 {
        return Err("element size is zero".to_owned());
    }
    let elements = s.size.div_ceil(u64::from(*elem));
    let (mut prev_start, mut prev_end) = (0u64, 0u64);
    for (k, &(start, len, count)) in runs.iter().enumerate() {
        if len == 0 || count == 0 {
            return Err(format!("run #{k} has zero length or zero count"));
        }
        if start < prev_start {
            return Err(format!("run #{k} is not sorted after run #{}", k - 1));
        }
        if start < prev_end {
            return Err(format!("run #{k} overlaps run #{}", k - 1));
        }
        prev_end = start
            .checked_add(len)
            .filter(|&end| end <= elements)
            .ok_or_else(|| format!("run #{k} ends past element {elements}"))?;
        prev_start = start;
    }
    Ok(())
}

/// The analyzer's form of a checked map: its bitmap and frequency map,
/// sized by its object.
fn intra_data(s: IntraRow) -> IntraObjectData {
    let mut bitmap = AccessBitmap::new(s.size);
    for (start, end) in s.accessed {
        bitmap.set_range(start, end);
    }
    let lifetime_freq = s.lifetime.map(|(elem, runs)| {
        let mut freq = FreqMap::new(s.size, elem);
        for (start, len, count) in runs {
            freq.fill(start, len, count);
        }
        freq
    });
    IntraObjectData {
        object: s.object,
        bitmap,
        per_api: s.per_api,
        nuaf_peak: s.nuaf_peak,
        lifetime_freq,
    }
}

/// Counts the records of one kind a [`scrub`] drops, keeping the first
/// one's reason for the typed error.
#[derive(Default)]
struct Dropped {
    count: usize,
    first: Option<String>,
}

impl Dropped {
    /// `true` to keep a record; `Some(reason)` drops it.
    fn keep(&mut self, bad: Option<String>) -> bool {
        let Some(reason) = bad else { return true };
        self.count += 1;
        self.first.get_or_insert(reason);
        false
    }
}

/// Drops every dangling record, every intra-object map sized unlike its
/// object and every invalid set of lifetime runs from a replayed trace,
/// then builds the kept `maps` into the trace: [`load`] fails on the first
/// loss, [`salvage`] notes them all.
fn scrub(t: &mut SavedTrace, mut maps: Vec<IntraRow>) -> Losses {
    let mut losses = Losses::new();
    let n = t.apis.len();
    let sizes: IdMap<ObjectId, u64> = t.objects.iter().map(|o| (o.id, o.size)).collect();
    let unknown =
        |obj: ObjectId| (!sizes.contains_key(&obj)).then(|| format!("unknown object {}", obj.0));

    let mut edges = Dropped::default();
    for (i, a) in t.apis.iter_mut().enumerate() {
        let v = &mut a.vertex;
        v.after.retain(|&dep| {
            edges.keep((dep >= n).then(|| format!("api #{i} after {dep} >= {n} apis")))
        });
        for objs in [&mut v.reads, &mut v.writes, &mut v.frees] {
            objs.retain(|&obj| edges.keep(unknown(obj).map(|u| format!("api #{i} uses {u}"))));
        }
    }

    let mut accesses = Dropped::default();
    t.accesses.retain(|a| {
        let bad = if a.api_idx >= n {
            Some(format!("access api_idx {} >= {n} apis", a.api_idx))
        } else {
            unknown(a.object).map(|u| format!("access to {u}"))
        };
        accesses.keep(bad)
    });

    let mut anchors = Dropped::default();
    for o in &mut t.objects {
        let past_end = o.alloc_api > n || o.free_api.is_some_and(|f| f > n);
        let id = o.id.0;
        if !anchors.keep(past_end.then(|| format!("object {id} outlives the {n} apis"))) {
            o.alloc_api = o.alloc_api.min(n);
            o.free_api = o.free_api.map(|f| f.min(n));
        }
    }

    let mut usage = Dropped::default();
    t.usage.retain(|u| {
        let idx = u.api_idx;
        usage.keep((idx >= n).then(|| format!("usage sample api_idx {idx} >= {n} apis")))
    });

    // A map's declared size sizes its bitmap and frequency map: it must be
    // its object's size before anything is allocated.
    let mut orphans = Dropped::default();
    maps.retain(|s| {
        let Some(&size) = sizes.get(&s.object) else {
            return orphans.keep(unknown(s.object).map(|u| format!("map of {u}")));
        };
        if s.size == size {
            return true;
        }
        let what = format!(
            "the map of object {} declares {} bytes, its object {size}",
            s.object.0, s.size
        );
        losses.push((
            malformed("checkpoint", what.clone()),
            format!("dropped an intra-object map: {what}"),
        ));
        false
    });

    let mut refs = Dropped::default();
    for s in &mut maps {
        let object = s.object.0;
        s.per_api.retain(|&(idx, _)| {
            refs.keep((idx >= n).then(|| format!("object {object} per_api index {idx} >= {n}")))
        });
        if let Some(idx) = s.nuaf_peak.as_ref().map(|p| p.0).filter(|&idx| idx >= n) {
            refs.keep(Some(format!(
                "object {object} nuaf_peak index {idx} >= {n}"
            )));
            s.nuaf_peak = None;
        }
    }

    let mut pages = Dropped::default();
    t.unified
        .retain(|p| pages.keep(unknown(p.object).map(|u| format!("page of {u}"))));

    // A row naming a path no entry defines keeps an empty path instead,
    // appended to the table only if some row needs it.
    let defined = t.paths.len();
    let empty = PathId(u32::try_from(defined).unwrap_or(u32::MAX));
    let mut paths = Dropped::default();
    for (i, a) in t.apis.iter_mut().enumerate() {
        if a.path.0 as usize >= defined {
            let p = a.path.0;
            paths.keep(Some(format!("api #{i} names path {p} ({defined} defined)")));
            a.path = empty;
        }
    }
    for o in &mut t.objects {
        if o.alloc_path.0 as usize >= defined {
            let (id, p) = (o.id.0, o.alloc_path.0);
            paths.keep(Some(format!(
                "object {id} names path {p} ({defined} defined)"
            )));
            o.alloc_path = empty;
        }
    }
    if paths.count > 0 {
        t.paths.push(PathText::from([]));
    }

    for (dropped, section, verb, what) in [
        (edges, "apis", "dropped", "dangling dependency edge(s)"),
        (accesses, "accesses", "dropped", "dangling access record(s)"),
        (
            anchors,
            "objects",
            "clamped",
            "object lifetime anchor(s) past the trace end",
        ),
        (usage, "usage", "dropped", "dangling usage sample(s)"),
        (orphans, "intra", "dropped", "orphaned intra-object map(s)"),
        (refs, "intra", "dropped", "dangling intra-object record(s)"),
        (
            pages,
            "unified",
            "dropped",
            "orphaned unified-memory page(s)",
        ),
        (paths, "paths", "dropped", "dangling call-path reference(s)"),
    ] {
        if let Some(reason) = dropped.first {
            let section = section.to_owned();
            let note = format!("{verb} {} {what}", dropped.count);
            losses.push((TraceError::BadReference { section, reason }, note));
        }
    }
    t.intra = maps
        .into_iter()
        .map(|mut s| {
            if let Err(reason) = check_runs(&s) {
                let what = format!("object {}: {reason}", s.object.0);
                let note = format!("dropped the lifetime counts of {what}");
                losses.push((
                    malformed("checkpoint", format!("lifetime runs of {what}")),
                    note,
                ));
                s.lifetime = None;
            }
            intra_data(s)
        })
        .collect();
    losses
}

/// Strictly loads a trace — batch or cleanly finished stream — from its
/// text serialization.
///
/// # Errors
///
/// Returns a typed [`TraceError`] for a missing or foreign header, a
/// version this build does not read, truncation, checksum mismatches,
/// malformed payloads, a missing finish marker or checkpoint, invalid
/// lifetime frequency runs, and dangling cross-references (an access
/// pointing at a GPU API or object that does not exist). Use [`salvage`]
/// to read as much as possible of a damaged trace instead.
pub fn load(text: &str) -> Result<SavedTrace, TraceError> {
    let (trace, losses) = replay(text);
    match losses.into_iter().next() {
        Some((e, _)) => Err(e),
        None => Ok(trace),
    }
}

/// What a [`salvage`] pass lost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Human-readable notes, one per loss or repair (empty = lossless).
    pub notes: Vec<String>,
}

impl SalvageReport {
    /// `true` if the trace was read back without any loss.
    pub fn is_lossless(&self) -> bool {
        self.notes.is_empty()
    }

    /// Converts the losses into report degradation records.
    pub fn to_degradations(&self) -> Vec<DegradationRecord> {
        self.notes
            .iter()
            .map(|n| DegradationRecord::new("trace-salvage", n.clone()))
            .collect()
    }
}

/// Reads as much of a (possibly damaged) trace as possible. Never fails.
///
/// Replays the same frames [`load`] does, keeping everything up to the
/// first damaged `delta` or broken framing and skipping damaged `meta` and
/// `checkpoint` frames; records that reference lost data are then dropped
/// individually. Everything dropped is described in the returned
/// [`SalvageReport`] so the eventual report can carry explicit
/// [`DegradationRecord`]s instead of silently analyzing less.
pub fn salvage(text: &str) -> (SavedTrace, SalvageReport) {
    let (trace, losses) = replay(text);
    let notes = losses.into_iter().map(|(_, note)| note).collect();
    (trace, SalvageReport { notes })
}

fn empty_trace() -> SavedTrace {
    SavedTrace {
        version: FORMAT_VERSION,
        platform: "<unknown>".to_owned(),
        paths: Vec::new(),
        apis: Vec::new(),
        accesses: Vec::new(),
        objects: Vec::new(),
        usage: Vec::new(),
        intra: Vec::new(),
        unified: Vec::new(),
    }
}

/// Salvages a damaged trace and re-analyzes what survived; the report's
/// degradation records describe everything that was lost.
pub fn reanalyze_salvaged(text: &str, thresholds: &Thresholds) -> Report {
    let (trace, losses) = salvage(text);
    trace.reanalyze_with(thresholds, losses.to_degradations())
}

// ---------------------------------------------------------------------------
// Streaming writer side
// ---------------------------------------------------------------------------

/// The header + meta frame every trace starts with.
pub(crate) fn stream_header(platform: &str) -> String {
    let mut out = String::new();
    put_header(&mut out, FORMAT_VERSION, platform);
    out
}

/// High-water marks of what a streaming writer has already emitted, plus
/// the objects that changed since the last delta.
#[derive(Debug, Default)]
pub(crate) struct StreamCursor {
    paths: usize,
    apis: usize,
    accesses: usize,
    objects: usize,
    usage: usize,
    /// Objects freed or reclassified since the last delta; the next delta
    /// re-emits the rows of those it had already emitted.
    pub(crate) changed: Vec<ObjectId>,
}

/// Encodes everything the collector gathered since `cur` as one framed
/// `delta` section, advancing the cursor. Returns `None` when nothing new
/// happened (no section is written). Visits only the new rows and the
/// changed objects, never the whole registry.
pub(crate) fn delta_section(collector: &Collector, cur: &mut StreamCursor) -> Option<String> {
    let paths = collector.paths().paths();
    let apis = collector.gpu_apis();
    let accesses = collector.accesses();
    let usage = collector.usage_curve();
    let registry = collector.registry();

    // A new access attributed to an already-emitted API row means its
    // def/use sets changed at kernel end: re-emit the row as an update.
    let mut updated: Vec<usize> = accesses[cur.accesses.min(accesses.len())..]
        .iter()
        .map(|a| a.api_idx)
        .filter(|&i| i < cur.apis)
        .collect();
    updated.sort_unstable();
    updated.dedup();

    // Every path a row below names is in the table by now: new entries
    // go out in this delta, ahead of the rows.
    let new_paths = &paths[cur.paths.min(paths.len())..];
    let new_apis = &apis[cur.apis.min(apis.len())..];
    let new_accesses = &accesses[cur.accesses.min(accesses.len())..];

    // A changed object not emitted yet goes out whole with the new rows.
    let mut changed = std::mem::take(&mut cur.changed);
    changed.sort_unstable();
    changed.dedup();
    let object_updates: Vec<SavedObject> = changed
        .into_iter()
        .filter(|id| id.0 < cur.objects as u64)
        .filter_map(|id| registry.get(id).map(object_row))
        .collect();
    let new_objects: Vec<SavedObject> = registry.iter().skip(cur.objects).map(object_row).collect();
    let new_usage = &usage[cur.usage.min(usage.len())..];

    cur.paths = paths.len();
    cur.apis = apis.len();
    cur.accesses = accesses.len();
    cur.objects = registry.len();
    cur.usage = usage.len();

    if new_paths.is_empty()
        && new_apis.is_empty()
        && updated.is_empty()
        && new_accesses.is_empty()
        && new_objects.is_empty()
        && object_updates.is_empty()
        && new_usage.is_empty()
    {
        return None;
    }
    let mut out = String::new();
    write_frame(&mut out, "delta", |e| {
        put_delta(
            e,
            new_paths,
            new_apis,
            updated.iter().map(|&i| (i, &apis[i])),
            new_accesses,
            &new_objects,
            &object_updates,
            new_usage,
        );
    });
    Some(out)
}

/// Encodes the collector's full intra-object and unified-memory state as
/// one framed `checkpoint` section.
pub(crate) fn checkpoint_section(collector: &Collector) -> String {
    let mut out = String::new();
    write_frame(&mut out, "checkpoint", |e| {
        put_checkpoint(
            e,
            collector.gpu_apis().len(),
            collector.intra_data(),
            &collector.unified_page_stats(),
        );
    });
    out
}

impl SavedTrace {
    /// Number of GPU APIs in the recording.
    pub fn api_count(&self) -> usize {
        self.apis.len()
    }

    /// Number of data objects in the recording.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// The call path of the API at trace position `idx`, innermost frame
    /// first; `None` past the end of the trace.
    pub fn api_call_path(&self, idx: usize) -> Option<&PathText> {
        self.paths.get(self.apis.get(idx)?.path.0 as usize)
    }

    /// The detail of the API at trace position `idx` — for a loaded trace,
    /// typed by [`load`]'s rule; `None` past the end of the trace.
    pub fn api_detail(&self, idx: usize) -> Option<&ApiDetail> {
        self.apis.get(idx).map(|a| &a.detail)
    }

    /// The allocation call path of the `idx`-th object row, innermost
    /// frame first; `None` past the last row.
    pub fn object_call_path(&self, idx: usize) -> Option<&PathText> {
        self.paths.get(self.objects.get(idx)?.alloc_path.0 as usize)
    }

    /// Serializes to the framed, checksummed text format: a stream with
    /// one `delta`, one `checkpoint` and the finish marker.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        put_header(&mut out, self.version, &self.platform);
        write_frame(&mut out, "delta", |e| {
            put_delta(
                e,
                &self.paths,
                &self.apis,
                [],
                &self.accesses,
                &self.objects,
                &[],
                &self.usage,
            );
        });
        write_frame(&mut out, "checkpoint", |e| {
            put_checkpoint(e, self.apis.len(), &self.intra, &self.unified);
        });
        out.push_str("end\n");
        out
    }

    /// The call path `id` names, innermost frame first; empty if the
    /// table has no such entry.
    pub(crate) fn path(&self, id: PathId) -> PathText {
        self.paths
            .get(id.0 as usize)
            .cloned()
            .unwrap_or_else(|| PathText::from([]))
    }

    /// Runs the offline analysis on the recording: the one analysis entry,
    /// behind the live [`crate::Profiler::report`] and every reanalysis.
    /// `degradations` carries losses taken upstream (collector fallbacks,
    /// salvage), and `detector_deadline_ms` bounds each detector family.
    pub(crate) fn analyze(
        &self,
        thresholds: &Thresholds,
        degradations: Vec<DegradationRecord>,
        detector_deadline_ms: Option<u64>,
    ) -> Report {
        let view = analyzer::assemble_trace_view(self);
        analyzer::assemble_report(&view, self, thresholds, degradations, detector_deadline_ms)
    }

    /// Re-runs the full offline analysis on the recording, with arbitrary
    /// thresholds — no program re-run needed.
    pub fn reanalyze(&self, thresholds: &Thresholds) -> Report {
        self.reanalyze_with(thresholds, Vec::new())
    }

    /// Like [`SavedTrace::reanalyze`], but carrying degradation records
    /// (e.g. from a [`salvage`] pass) into the produced report.
    pub fn reanalyze_with(
        &self,
        thresholds: &Thresholds,
        degradations: Vec<DegradationRecord>,
    ) -> Report {
        self.analyze(
            thresholds,
            degradations,
            // Reanalysis honors the same env knobs as a live session.
            crate::governor::ResourceBudget::default()
                .apply_env()
                .detector_deadline_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ProfilerOptions;
    use crate::profiler::Profiler;
    use gpu_sim::{DeviceContext, LaunchConfig, StreamId};

    fn record() -> (SavedTrace, Report) {
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(&mut ctx, ProfilerOptions::intra_object());
        let early = ctx.malloc(4096, "early").unwrap();
        let other = ctx.malloc(4096, "other").unwrap();
        ctx.memset(other, 0, 4096).unwrap();
        ctx.memset(other, 1, 4096).unwrap();
        ctx.launch(
            "k",
            LaunchConfig::cover(16, 16).unwrap(),
            StreamId::DEFAULT,
            move |t| {
                let i = t.global_x();
                if i < 16 {
                    t.store_f32(early + i * 4, 1.0);
                }
            },
        )
        .unwrap();
        ctx.free(other).unwrap();
        // `early` leaks.
        let live_report = profiler.report(&ctx);
        let collector = profiler.collector();
        let collector = collector.lock();
        let saved = save(&collector, ctx.call_stack().table(), "rtx3090");
        (saved, live_report)
    }

    #[test]
    fn reanalysis_reproduces_the_live_report() {
        let (saved, live) = record();
        let reloaded = load(&saved.to_text()).expect("clean trace loads");
        assert_eq!(live, reloaded.reanalyze(&Thresholds::default()));
    }

    #[test]
    fn text_round_trip() {
        let (saved, _) = record();
        let text = saved.to_text();
        let back = load(&text).expect("clean trace loads");
        assert_eq!(back.api_count(), saved.api_count());
        assert_eq!(back.object_count(), saved.object_count());
        let a = saved.reanalyze(&Thresholds::default());
        let b = back.reanalyze(&Thresholds::default());
        assert_eq!(a, b);
    }

    #[test]
    fn thresholds_can_be_retuned_offline() {
        let (saved, _) = record();
        // Default idleness threshold (2) sees the `early` object idle
        // between its kernel write and… nothing; instead tune the
        // early-allocation-adjacent knob: the overallocation threshold.
        let strict = saved.reanalyze(&Thresholds::default());
        let lax = Thresholds {
            overalloc_accessed_pct: 0.0, // nothing is overallocated now
            ..Thresholds::default()
        };
        let relaxed = saved.reanalyze(&lax);
        use crate::patterns::PatternKind;
        assert!(strict.has_pattern(PatternKind::Overallocation));
        assert!(!relaxed.has_pattern(PatternKind::Overallocation));
    }

    #[test]
    fn version_is_stamped() {
        let (saved, _) = record();
        assert_eq!(saved.version, FORMAT_VERSION);
        let text = saved.to_text();
        assert!(text.starts_with("DRGPUM-TRACE 4\n"));
    }

    #[test]
    fn load_rejects_unknown_and_older_versions() {
        let (saved, _) = record();
        for found in [99, 3] {
            let text = saved
                .to_text()
                .replace("DRGPUM-TRACE 4", &format!("DRGPUM-TRACE {found}"));
            match load(&text) {
                Err(TraceError::UnsupportedVersion {
                    found: f,
                    supported,
                }) => {
                    assert_eq!((f, supported), (found, FORMAT_VERSION));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn load_rejects_missing_header() {
        assert!(matches!(load(""), Err(TraceError::MissingHeader)));
        assert!(matches!(
            load("not a trace\n"),
            Err(TraceError::MissingHeader)
        ));
    }

    #[test]
    fn load_rejects_corrupted_payload() {
        let (saved, _) = record();
        let text = saved.to_text();
        // Flip one character inside the apis payload (its label `"early"`),
        // keeping the byte length identical.
        let corrupted = text.replacen("rtx3090", "rtx0000", 1);
        assert_ne!(text, corrupted);
        match load(&corrupted) {
            Err(TraceError::ChecksumMismatch { section, .. }) => assert_eq!(section, "meta"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn load_rejects_truncation() {
        let (saved, _) = record();
        let text = saved.to_text();
        let cut = &text[..text.len() / 2];
        match load(cut) {
            Err(TraceError::Truncated { .. }) | Err(TraceError::Malformed { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn load_rejects_dangling_references() {
        let (saved, _) = record();
        let mut broken = saved.clone();
        broken.accesses.push(RawAccess {
            api_idx: 9999,
            object: ObjectId(0),
            read: true,
            write: false,
            via: AccessVia::Kernel,
        });
        let text = broken.to_text();
        match load(&text) {
            Err(TraceError::BadReference { section, reason }) => {
                assert_eq!(section, "accesses");
                assert!(reason.contains("9999"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn salvage_of_clean_trace_is_lossless() {
        let (saved, _) = record();
        let (back, report) = salvage(&saved.to_text());
        assert!(report.is_lossless(), "notes: {:?}", report.notes);
        assert_eq!(back.api_count(), saved.api_count());
        assert_eq!(back.object_count(), saved.object_count());
    }

    #[test]
    fn salvage_survives_truncation_and_reports_losses() {
        let (saved, _) = record();
        let text = saved.to_text();
        for cut in [0, 1, text.len() / 4, text.len() / 2, text.len() - 1] {
            let (trace, report) = salvage(&text[..cut]);
            if cut < text.len() - 1 {
                assert!(!report.is_lossless(), "cut {cut} must lose something");
            }
            // Whatever survived must re-analyze without panicking, and the
            // report must carry the losses.
            let r = trace.reanalyze_with(&Thresholds::default(), report.to_degradations());
            assert_eq!(r.is_degraded(), !report.is_lossless());
        }
    }

    #[test]
    fn salvage_skips_damaged_section_but_keeps_the_rest() {
        let (saved, _) = record();
        // Damage only the meta payload (same length, wrong bytes).
        let text = saved.to_text().replacen("rtx3090", "rtx0000", 1);
        let (trace, report) = salvage(&text);
        assert!(!report.is_lossless());
        assert_eq!(trace.platform, "<unknown>");
        // Later sections survived the damaged one.
        assert_eq!(trace.api_count(), saved.api_count());
        assert_eq!(trace.object_count(), saved.object_count());
    }

    /// The median time of one streamed delta over `k` deltas, each with
    /// one object freed since the last, on a registry of `n` objects.
    fn median_delta(n: usize, k: usize) -> std::time::Duration {
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
        let ptrs: Vec<_> = (0..n).map(|_| ctx.malloc(256, "o").unwrap()).collect();
        let collector = profiler.collector();
        let mut cur = StreamCursor::default();
        assert!(delta_section(&collector.lock(), &mut cur).is_some());
        let mut times = Vec::with_capacity(k);
        for (i, &ptr) in ptrs.iter().enumerate().take(k) {
            ctx.free(ptr).unwrap();
            let c = collector.lock();
            cur.changed.push(ObjectId(i as u64));
            let start = std::time::Instant::now();
            let delta = delta_section(&c, &mut cur).expect("a FREE row");
            times.push(start.elapsed());
            assert!(delta.contains(&format!("[{i},\"o\",256,")), "{delta}");
        }
        times.sort_unstable();
        times[k / 2]
    }

    #[test]
    fn a_streamed_delta_costs_what_changed_not_the_registry_size() {
        let k = 1_000;
        let (small, large) = (median_delta(2 * k, k), median_delta(16 * k, k));
        assert!(
            large < small * 3,
            "one delta took {large:?} over 16k objects, {small:?} over 2k"
        );
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
