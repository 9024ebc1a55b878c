//! GPU API names and the session's call-path table.
//!
//! DrGPUM records compact ids online and turns them into text offline
//! (Sec. 4, Fig. 1). A GPU API's display name, `MNEMONIC(stream, ordinal)`
//! (the paper's Figure 7 naming), is therefore a small [`ApiName`] value
//! that only renderers format. Host call paths are interned once per
//! session in a [`PathTable`] — a flat calling-context table, as
//! HPCToolkit keeps for GPA — and every API row and data object carries a
//! [`PathId`] into it. Each distinct path is rendered to source locations
//! once, and every consumer shares that rendering by refcount.

use gpu_sim::{CallPath, FrameId, SourceLoc, StreamId};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The kind of a pattern-relevant GPU API: the mnemonic of its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuApiKind {
    /// `cudaMalloc`.
    Alloc,
    /// `cudaFree`.
    Free,
    /// `cudaMemcpy` in any direction.
    Cpy,
    /// `cudaMemset`.
    Set,
    /// A kernel launch.
    Kerl,
}

impl GpuApiKind {
    /// The mnemonic (`ALLOC`/`FREE`/`CPY`/`SET`/`KERL`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            GpuApiKind::Alloc => "ALLOC",
            GpuApiKind::Free => "FREE",
            GpuApiKind::Cpy => "CPY",
            GpuApiKind::Set => "SET",
            GpuApiKind::Kerl => "KERL",
        }
    }
}

impl fmt::Display for GpuApiKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The display name of one GPU API, e.g. `KERL(0, 5)`, held as the three
/// values it is made of. `Display` writes the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ApiName {
    /// `None` names a trace position with no API row (a damaged trace).
    kind: Option<GpuApiKind>,
    stream: u32,
    /// The ordinal within the stream, or the trace position when `kind` is
    /// `None`.
    ordinal: u64,
}

impl ApiName {
    /// The name `MNEMONIC(stream, ordinal)`.
    pub fn new(kind: GpuApiKind, stream: StreamId, ordinal: u64) -> Self {
        ApiName {
            kind: Some(kind),
            stream: stream.0,
            ordinal,
        }
    }

    /// The placeholder `<api idx>` for trace position `idx` when no API row
    /// exists there.
    pub fn missing(idx: usize) -> Self {
        ApiName {
            kind: None,
            stream: 0,
            ordinal: idx as u64,
        }
    }

    /// The API's kind; `None` for a placeholder.
    pub fn kind(self) -> Option<GpuApiKind> {
        self.kind
    }

    /// Appends the name's text — what `Display` writes — to `out`,
    /// without going through the formatter.
    pub fn write_to(self, out: &mut String) {
        match self.kind {
            Some(kind) => {
                out.push_str(kind.mnemonic());
                out.push('(');
                push_u64(out, u64::from(self.stream));
                out.push_str(", ");
                push_u64(out, self.ordinal);
                out.push(')');
            }
            None => {
                out.push_str("<api ");
                push_u64(out, self.ordinal);
                out.push('>');
            }
        }
    }
}

impl fmt::Display for ApiName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            Some(kind) => write!(f, "{kind}({}, {})", self.stream, self.ordinal),
            None => write!(f, "<api {}>", self.ordinal),
        }
    }
}

/// Appends the decimal digits of `v` to `out`, without going through the
/// formatter.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[i..].iter().map(|&d| char::from(d)));
}

/// The number of decimal digits of `v`.
fn digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// The direction of a copy, or a set: the word after a byte count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteOp {
    /// Host-to-device copy.
    H2D,
    /// Device-to-host copy.
    D2H,
    /// Device-to-device copy.
    D2D,
    /// `cudaMemset`.
    Set,
}

impl ByteOp {
    /// The word written after the byte count.
    pub fn word(self) -> &'static str {
        match self {
            ByteOp::H2D => "H2D",
            ByteOp::D2H => "D2H",
            ByteOp::D2D => "D2D",
            ByteOp::Set => "set",
        }
    }
}

/// What a GPU API row says besides its name: held as the facts the API
/// carried, so recording it costs no text. Renderers write it in place;
/// `Display` writes the same text.
///
/// | variant | text |
/// |---|---|
/// | [`ApiDetail::Bytes`] | `4096B H2D`, `64B set` |
/// | [`ApiDetail::Kernel`] | the kernel name |
/// | [`ApiDetail::Label`] | the object label |
/// | [`ApiDetail::Text`] | the text itself |
#[derive(Debug, Clone)]
pub enum ApiDetail {
    /// A copy or set of this many bytes.
    Bytes(u64, ByteOp),
    /// A launch's kernel name, shared with the launch event.
    Kernel(Arc<str>),
    /// An ALLOC's or FREE's object label, shared with the object in the
    /// [`crate::object::ObjectRegistry`].
    Label(Arc<str>),
    /// Free text: a row read back from a trace, or a FREE of a pointer the
    /// registry does not know.
    Text(String),
}

impl ApiDetail {
    /// The text of a kernel name, label or free text; `None` for a byte
    /// count, which has no stored text (see [`ApiDetail::write_to`]).
    pub fn text(&self) -> Option<&str> {
        match self {
            ApiDetail::Bytes(..) => None,
            ApiDetail::Kernel(s) | ApiDetail::Label(s) => Some(s),
            ApiDetail::Text(s) => Some(s),
        }
    }

    /// Appends the rendered text to `out`.
    pub fn write_to(&self, out: &mut String) {
        match self {
            ApiDetail::Bytes(size, op) => {
                push_u64(out, *size);
                out.push_str("B ");
                out.push_str(op.word());
            }
            ApiDetail::Kernel(s) | ApiDetail::Label(s) => out.push_str(s),
            ApiDetail::Text(s) => out.push_str(s),
        }
    }

    /// The length in bytes of the rendered text.
    pub fn rendered_len(&self) -> usize {
        match self {
            ApiDetail::Bytes(size, op) => digits(*size) + 2 + op.word().len(),
            ApiDetail::Kernel(s) | ApiDetail::Label(s) => s.len(),
            ApiDetail::Text(s) => s.len(),
        }
    }
}

impl fmt::Display for ApiDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiDetail::Bytes(size, op) => write!(f, "{size}B {}", op.word()),
            ApiDetail::Kernel(s) | ApiDetail::Label(s) => f.write_str(s),
            ApiDetail::Text(s) => f.write_str(s),
        }
    }
}

/// A call path rendered to source locations, innermost frame first. Each
/// location is shared by every path that passes through it.
pub type PathText = Arc<[Arc<str>]>;

/// Index of one call path in a session's [`PathTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u32);

/// The session's call paths, each interned once and rendered once.
///
/// Frames are rendered through a mirror of the context-owned frame table,
/// which the collector feeds as frames are interned; so the table needs
/// no access to the [`gpu_sim::FrameTable`], and a streaming writer can
/// emit rendered paths while the program runs.
#[derive(Debug, Default)]
pub struct PathTable {
    /// `FrameId.0` → rendered location (empty while unseen).
    frames: Vec<Arc<str>>,
    index: HashMap<Arc<[FrameId]>, PathId>,
    paths: Vec<PathText>,
    /// The frames of the most recently interned path, with its id: most
    /// GPU APIs repeat their predecessor's call site.
    last: Option<(Arc<[FrameId]>, PathId)>,
}

impl PathTable {
    /// Records the rendering of frame `id`. A frame keeps its first
    /// rendering: the frame table never re-binds an id.
    pub(crate) fn mirror_frame(&mut self, id: FrameId, loc: &SourceLoc) {
        let idx = id.0 as usize;
        if self.frames.len() <= idx {
            self.frames.resize(idx + 1, Arc::from(""));
        }
        if self.frames[idx].is_empty() {
            self.frames[idx] = Arc::from(loc.to_string());
        }
    }

    /// The id of `path`, interning and rendering it on first sight.
    pub(crate) fn intern(&mut self, path: &CallPath) -> PathId {
        if let Some((frames, id)) = &self.last {
            if **frames == *path.frames() {
                return *id;
            }
        }
        let id = match self.index.get(path.frames()) {
            Some(&id) => id,
            None => {
                let id = PathId(u32::try_from(self.paths.len()).expect("path table overflow"));
                let text: PathText = path
                    .frames()
                    .iter()
                    .rev()
                    .map(|f| {
                        self.frames
                            .get(f.0 as usize)
                            .filter(|s| !s.is_empty())
                            .cloned()
                            .unwrap_or_else(|| Arc::from(format!("<unknown frame {}>", f.0)))
                    })
                    .collect();
                self.paths.push(text);
                self.index.insert(path.frames_shared(), id);
                id
            }
        };
        self.last = Some((path.frames_shared(), id));
        id
    }

    /// The rendered path `id`; empty for an id not in this table.
    pub fn text(&self, id: PathId) -> PathText {
        self.paths
            .get(id.0 as usize)
            .cloned()
            .unwrap_or_else(|| Arc::from([]))
    }

    /// Every rendered path, indexed by [`PathId`].
    pub fn paths(&self) -> &[PathText] {
        &self.paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_render_the_paper_naming() {
        let name = ApiName::new(GpuApiKind::Kerl, StreamId(0), 5);
        assert_eq!(name.to_string(), "KERL(0, 5)");
        assert_eq!(ApiName::missing(7).to_string(), "<api 7>");
        assert_eq!(name.kind(), Some(GpuApiKind::Kerl));
    }

    #[test]
    fn paths_are_interned_once_and_share_frames() {
        let mut stack = gpu_sim::CallStack::new();
        let mut table = PathTable::default();
        let main = SourceLoc::new("main", "app.rs", 1);
        let id = stack.push(main.clone());
        table.mirror_frame(id, &main);
        let outer = table.intern(&stack.capture());
        let inner_loc = SourceLoc::new("step", "app.rs", 9);
        let inner_id = stack.push(inner_loc.clone());
        table.mirror_frame(inner_id, &inner_loc);
        let inner = table.intern(&stack.capture());
        stack.pop();
        assert_eq!(table.intern(&stack.capture()), outer);
        assert_ne!(inner, outer);
        assert_eq!(table.paths().len(), 2);
        let text = table.text(inner);
        assert_eq!(&*text[0], "step @ app.rs:9");
        assert!(Arc::ptr_eq(&text[1], &table.text(outer)[0]));
        assert!(table.text(PathId(99)).is_empty());
    }
}
