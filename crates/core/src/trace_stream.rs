//! Crash-consistent streaming trace writer.
//!
//! A batch trace ([`crate::trace_io::SavedTrace::to_text`]) is written at
//! process exit — which is exactly when a crashing run loses everything.
//! [`StreamingTraceWriter`] instead appends frames of the same trace format
//! (version 4, see [`crate::trace_io`]) to disk *as the run progresses*,
//! fsyncing after every frame:
//!
//! * the `DRGPUM-TRACE 4` header and the `meta` frame on creation;
//! * one `delta` frame per GPU API event (new call-path entries and trace
//!   rows, plus updated def/use sets when a kernel finishes);
//! * a periodic `checkpoint` frame snapshotting the mutable state
//!   (intra-object access maps, unified-memory pages) that deltas cannot
//!   carry incrementally;
//! * a final checkpoint and a clean-finish `end` marker on graceful
//!   shutdown.
//!
//! A cleanly finished stream is a complete trace: [`crate::trace_io::load`]
//! reads it strictly, like a batch trace. After a `kill -9`,
//! [`crate::trace_io::salvage`] recovers every API event up to the last
//! fsynced frame, and `drgpum run --resume <trace>` re-analyzes the
//! recovered prefix. The writer is driven by the collector's
//! [`StreamState`] at deterministic boundaries (end of each API callback,
//! kernel end), so the on-disk frame sequence is a pure function of the
//! profiled program.

use crate::collector::Collector;
use crate::error::ProfilerError;
use crate::object::ObjectId;
use crate::trace_io;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Deltas between periodic checkpoints. Small enough that a crash loses
/// little map state; large enough that checkpoint snapshots (which scale
/// with live access-map size, not with the delta) stay off the hot path.
const CHECKPOINT_EVERY: u32 = 8;

/// An append-only, fsync-per-frame trace writer (see the module docs).
///
/// Create with [`StreamingTraceWriter::create`], then hand it to
/// [`crate::Profiler::attach_streaming`] (or wrap it in a [`StreamState`]
/// and pass it to [`Collector::start_stream`] directly).
#[derive(Debug)]
pub struct StreamingTraceWriter {
    file: File,
    path: PathBuf,
    bytes_written: u64,
}

impl StreamingTraceWriter {
    /// Creates (truncating) the trace file at `path` and writes the trace
    /// header plus the `meta` frame, fsynced.
    ///
    /// # Errors
    ///
    /// Returns [`ProfilerError::Stream`] when the file cannot be created
    /// or the header cannot be written and synced.
    pub fn create(path: impl AsRef<Path>, platform: &str) -> Result<Self, ProfilerError> {
        let path = path.as_ref().to_path_buf();
        let stream_err = |what: &str, e: &std::io::Error| ProfilerError::Stream {
            context: format!("{what} {}", path.display()),
            message: e.to_string(),
        };
        let file = File::create(&path).map_err(|e| stream_err("creating", &e))?;
        let mut writer = StreamingTraceWriter {
            file,
            path,
            bytes_written: 0,
        };
        writer.append(&trace_io::stream_header(platform))?;
        Ok(writer)
    }

    /// Appends one already-framed section (or marker line) and fsyncs it.
    fn append(&mut self, text: &str) -> Result<(), ProfilerError> {
        let op = |what: &str, e: std::io::Error| ProfilerError::Stream {
            context: format!("{what} {}", self.path.display()),
            message: e.to_string(),
        };
        self.file
            .write_all(text.as_bytes())
            .map_err(|e| op("appending to", e))?;
        self.file.sync_data().map_err(|e| op("syncing", e))?;
        self.bytes_written += text.len() as u64;
        Ok(())
    }

    /// Total bytes written (and fsynced) so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// The trace file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The collector-side state of one streaming trace: the writer plus
/// high-water marks of what has already been emitted.
#[derive(Debug)]
pub struct StreamState {
    writer: StreamingTraceWriter,
    cursor: trace_io::StreamCursor,
    deltas_since_checkpoint: u32,
    stopped: bool,
}

impl StreamState {
    /// Wraps a freshly-created writer.
    pub fn new(writer: StreamingTraceWriter) -> Self {
        StreamState {
            writer,
            cursor: trace_io::StreamCursor::default(),
            deltas_since_checkpoint: 0,
            stopped: false,
        }
    }

    /// Whether streaming has stopped (clean finish, I/O failure, or trace
    /// budget trip).
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Stops appending. Idempotent; the file keeps whatever was fsynced.
    pub(crate) fn stop(&mut self) {
        self.stopped = true;
    }

    /// Total bytes written (and fsynced) so far.
    pub fn bytes_written(&self) -> u64 {
        self.writer.bytes_written()
    }

    /// Notes that object `id` was freed or reclassified, so the next delta
    /// re-emits its row.
    pub(crate) fn note_changed(&mut self, id: ObjectId) {
        self.cursor.changed.push(id);
    }

    /// Emits everything new since the last flush as one delta frame, plus
    /// a checkpoint frame every [`CHECKPOINT_EVERY`] deltas.
    pub(crate) fn flush(&mut self, collector: &Collector) -> Result<(), ProfilerError> {
        let Some(delta) = trace_io::delta_section(collector, &mut self.cursor) else {
            return Ok(());
        };
        self.writer.append(&delta)?;
        self.deltas_since_checkpoint += 1;
        if self.deltas_since_checkpoint >= CHECKPOINT_EVERY {
            self.writer
                .append(&trace_io::checkpoint_section(collector))?;
            self.deltas_since_checkpoint = 0;
        }
        Ok(())
    }

    /// Writes a checkpoint frame immediately (used right before streaming
    /// stops on a trace-budget trip, so `--resume` keeps the final maps).
    pub(crate) fn final_checkpoint(&mut self, collector: &Collector) -> Result<(), ProfilerError> {
        self.writer.append(&trace_io::checkpoint_section(collector))
    }

    /// Clean finish: flushes the last delta, writes a final checkpoint and
    /// the `end` marker, and stops.
    pub(crate) fn finish(&mut self, collector: &Collector) -> Result<(), ProfilerError> {
        if let Some(delta) = trace_io::delta_section(collector, &mut self.cursor) {
            self.writer.append(&delta)?;
        }
        self.writer
            .append(&trace_io::checkpoint_section(collector))?;
        self.writer.append("end\n")?;
        self.stopped = true;
        Ok(())
    }
}
