//! # drgpum-core: an object-centric GPU memory profiler
//!
//! A Rust reproduction of **DrGPUM** (*DrGPUM: Guiding Memory Optimization
//! for GPU-Accelerated Applications*, ASPLOS 2023): the first profiler that
//! systematically investigates patterns of memory inefficiencies in
//! GPU-accelerated applications, correlating problematic memory usage with
//! data objects and GPU APIs.
//!
//! The profiler runs against the simulated CUDA-like runtime in
//! [`gpu_sim`], observing the same event stream NVIDIA's Sanitizer API
//! provides on real hardware. It performs:
//!
//! * **macroscopic object-level analysis** — a timestamp-augmented memory
//!   access trace over data objects and GPU APIs, with a dependency graph
//!   and Kahn topological timestamps for multi-stream programs (see
//!   [`depgraph`] and [`analyzer`]), detecting early allocation, late
//!   deallocation, redundant allocation, unused allocation, memory leak,
//!   temporary idleness, and dead write;
//! * **microscopic intra-object analysis** — per-element bitmaps, per-API
//!   footprints, and access-frequency maps, detecting overallocation (with
//!   the Eq. 1 fragmentation metric and Table 2 guidance), non-uniform
//!   access frequency (coefficient of variation), and structured access;
//! * **offline analysis** — call-path resolution to source locations,
//!   memory-peak pinpointing, prioritized findings with optimization
//!   suggestions, and a Perfetto GUI export (Fig. 7).
//!
//! # Quick start
//!
//! ```
//! use drgpum_core::{PatternKind, Profiler, ProfilerOptions};
//! use gpu_sim::DeviceContext;
//!
//! # fn main() -> Result<(), gpu_sim::SimError> {
//! let mut ctx = DeviceContext::new_default();
//! let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
//!
//! // The profiled "application":
//! let early = ctx.malloc(1 << 20, "early_buffer")?;
//! let other = ctx.malloc(1 << 10, "other")?;
//! ctx.memset(other, 0, 1 << 10)?;          // two APIs run before
//! ctx.memcpy_h2d(other, &[1u8; 1 << 10])?; // early_buffer is touched…
//! ctx.memset(early, 0, 1 << 20)?;          // …here
//! ctx.free(early)?;
//! ctx.free(other)?;
//!
//! let report = profiler.report(&ctx);
//! assert!(report.has_pattern(PatternKind::EarlyAllocation));
//! println!("{}", report.render_text());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod accessmap;
pub mod advisor;
pub mod analyzer;
pub mod collector;
pub mod depgraph;
pub mod error;
pub mod export;
pub mod governor;
pub mod guidance;
pub mod metrics;
pub mod names;
pub mod object;
pub mod options;
pub mod patterns;
pub mod peaks;
pub mod perfetto;
pub mod profiler;
pub mod report;
pub mod trace_io;
pub mod trace_stream;

pub use advisor::{estimate as estimate_savings, SavingsEstimate};
pub use collector::{Collector, PhaseTimings};
pub use error::{ProfilerError, TraceError};
pub use governor::{CancelToken, CollectionRung, ResourceBudget, SessionGovernor};
pub use guidance::OverallocGuidance;
pub use names::{ApiName, GpuApiKind, PathId, PathTable, PathText};
pub use object::{DataObject, ObjectId, ObjectRegistry, ObjectSource};
pub use options::{AnalysisLevel, ProfilerOptions, SamplingPolicy, Thresholds};
pub use patterns::{PatternEvidence, PatternFinding, PatternKind};
pub use profiler::Profiler;
pub use report::{DegradationRecord, DetectorOutcome, DetectorStatus, Finding, Report};
pub use trace_io::SavedTrace;
pub use trace_stream::StreamingTraceWriter;
