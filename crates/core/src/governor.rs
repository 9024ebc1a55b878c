//! The session governor: resource budgets, the adaptive degradation
//! ladder, and cooperative cancellation.
//!
//! DrGPUM profiles *other* programs' memory excess, but its own collector
//! can grow without bound (per-kernel access maps, raw access records, the
//! in-memory trace), and a wedged detector can hang the whole session. The
//! governor defends the profiler against itself:
//!
//! * a [`ResourceBudget`] caps profiler-resident bytes, trace bytes, and
//!   per-detector / per-kernel wall-clock;
//! * a [`SessionGovernor`] meters collector allocations through a counting
//!   layer ([`SessionGovernor::charge`] / [`SessionGovernor::credit`]) and,
//!   when the resident budget trips, walks the adaptive degradation ladder
//!   of [`CollectionRung`]s — full access maps → coalesced-only → sampled →
//!   counters-only — recording each demotion as a timestamped
//!   [`DegradationRecord`] so reports stay honest;
//! * a [`CancelToken`] carries watchdog deadlines to detectors (and any
//!   other cooperative loop): the offender polls the token, the token
//!   reports cancelled once its deadline passes, and the run continues with
//!   the offender marked `TimedOut`.
//!
//! When no budget ever trips the governor is inert: it never mutates
//! collector state and reports are byte-identical to an ungoverned run.

use crate::report::DegradationRecord;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cooperative-cancellation flag, optionally with a deadline.
///
/// Cheap to clone (one `Arc<AtomicBool>` and the deadline); all clones
/// observe the same flag. Long-running loops poll
/// [`is_cancelled`](Self::is_cancelled) and bail out promptly once someone
/// calls [`cancel`](Self::cancel) or the deadline passes.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, uncancelled token without a deadline.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A fresh token that reports cancelled once `timeout` has elapsed
    /// from now. A timeout too long for the clock to represent never
    /// expires.
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            flag: Arc::default(),
            deadline: Instant::now().checked_add(timeout),
        }
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once any clone has been cancelled or the deadline has
    /// passed. Without a deadline this is one atomic load.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Parses a human byte size: decimal digits with an optional `K`/`M`/`G`
/// suffix (powers of two, case-insensitive), e.g. `"32M"` or `"4096"`.
pub fn parse_byte_size(s: &str) -> Result<u64, String> {
    let s = s.trim();
    if s.is_empty() {
        return Err("empty byte size".to_owned());
    }
    let (digits, shift) = match s.as_bytes()[s.len() - 1].to_ascii_uppercase() {
        b'K' => (&s[..s.len() - 1], 10),
        b'M' => (&s[..s.len() - 1], 20),
        b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("invalid byte size `{s}` (expected digits with optional K/M/G)"))?;
    n.checked_shl(shift)
        .filter(|v| shift == 0 || *v >> shift == n)
        .ok_or_else(|| format!("byte size `{s}` overflows u64"))
}

/// Resource limits for one profiling session. Every field defaults to
/// unlimited (`None`); [`apply_env`](Self::apply_env) fills *unset* fields
/// from the environment, so explicit settings always win.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResourceBudget {
    /// Maximum profiler-resident bytes (access maps, raw records, usage
    /// curve). When exceeded the governor demotes collection one rung at a
    /// time until the footprint fits or the ladder bottoms out.
    pub max_resident_bytes: Option<u64>,
    /// Maximum bytes a streaming trace may occupy on disk. When exceeded
    /// the stream writer stops appending (after a final checkpoint) and the
    /// loss is recorded as a degradation.
    pub max_trace_bytes: Option<u64>,
    /// Watchdog deadline per pattern-detector family, in milliseconds,
    /// counted from the moment that family starts. A detector still
    /// running at its deadline is cooperatively cancelled and reported
    /// `TimedOut`; the other detectors are unaffected.
    pub detector_deadline_ms: Option<u64>,
}

/// Environment variable read by [`ResourceBudget::apply_env`] for the
/// resident-bytes limit (a byte size such as `32M`).
pub const ENV_MEM_BUDGET: &str = "DRGPUM_MEM_BUDGET";
/// Environment variable read by [`ResourceBudget::apply_env`] for the
/// per-detector watchdog deadline, in milliseconds.
pub const ENV_DETECTOR_DEADLINE: &str = "DRGPUM_DETECTOR_DEADLINE_MS";

impl ResourceBudget {
    /// An explicitly unlimited budget (the default).
    pub fn unlimited() -> Self {
        ResourceBudget::default()
    }

    /// Sets the resident-bytes limit (builder style).
    pub fn with_resident_bytes(mut self, bytes: u64) -> Self {
        self.max_resident_bytes = Some(bytes);
        self
    }

    /// Sets the trace-bytes limit (builder style).
    pub fn with_trace_bytes(mut self, bytes: u64) -> Self {
        self.max_trace_bytes = Some(bytes);
        self
    }

    /// Sets the per-detector watchdog deadline (builder style).
    pub fn with_detector_deadline_ms(mut self, ms: u64) -> Self {
        self.detector_deadline_ms = Some(ms);
        self
    }

    /// Fills unset fields from `DRGPUM_MEM_BUDGET` (byte size) and
    /// `DRGPUM_DETECTOR_DEADLINE_MS` (milliseconds). Unparsable values are
    /// ignored — a malformed env var must not change profiling behavior.
    pub fn apply_env(mut self) -> Self {
        if self.max_resident_bytes.is_none() {
            if let Ok(v) = std::env::var(ENV_MEM_BUDGET) {
                if let Ok(n) = parse_byte_size(&v) {
                    self.max_resident_bytes = Some(n);
                }
            }
        }
        if self.detector_deadline_ms.is_none() {
            if let Ok(v) = std::env::var(ENV_DETECTOR_DEADLINE) {
                if let Ok(n) = v.trim().parse() {
                    self.detector_deadline_ms = Some(n);
                }
            }
        }
        self
    }
}

/// One rung of the adaptive degradation ladder, in decreasing fidelity
/// (and decreasing memory footprint). The governor starts at
/// [`FullAccessMaps`](Self::FullAccessMaps) and only ever moves down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CollectionRung {
    /// Everything the options ask for: per-element bitmaps, per-API range
    /// sets, and access-frequency maps.
    FullAccessMaps,
    /// Frequency maps are dropped and smaller sanitizer record buffers are
    /// requested; bitmaps and range sets survive, so overallocation and
    /// structured-access detection still work (NUAF does not). Modeled on
    /// CUTHERMO's aggregate fallback. (Warp-level coalescing, which gave
    /// the rung its name, is always on in DrGPUM sessions.)
    CoalescedOnly,
    /// Intra-object collection is additionally thinned by multiplying the
    /// sampling period by [`SAMPLING_DEMOTION_SCALE`] — GPA-style
    /// sampling to bound overhead.
    Sampled,
    /// Intra-object state is dropped entirely; kernels are patched with
    /// cheap hit flags only, so object-level detection (touched / not
    /// touched per API) is all that remains.
    CountersOnly,
}

/// Factor applied to the sampling period on the `Sampled` rung.
pub const SAMPLING_DEMOTION_SCALE: u64 = 16;

impl CollectionRung {
    /// The next rung down, or `None` at the bottom of the ladder.
    pub fn demote(self) -> Option<CollectionRung> {
        match self {
            CollectionRung::FullAccessMaps => Some(CollectionRung::CoalescedOnly),
            CollectionRung::CoalescedOnly => Some(CollectionRung::Sampled),
            CollectionRung::Sampled => Some(CollectionRung::CountersOnly),
            CollectionRung::CountersOnly => None,
        }
    }

    /// Stable display name, used in degradation records.
    pub fn name(self) -> &'static str {
        match self {
            CollectionRung::FullAccessMaps => "full-access-maps",
            CollectionRung::CoalescedOnly => "coalesced-only",
            CollectionRung::Sampled => "sampled",
            CollectionRung::CountersOnly => "counters-only",
        }
    }
}

/// Meters the collector's resident footprint against a [`ResourceBudget`]
/// and drives the degradation ladder.
///
/// The governor is a passive counting layer: the collector calls
/// [`charge`](Self::charge) when it allocates trace state and
/// [`credit`](Self::credit) when it sheds it, then asks
/// [`over_resident_budget`](Self::over_resident_budget) at deterministic
/// checkpoints (API boundaries, kernel end). Demotions themselves are
/// applied by the collector — the governor only decides *when* and records
/// *what*.
#[derive(Debug, Clone)]
pub struct SessionGovernor {
    budget: ResourceBudget,
    rung: CollectionRung,
    resident_bytes: u64,
    trace_bytes: u64,
    started: Instant,
    /// Set once the ladder bottomed out while still over budget, so the
    /// "nothing left to shed" record is emitted exactly once.
    exhausted: bool,
    /// Set once the trace-bytes limit tripped, so streaming stops once.
    trace_stopped: bool,
}

impl SessionGovernor {
    /// A governor enforcing `budget`, starting at full fidelity.
    pub fn new(budget: ResourceBudget) -> Self {
        SessionGovernor {
            budget,
            rung: CollectionRung::FullAccessMaps,
            resident_bytes: 0,
            trace_bytes: 0,
            started: Instant::now(),
            exhausted: false,
            trace_stopped: false,
        }
    }

    /// The budget being enforced.
    pub fn budget(&self) -> &ResourceBudget {
        &self.budget
    }

    /// The current rung of the degradation ladder.
    pub fn rung(&self) -> CollectionRung {
        self.rung
    }

    /// Metered profiler-resident bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Milliseconds elapsed since the governor (session) was created.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Records `bytes` of new profiler-resident state.
    pub fn charge(&mut self, bytes: u64) {
        self.resident_bytes = self.resident_bytes.saturating_add(bytes);
    }

    /// Records that `bytes` of profiler-resident state were shed.
    pub fn credit(&mut self, bytes: u64) {
        self.resident_bytes = self.resident_bytes.saturating_sub(bytes);
    }

    /// `true` while the metered footprint exceeds the resident budget.
    pub fn over_resident_budget(&self) -> bool {
        self.budget
            .max_resident_bytes
            .is_some_and(|max| self.resident_bytes > max)
    }

    /// Effective sampling-period scale for the current rung (`1` above the
    /// `Sampled` rung).
    pub fn sampling_scale(&self) -> u64 {
        if self.rung >= CollectionRung::Sampled {
            SAMPLING_DEMOTION_SCALE
        } else {
            1
        }
    }

    /// Takes one step down the ladder, returning the new rung and the
    /// degradation record to attach to the report. Returns `None` at the
    /// bottom; the first such call while still over budget yields a single
    /// "budget exhausted" record via [`exhaustion_record`](Self::exhaustion_record).
    pub fn demote(&mut self, cause: &str) -> Option<(CollectionRung, DegradationRecord)> {
        let next = self.rung.demote()?;
        let record = DegradationRecord::at(
            "governor",
            format!(
                "{cause}: demoted collection {} -> {} (resident {} bytes, budget {} bytes)",
                self.rung.name(),
                next.name(),
                self.resident_bytes,
                self.budget
                    .max_resident_bytes
                    .expect("demotion implies a resident budget"),
            ),
            self.elapsed_ms(),
        );
        self.rung = next;
        Some((next, record))
    }

    /// The one-time record emitted when the ladder bottoms out while still
    /// over budget. Returns `None` on every call after the first.
    pub fn exhaustion_record(&mut self) -> Option<DegradationRecord> {
        if self.exhausted {
            return None;
        }
        self.exhausted = true;
        Some(DegradationRecord::at(
            "governor",
            format!(
                "resident budget still exceeded at the {} rung ({} bytes over); \
                 nothing further to shed",
                self.rung.name(),
                self.resident_bytes
                    .saturating_sub(self.budget.max_resident_bytes.unwrap_or(0)),
            ),
            self.elapsed_ms(),
        ))
    }

    /// Records `bytes` appended to the streaming trace. Returns the
    /// degradation record the first time the trace budget trips (the
    /// caller stops streaming); `None` otherwise.
    pub fn note_trace_bytes(&mut self, total_bytes: u64) -> Option<DegradationRecord> {
        self.trace_bytes = total_bytes;
        let max = self.budget.max_trace_bytes?;
        if self.trace_bytes <= max || self.trace_stopped {
            return None;
        }
        self.trace_stopped = true;
        Some(DegradationRecord::at(
            "governor",
            format!(
                "trace budget exceeded ({} of {max} bytes written); streaming \
                 stopped after a final checkpoint",
                self.trace_bytes
            ),
            self.elapsed_ms(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn token_without_deadline_never_expires() {
        let t = CancelToken::new();
        let unrepresentable = CancelToken::with_deadline(Duration::MAX);
        std::thread::sleep(Duration::from_millis(2));
        assert!(!t.is_cancelled());
        assert!(!unrepresentable.is_cancelled());
    }

    #[test]
    fn token_past_its_deadline_reports_cancelled() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
    }

    #[test]
    fn cancel_works_on_a_token_with_a_deadline() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        let u = t.clone();
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_byte_size("4096"), Ok(4096));
        assert_eq!(parse_byte_size("32K"), Ok(32 << 10));
        assert_eq!(parse_byte_size("32M"), Ok(32 << 20));
        assert_eq!(parse_byte_size("2g"), Ok(2 << 30));
        assert_eq!(parse_byte_size(" 8M "), Ok(8 << 20));
        assert!(parse_byte_size("").is_err());
        assert!(parse_byte_size("12T").is_err());
        assert!(parse_byte_size("M").is_err());
        assert!(parse_byte_size("999999999999999999999G").is_err());
    }

    #[test]
    fn ladder_walks_down_and_stops() {
        let mut r = CollectionRung::FullAccessMaps;
        let mut names = vec![r.name()];
        while let Some(next) = r.demote() {
            r = next;
            names.push(r.name());
        }
        assert_eq!(
            names,
            [
                "full-access-maps",
                "coalesced-only",
                "sampled",
                "counters-only"
            ]
        );
    }

    #[test]
    fn governor_meters_and_demotes() {
        let mut g = SessionGovernor::new(ResourceBudget::default().with_resident_bytes(100));
        g.charge(80);
        assert!(!g.over_resident_budget());
        g.charge(40);
        assert!(g.over_resident_budget());
        let (rung, rec) = g.demote("resident budget exceeded").unwrap();
        assert_eq!(rung, CollectionRung::CoalescedOnly);
        assert_eq!(rec.stage, "governor");
        assert!(rec.detail.contains("full-access-maps -> coalesced-only"));
        assert!(rec.at_ms.is_some());
        g.credit(40);
        assert!(!g.over_resident_budget());
    }

    #[test]
    fn exhaustion_record_is_emitted_once() {
        let mut g = SessionGovernor::new(ResourceBudget::default().with_resident_bytes(1));
        g.charge(10);
        while g.demote("x").is_some() {}
        assert_eq!(g.rung(), CollectionRung::CountersOnly);
        assert!(g.exhaustion_record().is_some());
        assert!(g.exhaustion_record().is_none());
    }

    #[test]
    fn sampling_scale_follows_rung() {
        let mut g = SessionGovernor::new(ResourceBudget::default().with_resident_bytes(0));
        assert_eq!(g.sampling_scale(), 1);
        g.demote("t");
        assert_eq!(g.sampling_scale(), 1);
        g.demote("t");
        assert_eq!(g.sampling_scale(), SAMPLING_DEMOTION_SCALE);
        g.demote("t");
        assert_eq!(g.sampling_scale(), SAMPLING_DEMOTION_SCALE);
    }

    #[test]
    fn trace_budget_trips_once() {
        let mut g = SessionGovernor::new(ResourceBudget::default().with_trace_bytes(100));
        assert!(g.note_trace_bytes(50).is_none());
        let rec = g.note_trace_bytes(150).unwrap();
        assert!(rec.detail.contains("trace budget exceeded"));
        assert!(g.note_trace_bytes(200).is_none());
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let mut g = SessionGovernor::new(ResourceBudget::unlimited());
        g.charge(u64::MAX);
        assert!(!g.over_resident_budget());
        assert!(g.note_trace_bytes(u64::MAX).is_none());
    }

    #[test]
    fn budget_builders_and_env_precedence() {
        let b = ResourceBudget::unlimited()
            .with_resident_bytes(1)
            .with_trace_bytes(2)
            .with_detector_deadline_ms(3);
        assert_ne!(b, ResourceBudget::unlimited());
        assert_eq!(b.max_resident_bytes, Some(1));
        assert_eq!(b.max_trace_bytes, Some(2));
        assert_eq!(b.detector_deadline_ms, Some(3));
        // apply_env never overrides explicit fields (whatever the env says).
        let same = b.clone().apply_env();
        assert_eq!(same.max_resident_bytes, Some(1));
        assert_eq!(same.detector_deadline_ms, Some(3));
    }
}
