//! In-memory span recorder for the traced run.
//!
//! The harness opens a span around each call it makes into a layer's
//! public functions. Spans stay in memory until the run ends; then they are
//! written out as JSON and reduced to per-session self times (a span's
//! duration minus the time its direct children cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    session: u64,
}

/// Records spans when enabled; every call is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    pub enabled: bool,
    pub session: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            session: 0,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            session: self.session,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end_ns = end_ns;
    }

    /// Closes every open span at the current time: the recovery after a
    /// session that failed or panicked midway.
    pub fn abandon_open(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Self time in milliseconds per `(session, span name)`, summed over
    /// the spans of that name in the session.
    pub fn self_times_ms(&self) -> BTreeMap<(u64, &'static str), f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry((s.session, s.name)).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// Each span as one JSON object per line inside a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"session\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.session
            );
        }
        out.push(']');
        out
    }
}
