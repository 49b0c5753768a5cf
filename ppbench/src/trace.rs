//! In-memory spans recorded around calls into each layer, from outside
//! the program: name, start, end, parent and the wave they belong to.
//!
//! A span's *self time* is its duration minus the durations of its direct
//! children. Spans stay in memory until the run ends; only the first
//! traced wave's spans are kept for output, every wave's self times are
//! folded into per-name totals as it finishes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same wave, if any.
    pub parent: u32,
    pub wave: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of finished spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    wave: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), wave: 0, spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, wave: self.wave });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        let i = self.open.pop().expect("exit without enter") as usize;
        self.spans[i].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.timed(name, f).0
    }

    /// [`Tracer::span`], also returning the span's duration in ns.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        self.enter(name);
        let i = self.spans.len() - 1;
        let r = f(self);
        self.exit();
        (r, self.spans[i].duration())
    }

    /// Ends the current wave: returns its per-name self times and its
    /// spans, and starts the next wave with an empty span buffer.
    pub fn finish_wave(&mut self) -> (BTreeMap<&'static str, SelfTime>, Vec<Span>) {
        assert!(self.open.is_empty(), "finish_wave with open spans");
        let spans = std::mem::take(&mut self.spans);
        self.wave += 1;
        (self_times(&spans), spans)
    }
}

/// Folds spans into per-name counts, total and self time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.duration();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.duration();
        e.self_ns += s.duration().saturating_sub(children);
    }
    out
}

/// Spans as JSON lines: `{"wave":..,"id":..,"parent":..,"name":..,"start_ns":..,"end_ns":..}`
/// (`parent` is null for a root span).
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
        let _ = writeln!(
            out,
            r#"{{"wave":{},"id":{id},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.wave, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span =
            |name, start_ns, end_ns, parent| Span { name, start_ns, end_ns, parent, wave: 0 };
        let spans = [
            span("wave", 0, 100, NO_PARENT),
            span("pass", 10, 60, 0),
            span("op", 20, 30, 1),
            span("op", 30, 50, 1),
        ];
        let t = self_times(&spans);
        assert_eq!(t["wave"].self_ns, 50);
        assert_eq!(t["pass"].self_ns, 20);
        assert_eq!((t["op"].count, t["op"].self_ns), (2, 30));
    }
}
