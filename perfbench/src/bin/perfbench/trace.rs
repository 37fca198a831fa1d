//! Spans and counter deltas for the traced run, kept in memory and
//! written out once at exit.
//!
//! A span is one timed interval — the workload, a pass, an op, or a call
//! into one layer — with its parent and pass id. Counters are deltas of
//! the program's own counters, recorded inside the span whose boundary
//! they were read at. A disabled [`Tracer`] runs its closures without
//! reading the clock, so untraced passes pay nothing.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Layer-qualified name (`planner.best`, `report.render`) or op name.
    pub name: String,
    /// Index of the enclosing span in [`Trace::spans`].
    pub parent: Option<usize>,
    /// Pass id: 0 for set-up, then 1, 2, … per traced pass.
    pub pass: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Its duration minus the time its children cover; filled in by
    /// [`Tracer::into_trace`].
    pub self_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A counter delta recorded inside span `span`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Counter {
    /// Index of the span the delta was read around.
    pub span: usize,
    /// Counter name (`memo_misses`, `netsim.transfers`, …).
    pub name: String,
    /// The delta.
    pub value: u64,
}

/// The recorded spans and counters of one process.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
    /// Counter deltas in the order they were read.
    pub counters: Vec<Counter>,
}

impl Trace {
    /// Sets each span's self time. Children of one span run one after
    /// another on the same thread, so their durations add up to the time
    /// they cover.
    fn fill_self_ns(&mut self) {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        for (s, c) in self.spans.iter_mut().zip(covered) {
            s.self_ns = s.dur_ns().saturating_sub(c);
        }
    }

    /// Total duration in milliseconds of the spans named `name` in `pass`.
    pub fn span_ms(&self, pass: u32, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.pass == pass && s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Total self time in milliseconds of the spans named `name` in `pass`.
    pub fn self_ms(&self, pass: u32, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.pass == pass && s.name == name)
            .map(|s| s.self_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Sum of the counter deltas named `name` recorded in `pass`.
    pub fn counter(&self, pass: u32, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name && self.spans.get(c.span).is_some_and(|s| s.pass == pass))
            .map(|c| c.value)
            .sum()
    }
}

/// Records a [`Trace`] when enabled; otherwise only runs the closures.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pass: u32,
    open: Vec<usize>,
    trace: Trace,
}

impl Tracer {
    /// A recording (`on`) or pass-through tracer.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            pass: 0,
            open: Vec::new(),
            trace: Trace::default(),
        }
    }

    /// Whether spans and counters are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts the next pass; the first has id 1.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::exit`]. Returns `None` when tracing is off.
    pub fn enter(&mut self, name: &str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.trace.spans.len();
        self.trace.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            pass: self.pass,
            start_ns: self.now_ns(),
            end_ns: 0,
            self_ns: 0,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span [`Tracer::enter`] opened.
    pub fn exit(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
            self.open.pop();
            self.trace.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let s = self.enter(name);
        let r = f(self);
        self.exit(s);
        r
    }

    /// Records `dur_ns` the program timed itself as a closed child of the
    /// innermost open span, placed at that span's start.
    pub fn measured_child(&mut self, name: &str, dur_ns: u64) {
        if let (true, Some(&parent)) = (self.on, self.open.last()) {
            let start_ns = self.trace.spans[parent].start_ns;
            self.trace.spans.push(Span {
                name: name.to_string(),
                parent: Some(parent),
                pass: self.pass,
                start_ns,
                end_ns: start_ns + dur_ns,
                self_ns: 0,
            });
        }
    }

    /// Records a counter delta inside the innermost open span.
    pub fn count(&mut self, name: &str, value: u64) {
        if let (true, Some(&span)) = (self.on, self.open.last()) {
            self.trace.counters.push(Counter {
                span,
                name: name.to_string(),
                value,
            });
        }
    }

    /// The recorded trace, each span with its self time.
    pub fn into_trace(mut self) -> Trace {
        self.trace.fill_self_ns();
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_round_trips() {
        let mut t = Tracer::new(true);
        t.next_pass();
        t.span("op", |t| {
            t.measured_child("partition.profile_build", 0);
            t.span("layer", |t| t.count("memo_misses", 3));
        });
        let trace = t.into_trace();
        let dur = |i: usize| trace.spans[i].dur_ns();
        assert_eq!(trace.spans[0].self_ns, dur(0) - dur(2));
        assert_eq!(trace.counter(1, "memo_misses"), 3);
        let text = serde_json::to_string(&trace).expect("serializes");
        assert_eq!(serde_json::from_str::<Trace>(&text).ok(), Some(trace));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", |t| t.enter("layer")), None);
        t.count("memo_misses", 1);
        assert_eq!(t.into_trace(), Trace::default());
    }
}
