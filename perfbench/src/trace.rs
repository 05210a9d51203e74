//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public API; nothing inside the program is instrumented. A span's layer
//! is the part of its name before the first `.` (`core.join` belongs to
//! `core`). Spans nest strictly because every workload runs on one
//! calling thread, so a stack gives each span its parent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `core.polar_build`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root span.
    pub parent: u32,
    /// Id shared by every span of one op.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer the span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle to an open span; [`Tracer::end`] closes it.
#[must_use = "a span must be closed with Tracer::end"]
pub struct Open(Option<u32>);

/// Records spans when on; every call is a no-op branch when off.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Turns recording on or off; open spans must be closed first.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "spans still open");
        self.on = on;
    }

    /// Starts a new op: spans begun from now on share a fresh op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes the span `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        assert_eq!(self.stack.pop(), Some(idx), "spans closed out of order");
        self.spans[idx as usize].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Self time per layer in nanoseconds: each span's duration minus the
    /// time its direct children cover, summed by layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0) += s.dur_ns() - c;
        }
        out
    }

    /// The spans as CSV (`name,start_ns,end_ns,parent,op`; parent `-1`
    /// for a root span).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,start_ns,end_ns,parent,op\n");
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        t.next_op();
        let outer = t.begin("bench.op");
        t.span("core.build", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].op, spans[1].op);
        let by_layer = t.self_ns_by_layer();
        assert_eq!(by_layer["core"], spans[1].dur_ns());
        assert_eq!(by_layer["bench"], spans[0].dur_ns() - spans[1].dur_ns());
        assert!(t
            .to_csv()
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("core.build,"));

        let mut off = Tracer::new(false);
        off.span("core.build", || ());
        assert!(off.spans().is_empty());
    }
}
