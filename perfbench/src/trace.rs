//! Spans recorded by the benchmark around its own calls into each layer's
//! public functions. Nothing inside the program under test is instrumented.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! created), the index of its parent span, and the id of the op it belongs
//! to. Spans stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread of work.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// The name of the span that wraps a whole op; it is not a layer.
pub const OP_SPAN: &str = "op";

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        debug_assert_eq!(self.stack.last(), Some(&id), "spans must nest");
        self.stack.pop();
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Starts op `op`: every span until [`Self::end_op`] carries its id.
    pub fn begin_op(&mut self, op: u64) -> usize {
        self.op = op;
        self.enter(OP_SPAN)
    }

    /// Ends the op opened by [`Self::begin_op`]; returns its wall time in ns.
    pub fn end_op(&mut self, id: usize) -> u64 {
        self.exit(id);
        self.spans[id].duration_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another tracer's spans in (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name, in ns: each span's duration minus the part
    /// its direct children cover (children of one tracer never overlap).
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(child[i]);
        }
        out
    }

    /// Renders every span as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let op = t.begin_op(7);
        t.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let b = t.enter("b");
        t.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(b);
        let wall = t.end_op(op);
        let st = t.self_ns();
        let total: u64 = st.values().sum();
        assert_eq!(total, wall, "self times partition the op");
        assert!(st["a"] >= 4_000_000);
        assert!(t.spans().iter().all(|s| s.op == 7));
        assert_eq!(t.spans()[3].parent, Some(2));
    }
}
