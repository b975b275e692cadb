//! In-memory span recorder for the traced run. The benchmark records a
//! span around each of its own calls into a layer; nothing inside the
//! product is instrumented. Spans are written out when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Per-op id shared by every span of one operation.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        let start_ns = self.now();
        self.spans.push(Span { name, op, parent: self.open.last().copied(), start_ns, end_ns: start_ns });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span and return its duration.
    pub fn exit(&mut self) -> u64 {
        let end_ns = self.now();
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end_ns = end_ns;
        self.spans[i].dur_ns()
    }

    /// Time one call as a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }
}

/// Self time of every span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Durations in microseconds of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
}

/// Per-op total microseconds spent in spans called `name` (an op with
/// several range variables has several `rpe.*` spans).
pub fn per_op_us(spans: &[Span], name: &str) -> HashMap<u64, f64> {
    let mut out = HashMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.op).or_insert(0.0) += s.dur_ns() as f64 / 1e3;
    }
    out
}

/// Spans as a JSON array: name, op, parent, start_ns, end_ns, self_ns.
pub fn to_json(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut s = String::from("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            sp.name, sp.op, sp.start_ns, sp.end_ns, own[i]
        );
        s.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    s.push_str("]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, op: 7, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let spans = vec![
            span("op", None, 0, 100),
            span("core.parse", Some(0), 10, 30),
            span("core.execute", Some(0), 30, 90),
            span("rpe.eval", Some(2), 40, 80),
        ];
        // op: 100 − (20 + 60); execute: 60 − 40; grandchildren are not
        // subtracted twice from the root.
        assert_eq!(self_times(&spans), vec![20, 20, 20, 40]);
    }

    #[test]
    fn recorder_nests_and_groups_by_op() {
        let mut r = Recorder::new();
        r.enter("op", 1);
        r.span("rpe.eval", 1, || std::hint::black_box(3));
        r.span("rpe.eval", 1, || std::hint::black_box(4));
        r.exit();
        r.span("op", 2, || ());
        assert_eq!(r.spans.len(), 4);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[2].parent, Some(0));
        assert_eq!(r.spans[3].parent, None);
        assert!(r.spans[0].end_ns >= r.spans[2].end_ns);
        let per_op = per_op_us(&r.spans, "rpe.eval");
        assert_eq!(per_op.len(), 1);
        assert_eq!(durations_us(&r.spans, "rpe.eval").len(), 2);
        let json = to_json(&r.spans);
        assert!(json.contains("\"name\":\"rpe.eval\",\"op\":1,\"parent\":0"));
    }
}
