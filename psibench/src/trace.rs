//! Spans recorded by the benchmark around its calls into the crates'
//! public functions, kept in memory and written out when the run ends.
//!
//! Every op is one root span; each public call inside it is a child
//! span with the op's span as parent. Untraced passes record nothing
//! but the op's own start and end, so the traced and untraced passes
//! of one run differ only by the cost of the extra clock reads.

use psi_tools::quantile::percentile;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval, in nanoseconds since the run started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The op this span belongs to (shared by all spans of one op).
    pub op: u64,
    /// Index of this span in the run's span list.
    pub id: usize,
    /// The span that caused this one (`None` for an op's root span).
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The child spans of one traced op, collected while it runs.
#[derive(Debug, Default)]
pub struct OpTrace {
    children: Vec<(&'static str, Instant, Instant)>,
}

/// Runs `f`; when the op is traced, records the call as a child span.
pub fn timed<T>(trace: &mut Option<OpTrace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        None => f(),
        Some(t) => {
            let start = Instant::now();
            let out = f();
            t.children.push((name, start, Instant::now()));
            out
        }
    }
}

/// All spans of a run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    ops: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            ops: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one finished op: a root span named `name` from `start`
    /// to `end`, and the op's children under it.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, trace: OpTrace) {
        let op = self.ops;
        self.ops += 1;
        let root = self.spans.len();
        self.spans.push(Span {
            op,
            id: root,
            parent: None,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        for (child, s, e) in trace.children {
            let id = self.spans.len();
            self.spans.push(Span {
                op,
                id,
                parent: Some(root),
                name: child,
                start_ns: self.ns(s),
                end_ns: self.ns(e),
            });
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span summaries by name. Durations cover every span; self time
    /// counts only spans under a root named `op_root`, so set-up spans
    /// (consults before the first op) give a latency but no share of
    /// op time.
    pub fn layers(&self, op_root: &str) -> BTreeMap<&'static str, Layer> {
        let own = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(own) {
            let mut root = span;
            while let Some(p) = root.parent {
                root = &self.spans[p];
            }
            let layer = out.entry(span.name).or_default();
            layer.durations_ns.push(span.duration_ns());
            if root.name == op_root {
                layer.self_ns += self_ns;
            }
        }
        out
    }

    /// The spans as JSON lines: op, id, parent, name, start, end.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Durations and self time of all spans that share a name.
#[derive(Debug, Default)]
pub struct Layer {
    pub durations_ns: Vec<u64>,
    /// Self time summed over the spans inside measured ops.
    pub self_ns: u64,
}

impl Layer {
    pub fn us(&self, q: f64) -> f64 {
        percentile(&self.durations_ns, q) as f64 / 1e3
    }

    pub fn total_ns(&self) -> u64 {
        self.durations_ns.iter().sum()
    }
}

/// Each span's self time: its duration minus the part of it that its
/// child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 0,
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 70, 80),
            span(4, Some(3), 72, 75),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30, 7, 3]);
    }

    #[test]
    fn untraced_ops_record_only_their_root() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin);
        let mut untraced: Option<OpTrace> = None;
        assert_eq!(timed(&mut untraced, "child", || 7), 7);
        let mut traced = Some(OpTrace::default());
        timed(&mut traced, "child", || ());
        let now = Instant::now();
        tracer.record("op", origin, now, untraced.unwrap_or_default());
        tracer.record("op", origin, now, traced.unwrap());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].op, spans[0].parent), (0, None));
        assert_eq!((spans[2].op, spans[2].parent), (1, Some(1)));
        assert!(tracer.to_jsonl().lines().all(|l| l.starts_with("{\"op\":")));
    }
}
