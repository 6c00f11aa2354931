//! Request-scoped spans recorded by the benchmark around its own calls
//! into each layer, and the exclusive-time breakdown computed from them.
//!
//! A span has a name, a start, an end, a parent and a request id. Spans
//! are kept in memory while a window runs and written out at the end. A
//! span's exclusive (self) time is its duration minus the part of its
//! interval that its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the window's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// A span that has started but not yet ended.
#[must_use]
pub struct Open {
    /// This span's id, for use as a child's parent.
    pub id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: u64,
}

/// A per-thread span buffer. Ids are unique across recorders that were
/// given distinct `id_base`s.
pub struct Recorder {
    origin: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    #[must_use]
    pub fn new(origin: Instant, id_base: u64) -> Recorder {
        Recorder {
            origin,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span under the span with id `parent` (`None` for a root).
    pub fn open(&mut self, parent: Option<u64>, name: &'static str) -> Open {
        self.next_id += 1;
        Open {
            id: self.next_id,
            parent,
            name,
            start: self.now(),
        }
    }

    /// Ends a span of request `req`, returning its duration in ns.
    pub fn close(&mut self, req: u64, open: Open) -> u64 {
        let end = self.now();
        self.spans.push(Span {
            req,
            id: open.id,
            parent: open.parent,
            name: open.name,
            start: open.start,
            end,
        });
        end - open.start
    }
}

/// Exclusive times of one kind of root span (e.g. every read request).
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Per layer name: that layer's exclusive time in each request, ns.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Per request: Σ exclusive time of the non-root layers ÷ latency
    /// (the root span's duration).
    pub coverage: Vec<f64>,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Computes the exclusive-time breakdown of every request whose root span
/// is named `root`. The root's own exclusive time is the harness glue
/// between layer calls; it is left out of `layers` and `coverage`.
#[must_use]
pub fn breakdown(spans: &[Span], root: &str) -> Breakdown {
    let mut by_req: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_req.entry(s.req).or_default().push(s);
    }
    let mut out = Breakdown::default();
    for req_spans in by_req.values() {
        let Some(r) = req_spans
            .iter()
            .find(|s| s.parent.is_none() && s.name == root)
        else {
            continue;
        };
        let mut per_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in req_spans.iter().filter(|s| s.id != r.id) {
            let children: Vec<(u64, u64)> = req_spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start, c.end))
                .collect();
            let own = (s.end - s.start) - covered(children, s.start, s.end);
            *per_layer.entry(s.name).or_default() += own;
        }
        let latency = (r.end - r.start).max(1) as f64;
        let sum: u64 = per_layer.values().sum();
        out.coverage.push(sum as f64 / latency);
        for (name, ns) in per_layer {
            out.layers.entry(name).or_default().push(ns as f64);
        }
    }
    out
}

/// Writes every span as one JSON object per line.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.req, s.id, parent, s.name, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u64, id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            req,
            id,
            parent,
            name,
            start: s,
            end: e,
        }
    }

    #[test]
    fn exclusive_time_subtracts_the_union_of_children() {
        let spans = [
            span(7, 1, None, "request", 0, 100),
            span(7, 2, Some(1), "eval", 10, 90),
            // Overlapping children cover [20, 60] once, not twice.
            span(7, 3, Some(2), "fetch", 20, 50),
            span(7, 4, Some(2), "fetch", 40, 60),
        ];
        let b = breakdown(&spans, "request");
        assert_eq!(b.layers["eval"], vec![40.0]);
        assert_eq!(b.layers["fetch"], vec![50.0]);
        assert!((b.coverage[0] - 0.9).abs() < 1e-12);
    }
}
