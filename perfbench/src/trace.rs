//! In-memory span recorder for the traced replay.
//!
//! A span is one timed call into a layer: name, start, end, the span that
//! caused it and the request it belongs to. Spans stay in memory while the
//! replay runs and are written out once it ends.

use std::io::Write;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call this span times (`parse`, `apply`, …).
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start: u64,
    /// End, ns since the tracer origin.
    pub end: u64,
    /// The enclosing span, `None` for a request's root span.
    pub parent: Option<SpanId>,
    /// Request the span belongs to (its index in the replayed sequence).
    pub request: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: usize, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now();
        self.spans[id].end = now;
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, request, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Time each span's direct children cover within it, by span index.
pub fn child_coverage(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| covered(c, s.start, s.end))
        .collect()
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .zip(child_coverage(spans))
        .map(|(s, c)| s.duration() - c)
        .collect()
}

/// Write spans as tab-separated lines: request, id, parent, name, start,
/// end and self time (ns).
pub fn write_tsv(out: &mut dyn Write, spans: &[Span]) -> std::io::Result<()> {
    writeln!(out, "request\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
    for (id, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{id}\t{parent}\t{}\t{}\t{}\t{own}",
            s.request, s.name, s.start, s.end
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100] ⊃ apply [10,60] ⊃ sweep [20,50]; serialise [70,90].
        let spans = vec![
            span("request", 0, 100, None),
            span("apply", 10, 60, Some(0)),
            span("sweep", 20, 50, Some(1)),
            span("serialise", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        assert_eq!(child_coverage(&spans)[0], 70);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children [10,40] and [30,60] overlap on [30,40]; [90,120]
        // overhangs the parent's end and is clipped to [90,100].
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(child_coverage(&spans)[0], 60);
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("request", 3, None);
        t.span("apply", 3, root, || std::hint::black_box(1 + 1));
        t.end(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 3);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
