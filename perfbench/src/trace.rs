//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer; the program under test carries no instrumentation. Each span
//! keeps its name, start, end, parent span and request id. Spans stay in
//! memory while the replay runs and are written out once at the end.
//!
//! A span's **self time** is its duration minus the part of its interval
//! that its child spans cover.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name (e.g. `serve.decode`).
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (0 while open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request the span belongs to.
    pub req: u64,
}

/// Records nested spans; a disabled tracer records nothing, which gives
/// the untraced replay.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for request `req`; spans opened before
    /// the matching [`Tracer::end`] become its children.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent,
            req,
        });
        self.open.push(idx);
        let start = self.now();
        self.spans[idx as usize].start = start;
        Some(idx)
    }

    /// Closes the span `begin` returned (innermost first).
    pub fn end(&mut self, span: Option<u32>) {
        if let Some(idx) = span {
            let end = self.now();
            debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
            self.open.pop();
            self.spans[idx as usize].end = end;
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Self times of the spans named `name`.
pub fn self_times_of(spans: &[Span], selfs: &[u64], name: &str) -> Vec<u64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100) ⊃ decode [10,30) and run [40,90) ⊃ gemm [50,70).
        let spans = [
            span("request", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("run", 40, 90, Some(0)),
            span("gemm", 50, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        let selfs = self_times(&spans);
        assert_eq!(self_times_of(&spans, &selfs, "run"), vec![30]);
        // The self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("parent", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        // Covered: [100,160) ∪ [190,200) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        t.end(inner);
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[0].name, s[0].parent, s[1].name, s[1].parent),
            ("outer", None, "inner", Some(0))
        );
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end && s[1].req == 7);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);

        let mut off = Tracer::new(false);
        let s = off.begin("outer", 0);
        off.end(s);
        assert!(s.is_none() && off.spans().is_empty());
    }
}
