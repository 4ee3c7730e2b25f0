//! In-memory span recording around the harness's calls into each layer
//! (choosing-metrics §4). Spans are kept per thread, merged and written at
//! exit; an untraced run records nothing and pays one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Requests per load thread written out whole to the trace file; the
/// per-name summary covers every span.
const REQUESTS_WRITTEN: u64 = 2_000;

/// The id shared by the spans of load thread `thread`'s `seq`-th operation
/// (both from 1; 0 is "not part of a request").
pub fn request_id(thread: u64, seq: u64) -> u64 {
    (thread << 40) | seq
}

fn request_seq(request: u64) -> u64 {
    request & ((1 << 40) - 1)
}

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within a run: recorder index in the high half.
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    /// Spans of one request share it (0 = not part of a request).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span buffer.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    base: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// `index` distinguishes recorders of one run (one per thread).
    pub fn new(on: bool, epoch: Instant, index: u32) -> Recorder {
        Recorder {
            on,
            epoch,
            base: (u64::from(index) + 1) << 32,
            spans: Vec::new(),
        }
    }

    /// Start a span; returns its id for use as a parent (0 when off).
    pub fn open(&mut self, name: &'static str, parent: u64, request: u64, start: Instant) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.base + self.spans.len() as u64 + 1;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// End the span `open` returned `id` for.
    pub fn close(&mut self, id: u64, end: Instant) {
        if self.on {
            let end_ns = self.ns(end);
            let span = &mut self.spans[(id - self.base - 1) as usize];
            span.end_ns = end_ns.max(span.start_ns);
        }
    }

    /// Record a finished span; returns its id.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.open(name, parent, request, start);
        self.close(id, end);
        id
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Time `f` as one root span outside any request.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.span(name, 0, 0, start, Instant::now());
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals over a run's spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

pub fn summarize(spans: &[Span], selfs: &[u64]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own;
    }
    out
}

/// The trace file: header, per-name summary over every span, then — in
/// start order — every span outside a request and the spans of the first
/// [`REQUESTS_WRITTEN`] requests of each load thread.
pub fn to_json(workload: &str, seed: u64, spans: &[Span], selfs: &[u64]) -> Json {
    let num = |x: u64| Json::Num(x as f64);
    let summary = summarize(spans, selfs)
        .into_iter()
        .map(|(name, t)| {
            Json::Obj(vec![
                ("name".into(), Json::Str(name.into())),
                ("count".into(), num(t.count)),
                ("total_ns".into(), num(t.total_ns)),
                ("self_ns".into(), num(t.self_ns)),
            ])
        })
        .collect();
    let mut order: Vec<usize> = (0..spans.len())
        .filter(|&i| request_seq(spans[i].request) <= REQUESTS_WRITTEN)
        .collect();
    order.sort_by_key(|&i| (spans[i].start_ns, spans[i].id));
    let truncated = order.len() < spans.len();
    let written = order
        .iter()
        .map(|&i| {
            let s = &spans[i];
            Json::Obj(vec![
                ("id".into(), num(s.id)),
                ("parent".into(), num(s.parent)),
                ("request".into(), num(s.request)),
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), num(s.start_ns)),
                ("end_ns".into(), num(s.end_ns)),
                ("self_ns".into(), num(selfs[i])),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), num(seed)),
        ("span_count".into(), num(spans.len() as u64)),
        ("spans_truncated".into(), Json::Bool(truncated)),
        ("summary".into(), Json::Arr(summary)),
        ("spans".into(), Json::Arr(written)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            s(1, 0, 0, 100),  // client.op
            s(2, 1, 0, 10),   // submit
            s(3, 1, 10, 90),  // wait
            s(4, 3, 30, 90),  // engine.query inside wait
            s(5, 1, 90, 100), // verify
        ];
        assert_eq!(self_times(&spans), vec![0, 10, 20, 60, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            s(1, 0, 100, 200),
            s(2, 1, 110, 150),
            s(3, 1, 140, 160), // overlaps span 2 by 10
            s(4, 1, 190, 250), // hangs 50 past the parent
            s(5, 9, 0, 5),     // parent not recorded: a root
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 40, 20, 60, 5]);
    }

    #[test]
    fn self_plus_children_sum_to_the_span() {
        let spans = vec![s(1, 0, 0, 50), s(2, 1, 5, 20), s(3, 1, 20, 45)];
        let selfs = self_times(&spans);
        let child_total: u64 = spans[1..].iter().map(Span::dur_ns).sum();
        assert_eq!(selfs[0] + child_total, spans[0].dur_ns());
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let t = Instant::now();
        let mut off = Recorder::new(false, t, 0);
        assert_eq!(off.span("x", 0, 0, t, t), 0);
        assert!(off.into_spans().is_empty());
        let mut on = Recorder::new(true, t, 3);
        let a = on.span("x", 0, 0, t, t);
        let b = on.span("y", a, 0, t, t);
        assert_ne!(a, b);
        assert_eq!(on.into_spans()[1].parent, a);
    }
}
