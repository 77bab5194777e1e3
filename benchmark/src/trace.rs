//! In-memory trace of one in-process pass, recorded from the harness's own
//! files around the calls into each layer's public functions.
//!
//! Two kinds of record.  *Structural spans* (workload → case → set-up /
//! loop / report / cache / write) are kept one by one with name, start,
//! end, parent and the case they belong to.  *Per-call timings* — an
//! `arrivals_into`, an `advance`, a `csv_row` — are far too many to keep,
//! so they are folded into one call count and one busy time per
//! (case, layer, phase).  A span's self time is its duration minus its
//! children's; a layer's busy time is the sum of its folds.

use crate::json::quote;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Fold {
    pub(crate) calls: u64,
    pub(crate) busy_ns: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) name: &'static str,
    pub(crate) parent: Option<usize>,
    pub(crate) case: Option<usize>,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
}

/// Fold key: the case (or `None` for workload-level work), the layer, and
/// the phase within the layer.
pub(crate) type FoldKey = (Option<usize>, &'static str, &'static str);

#[derive(Debug)]
pub(crate) struct Tracer {
    /// Off for the untraced comparison pass: the same code runs, nothing is
    /// recorded, and the simulation goes through `Engine::run` instead of
    /// the harness's instrumented loop.
    pub(crate) enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    case: Option<usize>,
    pub(crate) spans: Vec<Span>,
    pub(crate) folds: BTreeMap<FoldKey, Fold>,
    /// Work counts recorded where the work happens (packets, slots, hits…),
    /// summed over cases, keyed by layer and name.
    pub(crate) counts: BTreeMap<(&'static str, &'static str), u64>,
}

impl Tracer {
    pub(crate) fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            case: None,
            spans: Vec::new(),
            folds: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `body` inside a structural span named `name`, child of the span
    /// currently open.
    pub(crate) fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return body(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            case: self.case,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = body(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Like [`Tracer::span`], for the span of one case: everything recorded
    /// inside carries the case's id.
    pub(crate) fn case_span<T>(&mut self, case: usize, body: impl FnOnce(&mut Tracer) -> T) -> T {
        self.case = Some(case);
        let out = self.span("case", body);
        self.case = None;
        out
    }

    /// Add `calls` calls and `busy` time to the current case's fold for
    /// (`layer`, `phase`).
    pub(crate) fn add(
        &mut self,
        layer: &'static str,
        phase: &'static str,
        calls: u64,
        busy: Duration,
    ) {
        if self.enabled {
            let fold = self.folds.entry((self.case, layer, phase)).or_default();
            fold.calls += calls;
            fold.busy_ns += busy.as_nanos() as u64;
        }
    }

    /// Time one call into `layer` and fold it under `phase`.
    pub(crate) fn timed<T>(
        &mut self,
        layer: &'static str,
        phase: &'static str,
        body: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = body();
        self.add(layer, phase, 1, start.elapsed());
        out
    }

    pub(crate) fn count(&mut self, layer: &'static str, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry((layer, name)).or_default() += n;
        }
    }

    /// Record the largest `n` seen under this name (peaks do not add up).
    pub(crate) fn count_max(&mut self, layer: &'static str, name: &'static str, n: u64) {
        if self.enabled {
            let peak = self.counts.entry((layer, name)).or_default();
            *peak = (*peak).max(n);
        }
    }

    /// Busy seconds and calls of (`layer`, `phase`) summed over every case.
    pub(crate) fn total(&self, layer: &str, phase: &str) -> (f64, u64) {
        self.folds
            .iter()
            .filter(|((_, l, p), _)| *l == layer && *p == phase)
            .fold((0.0, 0), |(busy, calls), (_, f)| {
                (busy + f.busy_ns as f64 * 1e-9, calls + f.calls)
            })
    }

    /// Busy seconds of every phase of `layer`, over every case.
    pub(crate) fn layer_busy_s(&self, layer: &str) -> f64 {
        self.folds
            .iter()
            .filter(|((_, l, _), _)| *l == layer)
            .fold(0.0, |sum, (_, f)| sum + f.busy_ns as f64 * 1e-9)
    }

    pub(crate) fn counted(&self, layer: &str, name: &str) -> u64 {
        self.counts.get(&(layer, name)).copied().unwrap_or(0)
    }

    /// Seconds covered by the root span(s): the traced wall.
    pub(crate) fn wall_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// A span's duration minus the part its children cover, in seconds.
    pub(crate) fn self_s(&self, id: usize) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let span = &self.spans[id];
        (span.end_ns - span.start_ns).saturating_sub(children) as f64 * 1e-9
    }

    /// This pass as one JSON object: every span with its self time, every
    /// fold.  Times are host nanoseconds since the pass began.
    pub(crate) fn to_json(&self, workload: &str) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = format!(
            "{{\"workload\":{},\"clock\":\"host\",\"spans\":[",
            quote(workload)
        );
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"id\":{id},\"parent\":{},\"case\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                if id > 0 { "," } else { "" },
                opt(s.parent),
                opt(s.case),
                quote(s.name),
                s.start_ns,
                s.end_ns,
                (self.self_s(id) * 1e9).round(),
            );
        }
        out.push_str("\n],\"folds\":[");
        for (i, ((case, layer, phase), f)) in self.folds.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"case\":{},\"layer\":{},\"phase\":{},\"calls\":{},\"busy_ns\":{}}}",
                if i > 0 { "," } else { "" },
                opt(*case),
                quote(layer),
                quote(phase),
                f.calls,
                f.busy_ns,
            );
        }
        out.push_str("\n]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn spans_nest_folds_add_up_and_the_dump_is_json() {
        let mut t = Tracer::new(true);
        t.span("workload", |t| {
            t.case_span(3, |t| {
                t.span("setup", |t| {
                    t.add("spec", "parse", 1, Duration::from_nanos(40));
                    t.add("spec", "parse", 2, Duration::from_nanos(60));
                });
                t.count("traffic", "packets", 5);
                t.count_max("core", "resident_peak", 9);
                t.count_max("core", "resident_peak", 4);
            });
            t.add("report", "merge", 1, Duration::from_nanos(7));
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!((t.spans[0].case, t.spans[2].case), (None, Some(3)));
        assert_eq!(
            t.folds[&(Some(3), "spec", "parse")],
            Fold {
                calls: 3,
                busy_ns: 100
            }
        );
        assert_eq!(t.total("spec", "parse"), (100.0 * 1e-9, 3));
        assert_eq!(t.layer_busy_s("report"), 7.0 * 1e-9);
        assert_eq!(t.counted("traffic", "packets"), 5);
        assert_eq!(t.counted("core", "resident_peak"), 9);
        assert_eq!(t.counted("core", "nothing"), 0);
        // Self time: the root's duration minus its one child's.
        let root = t.spans[0].end_ns - t.spans[0].start_ns;
        let child = t.spans[1].end_ns - t.spans[1].start_ns;
        assert_eq!(t.self_s(0), (root - child) as f64 * 1e-9);
        assert!(t.wall_s() >= t.self_s(0));

        let doc = Json::parse(&t.to_json("w")).expect("trace dump parses");
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(doc.get("folds").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let out = t.span("workload", |t| {
            t.timed("spec", "parse", || 7)
                + t.case_span(0, |t| {
                    t.count("traffic", "packets", 1);
                    1
                })
        });
        assert_eq!(out, 8);
        assert!(t.spans.is_empty() && t.folds.is_empty() && t.counts.is_empty());
    }
}
