//! Per-query structured tracing.
//!
//! A [`TraceCollector`] records a span tree — `(label, start_ns, end_ns,
//! parent)` entries plus `u64` attributes — into flat preallocated vectors
//! while a query executes, threaded through the engine and every solver
//! alongside the [`crate::cancel::CancelToken`].  It follows the same
//! inert-costs-nothing discipline as the token: a disabled collector's
//! [`TraceCollector::start`] is a single predicted branch returning
//! [`SpanId::NONE`], no clock is read, nothing allocates, and the solve path
//! stays bit-identical to an untraced run (the golden-region suite pins this
//! byte-for-byte, a bench gates the overhead ratio in CI).
//!
//! Spans are identified by their index into the flat vector; parent links are
//! indices too ([`SpanRecord::ROOT`] marks a root), so a whole query's trace
//! is two `Vec`s with no per-span allocation once the buffers have grown.
//! A cap ([`TraceCollector::DEFAULT_SPAN_CAP`]) bounds memory on huge query
//! graphs: spans beyond it are counted in `dropped`, not stored.
//!
//! At query end the engine snapshots the collector into an owned
//! [`QueryTrace`] (labels are `&'static str`, so snapshots are `'static` and
//! can sit in a serving-side ring buffer).

use crate::cancel::now;
use std::time::Instant;

/// Handle to an open span; [`SpanId::NONE`] is returned by a disabled (or
/// span-capped) collector and makes every later operation on it a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The inert span handle: ending it or attaching attributes does nothing.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// Whether this is the inert handle.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }

    /// The span's index into [`QueryTrace::spans`] (`None` for the inert
    /// handle).
    pub fn index(self) -> Option<u32> {
        if self.is_none() {
            None
        } else {
            Some(self.0)
        }
    }
}

/// One recorded span: a labelled interval relative to the trace origin, with
/// a parent index forming the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static label (phase or loop-iteration name, e.g. `"grid_score"`).
    pub label: &'static str,
    /// Start offset from the trace origin, nanoseconds.
    pub start_ns: u64,
    /// End offset from the trace origin, nanoseconds (`== start_ns` while the
    /// span is still open).
    pub end_ns: u64,
    /// Index of the parent span in the flat vector; [`SpanRecord::ROOT`] for
    /// roots.
    pub parent: u32,
}

impl SpanRecord {
    /// Parent value marking a root span.
    pub const ROOT: u32 = u32::MAX;

    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The per-query span collector.
///
/// One collector lives in each [`crate::engine::QueryWorkspace`] and is
/// re-armed per query by [`TraceCollector::begin`]; its buffers persist
/// across queries, so steady-state tracing allocates nothing per span.
#[derive(Debug, Clone, Default)]
pub struct TraceCollector {
    enabled: bool,
    origin: Option<Instant>,
    spans: Vec<SpanRecord>,
    attrs: Vec<(u32, &'static str, u64)>,
    open: Vec<u32>,
    dropped: u64,
    cap: usize,
}

impl TraceCollector {
    /// Spans stored per query before further spans are dropped (counted, not
    /// recorded) — bounds trace memory on huge query graphs.
    pub const DEFAULT_SPAN_CAP: usize = 4096;

    /// An inert collector: every operation is a no-op behind one predicted
    /// branch.  Construction does not allocate.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An armed collector ready to record (used directly in tests; the engine
    /// arms its workspace collector through [`TraceCollector::begin`]).
    #[must_use]
    pub fn enabled() -> Self {
        let mut t = Self::default();
        t.begin(true);
        t
    }

    /// Whether spans are currently being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Re-arms the collector for a new query: clears prior spans, sets the
    /// enabled flag, and (only when enabling) stamps the trace origin with one
    /// audited clock read.
    pub fn begin(&mut self, enabled: bool) {
        self.spans.clear();
        self.attrs.clear();
        self.open.clear();
        self.dropped = 0;
        self.enabled = enabled;
        if self.cap == 0 {
            self.cap = Self::DEFAULT_SPAN_CAP;
        }
        self.origin = if enabled { Some(now()) } else { None };
    }

    /// Nanoseconds since the trace origin (enabled collectors only).
    fn elapsed_ns(&self) -> u64 {
        let origin = self.origin.expect("enabled collector must have an origin");
        u64::try_from(now().saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.  Disabled: one
    /// predicted branch, returns [`SpanId::NONE`], reads no clock.
    #[inline]
    pub fn start(&mut self, label: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        self.start_recording(label)
    }

    #[cold]
    fn start_recording(&mut self, label: &'static str) -> SpanId {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return SpanId::NONE;
        }
        let start_ns = self.elapsed_ns();
        let parent = self.open.last().copied().unwrap_or(SpanRecord::ROOT);
        let index = self.spans.len() as u32;
        self.spans.push(SpanRecord {
            label,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(index);
        SpanId(index)
    }

    /// Closes a span (and, defensively, any still-open descendants).  A
    /// [`SpanId::NONE`] handle is ignored behind one predicted branch.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id.is_none() {
            return;
        }
        self.end_recording(id);
    }

    #[cold]
    fn end_recording(&mut self, id: SpanId) {
        let end_ns = self.elapsed_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id.0 {
                return;
            }
        }
    }

    /// Attaches a `u64` attribute to an open or closed span.
    #[inline]
    pub fn attr(&mut self, id: SpanId, key: &'static str, value: u64) {
        if id.is_none() {
            return;
        }
        self.attrs.push((id.0, key, value));
    }

    /// Closes a span and attaches attributes in one call.
    #[inline]
    pub fn end_with(&mut self, id: SpanId, attrs: &[(&'static str, u64)]) {
        if id.is_none() {
            return;
        }
        for &(key, value) in attrs {
            self.attrs.push((id.0, key, value));
        }
        self.end_recording(id);
    }

    /// Number of spans dropped at the cap so far this query.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Closes any spans left open and snapshots the query's trace; `None`
    /// when the collector was disabled.  The collector's own buffers are kept
    /// (capacity and all) for the next [`TraceCollector::begin`].
    pub fn finish(&mut self) -> Option<QueryTrace> {
        if !self.enabled {
            return None;
        }
        if let Some(&top) = self.open.last() {
            self.end_recording(SpanId(top));
            // end_recording pops everything above `top` too, but `top` itself
            // may have had siblings below it on the stack — drain them all.
            while let Some(&next) = self.open.last() {
                self.end_recording(SpanId(next));
            }
        }
        self.enabled = false;
        Some(QueryTrace {
            spans: self.spans.clone(),
            attrs: self.attrs.clone(),
            dropped: self.dropped,
        })
    }
}

/// An owned snapshot of one query's span tree, detached from the workspace
/// (labels are `&'static str`, so the snapshot is `'static` and can outlive
/// the query in a diagnostics ring).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    /// The spans, in start order; parents always precede children.
    pub spans: Vec<SpanRecord>,
    /// `(span_index, key, value)` attributes, in recording order.
    pub attrs: Vec<(u32, &'static str, u64)>,
    /// Spans dropped at the collector's cap (0 = the tree is complete).
    pub dropped: u64,
}

impl QueryTrace {
    /// The attributes attached to span `index`.
    pub fn attrs_of(&self, index: u32) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.attrs
            .iter()
            .filter(move |(i, _, _)| *i == index)
            .map(|&(_, k, v)| (k, v))
    }

    /// Indices of span `parent`'s direct children.
    pub fn children_of(&self, parent: u32) -> impl Iterator<Item = u32> + '_ {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.parent == parent)
            .map(|(i, _)| i as u32)
    }

    /// The first span with `label`, as `(index, record)`.
    pub fn find(&self, label: &str) -> Option<(u32, &SpanRecord)> {
        self.spans
            .iter()
            .enumerate()
            .find(|(_, s)| s.label == label)
            .map(|(i, s)| (i as u32, s))
    }

    /// Every span with `label`.
    pub fn count(&self, label: &str) -> usize {
        self.spans.iter().filter(|s| s.label == label).count()
    }

    /// Checks structural well-formedness: parents precede their children,
    /// every interval is ordered, children nest within their parent's
    /// interval, and the direct children of any span (which execute
    /// sequentially) sum to at most the parent's duration.
    ///
    /// Returns the first violation as a message, or `Ok(())`.
    pub fn validate(&self) -> Result<(), String> {
        let mut child_sum = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.label));
            }
            if s.parent != SpanRecord::ROOT {
                let p = s.parent as usize;
                if p >= i {
                    return Err(format!("span {i} ({}) has parent {p} >= itself", s.label));
                }
                let parent = &self.spans[p];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
                        s.label,
                        s.start_ns,
                        s.end_ns,
                        p,
                        parent.label,
                        parent.start_ns,
                        parent.end_ns
                    ));
                }
                child_sum[p] += s.duration_ns();
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if child_sum[i] > s.duration_ns() {
                return Err(format!(
                    "span {i} ({}) children sum {} ns > own duration {} ns",
                    s.label,
                    child_sum[i],
                    s.duration_ns()
                ));
            }
        }
        for &(i, key, _) in &self.attrs {
            if i as usize >= self.spans.len() {
                return Err(format!("attr {key} references missing span {i}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_is_inert() {
        let mut t = TraceCollector::disabled();
        let id = t.start("solve");
        assert!(id.is_none());
        t.attr(id, "tuples", 7);
        t.end(id);
        t.end_with(id, &[("x", 1)]);
        assert!(t.finish().is_none());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn records_a_nested_tree_with_attrs() {
        let mut t = TraceCollector::enabled();
        let root = t.start("query");
        let prepare = t.start("prepare");
        let score = t.start("grid_score");
        t.end(score);
        let build = t.start("graph_build");
        t.end(build);
        t.end(prepare);
        let solve = t.start("solve");
        t.attr(solve, "tuples", 42);
        t.end_with(solve, &[("pruned", 3)]);
        t.end(root);
        let trace = t.finish().expect("enabled collector yields a trace");
        trace.validate().expect("well-formed");
        assert_eq!(trace.spans.len(), 5);
        assert_eq!(trace.spans[0].parent, SpanRecord::ROOT);
        let (prepare_idx, _) = trace.find("prepare").unwrap();
        assert_eq!(
            trace.children_of(prepare_idx).count(),
            2,
            "grid_score + graph_build"
        );
        let (solve_idx, _) = trace.find("solve").unwrap();
        let attrs: Vec<_> = trace.attrs_of(solve_idx).collect();
        assert_eq!(attrs, vec![("tuples", 42), ("pruned", 3)]);
        // Parents always precede children, so a depth-first renderer needs no sort.
        for (i, s) in trace.spans.iter().enumerate() {
            assert!(s.parent == SpanRecord::ROOT || (s.parent as usize) < i);
        }
    }

    #[test]
    fn finish_closes_open_spans() {
        let mut t = TraceCollector::enabled();
        let root = t.start("query");
        let _leaked = t.start("solve");
        let trace = t.finish().unwrap();
        trace.validate().unwrap();
        assert_eq!(trace.spans.len(), 2);
        assert!(trace.spans[1].end_ns <= trace.spans[0].end_ns);
        // The collector is disarmed after finish and inert again.
        assert!(!t.is_enabled());
        assert!(t.start("again").is_none());
        let _ = root;
    }

    #[test]
    fn span_cap_drops_and_counts() {
        let mut t = TraceCollector::enabled();
        t.cap = 2;
        let a = t.start("a");
        let b = t.start("b");
        let c = t.start("c");
        assert!(!a.is_none() && !b.is_none());
        assert!(c.is_none(), "beyond the cap the inert handle comes back");
        t.end(c);
        t.end(b);
        t.end(a);
        assert_eq!(t.dropped(), 1);
        let trace = t.finish().unwrap();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.dropped, 1);
        trace.validate().unwrap();
    }

    #[test]
    fn begin_reuses_buffers_across_queries() {
        let mut t = TraceCollector::enabled();
        for _ in 0..3 {
            let s = t.start("solve");
            t.end(s);
        }
        let first = t.finish().unwrap();
        assert_eq!(first.spans.len(), 3);
        t.begin(true);
        let s = t.start("solve");
        t.end(s);
        let second = t.finish().unwrap();
        assert_eq!(second.spans.len(), 1, "begin clears prior spans");
        // Disabled re-arm: inert again.
        t.begin(false);
        assert!(t.start("x").is_none());
        assert!(t.finish().is_none());
    }

    #[test]
    fn validate_catches_malformed_trees() {
        let bad_parent = QueryTrace {
            spans: vec![SpanRecord {
                label: "a",
                start_ns: 0,
                end_ns: 1,
                parent: 0,
            }],
            attrs: Vec::new(),
            dropped: 0,
        };
        assert!(bad_parent.validate().is_err());
        let escaping_child = QueryTrace {
            spans: vec![
                SpanRecord {
                    label: "p",
                    start_ns: 10,
                    end_ns: 20,
                    parent: SpanRecord::ROOT,
                },
                SpanRecord {
                    label: "c",
                    start_ns: 5,
                    end_ns: 15,
                    parent: 0,
                },
            ],
            attrs: Vec::new(),
            dropped: 0,
        };
        assert!(escaping_child.validate().is_err());
        let dangling_attr = QueryTrace {
            spans: Vec::new(),
            attrs: vec![(3, "k", 1)],
            dropped: 0,
        };
        assert!(dangling_attr.validate().is_err());
    }
}
