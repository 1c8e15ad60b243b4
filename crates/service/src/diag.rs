//! Per-query diagnostics: request-id propagation, a ring of recently
//! completed query traces, and the slow-query log.
//!
//! Every request gets an id — the client's `X-Request-Id` header when it
//! sends a well-formed one, a generated `q`-prefixed id otherwise — and the
//! id is echoed on the response, stamped on slow-query log lines, and carried
//! by every retained trace so a client can correlate its own request with
//! what `/debug/trace/recent` and `/debug/slow` show.
//!
//! Retention is two fixed-size rings of [`CompletedTrace`]s behind per-slot
//! `try_lock`s: a writer that loses the race for a slot drops its trace
//! instead of blocking the query path, and `/debug` readers only ever clone
//! `Arc`s out of the slots.  Which queries are retained is decided by
//! [`DiagnosticsConfig`]: every query at least `slow_ms` slow enters the slow
//! ring (and logs one stderr line), and 1-in-`trace_sample` queries run with
//! span tracing enabled and enter the recent ring.

use crate::json::Json;
use lcmsr_core::trace::{QueryTrace, SpanRecord};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Longest accepted client-sent `X-Request-Id`.
pub const MAX_REQUEST_ID_LEN: usize = 64;

/// The response/request header carrying the request id.
pub const REQUEST_ID_HEADER: &str = "x-request-id";

/// Slots in each of the recent-traces and slow-query rings.
const RING_CAPACITY: usize = 32;

/// Whether a client-sent request id is acceptable: 1..=64 characters from
/// `[A-Za-z0-9_-]`.  Anything else is replaced by a generated id rather than
/// echoed back (an unconstrained header would let a client inject arbitrary
/// bytes into log lines and response headers).
pub fn valid_request_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_REQUEST_ID_LEN
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// Generates process-unique request ids without touching any clock: a
/// Weyl-sequence counter (odd increment) bit-mixed so consecutive ids do not
/// look sequential, formatted as `q` + 16 hex digits.
#[derive(Debug, Default)]
pub struct RequestIdGen {
    counter: AtomicU64,
}

impl RequestIdGen {
    /// Creates a generator starting at its fixed seed.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next request id.
    pub fn next_id(&self) -> String {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        // splitmix64's finalizer: a bijection, so ids never collide before
        // the counter itself wraps.
        let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        format!("q{z:016x}")
    }
}

/// One finished query retained for diagnostics.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    /// The request id (client-sent or generated).
    pub request_id: String,
    /// Algorithm name from the run's stats.
    pub algorithm: String,
    /// End-to-end service latency (decode → response ready), nanoseconds.
    pub elapsed_ns: u64,
    /// Scheduler queue wait, nanoseconds.
    pub queue_ns: u64,
    /// Whether the answer was a best-so-far partial result.
    pub partial: bool,
    /// Whether the query met the slow threshold.
    pub slow: bool,
    /// The span tree, when the query ran with tracing enabled.
    pub trace: Option<QueryTrace>,
}

impl CompletedTrace {
    /// Renders the record as JSON, the span tree nested under `"spans"`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("request_id".into(), Json::String(self.request_id.clone())),
            ("algorithm".into(), Json::String(self.algorithm.clone())),
            ("elapsed_ns".into(), Json::Number(self.elapsed_ns as f64)),
            ("queue_ns".into(), Json::Number(self.queue_ns as f64)),
            ("partial".into(), Json::Bool(self.partial)),
            ("slow".into(), Json::Bool(self.slow)),
        ];
        if let Some(trace) = &self.trace {
            fields.push(("dropped_spans".into(), Json::Number(trace.dropped as f64)));
            fields.push(("spans".into(), span_forest(trace)));
        }
        Json::Object(fields)
    }
}

/// Renders a trace's root spans (children nested recursively).
fn span_forest(trace: &QueryTrace) -> Json {
    let roots: Vec<u32> = (0..trace.spans.len() as u32)
        .filter(|&i| trace.spans[i as usize].parent == SpanRecord::ROOT)
        .collect();
    Json::Array(roots.iter().map(|&i| span_node(trace, i)).collect())
}

/// Renders one span with its attributes and nested children.
fn span_node(trace: &QueryTrace, index: u32) -> Json {
    let span = &trace.spans[index as usize];
    let mut fields = vec![
        ("label".into(), Json::String(span.label.into())),
        ("start_ns".into(), Json::Number(span.start_ns as f64)),
        (
            "duration_ns".into(),
            Json::Number(span.duration_ns() as f64),
        ),
    ];
    let attrs: Vec<(String, Json)> = trace
        .attrs_of(index)
        .map(|(key, value)| (key.to_string(), Json::Number(value as f64)))
        .collect();
    if !attrs.is_empty() {
        fields.push(("attrs".into(), Json::Object(attrs)));
    }
    let children: Vec<Json> = trace
        .children_of(index)
        .map(|child| span_node(trace, child))
        .collect();
    if !children.is_empty() {
        fields.push(("children".into(), Json::Array(children)));
    }
    Json::Object(fields)
}

/// A fixed-size ring of completed traces: per-slot `try_lock` writes that
/// never block the query path, `Arc` clones out for readers.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Mutex<Option<Arc<CompletedTrace>>>>,
    cursor: AtomicUsize,
}

impl TraceRing {
    /// Creates a ring holding up to `capacity` traces (at least 1).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Inserts a trace, overwriting the oldest slot.  A slot contended by a
    /// concurrent reader or writer drops the trace instead of blocking.
    pub fn push(&self, trace: Arc<CompletedTrace>) {
        let index = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        if let Ok(mut slot) = self.slots[index].try_lock() {
            *slot = Some(trace);
        }
    }

    /// The retained traces, newest first.
    pub fn snapshot(&self) -> Vec<Arc<CompletedTrace>> {
        let len = self.slots.len();
        let next = self.cursor.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity(len);
        // Walk backwards from the most recently written slot.
        for back in 1..=len {
            let index = (next + len - back) % len;
            if let Ok(slot) = self.slots[index].try_lock() {
                if let Some(trace) = slot.as_ref() {
                    out.push(Arc::clone(trace));
                }
            }
        }
        out
    }
}

/// Diagnostics knobs carried by the service configuration.
#[derive(Debug, Clone)]
pub struct DiagnosticsConfig {
    /// Queries at least this slow always enter the slow ring and log one
    /// stderr line.  `0` disables the slow-query log.
    pub slow_ms: u64,
    /// Span tracing runs on 1-in-`trace_sample` queries (1 = every query,
    /// 0 = never).  Sampled traces land in the recent ring.
    pub trace_sample: u64,
}

impl Default for DiagnosticsConfig {
    fn default() -> Self {
        DiagnosticsConfig {
            slow_ms: 500,
            trace_sample: 16,
        }
    }
}

/// The service's diagnostics state: id generation, sampling, both rings.
#[derive(Debug)]
pub struct Diagnostics {
    config: DiagnosticsConfig,
    ids: RequestIdGen,
    sample_counter: AtomicU64,
    /// Recently completed traced queries, newest first on read.
    pub recent: TraceRing,
    /// Recently completed slow queries, newest first on read.
    pub slow: TraceRing,
}

impl Diagnostics {
    /// Creates diagnostics state from its configuration.
    pub fn new(config: DiagnosticsConfig) -> Self {
        Diagnostics {
            config,
            ids: RequestIdGen::new(),
            sample_counter: AtomicU64::new(0),
            recent: TraceRing::new(RING_CAPACITY),
            slow: TraceRing::new(RING_CAPACITY),
        }
    }

    /// Resolves the request id: the client's header value when well-formed,
    /// a generated id otherwise.
    pub fn resolve_request_id(&self, client_sent: Option<&str>) -> String {
        match client_sent {
            Some(id) if valid_request_id(id) => id.to_string(),
            _ => self.ids.next_id(),
        }
    }

    /// Whether the next query should run with span tracing enabled
    /// (1-in-`trace_sample` round-robin; 0 disables sampling).
    pub fn should_trace(&self) -> bool {
        let every = self.config.trace_sample;
        if every == 0 {
            return false;
        }
        self.sample_counter.fetch_add(1, Ordering::Relaxed) % every == 0
    }

    /// The slow threshold, `None` when the slow-query log is disabled.
    pub fn slow_threshold(&self) -> Option<Duration> {
        (self.config.slow_ms > 0).then(|| Duration::from_millis(self.config.slow_ms))
    }

    /// Folds one finished query into the rings and the slow-query log.
    /// Returns the retained record when anything kept it.
    pub fn observe(
        &self,
        request_id: &str,
        algorithm: &str,
        elapsed: Duration,
        queue_time: Duration,
        partial: bool,
        trace: Option<QueryTrace>,
    ) -> Option<Arc<CompletedTrace>> {
        let slow = self
            .slow_threshold()
            .is_some_and(|threshold| elapsed >= threshold);
        let traced = trace.is_some();
        if !slow && !traced {
            return None;
        }
        let completed = Arc::new(CompletedTrace {
            request_id: request_id.to_string(),
            algorithm: algorithm.to_string(),
            elapsed_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            queue_ns: u64::try_from(queue_time.as_nanos()).unwrap_or(u64::MAX),
            partial,
            slow,
            trace,
        });
        if traced {
            self.recent.push(Arc::clone(&completed));
        }
        if slow {
            self.slow.push(Arc::clone(&completed));
            eprintln!(
                "slow query: request_id={request_id} algorithm={algorithm} \
                 elapsed_ms={:.2} queue_ms={:.2} partial={partial} traced={traced}",
                elapsed.as_secs_f64() * 1_000.0,
                queue_time.as_secs_f64() * 1_000.0,
            );
        }
        Some(completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcmsr_core::trace::TraceCollector;

    #[test]
    fn request_id_validation() {
        assert!(valid_request_id("abc-DEF_123"));
        assert!(valid_request_id("q0123456789abcdef"));
        assert!(!valid_request_id(""));
        assert!(!valid_request_id("has space"));
        assert!(!valid_request_id("semi;colon"));
        assert!(!valid_request_id("new\nline"));
        assert!(!valid_request_id(&"x".repeat(MAX_REQUEST_ID_LEN + 1)));
        assert!(valid_request_id(&"x".repeat(MAX_REQUEST_ID_LEN)));
    }

    #[test]
    fn generated_ids_are_unique_and_well_formed() {
        let ids = RequestIdGen::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = ids.next_id();
            assert!(valid_request_id(&id), "{id}");
            assert!(id.starts_with('q') && id.len() == 17, "{id}");
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn ring_retains_newest_first_and_overwrites_oldest() {
        let ring = TraceRing::new(3);
        let mk = |n: u64| {
            Arc::new(CompletedTrace {
                request_id: format!("r{n}"),
                algorithm: "TGEN".into(),
                elapsed_ns: n,
                queue_ns: 0,
                partial: false,
                slow: false,
                trace: None,
            })
        };
        assert!(ring.snapshot().is_empty());
        for n in 0..5 {
            ring.push(mk(n));
        }
        let kept: Vec<u64> = ring.snapshot().iter().map(|t| t.elapsed_ns).collect();
        assert_eq!(kept, vec![4, 3, 2], "newest first, oldest overwritten");
    }

    #[test]
    fn sampling_hits_one_in_n() {
        let diag = Diagnostics::new(DiagnosticsConfig {
            trace_sample: 4,
            ..DiagnosticsConfig::default()
        });
        let hits = (0..16).filter(|_| diag.should_trace()).count();
        assert_eq!(hits, 4);
        let never = Diagnostics::new(DiagnosticsConfig {
            trace_sample: 0,
            ..DiagnosticsConfig::default()
        });
        assert!((0..16).all(|_| !never.should_trace()));
        let always = Diagnostics::new(DiagnosticsConfig {
            trace_sample: 1,
            ..DiagnosticsConfig::default()
        });
        assert!((0..16).all(|_| always.should_trace()));
    }

    #[test]
    fn observe_routes_slow_and_traced_queries() {
        let diag = Diagnostics::new(DiagnosticsConfig {
            slow_ms: 100,
            trace_sample: 1,
        });
        // Fast and untraced: dropped.
        assert!(diag
            .observe(
                "a",
                "TGEN",
                Duration::from_millis(1),
                Duration::ZERO,
                false,
                None
            )
            .is_none());
        // Fast but traced: recent ring only.
        let mut tracer = TraceCollector::disabled();
        tracer.begin(true);
        let span = tracer.start("query");
        tracer.end(span);
        let trace = tracer.finish();
        assert!(trace.is_some());
        diag.observe(
            "b",
            "TGEN",
            Duration::from_millis(1),
            Duration::ZERO,
            false,
            trace,
        );
        // Slow and untraced: slow ring only.
        diag.observe(
            "c",
            "Exact",
            Duration::from_millis(250),
            Duration::from_millis(3),
            true,
            None,
        );
        let recent: Vec<String> = diag
            .recent
            .snapshot()
            .iter()
            .map(|t| t.request_id.clone())
            .collect();
        assert_eq!(recent, vec!["b".to_string()]);
        let slow = diag.slow.snapshot();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].request_id, "c");
        assert!(slow[0].slow);
        assert!(slow[0].partial);
        assert!(slow[0].trace.is_none());
    }

    #[test]
    fn completed_trace_renders_nested_spans() {
        let mut tracer = TraceCollector::disabled();
        tracer.begin(true);
        let root = tracer.start("query");
        let prepare = tracer.start("prepare");
        let score = tracer.start("grid_score");
        tracer.end(score);
        tracer.end_with(prepare, &[("nodes", 25)]);
        tracer.end(root);
        let trace = tracer.finish().inspect(|t| {
            assert!(t.validate().is_ok());
        });
        let record = CompletedTrace {
            request_id: "req-1".into(),
            algorithm: "APP".into(),
            elapsed_ns: 1_000,
            queue_ns: 10,
            partial: false,
            slow: true,
            trace,
        };
        let body = record.to_json().encode();
        assert!(body.contains("\"request_id\":\"req-1\""), "{body}");
        assert!(body.contains("\"label\":\"query\""), "{body}");
        assert!(body.contains("\"label\":\"prepare\""), "{body}");
        assert!(body.contains("\"label\":\"grid_score\""), "{body}");
        assert!(body.contains("\"nodes\":25"), "{body}");
        // grid_score nests inside prepare which nests inside query.
        let query_at = body.find("\"label\":\"query\"").unwrap();
        let prepare_at = body.find("\"label\":\"prepare\"").unwrap();
        let score_at = body.find("\"label\":\"grid_score\"").unwrap();
        assert!(query_at < prepare_at && prepare_at < score_at);
    }
}
