//! Service counters and a fixed-bucket latency histogram.
//!
//! Everything is lock-free atomics so the hot path (one `record` per request)
//! never contends with `/metrics` scrapes.  The histogram is exported with
//! its cumulative buckets, sum and count, from which Prometheus derives the
//! mean and quantile estimates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (inclusive) of the latency buckets, in microseconds; a final
/// overflow bucket catches everything beyond the last bound.
pub const LATENCY_BOUNDS_US: [u64; 15] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000,
];

/// A fixed-bucket latency histogram over [`LATENCY_BOUNDS_US`].
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    counts: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
    total_us: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded latencies, in microseconds (the Prometheus
    /// histogram `_sum`, in the same unit as the bucket bounds).
    pub fn total_us(&self) -> u64 {
        self.total_us.load(Ordering::Relaxed)
    }

    /// Cumulative bucket counts in `(upper_bound_us, cumulative_count)` form,
    /// the overflow bucket last with `u64::MAX` as its bound.
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut seen = 0u64;
        for (i, count) in self.counts.iter().enumerate() {
            seen += count.load(Ordering::Relaxed);
            let bound = LATENCY_BOUNDS_US.get(i).copied().unwrap_or(u64::MAX);
            out.push((bound, seen));
        }
        out
    }
}

/// Counters shared by the connection threads and the admission scheduler.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// HTTP requests received on any route.
    pub requests: AtomicU64,
    /// Query requests admitted by the scheduler.
    pub queries: AtomicU64,
    /// `200` responses.
    pub responses_ok: AtomicU64,
    /// `4xx` responses (malformed or invalid requests).
    pub responses_client_error: AtomicU64,
    /// Always 0: the scheduler bounds parked callers only by the connection
    /// slots and sheds only on deadlines (`deadline_shed`).  Not exported;
    /// kept only until the benchmark stops reading it, then deleted.
    #[deprecated(note = "always 0: the scheduler sheds only on deadlines")]
    pub shed: AtomicU64,
    /// `503` responses shed because the request's deadline was already blown
    /// or would be blown by the predicted wait for a permit.
    pub deadline_shed: AtomicU64,
    /// `200` responses whose result was partial (the deadline stopped the
    /// solver at its best-so-far incumbent).
    pub partial: AtomicU64,
    /// Served queries at or beyond the diagnostics slow threshold.
    pub slow_queries: AtomicU64,
    /// Served queries that ran with span tracing enabled (sampled).
    pub traced: AtomicU64,
    /// Engine runs; each runs one query.
    pub batches: AtomicU64,
    /// Queries across all engine runs (equals `batches`).
    pub batched_queries: AtomicU64,
    /// Callers currently parked waiting for a permit (gauge).
    pub queue_depth: AtomicU64,
    /// End-to-end request latency (parse → response ready), query route only.
    pub latency: LatencyHistogram,
    /// Total prepare time across answered queries, nanoseconds.
    pub prepare_ns: AtomicU64,
    /// Grid-scoring component of `prepare_ns` (keyword scoring against the
    /// flat grid index), nanoseconds.
    pub grid_score_ns: AtomicU64,
    /// Graph-build component of `prepare_ns` (`Q.Λ` extraction + scaled CSR
    /// construction), nanoseconds.
    pub graph_build_ns: AtomicU64,
    /// Served queries replayed from the engine's response cache.
    pub cache_hits: AtomicU64,
    /// Cache-mode queries whose fingerprint was absent (computed cold and,
    /// when complete, inserted).
    pub cache_misses: AtomicU64,
    /// Cache-mode queries whose entry was cached under an older dataset
    /// epoch (evicted and recomputed).
    pub cache_stale: AtomicU64,
    /// Always 0: every query the cache does not answer is scored cold.  Not
    /// exported; kept only until the benchmark stops reading it, then
    /// deleted.
    #[deprecated(note = "always 0: there is no delta-prepare path")]
    pub delta_prepares: AtomicU64,
}

impl ServiceMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one answered query's prepare-phase timing split.
    pub fn record_prepare_split(&self, stats: &lcmsr_core::stats::RunStats) {
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.prepare_ns
            .fetch_add(ns(stats.prepare_time), Ordering::Relaxed);
        self.grid_score_ns
            .fetch_add(ns(stats.grid_score_time), Ordering::Relaxed);
        self.graph_build_ns
            .fetch_add(ns(stats.graph_build_time), Ordering::Relaxed);
    }

    /// Accumulates one answered query's cache-path outcome.  Only cache-mode
    /// queries count: a hit, a stale recompute, or a miss, exclusively.
    pub fn record_cache_path(&self, stats: &lcmsr_core::stats::RunStats) {
        if stats.cache {
            if stats.cache_hit {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
            } else if stats.cache_stale {
                self.cache_stale.fetch_add(1, Ordering::Relaxed);
            } else {
                self.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Renders the Prometheus text exposition for `/metrics`: every series
    /// carries `# HELP` and `# TYPE` metadata, `_total` series are counters,
    /// and the latency histogram follows the `_bucket`/`_sum`/`_count`
    /// convention (all in microseconds, matching the bucket bounds).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut series = |name: &str, kind: &str, help: &str, value: String| {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(help);
            out.push_str("\n# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            out.push_str(name);
            out.push(' ');
            out.push_str(&value);
            out.push('\n');
        };
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed).to_string();
        series(
            "lcmsr_requests_total",
            "counter",
            "HTTP requests received on any route.",
            load(&self.requests),
        );
        series(
            "lcmsr_queries_total",
            "counter",
            "Query requests admitted by the scheduler.",
            load(&self.queries),
        );
        series(
            "lcmsr_responses_ok_total",
            "counter",
            "200 responses on the query route.",
            load(&self.responses_ok),
        );
        series(
            "lcmsr_responses_client_error_total",
            "counter",
            "4xx responses (malformed or invalid requests).",
            load(&self.responses_client_error),
        );
        series(
            "lcmsr_deadline_shed_total",
            "counter",
            "503 responses shed because the deadline was unmeetable.",
            load(&self.deadline_shed),
        );
        series(
            "lcmsr_partial_total",
            "counter",
            "200 responses carrying a best-so-far partial result.",
            load(&self.partial),
        );
        series(
            "lcmsr_slow_queries_total",
            "counter",
            "Served queries at or beyond the slow-query threshold.",
            load(&self.slow_queries),
        );
        series(
            "lcmsr_traced_queries_total",
            "counter",
            "Served queries that ran with span tracing enabled.",
            load(&self.traced),
        );
        series(
            "lcmsr_batches_total",
            "counter",
            "Engine runs, one query each.",
            load(&self.batches),
        );
        series(
            "lcmsr_batched_queries_total",
            "counter",
            "Queries across all engine runs.",
            load(&self.batched_queries),
        );
        series(
            "lcmsr_queue_depth",
            "gauge",
            "Callers currently parked waiting for a permit.",
            load(&self.queue_depth),
        );
        series(
            "lcmsr_prepare_ns_total",
            "counter",
            "Total prepare-phase time across answered queries, nanoseconds.",
            load(&self.prepare_ns),
        );
        series(
            "lcmsr_prepare_grid_score_ns_total",
            "counter",
            "Grid-scoring component of the prepare phase, nanoseconds.",
            load(&self.grid_score_ns),
        );
        series(
            "lcmsr_prepare_graph_build_ns_total",
            "counter",
            "Graph-build component of the prepare phase, nanoseconds.",
            load(&self.graph_build_ns),
        );
        series(
            "lcmsr_cache_hits_total",
            "counter",
            "Served queries replayed from the response cache.",
            load(&self.cache_hits),
        );
        series(
            "lcmsr_cache_misses_total",
            "counter",
            "Cache-mode queries computed cold (fingerprint absent).",
            load(&self.cache_misses),
        );
        series(
            "lcmsr_cache_stale_total",
            "counter",
            "Cache-mode queries recomputed after a stale-epoch eviction.",
            load(&self.cache_stale),
        );
        out.push_str("# HELP lcmsr_latency End-to-end query latency, microseconds.\n");
        out.push_str("# TYPE lcmsr_latency histogram\n");
        for (bound, cumulative) in self.latency.cumulative() {
            let le = if bound == u64::MAX {
                "+Inf".to_string()
            } else {
                bound.to_string()
            };
            out.push_str(&format!(
                "lcmsr_latency_bucket{{le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!("lcmsr_latency_sum {}\n", self.latency.total_us()));
        out.push_str(&format!("lcmsr_latency_count {}\n", self.latency.count()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        // 90 fast observations, 10 slow ones.
        for _ in 0..90 {
            h.record(Duration::from_micros(80));
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(40_000));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.total_us(), 90 * 80 + 10 * 40_000);
        let cumulative = h.cumulative();
        assert_eq!(
            cumulative[0],
            (100, 90),
            "the fast ones fill the first bucket"
        );
        assert_eq!(cumulative[8], (50_000, 100), "the slow ones land by 50 ms");
        // Beyond the last bound a sample lands in the overflow bucket.
        h.record(Duration::from_secs(60));
        let cumulative = h.cumulative();
        assert_eq!(cumulative.last().unwrap(), &(u64::MAX, 101));
        // Cumulative counts are monotone.
        for pair in cumulative.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn render_exposes_all_series() {
        let m = ServiceMetrics::new();
        m.requests.fetch_add(5, Ordering::Relaxed);
        m.deadline_shed.fetch_add(3, Ordering::Relaxed);
        m.partial.fetch_add(4, Ordering::Relaxed);
        m.batches.fetch_add(2, Ordering::Relaxed);
        m.batched_queries.fetch_add(7, Ordering::Relaxed);
        m.latency.record(Duration::from_millis(3));
        let mut stats = lcmsr_core::stats::RunStats::new("TGEN");
        stats.prepare_time = Duration::from_nanos(900);
        stats.grid_score_time = Duration::from_nanos(600);
        stats.graph_build_time = Duration::from_nanos(250);
        m.record_prepare_split(&stats);
        // One hit, one miss, one stale recompute, one classic run.
        let mut hit = lcmsr_core::stats::RunStats::new("TGEN");
        hit.cache = true;
        hit.cache_hit = true;
        m.record_cache_path(&hit);
        let mut miss = lcmsr_core::stats::RunStats::new("TGEN");
        miss.cache = true;
        m.record_cache_path(&miss);
        let mut stale = lcmsr_core::stats::RunStats::new("TGEN");
        stale.cache = true;
        stale.cache_stale = true;
        m.record_cache_path(&stale);
        m.record_cache_path(&lcmsr_core::stats::RunStats::new("TGEN"));
        let text = m.render();
        for series in [
            "lcmsr_requests_total 5",
            "lcmsr_queries_total 0",
            "lcmsr_responses_ok_total",
            "lcmsr_responses_client_error_total",
            "lcmsr_deadline_shed_total 3",
            "lcmsr_partial_total 4",
            "lcmsr_slow_queries_total 0",
            "lcmsr_traced_queries_total 0",
            "lcmsr_batches_total 2",
            "lcmsr_batched_queries_total 7",
            "lcmsr_queue_depth",
            "lcmsr_prepare_ns_total 900",
            "lcmsr_prepare_grid_score_ns_total 600",
            "lcmsr_prepare_graph_build_ns_total 250",
            "lcmsr_cache_hits_total 1",
            "lcmsr_cache_misses_total 1",
            "lcmsr_cache_stale_total 1",
            "lcmsr_latency_sum 3000",
            "lcmsr_latency_count 1",
            "lcmsr_latency_bucket{le=\"+Inf\"} 1",
        ] {
            assert!(text.contains(series), "missing {series:?} in:\n{text}");
        }
    }

    #[test]
    fn render_is_prometheus_compliant() {
        let m = ServiceMetrics::new();
        m.latency.record(Duration::from_millis(1));
        let text = m.render();
        let mut announced = std::collections::BTreeSet::new();
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "no blank lines in the exposition");
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap();
                let kind = parts.next().unwrap();
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "unknown type {kind:?} in {line:?}"
                );
                // Counters must end in _total per the naming convention.
                if kind == "counter" {
                    assert!(name.ends_with("_total"), "counter {name} missing _total");
                }
                announced.insert(name.to_string());
                continue;
            }
            if line.starts_with("# HELP ") {
                continue;
            }
            // A sample line: `name[{labels}] value` whose metric family was
            // announced by a preceding # TYPE line.
            let (name_and_labels, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
            let name = name_and_labels
                .split('{')
                .next()
                .expect("sample line has a name");
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .filter(|f| announced.contains(*f))
                .unwrap_or(name);
            assert!(
                announced.contains(family),
                "sample {name} has no # TYPE metadata"
            );
        }
        // The histogram family is present in full.
        assert!(text.contains("# TYPE lcmsr_latency histogram"));
        assert!(text.contains("lcmsr_latency_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lcmsr_latency_sum 1000"));
        assert!(text.contains("lcmsr_latency_count 1"));
    }
}
