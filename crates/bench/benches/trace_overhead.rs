//! Tracing-overhead benchmark: what span instrumentation costs when it is off.
//!
//! PR 9 threads a `TraceCollector` through the engine and every solver hot
//! loop.  The design contract is the same as the inert `CancelToken`: a
//! query that did not ask for tracing must see one predicted branch per
//! instrumentation point — nothing allocated, nothing timed, nothing stored.
//! This plain harness pins that contract from three angles and writes
//! `BENCH_trace.json` (see [`lcmsr_bench::harness`] for the environment it
//! reads):
//!
//! * **inert vs untraced** — the gated ratio.  `untraced` runs the workload
//!   with requests that never mention tracing; `inert` runs identical
//!   requests with tracing explicitly requested *off*.  Both must take the
//!   same code path, so the ratio pins two things at once: a `.trace(false)`
//!   request costs the same as never asking, and the measurement itself is
//!   stable enough for the gate to mean anything.
//! * **inert span ns/op** — a direct microbenchmark of the disabled
//!   collector's `start`/`end` pair, the exact call solver hot loops make
//!   when tracing is off.  This is the measurement an A/B over the public
//!   API cannot give (instrumentation is compiled into both sides): if a
//!   future change puts work in front of the disabled check, this number —
//!   single-digit nanoseconds today — is where it shows up first.
//! * **enabled vs untraced** — reported (not gated) so the cost of *asking*
//!   for a trace is tracked across PRs; active tracing is sampled 1-in-N in
//!   production and may legitimately cost a few percent.
//!
//! The strict gates hold the inert/untraced ratio to at most 1.05 and the
//! inert span pair to at most 100 ns.

use lcmsr_bench::harness::{best_secs, gate, strict_from_env, Limit, Report};
use lcmsr_bench::*;
use lcmsr_core::prelude::*;
use lcmsr_core::trace::TraceCollector;
use std::hint::black_box;
use std::time::Instant;

const QUERIES: usize = 32;
/// Best-of rounds per workload pass.
const ROUNDS: usize = 5;
/// Inert-tracing pass time over the untraced pass time.
const MAX_TRACE_RATIO: f64 = 1.05;
/// Nanoseconds per disabled span pair.
const MAX_INERT_NS: f64 = 100.0;

/// Best-of-`ROUNDS` wall time for one full pass over the workload, with the
/// trace flag applied to every request.  `trace: None` builds the request
/// without ever mentioning tracing — the untraced baseline.
fn measure_pass(
    engine: &LcmsrEngine<'_>,
    queries: &[LcmsrQuery],
    algorithm: &Algorithm,
    trace: Option<bool>,
) -> f64 {
    best_secs(ROUNDS, || {
        for query in queries {
            let mut request = QueryRequest::new(query, algorithm.clone());
            if let Some(flag) = trace {
                request = request.trace(flag);
            }
            let outcome = engine.execute(&request).expect("workload run");
            black_box(outcome.regions.len());
        }
    })
}

/// Nanoseconds per disabled `start`/`end` pair — the per-instrumentation-
/// point cost every solver hot loop pays when tracing is off.
fn inert_span_ns_per_op() -> f64 {
    let mut collector = TraceCollector::disabled();
    const OPS: u64 = 4_000_000;
    // Warm the branch predictor before timing.
    for _ in 0..10_000 {
        let id = collector.start("warmup");
        collector.end(id);
    }
    let start = Instant::now();
    for _ in 0..OPS {
        let id = black_box(collector.start("bench"));
        collector.end(id);
    }
    start.elapsed().as_nanos() as f64 / OPS as f64
}

fn main() {
    let scale = scale_from_env();
    let strict = strict_from_env();

    let dataset = ny_dataset(scale);
    let params = dataset.default_query_params(2024);
    let queries = make_workload(
        &dataset,
        QUERIES,
        params.num_keywords,
        params.area_km2,
        params.delta_km,
        2024,
    );
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let alpha = default_tgen_alpha(&dataset, &queries);
    let tgen = Algorithm::Tgen(TgenParams { alpha });

    // Warmup: populate grid/arena caches so neither side pays first-touch
    // costs, and sanity-check that an enabled run really produces a trace.
    let warm = engine
        .execute(&QueryRequest::new(&queries[0], tgen.clone()).trace(true))
        .expect("warmup run");
    let warm_trace = warm.trace.expect("enabled run must carry a trace");
    warm_trace.validate().expect("well-formed warmup trace");

    // A re-measure repeats both sides: a stale baseline is as misleading as
    // a noisy candidate.
    let (untraced_secs, inert_secs, inert_ratio) = gate(
        strict,
        "inert-tracing ratio",
        Limit::AtMost(MAX_TRACE_RATIO),
        || {
            let untraced = measure_pass(&engine, &queries, &tgen, None);
            let inert = measure_pass(&engine, &queries, &tgen, Some(false));
            (untraced, inert, inert / untraced.max(1e-12))
        },
        |&(_, _, ratio)| ratio,
    );
    let enabled_secs = measure_pass(&engine, &queries, &tgen, Some(true));
    let inert_ns = gate(
        strict,
        "inert span pair ns",
        Limit::AtMost(MAX_INERT_NS),
        inert_span_ns_per_op,
        |&ns| ns,
    );

    let enabled_ratio = enabled_secs / untraced_secs.max(1e-12);
    println!("trace_overhead (scale {scale:?}, {QUERIES} queries, best of {ROUNDS})");
    println!("  untraced pass   : {:>10.1} µs", untraced_secs * 1e6);
    println!(
        "  inert pass      : {:>10.1} µs  ({inert_ratio:.3}x untraced)",
        inert_secs * 1e6
    );
    println!(
        "  enabled pass    : {:>10.1} µs  ({enabled_ratio:.3}x untraced, {} spans/query)",
        enabled_secs * 1e6,
        warm_trace.spans.len()
    );
    println!("  inert span pair : {inert_ns:>10.2} ns/op");

    Report::new("trace_overhead", "trace", scale)
        .field("queries", QUERIES)
        .field("rounds", ROUNDS)
        .field("untraced_pass_us", untraced_secs * 1e6)
        .field("inert_pass_us", inert_secs * 1e6)
        .field("enabled_pass_us", enabled_secs * 1e6)
        .field("inert_ratio", inert_ratio)
        .field("enabled_ratio", enabled_ratio)
        .field("inert_span_ns_per_op", inert_ns)
        .field("spans_per_traced_query", warm_trace.spans.len())
        .field("max_trace_ratio_gate", MAX_TRACE_RATIO)
        .field("max_inert_ns_gate", MAX_INERT_NS)
        .write();
}
