//! Batch-throughput benchmark: a sequential `execute` loop vs the same
//! requests on scoped threads over `execute` (`execute_on_threads`), plus the
//! fresh-vs-reused `prepare` cost — the two wins the CSR query graph and the
//! pooled, reusable `QueryWorkspace` were built for.
//!
//! Writes `BENCH_batch.json` (see [`lcmsr_bench::harness`] for the
//! environment it reads).  Batched results must be identical to sequential
//! output.  The ≥2× batched-vs-sequential gate assumes ≥4 available CPUs; on
//! smaller machines the benchmark still reports the measured ratio (workspace
//! reuse alone keeps it ≥1 in practice) but does not gate it.

use lcmsr_bench::harness::{best_secs, gate, strict_from_env, Limit, Report};
use lcmsr_bench::*;
use lcmsr_core::prelude::*;

const QUERIES: usize = 32;
const WORKERS: usize = 4;
const ROUNDS: usize = 3;
/// Batched over [`WORKERS`] workers vs sequential, enforced with ≥ WORKERS CPUs.
const MIN_SPEEDUP: f64 = 2.0;

fn main() {
    let scale = scale_from_env();
    let strict = strict_from_env();
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let dataset = ny_dataset(scale);
    let params = dataset.default_query_params(4242);
    let queries = make_workload(
        &dataset,
        QUERIES,
        params.num_keywords,
        params.area_km2,
        params.delta_km,
        4242,
    );
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let alpha = default_tgen_alpha(&dataset, &queries);
    let algorithm = Algorithm::Tgen(TgenParams { alpha });

    // -- prepare: fresh workspace per query vs one reused workspace ---------
    let prep_fresh = best_secs(ROUNDS, || {
        for q in &queries {
            let _ = engine.prepare(q, alpha).expect("prepare");
        }
    }) / queries.len() as f64;
    let mut workspace = QueryWorkspace::new();
    // Warm the workspace buffers to their high-water mark before timing.
    for q in &queries {
        let g = engine
            .prepare_with(&mut workspace, q, alpha)
            .expect("prepare");
        engine.release(&mut workspace, g);
    }
    let prep_reused = best_secs(ROUNDS, || {
        for q in &queries {
            let g = engine
                .prepare_with(&mut workspace, q, alpha)
                .expect("prepare");
            engine.release(&mut workspace, g);
        }
    }) / queries.len() as f64;
    let prep_speedup = prep_fresh / prep_reused.max(1e-12);

    // -- sequential run loop vs batched execution ---------------------------
    let requests: Vec<QueryRequest<'_>> = queries
        .iter()
        .map(|q| QueryRequest::new(q, algorithm.clone()))
        .collect();
    let mut sequential_regions = Vec::new();
    let mut batched_regions = Vec::new();
    let (seq_secs, batch_secs, speedup) = gate(
        strict && cpus >= WORKERS,
        "batch speedup",
        Limit::AtLeast(MIN_SPEEDUP),
        || {
            let seq_secs = best_secs(ROUNDS, || {
                sequential_regions = requests
                    .iter()
                    .map(|r| engine.execute(r).expect("execute").regions)
                    .collect();
            });
            let batch_secs = best_secs(ROUNDS, || {
                batched_regions = execute_on_threads(&engine, &requests, WORKERS)
                    .expect("execute_on_threads")
                    .into_iter()
                    .map(|o| o.regions)
                    .collect();
            });
            (seq_secs, batch_secs, seq_secs / batch_secs.max(1e-12))
        },
        |&(_, _, speedup)| speedup,
    );
    let identical = sequential_regions == batched_regions;
    let seq_qps = queries.len() as f64 / seq_secs;
    let batch_qps = queries.len() as f64 / batch_secs;

    println!(
        "batch_throughput (scale {scale:?}, {} queries, {WORKERS} workers, {cpus} CPUs)",
        queries.len()
    );
    println!("  prepare fresh   : {:>10.1} µs/query", prep_fresh * 1e6);
    println!(
        "  prepare reused  : {:>10.1} µs/query  ({prep_speedup:.2}x)",
        prep_reused * 1e6
    );
    println!(
        "  sequential run  : {:>10.2} ms total  ({seq_qps:.1} q/s)",
        seq_secs * 1e3
    );
    println!(
        "  batched({WORKERS})      : {:>10.2} ms total  ({batch_qps:.1} q/s)",
        batch_secs * 1e3
    );
    println!("  batch speedup   : {speedup:.2}x   results identical: {identical}");

    assert!(
        identical,
        "batched results must be identical to sequential output"
    );

    Report::new("batch_throughput", "batch", scale)
        .field("queries", queries.len())
        .field("workers", WORKERS)
        .field("cpus", cpus)
        .field("prepare_fresh_us_per_query", prep_fresh * 1e6)
        .field("prepare_reused_us_per_query", prep_reused * 1e6)
        .field("prepare_speedup", prep_speedup)
        .field("sequential_ms", seq_secs * 1e3)
        .field("batch_ms", batch_secs * 1e3)
        .field("sequential_qps", seq_qps)
        .field("batch_qps", batch_qps)
        .field("batch_speedup", speedup)
        .field("identical_results", identical)
        .write();
}
