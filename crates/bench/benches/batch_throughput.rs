//! Batch-throughput benchmark: a sequential `execute` loop vs
//! `execute_batch_with` over scoped workers, plus the fresh-vs-reused `prepare` cost — the two wins the
//! CSR query graph and the reusable `QueryWorkspace` were built for.
//!
//! Unlike the criterion benches this is a plain harness so it can emit a
//! machine-readable `BENCH_batch.json` (path overridable via
//! `LCMSR_BENCH_OUT`) that CI archives to track the perf trajectory across
//! PRs.  Knobs: `LCMSR_SCALE` (dataset size, default `tiny`),
//! `LCMSR_BATCH_QUERIES` (default 32), `LCMSR_BATCH_WORKERS` (default 4).
//!
//! The ≥2× batched-vs-sequential target assumes ≥4 available CPUs; on
//! smaller machines the benchmark still reports the measured ratio (workspace
//! reuse alone keeps it ≥1 in practice) but only fails loudly when
//! `LCMSR_BENCH_STRICT` is set.

use lcmsr_bench::*;
use lcmsr_core::prelude::*;

fn main() {
    let scale = scale_from_env();
    let num_queries = env_usize("LCMSR_BATCH_QUERIES", 32).max(1);
    let workers = env_usize("LCMSR_BATCH_WORKERS", 4).max(1);
    let rounds = env_usize("LCMSR_BATCH_ROUNDS", 3).max(1);
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let dataset = ny_dataset(scale);
    let params = dataset.default_query_params(4242);
    let queries = make_workload(
        &dataset,
        num_queries,
        params.num_keywords,
        params.area_km2,
        params.delta_km,
        4242,
    );
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let alpha = default_tgen_alpha(&dataset, &queries);
    let algorithm = Algorithm::Tgen(TgenParams { alpha });

    // -- prepare: fresh workspace per query vs one reused workspace ---------
    let prep_fresh = best_secs(rounds, || {
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
    let prep_reused = best_secs(rounds, || {
        for q in &queries {
            let g = engine
                .prepare_with(&mut workspace, q, alpha)
                .expect("prepare");
            engine.release(&mut workspace, g);
        }
    }) / queries.len() as f64;
    let prep_speedup = prep_fresh / prep_reused.max(1e-12);

    // -- sequential run loop vs batched execution ---------------------------
    // The strict speedup gate re-measures once before failing: on shared CI
    // runners a noisy neighbour can depress a single measurement window.
    let strict = std::env::var("LCMSR_BENCH_STRICT").is_ok();
    let min_speedup = env_f64("LCMSR_BENCH_MIN_SPEEDUP", 2.0);
    let requests: Vec<QueryRequest<'_>> = queries
        .iter()
        .map(|q| QueryRequest::new(q, algorithm.clone()))
        .collect();
    let mut sequential_regions = Vec::new();
    let mut batched_regions = Vec::new();
    let mut seq_secs = 0.0;
    let mut batch_secs = 0.0;
    let mut speedup = 0.0;
    for attempt in 0..2 {
        seq_secs = best_secs(rounds, || {
            sequential_regions = requests
                .iter()
                .map(|r| engine.execute(r).expect("execute").regions)
                .collect();
        });
        batch_secs = best_secs(rounds, || {
            batched_regions = engine
                .execute_batch_with(&requests, workers)
                .expect("execute_batch_with")
                .into_iter()
                .map(|o| o.regions)
                .collect();
        });
        speedup = seq_secs / batch_secs.max(1e-12);
        if !strict || speedup >= min_speedup || cpus < workers {
            break;
        }
        if attempt == 0 {
            eprintln!("  speedup {speedup:.2}x below {min_speedup:.1}x target; re-measuring once");
        }
    }
    let identical = sequential_regions == batched_regions;
    let seq_qps = queries.len() as f64 / seq_secs;
    let batch_qps = queries.len() as f64 / batch_secs;

    println!(
        "batch_throughput (scale {scale:?}, {} queries, {workers} workers, {cpus} CPUs)",
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
        "  batched({workers})      : {:>10.2} ms total  ({batch_qps:.1} q/s)",
        batch_secs * 1e3
    );
    println!("  batch speedup   : {speedup:.2}x   results identical: {identical}");

    assert!(
        identical,
        "batched results must be identical to sequential output"
    );
    if strict && cpus >= workers {
        assert!(
            speedup >= min_speedup,
            "batch speedup {speedup:.2}x below the {min_speedup:.1}x target with {cpus} CPUs"
        );
    }

    let out_path =
        std::env::var("LCMSR_BENCH_OUT").unwrap_or_else(|_| "BENCH_batch.json".to_string());
    let json = format!(
        "{{\n  \"bench\": \"batch_throughput\",\n  \"scale\": \"{scale:?}\",\n  \"queries\": {},\n  \"workers\": {workers},\n  \"cpus\": {cpus},\n  \"prepare_fresh_us_per_query\": {:.3},\n  \"prepare_reused_us_per_query\": {:.3},\n  \"prepare_speedup\": {prep_speedup:.4},\n  \"sequential_ms\": {:.3},\n  \"batch_ms\": {:.3},\n  \"sequential_qps\": {seq_qps:.2},\n  \"batch_qps\": {batch_qps:.2},\n  \"batch_speedup\": {speedup:.4},\n  \"identical_results\": {identical}\n}}\n",
        queries.len(),
        prep_fresh * 1e6,
        prep_reused * 1e6,
        seq_secs * 1e3,
        batch_secs * 1e3,
    );
    std::fs::write(&out_path, json).expect("write BENCH_batch.json");
    println!("  wrote {out_path}");
}
