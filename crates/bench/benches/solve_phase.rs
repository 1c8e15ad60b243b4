//! Solve-phase benchmark: the TGEN edge-combine loop — the hot path PR 3's
//! `TupleArena` refactor and PR 5's budget-pruned flat tuple arrays target.
//!
//! Writes `BENCH_solve.json` (see [`lcmsr_bench::harness`] for the
//! environment it reads).  It measures, over a prepared query-graph workload:
//!
//! * **solve reused** — `run_tgen` with one warm arena, epoch-cleared between
//!   queries (the steady state every pooled workspace reaches),
//! * **solve fresh** — `run_tgen` with a brand-new arena per query (the cost
//!   a one-shot caller pays before any capacity has grown),
//! * combine-loop effectiveness: tuples generated, pairs budget-pruned
//!   without being looked at, array sizes, and arena activity.
//!
//! Fresh-arena results must be bit-identical to the warm arena's.  The
//! strict gate holds warm-arena solving to at least 0.9× the fresh-arena
//! speed (headroom for shared-runner noise on a ~1.0×-bound measurement).
//! TGEN's absolute solve speed is tracked by the `solve_tiny` workload of
//! the repository benchmark (`perfbench/`).

use lcmsr_bench::harness::{best_secs, gate, strict_from_env, Limit, Report};
use lcmsr_bench::*;
use lcmsr_core::arena::TupleArena;
use lcmsr_core::prelude::*;
use lcmsr_core::tgen::run_tgen;

const QUERIES: usize = 32;
const ROUNDS: usize = 3;
/// Warm-arena vs fresh-arena solve speed.
const MIN_SPEEDUP: f64 = 0.9;

/// Fingerprint of one solve outcome: exact measures of the best tuple plus
/// its global node ids, enough to detect any divergence bit for bit.
fn fingerprint(
    graph: &QueryGraph,
    arena: &TupleArena,
    outcome: &lcmsr_core::tgen::TgenOutcome,
) -> (u64, u64, u64, Vec<u64>, usize) {
    match &outcome.best {
        None => (0, 0, 0, Vec::new(), outcome.top_tuples.len()),
        Some(t) => (
            t.scaled,
            t.weight.to_bits(),
            t.length.to_bits(),
            t.nodes(arena)
                .iter()
                .map(|&v| graph.global_node(v).0 as u64)
                .collect(),
            outcome.top_tuples.len(),
        ),
    }
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
    let tgen = TgenParams { alpha };

    // Prepare every query graph once; this bench times the solve phase only.
    let graphs: Vec<_> = queries
        .iter()
        .map(|q| engine.prepare(q, alpha).expect("prepare"))
        .collect();

    // Warm one arena to its high-water capacity, collect the reference
    // fingerprints plus frontier/arena activity for the steady state.
    let mut warm = TupleArena::new();
    let mut reference = Vec::new();
    let mut tuples_total = 0u64;
    let mut pruned_total = 0u64;
    let mut frontier_total = 0u64;
    let mut frontier_peak = 0u64;
    let stats_before = warm.stats();
    for g in &graphs {
        warm.reset();
        let outcome = run_tgen(
            g,
            &mut warm,
            &tgen,
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .expect("tgen");
        tuples_total += outcome.tuples_generated;
        pruned_total += outcome.pruned_pairs;
        frontier_total += outcome.frontier_tuples;
        frontier_peak = frontier_peak.max(outcome.frontier_peak);
        reference.push(fingerprint(g, &warm, &outcome));
    }
    let stats_after = warm.stats();
    let allocs_per_query = (stats_after.allocs - stats_before.allocs) as f64 / graphs.len() as f64;
    let recycled = (stats_after.free_list_hits - stats_before.free_list_hits)
        + (stats_after.top_rollbacks - stats_before.top_rollbacks);
    let recycled_per_query = recycled as f64 / graphs.len() as f64;
    let slab_kib = warm.storage_capacity() as f64 * 4.0 / 1024.0;

    let (reused_secs, fresh_secs, speedup) = gate(
        strict,
        "warm-arena solve speedup",
        Limit::AtLeast(MIN_SPEEDUP),
        || {
            let reused_secs = best_secs(ROUNDS, || {
                for g in &graphs {
                    warm.reset();
                    let _ = run_tgen(
                        g,
                        &mut warm,
                        &tgen,
                        &CancelToken::none(),
                        &mut TraceCollector::disabled(),
                    )
                    .expect("tgen");
                }
            }) / graphs.len() as f64;
            let fresh_secs = best_secs(ROUNDS, || {
                for g in &graphs {
                    let mut arena = TupleArena::new();
                    let _ = run_tgen(
                        g,
                        &mut arena,
                        &tgen,
                        &CancelToken::none(),
                        &mut TraceCollector::disabled(),
                    )
                    .expect("tgen");
                }
            }) / graphs.len() as f64;
            (reused_secs, fresh_secs, fresh_secs / reused_secs.max(1e-12))
        },
        |&(_, _, speedup)| speedup,
    );

    // Fresh arenas must produce bit-identical outcomes to the warm arena.
    let mut identical = true;
    for (g, expect) in graphs.iter().zip(&reference) {
        let mut arena = TupleArena::new();
        let outcome = run_tgen(
            g,
            &mut arena,
            &tgen,
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .expect("tgen");
        if &fingerprint(g, &arena, &outcome) != expect {
            identical = false;
        }
    }

    let tuples_per_query = tuples_total as f64 / graphs.len() as f64;
    let pruned_per_query = pruned_total as f64 / graphs.len() as f64;
    let frontier_per_query = frontier_total as f64 / graphs.len() as f64;
    let tuples_per_sec = tuples_per_query / reused_secs.max(1e-12);
    println!(
        "solve_phase (scale {scale:?}, {} queries, TGEN α {alpha:.1})",
        graphs.len()
    );
    println!("  solve reused    : {:>10.1} µs/query", reused_secs * 1e6);
    println!(
        "  solve fresh     : {:>10.1} µs/query  ({speedup:.2}x)",
        fresh_secs * 1e6
    );
    println!(
        "  combine loop    : {tuples_per_query:>10.0} generated + {pruned_per_query:>8.0} pruned pairs/query"
    );
    println!(
        "  arrays          : {frontier_per_query:>10.0} tuples/query resident, peak {frontier_peak}"
    );
    println!(
        "  arena           : {allocs_per_query:.0} blocks/query, {recycled_per_query:.0} recycled/query, slab {slab_kib:.1} KiB"
    );
    println!("  results identical: {identical}");

    assert!(
        identical,
        "fresh-arena results must be identical to warm-arena output"
    );

    Report::new("solve_phase", "solve", scale)
        .field("queries", graphs.len())
        .field("tgen_alpha", alpha)
        .field("solve_reused_us_per_query", reused_secs * 1e6)
        .field("solve_fresh_us_per_query", fresh_secs * 1e6)
        .field("reuse_speedup", speedup)
        .field("tuples_per_query", tuples_per_query)
        .field("pruned_pairs_per_query", pruned_per_query)
        .field("frontier_tuples_per_query", frontier_per_query)
        .field("frontier_peak", frontier_peak)
        .field("tuples_per_sec", tuples_per_sec)
        .field("arena_blocks_per_query", allocs_per_query)
        .field("arena_recycled_per_query", recycled_per_query)
        .field("arena_slab_kib", slab_kib)
        .field("identical_results", identical)
        .write();
}
