//! Deadline-overrun benchmark: how promptly solvers honour anytime deadlines.
//!
//! PR 6 threads a cooperative cancellation token through every solver so a
//! `QueryRequest` with a deadline returns its best-so-far region instead of
//! running to completion.  Cooperation is only worth something if the poll
//! points are dense enough — a solver that checks the clock every few hundred
//! microseconds overruns a 1 ms deadline by a useless margin.  This plain
//! harness measures that margin directly and writes `BENCH_deadline.json`
//! (see [`lcmsr_bench::harness`] for the environment it reads).
//!
//! Two workloads, both run many times with a tight deadline:
//!
//! * **Exact** — the 2^n enumeration on a deliberately worst-case 20-node
//!   grid (the solver's `node_limit`); without a deadline this runs for tens
//!   of milliseconds, so a 1 ms deadline *must* interrupt it mid-enumeration,
//! * **TGEN** — the edge-combine loop on the NY-like synthetic workload,
//!   where the deadline races realistic solve times.
//!
//! For every trial the **overrun ratio** is `observed latency / deadline`; a
//! run that finishes (or yields) inside the deadline scores below 1.0.  The
//! report includes the p99 ratio per workload plus the fraction of runs that
//! returned `partial`.  The strict gate holds the deadlined Exact p99 overrun
//! ratio to at most 1.25 (a deadline may be exceeded by at most 25%).

use lcmsr_bench::harness::{gate, percentile, strict_from_env, Limit, Report};
use lcmsr_bench::*;
use lcmsr_core::prelude::*;
use lcmsr_geotext::prelude::*;
use lcmsr_roadnet::prelude::*;
use std::time::{Duration, Instant};

const TRIALS: usize = 64;
const DEADLINE: Duration = Duration::from_millis(1);
/// Deadlined Exact p99 latency over the deadline.
const MAX_OVERRUN: f64 = 1.25;

/// A 5×4 grid city — exactly the Exact solver's 20-node limit, so the mask
/// enumeration is as deep as the solver ever allows (2^20 subsets).
fn grid_city() -> (RoadNetwork, Vec<GeoTextObject>) {
    let (w, h, spacing) = (5usize, 4usize, 100.0);
    let mut builder = GraphBuilder::new();
    let mut nodes = Vec::new();
    for y in 0..h {
        for x in 0..w {
            nodes.push(builder.add_node(Point::new(x as f64 * spacing, y as f64 * spacing)));
        }
    }
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x + 1 < w {
                builder.add_edge(nodes[i], nodes[i + 1], spacing).unwrap();
            }
            if y + 1 < h {
                builder.add_edge(nodes[i], nodes[i + w], spacing).unwrap();
            }
        }
    }
    let network = builder.build().unwrap();
    // A restaurant near every node keeps every subset relevant, which makes
    // the enumeration the worst case for the budget pruner.
    let objects = (0..(w * h))
        .map(|i| {
            let x = (i % w) as f64 * spacing;
            let y = (i / w) as f64 * spacing;
            GeoTextObject::from_keywords(i as u64, Point::new(x + 5.0, y + 5.0), ["restaurant"])
        })
        .collect();
    (network, objects)
}

/// Runs [`TRIALS`] executions under [`DEADLINE`] and returns (sorted overrun
/// ratios, fraction partial).
fn measure_overruns(
    engine: &LcmsrEngine<'_>,
    query: &LcmsrQuery,
    algorithm: &Algorithm,
) -> (Vec<f64>, f64) {
    let mut ratios = Vec::with_capacity(TRIALS);
    let mut partial = 0usize;
    for _ in 0..TRIALS {
        let request =
            QueryRequest::new(query, algorithm.clone()).deadline(Deadline::after(DEADLINE));
        let start = Instant::now();
        let outcome = engine.execute(&request).expect("deadlined run");
        let elapsed = start.elapsed();
        ratios.push(elapsed.as_secs_f64() / DEADLINE.as_secs_f64());
        if outcome.is_partial() {
            partial += 1;
        }
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (ratios, partial as f64 / TRIALS as f64)
}

fn main() {
    let scale = scale_from_env();
    let strict = strict_from_env();

    // Exact workload: the worst-case grid at the solver's node limit.
    let (grid_network, grid_objects) = grid_city();
    let grid_collection = ObjectCollection::build(&grid_network, grid_objects, 100.0).unwrap();
    let grid_engine = LcmsrEngine::new(&grid_network, &grid_collection);
    let grid_rect = grid_network.bounding_rect().unwrap().expanded(10.0);
    let exact_query = LcmsrQuery::new(["restaurant"], 600.0, grid_rect).unwrap();

    // Sanity: the undeadlined Exact run must be slower than the deadline,
    // otherwise the gate measures nothing.
    let free_run = Instant::now();
    let full = grid_engine
        .execute(&QueryRequest::new(&exact_query, Algorithm::Exact))
        .expect("exact full run");
    let exact_full_secs = free_run.elapsed().as_secs_f64();
    assert!(!full.is_partial(), "undeadlined run must be complete");

    // TGEN workload: the NY-like synthetic dataset.
    let dataset = ny_dataset(scale);
    let params = dataset.default_query_params(2024);
    let queries = make_workload(
        &dataset,
        1,
        params.num_keywords,
        params.area_km2,
        params.delta_km,
        2024,
    );
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let alpha = default_tgen_alpha(&dataset, &queries);
    let tgen = Algorithm::Tgen(TgenParams { alpha });

    let (exact_ratios, exact_partial) = gate(
        strict,
        "deadlined Exact p99 overrun",
        Limit::AtMost(MAX_OVERRUN),
        || measure_overruns(&grid_engine, &exact_query, &Algorithm::Exact),
        |(ratios, _)| percentile(ratios, 0.99),
    );
    let (tgen_ratios, tgen_partial) = measure_overruns(&engine, &queries[0], &tgen);

    let exact_p99 = percentile(&exact_ratios, 0.99);
    let tgen_p99 = percentile(&tgen_ratios, 0.99);
    println!(
        "deadline (scale {scale:?}, {TRIALS} trials, deadline {} ms)",
        DEADLINE.as_millis()
    );
    println!(
        "  exact free run  : {:>10.1} µs  (deadline is {:.1}x shorter)",
        exact_full_secs * 1e6,
        exact_full_secs / DEADLINE.as_secs_f64()
    );
    println!(
        "  exact deadlined : p99 overrun {exact_p99:.3}x, {:.0}% partial",
        exact_partial * 100.0
    );
    println!(
        "  tgen deadlined  : p99 overrun {tgen_p99:.3}x, {:.0}% partial",
        tgen_partial * 100.0
    );

    Report::new("deadline", "deadline", scale)
        .field("trials", TRIALS)
        .field("deadline_ms", DEADLINE.as_millis() as u64)
        .field("exact_full_run_us", exact_full_secs * 1e6)
        .field("exact_p99_overrun", exact_p99)
        .field("exact_partial_fraction", exact_partial)
        .field("tgen_p99_overrun", tgen_p99)
        .field("tgen_partial_fraction", tgen_partial)
        .field("max_overrun_gate", MAX_OVERRUN)
        .write();
}
