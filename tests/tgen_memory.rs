//! TGEN's arena footprint at a size where it matters.
//!
//! TGEN writes a generated tuple's node and edge sets into the tuple arena
//! only when the top list or a node's explored array keeps the tuple.
//! Merging every generated tuple, as the loop once did, costs about two arena
//! blocks per tuple: one for the node set and one for the edge set.  On a
//! whole-extent query over small NY with a 6-km budget, most tuples are kept
//! by nothing, so the run must allocate fewer blocks than it generates
//! tuples.
//!
//! The probe takes about a second in release and far longer in debug, so it
//! is ignored by default.  Run it with
//! `cargo test --release --test tgen_memory -- --ignored --nocapture`.

use lcmsr::core::engine::LcmsrEngine;
use lcmsr::core::tgen::run_tgen;
use lcmsr::core::{CancelToken, LcmsrQuery, TgenParams, TraceCollector, TupleArena};
use lcmsr::datagen::{Dataset, DatasetConfig, NetworkScale, QueryGenParams};
use std::time::Instant;

/// TGEN's scaling on the probe: the paper's NY default.
const ALPHA: f64 = 400.0;
/// The probe's length budget, metres.
const DELTA: f64 = 6_000.0;

#[test]
#[ignore = "a release-mode probe on small NY; run with --release -- --ignored"]
fn a_whole_extent_tgen_run_allocates_fewer_blocks_than_it_generates_tuples() {
    let dataset = Dataset::build(DatasetConfig::ny(NetworkScale::Small, 2014));
    // The keywords of the benchmark pool's first query, over the whole
    // extent instead of its 100-km² square.
    let first = QueryGenParams {
        num_queries: 1,
        ..dataset.default_query_params(2026)
    };
    let keywords = dataset.queries(&first).remove(0).keywords;
    let rect = dataset
        .network
        .bounding_rect()
        .expect("a non-empty network");
    let query = LcmsrQuery::new(keywords.clone(), DELTA, rect).expect("a valid query");
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let graph = engine.prepare(&query, ALPHA).expect("prepare");

    let mut arena = TupleArena::new();
    let started = Instant::now();
    let outcome = run_tgen(
        &graph,
        &mut arena,
        &TgenParams { alpha: ALPHA },
        &CancelToken::none(),
        &mut TraceCollector::disabled(),
    )
    .expect("tgen");
    let elapsed = started.elapsed();
    let blocks = arena.stats().allocs;
    // TGEN frees nothing, so the slab's final length is its peak.
    let mib = |slots: usize| slots as f64 * 4.0 / (1024.0 * 1024.0);
    println!(
        "keywords {keywords:?}: {} nodes, {} tuples generated, {blocks} arena blocks \
         ({:.2} per tuple), slab {:.1} MiB (capacity {:.1} MiB), TGEN {:.2} s",
        graph.node_count(),
        outcome.tuples_generated,
        blocks as f64 / outcome.tuples_generated.max(1) as f64,
        mib(arena.storage_len()),
        mib(arena.storage_capacity()),
        elapsed.as_secs_f64()
    );
    assert!(outcome.best.is_some(), "the probe's keywords must match");
    assert!(
        blocks <= outcome.tuples_generated,
        "{blocks} arena blocks for {} generated tuples: TGEN merges tuples nothing keeps",
        outcome.tuples_generated
    );
}
