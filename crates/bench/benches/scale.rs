//! Continent-scale benchmark: the flat grid index and the rect-bounded
//! prepare phase at 1M+ nodes — the tier where prepare and solve costs
//! actually compete.
//!
//! It writes `BENCH_scale.json` (see [`lcmsr_bench::harness`] for the
//! environment it reads).  Over an NY-like network at `LCMSR_SCALE` (CI's
//! `scale-smoke` job runs `huge`, ~1M nodes) it measures:
//!
//! * **index build** — `ObjectCollection::build` over the dataset's objects
//!   (one build);
//! * **prepare** — `LcmsrEngine::prepare_with` per query on a warm workspace
//!   (best of 2 passes over 8 queries), with the grid-score/graph-build split
//!   from `PrepareBreakdown`;
//! * **peak RSS** — the process's absolute `VmHWM` after the index build and
//!   at the end of the run;
//! * **scratch locality** — the prepare scratch (`member_table_len`) must
//!   stay within the widest query rect's member-id band (the epoch table is
//!   offset-rebased at the smallest member id), never the network size.
//!
//! Every sampled query's keyword scores are asserted bit-identical
//! (`to_bits`) to a naive reference that scans every object.

use lcmsr_bench::harness::{best_secs, Report};
use lcmsr_bench::*;
use lcmsr_core::prelude::*;
use lcmsr_geotext::collection::ObjectCollection;
use lcmsr_geotext::vsm::{object_norm, tf_weight, QueryVector};
use lcmsr_roadnet::geo::Rect;
use std::collections::BTreeMap;

const QUERIES: usize = 8;
/// Best-of passes over the prepare workload.
const ROUNDS: usize = 2;
/// Best-of index builds.
const BUILD_ROUNDS: usize = 1;

/// Peak resident set (`VmHWM`) in KiB, when the platform exposes it.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `(id, score bits)` per node and per object, from a scan over every
/// object: inside `rect`, `Σ w_{Q.ψ,t} · wto(t)` in query-term order, node
/// sums in ascending object-id order.
type ScoreBits = (Vec<(u32, u64)>, Vec<(u64, u64)>);

fn naive_scores(collection: &ObjectCollection, query: &QueryVector, rect: &Rect) -> ScoreBits {
    let mut by_object = BTreeMap::new();
    if query.norm > 0.0 {
        for object in collection.objects() {
            if !rect.contains(&object.point) {
                continue;
            }
            let mut partial = 0.0;
            for term in query.terms.iter().filter(|t| t.weight != 0.0) {
                if let Some(&tf) = object.terms.get(&term.text) {
                    partial += term.weight * (tf_weight(tf) / object_norm(object));
                }
            }
            let score = partial / query.norm;
            if score > 0.0 {
                by_object.insert(object.id, score);
            }
        }
    }
    let mut by_node = BTreeMap::new();
    for (&id, &score) in &by_object {
        let node = collection.node_of(id).expect("scored object is indexed");
        *by_node.entry(node).or_insert(0.0) += score;
    }
    (
        by_node.iter().map(|(n, w)| (n.0, w.to_bits())).collect(),
        by_object.iter().map(|(o, w)| (o.0, w.to_bits())).collect(),
    )
}

fn main() {
    let scale = scale_from_env();
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    println!("scale (building NY-like dataset at {scale:?}…)");
    let gen_start = std::time::Instant::now();
    let dataset = ny_dataset(scale);
    let gen_secs = gen_start.elapsed().as_secs_f64();
    let node_count = dataset.network.node_count();
    let object_count = dataset.collection.len();
    let postings = dataset.collection.grid().posting_count();
    println!(
        "  dataset         : {} nodes, {} edges, {object_count} objects ({postings} postings) in {gen_secs:.1} s",
        node_count,
        dataset.network.edge_count()
    );

    // -- index build ---------------------------------------------------------
    // The object clone sits inside the timed closure (the build consumes
    // its input); it is a small share of the build.
    let objects = dataset.collection.objects().to_vec();
    let cell_size = dataset.config.cell_size;
    let index_build_secs = best_secs(BUILD_ROUNDS, || {
        let built = ObjectCollection::build(&dataset.network, objects.clone(), cell_size)
            .expect("index build");
        assert_eq!(built.len(), object_count);
    });
    drop(objects);
    let build_peak_kib = peak_rss_kib().unwrap_or(0);

    // -- prepare -------------------------------------------------------------
    let params = dataset.default_query_params(2026);
    let queries = make_workload(
        &dataset,
        QUERIES,
        params.num_keywords,
        params.area_km2,
        params.delta_km,
        2026,
    );
    assert!(!queries.is_empty(), "scale workload generated no queries");
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let alpha = default_tgen_alpha(&dataset, &queries);

    // The flat scorer must reproduce the naive scan bit for bit.
    let collection = &dataset.collection;
    let mut matches_reference = true;
    for q in &queries {
        let query = collection.query_vector(&q.keywords);
        let weights = collection.node_weights(&query, &q.region_of_interest);
        let flat: ScoreBits = (
            weights
                .by_node()
                .iter()
                .map(|(n, w)| (n.0, w.to_bits()))
                .collect(),
            weights
                .by_object()
                .iter()
                .map(|(o, w)| (o.0, w.to_bits()))
                .collect(),
        );
        matches_reference &= flat == naive_scores(collection, &query, &q.region_of_interest);
    }

    // Cold pass, then a warm split pass: the grid-score / graph-build
    // breakdown on reused scratch, comparable to the timed passes below.
    let mut workspace = QueryWorkspace::new();
    for q in &queries {
        let graph = engine
            .prepare_with(&mut workspace, q, alpha)
            .expect("prepare");
        engine.release(&mut workspace, graph);
    }
    let mut grid_score_secs = 0.0;
    let mut graph_build_secs = 0.0;
    for q in &queries {
        let graph = engine
            .prepare_with(&mut workspace, q, alpha)
            .expect("prepare");
        let split = workspace.prepare_breakdown();
        grid_score_secs += split.grid_score_time.as_secs_f64();
        graph_build_secs += split.graph_build_time.as_secs_f64();
        engine.release(&mut workspace, graph);
    }
    grid_score_secs /= queries.len() as f64;
    graph_build_secs /= queries.len() as f64;
    let prepare_secs = best_secs(ROUNDS, || {
        for q in &queries {
            let g = engine
                .prepare_with(&mut workspace, q, alpha)
                .expect("prepare");
            engine.release(&mut workspace, g);
        }
    }) / queries.len() as f64;

    // The rect-bounded scratch contract: after preparing every query, the
    // member table covers the largest query rect's cell cover — not the
    // network.
    let member_table_len = workspace.member_table_len();
    let mut rect_nodes = 0usize;
    let mut rect_id_band = 0usize;
    for q in &queries {
        let in_rect = dataset.network.nodes_in_rect(&q.region_of_interest);
        rect_nodes = rect_nodes.max(in_rect.len());
        // The epoch table is offset-rebased at the smallest member id, so its
        // high-water size is the widest member-id *band* across queries — on a
        // row-major network that is (rect rows x network cols), well above the
        // member count but still far below |V|.
        let band = match (in_rect.iter().min(), in_rect.iter().max()) {
            (Some(lo), Some(hi)) => hi.index() - lo.index() + 1,
            _ => 0,
        };
        rect_id_band = rect_id_band.max(band);
    }
    let scratch_ratio = member_table_len as f64 / node_count.max(1) as f64;
    let peak_kib = peak_rss_kib().unwrap_or(0);

    println!(
        "scale (scale {scale:?}, {} queries, {cpus} CPUs)",
        queries.len()
    );
    println!("  index build     : {index_build_secs:>10.2} s");
    println!("  prepare         : {:>10.1} µs/query", prepare_secs * 1e6);
    println!(
        "  prepare split   : {:>10.1} µs grid score + {:.1} µs graph build",
        grid_score_secs * 1e6,
        graph_build_secs * 1e6
    );
    println!(
        "  peak RSS        : {:>10.1} MiB after the index build, {:.1} MiB at the end",
        build_peak_kib as f64 / 1024.0,
        peak_kib as f64 / 1024.0
    );
    println!(
        "  scratch         : {member_table_len} member-table entries for ≤ {rect_nodes} rect nodes \
         (id band {rect_id_band}; {:.2}% of {node_count} network nodes)",
        scratch_ratio * 100.0
    );
    println!("  matches naive reference: {matches_reference}");

    assert!(
        matches_reference,
        "flat scorer must be bit-identical to the naive reference scan"
    );
    // The scratch stays bounded by the rect's member-id band: the epoch table
    // never touches node ids outside the widest query band, and on large
    // networks must additionally stay an order of magnitude under |V|.
    assert!(
        member_table_len <= rect_id_band.max(4096),
        "prepare scratch ({member_table_len} entries) exceeds the widest query \
         rect id band ({rect_id_band} ids)"
    );
    if node_count >= 100_000 {
        assert!(
            member_table_len * 10 <= node_count,
            "prepare scratch ({member_table_len}) must stay an order of magnitude \
             below the network ({node_count} nodes)"
        );
    }

    Report::new("scale", "scale", scale)
        .field("nodes", node_count)
        .field("edges", dataset.network.edge_count())
        .field("objects", object_count)
        .field("postings", postings)
        .field("queries", queries.len())
        .field("cpus", cpus)
        .field("dataset_build_s", gen_secs)
        .field("index_build_s", index_build_secs)
        .field("prepare_us_per_query", prepare_secs * 1e6)
        .field("grid_score_us_per_query", grid_score_secs * 1e6)
        .field("graph_build_us_per_query", graph_build_secs * 1e6)
        .field("peak_rss_after_index_build_kib", build_peak_kib)
        .field("peak_rss_kib", peak_kib)
        .field("member_table_len", member_table_len)
        .field("max_rect_nodes", rect_nodes)
        .field("max_rect_id_band", rect_id_band)
        .field("scratch_vs_network", scratch_ratio)
        .field("matches_naive_reference", matches_reference)
        .write();
}
