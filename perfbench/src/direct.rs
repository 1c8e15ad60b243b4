//! The direct workloads, `solve_tiny` and `prepare_large`: one closed-loop
//! client calling `LcmsrEngine::execute_with` on one workspace, and a traced
//! variant that replays every request layer by layer through the public
//! functions the engine itself calls.

use crate::gauge::Gauge;
use crate::inputs::{self, DirectRequest, DirectSpec, Mode, Pool};
use crate::report::{self, RunResult};
use crate::stats::{self, MIN_SAMPLES};
use lcmsr_core::app::run_app;
use lcmsr_core::cancel::CancelToken;
use lcmsr_core::engine::{Algorithm, LcmsrEngine, QueryWorkspace};
use lcmsr_core::greedy::run_greedy;
use lcmsr_core::region::RegionTuple;
use lcmsr_core::tgen::run_tgen;
use lcmsr_core::topk::{topk_app, topk_greedy, topk_tgen};
use lcmsr_core::{LcmsrQuery, QueryGraphBuilder, Region, TraceCollector, TupleArena};
use lcmsr_datagen::Dataset;
use lcmsr_geotext::{NodeWeights, ObjectCollection};
use lcmsr_roadnet::subgraph::{RegionScratch, RegionView};
use lcmsr_roadnet::RoadNetwork;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Requests answered before the window opens, so workspace buffers and
/// arenas have grown to size (users pay that once per worker, not per run).
const WARMUP_REQUESTS: usize = 32;

/// Gauge rounds taken before each set-up and after the last, to scale the
/// set-up times.
pub const SETUP_GAUGE_ROUNDS: usize = 10;

/// Builds the dataset `repeats` times (dropping all but the last) and
/// returns it with each set-up's duration: dataset generation, the index
/// build and engine construction — everything before the first query.
/// `gauge` takes rounds around the set-ups.
pub fn set_up(spec: &DirectSpec, gauge: &mut Gauge) -> (Dataset, Vec<f64>) {
    let mut times = Vec::with_capacity(spec.setup_repeats);
    let mut kept = None;
    for _ in 0..spec.setup_repeats {
        drop(kept.take());
        gauge.rounds_of(SETUP_GAUGE_ROUNDS);
        let start = Instant::now();
        let dataset = Dataset::build(inputs::dataset_config(spec.scale));
        black_box(LcmsrEngine::new(&dataset.network, &dataset.collection));
        times.push(start.elapsed().as_secs_f64());
        kept = Some(dataset);
    }
    gauge.rounds_of(SETUP_GAUGE_ROUNDS);
    (kept.expect("at least one set-up ran"), times)
}

/// Reports the set-up's two layers: `datagen.build_s` is `build_s`, the
/// time of a whole `Dataset::build` (which builds the object index too),
/// and `geotext.index_build_s` times a rebuild of that index from the same
/// objects (`ObjectCollection::build`).
pub fn time_setup_layers(dataset: &Dataset, build_s: f64, result: &mut RunResult) {
    let objects = dataset.collection.objects().to_vec();
    let start = Instant::now();
    let rebuilt = ObjectCollection::build(&dataset.network, objects, dataset.config.cell_size)
        .expect("rebuilding the generated collection cannot fail");
    let index_s = start.elapsed().as_secs_f64();
    assert_eq!(rebuilt.len(), dataset.collection.len());
    drop(rebuilt);
    result.set("datagen.build_s", build_s);
    result.set("geotext.index_build_s", index_s);
}

/// Checks answers against the committed digests.
pub struct Checker {
    reference: inputs::Reference,
    workload: &'static str,
}

impl Checker {
    pub fn load(workload: &'static str) -> Result<Self, String> {
        let text = inputs::reference_text(workload)
            .ok_or_else(|| format!("no answer reference for {workload}"))?;
        Ok(Checker {
            reference: inputs::parse_reference(text)?,
            workload,
        })
    }

    pub fn check(&self, request: &DirectRequest, regions: &[Region]) -> Result<(), String> {
        let got = inputs::digest_regions(regions);
        match self.reference.get(&(request.pool_index, request.mode)) {
            Some(&want) if want == got => Ok(()),
            Some(&want) => Err(format!(
                "{}: pool query {} ({}) answered {got:016x}, reference {want:016x}",
                self.workload,
                request.pool_index,
                request.mode.name()
            )),
            None => Err(format!(
                "{}: no reference digest for pool query {} ({}); regenerate with --write-reference",
                self.workload,
                request.pool_index,
                request.mode.name()
            )),
        }
    }
}

/// Runs one direct workload for `seconds`.
pub fn run(spec: &DirectSpec, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let checker = Checker::load(spec.name)?;
    let mut setup_gauge = Gauge::default();
    let (dataset, setup_times) = set_up(spec, &mut setup_gauge);
    let mut result = RunResult::default();
    if trace {
        time_setup_layers(&dataset, stats::median(&setup_times), &mut result);
    }
    let pool = inputs::query_pool(&dataset, spec.pool_size);
    let requests = inputs::direct_requests(spec, pool.queries.len(), seed);
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let mut workspace = QueryWorkspace::new();
    for request in requests.iter().take(WARMUP_REQUESTS) {
        let outcome = engine
            .execute_with(
                &mut workspace,
                &request
                    .mode
                    .request(&pool.queries[request.pool_index], pool.tgen_alpha),
            )
            .map_err(|e| format!("warm-up request failed: {e}"))?;
        checker.check(request, &outcome.regions)?;
    }
    let window = Duration::from_secs_f64(seconds);
    if trace {
        traced_loop(
            &engine,
            &mut workspace,
            &pool,
            &requests,
            &checker,
            window,
            &mut result,
        )?;
    } else {
        closed_loop(
            &engine,
            &mut workspace,
            &pool,
            &requests,
            &checker,
            window,
            &mut result,
        )?;
        result.set("setup_s", stats::median(&setup_times) * setup_gauge.scale());
        result.set("peak_rss_mib", report::peak_rss_mib()?);
    }
    result.notes.push(format!(
        "setup_s over {} set-ups, unscaled: {:?}; gauge scale {:.4} over {} rounds",
        setup_times.len(),
        setup_times,
        setup_gauge.scale(),
        setup_gauge.rounds()
    ));
    result.notes.push(format!(
        "{} requests per cycle ({} pool queries x {} modes)",
        requests.len(),
        pool.queries.len(),
        spec.modes.len()
    ));
    Ok(result)
}

/// The untraced measurement: send-to-answer latency of every request, with
/// a gauge round between requests every [`crate::gauge::INTERVAL`].  The
/// reported times are scaled by the gauge (see `gauge`); the notes give
/// them unscaled too.
fn closed_loop(
    engine: &LcmsrEngine<'_>,
    workspace: &mut QueryWorkspace,
    pool: &Pool,
    requests: &[DirectRequest],
    checker: &Checker,
    window: Duration,
    result: &mut RunResult,
) -> Result<(), String> {
    let mut latencies_ms = Vec::with_capacity(MIN_SAMPLES * 2);
    let mut failed = 0usize;
    let mut gauge = Gauge::default();
    let start = Instant::now();
    for request in requests.iter().cycle() {
        if start.elapsed() >= window && latencies_ms.len() + failed >= MIN_SAMPLES {
            break;
        }
        let engine_request = request
            .mode
            .request(&pool.queries[request.pool_index], pool.tgen_alpha);
        let sent = Instant::now();
        let outcome = engine.execute_with(workspace, &engine_request);
        let answered = sent.elapsed();
        match outcome {
            Ok(outcome) if !outcome.is_partial() => {
                checker.check(request, &outcome.regions)?;
                latencies_ms.push(answered.as_secs_f64() * 1e3);
            }
            _ => failed += 1,
        }
        gauge.tick();
    }
    let busy_s = (start.elapsed() - gauge.spent()).as_secs_f64();
    let summary = stats::latency_summary(&latencies_ms, failed);
    let throughput = latencies_ms.len() as f64 / busy_s;
    let scale = gauge.scale();
    result.attempted = (latencies_ms.len() + failed) as u64;
    result.failed = failed as u64;
    result.samples = summary.samples;
    result.set("latency_p50_ms", summary.p50 * scale);
    result.set("latency_p99_ms", summary.p99 * scale);
    result.set("throughput_qps", throughput / scale);
    result.notes.push(format!(
        "unscaled: p50 {:.4} ms, p99 {:.4} ms, {:.2} answers/s; gauge scale {scale:.4} over {} rounds",
        summary.p50,
        summary.p99,
        throughput,
        gauge.rounds()
    ));
    Ok(())
}

/// Per-layer timings and counters of one replayed request.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerSample {
    pub grid_score: Duration,
    pub region_view: Duration,
    pub graph_build: Duration,
    pub solve: Duration,
    pub materialize: Duration,
    pub weighted_nodes: usize,
    pub nodes_in_view: usize,
    pub edges: usize,
    pub tuples_generated: u64,
    pub pruned_pairs: u64,
    pub frontier_tuples: u64,
    pub frontier_peak: u64,
    pub dominance_evictions: u64,
    pub kmst_calls: u64,
    pub greedy_steps: u64,
    pub arena_allocs: u64,
    pub arena_free_list_hits: u64,
}

impl LayerSample {
    /// Sum of the layers' self times.
    pub fn total(&self) -> Duration {
        self.grid_score + self.region_view + self.graph_build + self.solve + self.materialize
    }
}

/// The engine's prepare-and-solve path, one public call per layer, on
/// scratch of its own: `query_vector` + `node_weights_into` (grid score),
/// `RegionView::new_reusing` (`Q.Λ` extraction), `QueryGraphBuilder::build`,
/// the solver, then `Region::from_tuple` per answer.
#[derive(Debug, Default)]
pub struct Replay {
    weights: NodeWeights,
    scratch: RegionScratch,
    builder: QueryGraphBuilder,
    arena: TupleArena,
}

/// Solver counters common to the algorithms' outcome types.
#[derive(Default)]
struct Counters {
    tuples_generated: u64,
    pruned_pairs: u64,
    frontier_tuples: u64,
    frontier_peak: u64,
    dominance_evictions: u64,
    kmst_calls: u64,
    greedy_steps: u64,
}

impl Replay {
    pub fn run(
        &mut self,
        network: &RoadNetwork,
        collection: &ObjectCollection,
        query: &LcmsrQuery,
        mode: Mode,
        tgen_alpha: f64,
    ) -> Result<(Vec<Region>, LayerSample), String> {
        let mut sample = LayerSample::default();

        let t = Instant::now();
        let q = collection.query_vector(&query.keywords);
        collection.node_weights_into(&q, &query.region_of_interest, &mut self.weights);
        sample.grid_score = t.elapsed();
        sample.weighted_nodes = self.weights.relevant_node_count();

        let t = Instant::now();
        let view = RegionView::new_reusing(network, query.region_of_interest, &mut self.scratch);
        sample.region_view = t.elapsed();
        sample.nodes_in_view = view.node_count();

        let algorithm = mode.algorithm(tgen_alpha);
        let alpha = match &algorithm {
            Algorithm::App(p) => p.alpha,
            Algorithm::Tgen(p) => p.alpha,
            // The engine builds Greedy's graph with α = 1 (Greedy reads the
            // unscaled weights).
            Algorithm::Greedy(_) | Algorithm::Exact => 1.0,
        };
        let t = Instant::now();
        let graph = self
            .builder
            .build(&view, &self.weights, query.delta, alpha)
            .map_err(|e| format!("query graph build failed: {e}"));
        view.recycle(&mut self.scratch);
        sample.graph_build = t.elapsed();
        let graph = graph?;
        sample.edges = graph.edge_count();

        self.arena.reset();
        let before = self.arena.stats();
        let ctl = CancelToken::none();
        let mut tracer = TraceCollector::disabled();
        let arena = &mut self.arena;
        let mut c = Counters::default();
        let t = Instant::now();
        let solved: Result<Vec<RegionTuple>, _> = match (&algorithm, mode.k()) {
            (Algorithm::Tgen(p), None) => run_tgen(&graph, arena, p, &ctl, &mut tracer).map(|o| {
                c.tuples_generated = o.tuples_generated;
                c.pruned_pairs = o.pruned_pairs;
                c.frontier_tuples = o.frontier_tuples;
                c.frontier_peak = o.frontier_peak;
                c.dominance_evictions = o.dominance_evictions;
                o.best.into_iter().collect()
            }),
            (Algorithm::App(p), None) => run_app(&graph, arena, p, &ctl, &mut tracer).map(|o| {
                c.kmst_calls = o.kmst_calls;
                c.tuples_generated = o.dp_tuples;
                c.pruned_pairs = o.dp_pruned_pairs;
                c.frontier_tuples = o.frontier_tuples;
                c.frontier_peak = o.frontier_peak;
                c.dominance_evictions = o.dominance_evictions;
                o.best.into_iter().collect()
            }),
            (Algorithm::Greedy(p), None) => {
                run_greedy(&graph, arena, p, &ctl, &mut tracer).map(|o| {
                    c.greedy_steps = o.steps;
                    o.best.into_iter().collect()
                })
            }
            (algorithm, Some(k)) => {
                let outcome = match algorithm {
                    Algorithm::Tgen(p) => topk_tgen(&graph, arena, p, k, &ctl, &mut tracer),
                    Algorithm::App(p) => topk_app(&graph, arena, p, k, &ctl, &mut tracer),
                    Algorithm::Greedy(p) => topk_greedy(&graph, arena, p, k, &ctl, &mut tracer),
                    Algorithm::Exact => unreachable!("no benchmark mode runs Exact"),
                };
                outcome.map(|o| {
                    c.kmst_calls = o.kmst_calls;
                    c.tuples_generated = o.tuples_generated;
                    c.greedy_steps = o.greedy_steps;
                    c.pruned_pairs = o.pruned_pairs;
                    c.frontier_tuples = o.frontier_tuples;
                    c.frontier_peak = o.frontier_peak;
                    c.dominance_evictions = o.dominance_evictions;
                    o.tuples
                })
            }
            (Algorithm::Exact, None) => unreachable!("no benchmark mode runs Exact"),
        };
        sample.solve = t.elapsed();
        let tuples = solved.map_err(|e| format!("solve failed: {e}"))?;
        let after = self.arena.stats();
        sample.arena_allocs = after.allocs - before.allocs;
        sample.arena_free_list_hits = after.free_list_hits - before.free_list_hits;
        sample.tuples_generated = c.tuples_generated;
        sample.pruned_pairs = c.pruned_pairs;
        sample.frontier_tuples = c.frontier_tuples;
        sample.frontier_peak = c.frontier_peak;
        sample.dominance_evictions = c.dominance_evictions;
        sample.kmst_calls = c.kmst_calls;
        sample.greedy_steps = c.greedy_steps;

        let t = Instant::now();
        let regions: Vec<Region> = tuples
            .iter()
            .map(|tuple| Region::from_tuple(&graph, &self.arena, tuple))
            .collect();
        sample.materialize = t.elapsed();
        self.builder.recycle(graph);
        Ok((regions, sample))
    }
}

/// Sums of per-layer quantities over the traced requests.
#[derive(Debug, Default)]
pub struct LayerTotals {
    sums: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
}

impl LayerTotals {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
        *self.counts.entry(name).or_insert(0) += 1;
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Mean per request that went through the layer (0 when none did).
    pub fn mean(&self, name: &str) -> f64 {
        match self.counts.get(name) {
            Some(&n) if n > 0 => self.sum(name) / n as f64,
            _ => 0.0,
        }
    }

    /// Accumulates one replayed request.
    pub fn record(&mut self, mode: Mode, s: &LayerSample) {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        self.add("geotext.grid_score_us", us(s.grid_score));
        self.add("geotext.weighted_nodes", s.weighted_nodes as f64);
        self.add("roadnet.region_view_us", us(s.region_view));
        self.add("roadnet.nodes_in_view", s.nodes_in_view as f64);
        self.add("query_graph.build_us", us(s.graph_build));
        self.add("query_graph.edges", s.edges as f64);
        self.add("region.materialize_us", us(s.materialize));
        self.add("arena.blocks", s.arena_allocs as f64);
        self.add("arena.free_list_hits", s.arena_free_list_hits as f64);
        match mode {
            Mode::Tgen | Mode::TgenTop3 => {
                self.add("tgen.solve_us", us(s.solve));
                self.add("tgen.tuples_generated", s.tuples_generated as f64);
                self.add("tgen.pruned_pairs", s.pruned_pairs as f64);
                self.add("tgen.frontier_tuples", s.frontier_tuples as f64);
            }
            Mode::App | Mode::AppTop3 => {
                self.add("app.solve_us", us(s.solve));
                self.add("app.kmst_calls", s.kmst_calls as f64);
                self.add("app.dp_tuples", s.tuples_generated as f64);
            }
            Mode::Greedy | Mode::GreedyTop3 => {
                self.add("greedy.solve_us", us(s.solve));
                self.add("greedy.steps", s.greedy_steps as f64);
            }
        }
        if !matches!(mode, Mode::Greedy | Mode::GreedyTop3) {
            self.add("tuple_array.frontier_peak", s.frontier_peak as f64);
            self.add(
                "tuple_array.dominance_evictions",
                s.dominance_evictions as f64,
            );
        }
    }

    /// Writes the per-request means and the ratios into `result`.
    pub fn report(&self, result: &mut RunResult) {
        for name in [
            "geotext.grid_score_us",
            "geotext.weighted_nodes",
            "roadnet.region_view_us",
            "roadnet.nodes_in_view",
            "query_graph.build_us",
            "query_graph.edges",
            "region.materialize_us",
            "arena.blocks",
            "tgen.solve_us",
            "tgen.tuples_generated",
            "tgen.pruned_pairs",
            "app.solve_us",
            "app.kmst_calls",
            "app.dp_tuples",
            "greedy.solve_us",
            "greedy.steps",
            "tuple_array.frontier_peak",
            "tuple_array.dominance_evictions",
        ] {
            result.set(name, self.mean(name));
        }
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        result.set(
            "tgen.kept_ratio",
            ratio(
                self.sum("tgen.frontier_tuples"),
                self.sum("tgen.tuples_generated"),
            ),
        );
        result.set(
            "arena.recycled_ratio",
            ratio(self.sum("arena.free_list_hits"), self.sum("arena.blocks")),
        );
    }
}

/// Largest share by which the layers' summed self times may miss the
/// end-to-end time of the same requests.
pub const COVERAGE_TOLERANCE: f64 = 0.10;

/// The traced measurement: each request runs once through `execute_with`
/// (timed end to end) and once through [`Replay`] (timed per layer); the two
/// answers must be bit-identical.
fn traced_loop(
    engine: &LcmsrEngine<'_>,
    workspace: &mut QueryWorkspace,
    pool: &Pool,
    requests: &[DirectRequest],
    checker: &Checker,
    window: Duration,
    result: &mut RunResult,
) -> Result<(), String> {
    let mut replay = Replay::default();
    let mut totals = LayerTotals::default();
    let (mut untraced, mut traced, mut layers) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut done = 0usize;
    let start = Instant::now();
    for request in requests.iter().cycle() {
        if start.elapsed() >= window && done >= requests.len().min(MIN_SAMPLES) {
            break;
        }
        let query = &pool.queries[request.pool_index];
        let sent = Instant::now();
        let outcome = engine
            .execute_with(workspace, &request.mode.request(query, pool.tgen_alpha))
            .map_err(|e| format!("request failed: {e}"))?;
        untraced += sent.elapsed();
        checker.check(request, &outcome.regions)?;
        let replay_start = Instant::now();
        let (regions, sample) = replay.run(
            engine.network(),
            engine.collection(),
            query,
            request.mode,
            pool.tgen_alpha,
        )?;
        traced += replay_start.elapsed();
        if inputs::digest_regions(&regions) != inputs::digest_regions(&outcome.regions) {
            return Err(format!(
                "layer replay of pool query {} ({}) differs from execute_with",
                request.pool_index,
                request.mode.name()
            ));
        }
        totals.record(request.mode, &sample);
        layers += sample.total();
        done += 1;
    }
    totals.report(result);
    let coverage = layers.as_secs_f64() / untraced.as_secs_f64();
    result.set("trace.coverage_ratio", coverage);
    result.set(
        "trace.overhead_ratio",
        traced.as_secs_f64() / untraced.as_secs_f64(),
    );
    result.attempted = done as u64;
    result.samples = done;
    if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
        return Err(format!(
            "layer self times sum to {coverage:.3} of the end-to-end time (tolerance {COVERAGE_TOLERANCE})"
        ));
    }
    Ok(())
}

/// Recomputes the committed answer digests of a direct workload's whole
/// query pool and writes them to `reference/<workload>.txt`.
pub fn write_reference(workload: &str) -> Result<(), String> {
    let spec = match workload {
        "solve_tiny" => &inputs::SOLVE_TINY,
        "prepare_large" => &inputs::PREPARE_LARGE,
        other => return Err(format!("no answer reference for workload '{other}'")),
    };
    let dataset = Dataset::build(inputs::dataset_config(spec.scale));
    let pool = inputs::query_pool(&dataset, spec.pool_size);
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let mut text = format!(
        "# Answer digests of {workload}: <pool query> <mode> <FNV-1a of the regions' bits>.\n\
         # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --write-reference {workload}\n"
    );
    for (index, query) in pool.queries.iter().enumerate() {
        for &mode in spec.modes {
            let outcome = engine
                .execute(&mode.request(query, pool.tgen_alpha))
                .map_err(|e| format!("pool query {index} ({}) failed: {e}", mode.name()))?;
            if outcome.is_partial() {
                return Err(format!("pool query {index} ({}) ran partial", mode.name()));
            }
            let digest = inputs::digest_regions(&outcome.regions);
            text.push_str(&format!("{index} {} {digest:016x}\n", mode.name()));
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}.txt"));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "wrote {} ({} pool queries)",
        path.display(),
        pool.queries.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcmsr_datagen::NetworkScale;

    const ALL_MODES: [Mode; 6] = [
        Mode::Tgen,
        Mode::TgenTop3,
        Mode::App,
        Mode::AppTop3,
        Mode::Greedy,
        Mode::GreedyTop3,
    ];

    /// Serialises the tests that time things, so they do not share the CPUs.
    static TIMING: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tiny() -> (Dataset, Pool) {
        let dataset = Dataset::build(inputs::dataset_config(NetworkScale::Tiny));
        let pool = inputs::query_pool(&dataset, 12);
        (dataset, pool)
    }

    /// The layer replay answers exactly what `execute_with` answers, in
    /// every mode the workloads use.
    #[test]
    fn replay_is_bit_identical_to_execute_with() {
        let _serial = TIMING
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (dataset, pool) = tiny();
        let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
        let mut workspace = QueryWorkspace::new();
        let mut replay = Replay::default();
        for query in &pool.queries {
            for mode in ALL_MODES {
                let outcome = engine
                    .execute_with(&mut workspace, &mode.request(query, pool.tgen_alpha))
                    .expect("query runs");
                let (regions, _) = replay
                    .run(
                        &dataset.network,
                        &dataset.collection,
                        query,
                        mode,
                        pool.tgen_alpha,
                    )
                    .expect("replay runs");
                assert_eq!(
                    inputs::digest_regions(&regions),
                    inputs::digest_regions(&outcome.regions),
                    "{query:?} in {}",
                    mode.name()
                );
            }
        }
    }

    /// Each `solve_tiny` request's layer self times add up to within
    /// [`COVERAGE_TOLERANCE`] of its end-to-end time.  Both sides take the
    /// fastest of several interleaved repeats, and a request is re-measured
    /// up to four times, so a slow phase of a shared machine does not
    /// decide.  (Greedy on the tiny network answers in ~20 µs, where the
    /// engine's fixed bookkeeping alone is 10%; no workload runs it there.)
    #[test]
    fn layer_self_times_add_up_to_each_request() {
        let _serial = TIMING
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (dataset, pool) = tiny();
        let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
        let mut workspace = QueryWorkspace::new();
        let mut replay = Replay::default();
        for query in pool.queries.iter().take(6) {
            for &mode in inputs::SOLVE_TINY.modes {
                let request = mode.request(query, pool.tgen_alpha);
                let mut measure = || {
                    let (mut e2e, mut layers) = (Duration::MAX, Duration::MAX);
                    for _ in 0..15 {
                        let t = Instant::now();
                        black_box(engine.execute_with(&mut workspace, &request).expect("runs"));
                        e2e = e2e.min(t.elapsed());
                        let (_, sample) = replay
                            .run(
                                &dataset.network,
                                &dataset.collection,
                                query,
                                mode,
                                pool.tgen_alpha,
                            )
                            .expect("replay runs");
                        layers = layers.min(sample.total());
                    }
                    (layers, e2e)
                };
                let within = |(layers, e2e): (Duration, Duration)| {
                    (layers.as_secs_f64() / e2e.as_secs_f64() - 1.0).abs() <= COVERAGE_TOLERANCE
                };
                let mut verdict = measure();
                for _ in 0..4 {
                    if within(verdict) {
                        break;
                    }
                    verdict = measure();
                }
                assert!(
                    within(verdict),
                    "{} on {query:?}: layers {:?} vs end to end {:?}",
                    mode.name(),
                    verdict.0,
                    verdict.1
                );
            }
        }
    }

    #[test]
    fn committed_references_cover_the_direct_pools() {
        for spec in [&inputs::SOLVE_TINY, &inputs::PREPARE_LARGE] {
            let text = inputs::reference_text(spec.name).expect("reference exists");
            let parsed = inputs::parse_reference(text).expect("reference parses");
            assert_eq!(
                parsed.len(),
                spec.pool_size * spec.modes.len(),
                "{}",
                spec.name
            );
        }
    }
}
