//! [`LcmsrEngine`]: end-to-end query execution.
//!
//! The engine binds a road network and an indexed object collection, turns an
//! [`LcmsrQuery`] into a scaled [`QueryGraph`] (keyword scoring via the grid
//! index and vector-space model, restriction to `Q.Λ`, weight scaling), runs
//! the requested algorithm, and converts the winning tuple back into a global
//! [`Region`].
//!
//! Requests are described by a [`QueryRequest`] — query, algorithm with its
//! parameters, and [`QueryOptions`] (top-k, deadline, tracing, cache) — and
//! answered by [`LcmsrEngine::execute`] with a [`QueryOutcome`].  A request
//! with a [`crate::cancel::Deadline`] runs as an *anytime query*: the solvers
//! poll a [`crate::cancel::CancelToken`] holding the deadline at their loop
//! boundaries and, once it has passed, return the best feasible region found
//! so far with `partial: true` in [`RunStats`] instead of running to
//! completion.
//!
//! Interactive exploration produces many successive queries over the same
//! network, so each query runs on a [`QueryWorkspace`] whose scratch buffers
//! (region extraction, keyword scoring, CSR query-graph construction) are
//! recycled from query to query, and steady-state per-query preparation
//! allocates near-zero.  The engine is `Sync`: concurrent callers (the
//! service's connection threads, or any scoped threads) each check a
//! workspace out of the engine's [`WorkspacePool`], and every answer is
//! identical to a sequential [`LcmsrEngine::execute`] call.

use crate::app::{run_app, AppParams};
use crate::arena::TupleArena;
use crate::cache::{CacheLookup, ResponseCache};
use crate::cancel::{CancelToken, Deadline};
use crate::error::Result;
use crate::exact::ExactSolver;
use crate::greedy::{run_greedy, GreedyParams};
use crate::maxrs::{max_range_sum, MaxRsResult};
use crate::query::LcmsrQuery;
use crate::query_graph::{QueryGraph, QueryGraphBuilder};
use crate::region::{Region, RegionTuple};
use crate::stats::{PartialCause, RunStats};
use crate::tgen::{run_tgen, TgenParams};
use crate::topk::{topk_app, topk_greedy, topk_tgen};
use crate::trace::{QueryTrace, TraceCollector};
use lcmsr_geotext::collection::{NodeWeights, ObjectCollection};
use lcmsr_geotext::object::ObjectId;
use lcmsr_roadnet::graph::RoadNetwork;
use lcmsr_roadnet::node::NodeId;
use lcmsr_roadnet::subgraph::{RegionScratch, RegionView};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::time::Duration;

/// Which LCMSR algorithm to run, with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Algorithm {
    /// The (5+ε)-approximation algorithm of Section 4.
    App(AppParams),
    /// The tuple-generation heuristic of Section 5.
    Tgen(TgenParams),
    /// The greedy expansion of Section 6.1.
    Greedy(GreedyParams),
    /// Exhaustive enumeration (small query regions only).
    Exact,
}

impl Algorithm {
    /// Display name of the algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::App(_) => "APP",
            Algorithm::Tgen(_) => "TGEN",
            Algorithm::Greedy(_) => "Greedy",
            Algorithm::Exact => "Exact",
        }
    }

    /// The scaling parameter α the algorithm wants the query graph built with.
    fn alpha(&self) -> f64 {
        match self {
            Algorithm::App(p) => p.alpha,
            Algorithm::Tgen(p) => p.alpha,
            // Greedy works on the original weights; any valid α will do.
            Algorithm::Greedy(_) => 1.0,
            // Exact's top-k path ranks by the shared quality order, whose
            // primary key is the scaled weight.  A very fine θ (= α·σ_max/|V_Q|)
            // keeps that order faithful to the true weights — with α = 1.0 the
            // floor quantisation could rank a lighter region above the true
            // optimum (e.g. weights {0.3} vs {0.16, 0.16} under θ = 0.1).
            Algorithm::Exact => 1e-6,
        }
    }
}

/// Per-request execution options carried by a [`QueryRequest`].
///
/// The `Default` options reproduce the classic single-region run exactly: no
/// top-k and no deadline, so the solvers poll the inert token and the solve
/// path is bit-identical to one without anytime support.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// `Some(k)` answers the request as a top-k query (up to `k` best
    /// distinct regions); `None` returns the single best region.
    pub k: Option<usize>,
    /// Wall-clock budget for the whole request.  When it expires mid-solve
    /// the engine returns the best feasible region found so far and marks the
    /// stats `partial: true` with a `deadline_exceeded` cause.
    pub deadline: Option<Deadline>,
    /// Records a structured span trace of the run.  `false` (the default)
    /// keeps the collector inert — solver hot loops see one predicted branch,
    /// exactly like the inert [`CancelToken`] — and the outcome carries no
    /// trace.  `true` fills [`QueryOutcome::trace`] with the span tree.
    pub trace: bool,
    /// Runs the request in cache mode: the engine consults its response
    /// cache before solving and stores complete results afterwards.  `false`
    /// (the default) leaves the cache untouched.  Either way the request is
    /// prepared and solved by the same cold path, so the response is
    /// bit-identical to a cacheless engine's; serving front-ends default
    /// this on for interactive-lane traffic.
    pub cache: bool,
}

/// A self-describing query request: the query, the algorithm with its
/// parameters, and the execution options.
///
/// ```ignore
/// let request = QueryRequest::new(&query, Algorithm::Exact)
///     .top_k(3)
///     .deadline_in(Duration::from_millis(50));
/// let outcome = engine.execute(&request)?;
/// ```
#[derive(Debug, Clone)]
pub struct QueryRequest<'q> {
    /// The LCMSR query to answer.
    pub query: &'q LcmsrQuery,
    /// The algorithm with its parameters.
    pub algorithm: Algorithm,
    /// Execution options.
    pub options: QueryOptions,
}

impl<'q> QueryRequest<'q> {
    /// A request with default options: single best region, no deadline.
    pub fn new(query: &'q LcmsrQuery, algorithm: Algorithm) -> Self {
        QueryRequest {
            query,
            algorithm,
            options: QueryOptions::default(),
        }
    }

    /// Answers as a top-k query returning up to `k` distinct regions.
    pub fn top_k(mut self, k: usize) -> Self {
        self.options.k = Some(k);
        self
    }

    /// Runs under `deadline` (stamped where the request entered the system).
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.options.deadline = Some(deadline);
        self
    }

    /// Runs under a deadline `budget` from now.
    pub fn deadline_in(mut self, budget: Duration) -> Self {
        self.options.deadline = Some(Deadline::after(budget));
        self
    }

    /// Enables (or disables) structured span tracing for this request (see
    /// [`QueryOptions::trace`]).
    pub fn trace(mut self, trace: bool) -> Self {
        self.options.trace = trace;
        self
    }

    /// Enables (or disables) cache mode for this request (see
    /// [`QueryOptions::cache`]).
    pub fn cache(mut self, cache: bool) -> Self {
        self.options.cache = cache;
        self
    }
}

/// Result of [`LcmsrEngine::execute`]: the best regions found (at most one
/// for a single-region request, up to `k` for top-k), best first, plus the
/// run statistics.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Best-first feasible regions; empty when no object matches.
    pub regions: Vec<Region>,
    /// Execution statistics, including the partial/deadline marks.
    pub stats: RunStats,
    /// The structured span trace of the run; `Some` only when the request
    /// asked for one ([`QueryOptions::trace`]).
    pub trace: Option<QueryTrace>,
}

impl QueryOutcome {
    /// The best region, if any.
    pub fn best(&self) -> Option<&Region> {
        self.regions.first()
    }

    /// Whether the run stopped early and `regions` holds best-so-far
    /// incumbents (see [`RunStats::partial`]).
    pub fn is_partial(&self) -> bool {
        self.stats.partial
    }
}

/// Result of the MaxRS baseline plus the measures needed by the Section 7.5
/// comparison procedure.
#[derive(Debug, Clone)]
pub struct MaxRsRegion {
    /// The raw sweep result (centre, weight, covered object indices).
    pub result: MaxRsResult,
    /// Objects covered by the optimal rectangle.
    pub objects: Vec<ObjectId>,
    /// Road-network nodes hosting the covered objects.
    pub nodes: Vec<NodeId>,
    /// Total relevance weight of the covered objects.
    pub weight: f64,
    /// Minimum total road length connecting the covered objects' nodes inside
    /// `Q.Λ` (a shortest-path-metric spanning-tree length); used as the LCMSR
    /// `Q.∆` in the paper's comparison.  `None` when fewer than two nodes are
    /// covered or they are disconnected inside `Q.Λ`.
    pub connecting_length: Option<f64>,
    /// Whether the covered nodes are connected inside `Q.Λ` by road segments.
    pub connected_in_network: bool,
}

/// Per-worker reusable state for answering a stream of queries.
///
/// Holds the scratch buffers of every preparation stage — `Q.Λ` extraction
/// ([`RegionScratch`]), keyword scoring ([`NodeWeights`]) and query-graph
/// construction ([`QueryGraphBuilder`]) — plus the solve phase's
/// [`TupleArena`], so repeated [`LcmsrEngine::execute_with`] calls over the
/// same network allocate near-zero.  A caller answering a stream of
/// requests on one thread can own a workspace; [`LcmsrEngine::execute`]
/// checks one out of the engine's [`WorkspacePool`] per call.  A workspace
/// carries only scratch from one request to the next: every request is
/// scored and prepared cold, so which workspace answers it never matters.
#[derive(Debug, Clone, Default)]
pub struct QueryWorkspace {
    builder: QueryGraphBuilder,
    region: RegionScratch,
    weights: NodeWeights,
    arena: TupleArena,
    /// Timing split of the most recent `prepare_with` call on this workspace.
    prepare_breakdown: PrepareBreakdown,
    /// Per-query span collector, re-armed (or left inert) by `execute_with`
    /// from [`QueryOptions::trace`].  Pooled with the workspace so an enabled
    /// run reuses the span buffers grown by earlier traced queries.
    tracer: TraceCollector,
}

/// Component timings of one prepare phase, copied into
/// [`RunStats::grid_score_time`] / [`RunStats::graph_build_time`] by the
/// execute paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrepareBreakdown {
    /// Keyword scoring against the grid index.
    pub grid_score_time: Duration,
    /// `Q.Λ` extraction plus scaled query-graph construction.
    pub graph_build_time: Duration,
}

impl QueryWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The workspace's tuple arena (diagnostics/benchmarks).
    pub fn arena(&self) -> &TupleArena {
        &self.arena
    }

    /// Timing split of the most recent prepare phase run on this workspace.
    pub fn prepare_breakdown(&self) -> PrepareBreakdown {
        self.prepare_breakdown
    }

    /// Size of the region scratch's membership table after the last prepare —
    /// proportional to the touched node-id band, not the network
    /// (diagnostics/benchmarks).
    pub fn member_table_len(&self) -> usize {
        self.region.member_table_len()
    }
}

/// A lock-guarded stack of idle [`QueryWorkspace`]s owned by the engine.
///
/// [`LcmsrEngine::execute`] checks a workspace out and returns it afterwards,
/// so successive calls — from one thread or many — reuse the grown scratch
/// buffers, query-graph pools and tuple arenas instead of rebuilding them per
/// call.
///
/// Idle growth is capped at [`WorkspacePool::max_idle`] workspaces, the
/// available hardware parallelism: a burst of concurrent calls can
/// momentarily check out more workspaces than that, but `recycle` drops the
/// excess instead of pinning their grown buffers forever.  Anything above
/// the cap could never be handed out concurrently again without the same
/// burst recurring, so the cap trades a re-warm on the next burst for a
/// bounded steady-state footprint.
#[derive(Debug)]
pub struct WorkspacePool {
    idle: Mutex<Vec<QueryWorkspace>>,
    max_idle: usize,
}

impl Default for WorkspacePool {
    fn default() -> Self {
        WorkspacePool {
            idle: Mutex::new(Vec::new()),
            max_idle: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }
}

impl WorkspacePool {
    /// Creates an empty pool with `max_idle` = available parallelism (1 when
    /// it cannot be determined).
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes an idle workspace, or creates a fresh one when none is pooled.
    pub fn checkout(&self) -> QueryWorkspace {
        self.idle
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a workspace to the pool for the next checkout, unless the pool
    /// already holds [`WorkspacePool::max_idle`] idle workspaces — then the
    /// workspace (and its grown buffers) is dropped instead.
    pub fn recycle(&self, workspace: QueryWorkspace) {
        let mut idle = self.idle.lock().expect("workspace pool poisoned");
        if idle.len() < self.max_idle {
            idle.push(workspace);
        }
    }

    /// Number of idle pooled workspaces (diagnostics/tests).
    pub fn idle_count(&self) -> usize {
        self.idle.lock().expect("workspace pool poisoned").len()
    }

    /// The cap on idle pooled workspaces.
    pub fn max_idle(&self) -> usize {
        self.max_idle
    }
}

/// The LCMSR query-processing engine.
///
/// The engine is `Send + Sync`: one instance can be shared across threads
/// (`Arc<LcmsrEngine>`, `&'static LcmsrEngine`, or scoped borrows) by a
/// serving front-end whose scheduler and handler threads run queries
/// concurrently.  All interior mutability is confined to the
/// [`WorkspacePool`]'s and [`ResponseCache`]'s mutexes and the epoch
/// counter; the network and collection are only read.  A compile-time
/// audit lives in this module's tests (`engine_is_send_and_sync`).
#[derive(Debug)]
pub struct LcmsrEngine<'a> {
    network: &'a RoadNetwork,
    collection: &'a ObjectCollection,
    pool: WorkspacePool,
    /// Completed responses keyed by canonical request fingerprints, consulted
    /// by cache-mode requests ([`QueryOptions::cache`]).
    cache: ResponseCache,
    /// The dataset epoch stamped into cache fingerprints.  Bumping it
    /// ([`LcmsrEngine::bump_dataset_epoch`]) marks every cached response
    /// stale; nothing else reads it.
    epoch: AtomicU64,
}

impl<'a> LcmsrEngine<'a> {
    /// Creates an engine over a network and its object collection.
    pub fn new(network: &'a RoadNetwork, collection: &'a ObjectCollection) -> Self {
        LcmsrEngine {
            network,
            collection,
            pool: WorkspacePool::new(),
            cache: ResponseCache::new(),
            epoch: AtomicU64::new(0),
        }
    }

    /// The engine's response cache (counters, bounds, diagnostics).
    pub fn response_cache(&self) -> &ResponseCache {
        &self.cache
    }

    /// The current dataset epoch stamped into cache fingerprints.
    pub fn dataset_epoch(&self) -> u64 {
        self.epoch.load(AtomicOrdering::Relaxed)
    }

    /// Declares the underlying dataset changed: bumps the epoch so every
    /// cached response becomes stale (lazy invalidation — entries are
    /// evicted as they are next looked up).  Returns the new epoch.
    pub fn bump_dataset_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, AtomicOrdering::Relaxed) + 1
    }

    /// Replaces the response cache's bounds (builder style) — for embedders
    /// sizing the cache to their session fan-out, and for tests driving the
    /// eviction path without hundreds of fill queries.
    pub fn with_cache_limits(mut self, max_entries: usize, max_bytes: usize) -> Self {
        self.cache = ResponseCache::with_limits(max_entries, max_bytes);
        self
    }

    /// The engine's workspace pool (diagnostics/tests).
    pub fn workspace_pool(&self) -> &WorkspacePool {
        &self.pool
    }

    /// The underlying road network.
    pub fn network(&self) -> &'a RoadNetwork {
        self.network
    }

    /// The underlying object collection.
    pub fn collection(&self) -> &'a ObjectCollection {
        self.collection
    }

    /// Builds the scaled query graph for a query with the given α.
    pub fn prepare(&self, query: &LcmsrQuery, alpha: f64) -> Result<QueryGraph> {
        let mut workspace = self.pool.checkout();
        let result = self.prepare_with(&mut workspace, query, alpha);
        self.pool.recycle(workspace);
        result
    }

    /// Like [`LcmsrEngine::prepare`], but reuses the scratch buffers of a
    /// caller-owned [`QueryWorkspace`].  Return the graph to the workspace
    /// with [`LcmsrEngine::release`] once the algorithm is done with it.
    pub fn prepare_with(
        &self,
        workspace: &mut QueryWorkspace,
        query: &LcmsrQuery,
        alpha: f64,
    ) -> Result<QueryGraph> {
        query.validate()?;
        let prepare_span = workspace.tracer.start("prepare");
        let score_span = workspace.tracer.start("grid_score");
        let score_start = crate::cancel::now();
        let q = self.collection.query_vector(&query.keywords);
        self.collection
            .node_weights_into(&q, &query.region_of_interest, &mut workspace.weights);
        let grid_score_time = score_start.elapsed();
        workspace.tracer.end(score_span);
        let build_span = workspace.tracer.start("graph_build");
        let build_start = crate::cancel::now();
        let view = RegionView::new_reusing(
            self.network,
            query.region_of_interest,
            &mut workspace.region,
        );
        let graph = workspace
            .builder
            .build(&view, &workspace.weights, query.delta, alpha);
        view.recycle(&mut workspace.region);
        workspace.prepare_breakdown = PrepareBreakdown {
            grid_score_time,
            graph_build_time: build_start.elapsed(),
        };
        workspace.tracer.end(build_span);
        if let Ok(g) = &graph {
            workspace.tracer.end_with(
                prepare_span,
                &[
                    ("nodes", g.node_count() as u64),
                    ("edges", g.edge_count() as u64),
                ],
            );
        } else {
            workspace.tracer.end(prepare_span);
        }
        graph
    }

    /// Returns a spent query graph's allocations to `workspace` so the next
    /// [`LcmsrEngine::prepare_with`] call can reuse them.
    pub fn release(&self, workspace: &mut QueryWorkspace, graph: QueryGraph) {
        workspace.builder.recycle(graph);
    }

    /// Answers a [`QueryRequest`], using a pooled workspace (successive calls
    /// on the same engine reuse scratch buffers and arenas).
    pub fn execute(&self, request: &QueryRequest<'_>) -> Result<QueryOutcome> {
        let mut workspace = self.pool.checkout();
        let result = self.execute_with(&mut workspace, request);
        self.pool.recycle(workspace);
        result
    }

    /// Like [`LcmsrEngine::execute`], but reuses a caller-owned workspace,
    /// for a sequential stream of requests on one thread.
    pub fn execute_with(
        &self,
        workspace: &mut QueryWorkspace,
        request: &QueryRequest<'_>,
    ) -> Result<QueryOutcome> {
        let start = crate::cancel::now();
        let algorithm = &request.algorithm;
        let options = &request.options;
        let ctl = options.deadline.map_or(CancelToken::none(), |d| d.token());
        workspace.tracer.begin(options.trace);
        let query_span = workspace.tracer.start("query");
        let mut cache_key = None;
        let mut cache_stale = false;
        if options.cache {
            request.query.validate()?;
            let epoch = self.dataset_epoch();
            let lookup_span = workspace.tracer.start("cache_lookup");
            let key = crate::cache::request_key(request);
            let lookup = self.cache.lookup(&key, epoch);
            workspace.tracer.end(lookup_span);
            match lookup {
                CacheLookup::Hit(regions, stats) => {
                    let mut stats = *stats;
                    // The regions are clones of the cold run's — bit-identical
                    // by construction.  The stats keep the cold run's
                    // structural fields but report this run's (near-zero)
                    // timings and deadline.
                    stats.prepare_time = Duration::ZERO;
                    stats.grid_score_time = Duration::ZERO;
                    stats.graph_build_time = Duration::ZERO;
                    stats.solve_time = Duration::ZERO;
                    stats.queue_time = Duration::ZERO;
                    stats.deadline = options.deadline.map(|d| d.budget());
                    stats.cache = true;
                    stats.cache_hit = true;
                    stats.cache_stale = false;
                    workspace.tracer.end(query_span);
                    let trace = workspace.tracer.finish();
                    stats.elapsed = start.elapsed();
                    return Ok(QueryOutcome {
                        regions,
                        stats,
                        trace,
                    });
                }
                CacheLookup::Stale => cache_stale = true,
                CacheLookup::Miss => {}
            }
            cache_key = Some((key, epoch));
        }
        let graph = self.prepare_with(workspace, request.query, algorithm.alpha())?;
        let prepare_time = start.elapsed();
        let mut stats = RunStats::new(algorithm.name());
        stats.prepare_time = prepare_time;
        stats.grid_score_time = workspace.prepare_breakdown.grid_score_time;
        stats.graph_build_time = workspace.prepare_breakdown.graph_build_time;
        stats.cache = options.cache;
        stats.cache_stale = cache_stale;
        stats.deadline = options.deadline.map(|d| d.budget());
        stats.nodes_in_region = graph.node_count();
        stats.edges_in_region = graph.edge_count();
        stats.relevant_nodes = graph.relevant_node_count();
        let solve_start = crate::cancel::now();
        // Epoch-clear the arena: every handle from the previous query dies
        // here, while the slab's capacity carries over.
        workspace.arena.reset();
        let solve_span = workspace.tracer.start("solve");
        let arena = &mut workspace.arena;
        let tracer = &mut workspace.tracer;
        let mut interrupted = false;
        let solved: Result<Vec<RegionTuple>> = (|| match (algorithm, options.k) {
            (Algorithm::App(params), None) => {
                let outcome = run_app(&graph, arena, params, &ctl, tracer)?;
                stats.kmst_calls = outcome.kmst_calls;
                stats.tuples_generated = outcome.dp_tuples;
                stats.pruned_pairs = outcome.dp_pruned_pairs;
                stats.frontier_tuples = outcome.frontier_tuples;
                stats.frontier_peak = outcome.frontier_peak;
                stats.dominance_evictions = outcome.dominance_evictions;
                interrupted = outcome.interrupted;
                Ok(outcome.best.into_iter().collect())
            }
            (Algorithm::Tgen(params), None) => {
                let outcome = run_tgen(&graph, arena, params, &ctl, tracer)?;
                stats.tuples_generated = outcome.tuples_generated;
                stats.pruned_pairs = outcome.pruned_pairs;
                stats.frontier_tuples = outcome.frontier_tuples;
                stats.frontier_peak = outcome.frontier_peak;
                stats.dominance_evictions = outcome.dominance_evictions;
                interrupted = outcome.interrupted;
                Ok(outcome.best.into_iter().collect())
            }
            (Algorithm::Greedy(params), None) => {
                let outcome = run_greedy(&graph, arena, params, &ctl, tracer)?;
                stats.greedy_steps = outcome.steps;
                interrupted = outcome.interrupted;
                Ok(outcome.best.into_iter().collect())
            }
            (Algorithm::Exact, None) => {
                let outcome = ExactSolver::new().solve(&graph, arena, &ctl, tracer)?;
                interrupted = outcome.interrupted;
                Ok(outcome.best.into_iter().collect())
            }
            (Algorithm::App(params), Some(k)) => {
                let outcome = topk_app(&graph, arena, params, k, &ctl, tracer)?;
                stats.kmst_calls = outcome.kmst_calls;
                stats.tuples_generated = outcome.tuples_generated;
                stats.pruned_pairs = outcome.pruned_pairs;
                stats.frontier_tuples = outcome.frontier_tuples;
                stats.frontier_peak = outcome.frontier_peak;
                stats.dominance_evictions = outcome.dominance_evictions;
                interrupted = outcome.interrupted;
                Ok(outcome.tuples)
            }
            (Algorithm::Tgen(params), Some(k)) => {
                let outcome = topk_tgen(&graph, arena, params, k, &ctl, tracer)?;
                stats.tuples_generated = outcome.tuples_generated;
                stats.pruned_pairs = outcome.pruned_pairs;
                stats.frontier_tuples = outcome.frontier_tuples;
                stats.frontier_peak = outcome.frontier_peak;
                stats.dominance_evictions = outcome.dominance_evictions;
                interrupted = outcome.interrupted;
                Ok(outcome.tuples)
            }
            (Algorithm::Greedy(params), Some(k)) => {
                let outcome = topk_greedy(&graph, arena, params, k, &ctl, tracer)?;
                stats.greedy_steps = outcome.greedy_steps;
                interrupted = outcome.interrupted;
                Ok(outcome.tuples)
            }
            (Algorithm::Exact, Some(k)) => {
                let outcome = ExactSolver::new().solve_topk(&graph, arena, k, &ctl, tracer)?;
                stats.tuples_generated = outcome.feasible_enumerated;
                interrupted = outcome.interrupted;
                Ok(outcome.tuples)
            }
        })();
        stats.solve_time = solve_start.elapsed();
        workspace.tracer.end(solve_span);
        // Return the graph to the pool on the error path too, so a failing
        // request (e.g. Exact over an oversized region) does not cost the
        // workspace its pooled allocations.
        let tuples = match solved {
            Ok(tuples) => tuples,
            Err(e) => {
                self.release(workspace, graph);
                workspace.tracer.finish();
                return Err(e);
            }
        };
        // Only the request's deadline arms the token.
        if interrupted {
            stats.mark_partial(PartialCause::DeadlineExceeded);
        }
        let regions: Vec<Region> = tuples
            .iter()
            .map(|t| Region::from_tuple(&graph, &workspace.arena, t))
            .collect();
        self.release(workspace, graph);
        stats.elapsed = start.elapsed();
        workspace.tracer.end(query_span);
        let trace = workspace.tracer.finish();
        // Only complete runs are worth replaying: a partial incumbent would
        // pin a worse-than-cold answer under the fingerprint.
        if let Some((key, epoch)) = cache_key {
            if !stats.partial {
                self.cache.insert(key, epoch, &regions, &stats);
            }
        }
        Ok(QueryOutcome {
            regions,
            stats,
            trace,
        })
    }

    /// Runs the MaxRS baseline over the objects relevant to `query` inside
    /// `Q.Λ`, using a `width` × `height` rectangle (the paper uses 500 m × 500 m),
    /// and derives the measures needed by the Section 7.5 comparison.
    pub fn run_maxrs(
        &self,
        query: &LcmsrQuery,
        width: f64,
        height: f64,
    ) -> Result<Option<MaxRsRegion>> {
        query.validate()?;
        let weights = self
            .collection
            .node_weights_for_keywords(&query.keywords, &query.region_of_interest);
        if weights.by_object().is_empty() {
            return Ok(None);
        }
        // Weighted points of the relevant objects, ascending id.
        let ids: Vec<ObjectId> = weights.by_object().iter().map(|&(id, _)| id).collect();
        let points: Vec<(lcmsr_roadnet::geo::Point, f64)> = weights
            .by_object()
            .iter()
            .map(|&(id, score)| {
                let o = self.collection.object(id).expect("scored object exists");
                (o.point, score)
            })
            .collect();
        let Some(result) = max_range_sum(&points, width, height) else {
            return Ok(None);
        };
        let objects: Vec<ObjectId> = result.covered.iter().map(|&i| ids[i]).collect();
        let mut nodes: Vec<NodeId> = objects
            .iter()
            .filter_map(|&o| self.collection.node_of(o))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        let weight: f64 = objects
            .iter()
            .map(|&o| weights.object_score(o).unwrap_or(0.0))
            .sum();
        let (connecting_length, connected) = self.connecting_length(query, &nodes);
        Ok(Some(MaxRsRegion {
            result,
            objects,
            nodes,
            weight,
            connecting_length,
            connected_in_network: connected,
        }))
    }

    /// Minimum road length connecting `nodes` inside `Q.Λ`: a spanning tree in
    /// the shortest-path metric (a standard 2-approximation of the Steiner tree).
    ///
    /// Each search runs entirely inside the `Q.Λ` [`RegionView`] with arrays
    /// sized `|V_Q|`, so the per-terminal cost is independent of how many
    /// nodes the network has outside the region of interest.
    fn connecting_length(&self, query: &LcmsrQuery, nodes: &[NodeId]) -> (Option<f64>, bool) {
        if nodes.len() < 2 {
            return (if nodes.len() == 1 { Some(0.0) } else { None }, true);
        }
        let view = RegionView::new(self.network, query.region_of_interest);
        let locals: Vec<Option<usize>> = nodes.iter().map(|&n| view.local_index(n)).collect();
        // A terminal outside Q.Λ can never be connected inside it.
        if locals.iter().any(Option::is_none) {
            return (None, false);
        }
        // Shortest-path distances between all pairs of terminal nodes.
        let mut dist = vec![vec![f64::INFINITY; nodes.len()]; nodes.len()];
        for (i, &src) in nodes.iter().enumerate() {
            let sp = view.distances_from(src);
            for (j, local) in locals.iter().enumerate() {
                if let Some(d) = sp.by_local(local.expect("checked above")) {
                    dist[i][j] = d;
                }
            }
        }
        // Prim's MST over the metric closure.
        let n = nodes.len();
        let mut in_tree = vec![false; n];
        let mut best = vec![f64::INFINITY; n];
        best[0] = 0.0;
        let mut total = 0.0;
        for _ in 0..n {
            let Some(v) = (0..n)
                .filter(|&v| !in_tree[v] && best[v].is_finite())
                .min_by(|&a, &b| best[a].partial_cmp(&best[b]).unwrap())
            else {
                return (None, false); // some terminal is unreachable inside Q.Λ
            };
            in_tree[v] = true;
            total += best[v];
            for u in 0..n {
                if !in_tree[u] && dist[v][u] < best[u] {
                    best[u] = dist[v][u];
                }
            }
        }
        (Some(total), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::stats::PartialCause;
    use lcmsr_geotext::object::GeoTextObject;
    use lcmsr_roadnet::builder::GraphBuilder;
    use lcmsr_roadnet::geo::{Point, Rect};

    fn run1(
        engine: &LcmsrEngine<'_>,
        query: &LcmsrQuery,
        algorithm: &Algorithm,
    ) -> Result<QueryOutcome> {
        engine.execute(&QueryRequest::new(query, algorithm.clone()))
    }

    fn run1_with(
        engine: &LcmsrEngine<'_>,
        workspace: &mut QueryWorkspace,
        query: &LcmsrQuery,
        algorithm: &Algorithm,
    ) -> Result<QueryOutcome> {
        engine.execute_with(workspace, &QueryRequest::new(query, algorithm.clone()))
    }

    fn runk(
        engine: &LcmsrEngine<'_>,
        query: &LcmsrQuery,
        algorithm: &Algorithm,
        k: usize,
    ) -> Result<QueryOutcome> {
        engine.execute(&QueryRequest::new(query, algorithm.clone()).top_k(k))
    }

    /// A 6×6 grid network (100 m blocks) with a restaurant cluster in the
    /// south-west corner and a couple of isolated cafes elsewhere.
    fn small_world() -> (RoadNetwork, ObjectCollection) {
        let mut b = GraphBuilder::new();
        let mut ids = Vec::new();
        for y in 0..6 {
            for x in 0..6 {
                ids.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
            }
        }
        for y in 0..6 {
            for x in 0..6 {
                let i = y * 6 + x;
                if x < 5 {
                    b.add_edge(ids[i], ids[i + 1], 100.0).unwrap();
                }
                if y < 5 {
                    b.add_edge(ids[i], ids[i + 6], 100.0).unwrap();
                }
            }
        }
        let network = b.build().unwrap();
        let mut objects = Vec::new();
        let mut oid = 0u64;
        // Restaurant cluster near (0..200, 0..200).
        for &(x, y) in &[
            (10.0, 10.0),
            (110.0, 10.0),
            (10.0, 110.0),
            (110.0, 110.0),
            (210.0, 10.0),
        ] {
            objects.push(GeoTextObject::from_keywords(
                oid,
                Point::new(x, y),
                ["restaurant", "italian"],
            ));
            oid += 1;
        }
        // Scattered cafes.
        for &(x, y) in &[(410.0, 410.0), (510.0, 310.0)] {
            objects.push(GeoTextObject::from_keywords(
                oid,
                Point::new(x, y),
                ["cafe", "coffee"],
            ));
            oid += 1;
        }
        // A couple of noise objects.
        objects.push(GeoTextObject::from_keywords(
            oid,
            Point::new(300.0, 300.0),
            ["museum"],
        ));
        let collection = ObjectCollection::build(&network, objects, 200.0).unwrap();
        (network, collection)
    }

    fn whole_rect(network: &RoadNetwork) -> Rect {
        network.bounding_rect().unwrap().expanded(50.0)
    }

    #[test]
    fn all_algorithms_return_feasible_regions() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let query = LcmsrQuery::new(["restaurant"], 400.0, whole_rect(&network)).unwrap();
        for algorithm in [
            Algorithm::App(AppParams::default()),
            Algorithm::Tgen(TgenParams { alpha: 1.0 }),
            Algorithm::Greedy(GreedyParams::default()),
        ] {
            let result = run1(&engine, &query, &algorithm).unwrap();
            let region = result
                .best()
                .unwrap_or_else(|| panic!("{} found no region", algorithm.name()));
            assert!(region.length <= 400.0 + 1e-9, "{}", algorithm.name());
            assert!(region.weight > 0.0);
            assert_eq!(result.stats.algorithm, algorithm.name());
            assert!(result.stats.nodes_in_region == 36);
        }
    }

    #[test]
    fn tgen_matches_exact_on_small_instance() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        // Restrict Q.Λ to the south-west corner so the exact solver can enumerate.
        let rect = Rect::new(-50.0, -50.0, 250.0, 250.0);
        let query = LcmsrQuery::new(["restaurant"], 300.0, rect).unwrap();
        let exact = run1(&engine, &query, &Algorithm::Exact).unwrap();
        let exact = exact.best().unwrap();
        let tgen = run1(&engine, &query, &Algorithm::Tgen(TgenParams { alpha: 0.1 })).unwrap();
        let tgen = tgen.best().unwrap();
        assert!((tgen.weight - exact.weight).abs() < 1e-9);
        assert!(tgen.length <= 300.0 + 1e-9);
    }

    #[test]
    fn irrelevant_keywords_yield_no_region() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let query = LcmsrQuery::new(["spaceship"], 400.0, whole_rect(&network)).unwrap();
        for algorithm in [
            Algorithm::App(AppParams::default()),
            Algorithm::Tgen(TgenParams::default()),
            Algorithm::Greedy(GreedyParams::default()),
            Algorithm::Exact,
        ] {
            let result = run1(&engine, &query, &algorithm).unwrap();
            assert!(result.best().is_none(), "{}", algorithm.name());
        }
    }

    #[test]
    fn restricting_the_region_of_interest_excludes_outside_objects() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        // Only the north-east part, where no restaurant lies.
        let rect = Rect::new(300.0, 300.0, 560.0, 560.0);
        let query = LcmsrQuery::new(["restaurant"], 400.0, rect).unwrap();
        let result = run1(&engine, &query, &Algorithm::Tgen(TgenParams { alpha: 1.0 })).unwrap();
        assert!(result.best().is_none());
        // Cafes are there, though.
        let query = LcmsrQuery::new(["cafe"], 400.0, rect).unwrap();
        let result = run1(&engine, &query, &Algorithm::Tgen(TgenParams { alpha: 1.0 })).unwrap();
        assert!(result.best().is_some());
    }

    #[test]
    fn topk_returns_ordered_regions() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let query = LcmsrQuery::new(["restaurant", "cafe"], 300.0, whole_rect(&network)).unwrap();
        for algorithm in [
            Algorithm::App(AppParams::default()),
            Algorithm::Tgen(TgenParams { alpha: 1.0 }),
            Algorithm::Greedy(GreedyParams::default()),
        ] {
            let result = runk(&engine, &query, &algorithm, 3).unwrap();
            assert!(!result.regions.is_empty(), "{}", algorithm.name());
            assert!(result.regions.len() <= 3);
            for w in result.regions.windows(2) {
                assert!(w[0].weight >= w[1].weight - 1e-6, "{}", algorithm.name());
            }
            for r in &result.regions {
                assert!(r.length <= 300.0 + 1e-9);
            }
        }
    }

    /// A varied workload over the small world: different keywords, deltas and
    /// rectangles, including queries with no relevant object.
    fn mixed_workload(network: &RoadNetwork) -> Vec<LcmsrQuery> {
        let whole = whole_rect(network);
        let sw = Rect::new(-50.0, -50.0, 250.0, 250.0);
        let ne = Rect::new(300.0, 300.0, 560.0, 560.0);
        let mut queries = Vec::new();
        for delta in [150.0, 300.0, 400.0, 700.0] {
            queries.push(LcmsrQuery::new(["restaurant"], delta, whole).unwrap());
            queries.push(LcmsrQuery::new(["cafe", "coffee"], delta, whole).unwrap());
            queries.push(LcmsrQuery::new(["restaurant", "italian"], delta, sw).unwrap());
            queries.push(LcmsrQuery::new(["cafe"], delta, ne).unwrap());
            queries.push(LcmsrQuery::new(["museum"], delta, whole).unwrap());
            queries.push(LcmsrQuery::new(["spaceship"], delta, whole).unwrap());
            queries.push(LcmsrQuery::new(["restaurant", "cafe"], delta, whole).unwrap());
            queries.push(LcmsrQuery::new(["italian"], delta, sw).unwrap());
        }
        queries
    }

    #[test]
    fn prepare_fills_the_timing_split() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let algorithm = Algorithm::Tgen(TgenParams { alpha: 1.0 });
        for q in &mixed_workload(&network) {
            let out = run1(&engine, q, &algorithm).unwrap();
            assert!(
                out.stats.grid_score_time + out.stats.graph_build_time <= out.stats.prepare_time,
                "split must be contained in prepare_time"
            );
        }
    }

    #[test]
    fn engine_is_send_and_sync() {
        // The serving front-end shares one engine across scheduler and
        // handler threads; this pins the auto-trait audit at compile time.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LcmsrEngine<'static>>();
        assert_send_sync::<WorkspacePool>();
        assert_send_sync::<QueryOutcome>();
        assert_send_sync::<QueryRequest<'static>>();
    }

    #[test]
    fn workspace_pool_growth_is_capped_at_max_idle() {
        let pool = WorkspacePool::new();
        let cap = pool.max_idle();
        // A burst of concurrent checkouts beyond the cap…
        let burst: Vec<QueryWorkspace> = (0..cap + 4).map(|_| pool.checkout()).collect();
        assert_eq!(pool.idle_count(), 0);
        // …recycles down to the cap, not to the burst size.
        for ws in burst {
            pool.recycle(ws);
        }
        assert_eq!(pool.idle_count(), cap, "recycle must drop beyond max_idle");
    }

    #[test]
    fn engine_pool_defaults_to_available_parallelism_cap() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let cap = engine.workspace_pool().max_idle();
        assert_eq!(
            cap,
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        );
        // A burst of one-shot runs through the engine's own pool never pins
        // more than the cap.
        let query = LcmsrQuery::new(["restaurant"], 400.0, whole_rect(&network)).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..cap + 4 {
                scope.spawn(|| {
                    run1(&engine, &query, &Algorithm::Greedy(GreedyParams::default())).unwrap()
                });
            }
        });
        assert!(
            engine.workspace_pool().idle_count() <= cap,
            "burst must not pin workspaces beyond the cap, pooled {}",
            engine.workspace_pool().idle_count()
        );
    }

    #[test]
    fn one_shot_runs_recycle_a_pooled_workspace() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        assert_eq!(engine.workspace_pool().idle_count(), 0);
        let query = LcmsrQuery::new(["restaurant"], 400.0, whole_rect(&network)).unwrap();
        let first = run1(&engine, &query, &Algorithm::Tgen(TgenParams { alpha: 1.0 })).unwrap();
        assert_eq!(
            engine.workspace_pool().idle_count(),
            1,
            "run must return its workspace to the pool"
        );
        // The second run reuses the same workspace (the pool does not grow)
        // and produces the identical region.
        let second = run1(&engine, &query, &Algorithm::Tgen(TgenParams { alpha: 1.0 })).unwrap();
        assert_eq!(engine.workspace_pool().idle_count(), 1);
        assert_eq!(first.regions, second.regions);
        // Top-k runs recycle too.
        let greedy = Algorithm::Greedy(GreedyParams::default());
        let _ = runk(&engine, &query, &greedy, 2).unwrap();
        assert_eq!(engine.workspace_pool().idle_count(), 1);
        // So do four threads sharing the pool, and each of their answers
        // matches a sequential run.
        let queries = mixed_workload(&network);
        let sequential: Vec<Vec<Region>> = queries
            .iter()
            .map(|q| run1(&engine, q, &greedy).unwrap().regions)
            .collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (engine, queries, sequential, greedy) =
                    (&engine, &queries, &sequential, &greedy);
                scope.spawn(move || {
                    for i in (t..queries.len()).step_by(4) {
                        let outcome = run1(engine, &queries[i], greedy).unwrap();
                        assert_eq!(outcome.regions, sequential[i], "query {i}");
                    }
                });
            }
        });
        let pooled = engine.workspace_pool().idle_count();
        assert!(
            (1..=4).contains(&pooled),
            "concurrent callers must recycle their workspaces, pooled {pooled}"
        );
        // A failing query still returns the workspace.
        let mut bad = queries[0].clone();
        bad.delta = -1.0;
        assert!(run1(&engine, &bad, &greedy).is_err());
        assert_eq!(engine.workspace_pool().idle_count(), pooled);
    }

    #[test]
    fn pooled_engine_matches_fresh_workspaces_across_interleaved_algorithms() {
        // Interleave algorithms and queries on one pooled engine: every result
        // must equal a run with a brand-new workspace (fresh arena, fresh
        // builder), i.e. arena recycling must never leak state across queries.
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let queries = mixed_workload(&network);
        let algorithms = [
            Algorithm::Tgen(TgenParams { alpha: 1.0 }),
            Algorithm::App(AppParams::default()),
            Algorithm::Greedy(GreedyParams::default()),
        ];
        for (i, query) in queries.iter().enumerate() {
            let algorithm = &algorithms[i % algorithms.len()];
            let pooled = run1(&engine, query, algorithm).unwrap();
            let fresh = run1_with(&engine, &mut QueryWorkspace::new(), query, algorithm).unwrap();
            assert_eq!(
                pooled.regions,
                fresh.regions,
                "{} query {i}",
                algorithm.name()
            );
        }
    }

    #[test]
    fn workspace_reuse_produces_identical_results() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let queries = mixed_workload(&network);
        let mut workspace = QueryWorkspace::new();
        for algorithm in [
            Algorithm::App(AppParams::default()),
            Algorithm::Tgen(TgenParams { alpha: 1.0 }),
            Algorithm::Greedy(GreedyParams::default()),
        ] {
            for query in &queries {
                let fresh = run1(&engine, query, &algorithm).unwrap();
                let reused = run1_with(&engine, &mut workspace, query, &algorithm).unwrap();
                assert_eq!(fresh.regions, reused.regions, "{}", algorithm.name());
            }
        }
    }

    #[test]
    fn prepare_and_solve_times_are_bounded_by_elapsed() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let query = LcmsrQuery::new(["restaurant"], 400.0, whole_rect(&network)).unwrap();
        for algorithm in [
            Algorithm::App(AppParams::default()),
            Algorithm::Tgen(TgenParams { alpha: 1.0 }),
            Algorithm::Greedy(GreedyParams::default()),
        ] {
            let result = run1(&engine, &query, &algorithm).unwrap();
            let s = &result.stats;
            assert!(
                s.prepare_time + s.solve_time <= s.elapsed,
                "{}: prepare {:?} + solve {:?} > elapsed {:?}",
                algorithm.name(),
                s.prepare_time,
                s.solve_time,
                s.elapsed
            );
            let topk = runk(&engine, &query, &algorithm, 2).unwrap();
            assert!(topk.stats.prepare_time + topk.stats.solve_time <= topk.stats.elapsed);
        }
    }

    #[test]
    fn topk_stats_are_populated_for_every_algorithm() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let query = LcmsrQuery::new(["restaurant", "cafe"], 300.0, whole_rect(&network)).unwrap();
        let app = runk(&engine, &query, &Algorithm::App(AppParams::default()), 3).unwrap();
        assert!(app.stats.kmst_calls > 0, "top-k APP must count kmst calls");
        assert!(app.stats.tuples_generated > 0);
        let tgen = runk(
            &engine,
            &query,
            &Algorithm::Tgen(TgenParams { alpha: 1.0 }),
            3,
        )
        .unwrap();
        assert!(
            tgen.stats.tuples_generated > 0,
            "top-k TGEN must count tuples"
        );
        let greedy = runk(
            &engine,
            &query,
            &Algorithm::Greedy(GreedyParams::default()),
            3,
        )
        .unwrap();
        assert!(
            greedy.stats.greedy_steps > 0,
            "top-k Greedy must count steps"
        );
    }

    #[test]
    fn frontier_counters_reach_run_stats() {
        // The PR 5 counters must flow from the solvers through the engine on
        // both the single and top-k paths, for TGEN and APP alike.
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let query = LcmsrQuery::new(["restaurant", "cafe"], 300.0, whole_rect(&network)).unwrap();
        for algorithm in [
            Algorithm::Tgen(TgenParams { alpha: 1.0 }),
            Algorithm::App(AppParams::default()),
        ] {
            let single = run1(&engine, &query, &algorithm).unwrap().stats;
            // APP skips `findOptTree` (and its arrays) when the candidate
            // tree is already feasible — counters then legitimately stay 0,
            // flagged by tuples_generated being 0 too.
            if single.tuples_generated > 0 {
                assert!(
                    single.frontier_tuples > 0,
                    "{}: frontier_tuples must be counted",
                    algorithm.name()
                );
                assert!(single.frontier_peak > 0, "{}", algorithm.name());
                assert!(
                    single.frontier_peak <= single.frontier_tuples,
                    "{}: peak cannot exceed the total",
                    algorithm.name()
                );
            }
            let tgen_like = matches!(algorithm, Algorithm::Tgen(_));
            if tgen_like {
                assert!(single.frontier_tuples > 0, "TGEN always builds arrays");
            }
            let topk = runk(&engine, &query, &algorithm, 3).unwrap().stats;
            if topk.tuples_generated > 0 {
                assert!(topk.frontier_tuples > 0, "{}", algorithm.name());
            }
        }
        // A tight budget forces the combine loops to prune pairs.
        let tight = LcmsrQuery::new(["restaurant"], 150.0, whole_rect(&network)).unwrap();
        let stats = run1(&engine, &tight, &Algorithm::Tgen(TgenParams { alpha: 1.0 }))
            .unwrap()
            .stats;
        assert!(
            stats.pruned_pairs > 0,
            "a tight ∆ must budget-prune combine pairs, stats: {stats}"
        );
        // Greedy never touches tuple arrays.
        let greedy = run1(&engine, &query, &Algorithm::Greedy(GreedyParams::default()))
            .unwrap()
            .stats;
        assert_eq!(greedy.frontier_tuples, 0);
        assert_eq!(greedy.pruned_pairs, 0);
    }

    #[test]
    fn exact_topk_returns_k_distinct_regions() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        // Restrict Q.Λ so the exact solver can enumerate.
        let rect = Rect::new(-50.0, -50.0, 250.0, 250.0);
        let query = LcmsrQuery::new(["restaurant"], 300.0, rect).unwrap();
        let result = runk(&engine, &query, &Algorithm::Exact, 4).unwrap();
        assert!(
            result.regions.len() >= 2,
            "Exact top-k must return more than one region, got {}",
            result.regions.len()
        );
        assert!(result.regions.len() <= 4);
        assert!(result.stats.tuples_generated > 0);
        for pair in result.regions.windows(2) {
            assert_ne!(pair[0].nodes, pair[1].nodes, "node sets must be distinct");
            assert!(pair[0].scaled_weight >= pair[1].scaled_weight);
        }
        for r in &result.regions {
            assert!(r.length <= 300.0 + 1e-9);
        }
        // The head agrees with the single-region Exact answer's measures.
        let single = run1(&engine, &query, &Algorithm::Exact).unwrap();
        assert!((result.regions[0].weight - single.best().unwrap().weight).abs() < 1e-9);
    }

    #[test]
    fn exact_topk_head_matches_exact_run_under_quantization_adversary() {
        // Weights {0.3} vs {0.16, 0.16}: under the old Exact α = 1.0 the
        // scaling θ = 0.1 floored the pair to 1+1 = 2 < 3, so a top-k request
        // ranked the single 0.3 node above the true optimum (weight 0.32)
        // while a single-region request returned the pair.  The fine Exact α
        // must keep both paths agreeing.
        use crate::exact::ExactSolver;
        use crate::query_graph::QueryGraph;
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::builder::GraphBuilder;
        use lcmsr_roadnet::node::NodeId;

        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(10.0, 0.0));
        let d = b.add_node(Point::new(11.0, 0.0));
        b.add_edge(a, c, 10.0).unwrap();
        b.add_edge(c, d, 1.0).unwrap();
        let network = b.build().unwrap();
        let weights = NodeWeights::from_node_weights([
            (NodeId(0), 0.3),
            (NodeId(1), 0.16),
            (NodeId(2), 0.16),
        ]);
        let view = RegionView::whole(&network);
        let alpha = Algorithm::Exact.alpha();
        let qg = QueryGraph::build(&view, &weights, 5.0, alpha).unwrap();
        let mut arena = TupleArena::new();
        let single = ExactSolver::new()
            .solve(
                &qg,
                &mut arena,
                &CancelToken::none(),
                &mut TraceCollector::disabled(),
            )
            .unwrap()
            .best
            .unwrap();
        assert!(
            (single.weight - 0.32).abs() < 1e-12,
            "true optimum is the pair"
        );
        let top = ExactSolver::new()
            .solve_topk(
                &qg,
                &mut arena,
                1,
                &CancelToken::none(),
                &mut TraceCollector::disabled(),
            )
            .unwrap();
        assert!(
            top.tuples[0].same_nodes(&single, &arena),
            "top-1 Exact must return the same region as single-region Exact"
        );
    }

    #[test]
    fn connecting_length_cost_is_independent_of_outside_nodes() {
        // The same objects and Q.Λ over the plain small world and over a
        // network with a 2000-node appendage far outside the rectangle: the
        // MaxRS comparison measures must be identical (and the per-terminal
        // searches never touch the appendage).
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let rect = Rect::new(-50.0, -50.0, 560.0, 560.0);
        let query = LcmsrQuery::new(["restaurant"], 400.0, rect).unwrap();
        let small = engine.run_maxrs(&query, 250.0, 250.0).unwrap().unwrap();

        let mut b = GraphBuilder::new();
        let mut ids = Vec::new();
        for y in 0..6 {
            for x in 0..6 {
                ids.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
            }
        }
        for y in 0..6 {
            for x in 0..6 {
                let i = y * 6 + x;
                if x < 5 {
                    b.add_edge(ids[i], ids[i + 1], 100.0).unwrap();
                }
                if y < 5 {
                    b.add_edge(ids[i], ids[i + 6], 100.0).unwrap();
                }
            }
        }
        let mut prev = ids[35];
        for k in 0..2000 {
            let n = b.add_node(Point::new(1000.0 + k as f64, 1000.0));
            b.add_edge(prev, n, 1.0).unwrap();
            prev = n;
        }
        let big_network = b.build().unwrap();
        let objects = collection.objects().to_vec();
        let big_collection = ObjectCollection::build(&big_network, objects, 200.0).unwrap();
        let big_engine = LcmsrEngine::new(&big_network, &big_collection);
        let big = big_engine.run_maxrs(&query, 250.0, 250.0).unwrap().unwrap();

        assert_eq!(small.nodes, big.nodes);
        assert_eq!(small.connecting_length, big.connecting_length);
        assert_eq!(small.connected_in_network, big.connected_in_network);
        // The search itself is bounded by the view: terminals settle at most
        // |V_Q| nodes even on the 2036-node network.
        let view = RegionView::new(&big_network, rect);
        assert_eq!(view.node_count(), 36, "appendage lies outside Q.Λ");
        for &n in &big.nodes {
            let sp = view.distances_from(n);
            assert!(sp.settled() <= view.node_count());
            assert_eq!(sp.len(), 36, "arrays sized to |V_Q|, not |V|");
        }
    }

    #[test]
    fn maxrs_baseline_finds_the_restaurant_cluster() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let query = LcmsrQuery::new(["restaurant"], 400.0, whole_rect(&network)).unwrap();
        let maxrs = engine.run_maxrs(&query, 250.0, 250.0).unwrap().unwrap();
        assert!(maxrs.objects.len() >= 4, "covered {:?}", maxrs.objects);
        assert!(maxrs.weight > 0.0);
        assert!(maxrs.connecting_length.is_some());
        assert!(maxrs.connected_in_network);
        // No relevant object → None.
        let query = LcmsrQuery::new(["spaceship"], 400.0, whole_rect(&network)).unwrap();
        assert!(engine.run_maxrs(&query, 250.0, 250.0).unwrap().is_none());
    }

    #[test]
    fn lcmsr_beats_or_matches_maxrs_under_the_section_75_procedure() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let query = LcmsrQuery::new(["restaurant"], 400.0, whole_rect(&network)).unwrap();
        let maxrs = engine.run_maxrs(&query, 250.0, 250.0).unwrap().unwrap();
        let delta = maxrs.connecting_length.unwrap().max(100.0);
        let lcmsr_query = LcmsrQuery::new(["restaurant"], delta, whole_rect(&network)).unwrap();
        let lcmsr = run1(
            &engine,
            &lcmsr_query,
            &Algorithm::Tgen(TgenParams { alpha: 0.5 }),
        )
        .unwrap();
        // Under the same connectivity budget the network-aware region should
        // gather at least as much weight as the rectangle's connected content.
        assert!(lcmsr.best().unwrap().weight + 1e-9 >= maxrs.weight * 0.9);
    }

    #[test]
    fn expired_deadline_returns_partial_incumbent_for_exact() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        // 3×3 corner of the grid: 9 nodes, 511 subset masks, so enumeration
        // passes the poll stride (256) and the expired deadline fires with an
        // incumbent already in hand.
        let rect = Rect::new(-50.0, -50.0, 250.0, 250.0);
        let query = LcmsrQuery::new(["restaurant"], 300.0, rect).unwrap();
        let request =
            QueryRequest::new(&query, Algorithm::Exact).deadline(Deadline::after(Duration::ZERO));
        let partial = engine.execute(&request).unwrap();
        assert!(partial.is_partial());
        assert_eq!(
            partial.stats.partial_cause,
            Some(PartialCause::DeadlineExceeded)
        );
        assert_eq!(partial.stats.deadline, Some(Duration::ZERO));
        let incumbent = partial.best().expect("best-so-far incumbent");
        assert!(incumbent.length <= 300.0 + 1e-9);
        // Without a deadline the same query completes and is at least as good.
        let full = engine
            .execute(&QueryRequest::new(&query, Algorithm::Exact))
            .unwrap();
        assert!(!full.is_partial());
        assert_eq!(full.stats.partial_cause, None);
        assert!(full.best().unwrap().weight + 1e-9 >= incumbent.weight);
        // Greedy seeds its best before the expansion loop, so it still
        // returns a region when the deadline fires at its first poll.
        let whole = LcmsrQuery::new(["restaurant"], 400.0, whole_rect(&network)).unwrap();
        let greedy = engine
            .execute(
                &QueryRequest::new(&whole, Algorithm::Greedy(GreedyParams::default()))
                    .deadline(Deadline::after(Duration::ZERO)),
            )
            .unwrap();
        assert!(greedy.is_partial());
        assert!(greedy.best().is_some());
    }

    #[test]
    fn unarmed_requests_never_report_partial() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let query = LcmsrQuery::new(["restaurant"], 400.0, whole_rect(&network)).unwrap();
        for algorithm in [
            Algorithm::App(AppParams::default()),
            Algorithm::Tgen(TgenParams { alpha: 0.5 }),
            Algorithm::Greedy(GreedyParams::default()),
        ] {
            let outcome = engine
                .execute(&QueryRequest::new(&query, algorithm))
                .unwrap();
            assert!(!outcome.is_partial());
            assert_eq!(outcome.stats.partial_cause, None);
        }
        // Exact needs a sub-node-limit window.
        let corner = Rect::new(-50.0, -50.0, 250.0, 250.0);
        let small = LcmsrQuery::new(["restaurant"], 300.0, corner).unwrap();
        let outcome = engine
            .execute(&QueryRequest::new(&small, Algorithm::Exact))
            .unwrap();
        assert!(!outcome.is_partial());
        assert_eq!(outcome.stats.partial_cause, None);
    }

    #[test]
    fn traced_runs_yield_well_formed_span_trees_for_every_algorithm() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let whole = whole_rect(&network);
        // Exact needs a region under its node cap; the others take the world.
        let corner = Rect::new(-50.0, -50.0, 160.0, 160.0);
        let cases = [
            (Algorithm::App(AppParams::default()), whole),
            (Algorithm::Tgen(TgenParams { alpha: 1.0 }), whole),
            (Algorithm::Greedy(GreedyParams::default()), whole),
            (Algorithm::Exact, corner),
        ];
        for (algorithm, rect) in cases {
            let query = LcmsrQuery::new(["restaurant"], 400.0, rect).unwrap();
            let outcome = engine
                .execute(&QueryRequest::new(&query, algorithm.clone()).trace(true))
                .unwrap();
            let trace = outcome
                .trace
                .as_ref()
                .unwrap_or_else(|| panic!("{algorithm:?} must produce a trace"));
            // Structural invariants: parents precede and contain their
            // children, and direct children sum to at most the parent.
            trace
                .validate()
                .unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
            assert_eq!(trace.dropped, 0, "{algorithm:?}");
            // Exactly one root: the whole query.
            let roots: Vec<u32> = trace.children_of(crate::trace::SpanRecord::ROOT).collect();
            assert_eq!(roots.len(), 1, "{algorithm:?}: {:?}", trace.spans);
            assert_eq!(trace.spans[roots[0] as usize].label, "query");
            // The prepare phase splits into grid scoring and graph build.
            let (prepare, _) = trace.find("prepare").expect("prepare span");
            let prepare_children: Vec<&str> = trace
                .children_of(prepare)
                .map(|i| trace.spans[i as usize].label)
                .collect();
            assert!(
                prepare_children.contains(&"grid_score")
                    && prepare_children.contains(&"graph_build"),
                "{algorithm:?}: {prepare_children:?}"
            );
            let attrs: Vec<(&str, u64)> = trace.attrs_of(prepare).collect();
            assert!(
                attrs.iter().any(|&(k, v)| k == "nodes" && v > 0),
                "{algorithm:?}: {attrs:?}"
            );
            // The solver contributed at least one span under "solve".
            let (solve, _) = trace.find("solve").expect("solve span");
            assert!(
                trace.children_of(solve).count() >= 1,
                "{algorithm:?} solver must record spans: {:?}",
                trace.spans
            );
        }
    }

    #[test]
    fn traced_and_untraced_runs_return_identical_results() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let query = LcmsrQuery::new(["restaurant"], 400.0, whole_rect(&network)).unwrap();
        for algorithm in [
            Algorithm::App(AppParams::default()),
            Algorithm::Tgen(TgenParams { alpha: 1.0 }),
            Algorithm::Greedy(GreedyParams::default()),
        ] {
            let request = QueryRequest::new(&query, algorithm.clone());
            let untraced = engine.execute(&request.clone().trace(false)).unwrap();
            let traced = engine.execute(&request.trace(true)).unwrap();
            assert!(untraced.trace.is_none());
            assert!(traced.trace.is_some());
            assert_eq!(untraced.regions, traced.regions, "{algorithm:?}");
            assert_eq!(
                untraced.stats.tuples_generated,
                traced.stats.tuples_generated
            );
        }
    }

    #[test]
    fn workspace_tracer_does_not_leak_spans_across_queries() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let mut workspace = QueryWorkspace::new();
        let query = LcmsrQuery::new(["restaurant"], 400.0, whole_rect(&network)).unwrap();
        let algorithm = Algorithm::Tgen(TgenParams { alpha: 1.0 });

        // Traced, then untraced, on the same pooled workspace.
        let first = engine
            .execute_with(
                &mut workspace,
                &QueryRequest::new(&query, algorithm.clone()).trace(true),
            )
            .unwrap();
        let first_spans = first.trace.expect("traced run").spans.len();
        assert!(first_spans >= 4, "query/prepare/split/solve at minimum");
        let second = engine
            .execute_with(
                &mut workspace,
                &QueryRequest::new(&query, algorithm.clone()),
            )
            .unwrap();
        assert!(second.trace.is_none(), "tracing must not stick to the pool");

        // A traced *failing* query (Exact over too many nodes) must leave the
        // workspace collector disarmed for the next run.
        let failing = QueryRequest::new(&query, Algorithm::Exact).trace(true);
        assert!(engine.execute_with(&mut workspace, &failing).is_err());
        let after_error = engine
            .execute_with(
                &mut workspace,
                &QueryRequest::new(&query, algorithm.clone()).trace(true),
            )
            .unwrap();
        let trace = after_error.trace.expect("re-armed run");
        trace.validate().expect("well-formed after an error");
        assert_eq!(
            trace.spans.len(),
            first_spans,
            "stale spans from the failed query must not accumulate"
        );
    }

    /// Bit-faithful fingerprint of a result's regions: `Debug` for `f64`
    /// prints the shortest round-trip decimal, so two prints agree iff the
    /// floats are bit-identical (and `-0.0` prints differently from `0.0`).
    fn regions_fingerprint(regions: &[Region]) -> String {
        format!("{regions:?}")
    }

    #[test]
    fn cache_hits_replay_bit_identical_responses() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let query = LcmsrQuery::new(["restaurant"], 400.0, whole_rect(&network)).unwrap();
        let algorithm = Algorithm::Tgen(TgenParams { alpha: 1.0 });
        let cold = engine
            .execute(&QueryRequest::new(&query, algorithm.clone()))
            .unwrap();
        assert!(!cold.stats.cache, "cache mode defaults off");
        let request = QueryRequest::new(&query, algorithm.clone()).cache(true);
        let first = engine.execute(&request).unwrap();
        assert!(first.stats.cache);
        assert!(!first.stats.cache_hit);
        let second = engine.execute(&request).unwrap();
        assert!(second.stats.cache_hit, "exact repeat must hit");
        for outcome in [&first, &second] {
            assert_eq!(
                regions_fingerprint(&outcome.regions),
                regions_fingerprint(&cold.regions),
                "cache-mode responses must stay bit-identical to cold runs"
            );
        }
        assert_eq!(engine.response_cache().hits(), 1);
        assert_eq!(engine.response_cache().misses(), 1);
        assert_eq!(engine.response_cache().stale(), 0);
        // Structural stats replay from the cold run; timings are this run's.
        assert_eq!(second.stats.nodes_in_region, first.stats.nodes_in_region);
        assert_eq!(second.stats.tuples_generated, first.stats.tuples_generated);
        assert_eq!(second.stats.prepare_time, Duration::ZERO);
        assert_eq!(second.stats.solve_time, Duration::ZERO);
        // A traced hit records the lookup span and skips prepare entirely.
        let traced = engine.execute(&request.clone().trace(true)).unwrap();
        assert!(traced.stats.cache_hit);
        let trace = traced.trace.expect("traced run");
        trace.validate().expect("well-formed hit trace");
        assert!(trace.find("cache_lookup").is_some());
        assert!(trace.find("prepare").is_none());
        // A different top-k setting is a different fingerprint.
        let topk = engine.execute(&request.clone().top_k(3)).unwrap();
        assert!(!topk.stats.cache_hit);
    }

    #[test]
    fn overlapping_cache_mode_requests_score_cold() {
        // Two traced cache-mode requests on one workspace, the second rect
        // overlapping the first by 90%: each scores its whole rect with
        // `grid_score` and answers as a cacheless run does.
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let algorithm = Algorithm::Tgen(TgenParams { alpha: 1.0 });
        let mut workspace = QueryWorkspace::new();
        for rect in [
            Rect::new(-50.0, -50.0, 250.0, 250.0),
            Rect::new(-20.0, -50.0, 280.0, 250.0),
        ] {
            let query = LcmsrQuery::new(["restaurant", "cafe"], 400.0, rect).unwrap();
            let traced = engine
                .execute_with(
                    &mut workspace,
                    &QueryRequest::new(&query, algorithm.clone())
                        .cache(true)
                        .trace(true),
                )
                .unwrap();
            assert!(!traced.stats.cache_hit, "distinct rects never hit");
            let trace = traced.trace.expect("traced run");
            trace.validate().expect("well-formed trace");
            let (prepare, _) = trace.find("prepare").expect("prepare span");
            let children: Vec<&str> = trace
                .children_of(prepare)
                .map(|i| trace.spans[i as usize].label)
                .collect();
            assert_eq!(children, ["grid_score", "graph_build"], "rect {rect:?}");
            let cold = engine
                .execute(&QueryRequest::new(&query, algorithm.clone()))
                .unwrap();
            assert_eq!(
                regions_fingerprint(&traced.regions),
                regions_fingerprint(&cold.regions),
                "rect {rect:?}"
            );
        }
    }

    #[test]
    fn epoch_bump_invalidates_cached_responses() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let query = LcmsrQuery::new(["restaurant"], 400.0, whole_rect(&network)).unwrap();
        let request =
            QueryRequest::new(&query, Algorithm::Greedy(GreedyParams::default())).cache(true);
        let mut workspace = QueryWorkspace::new();
        let first = engine.execute_with(&mut workspace, &request).unwrap();
        assert!(
            engine
                .execute_with(&mut workspace, &request)
                .unwrap()
                .stats
                .cache_hit
        );
        assert_eq!(engine.dataset_epoch(), 0);
        assert_eq!(engine.bump_dataset_epoch(), 1);
        let after = engine.execute_with(&mut workspace, &request).unwrap();
        assert!(!after.stats.cache_hit);
        assert!(after.stats.cache_stale, "old-epoch entry must read stale");
        assert_eq!(
            regions_fingerprint(&after.regions),
            regions_fingerprint(&first.regions),
            "dataset unchanged here, so the recomputed answer agrees"
        );
        assert_eq!(engine.response_cache().stale(), 1);
        // The recomputed response is cached under the new epoch.
        assert!(
            engine
                .execute_with(&mut workspace, &request)
                .unwrap()
                .stats
                .cache_hit
        );
    }

    #[test]
    fn partial_runs_are_never_cached() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        let rect = Rect::new(-50.0, -50.0, 250.0, 250.0);
        let query = LcmsrQuery::new(["restaurant"], 300.0, rect).unwrap();
        let doomed = QueryRequest::new(&query, Algorithm::Exact)
            .cache(true)
            .deadline(Deadline::after(Duration::ZERO));
        let partial = engine.execute(&doomed).unwrap();
        assert!(partial.is_partial());
        assert!(partial.stats.cache);
        assert_eq!(
            engine.response_cache().len(),
            0,
            "partial incumbents must not be pinned under the fingerprint"
        );
        // The deadline is not part of the fingerprint, so a completed run…
        let complete = engine
            .execute(&QueryRequest::new(&query, Algorithm::Exact).cache(true))
            .unwrap();
        assert!(!complete.stats.cache_hit);
        assert!(!complete.is_partial());
        // …serves later deadline-bound repeats of the same request complete.
        let replay = engine.execute(&doomed).unwrap();
        assert!(replay.stats.cache_hit);
        assert!(!replay.is_partial());
        assert_eq!(
            regions_fingerprint(&replay.regions),
            regions_fingerprint(&complete.regions)
        );
    }

    #[test]
    fn classic_paths_leave_the_cache_untouched() {
        let (network, collection) = small_world();
        let engine = LcmsrEngine::new(&network, &collection);
        assert!(!QueryOptions::default().cache);
        let queries = mixed_workload(&network);
        for query in queries.iter().take(8) {
            let _ = run1(&engine, query, &Algorithm::Greedy(GreedyParams::default())).unwrap();
        }
        let mut workspace = QueryWorkspace::new();
        for query in &queries {
            let tgen = Algorithm::Tgen(TgenParams { alpha: 1.0 });
            let _ = run1_with(&engine, &mut workspace, query, &tgen).unwrap();
        }
        let cache = engine.response_cache();
        assert!(cache.is_empty());
        assert_eq!(cache.hits() + cache.misses() + cache.stale(), 0);
    }
}
