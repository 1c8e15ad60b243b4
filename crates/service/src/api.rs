//! The service's wire types: query requests and region responses.
//!
//! A request is a JSON object
//!
//! ```json
//! {
//!   "algorithm": "tgen",            // "app" | "tgen" | "greedy" | "exact"
//!   "keywords": ["restaurant"],
//!   "rect": [min_x, min_y, max_x, max_y],
//!   "budget": 1500.0,               // the length constraint Q.∆, metres
//!   "k": 3,                         // optional: top-k instead of single-best
//!   "alpha": 1.0,                   // optional: APP/TGEN scaling override
//!   "beta": 0.1,                    // optional: APP binary-search override
//!   "mu": 0.2,                      // optional: Greedy trade-off override
//!   "deadline_ms": 50,              // optional: anytime-answer deadline
//!   "priority": "interactive",      // optional: "interactive" | "batch" lane
//!   "cache": true                   // optional: response cache + sessions
//! }
//! ```
//!
//! `cache` opts a query in or out of the engine's response cache and
//! incremental re-query sessions; unset, it defaults to **on** for the
//! interactive lane and off for the batch lane.  Cache replays are
//! byte-identical to cold runs, so the knob never changes an answer — only
//! `stats.cache_hit` / `stats.delta_prepare` reveal which path ran.
//!
//! `rect` corners are order-normalized at admission (swapped corners denote
//! the same rectangle), while non-finite or zero-area rectangles are
//! rejected.
//!
//! `deadline_ms` starts counting when the service decodes the request, so
//! queue wait spends the same budget the solver does.  A response produced
//! under an expired deadline carries the solver's best-so-far region with
//! `"partial": true` and a `"partial_cause"` of `"deadline_exceeded"`; a
//! request whose deadline cannot even survive the predicted queue wait is
//! shed up front with `503` + `Retry-After`.
//!
//! and a response carries the regions (one for a single query, up to `k` for
//! top-k) plus [`RunStats`] including the scheduler's queue wait:
//!
//! ```json
//! {"regions": [{"nodes": [...], "edges": [...], "length": ..., "weight": ...,
//!               "scaled_weight": ...}],
//!  "stats": {"algorithm": "TGEN", "elapsed_ns": ..., "prepare_ns": ...,
//!            "grid_score_ns": ..., "graph_build_ns": ...,
//!            "solve_ns": ..., "queue_ns": ..., ...}}
//! ```
//!
//! Durations travel as integer nanoseconds and floats print in Rust's
//! shortest-round-trip form, so a response decodes back to bit-identical
//! measures — the end-to-end tests compare served responses against direct
//! [`lcmsr_core::engine::LcmsrEngine::execute`] calls with `==`.

use crate::json::{parse, Json, JsonError};
use crate::scheduler::Priority;
use lcmsr_core::prelude::*;
use lcmsr_core::{AppParams, GreedyParams, TgenParams};
use lcmsr_roadnet::edge::EdgeId;
use lcmsr_roadnet::geo::Rect;
use lcmsr_roadnet::node::NodeId;
use std::time::Duration;

/// Largest `k` a top-k request may ask for.
pub const MAX_TOPK: usize = 64;

/// A malformed or invalid request body.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    /// Human-readable description, returned in the `400` body.
    pub message: String,
}

impl ApiError {
    fn new(message: impl Into<String>) -> Self {
        ApiError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ApiError {}

impl From<JsonError> for ApiError {
    fn from(e: JsonError) -> Self {
        ApiError::new(e.to_string())
    }
}

/// A decoded query request.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Algorithm name: `app`, `tgen`, `greedy` or `exact` (case-insensitive).
    pub algorithm: String,
    /// Query keywords `Q.ψ`.
    pub keywords: Vec<String>,
    /// Region of interest `Q.Λ`.
    pub rect: Rect,
    /// Length constraint `Q.∆` in metres.
    pub budget: f64,
    /// `Some(k)` for a top-k query, `None` for single-best.
    pub k: Option<usize>,
    /// Optional scaling override (APP and TGEN).
    pub alpha: Option<f64>,
    /// Optional binary-search override (APP).
    pub beta: Option<f64>,
    /// Optional trade-off override (Greedy).
    pub mu: Option<f64>,
    /// Optional anytime-answer deadline in milliseconds, counted from the
    /// moment the service decodes the request.
    pub deadline_ms: Option<u64>,
    /// Optional scheduling lane: `"interactive"` (default) or `"batch"`.
    pub priority: Option<String>,
    /// Optional response-cache opt-in/out; unset defaults to the lane's
    /// policy (on for interactive, off for batch).
    pub cache: Option<bool>,
}

fn field_f64(obj: &Json, key: &str) -> Result<f64, ApiError> {
    obj.get(key)
        .ok_or_else(|| ApiError::new(format!("missing field \"{key}\"")))?
        .as_f64()
        .ok_or_else(|| ApiError::new(format!("field \"{key}\" must be a number")))
}

fn optional_f64(obj: &Json, key: &str) -> Result<Option<f64>, ApiError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| ApiError::new(format!("field \"{key}\" must be a number"))),
    }
}

/// What the wire accepts for `priority`.
const PRIORITY_EXPECTED: &str = "field \"priority\" must be \"interactive\" or \"batch\"";

/// Parses a wire `priority`; both the decoder and [`QueryRequest::to_priority`]
/// go through here.
fn parse_priority(lane: &str) -> Result<Priority, ApiError> {
    Priority::parse(lane)
        .ok_or_else(|| ApiError::new(format!("{PRIORITY_EXPECTED}, got \"{lane}\"")))
}

impl QueryRequest {
    /// Decodes a request from a JSON body.
    pub fn from_body(body: &str) -> Result<Self, ApiError> {
        Self::from_json(&parse(body)?)
    }

    /// Decodes a request from a parsed JSON value.
    pub fn from_json(value: &Json) -> Result<Self, ApiError> {
        if !matches!(value, Json::Object(_)) {
            return Err(ApiError::new("request body must be a JSON object"));
        }
        let algorithm = value
            .get("algorithm")
            .ok_or_else(|| ApiError::new("missing field \"algorithm\""))?
            .as_str()
            .ok_or_else(|| ApiError::new("field \"algorithm\" must be a string"))?
            .to_string();
        let keywords = value
            .get("keywords")
            .ok_or_else(|| ApiError::new("missing field \"keywords\""))?
            .as_array()
            .ok_or_else(|| ApiError::new("field \"keywords\" must be an array of strings"))?
            .iter()
            .map(|k| {
                k.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ApiError::new("field \"keywords\" must be an array of strings"))
            })
            .collect::<Result<Vec<String>, ApiError>>()?;
        let rect_values = value
            .get("rect")
            .ok_or_else(|| ApiError::new("missing field \"rect\""))?
            .as_array()
            .ok_or_else(|| ApiError::new("field \"rect\" must be [min_x, min_y, max_x, max_y]"))?;
        if rect_values.len() != 4 {
            return Err(ApiError::new(
                "field \"rect\" must be [min_x, min_y, max_x, max_y]",
            ));
        }
        let mut corners = [0.0f64; 4];
        for (i, v) in rect_values.iter().enumerate() {
            corners[i] = v
                .as_f64()
                .ok_or_else(|| ApiError::new("field \"rect\" must contain numbers"))?;
            if !corners[i].is_finite() {
                return Err(ApiError::new("field \"rect\" must contain finite numbers"));
            }
        }
        // Swapped corners denote the same rectangle — Rect::new normalizes
        // the order below, so only genuinely degenerate (zero-extent)
        // rectangles are rejected.
        if corners[0] == corners[2] || corners[1] == corners[3] {
            return Err(ApiError::new(
                "field \"rect\" must have positive extent (min_x != max_x and min_y != max_y)",
            ));
        }
        let budget = field_f64(value, "budget")?;
        let k = match value.get("k") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let k = v
                    .as_u64()
                    .ok_or_else(|| ApiError::new("field \"k\" must be a positive integer"))?;
                if k == 0 || k as usize > MAX_TOPK {
                    return Err(ApiError::new(format!(
                        "field \"k\" must be in 1..={MAX_TOPK}"
                    )));
                }
                Some(k as usize)
            }
        };
        let deadline_ms = match value.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                ApiError::new("field \"deadline_ms\" must be a non-negative integer")
            })?),
        };
        let priority = match value.get("priority") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let lane = v.as_str().ok_or_else(|| ApiError::new(PRIORITY_EXPECTED))?;
                parse_priority(lane)?;
                Some(lane.to_string())
            }
        };
        let cache = match value.get("cache") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_bool()
                    .ok_or_else(|| ApiError::new("field \"cache\" must be a boolean"))?,
            ),
        };
        Ok(QueryRequest {
            algorithm,
            keywords,
            rect: Rect::new(corners[0], corners[1], corners[2], corners[3]),
            budget,
            k,
            alpha: optional_f64(value, "alpha")?,
            beta: optional_f64(value, "beta")?,
            mu: optional_f64(value, "mu")?,
            deadline_ms,
            priority,
            cache,
        })
    }

    /// Encodes the request as a JSON value (used by clients and round-trip
    /// tests; the server only decodes).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("algorithm".into(), Json::String(self.algorithm.clone())),
            (
                "keywords".into(),
                Json::Array(
                    self.keywords
                        .iter()
                        .map(|k| Json::String(k.clone()))
                        .collect(),
                ),
            ),
            (
                "rect".into(),
                Json::Array(vec![
                    Json::Number(self.rect.min_x),
                    Json::Number(self.rect.min_y),
                    Json::Number(self.rect.max_x),
                    Json::Number(self.rect.max_y),
                ]),
            ),
            ("budget".into(), Json::Number(self.budget)),
        ];
        if let Some(k) = self.k {
            fields.push(("k".into(), Json::Number(k as f64)));
        }
        for (name, v) in [("alpha", self.alpha), ("beta", self.beta), ("mu", self.mu)] {
            if let Some(v) = v {
                fields.push((name.into(), Json::Number(v)));
            }
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".into(), Json::Number(ms as f64)));
        }
        if let Some(priority) = &self.priority {
            fields.push(("priority".into(), Json::String(priority.clone())));
        }
        if let Some(cache) = self.cache {
            fields.push(("cache".into(), Json::Bool(cache)));
        }
        Json::Object(fields)
    }

    /// Encodes the request as a JSON body.
    pub fn to_body(&self) -> String {
        self.to_json().encode()
    }

    /// Resolves the algorithm to run, applying parameter overrides.
    pub fn to_algorithm(&self) -> Result<Algorithm, ApiError> {
        match self.algorithm.to_ascii_lowercase().as_str() {
            "app" => {
                let mut params = AppParams::default();
                if let Some(alpha) = self.alpha {
                    params.alpha = alpha;
                }
                if let Some(beta) = self.beta {
                    params.beta = beta;
                }
                Ok(Algorithm::App(params))
            }
            "tgen" => {
                let mut params = TgenParams::default();
                if let Some(alpha) = self.alpha {
                    params.alpha = alpha;
                }
                Ok(Algorithm::Tgen(params))
            }
            "greedy" => {
                let mut params = GreedyParams::default();
                if let Some(mu) = self.mu {
                    params.mu = mu;
                }
                Ok(Algorithm::Greedy(params))
            }
            "exact" => Ok(Algorithm::Exact),
            other => Err(ApiError::new(format!(
                "unknown algorithm \"{other}\" (expected app, tgen, greedy or exact)"
            ))),
        }
    }

    /// Resolves the scheduling lane (interactive when unset).
    pub fn to_priority(&self) -> Result<Priority, ApiError> {
        self.priority
            .as_deref()
            .map_or(Ok(Priority::default()), parse_priority)
    }

    /// Builds and validates the engine-level query.
    pub fn to_query(&self) -> Result<LcmsrQuery, ApiError> {
        LcmsrQuery::new(self.keywords.clone(), self.budget, self.rect)
            .map_err(|e| ApiError::new(e.to_string()))
    }
}

/// A served region in global ids, mirroring [`Region`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegionDto {
    /// Global node ids, sorted.
    pub nodes: Vec<u32>,
    /// Global edge ids, sorted.
    pub edges: Vec<u32>,
    /// Total road length, metres.
    pub length: f64,
    /// Total relevance weight.
    pub weight: f64,
    /// Scaled weight under the algorithm's scaling.
    pub scaled_weight: u64,
}

impl RegionDto {
    /// Converts an engine region into its wire form.
    pub fn from_region(region: &Region) -> Self {
        RegionDto {
            nodes: region.nodes.iter().map(|n| n.0).collect(),
            edges: region.edges.iter().map(|e| e.0).collect(),
            length: region.length,
            weight: region.weight,
            scaled_weight: region.scaled_weight,
        }
    }

    /// Converts back into an engine [`Region`] (clients, tests).
    pub fn to_region(&self) -> Region {
        Region {
            nodes: self.nodes.iter().map(|&n| NodeId(n)).collect(),
            edges: self.edges.iter().map(|&e| EdgeId(e)).collect(),
            length: self.length,
            weight: self.weight,
            scaled_weight: self.scaled_weight,
        }
    }

    fn to_json(&self) -> Json {
        Json::Object(vec![
            (
                "nodes".into(),
                Json::Array(self.nodes.iter().map(|&n| Json::Number(n as f64)).collect()),
            ),
            (
                "edges".into(),
                Json::Array(self.edges.iter().map(|&e| Json::Number(e as f64)).collect()),
            ),
            ("length".into(), Json::Number(self.length)),
            ("weight".into(), Json::Number(self.weight)),
            (
                "scaled_weight".into(),
                Json::Number(self.scaled_weight as f64),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, ApiError> {
        let ids = |key: &str| -> Result<Vec<u32>, ApiError> {
            value
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| ApiError::new(format!("region field \"{key}\" must be an array")))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .filter(|&id| id <= u32::MAX as u64)
                        .map(|id| id as u32)
                        .ok_or_else(|| {
                            ApiError::new(format!("region field \"{key}\" must hold u32 ids"))
                        })
                })
                .collect()
        };
        Ok(RegionDto {
            nodes: ids("nodes")?,
            edges: ids("edges")?,
            length: field_f64(value, "length")?,
            weight: field_f64(value, "weight")?,
            scaled_weight: value
                .get("scaled_weight")
                .and_then(Json::as_u64)
                .ok_or_else(|| {
                    ApiError::new("region field \"scaled_weight\" must be an integer")
                })?,
        })
    }
}

/// Wire form of [`RunStats`]; durations in integer nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsDto {
    /// Algorithm name.
    pub algorithm: String,
    /// Engine wall-clock, nanoseconds.
    pub elapsed_ns: u64,
    /// Preparation time, nanoseconds.
    pub prepare_ns: u64,
    /// Grid-scoring component of the preparation time, nanoseconds.
    pub grid_score_ns: u64,
    /// Graph-build component of the preparation time, nanoseconds.
    pub graph_build_ns: u64,
    /// Solver time, nanoseconds.
    pub solve_ns: u64,
    /// Scheduler queue wait, nanoseconds.
    pub queue_ns: u64,
    /// `|V_Q|`.
    pub nodes_in_region: u64,
    /// `|E_Q|`.
    pub edges_in_region: u64,
    /// Nodes with positive query weight.
    pub relevant_nodes: u64,
    /// k-MST oracle invocations (APP).
    pub kmst_calls: u64,
    /// Tuples generated (APP/TGEN).
    pub tuples_generated: u64,
    /// Greedy expansion steps.
    pub greedy_steps: u64,
    /// Combine pairs skipped by the tuple-array length-budget pruning
    /// (APP/TGEN).
    pub pruned_pairs: u64,
    /// Tuples resident across the solve phase's frontier arrays (APP/TGEN).
    pub frontier_tuples: u64,
    /// Largest single frontier array during the solve phase.
    pub frontier_peak: u64,
    /// Frontier entries evicted by dominating inserts.
    pub dominance_evictions: u64,
    /// Whether the result is a best-so-far partial answer (the deadline
    /// expired mid-solve).
    pub partial: bool,
    /// Why the result is partial: `"deadline_exceeded"` (absent for complete
    /// runs).
    pub partial_cause: Option<String>,
    /// The deadline budget the query ran under, in nanoseconds (absent when
    /// no deadline was set).
    pub deadline_ns: Option<u64>,
    /// Whether the query ran in cache mode (response cache consulted).
    pub cache: bool,
    /// Whether the response was replayed from the response cache.
    pub cache_hit: bool,
    /// Whether the lookup evicted a stale-epoch entry before recomputing.
    pub cache_stale: bool,
    /// Whether the prepare phase was delta-built from the previous session
    /// step's keyword scores.
    pub delta_prepare: bool,
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Decodes an optional boolean stats flag (absent means `false`, so bodies
/// from peers predating the cache layer still decode).
fn optional_flag(value: &Json, key: &str) -> Result<bool, ApiError> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ApiError::new(format!("stats field \"{key}\" must be a boolean"))),
    }
}

impl StatsDto {
    /// Converts engine statistics into their wire form.
    pub fn from_stats(stats: &RunStats) -> Self {
        StatsDto {
            algorithm: stats.algorithm.clone(),
            elapsed_ns: duration_ns(stats.elapsed),
            prepare_ns: duration_ns(stats.prepare_time),
            grid_score_ns: duration_ns(stats.grid_score_time),
            graph_build_ns: duration_ns(stats.graph_build_time),
            solve_ns: duration_ns(stats.solve_time),
            queue_ns: duration_ns(stats.queue_time),
            nodes_in_region: stats.nodes_in_region as u64,
            edges_in_region: stats.edges_in_region as u64,
            relevant_nodes: stats.relevant_nodes as u64,
            kmst_calls: stats.kmst_calls,
            tuples_generated: stats.tuples_generated,
            greedy_steps: stats.greedy_steps,
            pruned_pairs: stats.pruned_pairs,
            frontier_tuples: stats.frontier_tuples,
            frontier_peak: stats.frontier_peak,
            dominance_evictions: stats.dominance_evictions,
            partial: stats.partial,
            partial_cause: stats.partial_cause.map(|c| c.as_str().to_string()),
            deadline_ns: stats.deadline.map(duration_ns),
            cache: stats.cache,
            cache_hit: stats.cache_hit,
            cache_stale: stats.cache_stale,
            delta_prepare: stats.delta_prepare,
        }
    }

    fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("algorithm".into(), Json::String(self.algorithm.clone())),
            ("elapsed_ns".into(), Json::Number(self.elapsed_ns as f64)),
            ("prepare_ns".into(), Json::Number(self.prepare_ns as f64)),
            (
                "grid_score_ns".into(),
                Json::Number(self.grid_score_ns as f64),
            ),
            (
                "graph_build_ns".into(),
                Json::Number(self.graph_build_ns as f64),
            ),
            ("solve_ns".into(), Json::Number(self.solve_ns as f64)),
            ("queue_ns".into(), Json::Number(self.queue_ns as f64)),
            (
                "nodes_in_region".into(),
                Json::Number(self.nodes_in_region as f64),
            ),
            (
                "edges_in_region".into(),
                Json::Number(self.edges_in_region as f64),
            ),
            (
                "relevant_nodes".into(),
                Json::Number(self.relevant_nodes as f64),
            ),
            ("kmst_calls".into(), Json::Number(self.kmst_calls as f64)),
            (
                "tuples_generated".into(),
                Json::Number(self.tuples_generated as f64),
            ),
            (
                "greedy_steps".into(),
                Json::Number(self.greedy_steps as f64),
            ),
            (
                "pruned_pairs".into(),
                Json::Number(self.pruned_pairs as f64),
            ),
            (
                "frontier_tuples".into(),
                Json::Number(self.frontier_tuples as f64),
            ),
            (
                "frontier_peak".into(),
                Json::Number(self.frontier_peak as f64),
            ),
            (
                "dominance_evictions".into(),
                Json::Number(self.dominance_evictions as f64),
            ),
        ];
        fields.push(("partial".into(), Json::Bool(self.partial)));
        if let Some(cause) = &self.partial_cause {
            fields.push(("partial_cause".into(), Json::String(cause.clone())));
        }
        if let Some(ns) = self.deadline_ns {
            fields.push(("deadline_ns".into(), Json::Number(ns as f64)));
        }
        // Cache-path flags are emitted only when set, so classic (cache-off)
        // responses keep their pre-cache wire shape byte-for-byte.
        for (name, flag) in [
            ("cache", self.cache),
            ("cache_hit", self.cache_hit),
            ("cache_stale", self.cache_stale),
            ("delta_prepare", self.delta_prepare),
        ] {
            if flag {
                fields.push((name.into(), Json::Bool(true)));
            }
        }
        Json::Object(fields)
    }

    fn from_json(value: &Json) -> Result<Self, ApiError> {
        let int = |key: &str| -> Result<u64, ApiError> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| ApiError::new(format!("stats field \"{key}\" must be an integer")))
        };
        Ok(StatsDto {
            algorithm: value
                .get("algorithm")
                .and_then(Json::as_str)
                .ok_or_else(|| ApiError::new("stats field \"algorithm\" must be a string"))?
                .to_string(),
            elapsed_ns: int("elapsed_ns")?,
            prepare_ns: int("prepare_ns")?,
            // Absent on responses from peers predating the prepare split.
            grid_score_ns: match value.get("grid_score_ns") {
                None | Some(Json::Null) => 0,
                Some(v) => v.as_u64().ok_or_else(|| {
                    ApiError::new("stats field \"grid_score_ns\" must be an integer")
                })?,
            },
            graph_build_ns: match value.get("graph_build_ns") {
                None | Some(Json::Null) => 0,
                Some(v) => v.as_u64().ok_or_else(|| {
                    ApiError::new("stats field \"graph_build_ns\" must be an integer")
                })?,
            },
            solve_ns: int("solve_ns")?,
            queue_ns: int("queue_ns")?,
            nodes_in_region: int("nodes_in_region")?,
            edges_in_region: int("edges_in_region")?,
            relevant_nodes: int("relevant_nodes")?,
            kmst_calls: int("kmst_calls")?,
            tuples_generated: int("tuples_generated")?,
            greedy_steps: int("greedy_steps")?,
            pruned_pairs: int("pruned_pairs")?,
            frontier_tuples: int("frontier_tuples")?,
            frontier_peak: int("frontier_peak")?,
            dominance_evictions: int("dominance_evictions")?,
            partial: match value.get("partial") {
                None | Some(Json::Null) => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| ApiError::new("stats field \"partial\" must be a boolean"))?,
            },
            partial_cause: match value.get("partial_cause") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| {
                            ApiError::new("stats field \"partial_cause\" must be a string")
                        })?
                        .to_string(),
                ),
            },
            deadline_ns: match value.get("deadline_ns") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    ApiError::new("stats field \"deadline_ns\" must be an integer")
                })?),
            },
            cache: optional_flag(value, "cache")?,
            cache_hit: optional_flag(value, "cache_hit")?,
            cache_stale: optional_flag(value, "cache_stale")?,
            delta_prepare: optional_flag(value, "delta_prepare")?,
        })
    }
}

/// A served query response: regions (0 or 1 for single-best, up to `k` for
/// top-k) plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The regions, best first.
    pub regions: Vec<RegionDto>,
    /// Execution statistics, including queue wait.
    pub stats: StatsDto,
}

impl QueryResponse {
    /// Builds the response for an engine outcome: its regions, best first,
    /// and its statistics.
    pub fn from_outcome(outcome: &QueryOutcome) -> Self {
        QueryResponse {
            regions: outcome.regions.iter().map(RegionDto::from_region).collect(),
            stats: StatsDto::from_stats(&outcome.stats),
        }
    }

    /// Encodes the response as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            (
                "regions".into(),
                Json::Array(self.regions.iter().map(RegionDto::to_json).collect()),
            ),
            ("stats".into(), self.stats.to_json()),
        ])
    }

    /// Encodes the response as a JSON body.
    pub fn to_body(&self) -> String {
        self.to_json().encode()
    }

    /// Decodes a response from a JSON body (clients, tests).
    pub fn from_body(body: &str) -> Result<Self, ApiError> {
        Self::from_json(&parse(body)?)
    }

    /// Decodes a response from a parsed JSON value.
    pub fn from_json(value: &Json) -> Result<Self, ApiError> {
        let regions = value
            .get("regions")
            .and_then(Json::as_array)
            .ok_or_else(|| ApiError::new("response field \"regions\" must be an array"))?
            .iter()
            .map(RegionDto::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let stats = StatsDto::from_json(
            value
                .get("stats")
                .ok_or_else(|| ApiError::new("missing response field \"stats\""))?,
        )?;
        Ok(QueryResponse { regions, stats })
    }
}

/// Encodes an error body `{"error": "..."}`.
pub fn error_body(message: &str) -> String {
    Json::Object(vec![("error".into(), Json::String(message.into()))]).encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> QueryRequest {
        QueryRequest {
            algorithm: "tgen".into(),
            keywords: vec!["restaurant".into(), "cafe".into()],
            rect: Rect::new(-50.0, -50.0, 550.0, 550.0),
            budget: 400.0,
            k: Some(3),
            alpha: Some(1.0),
            beta: None,
            mu: None,
            deadline_ms: None,
            priority: None,
            cache: None,
        }
    }

    #[test]
    fn request_round_trips_through_the_codec() {
        let req = sample_request();
        let body = req.to_body();
        let back = QueryRequest::from_body(&body).unwrap();
        assert_eq!(req, back);
        // Without optional fields too.
        let minimal = QueryRequest {
            k: None,
            alpha: None,
            ..sample_request()
        };
        assert_eq!(
            QueryRequest::from_body(&minimal.to_body()).unwrap(),
            minimal
        );
        // With deadline and priority set.
        let deadlined = QueryRequest {
            deadline_ms: Some(50),
            priority: Some("batch".into()),
            ..sample_request()
        };
        assert_eq!(
            QueryRequest::from_body(&deadlined.to_body()).unwrap(),
            deadlined
        );
        // The cache knob survives the round trip in both polarities.
        for cache in [Some(true), Some(false)] {
            let explicit = QueryRequest {
                cache,
                ..sample_request()
            };
            assert_eq!(
                QueryRequest::from_body(&explicit.to_body()).unwrap(),
                explicit
            );
        }
    }

    #[test]
    fn swapped_rect_corners_normalize_to_the_same_rectangle() {
        let canonical = r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,0,10,20],"budget":1}"#;
        let swapped = r#"{"algorithm":"tgen","keywords":["x"],"rect":[10,20,0,0],"budget":1}"#;
        let a = QueryRequest::from_body(canonical).unwrap();
        let b = QueryRequest::from_body(swapped).unwrap();
        assert_eq!(a.rect, b.rect, "corner order must not matter");
        assert_eq!(a.rect, Rect::new(0.0, 0.0, 10.0, 20.0));
        // Signed zero folds at the engine's cache-key layer, not here; the
        // admission layer only guards finiteness and extent.
        for degenerate in [
            r#"{"algorithm":"tgen","keywords":["x"],"rect":[5,0,5,1],"budget":1}"#,
            r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,3,1,3],"budget":1}"#,
        ] {
            let err = QueryRequest::from_body(degenerate).unwrap_err();
            assert!(err.message.contains("extent"), "{:?}", err.message);
        }
        let nan = r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,0,1,null],"budget":1}"#;
        assert!(QueryRequest::from_body(nan).is_err());
    }

    #[test]
    fn request_maps_to_engine_types() {
        let req = sample_request();
        let algorithm = req.to_algorithm().unwrap();
        assert_eq!(algorithm, Algorithm::Tgen(TgenParams { alpha: 1.0 }));
        let query = req.to_query().unwrap();
        assert_eq!(query.delta, 400.0);
        assert_eq!(query.keywords, vec!["restaurant", "cafe"]);

        for (name, expected) in [
            ("app", Algorithm::App(AppParams::default())),
            ("APP", Algorithm::App(AppParams::default())),
            ("greedy", Algorithm::Greedy(GreedyParams::default())),
            ("Exact", Algorithm::Exact),
        ] {
            let req = QueryRequest {
                algorithm: name.into(),
                alpha: None,
                ..sample_request()
            };
            assert_eq!(req.to_algorithm().unwrap(), expected);
        }
        let bad = QueryRequest {
            algorithm: "magic".into(),
            ..sample_request()
        };
        assert!(bad.to_algorithm().is_err());
    }

    #[test]
    fn parameter_overrides_apply() {
        let req = QueryRequest {
            algorithm: "app".into(),
            alpha: Some(0.25),
            beta: Some(0.05),
            ..sample_request()
        };
        match req.to_algorithm().unwrap() {
            Algorithm::App(p) => {
                assert_eq!(p.alpha, 0.25);
                assert_eq!(p.beta, 0.05);
            }
            other => panic!("expected APP, got {other:?}"),
        }
        let req = QueryRequest {
            algorithm: "greedy".into(),
            mu: Some(0.7),
            ..sample_request()
        };
        assert_eq!(
            req.to_algorithm().unwrap(),
            Algorithm::Greedy(GreedyParams { mu: 0.7 })
        );
    }

    #[test]
    fn invalid_requests_are_rejected_with_messages() {
        for (body, needle) in [
            ("[]", "object"),
            ("{}", "algorithm"),
            (r#"{"algorithm":"tgen"}"#, "keywords"),
            (
                r#"{"algorithm":7,"keywords":[],"rect":[0,0,1,1],"budget":1}"#,
                "string",
            ),
            (
                r#"{"algorithm":"tgen","keywords":"x","rect":[0,0,1,1],"budget":1}"#,
                "array of strings",
            ),
            (
                r#"{"algorithm":"tgen","keywords":[1],"rect":[0,0,1,1],"budget":1}"#,
                "array of strings",
            ),
            (
                r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,0,1],"budget":1}"#,
                "rect",
            ),
            (
                r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,0,1,"y"],"budget":1}"#,
                "numbers",
            ),
            (
                r#"{"algorithm":"tgen","keywords":["x"],"rect":[5,0,5,1],"budget":1}"#,
                "extent",
            ),
            (
                r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,0,1,1]}"#,
                "budget",
            ),
            (
                r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,0,1,1],"budget":1,"k":0}"#,
                "k",
            ),
            (
                r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,0,1,1],"budget":1,"k":1.5}"#,
                "k",
            ),
            (
                r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,0,1,1],"budget":1,"k":10000}"#,
                "k",
            ),
            (
                r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,0,1,1],"budget":1,"alpha":"big"}"#,
                "alpha",
            ),
            (
                r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,0,1,1],"budget":1,"deadline_ms":-5}"#,
                "deadline_ms",
            ),
            (
                r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,0,1,1],"budget":1,"deadline_ms":1.5}"#,
                "deadline_ms",
            ),
            (
                r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,0,1,1],"budget":1,"priority":"urgent"}"#,
                "priority",
            ),
            (
                r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,0,1,1],"budget":1,"priority":7}"#,
                "priority",
            ),
            (
                r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,0,1,1],"budget":1,"cache":"yes"}"#,
                "cache",
            ),
            ("{not json", "invalid JSON"),
        ] {
            let err = QueryRequest::from_body(body).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{body}: expected {needle:?} in {:?}",
                err.message
            );
        }
        // Validation errors surface through to_query.
        let req = QueryRequest {
            budget: -1.0,
            ..sample_request()
        };
        assert!(req.to_query().is_err());
        let req = QueryRequest {
            keywords: vec![],
            ..sample_request()
        };
        assert!(req.to_query().is_err());
    }

    #[test]
    fn response_round_trips_bit_exactly() {
        let response = QueryResponse {
            regions: vec![RegionDto {
                nodes: vec![1, 5, 9],
                edges: vec![2, 7],
                length: 123.456789,
                weight: 0.1 + 0.2, // a value with an inexact decimal expansion
                scaled_weight: 110,
            }],
            stats: StatsDto {
                algorithm: "TGEN".into(),
                elapsed_ns: 1_234_567_891,
                prepare_ns: 23_456,
                grid_score_ns: 14_000,
                graph_build_ns: 9_000,
                solve_ns: 1_200_000_000,
                queue_ns: 11_111_111,
                nodes_in_region: 36,
                edges_in_region: 60,
                relevant_nodes: 5,
                kmst_calls: 0,
                tuples_generated: 420,
                greedy_steps: 0,
                pruned_pairs: 7_000,
                frontier_tuples: 96,
                frontier_peak: 12,
                dominance_evictions: 3,
                partial: false,
                partial_cause: None,
                deadline_ns: None,
                cache: false,
                cache_hit: false,
                cache_stale: false,
                delta_prepare: false,
            },
        };
        let body = response.to_body();
        let back = QueryResponse::from_body(&body).unwrap();
        assert_eq!(response, back);
        assert_eq!(
            back.regions[0].weight.to_bits(),
            (0.1f64 + 0.2).to_bits(),
            "floats survive the wire bit-exactly"
        );
        // DTO ↔ engine Region round-trip.
        let region = back.regions[0].to_region();
        assert_eq!(RegionDto::from_region(&region), back.regions[0]);
    }

    #[test]
    fn cache_stats_round_trip_and_stay_off_the_classic_wire() {
        // Classic (cache-off) responses carry none of the cache flags, so
        // their wire shape is byte-identical to a cacheless build's.
        let classic = QueryResponse {
            regions: vec![],
            stats: StatsDto::from_stats(&RunStats::new("TGEN")),
        };
        let body = classic.to_body();
        for flag in ["\"cache\"", "cache_hit", "cache_stale", "delta_prepare"] {
            assert!(!body.contains(flag), "unexpected {flag} in {body}");
        }
        assert_eq!(QueryResponse::from_body(&body).unwrap(), classic);
        // A cache-hit response carries its flags and round-trips.
        let mut stats = RunStats::new("TGEN");
        stats.cache = true;
        stats.cache_hit = true;
        let hit = QueryResponse {
            regions: vec![],
            stats: StatsDto::from_stats(&stats),
        };
        let body = hit.to_body();
        assert!(body.contains("\"cache\":true"), "{body}");
        assert!(body.contains("\"cache_hit\":true"), "{body}");
        assert!(!body.contains("cache_stale"), "{body}");
        assert_eq!(QueryResponse::from_body(&body).unwrap(), hit);
        // A delta-prepared recompute after a stale eviction round-trips too.
        let mut stats = RunStats::new("TGEN");
        stats.cache = true;
        stats.cache_stale = true;
        stats.delta_prepare = true;
        let delta = QueryResponse {
            regions: vec![],
            stats: StatsDto::from_stats(&stats),
        };
        let back = QueryResponse::from_body(&delta.to_body()).unwrap();
        assert_eq!(back, delta);
        assert!(back.stats.cache_stale && back.stats.delta_prepare);
        // Malformed flags are rejected with the field named.
        let bad = r#"{"regions":[],"stats":{"algorithm":"TGEN","elapsed_ns":0,
            "prepare_ns":0,"solve_ns":0,"queue_ns":0,"nodes_in_region":0,
            "edges_in_region":0,"relevant_nodes":0,"kmst_calls":0,
            "tuples_generated":0,"greedy_steps":0,"pruned_pairs":0,
            "frontier_tuples":0,"frontier_peak":0,"dominance_evictions":0,
            "cache_hit":1}}"#;
        let err = QueryResponse::from_body(bad).unwrap_err();
        assert!(err.message.contains("cache_hit"), "{:?}", err.message);
    }

    #[test]
    fn error_body_is_json() {
        let body = error_body("bad \"thing\"");
        let v = parse(&body).unwrap();
        assert_eq!(v.get("error").and_then(Json::as_str), Some("bad \"thing\""));
    }

    #[test]
    fn priority_resolves_with_interactive_default() {
        assert_eq!(
            sample_request().to_priority().unwrap(),
            Priority::Interactive
        );
        let batch = QueryRequest {
            priority: Some("batch".into()),
            ..sample_request()
        };
        assert_eq!(batch.to_priority().unwrap(), Priority::Batch);
        let bad = QueryRequest {
            priority: Some("urgent".into()),
            ..sample_request()
        };
        let resolved = bad.to_priority().unwrap_err();
        assert!(resolved.message.contains("priority"));
        // The decoder refuses the same lane with the same message.
        let decoded = QueryRequest::from_body(
            r#"{"algorithm":"tgen","keywords":["x"],"rect":[0,0,1,1],"budget":1,"priority":"urgent"}"#,
        )
        .unwrap_err();
        assert_eq!(decoded.message, resolved.message);
    }

    #[test]
    fn partial_stats_round_trip_on_the_wire() {
        let mut stats = RunStats::new("Exact");
        stats.deadline = Some(Duration::from_millis(50));
        stats.mark_partial(PartialCause::DeadlineExceeded);
        let dto = StatsDto::from_stats(&stats);
        assert!(dto.partial);
        assert_eq!(dto.partial_cause.as_deref(), Some("deadline_exceeded"));
        assert_eq!(dto.deadline_ns, Some(50_000_000));
        let response = QueryResponse {
            regions: vec![],
            stats: dto,
        };
        let back = QueryResponse::from_body(&response.to_body()).unwrap();
        assert_eq!(response, back);
        let body = response.to_body();
        assert!(body.contains("\"partial\":true"), "body: {body}");
        assert!(body.contains("\"partial_cause\":\"deadline_exceeded\""));
        assert!(body.contains("\"deadline_ns\":50000000"));
        // Complete runs stay partial-free and omit the optional fields.
        let complete = QueryResponse {
            regions: vec![],
            stats: StatsDto::from_stats(&RunStats::new("TGEN")),
        };
        let body = complete.to_body();
        assert!(body.contains("\"partial\":false"));
        assert!(!body.contains("partial_cause"));
        assert!(!body.contains("deadline_ns"));
        assert_eq!(QueryResponse::from_body(&body).unwrap(), complete);
    }
}
