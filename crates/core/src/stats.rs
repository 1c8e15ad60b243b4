//! Run statistics and instrumentation for LCMSR query execution.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Why a run returned a partial (best-so-far) result instead of running to
/// completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartialCause {
    /// The query's deadline expired mid-solve; the solver stopped at the next
    /// poll point and returned its incumbent.
    DeadlineExceeded,
}

impl PartialCause {
    /// The stable wire/display spelling of the cause.
    pub fn as_str(&self) -> &'static str {
        match self {
            PartialCause::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

impl std::fmt::Display for PartialCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Statistics collected while answering one query with one algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RunStats {
    /// Name of the algorithm ("APP", "TGEN", "Greedy", "Exact").
    pub algorithm: String,
    /// Wall-clock time spent answering the query.
    pub elapsed: Duration,
    /// Time spent preparing the query graph (keyword scoring, `Q.Λ`
    /// extraction, CSR construction, weight scaling).
    pub prepare_time: Duration,
    /// Component of `prepare_time`: keyword scoring against the grid index
    /// (Equation-2 accumulation over the cells intersecting `Q.Λ`).
    pub grid_score_time: Duration,
    /// Component of `prepare_time`: `Q.Λ` subgraph extraction plus scaled
    /// CSR query-graph construction.  `grid_score_time + graph_build_time`
    /// is ≤ `prepare_time` (the remainder is validation and bookkeeping).
    pub graph_build_time: Duration,
    /// Time spent inside the solver proper.  `prepare_time + solve_time` is
    /// always ≤ `elapsed` (the remainder is result translation).
    pub solve_time: Duration,
    /// Time the query spent parked in a serving front-end's queue before it
    /// was allowed to run.  Always zero on the direct engine paths
    /// (`execute`, `execute_with`); the `lcmsr_service`
    /// admission scheduler measures and fills it in.  Not included in
    /// `elapsed`, which covers engine execution only.
    pub queue_time: Duration,
    /// Number of road-network nodes inside `Q.Λ` (`|V_Q|`).
    pub nodes_in_region: usize,
    /// Number of edges inside `Q.Λ` (`|E_Q|`).
    pub edges_in_region: usize,
    /// Number of nodes carrying a positive query weight.
    pub relevant_nodes: usize,
    /// Number of k-MST oracle invocations (APP only).
    pub kmst_calls: u64,
    /// Number of region tuples generated (APP's DP and TGEN; TGEN counts
    /// every feasible node-disjoint combination, merged into the arena or
    /// not).
    pub tuples_generated: u64,
    /// Number of greedy expansion steps (Greedy only).
    pub greedy_steps: u64,
    /// Combine pairs skipped by the tuple-array frontier's length-budget
    /// `partition_point` without ever being materialised (APP's DP and TGEN;
    /// the pre-frontier combine loops allocated each of these and rolled it
    /// back).
    pub pruned_pairs: u64,
    /// Region tuples resident across all per-node frontier arrays when the
    /// solve phase finished (APP's DP and TGEN).
    pub frontier_tuples: u64,
    /// Largest single frontier array at the end of the solve phase.
    pub frontier_peak: u64,
    /// Frontier entries evicted by dominating inserts (Lemma 6 extended
    /// across scaled weights) during the solve phase.
    pub dominance_evictions: u64,
    /// Whether the solver stopped early (its deadline passed) and the result
    /// is its best-so-far incumbent rather than the full answer.
    pub partial: bool,
    /// Why the result is partial (`None` for complete runs).
    pub partial_cause: Option<PartialCause>,
    /// The deadline budget the query ran under (`None` when no deadline was
    /// set).  Reported on the wire as `deadline_ns`; the absolute expiry
    /// instant is process-local and deliberately not recorded here.
    pub deadline: Option<Duration>,
    /// Whether the request ran in cache mode (response cache consulted and,
    /// on a complete run, populated).  `false` on the classic paths, which
    /// stay bit-identical to a cacheless engine.
    pub cache: bool,
    /// Whether the response was replayed from the engine's response cache
    /// (the regions are clones of the original cold run's).
    pub cache_hit: bool,
    /// Whether the lookup found a fingerprint cached under an older dataset
    /// epoch (the stale entry was evicted and the query recomputed).
    pub cache_stale: bool,
    /// Whether the prepare phase was delta-built from the session's previous
    /// keyword scores instead of rescoring the whole region of interest.
    pub delta_prepare: bool,
}

impl RunStats {
    /// Creates empty statistics for the named algorithm.
    pub fn new(algorithm: impl Into<String>) -> Self {
        RunStats {
            algorithm: algorithm.into(),
            ..RunStats::default()
        }
    }

    /// Elapsed time in milliseconds (convenience for experiment output).
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1_000.0
    }

    /// Preparation time in milliseconds.
    pub fn prepare_ms(&self) -> f64 {
        self.prepare_time.as_secs_f64() * 1_000.0
    }

    /// Grid-scoring component of the preparation time, in milliseconds.
    pub fn grid_score_ms(&self) -> f64 {
        self.grid_score_time.as_secs_f64() * 1_000.0
    }

    /// Graph-build component of the preparation time, in milliseconds.
    pub fn graph_build_ms(&self) -> f64 {
        self.graph_build_time.as_secs_f64() * 1_000.0
    }

    /// Solver time in milliseconds.
    pub fn solve_ms(&self) -> f64 {
        self.solve_time.as_secs_f64() * 1_000.0
    }

    /// Queue wait in milliseconds (zero outside a serving front-end).
    pub fn queue_ms(&self) -> f64 {
        self.queue_time.as_secs_f64() * 1_000.0
    }

    /// Marks the run partial with the given cause (idempotent; the first
    /// cause wins so an outer layer never overwrites an inner one).
    pub fn mark_partial(&mut self, cause: PartialCause) {
        self.partial = true;
        self.partial_cause.get_or_insert(cause);
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.2} ms (prepare {:.2} [score {:.2} + build {:.2}] + solve {:.2}; |V_Q|={}, |E_Q|={}, relevant={}, kmst={}, tuples={}, pruned={}, frontier={})",
            self.algorithm,
            self.elapsed_ms(),
            self.prepare_ms(),
            self.grid_score_ms(),
            self.graph_build_ms(),
            self.solve_ms(),
            self.nodes_in_region,
            self.edges_in_region,
            self.relevant_nodes,
            self.kmst_calls,
            self.tuples_generated,
            self.pruned_pairs,
            self.frontier_tuples
        )?;
        if !self.queue_time.is_zero() {
            write!(f, " + queue {:.2}", self.queue_ms())?;
        }
        if let Some(budget) = self.deadline {
            write!(f, " [deadline {:.2} ms]", budget.as_secs_f64() * 1_000.0)?;
        }
        if self.partial {
            match self.partial_cause {
                Some(cause) => write!(f, " [partial: {cause}]")?,
                None => write!(f, " [partial]")?,
            }
        }
        if self.cache_hit {
            write!(f, " [cache hit]")?;
        } else if self.cache_stale {
            write!(f, " [cache stale]")?;
        }
        if self.delta_prepare {
            write!(f, " [delta prepare]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_display() {
        let mut s = RunStats::new("APP");
        s.elapsed = Duration::from_millis(12);
        s.nodes_in_region = 100;
        assert_eq!(s.algorithm, "APP");
        assert!((s.elapsed_ms() - 12.0).abs() < 1e-9);
        assert!(s.to_string().contains("APP"));
        assert!(s.to_string().contains("100"));
    }

    #[test]
    fn default_is_zeroed() {
        let s = RunStats::default();
        assert_eq!(s.elapsed, Duration::ZERO);
        assert_eq!(s.queue_time, Duration::ZERO);
        assert_eq!(s.grid_score_time, Duration::ZERO);
        assert_eq!(s.graph_build_time, Duration::ZERO);
        assert_eq!(s.grid_score_ms(), 0.0);
        assert_eq!(s.graph_build_ms(), 0.0);
        assert_eq!(s.kmst_calls, 0);
        assert_eq!(s.elapsed_ms(), 0.0);
        assert_eq!(s.queue_ms(), 0.0);
        assert!(!s.partial);
        assert_eq!(s.partial_cause, None);
        assert_eq!(s.deadline, None);
        assert!(!s.cache);
        assert!(!s.cache_hit);
        assert!(!s.cache_stale);
        assert!(!s.delta_prepare);
    }

    #[test]
    fn display_marks_cache_and_delta_paths() {
        let mut s = RunStats::new("TGEN");
        assert!(!s.to_string().contains("cache"));
        s.cache = true;
        s.cache_hit = true;
        assert!(s.to_string().contains("[cache hit]"));
        let mut d = RunStats::new("TGEN");
        d.cache_stale = true;
        d.delta_prepare = true;
        let shown = d.to_string();
        assert!(shown.contains("[cache stale]"), "{shown}");
        assert!(shown.contains("[delta prepare]"), "{shown}");
    }

    #[test]
    fn partial_marking_keeps_the_first_cause_and_shows_in_display() {
        let mut s = RunStats::new("Exact");
        s.mark_partial(PartialCause::DeadlineExceeded);
        s.mark_partial(PartialCause::DeadlineExceeded);
        assert!(s.partial);
        assert_eq!(s.partial_cause, Some(PartialCause::DeadlineExceeded));
        assert_eq!(PartialCause::DeadlineExceeded.as_str(), "deadline_exceeded");
        assert_eq!(
            PartialCause::DeadlineExceeded.to_string(),
            "deadline_exceeded"
        );
        assert!(s.to_string().contains("[partial: deadline_exceeded]"));
        assert!(!RunStats::new("Exact").to_string().contains("partial"));
    }

    #[test]
    fn display_shows_queue_wait_only_when_nonzero() {
        let mut s = RunStats::new("TGEN");
        assert!(!s.to_string().contains("queue"));
        s.queue_time = Duration::from_millis(3);
        let shown = s.to_string();
        assert!(shown.contains("+ queue 3.00"), "{shown}");
    }

    #[test]
    fn display_shows_deadline_budget_when_set() {
        let mut s = RunStats::new("APP");
        assert!(!s.to_string().contains("deadline"));
        s.deadline = Some(Duration::from_millis(50));
        let shown = s.to_string();
        assert!(shown.contains("[deadline 50.00 ms]"), "{shown}");
    }
}
