//! Shared helpers for the integration suite: thin wrappers that build the
//! [`QueryRequest`] for a query and an algorithm and answer it through
//! [`LcmsrEngine::execute`], `execute_with` or `execute_batch_with`, so the
//! suites stay focused on algorithm behaviour rather than request plumbing.
#![allow(dead_code)]

use lcmsr::core::engine::{Algorithm, LcmsrEngine, QueryOutcome, QueryRequest, QueryWorkspace};
use lcmsr::core::{LcmsrQuery, Result};

/// Answers a single-region query with a pooled workspace.
pub fn run1(
    engine: &LcmsrEngine<'_>,
    query: &LcmsrQuery,
    algorithm: &Algorithm,
) -> Result<QueryOutcome> {
    engine.execute(&QueryRequest::new(query, algorithm.clone()))
}

/// Answers a single-region query with a caller-owned workspace.
pub fn run1_with(
    engine: &LcmsrEngine<'_>,
    workspace: &mut QueryWorkspace,
    query: &LcmsrQuery,
    algorithm: &Algorithm,
) -> Result<QueryOutcome> {
    engine.execute_with(workspace, &QueryRequest::new(query, algorithm.clone()))
}

/// Answers a top-k query with a pooled workspace.
pub fn runk(
    engine: &LcmsrEngine<'_>,
    query: &LcmsrQuery,
    algorithm: &Algorithm,
    k: usize,
) -> Result<QueryOutcome> {
    engine.execute(&QueryRequest::new(query, algorithm.clone()).top_k(k))
}

/// Answers a batch of top-k queries on `workers` threads.
pub fn batchk_with(
    engine: &LcmsrEngine<'_>,
    queries: &[LcmsrQuery],
    algorithm: &Algorithm,
    k: usize,
    workers: usize,
) -> Result<Vec<QueryOutcome>> {
    let requests: Vec<QueryRequest<'_>> = queries
        .iter()
        .map(|q| QueryRequest::new(q, algorithm.clone()).top_k(k))
        .collect();
    engine.execute_batch_with(&requests, workers)
}

/// Answers a batch of single-region queries on `workers` threads.
pub fn batch1_with(
    engine: &LcmsrEngine<'_>,
    queries: &[LcmsrQuery],
    algorithm: &Algorithm,
    workers: usize,
) -> Result<Vec<QueryOutcome>> {
    let requests: Vec<QueryRequest<'_>> = queries
        .iter()
        .map(|q| QueryRequest::new(q, algorithm.clone()))
        .collect();
    engine.execute_batch_with(&requests, workers)
}
