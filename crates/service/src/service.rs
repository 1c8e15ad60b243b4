//! The LCMSR service: HTTP routes glued to the admission scheduler.
//!
//! Routes:
//!
//! * `POST /query` — an LCMSR query (see [`crate::api`] for the body format);
//!   single-best without `"k"`, top-k with it.  `400` for malformed or
//!   invalid requests (including engine-reported query errors), `503` with
//!   `Retry-After` when the request is shed at admission.
//! * `GET /healthz` — liveness plus basic dataset/queue facts.
//! * `GET /metrics` — Prometheus text exposition (see [`crate::metrics`]).
//! * `GET /debug/trace/recent` — span trees of recently sampled queries.
//! * `GET /debug/slow` — recently completed slow queries (span trees when
//!   the query was also sampled for tracing).
//!
//! Every response carries an `X-Request-Id` header: the client's, when it
//! sent a well-formed one, else a generated id.  Slow queries log one stderr
//! line stamped with the id, and retained traces carry it, so a single id
//! connects a client's log line, the server's, and the `/debug` surfaces.

use crate::api::{self, error_body, QueryResponse};
use crate::diag::{Diagnostics, DiagnosticsConfig, TraceRing, REQUEST_ID_HEADER};
use crate::http::{self, Handler, HttpRequest, HttpResponse, ServerConfig, ServerHandle};
use crate::json::Json;
use crate::metrics::ServiceMetrics;
use crate::scheduler::{BatchConfig, Scheduler, SubmitError};
use lcmsr_core::cancel::Deadline;
use lcmsr_core::engine::{LcmsrEngine, Priority, QueryOptions, QueryRequest};
use lcmsr_core::trace::QueryTrace;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Full service configuration.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// HTTP listener knobs.
    pub server: ServerConfig,
    /// Scheduler knobs: permits and the bound on parked callers.
    pub batch: BatchConfig,
    /// Diagnostics knobs: slow-query threshold, trace sampling, ring sizes.
    pub diagnostics: DiagnosticsConfig,
}

/// The request handler: routes to the scheduler, diagnostics and metrics.
struct ServiceHandlerInner {
    engine: &'static LcmsrEngine<'static>,
    scheduler: Scheduler,
    metrics: Arc<ServiceMetrics>,
    diag: Diagnostics,
    started: Instant,
}

/// What a served query leaves behind for diagnostics, besides its body.
struct ServedQuery {
    body: String,
    algorithm: String,
    queue_time: Duration,
    partial: bool,
    trace: Option<QueryTrace>,
}

impl ServiceHandlerInner {
    fn handle_query(&self, request: &HttpRequest, request_id: &str) -> HttpResponse {
        let start = crate::metrics::now();
        // Sampling is decided at admission so the engine runs the whole query
        // with one collector state — no mid-query arming.
        let trace_enabled = self.diag.should_trace();
        let outcome = self.run_query(request, trace_enabled);
        match outcome {
            Ok(served) => {
                self.metrics.responses_ok.fetch_add(1, Ordering::Relaxed);
                // Only served queries enter the histogram: microsecond 503s
                // and 400s would otherwise drag p50/p99 *down* exactly when
                // the service is shedding — the opposite of the truth.
                let elapsed = start.elapsed();
                self.metrics.latency.record(elapsed);
                if served.trace.is_some() {
                    self.metrics.traced.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(kept) = self.diag.observe(
                    request_id,
                    &served.algorithm,
                    elapsed,
                    served.queue_time,
                    served.partial,
                    served.trace,
                ) {
                    if kept.slow {
                        self.metrics.slow_queries.fetch_add(1, Ordering::Relaxed);
                    }
                }
                HttpResponse::json(200, served.body)
            }
            Err(response) => response,
        }
    }

    fn run_query(
        &self,
        request: &HttpRequest,
        trace_enabled: bool,
    ) -> Result<ServedQuery, HttpResponse> {
        let client_error = |message: String| {
            self.metrics
                .responses_client_error
                .fetch_add(1, Ordering::Relaxed);
            HttpResponse::json(400, error_body(&message))
        };
        let body = request
            .body_utf8()
            .ok_or_else(|| client_error("request body must be UTF-8".into()))?;
        let parsed = api::QueryRequest::from_body(body).map_err(|e| client_error(e.message))?;
        let query = parsed.to_query().map_err(|e| client_error(e.message))?;
        let algorithm = parsed.to_algorithm().map_err(|e| client_error(e.message))?;
        let priority = parsed.to_priority().map_err(|e| client_error(e.message))?;
        let request = QueryRequest {
            query: &query,
            algorithm,
            options: QueryOptions {
                k: parsed.k,
                // The deadline clock starts here, at decode time, so every
                // later stage — queue wait included — counts against the
                // budget.
                deadline: parsed
                    .deadline_ms
                    .map(|ms| Deadline::after(Duration::from_millis(ms))),
                cancel: None,
                priority,
                trace: trace_enabled,
                // Interactive traffic defaults into the response cache
                // (pan/zoom sessions repeat themselves); batch sweeps default
                // out.  Either lane can override explicitly with the
                // request's `cache` field.
                cache: parsed.cache.unwrap_or(priority == Priority::Interactive),
            },
        };
        // The query runs on this HTTP worker once the scheduler grants it a
        // permit; the scheduler counts it in `queries` at admission.
        let outcome = self
            .scheduler
            .submit(&request)
            .map_err(|e| {
                // Shed counting happens inside the scheduler; every shed
                // variant maps to a 503 with a Retry-After derived from the
                // EWMA service time and the current backlog.
                let status = match e {
                    SubmitError::Overloaded
                    | SubmitError::DeadlineUnmeetable
                    | SubmitError::ShuttingDown => 503,
                };
                HttpResponse::json(status, error_body(&e.to_string()))
                    .with_header("Retry-After", self.scheduler.retry_after_secs().to_string())
            })?
            .map_err(|e| {
                // An engine-level failure is query-dependent (e.g. Exact over
                // an oversized region): the client's fault, not the server's.
                client_error(format!("query failed: {e}"))
            })?;
        self.metrics.record_prepare_split(&outcome.stats);
        self.metrics.record_cache_path(&outcome.stats);
        let response = QueryResponse::from_outcome(&outcome);
        if response.stats.partial {
            self.metrics.partial.fetch_add(1, Ordering::Relaxed);
        }
        Ok(ServedQuery {
            body: response.to_body(),
            algorithm: response.stats.algorithm.clone(),
            queue_time: Duration::from_nanos(response.stats.queue_ns),
            partial: response.stats.partial,
            trace: outcome.trace,
        })
    }

    /// Renders one diagnostics ring as a JSON array, newest first.
    fn handle_debug_ring(ring: &TraceRing) -> HttpResponse {
        let entries: Vec<Json> = ring.snapshot().iter().map(|t| t.to_json()).collect();
        HttpResponse::json(200, Json::Array(entries).encode())
    }

    fn handle_healthz(&self) -> HttpResponse {
        let network = self.engine.network();
        let body = Json::Object(vec![
            ("status".into(), Json::String("ok".into())),
            (
                "uptime_s".into(),
                Json::Number(self.started.elapsed().as_secs_f64().floor()),
            ),
            (
                "queue_depth".into(),
                Json::Number(self.scheduler.queue_depth() as f64),
            ),
            (
                "network_nodes".into(),
                Json::Number(network.node_count() as f64),
            ),
            (
                "objects".into(),
                Json::Number(self.engine.collection().len() as f64),
            ),
        ]);
        HttpResponse::json(200, body.encode())
    }
}

impl Handler for ServiceHandlerInner {
    fn handle(&self, request: &HttpRequest) -> HttpResponse {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let request_id = self
            .diag
            .resolve_request_id(request.header(REQUEST_ID_HEADER));
        let response = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/query") => self.handle_query(request, &request_id),
            ("GET", "/healthz") => self.handle_healthz(),
            ("GET", "/metrics") => HttpResponse::text(200, self.metrics.render()),
            ("GET", "/debug/trace/recent") => Self::handle_debug_ring(&self.diag.recent),
            ("GET", "/debug/slow") => Self::handle_debug_ring(&self.diag.slow),
            ("GET", "/query")
            | ("POST", "/healthz")
            | ("POST", "/metrics")
            | ("POST", "/debug/trace/recent")
            | ("POST", "/debug/slow") => HttpResponse::json(405, error_body("method not allowed")),
            _ => HttpResponse::json(404, error_body("no such route")),
        };
        response.with_header("X-Request-Id", request_id)
    }
}

/// A running LCMSR service.
#[derive(Debug)]
pub struct ServiceHandle {
    server: ServerHandle,
    handler: Arc<ServiceHandlerInner>,
}

impl ServiceHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The live metrics (scrape-free access for tests and benchmarks).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.handler.metrics
    }

    /// Gracefully stops the HTTP server (in-flight requests finish), then
    /// closes the scheduler to new submissions.
    pub fn shutdown(self) {
        self.server.shutdown();
        self.handler.scheduler.shutdown();
    }

    /// Blocks until the server stops (foreground serving).
    pub fn wait(self) {
        self.server.wait();
    }
}

/// Starts serving `engine` with the given configuration.
///
/// The engine reference must be `'static` because the HTTP worker threads
/// that run the queries outlive the caller's stack frame; for a
/// process-lifetime server obtain one with [`crate::leak_engine`].
pub fn serve(
    engine: &'static LcmsrEngine<'static>,
    config: ServiceConfig,
) -> std::io::Result<ServiceHandle> {
    let ServiceConfig {
        server,
        batch,
        diagnostics,
    } = config;
    let metrics = Arc::new(ServiceMetrics::new());
    let scheduler = Scheduler::new(engine, batch, Arc::clone(&metrics));
    let handler = Arc::new(ServiceHandlerInner {
        engine,
        scheduler,
        metrics,
        diag: Diagnostics::new(diagnostics),
        started: crate::metrics::now(),
    });
    let server = http::start(&server, Arc::clone(&handler) as Arc<dyn Handler>)?;
    Ok(ServiceHandle { server, handler })
}

impl std::fmt::Debug for ServiceHandlerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandlerInner")
            .finish_non_exhaustive()
    }
}
