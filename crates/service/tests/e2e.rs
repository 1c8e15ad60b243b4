//! End-to-end tests against a live server: spawned on an OS-assigned port,
//! queried over real sockets by concurrent clients, answers compared
//! bit-identically against direct engine calls on the same dataset.

use lcmsr_core::engine::{Algorithm, LcmsrEngine, QueryRequest as EngineRequest};
use lcmsr_core::{LcmsrQuery, TgenParams};
use lcmsr_geotext::collection::ObjectCollection;
use lcmsr_geotext::object::GeoTextObject;
use lcmsr_roadnet::builder::GraphBuilder;
use lcmsr_roadnet::geo::{Point, Rect};
use lcmsr_service::diag::DiagnosticsConfig;
use lcmsr_service::http::ServerConfig;
use lcmsr_service::scheduler::BatchConfig;
use lcmsr_service::service::{serve, ServiceConfig, ServiceHandle};
use lcmsr_service::{leak_engine, HttpClient, QueryRequest, QueryResponse, RegionDto};
use std::time::{Duration, Instant};

/// A 6×6 grid city with a restaurant cluster and scattered cafes, leaked for
/// the process-lifetime engine the service needs.
fn leaked_city() -> &'static LcmsrEngine<'static> {
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
    for &(x, y) in &[(10.0, 10.0), (110.0, 10.0), (10.0, 110.0), (210.0, 110.0)] {
        objects.push(GeoTextObject::from_keywords(
            oid,
            Point::new(x, y),
            ["restaurant", "italian"],
        ));
        oid += 1;
    }
    for &(x, y) in &[(410.0, 410.0), (510.0, 310.0), (310.0, 510.0)] {
        objects.push(GeoTextObject::from_keywords(
            oid,
            Point::new(x, y),
            ["cafe"],
        ));
        oid += 1;
    }
    let collection = ObjectCollection::build(&network, objects, 200.0).unwrap();
    leak_engine(network, collection)
}

fn serve_city(engine: &'static LcmsrEngine<'static>, batch: BatchConfig) -> ServiceHandle {
    serve_city_with(engine, batch, DiagnosticsConfig::default())
}

fn serve_city_with(
    engine: &'static LcmsrEngine<'static>,
    batch: BatchConfig,
    diagnostics: DiagnosticsConfig,
) -> ServiceHandle {
    serve(
        engine,
        ServiceConfig {
            server: ServerConfig {
                addr: "127.0.0.1:0".into(),
                http_workers: 8,
                max_body_bytes: 64 * 1024,
                ..ServerConfig::default()
            },
            batch,
            diagnostics,
        },
    )
    .expect("service must start")
}

fn request_for(keywords: &[&str], budget: f64, k: Option<usize>) -> QueryRequest {
    QueryRequest {
        algorithm: "tgen".into(),
        keywords: keywords.iter().map(|s| (*s).to_string()).collect(),
        rect: Rect::new(-50.0, -50.0, 560.0, 560.0),
        budget,
        k,
        alpha: Some(1.0),
        beta: None,
        mu: None,
        deadline_ms: None,
        priority: None,
        cache: None,
    }
}

/// An Exact request over a 4×4-node corner of the city: free-running, its
/// enumeration of the 2^16 node subsets takes tens of milliseconds.
fn slow_exact_request() -> QueryRequest {
    let mut request = request_for(&["restaurant"], 3_000.0, None);
    request.algorithm = "exact".into();
    request.rect = Rect::new(-50.0, -50.0, 350.0, 350.0);
    request
}

/// An Exact request over a 5×4-node corner of the city: 20 nodes, the
/// solver's limit, so free-running it enumerates 2^20 node subsets.
fn slowest_exact_request() -> QueryRequest {
    let mut request = slow_exact_request();
    request.rect = Rect::new(-50.0, -50.0, 450.0, 350.0);
    request
}

/// The `queue_depth` `/healthz` reports.
fn queue_depth(client: &mut HttpClient) -> u64 {
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200, "{body}");
    lcmsr_service::json::parse(&body)
        .unwrap()
        .get("queue_depth")
        .and_then(lcmsr_service::json::Json::as_u64)
        .unwrap_or_else(|| panic!("no queue_depth in {body}"))
}

/// Wall time of an undeadlined direct engine run of `request`.
fn direct_run_time(engine: &LcmsrEngine<'_>, request: &QueryRequest) -> Duration {
    let query = request.to_query().unwrap();
    let engine_request = EngineRequest::new(&query, request.to_algorithm().unwrap());
    let start = Instant::now();
    engine.execute(&engine_request).unwrap();
    start.elapsed()
}

#[test]
fn served_answers_are_bit_identical_to_direct_engine_calls() {
    let engine = leaked_city();
    let service = serve_city(
        engine,
        BatchConfig {
            queue_capacity: 256,
            batch_workers: 2,
            ..BatchConfig::default()
        },
    );
    let addr = service.addr();

    // Concurrent clients mixing single and top-k queries; every response must
    // equal the direct engine call on the same dataset, bit for bit.
    std::thread::scope(|scope| {
        for t in 0..6 {
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                let keywords: &[&str] = if t % 2 == 0 {
                    &["restaurant"]
                } else {
                    &["cafe", "restaurant"]
                };
                for i in 0..6 {
                    let budget = 150.0 + (i as f64) * 90.0;
                    let k = if i % 3 == 2 { Some(3) } else { None };
                    let request = request_for(keywords, budget, k);
                    let (status, body) = client.post("/query", &request.to_body()).unwrap();
                    assert_eq!(status, 200, "{body}");
                    let response = QueryResponse::from_body(&body).unwrap();

                    let query = LcmsrQuery::new(
                        keywords.iter().map(|s| (*s).to_string()),
                        budget,
                        request.rect,
                    )
                    .unwrap();
                    let algorithm = Algorithm::Tgen(TgenParams { alpha: 1.0 });
                    let mut engine_request = EngineRequest::new(&query, algorithm.clone());
                    if let Some(k) = k {
                        engine_request = engine_request.top_k(k);
                    }
                    let expected: Vec<RegionDto> = engine
                        .execute(&engine_request)
                        .unwrap()
                        .regions
                        .iter()
                        .map(RegionDto::from_region)
                        .collect();
                    assert_eq!(
                        response.regions, expected,
                        "client {t} query {i} (budget {budget}, k {k:?}) diverged"
                    );
                    assert_eq!(response.stats.algorithm, "TGEN");
                    assert!(
                        response.stats.prepare_ns + response.stats.solve_ns
                            <= response.stats.elapsed_ns
                    );
                }
            });
        }
    });

    // Every query flowed through the scheduler as one engine run.
    let metrics = service.metrics();
    let runs = metrics.batches.load(std::sync::atomic::Ordering::Relaxed);
    let queries = metrics
        .batched_queries
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(queries, 36, "every query must flow through the scheduler");
    assert_eq!(runs, 36, "each engine run answers exactly one query");
    service.shutdown();
}

#[test]
fn a_lone_query_on_an_idle_service_does_not_queue() {
    let engine = leaked_city();
    let service = serve_city(engine, BatchConfig::default());
    let mut client = HttpClient::connect(service.addr()).unwrap();
    let (status, body) = client
        .post(
            "/query",
            &request_for(&["restaurant"], 300.0, None).to_body(),
        )
        .unwrap();
    assert_eq!(status, 200);
    let response = QueryResponse::from_body(&body).unwrap();
    // A batching window would hold even a lone query for its full length.
    assert!(
        response.stats.queue_ns < 1_000_000,
        "a lone query on an idle service must start at once, waited {} ns",
        response.stats.queue_ns
    );
    service.shutdown();
}

#[test]
fn malformed_and_invalid_requests_get_clean_400s() {
    let engine = leaked_city();
    let service = serve_city(engine, BatchConfig::default());
    let mut client = HttpClient::connect(service.addr()).unwrap();

    // Garbage JSON.
    let (status, body) = client.post("/query", "this is not json").unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("error"));
    // Valid JSON, wrong shape.
    let (status, _) = client.post("/query", "[1,2,3]").unwrap();
    assert_eq!(status, 400);
    // Missing fields.
    let (status, body) = client.post("/query", r#"{"algorithm":"tgen"}"#).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("keywords"), "{body}");
    // Semantically invalid query (negative budget).
    let (status, _) = client
        .post(
            "/query",
            &request_for(&["restaurant"], -5.0, None).to_body(),
        )
        .unwrap();
    assert_eq!(status, 400);
    // Unknown algorithm.
    let mut bad = request_for(&["restaurant"], 300.0, None);
    bad.algorithm = "quantum".into();
    let (status, body) = client.post("/query", &bad.to_body()).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("quantum"), "{body}");
    // Unknown route and wrong method.
    assert_eq!(client.get("/nope").unwrap().0, 404);
    assert_eq!(client.get("/query").unwrap().0, 405);

    // The connection and the server both survived all of the above.
    let (status, body) = client
        .post(
            "/query",
            &request_for(&["restaurant"], 300.0, None).to_body(),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let errors = service
        .metrics()
        .responses_client_error
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(errors, 5);
    service.shutdown();
}

#[test]
fn oversized_bodies_are_refused() {
    let engine = leaked_city();
    let service = serve_city(engine, BatchConfig::default());
    let mut client = HttpClient::connect(service.addr()).unwrap();
    // 64 KiB limit in the fixture; send ~200 KiB of keywords.
    let mut request = request_for(&["restaurant"], 300.0, None);
    request.keywords = (0..20_000).map(|i| format!("kw{i}")).collect();
    let body = request.to_body();
    assert!(body.len() > 64 * 1024);
    let (status, message) = client.post("/query", &body).unwrap();
    assert_eq!(status, 400, "{message}");
    assert!(message.contains("exceeds"), "{message}");
    service.shutdown();
}

#[test]
fn healthz_and_metrics_expose_service_state() {
    let engine = leaked_city();
    let service = serve_city(engine, BatchConfig::default());
    let mut client = HttpClient::connect(service.addr()).unwrap();

    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let health = lcmsr_service::json::parse(&body).unwrap();
    assert_eq!(
        health.get("status").and_then(|v| v.as_str()),
        Some("ok"),
        "{body}"
    );
    assert_eq!(
        health
            .get("network_nodes")
            .and_then(lcmsr_service::json::Json::as_u64),
        Some(36)
    );
    assert!(health.get("batching").is_none(), "{body}");

    // Run a couple of queries, then check the counters moved.
    for _ in 0..3 {
        let (status, _) = client
            .post("/query", &request_for(&["cafe"], 300.0, Some(2)).to_body())
            .unwrap();
        assert_eq!(status, 200);
    }
    let (status, metrics_text) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    for needle in [
        "lcmsr_requests_total",
        "lcmsr_queries_total 3",
        "lcmsr_responses_ok_total 3",
        "lcmsr_batches_total",
        "lcmsr_queue_depth",
        "lcmsr_latency_count 3",
        "lcmsr_latency_bucket{le=\"+Inf\"} 3",
    ] {
        assert!(
            metrics_text.contains(needle),
            "missing {needle:?} in:\n{metrics_text}"
        );
    }
    service.shutdown();
}

#[test]
fn graceful_shutdown_refuses_new_connections() {
    let engine = leaked_city();
    let service = serve_city(engine, BatchConfig::default());
    let addr = service.addr();
    let mut client = HttpClient::connect(addr).unwrap();
    assert_eq!(client.get("/healthz").unwrap().0, 200);
    service.shutdown();
    // After shutdown the port no longer answers.
    let refused = HttpClient::connect(addr).is_err()
        || HttpClient::connect(addr)
            .and_then(|mut c| c.get("/healthz"))
            .is_err();
    assert!(refused, "server must stop answering after shutdown");
}

#[test]
fn doomed_deadlines_are_shed_with_503_and_retry_after() {
    let engine = leaked_city();
    let service = serve_city(engine, BatchConfig::default());
    let mut client = HttpClient::connect(service.addr()).unwrap();
    // deadline_ms: 0 has expired by the time the scheduler sees it.
    let mut doomed = request_for(&["restaurant"], 300.0, None);
    doomed.deadline_ms = Some(0);
    let response = client.post_full("/query", &doomed.to_body()).unwrap();
    assert_eq!(response.status, 503, "{}", response.body);
    assert_eq!(
        response.header("retry-after"),
        Some("1"),
        "sheds must tell the client when to come back"
    );
    assert!(response.body.contains("deadline"), "{}", response.body);
    assert_eq!(
        service
            .metrics()
            .deadline_shed
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // A generous deadline on the same connection is served completely.
    let mut relaxed = request_for(&["restaurant"], 300.0, None);
    relaxed.deadline_ms = Some(60_000);
    let (status, body) = client.post("/query", &relaxed.to_body()).unwrap();
    assert_eq!(status, 200, "{body}");
    let response = QueryResponse::from_body(&body).unwrap();
    assert!(!response.stats.partial);
    assert_eq!(response.stats.deadline_ns, Some(60_000_000_000));
    service.shutdown();
}

#[test]
fn deadline_expiring_mid_solve_serves_a_partial_answer() {
    let engine = leaked_city();
    let mut tight = slow_exact_request();
    // The query really outlasts its deadline: free-running it takes longer.
    let free_running = direct_run_time(engine, &tight);
    assert!(
        free_running > Duration::from_millis(10),
        "the undeadlined run must outlast a 2 ms deadline by a wide margin, took {free_running:?}"
    );
    let service = serve_city(engine, BatchConfig::default());
    let mut client = HttpClient::connect(service.addr()).unwrap();
    tight.deadline_ms = Some(2);
    let (status, body) = client.post("/query", &tight.to_body()).unwrap();
    assert_eq!(status, 200, "{body}");
    let response = QueryResponse::from_body(&body).unwrap();
    assert!(response.stats.partial, "{body}");
    assert_eq!(
        response.stats.partial_cause.as_deref(),
        Some("deadline_exceeded")
    );
    assert_eq!(response.stats.deadline_ns, Some(2_000_000));
    let metrics = service.metrics();
    assert_eq!(
        metrics.partial.load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // The partial counter is scraped through /metrics too.
    let (status, text) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(text.contains("lcmsr_partial_total 1"), "{text}");
    assert!(text.contains("lcmsr_deadline_shed_total 0"), "{text}");
    service.shutdown();
}

#[test]
fn every_response_carries_a_request_id() {
    let engine = leaked_city();
    let service = serve_city(engine, BatchConfig::default());
    let mut client = HttpClient::connect(service.addr()).unwrap();

    // A well-formed client id is echoed verbatim.
    let response = client
        .post_with_headers(
            "/query",
            &request_for(&["restaurant"], 300.0, None).to_body(),
            &[("X-Request-Id", "client-id-42")],
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(response.header("x-request-id"), Some("client-id-42"));
    // The body stays trace-free: ids live in headers, results on the wire.
    assert!(!response.body.contains("client-id-42"));

    // Without a client id the server generates one (q + 16 hex digits).
    let generated = client
        .post_full(
            "/query",
            &request_for(&["restaurant"], 300.0, None).to_body(),
        )
        .unwrap()
        .header("x-request-id")
        .expect("generated id")
        .to_string();
    assert!(
        generated.starts_with('q') && generated.len() == 17,
        "{generated}"
    );

    // A malformed id (embedded space) is replaced, not echoed.
    let replaced = client
        .post_with_headers(
            "/query",
            &request_for(&["restaurant"], 300.0, None).to_body(),
            &[("X-Request-Id", "bad id with spaces")],
        )
        .unwrap()
        .header("x-request-id")
        .expect("replacement id")
        .to_string();
    assert_ne!(replaced, "bad id with spaces");
    assert!(replaced.starts_with('q'), "{replaced}");

    // Non-query routes — including errors — carry ids too.
    let health = client.get_full("/healthz").unwrap();
    assert!(health.header("x-request-id").is_some());
    let missing = client.get_full("/nope").unwrap();
    assert_eq!(missing.status, 404);
    assert!(missing.header("x-request-id").is_some());
    service.shutdown();
}

#[test]
fn debug_trace_recent_serves_the_sampled_span_tree() {
    use lcmsr_service::json::Json;
    let engine = leaked_city();
    let service = serve_city_with(
        engine,
        BatchConfig::default(),
        DiagnosticsConfig {
            trace_sample: 1, // trace every query
            ..DiagnosticsConfig::default()
        },
    );
    let mut client = HttpClient::connect(service.addr()).unwrap();
    let response = client
        .post_with_headers(
            "/query",
            &request_for(&["restaurant"], 300.0, None).to_body(),
            &[("X-Request-Id", "e2e-trace-1")],
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(response.header("x-request-id"), Some("e2e-trace-1"));

    let (status, body) = client.get("/debug/trace/recent").unwrap();
    assert_eq!(status, 200);
    let entries = lcmsr_service::json::parse(&body).unwrap();
    let entries = entries.as_array().expect("array of traces");
    let entry = entries
        .iter()
        .find(|e| e.get("request_id").and_then(Json::as_str) == Some("e2e-trace-1"))
        .unwrap_or_else(|| panic!("client-sent id must reach the ring: {body}"));
    assert_eq!(
        entry.get("algorithm").and_then(Json::as_str),
        Some("TGEN"),
        "{body}"
    );
    assert_eq!(entry.get("dropped_spans").and_then(Json::as_u64), Some(0));

    // The full span tree: one "query" root whose children include the
    // prepare phase (split into grid_score + graph_build) and the solve
    // phase with at least one solver-internal child span.
    let spans = entry.get("spans").and_then(Json::as_array).expect("spans");
    assert_eq!(spans.len(), 1, "one root span: {body}");
    let root = &spans[0];
    assert_eq!(root.get("label").and_then(Json::as_str), Some("query"));
    let top = root
        .get("children")
        .and_then(Json::as_array)
        .expect("query has children");
    let label_of = |node: &Json| node.get("label").and_then(Json::as_str).map(String::from);
    let prepare = top
        .iter()
        .find(|n| label_of(n).as_deref() == Some("prepare"))
        .expect("prepare span");
    let solve = top
        .iter()
        .find(|n| label_of(n).as_deref() == Some("solve"))
        .expect("solve span");
    let prepare_children: Vec<String> = prepare
        .get("children")
        .and_then(Json::as_array)
        .expect("prepare split")
        .iter()
        .filter_map(label_of)
        .collect();
    assert!(
        prepare_children.contains(&"grid_score".to_string())
            && prepare_children.contains(&"graph_build".to_string()),
        "{prepare_children:?}"
    );
    // The prepare span carries the graph-size attributes.
    let attrs = prepare.get("attrs").expect("prepare attrs");
    assert_eq!(attrs.get("nodes").and_then(Json::as_u64), Some(36));
    let solver_spans = solve
        .get("children")
        .and_then(Json::as_array)
        .expect("solver child spans");
    assert!(
        !solver_spans.is_empty(),
        "the solver must contribute at least one span: {body}"
    );
    // The sampled query is visible in the metrics too.
    let (_, metrics_text) = client.get("/metrics").unwrap();
    assert!(
        metrics_text.contains("lcmsr_traced_queries_total 1"),
        "{metrics_text}"
    );
    service.shutdown();
}

#[test]
fn slow_queries_reach_the_slow_ring() {
    use lcmsr_service::json::Json;
    let engine = leaked_city();
    let service = serve_city_with(
        engine,
        BatchConfig::default(),
        DiagnosticsConfig {
            slow_ms: 0, // disabled: nothing is "slow"
            trace_sample: 0,
        },
    );
    let mut client = HttpClient::connect(service.addr()).unwrap();
    let (status, _) = client
        .post(
            "/query",
            &request_for(&["restaurant"], 300.0, None).to_body(),
        )
        .unwrap();
    assert_eq!(status, 200);
    let (_, body) = client.get("/debug/slow").unwrap();
    assert_eq!(body, "[]", "threshold 0 disables the slow log");
    service.shutdown();

    // Threshold so low every query is slow: the ring fills and the counter moves.
    let service = serve_city_with(
        engine,
        BatchConfig::default(),
        DiagnosticsConfig {
            slow_ms: 1,
            trace_sample: 0,
        },
    );
    // A query that really outlasts the 1 ms threshold.
    let slow = slow_exact_request();
    let free_running = direct_run_time(engine, &slow);
    assert!(
        free_running > Duration::from_millis(1),
        "the query must take longer than the slow threshold, took {free_running:?}"
    );
    let mut client = HttpClient::connect(service.addr()).unwrap();
    let response = client
        .post_with_headers("/query", &slow.to_body(), &[("X-Request-Id", "slow-1")])
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let (status, body) = client.get("/debug/slow").unwrap();
    assert_eq!(status, 200);
    let entries = lcmsr_service::json::parse(&body).unwrap();
    let entries = entries.as_array().expect("array");
    let entry = entries
        .iter()
        .find(|e| e.get("request_id").and_then(Json::as_str) == Some("slow-1"))
        .unwrap_or_else(|| panic!("slow query must be retained: {body}"));
    assert_eq!(entry.get("slow").and_then(Json::as_bool), Some(true));
    assert!(
        entry.get("spans").is_none(),
        "untraced slow queries carry no span tree: {body}"
    );
    let (_, metrics_text) = client.get("/metrics").unwrap();
    assert!(
        metrics_text.contains("lcmsr_slow_queries_total 1"),
        "{metrics_text}"
    );
    service.shutdown();
}

#[test]
fn request_ids_stay_with_concurrent_succeeding_and_failing_requests() {
    use lcmsr_service::json::Json;
    let engine = leaked_city();
    let service = serve_city_with(
        engine,
        BatchConfig::default(),
        DiagnosticsConfig {
            trace_sample: 1,
            ..DiagnosticsConfig::default()
        },
    );
    let addr = service.addr();
    // Two concurrent Exact requests: one covers 4 nodes and succeeds, one
    // covers all 36 (over the solver's 20-node cap) and fails.  Each response
    // must keep its own request id, and only the failure answers 400.
    let (good, bad) = std::thread::scope(|scope| {
        let good = scope.spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            let mut ok = request_for(&["restaurant"], 300.0, None);
            ok.algorithm = "exact".into();
            ok.rect = Rect::new(-50.0, -50.0, 160.0, 160.0);
            client
                .post_with_headers("/query", &ok.to_body(), &[("X-Request-Id", "iso-good")])
                .unwrap()
        });
        let bad = scope.spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            let mut boom = request_for(&["restaurant"], 300.0, None);
            boom.algorithm = "exact".into();
            client
                .post_with_headers("/query", &boom.to_body(), &[("X-Request-Id", "iso-bad")])
                .unwrap()
        });
        (good.join().unwrap(), bad.join().unwrap())
    });
    assert_eq!(good.status, 200, "{}", good.body);
    assert_eq!(good.header("x-request-id"), Some("iso-good"));
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert_eq!(bad.header("x-request-id"), Some("iso-bad"));
    assert!(bad.body.contains("error"), "{}", bad.body);

    // The served query's trace is retained under its own id.
    let mut client = HttpClient::connect(addr).unwrap();
    let (status, body) = client.get("/debug/trace/recent").unwrap();
    assert_eq!(status, 200);
    let entries = lcmsr_service::json::parse(&body).unwrap();
    let ids: Vec<String> = entries
        .as_array()
        .expect("array")
        .iter()
        .filter_map(|e| e.get("request_id").and_then(Json::as_str).map(String::from))
        .collect();
    assert!(ids.contains(&"iso-good".to_string()), "{ids:?}");
    assert!(
        !ids.contains(&"iso-bad".to_string()),
        "failed queries leave no trace: {ids:?}"
    );
    service.shutdown();
}

#[test]
fn interactive_sessions_replay_from_the_response_cache() {
    let engine = leaked_city();
    let service = serve_city(engine, BatchConfig::default());
    let mut client = HttpClient::connect(service.addr()).unwrap();
    let body = request_for(&["restaurant"], 300.0, None).to_body();
    // First interactive query: cache mode on by default, computed cold.
    let (status, cold) = client.post("/query", &body).unwrap();
    assert_eq!(status, 200, "{cold}");
    let cold = QueryResponse::from_body(&cold).unwrap();
    assert!(cold.stats.cache, "interactive lane defaults into the cache");
    assert!(!cold.stats.cache_hit);
    // The identical repeat replays from the response cache, bit-identically.
    let (status, warm) = client.post("/query", &body).unwrap();
    assert_eq!(status, 200, "{warm}");
    let warm = QueryResponse::from_body(&warm).unwrap();
    assert!(warm.stats.cache_hit, "repeat must replay from the cache");
    assert_eq!(warm.regions, cold.regions, "replay must be bit-identical");
    assert_eq!(warm.stats.prepare_ns, 0, "replays skip the prepare phase");
    assert_eq!(warm.stats.solve_ns, 0, "replays skip the solver");
    // An explicit opt-out computes cold again and still agrees.
    let mut uncached = request_for(&["restaurant"], 300.0, None);
    uncached.cache = Some(false);
    let (status, off) = client.post("/query", &uncached.to_body()).unwrap();
    assert_eq!(status, 200, "{off}");
    let off = QueryResponse::from_body(&off).unwrap();
    assert!(!off.stats.cache && !off.stats.cache_hit);
    assert_eq!(off.regions, cold.regions);
    // The batch lane defaults out of the cache.
    let mut bulk = request_for(&["restaurant"], 300.0, None);
    bulk.priority = Some("batch".into());
    let (status, bulk_body) = client.post("/query", &bulk.to_body()).unwrap();
    assert_eq!(status, 200, "{bulk_body}");
    assert!(!QueryResponse::from_body(&bulk_body).unwrap().stats.cache);
    // The hit/miss counters surface through /metrics.
    let (_, text) = client.get("/metrics").unwrap();
    assert!(text.contains("lcmsr_cache_hits_total 1"), "{text}");
    assert!(text.contains("lcmsr_cache_misses_total 1"), "{text}");
    assert!(text.contains("lcmsr_cache_stale_total 0"), "{text}");
    service.shutdown();
}

#[test]
fn batch_priority_requests_are_served() {
    let engine = leaked_city();
    let service = serve_city(engine, BatchConfig::default());
    let mut client = HttpClient::connect(service.addr()).unwrap();
    let mut bulk = request_for(&["restaurant"], 300.0, None);
    bulk.priority = Some("batch".into());
    let (status, body) = client.post("/query", &bulk.to_body()).unwrap();
    assert_eq!(status, 200, "{body}");
    // An unknown lane is a clean 400.
    let mut bad = request_for(&["restaurant"], 300.0, None);
    bad.priority = Some("urgent".into());
    let (status, body) = client.post("/query", &bad.to_body()).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("priority"), "{body}");
    service.shutdown();
}

#[test]
fn a_parked_interactive_request_runs_before_an_earlier_parked_batch_request() {
    let engine = leaked_city();
    let service = serve_city(
        engine,
        BatchConfig {
            batch_workers: 1,
            ..BatchConfig::default()
        },
    );
    let addr = service.addr();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        // A free-running 20-node Exact request holds the one permit.
        let holder = scope.spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            let (status, body) = client
                .post("/query", &slowest_exact_request().to_body())
                .unwrap();
            assert_eq!(status, 200, "{body}");
        });
        let queries = &service.metrics().queries;
        while queries.load(std::sync::atomic::Ordering::Relaxed) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Park a batch request, then an interactive one, behind the holder.
        let mut health = HttpClient::connect(addr).unwrap();
        for (lane, parked) in [("batch", 1), ("interactive", 2)] {
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                let mut request = slow_exact_request();
                request.priority = Some(lane.into());
                let mut client = HttpClient::connect(addr).unwrap();
                let (status, body) = client.post("/query", &request.to_body()).unwrap();
                assert_eq!(status, 200, "{body}");
                done_tx.send(lane).unwrap();
            });
            while queue_depth(&mut health) < parked {
                assert!(
                    !holder.is_finished(),
                    "the permit holder finished before the {lane} request parked"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    });
    drop(done_tx);
    // The permit goes to the interactive lane first; each parked request
    // runs a 16-node Exact, so the first answer arrives long before the
    // second request finishes.
    let order: Vec<&str> = done_rx.iter().collect();
    assert_eq!(order, ["interactive", "batch"]);
    service.shutdown();
}
