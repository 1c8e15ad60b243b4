//! Service-throughput benchmark: N closed-loop client threads drive a live
//! `lcmsr_service` server in its default configuration over loopback HTTP.
//! Every served region is checked against a direct `engine.execute` of the
//! same request body, and a mismatch fails the run.
//!
//! It writes throughput and client-observed p50/p99 latency to
//! `BENCH_service.json` (see [`lcmsr_bench::harness`] for the environment it
//! reads).  Throughput is the fastest measured round; the latency
//! percentiles pool every measured request.

use lcmsr_bench::harness::{percentile, Report};
use lcmsr_bench::*;
use lcmsr_core::engine::{LcmsrEngine, QueryRequest as EngineRequest};
use lcmsr_service::http::ServerConfig;
use lcmsr_service::{
    leak_engine, serve, HttpClient, QueryRequest, QueryResponse, RegionDto, ServiceConfig,
};
use std::time::{Duration, Instant};

/// Closed-loop client threads.
const CLIENTS: usize = 8;
/// Requests per client per round.
const REQUESTS: usize = 8;
/// Measured rounds, after one warm-up round.
const ROUNDS: usize = 2;

/// The regions a direct engine call returns for a wire request body.
fn direct_regions(engine: &LcmsrEngine<'_>, body: &str) -> Vec<RegionDto> {
    let wire = QueryRequest::from_body(body).expect("valid body");
    let query = wire.to_query().expect("valid query");
    let mut request = EngineRequest::new(&query, wire.to_algorithm().expect("valid algorithm"));
    if let Some(k) = wire.k {
        request = request.top_k(k);
    }
    engine
        .execute(&request)
        .expect("direct run")
        .regions
        .iter()
        .map(RegionDto::from_region)
        .collect()
}

/// Runs one closed-loop round: `clients` threads, each issuing `requests`
/// requests over a keep-alive connection and checking every answer against
/// `expected`.  Returns the round's wall-clock time and every request's
/// client-observed latency.
fn drive(
    addr: std::net::SocketAddr,
    bodies: &[String],
    expected: &[Vec<RegionDto>],
    clients: usize,
    requests: usize,
) -> (Duration, Vec<Duration>) {
    let start = Instant::now();
    let latencies = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let mut latencies = Vec::with_capacity(requests);
                    for r in 0..requests {
                        let i = (c + r) % bodies.len();
                        let sent = Instant::now();
                        let (status, response) =
                            client.post("/query", &bodies[i]).expect("request");
                        latencies.push(sent.elapsed());
                        assert_eq!(status, 200, "{response}");
                        let parsed = QueryResponse::from_body(&response).expect("valid response");
                        assert_eq!(
                            parsed.regions, expected[i],
                            "served regions differ from the direct engine's for {}",
                            bodies[i]
                        );
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    (start.elapsed(), latencies)
}

fn main() {
    let scale = scale_from_env();
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let dataset = ny_dataset(scale);
    let params = dataset.default_query_params(777);
    let queries = make_workload(
        &dataset,
        8,
        params.num_keywords,
        params.area_km2,
        params.delta_km,
        777,
    );
    let alpha = default_tgen_alpha(&dataset, &queries);
    let bodies: Vec<String> = queries
        .iter()
        .map(|q| {
            QueryRequest {
                algorithm: "tgen".into(),
                keywords: q.keywords.clone(),
                rect: q.region_of_interest,
                budget: q.delta,
                k: None,
                alpha: Some(alpha),
                beta: None,
                mu: None,
                deadline_ms: None,
                priority: None,
                cache: None,
            }
            .to_body()
        })
        .collect();
    let engine = leak_engine(dataset.network, dataset.collection);
    let expected: Vec<Vec<RegionDto>> = bodies.iter().map(|b| direct_regions(engine, b)).collect();

    // The default service, with enough HTTP workers that every client's
    // keep-alive connection is served at once.
    let defaults = ServerConfig::default();
    let service = serve(
        engine,
        ServiceConfig {
            server: ServerConfig {
                http_workers: CLIENTS.max(defaults.http_workers),
                ..defaults
            },
            ..ServiceConfig::default()
        },
    )
    .expect("service must start");
    let permits = ServiceConfig::default().batch.batch_workers;

    let _warmup = drive(service.addr(), &bodies, &expected, CLIENTS, 1);
    let mut best_round = Duration::MAX;
    let mut latencies = Vec::with_capacity(ROUNDS * CLIENTS * REQUESTS);
    for _ in 0..ROUNDS {
        let (round, round_latencies) = drive(service.addr(), &bodies, &expected, CLIENTS, REQUESTS);
        best_round = best_round.min(round);
        latencies.extend(round_latencies);
    }
    service.shutdown();
    latencies.sort_unstable();

    // The warm-up round sends one request per client; every answer is checked.
    let checked = CLIENTS + latencies.len();
    let qps = (CLIENTS * REQUESTS) as f64 / best_round.as_secs_f64().max(1e-12);
    let p50_us = percentile(&latencies, 0.50).as_micros() as u64;
    let p99_us = percentile(&latencies, 0.99).as_micros() as u64;
    println!(
        "service_throughput (scale {scale:?}, {CLIENTS} clients x {REQUESTS} reqs x {ROUNDS} rounds, {permits} permits, {cpus} CPUs)"
    );
    println!(
        "  best round : {:>9.1} ms  ({qps:.1} q/s)",
        best_round.as_secs_f64() * 1e3
    );
    println!("  latency    : p50 {p50_us} µs   p99 {p99_us} µs");
    println!("  checked    : {checked} answers identical to direct engine calls");

    Report::new("service_throughput", "service", scale)
        .field("clients", CLIENTS)
        .field("requests_per_client", REQUESTS)
        .field("rounds", ROUNDS)
        .field("permits", permits)
        .field("cpus", cpus)
        .field("best_round_ms", best_round.as_secs_f64() * 1e3)
        .field("throughput_qps", qps)
        .field("latency_p50_us", p50_us)
        .field("latency_p99_us", p99_us)
        .field("answers_checked", checked)
        .write();
}
