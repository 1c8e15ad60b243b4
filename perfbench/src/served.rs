//! The `served_sessions` workload: an open loop over loopback HTTP against
//! `lcmsr_service::serve`, configured as the `experiments serve` command
//! deploys it by default.
//!
//! Independent simulated users send seeded Poisson arrivals: interactive
//! TGEN exploration-session steps with the response cache on, and one in
//! [`inputs::SERVED_BATCH_EVERY`] a batch-lane APP top-3 sweep with the cache
//! off.  A thread of the benchmark's own bumps the dataset epoch every
//! [`inputs::SERVED_EPOCH_EVERY_S`], turning later revisits into stale
//! recomputes.  Latency runs from when a request was due, so a stalled
//! server delays the requests behind it too.  A run replays one seeded
//! schedule in passes, each from an empty response cache, and an arrival's
//! latency is its fastest pass, scaled by the machine-speed gauge.  After
//! the window, every `200` answer is checked against a direct engine's
//! answer to the same body.

use crate::direct::SETUP_GAUGE_ROUNDS;
use crate::gauge::{self, Gauge};
use crate::inputs::{self, Arrival, Pool};
use crate::report::{self, RunResult};
use crate::stats;
use lcmsr_core::engine::{LcmsrEngine, QueryRequest};
use lcmsr_datagen::{Dataset, NetworkScale};
use lcmsr_service::http::ServerConfig;
use lcmsr_service::{
    api, leak_engine, serve, BatchConfig, DiagnosticsConfig, HttpClient, ServiceConfig,
    ServiceHandle, ServiceMetrics,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Set-ups per run (dataset, engine, server, connections); `setup_s` is
/// their median.  `serve` needs a `'static` engine, so every set-up leaks
/// its tiny dataset (~0.4 MiB, inside `peak_rss_mib`); hence fewer repeats
/// than `solve_tiny`.
const SETUP_REPEATS: usize = 9;

/// An answer is scaled by the gauge rounds taken within this many seconds
/// of when it was due.
const GAUGE_NEAR_S: f64 = 1.0;

/// Batch-lane requests (cache off) answered before the window opens, so
/// the server's workspaces and allocator have grown while the response
/// cache stays empty.
const WARMUP_REQUESTS: usize = 16;

/// Client threads, each with one keep-alive connection: at most the
/// machine's CPU count, and at most two.
fn client_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The configuration `experiments serve` runs with when given no flags.
fn service_config() -> ServiceConfig {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    ServiceConfig {
        server: ServerConfig {
            http_workers: (workers * 4).max(8),
            ..ServerConfig::default()
        },
        batch: BatchConfig::default(),
        diagnostics: DiagnosticsConfig::default(),
    }
}

struct Served {
    engine: &'static LcmsrEngine<'static>,
    handle: ServiceHandle,
    clients: Vec<HttpClient>,
}

/// Everything before the first query can be sent: dataset generation, the
/// index build, engine construction, server start and the connections.
fn set_up_once() -> Result<Served, String> {
    let dataset = Dataset::build(inputs::dataset_config(NetworkScale::Tiny));
    let engine = leak_engine(dataset.network, dataset.collection);
    let handle = serve(engine, service_config()).map_err(|e| format!("serve failed: {e}"))?;
    let clients = (0..client_count())
        .map(|_| HttpClient::connect(handle.addr()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot connect to the server: {e}"))?;
    Ok(Served {
        engine,
        handle,
        clients,
    })
}

/// What one request left behind.
struct Sample {
    /// `Err` when the connection failed.
    response: Result<(u16, String), String>,
    /// Due → answered, milliseconds (the open-loop latency).
    latency_ms: f64,
    /// Sent → answered, microseconds (the client-observed service time).
    service_us: f64,
    /// Sent − due, milliseconds: how late the generator ran.
    late_ms: f64,
    /// Time the traced client spent decoding the response's stats inline,
    /// microseconds (0 untraced).
    trace_us: f64,
    /// The decoded response (traced runs decode inline).
    decoded: Option<api::QueryResponse>,
}

/// Counter snapshot of the fields the workload reads.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    shed: u64,
    batches: u64,
    batched_queries: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_stale: u64,
    delta_prepares: u64,
}

impl Counters {
    fn read(m: &ServiceMetrics) -> Self {
        let l = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        Counters {
            shed: l(&m.shed) + l(&m.deadline_shed),
            batches: l(&m.batches),
            batched_queries: l(&m.batched_queries),
            cache_hits: l(&m.cache_hits),
            cache_misses: l(&m.cache_misses),
            cache_stale: l(&m.cache_stale),
            delta_prepares: l(&m.delta_prepares),
        }
    }

    fn since(self, before: Counters) -> Self {
        Counters {
            shed: self.shed - before.shed,
            batches: self.batches - before.batches,
            batched_queries: self.batched_queries - before.batched_queries,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            cache_stale: self.cache_stale - before.cache_stale,
            delta_prepares: self.delta_prepares - before.delta_prepares,
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<Served> = None;
    let mut setup_gauge = Gauge::default();
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = kept.take() {
            drop(old.clients);
            old.handle.shutdown();
        }
        setup_gauge.rounds_of(SETUP_GAUGE_ROUNDS);
        let start = Instant::now();
        let served = set_up_once()?;
        setup_times.push(start.elapsed().as_secs_f64());
        kept = Some(served);
    }
    setup_gauge.rounds_of(SETUP_GAUGE_ROUNDS);
    let Served {
        engine,
        handle,
        mut clients,
    } = kept.expect("at least one set-up ran");
    let mut result = RunResult::default();

    // Inputs: the fixed pool (from an identical, separately built dataset)
    // and this seed's sessions and arrival times.
    let build_start = Instant::now();
    let pool_dataset = Dataset::build(inputs::dataset_config(NetworkScale::Tiny));
    let build_s = build_start.elapsed().as_secs_f64();
    if trace {
        crate::direct::time_setup_layers(&pool_dataset, build_s, &mut result);
    }
    let pool = inputs::query_pool(&pool_dataset, inputs::SERVED_POOL_SIZE);
    let bounds = pool_dataset
        .network
        .bounding_rect()
        .ok_or("the network has no nodes")?;
    let schedule = inputs::served_schedule(&pool, &bounds, seed, inputs::SERVED_RATE_QPS);
    let passes = inputs::served_passes(seconds);
    warm_up(&mut clients[0], &pool)?;

    let before = Counters::read(handle.metrics());
    let mut pass_results = Vec::with_capacity(passes);
    for _ in 0..passes {
        // Every pass starts from an empty response cache, as the first does.
        engine.response_cache().clear();
        pass_results.push(drive(engine, &mut clients, &schedule, trace));
    }
    let window_s: f64 = pass_results.iter().map(|p| p.window_s).sum();
    let bumps: u64 = pass_results.iter().map(|p| p.bumps).sum();
    let counters = Counters::read(handle.metrics()).since(before);
    let cache_bytes = engine.response_cache().bytes();
    drop(clients);
    handle.shutdown();

    let direct = LcmsrEngine::new(engine.network(), engine.collection());
    let checked = check_answers(&direct, &schedule, pass_results)?;
    let summary = stats::latency_summary(&checked.best_ms, checked.failed_arrivals);
    result.attempted = (schedule.len() * passes) as u64;
    result.failed = checked.failed as u64;
    result.samples = summary.samples;
    if trace {
        layer_metrics(&checked, &counters, cache_bytes, &mut result);
    } else {
        result.set("setup_s", stats::median(&setup_times) * setup_gauge.scale());
        result.set("latency_p50_ms", summary.p50);
        result.set("latency_p99_ms", summary.p99);
        result.set("throughput_qps", checked.answers.len() as f64 / window_s);
        result.set("peak_rss_mib", report::peak_rss_mib()?);
    }
    result.notes.push(format!(
        "setup_s over {} set-ups, unscaled: {setup_times:?}; gauge scale {:.4}",
        setup_times.len(),
        setup_gauge.scale()
    ));
    result.notes.push(format!(
        "gauge scale {:.4?} in the passes; unscaled p99 of each pass {:.3?} ms",
        checked.pass_scales, checked.pass_p99_ms
    ));
    result.notes.push(format!(
        "offered {} req/s: {passes} passes of {} arrivals ({} batch lane) in {window_s:.1} s, {} clients, {bumps} epoch bumps",
        inputs::SERVED_RATE_QPS,
        schedule.len(),
        schedule.iter().filter(|a| a.batch).count(),
        client_count(),
    ));
    let service_ms = |batch: bool| -> Vec<f64> {
        checked
            .answers
            .iter()
            .filter(|(a, _, _)| a.batch == batch)
            .map(|(_, s, _)| s.service_us / 1e3)
            .collect()
    };
    let (interactive, batch) = (service_ms(false), service_ms(true));
    result.notes.push(format!(
        "sent-to-answered ms: interactive p50 {:.3} p99 {:.3}; batch lane p50 {:.3} p99 {:.3}",
        stats::percentile(&interactive, 0.5),
        stats::percentile(&interactive, 0.99),
        stats::percentile(&batch, 0.5),
        stats::percentile(&batch, 0.99),
    ));
    result.notes.push(format!(
        "cache: {} hits, {} misses, {} stale, {} delta prepares; {} batches for {} queries; {} distinct bodies checked",
        counters.cache_hits,
        counters.cache_misses,
        counters.cache_stale,
        counters.delta_prepares,
        counters.batches,
        counters.batched_queries,
        checked.distinct_bodies,
    ));
    Ok(result)
}

/// Sends the [`WARMUP_REQUESTS`] before the window opens.
fn warm_up(client: &mut HttpClient, pool: &Pool) -> Result<(), String> {
    for q in pool.queries.iter().take(WARMUP_REQUESTS) {
        let body = inputs::body(q.keywords.clone(), q.region_of_interest, q.delta, true);
        let (status, reply) = client
            .post("/query", &body)
            .map_err(|e| format!("warm-up request failed: {e}"))?;
        if status != 200 {
            return Err(format!("warm-up request answered {status}: {reply}"));
        }
    }
    Ok(())
}

/// One pass of the schedule.
struct Pass {
    /// The samples in schedule order.
    samples: Vec<Sample>,
    /// First due time to last answer, seconds.
    window_s: f64,
    /// Epoch bumps during the pass.
    bumps: u64,
    /// Gauge rounds: `(seconds after the window opened, round seconds)`.
    gauge_rounds: Vec<(f64, f64)>,
}

/// Runs the open loop: client threads take arrivals in order, wait until
/// each is due, send it and time it, while one more thread bumps the
/// dataset epoch on schedule and another takes a gauge round every
/// [`gauge::INTERVAL`] (about 2% of one CPU).
fn drive(
    engine: &'static LcmsrEngine<'static>,
    clients: &mut [HttpClient],
    schedule: &[Arrival],
    trace: bool,
) -> Pass {
    // Open the window a little ahead so every thread is parked on its
    // first wait when it does.
    let start = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let (gauge_stop_tx, gauge_stop_rx) = mpsc::channel::<()>();
    let mut slots: Vec<Option<Sample>> = Vec::new();
    slots.resize_with(schedule.len(), || None);
    let mut last_answer = start;
    let mut bumps = 0u64;
    let mut gauge_rounds = Vec::new();
    std::thread::scope(|scope| {
        let bumper = scope.spawn(move || {
            let every = Duration::from_secs_f64(inputs::SERVED_EPOCH_EVERY_S);
            let mut bumps = 0u64;
            loop {
                let due = start + every * (bumps as u32 + 1);
                let wait = due.saturating_duration_since(Instant::now());
                match stop_rx.recv_timeout(wait) {
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        engine.bump_dataset_epoch();
                        bumps += 1;
                    }
                    _ => return bumps,
                }
            }
        });
        let gauge_thread = scope.spawn(move || {
            let mut gauge = Gauge::default();
            let mut rounds = Vec::new();
            while let Err(mpsc::RecvTimeoutError::Timeout) =
                gauge_stop_rx.recv_timeout(gauge::INTERVAL)
            {
                let at = Instant::now();
                let round_s = gauge.round();
                let offset = at.saturating_duration_since(start).as_secs_f64();
                rounds.push((offset + round_s / 2.0, round_s));
            }
            rounds
        });
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(arrival) = schedule.get(i) else {
                            return done;
                        };
                        let due = start + Duration::from_secs_f64(arrival.due_s);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let response = client
                            .post("/query", &arrival.body)
                            .map_err(|e| e.to_string());
                        let answered = Instant::now();
                        let (decoded, trace_us) = match (&response, trace) {
                            (Ok((200, body)), true) => {
                                let t = Instant::now();
                                let decoded = api::QueryResponse::from_body(body).ok();
                                (decoded, t.elapsed().as_secs_f64() * 1e6)
                            }
                            _ => (None, 0.0),
                        };
                        done.push((
                            i,
                            answered,
                            Sample {
                                response,
                                latency_ms: (answered - due).as_secs_f64() * 1e3,
                                service_us: (answered - sent).as_secs_f64() * 1e6,
                                late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                                trace_us,
                                decoded,
                            },
                        ));
                    }
                })
            })
            .collect();
        for worker in workers {
            for (i, answered, sample) in worker.join().expect("client thread panicked") {
                last_answer = last_answer.max(answered);
                slots[i] = Some(sample);
            }
        }
        drop(stop_tx);
        drop(gauge_stop_tx);
        bumps = bumper.join().expect("epoch thread panicked");
        gauge_rounds = gauge_thread.join().expect("gauge thread panicked");
    });
    Pass {
        samples: slots
            .into_iter()
            .map(|s| s.expect("every arrival was sent"))
            .collect(),
        window_s: (last_answer - start).as_secs_f64(),
        bumps,
        gauge_rounds,
    }
}

/// The answered requests of every pass, verified.
struct Checked {
    /// Each arrival's fastest answer over the passes, ms, for the arrivals
    /// answered in every pass.
    best_ms: Vec<f64>,
    /// Arrivals that failed in some pass; they miss every percentile.
    failed_arrivals: usize,
    /// Failed sends over all passes.
    failed: usize,
    distinct_bodies: usize,
    /// `(arrival, sample, decoded response)` of every verified answer.
    answers: Vec<(Arrival, Sample, api::QueryResponse)>,
    /// Each pass's p99 latency as measured (unscaled, failures not ranked).
    pass_p99_ms: Vec<f64>,
    /// Each pass's gauge scale over all its rounds.
    pass_scales: Vec<f64>,
}

/// Checks every `200` answer against a direct engine's answer to the same
/// body (cache off, cold), bit for bit — cache hits, delta prepares and
/// stale recomputes included.  Refusals, errors and partial answers count
/// as failed; a wrong answer fails the run.
///
/// An answer's latency is scaled by the gauge rounds taken within
/// [`GAUGE_NEAR_S`] of when it was due (see `gauge`), except for its wait
/// on the micro-batch window: that is a timer, not
/// work, and the first `max_delay` of the wire `queue_ns` counts as
/// measured.  Everything else — the engine's time, HTTP and JSON, and waits
/// behind other requests' work — runs at the machine's speed.  An arrival's latency is its fastest pass:
/// every pass replays the same schedule, so the best of them measures the
/// program rather than the machine's slowest phase.
fn check_answers(
    direct: &LcmsrEngine<'_>,
    schedule: &[Arrival],
    passes: Vec<Pass>,
) -> Result<Checked, String> {
    let mut expected: HashMap<&str, u64> = HashMap::new();
    let mut best_ms = vec![f64::INFINITY; schedule.len()];
    let mut failed_once = vec![false; schedule.len()];
    let mut failed = 0;
    let mut answers = Vec::with_capacity(schedule.len() * passes.len());
    let mut pass_p99_ms = Vec::with_capacity(passes.len());
    let window_ms = service_config().batch.max_delay.as_secs_f64() * 1e3;
    let mut pass_scales = Vec::with_capacity(passes.len());
    for pass in passes {
        let raw_ms: Vec<f64> = pass.samples.iter().map(|s| s.latency_ms).collect();
        pass_p99_ms.push(stats::percentile(&raw_ms, 0.99));
        pass_scales.push(gauge::scale_near(&pass.gauge_rounds, 0.0, f64::INFINITY));
        let samples = pass.samples;
        for (i, (arrival, mut sample)) in schedule.iter().zip(samples).enumerate() {
            let Ok((200, body)) = &sample.response else {
                failed += 1;
                failed_once[i] = true;
                continue;
            };
            let response = match sample.decoded.take() {
                Some(r) => r,
                None => api::QueryResponse::from_body(body)
                    .map_err(|e| format!("undecodable 200 answer: {e}"))?,
            };
            if response.stats.partial {
                failed += 1;
                failed_once[i] = true;
                continue;
            }
            let want = match expected.get(arrival.body.as_str()) {
                Some(&d) => d,
                None => {
                    let d = direct_digest(direct, &arrival.body)?;
                    expected.insert(&arrival.body, d);
                    d
                }
            };
            let got = inputs::digest_dtos(&response.regions);
            if got != want {
                return Err(format!(
                    "served answer {got:016x} differs from the direct engine's {want:016x} for {}",
                    arrival.body
                ));
            }
            let timer_ms = (response.stats.queue_ns as f64 / 1e6).min(window_ms);
            let scale = gauge::scale_near(&pass.gauge_rounds, arrival.due_s, GAUGE_NEAR_S);
            let latency_ms = timer_ms + (sample.latency_ms - timer_ms) * scale;
            best_ms[i] = best_ms[i].min(latency_ms);
            answers.push((arrival.clone(), sample, response));
        }
    }
    let best_ms: Vec<f64> = best_ms
        .into_iter()
        .zip(&failed_once)
        .filter(|&(_, &f)| !f)
        .map(|(ms, _)| ms)
        .collect();
    Ok(Checked {
        failed_arrivals: schedule.len() - best_ms.len(),
        best_ms,
        failed,
        distinct_bodies: expected.len(),
        answers,
        pass_p99_ms,
        pass_scales,
    })
}

/// The direct engine's answer digest for a request body.
fn direct_digest(engine: &LcmsrEngine<'_>, body: &str) -> Result<u64, String> {
    let bad = |e: api::ApiError| format!("workload body does not decode: {e}");
    let decoded = api::QueryRequest::from_body(body).map_err(bad)?;
    let query = decoded.to_query().map_err(bad)?;
    let mut request = QueryRequest::new(&query, decoded.to_algorithm().map_err(bad)?);
    if let Some(k) = decoded.k {
        request = request.top_k(k);
    }
    let outcome = engine
        .execute(&request)
        .map_err(|e| format!("direct engine failed on {body}: {e}"))?;
    Ok(inputs::digest_regions(&outcome.regions))
}

/// Median time per call of `f` over `items`, across a few passes.
fn time_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for item in items {
                f(item);
            }
            t.elapsed().as_secs_f64() * 1e6 / items.len() as f64
        })
        .collect();
    stats::median(&passes)
}

/// The per-layer table from client timers, wire stats and counters.
fn layer_metrics(checked: &Checked, c: &Counters, cache_bytes: usize, result: &mut RunResult) {
    let answers = &checked.answers;
    let us = |ns: u64| ns as f64 / 1e3;
    let mean_of = |pred: &dyn Fn(&api::StatsDto) -> bool, f: &dyn Fn(&api::StatsDto) -> f64| {
        let v: Vec<f64> = answers
            .iter()
            .map(|(_, _, r)| &r.stats)
            .filter(|s| pred(s))
            .map(f)
            .collect();
        stats::mean(&v)
    };
    let prepared = |s: &api::StatsDto| !s.cache_hit;
    let cold = |s: &api::StatsDto| !s.cache_hit && !s.delta_prepare;
    let tgen = |s: &api::StatsDto| !s.cache_hit && s.algorithm == "TGEN";
    let app = |s: &api::StatsDto| !s.cache_hit && s.algorithm == "APP";
    result.set(
        "geotext.grid_score_us",
        mean_of(&cold, &|s| us(s.grid_score_ns)),
    );
    result.set(
        "geotext.weighted_nodes",
        mean_of(&prepared, &|s| s.relevant_nodes as f64),
    );
    result.set(
        "roadnet.nodes_in_view",
        mean_of(&prepared, &|s| s.nodes_in_region as f64),
    );
    result.set(
        "query_graph.build_us",
        mean_of(&prepared, &|s| us(s.graph_build_ns)),
    );
    result.set(
        "query_graph.edges",
        mean_of(&prepared, &|s| s.edges_in_region as f64),
    );
    result.set("tgen.solve_us", mean_of(&tgen, &|s| us(s.solve_ns)));
    result.set(
        "tgen.tuples_generated",
        mean_of(&tgen, &|s| s.tuples_generated as f64),
    );
    result.set(
        "tgen.pruned_pairs",
        mean_of(&tgen, &|s| s.pruned_pairs as f64),
    );
    let kept = mean_of(&tgen, &|s| s.frontier_tuples as f64);
    let generated = mean_of(&tgen, &|s| s.tuples_generated as f64);
    result.set(
        "tgen.kept_ratio",
        if generated > 0.0 {
            kept / generated
        } else {
            0.0
        },
    );
    result.set("app.solve_us", mean_of(&app, &|s| us(s.solve_ns)));
    result.set("app.kmst_calls", mean_of(&app, &|s| s.kmst_calls as f64));
    result.set(
        "app.dp_tuples",
        mean_of(&app, &|s| s.tuples_generated as f64),
    );
    result.set(
        "tuple_array.frontier_peak",
        mean_of(&prepared, &|s| s.frontier_peak as f64),
    );
    result.set(
        "tuple_array.dominance_evictions",
        mean_of(&prepared, &|s| s.dominance_evictions as f64),
    );

    let lookups = c.cache_hits + c.cache_misses + c.cache_stale;
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    result.set("cache.hit_ratio", ratio(c.cache_hits, lookups));
    result.set("cache.stale", c.cache_stale as f64);
    let hit_us: Vec<f64> = answers
        .iter()
        .filter(|(_, _, r)| r.stats.cache_hit)
        .map(|(_, _, r)| us(r.stats.elapsed_ns))
        .collect();
    result.set("cache.hit_us", stats::median(&hit_us));
    result.set("cache.bytes", cache_bytes as f64);
    result.set(
        "engine.delta_prepare_ratio",
        ratio(c.delta_prepares, c.cache_misses + c.cache_stale),
    );
    result.set(
        "engine.grid_score_delta_us",
        mean_of(&|s| s.delta_prepare, &|s| us(s.grid_score_ns)),
    );

    // The JSON layer, timed on this run's own bodies off the request path.
    let bodies: Vec<&str> = answers.iter().map(|(a, _, _)| a.body.as_str()).collect();
    result.set(
        "json.decode_us",
        time_per_item(&bodies, |b| {
            black_box(api::QueryRequest::from_body(b).ok());
        }),
    );
    let responses: Vec<&api::QueryResponse> = answers.iter().map(|(_, _, r)| r).collect();
    result.set(
        "json.encode_us",
        time_per_item(&responses, |r| {
            black_box(r.to_body());
        }),
    );
    let sizes: Vec<f64> = answers
        .iter()
        .filter_map(|(_, s, _)| s.response.as_ref().ok().map(|(_, b)| b.len() as f64))
        .collect();
    result.set("json.response_bytes", stats::mean(&sizes));

    let overhead: Vec<f64> = answers
        .iter()
        .map(|(_, s, r)| s.service_us - us(r.stats.queue_ns) - us(r.stats.elapsed_ns))
        .collect();
    result.set("http.overhead_p50_us", stats::percentile(&overhead, 0.5));
    result.set("http.overhead_p99_us", stats::percentile(&overhead, 0.99));
    let queue: Vec<f64> = answers
        .iter()
        .map(|(_, _, r)| us(r.stats.queue_ns))
        .collect();
    result.set(
        "scheduler.queue_wait_p50_us",
        stats::percentile(&queue, 0.5),
    );
    result.set(
        "scheduler.queue_wait_p99_us",
        stats::percentile(&queue, 0.99),
    );
    result.set(
        "scheduler.mean_batch_size",
        ratio(c.batched_queries, c.batches),
    );
    result.set("scheduler.shed", c.shed as f64);
    let late: Vec<f64> = answers.iter().map(|(_, s, _)| s.late_ms).collect();
    result.set("loadgen.late_ms_p99", stats::percentile(&late, 0.99));

    // Tracing here is the inline decode of each answer's wire stats on the
    // client; its cost is the client time it adds to each request.
    let service: f64 = answers.iter().map(|(_, s, _)| s.service_us).sum();
    let traced: f64 = answers.iter().map(|(_, s, _)| s.trace_us).sum();
    result.set(
        "trace.overhead_ratio",
        (service + traced) / service.max(1e-9),
    );
    // Share of the client-observed time the named layers account for:
    // queue wait, grid score, graph build, solve and the HTTP/JSON overhead.
    // The rest is the engine's own bookkeeping and cache lookups.
    let attributed: f64 = answers
        .iter()
        .map(|(_, s, r)| {
            let st = &r.stats;
            let http = s.service_us - us(st.queue_ns) - us(st.elapsed_ns);
            http + us(st.queue_ns) + us(st.grid_score_ns) + us(st.graph_build_ns) + us(st.solve_ns)
        })
        .sum();
    result.set("trace.coverage_ratio", attributed / service.max(1e-9));
}
