//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 7) on the synthetic NY-like / USANW-like data sets.
//!
//! Usage:
//!
//! ```text
//! cargo run -p lcmsr-bench --release --bin experiments -- all
//! cargo run -p lcmsr-bench --release --bin experiments -- fig7_8 fig15
//! LCMSR_SCALE=small LCMSR_QUERIES=20 cargo run -p lcmsr-bench --release --bin experiments -- all
//! cargo run -p lcmsr-bench --release --bin experiments -- serve --addr 127.0.0.1:7878
//! ```
//!
//! Available experiment ids: `table1`, `fig7_8`, `fig9_10`, `fig11_12`,
//! `fig13_14`, `fig15`, `fig16`, `fig17_19`, `sec7_5`, `fig21_22`, `all` —
//! plus `serve`, which starts the `lcmsr_service` HTTP front-end over the
//! synthetic NY dataset (flags: `--addr`, `--queue-capacity`,
//! `--http-workers` for the most connections served at once, `--slow-ms`
//! for the slow-query threshold and `--trace-sample` for 1-in-N span
//! tracing; any other argument refuses to start with exit code 2), and
//! `dump`, which renders the bit-exact golden-region snapshot (`--out FILE`,
//! default stdout) that `tests/golden/` pins.  Engine worker counts honour
//! `--workers N` / `LCMSR_WORKERS` everywhere they apply (the `table1`
//! batched-workload line and the serve scheduler alike), and the dataset
//! scale honours `--scale NAME` / `LCMSR_SCALE`
//! (`tiny` | `small` | `medium` | `large` | `huge`); malformed values for
//! either are reported on stderr instead of silently defaulting.  Every
//! flag takes `--flag VALUE` or `--flag=VALUE`; the last occurrence wins.

use lcmsr_bench::*;
use lcmsr_core::app::run_app;
use lcmsr_core::prelude::*;
use lcmsr_datagen::prelude::*;
use lcmsr_roadnet::geo::Rect;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let workers = take_workers_flag(&mut args).unwrap_or_else(workers_from_env);
    let scale = take_scale_flag(&mut args).unwrap_or_else(scale_from_env);
    if args.first().map(String::as_str) == Some("serve") {
        serve_command(args.split_off(1), workers, scale);
        return;
    }
    if args.first().map(String::as_str) == Some("dump") {
        dump_command(args.split_off(1), scale);
        return;
    }
    let wanted: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "table1", "fig7_8", "fig9_10", "fig11_12", "fig13_14", "fig15", "fig16", "fig17_19",
            "sec7_5", "fig21_22",
        ]
        .into_iter()
        .map(String::from)
        .collect()
    } else {
        args
    };
    println!("# LCMSR experiment harness");
    println!(
        "# scale = {scale:?}, queries/setting = {}",
        queries_per_setting()
    );

    println!("\n## Building datasets");
    let ny = ny_dataset(scale);
    println!("NY-like    : {}", ny.network.stats());
    println!(
        "             {} objects, {} keywords",
        ny.collection.len(),
        ny.collection.keyword_count()
    );
    let usanw = usanw_dataset(scale);
    println!("USANW-like : {}", usanw.network.stats());
    println!(
        "             {} objects, {} keywords",
        usanw.collection.len(),
        usanw.collection.keyword_count()
    );

    for id in &wanted {
        match id.as_str() {
            "table1" => table1(&ny, workers),
            "fig7_8" => fig7_8(&ny),
            "fig9_10" => fig9_10(&ny),
            "fig11_12" => fig11_12(&ny),
            "fig13_14" => fig13_14(&ny),
            "fig15" => vary_query_args(&ny, "fig15 (NY)"),
            "fig16" => vary_query_args(&usanw, "fig16 (USANW)"),
            "fig17_19" => fig17_19(&ny),
            "sec7_5" => sec7_5(&ny),
            "fig21_22" => fig21_22(&ny, &usanw),
            other => eprintln!("unknown experiment id '{other}' — skipped"),
        }
    }
}

/// `dump`: render the bit-exact golden-region dump (TGEN/APP/Greedy, single +
/// top-3, deterministic NY workload) to stdout or `--out FILE`.  The committed
/// snapshot under `tests/golden/` is regenerated with exactly this command;
/// `tests/golden_regions.rs` and the CI `golden-regions` job compare against
/// it byte for byte.
fn dump_command(mut args: Vec<String>, scale: NetworkScale) {
    let dataset = ny_dataset(scale);
    let dump = render_golden_dump(&dataset);
    match take_flag(&mut args, "--out") {
        Some(path) => {
            std::fs::write(&path, &dump).expect("write golden dump");
            eprintln!(
                "# wrote {} lines ({} bytes) to {path}",
                dump.lines().count(),
                dump.len()
            );
        }
        None => print!("{dump}"),
    }
}

/// `serve`: load/generate a dataset and serve it over HTTP until killed.
fn serve_command(mut args: Vec<String>, workers: usize, scale: NetworkScale) {
    use lcmsr_service::http::ServerConfig;
    use lcmsr_service::{leak_engine, serve, BatchConfig, DiagnosticsConfig, ServiceConfig};

    let addr = take_flag(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    // Malformed numeric flags are reported, not silently defaulted — an
    // operator tuning the scheduler must know when a knob did not take.
    let mut parse_or = |flag: &str, default: usize| match take_flag(&mut args, flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("ignoring invalid {flag} value '{v}' (expected a number); using {default}");
            default
        }),
    };
    let queue_capacity = parse_or("--queue-capacity", 1024);
    let http_workers = parse_or("--http-workers", (workers * 4).max(8));
    let diag_defaults = DiagnosticsConfig::default();
    let slow_ms = parse_or("--slow-ms", diag_defaults.slow_ms as usize) as u64;
    let trace_sample = parse_or("--trace-sample", diag_defaults.trace_sample as usize) as u64;
    // Whatever is left is an argument `serve` does not take (a typo, or a
    // removed knob such as `--max-batch`): refuse to start rather than run
    // without a setting the operator believes is in effect.
    if let Some(unknown) = args.first() {
        eprintln!("serve: unknown argument '{unknown}'");
        std::process::exit(2);
    }

    println!("# lcmsr serve");
    println!("# building NY-like dataset at scale {scale:?}…");
    let dataset = ny_dataset(scale);
    println!("# network    : {}", dataset.network.stats());
    println!(
        "# objects    : {} ({} keywords)",
        dataset.collection.len(),
        dataset.collection.keyword_count()
    );
    let engine = leak_engine(dataset.network, dataset.collection);
    let config = ServiceConfig {
        server: ServerConfig {
            addr,
            http_workers,
            max_body_bytes: 1024 * 1024,
            ..ServerConfig::default()
        },
        batch: BatchConfig {
            queue_capacity,
            batch_workers: workers,
            ..BatchConfig::default()
        },
        diagnostics: DiagnosticsConfig {
            slow_ms,
            trace_sample,
        },
    };
    println!(
        "# scheduler  : {workers} permits (queries run on their connection's thread), queue {queue_capacity}, at most {http_workers} connections at once"
    );
    println!(
        "# diagnostics: slow-query threshold {slow_ms} ms (0 = off), span tracing 1-in-{trace_sample} (0 = off)"
    );
    let handle = serve(engine, config).expect("service must start");
    println!("# listening on http://{}", handle.addr());
    println!(
        "# routes: POST /query, GET /healthz, GET /metrics, GET /debug/trace/recent, GET /debug/slow   (Ctrl-C to stop)"
    );
    handle.wait();
}

/// Table 1: an example trace of APP's quota binary search, plus a batched
/// workload-throughput line honouring the shared worker count.
fn table1(ny: &Dataset, workers: usize) {
    println!("\n## table1 — binary-search trace (Table 1 analogue)");
    let queries = default_workload(ny, 101);
    let Some(query) = queries.first() else {
        println!("(no query available)");
        return;
    };
    let engine = LcmsrEngine::new(&ny.network, &ny.collection);
    let params = AppParams::default();
    let graph = engine.prepare(query, params.alpha).expect("prepare");
    let mut arena = TupleArena::new();
    let outcome = run_app(
        &graph,
        &mut arena,
        &params,
        &CancelToken::none(),
        &mut TraceCollector::disabled(),
    )
    .expect("APP run");
    println!(
        "query keywords: {:?}, ∆ = {:.0} m, 3∆ = {:.0} m",
        query.keywords,
        query.delta,
        3.0 * query.delta
    );
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "step", "L", "U", "X", "TC.l", "(1+β)X", "T'C.l"
    );
    for s in &outcome.trace {
        println!(
            "{:>4} {:>12} {:>12} {:>12} {:>10} {:>12} {:>10}",
            s.step,
            s.lower,
            s.upper,
            s.x,
            s.tc_length
                .map_or_else(|| "-".into(), |l| format!("{l:.0}")),
            if s.x_beta > 0 {
                s.x_beta.to_string()
            } else {
                "-".into()
            },
            s.tprime_length
                .map_or_else(|| "-".into(), |l| format!("{l:.0}")),
        );
    }
    if let Some(best) = outcome.best {
        println!(
            "result: weight {:.4}, length {:.0} m, {} nodes",
            best.weight,
            best.length,
            best.node_count()
        );
    }
    // The same workload on scoped threads over the engine, honouring the
    // --workers / LCMSR_WORKERS knob the serve path uses.
    let start = std::time::Instant::now();
    let requests: Vec<QueryRequest<'_>> = queries
        .iter()
        .map(|q| QueryRequest::new(q, Algorithm::App(params)))
        .collect();
    let results = execute_on_threads(&engine, &requests, workers).expect("batched workload");
    let secs = start.elapsed().as_secs_f64();
    println!(
        "workload: {} queries batched over {} workers in {:.1} ms ({:.1} q/s)",
        results.len(),
        workers,
        secs * 1e3,
        results.len() as f64 / secs.max(1e-12)
    );
}

/// Figures 7 and 8: APP runtime and region weight vs the scaling parameter α.
fn fig7_8(ny: &Dataset) {
    println!("\n## fig7_8 — APP vs α (NY): runtime should fall, weight stay nearly flat");
    let queries = default_workload(ny, 78);
    let engine = LcmsrEngine::new(&ny.network, &ny.collection);
    println!(
        "{:>8} {:>14} {:>14}",
        "alpha", "runtime (ms)", "region weight"
    );
    for alpha in [0.01, 0.1, 0.3, 0.5, 0.7, 0.9] {
        let params = AppParams {
            alpha,
            ..AppParams::default()
        };
        let agg = aggregate(&engine, &queries, &Algorithm::App(params));
        println!(
            "{:>8} {:>14.2} {:>14.4}",
            alpha, agg.avg_millis, agg.avg_weight
        );
    }
}

/// Figures 9 and 10: TGEN runtime and weight vs its (much coarser) α.
fn fig9_10(ny: &Dataset) {
    println!("\n## fig9_10 — TGEN vs α (NY): both runtime and weight should fall as α grows");
    let queries = default_workload(ny, 910);
    let engine = LcmsrEngine::new(&ny.network, &ny.collection);
    let base = default_tgen_alpha(ny, &queries);
    println!("(paper sweeps α ∈ {{50..1600}} at |V_Q| ≈ 26k; here α is scaled to the synthetic |V_Q|: base = {base:.1})");
    println!(
        "{:>18} {:>14} {:>14}",
        "alpha (x base)", "runtime (ms)", "region weight"
    );
    for factor in [0.125, 0.25, 0.5, 1.0, 2.0, 4.0] {
        let alpha = (base * factor).max(0.05);
        let agg = aggregate(&engine, &queries, &Algorithm::Tgen(TgenParams { alpha }));
        println!(
            "{:>10.2} ({:>4.2}x) {:>13.2} {:>14.4}",
            alpha, factor, agg.avg_millis, agg.avg_weight
        );
    }
}

/// Figures 11 and 12: APP runtime and weight vs the binary-search parameter β.
fn fig11_12(ny: &Dataset) {
    println!("\n## fig11_12 — APP vs β (NY): runtime and weight should both drop as β grows");
    let queries = default_workload(ny, 1112);
    let engine = LcmsrEngine::new(&ny.network, &ny.collection);
    println!(
        "{:>8} {:>14} {:>14}",
        "beta", "runtime (ms)", "region weight"
    );
    for beta in [0.001, 0.01, 0.1, 0.3, 0.9] {
        let params = AppParams {
            beta,
            ..AppParams::default()
        };
        let agg = aggregate(&engine, &queries, &Algorithm::App(params));
        println!(
            "{:>8} {:>14.2} {:>14.4}",
            beta, agg.avg_millis, agg.avg_weight
        );
    }
}

/// Figures 13 and 14: Greedy runtime and weight vs µ.
fn fig13_14(ny: &Dataset) {
    println!("\n## fig13_14 — Greedy vs µ (NY): mid-range µ should beat the extremes on weight");
    let queries = default_workload(ny, 1314);
    let engine = LcmsrEngine::new(&ny.network, &ny.collection);
    println!("{:>6} {:>14} {:>14}", "mu", "runtime (ms)", "region weight");
    for mu in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let agg = aggregate(&engine, &queries, &Algorithm::Greedy(GreedyParams { mu }));
        println!(
            "{:>6} {:>14.2} {:>14.4}",
            mu, agg.avg_millis, agg.avg_weight
        );
    }
}

/// Figures 15 (NY) and 16 (USANW): runtime and relative ratio while varying the
/// number of keywords, the length constraint ∆, and the size of Q.Λ.
fn vary_query_args(dataset: &Dataset, label: &str) {
    println!("\n## {label} — vary query arguments: runtime (ms) and relative ratio vs TGEN (%)");
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let defaults = dataset.default_query_params(1500);
    let n = queries_per_setting();

    let run_setting = |queries: &[LcmsrQuery], setting: &str| {
        if queries.is_empty() {
            println!("{setting:>18}  (no queries generated)");
            return;
        }
        let tgen_alpha = default_tgen_alpha(dataset, queries);
        let algorithms = [
            ("APP", Algorithm::App(AppParams::default())),
            ("TGEN", Algorithm::Tgen(TgenParams { alpha: tgen_alpha })),
            ("Greedy", Algorithm::Greedy(GreedyParams::default())),
        ];
        let mut weights: Vec<Vec<f64>> = vec![Vec::new(); 3];
        let mut millis = [0.0f64; 3];
        for q in queries {
            for (i, (_, alg)) in algorithms.iter().enumerate() {
                let m = measure(&engine, q, alg);
                weights[i].push(m.weight);
                millis[i] += m.millis;
            }
        }
        let reference = weights[1].clone();
        print!("{setting:>18}");
        for (i, (name, _)) in algorithms.iter().enumerate() {
            let ratio = relative_ratio(&reference, &weights[i]);
            print!(
                "  {name}: {:>8.2} ms {:>6.1}%",
                millis[i] / queries.len() as f64,
                ratio
            );
        }
        println!();
    };

    println!("--- varying the number of query keywords (∆, Λ at defaults) ---");
    for keywords in 1..=5 {
        let queries = make_workload(
            dataset,
            n,
            keywords,
            defaults.area_km2,
            defaults.delta_km,
            150 + keywords as u64,
        );
        run_setting(&queries, &format!("|Q.psi| = {keywords}"));
    }
    println!("--- varying the length constraint Q.delta ---");
    for step in -2i32..=2 {
        let delta = (defaults.delta_km * (1.0 + 0.2 * step as f64)).max(0.1);
        let queries = make_workload(
            dataset,
            n,
            defaults.num_keywords,
            defaults.area_km2,
            delta,
            160 + (step + 2) as u64,
        );
        run_setting(&queries, &format!("delta = {delta:.1} km"));
    }
    println!("--- varying the query region size Q.Lambda ---");
    for step in -2i32..=2 {
        let area = (defaults.area_km2 * (1.0 + 0.25 * step as f64)).max(0.1);
        let queries = make_workload(
            dataset,
            n,
            defaults.num_keywords,
            area,
            defaults.delta_km,
            170 + (step + 2) as u64,
        );
        run_setting(&queries, &format!("area = {area:.1} km2"));
    }
}

/// Figures 17–19: the qualitative "cafe + restaurant" exploration example.
fn fig17_19(ny: &Dataset) {
    println!(
        "\n## fig17_19 — qualitative example (cafe + restaurant): TGEN >= APP >= Greedy in content"
    );
    let engine = LcmsrEngine::new(&ny.network, &ny.collection);
    // Pick a cafe/restaurant cluster as the downtown window, like the Bronx example.
    let center = ny
        .clusters
        .iter()
        .find(|c| matches!(CATEGORIES[c.category], "restaurant" | "cafe" | "coffee"))
        .map_or_else(|| ny.network.bounding_rect().unwrap().center(), |c| c.point);
    let extent = ny.network.bounding_rect().unwrap();
    let side = (extent.width().min(extent.height()) * 0.6).min(8_000.0);
    let roi = Rect::centered_square(center, side);
    let delta = (side * 0.5).min(8_000.0);
    let query = LcmsrQuery::new(["cafe", "restaurant"], delta, roi).unwrap();
    println!(
        "query: {:?}, ∆ = {:.0} m, Λ = {:.1} km²",
        query.keywords,
        query.delta,
        roi.area_km2()
    );
    let tgen_alpha = default_tgen_alpha(ny, std::slice::from_ref(&query));
    println!(
        "{:>8} {:>10} {:>12} {:>10} {:>12}",
        "algo", "objects", "weight", "nodes", "length (m)"
    );
    for algorithm in [
        Algorithm::Tgen(TgenParams { alpha: tgen_alpha }),
        Algorithm::App(AppParams::default()),
        Algorithm::Greedy(GreedyParams::default()),
    ] {
        let result = engine
            .execute(&QueryRequest::new(&query, algorithm.clone()))
            .expect("run");
        match result.best() {
            Some(region) => {
                let objects: usize = region
                    .nodes
                    .iter()
                    .map(|&node| {
                        ny.collection
                            .objects_at(node)
                            .iter()
                            .filter(|&&o| {
                                let obj = ny.collection.object(o).unwrap();
                                query.keywords.iter().any(|k| obj.contains_term(k))
                            })
                            .count()
                    })
                    .sum();
                println!(
                    "{:>8} {:>10} {:>12.4} {:>10} {:>12.0}",
                    algorithm.name(),
                    objects,
                    region.weight,
                    region.node_count(),
                    region.length
                );
            }
            None => println!("{:>8} (no region)", algorithm.name()),
        }
    }
}

/// Section 7.5 / Figure 20: LCMSR vs the MaxRS fixed-rectangle baseline.
fn sec7_5(ny: &Dataset) {
    println!("\n## sec7_5 — LCMSR vs MaxRS (500 m × 500 m): LCMSR should win most comparisons");
    let engine = LcmsrEngine::new(&ny.network, &ny.collection);
    let queries = default_workload(ny, 75);
    let mut lcmsr_wins = 0usize;
    let mut maxrs_wins = 0usize;
    let mut ties = 0usize;
    let mut compared = 0usize;
    println!(
        "{:>4} {:>12} {:>12} {:>16} {:>10}",
        "q#", "MaxRS w", "LCMSR w", "MaxRS connected", "winner"
    );
    for (i, query) in queries.iter().enumerate() {
        let Ok(Some(maxrs)) = engine.run_maxrs(query, 500.0, 500.0) else {
            continue;
        };
        // The paper derives the LCMSR ∆ from the MaxRS region's connecting length.
        let delta = maxrs.connecting_length.unwrap_or(query.delta).max(250.0);
        let lcmsr_query =
            LcmsrQuery::new(query.keywords.clone(), delta, query.region_of_interest).unwrap();
        let tgen_alpha = default_tgen_alpha(ny, std::slice::from_ref(&lcmsr_query));
        let lcmsr = engine
            .execute(&QueryRequest::new(
                &lcmsr_query,
                Algorithm::Tgen(TgenParams { alpha: tgen_alpha }),
            ))
            .expect("run");
        let lcmsr_weight = lcmsr.best().map_or(0.0, |r| r.weight);
        // Automatic quality proxy (replaces the paper's human annotators, see
        // README.md § "Substitutions"): a result is better when it is
        // connected on the network and gathers more relevant weight under the
        // same connectivity budget.
        let winner = if (!maxrs.connected_in_network && lcmsr_weight > 0.0)
            || lcmsr_weight > maxrs.weight * 1.02
        {
            lcmsr_wins += 1;
            "LCMSR"
        } else if maxrs.weight > lcmsr_weight * 1.02 {
            maxrs_wins += 1;
            "MaxRS"
        } else {
            ties += 1;
            "tie"
        };
        compared += 1;
        println!(
            "{:>4} {:>12.4} {:>12.4} {:>16} {:>10}",
            i + 1,
            maxrs.weight,
            lcmsr_weight,
            maxrs.connected_in_network,
            winner
        );
    }
    if compared > 0 {
        println!(
            "summary: LCMSR better or tied on {:.0}% of {} comparable queries ({} LCMSR / {} MaxRS / {} ties)",
            100.0 * (lcmsr_wins + ties) as f64 / compared as f64,
            compared,
            lcmsr_wins,
            maxrs_wins,
            ties
        );
    } else {
        println!("(no comparable queries)");
    }
}

/// Figures 21 and 22: top-k runtime on NY and USANW for k = 1..5.
fn fig21_22(ny: &Dataset, usanw: &Dataset) {
    println!("\n## fig21_22 — top-k runtime (ms): mild growth with k, Greedy fastest, TGEN < APP");
    for (name, dataset) in [("NY", ny), ("USANW", usanw)] {
        let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
        let queries = default_workload(dataset, 2122);
        if queries.is_empty() {
            println!("{name}: no queries generated");
            continue;
        }
        let tgen_alpha = default_tgen_alpha(dataset, &queries);
        println!("--- {name} ---");
        println!("{:>4} {:>12} {:>12} {:>12}", "k", "APP", "TGEN", "Greedy");
        for k in 1..=5usize {
            let mut totals = [0.0f64; 3];
            for q in &queries {
                totals[0] += measure_topk(&engine, q, &Algorithm::App(AppParams::default()), k);
                totals[1] += measure_topk(
                    &engine,
                    q,
                    &Algorithm::Tgen(TgenParams { alpha: tgen_alpha }),
                    k,
                );
                totals[2] +=
                    measure_topk(&engine, q, &Algorithm::Greedy(GreedyParams::default()), k);
            }
            let n = queries.len() as f64;
            println!(
                "{:>4} {:>12.2} {:>12.2} {:>12.2}",
                k,
                totals[0] / n,
                totals[1] / n,
                totals[2] / n
            );
        }
    }
}
