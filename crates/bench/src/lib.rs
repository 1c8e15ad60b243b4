//! Shared fixtures and helpers for the LCMSR benchmark harness.
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper's evaluation (Section 7) on the synthetic NY-like and USANW-like
//! data sets.  Absolute numbers differ from the paper (different hardware,
//! language, and — most of all — synthetic data at reduced scale); what it
//! reports is the *shape* of each result: orderings, trends, and crossovers.
//! The six gated smoke benches under `benches/` share [`harness`].
//!
//! Scale is controlled by the `--scale` CLI flag or the `LCMSR_SCALE`
//! environment variable (`tiny` | `small` | `medium` | `large` | `huge`);
//! the default is `tiny` so that `cargo bench`/`cargo run -p lcmsr-bench`
//! finish quickly on a laptop.

pub mod harness;

use lcmsr_core::prelude::*;
use lcmsr_datagen::prelude::*;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Removes every `name VALUE` and `name=VALUE` occurrence from `args`,
/// leaving the other arguments in place, and returns the last value given.
/// A trailing `name` with no value is reported on stderr and removed.
pub fn take_flag(args: &mut Vec<String>, name: &str) -> Option<String> {
    let mut found = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            if i + 1 < args.len() {
                found = Some(args.remove(i + 1));
            } else {
                eprintln!("{name} requires a value; ignoring");
            }
            args.remove(i);
        } else if let Some(value) = args[i].strip_prefix(name).and_then(|v| v.strip_prefix('=')) {
            found = Some(value.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    found
}

/// Resolves the engine worker count shared by the experiments CLI and the
/// serving path: an explicit `--workers N` flag wins, then the
/// `LCMSR_WORKERS` environment variable, then the available hardware
/// parallelism.  `take_workers_flag` removes the flag (and its value) from an
/// argument list so subcommand parsing never sees it.
pub fn workers_from_env() -> usize {
    parse_workers_value(std::env::var("LCMSR_WORKERS").ok().as_deref())
}

/// The pure half of [`workers_from_env`], separated so tests need not mutate
/// process-global environment (a data race under the parallel test harness).
/// A value that is not a positive integer is reported on stderr and falls
/// back to the hardware parallelism.
fn parse_workers_value(value: Option<&str>) -> usize {
    let detected = || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    match value {
        None | Some("") => detected(),
        Some(text) => match text.parse::<usize>() {
            Ok(w) if w >= 1 => w,
            _ => {
                let w = detected();
                eprintln!(
                    "ignoring invalid LCMSR_WORKERS value '{text}' \
                     (expected a positive integer); using {w}"
                );
                w
            }
        },
    }
}

/// Extracts `--workers N` (or `--workers=N`) from `args`, returning the
/// parsed count and leaving the remaining arguments in place.  A malformed or
/// missing value is reported on stderr and ignored (the caller falls back to
/// `LCMSR_WORKERS` / auto-detection) rather than silently dropped.
pub fn take_workers_flag(args: &mut Vec<String>) -> Option<usize> {
    let value = take_flag(args, "--workers")?;
    match value.parse::<usize>() {
        Ok(w) => Some(w.max(1)),
        Err(_) => {
            eprintln!("ignoring invalid --workers value '{value}' (expected a number)");
            None
        }
    }
}

/// Maps a preset name to its scale; `None` for unknown names.
fn scale_by_name(name: &str) -> Option<NetworkScale> {
    match name {
        "tiny" => Some(NetworkScale::Tiny),
        "small" => Some(NetworkScale::Small),
        "medium" => Some(NetworkScale::Medium),
        "large" => Some(NetworkScale::Large),
        "huge" => Some(NetworkScale::Huge),
        _ => None,
    }
}

/// Resolves the dataset scale from `LCMSR_SCALE` (default: tiny).  A
/// malformed value is reported on stderr and falls back to tiny rather than
/// being silently swallowed.
pub fn scale_from_env() -> NetworkScale {
    parse_scale_value(std::env::var("LCMSR_SCALE").ok().as_deref())
}

/// The pure half of [`scale_from_env`], separated so tests need not mutate
/// process-global environment (a data race under the parallel test harness).
fn parse_scale_value(value: Option<&str>) -> NetworkScale {
    match value {
        None | Some("") => NetworkScale::Tiny,
        Some(name) => scale_by_name(name).unwrap_or_else(|| {
            eprintln!(
                "ignoring invalid scale '{name}' \
                 (expected tiny|small|medium|large|huge); using tiny"
            );
            NetworkScale::Tiny
        }),
    }
}

/// Extracts `--scale NAME` (or `--scale=NAME`) from `args`, returning the
/// parsed preset and leaving the remaining arguments in place.  A malformed
/// or missing value is reported on stderr and ignored (the caller falls back
/// to `LCMSR_SCALE` / the tiny default) rather than silently dropped.
pub fn take_scale_flag(args: &mut Vec<String>) -> Option<NetworkScale> {
    let value = take_flag(args, "--scale")?;
    let scale = scale_by_name(&value);
    if scale.is_none() {
        eprintln!(
            "ignoring invalid --scale value '{value}' \
             (expected tiny|small|medium|large|huge)"
        );
    }
    scale
}

/// Builds the NY-like dataset at the given scale.
pub fn ny_dataset(scale: NetworkScale) -> Dataset {
    Dataset::build(DatasetConfig::ny(scale, 2014))
}

/// Builds the USANW-like dataset at the given scale.
pub fn usanw_dataset(scale: NetworkScale) -> Dataset {
    Dataset::build(DatasetConfig::usanw(scale, 733))
}

/// Experiment-wide number of queries per setting, from `LCMSR_QUERIES`
/// (default 8; the paper uses 50).  Read once, so a malformed value is
/// reported once.
pub fn queries_per_setting() -> usize {
    static QUERIES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *QUERIES.get_or_init(|| parse_queries_value(std::env::var("LCMSR_QUERIES").ok().as_deref()))
}

/// The pure half of [`queries_per_setting`].  A value that is not a positive
/// integer is reported on stderr and falls back to 8, rather than being
/// silently swallowed: `0` would otherwise print every sweep over empty
/// workloads as if it had been measured.
fn parse_queries_value(value: Option<&str>) -> usize {
    const DEFAULT: usize = 8;
    match value {
        None | Some("") => DEFAULT,
        Some(text) => match text.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!(
                    "ignoring invalid LCMSR_QUERIES value '{text}' \
                     (expected a positive integer); using {DEFAULT}"
                );
                DEFAULT
            }
        },
    }
}

/// A concrete workload: LCMSR queries derived from the generator's output.
pub fn make_workload(
    dataset: &Dataset,
    num_queries: usize,
    num_keywords: usize,
    area_km2: f64,
    delta_km: f64,
    seed: u64,
) -> Vec<LcmsrQuery> {
    let params = QueryGenParams {
        num_queries,
        num_keywords,
        area_km2,
        delta_km,
        seed,
    };
    dataset
        .queries(&params)
        .into_iter()
        .map(|q| LcmsrQuery::new(q.keywords, q.delta, q.rect).expect("generated query is valid"))
        .collect()
}

/// Default workload parameters for a dataset, mirroring the paper's defaults
/// (3 keywords; NY: ∆ = 10 km, Λ = 100 km²; USANW: ∆ = 15 km, Λ = 150 km²),
/// clamped to the synthetic network's extent.
pub fn default_workload(dataset: &Dataset, seed: u64) -> Vec<LcmsrQuery> {
    let params = dataset.default_query_params(seed);
    make_workload(
        dataset,
        queries_per_setting(),
        params.num_keywords,
        params.area_km2,
        params.delta_km,
        seed,
    )
}

/// The paper's TGEN α (400 for NY, 300 for USANW) presumes query regions of
/// tens of thousands of nodes (|V_Q|/α ≈ 65); at reduced synthetic scale this
/// helper picks the α giving the same granularity for a workload.
pub fn default_tgen_alpha(dataset: &Dataset, queries: &[LcmsrQuery]) -> f64 {
    let Some(query) = queries.first() else {
        return 50.0;
    };
    let nodes_in_area = dataset
        .network
        .nodes_in_rect(&query.region_of_interest)
        .len()
        .max(1);
    (nodes_in_area as f64 / 65.0).max(1.0)
}

/// The deterministic golden workload: the exact query set the committed
/// golden-region snapshot under `tests/golden/` was rendered from (the same
/// 32-query tiny-NY workload the `solve_phase` bench tracks).  Any change to
/// this function invalidates the snapshot — regenerate it with
/// `experiments dump` and explain the regeneration in the commit.
pub fn golden_workload(dataset: &Dataset) -> Vec<LcmsrQuery> {
    let params = dataset.default_query_params(2024);
    make_workload(
        dataset,
        32,
        params.num_keywords,
        params.area_km2,
        params.delta_km,
        2024,
    )
}

/// Renders one region as a fully bit-exact golden line: measures as raw IEEE
/// bit patterns (hex) plus the sorted global node and edge ids.  Any change
/// anywhere in the pipeline — scoring, scaling, solver tie-breaks — shows up
/// as a byte diff.
fn golden_region_line(out: &mut String, region: &Region) {
    use std::fmt::Write;
    write!(
        out,
        "scaled={} weight={:016x} length={:016x} nodes=",
        region.scaled_weight,
        region.weight.to_bits(),
        region.length.to_bits()
    )
    .unwrap();
    for (i, n) in region.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{}", n.0).unwrap();
    }
    out.push_str(" edges=");
    for (i, e) in region.edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{}", e.0).unwrap();
    }
    out.push('\n');
}

/// Renders the full golden-region dump for a dataset: for every query of
/// [`golden_workload`] and each of TGEN, APP and Greedy, the single best
/// region and the top-3 regions, one line per region, bit-exact.  Committed
/// under `tests/golden/` and compared byte-for-byte by
/// `tests/golden_regions.rs` and the CI `golden-regions` job — this replaces
/// the ad-hoc cross-worktree diffs earlier PRs did by hand.
pub fn render_golden_dump(dataset: &Dataset) -> String {
    render_golden_dump_traced(dataset, false)
}

/// [`render_golden_dump`] with per-query span tracing switched on or off.
///
/// The dump renders regions only, so the two modes must produce *byte
/// identical* text: tracing is specified to never perturb solver results
/// (the collector only observes), and `tests/golden_regions.rs` pins that by
/// comparing the traced render against the committed snapshot too.
pub fn render_golden_dump_traced(dataset: &Dataset, trace: bool) -> String {
    use std::fmt::Write;
    let queries = golden_workload(dataset);
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let tgen_alpha = default_tgen_alpha(dataset, &queries);
    let algorithms = [
        ("TGEN", Algorithm::Tgen(TgenParams { alpha: tgen_alpha })),
        ("APP", Algorithm::App(AppParams::default())),
        ("Greedy", Algorithm::Greedy(GreedyParams::default())),
    ];
    let mut out = String::new();
    // The header records the dataset scale so a snapshot regenerated under a
    // stray `LCMSR_SCALE` fails the diff on its *first* line with the cause
    // spelled out, instead of producing an inscrutable whole-file divergence.
    writeln!(
        out,
        "# golden regions: NY-like synthetic dataset, scale={:?}, {} queries, tgen_alpha={:016x}",
        dataset.config.scale,
        queries.len(),
        tgen_alpha.to_bits()
    )
    .unwrap();
    for (name, algorithm) in &algorithms {
        for (qi, query) in queries.iter().enumerate() {
            let single = engine
                .execute(&QueryRequest::new(query, algorithm.clone()).trace(trace))
                .expect("golden run");
            write!(out, "{name} q{qi:02} single ").unwrap();
            match single.best() {
                Some(region) => golden_region_line(&mut out, region),
                None => out.push_str("(none)\n"),
            }
            let topk = engine
                .execute(
                    &QueryRequest::new(query, algorithm.clone())
                        .top_k(3)
                        .trace(trace),
                )
                .expect("golden topk");
            if topk.regions.is_empty() {
                writeln!(out, "{name} q{qi:02} top3 (none)").unwrap();
            }
            for (r, region) in topk.regions.iter().enumerate() {
                write!(out, "{name} q{qi:02} top3 r{r} ").unwrap();
                golden_region_line(&mut out, region);
            }
        }
    }
    out
}

/// Measured outcome of one algorithm on one query.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Result weight (0 when no region was found).
    pub weight: f64,
    /// Result length in metres (0 when no region was found).
    pub length: f64,
    /// Number of nodes in the result region.
    pub nodes: usize,
    /// Wall-clock milliseconds.
    pub millis: f64,
}

/// Runs one algorithm on one query and measures it.
pub fn measure(engine: &LcmsrEngine<'_>, query: &LcmsrQuery, algorithm: &Algorithm) -> Measurement {
    let start = Instant::now();
    let outcome = engine
        .execute(&QueryRequest::new(query, algorithm.clone()))
        .expect("query execution failed");
    let millis = start.elapsed().as_secs_f64() * 1e3;
    match outcome.best() {
        Some(region) => Measurement {
            weight: region.weight,
            length: region.length,
            nodes: region.node_count(),
            millis,
        },
        None => Measurement {
            weight: 0.0,
            length: 0.0,
            nodes: 0,
            millis,
        },
    }
}

/// Answers `requests` on `threads` scoped threads that each call
/// [`LcmsrEngine::execute`], so every request checks a workspace out of the
/// engine's shared pool.  Threads claim requests from a shared cursor, the
/// outcomes come back in input order, and a panic on any thread propagates
/// to the caller.
pub fn execute_on_threads(
    engine: &LcmsrEngine<'_>,
    requests: &[QueryRequest<'_>],
    threads: usize,
) -> LcmsrResult<Vec<QueryOutcome>> {
    let next = AtomicUsize::new(0);
    let mut answered: Vec<(usize, LcmsrResult<QueryOutcome>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(i) else {
                            break mine;
                        };
                        mine.push((i, engine.execute(request)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    });
    answered.sort_unstable_by_key(|&(i, _)| i);
    answered.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Runs a top-k query and measures the wall-clock time.
pub fn measure_topk(
    engine: &LcmsrEngine<'_>,
    query: &LcmsrQuery,
    algorithm: &Algorithm,
    k: usize,
) -> f64 {
    let start = Instant::now();
    let _ = engine
        .execute(&QueryRequest::new(query, algorithm.clone()).top_k(k))
        .expect("top-k execution failed");
    start.elapsed().as_secs_f64() * 1e3
}

/// Aggregates a workload: average runtime (ms) and average weight per algorithm.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Average wall-clock time per query, milliseconds.
    pub avg_millis: f64,
    /// Average result weight per query.
    pub avg_weight: f64,
}

/// Measures an algorithm over a whole workload.
pub fn aggregate(
    engine: &LcmsrEngine<'_>,
    queries: &[LcmsrQuery],
    algorithm: &Algorithm,
) -> Aggregate {
    if queries.is_empty() {
        return Aggregate::default();
    }
    let mut total_ms = 0.0;
    let mut total_weight = 0.0;
    for q in queries {
        let m = measure(engine, q, algorithm);
        total_ms += m.millis;
        total_weight += m.weight;
    }
    Aggregate {
        avg_millis: total_ms / queries.len() as f64,
        avg_weight: total_weight / queries.len() as f64,
    }
}

/// Average ratio (in %) of `candidate` weights to `reference` weights over the
/// queries where the reference found a region — the paper's "relative ratio"
/// accuracy metric of Section 7.2.2.
pub fn relative_ratio(reference: &[f64], candidate: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut counted = 0usize;
    for (r, c) in reference.iter().zip(candidate) {
        if *r > 0.0 {
            sum += (c / r) * 100.0;
            counted += 1;
        }
    }
    if counted == 0 {
        0.0
    } else {
        sum / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_ratio_basics() {
        assert_eq!(relative_ratio(&[], &[]), 0.0);
        assert_eq!(relative_ratio(&[0.0], &[1.0]), 0.0);
        let r = relative_ratio(&[1.0, 2.0], &[0.5, 2.0]);
        assert!((r - 75.0).abs() < 1e-9);
    }

    #[test]
    fn workers_flag_is_extracted_from_args() {
        let mut args: Vec<String> = ["serve", "--workers", "3", "--addr", "x"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        assert_eq!(take_workers_flag(&mut args), Some(3));
        assert_eq!(args, vec!["serve", "--addr", "x"]);

        let mut args: Vec<String> = vec!["--workers=7".into(), "table1".into()];
        assert_eq!(take_workers_flag(&mut args), Some(7));
        assert_eq!(args, vec!["table1"]);

        let mut args: Vec<String> = vec!["table1".into()];
        assert_eq!(take_workers_flag(&mut args), None);
        assert_eq!(args, vec!["table1"]);

        // A zero count clamps to one worker.
        let mut args: Vec<String> = vec!["--workers".into(), "0".into()];
        assert_eq!(take_workers_flag(&mut args), Some(1));

        // Malformed and valueless flags are consumed (not left behind to
        // confuse later parsing) and yield None.
        let mut args: Vec<String> = vec!["serve".into(), "--workers".into(), "abc".into()];
        assert_eq!(take_workers_flag(&mut args), None);
        assert_eq!(args, vec!["serve"]);
        let mut args: Vec<String> = vec!["serve".into(), "--workers".into()];
        assert_eq!(take_workers_flag(&mut args), None);
        assert_eq!(args, vec!["serve"]);
        let mut args: Vec<String> = vec!["--workers=bad".into()];
        assert_eq!(take_workers_flag(&mut args), None);
        assert!(args.is_empty());
    }

    #[test]
    fn scale_flag_is_extracted_from_args() {
        let mut args: Vec<String> = ["scale", "--scale", "huge", "--workers", "4"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        assert_eq!(take_scale_flag(&mut args), Some(NetworkScale::Huge));
        assert_eq!(args, vec!["scale", "--workers", "4"]);

        let mut args: Vec<String> = vec!["--scale=large".into(), "table1".into()];
        assert_eq!(take_scale_flag(&mut args), Some(NetworkScale::Large));
        assert_eq!(args, vec!["table1"]);

        let mut args: Vec<String> = vec!["table1".into()];
        assert_eq!(take_scale_flag(&mut args), None);
        assert_eq!(args, vec!["table1"]);

        // Malformed and valueless flags are consumed (reported on stderr, not
        // left behind to confuse later parsing) and yield None.
        let mut args: Vec<String> = vec!["dump".into(), "--scale".into(), "enormous".into()];
        assert_eq!(take_scale_flag(&mut args), None);
        assert_eq!(args, vec!["dump"]);
        let mut args: Vec<String> = vec!["dump".into(), "--scale".into()];
        assert_eq!(take_scale_flag(&mut args), None);
        assert_eq!(args, vec!["dump"]);
        let mut args: Vec<String> = vec!["--scale=".into()];
        assert_eq!(take_scale_flag(&mut args), None);
        assert!(args.is_empty());
    }

    #[test]
    fn scale_value_parsing_matches_env_semantics() {
        assert_eq!(parse_scale_value(None), NetworkScale::Tiny);
        assert_eq!(parse_scale_value(Some("")), NetworkScale::Tiny);
        assert_eq!(parse_scale_value(Some("tiny")), NetworkScale::Tiny);
        assert_eq!(parse_scale_value(Some("small")), NetworkScale::Small);
        assert_eq!(parse_scale_value(Some("medium")), NetworkScale::Medium);
        assert_eq!(parse_scale_value(Some("large")), NetworkScale::Large);
        assert_eq!(parse_scale_value(Some("huge")), NetworkScale::Huge);
        // Unknown names report on stderr and fall back to tiny.
        assert_eq!(parse_scale_value(Some("enormous")), NetworkScale::Tiny);
    }

    #[test]
    fn queries_value_parsing_matches_env_semantics() {
        assert_eq!(parse_queries_value(None), 8);
        assert_eq!(parse_queries_value(Some("")), 8);
        assert_eq!(parse_queries_value(Some("20")), 20);
        // Zero and non-numbers report on stderr and fall back to 8.
        assert_eq!(parse_queries_value(Some("0")), 8);
        assert_eq!(parse_queries_value(Some("abc")), 8);
    }

    #[test]
    fn workers_value_parsing_matches_env_semantics() {
        assert!(parse_workers_value(None) >= 1);
        assert_eq!(parse_workers_value(Some("5")), 5);
        assert!(parse_workers_value(Some("junk")) >= 1);
        assert!(parse_workers_value(Some("0")) >= 1);
        assert!(workers_from_env() >= 1);
    }

    #[test]
    fn workload_and_measurement_roundtrip() {
        let dataset = ny_dataset(NetworkScale::Tiny);
        let queries = make_workload(&dataset, 3, 2, 1.5, 1.0, 7);
        assert_eq!(queries.len(), 3);
        let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
        let alpha = default_tgen_alpha(&dataset, &queries);
        assert!(alpha >= 1.0);
        let m = measure(
            &engine,
            &queries[0],
            &Algorithm::Greedy(GreedyParams::default()),
        );
        assert!(m.millis >= 0.0);
        let agg = aggregate(
            &engine,
            &queries,
            &Algorithm::Greedy(GreedyParams::default()),
        );
        assert!(agg.avg_millis >= 0.0);
    }
}
