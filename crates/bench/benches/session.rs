//! Interactive exploration-session benchmark: the response cache under a
//! pan/zoom/keyword-refine trace — the workload the cache exists for, where
//! successive requests repeat.
//!
//! It writes `BENCH_session.json` (see [`lcmsr_bench::harness`] for the
//! environment it reads).  Over an NY-like dataset it drives one
//! synthetic session trace — an initial view, three eastward pans, a zoom
//! in, a zoom out, a keyword refinement, and pans under both keyword sets —
//! through three modes:
//!
//! * **cold** — `cache: false` on a fresh workspace: the classic path, full
//!   grid rescore and solve per step (the baseline the paper's reader runs);
//! * **warm** — `cache: true` on one session workspace, first pass: every
//!   step misses the response cache and is scored and solved cold;
//! * **replay** — the same trace again on the warm cache: every step is a
//!   response-cache hit (pan back / revisit, the dominant interactive case).
//!
//! Every mode's regions are asserted bit-identical (`{:?}` on the region
//! list — Debug's shortest-roundtrip float rendering distinguishes bit
//! patterns, `-0.0` included).  The strict gate holds the replay pass to at
//! least 3× faster than the cold pass.

use lcmsr_bench::harness::{best_secs, gate, strict_from_env, Limit, Report};
use lcmsr_bench::*;
use lcmsr_core::prelude::*;
use lcmsr_roadnet::geo::Rect;

/// Best-of rounds per timed pass.
const ROUNDS: usize = 3;
/// Cached replay speed over cold-pass speed.
const MIN_SPEEDUP: f64 = 3.0;

/// One session step: a label for the report plus the derived query.
struct Step {
    label: &'static str,
    query: LcmsrQuery,
}

/// Shifts a rect by (dx, dy) fractions of its own extent (a pan).
fn pan(rect: &Rect, dx: f64, dy: f64) -> Rect {
    let (w, h) = (rect.width(), rect.height());
    Rect::new(
        rect.min_x + dx * w,
        rect.min_y + dy * h,
        rect.max_x + dx * w,
        rect.max_y + dy * h,
    )
}

/// Scales a rect around its center (a zoom; `factor < 1` zooms in).
fn zoom(rect: &Rect, factor: f64) -> Rect {
    Rect::centered(rect.center(), rect.width() * factor, rect.height() * factor)
}

/// The synthetic exploration trace: 10 distinct steps over one base view.
///
/// Pans move by up to 25% of the view and the zoom-out is 1.3x; a keyword
/// refinement and a return to the full keyword set change the query's
/// keywords.  Pans head toward whichever side of `bounds` (the network's node
/// extent) has room, scaled down when the slack runs short — the query
/// generator places the base view wherever objects are, which can be a
/// corner, and panning off the populated area would make a step's region
/// empty (a query error, not a session step).
fn session_trace(base: &LcmsrQuery, bounds: &Rect) -> Vec<Step> {
    let full = base.keywords.clone();
    let refined: Vec<String> = full[..full.len().saturating_sub(1).max(1)].to_vec();
    let delta = base.delta;
    let r0 = base.region_of_interest;
    let (w, h) = (r0.width(), r0.height());
    // Three horizontal pan steps and one vertical each way; cap the per-step
    // fraction so the farthest rect stays inside the slack on the chosen side.
    let (room_e, room_w) = (bounds.max_x - r0.max_x, r0.min_x - bounds.min_x);
    let sx = if room_e >= room_w { 1.0 } else { -1.0 };
    let fx = sx * (room_e.max(room_w) / (3.0 * w)).clamp(0.001, 0.25);
    let (room_n, room_s) = (bounds.max_y - r0.max_y, r0.min_y - bounds.min_y);
    let sy = if room_n >= room_s { 1.0 } else { -1.0 };
    let fy = sy * (room_n.max(room_s) / h).clamp(0.001, 0.25);
    let q = |label, keywords: &Vec<String>, rect| Step {
        label,
        query: LcmsrQuery::new(keywords.clone(), delta, rect).expect("trace query is valid"),
    };
    let r1 = pan(&r0, fx, 0.0);
    let r2 = pan(&r1, fx, 0.0);
    let r3 = pan(&r2, fx, 0.0);
    let r4 = zoom(&r3, 0.7);
    let r5 = zoom(&r4, 1.3);
    let r7 = pan(&r5, 0.0, fy);
    // Half-phase pans: distinct from every earlier rect, still on the side
    // of the base view that is known to have slack.
    let r8 = pan(&r0, 0.5 * fx, 0.0);
    let r9 = pan(&r8, 0.0, 0.5 * fy);
    vec![
        q("view", &full, r0),
        q("pan_x", &full, r1),
        q("pan_x", &full, r2),
        q("pan_x", &full, r3),
        q("zoom_in", &full, r4),
        q("zoom_out", &full, r5),
        q("refine", &refined, r5),
        q("pan_y", &refined, r7),
        q("restore", &full, r8),
        q("pan_back", &full, r9),
    ]
}

/// Runs the whole trace once, returning per-step outcomes.
fn run_trace(
    engine: &LcmsrEngine<'_>,
    workspace: &mut QueryWorkspace,
    steps: &[Step],
    alpha: f64,
    cache: bool,
) -> Vec<QueryOutcome> {
    steps
        .iter()
        .map(|step| {
            let request =
                QueryRequest::new(&step.query, Algorithm::Tgen(TgenParams { alpha })).cache(cache);
            engine
                .execute_with(workspace, &request)
                .unwrap_or_else(|e| {
                    panic!(
                        "session step {} over {:?} failed: {e:?}",
                        step.label, step.query.region_of_interest
                    )
                })
        })
        .collect()
}

/// Bit-exact fingerprints of a pass's regions, one string per step.
fn fingerprints(outcomes: &[QueryOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| format!("{:?}", o.regions))
        .collect()
}

fn main() {
    let scale = scale_from_env();
    let strict = strict_from_env();

    println!("session (building NY-like dataset at {scale:?}…)");
    let dataset = ny_dataset(scale);
    let params = dataset.default_query_params(2026);
    let base = make_workload(
        &dataset,
        1,
        params.num_keywords,
        params.area_km2,
        params.delta_km,
        2026,
    );
    let base = base.first().expect("workload generated a base query");
    let bounds = dataset.network.bounding_rect().expect("network has nodes");
    let steps = session_trace(base, &bounds);
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let alpha = default_tgen_alpha(&dataset, std::slice::from_ref(base));

    // Cold reference: classic path, cache off, dedicated workspace.  Run once
    // for fingerprints, then timed.
    let mut cold_ws = QueryWorkspace::new();
    let cold_outcomes = run_trace(&engine, &mut cold_ws, &steps, alpha, false);
    let cold_prints = fingerprints(&cold_outcomes);
    assert!(
        cold_outcomes.iter().all(|o| !o.stats.cache),
        "cold pass must stay off the cache path"
    );

    // Warm first pass: cache on, empty cache — all misses.  Timed once
    // (repeating it would turn the misses into hits).
    engine.response_cache().clear();
    let mut session_ws = QueryWorkspace::new();
    let warm_start = std::time::Instant::now();
    let warm_outcomes = run_trace(&engine, &mut session_ws, &steps, alpha, true);
    let warm_secs = warm_start.elapsed().as_secs_f64();
    assert!(
        warm_outcomes
            .iter()
            .all(|o| o.stats.cache && !o.stats.cache_hit),
        "first warm pass over an empty cache must miss every step"
    );

    // Replay + timed passes under the strict gate.
    let (cold_secs, replay_secs, replay_speedup) = gate(
        strict,
        "cached replay speedup",
        Limit::AtLeast(MIN_SPEEDUP),
        || {
            let cold_secs = best_secs(ROUNDS, || {
                let outcomes = run_trace(&engine, &mut cold_ws, &steps, alpha, false);
                assert_eq!(outcomes.len(), steps.len());
            });
            let replay_secs = best_secs(ROUNDS, || {
                let outcomes = run_trace(&engine, &mut session_ws, &steps, alpha, true);
                assert!(
                    outcomes.iter().all(|o| o.stats.cache_hit),
                    "replay over a warm cache must hit every step"
                );
            });
            (cold_secs, replay_secs, cold_secs / replay_secs.max(1e-12))
        },
        |&(_, _, speedup)| speedup,
    );

    // Bit-identity: warm misses and cache hits both reproduce the cold
    // regions exactly.
    let replay_outcomes = run_trace(&engine, &mut session_ws, &steps, alpha, true);
    let warm_prints = fingerprints(&warm_outcomes);
    let replay_prints = fingerprints(&replay_outcomes);
    let identical = warm_prints == cold_prints && replay_prints == cold_prints;

    let per = steps.len() as f64;
    let cache = engine.response_cache();
    println!(
        "session (scale {scale:?}, {} steps: {})",
        steps.len(),
        steps
            .iter()
            .map(|s| s.label)
            .collect::<Vec<_>>()
            .join(" → ")
    );
    println!(
        "  cold pass       : {:>10.1} µs/step (full rescore + solve)",
        cold_secs / per * 1e6
    );
    println!(
        "  warm first pass : {:>10.1} µs/step (all cache misses)",
        warm_secs / per * 1e6
    );
    println!(
        "  replay pass     : {:>10.1} µs/step (all cache hits, {replay_speedup:.2}x)",
        replay_secs / per * 1e6
    );
    println!(
        "  cache counters  : {} hits, {} misses, {} stale, {} entries, {} bytes",
        cache.hits(),
        cache.misses(),
        cache.stale(),
        cache.len(),
        cache.bytes()
    );
    println!("  results identical: {identical}");

    assert!(
        identical,
        "cache misses and hits must be bit-identical to cold runs"
    );

    Report::new("session", "session", scale)
        .field("steps", steps.len())
        .field("cold_us_per_step", cold_secs / per * 1e6)
        .field("warm_first_us_per_step", warm_secs / per * 1e6)
        .field("replay_us_per_step", replay_secs / per * 1e6)
        .field("replay_speedup", replay_speedup)
        .field("cache_hits", cache.hits())
        .field("cache_misses", cache.misses())
        .field("cache_stale", cache.stale())
        .field("cache_entries", cache.len())
        .field("cache_bytes", cache.bytes())
        .field("identical_results", identical)
        .write();
}
