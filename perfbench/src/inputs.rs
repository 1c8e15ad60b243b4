//! Workload inputs: the datasets, the fixed query pools, the per-seed request
//! streams and session schedules, and the answer digests checked against the
//! committed references.
//!
//! Every input is a pure function of constants in this file and `--seed`:
//! the datasets and query pools are fixed (so set-up cost and the answer
//! references do not depend on the seed), and the seed picks the order in
//! which a run sends the pool and — for the served workload — how sessions
//! interleave, which views they start from, and the arrival times.

use crate::stats::{Fnv, SplitMix64, MIN_SAMPLES};
use lcmsr_core::engine::{Algorithm, QueryRequest};
use lcmsr_core::{AppParams, GreedyParams, LcmsrQuery, Region, TgenParams};
use lcmsr_datagen::{Dataset, DatasetConfig, NetworkScale, QueryGenParams};
use lcmsr_roadnet::geo::Rect;
use lcmsr_service::api;
use std::collections::HashMap;

/// Seed of both datasets: the one `experiments` and the `serve` command use.
pub const DATASET_SEED: u64 = 2014;

/// How one pool query is answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    Tgen,
    TgenTop3,
    App,
    AppTop3,
    Greedy,
    GreedyTop3,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Tgen => "tgen",
            Mode::TgenTop3 => "tgen_top3",
            Mode::App => "app",
            Mode::AppTop3 => "app_top3",
            Mode::Greedy => "greedy",
            Mode::GreedyTop3 => "greedy_top3",
        }
    }

    pub fn parse(s: &str) -> Option<Mode> {
        [
            Mode::Tgen,
            Mode::TgenTop3,
            Mode::App,
            Mode::AppTop3,
            Mode::Greedy,
            Mode::GreedyTop3,
        ]
        .into_iter()
        .find(|m| m.name() == s)
    }

    /// The algorithm with its default parameters, except TGEN's α, which
    /// the pool scales to the size of its views (see [`Pool::tgen_alpha`]).
    pub fn algorithm(self, tgen_alpha: f64) -> Algorithm {
        match self {
            Mode::Tgen | Mode::TgenTop3 => Algorithm::Tgen(TgenParams { alpha: tgen_alpha }),
            Mode::App | Mode::AppTop3 => Algorithm::App(AppParams::default()),
            Mode::Greedy | Mode::GreedyTop3 => Algorithm::Greedy(GreedyParams::default()),
        }
    }

    pub fn k(self) -> Option<usize> {
        match self {
            Mode::TgenTop3 | Mode::AppTop3 | Mode::GreedyTop3 => Some(3),
            Mode::Tgen | Mode::App | Mode::Greedy => None,
        }
    }

    /// The engine request for `query` in this mode (cache off).
    pub fn request(self, query: &LcmsrQuery, tgen_alpha: f64) -> QueryRequest<'_> {
        let request = QueryRequest::new(query, self.algorithm(tgen_alpha));
        match self.k() {
            Some(k) => request.top_k(k),
            None => request,
        }
    }
}

/// A direct (in-process, closed-loop) workload's fixed inputs.
#[derive(Debug, Clone, Copy)]
pub struct DirectSpec {
    pub name: &'static str,
    pub scale: NetworkScale,
    pub modes: &'static [Mode],
    /// Queries in the fixed pool; a cycle of requests is every pool query
    /// in every mode (1 024 on both workloads).
    pub pool_size: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
}

pub const SOLVE_TINY: DirectSpec = DirectSpec {
    name: "solve_tiny",
    scale: NetworkScale::Tiny,
    modes: &[Mode::Tgen, Mode::TgenTop3, Mode::App, Mode::AppTop3],
    pool_size: 256,
    setup_repeats: 25,
};

pub const PREPARE_LARGE: DirectSpec = DirectSpec {
    name: "prepare_large",
    scale: NetworkScale::Large,
    modes: &[Mode::Greedy, Mode::GreedyTop3],
    pool_size: 512,
    setup_repeats: 3,
};

/// Queries in `served_sessions`'s fixed pool (its sessions start from the
/// first [`SERVED_VIEWS`]).
pub const SERVED_POOL_SIZE: usize = 256;
/// Seed of the pools' query generator.
pub const POOL_SEED: u64 = 2026;

/// The NY-like dataset at `scale`.
pub fn dataset_config(scale: NetworkScale) -> DatasetConfig {
    DatasetConfig::ny(scale, DATASET_SEED)
}

/// A fixed query pool.
#[derive(Debug, Clone)]
pub struct Pool {
    pub queries: Vec<LcmsrQuery>,
    /// TGEN's α for this pool: one per 65 nodes in the first view, as the
    /// experiment harness and the `session` bench scale it.  The paper's
    /// α = 400 targets 100 km² views; on a tiny network's views it would
    /// collapse every weight to one scaled unit and TGEN to a no-op.
    pub tgen_alpha: f64,
}

/// The fixed query pool: the paper's default parameters (3 keywords;
/// Λ = 100 km², ∆ = 10 km, shrunk to the extent of small networks).
pub fn query_pool(dataset: &Dataset, size: usize) -> Pool {
    let params = QueryGenParams {
        num_queries: size,
        ..dataset.default_query_params(POOL_SEED)
    };
    let queries: Vec<LcmsrQuery> = dataset
        .queries(&params)
        .into_iter()
        .map(|q| LcmsrQuery::new(q.keywords, q.delta, q.rect).expect("generated query is valid"))
        .collect();
    let first_view = queries.first().map_or(0, |q| {
        dataset.network.nodes_in_rect(&q.region_of_interest).len()
    });
    Pool {
        queries,
        tgen_alpha: (first_view.max(1) as f64 / 65.0).max(1.0),
    }
}

/// One request of a direct workload: a pool query answered in one mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectRequest {
    pub pool_index: usize,
    pub mode: Mode,
}

/// The request stream of one run: every pool query in every mode, in an
/// order drawn from `seed`.  Every run sends the same multiset of requests,
/// so the latency distribution does not hinge on which queries a seed
/// happens to pick; the order decides what each request finds in the
/// workspace's grown buffers and the CPU caches.
pub fn direct_requests(spec: &DirectSpec, pool_len: usize, seed: u64) -> Vec<DirectRequest> {
    let mut rng = SplitMix64::new(seed ^ 0xD1EC_7000);
    let mut requests: Vec<DirectRequest> = (0..pool_len)
        .flat_map(|pool_index| {
            spec.modes
                .iter()
                .map(move |&mode| DirectRequest { pool_index, mode })
        })
        .collect();
    rng.shuffle(&mut requests);
    requests
}

/// Digest of an answer's bits: every region's node and edge ids, and the
/// exact bit patterns of its length and weight.
pub fn digest_regions<'r>(regions: impl IntoIterator<Item = &'r Region>) -> u64 {
    let mut h = Fnv::default();
    for r in regions {
        h.u64(r.nodes.len() as u64);
        for n in &r.nodes {
            h.u64(u64::from(n.0));
        }
        h.u64(r.edges.len() as u64);
        for e in &r.edges {
            h.u64(u64::from(e.0));
        }
        h.u64(r.length.to_bits());
        h.u64(r.weight.to_bits());
        h.u64(r.scaled_weight);
    }
    h.finish()
}

/// Digest of a served answer, equal to [`digest_regions`] of the engine
/// regions it encodes when the wire form is bit-exact.
pub fn digest_dtos(regions: &[api::RegionDto]) -> u64 {
    let regions: Vec<Region> = regions.iter().map(api::RegionDto::to_region).collect();
    digest_regions(&regions)
}

/// The committed answer references, one line per pool query and mode:
/// `<pool index> <mode> <digest in hex>`.
pub fn reference_text(workload: &str) -> Option<&'static str> {
    match workload {
        "solve_tiny" => Some(include_str!("../reference/solve_tiny.txt")),
        "prepare_large" => Some(include_str!("../reference/prepare_large.txt")),
        _ => None,
    }
}

/// Answer digests by `(pool index, mode)`.
pub type Reference = HashMap<(usize, Mode), u64>;

/// Parses a reference file.
pub fn parse_reference(text: &str) -> Result<Reference, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut parts = line.split_whitespace();
            let bad = || format!("malformed reference line '{line}'");
            let index = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
            let mode = parts.next().and_then(Mode::parse).ok_or_else(bad)?;
            let digest = parts
                .next()
                .and_then(|p| u64::from_str_radix(p, 16).ok())
                .ok_or_else(bad)?;
            Ok(((index, mode), digest))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Served sessions
// ---------------------------------------------------------------------------

/// Offered load of `served_sessions`, requests per second.
pub const SERVED_RATE_QPS: f64 = 100.0;
/// One arrival in this many is a batch-lane APP top-3 sweep; the rest are
/// interactive session steps.
pub const SERVED_BATCH_EVERY: usize = 16;
/// Simulated users exploring at the same time.
pub const SERVED_USERS: usize = 8;
/// Pool queries (the first ones) whose views start sessions and batch sweeps.
pub const SERVED_VIEWS: usize = 64;
/// The benchmark bumps the dataset epoch this often, seconds.
pub const SERVED_EPOCH_EVERY_S: f64 = 1.0;

/// One scheduled request of the open loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// When the request is due, seconds after the window opens.
    pub due_s: f64,
    /// The request body sent to `POST /query`.
    pub body: String,
    /// Whether it rides the batch lane.
    pub batch: bool,
}

/// Shifts `rect` by fractions of its own extent.
fn pan(rect: &Rect, dx: f64, dy: f64) -> Rect {
    let (w, h) = (rect.width(), rect.height());
    Rect::new(
        rect.min_x + dx * w,
        rect.min_y + dy * h,
        rect.max_x + dx * w,
        rect.max_y + dy * h,
    )
}

/// Scales `rect` around its centre.
fn zoom(rect: &Rect, factor: f64) -> Rect {
    Rect::centered(rect.center(), rect.width() * factor, rect.height() * factor)
}

/// One session step: the keywords and the view.
pub type Step = (Vec<String>, Rect);

/// One user's exploration session from a base view, in the shape of the
/// `session` bench trace: pans, a zoom in and out, a keyword refinement, a
/// pan under the refined keywords, and returns to earlier views (revisits
/// the response cache can answer).  Pans head to the side of `bounds` with
/// room so no step leaves the populated area.
pub fn session_steps(base: &LcmsrQuery, bounds: &Rect) -> Vec<Step> {
    let full = base.keywords.clone();
    let refined: Vec<String> = full[..full.len().saturating_sub(1).max(1)].to_vec();
    let r0 = base.region_of_interest;
    let (w, h) = (r0.width(), r0.height());
    let (room_e, room_w) = (bounds.max_x - r0.max_x, r0.min_x - bounds.min_x);
    let sx = if room_e >= room_w { 1.0 } else { -1.0 };
    let fx = sx * (room_e.max(room_w) / (3.0 * w)).clamp(0.001, 0.25);
    let (room_n, room_s) = (bounds.max_y - r0.max_y, r0.min_y - bounds.min_y);
    let sy = if room_n >= room_s { 1.0 } else { -1.0 };
    let fy = sy * (room_n.max(room_s) / h).clamp(0.001, 0.25);
    let r1 = pan(&r0, fx, 0.0);
    let r2 = pan(&r1, fx, 0.0);
    let r3 = zoom(&r2, 0.7);
    let r4 = zoom(&r3, 1.3);
    let r5 = pan(&r4, 0.0, fy);
    vec![
        (full.clone(), r0),
        (full.clone(), r1),
        (full.clone(), r2),
        (full.clone(), r3),
        (full.clone(), r4),
        (refined.clone(), r4),
        (refined, r5),
        (full.clone(), r1),
        (full, r0),
    ]
}

/// A `POST /query` body: batch-lane APP top-3 with the cache off, or an
/// interactive-lane TGEN step with the cache on.  Neither overrides a
/// parameter, so the service runs the algorithms' defaults.
pub fn body(keywords: Vec<String>, rect: Rect, budget: f64, batch: bool) -> String {
    api::QueryRequest {
        algorithm: if batch { "app" } else { "tgen" }.into(),
        keywords,
        rect,
        budget,
        k: batch.then_some(3),
        alpha: None,
        beta: None,
        mu: None,
        deadline_ms: None,
        priority: Some(if batch { "batch" } else { "interactive" }.into()),
        cache: Some(!batch),
    }
    .to_body()
}

/// Deals indices `0..n` in seeded permutations, one full pass after
/// another, so every run draws nearly the same multiset of views and the
/// seed varies their order.
struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(n: usize) -> Self {
        Deck {
            order: (0..n).collect(),
            next: n,
        }
    }

    fn draw(&mut self, rng: &mut SplitMix64) -> usize {
        if self.next == self.order.len() {
            rng.shuffle(&mut self.order);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// Arrivals in one pass of `served_sessions`: at least [`MIN_SAMPLES`], and
/// a whole number of rounds in which every view rides the batch lane once.
pub const SERVED_PASS_ARRIVALS: usize = {
    let round = SERVED_BATCH_EVERY * SERVED_VIEWS;
    MIN_SAMPLES.div_ceil(round) * round
};

/// Passes of the schedule a run of `seconds` replays: as many as fill the
/// window at [`SERVED_RATE_QPS`], rounded up, and at least one.
pub fn served_passes(seconds: f64) -> usize {
    ((SERVED_RATE_QPS * seconds / SERVED_PASS_ARRIVALS as f64).ceil() as usize).max(1)
}

/// The open-loop schedule of one pass: [`SERVED_PASS_ARRIVALS`] Poisson
/// arrivals at `rate`.  In every block of [`SERVED_BATCH_EVERY`] arrivals one,
/// at a seeded position, is a batch-lane APP top-3 sweep (cache off); the
/// rest are the next steps of [`SERVED_USERS`] concurrent TGEN exploration
/// sessions (cache on).  A user whose session ends starts a new one from the
/// next view dealt.  Batch sweeps deal the views in whole rounds, so every
/// pass carries the same batch-lane requests and the seed moves only their
/// order and timing.
pub fn served_schedule(pool: &Pool, bounds: &Rect, seed: u64, rate: f64) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed ^ 0x5E55_1000);
    let views = &pool.queries[..SERVED_VIEWS.min(pool.queries.len())];
    let mut session_deck = Deck::new(views.len());
    let mut batch_deck = Deck::new(views.len());
    let mut new_session = |rng: &mut SplitMix64| {
        let base = &views[session_deck.draw(rng)];
        let mut steps = session_steps(base, bounds);
        steps.reverse(); // popped from the back, first step first
        (steps, base.delta)
    };
    let mut users: Vec<(Vec<Step>, f64)> =
        (0..SERVED_USERS).map(|_| new_session(&mut rng)).collect();
    let count = SERVED_PASS_ARRIVALS;
    let span = count as f64 / rate;
    let mut arrivals = Vec::with_capacity(count);
    let mut batch_slot = 0;
    let mut t = 0.0;
    while arrivals.len() < count {
        t += rng.exp_gap_s(rate);
        let slot = arrivals.len() % SERVED_BATCH_EVERY;
        if slot == 0 {
            batch_slot = rng.below(SERVED_BATCH_EVERY);
        }
        if slot == batch_slot {
            let q = &views[batch_deck.draw(&mut rng)];
            arrivals.push(Arrival {
                due_s: t,
                body: body(q.keywords.clone(), q.region_of_interest, q.delta, true),
                batch: true,
            });
        } else {
            let u = rng.below(users.len());
            if users[u].0.is_empty() {
                users[u] = new_session(&mut rng);
            }
            let delta = users[u].1;
            let (keywords, rect) = users[u].0.pop().expect("a fresh session has steps");
            arrivals.push(Arrival {
                due_s: t,
                body: body(keywords, rect, delta, false),
                batch: false,
            });
        }
    }
    // Stretch the arrivals to span exactly `count / rate` seconds — a Poisson
    // process conditioned on its count — so the offered rate is the same
    // in every run and the seed moves only the arrival pattern.
    let scale = span / t;
    for a in &mut arrivals {
        a.due_s *= scale;
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Dataset, Pool) {
        let dataset = Dataset::build(dataset_config(NetworkScale::Tiny));
        let pool = query_pool(&dataset, 64);
        (dataset, pool)
    }

    #[test]
    fn direct_inputs_are_a_function_of_the_seed() {
        let a = direct_requests(&SOLVE_TINY, 256, 11);
        let b = direct_requests(&SOLVE_TINY, 256, 11);
        let c = direct_requests(&SOLVE_TINY, 256, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 256 * SOLVE_TINY.modes.len());
        // Every pool query runs in every mode exactly once.
        for r in &a {
            let modes = a.iter().filter(|x| x.pool_index == r.pool_index).count();
            assert_eq!(modes, SOLVE_TINY.modes.len());
        }
    }

    #[test]
    fn pools_and_datasets_do_not_depend_on_the_seed() {
        let (_, a) = tiny();
        let (_, b) = tiny();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.queries.len() >= 64);
    }

    #[test]
    fn served_schedules_are_byte_identical_for_one_seed() {
        let (dataset, pool) = tiny();
        let bounds = dataset.network.bounding_rect().expect("network has nodes");
        let a = served_schedule(&pool, &bounds, 5, SERVED_RATE_QPS);
        let b = served_schedule(&pool, &bounds, 5, SERVED_RATE_QPS);
        let c = served_schedule(&pool, &bounds, 6, SERVED_RATE_QPS);
        let bytes = |s: &[Arrival]| {
            s.iter()
                .map(|a| format!("{:016x} {}\n", a.due_s.to_bits(), a.body))
                .collect::<String>()
        };
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        // Arrivals are ordered, at exactly the offered rate, with enough of
        // them for a p99.
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert_eq!(a.len(), SERVED_PASS_ARRIVALS);
        const { assert!(SERVED_PASS_ARRIVALS >= MIN_SAMPLES) };
        let span = a.last().expect("arrivals").due_s;
        let want = SERVED_PASS_ARRIVALS as f64 / SERVED_RATE_QPS;
        assert!((span - want).abs() < 1e-9, "{span}");
        // One arrival in every block is a batch sweep, and every seed sends
        // the same batch-lane bodies, each view equally often.
        for block in a.chunks(SERVED_BATCH_EVERY) {
            assert_eq!(block.iter().filter(|x| x.batch).count(), 1);
        }
        let sweeps = |s: &[Arrival]| {
            let mut v: Vec<String> = s
                .iter()
                .filter(|x| x.batch)
                .map(|x| x.body.clone())
                .collect();
            v.sort();
            v
        };
        assert_eq!(sweeps(&a), sweeps(&c));
        let distinct: std::collections::HashSet<String> = sweeps(&a).into_iter().collect();
        assert_eq!(distinct.len(), SERVED_VIEWS);
        // Every body decodes on the service's parser.
        for x in &a {
            let decoded = api::QueryRequest::from_body(&x.body).expect("body decodes");
            decoded.to_query().expect("body is a valid query");
        }
    }

    #[test]
    fn served_passes_fill_the_window() {
        assert_eq!(served_passes(0.5), 1);
        let pass_s = SERVED_PASS_ARRIVALS as f64 / SERVED_RATE_QPS;
        assert_eq!(served_passes(pass_s), 1);
        assert_eq!(served_passes(pass_s * 2.5), 3);
    }

    #[test]
    fn sessions_revisit_earlier_views() {
        let (dataset, pool) = tiny();
        let bounds = dataset.network.bounding_rect().expect("network has nodes");
        let steps = session_steps(&pool.queries[0], &bounds);
        let last = steps.last().expect("session has steps");
        assert_eq!(last, &steps[0], "a session returns to its first view");
        assert!(steps[1..steps.len() - 1].contains(&steps[steps.len() - 2]));
    }

    #[test]
    fn references_parse() {
        let parsed = parse_reference("# c\n3 tgen_top3 00ff\n\n").expect("parses");
        assert_eq!(parsed, Reference::from([((3, Mode::TgenTop3), 0xff)]));
        assert!(parse_reference("3 nope 00").is_err());
    }
}
