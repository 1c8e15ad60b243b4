//! The machine-speed gauge: a fixed task of the benchmark's own, run
//! between requests, whose time scales the measured times to a machine of
//! fixed speed.
//!
//! The benchmark gets a share of a host whose other tenants slow it down in
//! phases that last from seconds to minutes, by up to half.  The slowdown
//! hits cache- and branch-heavy code such as the solvers and grid scoring,
//! and barely touches a loop that stays in L1 or a chain of DRAM loads.  A
//! gauge round of the first kind slows in step with the program.  Measured
//! on the `solve_tiny` requests over four minutes of 30-s windows, the
//! windows' median request time spread by 0.18 (quartile distance over
//! median), and that time divided by the window's mean round by 0.04.
//!
//! A round copies a fixed pseudo-random array of 32 768 `u64`s, sorts it,
//! and tallies 4 096 of its values in a `BTreeMap`.  A time `t` measured
//! while rounds took `g` on average is reported as `t × REFERENCE_ROUND / g`:
//! the time it would take on a machine where one round takes 1 ms.  The
//! gauge lives in the benchmark's own files, so every commit compared is
//! scaled by the same task.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A round's time on the reference machine.
pub const REFERENCE_ROUND: Duration = Duration::from_millis(1);

/// Least time between two rounds taken by [`Gauge::tick`]: a round is ~1 ms,
/// so the gauge takes about 2% of a measured window.
pub const INTERVAL: Duration = Duration::from_millis(50);

const ELEMENTS: u64 = 32_768;
const TALLIED: usize = 4_096;

/// Round times taken so far.
#[derive(Debug)]
pub struct Gauge {
    input: Vec<u64>,
    scratch: Vec<u64>,
    rounds_s: Vec<f64>,
    last: Option<Instant>,
    spent: Duration,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            input: (0..ELEMENTS)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            scratch: Vec::with_capacity(ELEMENTS as usize),
            rounds_s: Vec::new(),
            last: None,
            spent: Duration::ZERO,
        }
    }
}

impl Gauge {
    /// Runs one round, records its time and returns it in seconds.
    pub fn round(&mut self) -> f64 {
        let start = Instant::now();
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.input);
        self.scratch.sort_unstable();
        let mut tally: BTreeMap<u64, u64> = BTreeMap::new();
        for &v in self.input.iter().take(TALLIED) {
            *tally.entry(v % 1_000).or_insert(0) += v;
        }
        black_box((&self.scratch, tally.len()));
        let end = Instant::now();
        let took = end - start;
        self.rounds_s.push(took.as_secs_f64());
        self.spent += took;
        self.last = Some(end);
        took.as_secs_f64()
    }

    /// Runs `n` rounds back to back.
    pub fn rounds_of(&mut self, n: usize) {
        for _ in 0..n {
            self.round();
        }
    }

    /// Runs a round when [`INTERVAL`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.map_or(true, |t| t.elapsed() >= INTERVAL) {
            self.round();
        }
    }

    /// Rounds taken.
    pub fn rounds(&self) -> usize {
        self.rounds_s.len()
    }

    /// Time spent in rounds.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Mean round time, seconds.
    pub fn mean_round_s(&self) -> f64 {
        crate::stats::mean(&self.rounds_s)
    }

    /// The factor that turns a time measured while the rounds ran into the
    /// reference machine's: `REFERENCE_ROUND / mean round`.  1 before any
    /// round.
    pub fn scale(&self) -> f64 {
        if self.rounds_s.is_empty() {
            1.0
        } else {
            REFERENCE_ROUND.as_secs_f64() / self.mean_round_s()
        }
    }
}

/// The scale at `at_s` from rounds taken at known times, `(seconds, round
/// seconds)`: `REFERENCE_ROUND / mean round` over the rounds within
/// `half_width_s` of `at_s`, or over all of them when none is that close.
/// 1 without rounds.
pub fn scale_near(rounds: &[(f64, f64)], at_s: f64, half_width_s: f64) -> f64 {
    let near: Vec<f64> = rounds
        .iter()
        .filter(|(t, _)| (t - at_s).abs() <= half_width_s)
        .map(|&(_, r)| r)
        .collect();
    let pool = if near.is_empty() {
        rounds.iter().map(|&(_, r)| r).collect()
    } else {
        near
    };
    if pool.is_empty() {
        1.0
    } else {
        REFERENCE_ROUND.as_secs_f64() / crate::stats::mean(&pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_spaced_and_scale_follows_the_rounds() {
        let mut g = Gauge::default();
        assert_eq!(g.scale(), 1.0);
        g.tick();
        g.tick();
        assert_eq!(g.rounds(), 1, "a second tick within the interval waits");
        g.round();
        assert_eq!(g.rounds(), 2);
        assert!(g.spent() > Duration::ZERO);
        let want = REFERENCE_ROUND.as_secs_f64() / g.mean_round_s();
        assert_eq!(g.scale(), want);
        assert!(g.scale().is_finite() && g.scale() > 0.0);
    }

    #[test]
    fn scale_near_uses_the_rounds_around_a_time() {
        let rounds = [(0.0, 0.002), (1.0, 0.001), (5.0, 0.0005)];
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(scale_near(&rounds, 0.9, 0.5), 1.0));
        assert!(close(scale_near(&rounds, 0.5, 0.5), 1.0 / 1.5));
        assert!(close(scale_near(&rounds, 5.2, 0.5), 2.0));
        // Nothing near: every round counts.
        assert!(close(scale_near(&rounds, 3.0, 0.5), 3.0 / 3.5));
        assert_eq!(scale_near(&[], 3.0, 0.5), 1.0);
    }
}
