//! What the seven gated smoke benches under `crates/bench/benches` share:
//! best-of timing, a nearest-rank percentile, the strict gate with its one
//! re-measure, and the JSON report.
//!
//! Each bench keeps its sizes and limits as constants in its own file.  Three
//! inputs come from the environment, each read in one place: `LCMSR_SCALE`
//! (the dataset preset, [`crate::scale_from_env`]), `LCMSR_BENCH_STRICT`
//! ([`strict_from_env`]: when set, the gates assert) and `LCMSR_BENCH_OUT`
//! (the report path, [`Report::write`]).

use lcmsr_datagen::prelude::NetworkScale;
use lcmsr_service::json::Json;
use std::fmt;
use std::time::Instant;

/// Best-of-`rounds` wall-clock seconds for `f` (the benches gate on this;
/// best-of smooths scheduler noise better than a mean).
pub fn best_secs(rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of an ascending-sorted
/// sample: the element at rank `⌈q·n⌉`, clamped to `1..=n`.  An empty sample
/// gives `T::default()`.
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Whether the gates assert: `LCMSR_BENCH_STRICT` is set.  CI sets it; a
/// local run only reports.
pub fn strict_from_env() -> bool {
    std::env::var("LCMSR_BENCH_STRICT").is_ok()
}

/// The limit a gate holds its figure to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// The figure must be at least this (a speedup floor).
    AtLeast(f64),
    /// The figure must be at most this (an overrun or overhead ceiling).
    AtMost(f64),
}

impl Limit {
    fn holds(self, figure: f64) -> bool {
        match self {
            Limit::AtLeast(floor) => figure >= floor,
            Limit::AtMost(ceiling) => figure <= ceiling,
        }
    }
}

impl fmt::Display for Limit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Limit::AtLeast(floor) => write!(f, "the {floor} floor"),
            Limit::AtMost(ceiling) => write!(f, "the {ceiling} ceiling"),
        }
    }
}

/// The strict gate: runs `measure` and returns its result, reading the gated
/// figure with `figure`.  When `strict`, a figure that misses `limit` is
/// re-measured once (on a shared runner a noisy neighbour can skew a single
/// window) and the second figure is asserted.  Off strict, nothing is
/// re-measured or asserted.
pub fn gate<T>(
    strict: bool,
    what: &str,
    limit: Limit,
    mut measure: impl FnMut() -> T,
    figure: impl Fn(&T) -> f64,
) -> T {
    let first = measure();
    let value = figure(&first);
    if !strict || limit.holds(value) {
        return first;
    }
    eprintln!("  {what} {value:.3} misses {limit}; re-measuring once");
    let second = measure();
    let value = figure(&second);
    assert!(limit.holds(value), "{what} {value:.3} misses {limit}");
    second
}

/// A value a [`Report`] field holds.
pub trait ReportValue {
    /// The value as JSON.
    fn into_json(self) -> Json;
}

impl ReportValue for f64 {
    fn into_json(self) -> Json {
        Json::Number(self)
    }
}

impl ReportValue for u64 {
    fn into_json(self) -> Json {
        Json::Number(self as f64)
    }
}

impl ReportValue for usize {
    fn into_json(self) -> Json {
        Json::Number(self as f64)
    }
}

impl ReportValue for bool {
    fn into_json(self) -> Json {
        Json::Bool(self)
    }
}

/// A bench's JSON report: fields in insertion order, starting with
/// `"bench"` and `"scale"`.
#[derive(Debug)]
pub struct Report {
    name: &'static str,
    fields: Vec<(&'static str, Json)>,
}

impl Report {
    /// Starts the report of `bench` at `scale`, written to
    /// `BENCH_<name>.json`.
    pub fn new(bench: &str, name: &'static str, scale: NetworkScale) -> Report {
        Report {
            name,
            fields: vec![
                ("bench", Json::String(bench.to_string())),
                ("scale", Json::String(format!("{scale:?}"))),
            ],
        }
    }

    /// Appends a field.
    pub fn field(&mut self, key: &'static str, value: impl ReportValue) -> &mut Report {
        self.fields.push((key, value.into_json()));
        self
    }

    /// The report as JSON text, one field per line, keys and values encoded
    /// by [`Json::encode`] (a non-finite number becomes `null`).
    fn render(&self) -> String {
        let lines: Vec<String> = self
            .fields
            .iter()
            .map(|(key, value)| {
                let key = Json::String((*key).to_string());
                format!("  {}: {}", key.encode(), value.encode())
            })
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Writes the report to `LCMSR_BENCH_OUT` when set, else to
    /// `BENCH_<name>.json`.
    pub fn write(&self) {
        let path = std::env::var("LCMSR_BENCH_OUT")
            .unwrap_or_else(|_| format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("  wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::time::Duration;

    /// Gates a scripted series of figures; returns how many were measured
    /// and the figure the gate returned.
    fn gated(strict: bool, limit: Limit, figures: &[f64]) -> (usize, f64) {
        let measured = Cell::new(0);
        let figure = gate(
            strict,
            "figure",
            limit,
            || {
                let i = measured.get();
                measured.set(i + 1);
                figures[i]
            },
            |&f| f,
        );
        (measured.get(), figure)
    }

    #[test]
    fn the_gate_re_measures_once_after_a_first_miss() {
        assert_eq!(gated(true, Limit::AtLeast(2.0), &[1.5, 2.5]), (2, 2.5));
        assert_eq!(gated(true, Limit::AtMost(1.25), &[2.0, 1.0]), (2, 1.0));
    }

    #[test]
    fn the_gate_does_not_re_measure_after_a_pass_or_off_strict() {
        assert_eq!(gated(true, Limit::AtLeast(2.0), &[2.0]), (1, 2.0));
        assert_eq!(gated(true, Limit::AtMost(1.25), &[1.25]), (1, 1.25));
        assert_eq!(gated(false, Limit::AtLeast(2.0), &[1.0, 3.0]), (1, 1.0));
        assert_eq!(gated(false, Limit::AtMost(1.0), &[f64::NAN]).0, 1);
    }

    #[test]
    #[should_panic(expected = "figure 5.000 misses the 1 ceiling")]
    fn the_gate_asserts_the_second_miss_when_strict() {
        // A third measurement would pass; the gate must not take it.
        gated(true, Limit::AtMost(1.0), &[5.0, 5.0, 0.0]);
    }

    #[test]
    fn percentile_is_the_nearest_rank() {
        let sample = |n: u64| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(percentile(&sample(1), 0.5), 1.0);
        assert_eq!(percentile(&sample(1), 0.99), 1.0);
        // 64 is the deadline bench's trial count: ⌈0.99 · 64⌉ = 64.
        assert_eq!(percentile(&sample(64), 0.99), 64.0);
        assert_eq!(percentile(&sample(64), 0.5), 32.0);
        assert_eq!(percentile(&sample(100), 0.99), 99.0);
        assert_eq!(percentile(&sample(100), 0.5), 50.0);
        assert_eq!(percentile::<f64>(&[], 0.99), 0.0);
        let latencies: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(percentile(&latencies, 0.99), Duration::from_micros(99));
    }

    #[test]
    fn a_report_parses_back_in_insertion_order() {
        let mut report = Report::new("demo_bench", "demo", NetworkScale::Tiny);
        report
            .field("zeta", 1.5)
            .field("alpha", 7usize)
            .field("count", 3u64)
            .field("identical", true)
            .field("infinite", f64::INFINITY)
            .field("undefined", f64::NAN);
        let parsed = lcmsr_service::json::parse(&report.render()).expect("valid JSON");
        let Json::Object(fields) = parsed else {
            panic!("a report is an object, got {parsed:?}");
        };
        let expected = [
            ("bench", Json::String("demo_bench".into())),
            ("scale", Json::String("Tiny".into())),
            ("zeta", Json::Number(1.5)),
            ("alpha", Json::Number(7.0)),
            ("count", Json::Number(3.0)),
            ("identical", Json::Bool(true)),
            ("infinite", Json::Null),
            ("undefined", Json::Null),
        ];
        let expected: Vec<(String, Json)> = expected
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect();
        assert_eq!(fields, expected);
    }
}
