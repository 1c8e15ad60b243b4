//! The benchmark's arithmetic: percentiles of latency samples, quartiles of
//! run-to-run results, failure fractions, and a small seeded generator.

/// Fewest latency samples a run reports: its p99 then has ten samples
/// beyond it.
pub const MIN_SAMPLES: usize = 1_000;

/// Nearest-rank percentile (`q` in 0..=1) of `samples`: the smallest value
/// with at least `q` of the samples at or below it.  0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// [`percentile`] over samples already sorted ascending.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The three cut points of Python's `statistics.quantiles(data, n=4)` with
/// its default `exclusive` method, so run-to-run spreads computed here match
/// the ones computed from the printed results.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..4).zip(cuts.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Share of attempted requests that did not succeed.  A refused (503),
/// partial, errored or wrong answer all count as failed.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Latency summary of one run.  Requests that failed count as missing every
/// percentile: they enter the ranking as +∞, so a run that refuses its slow
/// requests cannot look faster than one that answers them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub p50: f64,
    pub p99: f64,
    pub samples: usize,
}

/// Summarises `ok` latencies plus `failed` requests ranked beyond every
/// latency limit.
pub fn latency_summary(ok: &[f64], failed: usize) -> LatencySummary {
    let mut all = ok.to_vec();
    all.extend(std::iter::repeat(f64::INFINITY).take(failed));
    all.sort_by(f64::total_cmp);
    LatencySummary {
        p50: percentile_sorted(&all, 0.5),
        p99: percentile_sorted(&all, 0.99),
        samples: all.len(),
    }
}

/// SplitMix64: the benchmark's own seeded generator, so workload inputs
/// depend on nothing but `--seed` (not on a library's RNG stream).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate` per second.
    pub fn exp_gap_s(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// FNV-1a, 64 bit: the digest of answer bits.  Stable across Rust versions
/// and platforms, unlike the standard library's hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 0.99), 99.0);
        // 1000 samples: p99 leaves exactly ten samples beyond it.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&w, 0.99);
        assert_eq!(w.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn failed_fraction_and_failed_requests_miss_every_percentile() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(200, 0), 0.0);
        assert_eq!(failed_frac(200, 3), 0.015);
        let ok: Vec<f64> = (1..=98).map(f64::from).collect();
        let s = latency_summary(&ok, 2);
        assert_eq!(s.samples, 100);
        assert_eq!(s.p50, 50.0);
        // Two failures among 100 push p99 past every answered latency.
        assert!(s.p99.is_infinite());
        let s = latency_summary(&ok, 0);
        assert_eq!(s.p99, 98.0);
    }

    #[test]
    fn generator_is_seeded() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(8);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = SplitMix64::new(1);
        let gaps: Vec<f64> = (0..20_000).map(|_| r.exp_gap_s(100.0)).collect();
        let m = mean(&gaps);
        assert!((m - 0.01).abs() < 0.0005, "mean gap {m}");
    }

    #[test]
    fn fnv_digest_is_stable() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
