//! Shadow-model property tests for the metrics latency histogram: the count,
//! the sum and the cumulative buckets (with the overflow bucket) are replayed
//! against a naive model holding the raw samples, so bucketing bugs cannot
//! hide behind plausible-looking numbers.

use lcmsr_service::metrics::{LatencyHistogram, LATENCY_BOUNDS_US};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn histogram_matches_the_shadow_model(
        // Spans every bucket plus the overflow region beyond 5 s.
        samples_us in collection::vec(0u64..20_000_000, 0..200),
    ) {
        let h = LatencyHistogram::default();
        for &us in &samples_us {
            h.record(Duration::from_micros(us));
        }
        prop_assert_eq!(h.count(), samples_us.len() as u64);

        // `cumulative()` is consistent with a naive replay: the count at each
        // bound is exactly the number of samples at or under it, ending in a
        // catch-all +Inf bucket.
        let cumulative = h.cumulative();
        prop_assert_eq!(cumulative.len(), LATENCY_BOUNDS_US.len() + 1);
        prop_assert_eq!(cumulative[cumulative.len() - 1].0, u64::MAX);
        for &(bound, seen) in &cumulative {
            let naive = samples_us.iter().filter(|&&us| us <= bound).count() as u64;
            prop_assert_eq!(seen, naive, "bound {} us", bound);
        }

        // The sum is exact (it is tracked outside the buckets).
        prop_assert_eq!(h.total_us(), samples_us.iter().sum::<u64>());
    }
}

#[test]
fn overflow_samples_land_in_the_inf_bucket() {
    let h = LatencyHistogram::default();
    h.record(Duration::from_secs(3600));
    assert_eq!(h.cumulative()[LATENCY_BOUNDS_US.len() - 1].1, 0);
    assert_eq!(h.cumulative().last(), Some(&(u64::MAX, 1)));
}
