//! Property tests of the CDF and summary statistics.

use pnats_metrics::{Cdf, Summary};
use proptest::prelude::*;

/// A 17-point downsampled series starts at the minimum, ends at the
/// maximum with full mass, and is monotone in both coordinates.
fn check_series(samples: Vec<f64>) -> Result<(), TestCaseError> {
    let c = Cdf::new(samples);
    let s = c.series(17);
    prop_assert_eq!(s.len(), 17);
    prop_assert_eq!(s[0].0, c.min().unwrap());
    prop_assert_eq!(s[16].0, c.max().unwrap());
    prop_assert_eq!(s[16].1, 1.0);
    for w in s.windows(2) {
        prop_assert!(w[1].0 >= w[0].0);
        prop_assert!(w[1].1 >= w[0].1);
    }
    Ok(())
}

/// The shrunk failure proptest once recorded for
/// `series_is_monotone_and_spans`: two samples, where interpolating the
/// series' last point must still land exactly on the maximum.
#[test]
fn series_of_two_samples_ends_at_the_max() {
    check_series(vec![29.240692751462518, 881.3933635449988]).unwrap();
}

proptest! {
    #[test]
    fn cdf_is_a_distribution_function(samples in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
        let c = Cdf::new(samples.clone());
        // Monotone, bounded, complete.
        let mut last = 0.0;
        for (x, f) in c.steps() {
            prop_assert!(f >= last);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(x.is_finite());
            last = f;
        }
        prop_assert_eq!(c.fraction_at(f64::MAX), 1.0);
        prop_assert_eq!(c.fraction_at(c.min().unwrap() - 1.0), 0.0);
    }

    #[test]
    fn quantile_and_fraction_are_consistent(
        samples in proptest::collection::vec(0.0f64..1e6, 1..100),
        q in 0.01f64..1.0,
    ) {
        let c = Cdf::new(samples);
        let x = c.quantile(q);
        // At least q of the mass is at or below the q-quantile.
        prop_assert!(c.fraction_at(x) >= q - 1e-9);
    }

    #[test]
    fn summary_orders_its_quantiles(samples in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let s = Summary::of(&samples).unwrap();
        prop_assert!(s.min <= s.p25);
        prop_assert!(s.p25 <= s.p50);
        prop_assert!(s.p50 <= s.p75);
        prop_assert!(s.p75 <= s.p95);
        prop_assert!(s.p95 <= s.max);
        prop_assert!(s.mean >= s.min && s.mean <= s.max);
        prop_assert_eq!(s.n, samples.len());
    }

    #[test]
    fn series_is_monotone_and_spans(samples in proptest::collection::vec(0.0f64..1e3, 2..100)) {
        check_series(samples)?;
    }
}
