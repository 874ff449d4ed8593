//! Property-based tests for the statistics toolkit.
//!
//! Part of the tier-1 gate (`cargo test`): `proptest` is the vendored
//! offline shim, and the whole suite runs in well under a second at the
//! default 256 cases.

use pi2_stats::{jain_fairness, mean, percentile, stddev, Cdf, Summary};
use proptest::prelude::*;

fn finite_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..200)
}

/// Samples full of ties: a few small integers (as the monitor's quantized
/// `f32` buffers produce), both signed zeros, and some spread.
fn tied_samples() -> impl Strategy<Value = Vec<f64>> {
    let value = prop_oneof![
        (-3i64..4).prop_map(|k| k as f64),
        Just(0.0),
        Just(-0.0),
        -10f64..10.0,
    ];
    prop::collection::vec(value, 0..300)
}

/// The quantile definition: a stable `partial_cmp` sort, then linear
/// interpolation between the order statistics around `q·(n−1)`.
fn sorted_quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

proptest! {
    /// Percentiles are monotone in the quantile and bounded by min/max.
    #[test]
    fn percentile_monotone_and_bounded(samples in finite_samples()) {
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = percentile(&samples, q);
            prop_assert!(v >= prev - 1e-9);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            prev = v;
        }
        prop_assert_eq!(percentile(&samples, 0.0), lo);
        prop_assert_eq!(percentile(&samples, 1.0), hi);
    }

    /// The mean lies within [min, max] and matches a direct sum.
    #[test]
    fn mean_is_bounded(samples in finite_samples()) {
        let m = mean(&samples);
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    /// Standard deviation is translation-invariant and scales linearly.
    #[test]
    fn stddev_affine_properties(samples in finite_samples(), shift in -1e3f64..1e3) {
        let s0 = stddev(&samples);
        let shifted: Vec<f64> = samples.iter().map(|x| x + shift).collect();
        prop_assert!((stddev(&shifted) - s0).abs() < 1e-6 * (1.0 + s0));
        let doubled: Vec<f64> = samples.iter().map(|x| x * 2.0).collect();
        prop_assert!((stddev(&doubled) - 2.0 * s0).abs() < 1e-6 * (1.0 + s0));
    }

    /// Jain's index is always in [1/n, 1] for non-negative rates.
    #[test]
    fn jain_in_range(rates in prop::collection::vec(0.0f64..1e6, 1..50)) {
        let j = jain_fairness(&rates);
        let n = rates.len() as f64;
        prop_assert!(j <= 1.0 + 1e-9, "{j}");
        if rates.iter().any(|&r| r > 0.0) {
            prop_assert!(j >= 1.0 / n - 1e-9, "{j} < 1/{n}");
        }
    }

    /// The CDF is a valid distribution function: monotone, 0 before the
    /// minimum, 1 from the maximum on; and quantile() inverts at().
    #[test]
    fn cdf_is_a_distribution(samples in finite_samples()) {
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let cdf = Cdf::new(samples.clone());
        prop_assert_eq!(cdf.at(lo - 1.0), 0.0);
        prop_assert_eq!(cdf.at(hi), 1.0);
        let mut prev = 0.0;
        for i in 0..=10 {
            let x = lo + (hi - lo) * i as f64 / 10.0;
            let y = cdf.at(x);
            prop_assert!(y >= prev);
            prev = y;
        }
        // Galois-ish inversion, up to interpolation slack: quantile()
        // interpolates between order statistics, so at(quantile(q)) can
        // undershoot q by at most one sample's worth of mass.
        let slack = 1.0 / samples.len() as f64;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            prop_assert!(cdf.at(cdf.quantile(q)) >= q - slack - 1e-9);
        }
    }

    /// Summary percentiles are internally ordered.
    #[test]
    fn summary_percentiles_ordered(samples in finite_samples()) {
        let s = Summary::of(&samples);
        prop_assert!(s.p1 <= s.p25 + 1e-9);
        prop_assert!(s.p25 <= s.p50 + 1e-9);
        prop_assert!(s.p50 <= s.p99 + 1e-9);
        prop_assert!(s.p99 <= s.max + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
    }

    /// Every exact quantile equals the sort-based definition bit for bit,
    /// signed zeros included.
    #[test]
    fn quantiles_equal_the_sort_definition_bitwise(samples in tied_samples(), q in 0.0f64..1.0) {
        let want = |q: f64| sorted_quantile(&samples, q).to_bits();
        prop_assert_eq!(percentile(&samples, q).to_bits(), want(q));
        prop_assert_eq!(Cdf::new(samples.clone()).quantile(q).to_bits(), want(q));
        let s = Summary::of(&samples);
        let got = [s.p1, s.p25, s.p50, s.p99].map(f64::to_bits);
        prop_assert_eq!(got, [0.01, 0.25, 0.50, 0.99].map(want));
    }
}
