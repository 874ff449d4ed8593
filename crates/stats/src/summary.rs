//! Means, percentiles and fairness indices.
//!
//! Quantiles are exact, and every one of them is defined the classic way:
//! the `q`-quantile of `n` samples interpolates linearly between the order
//! statistics at ranks `floor(q·(n−1))` and `ceil(q·(n−1))`, where rank `k`
//! is position `k` of the samples after a stable `partial_cmp` sort.
//! Computing them costs O(n) over one working copy: [`Summary`] and
//! [`percentile`] copy the samples once ([`Summary::of_vec`] takes the
//! caller's vector instead) and find every rank they need by successive
//! `select_nth_unstable_by` calls, highest rank first, each on the prefix
//! left of the previous one. Selection already yields the stable sort's
//! value at a rank, except for the sign of a zero (`+0.0 == -0.0`, so the
//! sort keeps the zeros in input order); that case is resolved from the
//! input order explicitly.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The `q`-quantile (`q` in `[0, 1]`) by linear interpolation between
/// order statistics (the same convention as numpy's default).
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`, or if there are two or more samples
/// and one of them is NaN (a single sample is returned as it is).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let [p] = quantiles(&mut samples.to_vec(), [q]);
    p
}

/// The `q`-quantile of samples already in stable `partial_cmp` order
/// (a [`Cdf`](crate::Cdf)'s buffer): no copy, no search.
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    check_quantile(q);
    if sorted.is_empty() {
        return 0.0;
    }
    let r = Rank::new(sorted.len(), q);
    r.interpolate(sorted[r.lo], sorted[r.hi])
}

fn check_quantile(q: f64) {
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
}

/// Where the `q`-quantile of `n ≥ 1` samples sits in their sorted order:
/// the ranks on either side and the weight of the upper one.
#[derive(Clone, Copy)]
struct Rank {
    lo: usize,
    hi: usize,
    frac: f64,
}

impl Rank {
    fn new(n: usize, q: f64) -> Rank {
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        Rank {
            lo,
            hi: pos.ceil() as usize,
            frac: pos - lo as f64,
        }
    }

    /// Interpolate between the order statistics at `lo` and `hi`.
    fn interpolate(self, at_lo: f64, at_hi: f64) -> f64 {
        if self.lo == self.hi {
            at_lo
        } else {
            at_lo * (1.0 - self.frac) + at_hi * self.frac
        }
    }
}

/// The `qs`-quantiles of `v` per the module definition, bit for bit, in
/// O(n). `v` is the working copy: it is left reordered.
fn quantiles<const N: usize>(v: &mut [f64], qs: [f64; N]) -> [f64; N] {
    qs.iter().for_each(|&q| check_quantile(q));
    let n = v.len();
    if n == 0 {
        return [0.0; N];
    }
    if n == 1 {
        // A one-element sort never compares, so even a NaN passes through.
        return [v[0]; N];
    }
    let ranks = qs.map(|q| Rank::new(n, q));
    let mut ks: Vec<usize> = ranks.iter().flat_map(|r| [r.lo, r.hi]).collect();
    ks.sort_unstable_by(|a, b| b.cmp(a));
    ks.dedup();
    let zeros = exact_zeros(v, &ks);
    // Selecting rank k leaves ranks 0..k (as values) in v[..k], so each
    // lower rank is searched for in the prefix left of the previous one.
    let mut end = n;
    let stats: Vec<f64> = ks
        .iter()
        .map(|&k| {
            let (_, &mut x, _) =
                v[..end].select_nth_unstable_by(k, |a, b| a.partial_cmp(b).expect("NaN checked"));
            end = k;
            zeros.iter().find(|&&(r, _)| r == k).map_or(x, |&(_, z)| z)
        })
        .collect();
    let at = |k: usize| stats[ks.iter().position(|&r| r == k).expect("rank selected")];
    ranks.map(|r| r.interpolate(at(r.lo), at(r.hi)))
}

/// Reject NaN, and pin down which zero a stable sort puts at each rank of
/// `ks` that falls in the run of zeros, as `(rank, zero)` pairs.
///
/// `+0.0` and `-0.0` compare equal, so the sort keeps the zeros in input
/// order: rank `k` holds the `(k − #negatives)`-th zero of `v`. Selection
/// returns some zero there; when all zeros share one sign it is the right
/// one and the list is empty.
fn exact_zeros(v: &[f64], ks: &[usize]) -> Vec<(usize, f64)> {
    let (mut below, mut zeros, mut neg_zeros) = (0, 0, 0);
    for &x in v {
        assert!(!x.is_nan(), "NaN in percentile input");
        if x < 0.0 {
            below += 1;
        } else if x == 0.0 {
            zeros += 1;
            neg_zeros += x.is_sign_negative() as usize;
        }
    }
    if neg_zeros == 0 || neg_zeros == zeros {
        return Vec::new();
    }
    let wanted: Vec<usize> = ks
        .iter()
        .filter(|&&k| (below..below + zeros).contains(&k))
        .map(|&k| k - below)
        .collect();
    v.iter()
        .filter(|&&x| x == 0.0)
        .enumerate()
        .filter(|(j, _)| wanted.contains(j))
        .map(|(j, &z)| (below + j, z))
        .collect()
}

/// Population variance; 0 for an empty slice.
///
/// A single sample also yields 0 — a one-point distribution genuinely has
/// no spread around its mean, but callers that need to distinguish "no
/// spread" from "not enough data to estimate spread" must check `n`
/// themselves (this is a population statistic, not the `n − 1` sample
/// estimator, which would be undefined at `n == 1`).
pub fn variance(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let m = mean(samples);
    samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / samples.len() as f64
}

/// Population variance from pre-aggregated moments: the count, the sum of
/// the values and the sum of their squares. This is what streaming
/// instruments (e.g. `pi2_obs`'s histograms) keep instead of the raw
/// samples; it is algebraically `E[x²] − E[x]²`, clamped at 0 to absorb
/// the catastrophic cancellation that formula suffers for tight
/// distributions far from zero.
pub fn variance_from_moments(n: u64, sum: f64, sum_sq: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let m = sum / n as f64;
    (sum_sq / n as f64 - m * m).max(0.0)
}

/// Population standard deviation: `variance(samples).sqrt()`.
///
/// Returns 0 for an empty slice and — see [`variance`] — also for a
/// single sample.
pub fn stddev(samples: &[f64]) -> f64 {
    variance(samples).sqrt()
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`; 1 for equal allocations,
/// `1/n` for a single flow taking everything.
pub fn jain_fairness(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 1.0;
    }
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        1.0
    } else {
        sum * sum / (rates.len() as f64 * sq)
    }
}

/// The five-number summary style used throughout the paper's figures.
///
/// ```
/// use pi2_stats::Summary;
/// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]);
/// assert_eq!(s.n, 5);
/// assert_eq!(s.max, 100.0);
/// assert!(s.p99 > s.p50);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// 1st percentile (Figure 18's lower whisker).
    pub p1: f64,
    /// 25th percentile (Figure 17's lower whisker).
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile (the paper's headline tail statistic).
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample set (empty input gives all zeros).
    ///
    /// # Panics
    /// Panics if there are two or more samples and one of them is NaN.
    pub fn of(samples: &[f64]) -> Summary {
        Summary::of_vec(samples.to_vec())
    }

    /// Convenience for `f32` sample buffers (the monitor stores `f32`).
    pub fn of_f32(samples: &[f32]) -> Summary {
        Summary::of_vec(samples.iter().map(|&x| x as f64).collect())
    }

    /// Summarize an owned sample set, using it as the quantile search's
    /// working copy instead of copying it again.
    pub fn of_vec(mut samples: Vec<f64>) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                p1: 0.0,
                p25: 0.0,
                p50: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        // Mean and max read the samples in input order, before the
        // quantile search reorders them.
        let mean = mean(&samples);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let [p1, p25, p50, p99] = quantiles(&mut samples, [0.01, 0.25, 0.50, 0.99]);
        Summary {
            n: samples.len(),
            mean,
            p1,
            p25,
            p50,
            p99,
            max,
        }
    }
}

/// The sort-per-quantile code the O(n) search replaced, kept as the
/// bitwise oracle, plus the sample sets it is checked on.
#[cfg(test)]
pub(crate) mod reference {
    use super::{mean, Summary};
    use proptest::test_runner::TestRng;

    /// One stable `partial_cmp` sort of a fresh copy per call.
    pub(crate) fn percentile(samples: &[f64], q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if samples.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    pub(crate) fn summary(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::of_vec(Vec::new());
        }
        Summary {
            n: samples.len(),
            mean: mean(samples),
            p1: percentile(samples, 0.01),
            p25: percentile(samples, 0.25),
            p50: percentile(samples, 0.50),
            p99: percentile(samples, 0.99),
            max: samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Every field's bit pattern, so `==` cannot hide a `-0.0`/`+0.0` or
    /// NaN-payload difference.
    pub(crate) fn bits(s: &Summary) -> [u64; 7] {
        [
            s.n as u64,
            s.mean.to_bits(),
            s.p1.to_bits(),
            s.p25.to_bits(),
            s.p50.to_bits(),
            s.p99.to_bits(),
            s.max.to_bits(),
        ]
    }

    /// Quantiles worth checking at `n` samples: the summary's, the ends,
    /// a few in between, and ranks hit exactly.
    pub(crate) fn probe_quantiles(n: usize) -> Vec<f64> {
        let mut qs = vec![0.0, 0.01, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 0.99, 1.0];
        let last = n.saturating_sub(1).max(1);
        qs.extend(
            (0..=last)
                .step_by(last.div_ceil(16))
                .map(|k| k as f64 / last as f64),
        );
        qs
    }

    /// Seeded sample sets at n = 0, 1, 2, 3, 7, 100, 101 and 10 000:
    /// uniform; monitor-style ms (`f32`-rounded, 0.1 ms steps, so heavy
    /// duplicates); sorted; reverse-sorted; all-equal; and a third each
    /// of negatives, zeros and positives, the zeros of random sign, in
    /// both sign orders. Then two hand-written zero interleavings.
    pub(crate) fn sample_sets() -> Vec<Vec<f64>> {
        let mut rng = TestRng::new(0x5eed);
        let mut sets = Vec::new();
        for n in [0, 1, 2, 3, 7, 100, 101, 10_000] {
            let uniform: Vec<f64> = (0..n).map(|_| rng.next_f64() * 2e3 - 1e3).collect();
            let quantized: Vec<f64> = (0..n)
                .map(|_| ((rng.next_f64() * 500.0).floor() / 10.0) as f32 as f64)
                .collect();
            let mut sorted = uniform.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let reversed: Vec<f64> = sorted.iter().rev().copied().collect();
            let zeros: Vec<f64> = (0..n)
                .map(|_| match rng.next_u64() % 6 {
                    0 | 1 => -1.0 - rng.next_f64(),
                    2 => -0.0,
                    3 => 0.0,
                    _ => 1.0 + rng.next_f64(),
                })
                .collect();
            let flipped: Vec<f64> = zeros
                .iter()
                .map(|&x| if x == 0.0 { -x } else { x })
                .collect();
            sets.extend([
                uniform,
                quantized,
                sorted,
                reversed,
                vec![3.25; n],
                zeros,
                flipped,
            ]);
        }
        sets.extend([ZEROS_A.to_vec(), ZEROS_B.to_vec()]);
        sets
    }

    /// Sorted, `ZEROS_A` is [-2, -0, +0, -0, +0, 1, 3]: its median
    /// (rank 3) is a `-0.0`. `ZEROS_B` flips every zero, so its median is
    /// `+0.0`.
    pub(crate) const ZEROS_A: [f64; 7] = [1.0, -0.0, -2.0, 0.0, -0.0, 3.0, 0.0];
    pub(crate) const ZEROS_B: [f64; 7] = [1.0, 0.0, -2.0, -0.0, 0.0, 3.0, -0.0];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_simple_sequence() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 40.0);
        assert_eq!(percentile(&s, 0.5), 25.0);
        // Order independence.
        let shuffled = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&shuffled, 0.5), 25.0);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    #[should_panic]
    fn percentile_rejects_bad_quantile() {
        percentile(&[1.0], 1.5);
    }

    #[test]
    fn stddev_matches_hand_computation() {
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert_eq!(stddev(&[2.0, 2.0, 2.0]), 0.0);
        // Var of {1,3} around mean 2 is 1.
        assert!((stddev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn variance_agrees_with_moment_form() {
        let samples = [1.0, 3.0, 7.0, 12.0, 12.5];
        let n = samples.len() as u64;
        let sum: f64 = samples.iter().sum();
        let sum_sq: f64 = samples.iter().map(|x| x * x).sum();
        let direct = variance(&samples);
        let moments = variance_from_moments(n, sum, sum_sq);
        assert!((direct - moments).abs() < 1e-9, "{direct} vs {moments}");
        assert!((stddev(&samples) - direct.sqrt()).abs() < 1e-12);
        // Degenerate counts are 0, and cancellation never goes negative.
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[4.2]), 0.0);
        assert_eq!(variance_from_moments(0, 0.0, 0.0), 0.0);
        assert!(variance_from_moments(3, 3e8, 3e16) >= 0.0);
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_fairness(&[5.0, 5.0, 5.0]), 1.0);
        let skewed = jain_fairness(&[10.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn summary_matches_components() {
        let s: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let sum = Summary::of(&s);
        assert_eq!(sum.n, 100);
        assert!((sum.mean - 50.5).abs() < 1e-12);
        assert!((sum.p50 - 50.5).abs() < 1e-9);
        assert_eq!(sum.max, 100.0);
        assert!(sum.p1 < sum.p25 && sum.p25 < sum.p99);
    }

    #[test]
    fn summary_of_empty_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn summary_of_f32_matches_f64() {
        let f32s: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0];
        let a = Summary::of_f32(&f32s);
        let b = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn percentile_of_a_single_sample_is_that_sample_at_every_q() {
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&[42.5], q), 42.5, "n=1 q={q}");
        }
    }

    #[test]
    fn percentile_of_all_equal_samples_is_exact_at_every_q() {
        let v = vec![7.25; 64];
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&v, q), 7.25, "all-equal q={q}");
        }
    }

    #[test]
    fn percentile_interpolates_against_a_sorted_reference() {
        // Unsorted input; the linear-interpolation definition over the
        // sorted samples [10, 20, 30, 40, 50].
        let v = [30.0, 10.0, 50.0, 20.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.25), 20.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        // q = 0.1 lands at position 0.4 between 10 and 20.
        assert!((percentile(&v, 0.1) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_matches_the_sort_reference_bitwise() {
        for set in reference::sample_sets() {
            for q in reference::probe_quantiles(set.len()) {
                assert_eq!(
                    percentile(&set, q).to_bits(),
                    reference::percentile(&set, q).to_bits(),
                    "n={} q={q}",
                    set.len()
                );
            }
        }
        // The zero at a rank follows the input's interleaving of signs.
        assert!(percentile(&reference::ZEROS_A, 0.5).is_sign_negative());
        assert!(percentile(&reference::ZEROS_B, 0.5).is_sign_positive());
    }

    #[test]
    fn summary_matches_the_sort_reference_bitwise() {
        for set in reference::sample_sets() {
            let want = reference::bits(&reference::summary(&set));
            assert_eq!(reference::bits(&Summary::of(&set)), want, "n={}", set.len());
            assert_eq!(reference::bits(&Summary::of_vec(set.clone())), want);
            let f32s: Vec<f32> = set.iter().map(|&x| x as f32).collect();
            let widened: Vec<f64> = f32s.iter().map(|&x| x as f64).collect();
            assert_eq!(
                reference::bits(&Summary::of_f32(&f32s)),
                reference::bits(&reference::summary(&widened)),
                "f32 n={}",
                set.len()
            );
        }
    }

    #[test]
    fn a_lone_nan_passes_through() {
        let nan = f64::from_bits(f64::NAN.to_bits() | 1);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(percentile(&[nan], q).to_bits(), nan.to_bits());
        }
        let want = reference::bits(&reference::summary(&[nan]));
        assert_eq!(reference::bits(&Summary::of(&[nan])), want);
        assert_eq!(
            reference::bits(&Summary::of_f32(&[f32::NAN])),
            reference::bits(&reference::summary(&[f32::NAN as f64]))
        );
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn percentile_rejects_nan_among_several_samples() {
        percentile(&[1.0, f64::NAN], 0.5);
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn summary_rejects_nan_among_several_samples() {
        Summary::of(&[0.0, 2.0, f64::NAN, 1.0]);
    }
}
