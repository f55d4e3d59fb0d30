//! Kolmogorov–Smirnov goodness-of-fit tests.
//!
//! The paper reports (Section 5, Figure 3) that the NREL stop-length
//! distributions "are different from the exponential distribution …
//! according to the Kolmogorov-Smirnov test, mostly due to their heavy
//! tails". This module reproduces that check: a one-sample K-S test of the
//! synthetic fleet data against a fitted exponential (and, for
//! completeness, a two-sample test between areas).

use crate::dist::StopDistribution;
use numeric::special::ks_p_value;

/// Result of a Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The K-S statistic `D` (sup-distance between CDFs).
    pub statistic: f64,
    /// Asymptotic p-value of `D` under the null hypothesis.
    pub p_value: f64,
    /// Effective sample size used for the p-value (for the two-sample test,
    /// the rounded harmonic size `n·m/(n+m)`).
    pub n_effective: usize,
}

impl KsResult {
    /// Whether the null hypothesis is rejected at significance `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1)`.
    #[must_use]
    pub fn rejects_at(&self, alpha: f64) -> bool {
        assert!(alpha > 0.0 && alpha < 1.0, "significance must be in (0,1), got {alpha}");
        self.p_value < alpha
    }
}

/// One-sample K-S statistic of `samples` against the theoretical
/// distribution `dist`.
///
/// `D = sup_y |F̂_n(y) − F(y)|`, evaluated at the jump points of the
/// empirical CDF (both one-sided deviations are checked at each point).
///
/// # Panics
///
/// Panics if `samples` is empty or contains NaN.
#[must_use]
pub fn ks_statistic<D: StopDistribution + ?Sized>(samples: &[f64], dist: &D) -> f64 {
    assert!(!samples.is_empty(), "K-S test needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in K-S samples"));
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &y) in sorted.iter().enumerate() {
        let f = dist.cdf(y);
        let above = (i as f64 + 1.0) / n - f; // ECDF just after the jump
        let below = f - i as f64 / n; // ECDF just before the jump
        d = d.max(above).max(below);
    }
    d
}

/// One-sample K-S test of `samples` against `dist`, with Stephens'
/// finite-sample-corrected asymptotic p-value.
///
/// # Panics
///
/// Panics if `samples` is empty or contains NaN.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use stopmodel::dist::{Exponential, StopDistribution};
/// use stopmodel::kstest::ks_test;
///
/// let d = Exponential::with_mean(20.0)?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let samples: Vec<f64> = (0..500).map(|_| d.sample(&mut rng)).collect();
/// let r = ks_test(&samples, &d);
/// assert!(!r.rejects_at(0.01)); // data drawn from the null is accepted
/// # Ok::<(), stopmodel::dist::DistributionError>(())
/// ```
#[must_use]
pub fn ks_test<D: StopDistribution + ?Sized>(samples: &[f64], dist: &D) -> KsResult {
    let d = ks_statistic(samples, dist);
    KsResult { statistic: d, p_value: ks_p_value(d, samples.len()), n_effective: samples.len() }
}

/// Two-sample K-S test between `a` and `b`.
///
/// `D = sup_y |F̂_a(y) − F̂_b(y)|`, with the asymptotic p-value evaluated at
/// the harmonic sample size `n·m/(n+m)`.
///
/// # Panics
///
/// Panics if either sample set is empty or contains NaN.
#[must_use]
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> KsResult {
    assert!(!a.is_empty() && !b.is_empty(), "K-S test needs non-empty samples");
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).expect("NaN in K-S samples"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("NaN in K-S samples"));
    let (n, m) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < sa.len() && j < sb.len() {
        let x = sa[i].min(sb[j]);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / n - j as f64 / m).abs());
    }
    let n_eff = (n * m / (n + m)).round().max(1.0) as usize;
    KsResult { statistic: d, p_value: ks_p_value(d, n_eff), n_effective: n_eff }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Exponential, LogNormal, Pareto, StopDistribution, Uniform};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draw<D: StopDistribution>(d: &D, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn accepts_true_null() {
        let d = Exponential::with_mean(30.0).unwrap();
        let samples = draw(&d, 2000, 1);
        let r = ks_test(&samples, &d);
        assert!(r.p_value > 0.01, "p = {}", r.p_value);
        assert!(!r.rejects_at(0.01));
    }

    #[test]
    fn rejects_wrong_null() {
        // Heavy-tailed data against an exponential null with the same mean —
        // the paper's Figure-3 observation.
        let truth = Pareto::new(5.0, 1.8).unwrap();
        let samples = draw(&truth, 2000, 2);
        let null = Exponential::fit(&samples).unwrap();
        let r = ks_test(&samples, &null);
        assert!(r.rejects_at(0.001), "p = {}", r.p_value);
    }

    #[test]
    fn rejects_lognormal_vs_exponential() {
        let truth = LogNormal::new(2.5, 1.1).unwrap();
        let samples = draw(&truth, 3000, 3);
        let null = Exponential::fit(&samples).unwrap();
        let r = ks_test(&samples, &null);
        assert!(r.rejects_at(0.001), "p = {}", r.p_value);
    }

    #[test]
    fn statistic_bounds() {
        let d = Uniform::new(0.0, 1.0).unwrap();
        let samples = draw(&d, 100, 4);
        let s = ks_statistic(&samples, &d);
        assert!((0.0..=1.0).contains(&s));
        // Degenerate: one sample far outside the support.
        let s2 = ks_statistic(&[100.0], &d);
        assert!(s2 <= 1.0 && s2 > 0.9);
    }

    #[test]
    fn exact_statistic_single_sample() {
        // One sample at the median of U[0,1]: D = max(1 - 0.5, 0.5 - 0) = 0.5.
        let d = Uniform::new(0.0, 1.0).unwrap();
        let s = ks_statistic(&[0.5], &d);
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn two_sample_same_source_accepted() {
        let d = LogNormal::new(2.0, 0.7).unwrap();
        let a = draw(&d, 1500, 5);
        let b = draw(&d, 1500, 6);
        let r = ks_two_sample(&a, &b);
        assert!(!r.rejects_at(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn two_sample_different_sources_rejected() {
        let a = draw(&Exponential::with_mean(10.0).unwrap(), 1500, 7);
        let b = draw(&Exponential::with_mean(30.0).unwrap(), 1500, 8);
        let r = ks_two_sample(&a, &b);
        assert!(r.rejects_at(0.001), "p = {}", r.p_value);
    }

    #[test]
    fn two_sample_is_symmetric() {
        let a = draw(&Exponential::with_mean(10.0).unwrap(), 200, 9);
        let b = draw(&Exponential::with_mean(12.0).unwrap(), 300, 10);
        let r1 = ks_two_sample(&a, &b);
        let r2 = ks_two_sample(&b, &a);
        assert!((r1.statistic - r2.statistic).abs() < 1e-12);
        assert_eq!(r1.n_effective, r2.n_effective);
    }

    #[test]
    fn two_sample_identical_data_zero_statistic() {
        let a = [1.0, 2.0, 3.0];
        let r = ks_two_sample(&a, &a);
        assert!(r.statistic < 1e-12);
        assert!(r.p_value > 0.999);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn one_sample_rejects_empty() {
        let d = Uniform::new(0.0, 1.0).unwrap();
        let _ = ks_statistic(&[], &d);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn two_sample_rejects_empty() {
        let _ = ks_two_sample(&[], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "significance must be in (0,1)")]
    fn rejects_at_validates_alpha() {
        let r = KsResult { statistic: 0.1, p_value: 0.5, n_effective: 10 };
        let _ = r.rejects_at(1.0);
    }
}
