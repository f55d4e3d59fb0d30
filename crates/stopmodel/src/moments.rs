//! The constrained-moment pair `(μ_B⁻, q_B⁺)`.
//!
//! Section 3 of the paper argues that the plain first moment of the stop
//! length is uninformative for ski rental (everything past `B` looks the
//! same to the offline optimum) and instead characterizes a distribution by
//!
//! * `μ_B⁻` — eq. (10): the unnormalized partial expectation
//!   `∫₀^B y q(y) dy` of *short* stops, and
//! * `q_B⁺` — eq. (11): the probability `P(y ≥ B)` of a *long* stop.
//!
//! [`ConstrainedMoments`] computes the pair from a distribution (analytic)
//! or from observed stops (plug-in), and exposes the derived expected
//! offline cost `μ_B⁻ + q_B⁺·B` (eq. (13)).

use crate::dist::StopDistribution;

/// The pair `(μ_B⁻, q_B⁺)` for a specific break-even interval `B`.
///
/// Invariants (enforced at construction): `B > 0`, `0 ≤ q_B⁺ ≤ 1`,
/// `0 ≤ μ_B⁻ ≤ (1 − q_B⁺)·B` — the last because every short stop is shorter
/// than `B`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstrainedMoments {
    /// Break-even interval `B` in seconds.
    pub break_even: f64,
    /// `μ_B⁻ = ∫₀^B y q(y) dy` (seconds).
    pub mu_b_minus: f64,
    /// `q_B⁺ = P(y ≥ B)`.
    pub q_b_plus: f64,
}

/// Error for a `(μ_B⁻, q_B⁺)` pair that no distribution can realize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidMomentsError {
    /// The offending `μ_B⁻`.
    pub mu_b_minus: f64,
    /// The offending `q_B⁺`.
    pub q_b_plus: f64,
    /// The break-even interval.
    pub break_even: f64,
}

impl std::fmt::Display for InvalidMomentsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no stop-length distribution has mu_B- = {}, q_B+ = {} for B = {} \
             (need B > 0, 0 <= q <= 1, 0 <= mu <= (1 - q) * B)",
            self.mu_b_minus, self.q_b_plus, self.break_even
        )
    }
}

impl std::error::Error for InvalidMomentsError {}

impl ConstrainedMoments {
    /// Creates the pair directly, validating realizability.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidMomentsError`] unless `B > 0`, `q_B⁺ ∈ [0, 1]`, and
    /// `μ_B⁻ ∈ [0, (1 − q_B⁺)·B]`, all finite.
    pub fn new(
        break_even: f64,
        mu_b_minus: f64,
        q_b_plus: f64,
    ) -> Result<Self, InvalidMomentsError> {
        let err = InvalidMomentsError { mu_b_minus, q_b_plus, break_even };
        if !(break_even.is_finite() && break_even > 0.0) {
            return Err(err);
        }
        if !(q_b_plus.is_finite() && (0.0..=1.0).contains(&q_b_plus)) {
            return Err(err);
        }
        let max_mu = (1.0 - q_b_plus) * break_even;
        // Tiny slack: plug-in estimates of samples at B−ε can brush the cap.
        if !(mu_b_minus.is_finite() && mu_b_minus >= 0.0 && mu_b_minus <= max_mu * (1.0 + 1e-12)) {
            return Err(err);
        }
        Ok(Self { break_even, mu_b_minus: mu_b_minus.min(max_mu), q_b_plus })
    }

    /// Computes the pair analytically from a distribution.
    ///
    /// # Panics
    ///
    /// Panics if `break_even` is not strictly positive and finite.
    #[must_use]
    pub fn from_distribution<D: StopDistribution + ?Sized>(dist: &D, break_even: f64) -> Self {
        assert!(
            break_even.is_finite() && break_even > 0.0,
            "break-even interval must be positive, got {break_even}"
        );
        let mu = dist.partial_mean(break_even);
        let q = dist.tail_prob(break_even).clamp(0.0, 1.0);
        Self::new(break_even, mu.clamp(0.0, (1.0 - q) * break_even), q)
            .expect("moments from a valid distribution are realizable")
    }

    /// Plug-in estimate from observed stop lengths:
    /// `μ̂ = (1/n)·Σ yᵢ·1{yᵢ < B}` and `q̂ = (1/n)·Σ 1{yᵢ ≥ B}`.
    ///
    /// # Panics
    ///
    /// Panics if `stops` is empty, contains a negative or non-finite value,
    /// or `break_even` is not strictly positive and finite.
    #[must_use]
    pub fn from_samples(stops: &[f64], break_even: f64) -> Self {
        assert!(!stops.is_empty(), "need at least one stop to estimate moments");
        assert!(
            break_even.is_finite() && break_even > 0.0,
            "break-even interval must be positive, got {break_even}"
        );
        let n = stops.len() as f64;
        let mut short_sum = 0.0;
        let mut long_count = 0u64;
        for &y in stops {
            assert!(y.is_finite() && y >= 0.0, "stop lengths must be finite and >= 0, got {y}");
            if y >= break_even {
                long_count += 1;
            } else {
                short_sum += y;
            }
        }
        Self::new(break_even, short_sum / n, long_count as f64 / n)
            .expect("plug-in moments are realizable by construction")
    }

    /// Expected offline cost `E[cost_offline] = μ_B⁻ + q_B⁺·B`
    /// (paper eq. (13)).
    #[must_use]
    pub fn expected_offline_cost(&self) -> f64 {
        self.mu_b_minus + self.q_b_plus * self.break_even
    }

    /// The normalized short-stop mean `μ_B⁻ / (1 − q_B⁺)` — the actual
    /// conditional expectation of a short stop (footnote 2 of the paper).
    /// Returns `None` when every stop is long (`q_B⁺ = 1`).
    #[must_use]
    pub fn conditional_short_mean(&self) -> Option<f64> {
        let p_short = 1.0 - self.q_b_plus;
        (p_short > 0.0).then(|| self.mu_b_minus / p_short)
    }

    /// Rescales to the normalized problem `B = 1` (so `μ` is in units of
    /// `B`), which is how Figures 1–2 parameterize the plane.
    #[must_use]
    pub fn normalized(&self) -> Self {
        Self {
            break_even: 1.0,
            mu_b_minus: self.mu_b_minus / self.break_even,
            q_b_plus: self.q_b_plus,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Discrete, Empirical, Exponential, StopDistribution, Uniform};
    use numeric::approx_eq;

    #[test]
    fn validates_feasible_region() {
        assert!(ConstrainedMoments::new(28.0, 10.0, 0.3).is_ok());
        // B must be positive.
        assert!(ConstrainedMoments::new(0.0, 0.0, 0.5).is_err());
        // q in [0,1].
        assert!(ConstrainedMoments::new(28.0, 1.0, 1.5).is_err());
        assert!(ConstrainedMoments::new(28.0, 1.0, -0.1).is_err());
        // mu <= (1-q)B.
        assert!(ConstrainedMoments::new(28.0, 20.0, 0.5).is_err()); // cap is 14
        assert!(ConstrainedMoments::new(28.0, 14.0, 0.5).is_ok());
        // mu >= 0, finite.
        assert!(ConstrainedMoments::new(28.0, -1.0, 0.5).is_err());
        assert!(ConstrainedMoments::new(28.0, f64::NAN, 0.5).is_err());
    }

    #[test]
    fn q_one_forces_mu_zero() {
        assert!(ConstrainedMoments::new(28.0, 0.0, 1.0).is_ok());
        assert!(ConstrainedMoments::new(28.0, 0.1, 1.0).is_err());
    }

    #[test]
    fn from_distribution_exponential() {
        let d = Exponential::with_mean(30.0).unwrap();
        let m = ConstrainedMoments::from_distribution(&d, 28.0);
        assert!(approx_eq(m.mu_b_minus, d.partial_mean(28.0), 1e-12));
        assert!(approx_eq(m.q_b_plus, (-28.0 / 30.0f64).exp(), 1e-12));
    }

    #[test]
    fn from_samples_matches_empirical_distribution() {
        let stops = [3.0, 12.0, 28.0, 50.0, 7.0, 100.0];
        let m = ConstrainedMoments::from_samples(&stops, 28.0);
        let e = Empirical::from_samples(&stops).unwrap();
        assert!(approx_eq(m.mu_b_minus, e.partial_mean(28.0), 1e-12));
        assert!(approx_eq(m.q_b_plus, e.tail_prob(28.0), 1e-12));
        // 3 stops >= 28 (28, 50, 100): q = 0.5; mu = (3+12+7)/6.
        assert!(approx_eq(m.q_b_plus, 0.5, 1e-12));
        assert!(approx_eq(m.mu_b_minus, 22.0 / 6.0, 1e-12));
    }

    #[test]
    fn expected_offline_cost_eq13() {
        let m = ConstrainedMoments::new(28.0, 8.0, 0.25).unwrap();
        assert!(approx_eq(m.expected_offline_cost(), 8.0 + 0.25 * 28.0, 1e-12));
    }

    #[test]
    fn offline_cost_upper_bound_is_b() {
        // Paper: E[cost_offline] <= B always.
        for &(mu_frac, q) in &[(0.0, 0.0), (0.5, 0.3), (1.0, 0.0), (0.0, 1.0), (0.3, 0.7)] {
            let b = 47.0;
            let mu = mu_frac * (1.0 - q) * b;
            let m = ConstrainedMoments::new(b, mu, q).unwrap();
            assert!(m.expected_offline_cost() <= b + 1e-9);
        }
    }

    #[test]
    fn conditional_short_mean() {
        let m = ConstrainedMoments::new(28.0, 10.0, 0.5).unwrap();
        assert!(approx_eq(m.conditional_short_mean().unwrap(), 20.0, 1e-12));
        let all_long = ConstrainedMoments::new(28.0, 0.0, 1.0).unwrap();
        assert_eq!(all_long.conditional_short_mean(), None);
    }

    #[test]
    fn normalized_scales_mu() {
        let m = ConstrainedMoments::new(28.0, 14.0, 0.2).unwrap();
        let n = m.normalized();
        assert_eq!(n.break_even, 1.0);
        assert!(approx_eq(n.mu_b_minus, 0.5, 1e-12));
        assert_eq!(n.q_b_plus, 0.2);
    }

    #[test]
    fn discrete_boundary_convention() {
        // A stop exactly at B is long.
        let d = Discrete::new(vec![(28.0, 1.0)]).unwrap();
        let m = ConstrainedMoments::from_distribution(&d, 28.0);
        assert_eq!(m.q_b_plus, 1.0);
        assert_eq!(m.mu_b_minus, 0.0);
        // Same convention in the sample estimator.
        let s = ConstrainedMoments::from_samples(&[28.0], 28.0);
        assert_eq!(s.q_b_plus, 1.0);
        assert_eq!(s.mu_b_minus, 0.0);
    }

    #[test]
    fn uniform_all_short() {
        let d = Uniform::new(0.0, 10.0).unwrap();
        let m = ConstrainedMoments::from_distribution(&d, 28.0);
        assert_eq!(m.q_b_plus, 0.0);
        assert!(approx_eq(m.mu_b_minus, 5.0, 1e-12));
        assert!(approx_eq(m.expected_offline_cost(), d.mean(), 1e-12));
    }

    #[test]
    #[should_panic(expected = "at least one stop")]
    fn from_samples_rejects_empty() {
        let _ = ConstrainedMoments::from_samples(&[], 28.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn from_distribution_rejects_bad_b() {
        let d = Exponential::with_mean(1.0).unwrap();
        let _ = ConstrainedMoments::from_distribution(&d, -1.0);
    }

    #[test]
    fn error_display_mentions_parameters() {
        let e = ConstrainedMoments::new(28.0, 99.0, 0.5).unwrap_err();
        let s = e.to_string();
        assert!(s.contains("99") && s.contains("28"));
    }
}
