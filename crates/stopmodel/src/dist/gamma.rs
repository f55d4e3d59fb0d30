//! Gamma-distributed stop lengths.

use super::{DistributionError, StopDistribution};
use numeric::special::{gamma_p, ln_gamma};
use rand::RngCore;

/// Gamma stop lengths with shape `k` and scale `θ` (mean `k·θ`).
///
/// A flexible body distribution: shape `< 1` gives a spike of very short
/// stops with a stretched tail, shape `> 1` a hump like queueing delay.
/// Used by calibration experiments as an alternative body to the
/// log-normal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a Gamma distribution with `shape > 0` and `scale > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if either parameter is not strictly
    /// positive and finite.
    pub fn new(shape: f64, scale: f64) -> Result<Self, DistributionError> {
        if !(shape.is_finite() && shape > 0.0) {
            return Err(DistributionError::new("shape", shape, "must be finite and > 0"));
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(DistributionError::new("scale", scale, "must be finite and > 0"));
        }
        Ok(Self { shape, scale })
    }

    /// Parameterizes by mean and standard deviation
    /// (`k = μ²/σ²`, `θ = σ²/μ`).
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if either moment is not strictly
    /// positive and finite.
    pub fn from_mean_std(mean: f64, std_dev: f64) -> Result<Self, DistributionError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(DistributionError::new("mean", mean, "must be finite and > 0"));
        }
        if !(std_dev.is_finite() && std_dev > 0.0) {
            return Err(DistributionError::new("std_dev", std_dev, "must be finite and > 0"));
        }
        Self::new((mean / std_dev).powi(2), std_dev * std_dev / mean)
    }

    /// Shape parameter `k`.
    #[must_use]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `θ`.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl StopDistribution for Gamma {
    fn pdf(&self, y: f64) -> f64 {
        if y < 0.0 {
            return 0.0;
        }
        if y == 0.0 {
            // Shape < 1 diverges at 0; report 0 to keep quadrature finite.
            return if (self.shape - 1.0).abs() < 1e-12 { 1.0 / self.scale } else { 0.0 };
        }
        let k = self.shape;
        ((k - 1.0) * (y / self.scale).ln() - y / self.scale - ln_gamma(k)).exp() / self.scale
    }

    fn cdf(&self, y: f64) -> f64 {
        if y <= 0.0 {
            0.0
        } else {
            gamma_p(self.shape, y / self.scale)
        }
    }

    fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        crate::sampling::gamma(self.shape, self.scale, rng)
    }

    fn partial_mean(&self, b: f64) -> f64 {
        assert!(b >= 0.0, "partial_mean bound must be non-negative, got {b}");
        if b == 0.0 {
            return 0.0;
        }
        // ∫₀^b y·f(y) dy = k·θ·P(k+1, b/θ).
        self.mean() * gamma_p(self.shape + 1.0, b / self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::approx_eq;
    use numeric::quadrature::integrate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_and_cdf() {
        let d = Gamma::new(2.5, 8.0).unwrap();
        assert!(approx_eq(d.mean(), 20.0, 1e-12));
        // CDF matches integrated pdf.
        for &y in &[5.0, 20.0, 60.0] {
            let num = integrate(|t| d.pdf(t), 1e-9, y, 1e-11);
            assert!(approx_eq(num, d.cdf(y), 1e-7), "cdf({y}): {num} vs {}", d.cdf(y));
        }
    }

    #[test]
    fn shape_one_is_exponential() {
        let g = Gamma::new(1.0, 30.0).unwrap();
        let e = super::super::Exponential::with_mean(30.0).unwrap();
        for &y in &[1.0, 10.0, 50.0, 200.0] {
            assert!(approx_eq(g.cdf(y), e.cdf(y), 1e-12));
            assert!(approx_eq(g.partial_mean(y), e.partial_mean(y), 1e-10));
        }
    }

    #[test]
    fn partial_mean_closed_form() {
        let d = Gamma::new(0.7, 12.0).unwrap();
        let num = integrate(|t| t * d.pdf(t), 1e-9, 28.0, 1e-11);
        assert!(approx_eq(d.partial_mean(28.0), num, 1e-6));
        assert_eq!(d.partial_mean(0.0), 0.0);
        assert!(approx_eq(d.partial_mean(1e6), d.mean(), 1e-9));
    }

    #[test]
    fn from_mean_std_roundtrip() {
        let d = Gamma::from_mean_std(12.49, 9.97).unwrap();
        assert!(approx_eq(d.mean(), 12.49, 1e-12));
        let var = d.shape() * d.scale() * d.scale();
        assert!(approx_eq(var.sqrt(), 9.97, 1e-12));
    }

    #[test]
    fn sampling_matches_mean() {
        let d = Gamma::new(1.8, 10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let m = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((m - d.mean()).abs() < 0.02 * d.mean(), "sample mean {m}");
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = Gamma::new(2.0, 15.0).unwrap();
        for &u in &[0.1, 0.5, 0.9] {
            let y = d.quantile(u);
            assert!(approx_eq(d.cdf(y), u, 1e-6));
        }
    }

    #[test]
    fn rejects_bad_params() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, -1.0).is_err());
        assert!(Gamma::from_mean_std(0.0, 1.0).is_err());
        assert!(Gamma::from_mean_std(1.0, f64::NAN).is_err());
    }
}
