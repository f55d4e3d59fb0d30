//! Stop-length distributions.
//!
//! The [`StopDistribution`] trait abstracts the distribution `q(y)` of
//! vehicle stop lengths (`y > 0`, seconds). Besides the usual density /
//! CDF / sampling interface it exposes the two functionals the paper's
//! constrained ski-rental problem is built on:
//!
//! * [`StopDistribution::partial_mean`] — `μ_B⁻ = ∫₀^B y·q(y) dy`, the
//!   *unnormalized* expected length of short stops (paper eq. (10)); and
//! * [`StopDistribution::tail_prob`] — `q_B⁺ = P(y ≥ B)` (paper eq. (11)).
//!
//! Implementations override these with closed forms where available; the
//! default falls back to adaptive quadrature of `y·pdf(y)`.

use numeric::quadrature::integrate;
use numeric::rootfind::bisect;
use numeric::special::{ln_gamma, normal_cdf};
use rand::RngCore;
use std::fmt;

use crate::uniform01;

mod gamma;
mod transform;

pub use gamma::Gamma;
pub use transform::{Censored, Truncated};

/// Error produced when constructing a distribution with invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionError {
    parameter: &'static str,
    value: f64,
    requirement: &'static str,
}

impl DistributionError {
    pub(crate) fn new(parameter: &'static str, value: f64, requirement: &'static str) -> Self {
        Self { parameter, value, requirement }
    }

    /// Name of the offending parameter.
    #[must_use]
    pub fn parameter(&self) -> &'static str {
        self.parameter
    }
}

impl fmt::Display for DistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid distribution parameter {} = {}: {}",
            self.parameter, self.value, self.requirement
        )
    }
}

impl std::error::Error for DistributionError {}

/// A probability distribution of non-negative stop lengths.
///
/// All lengths are in seconds. Implementors must satisfy the usual
/// consistency conditions (`cdf` non-decreasing with limits 0 and 1, `pdf`
/// the density of the absolutely continuous part, `sample` distributed per
/// `cdf`); the provided default methods are derived from `pdf`/`cdf` and may
/// be overridden with closed forms.
pub trait StopDistribution: fmt::Debug {
    /// Probability density at `y` (the absolutely continuous part only;
    /// purely atomic distributions such as [`Discrete`] return `0`).
    fn pdf(&self, y: f64) -> f64;

    /// Cumulative distribution function `P(Y ≤ y)`.
    fn cdf(&self, y: f64) -> f64;

    /// Expected stop length `E[Y]`; may be `+∞` for heavy tails (e.g. a
    /// [`Pareto`] with shape `≤ 1`).
    fn mean(&self) -> f64;

    /// Draws one stop length.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// Inverse CDF: smallest `y` with `cdf(y) ≥ u`, for `u ∈ [0, 1)`.
    ///
    /// The default bracket-and-bisect implementation works for any
    /// continuous strictly increasing CDF; override it when a closed form
    /// exists.
    ///
    /// # Panics
    ///
    /// Panics if `u ∉ [0, 1)`.
    fn quantile(&self, u: f64) -> f64 {
        assert!((0.0..1.0).contains(&u), "quantile order must be in [0,1), got {u}");
        if u == 0.0 {
            return 0.0;
        }
        // Double the upper bracket until it covers u.
        let mut hi = 1.0;
        for _ in 0..1100 {
            if self.cdf(hi) >= u {
                break;
            }
            hi *= 2.0;
        }
        bisect(|y| self.cdf(y) - u, 0.0, hi, 1e-10 * hi.max(1.0))
            .expect("quantile bisection failed: cdf is not a valid CDF")
    }

    /// `μ_b⁻ = ∫₀^b y·q(y) dy` — the unnormalized partial expectation of
    /// stops shorter than `b` (paper eq. (10)).
    ///
    /// The default integrates `y·pdf(y)` by adaptive quadrature; atomic or
    /// empirical distributions must override it.
    ///
    /// # Panics
    ///
    /// Panics if `b < 0`.
    fn partial_mean(&self, b: f64) -> f64 {
        assert!(b >= 0.0, "partial_mean bound must be non-negative, got {b}");
        if b == 0.0 {
            return 0.0;
        }
        integrate(|y| y * self.pdf(y), 0.0, b, 1e-10)
    }

    /// `q_b⁺ = P(Y ≥ b)` — the probability of a long stop (paper eq. (11)).
    ///
    /// For continuous distributions this equals `1 − cdf(b)`; atomic
    /// distributions that place mass exactly at `b` must include it.
    fn tail_prob(&self, b: f64) -> f64 {
        (1.0 - self.cdf(b)).max(0.0)
    }
}

/// Forwarding impl so `&D` composes (e.g. inside [`Mixture`]).
impl<T: StopDistribution + ?Sized> StopDistribution for &T {
    fn pdf(&self, y: f64) -> f64 {
        (**self).pdf(y)
    }
    fn cdf(&self, y: f64) -> f64 {
        (**self).cdf(y)
    }
    fn mean(&self) -> f64 {
        (**self).mean()
    }
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        (**self).sample(rng)
    }
    fn quantile(&self, u: f64) -> f64 {
        (**self).quantile(u)
    }
    fn partial_mean(&self, b: f64) -> f64 {
        (**self).partial_mean(b)
    }
    fn tail_prob(&self, b: f64) -> f64 {
        (**self).tail_prob(b)
    }
}

/// Forwarding impl so boxed trait objects compose.
impl<T: StopDistribution + ?Sized> StopDistribution for Box<T> {
    fn pdf(&self, y: f64) -> f64 {
        (**self).pdf(y)
    }
    fn cdf(&self, y: f64) -> f64 {
        (**self).cdf(y)
    }
    fn mean(&self) -> f64 {
        (**self).mean()
    }
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        (**self).sample(rng)
    }
    fn quantile(&self, u: f64) -> f64 {
        (**self).quantile(u)
    }
    fn partial_mean(&self, b: f64) -> f64 {
        (**self).partial_mean(b)
    }
    fn tail_prob(&self, b: f64) -> f64 {
        (**self).tail_prob(b)
    }
}

// ---------------------------------------------------------------------------
// Exponential
// ---------------------------------------------------------------------------

/// Exponential stop lengths with rate `λ` (mean `1/λ`).
///
/// The paper cites Fujiwara & Iwama's average-case analysis as assuming
/// exponential stops, and then shows real data rejects that assumption —
/// this type is both the null model of the K-S test and a baseline workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate `λ > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if `rate` is not strictly positive and
    /// finite.
    pub fn new(rate: f64) -> Result<Self, DistributionError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(DistributionError::new("rate", rate, "must be finite and > 0"));
        }
        Ok(Self { rate })
    }

    /// Creates an exponential distribution with the given mean `1/λ > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if `mean` is not strictly positive and
    /// finite.
    pub fn with_mean(mean: f64) -> Result<Self, DistributionError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(DistributionError::new("mean", mean, "must be finite and > 0"));
        }
        Self::new(1.0 / mean)
    }

    /// Maximum-likelihood fit (`λ = 1 / sample mean`).
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if `samples` is empty or its mean is
    /// not strictly positive.
    pub fn fit(samples: &[f64]) -> Result<Self, DistributionError> {
        let n = samples.len();
        if n == 0 {
            return Err(DistributionError::new("samples", 0.0, "must be non-empty"));
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        Self::with_mean(mean)
    }

    /// The rate parameter `λ`.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl StopDistribution for Exponential {
    fn pdf(&self, y: f64) -> f64 {
        if y < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * y).exp()
        }
    }

    fn cdf(&self, y: f64) -> f64 {
        if y <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * y).exp()
        }
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u = uniform01(rng);
        -(1.0 - u).ln() / self.rate
    }

    fn quantile(&self, u: f64) -> f64 {
        assert!((0.0..1.0).contains(&u), "quantile order must be in [0,1), got {u}");
        -(1.0 - u).ln() / self.rate
    }

    fn partial_mean(&self, b: f64) -> f64 {
        assert!(b >= 0.0, "partial_mean bound must be non-negative, got {b}");
        // ∫₀^b yλe^{−λy} dy = (1 − e^{−λb})/λ − b·e^{−λb}
        let e = (-self.rate * b).exp();
        (1.0 - e) / self.rate - b * e
    }

    fn tail_prob(&self, b: f64) -> f64 {
        (-self.rate * b.max(0.0)).exp()
    }
}

// ---------------------------------------------------------------------------
// Uniform
// ---------------------------------------------------------------------------

/// Uniform stop lengths on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)` with `0 ≤ lo < hi`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if the bounds are non-finite, negative,
    /// or out of order.
    pub fn new(lo: f64, hi: f64) -> Result<Self, DistributionError> {
        if !(lo.is_finite() && lo >= 0.0) {
            return Err(DistributionError::new("lo", lo, "must be finite and >= 0"));
        }
        if !(hi.is_finite() && hi > lo) {
            return Err(DistributionError::new("hi", hi, "must be finite and > lo"));
        }
        Ok(Self { lo, hi })
    }

    /// Lower bound of the support.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the support.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl StopDistribution for Uniform {
    fn pdf(&self, y: f64) -> f64 {
        if y >= self.lo && y < self.hi {
            1.0 / (self.hi - self.lo)
        } else {
            0.0
        }
    }

    fn cdf(&self, y: f64) -> f64 {
        ((y - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.lo + uniform01(rng) * (self.hi - self.lo)
    }

    fn quantile(&self, u: f64) -> f64 {
        assert!((0.0..1.0).contains(&u), "quantile order must be in [0,1), got {u}");
        self.lo + u * (self.hi - self.lo)
    }

    fn partial_mean(&self, b: f64) -> f64 {
        assert!(b >= 0.0, "partial_mean bound must be non-negative, got {b}");
        let b = b.clamp(self.lo, self.hi);
        // ∫_lo^b y/(hi−lo) dy
        0.5 * (b * b - self.lo * self.lo) / (self.hi - self.lo)
    }
}

// ---------------------------------------------------------------------------
// LogNormal
// ---------------------------------------------------------------------------

/// Log-normal stop lengths: `ln Y ~ N(mu, sigma²)`.
///
/// The body of real stop-length data (queueing at lights, stop signs) is
/// well described by a log-normal; the synthetic NREL-like fleets use it as
/// the short-stop component of their mixtures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with log-mean `mu` and log-std `sigma > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if `mu` is non-finite or `sigma` is
    /// not strictly positive and finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistributionError> {
        if !mu.is_finite() {
            return Err(DistributionError::new("mu", mu, "must be finite"));
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(DistributionError::new("sigma", sigma, "must be finite and > 0"));
        }
        Ok(Self { mu, sigma })
    }

    /// Method-of-moments fit on the log scale (`mu, sigma` = mean and std
    /// of `ln y`).
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if fewer than two samples are given or
    /// any sample is non-positive.
    pub fn fit(samples: &[f64]) -> Result<Self, DistributionError> {
        if samples.len() < 2 {
            return Err(DistributionError::new(
                "samples",
                samples.len() as f64,
                "need at least 2 samples",
            ));
        }
        if let Some(&bad) = samples.iter().find(|&&s| s <= 0.0) {
            return Err(DistributionError::new("samples", bad, "must all be > 0"));
        }
        let n = samples.len() as f64;
        let mu = samples.iter().map(|s| s.ln()).sum::<f64>() / n;
        let var = samples.iter().map(|s| (s.ln() - mu).powi(2)).sum::<f64>() / (n - 1.0);
        Self::new(mu, var.sqrt())
    }

    /// Log-scale location parameter.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-scale shape parameter.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl StopDistribution for LogNormal {
    fn pdf(&self, y: f64) -> f64 {
        if y <= 0.0 {
            return 0.0;
        }
        let z = (y.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (y * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, y: f64) -> f64 {
        if y <= 0.0 {
            0.0
        } else {
            normal_cdf((y.ln() - self.mu) / self.sigma)
        }
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        (self.mu + self.sigma * crate::sampling::standard_normal(rng)).exp()
    }

    fn quantile(&self, u: f64) -> f64 {
        assert!((0.0..1.0).contains(&u), "quantile order must be in [0,1), got {u}");
        if u == 0.0 {
            return 0.0;
        }
        (self.mu + self.sigma * numeric::special::normal_quantile(u)).exp()
    }

    fn partial_mean(&self, b: f64) -> f64 {
        assert!(b >= 0.0, "partial_mean bound must be non-negative, got {b}");
        if b == 0.0 {
            return 0.0;
        }
        // E[Y·1{Y≤b}] = e^{μ+σ²/2}·Φ((ln b − μ − σ²)/σ)
        self.mean() * normal_cdf((b.ln() - self.mu - self.sigma * self.sigma) / self.sigma)
    }
}

// ---------------------------------------------------------------------------
// Weibull
// ---------------------------------------------------------------------------

/// Weibull stop lengths with shape `k` and scale `λ`.
///
/// A shape below 1 produces the heavy-ish tails seen in congestion stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution with `shape > 0` and `scale > 0`.
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

    /// Shape parameter `k`.
    #[must_use]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `λ`.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl StopDistribution for Weibull {
    fn pdf(&self, y: f64) -> f64 {
        if y < 0.0 {
            return 0.0;
        }
        if y == 0.0 {
            // k < 1 diverges at 0; report 0 to keep quadrature finite.
            return if self.shape == 1.0 { 1.0 / self.scale } else { 0.0 };
        }
        let t = y / self.scale;
        (self.shape / self.scale) * t.powf(self.shape - 1.0) * (-t.powf(self.shape)).exp()
    }

    fn cdf(&self, y: f64) -> f64 {
        if y <= 0.0 {
            0.0
        } else {
            1.0 - (-(y / self.scale).powf(self.shape)).exp()
        }
    }

    fn mean(&self) -> f64 {
        self.scale * ln_gamma(1.0 + 1.0 / self.shape).exp()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u = uniform01(rng);
        self.scale * (-(1.0 - u).ln()).powf(1.0 / self.shape)
    }

    fn quantile(&self, u: f64) -> f64 {
        assert!((0.0..1.0).contains(&u), "quantile order must be in [0,1), got {u}");
        self.scale * (-(1.0 - u).ln()).powf(1.0 / self.shape)
    }
}

// ---------------------------------------------------------------------------
// Pareto
// ---------------------------------------------------------------------------

/// Pareto (power-law) stop lengths with scale `x_m` (minimum) and shape `α`.
///
/// This is the tail component of the synthetic stop-length mixtures — the
/// heavy tail is exactly what defeats the exponential assumption in the
/// paper's Figure 3 and what makes `q_B⁺` informative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Creates a Pareto distribution supported on `[scale, ∞)` with tail
    /// exponent `shape`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if either parameter is not strictly
    /// positive and finite.
    pub fn new(scale: f64, shape: f64) -> Result<Self, DistributionError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(DistributionError::new("scale", scale, "must be finite and > 0"));
        }
        if !(shape.is_finite() && shape > 0.0) {
            return Err(DistributionError::new("shape", shape, "must be finite and > 0"));
        }
        Ok(Self { scale, shape })
    }

    /// Minimum value `x_m` of the support.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Tail exponent `α`.
    #[must_use]
    pub fn shape(&self) -> f64 {
        self.shape
    }
}

impl StopDistribution for Pareto {
    fn pdf(&self, y: f64) -> f64 {
        if y < self.scale {
            0.0
        } else {
            self.shape * self.scale.powf(self.shape) / y.powf(self.shape + 1.0)
        }
    }

    fn cdf(&self, y: f64) -> f64 {
        if y < self.scale {
            0.0
        } else {
            1.0 - (self.scale / y).powf(self.shape)
        }
    }

    fn mean(&self) -> f64 {
        if self.shape <= 1.0 {
            f64::INFINITY
        } else {
            self.shape * self.scale / (self.shape - 1.0)
        }
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u = uniform01(rng);
        self.scale / (1.0 - u).powf(1.0 / self.shape)
    }

    fn quantile(&self, u: f64) -> f64 {
        assert!((0.0..1.0).contains(&u), "quantile order must be in [0,1), got {u}");
        self.scale / (1.0 - u).powf(1.0 / self.shape)
    }

    fn partial_mean(&self, b: f64) -> f64 {
        assert!(b >= 0.0, "partial_mean bound must be non-negative, got {b}");
        if b <= self.scale {
            return 0.0;
        }
        let a = self.shape;
        let xm = self.scale;
        if (a - 1.0).abs() < 1e-12 {
            // α = 1: ∫ x_m/y dy = x_m ln(b/x_m)
            xm * (b / xm).ln()
        } else {
            a * xm.powf(a) * (xm.powf(1.0 - a) - b.powf(1.0 - a)) / (a - 1.0)
        }
    }

    fn tail_prob(&self, b: f64) -> f64 {
        if b <= self.scale {
            1.0
        } else {
            (self.scale / b).powf(self.shape)
        }
    }
}

// ---------------------------------------------------------------------------
// Scaled
// ---------------------------------------------------------------------------

/// A distribution rescaled by a positive factor: `Y = factor · X`.
///
/// This is precisely the Figure-5/6 construction: "generate simulation
/// driving data by following the distribution of Chicago, but scaling its
/// mean value".
#[derive(Debug, Clone, PartialEq)]
pub struct Scaled<D> {
    inner: D,
    factor: f64,
}

impl<D: StopDistribution> Scaled<D> {
    /// Wraps `inner`, scaling every sample by `factor > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if `factor` is not strictly positive
    /// and finite.
    pub fn new(inner: D, factor: f64) -> Result<Self, DistributionError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(DistributionError::new("factor", factor, "must be finite and > 0"));
        }
        Ok(Self { inner, factor })
    }

    /// Scales `inner` so the resulting mean equals `target_mean`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if `target_mean` is not strictly
    /// positive and finite, or if `inner`'s mean is not finite and positive
    /// (an infinite-mean distribution cannot be rescaled to a target mean).
    pub fn with_mean(inner: D, target_mean: f64) -> Result<Self, DistributionError> {
        if !(target_mean.is_finite() && target_mean > 0.0) {
            return Err(DistributionError::new(
                "target_mean",
                target_mean,
                "must be finite and > 0",
            ));
        }
        let m = inner.mean();
        if !(m.is_finite() && m > 0.0) {
            return Err(DistributionError::new("inner.mean", m, "must be finite and > 0"));
        }
        Self::new(inner, target_mean / m)
    }

    /// The scale factor.
    #[must_use]
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// The wrapped distribution.
    #[must_use]
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps the inner distribution.
    #[must_use]
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: StopDistribution> StopDistribution for Scaled<D> {
    fn pdf(&self, y: f64) -> f64 {
        self.inner.pdf(y / self.factor) / self.factor
    }

    fn cdf(&self, y: f64) -> f64 {
        self.inner.cdf(y / self.factor)
    }

    fn mean(&self) -> f64 {
        self.factor * self.inner.mean()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.factor * self.inner.sample(rng)
    }

    fn quantile(&self, u: f64) -> f64 {
        self.factor * self.inner.quantile(u)
    }

    fn partial_mean(&self, b: f64) -> f64 {
        assert!(b >= 0.0, "partial_mean bound must be non-negative, got {b}");
        self.factor * self.inner.partial_mean(b / self.factor)
    }

    fn tail_prob(&self, b: f64) -> f64 {
        self.inner.tail_prob(b / self.factor)
    }
}

// ---------------------------------------------------------------------------
// Mixture
// ---------------------------------------------------------------------------

/// A finite mixture of stop-length distributions.
///
/// Weights are normalized at construction, so callers may pass raw
/// event-rate proportions (e.g. "60 % light stops, 30 % sign stops, 10 %
/// congestion").
#[derive(Debug)]
pub struct Mixture {
    components: Vec<(f64, Box<dyn StopDistribution + Send + Sync>)>,
}

impl Mixture {
    /// Builds a mixture from `(weight, distribution)` pairs; weights are
    /// normalized to sum to 1.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if no components are given, any weight
    /// is negative or non-finite, or all weights are zero.
    pub fn new(
        components: Vec<(f64, Box<dyn StopDistribution + Send + Sync>)>,
    ) -> Result<Self, DistributionError> {
        if components.is_empty() {
            return Err(DistributionError::new("components", 0.0, "must be non-empty"));
        }
        let mut total = 0.0;
        for (w, _) in &components {
            if !(w.is_finite() && *w >= 0.0) {
                return Err(DistributionError::new("weight", *w, "must be finite and >= 0"));
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(DistributionError::new("weights", total, "must sum to > 0"));
        }
        let components = components.into_iter().map(|(w, d)| (w / total, d)).collect();
        Ok(Self { components })
    }

    /// Normalized `(weight, distribution)` components.
    #[must_use]
    pub fn components(&self) -> &[(f64, Box<dyn StopDistribution + Send + Sync>)] {
        &self.components
    }
}

impl StopDistribution for Mixture {
    fn pdf(&self, y: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.pdf(y)).sum()
    }

    fn cdf(&self, y: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.cdf(y)).sum()
    }

    fn mean(&self) -> f64 {
        self.components.iter().map(|(w, d)| w * d.mean()).sum()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let mut u = uniform01(rng);
        for (w, d) in &self.components {
            if u < *w {
                return d.sample(rng);
            }
            u -= w;
        }
        // Floating-point slack: fall back to the last component.
        self.components.last().expect("mixture is non-empty").1.sample(rng)
    }

    fn partial_mean(&self, b: f64) -> f64 {
        assert!(b >= 0.0, "partial_mean bound must be non-negative, got {b}");
        self.components.iter().map(|(w, d)| w * d.partial_mean(b)).sum()
    }

    fn tail_prob(&self, b: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.tail_prob(b)).sum()
    }
}

// ---------------------------------------------------------------------------
// Discrete
// ---------------------------------------------------------------------------

/// A purely atomic distribution over finitely many stop lengths.
///
/// Worst-case adversary distributions in the paper's proofs are of this
/// form (e.g. Appendix A places all mass on `{0} ∪ [c, ∞)`, and the b-DET
/// analysis uses atoms at `0` and `b`).
///
/// Because the distribution has no density, [`StopDistribution::pdf`]
/// returns `0` everywhere; all other methods account for the atoms exactly.
/// Atoms at exactly `b` count as *long* stops in [`tail_prob`]
/// (`P(Y ≥ b)`), matching the paper's `y ≥ B` convention.
///
/// [`tail_prob`]: StopDistribution::tail_prob
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    /// Atoms sorted by value: `(value, probability)`.
    atoms: Vec<(f64, f64)>,
}

impl Discrete {
    /// Builds an atomic distribution from `(value, probability)` pairs.
    /// Probabilities are normalized to sum to 1; values must be
    /// non-negative and finite. Duplicate values are merged.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if no atoms are given, any probability
    /// is negative/non-finite, all probabilities are zero, or any value is
    /// negative/non-finite.
    pub fn new(mut atoms: Vec<(f64, f64)>) -> Result<Self, DistributionError> {
        if atoms.is_empty() {
            return Err(DistributionError::new("atoms", 0.0, "must be non-empty"));
        }
        let mut total = 0.0;
        for (v, p) in &atoms {
            if !(v.is_finite() && *v >= 0.0) {
                return Err(DistributionError::new("value", *v, "must be finite and >= 0"));
            }
            if !(p.is_finite() && *p >= 0.0) {
                return Err(DistributionError::new("probability", *p, "must be finite and >= 0"));
            }
            total += p;
        }
        if total <= 0.0 {
            return Err(DistributionError::new("probabilities", total, "must sum to > 0"));
        }
        atoms.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
        // Merge duplicates and normalize.
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(atoms.len());
        for (v, p) in atoms {
            match merged.last_mut() {
                Some((lv, lp)) if *lv == v => *lp += p / total,
                _ => merged.push((v, p / total)),
            }
        }
        Ok(Self { atoms: merged })
    }

    /// A distribution with all mass at a single point.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if `value` is negative or non-finite.
    pub fn point(value: f64) -> Result<Self, DistributionError> {
        Self::new(vec![(value, 1.0)])
    }

    /// Normalized `(value, probability)` atoms, sorted by value.
    #[must_use]
    pub fn atoms(&self) -> &[(f64, f64)] {
        &self.atoms
    }
}

impl StopDistribution for Discrete {
    /// Always `0`: the distribution is purely atomic.
    fn pdf(&self, _y: f64) -> f64 {
        0.0
    }

    fn cdf(&self, y: f64) -> f64 {
        self.atoms.iter().take_while(|(v, _)| *v <= y).map(|(_, p)| p).sum()
    }

    fn mean(&self) -> f64 {
        self.atoms.iter().map(|(v, p)| v * p).sum()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let mut u = uniform01(rng);
        for (v, p) in &self.atoms {
            if u < *p {
                return *v;
            }
            u -= p;
        }
        self.atoms.last().expect("non-empty").0
    }

    fn quantile(&self, u: f64) -> f64 {
        assert!((0.0..1.0).contains(&u), "quantile order must be in [0,1), got {u}");
        let mut acc = 0.0;
        for (v, p) in &self.atoms {
            acc += p;
            if u < acc {
                return *v;
            }
        }
        self.atoms.last().expect("non-empty").0
    }

    fn partial_mean(&self, b: f64) -> f64 {
        assert!(b >= 0.0, "partial_mean bound must be non-negative, got {b}");
        // Atoms at exactly b are long stops (y ≥ B convention).
        self.atoms.iter().take_while(|(v, _)| *v < b).map(|(v, p)| v * p).sum()
    }

    fn tail_prob(&self, b: f64) -> f64 {
        self.atoms.iter().filter(|(v, _)| *v >= b).map(|(_, p)| p).sum()
    }
}

// ---------------------------------------------------------------------------
// Empirical
// ---------------------------------------------------------------------------

/// The empirical distribution of a set of observed stop lengths.
///
/// This is how real (or synthetic) per-vehicle traces enter the analysis:
/// `cdf` is the ECDF, `sample` draws uniformly from the observations
/// (bootstrap), and the `(μ_B⁻, q_B⁺)` functionals are the plug-in
/// estimators over the sample. `pdf` is a fixed-bin histogram density
/// estimate, adequate for plotting (Figure 3) but not for quadrature —
/// which is why the moment functionals are overridden with exact sums.
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    /// Observations sorted ascending.
    sorted: Vec<f64>,
    mean: f64,
    /// Histogram density estimate: (lo, bin_width, densities).
    density_lo: f64,
    density_width: f64,
    densities: Vec<f64>,
}

impl Empirical {
    /// Builds the empirical distribution of `samples`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if `samples` is empty or contains a
    /// negative or non-finite value.
    pub fn from_samples(samples: &[f64]) -> Result<Self, DistributionError> {
        if samples.is_empty() {
            return Err(DistributionError::new("samples", 0.0, "must be non-empty"));
        }
        if let Some(&bad) = samples.iter().find(|&&s| !(s.is_finite() && s >= 0.0)) {
            return Err(DistributionError::new("samples", bad, "must be finite and >= 0"));
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;

        // Square-root rule histogram for the density estimate.
        let lo = sorted[0];
        let hi = *sorted.last().expect("non-empty");
        let bins = (sorted.len() as f64).sqrt().ceil().max(1.0) as usize;
        let width = if hi > lo { (hi - lo) / bins as f64 } else { 1.0 };
        let mut counts = vec![0u64; bins];
        for &s in &sorted {
            let i = (((s - lo) / width) as usize).min(bins - 1);
            counts[i] += 1;
        }
        let n = sorted.len() as f64;
        let densities = counts.iter().map(|&c| c as f64 / (n * width)).collect();

        Ok(Self { sorted, mean, density_lo: lo, density_width: width, densities })
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample set is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The observations, sorted ascending.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }
}

impl StopDistribution for Empirical {
    /// Histogram density estimate (for plotting; not exact).
    fn pdf(&self, y: f64) -> f64 {
        if y < self.density_lo {
            return 0.0;
        }
        let i = ((y - self.density_lo) / self.density_width) as usize;
        self.densities.get(i).copied().unwrap_or(0.0)
    }

    fn cdf(&self, y: f64) -> f64 {
        let k = self.sorted.partition_point(|&v| v <= y);
        k as f64 / self.sorted.len() as f64
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let i = (uniform01(rng) * self.sorted.len() as f64) as usize;
        self.sorted[i.min(self.sorted.len() - 1)]
    }

    fn quantile(&self, u: f64) -> f64 {
        assert!((0.0..1.0).contains(&u), "quantile order must be in [0,1), got {u}");
        numeric::stats::quantile_sorted(&self.sorted, u)
    }

    fn partial_mean(&self, b: f64) -> f64 {
        assert!(b >= 0.0, "partial_mean bound must be non-negative, got {b}");
        let k = self.sorted.partition_point(|&v| v < b);
        self.sorted[..k].iter().sum::<f64>() / self.sorted.len() as f64
    }

    fn tail_prob(&self, b: f64) -> f64 {
        let k = self.sorted.partition_point(|&v| v < b);
        (self.sorted.len() - k) as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::approx_eq;
    use numeric::quadrature::integrate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_pdf_normalizes(d: &dyn StopDistribution, hi: f64) {
        let total = integrate(|y| d.pdf(y), 0.0, hi, 1e-10);
        assert!(approx_eq(total, 1.0, 1e-4), "pdf integrates to {total} for {d:?}");
    }

    fn check_partial_mean_matches_quadrature(d: &dyn StopDistribution, b: f64) {
        let q = integrate(|y| y * d.pdf(y), 0.0, b, 1e-11);
        let a = d.partial_mean(b);
        assert!(approx_eq(a, q, 1e-5), "partial_mean({b}) = {a}, quadrature {q} for {d:?}");
    }

    fn check_sample_mean(d: &dyn StopDistribution, n: usize, tol: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let m = sum / n as f64;
        assert!(
            (m - d.mean()).abs() < tol * d.mean(),
            "sample mean {m} vs analytic {} for {d:?}",
            d.mean()
        );
    }

    fn check_quantile_inverts_cdf(d: &dyn StopDistribution) {
        for &u in &[0.05, 0.25, 0.5, 0.75, 0.95] {
            let y = d.quantile(u);
            assert!(approx_eq(d.cdf(y), u, 1e-6), "cdf(quantile({u})) = {} for {d:?}", d.cdf(y));
        }
    }

    #[test]
    fn exponential_properties() {
        let d = Exponential::with_mean(30.0).unwrap();
        assert!(approx_eq(d.mean(), 30.0, 1e-12));
        assert!(approx_eq(d.rate(), 1.0 / 30.0, 1e-12));
        check_pdf_normalizes(&d, 3000.0);
        check_partial_mean_matches_quadrature(&d, 28.0);
        check_quantile_inverts_cdf(&d);
        check_sample_mean(&d, 200_000, 0.02, 1);
        // Partial mean + tail contribution bound: μ_B⁻ ≤ mean.
        assert!(d.partial_mean(28.0) < d.mean());
        assert!(approx_eq(d.tail_prob(28.0), (-28.0 / 30.0f64).exp(), 1e-12));
    }

    #[test]
    fn exponential_fit_recovers_mean() {
        let d = Exponential::fit(&[10.0, 20.0, 30.0]).unwrap();
        assert!(approx_eq(d.mean(), 20.0, 1e-12));
    }

    #[test]
    fn exponential_rejects_bad_params() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::with_mean(0.0).is_err());
        assert!(Exponential::fit(&[]).is_err());
    }

    #[test]
    fn uniform_properties() {
        let d = Uniform::new(5.0, 25.0).unwrap();
        assert!(approx_eq(d.mean(), 15.0, 1e-12));
        check_pdf_normalizes(&d, 30.0);
        check_partial_mean_matches_quadrature(&d, 18.0);
        check_quantile_inverts_cdf(&d);
        check_sample_mean(&d, 100_000, 0.01, 2);
        // Partial mean below support is 0; above support is the full mean.
        assert_eq!(d.partial_mean(5.0), 0.0);
        assert!(approx_eq(d.partial_mean(100.0), 15.0, 1e-12));
        assert_eq!(d.tail_prob(0.0), 1.0);
        assert_eq!(d.tail_prob(25.0), 0.0);
    }

    #[test]
    fn uniform_rejects_bad_params() {
        assert!(Uniform::new(-1.0, 2.0).is_err());
        assert!(Uniform::new(2.0, 2.0).is_err());
        assert!(Uniform::new(3.0, 2.0).is_err());
    }

    #[test]
    fn lognormal_properties() {
        let d = LogNormal::new(3.0, 0.8).unwrap();
        let want_mean = (3.0f64 + 0.32).exp();
        assert!(approx_eq(d.mean(), want_mean, 1e-12));
        check_pdf_normalizes(&d, 2000.0);
        check_partial_mean_matches_quadrature(&d, 28.0);
        check_quantile_inverts_cdf(&d);
        check_sample_mean(&d, 300_000, 0.03, 3);
    }

    #[test]
    fn lognormal_partial_mean_closed_form_converges_to_mean() {
        let d = LogNormal::new(2.0, 1.0).unwrap();
        assert!(approx_eq(d.partial_mean(1e9), d.mean(), 1e-9));
        assert_eq!(d.partial_mean(0.0), 0.0);
    }

    #[test]
    fn lognormal_fit_recovers_parameters() {
        let mut rng = StdRng::seed_from_u64(9);
        let d = LogNormal::new(2.5, 0.6).unwrap();
        let samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let fit = LogNormal::fit(&samples).unwrap();
        assert!((fit.mu() - 2.5).abs() < 0.02, "mu = {}", fit.mu());
        assert!((fit.sigma() - 0.6).abs() < 0.02, "sigma = {}", fit.sigma());
    }

    #[test]
    fn lognormal_fit_rejects_bad_input() {
        assert!(LogNormal::fit(&[1.0]).is_err());
        assert!(LogNormal::fit(&[1.0, 0.0]).is_err());
        assert!(LogNormal::fit(&[1.0, -3.0]).is_err());
    }

    #[test]
    fn weibull_properties() {
        let d = Weibull::new(1.5, 20.0).unwrap();
        check_pdf_normalizes(&d, 500.0);
        check_quantile_inverts_cdf(&d);
        check_sample_mean(&d, 200_000, 0.02, 4);
        // Shape 1 reduces to exponential.
        let w = Weibull::new(1.0, 30.0).unwrap();
        let e = Exponential::with_mean(30.0).unwrap();
        for &y in &[1.0, 10.0, 50.0] {
            assert!(approx_eq(w.cdf(y), e.cdf(y), 1e-12));
        }
        assert!(approx_eq(w.mean(), 30.0, 1e-10));
    }

    #[test]
    fn weibull_heavy_shape_partial_mean() {
        let d = Weibull::new(0.7, 25.0).unwrap();
        check_partial_mean_matches_quadrature(&d, 40.0);
    }

    #[test]
    fn pareto_properties() {
        let d = Pareto::new(10.0, 2.5).unwrap();
        assert!(approx_eq(d.mean(), 2.5 * 10.0 / 1.5, 1e-12));
        // Integrate over the support (adaptive quadrature started at 0 over
        // a huge range would miss the localized mass near x_m entirely).
        let mass = integrate(|y| d.pdf(y), 10.0, 2000.0, 1e-10);
        assert!(approx_eq(mass, d.cdf(2000.0), 1e-6), "mass {mass}");
        check_partial_mean_matches_quadrature(&d, 80.0);
        check_quantile_inverts_cdf(&d);
        check_sample_mean(&d, 400_000, 0.05, 5);
        assert_eq!(d.partial_mean(10.0), 0.0);
        assert_eq!(d.tail_prob(5.0), 1.0);
    }

    #[test]
    fn pareto_infinite_mean() {
        let d = Pareto::new(1.0, 0.9).unwrap();
        assert!(d.mean().is_infinite());
        // Partial mean stays finite even with infinite mean.
        assert!(d.partial_mean(100.0).is_finite());
    }

    #[test]
    fn pareto_alpha_one_partial_mean() {
        let d = Pareto::new(2.0, 1.0).unwrap();
        check_partial_mean_matches_quadrature(&d, 50.0);
    }

    #[test]
    fn scaled_properties() {
        let base = Exponential::with_mean(10.0).unwrap();
        let d = Scaled::new(base, 3.0).unwrap();
        assert!(approx_eq(d.mean(), 30.0, 1e-12));
        check_pdf_normalizes(&d, 3000.0);
        check_quantile_inverts_cdf(&d);
        // Scaled exponential(10)·3 == exponential(30).
        let e = Exponential::with_mean(30.0).unwrap();
        for &y in &[5.0, 28.0, 100.0] {
            assert!(approx_eq(d.cdf(y), e.cdf(y), 1e-12));
            assert!(approx_eq(d.partial_mean(y), e.partial_mean(y), 1e-12));
            assert!(approx_eq(d.tail_prob(y), e.tail_prob(y), 1e-12));
        }
    }

    #[test]
    fn scaled_with_mean_hits_target() {
        let base = Weibull::new(0.8, 17.0).unwrap();
        let d = Scaled::with_mean(base, 60.0).unwrap();
        assert!(approx_eq(d.mean(), 60.0, 1e-10));
    }

    #[test]
    fn scaled_rejects_bad_factor_and_infinite_mean() {
        let base = Exponential::with_mean(10.0).unwrap();
        assert!(Scaled::new(base, 0.0).is_err());
        assert!(Scaled::new(base, -2.0).is_err());
        let heavy = Pareto::new(1.0, 0.5).unwrap();
        assert!(Scaled::with_mean(heavy, 10.0).is_err());
    }

    #[test]
    fn mixture_properties() {
        let m = Mixture::new(vec![
            (3.0, Box::new(Exponential::with_mean(10.0).unwrap()) as _),
            (1.0, Box::new(Uniform::new(50.0, 100.0).unwrap()) as _),
        ])
        .unwrap();
        // Normalized weights 0.75 / 0.25.
        assert!(approx_eq(m.components()[0].0, 0.75, 1e-12));
        assert!(approx_eq(m.mean(), 0.75 * 10.0 + 0.25 * 75.0, 1e-12));
        check_pdf_normalizes(&m, 2000.0);
        check_partial_mean_matches_quadrature(&m, 60.0);
        check_sample_mean(&m, 200_000, 0.02, 6);
        check_quantile_inverts_cdf(&m);
    }

    #[test]
    fn mixture_rejects_bad_weights() {
        assert!(Mixture::new(vec![]).is_err());
        assert!(Mixture::new(vec![(-1.0, Box::new(Exponential::with_mean(1.0).unwrap()) as _)])
            .is_err());
        assert!(
            Mixture::new(vec![(0.0, Box::new(Exponential::with_mean(1.0).unwrap()) as _)]).is_err()
        );
    }

    #[test]
    fn discrete_properties() {
        let d = Discrete::new(vec![(0.0, 0.5), (40.0, 0.3), (100.0, 0.2)]).unwrap();
        assert!(approx_eq(d.mean(), 32.0, 1e-12));
        assert_eq!(d.pdf(40.0), 0.0);
        assert!(approx_eq(d.cdf(39.9), 0.5, 1e-12));
        assert!(approx_eq(d.cdf(40.0), 0.8, 1e-12));
        // Atom exactly at b counts as a long stop.
        assert!(approx_eq(d.tail_prob(40.0), 0.5, 1e-12));
        assert!(approx_eq(d.partial_mean(40.0), 0.0, 1e-12));
        assert!(approx_eq(d.partial_mean(40.1), 12.0, 1e-12));
        let mut rng = StdRng::seed_from_u64(10);
        let n = 100_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 32.0).abs() < 0.5, "sample mean {mean}");
    }

    #[test]
    fn discrete_merges_duplicates_and_normalizes() {
        let d = Discrete::new(vec![(5.0, 1.0), (5.0, 1.0), (10.0, 2.0)]).unwrap();
        assert_eq!(d.atoms().len(), 2);
        assert!(approx_eq(d.atoms()[0].1, 0.5, 1e-12));
        assert!(approx_eq(d.atoms()[1].1, 0.5, 1e-12));
    }

    #[test]
    fn discrete_point_mass() {
        let d = Discrete::point(28.0).unwrap();
        assert_eq!(d.mean(), 28.0);
        assert_eq!(d.quantile(0.99), 28.0);
        assert_eq!(d.cdf(27.9), 0.0);
        assert_eq!(d.cdf(28.0), 1.0);
    }

    #[test]
    fn discrete_rejects_bad_atoms() {
        assert!(Discrete::new(vec![]).is_err());
        assert!(Discrete::new(vec![(-1.0, 1.0)]).is_err());
        assert!(Discrete::new(vec![(1.0, -1.0)]).is_err());
        assert!(Discrete::new(vec![(1.0, 0.0)]).is_err());
    }

    #[test]
    fn empirical_properties() {
        let samples = [5.0, 10.0, 15.0, 20.0, 100.0];
        let d = Empirical::from_samples(&samples).unwrap();
        assert_eq!(d.len(), 5);
        assert!(!d.is_empty());
        assert!(approx_eq(d.mean(), 30.0, 1e-12));
        assert!(approx_eq(d.cdf(15.0), 0.6, 1e-12));
        assert!(approx_eq(d.cdf(14.9), 0.4, 1e-12));
        // Plug-in functionals.
        assert!(approx_eq(d.partial_mean(20.0), 30.0 / 5.0, 1e-12)); // (5+10+15)/5
        assert!(approx_eq(d.tail_prob(20.0), 0.4, 1e-12));
        // Sampling only produces observed values.
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let s = d.sample(&mut rng);
            assert!(samples.contains(&s));
        }
    }

    #[test]
    fn empirical_quantile_is_order_statistic() {
        let d = Empirical::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!(approx_eq(d.quantile(0.5), 3.0, 1e-12));
        assert!(approx_eq(d.quantile(0.0), 1.0, 1e-12));
    }

    #[test]
    fn empirical_density_roughly_normalizes() {
        let mut rng = StdRng::seed_from_u64(12);
        let src = Exponential::with_mean(20.0).unwrap();
        let samples: Vec<f64> = (0..10_000).map(|_| src.sample(&mut rng)).collect();
        let d = Empirical::from_samples(&samples).unwrap();
        let total = integrate(|y| d.pdf(y), 0.0, 400.0, 1e-8);
        assert!((total - 1.0).abs() < 0.05, "density integrates to {total}");
    }

    #[test]
    fn empirical_rejects_bad_samples() {
        assert!(Empirical::from_samples(&[]).is_err());
        assert!(Empirical::from_samples(&[1.0, -2.0]).is_err());
        assert!(Empirical::from_samples(&[f64::NAN]).is_err());
    }

    #[test]
    fn empirical_constant_samples() {
        let d = Empirical::from_samples(&[7.0; 10]).unwrap();
        assert_eq!(d.mean(), 7.0);
        assert_eq!(d.cdf(7.0), 1.0);
        assert_eq!(d.cdf(6.9), 0.0);
    }

    #[test]
    fn trait_objects_forward() {
        let d: Box<dyn StopDistribution> = Box::new(Exponential::with_mean(10.0).unwrap());
        assert!(approx_eq(d.mean(), 10.0, 1e-12));
        assert!(approx_eq(d.partial_mean(10.0), d.partial_mean(10.0), 1e-12));
    }

    #[test]
    fn error_display() {
        let e = Exponential::new(-1.0).unwrap_err();
        assert!(e.to_string().contains("rate"));
        assert_eq!(e.parameter(), "rate");
    }
}
