//! Online stop-start policies.
//!
//! A [`Policy`] decides how long to keep the engine idling before shutting
//! it off, possibly at random. The six strategies the paper evaluates:
//!
//! | type | paper name | threshold |
//! |---|---|---|
//! | [`Nev`] | NEV | never turn off (`x = ∞`) |
//! | [`Toi`] | TOI | turn off immediately (`x = ε → 0`) |
//! | [`Det`] | DET | deterministic `x = B` (Karlin et al. 1988) |
//! | [`BDet`] | b-DET | deterministic `x = b ∈ [0, B]` |
//! | [`NRand`] | N-Rand | randomized, pdf `e^{x/B}/(B(e−1))` (Karlin et al. 1990) |
//! | [`MomRand`] | MOM-Rand | first-moment randomized (Khanafer et al. 2013) |
//!
//! The *proposed* algorithm of the paper is
//! [`crate::constrained::ProposedPolicy`], which selects among TOI / DET /
//! b-DET / N-Rand from the constrained statistics.

use crate::cost::BreakEven;
use crate::summary::StopSummary;
use crate::{e_ratio, Error};
use rand::RngCore;
use std::f64::consts::E;
use std::fmt;

/// An online stop-start policy: a (possibly randomized) idle threshold.
///
/// The two essential operations are the *analytic* expected cost of a stop
/// (expectation over the policy's own randomness, eq. (3) integrated
/// against the threshold distribution) and *sampling* a concrete threshold
/// for one stop, which is what an actual stop-start controller executes.
pub trait Policy: fmt::Debug {
    /// Short display name (e.g. `"DET"`), matching the paper's legends.
    fn name(&self) -> &'static str;

    /// The break-even interval the policy was built for.
    fn break_even(&self) -> BreakEven;

    /// Expected online cost `E_x[cost_online(x, y)]` of a stop of length
    /// `y`, in idle-seconds.
    ///
    /// # Panics
    ///
    /// Panics if `y` is negative or NaN.
    fn expected_cost(&self, y: f64) -> f64;

    /// Draws a concrete idle threshold for one stop. Deterministic
    /// policies ignore the RNG. `f64::INFINITY` encodes "never turn off".
    fn sample_threshold(&self, rng: &mut dyn RngCore) -> f64;

    /// CDF `P(X ≤ x)` of the threshold distribution (for diagnostics and
    /// tests).
    fn threshold_cdf(&self, x: f64) -> f64;

    /// Total expected cost over a whole trace, evaluated on its
    /// [`StopSummary`]: `Σᵢ E_x[cost_online(x, yᵢ)]`.
    ///
    /// The default implementation scans the (sorted) trace with
    /// [`Policy::expected_cost`] — O(n). Every concrete policy in this
    /// crate overrides it with a closed form over the summary's prefix
    /// sums, making the evaluation O(log n); the two agree to
    /// floating-point summation order (≤ 1e-9 relative, property-tested).
    fn total_cost_on(&self, summary: &StopSummary) -> f64 {
        summary.sorted().iter().map(|&y| self.expected_cost(y)).sum()
    }
}

/// Forwarding impl so boxed policies compose.
impl<P: Policy + ?Sized> Policy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn break_even(&self) -> BreakEven {
        (**self).break_even()
    }
    fn expected_cost(&self, y: f64) -> f64 {
        (**self).expected_cost(y)
    }
    fn sample_threshold(&self, rng: &mut dyn RngCore) -> f64 {
        (**self).sample_threshold(rng)
    }
    fn threshold_cdf(&self, x: f64) -> f64 {
        (**self).threshold_cdf(x)
    }
    fn total_cost_on(&self, summary: &StopSummary) -> f64 {
        (**self).total_cost_on(summary)
    }
}

fn assert_stop_length(y: f64) {
    assert!(y >= 0.0, "stop length must be non-negative, got {y}");
}

// ---------------------------------------------------------------------------
// NEV
// ---------------------------------------------------------------------------

/// NEV — never turn the engine off (the reluctant-driver baseline).
///
/// Costs `y` on every stop; its competitive ratio is unbounded for long
/// stops, which is exactly the behaviour the paper's Figure 4 shows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nev {
    break_even: BreakEven,
}

impl Nev {
    /// Creates the never-turn-off policy.
    #[must_use]
    pub fn new(break_even: BreakEven) -> Self {
        Self { break_even }
    }
}

impl Policy for Nev {
    fn name(&self) -> &'static str {
        "NEV"
    }

    fn break_even(&self) -> BreakEven {
        self.break_even
    }

    fn expected_cost(&self, y: f64) -> f64 {
        assert_stop_length(y);
        y
    }

    fn sample_threshold(&self, _rng: &mut dyn RngCore) -> f64 {
        f64::INFINITY
    }

    fn threshold_cdf(&self, _x: f64) -> f64 {
        0.0
    }

    fn total_cost_on(&self, summary: &StopSummary) -> f64 {
        summary.total()
    }
}

// ---------------------------------------------------------------------------
// TOI
// ---------------------------------------------------------------------------

/// TOI — turn the engine off immediately (the common stop-start-system
/// default).
///
/// Pays one restart (`B`) on every positive-length stop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Toi {
    break_even: BreakEven,
}

impl Toi {
    /// Creates the turn-off-immediately policy.
    #[must_use]
    pub fn new(break_even: BreakEven) -> Self {
        Self { break_even }
    }
}

impl Policy for Toi {
    fn name(&self) -> &'static str {
        "TOI"
    }

    fn break_even(&self) -> BreakEven {
        self.break_even
    }

    fn expected_cost(&self, y: f64) -> f64 {
        assert_stop_length(y);
        // x = ε → 0: a zero-length "stop" costs nothing, everything else
        // pays a restart.
        if y == 0.0 {
            0.0
        } else {
            self.break_even.seconds()
        }
    }

    fn sample_threshold(&self, _rng: &mut dyn RngCore) -> f64 {
        0.0
    }

    fn threshold_cdf(&self, x: f64) -> f64 {
        if x >= 0.0 {
            1.0
        } else {
            0.0
        }
    }

    fn total_cost_on(&self, summary: &StopSummary) -> f64 {
        // One restart per positive stop; zero-length "stops" are free.
        summary.positive_count() as f64 * self.break_even.seconds()
    }
}

// ---------------------------------------------------------------------------
// DET and b-DET
// ---------------------------------------------------------------------------

/// DET — wait exactly `B`, then turn off (the optimal deterministic online
/// algorithm, worst-case `cr = 2`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Det {
    break_even: BreakEven,
}

impl Det {
    /// Creates the deterministic break-even-threshold policy.
    #[must_use]
    pub fn new(break_even: BreakEven) -> Self {
        Self { break_even }
    }
}

impl Policy for Det {
    fn name(&self) -> &'static str {
        "DET"
    }

    fn break_even(&self) -> BreakEven {
        self.break_even
    }

    fn expected_cost(&self, y: f64) -> f64 {
        assert_stop_length(y);
        self.break_even.online_cost(self.break_even.seconds(), y)
    }

    fn sample_threshold(&self, _rng: &mut dyn RngCore) -> f64 {
        self.break_even.seconds()
    }

    fn threshold_cdf(&self, x: f64) -> f64 {
        if x >= self.break_even.seconds() {
            1.0
        } else {
            0.0
        }
    }

    fn total_cost_on(&self, summary: &StopSummary) -> f64 {
        summary.threshold_total_cost(self.break_even.seconds(), self.break_even)
    }
}

/// b-DET — wait a fixed `b ∈ [0, B]`, then turn off.
///
/// The paper introduces this strategy as the third vertex of the
/// constrained LP; with the minimax-optimal `b* = √(μ_B⁻·B / q_B⁺)` it can
/// beat every classic strategy when short stops are tiny (Figure 2(c–d)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BDet {
    break_even: BreakEven,
    threshold: f64,
}

impl BDet {
    /// Creates a deterministic policy with threshold `b`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidThreshold`] unless `0 ≤ b ≤ B` (Appendix A
    /// proves thresholds above `B` are dominated).
    pub fn new(break_even: BreakEven, b: f64) -> Result<Self, Error> {
        if !(b.is_finite() && (0.0..=break_even.seconds()).contains(&b)) {
            return Err(Error::InvalidThreshold { threshold: b, break_even: break_even.seconds() });
        }
        Ok(Self { break_even, threshold: b })
    }

    /// The fixed threshold `b`.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl Policy for BDet {
    fn name(&self) -> &'static str {
        "b-DET"
    }

    fn break_even(&self) -> BreakEven {
        self.break_even
    }

    fn expected_cost(&self, y: f64) -> f64 {
        assert_stop_length(y);
        self.break_even.online_cost(self.threshold, y)
    }

    fn sample_threshold(&self, _rng: &mut dyn RngCore) -> f64 {
        self.threshold
    }

    fn threshold_cdf(&self, x: f64) -> f64 {
        if x >= self.threshold {
            1.0
        } else {
            0.0
        }
    }

    fn total_cost_on(&self, summary: &StopSummary) -> f64 {
        summary.threshold_total_cost(self.threshold, self.break_even)
    }
}

// ---------------------------------------------------------------------------
// MixedThreshold
// ---------------------------------------------------------------------------

/// A finite mixed-threshold policy: draw one of finitely many thresholds
/// in `[0, B]` with given probabilities.
///
/// This is the general form a matrix-game solution takes (see
/// [`crate::constrained::ConstrainedStats::solve_minimax_game`]); the
/// classic strategies are special cases (TOI/DET/b-DET are single atoms).
#[derive(Debug, Clone, PartialEq)]
pub struct MixedThreshold {
    break_even: BreakEven,
    /// `(threshold, probability)` sorted by threshold; probabilities sum
    /// to 1.
    atoms: Vec<(f64, f64)>,
}

impl MixedThreshold {
    /// Builds a mixed policy from `(threshold, weight)` pairs; weights are
    /// normalized.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidThreshold`] if any threshold is outside
    /// `[0, B]`, or [`Error::EmptyTrace`] if no atoms are given or all
    /// weights are zero.
    pub fn new(break_even: BreakEven, atoms: Vec<(f64, f64)>) -> Result<Self, Error> {
        if atoms.is_empty() {
            return Err(Error::EmptyTrace);
        }
        let mut total = 0.0;
        for &(x, w) in &atoms {
            if !(x.is_finite() && (0.0..=break_even.seconds()).contains(&x)) {
                return Err(Error::InvalidThreshold {
                    threshold: x,
                    break_even: break_even.seconds(),
                });
            }
            if !(w.is_finite() && w >= 0.0) {
                return Err(Error::InvalidThreshold {
                    threshold: x,
                    break_even: break_even.seconds(),
                });
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(Error::EmptyTrace);
        }
        let mut atoms: Vec<(f64, f64)> =
            atoms.into_iter().filter(|&(_, w)| w > 0.0).map(|(x, w)| (x, w / total)).collect();
        atoms.sort_by(|a, b| a.0.total_cmp(&b.0));
        Ok(Self { break_even, atoms })
    }

    /// The normalized `(threshold, probability)` atoms, sorted.
    #[must_use]
    pub fn atoms(&self) -> &[(f64, f64)] {
        &self.atoms
    }
}

impl Policy for MixedThreshold {
    fn name(&self) -> &'static str {
        "Mixed"
    }

    fn break_even(&self) -> BreakEven {
        self.break_even
    }

    fn expected_cost(&self, y: f64) -> f64 {
        assert_stop_length(y);
        self.atoms.iter().map(|&(x, p)| p * self.break_even.online_cost(x, y)).sum()
    }

    fn sample_threshold(&self, rng: &mut dyn RngCore) -> f64 {
        let mut u = stopmodel::uniform01(rng);
        for &(x, p) in &self.atoms {
            if u < p {
                return x;
            }
            u -= p;
        }
        self.atoms.last().unwrap_or_else(|| unreachable!("atoms non-empty by construction")).0
    }

    fn threshold_cdf(&self, x: f64) -> f64 {
        self.atoms.iter().take_while(|&&(t, _)| t <= x).map(|&(_, p)| p).sum()
    }

    fn total_cost_on(&self, summary: &StopSummary) -> f64 {
        // Linearity of expectation over the atoms; each atom is a fixed
        // threshold whose trace total has a closed form.
        self.atoms.iter().map(|&(x, p)| p * summary.threshold_total_cost(x, self.break_even)).sum()
    }
}

// ---------------------------------------------------------------------------
// N-Rand
// ---------------------------------------------------------------------------

/// N-Rand — the optimal unconstrained randomized algorithm (Karlin,
/// Manasse, McGeoch, Owicki 1990).
///
/// Thresholds are drawn from `P(x) = e^{x/B} / (B(e−1))` on `[0, B]`
/// (eq. (7)); the expected cost is exactly `e/(e−1) · cost_offline(y)` for
/// *every* stop length, which is what makes its competitive ratio
/// distribution-independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NRand {
    break_even: BreakEven,
}

impl NRand {
    /// Creates the randomized e/(e−1) policy.
    #[must_use]
    pub fn new(break_even: BreakEven) -> Self {
        Self { break_even }
    }

    /// The threshold density `P(x)` of eq. (7).
    #[must_use]
    pub fn threshold_pdf(&self, x: f64) -> f64 {
        let b = self.break_even.seconds();
        if (0.0..=b).contains(&x) {
            (x / b).exp() / (b * (E - 1.0))
        } else {
            0.0
        }
    }
}

impl Policy for NRand {
    fn name(&self) -> &'static str {
        "N-Rand"
    }

    fn break_even(&self) -> BreakEven {
        self.break_even
    }

    fn expected_cost(&self, y: f64) -> f64 {
        assert_stop_length(y);
        // Closed form: ∫₀^y (x+B)P(x)dx + y·∫_y^B P(x)dx = e/(e−1)·min(y,B).
        e_ratio() * self.break_even.offline_cost(y)
    }

    fn sample_threshold(&self, rng: &mut dyn RngCore) -> f64 {
        numeric::vertex::n_rand_threshold(self.break_even.seconds(), stopmodel::uniform01(rng))
    }

    fn threshold_cdf(&self, x: f64) -> f64 {
        let b = self.break_even.seconds();
        if x < 0.0 {
            0.0
        } else if x >= b {
            1.0
        } else {
            ((x / b).exp() - 1.0) / (E - 1.0)
        }
    }

    fn total_cost_on(&self, summary: &StopSummary) -> f64 {
        // Per-stop cost is e/(e−1)·min(y, B); the sum telescopes into the
        // offline total.
        e_ratio() * summary.offline_total(self.break_even)
    }
}

// ---------------------------------------------------------------------------
// MOM-Rand
// ---------------------------------------------------------------------------

/// MOM-Rand — the first-moment-constrained randomized algorithm (Khanafer,
/// Kodialam, Puttaswamy 2013).
///
/// When the mean stop length satisfies `μ ≤ 2(e−2)/(e−1)·B ≈ 0.836·B`,
/// thresholds are drawn from `P(x) = (e^{x/B} − 1)/(B(e−2))` on `[0, B]`
/// (eq. (9)); otherwise the policy falls back to [`NRand`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MomRand {
    break_even: BreakEven,
    mean: f64,
    uses_moment_pdf: bool,
}

impl MomRand {
    /// Creates the policy for a workload with mean stop length `mean`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidMean`] if `mean` is negative or non-finite.
    pub fn new(break_even: BreakEven, mean: f64) -> Result<Self, Error> {
        if !(mean.is_finite() && mean >= 0.0) {
            return Err(Error::InvalidMean(mean));
        }
        let uses_moment_pdf = mean <= Self::moment_threshold(break_even);
        Ok(Self { break_even, mean, uses_moment_pdf })
    }

    /// The switching point `2(e−2)/(e−1)·B ≈ 0.836·B` below which the
    /// moment-aware density applies.
    #[must_use]
    pub fn moment_threshold(break_even: BreakEven) -> f64 {
        2.0 * (E - 2.0) / (E - 1.0) * break_even.seconds()
    }

    /// Whether the moment-aware density (rather than the N-Rand fallback)
    /// is in effect.
    #[must_use]
    pub fn uses_moment_pdf(&self) -> bool {
        self.uses_moment_pdf
    }

    /// The mean stop length the policy was built with.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The threshold density of eq. (9) (or eq. (7) in the fallback
    /// regime).
    #[must_use]
    pub fn threshold_pdf(&self, x: f64) -> f64 {
        let b = self.break_even.seconds();
        if !self.uses_moment_pdf {
            return NRand::new(self.break_even).threshold_pdf(x);
        }
        if (0.0..=b).contains(&x) {
            ((x / b).exp() - 1.0) / (b * (E - 2.0))
        } else {
            0.0
        }
    }
}

impl Policy for MomRand {
    fn name(&self) -> &'static str {
        "MOM-Rand"
    }

    fn break_even(&self) -> BreakEven {
        self.break_even
    }

    fn expected_cost(&self, y: f64) -> f64 {
        assert_stop_length(y);
        if !self.uses_moment_pdf {
            return NRand::new(self.break_even).expected_cost(y);
        }
        let b = self.break_even.seconds();
        if y <= b {
            // ∫₀^y (x+B)P(x)dx + y·∫_y^B P(x)dx = y·(1 + y/(2B(e−2))).
            y * (1.0 + y / (2.0 * b * (E - 2.0)))
        } else {
            // ∫₀^B (x+B)P(x)dx = B(e − 3/2)/(e − 2).
            b * (E - 1.5) / (E - 2.0)
        }
    }

    fn sample_threshold(&self, rng: &mut dyn RngCore) -> f64 {
        if !self.uses_moment_pdf {
            return NRand::new(self.break_even).sample_threshold(rng);
        }
        // CDF G(x) = (e^{x/B} − 1 − x/B)/(e − 2) has no closed-form
        // inverse; bisect on [0, B].
        let u = stopmodel::uniform01(rng);
        let b = self.break_even.seconds();
        numeric::rootfind::bisect(|x| self.threshold_cdf(x) - u, 0.0, b, 1e-10 * b).unwrap_or_else(
            |_| unreachable!("threshold CDF is continuous and spans [0,1] on [0,B]"),
        )
    }

    fn threshold_cdf(&self, x: f64) -> f64 {
        if !self.uses_moment_pdf {
            return NRand::new(self.break_even).threshold_cdf(x);
        }
        let b = self.break_even.seconds();
        if x < 0.0 {
            0.0
        } else if x >= b {
            1.0
        } else {
            ((x / b).exp() - 1.0 - x / b) / (E - 2.0)
        }
    }

    fn total_cost_on(&self, summary: &StopSummary) -> f64 {
        if !self.uses_moment_pdf {
            return NRand::new(self.break_even).total_cost_on(summary);
        }
        let b = self.break_even.seconds();
        // y ≤ B stops pay y + y²/(2B(e−2)) each — the sum splits into the
        // prefix sum and the prefix sum of squares; longer stops pay the
        // constant B(e − 3/2)/(e − 2).
        let short = summary.sum_at_most(b) + summary.sum_sq_at_most(b) / (2.0 * b * (E - 2.0));
        let long = (summary.len() - summary.count_at_most(b)) as f64;
        short + long * b * (E - 1.5) / (E - 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::approx_eq;
    use numeric::quadrature::integrate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn b28() -> BreakEven {
        BreakEven::new(28.0).unwrap()
    }

    /// Monte-Carlo estimate of the expected cost by sampling thresholds.
    fn mc_cost(policy: &dyn Policy, y: f64, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = policy.break_even();
        (0..n).map(|_| b.online_cost(policy.sample_threshold(&mut rng).min(1e18), y)).sum::<f64>()
            / n as f64
    }

    #[test]
    fn nev_costs_stop_length() {
        let p = Nev::new(b28());
        assert_eq!(p.expected_cost(0.0), 0.0);
        assert_eq!(p.expected_cost(300.0), 300.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(p.sample_threshold(&mut rng), f64::INFINITY);
        assert_eq!(p.threshold_cdf(1e12), 0.0);
        assert_eq!(p.name(), "NEV");
    }

    #[test]
    fn toi_costs_restart() {
        let p = Toi::new(b28());
        assert_eq!(p.expected_cost(0.0), 0.0);
        assert_eq!(p.expected_cost(0.1), 28.0);
        assert_eq!(p.expected_cost(1000.0), 28.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(p.sample_threshold(&mut rng), 0.0);
        assert_eq!(p.threshold_cdf(0.0), 1.0);
        assert_eq!(p.threshold_cdf(-0.1), 0.0);
    }

    #[test]
    fn det_cost_profile() {
        let p = Det::new(b28());
        // Short stop: idle through it.
        assert_eq!(p.expected_cost(10.0), 10.0);
        // Stop of exactly B: pay B idle + B restart (the cr = 2 point).
        assert_eq!(p.expected_cost(28.0), 56.0);
        assert_eq!(p.expected_cost(100.0), 56.0);
        assert_eq!(p.threshold_cdf(27.9), 0.0);
        assert_eq!(p.threshold_cdf(28.0), 1.0);
    }

    #[test]
    fn bdet_validates_threshold() {
        assert!(BDet::new(b28(), 0.0).is_ok());
        assert!(BDet::new(b28(), 28.0).is_ok());
        assert!(matches!(
            BDet::new(b28(), 28.1),
            Err(Error::InvalidThreshold { threshold: _, break_even: _ })
        ));
        assert!(BDet::new(b28(), -1.0).is_err());
        assert!(BDet::new(b28(), f64::NAN).is_err());
    }

    #[test]
    fn bdet_cost_profile() {
        let p = BDet::new(b28(), 10.0).unwrap();
        assert_eq!(p.threshold(), 10.0);
        assert_eq!(p.expected_cost(5.0), 5.0);
        assert_eq!(p.expected_cost(10.0), 38.0);
        assert_eq!(p.expected_cost(200.0), 38.0);
    }

    #[test]
    fn bdet_with_b_equals_det() {
        let bd = BDet::new(b28(), 28.0).unwrap();
        let det = Det::new(b28());
        for y in [0.0, 5.0, 28.0, 50.0] {
            assert_eq!(bd.expected_cost(y), det.expected_cost(y));
        }
    }

    #[test]
    fn nrand_pdf_normalizes_and_matches_cdf() {
        let p = NRand::new(b28());
        let total = integrate(|x| p.threshold_pdf(x), 0.0, 28.0, 1e-11);
        assert!(approx_eq(total, 1.0, 1e-9), "pdf mass {total}");
        for &x in &[0.0, 7.0, 14.0, 28.0] {
            let cdf_num = integrate(|t| p.threshold_pdf(t), 0.0, x, 1e-11);
            assert!(approx_eq(cdf_num, p.threshold_cdf(x), 1e-8));
        }
    }

    #[test]
    fn nrand_expected_cost_is_e_ratio_times_offline() {
        // The defining property of N-Rand (verified against direct
        // integration of eq. (3) over the threshold pdf).
        let p = NRand::new(b28());
        for &y in &[1.0f64, 10.0, 27.9, 28.0, 50.0, 500.0] {
            let direct = integrate(|x| (x + 28.0) * p.threshold_pdf(x), 0.0, y.min(28.0), 1e-11)
                + y * integrate(|x| p.threshold_pdf(x), y.min(28.0), 28.0, 1e-11);
            assert!(
                approx_eq(p.expected_cost(y), direct, 1e-8),
                "closed form {} vs integral {direct} at y={y}",
                p.expected_cost(y)
            );
            assert!(approx_eq(p.expected_cost(y), e_ratio() * y.min(28.0), 1e-12));
        }
    }

    #[test]
    fn nrand_sampling_matches_cdf() {
        let p = NRand::new(b28());
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| p.sample_threshold(&mut rng)).collect();
        assert!(samples.iter().all(|&x| (0.0..=28.0).contains(&x)));
        // Empirical CDF at a few probes.
        for &x in &[5.0, 14.0, 23.0] {
            let emp = samples.iter().filter(|&&s| s <= x).count() as f64 / n as f64;
            assert!(
                (emp - p.threshold_cdf(x)).abs() < 0.01,
                "ecdf {emp} vs cdf {} at {x}",
                p.threshold_cdf(x)
            );
        }
    }

    #[test]
    fn nrand_mc_cost_matches_closed_form() {
        let p = NRand::new(b28());
        for &y in &[10.0, 28.0, 60.0] {
            let mc = mc_cost(&p, y, 200_000, 4);
            assert!(
                (mc - p.expected_cost(y)).abs() / p.expected_cost(y) < 0.01,
                "MC {mc} vs analytic {} at y={y}",
                p.expected_cost(y)
            );
        }
    }

    #[test]
    fn momrand_regime_switch() {
        let b = b28();
        let thresh = MomRand::moment_threshold(b);
        assert!(approx_eq(thresh, 0.836 * 28.0, 1e-3 * 28.0));
        assert!(MomRand::new(b, thresh - 0.1).unwrap().uses_moment_pdf());
        assert!(!MomRand::new(b, thresh + 0.1).unwrap().uses_moment_pdf());
    }

    #[test]
    fn momrand_validates_mean() {
        assert!(MomRand::new(b28(), -1.0).is_err());
        assert!(MomRand::new(b28(), f64::NAN).is_err());
        assert_eq!(MomRand::new(b28(), 5.0).unwrap().mean(), 5.0);
    }

    #[test]
    fn momrand_pdf_normalizes_and_matches_cdf() {
        let p = MomRand::new(b28(), 10.0).unwrap();
        assert!(p.uses_moment_pdf());
        let total = integrate(|x| p.threshold_pdf(x), 0.0, 28.0, 1e-11);
        assert!(approx_eq(total, 1.0, 1e-9), "pdf mass {total}");
        for &x in &[3.0, 14.0, 27.0] {
            let cdf_num = integrate(|t| p.threshold_pdf(t), 0.0, x, 1e-11);
            assert!(approx_eq(cdf_num, p.threshold_cdf(x), 1e-8));
        }
    }

    #[test]
    fn momrand_expected_cost_matches_integral() {
        let p = MomRand::new(b28(), 10.0).unwrap();
        for &y in &[5.0f64, 15.0, 28.0, 40.0] {
            let direct = integrate(|x| (x + 28.0) * p.threshold_pdf(x), 0.0, y.min(28.0), 1e-11)
                + y * integrate(|x| p.threshold_pdf(x), y.min(28.0), 28.0, 1e-11);
            assert!(
                approx_eq(p.expected_cost(y), direct, 1e-8),
                "closed form {} vs integral {direct} at y={y}",
                p.expected_cost(y)
            );
        }
    }

    #[test]
    fn momrand_cost_continuous_at_b() {
        let p = MomRand::new(b28(), 10.0).unwrap();
        let below = p.expected_cost(28.0 - 1e-9);
        let above = p.expected_cost(28.0 + 1e-9);
        assert!(approx_eq(below, above, 1e-6));
    }

    #[test]
    fn momrand_fallback_equals_nrand() {
        let p = MomRand::new(b28(), 27.0).unwrap(); // mean > 0.836 B
        let n = NRand::new(b28());
        for &y in &[5.0, 28.0, 100.0] {
            assert_eq!(p.expected_cost(y), n.expected_cost(y));
        }
        assert_eq!(p.threshold_cdf(14.0), n.threshold_cdf(14.0));
    }

    #[test]
    fn momrand_sampling_matches_cdf() {
        let p = MomRand::new(b28(), 8.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| p.sample_threshold(&mut rng)).collect();
        assert!(samples.iter().all(|&x| (0.0..=28.0).contains(&x)));
        for &x in &[10.0, 20.0, 26.0] {
            let emp = samples.iter().filter(|&&s| s <= x).count() as f64 / n as f64;
            assert!(
                (emp - p.threshold_cdf(x)).abs() < 0.01,
                "ecdf {emp} vs cdf {} at {x}",
                p.threshold_cdf(x)
            );
        }
    }

    #[test]
    fn momrand_upper_bound_cr_prime() {
        // Khanafer et al.: CR' ≤ 1 + μ/(2B(e−2)). Our per-stop ratio
        // E[cost]/offline = 1 + y/(2B(e−2)) for y ≤ B, so the expectation
        // over any q(y) with mean μ ≤ B respects the bound.
        let b = b28();
        let p = MomRand::new(b, 10.0).unwrap();
        for &y in &[1.0, 10.0, 28.0] {
            let ratio = p.expected_cost(y) / b.offline_cost(y);
            let bound = 1.0 + y / (2.0 * 28.0 * (E - 2.0));
            assert!(ratio <= bound + 1e-9, "ratio {ratio} > bound {bound} at y={y}");
        }
    }

    #[test]
    fn mixed_threshold_basics() {
        let p = MixedThreshold::new(b28(), vec![(0.0, 1.0), (28.0, 1.0)]).unwrap();
        // Normalized to 1/2 each; cost is the average of TOI and DET.
        assert!(approx_eq(p.expected_cost(10.0), 0.5 * 28.0 + 0.5 * 10.0, 1e-12));
        assert!(approx_eq(p.expected_cost(100.0), 0.5 * 28.0 + 0.5 * 56.0, 1e-12));
        assert_eq!(p.atoms().len(), 2);
        assert!(approx_eq(p.threshold_cdf(0.0), 0.5, 1e-12));
        assert!(approx_eq(p.threshold_cdf(28.0), 1.0, 1e-12));
        let mut rng = StdRng::seed_from_u64(7);
        let n = 10_000;
        let zeros = (0..n).filter(|_| p.sample_threshold(&mut rng) == 0.0).count();
        assert!((zeros as f64 / n as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn mixed_threshold_single_atom_equals_bdet() {
        let m = MixedThreshold::new(b28(), vec![(12.0, 3.0)]).unwrap();
        let b = BDet::new(b28(), 12.0).unwrap();
        for y in [0.0, 5.0, 12.0, 40.0] {
            assert_eq!(m.expected_cost(y), b.expected_cost(y));
        }
    }

    #[test]
    fn mixed_threshold_validation() {
        assert!(MixedThreshold::new(b28(), vec![]).is_err());
        assert!(MixedThreshold::new(b28(), vec![(29.0, 1.0)]).is_err());
        assert!(MixedThreshold::new(b28(), vec![(-1.0, 1.0)]).is_err());
        assert!(MixedThreshold::new(b28(), vec![(5.0, -1.0)]).is_err());
        assert!(MixedThreshold::new(b28(), vec![(5.0, 0.0)]).is_err());
        assert!(MixedThreshold::new(b28(), vec![(5.0, f64::NAN)]).is_err());
    }

    #[test]
    fn boxed_policy_forwards() {
        let p: Box<dyn Policy> = Box::new(Det::new(b28()));
        assert_eq!(p.name(), "DET");
        assert_eq!(p.expected_cost(10.0), 10.0);
        assert_eq!(p.break_even().seconds(), 28.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn expected_cost_rejects_negative_stop() {
        let _ = Det::new(b28()).expected_cost(-1.0);
    }
}
