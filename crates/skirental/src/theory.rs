//! The paper's equations as an executable index.
//!
//! Every numbered formula from the paper that the library relies on is
//! exposed here under its equation number, implemented directly from the
//! text (not via the production code), and unit tests cross-check each
//! one against the corresponding production implementation. This is the
//! place to look when auditing the reproduction equation by equation:
//!
//! | eq. | function | also implemented in |
//! |---|---|---|
//! | (1) | [`eq1_break_even`] | [`crate::BreakEven`] |
//! | (2) | [`eq2_offline_cost`] | [`BreakEven::offline_cost`] |
//! | (3) | [`eq3_online_cost`] | [`BreakEven::online_cost`] |
//! | (6) | [`eq6_deterministic_minimax`] | `cr(B, ·) ≤ 2` tests |
//! | (7) | [`eq7_n_rand_pdf`] | [`crate::policy::NRand`] |
//! | (9) | [`eq9_mom_rand_pdf`] | [`crate::policy::MomRand`] |
//! | (13) | [`eq13_expected_offline_cost`] | [`ConstrainedMoments::expected_offline_cost`] |
//! | (14) | [`eq14_expected_det_cost`] | [`numeric::vertex::costs`] |
//! | (31) | [`eq31_lagrange_multipliers`] | verified affine-cost identity |
//! | (32) | [`eq32_k_coefficients`] | [`crate::ConstrainedStats::solve_lp`] |
//! | (34) | [`eq34_b_det_worst_cost`] | [`crate::adversary::short_mass_adversary`] |
//! | (35) | [`eq35_b_det_optimal_cost`] | [`numeric::vertex::costs`] |
//! | (36) | [`eq36_b_det_condition`] | same |
//! | (38) | [`eq38_b_det_worst_cr`] | [`crate::ConstrainedStats::worst_case_cr`] |
//!
//! (Appendix C's eqs. (45)–(47) live in the `powertrain` crate.)
//!
//! [`BreakEven::offline_cost`]: crate::BreakEven::offline_cost
//! [`BreakEven::online_cost`]: crate::BreakEven::online_cost
//! [`ConstrainedMoments::expected_offline_cost`]: stopmodel::ConstrainedMoments::expected_offline_cost

use std::f64::consts::E;

/// Eq. (1): the break-even interval `B = cost_restart / cost_idling_per_s`.
///
/// # Panics
///
/// Panics unless both costs are positive and finite.
#[must_use]
pub fn eq1_break_even(cost_restart: f64, cost_idling_per_s: f64) -> f64 {
    assert!(cost_restart.is_finite() && cost_restart > 0.0, "restart cost must be positive");
    assert!(
        cost_idling_per_s.is_finite() && cost_idling_per_s > 0.0,
        "idling rate must be positive"
    );
    cost_restart / cost_idling_per_s
}

/// Eq. (2): the offline cost `min(y, B)`.
#[must_use]
pub fn eq2_offline_cost(b: f64, y: f64) -> f64 {
    if y < b {
        y
    } else {
        b
    }
}

/// Eq. (3): the online cost for threshold `x` — `y` if `y < x`, else
/// `x + B`.
#[must_use]
pub fn eq3_online_cost(b: f64, x: f64, y: f64) -> f64 {
    if y < x {
        y
    } else {
        x + b
    }
}

/// Eq. (6): `min_x max_y cr(x, y)`, evaluated by brute force on a grid.
/// Returns `(x*, cr*)`; the paper's result is `x* = B`, `cr* = 2`.
///
/// # Panics
///
/// Panics if `grid < 4` or `b ≤ 0`.
#[must_use]
pub fn eq6_deterministic_minimax(b: f64, grid: usize) -> (f64, f64) {
    assert!(grid >= 4, "grid must have at least 4 points");
    assert!(b > 0.0, "break-even must be positive");
    let mut best = (0.0, f64::INFINITY);
    for i in 0..=grid {
        // Threshold sweep beyond B too, to show B is the global argmin.
        let x = 2.0 * b * i as f64 / grid as f64;
        let mut worst: f64 = 0.0;
        for j in 1..=4 * grid {
            let y = 4.0 * b * j as f64 / (4 * grid) as f64;
            let cr = eq3_online_cost(b, x, y) / eq2_offline_cost(b, y);
            worst = worst.max(cr);
            // The adversary also probes just at the threshold (the jump).
            if x > 0.0 && x <= 4.0 * b {
                let cr_at_x = eq3_online_cost(b, x, x) / eq2_offline_cost(b, x);
                worst = worst.max(cr_at_x);
            }
        }
        if worst < best.1 {
            best = (x, worst);
        }
    }
    best
}

/// Eq. (7): the N-Rand threshold density `e^{x/B} / (B(e−1))` on `[0, B]`.
#[must_use]
pub fn eq7_n_rand_pdf(b: f64, x: f64) -> f64 {
    if (0.0..=b).contains(&x) {
        (x / b).exp() / (b * (E - 1.0))
    } else {
        0.0
    }
}

/// Eq. (9): the MOM-Rand threshold density `(e^{x/B} − 1) / (B(e−2))` on
/// `[0, B]` (applicable when the mean is at most `2(e−2)/(e−1)·B`).
#[must_use]
pub fn eq9_mom_rand_pdf(b: f64, x: f64) -> f64 {
    if (0.0..=b).contains(&x) {
        ((x / b).exp() - 1.0) / (b * (E - 2.0))
    } else {
        0.0
    }
}

/// Eq. (13): `E[cost_offline] = μ_B⁻ + q_B⁺·B`.
#[must_use]
pub fn eq13_expected_offline_cost(mu_b_minus: f64, q_b_plus: f64, b: f64) -> f64 {
    mu_b_minus + q_b_plus * b
}

/// Eq. (14): `E[cost_DET] = μ_B⁻ + 2·q_B⁺·B`.
#[must_use]
pub fn eq14_expected_det_cost(mu_b_minus: f64, q_b_plus: f64, b: f64) -> f64 {
    mu_b_minus + 2.0 * q_b_plus * b
}

/// Eq. (31): the Lagrange multipliers as functions of the atom masses,
/// `λ₁ = α·B` and `λ₂ = (1 − α − β − γ)·e/(e−1) + β`.
#[must_use]
pub fn eq31_lagrange_multipliers(alpha: f64, beta: f64, gamma: f64, b: f64) -> (f64, f64) {
    (alpha * b, (1.0 - alpha - beta - gamma) * E / (E - 1.0) + beta)
}

/// Eq. (32): the LP coefficients `(K_α, K_β, K_γ)` given the statistics
/// and the b-DET cost at the candidate `b` (the worst-case cost with the
/// short mass at `{0, b}`, i.e. `μ₁ = 0`, `q₂ = μ_B⁻/b`).
#[must_use]
pub fn eq32_k_coefficients(
    mu_b_minus: f64,
    q_b_plus: f64,
    b: f64,
    b_det_b: f64,
) -> (f64, f64, f64) {
    let base = E / (E - 1.0) * eq13_expected_offline_cost(mu_b_minus, q_b_plus, b);
    let k_alpha = b - base;
    let k_beta = eq14_expected_det_cost(mu_b_minus, q_b_plus, b) - base;
    let k_gamma = eq34_b_det_worst_cost(mu_b_minus, q_b_plus, b, b_det_b) - base;
    (k_alpha, k_beta, k_gamma)
}

/// Eq. (34): the worst-case expected cost of b-DET with threshold `x`:
/// `(x + B)·(μ_B⁻/x + q_B⁺)`.
///
/// # Panics
///
/// Panics if `x ≤ 0`.
#[must_use]
pub fn eq34_b_det_worst_cost(mu_b_minus: f64, q_b_plus: f64, b: f64, x: f64) -> f64 {
    assert!(x > 0.0, "threshold must be positive");
    (x + b) * (mu_b_minus / x + q_b_plus)
}

/// Eq. (35): the minimized b-DET cost `(√μ_B⁻ + √(q_B⁺·B))²`, attained at
/// `b* = √(μ_B⁻·B / q_B⁺)`. Returns `(b*, cost)`.
///
/// # Panics
///
/// Panics if `q_b_plus ≤ 0` (the optimum is undefined without long
/// stops).
#[must_use]
pub fn eq35_b_det_optimal_cost(mu_b_minus: f64, q_b_plus: f64, b: f64) -> (f64, f64) {
    assert!(q_b_plus > 0.0, "needs a positive long-stop probability");
    let b_star = (mu_b_minus * b / q_b_plus).sqrt();
    let cost = (mu_b_minus.sqrt() + (q_b_plus * b).sqrt()).powi(2);
    (b_star, cost)
}

/// Eq. (36): the feasibility condition `μ_B⁻/B < (1 − q_B⁺)²/q_B⁺`.
#[must_use]
pub fn eq36_b_det_condition(mu_b_minus: f64, q_b_plus: f64, b: f64) -> bool {
    q_b_plus > 0.0 && mu_b_minus / b < (1.0 - q_b_plus).powi(2) / q_b_plus
}

/// Eq. (38): the b-DET worst-case CR
/// `(√μ_B⁻ + √(q_B⁺·B))² / (μ_B⁻ + q_B⁺·B)`.
#[must_use]
pub fn eq38_b_det_worst_cr(mu_b_minus: f64, q_b_plus: f64, b: f64) -> f64 {
    (mu_b_minus.sqrt() + (q_b_plus * b).sqrt()).powi(2)
        / eq13_expected_offline_cost(mu_b_minus, q_b_plus, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::BreakEven;
    use crate::policy::{MomRand, NRand};
    use crate::{e_ratio, ConstrainedStats};
    use numeric::approx_eq;
    use numeric::quadrature::integrate;

    const B: f64 = 28.0;

    fn be() -> BreakEven {
        BreakEven::new(B).unwrap()
    }

    #[test]
    fn eq1_matches_newtype() {
        assert_eq!(eq1_break_even(28.0, 1.0), 28.0);
        // The paper's SSV: 0.0258 cents/s idling, 28·0.0258 cents restart.
        let b = eq1_break_even(28.0 * 0.0258, 0.0258);
        assert!(approx_eq(b, 28.0, 1e-12));
    }

    #[test]
    fn eq2_eq3_match_production_cost_model() {
        for yi in 0..120 {
            let y = yi as f64;
            assert_eq!(eq2_offline_cost(B, y), be().offline_cost(y));
            for xi in 0..60 {
                let x = xi as f64;
                assert_eq!(eq3_online_cost(B, x, y), be().online_cost(x, y));
            }
        }
    }

    #[test]
    fn eq6_minimax_is_b_and_two() {
        let (x_star, cr_star) = eq6_deterministic_minimax(B, 200);
        assert!(approx_eq(x_star, B, 0.02 * B), "x* = {x_star}");
        assert!(approx_eq(cr_star, 2.0, 1e-6), "cr* = {cr_star}");
    }

    #[test]
    fn eq7_matches_nrand_and_normalizes() {
        let p = NRand::new(be());
        let mass = integrate(|x| eq7_n_rand_pdf(B, x), 0.0, B, 1e-11);
        assert!(approx_eq(mass, 1.0, 1e-9));
        for &x in &[0.0, 7.0, 21.0, 28.0] {
            assert!(approx_eq(eq7_n_rand_pdf(B, x), p.threshold_pdf(x), 1e-12));
        }
    }

    #[test]
    fn eq9_matches_momrand_and_normalizes() {
        let p = MomRand::new(be(), 10.0).unwrap();
        let mass = integrate(|x| eq9_mom_rand_pdf(B, x), 0.0, B, 1e-11);
        assert!(approx_eq(mass, 1.0, 1e-9));
        for &x in &[1.0, 14.0, 27.0] {
            assert!(approx_eq(eq9_mom_rand_pdf(B, x), p.threshold_pdf(x), 1e-12));
        }
    }

    #[test]
    fn eq13_eq14_match_constrained_stats() {
        let s = ConstrainedStats::new(be(), 5.0, 0.3).unwrap();
        assert!(approx_eq(
            eq13_expected_offline_cost(5.0, 0.3, B),
            s.expected_offline_cost(),
            1e-12
        ));
        assert!(approx_eq(eq14_expected_det_cost(5.0, 0.3, B), s.vertex_costs().det, 1e-12));
    }

    #[test]
    fn eq31_affine_cost_identity() {
        // The multipliers are defined by C(P̃, y) = λ₁ + λ₂·y for y in
        // [0, B], where P̃ = α·δ(ε) + β·δ(B) + (1−α−β−γ)·(N-Rand density).
        // Verify the identity numerically at several y.
        let (alpha, beta, gamma) = (0.2, 0.3, 0.1);
        let (l1, l2) = eq31_lagrange_multipliers(alpha, beta, gamma, B);
        let cont = 1.0 - alpha - beta - gamma;
        for &y in &[0.1, 5.0, 14.0, 27.9] {
            // α at ε→0 always pays B; β at B pays y (stop ends first);
            // the continuous part pays cont·e/(e−1)·y (scaled N-Rand).
            let c = alpha * B + beta * y + cont * e_ratio() * y;
            assert!(approx_eq(c, l1 + l2 * y, 1e-9), "y={y}: C = {c} vs λ1+λ2y = {}", l1 + l2 * y);
        }
    }

    #[test]
    fn eq32_signs_select_the_region() {
        // The most negative K picks the vertex; cross-check against the
        // production solver on the three pure regions.
        let cases = [
            (10.0, 0.01), // DET region → K_β most negative
            (0.05, 0.95), // TOI region → K_α most negative
            (0.56, 0.3),  // b-DET region → K_γ most negative
        ];
        for (mu, q) in cases {
            let s = ConstrainedStats::new(be(), mu, q).unwrap();
            let b_det_b = s.b_det_vertex().map_or(B, |v| v.b);
            let (ka, kb, kg) = eq32_k_coefficients(mu, q, B, b_det_b);
            let min = ka.min(kb).min(kg).min(0.0);
            let choice = s.optimal_choice();
            match choice.name() {
                "TOI" => assert!(approx_eq(ka, min, 1e-12), "mu={mu} q={q}"),
                "DET" => assert!(approx_eq(kb, min, 1e-12), "mu={mu} q={q}"),
                "b-DET" => assert!(approx_eq(kg, min, 1e-12), "mu={mu} q={q}"),
                _ => assert!(min == 0.0),
            }
        }
    }

    #[test]
    fn eq34_matches_adversary_and_eq35_is_its_minimum() {
        let (mu, q) = (5.0, 0.3);
        let (b_star, cost) = eq35_b_det_optimal_cost(mu, q, B);
        assert!(approx_eq(eq34_b_det_worst_cost(mu, q, B, b_star), cost, 1e-12));
        // b* is a stationary minimum of eq. (34).
        let eps = 1e-5;
        let up = eq34_b_det_worst_cost(mu, q, B, b_star + eps);
        let down = eq34_b_det_worst_cost(mu, q, B, b_star - eps);
        assert!(up >= cost && down >= cost);
        // And matches the production vertex.
        let s = ConstrainedStats::new(be(), mu, q).unwrap();
        let v = s.b_det_vertex().unwrap();
        assert!(approx_eq(v.b, b_star, 1e-12));
        assert!(approx_eq(v.cost, cost, 1e-12));
    }

    #[test]
    fn eq36_matches_production_gate() {
        for &(mu, q) in &[(0.56, 0.3), (13.0, 0.5), (14.0, 0.5), (5.0, 0.0), (0.0, 0.3)] {
            let s = ConstrainedStats::new(be(), mu, q).unwrap();
            let gate = eq36_b_det_condition(mu, q, B) && mu > 0.0 && q < 1.0 && {
                let (b_star, _) = if q > 0.0 {
                    eq35_b_det_optimal_cost(mu.max(1e-300), q, B)
                } else {
                    (f64::INFINITY, 0.0)
                };
                b_star <= B
            };
            assert_eq!(s.b_det_vertex().is_some(), gate, "mu={mu}, q={q}");
        }
    }

    #[test]
    fn eq38_matches_worst_case_cr_in_bdet_region() {
        let (mu, q) = (0.56, 0.3);
        let s = ConstrainedStats::new(be(), mu, q).unwrap();
        assert_eq!(s.optimal_choice().name(), "b-DET");
        assert!(approx_eq(s.worst_case_cr(), eq38_b_det_worst_cr(mu, q, B), 1e-12));
    }
}
