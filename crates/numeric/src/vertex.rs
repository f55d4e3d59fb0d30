//! The paper's minimax decision rule (Section 4.4, eqs. (33)–(36)): with
//! break-even interval `B` and statistics `(μ_B⁻, q_B⁺)`, play the
//! cheapest of four vertex strategies, by worst-case expected cost:
//!
//! | vertex | strategy | worst-case expected cost |
//! |---|---|---|
//! | `(0,0,0)` | N-Rand | `e/(e−1)·(μ_B⁻ + q_B⁺·B)` |
//! | `(1,0,0)` | TOI    | `B` |
//! | `(0,1,0)` | DET    | `μ_B⁻ + 2·q_B⁺·B` (eq. (14)) |
//! | `(0,0,1)` | b-DET  | `(√μ_B⁻ + √(q_B⁺·B))²` at `b* = √(μ_B⁻·B/q_B⁺)` (eq. (35)), valid under eq. (36) and `b* ≤ B` |
//!
//! This is the rule's one definition: the scalar solver, the batch
//! kernel and the streaming monitor call it, so their choices agree bit
//! for bit. Each function is `#[inline]` because the kernel calls it per
//! lane from another crate and the workspace builds without LTO.

use std::f64::consts::E;

/// `e/(e−1) ≈ 1.582`, the optimal competitive ratio of the unconstrained
/// randomized ski-rental algorithm (N-Rand).
#[inline]
#[must_use]
pub fn e_ratio() -> f64 {
    E / (E - 1.0)
}

/// Plug-in `(μ̂_B⁻, q̂_B⁺)` from `n > 0` stops: `short_sum` sums the
/// short (`y < B`) ones and `long_count` counts the long ones. `μ̂` is
/// clamped to `[0, (1−q̂)·B]`, since a sliding window's running-sum
/// subtraction leaves `O(ε)` residue.
#[inline]
#[must_use]
pub fn plug_in(n: f64, short_sum: f64, long_count: f64, b: f64) -> (f64, f64) {
    let q = long_count / n;
    ((short_sum / n).clamp(0.0, (1.0 - q) * b), q)
}

/// N-Rand's threshold for a uniform `u ∈ [0, 1)`: the inverse of its CDF
/// `(e^{x/B} − 1)/(e − 1)`, `x = B·ln(1 + u(e−1))`.
#[inline]
#[must_use]
pub fn n_rand_threshold(b: f64, u: f64) -> f64 {
    b * (1.0 + u * (E - 1.0)).ln()
}

/// One of the four vertex strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vertex {
    /// Deterministic threshold at `B`.
    Det,
    /// Turn off immediately.
    Toi,
    /// Deterministic threshold at `b*`.
    BDet,
    /// The e/(e−1) randomized strategy.
    NRand,
}

impl Vertex {
    /// The name in the paper's legends and in trace events.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Det => "DET",
            Self::Toi => "TOI",
            Self::BDet => "b-DET",
            Self::NRand => "N-Rand",
        }
    }
}

/// Worst-case expected costs of the four vertex strategies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Costs {
    /// N-Rand's cost.
    pub n_rand: f64,
    /// TOI's cost.
    pub toi: f64,
    /// DET's cost.
    pub det: f64,
    /// b-DET's cost, or `+∞` when eq. (36) or `b* ≤ B` fails (then b-DET
    /// is dominated and must never win).
    pub b_det: f64,
    /// b-DET's threshold `b*`; meaningful only when `b_det` is finite.
    pub b_star: f64,
}

/// The four vertex costs at `(μ_B⁻, q_B⁺)` and break-even interval `B`.
#[inline]
#[must_use]
pub fn costs(mu: f64, q: f64, b: f64) -> Costs {
    let b_star = (mu * b / q).sqrt();
    let b_det_feasible =
        mu > 0.0 && q > 0.0 && q < 1.0 && mu / b < (1.0 - q) * (1.0 - q) / q && b_star <= b;
    Costs {
        n_rand: e_ratio() * (mu + q * b),
        toi: b,
        det: mu + 2.0 * q * b,
        b_det: if b_det_feasible { (mu.sqrt() + (q * b).sqrt()).powi(2) } else { f64::INFINITY },
        b_star,
    }
}

impl Costs {
    /// The cheapest vertex and its cost. Ties go to the first of DET,
    /// TOI, b-DET, N-Rand: a later vertex wins only when strictly cheaper.
    #[inline]
    #[must_use]
    pub fn argmin(&self) -> (Vertex, f64) {
        let mut best = (Vertex::Det, self.det);
        if self.toi < best.1 {
            best = (Vertex::Toi, self.toi);
        }
        if self.b_det < best.1 {
            best = (Vertex::BDet, self.b_det);
        }
        if self.n_rand < best.1 {
            best = (Vertex::NRand, self.n_rand);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_keep_the_earlier_vertex() {
        // μ = 14, q = 0.25, B = 28: DET = μ + 2qB = 28 = TOI, N-Rand ≈ 33,
        // and b* ≈ 39.6 > B masks b-DET, so DET wins the tie.
        let c = costs(14.0, 0.25, 28.0);
        assert_eq!(c.det, c.toi);
        assert_eq!(c.argmin(), (Vertex::Det, 28.0));
    }

    #[test]
    fn plug_in_clamps_window_residue() {
        assert_eq!(plug_in(4.0, -1e-12, 1.0, 28.0), (0.0, 0.25));
        assert_eq!(plug_in(4.0, 200.0, 1.0, 28.0), (21.0, 0.25));
        assert_eq!(plug_in(4.0, 10.0, 2.0, 28.0), (2.5, 0.5));
    }
}
