//! Numerical substrate for the automotive-idling reproduction.
//!
//! This crate is intentionally dependency-free and provides the small
//! numerical toolbox that the rest of the workspace builds on:
//!
//! * [`quadrature`] — adaptive Simpson integration, used to cross-validate
//!   the closed-form expected-cost integrals of the randomized ski-rental
//!   policies against direct numeric integration.
//! * [`simplex`] — a dense two-phase simplex solver for the small linear
//!   programs that arise in the paper's Section 4.4 vertex-selection step.
//! * [`special`] — special functions: `erf`, `ln_gamma`, and the asymptotic
//!   Kolmogorov distribution used for Kolmogorov–Smirnov p-values.
//! * [`rootfind`] — bracketing root finders (bisection / Brent), used when
//!   calibrating synthetic stop-length distributions to a target mean.
//! * [`histogram`] — fixed-width and logarithmic histograms for the
//!   Figure-3 stop-length distribution plots.
//! * [`stats`] — streaming and batch summary statistics (Welford variance,
//!   quantiles, min/max) used throughout the fleet experiments.
//! * [`crc32`] — CRC-32 (IEEE) checksums shared by the crash-safe state
//!   snapshots and the drive-trace CSV integrity footer.
//! * [`vertex`] — the paper's four-vertex minimax decision rule
//!   (eqs. (33)–(36)), shared by the solver, batch kernel and monitor.
//!
//! # Example
//!
//! ```
//! use numeric::quadrature::integrate;
//!
//! // ∫₀^1 e^x dx = e − 1
//! let v = integrate(|x| x.exp(), 0.0, 1.0, 1e-10);
//! assert!((v - (1f64.exp() - 1.0)).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32;
pub mod histogram;
pub mod quadrature;
pub mod rootfind;
pub mod simplex;
pub mod special;
pub mod stats;
pub mod vertex;

/// Machine-level tolerance used as a default for "are these costs equal"
/// comparisons throughout the workspace.
pub const DEFAULT_TOL: f64 = 1e-9;

/// Returns `true` when `a` and `b` agree to within `tol` absolutely **or**
/// relatively (whichever is looser), which is the right notion for comparing
/// costs that can span several orders of magnitude.
///
/// # Example
///
/// ```
/// assert!(numeric::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!numeric::approx_eq(1.0, 1.1, 1e-9));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(0.0, 1e-12, 1e-9));
        assert!(!approx_eq(0.0, 1e-6, 1e-9));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.001e12, 1e-9));
    }

    #[test]
    fn approx_eq_symmetry() {
        assert_eq!(approx_eq(3.0, 3.1, 0.05), approx_eq(3.1, 3.0, 0.05));
    }
}
