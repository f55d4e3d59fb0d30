//! Exhaust-gas emission accounting (Appendix C.2.3).
//!
//! A restart emits a burst of pollutants (catalyst cooling), while idling
//! emits continuously. The paper's Argonne-measured constants:
//!
//! | species | per restart | per idle-second |
//! |---|---|---|
//! | THC | 44 mg | 0.266 mg |
//! | NOx | 6 mg | 0.0097 mg |
//! | CO  | 1253 mg | 0.108 mg |
//!
//! The only monetized species in the paper is NOx (the Swedish charge of
//! ≈ €4.3/kg, i.e. ≈ $0.0035 cents per restart — negligible next to fuel).

use std::fmt;
use std::ops::{Add, AddAssign};

/// THC emitted by one restart, mg.
pub const RESTART_THC_MG: f64 = 44.0;
/// NOx emitted by one restart, mg.
pub const RESTART_NOX_MG: f64 = 6.0;
/// CO emitted by one restart, mg.
pub const RESTART_CO_MG: f64 = 1253.0;

/// THC emitted per idle-second, mg.
pub const IDLE_THC_MG_PER_S: f64 = 0.266;
/// NOx emitted per idle-second, mg.
pub const IDLE_NOX_MG_PER_S: f64 = 0.0097;
/// CO emitted per idle-second, mg.
pub const IDLE_CO_MG_PER_S: f64 = 0.108;

/// The paper's NOx charge (Swedish EPA): ~4.3 EUR per kg, converted at the
/// paper's implied rate to dollars per mg.
///
/// (4.3 EUR/kg ≈ $5.8/kg ⇒ 5.8e-6 $/mg; the paper quotes the resulting
/// per-restart penalty as $3.5e-5, i.e. 0.0035 cents.)
pub const NOX_TAX_DOLLARS_PER_MG: f64 = 5.8e-6;

/// A ledger of exhaust-gas masses, in milligrams.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Emissions {
    /// Total hydrocarbons, mg.
    pub thc_mg: f64,
    /// Nitrogen oxides, mg.
    pub nox_mg: f64,
    /// Carbon monoxide, mg.
    pub co_mg: f64,
}

impl Emissions {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Emissions of one engine restart.
    #[must_use]
    pub fn one_restart() -> Self {
        Self { thc_mg: RESTART_THC_MG, nox_mg: RESTART_NOX_MG, co_mg: RESTART_CO_MG }
    }

    /// Emissions of idling for `seconds`.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or non-finite.
    #[must_use]
    pub fn idling_for(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "idle duration must be non-negative, got {seconds}"
        );
        Self {
            thc_mg: IDLE_THC_MG_PER_S * seconds,
            nox_mg: IDLE_NOX_MG_PER_S * seconds,
            co_mg: IDLE_CO_MG_PER_S * seconds,
        }
    }

    /// NOx-tax cost of this ledger in dollars (the paper's only monetized
    /// species).
    #[must_use]
    pub fn nox_tax_dollars(&self) -> f64 {
        self.nox_mg * NOX_TAX_DOLLARS_PER_MG
    }

    /// Break-even seconds of idling whose *restart-side* emissions this
    /// tax corresponds to, given an idling cost rate in dollars/second.
    ///
    /// The paper's punchline: ≈ 0.14 s — emissions barely move `B`.
    ///
    /// # Panics
    ///
    /// Panics if `idling_cost_per_s` is not positive and finite.
    #[must_use]
    pub fn nox_tax_idle_equivalent_s(&self, idling_cost_per_s: f64) -> f64 {
        assert!(
            idling_cost_per_s.is_finite() && idling_cost_per_s > 0.0,
            "idling cost rate must be positive, got {idling_cost_per_s}"
        );
        self.nox_tax_dollars() / idling_cost_per_s
    }
}

impl Add for Emissions {
    type Output = Emissions;

    fn add(self, rhs: Emissions) -> Emissions {
        Emissions {
            thc_mg: self.thc_mg + rhs.thc_mg,
            nox_mg: self.nox_mg + rhs.nox_mg,
            co_mg: self.co_mg + rhs.co_mg,
        }
    }
}

impl AddAssign for Emissions {
    fn add_assign(&mut self, rhs: Emissions) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Emissions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "THC {:.1} mg, NOx {:.2} mg, CO {:.0} mg", self.thc_mg, self.nox_mg, self.co_mg)
    }
}

/// Idling seconds at which *idling* emits as much of each species as one
/// restart — the "which is greener" comparison from the Argonne study the
/// paper cites.
#[must_use]
pub fn restart_equivalent_idle_seconds() -> Emissions {
    Emissions {
        thc_mg: RESTART_THC_MG / IDLE_THC_MG_PER_S,
        nox_mg: RESTART_NOX_MG / IDLE_NOX_MG_PER_S,
        co_mg: RESTART_CO_MG / IDLE_CO_MG_PER_S,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::approx_eq;

    #[test]
    fn restart_constants() {
        let e = Emissions::one_restart();
        assert_eq!(e.thc_mg, 44.0);
        assert_eq!(e.nox_mg, 6.0);
        assert_eq!(e.co_mg, 1253.0);
    }

    #[test]
    fn idling_scales_linearly() {
        let e = Emissions::idling_for(100.0);
        assert!(approx_eq(e.thc_mg, 26.6, 1e-10));
        assert!(approx_eq(e.nox_mg, 0.97, 1e-10));
        assert!(approx_eq(e.co_mg, 10.8, 1e-10));
        assert_eq!(Emissions::idling_for(0.0), Emissions::new());
    }

    #[test]
    fn addition() {
        let mut total = Emissions::one_restart();
        total += Emissions::idling_for(10.0);
        let direct = Emissions::one_restart() + Emissions::idling_for(10.0);
        assert_eq!(total, direct);
        assert!(approx_eq(total.thc_mg, 44.0 + 2.66, 1e-10));
    }

    #[test]
    fn nox_tax_matches_paper() {
        // One restart: 6 mg NOx → ≈ $3.5e-5 (0.0035 cents).
        let tax = Emissions::one_restart().nox_tax_dollars();
        assert!(approx_eq(tax, 3.5e-5, 0.02), "tax = {tax}");
        // At the paper's 0.0258 cent/s idling rate → ≈ 0.14 s equivalent.
        let idle_eq = Emissions::one_restart().nox_tax_idle_equivalent_s(0.0258 / 100.0);
        assert!((0.1..0.2).contains(&idle_eq), "idle equivalent = {idle_eq}");
    }

    #[test]
    fn restart_vs_idling_crossovers() {
        let eq = restart_equivalent_idle_seconds();
        // CO dominates: one restart's CO equals hours of idling CO, which
        // is why anti-idling critics point at cold-catalyst restarts.
        assert!(eq.co_mg > 10_000.0);
        // THC crossover is a couple of minutes.
        assert!((100.0..300.0).contains(&eq.thc_mg));
    }

    #[test]
    fn display_is_informative() {
        let s = Emissions::one_restart().to_string();
        assert!(s.contains("THC") && s.contains("NOx") && s.contains("CO"));
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn rejects_negative_duration() {
        let _ = Emissions::idling_for(-1.0);
    }
}
