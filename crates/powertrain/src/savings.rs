//! Annual and fleet-scale projections.
//!
//! The paper's motivation is macro-scale: idling vehicles burn "more than
//! 6 billion gallons of fuel at a cost of more than $20 billion each
//! year" in the US alone. This module extrapolates the per-week
//! [`DriveOutcome`] ledgers to per-year and per-fleet numbers, so policy
//! comparisons can be reported in the units the paper's introduction
//! argues in: gallons, dollars, and kilograms of CO₂.

use crate::controller::DriveOutcome;
use crate::fuel::CC_PER_GALLON;
use std::fmt;
use std::ops::{Add, Sub};

/// EPA figure: kilograms of CO₂ per US gallon of gasoline burned.
pub const CO2_KG_PER_GALLON: f64 = 8.887;

/// A per-year (or per-fleet-year) resource projection.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AnnualProjection {
    /// Fuel burned on stop handling, US gallons.
    pub fuel_gallons: f64,
    /// Total monetary cost, dollars.
    pub dollars: f64,
    /// CO₂ emitted by the projected fuel burn, kg.
    pub co2_kg: f64,
    /// Engine restarts performed.
    pub restarts: f64,
    /// Vehicles covered by the projection.
    pub vehicles: f64,
}

impl AnnualProjection {
    /// Projects one vehicle's measured period to a full year.
    ///
    /// `period_days` is the length of the measured trace (e.g. 7 for the
    /// NREL-style weekly traces).
    ///
    /// # Panics
    ///
    /// Panics if `period_days` is not strictly positive and finite.
    #[must_use]
    pub fn from_outcome(outcome: &DriveOutcome, period_days: f64) -> Self {
        assert!(
            period_days.is_finite() && period_days > 0.0,
            "measurement period must be positive, got {period_days}"
        );
        let scale = 365.0 / period_days;
        Self {
            fuel_gallons: outcome.fuel_cc / CC_PER_GALLON * scale,
            dollars: outcome.total_dollars * scale,
            co2_kg: outcome.fuel_cc / CC_PER_GALLON * CO2_KG_PER_GALLON * scale,
            restarts: outcome.restarts as f64 * scale,
            vehicles: 1.0,
        }
    }

    /// Scales the projection to a fleet of `n` identical vehicles.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn scale_to_fleet(&self, n: u64) -> Self {
        assert!(n > 0, "fleet must be non-empty");
        self.scale_by(n as f64)
    }

    /// Scales every component (including the vehicle count) by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    #[must_use]
    pub fn scale_by(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be non-negative, got {factor}"
        );
        Self {
            fuel_gallons: self.fuel_gallons * factor,
            dollars: self.dollars * factor,
            co2_kg: self.co2_kg * factor,
            restarts: self.restarts * factor,
            vehicles: self.vehicles * factor,
        }
    }
}

impl Add for AnnualProjection {
    type Output = AnnualProjection;

    /// Component-wise sum: aggregates projections across vehicles.
    fn add(self, rhs: AnnualProjection) -> AnnualProjection {
        AnnualProjection {
            fuel_gallons: self.fuel_gallons + rhs.fuel_gallons,
            dollars: self.dollars + rhs.dollars,
            co2_kg: self.co2_kg + rhs.co2_kg,
            restarts: self.restarts + rhs.restarts,
            vehicles: self.vehicles + rhs.vehicles,
        }
    }
}

impl Sub for AnnualProjection {
    type Output = AnnualProjection;

    /// Component-wise difference `self − rhs`; positive components mean
    /// `self` consumes more (so `baseline − improved` reads as savings).
    fn sub(self, rhs: AnnualProjection) -> AnnualProjection {
        AnnualProjection {
            fuel_gallons: self.fuel_gallons - rhs.fuel_gallons,
            dollars: self.dollars - rhs.dollars,
            co2_kg: self.co2_kg - rhs.co2_kg,
            restarts: self.restarts - rhs.restarts,
            vehicles: self.vehicles.max(rhs.vehicles),
        }
    }
}

impl fmt::Display for AnnualProjection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} gal fuel, ${:.2}, {:.1} kg CO2, {:.0} restarts per year ({} vehicle(s))",
            self.fuel_gallons, self.dollars, self.co2_kg, self.restarts, self.vehicles
        )
    }
}

/// Savings of `improved` over `baseline`, projected annually from traces
/// of `period_days`.
///
/// # Panics
///
/// Panics if `period_days` is not strictly positive and finite.
#[must_use]
pub fn annual_savings(
    baseline: &DriveOutcome,
    improved: &DriveOutcome,
    period_days: f64,
) -> AnnualProjection {
    AnnualProjection::from_outcome(baseline, period_days)
        - AnnualProjection::from_outcome(improved, period_days)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakeven::VehicleSpec;
    use crate::controller::StopStartController;
    use numeric::approx_eq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use skirental::policy::{Det, Nev};

    fn outcomes() -> (DriveOutcome, DriveOutcome) {
        let spec = VehicleSpec::stop_start_vehicle();
        let b = spec.break_even();
        // Stops long enough that DET clearly beats NEV on fuel.
        let stops = [10.0, 120.0, 40.0, 600.0, 15.0, 300.0];
        let mut rng1 = StdRng::seed_from_u64(1);
        let nev = StopStartController::new(&Nev::new(b), spec).drive(&stops, &mut rng1).unwrap();
        let mut rng2 = StdRng::seed_from_u64(1);
        let det = StopStartController::new(&Det::new(b), spec).drive(&stops, &mut rng2).unwrap();
        (nev, det)
    }

    #[test]
    fn projection_scales_week_to_year() {
        let (nev, _) = outcomes();
        let p = AnnualProjection::from_outcome(&nev, 7.0);
        assert!(approx_eq(p.fuel_gallons, nev.fuel_cc / CC_PER_GALLON * 365.0 / 7.0, 1e-12));
        assert!(approx_eq(p.co2_kg, p.fuel_gallons * CO2_KG_PER_GALLON, 1e-12));
        assert_eq!(p.vehicles, 1.0);
        assert_eq!(p.restarts, 0.0); // NEV never restarts
    }

    #[test]
    fn fleet_scaling_is_linear() {
        let (nev, _) = outcomes();
        let p = AnnualProjection::from_outcome(&nev, 7.0);
        let fleet = p.scale_to_fleet(50_000_000);
        assert!(approx_eq(fleet.fuel_gallons, p.fuel_gallons * 5e7, 1e-6));
        assert_eq!(fleet.vehicles, 5e7);
    }

    #[test]
    fn savings_positive_for_better_policy() {
        let (nev, det) = outcomes();
        let s = annual_savings(&nev, &det, 7.0);
        assert!(s.fuel_gallons > 0.0, "DET must save fuel over NEV here");
        assert!(s.co2_kg > 0.0);
        // DET performs restarts that NEV does not.
        assert!(s.restarts < 0.0);
    }

    #[test]
    fn national_scale_magnitude() {
        // A single vehicle idling ~1 h/week ≈ 13 gal/year; 250 M vehicles
        // ≈ 3·10⁹ gal/year — the right order of magnitude next to the
        // paper's "more than 6 billion gallons" (which includes heavier
        // vehicles and longer idling shares).
        let (nev, _) = outcomes();
        let fleet = AnnualProjection::from_outcome(&nev, 7.0).scale_to_fleet(250_000_000);
        assert!((1e8..2e10).contains(&fleet.fuel_gallons), "{} gallons", fleet.fuel_gallons);
    }

    #[test]
    fn display_mentions_units() {
        let (nev, _) = outcomes();
        let s = AnnualProjection::from_outcome(&nev, 7.0).to_string();
        assert!(s.contains("gal") && s.contains("CO2"));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn rejects_bad_period() {
        let (nev, _) = outcomes();
        let _ = AnnualProjection::from_outcome(&nev, 0.0);
    }

    #[test]
    #[should_panic(expected = "fleet must be non-empty")]
    fn rejects_empty_fleet() {
        let (nev, _) = outcomes();
        let _ = AnnualProjection::from_outcome(&nev, 7.0).scale_to_fleet(0);
    }
}
