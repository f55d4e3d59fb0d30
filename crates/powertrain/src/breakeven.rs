//! Assembling the break-even interval `B` (Appendix C).
//!
//! `B = cost_restart / cost_idling_per_second`, with the restart cost the
//! sum of fuel, starter-wear, battery-wear, and emissions components, each
//! already expressed in seconds of idling. The paper's bottom line:
//!
//! * stop-start vehicle (SSV): `B ≈ 10 + 0 + 18.8 + 0.1 ≈ 28` s (the paper
//!   reports the floor, 28 s);
//! * conventional vehicle: `B ≈ 10 + 19.4 + 18.8 + 0.1 ≈ 48` s (the paper
//!   rounds down to 47 s).
//!
//! [`VehicleSpec`] reproduces those numbers from the component models and
//! converts to a [`skirental::BreakEven`] for use by the policies.

use crate::fuel::IdleFuelModel;
use crate::restart::{
    emissions_idle_equivalent_s, BatteryModel, StarterModel, RESTART_FUEL_IDLE_EQUIVALENT_S,
};
use skirental::BreakEven;
use std::fmt;

/// Whether the vehicle has a stop-start system (strengthened starter and
/// battery) or is conventional.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VehicleKind {
    /// Stop-start vehicle / micro-hybrid.
    StopStart,
    /// Conventional vehicle without a stop-start system.
    Conventional,
}

impl VehicleKind {
    /// The break-even interval the paper uses for this kind in its
    /// experiments (28 s / 47 s).
    #[must_use]
    pub fn paper_break_even(&self) -> BreakEven {
        match self {
            Self::StopStart => BreakEven::SSV,
            Self::Conventional => BreakEven::CONVENTIONAL,
        }
    }
}

/// A complete vehicle cost specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleSpec {
    kind: VehicleKind,
    fuel: IdleFuelModel,
    fuel_price_per_gallon: f64,
    starter: StarterModel,
    battery: BatteryModel,
    include_emissions: bool,
}

impl VehicleSpec {
    /// Builds a custom specification.
    ///
    /// # Panics
    ///
    /// Panics if `fuel_price_per_gallon` is not positive and finite.
    #[must_use]
    pub fn new(
        kind: VehicleKind,
        fuel: IdleFuelModel,
        fuel_price_per_gallon: f64,
        starter: StarterModel,
        battery: BatteryModel,
        include_emissions: bool,
    ) -> Self {
        assert!(
            fuel_price_per_gallon.is_finite() && fuel_price_per_gallon > 0.0,
            "fuel price must be positive, got {fuel_price_per_gallon}"
        );
        Self { kind, fuel, fuel_price_per_gallon, starter, battery, include_emissions }
    }

    /// The paper's reference stop-start vehicle: measured Ford Fusion idle
    /// burn, $3.50/gal, strengthened starter, conservative battery.
    #[must_use]
    pub fn stop_start_vehicle() -> Self {
        Self::new(
            VehicleKind::StopStart,
            IdleFuelModel::ford_fusion(),
            crate::fuel::DEFAULT_FUEL_PRICE_PER_GALLON,
            StarterModel::stop_start(),
            BatteryModel::paper_min(),
            true,
        )
    }

    /// The paper's reference conventional vehicle: same engine and fuel
    /// price, minimum-cost conventional starter, conservative battery.
    #[must_use]
    pub fn conventional_vehicle() -> Self {
        Self::new(
            VehicleKind::Conventional,
            IdleFuelModel::ford_fusion(),
            crate::fuel::DEFAULT_FUEL_PRICE_PER_GALLON,
            StarterModel::conventional_paper_min(),
            BatteryModel::paper_min(),
            true,
        )
    }

    /// The vehicle kind.
    #[must_use]
    pub fn kind(&self) -> VehicleKind {
        self.kind
    }

    /// The idle fuel model.
    #[must_use]
    pub fn fuel(&self) -> &IdleFuelModel {
        &self.fuel
    }

    /// Idling cost in dollars per second (eq. (46)).
    #[must_use]
    pub fn idling_cost_per_s(&self) -> f64 {
        self.fuel.cost_per_s(self.fuel_price_per_gallon)
    }

    /// The component-by-component break-even breakdown.
    #[must_use]
    pub fn break_even_breakdown(&self) -> BreakEvenBreakdown {
        let rate = self.idling_cost_per_s();
        BreakEvenBreakdown {
            fuel_s: RESTART_FUEL_IDLE_EQUIVALENT_S,
            starter_s: self.starter.idle_equivalent_s(rate),
            battery_s: self.battery.idle_equivalent_s(rate),
            emissions_s: if self.include_emissions {
                emissions_idle_equivalent_s(rate)
            } else {
                0.0
            },
        }
    }

    /// The break-even interval computed from the component models.
    ///
    /// # Panics
    ///
    /// Panics if the computed total is not positive (impossible with valid
    /// component models, since the fuel term is 10 s).
    #[must_use]
    pub fn break_even(&self) -> BreakEven {
        BreakEven::new(self.break_even_breakdown().total_seconds())
            .unwrap_or_else(|_| unreachable!("component totals are positive"))
    }
}

/// The restart cost split into its Appendix-C components, each in seconds
/// of idling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakEvenBreakdown {
    /// Restart fuel burn (the "10 seconds" consensus figure).
    pub fuel_s: f64,
    /// Amortized starter wear.
    pub starter_s: f64,
    /// Amortized battery wear.
    pub battery_s: f64,
    /// NOx-tax emissions penalty.
    pub emissions_s: f64,
}

impl BreakEvenBreakdown {
    /// Total break-even interval in seconds.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.fuel_s + self.starter_s + self.battery_s + self.emissions_s
    }
}

impl fmt::Display for BreakEvenBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fuel {:.1} s + starter {:.1} s + battery {:.1} s + emissions {:.2} s = B {:.1} s",
            self.fuel_s,
            self.starter_s,
            self.battery_s,
            self.emissions_s,
            self.total_seconds()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::approx_eq;

    #[test]
    fn ssv_break_even_near_28() {
        let spec = VehicleSpec::stop_start_vehicle();
        let bd = spec.break_even_breakdown();
        assert_eq!(bd.fuel_s, 10.0);
        assert_eq!(bd.starter_s, 0.0);
        assert!((18.0..20.0).contains(&bd.battery_s), "battery {}", bd.battery_s);
        assert!(bd.emissions_s < 0.2);
        // Paper: "minimum break-even interval B = 28 seconds for SSV".
        let total = bd.total_seconds();
        assert!((27.0..31.0).contains(&total), "total {total}");
        assert!(approx_eq(spec.break_even().seconds(), total, 1e-12));
    }

    #[test]
    fn conventional_break_even_near_47() {
        let spec = VehicleSpec::conventional_vehicle();
        let bd = spec.break_even_breakdown();
        assert!((19.0..20.0).contains(&bd.starter_s), "starter {}", bd.starter_s);
        // Paper rounds its total to 47 s; the component sum lands ≈ 48.
        let total = bd.total_seconds();
        assert!((46.0..50.0).contains(&total), "total {total}");
    }

    #[test]
    fn paper_break_even_constants() {
        assert_eq!(VehicleKind::StopStart.paper_break_even().seconds(), 28.0);
        assert_eq!(VehicleKind::Conventional.paper_break_even().seconds(), 47.0);
    }

    #[test]
    fn idling_rate_matches_paper() {
        let spec = VehicleSpec::stop_start_vehicle();
        // 0.0258 cents per second.
        assert!(approx_eq(spec.idling_cost_per_s() * 100.0, 0.0258, 1e-3));
    }

    #[test]
    fn emissions_toggle() {
        let with = VehicleSpec::stop_start_vehicle();
        let without = VehicleSpec::new(
            VehicleKind::StopStart,
            IdleFuelModel::ford_fusion(),
            3.5,
            StarterModel::stop_start(),
            BatteryModel::paper_min(),
            false,
        );
        assert!(with.break_even().seconds() > without.break_even().seconds());
        assert_eq!(without.break_even_breakdown().emissions_s, 0.0);
    }

    #[test]
    fn higher_fuel_price_shrinks_wear_terms() {
        // Wear costs are fixed in dollars; pricier fuel makes a second of
        // idling dearer, so the same wear is fewer idle-equivalents and B
        // drops.
        let cheap = VehicleSpec::new(
            VehicleKind::Conventional,
            IdleFuelModel::ford_fusion(),
            2.0,
            StarterModel::conventional_paper_min(),
            BatteryModel::paper_min(),
            true,
        );
        let dear = VehicleSpec::new(
            VehicleKind::Conventional,
            IdleFuelModel::ford_fusion(),
            5.0,
            StarterModel::conventional_paper_min(),
            BatteryModel::paper_min(),
            true,
        );
        assert!(dear.break_even().seconds() < cheap.break_even().seconds());
    }

    #[test]
    fn breakdown_display() {
        let s = VehicleSpec::stop_start_vehicle().break_even_breakdown().to_string();
        assert!(s.contains("fuel") && s.contains("battery") && s.contains("B "));
    }

    #[test]
    fn accessors() {
        let spec = VehicleSpec::stop_start_vehicle();
        assert_eq!(spec.kind(), VehicleKind::StopStart);
        assert!(spec.fuel().cc_per_s() > 0.0);
    }

    #[test]
    #[should_panic(expected = "fuel price must be positive")]
    fn rejects_bad_fuel_price() {
        let _ = VehicleSpec::new(
            VehicleKind::StopStart,
            IdleFuelModel::ford_fusion(),
            0.0,
            StarterModel::stop_start(),
            BatteryModel::paper_min(),
            true,
        );
    }
}
