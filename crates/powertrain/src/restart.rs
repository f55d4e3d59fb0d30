//! The one-time cost of restarting the engine (Appendix C.2).
//!
//! Restart cost has four components, each normalized into *seconds of
//! idling* (the paper's unit of account):
//!
//! * **fuel** — restarting burns as much as ~10 s of idling, a figure
//!   replicated across three decades of measurements;
//! * **starter wear** — amortized replacement + labor over the starter's
//!   service life (zero for the strengthened starters of stop-start
//!   vehicles, 0.5–4 cents per start for conventional ones);
//! * **battery wear** — amortized battery price over the number of stops
//!   within its warranty;
//! * **emissions** — the NOx-tax penalty (≈ 0.14 s, essentially noise).

use crate::emissions::Emissions;

/// Fuel burned by one restart, expressed as seconds of idling — the
/// consensus "10 seconds" figure (Appendix C.2.1).
pub const RESTART_FUEL_IDLE_EQUIVALENT_S: f64 = 10.0;

/// The Table-1-derived upper bound on stops per day (`μ + 2σ`) across the
/// three NREL areas, used to amortize battery wear conservatively.
pub const STOPS_PER_DAY_UPPER: f64 = 32.43;

/// Starter wear model: amortized replacement economics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StarterModel {
    /// Replacement part cost, dollars.
    replacement_dollars: f64,
    /// Labor cost of replacement, dollars.
    labor_dollars: f64,
    /// Starts per replacement (service life).
    durability_starts: f64,
}

impl StarterModel {
    /// Builds a starter model.
    ///
    /// # Panics
    ///
    /// Panics if any cost is negative/non-finite or durability is not
    /// positive.
    #[must_use]
    pub fn new(replacement_dollars: f64, labor_dollars: f64, durability_starts: f64) -> Self {
        assert!(
            replacement_dollars.is_finite() && replacement_dollars >= 0.0,
            "replacement cost must be non-negative"
        );
        assert!(
            labor_dollars.is_finite() && labor_dollars >= 0.0,
            "labor cost must be non-negative"
        );
        assert!(
            durability_starts.is_finite() && durability_starts > 0.0,
            "durability must be positive"
        );
        Self { replacement_dollars, labor_dollars, durability_starts }
    }

    /// A stop-start vehicle's strengthened starter: rated for 1.2 million
    /// starts — beyond any car's lifetime, so the amortized cost is
    /// effectively zero (the paper estimates `B_starter,s = 0`).
    #[must_use]
    pub fn stop_start() -> Self {
        Self::new(0.0, 0.0, 1.2e6)
    }

    /// The cheap end of the conventional-starter range ($55 part, $115
    /// labor, 40 000 starts ⇒ ≈ 0.43 cents/start; the paper's cited source
    /// rounds the range to 0.5–4 cents).
    #[must_use]
    pub fn conventional_cheap() -> Self {
        Self::new(55.0, 115.0, 40_000.0)
    }

    /// The expensive end ($400 part, $225 labor, 20 000 starts ⇒ ≈ 3.1
    /// cents/start).
    #[must_use]
    pub fn conventional_expensive() -> Self {
        Self::new(400.0, 225.0, 20_000.0)
    }

    /// The paper's representative conventional starter, tuned to its
    /// quoted lower bound of 0.5 cents per start.
    #[must_use]
    pub fn conventional_paper_min() -> Self {
        // (55 + 115) / 34 000 = 0.5 cents.
        Self::new(55.0, 115.0, 34_000.0)
    }

    /// Amortized cost of one start, dollars.
    #[must_use]
    pub fn cost_per_start_dollars(&self) -> f64 {
        (self.replacement_dollars + self.labor_dollars) / self.durability_starts
    }

    /// Amortized cost of one start in seconds of idling, at the given
    /// idling rate (dollars/second).
    ///
    /// # Panics
    ///
    /// Panics if `idling_cost_per_s` is not positive and finite.
    #[must_use]
    pub fn idle_equivalent_s(&self, idling_cost_per_s: f64) -> f64 {
        assert!(
            idling_cost_per_s.is_finite() && idling_cost_per_s > 0.0,
            "idling cost rate must be positive, got {idling_cost_per_s}"
        );
        self.cost_per_start_dollars() / idling_cost_per_s
    }
}

/// Battery wear model: amortized battery price over warranty stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryModel {
    /// Battery price (without labor), dollars.
    price_dollars: f64,
    /// Warranty length, years.
    warranty_years: f64,
    /// Stops per day to amortize over.
    stops_per_day: f64,
}

impl BatteryModel {
    /// Builds a battery model.
    ///
    /// # Panics
    ///
    /// Panics if the price is negative/non-finite or warranty/stops are
    /// not positive.
    #[must_use]
    pub fn new(price_dollars: f64, warranty_years: f64, stops_per_day: f64) -> Self {
        assert!(
            price_dollars.is_finite() && price_dollars >= 0.0,
            "battery price must be non-negative"
        );
        assert!(warranty_years.is_finite() && warranty_years > 0.0, "warranty must be positive");
        assert!(stops_per_day.is_finite() && stops_per_day > 0.0, "stops/day must be positive");
        Self { price_dollars, warranty_years, stops_per_day }
    }

    /// The paper's $230 stop-start battery with the *longest* (4-year)
    /// warranty — the conservative minimum of 0.484 cents per start.
    #[must_use]
    pub fn paper_min() -> Self {
        Self::new(230.0, 4.0, STOPS_PER_DAY_UPPER)
    }

    /// The same battery with a 2-year warranty — the 0.971 cents/start
    /// upper end.
    #[must_use]
    pub fn paper_max() -> Self {
        Self::new(230.0, 2.0, STOPS_PER_DAY_UPPER)
    }

    /// Amortized cost of one start (= one discharge/charge cycle),
    /// dollars.
    #[must_use]
    pub fn cost_per_start_dollars(&self) -> f64 {
        self.price_dollars / (self.stops_per_day * 365.0 * self.warranty_years)
    }

    /// Amortized cost of one start in seconds of idling.
    ///
    /// # Panics
    ///
    /// Panics if `idling_cost_per_s` is not positive and finite.
    #[must_use]
    pub fn idle_equivalent_s(&self, idling_cost_per_s: f64) -> f64 {
        assert!(
            idling_cost_per_s.is_finite() && idling_cost_per_s > 0.0,
            "idling cost rate must be positive, got {idling_cost_per_s}"
        );
        self.cost_per_start_dollars() / idling_cost_per_s
    }
}

/// The emissions penalty of one restart in seconds of idling, at the given
/// idling rate — the NOx-tax conversion of Appendix C.2.3 (≈ 0.14 s).
#[must_use]
pub fn emissions_idle_equivalent_s(idling_cost_per_s: f64) -> f64 {
    Emissions::one_restart().nox_tax_idle_equivalent_s(idling_cost_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::approx_eq;

    /// The paper's idling rate: 0.0258 cents per second in dollars.
    const IDLE_RATE: f64 = 0.0258 / 100.0;

    #[test]
    fn starter_range_matches_paper() {
        // Paper: 0.5–4 cents/start ⇒ 19.38–155.04 s at 0.0258 cents/s.
        let min = StarterModel::conventional_paper_min();
        assert!(approx_eq(min.cost_per_start_dollars(), 0.005, 1e-12));
        assert!(
            approx_eq(min.idle_equivalent_s(IDLE_RATE), 19.38, 1e-2),
            "min {}",
            min.idle_equivalent_s(IDLE_RATE)
        );
        // The explicit price endpoints bracket the paper's quoted range.
        let cheap = StarterModel::conventional_cheap();
        let exp = StarterModel::conventional_expensive();
        assert!(cheap.cost_per_start_dollars() < exp.cost_per_start_dollars());
        assert!((0.003..0.006).contains(&cheap.cost_per_start_dollars()));
        assert!((0.025..0.04).contains(&exp.cost_per_start_dollars()));
    }

    #[test]
    fn ssv_starter_is_negligible() {
        let s = StarterModel::stop_start();
        assert_eq!(s.cost_per_start_dollars(), 0.0);
        assert_eq!(s.idle_equivalent_s(IDLE_RATE), 0.0);
    }

    #[test]
    fn battery_range_matches_paper() {
        // Paper: 0.4841–0.9713 cents per start, i.e. ≥ 18.76 idle-seconds.
        let min = BatteryModel::paper_min();
        let max = BatteryModel::paper_max();
        assert!(approx_eq(min.cost_per_start_dollars() * 100.0, 0.4858, 1e-2));
        assert!(approx_eq(max.cost_per_start_dollars() * 100.0, 0.9716, 1e-2));
        let idle_s = min.idle_equivalent_s(IDLE_RATE);
        assert!((18.5..19.2).contains(&idle_s), "battery idle equiv {idle_s}");
    }

    #[test]
    fn emissions_equivalent_tiny() {
        let s = emissions_idle_equivalent_s(IDLE_RATE);
        assert!((0.1..0.2).contains(&s), "emissions idle equiv {s}");
    }

    #[test]
    fn fuel_constant() {
        assert_eq!(RESTART_FUEL_IDLE_EQUIVALENT_S, 10.0);
    }

    #[test]
    #[should_panic(expected = "durability must be positive")]
    fn starter_rejects_zero_durability() {
        let _ = StarterModel::new(100.0, 100.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "warranty must be positive")]
    fn battery_rejects_zero_warranty() {
        let _ = BatteryModel::new(230.0, 0.0, 30.0);
    }

    #[test]
    #[should_panic(expected = "idling cost rate must be positive")]
    fn idle_equivalent_rejects_zero_rate() {
        let _ = BatteryModel::paper_min().idle_equivalent_s(0.0);
    }
}
