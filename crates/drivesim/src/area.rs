//! Per-area parameter sets.
//!
//! The NREL dataset covers three areas. Two groups of statistics from the
//! paper anchor the synthetic calibration:
//!
//! * **Table 1** (stops per day): Atlanta μ=10.37 σ=8.42 (827 vehicles),
//!   Chicago μ=12.49 σ=9.97 (408), California μ=9.37 σ=7.68 (291);
//! * **Section 5** fleet sizes for the per-vehicle CR study: California
//!   217, Chicago 312, Atlanta 653 (1182 total);
//!
//! plus the qualitative Figure-3/Figure-4 facts: heavy-tailed,
//! non-exponential stop lengths with similar shapes but different means —
//! Chicago's traffic being the worst (its mean CR is the highest of the
//! three in the paper).

use std::fmt;

/// One of the three NREL collection areas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Area {
    /// Southern California fleet.
    California,
    /// Chicago metro fleet.
    Chicago,
    /// Atlanta metro fleet.
    Atlanta,
}

impl Area {
    /// All three areas, in the paper's presentation order.
    pub const ALL: [Area; 3] = [Area::California, Area::Chicago, Area::Atlanta];

    /// The calibrated parameter set for this area.
    #[must_use]
    pub fn params(&self) -> AreaParams {
        match self {
            Area::California => AreaParams {
                area: *self,
                fleet_vehicles: 217,
                table1_vehicles: 291,
                stops_per_day_mean: 9.37,
                stops_per_day_std: 7.68,
                light_log_mu: 2.35,
                light_log_sigma: 0.50,
                sign_log_mu: 1.35,
                sign_log_sigma: 0.60,
                congestion_scale: 45.0,
                congestion_alpha: 1.05,
                weight_light: 0.50,
                weight_sign: 0.46,
                weight_congestion: 0.04,
            },
            Area::Chicago => AreaParams {
                area: *self,
                fleet_vehicles: 312,
                table1_vehicles: 408,
                stops_per_day_mean: 12.49,
                stops_per_day_std: 9.97,
                light_log_mu: 2.55,
                light_log_sigma: 0.55,
                sign_log_mu: 1.40,
                sign_log_sigma: 0.60,
                congestion_scale: 45.0,
                congestion_alpha: 1.03,
                weight_light: 0.50,
                weight_sign: 0.42,
                weight_congestion: 0.08,
            },
            Area::Atlanta => AreaParams {
                area: *self,
                fleet_vehicles: 653,
                table1_vehicles: 827,
                stops_per_day_mean: 10.37,
                stops_per_day_std: 8.42,
                light_log_mu: 2.38,
                light_log_sigma: 0.50,
                sign_log_mu: 1.35,
                sign_log_sigma: 0.60,
                congestion_scale: 45.0,
                congestion_alpha: 1.05,
                weight_light: 0.50,
                weight_sign: 0.455,
                weight_congestion: 0.045,
            },
        }
    }

    /// Display name as used in the paper's figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Area::California => "California",
            Area::Chicago => "Chicago",
            Area::Atlanta => "Atlanta",
        }
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Calibrated generation parameters for one area.
///
/// Stop lengths are a three-component mixture by cause:
/// traffic lights and stop signs are log-normal bodies; congestion /
/// parking idling is a Pareto tail (the source of the heavy tail that
/// defeats the exponential fit in Figure 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaParams {
    /// Which area this parameterizes.
    pub area: Area,
    /// Vehicles in the Section-5 CR study (217 / 312 / 653).
    pub fleet_vehicles: usize,
    /// Vehicles in the Table-1 stops-per-day statistics (291 / 408 / 827).
    pub table1_vehicles: usize,
    /// Table-1 mean stops per day.
    pub stops_per_day_mean: f64,
    /// Table-1 standard deviation of stops per day.
    pub stops_per_day_std: f64,
    /// Log-mean of traffic-light stop lengths.
    pub light_log_mu: f64,
    /// Log-std of traffic-light stop lengths.
    pub light_log_sigma: f64,
    /// Log-mean of stop-sign stop lengths.
    pub sign_log_mu: f64,
    /// Log-std of stop-sign stop lengths.
    pub sign_log_sigma: f64,
    /// Pareto scale (minimum) of congestion stops, seconds.
    pub congestion_scale: f64,
    /// Pareto tail exponent of congestion stops.
    pub congestion_alpha: f64,
    /// Mixture weight of traffic-light stops.
    pub weight_light: f64,
    /// Mixture weight of stop-sign stops.
    pub weight_sign: f64,
    /// Mixture weight of congestion stops.
    pub weight_congestion: f64,
}

impl AreaParams {
    /// Between-vehicle standard deviation of the per-vehicle mean
    /// stops/day rate, chosen so that (per-vehicle Poisson day counts
    /// averaged over a week) reproduce Table 1's across-vehicle std:
    /// `Var_total = Var(λ) + E[λ]/days`.
    ///
    /// # Panics
    ///
    /// Panics if `days` is zero.
    #[must_use]
    pub fn lambda_std(&self, days: u32) -> f64 {
        assert!(days > 0, "need at least one day");
        let var = self.stops_per_day_std.powi(2) - self.stops_per_day_mean / f64::from(days);
        var.max(0.01).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_areas_have_params() {
        for a in Area::ALL {
            let p = a.params();
            assert_eq!(p.area, a);
            assert!(p.fleet_vehicles > 0 && p.table1_vehicles > 0);
            let w = p.weight_light + p.weight_sign + p.weight_congestion;
            assert!((w - 1.0).abs() < 1e-12, "{a}: weights sum to {w}");
        }
    }

    #[test]
    fn fleet_sizes_match_paper() {
        assert_eq!(Area::California.params().fleet_vehicles, 217);
        assert_eq!(Area::Chicago.params().fleet_vehicles, 312);
        assert_eq!(Area::Atlanta.params().fleet_vehicles, 653);
        let total: usize = Area::ALL.iter().map(|a| a.params().fleet_vehicles).sum();
        assert_eq!(total, 1182);
    }

    #[test]
    fn table1_counts_match_paper() {
        assert_eq!(Area::California.params().table1_vehicles, 291);
        assert_eq!(Area::Chicago.params().table1_vehicles, 408);
        assert_eq!(Area::Atlanta.params().table1_vehicles, 827);
    }

    #[test]
    fn chicago_has_worst_traffic() {
        let chi = Area::Chicago.params();
        for a in [Area::California, Area::Atlanta] {
            let p = a.params();
            assert!(chi.weight_congestion > p.weight_congestion);
            assert!(chi.congestion_alpha < p.congestion_alpha); // heavier tail
            assert!(chi.stops_per_day_mean > p.stops_per_day_mean);
        }
    }

    #[test]
    fn lambda_std_decomposition() {
        let p = Area::Atlanta.params();
        let s = p.lambda_std(7);
        // Must be slightly below the across-vehicle std (Poisson noise
        // accounts for the rest).
        assert!(s < p.stops_per_day_std);
        assert!(s > 0.9 * p.stops_per_day_std);
    }

    #[test]
    fn display_names() {
        assert_eq!(Area::Chicago.to_string(), "Chicago");
        assert_eq!(Area::California.name(), "California");
    }
}
