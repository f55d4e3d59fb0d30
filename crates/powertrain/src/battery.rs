//! Detailed battery wear: depth-of-discharge dependent cycle life
//! (Appendix C.2.2).
//!
//! The paper's headline battery cost amortizes the pack price over
//! warranty stops; its own cited data, however, says cycle endurance
//! depends steeply on depth of discharge (DoD): *"a battery with 1.75 %
//! depth of discharge could serve for 13 250 cycles before failure. When
//! the depth of discharge increases to 31 %, the number of cycles
//! decreases to 250."* This module models that curve and the electrical
//! load of an engine-off event, so wear can be charged per stop instead of
//! flat per start — longer engine-off periods (accessories on battery)
//! cost genuinely more.

use std::fmt;

/// Error for invalid cycle-life curves or battery parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryModelError {
    reason: &'static str,
}

impl fmt::Display for BatteryModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid battery model: {}", self.reason)
    }
}

impl std::error::Error for BatteryModelError {}

/// Cycle-endurance curve: cycles to failure as a function of depth of
/// discharge, log-linearly interpolated between anchor points and clamped
/// outside them.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleLifeCurve {
    /// `(dod_fraction, cycles)`, sorted by DoD ascending, cycles strictly
    /// decreasing.
    points: Vec<(f64, f64)>,
}

impl CycleLifeCurve {
    /// Builds a curve from `(dod, cycles)` anchors.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryModelError`] unless there are at least two
    /// anchors with DoD in `(0, 1]` strictly increasing and cycles
    /// positive strictly decreasing.
    pub fn new(mut points: Vec<(f64, f64)>) -> Result<Self, BatteryModelError> {
        if points.len() < 2 {
            return Err(BatteryModelError { reason: "need at least two anchor points" });
        }
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for &(d, c) in &points {
            if !(d.is_finite() && d > 0.0 && d <= 1.0) {
                return Err(BatteryModelError { reason: "DoD anchors must lie in (0, 1]" });
            }
            if !(c.is_finite() && c > 0.0) {
                return Err(BatteryModelError { reason: "cycle counts must be positive" });
            }
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(BatteryModelError { reason: "DoD anchors must be distinct" });
            }
            if w[1].1 >= w[0].1 {
                return Err(BatteryModelError {
                    reason: "cycles must decrease with depth of discharge",
                });
            }
        }
        Ok(Self { points })
    }

    /// The paper's two anchors: 13 250 cycles at 1.75 % DoD, 250 cycles at
    /// 31 % DoD.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(vec![(0.0175, 13_250.0), (0.31, 250.0)])
            .unwrap_or_else(|_| unreachable!("paper anchors are valid"))
    }

    /// Cycles to failure at depth of discharge `dod` (clamped to the
    /// anchor range; log-linear in between).
    ///
    /// # Panics
    ///
    /// Panics if `dod` is negative or non-finite.
    #[must_use]
    pub fn cycles_at(&self, dod: f64) -> f64 {
        assert!(dod.is_finite() && dod >= 0.0, "DoD must be non-negative, got {dod}");
        let first = self.points[0];
        let last = *self.points.last().unwrap_or_else(|| unreachable!("validated non-empty"));
        if dod <= first.0 {
            return first.1;
        }
        if dod >= last.0 {
            return last.1;
        }
        let seg = self
            .points
            .windows(2)
            .find(|w| dod >= w[0].0 && dod <= w[1].0)
            .unwrap_or_else(|| unreachable!("dod within anchor range"));
        let t = (dod - seg[0].0) / (seg[1].0 - seg[0].0);
        (seg[0].1.ln() * (1.0 - t) + seg[1].1.ln() * t).exp()
    }

    /// Fraction of battery life consumed by one cycle at `dod`
    /// (`1 / cycles_at(dod)`).
    #[must_use]
    pub fn wear_fraction(&self, dod: f64) -> f64 {
        1.0 / self.cycles_at(dod)
    }
}

/// Electrical model of a stop-start battery pack during an engine-off
/// event: accessories draw from the battery, and the restart crank takes a
/// fixed slug of energy.
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryPack {
    capacity_wh: f64,
    price_dollars: f64,
    accessory_draw_w: f64,
    crank_energy_wh: f64,
    curve: CycleLifeCurve,
}

impl BatteryPack {
    /// Builds a pack model.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryModelError`] unless capacity and price are
    /// positive and draws are non-negative (all finite).
    pub fn new(
        capacity_wh: f64,
        price_dollars: f64,
        accessory_draw_w: f64,
        crank_energy_wh: f64,
        curve: CycleLifeCurve,
    ) -> Result<Self, BatteryModelError> {
        if !(capacity_wh.is_finite() && capacity_wh > 0.0) {
            return Err(BatteryModelError { reason: "capacity must be positive" });
        }
        if !(price_dollars.is_finite() && price_dollars > 0.0) {
            return Err(BatteryModelError { reason: "price must be positive" });
        }
        if !(accessory_draw_w.is_finite() && accessory_draw_w >= 0.0) {
            return Err(BatteryModelError { reason: "accessory draw must be non-negative" });
        }
        if !(crank_energy_wh.is_finite() && crank_energy_wh >= 0.0) {
            return Err(BatteryModelError { reason: "crank energy must be non-negative" });
        }
        Ok(Self { capacity_wh, price_dollars, accessory_draw_w, crank_energy_wh, curve })
    }

    /// A typical stop-start AGM pack: 12 V · 60 Ah (720 Wh), the paper's
    /// $230 price, 300 W of accessory load during engine-off (HVAC blower,
    /// infotainment, lights), ≈ 0.6 Wh per crank (3 kW for 0.7 s).
    #[must_use]
    pub fn typical_ssv() -> Self {
        Self::new(720.0, 230.0, 300.0, 0.6, CycleLifeCurve::paper())
            .unwrap_or_else(|_| unreachable!("typical parameters are valid"))
    }

    /// Depth of discharge of one stop with the engine off for
    /// `off_seconds` (accessory energy plus the crank slug, clamped to 1).
    ///
    /// # Panics
    ///
    /// Panics if `off_seconds` is negative or non-finite.
    #[must_use]
    pub fn depth_of_discharge(&self, off_seconds: f64) -> f64 {
        assert!(
            off_seconds.is_finite() && off_seconds >= 0.0,
            "engine-off duration must be non-negative, got {off_seconds}"
        );
        let energy_wh = self.accessory_draw_w * off_seconds / 3600.0 + self.crank_energy_wh;
        (energy_wh / self.capacity_wh).min(1.0)
    }

    /// Battery wear cost of one engine-off event of `off_seconds`, in
    /// dollars (pack price × life fraction consumed).
    #[must_use]
    pub fn wear_dollars_for_stop(&self, off_seconds: f64) -> f64 {
        self.price_dollars * self.curve.wear_fraction(self.depth_of_discharge(off_seconds))
    }

    /// The cycle-life curve in use.
    #[must_use]
    pub fn curve(&self) -> &CycleLifeCurve {
        &self.curve
    }

    /// The pack price, dollars.
    #[must_use]
    pub fn price_dollars(&self) -> f64 {
        self.price_dollars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::approx_eq;

    #[test]
    fn paper_anchors_exact() {
        let c = CycleLifeCurve::paper();
        assert!(approx_eq(c.cycles_at(0.0175), 13_250.0, 1e-12));
        assert!(approx_eq(c.cycles_at(0.31), 250.0, 1e-12));
    }

    #[test]
    fn curve_clamps_outside_anchors() {
        let c = CycleLifeCurve::paper();
        assert_eq!(c.cycles_at(0.0), 13_250.0);
        assert_eq!(c.cycles_at(0.001), 13_250.0);
        assert_eq!(c.cycles_at(0.9), 250.0);
    }

    #[test]
    fn curve_log_linear_midpoint() {
        let c = CycleLifeCurve::paper();
        let mid_dod = 0.5 * (0.0175 + 0.31);
        let want = (13_250.0f64.ln() * 0.5 + 250.0f64.ln() * 0.5).exp();
        assert!(approx_eq(c.cycles_at(mid_dod), want, 1e-9));
    }

    #[test]
    fn curve_monotone_decreasing() {
        let c = CycleLifeCurve::paper();
        let mut prev = f64::INFINITY;
        for i in 0..=100 {
            let dod = i as f64 / 100.0;
            let cy = c.cycles_at(dod.max(1e-6));
            assert!(cy <= prev + 1e-9, "not monotone at {dod}");
            prev = cy;
        }
    }

    #[test]
    fn curve_validation() {
        assert!(CycleLifeCurve::new(vec![(0.1, 100.0)]).is_err());
        assert!(CycleLifeCurve::new(vec![(0.1, 100.0), (0.1, 50.0)]).is_err());
        assert!(CycleLifeCurve::new(vec![(0.1, 100.0), (0.2, 200.0)]).is_err());
        assert!(CycleLifeCurve::new(vec![(0.0, 100.0), (0.2, 50.0)]).is_err());
        assert!(CycleLifeCurve::new(vec![(0.1, -1.0), (0.2, 50.0)]).is_err());
        assert!(CycleLifeCurve::new(vec![(0.2, 100.0), (0.1, 200.0)]).is_ok()); // sorted
    }

    #[test]
    fn dod_scales_with_off_time() {
        let p = BatteryPack::typical_ssv();
        let short = p.depth_of_discharge(10.0);
        let long = p.depth_of_discharge(600.0);
        assert!(long > short);
        // 600 s at 300 W = 50 Wh + 0.6 ⇒ ≈ 7 % of 720 Wh.
        assert!(approx_eq(long, 50.6 / 720.0, 1e-9));
        assert_eq!(p.depth_of_discharge(1e9), 1.0); // clamped
    }

    #[test]
    fn wear_grows_with_off_time() {
        let p = BatteryPack::typical_ssv();
        let w10 = p.wear_dollars_for_stop(10.0);
        let w60 = p.wear_dollars_for_stop(60.0);
        let w600 = p.wear_dollars_for_stop(600.0);
        assert!(w10 <= w60 && w60 < w600, "{w10} {w60} {w600}");
        // Short stops sit on the flat part of the curve: price / 13 250.
        assert!(approx_eq(w10, 230.0 / 13_250.0, 1e-9));
    }

    #[test]
    fn detailed_wear_exceeds_flat_amortization_for_long_stops() {
        // The paper's flat model: $230 over ≈ 47 000 warranty stops
        // ≈ 0.49 cents/start. The DoD model says a 10-minute engine-off
        // costs an order of magnitude more than that.
        let p = BatteryPack::typical_ssv();
        let flat = 230.0 / 47_000.0;
        assert!(p.wear_dollars_for_stop(600.0) > 5.0 * flat);
    }

    #[test]
    fn pack_validation() {
        let c = CycleLifeCurve::paper();
        assert!(BatteryPack::new(0.0, 230.0, 300.0, 0.6, c.clone()).is_err());
        assert!(BatteryPack::new(720.0, 0.0, 300.0, 0.6, c.clone()).is_err());
        assert!(BatteryPack::new(720.0, 230.0, -1.0, 0.6, c.clone()).is_err());
        assert!(BatteryPack::new(720.0, 230.0, 300.0, f64::NAN, c).is_err());
    }

    #[test]
    fn accessors_and_error_display() {
        let p = BatteryPack::typical_ssv();
        assert_eq!(p.price_dollars(), 230.0);
        assert!(p.curve().cycles_at(0.31) > 0.0);
        let e = CycleLifeCurve::new(vec![]).unwrap_err();
        assert!(e.to_string().contains("battery"));
    }
}
