//! Cost functions of the idling-reduction ski-rental problem (Section 2).
//!
//! A stop of (initially unknown) length `y` can be handled by idling until
//! some threshold `x` and then shutting the engine off:
//!
//! * offline (knows `y`): `cost = min(y, B)` (eq. (2));
//! * online with threshold `x`: `cost = y` if the stop ends first
//!   (`y < x`), else `x + B` (eq. (3));
//! * competitive ratio `cr(x, y) = cost_online / cost_offline` (eq. (4)).
//!
//! The break-even interval `B` is the amount of idling whose cost equals
//! one restart; the paper estimates 28 s for stop-start vehicles and 47 s
//! for conventional vehicles (Appendix C, implemented in the `powertrain`
//! crate).

use crate::Error;
use std::fmt;

/// The break-even interval `B = cost_restart / cost_idling_per_second`, in
/// seconds of idling (newtype so it cannot be confused with a stop length
/// or a threshold).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct BreakEven(f64);

impl BreakEven {
    /// The paper's estimate for a stop-start vehicle (strengthened starter,
    /// improved battery): 28 seconds.
    pub const SSV: BreakEven = BreakEven(28.0);

    /// The paper's estimate for a conventional vehicle without a stop-start
    /// system: 47 seconds.
    pub const CONVENTIONAL: BreakEven = BreakEven(47.0);

    /// Creates a break-even interval of `seconds`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBreakEven`] unless `seconds` is positive and
    /// finite.
    pub fn new(seconds: f64) -> Result<Self, Error> {
        if seconds.is_finite() && seconds > 0.0 {
            Ok(Self(seconds))
        } else {
            Err(Error::InvalidBreakEven(seconds))
        }
    }

    /// The interval in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.0
    }

    /// Offline (clairvoyant) cost of a stop of length `y` — eq. (2):
    /// idle through short stops, restart immediately for long ones.
    ///
    /// # Panics
    ///
    /// Panics if `y` is negative or NaN.
    #[must_use]
    pub fn offline_cost(&self, y: f64) -> f64 {
        assert!(y >= 0.0, "stop length must be non-negative, got {y}");
        y.min(self.0)
    }

    /// Online cost of handling a stop of length `y` with idle threshold
    /// `x` — eq. (3): pay `y` if the stop ends before the threshold,
    /// otherwise idle for `x` and pay one restart (`B`).
    ///
    /// An infinite `x` encodes "never turn off" and always costs `y`.
    ///
    /// # Panics
    ///
    /// Panics if `y` or `x` is negative or NaN.
    #[must_use]
    pub fn online_cost(&self, x: f64, y: f64) -> f64 {
        assert!(y >= 0.0, "stop length must be non-negative, got {y}");
        assert!(x >= 0.0, "threshold must be non-negative, got {x}");
        if y < x {
            y
        } else {
            x + self.0
        }
    }

    /// Pointwise competitive ratio `cr(x, y)` — eq. (4). Defined as `1`
    /// when `y = 0` (both costs vanish: with `x > 0` both are `0`; the
    /// limit of `x = 0` is immaterial for distributions without an atom at
    /// zero).
    ///
    /// # Panics
    ///
    /// Panics if `y` or `x` is negative or NaN.
    #[must_use]
    pub fn competitive_ratio(&self, x: f64, y: f64) -> f64 {
        let off = self.offline_cost(y);
        if off == 0.0 {
            return 1.0;
        }
        self.online_cost(x, y) / off
    }
}

impl fmt::Display for BreakEven {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B = {} s", self.0)
    }
}

impl From<BreakEven> for f64 {
    fn from(b: BreakEven) -> f64 {
        b.seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::approx_eq;

    #[test]
    fn constants_match_paper() {
        assert_eq!(BreakEven::SSV.seconds(), 28.0);
        assert_eq!(BreakEven::CONVENTIONAL.seconds(), 47.0);
    }

    #[test]
    fn construction_validates() {
        assert!(BreakEven::new(28.0).is_ok());
        assert_eq!(BreakEven::new(0.0), Err(Error::InvalidBreakEven(0.0)));
        assert_eq!(BreakEven::new(-5.0), Err(Error::InvalidBreakEven(-5.0)));
        assert!(BreakEven::new(f64::INFINITY).is_err());
        assert!(BreakEven::new(f64::NAN).is_err());
    }

    #[test]
    fn offline_cost_eq2() {
        let b = BreakEven::new(28.0).unwrap();
        assert_eq!(b.offline_cost(10.0), 10.0);
        assert_eq!(b.offline_cost(28.0), 28.0);
        assert_eq!(b.offline_cost(100.0), 28.0);
        assert_eq!(b.offline_cost(0.0), 0.0);
    }

    #[test]
    fn online_cost_eq3() {
        let b = BreakEven::new(28.0).unwrap();
        // Stop ends before the threshold: pay the idle time.
        assert_eq!(b.online_cost(20.0, 10.0), 10.0);
        // Stop outlasts the threshold: pay threshold + restart.
        assert_eq!(b.online_cost(20.0, 25.0), 48.0);
        // Boundary y == x turns off (y >= x branch).
        assert_eq!(b.online_cost(20.0, 20.0), 48.0);
        // Never-turn-off (x = ∞): always pay the stop length.
        assert_eq!(b.online_cost(f64::INFINITY, 500.0), 500.0);
        // Turn-off-immediately (x = 0) pays B for any positive stop.
        assert_eq!(b.online_cost(0.0, 5.0), 28.0);
    }

    #[test]
    fn online_never_beats_offline() {
        let b = BreakEven::new(28.0).unwrap();
        for xi in 0..60 {
            for yi in 0..60 {
                let (x, y) = (xi as f64, yi as f64);
                assert!(
                    b.online_cost(x, y) >= b.offline_cost(y) - 1e-12,
                    "online < offline at x={x}, y={y}"
                );
            }
        }
    }

    #[test]
    fn det_worst_case_cr_is_two() {
        // Karlin et al.: threshold x = B has worst-case cr = 2, achieved at
        // y = B (pay B idling + B restart vs. offline B).
        let b = BreakEven::new(28.0).unwrap();
        let mut worst: f64 = 0.0;
        let mut y = 0.1;
        while y < 500.0 {
            worst = worst.max(b.competitive_ratio(28.0, y));
            y += 0.1;
        }
        assert!(approx_eq(worst, 2.0, 1e-9), "worst = {worst}");
    }

    #[test]
    fn cr_of_zero_length_stop_is_one() {
        let b = BreakEven::new(28.0).unwrap();
        assert_eq!(b.competitive_ratio(10.0, 0.0), 1.0);
    }

    #[test]
    fn cr_nev_unbounded() {
        let b = BreakEven::new(28.0).unwrap();
        // Never turning off on a very long stop: cr = y / B grows without
        // bound.
        let cr = b.competitive_ratio(f64::INFINITY, 28_000.0);
        assert!(approx_eq(cr, 1000.0, 1e-9));
    }

    #[test]
    fn display_and_from() {
        let b = BreakEven::new(47.0).unwrap();
        assert_eq!(b.to_string(), "B = 47 s");
        let f: f64 = b.into();
        assert_eq!(f, 47.0);
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn offline_rejects_negative() {
        let _ = BreakEven::new(28.0).unwrap().offline_cost(-1.0);
    }

    #[test]
    #[should_panic(expected = "threshold must be non-negative")]
    fn online_rejects_negative_threshold() {
        let _ = BreakEven::new(28.0).unwrap().online_cost(-1.0, 1.0);
    }
}
