//! Diurnal (time-of-day) stop-arrival profiles.
//!
//! The default synthesis places a day's stops after exponential driving
//! gaps — adequate for ski-rental analysis, which only consumes durations.
//! For experiments that care about *when* stops happen (e.g. duty-cycling
//! a battery model across a day, or plotting congestion by hour), a
//! [`DiurnalProfile`] reshapes arrival times into a realistic two-peak
//! commuter pattern without touching stop counts or durations — so the
//! Table-1 and Figure-3/4 calibrations are unaffected.

use rand::RngCore;
use stopmodel::uniform01;

/// Relative stop intensity for each hour of the day.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalProfile {
    /// Normalized per-hour probabilities (sum = 1).
    hourly: [f64; 24],
}

impl DiurnalProfile {
    /// Builds a profile from 24 non-negative relative weights
    /// (normalized internally).
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite, or all are zero.
    #[must_use]
    pub fn new(weights: [f64; 24]) -> Self {
        let mut total = 0.0;
        for &w in &weights {
            assert!(w.is_finite() && w >= 0.0, "hourly weight must be non-negative, got {w}");
            total += w;
        }
        assert!(total > 0.0, "at least one hour must have positive weight");
        let mut hourly = weights;
        for w in &mut hourly {
            *w /= total;
        }
        Self { hourly }
    }

    /// A commuter profile: morning (7–9) and evening (16–19) peaks,
    /// daytime plateau, quiet nights.
    #[must_use]
    pub fn commuter() -> Self {
        let mut w = [0.0f64; 24];
        for (hour, weight) in w.iter_mut().enumerate() {
            *weight = match hour {
                0..=4 => 0.2,
                5..=6 => 1.0,
                7..=8 => 4.0,   // morning rush
                9..=15 => 2.0,  // daytime
                16..=18 => 4.5, // evening rush
                19..=21 => 1.5,
                _ => 0.5,
            };
        }
        Self::new(w)
    }

    /// A flat profile (uniform over the day).
    #[must_use]
    pub fn uniform() -> Self {
        Self::new([1.0; 24])
    }

    /// The normalized hourly probabilities.
    #[must_use]
    pub fn hourly(&self) -> &[f64; 24] {
        &self.hourly
    }

    /// Draws a time of day in seconds (`[0, 86 400)`): pick an hour by
    /// weight, uniform within the hour.
    #[must_use]
    pub fn sample_time_of_day(&self, rng: &mut dyn RngCore) -> f64 {
        let mut u = uniform01(rng);
        let mut hour = 23;
        for (h, &w) in self.hourly.iter().enumerate() {
            if u < w {
                hour = h;
                break;
            }
            u -= w;
        }
        (hour as f64 + uniform01(rng)) * 3600.0
    }

    /// Draws `n` arrival times within day `day` (0-based), sorted — ready
    /// to be zipped with stop durations.
    #[must_use]
    pub fn sample_day_arrivals(&self, day: u32, n: usize, rng: &mut dyn RngCore) -> Vec<f64> {
        let base = f64::from(day) * 86_400.0;
        let mut times: Vec<f64> = (0..n).map(|_| base + self.sample_time_of_day(rng)).collect();
        times.sort_by(f64::total_cmp);
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn profiles_normalize() {
        for p in [DiurnalProfile::commuter(), DiurnalProfile::uniform()] {
            let sum: f64 = p.hourly().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn commuter_peaks_dominate_night() {
        let p = DiurnalProfile::commuter();
        let h = p.hourly();
        assert!(h[8] > 5.0 * h[2], "rush hour vs 2am: {} vs {}", h[8], h[2]);
        assert!(h[17] >= h[8], "evening is the biggest peak");
    }

    #[test]
    fn sampling_follows_weights() {
        let p = DiurnalProfile::commuter();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mut counts = [0u32; 24];
        for _ in 0..n {
            let t = p.sample_time_of_day(&mut rng);
            assert!((0.0..86_400.0).contains(&t));
            counts[(t / 3600.0) as usize] += 1;
        }
        for (h, &c) in counts.iter().enumerate() {
            let freq = f64::from(c) / n as f64;
            assert!(
                (freq - p.hourly()[h]).abs() < 0.01,
                "hour {h}: freq {freq} vs weight {}",
                p.hourly()[h]
            );
        }
    }

    #[test]
    fn day_arrivals_sorted_and_in_day() {
        let p = DiurnalProfile::uniform();
        let mut rng = StdRng::seed_from_u64(2);
        let times = p.sample_day_arrivals(3, 50, &mut rng);
        assert_eq!(times.len(), 50);
        let lo = 3.0 * 86_400.0;
        for w in times.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(times.iter().all(|&t| (lo..lo + 86_400.0).contains(&t)));
    }

    #[test]
    fn zero_arrivals_ok() {
        let p = DiurnalProfile::uniform();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(p.sample_day_arrivals(0, 0, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_weight() {
        let mut w = [1.0; 24];
        w[3] = -1.0;
        let _ = DiurnalProfile::new(w);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn rejects_all_zero() {
        let _ = DiurnalProfile::new([0.0; 24]);
    }
}
