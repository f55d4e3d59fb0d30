//! Named driver scenarios.
//!
//! The paper notes its algorithm "can also be provided as a driving tip to
//! drivers of vehicles without stop-start systems". Advice depends on how
//! you drive: a delivery van's stop pattern is nothing like a highway
//! commuter's. This module provides calibrated stop-length mixtures for
//! archetypal usage patterns, so examples and tests can ask "what should
//! *this* driver do?" (see `examples/driving_tips.rs`).

use std::fmt;
use stopmodel::dist::{Censored, LogNormal, Mixture, Pareto, Uniform};

/// An archetypal driving pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Suburban commuter: lights and signs, occasional congestion.
    Commuter,
    /// Urban delivery van: frequent short sign-stops plus long loading
    /// waits with the engine on.
    DeliveryVan,
    /// Taxi / ride-hailing: medium waits at curbs and ranks, heavy
    /// downtown lights.
    Taxi,
    /// Long-haul highway: stops are rare and either toll-booth short or
    /// rest-break long.
    Highway,
}

impl Scenario {
    /// All scenarios.
    pub const ALL: [Scenario; 4] =
        [Scenario::Commuter, Scenario::DeliveryVan, Scenario::Taxi, Scenario::Highway];

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Commuter => "commuter",
            Self::DeliveryVan => "delivery van",
            Self::Taxi => "taxi",
            Self::Highway => "highway",
        }
    }

    /// Typical stops per day for the pattern.
    #[must_use]
    pub fn stops_per_day(&self) -> f64 {
        match self {
            Self::Commuter => 10.0,
            Self::DeliveryVan => 60.0,
            Self::Taxi => 35.0,
            Self::Highway => 2.5,
        }
    }

    /// The stop-length mixture for the pattern (seconds; tails censored
    /// at 2 h like the area models).
    ///
    /// # Panics
    ///
    /// Never panics — the preset parameters are validated by tests.
    #[must_use]
    // Compile-time-constant preset parameters; a construction failure here
    // is a programming error caught by the preset tests, not a runtime
    // condition worth plumbing a Result for.
    #[allow(clippy::expect_used)]
    pub fn stop_distribution(&self) -> Mixture {
        let cap = |p: Pareto| Censored::new(p, 7200.0).expect("positive cap");
        match self {
            Self::Commuter => Mixture::new(vec![
                (0.50, Box::new(LogNormal::new(2.35, 0.50).expect("valid")) as _),
                (0.46, Box::new(LogNormal::new(1.35, 0.60).expect("valid")) as _),
                (0.04, Box::new(cap(Pareto::new(45.0, 1.05).expect("valid"))) as _),
            ])
            .expect("positive weights"),
            Self::DeliveryVan => Mixture::new(vec![
                // Curbside drops: half a minute to several minutes.
                (0.55, Box::new(LogNormal::new(4.0, 0.7).expect("valid")) as _),
                // Signs/lights between drops.
                (0.40, Box::new(LogNormal::new(1.8, 0.6).expect("valid")) as _),
                // Dock waits.
                (0.05, Box::new(cap(Pareto::new(300.0, 1.4).expect("valid"))) as _),
            ])
            .expect("positive weights"),
            Self::Taxi => Mixture::new(vec![
                // Downtown lights: longer cycles.
                (0.60, Box::new(LogNormal::new(2.9, 0.5).expect("valid")) as _),
                // Pickup waits.
                (0.30, Box::new(LogNormal::new(3.6, 0.8).expect("valid")) as _),
                // Rank queueing.
                (0.10, Box::new(cap(Pareto::new(120.0, 1.3).expect("valid"))) as _),
            ])
            .expect("positive weights"),
            Self::Highway => Mixture::new(vec![
                // Toll booths / brief slowdowns.
                (0.70, Box::new(Uniform::new(2.0, 20.0).expect("valid")) as _),
                // Rest breaks with the engine idling.
                (0.30, Box::new(cap(Pareto::new(240.0, 1.6).expect("valid"))) as _),
            ])
            .expect("positive weights"),
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stopmodel::StopDistribution;

    #[test]
    fn all_presets_valid_and_distinct() {
        let mut means = Vec::new();
        for s in Scenario::ALL {
            let d = s.stop_distribution();
            let m = d.mean();
            assert!(m.is_finite() && m > 0.0, "{s}: mean {m}");
            assert!(s.stops_per_day() > 0.0);
            assert!(!s.name().is_empty());
            means.push(m);
        }
        // The patterns are genuinely different workloads.
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in means.windows(2) {
            assert!(w[1] > 1.2 * w[0], "scenario means too similar: {means:?}");
        }
    }

    #[test]
    fn delivery_van_has_long_body() {
        // Median stop of a delivery van is minutes, not seconds.
        let d = Scenario::DeliveryVan.stop_distribution();
        assert!(d.quantile(0.5) > 20.0, "median {}", d.quantile(0.5));
    }

    #[test]
    fn commuter_mostly_short_stops() {
        let d = Scenario::Commuter.stop_distribution();
        assert!(d.cdf(28.0) > 0.9, "P(y<28) = {}", d.cdf(28.0));
    }

    #[test]
    fn scenarios_select_different_strategies() {
        // The whole point: the minimax-optimal advice differs by pattern.
        use std::collections::BTreeSet;
        let mut choices = BTreeSet::new();
        for s in Scenario::ALL {
            let d = s.stop_distribution();
            // B = 47 s (conventional vehicle being given a driving tip).
            let b = 47.0;
            let costs = numeric::vertex::costs(d.partial_mean(b), d.tail_prob(b), b);
            choices.insert(costs.argmin().0.name());
        }
        assert!(choices.len() >= 2, "all scenarios got the same advice: {choices:?}");
    }
}
