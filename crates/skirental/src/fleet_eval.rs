//! Fleet-level evaluation — the machinery behind Figure 4 and the
//! Section-5 vehicle counts.
//!
//! For each vehicle, every strategy is instantiated *from that vehicle's
//! own stop statistics* (MOM-Rand gets the vehicle's mean stop length, the
//! proposed algorithm its `(μ_B⁻, q_B⁺)`), then scored by the empirical
//! expected competitive ratio of eq. (5). The report aggregates, per
//! strategy: the mean CR across vehicles, the worst (largest) CR, and the
//! number of vehicles on which the strategy was the best performer.
//!
//! Each vehicle's trace is summarized **once** into a
//! [`StopSummary`] (one sort + prefix sums) which is then shared by all
//! strategies: fitting MOM-Rand, the proposed algorithm, and the
//! hindsight baseline, as well as scoring every strategy's CR, are all
//! O(log n) queries against the same summary. Fleets are sharded across
//! threads with [`crate::parallel`].

use crate::analysis::empirical_cr_with;
use crate::cost::BreakEven;
use crate::policy::{Det, MomRand, NRand, Nev, Policy, Toi};
use crate::summary::StopSummary;
use crate::Error;
use std::fmt;

/// The strategies compared in the paper's experiments (Figure 4 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Never turn the engine off.
    Nev,
    /// Turn off immediately.
    Toi,
    /// Deterministic threshold at `B`.
    Det,
    /// Randomized e/(e−1) algorithm.
    NRand,
    /// First-moment randomized algorithm.
    MomRand,
    /// The paper's proposed constrained algorithm.
    Proposed,
    /// The hindsight-optimal fixed threshold (in-sample Bayes baseline;
    /// not in the paper's Figure 4 — see [`crate::bayes`]).
    BayesOpt,
}

impl Strategy {
    /// The six strategies of the paper's Figure 4, in presentation order.
    pub const ALL: [Strategy; 6] = [
        Strategy::Nev,
        Strategy::Toi,
        Strategy::Det,
        Strategy::NRand,
        Strategy::MomRand,
        Strategy::Proposed,
    ];

    /// The paper's six strategies plus the hindsight fixed-threshold
    /// baseline (for the `ablation_bayes` harness).
    pub const WITH_HINDSIGHT: [Strategy; 7] = [
        Strategy::Nev,
        Strategy::Toi,
        Strategy::Det,
        Strategy::NRand,
        Strategy::MomRand,
        Strategy::Proposed,
        Strategy::BayesOpt,
    ];

    /// Display name matching the paper's legends.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Nev => "NEV",
            Self::Toi => "TOI",
            Self::Det => "DET",
            Self::NRand => "N-Rand",
            Self::MomRand => "MOM-Rand",
            Self::Proposed => "Proposed",
            Self::BayesOpt => "Bayes-OPT",
        }
    }

    /// Instantiates the strategy for one vehicle from its observed stops.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyTrace`] if `stops` is empty (the data-driven
    /// strategies have nothing to estimate from).
    ///
    /// # Panics
    ///
    /// Panics if a stop is negative or non-finite.
    pub fn build(
        &self,
        stops: &[f64],
        break_even: BreakEven,
    ) -> Result<Box<dyn Policy + Send + Sync>, Error> {
        self.build_with(&StopSummary::new(stops)?, break_even)
    }

    /// [`Strategy::build`] from a precomputed [`StopSummary`] — the
    /// data-driven strategies (MOM-Rand, Proposed, Bayes-OPT) read their
    /// statistics straight off the summary's prefix sums instead of
    /// rescanning (and, for Bayes-OPT, re-sorting) the trace.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidMoments`] / [`Error::InvalidMean`] if the
    /// summary statistics fall outside a strategy's feasible region
    /// (cannot happen for finite non-negative traces).
    pub fn build_with(
        &self,
        summary: &StopSummary,
        break_even: BreakEven,
    ) -> Result<Box<dyn Policy + Send + Sync>, Error> {
        Ok(match self {
            Self::Nev => Box::new(Nev::new(break_even)),
            Self::Toi => Box::new(Toi::new(break_even)),
            Self::Det => Box::new(Det::new(break_even)),
            Self::NRand => Box::new(NRand::new(break_even)),
            Self::MomRand => Box::new(MomRand::new(break_even, summary.mean())?),
            Self::Proposed => Box::new(summary.constrained_stats(break_even)?.optimal_policy()),
            Self::BayesOpt => Box::new(crate::bayes::BayesOpt::for_summary(summary, break_even)),
        })
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-vehicle evaluation: the CR of every strategy on that vehicle's
/// stops.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleResult {
    /// Index of the vehicle in the input slice.
    pub vehicle: usize,
    /// Empirical CRs, parallel to the strategy list of the report.
    pub crs: Vec<f64>,
    /// Index (into the strategy list) of the best strategy; ties go to the
    /// earliest-listed strategy.
    pub best: usize,
}

/// Per-strategy aggregate over a fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategySummary {
    /// The strategy being summarized.
    pub strategy: Strategy,
    /// Mean empirical CR across vehicles (the bar heights in Figure 4).
    pub mean_cr: f64,
    /// Largest empirical CR across vehicles ("worst case CR" in Figure 4).
    pub worst_cr: f64,
    /// Number of vehicles on which this strategy achieved the lowest CR.
    /// Ties (within 1e-9 relative) count for every tied strategy — the
    /// proposed algorithm often *coincides* with its selected vertex
    /// strategy, and both are then "best" on that vehicle.
    pub wins: usize,
}

/// The full fleet evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Strategies evaluated, in column order.
    pub strategies: Vec<Strategy>,
    /// Per-vehicle results.
    pub vehicles: Vec<VehicleResult>,
    /// Per-strategy aggregates, parallel to `strategies`.
    pub summaries: Vec<StrategySummary>,
}

impl FleetReport {
    /// The summary row for one strategy, if it was evaluated.
    #[must_use]
    pub fn summary_of(&self, strategy: Strategy) -> Option<&StrategySummary> {
        let i = self.strategies.iter().position(|&s| s == strategy)?;
        Some(&self.summaries[i])
    }

    /// Number of vehicles evaluated.
    #[must_use]
    pub fn num_vehicles(&self) -> usize {
        self.vehicles.len()
    }
}

impl fmt::Display for FleetReport {
    /// Renders the Figure-4-style table: one row per strategy with mean CR,
    /// worst CR, and win count.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<10} {:>9} {:>9} {:>6}   ({} vehicles)",
            "strategy",
            "mean CR",
            "worst CR",
            "wins",
            self.num_vehicles()
        )?;
        for s in &self.summaries {
            writeln!(
                f,
                "{:<10} {:>9.4} {:>9.4} {:>6}",
                s.strategy.name(),
                s.mean_cr,
                s.worst_cr,
                s.wins
            )?;
        }
        Ok(())
    }
}

/// Evaluates one vehicle against every strategy: one [`StopSummary`]
/// build (sort + prefix sums), then closed-form fitting and scoring for
/// each strategy.
fn evaluate_vehicle(
    vi: usize,
    stops: &[f64],
    break_even: BreakEven,
    strategies: &[Strategy],
) -> Result<VehicleResult, Error> {
    let summary = StopSummary::new(stops)?;
    let mut crs = Vec::with_capacity(strategies.len());
    for strat in strategies {
        let policy = strat.build_with(&summary, break_even)?;
        crs.push(empirical_cr_with(policy.as_ref(), &summary));
    }
    let best = crs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or_else(|| unreachable!("strategies are non-empty, checked by the caller"));
    Ok(VehicleResult { vehicle: vi, crs, best })
}

/// Evaluates `strategies` on every vehicle's stop trace.
///
/// Each vehicle's data-driven strategies are fit on that vehicle's own
/// stops (as the paper does); the CR is the in-sample expected competitive
/// ratio of eq. (5).
///
/// # Errors
///
/// Returns [`Error::EmptyTrace`] if `vehicle_stops` is empty, any vehicle
/// has no stops, or `strategies` is empty.
pub fn evaluate_fleet(
    vehicle_stops: &[Vec<f64>],
    break_even: BreakEven,
    strategies: &[Strategy],
) -> Result<FleetReport, Error> {
    if vehicle_stops.is_empty() || strategies.is_empty() {
        return Err(Error::EmptyTrace);
    }
    let mut vehicles = Vec::with_capacity(vehicle_stops.len());
    for (vi, stops) in vehicle_stops.iter().enumerate() {
        vehicles.push(evaluate_vehicle(vi, stops, break_even, strategies)?);
    }
    Ok(summarize(strategies, vehicles))
}

/// Parallel [`evaluate_fleet`]: vehicles are sharded across `threads` OS
/// threads via [`crate::parallel::try_chunked_map`]. Produces
/// bit-identical results to the sequential version for every thread
/// count — per-vehicle evaluation is deterministic and independent, and
/// the shared runtime preserves input order.
///
/// # Errors
///
/// Same conditions as [`evaluate_fleet`].
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn evaluate_fleet_parallel(
    vehicle_stops: &[Vec<f64>],
    break_even: BreakEven,
    strategies: &[Strategy],
    threads: usize,
) -> Result<FleetReport, Error> {
    assert!(threads > 0, "need at least one thread");
    if vehicle_stops.is_empty() || strategies.is_empty() {
        return Err(Error::EmptyTrace);
    }
    let vehicles = crate::parallel::try_chunked_map(vehicle_stops, threads, |vi, stops| {
        evaluate_vehicle(vi, stops, break_even, strategies)
    })?;
    Ok(summarize(strategies, vehicles))
}

/// Builds the per-strategy summaries from per-vehicle results.
fn summarize(strategies: &[Strategy], vehicles: Vec<VehicleResult>) -> FleetReport {
    let summaries = strategies
        .iter()
        .enumerate()
        .map(|(si, &strategy)| {
            let mut sum = 0.0;
            let mut worst: f64 = 0.0;
            let mut wins = 0usize;
            for v in &vehicles {
                sum += v.crs[si];
                worst = worst.max(v.crs[si]);
                let min = v.crs[v.best];
                if v.crs[si] <= min * (1.0 + 1e-9) {
                    wins += 1;
                }
            }
            StrategySummary {
                strategy,
                mean_cr: sum / vehicles.len() as f64,
                worst_cr: worst,
                wins,
            }
        })
        .collect();
    FleetReport { strategies: strategies.to_vec(), vehicles, summaries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::approx_eq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stopmodel::dist::{LogNormal, Mixture, Pareto, StopDistribution};

    fn b28() -> BreakEven {
        BreakEven::new(28.0).unwrap()
    }

    /// A small synthetic fleet with heavy-tailed stops (lognormal body of
    /// light/sign stops plus a Pareto tail of congestion and parking
    /// idling, the shape the paper's Figure 3 reports).
    fn fleet(n_vehicles: usize, stops_each: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Mixture::new(vec![
            (0.75, Box::new(LogNormal::new(2.0, 0.9).unwrap()) as _),
            (0.25, Box::new(Pareto::new(30.0, 1.2).unwrap()) as _),
        ])
        .unwrap();
        (0..n_vehicles).map(|_| (0..stops_each).map(|_| dist.sample(&mut rng)).collect()).collect()
    }

    #[test]
    fn strategy_names_and_all() {
        assert_eq!(Strategy::ALL.len(), 6);
        for s in Strategy::ALL {
            assert!(!s.name().is_empty());
            assert_eq!(s.to_string(), s.name());
        }
    }

    #[test]
    fn build_each_strategy() {
        let stops = [5.0, 40.0, 12.0];
        for s in Strategy::ALL {
            let p = s.build(&stops, b28()).unwrap();
            assert!(p.expected_cost(10.0) >= 0.0);
        }
    }

    #[test]
    fn build_rejects_empty() {
        for s in Strategy::ALL {
            assert!(matches!(s.build(&[], b28()), Err(Error::EmptyTrace)));
        }
    }

    #[test]
    fn report_shape() {
        let vehicles = fleet(10, 50, 1);
        let report = evaluate_fleet(&vehicles, b28(), &Strategy::ALL).unwrap();
        assert_eq!(report.num_vehicles(), 10);
        assert_eq!(report.summaries.len(), 6);
        for v in &report.vehicles {
            assert_eq!(v.crs.len(), 6);
            assert!(v.best < 6);
            for &cr in &v.crs {
                assert!(cr >= 1.0 - 1e-9, "CR below 1: {cr}");
            }
        }
        // Every vehicle has at least one winner; ties can add more.
        let total_wins: usize = report.summaries.iter().map(|s| s.wins).sum();
        assert!(total_wins >= 10);
    }

    #[test]
    fn proposed_dominates_on_synthetic_fleet() {
        // The paper's headline: the proposed strategy has the lowest mean
        // CR and the lowest worst-case CR, and wins most vehicles.
        let vehicles = fleet(40, 200, 2);
        let report = evaluate_fleet(&vehicles, b28(), &Strategy::ALL).unwrap();
        let proposed = report.summary_of(Strategy::Proposed).unwrap();
        for s in &report.summaries {
            assert!(
                proposed.mean_cr <= s.mean_cr + 1e-9,
                "proposed mean {} > {} mean {}",
                proposed.mean_cr,
                s.strategy.name(),
                s.mean_cr
            );
        }
        assert!(proposed.wins >= report.num_vehicles() / 2, "wins = {}", proposed.wins);
    }

    #[test]
    fn nrand_cr_is_constant_across_vehicles() {
        let vehicles = fleet(5, 60, 3);
        let report = evaluate_fleet(&vehicles, b28(), &[Strategy::NRand]).unwrap();
        let s = report.summary_of(Strategy::NRand).unwrap();
        assert!(approx_eq(s.mean_cr, crate::e_ratio(), 1e-9));
        assert!(approx_eq(s.worst_cr, crate::e_ratio(), 1e-9));
    }

    #[test]
    fn empty_inputs_error() {
        assert!(matches!(evaluate_fleet(&[], b28(), &Strategy::ALL), Err(Error::EmptyTrace)));
        let vehicles = fleet(2, 10, 4);
        assert!(matches!(evaluate_fleet(&vehicles, b28(), &[]), Err(Error::EmptyTrace)));
        let with_empty = vec![vec![1.0, 2.0], vec![]];
        assert!(matches!(
            evaluate_fleet(&with_empty, b28(), &Strategy::ALL),
            Err(Error::EmptyTrace)
        ));
    }

    #[test]
    fn display_renders_table() {
        let vehicles = fleet(3, 20, 5);
        let report = evaluate_fleet(&vehicles, b28(), &Strategy::ALL).unwrap();
        let s = report.to_string();
        assert!(s.contains("Proposed") && s.contains("mean CR"));
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let vehicles = fleet(37, 60, 9); // odd count exercises chunking
        let seq = evaluate_fleet(&vehicles, b28(), &Strategy::ALL).unwrap();
        for threads in [1, 2, 4, 7, 64] {
            let par = evaluate_fleet_parallel(&vehicles, b28(), &Strategy::ALL, threads).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_propagates_errors() {
        let mut vehicles = fleet(8, 20, 10);
        vehicles[5].clear(); // one empty vehicle
        assert!(matches!(
            evaluate_fleet_parallel(&vehicles, b28(), &Strategy::ALL, 4),
            Err(Error::EmptyTrace)
        ));
        assert!(matches!(
            evaluate_fleet_parallel(&[], b28(), &Strategy::ALL, 4),
            Err(Error::EmptyTrace)
        ));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn parallel_rejects_zero_threads() {
        let vehicles = fleet(2, 10, 11);
        let _ = evaluate_fleet_parallel(&vehicles, b28(), &Strategy::ALL, 0);
    }

    #[test]
    fn adaptive_batched_matches_scalar_reference() {
        let vehicles = fleet(11, 80, 12);
        let cfg = crate::batch::BatchConfig { window: Some(50), ..Default::default() };
        let scalar = crate::batch::run_fleet_scalar(&vehicles, b28(), &cfg).unwrap();
        for threads in [1, 2, 8] {
            let batched = crate::batch::run_fleet_batch(&vehicles, b28(), &cfg, threads).unwrap();
            assert_eq!(batched.outcomes, scalar, "threads = {threads}");
        }
    }

    #[test]
    fn summary_of_missing_strategy() {
        let vehicles = fleet(2, 20, 6);
        let report = evaluate_fleet(&vehicles, b28(), &[Strategy::Det]).unwrap();
        assert!(report.summary_of(Strategy::Toi).is_none());
        assert!(report.summary_of(Strategy::Det).is_some());
    }
}
