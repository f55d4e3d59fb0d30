//! The stop-start controller: executes a ski-rental policy on a stop
//! trace through the engine state machine, accounting every cost.
//!
//! This is the end-to-end path of the reproduction: the `skirental` crate
//! proves what the expected cost of a policy *should* be; the controller
//! actually drives the engine and measures it, in fuel, component wear,
//! emissions, dollars — and in the paper's idle-equivalent seconds, which
//! integration tests compare against the analytic formulas.

use crate::breakeven::VehicleSpec;
use crate::emissions::Emissions;
use crate::engine::{EngineEvent, EngineStateMachine, TransitionError};
use crate::restart::RESTART_FUEL_IDLE_EQUIVALENT_S;
use rand::RngCore;
use skirental::Policy;
use std::fmt;

/// Default starter-crank duration, seconds (modern stop-start systems
/// restart in well under a second).
pub const DEFAULT_CRANK_SECONDS: f64 = 0.7;

/// What the controller does when a trace event is corrupt (non-finite or
/// negative duration, non-finite or out-of-order start).
///
/// The default is [`FaultAction::Abort`] — the historical behavior, where
/// a bad event surfaces as a [`TransitionError`] and kills the drive.
/// Fleet-scale simulations over sensor-derived traces should pick
/// [`FaultAction::SkipStop`] (or [`FaultAction::Resync`]) so one corrupted
/// event costs one stop, not the whole vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultAction {
    /// Feed events through unchecked; corruption aborts the drive with a
    /// [`TransitionError`].
    #[default]
    Abort,
    /// Drop corrupt events (counted in [`DriveOutcome::faults_skipped`]);
    /// no policy decision is made and no RNG is consumed for a skipped
    /// stop.
    SkipStop,
    /// Like [`FaultAction::SkipStop`] for unusable durations, but an
    /// out-of-order *start* with a valid duration is re-anchored to
    /// immediately follow the previous stop (zero driving gap) and
    /// counted in [`DriveOutcome::faults_resynced`] — the stop really
    /// happened, only its timestamp is wrong.
    Resync,
}

/// Errors from the batched (pre-decided) drive entry point.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchDriveError {
    /// `drive_decided` needs exactly one threshold per stop.
    MismatchedThresholds {
        /// Number of stops supplied.
        stops: usize,
        /// Number of thresholds supplied.
        thresholds: usize,
    },
    /// The engine state machine rejected a transition (e.g. a corrupt
    /// stop or threshold under [`FaultAction::Abort`]).
    Transition(TransitionError),
}

impl fmt::Display for BatchDriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MismatchedThresholds { stops, thresholds } => {
                write!(f, "need one threshold per stop: {stops} stops but {thresholds} thresholds")
            }
            Self::Transition(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BatchDriveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Transition(e) => Some(e),
            Self::MismatchedThresholds { .. } => None,
        }
    }
}

impl From<TransitionError> for BatchDriveError {
    fn from(e: TransitionError) -> Self {
        Self::Transition(e)
    }
}

/// Accumulated outcome of driving a trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DriveOutcome {
    /// Number of stops handled.
    pub stops: u64,
    /// Seconds spent idling during stops.
    pub idle_seconds: f64,
    /// Seconds spent with the engine off during stops.
    pub engine_off_seconds: f64,
    /// Number of engine restarts.
    pub restarts: u64,
    /// Fuel burned on stop handling (idling + restart bursts), cc.
    pub fuel_cc: f64,
    /// Component wear (starter + battery amortization), dollars.
    pub wear_dollars: f64,
    /// Exhaust emissions from stop handling.
    pub emissions: Emissions,
    /// Total monetary cost (fuel + wear + NOx tax), dollars.
    pub total_dollars: f64,
    /// Total cost in the paper's unit: seconds of idling
    /// (`idle_seconds + restarts·B`).
    pub idle_equivalent_s: f64,
    /// Corrupt events dropped under [`FaultAction::SkipStop`] /
    /// [`FaultAction::Resync`] (always `0` under [`FaultAction::Abort`]).
    pub faults_skipped: u64,
    /// Out-of-order events re-anchored under [`FaultAction::Resync`].
    pub faults_resynced: u64,
}

impl fmt::Display for DriveOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} stops: idled {:.1} s, engine off {:.1} s, {} restarts, {:.1} cc fuel, \
             ${:.4} total ({:.1} idle-equivalent s)",
            self.stops,
            self.idle_seconds,
            self.engine_off_seconds,
            self.restarts,
            self.fuel_cc,
            self.total_dollars,
            self.idle_equivalent_s
        )
    }
}

/// Drives a stop trace under a policy, with full cost accounting.
///
/// The controller owns an [`EngineStateMachine`] and a [`VehicleSpec`];
/// for each stop it draws a threshold from the policy and either idles
/// through the stop or shuts down and restarts.
#[derive(Debug)]
pub struct StopStartController<'a, P: Policy + ?Sized> {
    policy: &'a P,
    spec: VehicleSpec,
    crank_seconds: f64,
    inter_stop_drive_seconds: f64,
    battery_pack: Option<crate::battery::BatteryPack>,
    fault_action: FaultAction,
}

impl<'a, P: Policy + ?Sized> StopStartController<'a, P> {
    /// Creates a controller for `policy` on a vehicle described by `spec`.
    #[must_use]
    pub fn new(policy: &'a P, spec: VehicleSpec) -> Self {
        Self {
            policy,
            spec,
            crank_seconds: DEFAULT_CRANK_SECONDS,
            inter_stop_drive_seconds: 60.0,
            battery_pack: None,
            fault_action: FaultAction::default(),
        }
    }

    /// Sets how corrupt trace events are handled (see [`FaultAction`])
    /// and returns `self`.
    #[must_use]
    pub fn fault_action(mut self, action: FaultAction) -> Self {
        self.fault_action = action;
        self
    }

    /// Switches battery accounting from the paper's flat per-start
    /// amortization to the depth-of-discharge model of
    /// [`crate::battery`]: longer engine-off periods (accessories on
    /// battery) are charged more. Affects only [`DriveOutcome`]'s dollar
    /// ledgers, not the idle-equivalent ski-rental cost.
    #[must_use]
    pub fn with_battery_pack(mut self, pack: crate::battery::BatteryPack) -> Self {
        self.battery_pack = Some(pack);
        self
    }

    /// Sets the crank duration (seconds) and returns `self`.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or non-finite.
    #[must_use]
    pub fn crank_seconds(mut self, seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "crank duration must be non-negative, got {seconds}"
        );
        self.crank_seconds = seconds;
        self
    }

    /// Sets the simulated driving time between consecutive stops and
    /// returns `self`.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or non-finite.
    #[must_use]
    pub fn inter_stop_drive_seconds(mut self, seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "drive time must be non-negative, got {seconds}"
        );
        self.inter_stop_drive_seconds = seconds;
        self
    }

    /// Drives the trace: one threshold draw per stop, full state-machine
    /// execution, full cost ledger.
    ///
    /// The per-stop decision consumes the RNG in the same order as
    /// [`skirental::analysis::simulate_total_cost`], so with the same seed
    /// the controller's `idle_equivalent_s` (computed with
    /// `B = spec.break_even()`) matches the analytic simulation exactly.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] if the internal state machine rejects a
    /// transition — impossible for well-formed stops; under the default
    /// [`FaultAction::Abort`], a negative or NaN stop length surfaces here
    /// as a time-monotonicity error. Under [`FaultAction::SkipStop`] /
    /// [`FaultAction::Resync`] such stops are dropped and counted in
    /// [`DriveOutcome::faults_skipped`] instead.
    pub fn drive(
        &self,
        stops: &[f64],
        rng: &mut dyn RngCore,
    ) -> Result<DriveOutcome, TransitionError> {
        let gap = self.inter_stop_drive_seconds;
        if self.fault_action == FaultAction::Abort {
            return self.drive_inner(stops.iter().map(|&y| (gap, y)), 0, 0, rng);
        }
        let mut skipped = 0u64;
        let clean: Vec<(f64, f64)> = stops
            .iter()
            .filter_map(|&y| {
                if y.is_finite() && y >= 0.0 {
                    Some((gap, y))
                } else {
                    skipped += 1;
                    None
                }
            })
            .collect();
        self.drive_inner(clean.into_iter(), skipped, 0, rng)
    }

    /// Drives a *timestamped* trace: driving intervals come from the
    /// events' own start times (e.g. diurnal arrivals) instead of the
    /// fixed `inter_stop_drive_seconds`. Each event is `(start_s,
    /// duration_s)` with non-decreasing starts; a stop whose handling runs
    /// past the next arrival (overlap) clamps the intervening driving gap
    /// to zero. The cost ledger is identical to [`Self::drive`] on the
    /// same durations and RNG — only the engine's running-time
    /// bookkeeping follows the real clock.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] if the internal state machine rejects a
    /// transition — under the default [`FaultAction::Abort`], a corrupt
    /// duration surfaces here. Under [`FaultAction::SkipStop`] /
    /// [`FaultAction::Resync`] corrupt events (non-finite duration or
    /// start, negative duration, start earlier than the previous accepted
    /// event's) are dropped or re-anchored and counted in the outcome
    /// instead, so injected garbage cannot kill a fleet drive.
    pub fn drive_timestamped(
        &self,
        events: &[(f64, f64)],
        rng: &mut dyn RngCore,
    ) -> Result<DriveOutcome, TransitionError> {
        // Convert absolute starts into driving gaps; the crank time after
        // a shutdown is part of the elapsed clock, so subtracting the
        // previous end may undershoot — clamp at zero.
        let mut prev_end = 0.0;
        let mut prev_start = f64::NEG_INFINITY;
        let mut skipped = 0u64;
        let mut resynced = 0u64;
        let mut gaps: Vec<(f64, f64)> = Vec::with_capacity(events.len());
        for &(start, duration) in events {
            if self.fault_action == FaultAction::Abort {
                // Historical behavior: no checks; corruption propagates
                // into the state machine and aborts there.
                let gap = (start - prev_end).max(0.0);
                prev_end = start.max(prev_end) + duration;
                gaps.push((gap, duration));
                continue;
            }
            let duration_ok = duration.is_finite() && duration >= 0.0;
            if !duration_ok || !start.is_finite() {
                // A garbage duration can be neither driven nor repaired,
                // and a garbage timestamp with nothing to anchor it is
                // equally unusable.
                skipped += 1;
                continue;
            }
            if start < prev_start {
                match self.fault_action {
                    FaultAction::SkipStop => {
                        skipped += 1;
                        continue;
                    }
                    FaultAction::Resync => {
                        // The stop is real, only its timestamp is wrong:
                        // re-anchor it right after the previous stop.
                        resynced += 1;
                        gaps.push((0.0, duration));
                        prev_end += duration;
                        continue;
                    }
                    FaultAction::Abort => unreachable!("handled above"),
                }
            }
            let gap = (start - prev_end).max(0.0);
            prev_end = start.max(prev_end) + duration;
            prev_start = start;
            gaps.push((gap, duration));
        }
        self.drive_inner(gaps.into_iter(), skipped, resynced, rng)
    }

    /// Drives a trace whose thresholds were already decided — the
    /// batched entry point. Where [`Self::drive`] draws one threshold
    /// per stop from the policy, this pairs `stops[i]` with
    /// `thresholds[i]` (e.g. produced shard-at-a-time by
    /// `skirental::batch::BatchStore::decide_batch`) and runs the same
    /// state machine and cost ledger; no RNG is consumed. Trace events
    /// record the vertex as `"batched"`.
    ///
    /// Under [`FaultAction::SkipStop`] / [`FaultAction::Resync`] a
    /// corrupt stop is dropped *together with its threshold*, so the
    /// pairing never slips.
    ///
    /// # Errors
    ///
    /// [`BatchDriveError::MismatchedThresholds`] if the slices differ in
    /// length (nothing is driven); [`BatchDriveError::Transition`] if
    /// the state machine rejects a transition, exactly as in
    /// [`Self::drive`] — a non-finite or negative threshold surfaces
    /// here as a time-monotonicity error.
    pub fn drive_decided(
        &self,
        stops: &[f64],
        thresholds: &[f64],
    ) -> Result<DriveOutcome, BatchDriveError> {
        if stops.len() != thresholds.len() {
            return Err(BatchDriveError::MismatchedThresholds {
                stops: stops.len(),
                thresholds: thresholds.len(),
            });
        }
        let gap = self.inter_stop_drive_seconds;
        let mut skipped = 0u64;
        let pairs: Vec<(f64, f64)> = if self.fault_action == FaultAction::Abort {
            stops.iter().zip(thresholds).map(|(&y, &x)| (y, x)).collect()
        } else {
            stops
                .iter()
                .zip(thresholds)
                .filter_map(|(&y, &x)| {
                    if y.is_finite() && y >= 0.0 {
                        Some((y, x))
                    } else {
                        skipped += 1;
                        None
                    }
                })
                .collect()
        };
        let pairs = &pairs;
        let mut next = 0usize;
        let out = self.drive_core(
            pairs.iter().map(|&(y, _)| (gap, y)),
            skipped,
            0,
            "batched",
            &mut |_| {
                let x = pairs[next].1;
                next += 1;
                x
            },
        )?;
        Ok(out)
    }

    /// The shared simulation loop: `(driving_gap, stop_duration)` pairs.
    /// `skipped`/`resynced` are fault counts from the caller's event
    /// screening, carried into the outcome.
    fn drive_inner(
        &self,
        stops: impl Iterator<Item = (f64, f64)>,
        skipped: u64,
        resynced: u64,
        rng: &mut dyn RngCore,
    ) -> Result<DriveOutcome, TransitionError> {
        self.drive_core(stops, skipped, resynced, self.policy.name(), &mut |_| {
            self.policy.sample_threshold(rng)
        })
    }

    /// The simulation loop behind both the policy-sampled and the
    /// pre-decided paths: `decide(stop_index)` supplies the threshold,
    /// `vertex` labels trace events.
    fn drive_core(
        &self,
        stops: impl Iterator<Item = (f64, f64)>,
        skipped: u64,
        resynced: u64,
        vertex: &'static str,
        decide: &mut dyn FnMut(u64) -> f64,
    ) -> Result<DriveOutcome, TransitionError> {
        let mut machine = EngineStateMachine::new(0.0);
        let b = self.spec.break_even().seconds();
        let idle_rate_cc = self.spec.fuel().cc_per_s();
        let idle_rate_dollars = self.spec.idling_cost_per_s();
        let flat_wear_per_start = b_wear_dollars(&self.spec);
        let starter_wear = self.spec.break_even_breakdown().starter_s * idle_rate_dollars;

        let mut out = DriveOutcome {
            faults_skipped: skipped,
            faults_resynced: resynced,
            ..Default::default()
        };
        let m = crate::obs::metrics();
        let mut t = 0.0;
        for (gap, y) in stops {
            // Drive to the stop.
            t += gap;
            machine.apply(EngineEvent::VehicleStops, t)?;
            m.stop_length_s.record(y);

            obsv::tracer::begin_stop(out.stops);
            let x = decide(out.stops);
            if obsv::tracer::observing() {
                obsv::tracer::emit(obsv::TraceEvent::StopDecision {
                    vertex: vertex.into(),
                    threshold_b: x,
                    mu_b_minus: None,
                    q_b_plus: None,
                    chosen_cost_bound: None,
                });
            }
            if y < x {
                // The stop ends before the threshold: idle through it.
                t += y;
                machine.apply(EngineEvent::DriverResumes, t)?;
                out.idle_seconds += y;
                out.fuel_cc += idle_rate_cc * y;
                out.emissions += Emissions::idling_for(y);
                out.idle_equivalent_s += y;
            } else {
                // Idle until the threshold, shut off, restart when the
                // driver resumes.
                t += x;
                machine.apply(EngineEvent::EngineOff, t)?;
                t += y - x;
                machine.apply(EngineEvent::DriverResumes, t)?;
                t += self.crank_seconds;
                machine.apply(EngineEvent::CrankComplete, t)?;

                out.idle_seconds += x;
                out.engine_off_seconds += y - x;
                out.restarts += 1;
                out.fuel_cc += idle_rate_cc * (x + RESTART_FUEL_IDLE_EQUIVALENT_S);
                out.wear_dollars += match &self.battery_pack {
                    Some(pack) => starter_wear + pack.wear_dollars_for_stop(y - x),
                    None => flat_wear_per_start,
                };
                out.emissions += Emissions::idling_for(x) + Emissions::one_restart();
                out.idle_equivalent_s += x + b;
            }
            if obsv::tracer::observing() {
                obsv::tracer::emit(obsv::TraceEvent::StopCost {
                    threshold_b: x,
                    stop_s: y,
                    online_s: if y < x { y } else { x + b },
                    offline_s: self.spec.break_even().offline_cost(y),
                    restarted: y >= x,
                });
            }
            out.stops += 1;
        }

        debug_assert_eq!(machine.stops(), out.stops);
        debug_assert_eq!(machine.restarts(), out.restarts);
        out.total_dollars = out.fuel_cc / idle_rate_cc * idle_rate_dollars
            + out.wear_dollars
            + out.emissions.nox_tax_dollars();
        m.drives.inc();
        m.stops.add(out.stops);
        m.restarts.add(out.restarts);
        m.idled_through.add(out.stops - out.restarts);
        m.faults_skipped.add(out.faults_skipped);
        m.faults_resynced.add(out.faults_resynced);
        m.fuel_microcc.add((out.fuel_cc * crate::obs::FUEL_SCALE).round() as u64);
        Ok(out)
    }
}

/// Per-start wear cost (starter + battery) for a spec, dollars.
fn b_wear_dollars(spec: &VehicleSpec) -> f64 {
    let rate = spec.idling_cost_per_s();
    let bd = spec.break_even_breakdown();
    (bd.starter_s + bd.battery_s) * rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakeven::VehicleSpec;
    use numeric::approx_eq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use skirental::analysis::simulate_total_cost;
    use skirental::policy::{BDet, Det, NRand, Nev, Toi};

    fn spec() -> VehicleSpec {
        VehicleSpec::stop_start_vehicle()
    }

    #[test]
    fn toi_restarts_every_stop() {
        let s = spec();
        let p = Toi::new(s.break_even());
        let stops = [5.0, 30.0, 120.0];
        let mut rng = StdRng::seed_from_u64(1);
        let out = StopStartController::new(&p, s).drive(&stops, &mut rng).unwrap();
        assert_eq!(out.stops, 3);
        assert_eq!(out.restarts, 3);
        assert_eq!(out.idle_seconds, 0.0);
        assert!(approx_eq(out.engine_off_seconds, 155.0, 1e-12));
        assert!(approx_eq(out.idle_equivalent_s, 3.0 * s.break_even().seconds(), 1e-12));
    }

    #[test]
    fn nev_never_restarts() {
        let s = spec();
        let p = Nev::new(s.break_even());
        let stops = [5.0, 30.0, 120.0];
        let mut rng = StdRng::seed_from_u64(2);
        let out = StopStartController::new(&p, s).drive(&stops, &mut rng).unwrap();
        assert_eq!(out.restarts, 0);
        assert!(approx_eq(out.idle_seconds, 155.0, 1e-12));
        assert!(approx_eq(out.idle_equivalent_s, 155.0, 1e-12));
        assert_eq!(out.wear_dollars, 0.0);
    }

    #[test]
    fn det_splits_by_break_even() {
        let s = spec();
        let b = s.break_even().seconds();
        let p = Det::new(s.break_even());
        let stops = [b - 1.0, b + 50.0];
        let mut rng = StdRng::seed_from_u64(3);
        let out = StopStartController::new(&p, s).drive(&stops, &mut rng).unwrap();
        assert_eq!(out.restarts, 1);
        // Short stop idled fully; long stop idled exactly b.
        assert!(approx_eq(out.idle_seconds, (b - 1.0) + b, 1e-12));
        assert!(approx_eq(out.idle_equivalent_s, (b - 1.0) + 2.0 * b, 1e-12));
    }

    #[test]
    fn matches_analytic_simulation_deterministic() {
        let s = spec();
        let p = BDet::new(s.break_even(), 12.0).unwrap();
        let stops = [3.0, 11.9, 12.0, 40.0, 200.0];
        let mut rng1 = StdRng::seed_from_u64(4);
        let out = StopStartController::new(&p, s).drive(&stops, &mut rng1).unwrap();
        let mut rng2 = StdRng::seed_from_u64(4);
        let analytic = simulate_total_cost(&p, &stops, &mut rng2).unwrap();
        assert!(approx_eq(out.idle_equivalent_s, analytic, 1e-9));
    }

    #[test]
    fn matches_analytic_simulation_randomized() {
        // Same seed ⇒ same threshold draws ⇒ exactly equal totals.
        let s = spec();
        let p = NRand::new(s.break_even());
        let stops: Vec<f64> = (0..500).map(|i| (i % 90) as f64 + 0.5).collect();
        let mut rng1 = StdRng::seed_from_u64(5);
        let out = StopStartController::new(&p, s).drive(&stops, &mut rng1).unwrap();
        let mut rng2 = StdRng::seed_from_u64(5);
        let analytic = simulate_total_cost(&p, &stops, &mut rng2).unwrap();
        assert!(approx_eq(out.idle_equivalent_s, analytic, 1e-9));
    }

    #[test]
    fn dollar_cost_composition() {
        let s = spec();
        let p = Toi::new(s.break_even());
        let stops = [60.0];
        let mut rng = StdRng::seed_from_u64(6);
        let out = StopStartController::new(&p, s).drive(&stops, &mut rng).unwrap();
        // One restart: fuel = 10 idle-equivalent seconds; wear = battery
        // (SSV starter is free); NOx tax tiny but positive.
        let rate = s.idling_cost_per_s();
        let fuel_dollars = 10.0 * rate;
        assert!(out.total_dollars > fuel_dollars, "wear/emissions missing");
        assert!(out.total_dollars < 2.5 * fuel_dollars * 3.0);
        assert!(out.emissions.nox_mg > 0.0);
    }

    #[test]
    fn zero_crank_and_drive_times() {
        let s = spec();
        let p = Toi::new(s.break_even());
        let mut rng = StdRng::seed_from_u64(7);
        let out = StopStartController::new(&p, s)
            .crank_seconds(0.0)
            .inter_stop_drive_seconds(0.0)
            .drive(&[10.0], &mut rng)
            .unwrap();
        assert_eq!(out.restarts, 1);
    }

    #[test]
    fn empty_trace_is_empty_outcome() {
        let s = spec();
        let p = Det::new(s.break_even());
        let mut rng = StdRng::seed_from_u64(8);
        let out = StopStartController::new(&p, s).drive(&[], &mut rng).unwrap();
        assert_eq!(out, DriveOutcome::default());
    }

    #[test]
    fn display_mentions_restarts() {
        let s = spec();
        let p = Toi::new(s.break_even());
        let mut rng = StdRng::seed_from_u64(9);
        let out = StopStartController::new(&p, s).drive(&[40.0], &mut rng).unwrap();
        assert!(out.to_string().contains("restarts"));
    }

    #[test]
    fn detailed_battery_charges_long_off_periods_more() {
        use crate::battery::BatteryPack;
        let s = spec();
        let p = Toi::new(s.break_even());
        // Same restart count, very different engine-off durations.
        let short_stops = [20.0, 20.0];
        let long_stops = [900.0, 900.0];
        let mut rng = StdRng::seed_from_u64(21);
        let flat_short = StopStartController::new(&p, s).drive(&short_stops, &mut rng).unwrap();
        let flat_long = StopStartController::new(&p, s).drive(&long_stops, &mut rng).unwrap();
        // Flat model: wear depends only on restart count.
        assert!(approx_eq(flat_short.wear_dollars, flat_long.wear_dollars, 1e-12));
        let dod_short = StopStartController::new(&p, s)
            .with_battery_pack(BatteryPack::typical_ssv())
            .drive(&short_stops, &mut rng)
            .unwrap();
        let dod_long = StopStartController::new(&p, s)
            .with_battery_pack(BatteryPack::typical_ssv())
            .drive(&long_stops, &mut rng)
            .unwrap();
        // DoD model: the 15-minute engine-off costs real battery life.
        assert!(
            dod_long.wear_dollars > 2.0 * dod_short.wear_dollars,
            "short {} vs long {}",
            dod_short.wear_dollars,
            dod_long.wear_dollars
        );
        // Ski-rental cost is untouched by the accounting choice.
        assert!(approx_eq(dod_long.idle_equivalent_s, flat_long.idle_equivalent_s, 1e-12));
    }

    #[test]
    fn timestamped_matches_fixed_gap_ledger() {
        let s = spec();
        let p = NRand::new(s.break_even());
        // Arrivals at arbitrary (even overlapping) times.
        let events = [(100.0, 30.0), (500.0, 5.0), (501.0, 90.0), (2000.0, 12.0), (2000.0, 700.0)];
        let durations: Vec<f64> = events.iter().map(|&(_, d)| d).collect();
        let mut rng1 = StdRng::seed_from_u64(33);
        let ts = StopStartController::new(&p, s).drive_timestamped(&events, &mut rng1).unwrap();
        let mut rng2 = StdRng::seed_from_u64(33);
        let fixed = StopStartController::new(&p, s).drive(&durations, &mut rng2).unwrap();
        // Same RNG stream + same durations ⇒ identical cost ledger.
        assert!(approx_eq(ts.idle_equivalent_s, fixed.idle_equivalent_s, 1e-12));
        assert!(approx_eq(ts.fuel_cc, fixed.fuel_cc, 1e-12));
        assert_eq!(ts.restarts, fixed.restarts);
        assert_eq!(ts.stops, 5);
    }

    #[test]
    fn timestamped_follows_diurnal_trace() {
        use drivesim::diurnal::DiurnalProfile;
        use drivesim::{Area, FleetConfig};
        let s = spec();
        let p = Det::new(s.break_even());
        let trace = FleetConfig::new(Area::Chicago)
            .vehicles(1)
            .with_diurnal(DiurnalProfile::commuter())
            .synthesize(77)
            .remove(0);
        let events: Vec<(f64, f64)> = trace.iter().map(|e| (e.start_s, e.duration_s)).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let out = StopStartController::new(&p, s).drive_timestamped(&events, &mut rng).unwrap();
        assert_eq!(out.stops as usize, trace.num_stops());
        assert!(out.idle_equivalent_s > 0.0);
    }

    #[test]
    #[should_panic(expected = "crank duration must be non-negative")]
    fn rejects_negative_crank() {
        let s = spec();
        let p = Det::new(s.break_even());
        let _ = StopStartController::new(&p, s).crank_seconds(-1.0);
    }

    #[test]
    fn abort_is_default_and_dies_on_garbage() {
        let s = spec();
        let p = Det::new(s.break_even());
        let mut rng = StdRng::seed_from_u64(40);
        let res = StopStartController::new(&p, s).drive(&[10.0, f64::NAN, 5.0], &mut rng);
        assert!(res.is_err(), "Abort must keep the historical panic/abort behavior");
        let mut rng = StdRng::seed_from_u64(40);
        let res = StopStartController::new(&p, s).drive(&[10.0, -3.0, 5.0], &mut rng);
        assert!(res.is_err());
    }

    #[test]
    fn skip_stop_survives_garbage_durations() {
        let s = spec();
        let p = Det::new(s.break_even());
        let mut rng1 = StdRng::seed_from_u64(41);
        let out = StopStartController::new(&p, s)
            .fault_action(FaultAction::SkipStop)
            .drive(&[10.0, f64::NAN, -3.0, f64::INFINITY, 5.0, 60.0], &mut rng1)
            .unwrap();
        assert_eq!(out.stops, 3);
        assert_eq!(out.faults_skipped, 3);
        assert_eq!(out.faults_resynced, 0);
        // The ledger equals driving only the valid stops.
        let mut rng2 = StdRng::seed_from_u64(41);
        let clean = StopStartController::new(&p, s).drive(&[10.0, 5.0, 60.0], &mut rng2).unwrap();
        assert!(approx_eq(out.idle_equivalent_s, clean.idle_equivalent_s, 1e-12));
    }

    #[test]
    fn skip_stop_survives_nan_and_out_of_order_events() {
        // The ISSUE's acceptance scenario: injected NaN + out-of-order
        // events complete with anomaly counts where Abort dies.
        let s = spec();
        let p = Det::new(s.break_even());
        let events = [
            (100.0, 30.0),
            (500.0, f64::NAN), // lost duration
            (400.0, 5.0),      // delivered out of order
            (f64::NAN, 9.0),   // lost timestamp
            (900.0, 12.0),
            (880.0, 2.0), // skewed backwards
            (2000.0, 45.0),
        ];
        let mut rng = StdRng::seed_from_u64(42);
        assert!(StopStartController::new(&p, s).drive_timestamped(&events, &mut rng).is_err());
        let mut rng = StdRng::seed_from_u64(42);
        let out = StopStartController::new(&p, s)
            .fault_action(FaultAction::SkipStop)
            .drive_timestamped(&events, &mut rng)
            .unwrap();
        // Out-of-order is judged against the last *accepted* event, so
        // (400, 5) survives: its predecessor (500, NaN) was quarantined
        // and the accepted anchor is still (100, 30).
        assert_eq!(out.stops, 4);
        assert_eq!(out.faults_skipped, 3);
        assert_eq!(out.faults_resynced, 0);
        assert!(out.idle_equivalent_s > 0.0);
    }

    #[test]
    fn resync_keeps_out_of_order_stops() {
        let s = spec();
        let p = Det::new(s.break_even());
        let events = [
            (100.0, 30.0),
            (90.0, 5.0),       // skewed backwards: real stop, bad clock
            (500.0, f64::NAN), // garbage duration: still unusable
            (900.0, 12.0),
        ];
        let mut rng = StdRng::seed_from_u64(43);
        let out = StopStartController::new(&p, s)
            .fault_action(FaultAction::Resync)
            .drive_timestamped(&events, &mut rng)
            .unwrap();
        assert_eq!(out.stops, 3, "the skewed stop is kept");
        assert_eq!(out.faults_resynced, 1);
        assert_eq!(out.faults_skipped, 1);
        // Resync pays for the extra stop: dearer than skipping it.
        let mut rng = StdRng::seed_from_u64(43);
        let skipped = StopStartController::new(&p, s)
            .fault_action(FaultAction::SkipStop)
            .drive_timestamped(&events, &mut rng)
            .unwrap();
        assert!(out.idle_equivalent_s > skipped.idle_equivalent_s);
    }

    #[test]
    fn clean_trace_identical_across_fault_actions() {
        let s = spec();
        let p = NRand::new(s.break_even());
        let events = [(100.0, 30.0), (500.0, 5.0), (501.0, 90.0), (2000.0, 12.0)];
        let mut outs = Vec::new();
        for action in [FaultAction::Abort, FaultAction::SkipStop, FaultAction::Resync] {
            let mut rng = StdRng::seed_from_u64(44);
            outs.push(
                StopStartController::new(&p, s)
                    .fault_action(action)
                    .drive_timestamped(&events, &mut rng)
                    .unwrap(),
            );
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0], outs[2]);
        assert_eq!(outs[0].faults_skipped, 0);
    }

    #[test]
    fn decided_matches_policy_sampled_drive() {
        // Precomputing the thresholds with the same policy and seed and
        // replaying them through drive_decided reproduces drive()'s
        // ledger exactly — the contract the batched fleet path rests on.
        let s = spec();
        let p = NRand::new(s.break_even());
        let stops: Vec<f64> = (0..200).map(|i| (i % 77) as f64 + 0.25).collect();
        let mut rng = StdRng::seed_from_u64(46);
        let thresholds: Vec<f64> = stops.iter().map(|_| p.sample_threshold(&mut rng)).collect();
        let ctl = StopStartController::new(&p, s);
        let mut rng = StdRng::seed_from_u64(46);
        let sampled = ctl.drive(&stops, &mut rng).unwrap();
        let decided = ctl.drive_decided(&stops, &thresholds).unwrap();
        assert_eq!(decided, sampled);
    }

    #[test]
    fn decided_rejects_mismatched_thresholds() {
        let s = spec();
        let p = Det::new(s.break_even());
        let ctl = StopStartController::new(&p, s);
        let err = ctl.drive_decided(&[10.0, 20.0], &[5.0]).unwrap_err();
        assert_eq!(err, BatchDriveError::MismatchedThresholds { stops: 2, thresholds: 1 });
        assert!(err.to_string().contains("one threshold per stop"));
        assert!(std::error::Error::source(&err).is_none());
    }

    #[test]
    fn decided_skip_stop_drops_threshold_with_its_stop() {
        let s = spec();
        let p = Det::new(s.break_even());
        let b = s.break_even().seconds();
        let ctl = StopStartController::new(&p, s).fault_action(FaultAction::SkipStop);
        // The NaN stop and its threshold drop together, so the long
        // stop still pairs with the restart threshold.
        let out = ctl.drive_decided(&[10.0, f64::NAN, 100.0], &[b, 0.0, b]).unwrap();
        assert_eq!(out.stops, 2);
        assert_eq!(out.faults_skipped, 1);
        assert_eq!(out.restarts, 1);
        let clean = ctl.drive_decided(&[10.0, 100.0], &[b, b]).unwrap();
        assert!(approx_eq(out.idle_equivalent_s, clean.idle_equivalent_s, 1e-12));
    }

    #[test]
    fn decided_corrupt_threshold_surfaces_as_transition_error() {
        let s = spec();
        let p = Det::new(s.break_even());
        let ctl = StopStartController::new(&p, s);
        let err = ctl.drive_decided(&[100.0], &[f64::NAN]).unwrap_err();
        assert!(matches!(err, BatchDriveError::Transition(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn faulted_fleet_trace_end_to_end() {
        // A synthesized fleet trace through the fault injector and a
        // fault-tolerant drive: completes with counts, never aborts.
        use drivesim::faults::{Fault, FaultPlan};
        use drivesim::{Area, FleetConfig};
        let s = spec();
        let p = Det::new(s.break_even());
        let trace = FleetConfig::new(Area::Chicago).vehicles(1).synthesize(91).remove(0);
        let events: Vec<(f64, f64)> = trace.iter().map(|e| (e.start_s, e.duration_s)).collect();
        let plan = FaultPlan::new(vec![
            Fault::ClockSkew { rate: 0.1, max_skew_s: 300.0 },
            Fault::Corrupt { rate: 0.05 },
            Fault::Duplicate { rate: 0.05 },
        ])
        .unwrap();
        let corrupted = plan.apply(&events, 17);
        let mut rng = StdRng::seed_from_u64(45);
        let out = StopStartController::new(&p, s)
            .fault_action(FaultAction::SkipStop)
            .drive_timestamped(&corrupted, &mut rng)
            .unwrap();
        assert!(out.faults_skipped > 0, "injection should have produced anomalies");
        assert!(out.stops > 0);
        assert_eq!(out.stops + out.faults_skipped, corrupted.len() as u64);
    }
}
