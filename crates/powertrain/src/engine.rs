//! The engine state machine.
//!
//! A stop-start vehicle's engine moves through four states:
//!
//! ```text
//!            VehicleStops              EngineOff
//!  Running ───────────────▶ Idling ───────────────▶ Off
//!     ▲                        │                     │
//!     │    DriverResumes       │      DriverResumes  │
//!     ├────────────────────────┘                     ▼
//!     │            CrankComplete                 Cranking
//!     └──────────────────────────────────────────────┘
//! ```
//!
//! The machine validates transitions and timestamp monotonicity and keeps
//! per-state dwell-time ledgers, which the
//! [`controller`](crate::controller) turns into fuel/wear/emission costs.

use std::fmt;

/// The engine/vehicle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineState {
    /// Vehicle moving, engine running.
    Running,
    /// Vehicle stopped, engine idling.
    Idling,
    /// Vehicle stopped, engine off.
    Off,
    /// Engine restarting (starter engaged).
    Cranking,
}

impl fmt::Display for EngineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Running => "running",
            Self::Idling => "idling",
            Self::Off => "off",
            Self::Cranking => "cranking",
        };
        f.write_str(s)
    }
}

/// Events that drive the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineEvent {
    /// The vehicle comes to a stop (traffic light, congestion, …).
    VehicleStops,
    /// The controller shuts the engine off mid-stop.
    EngineOff,
    /// The driver wants to move (gas pedal).
    DriverResumes,
    /// The starter finished cranking; engine is running again.
    CrankComplete,
}

/// Transition errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransitionError {
    /// The event is not legal in the current state.
    InvalidTransition {
        /// State the machine was in.
        from: EngineState,
        /// The rejected event.
        event: EngineEvent,
    },
    /// Event timestamps must be non-decreasing.
    TimeNotMonotone {
        /// Current machine time.
        now: f64,
        /// The earlier timestamp that was submitted.
        event_time: f64,
    },
}

impl fmt::Display for TransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidTransition { from, event } => {
                write!(f, "event {event:?} is invalid in state {from}")
            }
            Self::TimeNotMonotone { now, event_time } => {
                write!(f, "event time {event_time} precedes machine time {now}")
            }
        }
    }
}

impl std::error::Error for TransitionError {}

/// A validated, time-accounting engine state machine.
///
/// # Example
///
/// ```
/// use powertrain::engine::{EngineEvent, EngineState, EngineStateMachine};
///
/// let mut m = EngineStateMachine::new(0.0);
/// m.apply(EngineEvent::VehicleStops, 10.0)?;   // running → idling
/// m.apply(EngineEvent::EngineOff, 15.0)?;      // idled 5 s, now off
/// m.apply(EngineEvent::DriverResumes, 40.0)?;  // off 25 s, cranking
/// m.apply(EngineEvent::CrankComplete, 40.7)?;  // running again
/// assert_eq!(m.state(), EngineState::Running);
/// assert_eq!(m.idle_seconds(), 5.0);
/// assert_eq!(m.off_seconds(), 25.0);
/// assert_eq!(m.restarts(), 1);
/// # Ok::<(), powertrain::engine::TransitionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStateMachine {
    state: EngineState,
    now: f64,
    running_seconds: f64,
    idle_seconds: f64,
    off_seconds: f64,
    crank_seconds: f64,
    restarts: u64,
    stops: u64,
}

impl EngineStateMachine {
    /// Creates a machine in [`EngineState::Running`] at time `start`.
    #[must_use]
    pub fn new(start: f64) -> Self {
        Self {
            state: EngineState::Running,
            now: start,
            running_seconds: 0.0,
            idle_seconds: 0.0,
            off_seconds: 0.0,
            crank_seconds: 0.0,
            restarts: 0,
            stops: 0,
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> EngineState {
        self.state
    }

    /// Machine clock (timestamp of the last event).
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Total seconds spent idling (engine on, vehicle stopped).
    #[must_use]
    pub fn idle_seconds(&self) -> f64 {
        self.idle_seconds
    }

    /// Total seconds with the engine off during stops.
    #[must_use]
    pub fn off_seconds(&self) -> f64 {
        self.off_seconds
    }

    /// Total seconds driving (engine on, vehicle moving).
    #[must_use]
    pub fn running_seconds(&self) -> f64 {
        self.running_seconds
    }

    /// Total seconds cranking.
    #[must_use]
    pub fn crank_seconds(&self) -> f64 {
        self.crank_seconds
    }

    /// Number of engine restarts performed.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Number of vehicle stops seen.
    #[must_use]
    pub fn stops(&self) -> u64 {
        self.stops
    }

    /// Applies `event` at time `t`.
    ///
    /// # Errors
    ///
    /// * [`TransitionError::TimeNotMonotone`] if `t` precedes the machine
    ///   clock (or is NaN).
    /// * [`TransitionError::InvalidTransition`] if the event is illegal in
    ///   the current state (e.g. `EngineOff` while driving).
    pub fn apply(&mut self, event: EngineEvent, t: f64) -> Result<(), TransitionError> {
        // NaN or regression both reject (NaN fails every comparison).
        if t.is_nan() || t < self.now {
            return Err(TransitionError::TimeNotMonotone { now: self.now, event_time: t });
        }
        let dwell = t - self.now;
        let next = match (self.state, event) {
            (EngineState::Running, EngineEvent::VehicleStops) => {
                self.running_seconds += dwell;
                self.stops += 1;
                EngineState::Idling
            }
            (EngineState::Idling, EngineEvent::EngineOff) => {
                self.idle_seconds += dwell;
                EngineState::Off
            }
            (EngineState::Idling, EngineEvent::DriverResumes) => {
                self.idle_seconds += dwell;
                EngineState::Running
            }
            (EngineState::Off, EngineEvent::DriverResumes) => {
                self.off_seconds += dwell;
                self.restarts += 1;
                EngineState::Cranking
            }
            (EngineState::Cranking, EngineEvent::CrankComplete) => {
                self.crank_seconds += dwell;
                EngineState::Running
            }
            (from, event) => return Err(TransitionError::InvalidTransition { from, event }),
        };
        self.state = next;
        self.now = t;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_stop_cycle_with_shutoff() {
        let mut m = EngineStateMachine::new(0.0);
        m.apply(EngineEvent::VehicleStops, 100.0).unwrap();
        assert_eq!(m.state(), EngineState::Idling);
        assert_eq!(m.running_seconds(), 100.0);
        m.apply(EngineEvent::EngineOff, 128.0).unwrap();
        assert_eq!(m.idle_seconds(), 28.0);
        m.apply(EngineEvent::DriverResumes, 200.0).unwrap();
        assert_eq!(m.state(), EngineState::Cranking);
        assert_eq!(m.off_seconds(), 72.0);
        assert_eq!(m.restarts(), 1);
        m.apply(EngineEvent::CrankComplete, 200.7).unwrap();
        assert_eq!(m.state(), EngineState::Running);
        assert!((m.crank_seconds() - 0.7).abs() < 1e-12);
        assert_eq!(m.stops(), 1);
    }

    #[test]
    fn short_stop_without_shutoff() {
        let mut m = EngineStateMachine::new(0.0);
        m.apply(EngineEvent::VehicleStops, 10.0).unwrap();
        m.apply(EngineEvent::DriverResumes, 15.0).unwrap();
        assert_eq!(m.state(), EngineState::Running);
        assert_eq!(m.idle_seconds(), 5.0);
        assert_eq!(m.restarts(), 0);
    }

    #[test]
    fn rejects_illegal_transitions() {
        let mut m = EngineStateMachine::new(0.0);
        // Cannot shut off while driving.
        assert!(matches!(
            m.apply(EngineEvent::EngineOff, 1.0),
            Err(TransitionError::InvalidTransition { from: EngineState::Running, .. })
        ));
        m.apply(EngineEvent::VehicleStops, 2.0).unwrap();
        // Cannot stop again while already stopped.
        assert!(m.apply(EngineEvent::VehicleStops, 3.0).is_err());
        m.apply(EngineEvent::EngineOff, 4.0).unwrap();
        // Cannot shut off twice.
        assert!(m.apply(EngineEvent::EngineOff, 5.0).is_err());
        m.apply(EngineEvent::DriverResumes, 6.0).unwrap();
        // Must finish cranking before stopping again.
        assert!(m.apply(EngineEvent::VehicleStops, 7.0).is_err());
        m.apply(EngineEvent::CrankComplete, 7.0).unwrap();
        assert_eq!(m.state(), EngineState::Running);
    }

    #[test]
    fn rejects_time_regression() {
        let mut m = EngineStateMachine::new(10.0);
        assert!(matches!(
            m.apply(EngineEvent::VehicleStops, 5.0),
            Err(TransitionError::TimeNotMonotone { .. })
        ));
        // NaN timestamps are rejected too.
        assert!(m.apply(EngineEvent::VehicleStops, f64::NAN).is_err());
    }

    #[test]
    fn zero_dwell_transitions_allowed() {
        let mut m = EngineStateMachine::new(0.0);
        m.apply(EngineEvent::VehicleStops, 0.0).unwrap();
        m.apply(EngineEvent::EngineOff, 0.0).unwrap();
        m.apply(EngineEvent::DriverResumes, 0.0).unwrap();
        m.apply(EngineEvent::CrankComplete, 0.0).unwrap();
        assert_eq!(m.state(), EngineState::Running);
        assert_eq!(m.idle_seconds(), 0.0);
    }

    #[test]
    fn error_and_state_display() {
        assert_eq!(EngineState::Cranking.to_string(), "cranking");
        let e = TransitionError::InvalidTransition {
            from: EngineState::Off,
            event: EngineEvent::EngineOff,
        };
        assert!(e.to_string().contains("invalid"));
        let t = TransitionError::TimeNotMonotone { now: 5.0, event_time: 1.0 };
        assert!(t.to_string().contains("precedes"));
    }
}
