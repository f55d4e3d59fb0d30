//! The persisted state model and its binary payload codecs.
//!
//! Two payloads exist: a [`FleetState`] (everything the batched fleet
//! runner needs to resume — configuration echo, step counter, and one
//! [`LaneSnapshot`] per vehicle), and a scalar
//! [`skirental::degraded::LadderState`] (the single-vehicle degraded
//! controller, including its wrapped adaptive controller and estimator).
//! Both encode every `f64` as raw IEEE-754 bits, never as text, so a
//! decode–re-encode round trip is byte-identical and restored arithmetic
//! resumes bit-for-bit — including the O(ε) residue a sliding window
//! leaves in the running sums, which MUST survive persistence for a
//! resumed run to match an uninterrupted one.

use crate::error::PersistError;
use crate::format::{put_f64, put_f64s, put_u32, put_u64, FrameError, Reader};
use skirental::batch::LaneState;
use skirental::degraded::LadderState;
use skirental::estimator::{ControllerState, EstimatorState};
use skirental::TrustLevel;

/// The construction parameters of a persistent fleet, echoed into every
/// snapshot and the journal header so recovery can verify it is resuming
/// the run it thinks it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Vehicles in the fleet.
    pub lanes: usize,
    /// Break-even interval `B`, seconds.
    pub break_even: f64,
    /// Sliding estimator window per vehicle (`None` = full history).
    pub window: Option<usize>,
    /// Stops required per lane before trusting the estimate.
    pub min_history: usize,
    /// Seed of the per-vehicle counter RNG streams.
    pub seed: u64,
    /// Base trace stream id: lane `i` traces on stream `base + i`, and
    /// persistence meta events (checkpoint/recovery) on `base + lanes`.
    pub trace_stream_base: u64,
}

impl FleetConfig {
    /// The stream id persistence meta events (checkpoint / recovery) are
    /// traced on — one past the per-lane streams, so tooling can filter
    /// them without touching decision records.
    #[must_use]
    pub fn meta_stream(&self) -> u64 {
        self.trace_stream_base + self.lanes as u64
    }

    /// Compares against another configuration, naming the first field
    /// that disagrees.
    ///
    /// # Errors
    ///
    /// [`PersistError::ConfigMismatch`] naming the field.
    pub fn ensure_matches(&self, other: &Self) -> Result<(), PersistError> {
        if self.lanes != other.lanes {
            return Err(PersistError::ConfigMismatch { what: "lanes" });
        }
        if self.break_even.to_bits() != other.break_even.to_bits() {
            return Err(PersistError::ConfigMismatch { what: "break_even" });
        }
        if self.window != other.window {
            return Err(PersistError::ConfigMismatch { what: "window" });
        }
        if self.min_history != other.min_history {
            return Err(PersistError::ConfigMismatch { what: "min_history" });
        }
        if self.seed != other.seed {
            return Err(PersistError::ConfigMismatch { what: "seed" });
        }
        if self.trace_stream_base != other.trace_stream_base {
            return Err(PersistError::ConfigMismatch { what: "trace_stream_base" });
        }
        Ok(())
    }
}

/// One vehicle's complete persisted state: estimator lane, RNG stream
/// position, and running cost ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSnapshot {
    /// The lane's estimator state (counts, sums, eviction ring).
    pub lane: LaneState,
    /// The lane RNG's key.
    pub rng_key: u64,
    /// The lane RNG's counter position.
    pub rng_ctr: u64,
    /// Accumulated online cost, idle-equivalent seconds.
    pub online: f64,
    /// Accumulated offline-optimal cost.
    pub offline: f64,
}

/// A full fleet snapshot: the payload of one
/// [`crate::format::FrameKind::Snapshot`] frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetState {
    /// Configuration echo.
    pub config: FleetConfig,
    /// Stops per vehicle processed when the snapshot was taken.
    pub step: u64,
    /// Per-vehicle state, in global lane order.
    pub lanes: Vec<LaneSnapshot>,
}

// ---------------------------------------------------------------------
// FleetConfig codec (shared by snapshots, the journal header and the
// fleetd handshake).
// ---------------------------------------------------------------------

/// Appends a [`FleetConfig`] payload field (40 bytes).
pub fn encode_config(out: &mut Vec<u8>, config: &FleetConfig) {
    put_u32(out, config.lanes as u32);
    put_f64(out, config.break_even);
    put_u32(out, config.window.map_or(0, |w| w as u32));
    put_u32(out, config.min_history as u32);
    put_u64(out, config.seed);
    put_u64(out, config.trace_stream_base);
}

/// Reads an [`encode_config`] field.
///
/// # Errors
///
/// [`FrameError::BadPayload`] if the payload ends early.
pub fn decode_config(r: &mut Reader<'_>) -> Result<FleetConfig, FrameError> {
    let lanes = r.u32()? as usize;
    let break_even = r.f64()?;
    let window = match r.u32()? {
        0 => None,
        w => Some(w as usize),
    };
    let min_history = r.u32()? as usize;
    let seed = r.u64()?;
    let trace_stream_base = r.u64()?;
    Ok(FleetConfig { lanes, break_even, window, min_history, seed, trace_stream_base })
}

// ---------------------------------------------------------------------
// FleetState codec.
// ---------------------------------------------------------------------

/// Encodes a [`FleetState`] as a snapshot-frame payload. Deterministic:
/// the same state always produces the same bytes (the recovery drill's
/// silent-corruption oracle compares these byte strings directly).
#[must_use]
pub fn encode_fleet_state(state: &FleetState) -> Vec<u8> {
    let w = state.config.window.unwrap_or(0);
    let mut out = Vec::with_capacity(40 + state.lanes.len() * (56 + w * 8));
    encode_config(&mut out, &state.config);
    put_u64(&mut out, state.step);
    for lane in &state.lanes {
        put_u32(&mut out, lane.lane.count);
        put_u32(&mut out, lane.lane.long_count);
        put_u32(&mut out, lane.lane.head);
        put_f64(&mut out, lane.lane.short_sum);
        put_f64(&mut out, lane.lane.sum_sq);
        put_u64(&mut out, lane.rng_key);
        put_u64(&mut out, lane.rng_ctr);
        put_f64(&mut out, lane.online);
        put_f64(&mut out, lane.offline);
        debug_assert_eq!(lane.lane.ring.len(), w);
        put_f64s(&mut out, &lane.lane.ring);
    }
    out
}

/// Decodes a snapshot-frame payload back into a [`FleetState`]. `at` is
/// the frame's file offset, carried into any error.
///
/// # Errors
///
/// [`PersistError::BadPayload`] naming the offset if the payload is the
/// wrong shape for its own configuration echo.
pub fn decode_fleet_state(bytes: &[u8], at: u64) -> Result<FleetState, PersistError> {
    read_fleet_state(Reader::new(bytes)).map_err(|e| e.at(at))
}

fn read_fleet_state(mut r: Reader<'_>) -> Result<FleetState, FrameError> {
    let config = decode_config(&mut r)?;
    let step = r.u64()?;
    let w = config.window.unwrap_or(0);
    // The configuration echo fixes the payload length exactly; check it
    // before sizing any allocation from the (untrusted) lane count.
    let need = (config.lanes as u128) * (60 + 8 * w as u128);
    if need != r.remaining() as u128 {
        return Err(r.err("payload length does not match its configuration echo"));
    }
    let mut lanes = Vec::with_capacity(config.lanes);
    for _ in 0..config.lanes {
        let count = r.u32()?;
        let long_count = r.u32()?;
        let head = r.u32()?;
        let short_sum = r.f64()?;
        let sum_sq = r.f64()?;
        let rng_key = r.u64()?;
        let rng_ctr = r.u64()?;
        let online = r.f64()?;
        let offline = r.f64()?;
        let ring = r.f64s(w)?;
        lanes.push(LaneSnapshot {
            lane: LaneState { count, short_sum, sum_sq, long_count, head, ring },
            rng_key,
            rng_ctr,
            online,
            offline,
        });
    }
    r.finish()?;
    Ok(FleetState { config, step, lanes })
}

// ---------------------------------------------------------------------
// Scalar (degraded-ladder) codec.
// ---------------------------------------------------------------------

fn trust_to_u8(level: TrustLevel) -> u8 {
    match level {
        TrustLevel::Full => 0,
        TrustLevel::Degraded => 1,
        TrustLevel::Untrusted => 2,
    }
}

/// Encodes a scalar [`LadderState`] (degraded controller + wrapped
/// adaptive controller + estimator) as a
/// [`crate::format::FrameKind::ScalarSnapshot`] payload.
#[must_use]
pub fn encode_ladder_state(state: &LadderState) -> Vec<u8> {
    let mut out = Vec::new();
    // Wrapped controller.
    put_u32(&mut out, state.controller.min_history as u32);
    let est: &EstimatorState = &state.controller.estimator;
    put_u32(&mut out, est.window.map_or(0, |w| w as u32));
    put_f64(&mut out, est.short_sum);
    put_u64(&mut out, est.long_count as u64);
    put_u32(&mut out, est.buffer.len() as u32);
    put_f64s(&mut out, &est.buffer);
    // Ladder position + hysteresis counters.
    out.push(trust_to_u8(state.level));
    put_u32(&mut out, state.recent.len() as u32);
    for &a in &state.recent {
        out.push(u8::from(a));
    }
    put_u64(&mut out, state.clean_streak as u64);
    put_u64(&mut out, state.since_valid as u64);
    out.push(u8::from(state.last_bits.is_some()));
    put_u64(&mut out, state.last_bits.unwrap_or(0));
    put_u64(&mut out, state.run_len as u64);
    put_u64(&mut out, state.counts.non_finite);
    put_u64(&mut out, state.counts.negative);
    put_u64(&mut out, state.counts.implausible);
    put_u64(&mut out, state.counts.stuck);
    put_u64(&mut out, state.demotions);
    put_u64(&mut out, state.drift_holdoff as u64);
    out
}

/// Decodes a scalar-snapshot payload back into a [`LadderState`]. `at`
/// is the frame's file offset, carried into any error. Semantic
/// validation (window/count invariants) happens when the state is handed
/// to [`skirental::degraded::DegradedController::from_state`].
///
/// # Errors
///
/// [`PersistError::BadPayload`] naming the offset on a malformed
/// payload.
pub fn decode_ladder_state(bytes: &[u8], at: u64) -> Result<LadderState, PersistError> {
    read_ladder_state(Reader::new(bytes)).map_err(|e| e.at(at))
}

fn read_ladder_state(mut r: Reader<'_>) -> Result<LadderState, FrameError> {
    let min_history = r.u32()? as usize;
    let window = match r.u32()? {
        0 => None,
        w => Some(w as usize),
    };
    let short_sum = r.f64()?;
    let long_count = r.u64()? as usize;
    let buf_len = r.u32()? as usize;
    if buf_len.saturating_mul(8) > r.remaining() {
        return Err(r.err("estimator buffer length exceeds the payload"));
    }
    let buffer = r.f64s(buf_len)?;
    let level = match r.u8()? {
        0 => TrustLevel::Full,
        1 => TrustLevel::Degraded,
        2 => TrustLevel::Untrusted,
        _ => return Err(r.err("unknown trust level")),
    };
    let recent_len = r.u32()? as usize;
    if recent_len > r.remaining() {
        return Err(r.err("anomaly window length exceeds the payload"));
    }
    let mut recent = Vec::with_capacity(recent_len);
    for _ in 0..recent_len {
        recent.push(match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(r.err("anomaly window entry is not a boolean")),
        });
    }
    let clean_streak = r.u64()? as usize;
    let since_valid = r.u64()? as usize;
    let has_last = r.u8()?;
    let last_raw = r.u64()?;
    let last_bits = match has_last {
        0 => None,
        1 => Some(last_raw),
        _ => return Err(r.err("last-reading presence flag is not a boolean")),
    };
    let run_len = r.u64()? as usize;
    let counts = skirental::degraded::AnomalyCounts {
        non_finite: r.u64()?,
        negative: r.u64()?,
        implausible: r.u64()?,
        stuck: r.u64()?,
    };
    let demotions = r.u64()?;
    let drift_holdoff = r.u64()? as usize;
    r.finish()?;
    Ok(LadderState {
        controller: ControllerState {
            estimator: EstimatorState { window, buffer, short_sum, long_count },
            min_history,
        },
        level,
        recent,
        clean_streak,
        since_valid,
        last_bits,
        run_len,
        counts,
        demotions,
        drift_holdoff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skirental::{BreakEven, DegradationConfig, DegradedController};

    fn sample_config() -> FleetConfig {
        FleetConfig {
            lanes: 2,
            break_even: 28.0,
            window: Some(3),
            min_history: 2,
            seed: 9,
            trace_stream_base: 500,
        }
    }

    fn sample_state() -> FleetState {
        let config = sample_config();
        let lanes = (0..config.lanes)
            .map(|i| LaneSnapshot {
                lane: LaneState {
                    count: 3,
                    short_sum: 7.5 + i as f64,
                    sum_sq: 40.25,
                    long_count: 1,
                    head: 1,
                    ring: vec![3.5, 40.0, 4.0],
                },
                rng_key: 0xDEAD_BEEF + i as u64,
                rng_ctr: 17,
                online: 12.125,
                offline: 9.0,
            })
            .collect();
        FleetState { config, step: 42, lanes }
    }

    #[test]
    fn fleet_state_roundtrip_byte_identical() {
        let state = sample_state();
        let bytes = encode_fleet_state(&state);
        let back = decode_fleet_state(&bytes, 0).unwrap();
        assert_eq!(back, state);
        assert_eq!(encode_fleet_state(&back), bytes);
    }

    #[test]
    fn fleet_state_decode_rejects_wrong_lengths() {
        let bytes = encode_fleet_state(&sample_state());
        let short = &bytes[..bytes.len() - 1];
        assert!(matches!(
            decode_fleet_state(short, 12),
            Err(PersistError::BadPayload { offset: 12, .. })
        ));
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(decode_fleet_state(&long, 0), Err(PersistError::BadPayload { .. })));
    }

    #[test]
    fn config_mismatch_names_the_field() {
        let a = sample_config();
        for (b, what) in [
            (FleetConfig { lanes: 3, ..a }, "lanes"),
            (FleetConfig { break_even: 47.0, ..a }, "break_even"),
            (FleetConfig { window: None, ..a }, "window"),
            (FleetConfig { min_history: 1, ..a }, "min_history"),
            (FleetConfig { seed: 1, ..a }, "seed"),
            (FleetConfig { trace_stream_base: 0, ..a }, "trace_stream_base"),
        ] {
            assert_eq!(a.ensure_matches(&b), Err(PersistError::ConfigMismatch { what }));
        }
        assert!(a.ensure_matches(&a).is_ok());
        assert_eq!(a.meta_stream(), 502);
    }

    #[test]
    fn ladder_state_roundtrip() {
        let cfg = DegradationConfig { window: 10, demote_at: 2, ..DegradationConfig::default() };
        let mut ctl = DegradedController::new(BreakEven::new(28.0).unwrap()).config(cfg);
        for y in [5.0, 9.0, f64::NAN, f64::NAN, 3.0, 4.0] {
            ctl.observe(y);
        }
        let state = ctl.export_state();
        let bytes = encode_ladder_state(&state);
        let back = decode_ladder_state(&bytes, 0).unwrap();
        assert_eq!(back, state);
        assert_eq!(encode_ladder_state(&back), bytes);
        // The decoded state actually restores.
        let restored =
            DegradedController::from_state(BreakEven::new(28.0).unwrap(), cfg, &back).unwrap();
        assert_eq!(restored.export_state(), state);
    }

    #[test]
    fn ladder_decode_rejects_garbage_level() {
        let state = DegradedController::new(BreakEven::new(28.0).unwrap()).export_state();
        let bytes = encode_ladder_state(&state);
        // The trust-level byte sits right after the controller block:
        // 4 (min_history) + 4 (window) + 8 (sum) + 8 (long) + 4 (len) = 28.
        let mut bad = bytes.clone();
        bad[28] = 9;
        assert!(matches!(
            decode_ladder_state(&bad, 5),
            Err(PersistError::BadPayload { offset: 5, what: "unknown trust level" })
        ));
    }
}
