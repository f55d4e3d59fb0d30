//! Typed decision-trace events and their JSONL encoding.
//!
//! A [`TraceEvent`] is one tick of the online decision pipeline: a policy
//! vertex selection, an estimator update, a trust-ladder transition, a
//! sanitizer verdict, an injected fault firing, or the realized cost of a
//! stop. Events are deliberately **timestamp-free** — they are ordered by
//! the logical indices carried in the surrounding [`TraceRecord`]
//! (`stream`, `stop`, `seq`), never by wall-clock time, so a trace of a
//! seeded workload is byte-identical run to run and across worker-thread
//! counts.
//!
//! Serialization is one sorted-key JSON object per line (JSONL), emitted
//! and parsed by [`crate::json`]. Non-finite floats encode as `null`
//! (JSON has no NaN/∞ literals); optional statistics that are absent —
//! e.g. a cold-start decision with no estimate yet — also encode as
//! `null`, so re-emitting a parsed line reproduces it byte for byte.

use crate::json::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// One structured event in a decision trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The controller chose an idle threshold for the upcoming stop.
    StopDecision {
        /// Selected vertex policy (`"DET"`, `"TOI"`, `"b-DET"`,
        /// `"N-Rand"`), or the static policy's name outside the adaptive
        /// path. `Cow` so hot emitters pass their `&'static str` policy
        /// names without a per-stop `String` allocation (parsed lines
        /// carry the owned form).
        vertex: Cow<'static, str>,
        /// The drawn threshold, seconds.
        threshold_b: f64,
        /// Estimated `μ_B⁻` behind the decision; `None` on cold start.
        mu_b_minus: Option<f64>,
        /// Estimated `q_B⁺` behind the decision; `None` on cold start.
        q_b_plus: Option<f64>,
        /// Guaranteed worst-case expected cost of the chosen vertex;
        /// `None` when no statistics were available.
        chosen_cost_bound: Option<f64>,
    },
    /// The realized cost of one stop, after its true length was revealed.
    StopCost {
        /// The threshold that was in effect, seconds.
        threshold_b: f64,
        /// True stop length, seconds.
        stop_s: f64,
        /// Realized online cost, idle-equivalent seconds.
        online_s: f64,
        /// Offline-optimal cost of the same stop, idle-equivalent seconds.
        offline_s: f64,
        /// Whether the engine was shut off and restarted.
        restarted: bool,
    },
    /// The degradation ladder moved between trust levels.
    LadderTransition {
        /// Level before the transition (`"Full"`, `"Degraded"`,
        /// `"Untrusted"`).
        from: String,
        /// Level after the transition.
        to: String,
        /// Anomalies currently in the sliding window.
        anomalies_in_window: u64,
        /// Consecutive valid readings at transition time.
        clean_streak: u64,
    },
    /// The trace sanitizer quarantined one event. Accepted events are not
    /// recorded — absence of a verdict means the event passed.
    SanitizeVerdict {
        /// Index of the event in the raw input stream.
        event_index: u64,
        /// Anomaly class (`"non_finite"`, `"negative"`, `"implausible"`,
        /// `"out_of_order"`, `"duplicate"`, `"stuck"`).
        class: String,
        /// The quarantined event's start, seconds (NaN encodes as null).
        start_s: f64,
        /// The quarantined event's duration, seconds.
        duration_s: f64,
    },
    /// The moment estimator consumed (or rejected) one reading.
    EstimatorUpdate {
        /// The reading, seconds.
        observed_s: f64,
        /// Whether the reading entered the estimate.
        accepted: bool,
        /// Observations contributing to the estimate afterwards.
        len: u64,
        /// `μ̂_B⁻` afterwards; `None` while the estimator is empty.
        mu_b_minus: Option<f64>,
        /// `q̂_B⁺` afterwards; `None` while the estimator is empty.
        q_b_plus: Option<f64>,
    },
    /// A fault injector fired on one event of the stream it corrupts.
    FaultApplied {
        /// Index of the event in the injector's input stream.
        event_index: u64,
        /// Fault class (`"dropout"`, `"duplicate"`, `"clock_skew"`,
        /// `"censor"`, `"noise"`, `"stuck_at"`, `"corrupt"`).
        fault: String,
    },
    /// One shard's digest from the batched decision engine. The batch
    /// path amortizes tracing to a single event per shard: decision
    /// counts by vertex plus an order-sensitive hash of every
    /// `(threshold bits, vertex)` pair, so two runs can be compared for
    /// bit-identity without recording per-stop events.
    BatchShardDigest {
        /// Global index of the shard's first vehicle.
        shard: u64,
        /// Vehicles in the shard.
        vehicles: u64,
        /// Total decisions the shard made.
        decisions: u64,
        /// FNV-1a over `(threshold.to_bits(), vertex)` in decision order.
        threshold_hash: u64,
        /// Cold-start (insufficient-history) decisions.
        cold_start: u64,
        /// DET decisions.
        det: u64,
        /// TOI decisions.
        toi: u64,
        /// b-DET decisions.
        b_det: u64,
        /// N-Rand decisions (estimator-backed).
        n_rand: u64,
    },
    /// The persistence layer wrote one state snapshot (checkpoint) of a
    /// running fleet.
    Checkpoint {
        /// Fleet step (stops per vehicle processed) the snapshot captures.
        step: u64,
        /// Lanes (vehicles) captured.
        lanes: u64,
        /// Journal frames written so far (including the header).
        journal_frames: u64,
        /// Bytes appended: the snapshot frame and its checkpoint frame.
        bytes: u64,
    },
    /// The persistence layer recovered a fleet from disk: latest valid
    /// snapshot plus journal-tail replay.
    Recovery {
        /// Fleet step the recovered state resumes from.
        resumed_step: u64,
        /// Step of the snapshot used (`0` when recovery cold-started).
        snapshot_step: u64,
        /// Journal observation frames replayed on top of the snapshot.
        frames_replayed: u64,
        /// Whether a torn (partially-written) trailing frame was
        /// discarded as a clean crash artifact.
        torn_tail_dropped: bool,
        /// Byte-identical duplicate frames skipped (write retries).
        duplicates_skipped: u64,
        /// Corrupt snapshot frames rejected before one verified.
        snapshots_rejected: u64,
    },
    /// The streaming monitor raised an alarm on this stream (see
    /// `crate::monitor`). Recorded immediately after the event that
    /// tripped it, at the next `seq` positions, so alarms interleave
    /// deterministically with the causal chain.
    MonitorAlarm {
        /// Alarm class (`"drift"`, `"vertex_mismatch"`, `"cr_bound"`).
        alarm: String,
        /// What specifically tripped (`"mu_b_minus"`, `"q_b_plus"`,
        /// `"played TOI, windowed argmin DET"`, …).
        detail: String,
        /// The statistic that crossed the limit (Page-Hinkley statistic,
        /// mismatch streak length, windowed realized CR).
        observed: f64,
        /// The limit it crossed (λ, streak threshold, bound × margin).
        limit: f64,
        /// Detector population: observations consumed (drift) or the
        /// configured window length (mismatch / CR bound).
        window_len: u64,
    },
    /// The streaming monitor's tail-budget detector latched: the
    /// windowed exceedance estimate `P(CR > τ)` crossed the budget `δ`
    /// with margin (see `crate::monitor`). Distinct from
    /// [`TraceEvent::MonitorAlarm`] so replay tooling can filter tail
    /// alarms without string-matching alarm classes.
    TailBudgetAlarm {
        /// The CR threshold τ the budget is stated against.
        tau: f64,
        /// The exceedance budget δ (`P(CR > τ) ≤ δ`).
        delta: f64,
        /// The windowed exceedance fraction that tripped the latch.
        observed: f64,
        /// Stops in the window with realized `CR > τ`.
        exceeded: u64,
        /// The window length the fraction was measured over.
        window_len: u64,
    },
    /// A decision-daemon session/connection lifecycle event (client
    /// connect/disconnect, backpressure rejection, subscription,
    /// shutdown). Emitted on the fleet's *meta* stream, never on a lane
    /// stream, so byte-identical lane-trace comparisons are unaffected
    /// by how many clients happened to be attached.
    Session {
        /// What happened (`"client_connected"`, `"client_disconnected"`,
        /// `"busy_rejected"`, `"subscribed"`, `"shutdown"`). `Cow` so
        /// the daemon's hot paths emit `&'static str` tags without a
        /// per-event allocation.
        what: Cow<'static, str>,
        /// Daemon-assigned connection id.
        client: u64,
        /// Fleet step at the time of the event.
        step: u64,
        /// Free-form context (socket kind, rejection queue depth, …).
        detail: String,
    },
}

impl TraceEvent {
    /// The event's `type` tag as it appears in the JSONL encoding.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::StopDecision { .. } => "stop_decision",
            Self::StopCost { .. } => "stop_cost",
            Self::LadderTransition { .. } => "ladder_transition",
            Self::SanitizeVerdict { .. } => "sanitize_verdict",
            Self::EstimatorUpdate { .. } => "estimator_update",
            Self::FaultApplied { .. } => "fault_applied",
            Self::BatchShardDigest { .. } => "batch_shard_digest",
            Self::Checkpoint { .. } => "checkpoint",
            Self::Recovery { .. } => "recovery",
            Self::MonitorAlarm { .. } => "monitor_alarm",
            Self::TailBudgetAlarm { .. } => "tail_budget_alarm",
            Self::Session { .. } => "session",
        }
    }

    /// A human-readable one-line rendering, used by the `trace_explain`
    /// causal chain.
    #[must_use]
    pub fn describe(&self) -> String {
        fn opt(x: Option<f64>) -> String {
            x.map_or_else(|| "—".to_string(), |v| format!("{v:.4}"))
        }
        match self {
            Self::StopDecision { vertex, threshold_b, mu_b_minus, q_b_plus, chosen_cost_bound } => {
                if mu_b_minus.is_none() && q_b_plus.is_none() {
                    format!(
                        "decision: vertex {vertex} (no estimator statistics), \
                         threshold {threshold_b:.4} s"
                    )
                } else {
                    format!(
                        "decision: vertex {vertex}, threshold {threshold_b:.4} s \
                         (μ̂_B⁻ = {}, q̂_B⁺ = {}, worst-case cost bound {} s)",
                        opt(*mu_b_minus),
                        opt(*q_b_plus),
                        opt(*chosen_cost_bound)
                    )
                }
            }
            Self::StopCost { threshold_b, stop_s, online_s, offline_s, restarted } => {
                let action = if *restarted { "shut off + restarted" } else { "idled through" };
                format!(
                    "realized: stop {stop_s:.4} s vs threshold {threshold_b:.4} s → {action} \
                     (online {online_s:.4} s, offline {offline_s:.4} s)"
                )
            }
            Self::LadderTransition { from, to, anomalies_in_window, clean_streak } => format!(
                "trust: {from} → {to} ({anomalies_in_window} anomalies in window, \
                 clean streak {clean_streak})"
            ),
            Self::SanitizeVerdict { event_index, class, start_s, duration_s } => format!(
                "sanitizer: dropped event #{event_index} as {class} \
                 (start {start_s:.4} s, duration {duration_s:.4} s)"
            ),
            Self::EstimatorUpdate { observed_s, accepted, len, mu_b_minus, q_b_plus } => {
                let verdict = if *accepted { "accepted" } else { "rejected" };
                format!(
                    "estimator: {verdict} reading {observed_s:.4} s \
                     (n = {len}, μ̂_B⁻ = {}, q̂_B⁺ = {})",
                    opt(*mu_b_minus),
                    opt(*q_b_plus)
                )
            }
            Self::FaultApplied { event_index, fault } => {
                format!("fault: {fault} fired on event #{event_index}")
            }
            Self::BatchShardDigest {
                shard,
                vehicles,
                decisions,
                threshold_hash,
                cold_start,
                det,
                toi,
                b_det,
                n_rand,
            } => format!(
                "batch shard @{shard}: {vehicles} vehicles, {decisions} decisions \
                 (cold {cold_start}, DET {det}, TOI {toi}, b-DET {b_det}, N-Rand {n_rand}), \
                 threshold hash {threshold_hash:#018x}"
            ),
            Self::Checkpoint { step, lanes, journal_frames, bytes } => format!(
                "checkpoint: snapshot at step {step} ({lanes} lanes, \
                 {journal_frames} journal frames, {bytes} bytes)"
            ),
            Self::Recovery {
                resumed_step,
                snapshot_step,
                frames_replayed,
                torn_tail_dropped,
                duplicates_skipped,
                snapshots_rejected,
            } => format!(
                "recovery: resumed at step {resumed_step} \
                 (snapshot at {snapshot_step} + {frames_replayed} frames replayed, \
                 torn tail dropped: {torn_tail_dropped}, \
                 {duplicates_skipped} duplicates skipped, \
                 {snapshots_rejected} snapshots rejected)"
            ),
            Self::MonitorAlarm { alarm, detail, observed, limit, window_len } => format!(
                "ALARM [{alarm}]: {detail} \
                 (observed {observed:.4} > limit {limit:.4}, n = {window_len})"
            ),
            Self::TailBudgetAlarm { tau, delta, observed, exceeded, window_len } => format!(
                "ALARM [tail_budget]: P(CR > {tau:.4}) = {observed:.4} \
                 ({exceeded}/{window_len} stops) over budget δ = {delta:.4}"
            ),
            Self::Session { what, client, step, detail } => {
                format!("session: {what} (client {client}, step {step}) {detail}")
            }
        }
    }
}

/// One recorded event plus the logical coordinates that order it.
///
/// Traces are totally ordered by `(stream, stop, seq)`: `stream` is the
/// unit of sequential work (one vehicle, one sweep cell), `stop` the
/// stop index within the stream, and `seq` a per-stream monotonic
/// counter. Because each stream is processed sequentially on a single
/// worker thread, this key is independent of how streams were sharded
/// over threads — the foundation of the byte-identical-trace guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// The stream (vehicle / work item) the event belongs to.
    pub stream: u64,
    /// Stop index within the stream, set by `tracer::begin_stop`.
    pub stop: u64,
    /// Per-stream monotonic sequence number.
    pub seq: u64,
    /// The event itself.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// The merge key: records sort by `(stream, stop, seq)`.
    #[must_use]
    pub fn key(&self) -> (u64, u64, u64) {
        (self.stream, self.stop, self.seq)
    }

    /// The packed `stop_id` (`stream << 32 | stop`) the trace format is
    /// specified against; [`TraceRecord::key`] is its unpacked form.
    #[must_use]
    pub fn stop_id(&self) -> u64 {
        (self.stream << 32) | (self.stop & 0xffff_ffff)
    }

    /// Encodes the record as one sorted-key JSON object (no trailing
    /// newline). Deterministic: the same record always produces the same
    /// bytes.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut obj = BTreeMap::new();
        obj.insert("stream".to_string(), Value::UInt(self.stream));
        obj.insert("stop".to_string(), Value::UInt(self.stop));
        obj.insert("seq".to_string(), Value::UInt(self.seq));
        obj.insert("type".to_string(), Value::Str(self.event.kind().to_string()));
        match &self.event {
            TraceEvent::StopDecision {
                vertex,
                threshold_b,
                mu_b_minus,
                q_b_plus,
                chosen_cost_bound,
            } => {
                obj.insert("vertex".to_string(), Value::Str(vertex.to_string()));
                obj.insert("threshold_b".to_string(), Value::float(*threshold_b));
                obj.insert("mu_b_minus".to_string(), opt_float(*mu_b_minus));
                obj.insert("q_b_plus".to_string(), opt_float(*q_b_plus));
                obj.insert("chosen_cost_bound".to_string(), opt_float(*chosen_cost_bound));
            }
            TraceEvent::StopCost { threshold_b, stop_s, online_s, offline_s, restarted } => {
                obj.insert("threshold_b".to_string(), Value::float(*threshold_b));
                obj.insert("stop_s".to_string(), Value::float(*stop_s));
                obj.insert("online_s".to_string(), Value::float(*online_s));
                obj.insert("offline_s".to_string(), Value::float(*offline_s));
                obj.insert("restarted".to_string(), Value::Bool(*restarted));
            }
            TraceEvent::LadderTransition { from, to, anomalies_in_window, clean_streak } => {
                obj.insert("from".to_string(), Value::Str(from.clone()));
                obj.insert("to".to_string(), Value::Str(to.clone()));
                obj.insert("anomalies_in_window".to_string(), Value::UInt(*anomalies_in_window));
                obj.insert("clean_streak".to_string(), Value::UInt(*clean_streak));
            }
            TraceEvent::SanitizeVerdict { event_index, class, start_s, duration_s } => {
                obj.insert("event_index".to_string(), Value::UInt(*event_index));
                obj.insert("class".to_string(), Value::Str(class.clone()));
                obj.insert("start_s".to_string(), Value::float(*start_s));
                obj.insert("duration_s".to_string(), Value::float(*duration_s));
            }
            TraceEvent::EstimatorUpdate { observed_s, accepted, len, mu_b_minus, q_b_plus } => {
                obj.insert("observed_s".to_string(), Value::float(*observed_s));
                obj.insert("accepted".to_string(), Value::Bool(*accepted));
                obj.insert("len".to_string(), Value::UInt(*len));
                obj.insert("mu_b_minus".to_string(), opt_float(*mu_b_minus));
                obj.insert("q_b_plus".to_string(), opt_float(*q_b_plus));
            }
            TraceEvent::FaultApplied { event_index, fault } => {
                obj.insert("event_index".to_string(), Value::UInt(*event_index));
                obj.insert("fault".to_string(), Value::Str(fault.clone()));
            }
            TraceEvent::BatchShardDigest {
                shard,
                vehicles,
                decisions,
                threshold_hash,
                cold_start,
                det,
                toi,
                b_det,
                n_rand,
            } => {
                obj.insert("shard".to_string(), Value::UInt(*shard));
                obj.insert("vehicles".to_string(), Value::UInt(*vehicles));
                obj.insert("decisions".to_string(), Value::UInt(*decisions));
                obj.insert("threshold_hash".to_string(), Value::UInt(*threshold_hash));
                obj.insert("cold_start".to_string(), Value::UInt(*cold_start));
                obj.insert("det".to_string(), Value::UInt(*det));
                obj.insert("toi".to_string(), Value::UInt(*toi));
                obj.insert("b_det".to_string(), Value::UInt(*b_det));
                obj.insert("n_rand".to_string(), Value::UInt(*n_rand));
            }
            TraceEvent::Checkpoint { step, lanes, journal_frames, bytes } => {
                obj.insert("step".to_string(), Value::UInt(*step));
                obj.insert("lanes".to_string(), Value::UInt(*lanes));
                obj.insert("journal_frames".to_string(), Value::UInt(*journal_frames));
                obj.insert("bytes".to_string(), Value::UInt(*bytes));
            }
            TraceEvent::Recovery {
                resumed_step,
                snapshot_step,
                frames_replayed,
                torn_tail_dropped,
                duplicates_skipped,
                snapshots_rejected,
            } => {
                obj.insert("resumed_step".to_string(), Value::UInt(*resumed_step));
                obj.insert("snapshot_step".to_string(), Value::UInt(*snapshot_step));
                obj.insert("frames_replayed".to_string(), Value::UInt(*frames_replayed));
                obj.insert("torn_tail_dropped".to_string(), Value::Bool(*torn_tail_dropped));
                obj.insert("duplicates_skipped".to_string(), Value::UInt(*duplicates_skipped));
                obj.insert("snapshots_rejected".to_string(), Value::UInt(*snapshots_rejected));
            }
            TraceEvent::MonitorAlarm { alarm, detail, observed, limit, window_len } => {
                obj.insert("alarm".to_string(), Value::Str(alarm.clone()));
                obj.insert("detail".to_string(), Value::Str(detail.clone()));
                obj.insert("observed".to_string(), Value::float(*observed));
                obj.insert("limit".to_string(), Value::float(*limit));
                obj.insert("window_len".to_string(), Value::UInt(*window_len));
            }
            TraceEvent::TailBudgetAlarm { tau, delta, observed, exceeded, window_len } => {
                obj.insert("tau".to_string(), Value::float(*tau));
                obj.insert("delta".to_string(), Value::float(*delta));
                obj.insert("observed".to_string(), Value::float(*observed));
                obj.insert("exceeded".to_string(), Value::UInt(*exceeded));
                obj.insert("window_len".to_string(), Value::UInt(*window_len));
            }
            TraceEvent::Session { what, client, step, detail } => {
                obj.insert("what".to_string(), Value::Str(what.to_string()));
                obj.insert("client".to_string(), Value::UInt(*client));
                obj.insert("step".to_string(), Value::UInt(*step));
                obj.insert("detail".to_string(), Value::Str(detail.clone()));
            }
        }
        Value::Obj(obj).to_string()
    }

    /// Parses one JSONL line back into a record.
    ///
    /// Re-encoding the result reproduces the input byte for byte (the
    /// encoding is canonical: sorted keys, shortest-round-trip floats,
    /// `null` for non-finite/absent values).
    ///
    /// # Errors
    ///
    /// Returns [`EventError`] on malformed JSON, an unknown `type` tag,
    /// or a missing/ill-typed field.
    pub fn from_json_line(line: &str) -> Result<Self, EventError> {
        let value = Value::parse(line).map_err(|e| EventError { message: e.to_string() })?;
        let obj = value.as_obj().ok_or_else(|| err("trace line is not a JSON object"))?;
        let stream = req_u64(obj, "stream")?;
        let stop = req_u64(obj, "stop")?;
        let seq = req_u64(obj, "seq")?;
        let kind = req_str(obj, "type")?;
        let event = match kind.as_str() {
            "stop_decision" => TraceEvent::StopDecision {
                vertex: req_str(obj, "vertex")?.into(),
                threshold_b: req_f64(obj, "threshold_b")?,
                mu_b_minus: opt_f64(obj, "mu_b_minus"),
                q_b_plus: opt_f64(obj, "q_b_plus"),
                chosen_cost_bound: opt_f64(obj, "chosen_cost_bound"),
            },
            "stop_cost" => TraceEvent::StopCost {
                threshold_b: req_f64(obj, "threshold_b")?,
                stop_s: req_f64(obj, "stop_s")?,
                online_s: req_f64(obj, "online_s")?,
                offline_s: req_f64(obj, "offline_s")?,
                restarted: req_bool(obj, "restarted")?,
            },
            "ladder_transition" => TraceEvent::LadderTransition {
                from: req_str(obj, "from")?,
                to: req_str(obj, "to")?,
                anomalies_in_window: req_u64(obj, "anomalies_in_window")?,
                clean_streak: req_u64(obj, "clean_streak")?,
            },
            "sanitize_verdict" => TraceEvent::SanitizeVerdict {
                event_index: req_u64(obj, "event_index")?,
                class: req_str(obj, "class")?,
                start_s: req_f64(obj, "start_s")?,
                duration_s: req_f64(obj, "duration_s")?,
            },
            "estimator_update" => TraceEvent::EstimatorUpdate {
                observed_s: req_f64(obj, "observed_s")?,
                accepted: req_bool(obj, "accepted")?,
                len: req_u64(obj, "len")?,
                mu_b_minus: opt_f64(obj, "mu_b_minus"),
                q_b_plus: opt_f64(obj, "q_b_plus"),
            },
            "fault_applied" => TraceEvent::FaultApplied {
                event_index: req_u64(obj, "event_index")?,
                fault: req_str(obj, "fault")?,
            },
            "batch_shard_digest" => TraceEvent::BatchShardDigest {
                shard: req_u64(obj, "shard")?,
                vehicles: req_u64(obj, "vehicles")?,
                decisions: req_u64(obj, "decisions")?,
                threshold_hash: req_u64(obj, "threshold_hash")?,
                cold_start: req_u64(obj, "cold_start")?,
                det: req_u64(obj, "det")?,
                toi: req_u64(obj, "toi")?,
                b_det: req_u64(obj, "b_det")?,
                n_rand: req_u64(obj, "n_rand")?,
            },
            "checkpoint" => TraceEvent::Checkpoint {
                step: req_u64(obj, "step")?,
                lanes: req_u64(obj, "lanes")?,
                journal_frames: req_u64(obj, "journal_frames")?,
                bytes: req_u64(obj, "bytes")?,
            },
            "recovery" => TraceEvent::Recovery {
                resumed_step: req_u64(obj, "resumed_step")?,
                snapshot_step: req_u64(obj, "snapshot_step")?,
                frames_replayed: req_u64(obj, "frames_replayed")?,
                torn_tail_dropped: req_bool(obj, "torn_tail_dropped")?,
                duplicates_skipped: req_u64(obj, "duplicates_skipped")?,
                snapshots_rejected: req_u64(obj, "snapshots_rejected")?,
            },
            "monitor_alarm" => TraceEvent::MonitorAlarm {
                alarm: req_str(obj, "alarm")?,
                detail: req_str(obj, "detail")?,
                observed: req_f64(obj, "observed")?,
                limit: req_f64(obj, "limit")?,
                window_len: req_u64(obj, "window_len")?,
            },
            "tail_budget_alarm" => TraceEvent::TailBudgetAlarm {
                tau: req_f64(obj, "tau")?,
                delta: req_f64(obj, "delta")?,
                observed: req_f64(obj, "observed")?,
                exceeded: req_u64(obj, "exceeded")?,
                window_len: req_u64(obj, "window_len")?,
            },
            "session" => TraceEvent::Session {
                what: req_str(obj, "what")?.into(),
                client: req_u64(obj, "client")?,
                step: req_u64(obj, "step")?,
                detail: req_str(obj, "detail")?,
            },
            other => return Err(err(&format!("unknown trace event type {other:?}"))),
        };
        Ok(Self { stream, stop, seq, event })
    }
}

/// Serializes records as JSONL: one line per record plus a trailing
/// newline (empty input produces an empty string).
#[must_use]
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json_line());
        out.push('\n');
    }
    out
}

/// Parses a JSONL document into records, skipping blank lines.
///
/// # Errors
///
/// Returns [`EventError`] naming the 1-based line number of the first
/// malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, EventError> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = TraceRecord::from_json_line(line)
            .map_err(|e| err(&format!("line {}: {}", i + 1, e.message)))?;
        records.push(rec);
    }
    Ok(records)
}

/// A malformed trace line (bad JSON, unknown type, missing field).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace event error: {}", self.message)
    }
}

impl std::error::Error for EventError {}

fn err(message: &str) -> EventError {
    EventError { message: message.to_string() }
}

fn opt_float(x: Option<f64>) -> Value {
    x.map_or(Value::Null, Value::float)
}

fn req_u64(obj: &BTreeMap<String, Value>, key: &str) -> Result<u64, EventError> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| err(&format!("missing or non-integer field {key:?}")))
}

fn req_f64(obj: &BTreeMap<String, Value>, key: &str) -> Result<f64, EventError> {
    obj.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| err(&format!("missing or non-numeric field {key:?}")))
}

/// Optional float: an absent key or `null` is `None` (on the wire `null`
/// doubles as the encoding of NaN, so optional fields never carry NaN).
fn opt_f64(obj: &BTreeMap<String, Value>, key: &str) -> Option<f64> {
    match obj.get(key) {
        None | Some(Value::Null) => None,
        Some(v) => v.as_f64(),
    }
}

fn req_str(obj: &BTreeMap<String, Value>, key: &str) -> Result<String, EventError> {
    obj.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| err(&format!("missing or non-string field {key:?}")))
}

fn req_bool(obj: &BTreeMap<String, Value>, key: &str) -> Result<bool, EventError> {
    match obj.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(err(&format!("missing or non-boolean field {key:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                stream: 3,
                stop: 7,
                seq: 21,
                event: TraceEvent::StopDecision {
                    vertex: "b-DET".into(),
                    threshold_b: 12.25,
                    mu_b_minus: Some(5.5),
                    q_b_plus: Some(0.125),
                    chosen_cost_bound: Some(17.75),
                },
            },
            TraceRecord {
                stream: 3,
                stop: 7,
                seq: 22,
                event: TraceEvent::StopCost {
                    threshold_b: 12.25,
                    stop_s: 40.0,
                    online_s: 40.25,
                    offline_s: 28.0,
                    restarted: true,
                },
            },
            TraceRecord {
                stream: 0,
                stop: 0,
                seq: 0,
                event: TraceEvent::LadderTransition {
                    from: "Full".to_string(),
                    to: "Untrusted".to_string(),
                    anomalies_in_window: 9,
                    clean_streak: 0,
                },
            },
            TraceRecord {
                stream: 1,
                stop: 4,
                seq: 2,
                event: TraceEvent::SanitizeVerdict {
                    event_index: 4,
                    class: "non_finite".to_string(),
                    start_s: 60.0,
                    duration_s: f64::NAN,
                },
            },
            TraceRecord {
                stream: 1,
                stop: 5,
                seq: 3,
                event: TraceEvent::EstimatorUpdate {
                    observed_s: 8.5,
                    accepted: true,
                    len: 41,
                    mu_b_minus: None,
                    q_b_plus: None,
                },
            },
            TraceRecord {
                stream: 2,
                stop: 9,
                seq: 1,
                event: TraceEvent::FaultApplied { event_index: 9, fault: "stuck_at".to_string() },
            },
            TraceRecord {
                stream: 5,
                stop: 0,
                seq: 0,
                event: TraceEvent::BatchShardDigest {
                    shard: 24,
                    vehicles: 12,
                    decisions: 4800,
                    threshold_hash: 0xdead_beef_cafe_f00d,
                    cold_start: 12,
                    det: 3000,
                    toi: 900,
                    b_det: 488,
                    n_rand: 400,
                },
            },
            TraceRecord {
                stream: 6,
                stop: 0,
                seq: 1,
                event: TraceEvent::Checkpoint {
                    step: 48,
                    lanes: 96,
                    journal_frames: 49,
                    bytes: 44_212,
                },
            },
            TraceRecord {
                stream: 6,
                stop: 0,
                seq: 2,
                event: TraceEvent::Recovery {
                    resumed_step: 57,
                    snapshot_step: 48,
                    frames_replayed: 9,
                    torn_tail_dropped: true,
                    duplicates_skipped: 1,
                    snapshots_rejected: 0,
                },
            },
            TraceRecord {
                stream: 4,
                stop: 120,
                seq: 5,
                event: TraceEvent::MonitorAlarm {
                    alarm: "drift".to_string(),
                    detail: "q_b_plus".to_string(),
                    observed: 2.625,
                    limit: 2.0,
                    window_len: 73,
                },
            },
            TraceRecord {
                stream: 4,
                stop: 121,
                seq: 6,
                event: TraceEvent::TailBudgetAlarm {
                    tau: 2.0,
                    delta: 0.05,
                    observed: 0.125,
                    exceeded: 5,
                    window_len: 40,
                },
            },
            TraceRecord {
                stream: 96,
                stop: 30,
                seq: 1,
                event: TraceEvent::Session {
                    what: "busy_rejected".into(),
                    client: 4,
                    step: 30,
                    detail: "queue 8/8".to_string(),
                },
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip_is_byte_identical() {
        for rec in sample_records() {
            let line = rec.to_json_line();
            let back = TraceRecord::from_json_line(&line).unwrap();
            assert_eq!(back.to_json_line(), line, "re-emission drifted for {line}");
            assert_eq!(back.key(), rec.key());
            assert_eq!(back.event.kind(), rec.event.kind());
        }
    }

    #[test]
    fn jsonl_document_roundtrip() {
        let records = sample_records();
        let doc = to_jsonl(&records);
        let back = parse_jsonl(&doc).unwrap();
        assert_eq!(to_jsonl(&back), doc);
        assert_eq!(back.len(), records.len());
    }

    #[test]
    fn nan_encodes_as_null_and_stays_null() {
        let rec = &sample_records()[3];
        let line = rec.to_json_line();
        assert!(line.contains("\"duration_s\":null"), "{line}");
        let back = TraceRecord::from_json_line(&line).unwrap();
        match back.event {
            TraceEvent::SanitizeVerdict { duration_s, .. } => assert!(duration_s.is_nan()),
            _ => panic!("wrong variant"),
        }
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn stop_id_packs_stream_and_stop() {
        let rec = &sample_records()[0];
        assert_eq!(rec.stop_id(), (3 << 32) | 7);
        assert_eq!(rec.key(), (3, 7, 21));
    }

    #[test]
    fn parse_errors_name_the_line() {
        let doc = "{\"seq\":0,\"stop\":0,\"stream\":0,\"type\":\"stop_cost\"}\nnot json\n";
        let e = parse_jsonl(doc).unwrap_err();
        assert!(e.message.contains("line 1"), "{e}");
        let e2 =
            parse_jsonl("{\"type\":\"mystery\",\"seq\":0,\"stop\":0,\"stream\":0}").unwrap_err();
        assert!(e2.message.contains("mystery"), "{e2}");
        assert!(!e2.to_string().is_empty());
    }

    #[test]
    fn describe_is_human_readable() {
        for rec in sample_records() {
            let text = rec.event.describe();
            assert!(!text.is_empty());
        }
        let cold = TraceEvent::StopDecision {
            vertex: "N-Rand".into(),
            threshold_b: 3.0,
            mu_b_minus: None,
            q_b_plus: None,
            chosen_cost_bound: None,
        };
        assert!(cold.describe().contains("no estimator statistics"));
    }
}
