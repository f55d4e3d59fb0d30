//! Snapshot types and the machine-readable [`RunReport`].

use crate::json::{ParseError, Value};
use crate::metrics::SUM_SCALE;
use crate::monitor::{AlarmRecord, MonitorReport, StreamSummary};
use crate::risk::RiskReport;
use std::collections::BTreeMap;
use std::fmt;

/// Schema version stamped into every report; bump on breaking layout
/// changes so the perf gate can reject stale baselines with a clear
/// message instead of a key-mismatch puzzle.
pub const REPORT_VERSION: u64 = 1;

/// An immutable capture of one histogram's state.
///
/// `counts[i]` is the number of recorded values `v` with
/// `bounds[i-1] < v <= bounds[i]` (first bucket: `v <= bounds[0]`; last
/// bucket: `v > bounds[last]`), so `counts.len() == bounds.len() + 1`.
/// The sum is kept in fixed-point microunits, which makes [`merge`]
/// exactly associative and commutative — integer addition, no
/// floating-point reassociation error.
///
/// [`merge`]: HistogramSnapshot::merge
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (one more than `bounds`).
    pub counts: Vec<u64>,
    /// Sum of recorded values, in microunits.
    pub sum_micros: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean recorded value (`0.0` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_micros as f64 / SUM_SCALE / n as f64
        }
    }

    /// Combines two snapshots of histograms with identical bounds, or
    /// `None` on a bounds mismatch. Exactly associative and commutative.
    #[must_use]
    pub fn merge(&self, other: &Self) -> Option<Self> {
        if self.bounds != other.bounds || self.counts.len() != other.counts.len() {
            return None;
        }
        Some(Self {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a.saturating_add(*b))
                .collect(),
            sum_micros: self.sum_micros.saturating_add(other.sum_micros),
        })
    }

    fn to_value(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert(
            "bounds".to_string(),
            Value::Arr(self.bounds.iter().map(|&b| Value::float(b)).collect()),
        );
        obj.insert(
            "counts".to_string(),
            Value::Arr(self.counts.iter().map(|&c| Value::UInt(c)).collect()),
        );
        obj.insert("sum_micros".to_string(), Value::UInt(self.sum_micros));
        Value::Obj(obj)
    }

    fn from_value(name: &str, v: &Value) -> Result<Self, ReportError> {
        let obj = v.as_obj().ok_or_else(|| ReportError::shape(name, "histogram object"))?;
        let bounds = obj
            .get("bounds")
            .and_then(Value::as_arr)
            .ok_or_else(|| ReportError::shape(name, "bounds array"))?
            .iter()
            .map(|b| b.as_f64().ok_or_else(|| ReportError::shape(name, "numeric bound")))
            .collect::<Result<Vec<f64>, _>>()?;
        let counts = obj
            .get("counts")
            .and_then(Value::as_arr)
            .ok_or_else(|| ReportError::shape(name, "counts array"))?
            .iter()
            .map(|c| c.as_u64().ok_or_else(|| ReportError::shape(name, "integer count")))
            .collect::<Result<Vec<u64>, _>>()?;
        if counts.len() != bounds.len() + 1 {
            return Err(ReportError::shape(name, "counts.len() == bounds.len() + 1"));
        }
        let sum_micros = obj
            .get("sum_micros")
            .and_then(Value::as_u64)
            .ok_or_else(|| ReportError::shape(name, "integer sum_micros"))?;
        Ok(Self { bounds, counts, sum_micros })
    }
}

/// All metric values of a registry at one instant, sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name (`0` when absent — an unexercised code path
    /// never registers its metrics).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// A machine-readable record of one harness run: metadata, wall-clock
/// time, and a full [`MetricsSnapshot`]. Serializes to deterministic,
/// diff-stable JSON (sorted keys, shortest-round-trip floats).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Schema version ([`REPORT_VERSION`]).
    pub version: u64,
    /// The binary (or workload) that produced the report.
    pub bin: String,
    /// Free-form metadata: seed, thread count, git describe, …
    pub meta: BTreeMap<String, String>,
    /// Wall-clock duration of the measured section, seconds.
    pub wall_s: f64,
    /// The metric values.
    pub metrics: MetricsSnapshot,
    /// Streaming-monitor aggregates, present only when the run had the
    /// monitor enabled (`--monitor`). Absent ≠ empty: `None` omits the
    /// key entirely, so pre-monitor reports re-emit byte-identically.
    pub monitor: Option<MonitorReport>,
    /// Realized-CR risk digests, present only when the run had the risk
    /// plane enabled (`--risk`). Same absent ≠ empty contract as the
    /// monitor section.
    pub risk: Option<RiskReport>,
}

impl RunReport {
    /// Builds a report around a snapshot.
    #[must_use]
    pub fn new(bin: &str, wall_s: f64, metrics: MetricsSnapshot) -> Self {
        Self {
            version: REPORT_VERSION,
            bin: bin.to_string(),
            meta: BTreeMap::new(),
            wall_s,
            metrics,
            monitor: None,
            risk: None,
        }
    }

    /// Adds one metadata entry; returns `self` for chaining.
    #[must_use]
    pub fn with_meta(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.meta.insert(key.to_string(), value.to_string());
        self
    }

    /// Attaches a streaming-monitor report; returns `self` for chaining.
    #[must_use]
    pub fn with_monitor(mut self, monitor: MonitorReport) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Attaches a risk report; returns `self` for chaining.
    #[must_use]
    pub fn with_risk(mut self, risk: RiskReport) -> Self {
        self.risk = Some(risk);
        self
    }

    /// A 64-bit FNV-1a fingerprint (16 hex digits) over the report's
    /// identity: `bin` plus every sorted meta pair except a previously
    /// stamped `config_fingerprint` itself. Two runs of the same binary
    /// with the same configuration metadata (seed, threads, tolerance, …)
    /// fingerprint identically regardless of their measured values, so
    /// the fingerprint answers "are these two reports comparable?"
    /// without the comparison logic having to enumerate meta keys.
    #[must_use]
    pub fn config_fingerprint(&self) -> String {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
            // NUL-separate fields so ("ab","c") ≠ ("a","bc").
            h ^= 0;
            h = h.wrapping_mul(FNV_PRIME);
        };
        eat(self.bin.as_bytes());
        for (k, v) in &self.meta {
            if k == "config_fingerprint" {
                continue;
            }
            eat(k.as_bytes());
            eat(v.as_bytes());
        }
        format!("{h:016x}")
    }

    /// Serializes to a single-line JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut obj = BTreeMap::new();
        obj.insert("version".to_string(), Value::UInt(self.version));
        obj.insert("bin".to_string(), Value::Str(self.bin.clone()));
        obj.insert(
            "meta".to_string(),
            Value::Obj(self.meta.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone()))).collect()),
        );
        obj.insert("wall_s".to_string(), Value::float(self.wall_s));
        obj.insert(
            "counters".to_string(),
            Value::Obj(
                self.metrics.counters.iter().map(|(k, &v)| (k.clone(), Value::UInt(v))).collect(),
            ),
        );
        obj.insert(
            "gauges".to_string(),
            Value::Obj(
                self.metrics.gauges.iter().map(|(k, &v)| (k.clone(), Value::float(v))).collect(),
            ),
        );
        obj.insert(
            "histograms".to_string(),
            Value::Obj(
                self.metrics.histograms.iter().map(|(k, h)| (k.clone(), h.to_value())).collect(),
            ),
        );
        if let Some(monitor) = &self.monitor {
            obj.insert("monitor".to_string(), monitor_to_value(monitor));
        }
        if let Some(risk) = &self.risk {
            obj.insert("risk".to_string(), risk.to_value());
        }
        Value::Obj(obj).to_string()
    }

    /// Parses a report previously emitted by [`RunReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ReportError`] on malformed JSON, a missing or mistyped
    /// field, or a schema version newer than this library understands.
    pub fn from_json(input: &str) -> Result<Self, ReportError> {
        let root = Value::parse(input)?;
        let obj = root.as_obj().ok_or_else(|| ReportError::shape("<root>", "object"))?;
        let version = obj
            .get("version")
            .and_then(Value::as_u64)
            .ok_or_else(|| ReportError::shape("version", "integer"))?;
        if version > REPORT_VERSION {
            return Err(ReportError::Version { found: version, supported: REPORT_VERSION });
        }
        let bin = obj
            .get("bin")
            .and_then(Value::as_str)
            .ok_or_else(|| ReportError::shape("bin", "string"))?
            .to_string();
        let mut meta = BTreeMap::new();
        if let Some(m) = obj.get("meta").and_then(Value::as_obj) {
            for (k, v) in m {
                meta.insert(
                    k.clone(),
                    v.as_str()
                        .ok_or_else(|| ReportError::shape(k, "string meta value"))?
                        .to_string(),
                );
            }
        }
        let wall_s = obj
            .get("wall_s")
            .and_then(Value::as_f64)
            .ok_or_else(|| ReportError::shape("wall_s", "number"))?;
        let mut metrics = MetricsSnapshot::default();
        if let Some(c) = obj.get("counters").and_then(Value::as_obj) {
            for (k, v) in c {
                metrics.counters.insert(
                    k.clone(),
                    v.as_u64().ok_or_else(|| ReportError::shape(k, "integer counter"))?,
                );
            }
        }
        if let Some(g) = obj.get("gauges").and_then(Value::as_obj) {
            for (k, v) in g {
                metrics.gauges.insert(
                    k.clone(),
                    v.as_f64().ok_or_else(|| ReportError::shape(k, "numeric gauge"))?,
                );
            }
        }
        if let Some(h) = obj.get("histograms").and_then(Value::as_obj) {
            for (k, v) in h {
                metrics.histograms.insert(k.clone(), HistogramSnapshot::from_value(k, v)?);
            }
        }
        let monitor = match obj.get("monitor") {
            Some(v) => Some(monitor_from_value(v)?),
            None => None,
        };
        let risk = match obj.get("risk") {
            Some(v) => Some(
                RiskReport::from_value(v)
                    .ok_or_else(|| ReportError::shape("risk", "risk report object"))?,
            ),
            None => None,
        };
        Ok(Self { version, bin, meta, wall_s, metrics, monitor, risk })
    }
}

fn monitor_to_value(monitor: &MonitorReport) -> Value {
    let mut streams = BTreeMap::new();
    for (stream, s) in &monitor.streams {
        streams.insert(stream.to_string(), summary_to_value(s));
    }
    let mut obj = BTreeMap::new();
    obj.insert("streams".to_string(), Value::Obj(streams));
    Value::Obj(obj)
}

fn summary_to_value(s: &StreamSummary) -> Value {
    let mut obj = BTreeMap::new();
    obj.insert("stops".to_string(), Value::UInt(s.stops));
    obj.insert("online_s".to_string(), Value::float(s.online_s));
    obj.insert("offline_s".to_string(), Value::float(s.offline_s));
    obj.insert("windowed_online_s".to_string(), Value::float(s.windowed_online_s));
    obj.insert("windowed_offline_s".to_string(), Value::float(s.windowed_offline_s));
    obj.insert(
        "last_vertex".to_string(),
        s.last_vertex.as_ref().map_or(Value::Null, |v| Value::Str(v.clone())),
    );
    obj.insert("bound_cr".to_string(), s.bound_cr.map_or(Value::Null, Value::float));
    obj.insert("mu_stat".to_string(), Value::float(s.mu_stat));
    obj.insert("q_stat".to_string(), Value::float(s.q_stat));
    obj.insert("trust".to_string(), Value::Str(s.trust.clone()));
    obj.insert("transitions".to_string(), Value::UInt(s.transitions));
    obj.insert(
        "alarms".to_string(),
        Value::Arr(
            s.alarms
                .iter()
                .map(|a| {
                    let mut alarm = BTreeMap::new();
                    alarm.insert("stop".to_string(), Value::UInt(a.stop));
                    alarm.insert("alarm".to_string(), Value::Str(a.alarm.clone()));
                    alarm.insert("detail".to_string(), Value::Str(a.detail.clone()));
                    alarm.insert("observed".to_string(), Value::float(a.observed));
                    alarm.insert("limit".to_string(), Value::float(a.limit));
                    Value::Obj(alarm)
                })
                .collect(),
        ),
    );
    Value::Obj(obj)
}

fn monitor_from_value(v: &Value) -> Result<MonitorReport, ReportError> {
    let obj = v.as_obj().ok_or_else(|| ReportError::shape("monitor", "object"))?;
    let mut streams = BTreeMap::new();
    if let Some(m) = obj.get("streams").and_then(Value::as_obj) {
        for (k, sv) in m {
            let stream = k
                .parse::<u64>()
                .map_err(|_| ReportError::shape("monitor.streams", "integer stream key"))?;
            streams.insert(stream, summary_from_value(k, sv)?);
        }
    }
    Ok(MonitorReport { streams })
}

fn summary_from_value(name: &str, v: &Value) -> Result<StreamSummary, ReportError> {
    let obj = v.as_obj().ok_or_else(|| ReportError::shape(name, "stream summary object"))?;
    let num = |key: &str| {
        obj.get(key).and_then(Value::as_f64).ok_or_else(|| ReportError::shape(key, "number"))
    };
    let int = |key: &str| {
        obj.get(key).and_then(Value::as_u64).ok_or_else(|| ReportError::shape(key, "integer"))
    };
    let mut alarms = Vec::new();
    if let Some(arr) = obj.get("alarms").and_then(Value::as_arr) {
        for av in arr {
            let a = av.as_obj().ok_or_else(|| ReportError::shape("alarms", "alarm object"))?;
            let field_f64 = |key: &str| {
                a.get(key).and_then(Value::as_f64).ok_or_else(|| ReportError::shape(key, "number"))
            };
            alarms.push(AlarmRecord {
                stop: a
                    .get("stop")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| ReportError::shape("stop", "integer"))?,
                alarm: a
                    .get("alarm")
                    .and_then(Value::as_str)
                    .ok_or_else(|| ReportError::shape("alarm", "string"))?
                    .to_string(),
                detail: a
                    .get("detail")
                    .and_then(Value::as_str)
                    .ok_or_else(|| ReportError::shape("detail", "string"))?
                    .to_string(),
                observed: field_f64("observed")?,
                limit: field_f64("limit")?,
            });
        }
    }
    Ok(StreamSummary {
        stops: int("stops")?,
        online_s: num("online_s")?,
        offline_s: num("offline_s")?,
        windowed_online_s: num("windowed_online_s")?,
        windowed_offline_s: num("windowed_offline_s")?,
        last_vertex: match obj.get("last_vertex") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_str().ok_or_else(|| ReportError::shape("last_vertex", "string"))?.to_string(),
            ),
        },
        bound_cr: match obj.get("bound_cr") {
            None | Some(Value::Null) => None,
            Some(v) => v.as_f64(),
        },
        mu_stat: num("mu_stat")?,
        q_stat: num("q_stat")?,
        trust: obj
            .get("trust")
            .and_then(Value::as_str)
            .ok_or_else(|| ReportError::shape("trust", "string"))?
            .to_string(),
        transitions: int("transitions")?,
        alarms,
    })
}

/// Errors from parsing a [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// The document is not valid JSON.
    Json(ParseError),
    /// A field is missing or has the wrong type.
    Shape {
        /// The offending field.
        field: String,
        /// What was expected there.
        expected: String,
    },
    /// The report was produced by a newer schema.
    Version {
        /// Version found in the document.
        found: u64,
        /// Highest version this library reads.
        supported: u64,
    },
}

impl ReportError {
    fn shape(field: &str, expected: &str) -> Self {
        Self::Shape { field: field.to_string(), expected: expected.to_string() }
    }
}

impl From<ParseError> for ReportError {
    fn from(e: ParseError) -> Self {
        Self::Json(e)
    }
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Json(e) => write!(f, "run report: {e}"),
            Self::Shape { field, expected } => {
                write!(f, "run report field {field:?}: expected {expected}")
            }
            Self::Version { found, supported } => {
                write!(f, "run report version {found} is newer than supported {supported}")
            }
        }
    }
}

impl std::error::Error for ReportError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn sample_report() -> RunReport {
        let r = MetricsRegistry::new();
        r.counter("a.count").add(42);
        r.gauge("a.util").set(0.375);
        let h = r.histogram("a.lat", &[1.0, 10.0]);
        h.record(0.5);
        h.record(100.0);
        RunReport::new("selftest", 1.25, r.snapshot())
            .with_meta("seed", 2014)
            .with_meta("threads", 4)
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let report = sample_report();
        let json = report.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        // Deterministic: re-emission is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn snapshot_counter_defaults_to_zero() {
        let s = MetricsSnapshot::default();
        assert_eq!(s.counter("never.registered"), 0);
    }

    #[test]
    fn merge_requires_matching_bounds() {
        let a = HistogramSnapshot { bounds: vec![1.0], counts: vec![1, 2], sum_micros: 10 };
        let b = HistogramSnapshot { bounds: vec![2.0], counts: vec![3, 4], sum_micros: 20 };
        assert!(a.merge(&b).is_none());
        let c = a.merge(&a).unwrap();
        assert_eq!(c.counts, vec![2, 4]);
        assert_eq!(c.sum_micros, 20);
        assert_eq!(c.count(), 6);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        let h = HistogramSnapshot { bounds: vec![1.0], counts: vec![0, 0], sum_micros: 0 };
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn rejects_future_versions_and_garbage() {
        let mut report = sample_report();
        report.version = REPORT_VERSION + 1;
        let err = RunReport::from_json(&report.to_json()).unwrap_err();
        assert!(matches!(err, ReportError::Version { .. }));
        assert!(RunReport::from_json("not json").is_err());
        assert!(RunReport::from_json("{}").is_err());
        let e = RunReport::from_json(r#"{"version":1,"bin":3}"#).unwrap_err();
        assert!(e.to_string().contains("bin"));
    }

    #[test]
    fn config_fingerprint_ignores_measurements_and_itself() {
        let a = sample_report();
        let mut b = sample_report();
        b.wall_s = 99.0;
        b.metrics.counters.insert("a.count".to_string(), 7);
        assert_eq!(a.config_fingerprint(), b.config_fingerprint());
        assert_eq!(a.config_fingerprint().len(), 16);

        // Stamping the fingerprint into meta does not change it.
        let fp = a.config_fingerprint();
        let stamped = a.clone().with_meta("config_fingerprint", &fp);
        assert_eq!(stamped.config_fingerprint(), fp);

        // But real configuration differences do change it, and field
        // boundaries matter: ("ab","c") ≠ ("a","bc").
        let c = sample_report().with_meta("seed", 2015);
        assert_ne!(a.config_fingerprint(), c.config_fingerprint());
        let d1 = RunReport::new("x", 0.0, MetricsSnapshot::default()).with_meta("ab", "c");
        let d2 = RunReport::new("x", 0.0, MetricsSnapshot::default()).with_meta("a", "bc");
        assert_ne!(d1.config_fingerprint(), d2.config_fingerprint());
    }

    #[test]
    fn monitor_section_roundtrips_and_is_optional() {
        // Without a monitor section the key is absent entirely.
        let plain = sample_report();
        assert!(!plain.to_json().contains("\"monitor\""));

        let mut monitor = MonitorReport::default();
        monitor.streams.insert(
            7,
            StreamSummary {
                stops: 120,
                online_s: 840.5,
                offline_s: 512.25,
                windowed_online_s: 61.0,
                windowed_offline_s: 40.0,
                last_vertex: Some("TOI".to_string()),
                bound_cr: Some(1.582),
                mu_stat: 0.25,
                q_stat: 1.75,
                trust: "Degraded".to_string(),
                transitions: 3,
                alarms: vec![AlarmRecord {
                    stop: 77,
                    alarm: "drift".to_string(),
                    detail: "q_b_plus".to_string(),
                    observed: 2.5,
                    limit: 2.0,
                }],
            },
        );
        monitor.streams.insert(9, StreamSummary::default());
        let report = sample_report().with_monitor(monitor.clone());
        let json = report.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json, "re-emission must be byte-identical");
        let back_monitor = back.monitor.unwrap();
        assert_eq!(back_monitor.total_alarms(), 1);
        assert_eq!(back_monitor.alarms_of("drift"), 1);
        assert_eq!(back_monitor.streams[&9].last_vertex, None);
        assert_eq!(back_monitor.streams[&9].bound_cr, None);

        // The monitor section is configuration-independent measurement
        // data: it must not perturb the config fingerprint.
        assert_eq!(report.config_fingerprint(), sample_report().config_fingerprint());
    }

    #[test]
    fn risk_section_roundtrips_and_is_optional() {
        use crate::risk::RiskHub;

        // Without a risk section the key is absent entirely.
        let plain = sample_report();
        assert!(!plain.to_json().contains("\"risk\""));

        let hub = RiskHub::new();
        hub.record(11, 30.0, 28.0);
        hub.record(11, 56.0, 28.0);
        hub.record(42, 5.0, 0.0); // ∞ → overflow bucket, still pure-integer JSON
        let report = sample_report().with_risk(hub.report());
        let json = report.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json, "re-emission must be byte-identical");
        let back_risk = back.risk.unwrap();
        assert_eq!(back_risk.fleet.count, 3);
        assert_eq!(back_risk.vehicles.len(), 2);
        // The serialized digests re-derive the fleet gauges bit-exactly.
        let remerged = back_risk
            .vehicles
            .values()
            .fold(crate::risk::SketchDigest::default(), |acc, d| acc.merge(d));
        assert_eq!(remerged, back_risk.fleet);
        assert_eq!(back_risk.fleet.cvar(0.5), hub.report().fleet.cvar(0.5));

        // The risk section is measurement data: fingerprint-inert.
        assert_eq!(report.config_fingerprint(), sample_report().config_fingerprint());

        // A malformed risk section is a typed error, not a silent None.
        let bad = r#"{"version":1,"bin":"x","wall_s":0.0,"risk":{"nope":1}}"#;
        assert!(RunReport::from_json(bad).is_err());
    }

    #[test]
    fn counts_length_validated() {
        let bad = r#"{"version":1,"bin":"x","wall_s":0.0,
            "histograms":{"h":{"bounds":[1.0],"counts":[1],"sum_micros":0}}}"#;
        assert!(RunReport::from_json(bad).is_err());
    }
}
