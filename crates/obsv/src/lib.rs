//! Std-only observability for the idling-reduction stack.
//!
//! Every other crate in the workspace may depend on this one, so it pulls
//! in only the dependency-free `numeric` (for [`numeric::vertex`]):
//! counters, gauges, and histograms are plain atomics, span timers are
//! `std::time::Instant` pairs, and the machine-readable
//! [`RunReport`] is emitted and parsed by a built-in minimal JSON module
//! (the workspace has no `serde`, so it hand-rolls the few dozen lines).
//!
//! # Design
//!
//! * A [`MetricsRegistry`] owns named metrics and hands out cheaply
//!   clonable handles ([`Counter`], [`Gauge`], [`Histogram`], [`Timer`]).
//!   Handles stay valid forever — [`MetricsRegistry::reset`] zeroes values
//!   in place, it never invalidates a handle.
//! * The process-wide [`global`] registry starts **disabled**: every
//!   recording operation on a disabled registry is one relaxed atomic load
//!   and a branch, so instrumented library code costs nothing measurable
//!   unless a harness binary opts in with [`MetricsRegistry::enable`].
//!   Criterion's naive-vs-summary groups lock this in.
//! * Histograms use fixed, caller-supplied bucket bounds and accumulate
//!   their sum in fixed-point microunits (`u64`), so snapshot **merge is
//!   exactly associative and commutative** — a property the proptest suite
//!   checks — where floating-point summation would not be.
//! * [`MetricsRegistry::snapshot`] captures everything into sorted
//!   `BTreeMap`s; [`RunReport`] wraps a snapshot with run metadata and
//!   wall-clock time and round-trips through a stable JSON encoding used
//!   by the bench binaries' `--report` flag and the CI perf gate.
//! * The decision-trace layer ([`event`], [`tracer`], [`diff`]) follows
//!   the same disabled-by-default pattern for *per-stop* records: typed
//!   tick-indexed events ([`TraceEvent`]) land in the bounded sharded
//!   [`Tracer`] and serialize to a canonical JSONL that is byte-identical
//!   across thread counts, so [`first_divergence`] can pinpoint exactly
//!   where two runs stopped agreeing.
//! * The streaming [`monitor`] consumes the same instrumentation sites
//!   *online*: a per-stream realized-CR ledger, Page-Hinkley drift
//!   detectors on the estimator moments, a four-vertex argmin mismatch
//!   detector, and a CR-bound-violation alarm, all surfaced as typed
//!   [`TraceEvent::MonitorAlarm`] records and a [`MonitorReport`] section
//!   of the [`RunReport`].
//! * The [`telemetry`] module renders any registry snapshot in the
//!   Prometheus text exposition format with byte-deterministic output
//!   (sorted series, caller-injected integer timestamps, no clock on the
//!   render path) and parses it back, so services built on this stack
//!   can expose `/metrics` with zero new dependencies.
//!   [`MetricsRegistry::latency_histo`] is the matching log-bucketed
//!   (~2/octave, ns…minutes) [`Timer`] for service-grade latency
//!   resolution.
//! * The [`risk`] module is the tail-risk plane on top of all of it:
//!   exactly-mergeable per-vehicle realized-CR sketches ([`CrSketch`]),
//!   quantile/CVaR/exceedance queries on immutable [`SketchDigest`]s
//!   (live gauges and offline audits share one code path, so they agree
//!   bit-for-bit), and a `risk` section in the [`RunReport`].
//!
//! # Example
//!
//! ```
//! use obsv::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new(); // local registries start enabled
//! let restarts = registry.counter("engine.restarts");
//! let stop_len = registry.histogram("engine.stop_length_s", &[5.0, 30.0, 120.0]);
//! restarts.inc();
//! stop_len.record(17.0);
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["engine.restarts"], 1);
//! assert_eq!(snap.histograms["engine.stop_length_s"].count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dashboard;
pub mod diff;
pub mod event;
pub mod json;
mod metrics;
pub mod monitor;
mod report;
pub mod risk;
pub mod telemetry;
pub mod tracer;

pub use diff::{first_divergence, Divergence};
pub use event::{EventError, TraceEvent, TraceRecord};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, Span, Timer};
pub use monitor::{AlarmRecord, Monitor, MonitorConfig, MonitorReport, PageHinkley, StreamSummary};
pub use report::{HistogramSnapshot, MetricsSnapshot, ReportError, RunReport, REPORT_VERSION};
pub use risk::{realized_cr, CrSketch, RiskHub, RiskReport, SketchDigest};
pub use tracer::Tracer;

use std::sync::OnceLock;

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry instrumented library code records into.
///
/// Starts **disabled** — recording is a near-free no-op until a binary
/// calls `obsv::global().enable()`.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::disabled)
}
