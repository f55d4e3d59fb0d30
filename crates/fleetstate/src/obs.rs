//! Crate-internal observability handles for the persistence layer,
//! registered once against the process-wide [`obsv::global`] registry.
//!
//! Same discipline as the decision engine's instrumentation: recording
//! on the disabled global registry costs one relaxed atomic load, so the
//! journal hot path stays within the perf gate whether or not a harness
//! enabled metrics.

use obsv::Counter;
use std::sync::OnceLock;

pub(crate) struct Metrics {
    pub snapshots_written: Counter,
    pub snapshot_bytes: Counter,
    pub journal_frames: Counter,
    pub journal_frames_replayed: Counter,
    pub recoveries: Counter,
    pub torn_tails_dropped: Counter,
    pub duplicates_skipped: Counter,
    pub snapshots_rejected: Counter,
}

static METRICS: OnceLock<Metrics> = OnceLock::new();

pub(crate) fn metrics() -> &'static Metrics {
    METRICS.get_or_init(|| {
        let r = obsv::global();
        Metrics {
            snapshots_written: r.counter("persist.snapshots_written"),
            snapshot_bytes: r.counter("persist.snapshot_bytes"),
            journal_frames: r.counter("persist.journal_frames"),
            journal_frames_replayed: r.counter("persist.journal_frames_replayed"),
            recoveries: r.counter("persist.recoveries"),
            torn_tails_dropped: r.counter("persist.torn_tails_dropped"),
            duplicates_skipped: r.counter("persist.duplicates_skipped"),
            snapshots_rejected: r.counter("persist.snapshots_rejected"),
        }
    })
}

static SNAPSHOT_FAILURES: OnceLock<Counter> = OnceLock::new();

/// `persist.snapshot_failures`: snapshots that failed to write. It is
/// registered on the first failure, so a run without one exports the
/// same counter set as before the counter existed.
pub(crate) fn snapshot_failures() -> &'static Counter {
    SNAPSHOT_FAILURES.get_or_init(|| obsv::global().counter("persist.snapshot_failures"))
}
