//! The daemon's telemetry plane: a `fleetd`-owned metrics registry with
//! per-stage latency histograms and service health gauges, rendered in
//! the Prometheus text exposition format by [`obsv::telemetry`].
//!
//! The registry here is **separate from** [`obsv::global`]: the global
//! registry stays disabled (and its benchmark-report contents stay
//! byte-stable for the CI perf gate) while the daemon records service
//! telemetry unconditionally. Recording is off the determinism contract
//! by construction — timing feeds histograms only, never the canonical
//! trace or any RNG path.
//!
//! Stage histograms are [`obsv::LatencyHisto`]s (~2 buckets per octave,
//! 1 ns … minutes), fine enough to separate a p50 from a p99 inside one
//! decade. Counters that mirror the server's shared atomics are synced
//! at scrape time (delta under a lock, so concurrent scrapes cannot
//! double-count); gauges are last-write-wins snapshots.

use obsv::{Counter, Gauge, LatencyHisto, MetricsRegistry, MetricsSnapshot};
use std::sync::{Mutex, PoisonError};

/// The per-stage latency histogram series every healthy daemon exports.
/// Drills use this to assert the exposition is complete.
pub const STAGE_HISTOGRAMS: &[&str] = &[
    "fleetd_stage_queue_wait_seconds",
    "fleetd_stage_frame_decode_seconds",
    "fleetd_stage_engine_decide_seconds",
    "fleetd_stage_journal_append_seconds",
    "fleetd_stage_journal_fsync_seconds",
    "fleetd_stage_reply_write_seconds",
];

/// The daemon's metrics: stage histograms recorded on the hot paths,
/// health gauges refreshed at scrape time.
pub struct Telemetry {
    registry: MetricsRegistry,
    /// Time a submitted block waited in the ingest queue before the
    /// engine dequeued it.
    pub queue_wait: LatencyHisto,
    /// Time to decode one CRC-framed request.
    pub frame_decode: LatencyHisto,
    /// Time the engine spent deciding a block (post-journal).
    pub engine_decide: LatencyHisto,
    /// Time to append a block's write-ahead frames to the journal.
    pub journal_append: LatencyHisto,
    /// Time the journal `fsync` took for a block.
    pub journal_fsync: LatencyHisto,
    /// Time to write one reply frame back to the client.
    pub reply_write: LatencyHisto,
    /// Subscribers dropped for falling behind their bounded queue.
    pub subscriber_drops: Counter,
    /// Snapshots that failed to write (the blocks that triggered them
    /// were served all the same).
    pub snapshot_failures: Counter,
    /// Journal file length in bytes (header + every appended frame).
    pub journal_bytes: Gauge,
    /// Journal frames written since the last accepted snapshot.
    pub frames_since_snapshot: Gauge,
    /// Engine steps elapsed since the last accepted snapshot.
    pub snapshot_age_steps: Gauge,
    /// Serializes counter delta-syncs so two concurrent scrapes cannot
    /// both observe the same delta and double-add it.
    sync: Mutex<()>,
}

impl Telemetry {
    /// A fresh telemetry plane with every stage histogram registered, so
    /// the exposition lists all stages even before traffic arrives.
    #[must_use]
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let stage = |name: &str| registry.latency_histo(name);
        Self {
            queue_wait: stage(STAGE_HISTOGRAMS[0]),
            frame_decode: stage(STAGE_HISTOGRAMS[1]),
            engine_decide: stage(STAGE_HISTOGRAMS[2]),
            journal_append: stage(STAGE_HISTOGRAMS[3]),
            journal_fsync: stage(STAGE_HISTOGRAMS[4]),
            reply_write: stage(STAGE_HISTOGRAMS[5]),
            subscriber_drops: registry.counter("fleetd_subscriber_drops_total"),
            snapshot_failures: registry.counter("fleetd_snapshot_failures_total"),
            journal_bytes: registry.gauge("fleetd_journal_bytes"),
            frames_since_snapshot: registry.gauge("fleetd_journal_frames_since_snapshot"),
            snapshot_age_steps: registry.gauge("fleetd_snapshot_age_steps"),
            sync: Mutex::new(()),
            registry,
        }
    }

    /// Sets (registering on first use) the named gauge.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.registry.gauge(name).set(value);
    }

    /// Brings the named counter up to `observed` (a monotone reading of
    /// some authoritative atomic elsewhere). Locked so concurrent
    /// scrapes apply the delta exactly once; a smaller `observed` (never
    /// expected) is ignored rather than wrapped.
    pub fn sync_counter(&self, name: &str, observed: u64) {
        let _guard = self.sync.lock().unwrap_or_else(PoisonError::into_inner);
        let counter = self.registry.counter(name);
        let current = counter.get();
        if observed > current {
            counter.add(observed - current);
        }
    }

    /// Captures every metric's current value.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Renders the current values in the Prometheus text exposition
    /// format (no timestamps — the scraper assigns scrape time).
    #[must_use]
    pub fn render_text(&self) -> String {
        obsv::telemetry::render(&self.registry.snapshot(), None)
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_histograms_all_present_before_traffic() {
        let telemetry = Telemetry::new();
        let text = telemetry.render_text();
        let scrape = obsv::telemetry::parse(&text).unwrap();
        for name in STAGE_HISTOGRAMS {
            let hist = scrape.histograms.get(*name).unwrap();
            assert_eq!(hist.count, 0.0, "{name} should start empty");
        }
    }

    #[test]
    fn sync_counter_is_idempotent_per_observation() {
        let telemetry = Telemetry::new();
        telemetry.sync_counter("fleetd_busy_rejections_total", 3);
        telemetry.sync_counter("fleetd_busy_rejections_total", 3);
        telemetry.sync_counter("fleetd_busy_rejections_total", 5);
        // A stale (smaller) observation must not rewind the counter.
        telemetry.sync_counter("fleetd_busy_rejections_total", 2);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counters["fleetd_busy_rejections_total"], 5);
    }

    #[test]
    fn stage_spans_record_into_the_exposition() {
        let telemetry = Telemetry::new();
        telemetry.queue_wait.record_seconds(0.25);
        let span = telemetry.frame_decode.start();
        span.finish();
        telemetry.set_gauge("fleetd_queue_depth", 7.0);
        let scrape = obsv::telemetry::parse(&telemetry.render_text()).unwrap();
        assert_eq!(scrape.histograms["fleetd_stage_queue_wait_seconds"].count, 1.0);
        assert_eq!(scrape.histograms["fleetd_stage_frame_decode_seconds"].count, 1.0);
        assert_eq!(scrape.gauge("fleetd_queue_depth"), Some(7.0));
    }
}
