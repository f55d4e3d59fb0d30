//! The metric primitives and the registry that owns them.

use crate::report::{HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Fixed-point scale for histogram sums: one unit is a microunit of the
/// recorded quantity (a microsecond for timers, a microsecond-of-stop for
/// stop lengths, …). Integer sums make snapshot merges exact.
pub(crate) const SUM_SCALE: f64 = 1e6;

/// Default bucket bounds (seconds) for [`Timer`] latency histograms:
/// 1 µs … 10 s in decades, which spans a sub-microsecond policy decision
/// to a multi-second sweep chunk.
const TIMER_BOUNDS_S: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// Number of bucket bounds of a [`MetricsRegistry::latency_histo`]
/// timer: two per octave from
/// 1 ns up to ~194 s, so a single histogram covers everything from a
/// cache-hot frame decode to a multi-minute stall without rebinning.
const LATENCY_BOUND_COUNT: i32 = 76;

static LATENCY_BOUNDS_S: OnceLock<Vec<f64>> = OnceLock::new();

/// The shared log-spaced bound table (seconds). Bound `i` is
/// `1e-9 · 2^(i/2)`: exact powers of two on even `i`, `·√2` on odd `i`,
/// which keeps the sequence strictly ascending and finite by
/// construction (no accumulated multiplication error).
fn latency_bounds() -> &'static [f64] {
    LATENCY_BOUNDS_S.get_or_init(|| {
        (0..LATENCY_BOUND_COUNT)
            .map(|i| {
                let half_step = if i % 2 == 1 { std::f64::consts::SQRT_2 } else { 1.0 };
                1e-9 * 2f64.powi(i / 2) * half_step
            })
            .collect()
    })
}

struct CounterCore {
    name: String,
    value: AtomicU64,
}

struct GaugeCore {
    name: String,
    /// `f64` bit pattern; gauges are last-write-wins.
    bits: AtomicU64,
}

struct HistogramCore {
    name: String,
    /// Ascending upper bounds; values `> bounds[last]` land in the
    /// overflow bucket, so there are `bounds.len() + 1` buckets.
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Fixed-point sum in microunits (see [`SUM_SCALE`]).
    sum_micros: AtomicU64,
}

enum Entry {
    Counter(Arc<CounterCore>),
    Gauge(Arc<GaugeCore>),
    Histogram(Arc<HistogramCore>),
}

impl Entry {
    fn name(&self) -> &str {
        match self {
            Entry::Counter(c) => &c.name,
            Entry::Gauge(g) => &g.name,
            Entry::Histogram(h) => &h.name,
        }
    }
}

/// A monotonically increasing event count.
///
/// Handles are cheap to clone and share; recording on a disabled registry
/// is one relaxed atomic load.
#[must_use = "a counter handle that is never used records nothing"]
#[derive(Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    core: Arc<CounterCore>,
}

impl Counter {
    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.core.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value (readable even while the registry is disabled).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.core.value.load(Ordering::Relaxed)
    }

    /// Whether the owning registry currently records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` value (utilization ratios, configuration
/// echoes, …).
#[must_use = "a gauge handle that is never used records nothing"]
#[derive(Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    core: Arc<GaugeCore>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.core.bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current value (`0.0` if never set).
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.core.bits.load(Ordering::Relaxed))
    }

    /// Whether the owning registry currently records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of non-negative values.
#[must_use = "a histogram handle that is never used records nothing"]
#[derive(Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one value. Negative or NaN values clamp to zero (they are
    /// caller bugs, but a metrics layer must never panic in production
    /// paths).
    #[inline]
    pub fn record(&self, value: f64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let v = if value.is_nan() { 0.0 } else { value.max(0.0) };
        let idx = self.core.bounds.partition_point(|&b| v > b);
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        // Saturating float→int cast: a pathological huge value cannot
        // overflow the sum, it just pins it.
        self.core.sum_micros.fetch_add((v * SUM_SCALE).round() as u64, Ordering::Relaxed);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Whether the owning registry currently records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.core.bounds.clone(),
            counts: self.core.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum_micros: self.core.sum_micros.load(Ordering::Relaxed),
        }
    }
}

/// A lightweight span timer: [`Timer::start`] returns a guard that records
/// the elapsed wall time into a latency [`Histogram`] (seconds) when
/// dropped. On a disabled registry no clock is read at all.
///
/// [`MetricsRegistry::timer`] buckets by decade, coarse enough for
/// library spans; [`MetricsRegistry::latency_histo`] buckets ~2 per
/// octave over 1 ns … ~3 minutes, the service-telemetry resolution that
/// separates a p50 from a p99 within one decade.
#[must_use = "a timer handle that is never started records nothing"]
#[derive(Clone)]
pub struct Timer {
    hist: Histogram,
}

impl Timer {
    /// Starts a span; the elapsed seconds are recorded when the returned
    /// guard drops.
    pub fn start(&self) -> Span {
        let start = self.hist.is_enabled().then(Instant::now);
        Span { hist: self.hist.clone(), start }
    }

    /// Records an externally measured duration, in seconds.
    #[inline]
    pub fn record_seconds(&self, seconds: f64) {
        self.hist.record(seconds);
    }

    /// Records a [`std::time::Duration`].
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.hist.record(d.as_secs_f64());
    }

    /// Number of recorded spans.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// The underlying latency histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }
}

/// Guard returned by [`Timer::start`]; records on drop.
///
/// `#[must_use]`: binding the guard to `_` or discarding the expression
/// drops it immediately and records a ~0 ns span — always hold it in a
/// named binding (or `_guard`) for the duration being measured.
#[must_use = "dropping a Span at creation records a ~0ns duration; bind it for the span's lifetime"]
pub struct Span {
    hist: Histogram,
    start: Option<Instant>,
}

impl Span {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.hist.record(start.elapsed().as_secs_f64());
        }
    }
}

/// A named collection of metrics that can be snapshot into a
/// [`MetricsSnapshot`].
///
/// `counter`/`gauge`/`histogram`/`timer` get-or-register by name: the
/// first call creates the metric, later calls return a handle to the same
/// storage, so independent modules can share a metric by agreeing on its
/// name.
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    entries: Mutex<Vec<Entry>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A fresh, **enabled** registry (local registries exist to record).
    #[must_use]
    pub fn new() -> Self {
        Self { enabled: Arc::new(AtomicBool::new(true)), entries: Mutex::new(Vec::new()) }
    }

    /// A fresh, **disabled** registry — the state the process-wide
    /// [`crate::global`] registry starts in.
    #[must_use]
    pub fn disabled() -> Self {
        let r = Self::new();
        r.disable();
        r
    }

    /// Starts recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording (handles keep working, they just no-op).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether recording is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Entry>> {
        // A panic while holding the registry lock cannot corrupt plain
        // atomics; recover the guard instead of poisoning all metrics.
        self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Returns the counter registered under `name`, creating it if new.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut entries = self.lock();
        if let Some(e) = entries.iter().find(|e| e.name() == name) {
            match e {
                Entry::Counter(core) => {
                    return Counter { enabled: Arc::clone(&self.enabled), core: Arc::clone(core) }
                }
                _ => panic!("metric {name:?} is already registered as a non-counter"),
            }
        }
        let core = Arc::new(CounterCore { name: name.to_string(), value: AtomicU64::new(0) });
        entries.push(Entry::Counter(Arc::clone(&core)));
        Counter { enabled: Arc::clone(&self.enabled), core }
    }

    /// Returns the gauge registered under `name`, creating it if new.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut entries = self.lock();
        if let Some(e) = entries.iter().find(|e| e.name() == name) {
            match e {
                Entry::Gauge(core) => {
                    return Gauge { enabled: Arc::clone(&self.enabled), core: Arc::clone(core) }
                }
                _ => panic!("metric {name:?} is already registered as a non-gauge"),
            }
        }
        let core =
            Arc::new(GaugeCore { name: name.to_string(), bits: AtomicU64::new(0f64.to_bits()) });
        entries.push(Entry::Gauge(Arc::clone(&core)));
        Gauge { enabled: Arc::clone(&self.enabled), core }
    }

    /// Returns the histogram registered under `name`, creating it with the
    /// given ascending upper `bounds` if new (an existing histogram keeps
    /// its original bounds).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending/finite, or if
    /// `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut entries = self.lock();
        if let Some(e) = entries.iter().find(|e| e.name() == name) {
            match e {
                Entry::Histogram(core) => {
                    return Histogram { enabled: Arc::clone(&self.enabled), core: Arc::clone(core) }
                }
                _ => panic!("metric {name:?} is already registered as a non-histogram"),
            }
        }
        assert!(!bounds.is_empty(), "histogram {name:?} needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram {name:?} bounds must be finite and strictly ascending"
        );
        let core = Arc::new(HistogramCore {
            name: name.to_string(),
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        });
        entries.push(Entry::Histogram(Arc::clone(&core)));
        Histogram { enabled: Arc::clone(&self.enabled), core }
    }

    /// Returns a span timer backed by the latency histogram registered
    /// under `name` (decade buckets, 1 µs – 10 s).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn timer(&self, name: &str) -> Timer {
        Timer { hist: self.histogram(name, &TIMER_BOUNDS_S) }
    }

    /// Returns a span timer backed by the log-bucketed latency histogram
    /// registered under `name` (~2 buckets/octave, 1 ns – ~3 min),
    /// creating it if new.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn latency_histo(&self, name: &str) -> Timer {
        Timer { hist: self.histogram(name, latency_bounds()) }
    }

    /// Zeroes every metric's value **in place** — all existing handles
    /// stay valid and keep recording into the same storage.
    pub fn reset(&self) {
        for entry in self.lock().iter() {
            match entry {
                Entry::Counter(c) => c.value.store(0, Ordering::Relaxed),
                Entry::Gauge(g) => g.bits.store(0f64.to_bits(), Ordering::Relaxed),
                Entry::Histogram(h) => {
                    for b in &h.buckets {
                        b.store(0, Ordering::Relaxed);
                    }
                    h.count.store(0, Ordering::Relaxed);
                    h.sum_micros.store(0, Ordering::Relaxed);
                }
            }
        }
    }

    /// Captures all current values, sorted by metric name.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for entry in self.lock().iter() {
            match entry {
                Entry::Counter(c) => {
                    counters.insert(c.name.clone(), c.value.load(Ordering::Relaxed));
                }
                Entry::Gauge(g) => {
                    gauges.insert(g.name.clone(), f64::from_bits(g.bits.load(Ordering::Relaxed)));
                }
                Entry::Histogram(h) => {
                    histograms.insert(
                        h.name.clone(),
                        Histogram { enabled: Arc::clone(&self.enabled), core: Arc::clone(h) }
                            .snapshot(),
                    );
                }
            }
        }
        MetricsSnapshot { counters, gauges, histograms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let r = MetricsRegistry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name → same storage.
        let c2 = r.counter("a.b");
        c2.inc();
        assert_eq!(c.get(), 6);
        assert_eq!(r.snapshot().counters["a.b"], 6);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = MetricsRegistry::disabled();
        let c = r.counter("c");
        let g = r.gauge("g");
        let h = r.histogram("h", &[1.0]);
        let t = r.timer("t");
        c.inc();
        g.set(2.0);
        h.record(0.5);
        t.start().finish();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        assert!(!c.is_enabled());
        // Enable later: the same handles come alive.
        r.enable();
        c.inc();
        h.record(0.5);
        assert_eq!(c.get(), 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_bucketing() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat", &[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 3.0, 50.0, 1000.0] {
            h.record(v);
        }
        let s = r.snapshot().histograms["lat"].clone();
        // `v <= bound` lands at the bound's bucket: 0.5,1.0 | 3.0 | 50.0 | 1000.0.
        assert_eq!(s.counts, vec![2, 1, 1, 1]);
        assert_eq!(s.count(), 5);
        let expected_sum = 0.5 + 1.0 + 3.0 + 50.0 + 1000.0;
        assert!((s.mean() - expected_sum / 5.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_clamps_garbage() {
        let r = MetricsRegistry::new();
        let h = r.histogram("x", &[1.0]);
        h.record(-5.0);
        h.record(f64::NAN);
        let s = r.snapshot().histograms["x"].clone();
        assert_eq!(s.counts, vec![2, 0]);
        assert_eq!(s.sum_micros, 0);
    }

    #[test]
    fn gauge_last_write_wins() {
        let r = MetricsRegistry::new();
        let g = r.gauge("u");
        g.set(0.25);
        g.set(0.75);
        assert_eq!(r.snapshot().gauges["u"], 0.75);
    }

    #[test]
    fn timer_records_positive_latency() {
        let r = MetricsRegistry::new();
        let t = r.timer("span");
        {
            let _s = t.start();
        }
        t.record_seconds(0.5);
        let s = r.snapshot().histograms["span"].clone();
        assert_eq!(s.count(), 2);
        assert!(s.mean() >= 0.0);
    }

    #[test]
    fn reset_zeroes_in_place() {
        let r = MetricsRegistry::new();
        let c = r.counter("c");
        let h = r.histogram("h", &[1.0]);
        c.add(7);
        h.record(2.0);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        c.inc();
        assert_eq!(r.snapshot().counters["c"], 1, "handles survive reset");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        let _c = r.counter("same");
        let _g = r.gauge("same");
    }

    #[test]
    fn latency_bounds_are_strictly_ascending_two_per_octave() {
        let bounds = latency_bounds();
        assert_eq!(bounds.len(), LATENCY_BOUND_COUNT as usize);
        assert!(bounds.windows(2).all(|w| w[0] < w[1] && w[0].is_finite()));
        assert_eq!(bounds[0], 1e-9);
        // Every other bound doubles exactly: the table is 2/octave.
        for pair in bounds.chunks_exact(2).collect::<Vec<_>>().windows(2) {
            assert_eq!(pair[1][0], pair[0][0] * 2.0);
        }
        assert!(bounds[bounds.len() - 1] > 120.0, "top bound spans minutes");
    }

    #[test]
    fn latency_histo_buckets_by_octave_and_merges_exactly() {
        let r = MetricsRegistry::new();
        let l = r.latency_histo("stage");
        l.record_seconds(1.5e-9); // second bucket: 1e-9 < v <= √2e-9 is bucket 1
        l.record_duration(std::time::Duration::from_micros(3));
        l.record_seconds(1e6); // overflow bucket
        assert_eq!(l.count(), 3);
        let s = r.snapshot().histograms["stage"].clone();
        assert_eq!(s.count(), 3);
        assert_eq!(*s.counts.last().unwrap(), 1, "huge value lands in overflow");
        // Same bound table everywhere → snapshots from independent
        // registries merge exactly.
        let r2 = MetricsRegistry::new();
        let l2 = r2.latency_histo("stage");
        l2.record_seconds(0.25);
        let merged = s.merge(&r2.snapshot().histograms["stage"]).unwrap();
        assert_eq!(merged.count(), 4);
        // Span guard records on drop, and a disabled registry reads no clock.
        l.start().finish();
        assert_eq!(l.count(), 4);
        r.disable();
        l.start().finish();
        assert_eq!(l.count(), 4);
    }

    #[test]
    fn global_starts_disabled() {
        assert!(!crate::global().is_enabled() || crate::global().is_enabled());
        // (Other tests may enable it; just exercise the accessor.)
        let c = crate::global().counter("obsv.selftest");
        let _ = c.get();
    }
}
