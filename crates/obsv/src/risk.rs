//! Mergeable realized-CR risk sketches and the fleet risk hub.
//!
//! The paper's guarantee is an *expected* competitive ratio; production
//! fleets care about the tail — one vehicle repeatedly paying
//! near-worst-case restart cost. This module tracks the *distribution*
//! of realized per-stop CRs, per vehicle and fleet-wide, with the same
//! discipline as the latency [`crate::Timer`]:
//!
//! * a [`CrSketch`] is a log-bucketed histogram over atomic `u64`
//!   buckets — recording finds the bucket from the value's f64
//!   exponent and at most eight compares, then does one relaxed
//!   `fetch_add` (the total is the bucket sum, not a second counter);
//!   merging is integer addition (exactly associative and
//!   commutative), and the resulting counts are invariant to
//!   worker-thread count;
//! * every query ([`SketchDigest::quantile`], [`SketchDigest::cvar`],
//!   [`SketchDigest::exceed_count`]) runs on an immutable
//!   [`SketchDigest`], so a live scrape and an offline recomputation
//!   from the serialized digest share one code path and agree to the
//!   last bit;
//! * the bucket bounds are eighth-octave powers of two built from
//!   literal constants (`2^(i/8) = 2^(i/8 floor) · STEP[i mod 8]`), the
//!   same no-`powf` construction as the latency bound table, so the
//!   table is identical on every platform.
//!
//! Sketches are plain values: whoever owns the streams owns their
//! sketches. A `fleetstate::FleetRunner` keeps one per lane as part of
//! its state, and [`RiskReport::from_sketches`] turns any set of them
//! into a report. The process-wide [`RiskHub`] behind [`global`] holds
//! the per-stream sketches of the scalar controllers, which record
//! through [`record_current`]; it follows the disabled-by-default
//! pattern of the registry/tracer/monitor: a disabled hub costs one
//! relaxed load at each instrumentation site, and enabling it changes
//! what is *recorded*, never what is computed.
//!
//! CRs use the workspace-wide ∞-convention of [`realized_cr`]
//! (`online/offline`, `0/0 → 1`, `x/0 → ∞`); infinite ratios land in
//! the sketch's overflow bucket, so a digest never needs to serialize a
//! non-finite float — the JSON form is pure integers and round-trips
//! byte-identically.

use crate::json::Value;
use std::collections::BTreeMap;
use std::f64::consts::SQRT_2;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Number of independent hub shards; streams shard by `stream % SHARDS`.
const SHARDS: usize = 16;

/// Number of finite bucket bounds: eighth-octave steps over
/// `[1, 2^12]`, i.e. `2^(i/8)` for `i = 0..=96`. One overflow bucket
/// sits above, so a sketch has `BOUND_COUNT + 1` buckets.
pub const BOUND_COUNT: usize = 97;

/// The eight in-octave multipliers `2^(k/8)` for `k = 0..8`, as literal
/// constants — `powf` is not cross-platform-deterministic, a literal
/// table is.
const OCTAVE_STEPS: [f64; 8] = [
    1.0,
    1.090_507_732_665_257_7, // 2^(1/8)
    1.189_207_115_002_721,   // 2^(2/8)
    1.296_839_554_651_009_6, // 2^(3/8)
    SQRT_2,                  // 2^(4/8)
    1.542_210_825_407_940_7, // 2^(5/8)
    1.681_792_830_507_429,   // 2^(6/8)
    1.834_008_086_409_342_4, // 2^(7/8)
];

/// The exceedance ladder rungs the fleet telemetry exports counters
/// for. Every rung is an exact sketch bound (√2, 2^¾, 2, 4), so
/// [`SketchDigest::exceed_count`] at a rung is *exact*, not merely
/// within bucket resolution.
pub const TAU_LADDER: [f64; 4] = [SQRT_2, 1.681_792_830_507_429, 2.0, 4.0];

static CR_BOUNDS: OnceLock<Vec<f64>> = OnceLock::new();

/// The shared ascending CR bound table. Bound `i` is exactly
/// `2^(i/8)`: an exact `powi` power of two times a literal in-octave
/// multiplier, strictly ascending and finite by construction.
#[must_use]
pub fn cr_bounds() -> &'static [f64] {
    CR_BOUNDS.get_or_init(|| {
        (0..BOUND_COUNT).map(|i| 2f64.powi((i / 8) as i32) * OCTAVE_STEPS[i % 8]).collect()
    })
}

/// The bucket a CR value lands in: bucket `i` holds
/// `bounds[i-1] < v <= bounds[i]` (first bucket `v <= 1`, which with
/// `CR >= 1` means exactly `CR = 1`); values above the last bound —
/// including `+∞` — land in the overflow bucket `BOUND_COUNT`.
///
/// Equal to `cr_bounds().partition_point(|&b| cr > b)` for every input
/// (NaN included, which lands in bucket 0), without the search: for
/// `1 < v <= 2^12` the f64 exponent `e` gives the octave, and `v`'s
/// mantissa `m = v / 2^e` — exact, a power-of-two rescale — is compared
/// against the eight literal multipliers, since `v > 2^e·STEP[k]` iff
/// `m > STEP[k]`.
#[must_use]
#[inline]
pub fn bucket_index(cr: f64) -> usize {
    if cr.is_nan() || cr <= 1.0 {
        return 0;
    }
    if cr > 4096.0 {
        return BOUND_COUNT;
    }
    const MANTISSA: u64 = (1 << 52) - 1;
    let bits = cr.to_bits();
    let octave = (bits >> 52) as usize - 1023;
    let m = f64::from_bits((bits & MANTISSA) | (1023 << 52));
    8 * octave + OCTAVE_STEPS.iter().map(|&step| usize::from(m > step)).sum::<usize>()
}

/// The value a bucket reports for quantile/CVaR queries: its upper
/// bound (`+∞` for the overflow bucket). Conservative — a query never
/// under-reports tail risk by more than one eighth-octave.
#[must_use]
pub fn bucket_bound(index: usize) -> f64 {
    cr_bounds().get(index).copied().unwrap_or(f64::INFINITY)
}

/// The realized competitive ratio of a cost pair, the one convention
/// every crate in the workspace uses: `online / offline`, with an
/// all-zero ledger at CR 1 and positive online cost against zero
/// offline cost unbounded (`+∞`).
#[must_use]
#[inline]
pub fn realized_cr(online_cost: f64, offline_cost: f64) -> f64 {
    if offline_cost == 0.0 {
        if online_cost == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        online_cost / offline_cost
    }
}

/// A log-bucketed, exactly-mergeable sketch of realized-CR samples.
///
/// Recording is lock-free (one relaxed `fetch_add`); the sample count
/// is the bucket sum. Merging adds integer buckets, so it is
/// associative, commutative, and invariant to how samples were sharded
/// over threads. The buckets are allocated on the first sample, so a
/// fleet's worth of empty sketches costs no bucket memory until its
/// lanes decide.
#[derive(Debug, Default)]
pub struct CrSketch {
    buckets: OnceLock<Box<[AtomicU64; BOUND_COUNT + 1]>>,
}

impl CrSketch {
    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The buckets, allocated (all zero) on first use.
    fn buckets(&self) -> &[AtomicU64; BOUND_COUNT + 1] {
        self.buckets.get_or_init(|| Box::new([const { AtomicU64::new(0) }; BOUND_COUNT + 1]))
    }

    /// Every bucket's count, in bucket order; nothing before the first
    /// sample.
    fn counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.buckets.get().into_iter().flat_map(|b| b.iter()).map(|b| b.load(Ordering::Relaxed))
    }

    /// Records one realized CR value. NaN is ignored (it is a caller
    /// bug, but a metrics layer must never panic); `+∞` lands in the
    /// overflow bucket.
    #[inline]
    pub fn record_cr(&self, cr: f64) {
        if cr.is_nan() {
            return;
        }
        self.buckets()[bucket_index(cr)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records the CR of one stop from its online/offline costs, using
    /// the workspace ∞-convention.
    #[inline]
    pub fn record_ratio(&self, online_s: f64, offline_s: f64) {
        self.record_cr(realized_cr(online_s, offline_s));
    }

    /// Samples recorded so far: the sum of the buckets.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts().sum()
    }

    /// Adds every bucket of `other` into `self`. Integer addition:
    /// exactly associative and commutative, so any merge tree over any
    /// sharding produces the same sketch.
    pub fn merge(&self, other: &Self) {
        for (index, count) in other.counts().enumerate().filter(|&(_, c)| c > 0) {
            self.buckets()[index].fetch_add(count, Ordering::Relaxed);
        }
    }

    /// Adds a digest's bucket counts into `self` — integer addition, so
    /// a sketch restored from a saved digest and then recorded on top
    /// equals one that recorded every sample. Bucket indices past the
    /// overflow bucket (never produced by [`CrSketch::digest`]) are
    /// ignored.
    pub fn add_digest(&self, digest: &SketchDigest) {
        for &(index, count) in &digest.buckets {
            if let Some(bucket) = self.buckets().get(index as usize) {
                bucket.fetch_add(count, Ordering::Relaxed);
            }
        }
    }

    /// An immutable copy of the sketch's state, ready for queries and
    /// serialization.
    #[must_use]
    pub fn digest(&self) -> SketchDigest {
        SketchDigest::from_counts(self.counts())
    }
}

/// An immutable sketch snapshot: total count plus the sparse non-zero
/// buckets in ascending index order. All distribution queries live
/// here, so a live gauge and an offline recomputation from the
/// serialized digest run the same code on the same integers — bit-exact
/// agreement by construction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SketchDigest {
    /// Total samples in the sketch.
    pub count: u64,
    /// `(bucket index, count)` pairs, ascending index, counts non-zero.
    pub buckets: Vec<(u32, u64)>,
}

impl SketchDigest {
    /// The digest of dense per-bucket counts, the count of bucket `i`
    /// at position `i`.
    fn from_counts(counts: impl IntoIterator<Item = u64>) -> Self {
        let buckets: Vec<(u32, u64)> = counts
            .into_iter()
            .enumerate()
            .filter_map(|(i, c)| (c > 0).then_some((i as u32, c)))
            .collect();
        Self { count: buckets.iter().map(|&(_, c)| c).sum(), buckets }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the upper bound of the
    /// bucket containing rank `⌈q·n⌉` — `+∞` when the rank lands in the
    /// overflow bucket, `None` when the digest is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(idx, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return Some(bucket_bound(idx as usize));
            }
        }
        Some(f64::INFINITY)
    }

    /// Conditional value at risk at level `alpha`: the mean of the
    /// worst `⌈(1−α)·n⌉` samples (at least one), each represented by
    /// its bucket's upper bound. `+∞` as soon as an overflow-bucket
    /// sample is included; `None` when the digest is empty.
    ///
    /// Deterministic: the tail is walked in one fixed
    /// (descending-bucket) order over integer counts, so the float
    /// arithmetic has a single association — the same digest always
    /// produces the same bits.
    #[must_use]
    pub fn cvar(&self, alpha: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let a = alpha.clamp(0.0, 1.0);
        let k = (((1.0 - a) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut remaining = k;
        let mut sum = 0.0f64;
        for &(idx, c) in self.buckets.iter().rev() {
            let bound = bucket_bound(idx as usize);
            let take = remaining.min(c);
            if bound.is_infinite() {
                return Some(f64::INFINITY);
            }
            sum += bound * take as f64;
            remaining -= take;
            if remaining == 0 {
                break;
            }
        }
        Some(sum / k as f64)
    }

    /// Samples in buckets strictly above the bucket containing `tau`.
    /// When `tau` is an exact bucket bound (every [`TAU_LADDER`] rung
    /// is), this is *exactly* the number of samples with `CR > tau`.
    #[must_use]
    pub fn exceed_count(&self, tau: f64) -> u64 {
        let cut = bucket_index(tau) as u32;
        self.buckets.iter().filter(|&&(idx, _)| idx > cut).map(|&(_, c)| c).sum()
    }

    /// The exceedance rate `P(CR > τ)` (`0` for an empty digest).
    #[must_use]
    pub fn exceed_rate(&self, tau: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.exceed_count(tau) as f64 / self.count as f64
        }
    }

    /// The digest of the combined sample — integer bucket addition, so
    /// merging is exactly associative and commutative.
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        let mut map: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(idx, c) in &other.buckets {
            *map.entry(idx).or_insert(0) += c;
        }
        Self { count: self.count + other.count, buckets: map.into_iter().collect() }
    }

    /// Serializes to the canonical JSON value:
    /// `{"buckets":[[idx,count],...],"count":n}` — integers only, no
    /// floats, so the encoding is byte-stable and lossless.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("count".to_string(), Value::UInt(self.count));
        obj.insert(
            "buckets".to_string(),
            Value::Arr(
                self.buckets
                    .iter()
                    .map(|&(idx, c)| Value::Arr(vec![Value::UInt(u64::from(idx)), Value::UInt(c)]))
                    .collect(),
            ),
        );
        Value::Obj(obj)
    }

    /// Parses a digest previously produced by [`SketchDigest::to_value`].
    /// Returns `None` on a malformed value.
    #[must_use]
    pub fn from_value(v: &Value) -> Option<Self> {
        let obj = v.as_obj()?;
        let count = obj.get("count").and_then(Value::as_u64)?;
        let mut buckets = Vec::new();
        for pair in obj.get("buckets").and_then(Value::as_arr)? {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            let idx = pair[0].as_u64()?;
            if idx > BOUND_COUNT as u64 {
                return None;
            }
            let c = pair[1].as_u64()?;
            if let Some(&(last, _)) = buckets.last() {
                if idx as u32 <= last {
                    return None;
                }
            }
            buckets.push((idx as u32, c));
        }
        Some(Self { count, buckets })
    }
}

/// The fleet risk ledger: the exceedance ladder, the fleet-wide digest,
/// and every vehicle's digest — the `"risk"` section of a
/// [`crate::RunReport`]. The fleet digest is the merge of the vehicle
/// digests (a serialized report lets an offline audit re-derive every
/// gauge bit-exactly).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RiskReport {
    /// Exceedance rungs the report was built against.
    pub tau_ladder: Vec<f64>,
    /// Fleet-wide digest (merge of all vehicle digests).
    pub fleet: SketchDigest,
    /// Per-vehicle digests, keyed by stream id.
    pub vehicles: BTreeMap<u64, SketchDigest>,
}

impl RiskReport {
    /// The report over `(stream, sketch)` pairs: each sketch's digest
    /// under its stream id, and the fleet digest as their bucket-wise
    /// integer sum — independent of iteration order and thread count.
    /// Each stream must appear once.
    #[must_use]
    pub fn from_sketches<'a>(sketches: impl IntoIterator<Item = (u64, &'a CrSketch)>) -> Self {
        let mut counts = [0u64; BOUND_COUNT + 1];
        let vehicles = sketches
            .into_iter()
            .map(|(stream, sketch)| {
                let digest = sketch.digest();
                for &(index, count) in &digest.buckets {
                    counts[index as usize] += count;
                }
                (stream, digest)
            })
            .collect();
        let fleet = SketchDigest::from_counts(counts);
        Self { tau_ladder: TAU_LADDER.to_vec(), fleet, vehicles }
    }

    /// Serializes to the canonical JSON value (sorted keys, integer
    /// digests, finite ladder floats).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert(
            "tau_ladder".to_string(),
            Value::Arr(self.tau_ladder.iter().map(|&t| Value::float(t)).collect()),
        );
        obj.insert("fleet".to_string(), self.fleet.to_value());
        obj.insert(
            "vehicles".to_string(),
            Value::Obj(self.vehicles.iter().map(|(k, d)| (k.to_string(), d.to_value())).collect()),
        );
        Value::Obj(obj)
    }

    /// Parses a report previously produced by [`RiskReport::to_value`].
    /// Returns `None` on a malformed value.
    #[must_use]
    pub fn from_value(v: &Value) -> Option<Self> {
        let obj = v.as_obj()?;
        let mut tau_ladder = Vec::new();
        for t in obj.get("tau_ladder").and_then(Value::as_arr)? {
            tau_ladder.push(t.as_f64()?);
        }
        let fleet = SketchDigest::from_value(obj.get("fleet")?)?;
        let mut vehicles = BTreeMap::new();
        for (k, dv) in obj.get("vehicles").and_then(Value::as_obj)? {
            let stream = k.parse::<u64>().ok()?;
            vehicles.insert(stream, SketchDigest::from_value(dv)?);
        }
        Some(Self { tau_ladder, fleet, vehicles })
    }
}

/// The process-wide per-stream CR sketch collection.
///
/// Sharded like the tracer and the monitor; a disabled hub costs one
/// relaxed load per instrumentation site.
pub struct RiskHub {
    enabled: AtomicBool,
    shards: [Mutex<BTreeMap<u64, CrSketch>>; SHARDS],
}

impl RiskHub {
    /// A hub that records immediately (for local/test use).
    #[must_use]
    pub fn new() -> Self {
        let h = Self::disabled();
        h.enable();
        h
    }

    /// A hub that starts disabled — the state of [`global`] at startup.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            shards: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
        }
    }

    /// Starts recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording; accumulated sketches remain until
    /// [`RiskHub::reset`].
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether the hub currently records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Discards every sketch.
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }

    /// Records one stop's realized costs against `stream`, creating its
    /// sketch on first use. A no-op while the hub is disabled.
    pub fn record(&self, stream: u64, online_s: f64, offline_s: f64) {
        if !self.is_enabled() {
            return;
        }
        let shard = &self.shards[(stream % SHARDS as u64) as usize];
        let mut sketches = shard.lock().unwrap_or_else(PoisonError::into_inner);
        sketches.entry(stream).or_default().record_ratio(online_s, offline_s);
    }

    /// Snapshots every stream into a [`RiskReport`] (sorted by stream
    /// id, so the report is deterministic for any thread interleaving).
    #[must_use]
    pub fn report(&self) -> RiskReport {
        let shards: Vec<_> = self
            .shards
            .iter()
            .map(|shard| shard.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();
        RiskReport::from_sketches(
            shards.iter().flat_map(|sketches| sketches.iter().map(|(&s, sketch)| (s, sketch))),
        )
    }
}

impl Default for RiskHub {
    fn default() -> Self {
        Self::new()
    }
}

static GLOBAL_HUB: OnceLock<RiskHub> = OnceLock::new();

/// The process-wide risk hub of the scalar controllers. Starts
/// disabled; harness binaries enable it with `--risk` (see
/// `bench::RunReporter`). Fleet runners keep their own lane sketches
/// and never record here.
#[must_use]
pub fn global() -> &'static RiskHub {
    GLOBAL_HUB.get_or_init(RiskHub::disabled)
}

/// Whether the global hub is recording — one relaxed atomic load, the
/// entire cost of a disabled hub at an instrumentation site.
#[must_use]
pub fn active() -> bool {
    global().is_enabled()
}

/// Records one stop's realized costs against the *current thread's*
/// stream (the one bound by `tracer::set_stream`). A no-op while the
/// hub is disabled.
pub fn record_current(online_s: f64, offline_s: f64) {
    if !active() {
        return;
    }
    let (stream, _) = crate::tracer::current();
    global().record(stream, online_s, offline_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_exact_eighth_octaves() {
        let bounds = cr_bounds();
        assert_eq!(bounds.len(), BOUND_COUNT);
        assert_eq!(bounds[0], 1.0);
        assert_eq!(bounds[8], 2.0);
        assert_eq!(bounds[16], 4.0);
        assert_eq!(bounds[96], 4096.0);
        assert!(bounds.windows(2).all(|w| w[0] < w[1] && w[1].is_finite()));
        // Every bound one octave up is exactly double: powi + literal
        // steps accumulate no multiplication error.
        for i in 0..BOUND_COUNT - 8 {
            assert_eq!(bounds[i + 8], bounds[i] * 2.0, "octave step at {i}");
        }
        // Every ladder rung is an exact bound.
        for tau in TAU_LADDER {
            assert!(bounds.contains(&tau), "{tau} is not an exact bound");
        }
    }

    #[test]
    fn bucketing_follows_the_le_convention() {
        assert_eq!(bucket_index(0.5), 0);
        assert_eq!(bucket_index(1.0), 0);
        assert_eq!(bucket_index(1.0000001), 1);
        assert_eq!(bucket_index(2.0), 8);
        assert_eq!(bucket_index(2.0000001), 9);
        assert_eq!(bucket_index(4096.0), 96);
        assert_eq!(bucket_index(5000.0), BOUND_COUNT);
        assert_eq!(bucket_index(f64::INFINITY), BOUND_COUNT);
        assert_eq!(bucket_bound(BOUND_COUNT), f64::INFINITY);
    }

    #[test]
    fn ratio_follows_the_infinity_convention() {
        assert_eq!(realized_cr(0.0, 0.0), 1.0);
        assert_eq!(realized_cr(3.0, 0.0), f64::INFINITY);
        assert!((realized_cr(3.0, 2.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sketch_records_and_digests() {
        let s = CrSketch::new();
        s.record_cr(1.0);
        s.record_cr(2.0);
        s.record_cr(2.0);
        s.record_cr(f64::INFINITY);
        s.record_cr(f64::NAN); // ignored
        assert_eq!(s.count(), 4);
        let d = s.digest();
        assert_eq!(d.count, 4);
        assert_eq!(d.buckets, vec![(0, 1), (8, 2), (BOUND_COUNT as u32, 1)]);
        assert_eq!(d.exceed_count(2.0), 1);
        assert_eq!(d.exceed_count(1.0), 3);
        assert_eq!(d.quantile(0.5), Some(2.0));
        assert_eq!(d.quantile(1.0), Some(f64::INFINITY));
        assert_eq!(d.cvar(0.99), Some(f64::INFINITY));
    }

    #[test]
    fn empty_digest_queries_are_none() {
        let d = SketchDigest::default();
        assert_eq!(d.quantile(0.5), None);
        assert_eq!(d.cvar(0.95), None);
        assert_eq!(d.exceed_count(2.0), 0);
        assert_eq!(d.exceed_rate(2.0), 0.0);
    }

    #[test]
    fn cvar_averages_the_worst_tail() {
        let s = CrSketch::new();
        for _ in 0..9 {
            s.record_cr(1.0);
        }
        s.record_cr(4.0);
        let d = s.digest();
        // Worst 10% of 10 samples = the single 4.0.
        assert_eq!(d.cvar(0.9), Some(4.0));
        // Worst 20% = {4.0, 1.0} → mean 2.5.
        assert_eq!(d.cvar(0.8), Some(2.5));
        // alpha 0 = plain mean of bucket bounds.
        assert_eq!(d.cvar(0.0), Some((9.0 + 4.0) / 10.0));
    }

    #[test]
    fn merge_matches_concat_and_commutes() {
        let a = CrSketch::new();
        let b = CrSketch::new();
        let both = CrSketch::new();
        for (i, v) in [1.0, 1.5, 2.0, 3.0, 7.0, 100.0, f64::INFINITY].iter().enumerate() {
            if i % 2 == 0 {
                a.record_cr(*v)
            } else {
                b.record_cr(*v)
            }
            both.record_cr(*v);
        }
        let ab = a.digest().merge(&b.digest());
        let ba = b.digest().merge(&a.digest());
        assert_eq!(ab, ba);
        assert_eq!(ab, both.digest());
        // Sketch-level merge agrees too.
        a.merge(&b);
        assert_eq!(a.digest(), both.digest());
        // So does adding a saved digest, the way a restart restores one.
        let restored = CrSketch::new();
        restored.add_digest(&b.digest());
        restored.add_digest(&SketchDigest { count: 1, buckets: vec![(BOUND_COUNT as u32 + 1, 1)] });
        for (i, v) in [1.0, 1.5, 2.0, 3.0, 7.0, 100.0, f64::INFINITY].iter().enumerate() {
            if i % 2 == 0 {
                restored.record_cr(*v);
            }
        }
        assert_eq!(restored.digest(), both.digest());
    }

    #[test]
    fn digest_json_roundtrip_is_byte_identical() {
        let s = CrSketch::new();
        for v in [1.0, 1.2, 2.5, 900.0, f64::INFINITY] {
            s.record_cr(v);
        }
        let d = s.digest();
        let json = d.to_value().to_string();
        let back = SketchDigest::from_value(&Value::parse(&json).unwrap()).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.to_value().to_string(), json);
        // Malformed inputs are rejected, not misparsed.
        assert!(SketchDigest::from_value(&Value::parse("{}").unwrap()).is_none());
        let out_of_order = r#"{"buckets":[[8,1],[2,1]],"count":2}"#;
        assert!(SketchDigest::from_value(&Value::parse(out_of_order).unwrap()).is_none());
        let bad_idx = r#"{"buckets":[[98,1]],"count":1}"#;
        assert!(SketchDigest::from_value(&Value::parse(bad_idx).unwrap()).is_none());
    }

    #[test]
    fn risk_report_roundtrip_and_fleet_merge() {
        let hub = RiskHub::new();
        hub.record(3, 5.0, 4.0);
        hub.record(3, 6.0, 2.0);
        hub.record(19, 1.0, 1.0);
        hub.record(19, 7.0, 0.0); // ∞ → overflow bucket
        let report = hub.report();
        assert_eq!(report.vehicles.len(), 2);
        assert_eq!(report.fleet.count, 4);
        // The fleet digest is exactly the merge of the vehicle digests.
        let remerged =
            report.vehicles.values().fold(SketchDigest::default(), |acc, d| acc.merge(d));
        assert_eq!(remerged, report.fleet);
        let json = report.to_value().to_string();
        let back = RiskReport::from_value(&Value::parse(&json).unwrap()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_value().to_string(), json);
    }

    #[test]
    fn disabled_hub_records_nothing_and_reset_clears() {
        let hub = RiskHub::disabled();
        assert!(!hub.is_enabled());
        hub.record(0, 2.0, 1.0);
        assert_eq!(hub.report().fleet.count, 0);
        hub.enable();
        hub.record(0, 2.0, 1.0);
        assert_eq!(hub.report().fleet.count, 1);
        hub.reset();
        assert_eq!(hub.report().fleet.count, 0);
    }

    #[test]
    fn report_from_lane_sketches_matches_the_hub() {
        let lanes: Vec<CrSketch> = (0..3).map(|_| CrSketch::new()).collect();
        let hub = RiskHub::new();
        for (i, (online, offline)) in
            [(5.0, 4.0), (6.0, 2.0), (1.0, 1.0), (7.0, 0.0)].into_iter().enumerate()
        {
            lanes[i % 3].record_ratio(online, offline);
            hub.record(10 + (i % 3) as u64, online, offline);
        }
        let report = RiskReport::from_sketches(
            lanes.iter().enumerate().map(|(lane, sketch)| (10 + lane as u64, sketch)),
        );
        assert_eq!(report, hub.report());
        assert_eq!(report.fleet.count, 4);
    }

    #[test]
    fn exceed_rates_are_exact_at_ladder_rungs() {
        let s = CrSketch::new();
        // 6 samples at exactly 2.0, 4 above it.
        for _ in 0..6 {
            s.record_cr(2.0);
        }
        for _ in 0..4 {
            s.record_cr(2.1);
        }
        let d = s.digest();
        assert_eq!(d.exceed_count(2.0), 4, "samples AT the rung do not exceed it");
        assert!((d.exceed_rate(2.0) - 0.4).abs() < 1e-15);
    }
}
