//! Property tests for the metric primitives: the algebraic facts the
//! perf gate and the report pipeline rely on — and for the decision-trace
//! JSONL encoding, which `trace_diff` requires to be byte-canonical.

use obsv::risk::{bucket_bound, bucket_index, cr_bounds, CrSketch, BOUND_COUNT, TAU_LADDER};
use obsv::{
    AlarmRecord, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, Monitor, MonitorConfig,
    MonitorReport, PageHinkley, RunReport, SketchDigest, StreamSummary, TraceEvent, TraceRecord,
};
use proptest::prelude::*;

const BOUNDS: [f64; 4] = [1.0, 10.0, 100.0, 1000.0];

/// Builds a snapshot by recording `values` into a fresh histogram.
fn hist_of(values: &[f64]) -> HistogramSnapshot {
    let r = MetricsRegistry::new();
    let h = r.histogram("h", &BOUNDS);
    for &v in values {
        h.record(v);
    }
    r.snapshot().histograms["h"].clone()
}

fn values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..5000.0, 0..60)
}

/// Realized-CR samples: CRs never fall below 1; the upper end runs past
/// the sketch's last finite bound (4096) to exercise the overflow path.
fn crs() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1.0f64..5000.0, 0..80)
}

/// Digest of a fresh sketch fed `values` (plus `infs` infinite CRs —
/// the `x/0 → ∞` convention's overflow-bucket samples).
fn digest_of(values: &[f64], infs: usize) -> SketchDigest {
    let s = CrSketch::new();
    for &v in values {
        s.record_cr(v);
    }
    for _ in 0..infs {
        s.record_cr(f64::INFINITY);
    }
    s.digest()
}

/// An arbitrary trace record: `kind` selects the variant, the float /
/// integer / flag inputs fill its fields (the vendored proptest has no
/// `prop_oneof`, so variant selection is an explicit index + match).
/// Odd `opts` bits drive the `Option<f64>` fields to `None`, and one
/// float is occasionally forced non-finite to cover the NaN↔null path.
#[allow(clippy::too_many_arguments)]
fn record_of(
    kind: usize,
    stream: u64,
    stop: u64,
    seq: u64,
    f1: f64,
    f2: f64,
    f3: f64,
    n: u64,
    opts: u8,
    flag: bool,
) -> TraceRecord {
    let names = ["DET", "TOI", "b-DET", "N-Rand"];
    let name = names[(n % 4) as usize].to_string();
    let opt1 = (opts & 1 != 0).then_some(f2);
    let opt2 = (opts & 2 != 0).then_some(f3);
    // Exercise the non-finite → null encoding on a required field.
    let f1 = if opts & 4 != 0 { f64::NAN } else { f1 };
    let event = match kind {
        0 => TraceEvent::StopDecision {
            vertex: name.into(),
            threshold_b: f1,
            mu_b_minus: opt1,
            q_b_plus: opt2,
            chosen_cost_bound: (opts & 8 != 0).then_some(f2 + f3),
        },
        1 => TraceEvent::StopCost {
            threshold_b: f1,
            stop_s: f2,
            online_s: f3,
            offline_s: f2.min(f3),
            restarted: flag,
        },
        2 => TraceEvent::LadderTransition {
            from: name,
            to: names[((n + 1) % 4) as usize].to_string(),
            anomalies_in_window: n,
            clean_streak: n / 3,
        },
        3 => TraceEvent::SanitizeVerdict {
            event_index: n,
            class: "non_finite".to_string(),
            start_s: f1,
            duration_s: f2,
        },
        4 => TraceEvent::EstimatorUpdate {
            observed_s: f1,
            accepted: flag,
            len: n,
            mu_b_minus: opt1,
            q_b_plus: opt2,
        },
        5 => TraceEvent::FaultApplied { event_index: n, fault: name },
        6 => TraceEvent::MonitorAlarm {
            alarm: name,
            detail: names[((n + 2) % 4) as usize].to_string(),
            observed: f1,
            limit: f2,
            window_len: n,
        },
        _ => TraceEvent::Session {
            what: name.into(),
            client: n,
            step: n / 2,
            detail: names[((n + 3) % 4) as usize].to_string(),
        },
    };
    TraceRecord { stream, stop, seq, event }
}

proptest! {
    /// Merging is exactly associative and commutative — the fixed-point
    /// integer sum means no floating-point reassociation error, so a
    /// sharded run's merged histogram is independent of merge order.
    #[test]
    fn histogram_merge_associative_commutative(
        a in values(),
        b in values(),
        c in values(),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let ab = ha.merge(&hb).unwrap();
        let ba = hb.merge(&ha).unwrap();
        prop_assert_eq!(&ab, &ba);
        let ab_c = ab.merge(&hc).unwrap();
        let a_bc = ha.merge(&hb.merge(&hc).unwrap()).unwrap();
        prop_assert_eq!(&ab_c, &a_bc);
        prop_assert_eq!(ab_c.count(), (a.len() + b.len() + c.len()) as u64);
    }

    /// A merged histogram equals the histogram of the concatenated
    /// sample — merging loses nothing but ordering.
    #[test]
    fn histogram_merge_equals_concat(a in values(), b in values()) {
        let merged = hist_of(&a).merge(&hist_of(&b)).unwrap();
        let mut both = a.clone();
        both.extend_from_slice(&b);
        prop_assert_eq!(merged, hist_of(&both));
    }

    /// Counter values observed across a snapshot sequence are monotone
    /// non-decreasing: counters only ever add.
    #[test]
    fn counter_snapshots_monotone(increments in prop::collection::vec(0u64..1000, 1..40)) {
        let r = MetricsRegistry::new();
        let c = r.counter("events");
        let mut previous = 0u64;
        let mut expected = 0u64;
        for inc in increments {
            c.add(inc);
            expected += inc;
            let seen = r.snapshot().counters["events"];
            prop_assert!(seen >= previous, "counter went backwards: {} < {}", seen, previous);
            prop_assert_eq!(seen, expected);
            previous = seen;
        }
    }

    /// Decision-trace JSONL round-trips byte-identically: encode → parse
    /// → re-encode reproduces the exact line, for every event variant,
    /// optional-field combination, and the NaN↔null required-float path.
    /// This is the canonical-encoding property `trace_diff` relies on.
    #[test]
    fn trace_jsonl_roundtrip_is_byte_identical(
        kind in 0usize..8,
        stream in 0u64..1_000_000,
        stop in 0u64..100_000,
        seq in 0u64..100_000,
        f1 in -10.0f64..5000.0,
        f2 in 0.0f64..5000.0,
        f3 in 0.0f64..5000.0,
        n in 0u64..100_000,
        opts in 0u8..16,
        flag in 0u8..2,
    ) {
        let rec = record_of(kind, stream, stop, seq, f1, f2, f3, n, opts, flag == 1);
        let line = rec.to_json_line();
        let back = TraceRecord::from_json_line(&line).expect("own encoding re-parses");
        prop_assert_eq!(back.to_json_line(), line);
        prop_assert_eq!(back.key(), rec.key());
        prop_assert_eq!(back.event.kind(), rec.event.kind());
    }

    /// Histogram count/sum stay consistent under arbitrary input,
    /// including the garbage-clamping path.
    #[test]
    fn histogram_count_tracks_records(values in prop::collection::vec(-100.0f64..5000.0, 0..80)) {
        let r = MetricsRegistry::new();
        let h = r.histogram("h", &BOUNDS);
        for &v in &values {
            h.record(v);
        }
        let s = r.snapshot().histograms["h"].clone();
        prop_assert_eq!(s.count(), values.len() as u64);
        prop_assert_eq!(s.counts.iter().sum::<u64>(), values.len() as u64);
    }

    /// A Page-Hinkley detector never fires on a constant stream: the
    /// running mean locks onto the value exactly (incremental mean of a
    /// constant is the constant, no rounding), both cumulative deviations
    /// drift monotonically by exactly `∓δ`, and the statistic stays `0`.
    #[test]
    fn page_hinkley_constant_stream_never_fires(
        value in -1000.0f64..1000.0,
        delta in 0.01f64..5.0,
        lambda in 0.1f64..100.0,
        warmup in 0usize..20,
        len in 1usize..300,
    ) {
        let mut ph = PageHinkley::with_warmup(delta, lambda, warmup);
        for _ in 0..len {
            prop_assert!(!ph.observe(value), "fired on a constant stream");
        }
        prop_assert_eq!(ph.statistic(), 0.0);
        prop_assert_eq!(ph.mean(), value);
    }

    /// After a mean shift of `s` with tolerance `δ = s/4` and threshold
    /// `λ = 2s`, the detector fires within 30 post-shift observations:
    /// each step accumulates at least `s·(n₀/(n₀+k) − 1/4)` of evidence,
    /// which crosses `2s` well inside the budget for `n₀ = 50`.
    #[test]
    fn page_hinkley_fires_within_budget_after_shift(
        base in -100.0f64..100.0,
        shift in 1.0f64..100.0,
        up in 0u8..2,
    ) {
        let s = if up == 1 { shift } else { -shift };
        let mut ph = PageHinkley::with_warmup(shift / 4.0, 2.0 * shift, 10);
        for _ in 0..50 {
            prop_assert!(!ph.observe(base), "fired before the shift");
        }
        let mut fired = false;
        for k in 0..30 {
            if ph.observe(base + s) {
                fired = true;
                let _ = k;
                break;
            }
        }
        prop_assert!(fired, "no alarm within 30 observations of a {}-sized shift", shift);
    }

    /// The monitor's windowed ledger matches an offline recomputation
    /// from the same cost sequence to the last bit: same window contents,
    /// same left-to-right summation order, same `∞`-convention for the
    /// zero-offline edge (`0/0 → 1`).
    #[test]
    fn windowed_ledger_matches_offline_recomputation(
        costs in prop::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 1..100),
        window in 1usize..20,
        zero_offline in 0u8..2,
    ) {
        let config = MonitorConfig { window, ..MonitorConfig::default() };
        let monitor = Monitor::new(config);
        let mut costs = costs;
        if zero_offline == 1 {
            // Exercise the ∞-convention: an all-zero window.
            costs.fill((0.0, 0.0));
        }
        for (i, &(online, offline)) in costs.iter().enumerate() {
            monitor.observe(7, i as u64, &TraceEvent::StopCost {
                threshold_b: 1.0,
                stop_s: offline,
                online_s: online,
                offline_s: offline,
                restarted: false,
            });
        }
        let report = monitor.report();
        let s = &report.streams[&7];

        // Offline recomputation, same order and association.
        let tail = &costs[costs.len().saturating_sub(window)..];
        let (mut online, mut offline) = (0.0f64, 0.0f64);
        for &(on, off) in tail {
            online += on;
            offline += off;
        }
        let expected_cr = if offline > 0.0 {
            online / offline
        } else if online == 0.0 {
            1.0
        } else {
            f64::INFINITY
        };
        prop_assert_eq!(s.windowed_online_s.to_bits(), online.to_bits());
        prop_assert_eq!(s.windowed_offline_s.to_bits(), offline.to_bits());
        prop_assert_eq!(s.windowed_cr().to_bits(), expected_cr.to_bits());
        prop_assert_eq!(s.stops, costs.len() as u64);
    }

    /// Risk-sketch merging is exactly associative and commutative, and a
    /// merged digest equals the digest of the concatenated sample — the
    /// algebra that makes the fleet CVaR ledger independent of sharding
    /// and merge order.
    #[test]
    fn risk_digest_merge_associative_commutative(
        a in crs(),
        b in crs(),
        c in crs(),
        infs in 0usize..3,
    ) {
        let da = digest_of(&a, infs);
        let db = digest_of(&b, 0);
        let dc = digest_of(&c, 0);
        let ab = da.merge(&db);
        let ba = db.merge(&da);
        prop_assert_eq!(&ab, &ba);
        let ab_c = ab.merge(&dc);
        let a_bc = da.merge(&db.merge(&dc));
        prop_assert_eq!(&ab_c, &a_bc);
        prop_assert_eq!(ab_c.count, (a.len() + b.len() + c.len() + infs) as u64);
        let mut both = a.clone();
        both.extend_from_slice(&b);
        both.extend_from_slice(&c);
        prop_assert_eq!(ab_c, digest_of(&both, infs));
    }

    /// Every digest query agrees with a brute-force oracle over the
    /// sorted vector of per-sample bucket bounds: quantile is the
    /// rank-`⌈q·n⌉` element, CVaR is the grouped descending mean of the
    /// worst `⌈(1−α)·n⌉` bounds, and exceedance at a ladder rung counts
    /// the *raw* samples above it exactly (the rungs are exact bounds).
    /// All comparisons are on bits, not within an epsilon.
    #[test]
    fn risk_digest_queries_match_sorted_oracle(
        values in crs(),
        infs in 0usize..3,
        q in 0.0f64..1.0,
        alpha in 0.5f64..1.0,
    ) {
        let d = digest_of(&values, infs);
        let n = (values.len() + infs) as u64;
        prop_assert_eq!(d.count, n);
        if n == 0 {
            prop_assert_eq!(d.quantile(q), None);
            prop_assert_eq!(d.cvar(alpha), None);
            return Ok(());
        }
        let mut bounds: Vec<f64> =
            values.iter().map(|&v| bucket_bound(bucket_index(v))).collect();
        bounds.extend(std::iter::repeat(f64::INFINITY).take(infs));
        bounds.sort_by(f64::total_cmp);

        // Quantile: the rank-⌈q·n⌉ order statistic of the bound vector.
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let expected_q = bounds[(rank - 1) as usize];
        prop_assert_eq!(d.quantile(q).unwrap().to_bits(), expected_q.to_bits());

        // CVaR: mean of the worst k bounds, summed as `bound × count`
        // per distinct bound in descending order — the digest's own
        // association, so the floats must agree bit for bit.
        let k = (((1.0 - alpha) * n as f64).ceil() as u64).clamp(1, n);
        let tail = &bounds[bounds.len() - k as usize..];
        let expected_cvar = if tail.iter().any(|b| b.is_infinite()) {
            f64::INFINITY
        } else {
            let mut sum = 0.0f64;
            let mut i = tail.len();
            while i > 0 {
                let bound = tail[i - 1];
                let mut j = i;
                while j > 0 && tail[j - 1] == bound {
                    j -= 1;
                }
                sum += bound * (i - j) as f64;
                i = j;
            }
            sum / k as f64
        };
        prop_assert_eq!(d.cvar(alpha).unwrap().to_bits(), expected_cvar.to_bits());

        // Exceedance at every ladder rung is exact over raw samples —
        // not bucket-resolution-approximate — because each rung is an
        // exact bucket bound.
        for tau in TAU_LADDER {
            let expected = values.iter().filter(|&&v| v > tau).count() + infs;
            prop_assert_eq!(d.exceed_count(tau), expected as u64);
            let expected_rate = expected as f64 / n as f64;
            prop_assert_eq!(d.exceed_rate(tau).to_bits(), expected_rate.to_bits());
        }
    }

    /// A run report carrying a monitor section round-trips through the
    /// hand-rolled JSON writer byte-identically — same canonical-encoding
    /// property the metrics sections already guarantee, extended to the
    /// per-stream summaries and alarm lists (including NaN↔null floats).
    #[test]
    fn monitor_report_json_roundtrip_is_byte_identical(
        streams in prop::collection::vec(
            (0u64..1000, 0.0f64..5000.0, 0.0f64..5000.0, 0u64..500, 0u8..16),
            0..5,
        ),
        observed in 0.0f64..100.0,
    ) {
        let mut monitor = MonitorReport::default();
        for &(id, online, offline, stops, opts) in &streams {
            let mut s = StreamSummary {
                stops,
                online_s: online,
                offline_s: offline,
                windowed_online_s: online / 2.0,
                windowed_offline_s: offline / 2.0,
                transitions: stops / 7,
                ..StreamSummary::default()
            };
            if opts & 1 != 0 {
                s.last_vertex = Some("DET".to_string());
            }
            if opts & 2 != 0 {
                s.bound_cr = Some(1.0 + observed);
            }
            // Exercise the non-finite → null path on a required float.
            s.mu_stat = if opts & 4 != 0 { f64::NAN } else { observed };
            if opts & 8 != 0 {
                s.trust = "Degraded".to_string();
                s.alarms.push(AlarmRecord {
                    stop: stops,
                    alarm: "drift".to_string(),
                    detail: "mu_b_minus".to_string(),
                    observed,
                    limit: 2.0 * observed,
                });
            }
            monitor.streams.insert(id, s);
        }
        let report = RunReport::new("proptest", 1.0, MetricsSnapshot::default())
            .with_meta("seed", 7)
            .with_monitor(monitor);
        let json = report.to_json();
        let back = RunReport::from_json(&json).expect("own encoding re-parses");
        prop_assert_eq!(back.to_json(), json);
    }
}

/// The bucket search `bucket_index` replaces, kept here as its oracle.
fn bucket_index_reference(cr: f64) -> usize {
    cr_bounds().partition_point(|&b| cr > b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// Arbitrary f64 bit patterns: every sign, exponent and NaN payload.
    #[test]
    fn bucket_index_equals_partition_point_on_any_bits(bits in 0u64..u64::MAX) {
        let v = f64::from_bits(bits);
        prop_assert_eq!(bucket_index(v), bucket_index_reference(v));
    }

    /// Every f64 in the bounded range `[1, 4097]`, drawn uniformly by bit
    /// pattern so each octave gets its share.
    #[test]
    fn bucket_index_equals_partition_point_in_range(
        bits in 1.0f64.to_bits()..4097.0f64.to_bits(),
    ) {
        let v = f64::from_bits(bits);
        prop_assert_eq!(bucket_index(v), bucket_index_reference(v));
    }
}

#[test]
fn bucket_index_edges_equal_partition_point() {
    let mut edges = vec![
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::MIN_POSITIVE / 2.0,
        f64::MIN_POSITIVE,
        1.0,
        4096.0,
        4097.0,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.5,
        f64::NAN,
    ];
    for &b in cr_bounds() {
        edges.extend([f64::from_bits(b.to_bits() - 1), b, f64::from_bits(b.to_bits() + 1)]);
    }
    for v in edges {
        assert_eq!(bucket_index(v), bucket_index_reference(v), "v = {v:e} ({:#x})", v.to_bits());
    }
    assert_eq!(bucket_index(1.0), 0);
    assert_eq!(bucket_index(4096.0), BOUND_COUNT - 1);
    assert_eq!(bucket_index(4097.0), BOUND_COUNT);
    assert_eq!(bucket_index(f64::INFINITY), BOUND_COUNT);
    for (i, &b) in cr_bounds().iter().enumerate() {
        assert_eq!(bucket_index(b), i, "bound {i} lands in its own bucket");
    }
    for tau in TAU_LADDER {
        assert_eq!(bucket_bound(bucket_index(tau)).to_bits(), tau.to_bits(), "rung {tau}");
    }
}

#[test]
fn concurrent_records_count_as_the_bucket_sum_and_nan_is_ignored() {
    const PER_THREAD: u64 = 20_000;
    let sketch = CrSketch::new();
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let sketch = &sketch;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // CRs from 1 to past the overflow bound, plus NaNs
                    // that must leave no trace.
                    sketch.record_cr(1.0 + ((i * 4 + t) % 5000) as f64);
                    sketch.record_cr(f64::NAN);
                }
            });
        }
    });
    let digest = sketch.digest();
    let bucket_sum: u64 = digest.buckets.iter().map(|&(_, c)| c).sum();
    assert_eq!(sketch.count(), 4 * PER_THREAD);
    assert_eq!(digest.count, bucket_sum);
    assert_eq!(bucket_sum, 4 * PER_THREAD);
}
