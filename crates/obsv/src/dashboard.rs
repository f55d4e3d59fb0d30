//! Shared plain-text dashboard rendering for monitor-backed consoles.
//!
//! The `monitor` bin's replay view, its `--live` mode, and the `fleetctl
//! tail` TUI all render the same surfaces: a per-stream table with
//! windowed-CR sparklines, the trust-ladder occupancy line, and the
//! alarm log. This module owns that rendering so every console draws
//! from one implementation — the bins only decide *when* to draw a
//! frame and where the records come from.
//!
//! Everything here returns `String`s rather than printing, so callers
//! can compose frames (prepend cursor-home escapes for a live TUI,
//! append status lines, or write frames to a log).

use crate::event::{TraceEvent, TraceRecord};
use crate::monitor::MonitorReport;
use crate::risk::realized_cr;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Streams shown in the dashboard table before truncation.
pub const MAX_ROWS: usize = 16;
/// Alarm-log lines shown before truncation.
pub const MAX_ALARM_LINES: usize = 40;
/// Default sparkline width, columns.
pub const SPARK_COLS: usize = 40;
/// Sparkline intensity ramp, low CR → high CR.
const RAMP: &[u8] = b".:-=+*#%@";

/// Formats a CR for table output (`inf` for unbounded), 7 columns wide.
#[must_use]
pub fn fmt_cr(cr: f64) -> String {
    if cr.is_infinite() {
        "    inf".to_string()
    } else {
        format!("{cr:7.4}")
    }
}

/// Downsamples `series` to at most `cols` columns (chunk maxima, so
/// spikes survive) and maps each to the intensity ramp, scaled from CR 1
/// (every realized CR is ≥ 1) to the series maximum. Non-finite windows
/// (offline cost still zero) render as `!`.
#[must_use]
pub fn sparkline(series: &[f64], cols: usize) -> String {
    if series.is_empty() {
        return String::new();
    }
    let chunk = series.len().div_ceil(cols);
    let points: Vec<f64> =
        series.chunks(chunk).map(|c| c.iter().copied().fold(f64::NEG_INFINITY, f64::max)).collect();
    let top = points.iter().copied().filter(|v| v.is_finite()).fold(1.0f64, f64::max);
    points
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                '!'
            } else if top <= 1.0 {
                RAMP[0] as char
            } else {
                let t = ((v - 1.0) / (top - 1.0)).clamp(0.0, 1.0);
                let idx = (t * (RAMP.len() - 1) as f64).round() as usize;
                RAMP[idx] as char
            }
        })
        .collect()
}

/// Recomputes each stream's windowed-CR history from its `stop_cost`
/// records — the same ledger the monitor keeps, unrolled over time so
/// the dashboard can draw it.
#[must_use]
pub fn cr_series(records: &[TraceRecord], window: usize) -> BTreeMap<u64, Vec<f64>> {
    let mut ledgers: BTreeMap<u64, VecDeque<(f64, f64)>> = BTreeMap::new();
    let mut series: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for r in records {
        if let TraceEvent::StopCost { online_s, offline_s, .. } = r.event {
            let ledger = ledgers.entry(r.stream).or_default();
            ledger.push_back((online_s, offline_s));
            if ledger.len() > window {
                ledger.pop_front();
            }
            let (mut online, mut offline) = (0.0, 0.0);
            for (on, off) in ledger.iter() {
                online += on;
                offline += off;
            }
            series.entry(r.stream).or_default().push(realized_cr(online, offline));
        }
    }
    series
}

/// Renders the full dashboard — stream table (alarmed streams first, so
/// the interesting rows survive truncation), trust-ladder occupancy,
/// and alarm log — as one newline-terminated block.
#[must_use]
pub fn render_dashboard(report: &MonitorReport, series: &BTreeMap<u64, Vec<f64>>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10} {:>6} {:>7} {:>7} {:>7} {:<10} {:>8} {:>7} {:>6}  windowed CR (oldest → newest)",
        "stream", "stops", "cum CR", "win CR", "bound", "trust", "μ-PH", "q-PH", "alarms",
    );
    let mut order: Vec<_> = report.streams.iter().collect();
    order.sort_by(|(ia, a), (ib, b)| b.alarms.len().cmp(&a.alarms.len()).then(ia.cmp(ib)));
    for (stream, s) in order.iter().take(MAX_ROWS) {
        let bound = s.bound_cr.map_or("      -".to_string(), fmt_cr);
        let spark = series.get(stream).map_or(String::new(), |v| sparkline(v, SPARK_COLS));
        let _ = writeln!(
            out,
            "{:>10} {:>6} {} {} {} {:<10} {:>8.2} {:>7.3} {:>6}  {}",
            stream,
            s.stops,
            fmt_cr(s.cumulative_cr()),
            fmt_cr(s.windowed_cr()),
            bound,
            s.trust,
            s.mu_stat,
            s.q_stat,
            s.alarms.len(),
            spark
        );
    }
    if order.len() > MAX_ROWS {
        let _ = writeln!(
            out,
            "  … {} more streams (all streams are in the --report output)",
            order.len() - MAX_ROWS
        );
    }

    let mut occupancy: BTreeMap<&str, u64> = BTreeMap::new();
    for s in report.streams.values() {
        *occupancy.entry(s.trust.as_str()).or_default() += 1;
    }
    let occupancy: Vec<String> =
        occupancy.iter().map(|(level, n)| format!("{n} {level}")).collect();
    let _ = writeln!(out, "trust-ladder occupancy: {}", occupancy.join(", "));

    let total = report.total_alarms();
    if total == 0 {
        let _ = writeln!(out, "alarm log: empty");
        return out;
    }
    let _ = writeln!(
        out,
        "alarm log ({total}: {} drift, {} vertex_mismatch, {} cr_bound, {} tail_budget):",
        report.alarms_of("drift"),
        report.alarms_of("vertex_mismatch"),
        report.alarms_of("cr_bound"),
        report.alarms_of("tail_budget"),
    );
    let mut shown = 0usize;
    'log: for (stream, s) in &report.streams {
        for a in &s.alarms {
            if shown == MAX_ALARM_LINES {
                let _ = writeln!(out, "  … and {} more", total as usize - shown);
                break 'log;
            }
            let _ = writeln!(
                out,
                "  stream {:>10} stop {:>6}  {:<16} {} (observed {:.4}, limit {:.4})",
                stream, a.stop, a.alarm, a.detail, a.observed, a.limit
            );
            shown += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{Monitor, MonitorConfig};

    fn stop_record(stream: u64, stop: u64, online_s: f64, offline_s: f64) -> TraceRecord {
        TraceRecord {
            stream,
            stop,
            seq: 0,
            event: TraceEvent::StopCost {
                threshold_b: 1.0,
                stop_s: offline_s.max(online_s),
                online_s,
                offline_s,
                restarted: false,
            },
        }
    }

    #[test]
    fn sparkline_scales_to_ramp_extremes() {
        let s = sparkline(&[1.0, 1.5, 2.0], 3);
        assert_eq!(s.len(), 3);
        assert!(s.starts_with('.'), "CR 1 maps to the lowest ramp cell: {s:?}");
        assert!(s.ends_with('@'), "series max maps to the highest ramp cell: {s:?}");
    }

    #[test]
    fn sparkline_marks_nonfinite_and_flat_series() {
        assert_eq!(sparkline(&[f64::INFINITY, 1.0], 2), "!.");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0], 3), "...");
        assert_eq!(sparkline(&[], 10), "");
    }

    #[test]
    fn sparkline_downsampling_keeps_spikes() {
        let mut series = vec![1.0; 100];
        series[57] = 9.0;
        let s = sparkline(&series, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s.matches('@').count(), 1, "the spike survives chunk-maxima downsampling");
    }

    #[test]
    fn cr_series_windows_match_ledger() {
        let records = vec![
            stop_record(7, 0, 2.0, 1.0),
            stop_record(7, 1, 2.0, 2.0),
            stop_record(7, 2, 2.0, 2.0),
        ];
        let series = cr_series(&records, 2);
        let s = &series[&7];
        assert_eq!(s.len(), 3);
        assert!((s[0] - 2.0).abs() < 1e-12);
        assert!((s[1] - 4.0 / 3.0).abs() < 1e-12);
        assert!((s[2] - 1.0).abs() < 1e-12, "window 2 drops the first stop");
    }

    #[test]
    fn realized_cr_handles_zero_offline() {
        assert_eq!(realized_cr(0.0, 0.0), 1.0);
        assert!(realized_cr(1.0, 0.0).is_infinite());
        assert!((realized_cr(3.0, 2.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn render_dashboard_lists_streams_and_occupancy() {
        let monitor = Monitor::new(MonitorConfig::default());
        let records = vec![stop_record(3, 0, 5.0, 5.0), stop_record(9, 0, 6.0, 3.0)];
        monitor.replay(&records);
        let report = monitor.report();
        let text = render_dashboard(&report, &cr_series(&records, 50));
        assert!(text.contains("windowed CR"));
        assert!(text.lines().any(|l| l.trim_start().starts_with('3')));
        assert!(text.lines().any(|l| l.trim_start().starts_with('9')));
        assert!(text.contains("trust-ladder occupancy:"));
    }
    #[test]
    fn sparkline_golden_render() {
        // Fixed input → exact glyphs: CR 1 at the ramp bottom, the series
        // max at the top, evenly spaced interior cells, `!` for a
        // non-finite window.
        assert_eq!(sparkline(&[1.0, 1.25, 1.5, 1.75, 2.0, f64::INFINITY], 6), ".-+#@!");
        // 2:1 downsampling keeps chunk maxima: (1.0,2.0)(1.0,1.5) → "@+".
        assert_eq!(sparkline(&[1.0, 2.0, 1.0, 1.5], 2), "@+");
    }

    #[test]
    fn dashboard_golden_render() {
        // A fully deterministic report (no clock, fixed records) renders
        // to exactly these bytes — table layout, trust-ladder occupancy
        // line, and empty alarm log included.
        let monitor = Monitor::new(MonitorConfig::default());
        let records = vec![
            stop_record(3, 0, 5.0, 5.0),
            stop_record(3, 1, 6.0, 4.0),
            stop_record(9, 0, 6.0, 3.0),
        ];
        monitor.replay(&records);
        let text = render_dashboard(&monitor.report(), &cr_series(&records, 50));
        let want = "    stream  stops  cum CR  win CR   bound trust          \u{3bc}-PH    q-PH alarms  windowed CR (oldest \u{2192} newest)
         3      2  1.2222  1.2222       - Full           0.00   0.000      0  .@
         9      1  2.0000  2.0000       - Full           0.00   0.000      0  @
trust-ladder occupancy: 2 Full
alarm log: empty
";
        assert_eq!(text, want);
    }
}
