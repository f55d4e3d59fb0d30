//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper as a text table on stdout plus a CSV under `target/figures/`
//! (machine-readable series for external plotting). This library holds the
//! pieces they share: CSV emission, the area-level stop-length mixture,
//! the worst-case CR formulas for the strategies the figures sweep, and
//! the steal-scaled timer ([`time_unstolen`]) of the throughput gates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use drivesim::Area;
use obsv::RunReport;
use skirental::{e_ratio, BreakEven, ConstrainedStats, Strategy, StrategyChoice};
use std::f64::consts::E;
use std::fmt::Display;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use stopmodel::dist::{LogNormal, Mixture, Pareto};

/// Directory CSV outputs are written to.
#[must_use]
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    fs::create_dir_all(&dir).expect("can create target/figures");
    dir
}

/// Writes a CSV file (header + rows) under `target/figures/` and returns
/// its path.
///
/// # Panics
///
/// Panics on I/O errors (the harness binaries have no useful recovery).
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = figures_dir().join(name);
    let mut f = fs::File::create(&path).expect("can create CSV file");
    writeln!(f, "{header}").expect("can write CSV");
    for row in rows {
        writeln!(f, "{row}").expect("can write CSV");
    }
    path
}

/// Formats one float CSV field at six decimals — the precision every
/// figure series uses (plot input, not round-trip storage).
#[must_use]
pub fn csv_f64(x: f64) -> String {
    format!("{x:.6}")
}

/// Joins already-formatted fields into one CSV row. The shared row
/// builder for the sweep binaries, so label + float-series + counts rows
/// are assembled one way everywhere.
#[must_use]
pub fn csv_row(fields: impl IntoIterator<Item = String>) -> String {
    fields.into_iter().collect::<Vec<_>>().join(",")
}

/// Handles the harness binaries' shared `--report <out.json>` and
/// `--trace <out.jsonl>` flags.
///
/// Constructed at the top of `main`: when `--report` is present the
/// process-wide [`obsv::global`] metrics registry is reset and enabled, so
/// the whole run records; [`RunReporter::finish`] then snapshots it into a
/// [`RunReport`] and writes deterministic JSON to the requested path.
/// When `--trace` is present the process-wide decision tracer
/// ([`obsv::tracer::global`]) is cleared and enabled, and `finish` drains
/// it in canonical `(stream, stop, seq)` order into a JSONL file that is
/// byte-identical for any worker-thread count. When `--monitor` is
/// present the process-wide streaming monitor ([`obsv::monitor::global`])
/// is reset and enabled — alarms interleave into the trace (if any) and
/// the aggregated [`obsv::MonitorReport`] rides in the run report's
/// `monitor` section (if any). When `--risk` is present the process-wide
/// realized-CR risk hub ([`obsv::risk::global`]) is reset and enabled,
/// and the aggregated [`obsv::RiskReport`] rides in the run report's
/// `risk` section.
/// Without the flags everything is a no-op and all recorders stay
/// disabled (a few relaxed atomic loads per instrumented operation).
///
/// The monitor's tail-budget detector is configured from the
/// environment when `--monitor` is active: `IDLING_TAIL_TAU`,
/// `IDLING_TAIL_DELTA`, and `IDLING_TAIL_MARGIN` override the
/// [`obsv::MonitorConfig`] tail fields (unset = detector disabled).
pub struct RunReporter {
    bin: &'static str,
    path: Option<PathBuf>,
    trace_path: Option<PathBuf>,
    monitor: bool,
    risk: bool,
    meta: Vec<(String, String)>,
    start: Instant,
}

impl RunReporter {
    /// Parses `--report <path>` / `--report=<path>` and `--trace <path>` /
    /// `--trace=<path>` from the process arguments (last occurrence wins).
    #[must_use]
    pub fn from_args(bin: &'static str) -> Self {
        let mut path = None;
        let mut trace = None;
        let mut monitor = false;
        let mut risk = false;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--report" {
                path = args.next().map(PathBuf::from);
            } else if let Some(p) = a.strip_prefix("--report=") {
                path = Some(PathBuf::from(p));
            } else if a == "--trace" {
                trace = args.next().map(PathBuf::from);
            } else if let Some(p) = a.strip_prefix("--trace=") {
                trace = Some(PathBuf::from(p));
            } else if a == "--monitor" {
                monitor = true;
            } else if a == "--risk" {
                risk = true;
            }
        }
        let mut reporter = Self::to_paths(bin, path, trace);
        if monitor {
            reporter.enable_monitor();
        }
        if risk {
            reporter.enable_risk();
        }
        reporter
    }

    /// A reporter writing to an explicit destination (`None` disables it);
    /// the programmatic entry point `perf_gate` uses.
    #[must_use]
    pub fn to_path(bin: &'static str, path: Option<PathBuf>) -> Self {
        Self::to_paths(bin, path, None)
    }

    /// A reporter with explicit report and trace destinations (`None`
    /// disables either output independently).
    #[must_use]
    pub fn to_paths(bin: &'static str, path: Option<PathBuf>, trace_path: Option<PathBuf>) -> Self {
        if path.is_some() {
            obsv::global().reset();
            obsv::global().enable();
        }
        if trace_path.is_some() {
            obsv::tracer::global().clear();
            obsv::tracer::global().enable();
        }
        Self {
            bin,
            path,
            trace_path,
            monitor: false,
            risk: false,
            meta: Vec::new(),
            start: Instant::now(),
        }
    }

    /// Resets and enables the process-wide streaming monitor
    /// ([`obsv::monitor::global`]); its aggregated report is attached to
    /// the run report by [`RunReporter::capture`]. The tail-budget
    /// detector is configured from `IDLING_TAIL_TAU` /
    /// `IDLING_TAIL_DELTA` / `IDLING_TAIL_MARGIN` when set, so any
    /// harness binary can arm it without growing new flags.
    pub fn enable_monitor(&mut self) {
        let monitor = obsv::monitor::global();
        let env_f64 = |key: &str| std::env::var(key).ok().and_then(|v| v.parse::<f64>().ok());
        let tau = env_f64("IDLING_TAIL_TAU");
        let delta = env_f64("IDLING_TAIL_DELTA");
        let margin = env_f64("IDLING_TAIL_MARGIN");
        if tau.is_some() || delta.is_some() || margin.is_some() {
            let mut config = monitor.config();
            if let Some(tau) = tau {
                config.tail_tau = tau;
            }
            if let Some(delta) = delta {
                config.tail_delta = delta;
            }
            if let Some(margin) = margin {
                config.tail_margin = margin;
            }
            monitor.set_config(config);
        }
        monitor.reset();
        monitor.enable();
        self.monitor = true;
    }

    /// Resets and enables the process-wide realized-CR risk hub
    /// ([`obsv::risk::global`]); its aggregated [`obsv::RiskReport`] is
    /// attached to the run report by [`RunReporter::capture`].
    pub fn enable_risk(&mut self) {
        obsv::risk::global().reset();
        obsv::risk::global().enable();
        self.risk = true;
    }

    /// Whether a report will be written.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.path.is_some()
    }

    /// Attaches one metadata entry (seed, thread count, …).
    pub fn meta(&mut self, key: &str, value: impl Display) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Builds the report from the elapsed wall time and a snapshot of the
    /// global registry (without writing anything). Provenance metadata is
    /// stamped automatically so every report is self-describing:
    /// `crate_version` (of the `bench` harness) and `config_fingerprint`
    /// (see [`RunReport::config_fingerprint`]) join the caller-supplied
    /// entries. `perf_gate` compares only metric values, so provenance
    /// never breaks a baseline comparison.
    #[must_use]
    pub fn capture(&self) -> RunReport {
        let mut report =
            RunReport::new(self.bin, self.start.elapsed().as_secs_f64(), obsv::global().snapshot());
        for (k, v) in &self.meta {
            report = report.with_meta(k, v);
        }
        if self.monitor {
            report = report.with_monitor(obsv::monitor::global().report());
        }
        if self.risk {
            report = report.with_risk(obsv::risk::global().report());
        }
        report = report.with_meta("crate_version", env!("CARGO_PKG_VERSION"));
        let fp = report.config_fingerprint();
        report.with_meta("config_fingerprint", fp)
    }

    /// Snapshots the registry and writes the report JSON and/or the
    /// decision-trace JSONL. No-op when the run was started without
    /// `--report` / `--trace`.
    ///
    /// # Panics
    ///
    /// Panics if an output file cannot be written (same recovery story as
    /// [`write_csv`]: none).
    pub fn finish(self) {
        if let Some(path) = self.path.as_ref() {
            let report = self.capture();
            fs::write(path, report.to_json() + "\n").expect("can write run report");
            println!("run report written to {}", path.display());
        }
        if let Some(path) = self.trace_path.as_ref() {
            let tracer = obsv::tracer::global();
            let records = tracer.drain_sorted();
            let dropped = tracer.dropped();
            tracer.disable();
            fs::write(path, obsv::event::to_jsonl(&records)).expect("can write trace");
            if dropped > 0 {
                eprintln!(
                    "warning: trace ring buffers overflowed, {dropped} oldest events dropped \
                     (trace is incomplete; raise obsv::tracer capacity)"
                );
            }
            println!("decision trace written to {} ({} events)", path.display(), records.len());
        }
    }
}

/// The area-level stop-length mixture (lights + signs + congestion) built
/// from the calibrated [`AreaParams`](drivesim::AreaParams) — the analytic
/// counterpart of the per-vehicle synthesis, used by the Figure-5/6 sweep
/// ("following the distribution of Chicago, but scaling its mean value").
///
/// # Panics
///
/// Panics only if the calibrated parameters were invalid (they are
/// validated by tests).
#[must_use]
pub fn area_mixture(area: Area) -> Mixture {
    let p = area.params();
    Mixture::new(vec![
        (
            p.weight_light,
            Box::new(LogNormal::new(p.light_log_mu, p.light_log_sigma).expect("valid params")) as _,
        ),
        (
            p.weight_sign,
            Box::new(LogNormal::new(p.sign_log_mu, p.sign_log_sigma).expect("valid params")) as _,
        ),
        (
            p.weight_congestion,
            Box::new(Pareto::new(p.congestion_scale, p.congestion_alpha).expect("valid params"))
                as _,
        ),
    ])
    .expect("calibrated weights are positive")
}

/// Worst-case expected CR of a Figure-5/6 strategy under all distributions
/// consistent with the given constrained statistics.
///
/// * DET / TOI / N-Rand / Proposed come from [`ConstrainedStats`];
/// * MOM-Rand's per-stop expected cost is convex increasing in `y` on
///   `[0, B]` and constant beyond, so the adversary pushes all paying mass
///   to `y ≥ B`, giving `(μ_B⁻ + q_B⁺·B)·(e−3/2)/(e−2)` when the
///   moment-aware density is in effect (full mean `≤ 0.836·B`), and the
///   N-Rand value otherwise;
/// * NEV's worst case is unbounded (`+∞`): a consistent distribution can
///   push the tail mass arbitrarily far out.
///
/// Returns `1` for a degenerate instance with zero expected offline cost.
#[must_use]
pub fn worst_case_cr(strategy: Strategy, stats: &ConstrainedStats, full_mean: f64) -> f64 {
    if stats.expected_offline_cost() == 0.0 {
        return 1.0;
    }
    match strategy {
        Strategy::Det => stats.worst_case_cr_of(StrategyChoice::Det),
        Strategy::Toi => stats.worst_case_cr_of(StrategyChoice::Toi),
        Strategy::NRand => stats.worst_case_cr_of(StrategyChoice::NRand),
        Strategy::Proposed => stats.worst_case_cr(),
        Strategy::MomRand => {
            let b = stats.break_even();
            let threshold = 2.0 * (E - 2.0) / (E - 1.0) * b.seconds();
            if full_mean <= threshold {
                (E - 1.5) / (E - 2.0)
            } else {
                e_ratio()
            }
        }
        Strategy::Nev => f64::INFINITY,
        // A fixed threshold x chosen in hindsight still faces the same
        // adversary as b-DET at that x; with no commitment to a specific
        // x ahead of time, report the b-DET optimum as its best case.
        Strategy::BayesOpt => stats.b_det_vertex().map_or(
            stats
                .worst_case_cr_of(StrategyChoice::Det)
                .min(stats.worst_case_cr_of(StrategyChoice::Toi)),
            |v| {
                (v.cost / stats.expected_offline_cost())
                    .min(stats.worst_case_cr_of(StrategyChoice::Det))
                    .min(stats.worst_case_cr_of(StrategyChoice::Toi))
            },
        ),
    }
}

/// Worker-thread count for the parallel harness binaries: the machine's
/// available parallelism, overridable with the `IDLING_BENCH_THREADS`
/// environment variable (useful for reproducing serial output or for
/// timing scaling curves). Always at least 1.
#[must_use]
pub fn worker_threads() -> usize {
    std::env::var("IDLING_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// CPU time the hypervisor gave to other guests while this one's CPUs
/// wanted to run (`steal` in `/proc/stat`), in clock ticks of 1/100 s
/// summed over CPUs; 0 where the kernel does not report it.
fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Times `f` and scales its wall time by one minus the share of the
/// machine's CPU time the host stole meanwhile (capped at 0.9), so a
/// throughput rep that a noisy neighbour preempted is not read as a
/// slow engine. `perf_gate` and `recovery_drill` time their reps with
/// it.
pub fn time_unstolen<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (start, ticks) = (Instant::now(), steal_ticks());
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let stolen = steal_ticks().saturating_sub(ticks) as f64 / 100.0;
    let cpus = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    (out, wall * (1.0 - (stolen / (cpus * wall.max(1e-9))).min(0.9)))
}

/// Formats a CR for table output (`inf` for unbounded). Delegates to
/// the shared dashboard module so every console formats CRs the same
/// way.
#[must_use]
pub fn fmt_cr(cr: f64) -> String {
    obsv::dashboard::fmt_cr(cr)
}

/// Builds a `ConstrainedStats` from a distribution, panicking only on
/// invalid break-even values (the harness controls both inputs).
#[must_use]
pub fn stats_of<D: stopmodel::StopDistribution + ?Sized>(
    dist: &D,
    break_even: BreakEven,
) -> ConstrainedStats {
    ConstrainedStats::from_distribution(dist, break_even)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stopmodel::StopDistribution;

    #[test]
    fn area_mixture_is_calibrated() {
        for area in Area::ALL {
            let m = area_mixture(area);
            assert!(m.mean().is_finite() && m.mean() > 0.0);
            // Heavy tail present.
            assert!(m.tail_prob(200.0) > 0.0);
        }
    }

    #[test]
    fn chicago_mixture_longest_mean() {
        let chi = area_mixture(Area::Chicago).mean();
        assert!(chi > area_mixture(Area::California).mean());
        assert!(chi > area_mixture(Area::Atlanta).mean());
    }

    #[test]
    fn worst_case_cr_ordering() {
        let b = BreakEven::SSV;
        let m = area_mixture(Area::Chicago);
        let stats = stats_of(&m, b);
        let proposed = worst_case_cr(Strategy::Proposed, &stats, m.mean());
        for s in [Strategy::Det, Strategy::Toi, Strategy::NRand] {
            assert!(
                proposed <= worst_case_cr(s, &stats, m.mean()) + 1e-12,
                "proposed beaten by {s:?}"
            );
        }
        assert!(worst_case_cr(Strategy::Nev, &stats, m.mean()).is_infinite());
    }

    #[test]
    fn momrand_worst_case_regimes() {
        let b = BreakEven::SSV;
        let stats = ConstrainedStats::new(b, 5.0, 0.2).unwrap();
        // Small full mean: moment pdf, ratio (e−1.5)/(e−2) ≈ 1.696.
        let small = worst_case_cr(Strategy::MomRand, &stats, 10.0);
        assert!((small - (E - 1.5) / (E - 2.0)).abs() < 1e-12);
        // Large full mean: falls back to N-Rand's e/(e−1).
        let large = worst_case_cr(Strategy::MomRand, &stats, 40.0);
        assert!((large - e_ratio()).abs() < 1e-12);
    }

    #[test]
    fn csv_roundtrip() {
        let p = write_csv("selftest.csv", "a,b", &["1,2".to_string(), "3,4".to_string()]);
        let content = std::fs::read_to_string(p).unwrap();
        assert!(content.contains("a,b") && content.contains("3,4"));
    }

    #[test]
    fn fmt_cr_handles_infinity() {
        assert!(fmt_cr(f64::INFINITY).contains("inf"));
        assert!(fmt_cr(1.5).contains("1.5"));
    }
}
