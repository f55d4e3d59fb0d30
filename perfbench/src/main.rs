//! The decision-pipeline benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! perfbench --list-metrics
//! ```
//!
//! One named workload per invocation. Every input comes from `--seed`;
//! every answer the program serves is checked against an independent
//! in-process computation. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, and the metrics — the
//! end-to-end set with `--trace 0`, the per-layer ledger with
//! `--trace 1`. A run with a failed check exits 1.
//!
//! Layers are measured from outside: the workload times calls into each
//! layer's public functions and records them as spans (written to
//! `perfbench/out/` at the end of a traced run). The daemon's own stage
//! histograms are read through `Client::telemetry`.

mod check;
mod daemon;
mod measure;
mod offline;
mod recover;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("decisions_per_s", "decisions/s"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer ledger, printed by every traced run. A layer that does
/// not run on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("op.p99_us", "us"),
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("proto.request_bytes", "bytes"),
    ("proto.reply_bytes", "bytes"),
    ("crc.ns_per_byte", "ns/byte"),
    ("server.queue_wait_us", "us"),
    ("server.frame_decode_us", "us"),
    ("server.engine_decide_us", "us"),
    ("server.journal_append_us", "us"),
    ("server.journal_fsync_us", "us"),
    ("server.reply_write_us", "us"),
    ("server.unattributed_us", "us"),
    ("attribution_ratio", "ratio"),
    ("runner.ns_per_decision", "ns/decision"),
    ("runner.block_us", "us"),
    ("runner.block_us_1t", "us"),
    ("runner.settle_ns_per_decision", "ns/decision"),
    ("kernel.decide_ns_per_lane", "ns/lane"),
    ("kernel.observe_ns_per_lane", "ns/lane"),
    ("journal.write_us", "us"),
    ("journal.fsync_us", "us"),
    ("journal.bytes_per_decision", "bytes/decision"),
    ("tracer.ns_per_record", "ns/record"),
    ("snapshot.write_ms", "ms"),
    ("recovery.recover_fleet_s", "s"),
    ("recovery.parse_journal_s", "s"),
    ("recovery.scan_snapshots_s", "s"),
    ("recovery.risk_rebuild_s", "s"),
    ("recovery.frames_replayed", "count"),
    ("recovery.journal_bytes", "bytes"),
    ("offline.decisions_per_s_1t", "decisions/s"),
    ("offline.parallel_efficiency", "ratio"),
];

pub const WORKLOADS: &[&str] = &["daemon_bulk", "daemon_small", "recover", "offline_batch"];

/// What a workload run needs to know.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test sizes: every workload shrunk to a fraction of a second.
    pub tiny: bool,
    /// Self-test only: flip one bit of the first timed daemon reply
    /// before it reaches the checker.
    pub plant_flip: bool,
    /// Scratch directory of this run (relative to the checkout root, so
    /// unix-socket paths stay short).
    pub dir: PathBuf,
}

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines for the human-readable summary.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked answer.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.dir).map_err(|e| format!("{}: {e}", ctx.dir.display()))?;
    let result = match name {
        "daemon_bulk" => daemon::run(ctx, &daemon::BULK),
        "daemon_small" => daemon::run(ctx, &daemon::SMALL),
        "recover" => recover::run(ctx),
        "offline_batch" => offline::run(ctx),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let mut outcome = result?;
    for (name, _) in PER_LAYER {
        outcome.layers.entry(name).or_insert(0.0);
    }
    Ok(outcome)
}

/// Checks the outcome carries every metric, finite, end-to-end ones
/// positive; returns what is wrong.
fn metric_problems(outcome: &Outcome, trace: bool) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, _) in END_TO_END {
        match outcome.e2e.get(name) {
            Some(v) if v.is_finite() && *v > 0.0 => {}
            Some(v) => problems.push(format!("end-to-end {name} = {v}")),
            None => problems.push(format!("end-to-end {name} missing")),
        }
    }
    if trace {
        for (name, _) in PER_LAYER {
            match outcome.layers.get(name) {
                Some(v) if v.is_finite() => {}
                Some(v) => problems.push(format!("layer {name} = {v}")),
                None => problems.push(format!("layer {name} missing")),
            }
        }
    }
    for name in outcome.e2e.keys() {
        if !END_TO_END.iter().any(|(n, _)| n == name) {
            problems.push(format!("unlisted end-to-end metric {name}"));
        }
    }
    for name in outcome.layers.keys() {
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            problems.push(format!("unlisted layer metric {name}"));
        }
    }
    problems
}

fn json_metrics(values: &BTreeMap<&'static str, f64>, table: &[(&str, &str)]) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", values[name])
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn run_main(args: &Args) -> ExitCode {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: false,
        plant_flip: false,
        dir: PathBuf::from(format!(
            "perfbench/out/{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        )),
    };
    let outcome = match run_workload(&args.workload, &ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let problems = metric_problems(&outcome, args.trace);
    if !problems.is_empty() {
        eprintln!("perfbench: {}: bad metrics: {}", args.workload, problems.join("; "));
        return ExitCode::from(2);
    }
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let label = if args.trace { "end-to-end (traced)" } else { "end-to-end" };
    for (name, unit) in END_TO_END {
        println!("  {label:20} {name:32} {:>16.6} {unit}", outcome.e2e[name]);
    }
    println!(
        "  {label:20} {:32} {:>16.6} ({} failed of {} attempted)",
        "failed_frac",
        outcome.failed_frac(),
        outcome.failed,
        outcome.attempted
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            println!("  {:20} {name:32} {:>16.6} {unit}", "layer", outcome.layers[name]);
        }
    }
    let metrics = if args.trace {
        json_metrics(&outcome.layers, PER_LAYER)
    } else {
        json_metrics(&outcome.e2e, END_TO_END)
    };
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload at tiny sizes, traced and untraced, and checks
/// that every metric prints with its unit and every check passes; then
/// plants a one-bit flip in a daemon reply and checks the checker counts
/// it.
fn self_test() -> ExitCode {
    let mut failures = Vec::new();
    let tiny = |workload: &str, trace: bool, plant_flip: bool| Ctx {
        seed: 7,
        seconds: 0.3,
        trace,
        tiny: true,
        plant_flip,
        dir: PathBuf::from(format!(
            "perfbench/out/selftest-{workload}-{}-{}",
            u8::from(trace),
            std::process::id()
        )),
    };
    for workload in WORKLOADS {
        for trace in [false, true] {
            match run_workload(workload, &tiny(workload, trace, false)) {
                Ok(outcome) => {
                    let mut problems = metric_problems(&outcome, trace);
                    if outcome.failed != 0 || outcome.attempted == 0 {
                        problems.push(format!(
                            "{} failed of {} attempted",
                            outcome.failed, outcome.attempted
                        ));
                    }
                    if problems.is_empty() {
                        println!(
                            "self-test {workload:14} trace={} ok: {} metrics, {} checks passed",
                            u8::from(trace),
                            if trace { PER_LAYER.len() } else { END_TO_END.len() },
                            outcome.attempted
                        );
                    } else {
                        failures.push(format!("{workload} trace={trace}: {}", problems.join("; ")));
                    }
                }
                Err(e) => failures.push(format!("{workload} trace={trace}: {e}")),
            }
        }
    }
    match run_workload("daemon_small", &tiny("planted", false, true)) {
        Ok(outcome) if outcome.failed == 1 && outcome.failed_frac() > 0.0 => println!(
            "self-test planted bit flip caught: failed_frac {:.6} ({} of {})",
            outcome.failed_frac(),
            outcome.failed,
            outcome.attempted
        ),
        Ok(outcome) => failures.push(format!(
            "planted bit flip not counted: {} failed of {}",
            outcome.failed, outcome.attempted
        )),
        Err(e) => failures.push(format!("planted bit flip run: {e}")),
    }
    if failures.is_empty() {
        println!("self-test PASS");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("self-test FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--self-test") => self_test(),
        Some("--list-metrics") => {
            for (name, unit) in END_TO_END {
                println!("end_to_end {name} {unit}");
            }
            for (name, unit) in PER_LAYER {
                println!("per_layer {name} {unit}");
            }
            ExitCode::SUCCESS
        }
        _ => match parse_args(&args) {
            Ok(parsed) => run_main(&parsed),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        },
    }
}
