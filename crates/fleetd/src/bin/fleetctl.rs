//! `fleetctl` — the daemon's control and console client.
//!
//! ```text
//! fleetctl status    --socket PATH [--json]    daemon counters
//! fleetctl telemetry --socket PATH [--raw]     stage latencies + health
//! fleetctl top       --socket PATH [...]       live telemetry view
//! fleetctl risk      --socket PATH [--delta F] fleet tail-risk view
//! fleetctl snapshot  --socket PATH             force a snapshot now
//! fleetctl state     --socket PATH --out FILE  export estimator state bytes
//! fleetctl replay    --socket PATH [--out F]   full canonical event history
//! fleetctl tail      --socket PATH [...]       live TUI console
//! fleetctl shutdown  --socket PATH             graceful stop
//! ```
//!
//! `tail` subscribes to the daemon's event stream and runs a local
//! [`obsv::Monitor`] over it — the same drift/CR analysis as the
//! offline `monitor` bin, rendered with the shared
//! [`obsv::dashboard`] (alarm log, windowed-CR sparklines, ladder
//! occupancy). `--record FILE` additionally captures every event as
//! canonical JSONL so the session can be byte-compared against an
//! offline journal replay.

use fleetd::client::{Client, SessionRecorder};
use fleetd::proto::StatsInfo;
use obsv::dashboard::{cr_series, render_dashboard};
use obsv::{Monitor, MonitorConfig, TraceEvent, TraceRecord};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fleetctl COMMAND --socket PATH [options]\n\
         \n\
         commands:\n\
         \x20 status [--json]             print daemon counters\n\
         \x20 telemetry [--raw]           stage latency quantiles + health gauges\n\
         \x20                             (--raw dumps the Prometheus exposition)\n\
         \x20 top [--interval-ms N] [--frames N] [--plain]\n\
         \x20                             live per-stage latency / queue view\n\
         \x20 risk [--delta F]            fleet CVaR, riskiest vehicles, and\n\
         \x20                             tail-budget headroom vs δ (default 0.05)\n\
         \x20 snapshot                    force a snapshot now\n\
         \x20 state --out FILE            export estimator state bytes\n\
         \x20 replay [--out FILE]         full canonical event history (JSONL)\n\
         \x20 tail [--record FILE] [--frame-every N] [--max-batches N]\n\
         \x20      [--window N] [--plain]  live monitor console\n\
         \x20 shutdown                    stop the daemon gracefully\n\
         \n\
         --tcp ADDR may replace --socket PATH for any command."
    );
    ExitCode::from(2)
}

struct Cli {
    command: String,
    socket: Option<PathBuf>,
    tcp: Option<String>,
    out: Option<PathBuf>,
    record: Option<PathBuf>,
    frame_every: u64,
    max_batches: u64,
    window: usize,
    plain: bool,
    json: bool,
    raw: bool,
    interval_ms: u64,
    frames: u64,
    delta: f64,
}

fn parse() -> Option<Cli> {
    let mut args = std::env::args().skip(1);
    let mut cli = Cli {
        command: String::new(),
        socket: None,
        tcp: None,
        out: None,
        record: None,
        frame_every: 20,
        max_batches: 0,
        window: 64,
        plain: false,
        json: false,
        raw: false,
        interval_ms: 1000,
        frames: 0,
        delta: 0.05,
    };
    while let Some(a) = args.next() {
        let value = |a: &str, key: &str, rest: &mut dyn Iterator<Item = String>| {
            a.strip_prefix(&format!("{key}=")).map(str::to_string).or_else(|| rest.next())
        };
        if a == "--socket" || a.starts_with("--socket=") {
            cli.socket = Some(PathBuf::from(value(&a, "--socket", &mut args)?));
        } else if a == "--tcp" || a.starts_with("--tcp=") {
            cli.tcp = Some(value(&a, "--tcp", &mut args)?);
        } else if a == "--out" || a.starts_with("--out=") {
            cli.out = Some(PathBuf::from(value(&a, "--out", &mut args)?));
        } else if a == "--record" || a.starts_with("--record=") {
            cli.record = Some(PathBuf::from(value(&a, "--record", &mut args)?));
        } else if a == "--frame-every" || a.starts_with("--frame-every=") {
            cli.frame_every = value(&a, "--frame-every", &mut args)?.parse().ok()?;
        } else if a == "--max-batches" || a.starts_with("--max-batches=") {
            cli.max_batches = value(&a, "--max-batches", &mut args)?.parse().ok()?;
        } else if a == "--window" || a.starts_with("--window=") {
            cli.window = value(&a, "--window", &mut args)?.parse().ok()?;
        } else if a == "--interval-ms" || a.starts_with("--interval-ms=") {
            cli.interval_ms = value(&a, "--interval-ms", &mut args)?.parse().ok()?;
        } else if a == "--frames" || a.starts_with("--frames=") {
            cli.frames = value(&a, "--frames", &mut args)?.parse().ok()?;
        } else if a == "--delta" || a.starts_with("--delta=") {
            cli.delta = value(&a, "--delta", &mut args)?.parse().ok()?;
        } else if a == "--plain" {
            cli.plain = true;
        } else if a == "--json" {
            cli.json = true;
        } else if a == "--raw" {
            cli.raw = true;
        } else if !a.starts_with('-') && cli.command.is_empty() {
            // The command may appear before or after the flags.
            cli.command = a;
        } else {
            return None;
        }
    }
    if cli.command.is_empty() || (cli.socket.is_none() && cli.tcp.is_none()) {
        return None;
    }
    Some(cli)
}

fn connect(cli: &Cli) -> Result<Client, String> {
    match (&cli.socket, &cli.tcp) {
        (Some(path), _) => Client::connect_unix(path).map_err(|e| e.to_string()),
        (None, Some(addr)) => Client::connect_tcp(addr).map_err(|e| e.to_string()),
        (None, None) => Err("no --socket or --tcp".to_string()),
    }
}

/// `status --json`: the counters as one canonical JSON object
/// (sorted keys, shortest-round-trip floats — [`obsv::json`] rules), so
/// scripts can diff two statuses byte-for-byte.
fn stats_json(info: &StatsInfo) -> String {
    use obsv::json::Value;
    let mut obj = std::collections::BTreeMap::new();
    let mut put = |k: &str, v: Value| obj.insert(k.to_string(), v);
    put("step", Value::UInt(info.step));
    put("lanes", Value::UInt(u64::from(info.lanes)));
    put("queue_depth", Value::UInt(u64::from(info.queue_depth)));
    put("queue_capacity", Value::UInt(u64::from(info.queue_capacity)));
    put("connections", Value::UInt(u64::from(info.connections)));
    put("subscribers", Value::UInt(u64::from(info.subscribers)));
    put("busy_rejections", Value::UInt(info.busy_rejections));
    put("blocks_ingested", Value::UInt(info.blocks_ingested));
    put("journal_frames", Value::UInt(info.journal_frames));
    put("online_total", Value::float(info.online_total));
    put("offline_total", Value::float(info.offline_total));
    let cr = obsv::realized_cr(info.online_total, info.offline_total);
    put("realized_cr", Value::float(cr));
    Value::Obj(obj).to_string()
}

fn print_stats(info: &StatsInfo) {
    println!("step              {}", info.step);
    println!("lanes             {}", info.lanes);
    println!("queue             {}/{}", info.queue_depth, info.queue_capacity);
    println!("connections       {}", info.connections);
    println!("subscribers       {}", info.subscribers);
    println!("busy rejections   {}", info.busy_rejections);
    println!("blocks ingested   {}", info.blocks_ingested);
    println!("journal frames    {}", info.journal_frames);
    println!("online cost       {:.3}", info.online_total);
    println!("offline cost      {:.3}", info.offline_total);
    let cr = obsv::realized_cr(info.online_total, info.offline_total);
    println!("realized CR       {}", obsv::dashboard::fmt_cr(cr).trim_start());
}

/// Human-scale duration: picks ns/µs/ms/s so a 40 ns decode and a 2 s
/// fsync stall read equally well in one table.
fn fmt_secs(s: f64) -> String {
    if s <= 0.0 {
        "0".to_string()
    } else if s < 1e-6 {
        format!("{:.0}ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1}\u{3bc}s", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.3}s", s)
    }
}

/// A quantile from a histogram that may have seen no samples yet:
/// `None` renders as `-` rather than a misleading `0`.
fn fmt_secs_opt(s: Option<f64>) -> String {
    s.map_or_else(|| "-".to_string(), fmt_secs)
}

/// Renders one telemetry scrape: per-stage latency quantiles, queue and
/// journal health, and (in `top`) a queue-occupancy sparkline.
fn render_telemetry(scrape: &obsv::telemetry::Scrape, queue_history: &[f64]) -> String {
    let g = |name: &str| scrape.gauge(name).unwrap_or(0.0);
    let c = |name: &str| scrape.counter(name).unwrap_or(0.0);
    let mut out = String::new();
    out.push_str(&format!(
        "fleetd @ step {}   blocks {}   queue {}/{} (peak {})\n",
        g("fleetd_step") as u64,
        c("fleetd_blocks_ingested_total") as u64,
        g("fleetd_queue_depth") as u64,
        g("fleetd_queue_capacity") as u64,
        g("fleetd_queue_depth_peak") as u64,
    ));
    out.push_str(&format!(
        "{:<16} {:>10} {:>9} {:>9} {:>9}\n",
        "stage", "count", "p50", "p95", "p99"
    ));
    for name in fleetd::STAGE_HISTOGRAMS {
        let Some(h) = scrape.histograms.get(*name) else { continue };
        let label = name.trim_start_matches("fleetd_stage_").trim_end_matches("_seconds");
        out.push_str(&format!(
            "{label:<16} {:>10} {:>9} {:>9} {:>9}\n",
            h.count as u64,
            fmt_secs_opt(h.quantile(0.50)),
            fmt_secs_opt(h.quantile(0.95)),
            fmt_secs_opt(h.quantile(0.99)),
        ));
    }
    out.push_str(&format!(
        "journal: {} bytes, {} frames total, {} since snapshot, age {} steps\n",
        g("fleetd_journal_bytes") as u64,
        c("fleetd_journal_frames_total") as u64,
        g("fleetd_journal_frames_since_snapshot") as u64,
        g("fleetd_snapshot_age_steps") as u64,
    ));
    out.push_str(&format!(
        "health: engine {}, journal {}, busy rejections {}, subscribers {} (lag {}, drops {})\n",
        if g("fleetd_engine_alive") > 0.0 { "alive" } else { "DOWN" },
        if g("fleetd_journal_writable") > 0.0 { "writable" } else { "FAILED" },
        c("fleetd_busy_rejections_total") as u64,
        g("fleetd_subscribers") as u64,
        g("fleetd_subscriber_lag") as u64,
        c("fleetd_subscriber_drops_total") as u64,
    ));
    if !queue_history.is_empty() {
        out.push_str(&format!(
            "queue occupancy: {}\n",
            obsv::dashboard::sparkline(queue_history, queue_history.len().min(40))
        ));
    }
    out
}

/// Renders the fleet tail-risk view from the labeled risk series the
/// daemon exports: fleet CVaR/quantiles, the top-k riskiest vehicles,
/// and per-rung exceedance rates with headroom against the tail
/// budget `δ` (headroom = δ − P(CR > τ); negative means over budget).
fn render_risk(scrape: &obsv::telemetry::Scrape, delta: f64) -> String {
    let samples = scrape.counter("fleet_cr_samples_total").unwrap_or(0.0);
    if samples <= 0.0 {
        return "no risk telemetry (no stops decided yet)\n".to_string();
    }
    let cr = |v: Option<f64>| {
        v.map_or_else(|| "-".to_string(), |x| obsv::dashboard::fmt_cr(x).trim_start().to_string())
    };
    let mut out = String::new();
    out.push_str(&format!("fleet realized-CR risk over {} stops\n", samples as u64));
    out.push_str(&format!(
        "  p50 {}   p90 {}   p99 {}   CVaR95 {}   CVaR99 {}\n",
        cr(scrape.gauge("fleet_cr_quantile{q=\"0.5\"}")),
        cr(scrape.gauge("fleet_cr_quantile{q=\"0.9\"}")),
        cr(scrape.gauge("fleet_cr_quantile{q=\"0.99\"}")),
        cr(scrape.gauge("fleet_cr_cvar{alpha=\"0.95\"}")),
        cr(scrape.gauge("fleet_cr_cvar{alpha=\"0.99\"}")),
    ));
    out.push_str(&format!("{:<6} {:>8} {:>10}\n", "rank", "lane", "CVaR95"));
    for rank in 1..=8u32 {
        let lane = scrape.gauge(&format!("fleet_cr_top_lane{{rank=\"{rank}\"}}"));
        let cvar = scrape.gauge(&format!("fleet_cr_top_cvar{{rank=\"{rank}\"}}"));
        let (Some(lane), Some(cvar)) = (lane, cvar) else { break };
        out.push_str(&format!("{rank:<6} {:>8} {:>10}\n", lane as u64, cr(Some(cvar))));
    }
    out.push_str(&format!(
        "{:<22} {:>10} {:>10} {:>10}\n",
        "tail budget (δ)", "exceeded", "P(CR>τ)", "headroom"
    ));
    for tau in obsv::risk::TAU_LADDER {
        let Some(exceed) = scrape.counter(&format!("fleet_cr_exceed_total{{tau=\"{tau}\"}}"))
        else {
            continue;
        };
        let rate = exceed / samples;
        let headroom = delta - rate;
        out.push_str(&format!(
            "{:<22} {:>10} {:>10.4} {:>+10.4}{}\n",
            format!("\u{3c4} = {tau:.4}"),
            exceed as u64,
            rate,
            headroom,
            if headroom < 0.0 { "  OVER BUDGET" } else { "" },
        ));
    }
    out
}

/// `top`: poll the telemetry page and redraw the stage/health view.
fn top(cli: &Cli) -> Result<(), String> {
    let mut client = connect(cli)?;
    client.hello("fleetctl-top").map_err(|e| e.to_string())?;
    let mut queue_history: Vec<f64> = Vec::new();
    let mut frame: u64 = 0;
    loop {
        let text = client.telemetry().map_err(|e| e.to_string())?;
        let scrape = obsv::telemetry::parse(&text).map_err(|e| format!("bad exposition: {e}"))?;
        queue_history.push(scrape.gauge("fleetd_queue_depth").unwrap_or(0.0));
        if queue_history.len() > 40 {
            let excess = queue_history.len() - 40;
            queue_history.drain(..excess);
        }
        let body = render_telemetry(&scrape, &queue_history);
        if cli.plain {
            println!("{body}");
        } else {
            print!("\x1b[2J\x1b[H{body}");
            let _ = std::io::stdout().flush();
        }
        frame += 1;
        if cli.frames != 0 && frame >= cli.frames {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(cli.interval_ms.max(50)));
    }
}

/// One live console session: subscribe, analyze each batch with a
/// local monitor, redraw the dashboard every `frame_every` batches.
fn tail(cli: &Cli) -> Result<(), String> {
    let mut client = connect(cli)?;
    let (config, step, client_id) = client.hello("fleetctl-tail").map_err(|e| e.to_string())?;
    eprintln!(
        "tailing fleet of {} lanes from step {step} as client {client_id} (window {})",
        config.lanes, cli.window
    );
    let monitor = Monitor::new(MonitorConfig {
        break_even_s: config.break_even,
        window: cli.window,
        ..MonitorConfig::default()
    });
    let mut recorder = cli.record.as_ref().map(|_| SessionRecorder::new());
    let mut retained: Vec<TraceRecord> = Vec::new();
    let mut batches: u64 = 0;
    let max_batches = cli.max_batches;
    let frame_every = cli.frame_every.max(1);
    let plain = cli.plain;
    let mut recorder_ref = recorder.take();
    client
        .subscribe(|batch| {
            batches += 1;
            let alarms = monitor.replay(&batch);
            for alarm in &alarms {
                if let TraceEvent::MonitorAlarm { .. } = &alarm.event {
                    eprintln!("ALARM {}", alarm.event.describe());
                }
            }
            if let Some(recorder) = recorder_ref.as_mut() {
                recorder.absorb(batch.clone());
            }
            retained.extend(batch);
            if retained.len() > RETAIN_CAP {
                let excess = retained.len() - RETAIN_CAP;
                retained.drain(..excess);
            }
            if batches % frame_every == 0 {
                draw(&monitor, &retained, cli.window, plain);
            }
            max_batches == 0 || batches < max_batches
        })
        .map_err(|e| e.to_string())?;
    recorder = recorder_ref;
    // Final frame + capture flush.
    draw(&monitor, &retained, cli.window, plain);
    eprintln!("stream ended after {batches} batches");
    if let (Some(path), Some(recorder)) = (&cli.record, &recorder) {
        std::fs::write(path, recorder.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("recorded {} events to {}", recorder.len(), path.display());
    }
    Ok(())
}

/// Sparkline ledger cap — enough for a long session's windowed CR
/// without unbounded growth.
const RETAIN_CAP: usize = 200_000;

fn draw(monitor: &Monitor, retained: &[TraceRecord], window: usize, plain: bool) {
    let report = monitor.report();
    let series = cr_series(retained, window);
    let body = render_dashboard(&report, &series);
    if plain {
        println!("{body}");
    } else {
        // ANSI: clear screen, home cursor, draw the frame.
        print!("\x1b[2J\x1b[H{body}");
        let _ = std::io::stdout().flush();
    }
}

fn run(cli: &Cli) -> Result<(), String> {
    match cli.command.as_str() {
        "status" => {
            let mut client = connect(cli)?;
            client.hello("fleetctl").map_err(|e| e.to_string())?;
            let info = client.stats().map_err(|e| e.to_string())?;
            if cli.json {
                println!("{}", stats_json(&info));
            } else {
                print_stats(&info);
            }
            Ok(())
        }
        "telemetry" => {
            let mut client = connect(cli)?;
            client.hello("fleetctl").map_err(|e| e.to_string())?;
            let text = client.telemetry().map_err(|e| e.to_string())?;
            if cli.raw {
                print!("{text}");
            } else {
                let scrape =
                    obsv::telemetry::parse(&text).map_err(|e| format!("bad exposition: {e}"))?;
                print!("{}", render_telemetry(&scrape, &[]));
            }
            Ok(())
        }
        "top" => top(cli),
        "risk" => {
            let mut client = connect(cli)?;
            client.hello("fleetctl").map_err(|e| e.to_string())?;
            let text = client.telemetry().map_err(|e| e.to_string())?;
            let scrape =
                obsv::telemetry::parse(&text).map_err(|e| format!("bad exposition: {e}"))?;
            print!("{}", render_risk(&scrape, cli.delta));
            Ok(())
        }
        "snapshot" => {
            let mut client = connect(cli)?;
            let ack = client.snapshot().map_err(|e| e.to_string())?;
            println!("{ack}");
            Ok(())
        }
        "state" => {
            let out = cli.out.as_ref().ok_or("state needs --out FILE")?;
            let mut client = connect(cli)?;
            let bytes = client.export_state().map_err(|e| e.to_string())?;
            std::fs::write(out, &bytes).map_err(|e| format!("write {}: {e}", out.display()))?;
            println!("{} bytes to {}", bytes.len(), out.display());
            Ok(())
        }
        "replay" => {
            let mut client = connect(cli)?;
            let records = client.replay_events().map_err(|e| e.to_string())?;
            let jsonl = obsv::event::to_jsonl(&records);
            match &cli.out {
                Some(path) => {
                    std::fs::write(path, jsonl)
                        .map_err(|e| format!("write {}: {e}", path.display()))?;
                    eprintln!("{} events to {}", records.len(), path.display());
                }
                None => print!("{jsonl}"),
            }
            Ok(())
        }
        "tail" => tail(cli),
        "shutdown" => {
            let mut client = connect(cli)?;
            let ack = client.shutdown().map_err(|e| e.to_string())?;
            println!("{ack}");
            Ok(())
        }
        _ => Err(format!("unknown command `{}`", cli.command)),
    }
}

fn main() -> ExitCode {
    let Some(cli) = parse() else {
        return usage();
    };
    match run(&cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fleetctl: {e}");
            ExitCode::FAILURE
        }
    }
}
