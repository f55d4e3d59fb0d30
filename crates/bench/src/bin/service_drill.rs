//! CI service drill: prove the daemon's crash story end to end.
//!
//! The drill starts a real `fleetd` process on a unix socket, drives a
//! seeded multi-vehicle load-generator session against it, SIGKILLs the
//! daemon mid-ingest, restarts it with `--recover`, resumes the
//! session from the recovered step, and then asserts — against an
//! uninterrupted in-process golden run of the same workload — that
//!
//! 1. the final estimator state is **byte-identical**,
//! 2. the full event history served by `ReplayEvents` is
//!    **byte-identical** as canonical JSONL, and
//! 3. a burst of concurrent submissions against a tiny queue gets
//!    explicit `Busy` backpressure, not blocking or data loss, and
//! 4. the telemetry plane tells the truth: `/metrics` parses as a
//!    well-formed exposition with every stage histogram populated,
//!    the recovered daemon's recovery gauges agree with its own
//!    `Stats` counters, scraped counters are monotone across scrapes,
//!    and `/healthz` flips ready → unready across shutdown. The final
//!    scrape lands in `--artifact-dir` as `telemetry.prom`, and
//! 5. the risk plane survives the crash: the `fleet_cr_*` series are
//!    present on every scrape, monotone across recovery (the journal
//!    replay repopulates the realized-CR sketches), and the daemon's
//!    fleet digest matches an offline recomputation from the canonical
//!    trace *exactly* — written to `--artifact-dir` as
//!    `risk-report.json`.
//!
//! The recorded trace is written next to the report so CI can push it
//! through `monitor --replay --expect-clean`. On failure, artifacts
//! (golden + recovered traces, the first divergence, both state dumps)
//! land in `--artifact-dir` for upload.
//!
//! ```text
//! service_drill [--fleetd PATH] [--vehicles N] [--blocks N]
//!               [--steps-per-block N] [--kill-after N]
//!               [--artifact-dir DIR] [--report out.json]
//! ```

use bench::RunReporter;
use fleetd::client::{Client, SessionRecorder};
use fleetd::proto::Reply;
use fleetstate::{FleetConfig, FleetRunner};
use obsv::{Monitor, MonitorConfig};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode};
use std::time::{Duration, Instant};

const SEED: u64 = 20140608;
const BREAK_EVEN: f64 = 28.0;
const ESTIMATOR_WINDOW: usize = 50;
const MIN_HISTORY: usize = 3;
/// Engine threads, pinned on both the golden run and the daemon so the
/// comparison never depends on machine shape.
const THREADS: usize = 2;
/// Snapshot cadence (steps) — small, so the kill lands between
/// snapshots and recovery exercises snapshot + journal-tail replay.
const SNAPSHOT_EVERY: u64 = 16;
/// Daemon queue depth during the drill: small enough that the
/// backpressure burst reliably sees `Busy`.
const QUEUE_CAPACITY: usize = 2;
/// Engine throttle (ms) making the backpressure burst deterministic.
const ENGINE_DELAY_MS: u64 = 15;
/// Concurrent clients in the backpressure burst.
const BURST_CLIENTS: usize = 6;

struct Options {
    fleetd: Option<PathBuf>,
    vehicles: usize,
    blocks: usize,
    steps_per_block: usize,
    kill_after: usize,
    artifact_dir: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: service_drill [--fleetd PATH] [--vehicles N] [--blocks N]\n\
         \x20                    [--steps-per-block N] [--kill-after N]\n\
         \x20                    [--artifact-dir DIR] [--report out.json]"
    );
    ExitCode::from(2)
}

fn config(vehicles: usize) -> FleetConfig {
    FleetConfig {
        lanes: vehicles,
        break_even: BREAK_EVEN,
        window: Some(ESTIMATOR_WINDOW),
        min_history: MIN_HISTORY,
        seed: SEED,
        trace_stream_base: 0,
    }
}

/// The seeded workload row for one global step: uniform-ish 0..120 s
/// stops from a splitmix-style hash of (step, lane), straddling the
/// 28 s break-even. Pure function of the step, so the session can
/// resume from ANY recovered step without replaying generator state.
fn row(step: u64, vehicles: usize) -> Vec<f64> {
    (0..vehicles as u64)
        .map(|lane| {
            let mut x = step
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(lane.wrapping_mul(0xbf58_476d_1ce4_e5b9))
                .wrapping_add(SEED);
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 27;
            120.0 * ((x >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

fn rows(first_step: u64, steps: usize, vehicles: usize) -> Vec<Vec<f64>> {
    (0..steps).map(|t| row(first_step + t as u64, vehicles)).collect()
}

/// Locates the `fleetd` binary: explicit flag, or a sibling of this
/// executable (both live in `target/<profile>/`).
fn find_fleetd(explicit: Option<&Path>) -> Result<PathBuf, String> {
    if let Some(path) = explicit {
        return if path.exists() {
            Ok(path.to_path_buf())
        } else {
            Err(format!("--fleetd {}: not found", path.display()))
        };
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me.parent().ok_or("current_exe has no parent")?;
    for candidate in [dir.join("fleetd"), dir.join("../fleetd")] {
        if candidate.exists() {
            return Ok(candidate);
        }
    }
    Err(format!(
        "fleetd binary not found next to {} — build it (cargo build -p fleetd) or pass --fleetd",
        me.display()
    ))
}

fn spawn_daemon(
    fleetd: &Path,
    socket: &Path,
    dir: &Path,
    vehicles: usize,
    recover: bool,
    telemetry_port: u16,
) -> Result<Child, String> {
    let mut cmd = Command::new(fleetd);
    cmd.arg("--socket")
        .arg(socket)
        .arg("--dir")
        .arg(dir)
        .arg("--lanes")
        .arg(vehicles.to_string())
        .arg("--break-even")
        .arg(BREAK_EVEN.to_string())
        .arg("--window")
        .arg(ESTIMATOR_WINDOW.to_string())
        .arg("--min-history")
        .arg(MIN_HISTORY.to_string())
        .arg("--seed")
        .arg(SEED.to_string())
        .arg("--threads")
        .arg(THREADS.to_string())
        .arg("--snapshot-every")
        .arg(SNAPSHOT_EVERY.to_string())
        .arg("--queue")
        .arg(QUEUE_CAPACITY.to_string())
        .arg("--engine-delay-ms")
        .arg(ENGINE_DELAY_MS.to_string())
        .arg("--telemetry-addr")
        .arg(format!("127.0.0.1:{telemetry_port}"));
    if recover {
        cmd.arg("--recover");
    }
    cmd.spawn().map_err(|e| format!("spawn {}: {e}", fleetd.display()))
}

/// Reserves a free TCP port by binding to `:0` and immediately
/// releasing it — the daemon rebinds the same port a moment later.
/// (A listen socket leaves no TIME_WAIT, so the rebind is reliable;
/// each daemon still gets its own fresh port.)
fn free_port() -> Result<u16, String> {
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reserve port: {e}"))?;
    Ok(listener.local_addr().map_err(|e| e.to_string())?.port())
}

/// Minimal HTTP/1.0 GET against the daemon's telemetry listener.
/// Returns (status code, body).
fn http_get(port: u16, target: &str) -> Result<(u16, String), String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", port))
        .map_err(|e| format!("connect telemetry port {port}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).map_err(|e| e.to_string())?;
    write!(stream, "GET {target} HTTP/1.0\r\nHost: fleetd\r\n\r\n").map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| format!("read {target}: {e}"))?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{target}: malformed status line"))?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

/// Parses a scraped exposition page — the parse alone rejects duplicate
/// or malformed series — and asserts what must hold on ANY live scrape:
/// every pipeline stage histogram exists and has traffic, and the
/// liveness gauges read healthy.
fn expo_check(text: &str, ctx: &str) -> Result<obsv::telemetry::Scrape, String> {
    let scrape = obsv::telemetry::parse(text).map_err(|e| format!("{ctx}: bad exposition: {e}"))?;
    for name in fleetd::STAGE_HISTOGRAMS {
        let histo = scrape
            .histograms
            .get(*name)
            .ok_or_else(|| format!("{ctx}: stage histogram {name} missing"))?;
        if histo.count < 1.0 {
            return Err(format!("{ctx}: stage histogram {name} recorded nothing"));
        }
    }
    for gauge in ["fleetd_engine_alive", "fleetd_journal_writable"] {
        if scrape.gauge(gauge) != Some(1.0) {
            return Err(format!("{ctx}: {gauge} is not 1 on a live daemon"));
        }
    }
    Ok(scrape)
}

/// Counters may only grow between two scrapes of the same daemon.
fn monotone_check(
    first: &obsv::telemetry::Scrape,
    second: &obsv::telemetry::Scrape,
) -> Result<(), String> {
    for (name, was) in &first.counters {
        let now = second.counter(name).ok_or_else(|| format!("counter {name} vanished"))?;
        if now < *was {
            return Err(format!("counter {name} went backwards: {was} -> {now}"));
        }
    }
    Ok(())
}

/// Waits until the daemon answers a handshake (the socket file existing
/// is not enough — it must be accepting).
fn await_daemon(socket: &Path, child: &mut Child) -> Result<(FleetConfig, u64), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Err(format!("daemon exited during startup: {status}"));
        }
        if socket.exists() {
            if let Ok(mut client) = Client::connect_unix(socket) {
                if let Ok((cfg, step, _)) = client.hello("drill-probe") {
                    return Ok((cfg, step));
                }
            }
        }
        if Instant::now() > deadline {
            return Err("daemon did not come up within 30 s".to_string());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Submits steps `[from, to)` in blocks, asserting decisions come back.
fn drive(
    client: &mut Client,
    from: u64,
    to: u64,
    block: usize,
    vehicles: usize,
) -> Result<u64, String> {
    let mut step = from;
    while step < to {
        let steps = ((to - step) as usize).min(block);
        match client.submit(step, &rows(step, steps, vehicles)) {
            Ok(Reply::Decisions { first_step, steps: got, .. }) => {
                if first_step != step || got as usize != steps {
                    return Err(format!(
                        "decisions for steps {first_step}+{got}, wanted {step}+{steps}"
                    ));
                }
                step += steps as u64;
            }
            Ok(Reply::Busy { .. }) => {
                // The drill's own queue pressure; retry the same block.
                std::thread::sleep(Duration::from_millis(ENGINE_DELAY_MS));
            }
            Ok(other) => return Err(format!("unexpected reply {other:?}")),
            Err(e) => return Err(format!("submit at step {step}: {e}")),
        }
    }
    Ok(step)
}

/// The uninterrupted reference: same workload through an in-process
/// engine with tracing on. Returns (state bytes, lane-trace JSONL).
fn golden(vehicles: usize, total_steps: u64, block: usize) -> Result<(Vec<u8>, String), String> {
    let tracer = obsv::tracer::global();
    tracer.set_capacity((vehicles * 8).max(1 << 16));
    tracer.enable();
    tracer.clear();
    let cfg = config(vehicles);
    let mut runner = FleetRunner::new(&cfg, THREADS).map_err(|e| e.to_string())?;
    let mut step = 0u64;
    while step < total_steps {
        let steps = ((total_steps - step) as usize).min(block);
        runner.run_block(&rows(step, steps, vehicles), true).map_err(|e| e.to_string())?;
        step += steps as u64;
    }
    let meta = cfg.meta_stream();
    let records: Vec<_> = tracer.drain_sorted().into_iter().filter(|r| r.stream < meta).collect();
    tracer.disable();
    let state = fleetstate::encode_fleet_state(&runner.export_state());
    Ok((state, obsv::event::to_jsonl(&records)))
}

fn write_artifact(dir: &Path, name: &str, bytes: &[u8]) {
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, bytes) {
        eprintln!("service_drill: cannot write artifact {}: {e}", path.display());
    } else {
        eprintln!("service_drill: artifact {}", path.display());
    }
}

fn first_divergence_artifact(dir: &Path, golden: &str, recovered: &str) {
    let div = obsv::first_divergence(
        std::io::BufReader::new(golden.as_bytes()),
        std::io::BufReader::new(recovered.as_bytes()),
        3,
    );
    let text = match div {
        Ok(Some(d)) => format!(
            "first divergence at line {}\ncontext:\n{}\ngolden   : {}\nrecovered: {}\n",
            d.line,
            d.context.join("\n"),
            d.left.unwrap_or_else(|| "<absent>".to_string()),
            d.right.unwrap_or_else(|| "<absent>".to_string()),
        ),
        Ok(None) => "traces identical (divergence must be elsewhere)\n".to_string(),
        Err(e) => format!("divergence scan failed: {e}\n"),
    };
    write_artifact(dir, "first_divergence.txt", text.as_bytes());
}

#[allow(clippy::too_many_lines)]
fn run(opts: &Options, reporter: &mut RunReporter) -> Result<(), String> {
    let vehicles = opts.vehicles;
    let block = opts.steps_per_block;
    let total_steps = (opts.blocks * block) as u64;
    let kill_step = (opts.kill_after * block) as u64;

    let scratch = std::env::temp_dir().join(format!("service-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let socket = scratch.join("fleetd.sock");
    let state_dir = scratch.join("fleet");
    let fleetd = find_fleetd(opts.fleetd.as_deref())?;
    eprintln!(
        "service_drill: {vehicles} vehicles × {total_steps} steps, kill after step {kill_step}; \
         daemon {}",
        fleetd.display()
    );

    // Phase 0 — the uninterrupted golden run.
    let t0 = Instant::now();
    let (golden_state, golden_trace) = golden(vehicles, total_steps, block)?;
    eprintln!("service_drill: golden run in {:.2} s", t0.elapsed().as_secs_f64());

    // Phase 1 — live session up to the kill point, then SIGKILL while a
    // submit is in flight (the journal may keep a torn tail; recovery
    // must shrug it off).
    let live_port = free_port()?;
    let mut child = spawn_daemon(&fleetd, &socket, &state_dir, vehicles, false, live_port)?;
    await_daemon(&socket, &mut child)?;
    let mut client = Client::connect_unix(&socket).map_err(|e| e.to_string())?;
    client.hello("drill-load").map_err(|e| e.to_string())?;
    let (health_status, health_body) = http_get(live_port, "/healthz")?;
    if health_status != 200 || health_body != "ok\n" {
        return Err(format!("live /healthz said {health_status} {health_body:?}, wanted 200 ok"));
    }
    drive(&mut client, 0, kill_step, block, vehicles)?;
    // Every stage has seen traffic by now; the scrape must prove it.
    let (status, page) = http_get(live_port, "/metrics")?;
    if status != 200 {
        return Err(format!("live /metrics said {status}"));
    }
    let live_scrape = expo_check(&page, "pre-kill scrape")?;
    if live_scrape.gauge("fleetd_recovered") != Some(0.0) {
        return Err("fresh daemon claims fleetd_recovered != 0".to_string());
    }

    let killer = std::thread::spawn(move || {
        // Land inside the next block's journal-append/process window.
        std::thread::sleep(Duration::from_millis(ENGINE_DELAY_MS / 2));
        child.kill().map_err(|e| e.to_string())?;
        child.wait().map_err(|e| e.to_string())
    });
    // This submit races the SIGKILL: both a torn error and a served
    // reply are legitimate outcomes.
    let midflight = client.submit(kill_step, &rows(kill_step, block, vehicles));
    let status = killer.join().map_err(|_| "killer thread panicked")??;
    eprintln!(
        "service_drill: daemon killed ({status}); mid-flight submit {}",
        match &midflight {
            Ok(_) => "was served".to_string(),
            Err(e) => format!("failed as expected ({e})"),
        }
    );

    // Phase 2 — restart with --recover and resume from wherever the
    // journal's clean prefix ends (mid-block is legal under SIGKILL).
    let telemetry_port = free_port()?;
    let mut child = spawn_daemon(&fleetd, &socket, &state_dir, vehicles, true, telemetry_port)?;
    let (_, resumed) = await_daemon(&socket, &mut child)?;
    if resumed < kill_step || resumed > kill_step + block as u64 {
        return Err(format!(
            "recovered step {resumed} outside [{kill_step}, {}]",
            kill_step + block as u64
        ));
    }
    reporter.meta("drill.resumed_step", resumed);
    let mut client = Client::connect_unix(&socket).map_err(|e| e.to_string())?;
    client.hello("drill-resume").map_err(|e| e.to_string())?;

    // The recovered daemon's recovery gauges must agree with what it
    // told us over the protocol. This scrape rides the `Telemetry`
    // request (not HTTP), so both transports get exercised.
    let stats = client.stats().map_err(|e| e.to_string())?;
    let page = client.telemetry().map_err(|e| e.to_string())?;
    let scrape = obsv::telemetry::parse(&page)
        .map_err(|e| format!("post-recovery scrape: bad exposition: {e}"))?;
    let gauge = |name: &str| {
        scrape.gauge(name).ok_or_else(|| format!("post-recovery scrape: gauge {name} missing"))
    };
    if gauge("fleetd_recovered")? != 1.0 {
        return Err("recovered daemon claims fleetd_recovered != 1".to_string());
    }
    let resumed_gauge = gauge("fleetd_recovery_resumed_step")?;
    if resumed_gauge != resumed as f64 || gauge("fleetd_step")? != resumed as f64 {
        return Err(format!(
            "recovery gauges disagree with Hello: resumed_step gauge {resumed_gauge}, \
             step gauge {}, Hello said {resumed}",
            gauge("fleetd_step")?
        ));
    }
    let snapshot_step = gauge("fleetd_recovery_snapshot_step")?;
    if snapshot_step > resumed as f64 {
        return Err(format!("snapshot step {snapshot_step} beyond resumed step {resumed}"));
    }
    // Past a snapshot, recovery reads the journal's header and tail,
    // not the whole file.
    let bytes_read = gauge("fleetd_recovery_journal_bytes_read")?;
    let journal_bytes = gauge("fleetd_journal_bytes")?;
    if snapshot_step > 0.0 && bytes_read >= journal_bytes {
        return Err(format!(
            "recovery from the snapshot at step {snapshot_step} read {bytes_read} of the \
             journal's {journal_bytes} bytes"
        ));
    }
    let frames_replayed = gauge("fleetd_recovery_frames_replayed")?;
    let torn = gauge("fleetd_recovery_torn_tail_dropped")?;
    if torn != 0.0 && torn != 1.0 {
        return Err(format!("torn-tail gauge is {torn}, wanted 0 or 1"));
    }
    let journal_frames = scrape
        .counter("fleetd_journal_frames_total")
        .ok_or("post-recovery scrape: fleetd_journal_frames_total missing")?;
    if journal_frames != stats.journal_frames as f64 {
        return Err(format!(
            "journal frame counter {journal_frames} disagrees with Stats {}",
            stats.journal_frames
        ));
    }
    reporter.meta("drill.recovery_frames_replayed", frames_replayed as u64);
    reporter.meta("drill.recovery_torn_tail", torn as u64);
    reporter.meta("drill.recovery_journal_bytes_read", bytes_read as u64);
    eprintln!(
        "service_drill: recovery gauges check out (snapshot {snapshot_step}, \
         {frames_replayed} frames replayed, {bytes_read} of {journal_bytes} journal bytes read, \
         torn tail {torn})"
    );

    // The risk series must be present on both sides of the crash and
    // monotone across it: the recovered daemon rebuilt its realized-CR
    // sketches from the journal replay, so no sample may be lost.
    let live_risk = live_scrape
        .counter("fleet_cr_samples_total")
        .ok_or("pre-kill scrape: fleet_cr_samples_total missing")?;
    let recovered_risk = scrape
        .counter("fleet_cr_samples_total")
        .ok_or("post-recovery scrape: fleet_cr_samples_total missing")?;
    if recovered_risk < live_risk {
        return Err(format!(
            "risk samples went backwards across recovery: {live_risk} -> {recovered_risk}"
        ));
    }
    for tau in obsv::risk::TAU_LADDER {
        let name = format!("fleet_cr_exceed_total{{tau=\"{tau}\"}}");
        let was =
            live_scrape.counter(&name).ok_or_else(|| format!("pre-kill scrape: {name} missing"))?;
        let now =
            scrape.counter(&name).ok_or_else(|| format!("post-recovery scrape: {name} missing"))?;
        if now < was {
            return Err(format!("{name} went backwards across recovery: {was} -> {now}"));
        }
    }
    eprintln!(
        "service_drill: risk series monotone across recovery \
         ({live_risk} -> {recovered_risk} samples)"
    );

    drive(&mut client, resumed, total_steps, block, vehicles)?;

    // Phase 3 — byte-compare state and full event history.
    let recovered_state = client.export_state().map_err(|e| e.to_string())?;
    let replayed = client.replay_events().map_err(|e| e.to_string())?;
    let mut recorder = SessionRecorder::new();
    recorder.absorb(replayed);
    let meta = config(vehicles).meta_stream();
    let lane_records = recorder.records_below_stream(meta);
    let recovered_trace = obsv::event::to_jsonl(&lane_records);
    reporter.meta("drill.events_replayed", recorder.len());

    let state_ok = recovered_state == golden_state;
    let trace_ok = recovered_trace == golden_trace;
    if !state_ok || !trace_ok {
        write_artifact(&opts.artifact_dir, "golden_trace.jsonl", golden_trace.as_bytes());
        write_artifact(&opts.artifact_dir, "recovered_trace.jsonl", recovered_trace.as_bytes());
        write_artifact(&opts.artifact_dir, "golden_state.bin", &golden_state);
        write_artifact(&opts.artifact_dir, "recovered_state.bin", &recovered_state);
        first_divergence_artifact(&opts.artifact_dir, &golden_trace, &recovered_trace);
        let _ = client.shutdown();
        let _ = child.wait();
        return Err(format!(
            "recovery broke byte-identity: state {} ({} vs {} bytes), trace {}",
            if state_ok { "ok" } else { "DIVERGED" },
            recovered_state.len(),
            golden_state.len(),
            if trace_ok { "ok" } else { "DIVERGED" },
        ));
    }
    eprintln!(
        "service_drill: state ({} bytes) and trace ({} lane events) byte-identical",
        recovered_state.len(),
        lane_records.len()
    );

    // The recorded trace is also this run's monitor input: a local
    // replay must be alarm-free, and the file is left for CI to push
    // through `monitor --replay --expect-clean` independently.
    let monitor = Monitor::new(MonitorConfig {
        break_even_s: BREAK_EVEN,
        window: ESTIMATOR_WINDOW,
        ..MonitorConfig::default()
    });
    let alarms = monitor.replay(&lane_records);
    reporter.meta("drill.monitor_alarms", alarms.len());
    if !alarms.is_empty() {
        for a in alarms.iter().take(5) {
            eprintln!("service_drill: ALARM {}", a.event.describe());
        }
        write_artifact(&opts.artifact_dir, "recovered_trace.jsonl", recovered_trace.as_bytes());
        let _ = client.shutdown();
        let _ = child.wait();
        return Err(format!("monitor raised {} alarms on the recovered trace", alarms.len()));
    }
    write_artifact(&opts.artifact_dir, "session_trace.jsonl", recovered_trace.as_bytes());

    // The fleet CVaR ledger must be recomputable bit-exactly offline:
    // feed the canonical trace through a fresh local hub and compare
    // the daemon's scrape against the offline digest. Gauges render
    // with shortest-round-trip floats, so equality here is equality of
    // bits, not a tolerance.
    let risk_page = client.telemetry().map_err(|e| e.to_string())?;
    let risk_scrape = obsv::telemetry::parse(&risk_page)
        .map_err(|e| format!("risk scrape: bad exposition: {e}"))?;
    let local_hub = obsv::risk::RiskHub::new();
    for r in &lane_records {
        if let obsv::TraceEvent::StopCost { online_s, offline_s, .. } = r.event {
            local_hub.record(r.stream, online_s, offline_s);
        }
    }
    let offline_report = local_hub.report();
    let daemon_samples = risk_scrape
        .counter("fleet_cr_samples_total")
        .ok_or("risk scrape: fleet_cr_samples_total missing")?;
    if daemon_samples != offline_report.fleet.count as f64 {
        return Err(format!(
            "daemon risk samples {daemon_samples} disagree with the {} StopCost records \
             of its own canonical trace",
            offline_report.fleet.count
        ));
    }
    for (name, offline_value) in [
        ("fleet_cr_cvar{alpha=\"0.95\"}", offline_report.fleet.cvar(0.95)),
        ("fleet_cr_cvar{alpha=\"0.99\"}", offline_report.fleet.cvar(0.99)),
        ("fleet_cr_quantile{q=\"0.5\"}", offline_report.fleet.quantile(0.5)),
        ("fleet_cr_quantile{q=\"0.99\"}", offline_report.fleet.quantile(0.99)),
    ] {
        let offline_value =
            offline_value.ok_or_else(|| format!("offline risk digest empty at {name}"))?;
        let scraped =
            risk_scrape.gauge(name).ok_or_else(|| format!("risk scrape: {name} missing"))?;
        if scraped.to_bits() != offline_value.to_bits() {
            return Err(format!(
                "daemon {name} = {scraped} diverges from offline recomputation {offline_value}"
            ));
        }
    }
    for tau in obsv::risk::TAU_LADDER {
        let name = format!("fleet_cr_exceed_total{{tau=\"{tau}\"}}");
        let scraped =
            risk_scrape.counter(&name).ok_or_else(|| format!("risk scrape: {name} missing"))?;
        let offline_value = offline_report.fleet.exceed_count(tau) as f64;
        if scraped != offline_value {
            return Err(format!(
                "daemon {name} = {scraped} diverges from offline recomputation {offline_value}"
            ));
        }
    }
    write_artifact(
        &opts.artifact_dir,
        "risk-report.json",
        (offline_report.to_value().to_string() + "\n").as_bytes(),
    );
    reporter.meta("drill.risk_samples", offline_report.fleet.count);
    eprintln!(
        "service_drill: daemon risk digest matches offline recomputation \
         ({} samples, {} vehicles)",
        offline_report.fleet.count,
        offline_report.vehicles.len()
    );

    // Phase 4 — backpressure burst: concurrent submits against the
    // 2-deep queue must see explicit Busy, and every client must
    // eventually be served without corrupting the engine (the state
    // comparison above already pinned the pre-burst state).
    let before = client.stats().map_err(|e| e.to_string())?;
    let burst_base = total_steps;
    let outcomes = std::thread::scope(|scope| -> Result<Vec<bool>, String> {
        let handles: Vec<_> = (0..BURST_CLIENTS)
            .map(|_| {
                let socket = socket.clone();
                scope.spawn(move || -> Result<bool, String> {
                    let mut c = Client::connect_unix(&socket).map_err(|e| e.to_string())?;
                    let mut saw_busy = false;
                    loop {
                        match c
                            .submit(u64::MAX, &rows(burst_base, 1, vehicles))
                            .map_err(|e| e.to_string())?
                        {
                            Reply::Decisions { .. } => return Ok(saw_busy),
                            Reply::Busy { .. } => {
                                saw_busy = true;
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            other => return Err(format!("burst: unexpected {other:?}")),
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "burst thread panicked".to_string())?)
            .collect()
    })?;
    let after = client.stats().map_err(|e| e.to_string())?;
    let rejected = after.busy_rejections - before.busy_rejections;
    reporter.meta("drill.busy_rejections", rejected);
    if outcomes.iter().filter(|b| **b).count() == 0 || rejected == 0 {
        let _ = client.shutdown();
        let _ = child.wait();
        return Err(format!(
            "backpressure burst saw no Busy replies ({BURST_CLIENTS} clients, queue \
             {QUEUE_CAPACITY}, {rejected} rejections)"
        ));
    }
    eprintln!(
        "service_drill: burst served {BURST_CLIENTS}/{BURST_CLIENTS} with {rejected} explicit \
         Busy rejections"
    );

    // Phase 5 — final scrape over HTTP: every stage histogram has
    // traffic, counters only grew since the post-recovery scrape, and
    // the page itself becomes the uploaded `telemetry.prom` artifact.
    let (status, final_page) = http_get(telemetry_port, "/metrics")?;
    if status != 200 {
        return Err(format!("final /metrics said {status}"));
    }
    let final_scrape = expo_check(&final_page, "final scrape")?;
    monotone_check(&scrape, &final_scrape).map_err(|e| format!("final scrape: {e}"))?;
    let busy_counter = final_scrape.counter("fleetd_busy_rejections_total").unwrap_or(0.0);
    if busy_counter < rejected as f64 {
        return Err(format!(
            "busy counter {busy_counter} below the {rejected} rejections Stats reported"
        ));
    }
    write_artifact(&opts.artifact_dir, "telemetry.prom", final_page.as_bytes());
    reporter.meta("drill.telemetry_histograms", final_scrape.histograms.len());

    // Graceful close; /healthz must stop saying ok once shutdown lands.
    client.shutdown().map_err(|e| e.to_string())?;
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("daemon exited uncleanly after shutdown: {status}"));
    }
    match http_get(telemetry_port, "/healthz") {
        Ok((code, body)) if code == 200 && body == "ok\n" => {
            return Err("daemon is down but /healthz still says ok".to_string());
        }
        // 503 from a still-draining listener or connection refused —
        // both read as "unready".
        Ok(_) | Err(_) => {}
    }
    eprintln!("service_drill: telemetry plane verified (healthz went unready on shutdown)");
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(())
}

fn main() -> ExitCode {
    let mut opts = Options {
        fleetd: None,
        vehicles: 10_000,
        blocks: 12,
        steps_per_block: 4,
        kill_after: 6,
        artifact_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/service_drill"),
    };
    let mut reporter = RunReporter::from_args("service_drill");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let take = |v: Option<String>, rest: &mut dyn Iterator<Item = String>| match v {
            Some(v) => Some(v),
            None => rest.next(),
        };
        if a == "--fleetd" || a.starts_with("--fleetd=") {
            match take(a.strip_prefix("--fleetd=").map(str::to_string), &mut args) {
                Some(v) => opts.fleetd = Some(PathBuf::from(v)),
                None => return usage(),
            }
        } else if a == "--vehicles" || a.starts_with("--vehicles=") {
            match take(a.strip_prefix("--vehicles=").map(str::to_string), &mut args)
                .and_then(|v| v.parse().ok())
            {
                Some(v) if v > 0 => opts.vehicles = v,
                _ => return usage(),
            }
        } else if a == "--blocks" || a.starts_with("--blocks=") {
            match take(a.strip_prefix("--blocks=").map(str::to_string), &mut args)
                .and_then(|v| v.parse().ok())
            {
                Some(v) if v > 0 => opts.blocks = v,
                _ => return usage(),
            }
        } else if a == "--steps-per-block" || a.starts_with("--steps-per-block=") {
            match take(a.strip_prefix("--steps-per-block=").map(str::to_string), &mut args)
                .and_then(|v| v.parse().ok())
            {
                Some(v) if v > 0 => opts.steps_per_block = v,
                _ => return usage(),
            }
        } else if a == "--kill-after" || a.starts_with("--kill-after=") {
            match take(a.strip_prefix("--kill-after=").map(str::to_string), &mut args)
                .and_then(|v| v.parse().ok())
            {
                Some(v) => opts.kill_after = v,
                None => return usage(),
            }
        } else if a == "--artifact-dir" || a.starts_with("--artifact-dir=") {
            match take(a.strip_prefix("--artifact-dir=").map(str::to_string), &mut args) {
                Some(v) => opts.artifact_dir = PathBuf::from(v),
                None => return usage(),
            }
        } else if a == "--report" || a.starts_with("--report=") {
            // Parsed by RunReporter::from_args; consume the value form.
            if a == "--report" && args.next().is_none() {
                return usage();
            }
        } else {
            return usage();
        }
    }
    if opts.kill_after >= opts.blocks {
        eprintln!("service_drill: --kill-after must be < --blocks");
        return usage();
    }

    reporter.meta("seed", SEED);
    reporter.meta("vehicles", opts.vehicles);
    reporter.meta("total_steps", opts.blocks * opts.steps_per_block);
    reporter.meta("kill_after_step", opts.kill_after * opts.steps_per_block);

    let t = Instant::now();
    match run(&opts, &mut reporter) {
        Ok(()) => {
            eprintln!("service_drill: PASS in {:.2} s", t.elapsed().as_secs_f64());
            reporter.meta("drill.result", "pass");
            reporter.finish();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("service_drill: FAIL: {e}");
            reporter.meta("drill.result", "fail");
            reporter.finish();
            ExitCode::FAILURE
        }
    }
}
