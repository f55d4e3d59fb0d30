//! The `recover` workload: set-up journals a long uptime through the
//! daemon and stops it; the timed operation restarts the daemon with
//! `recover` on the unchanged directory, up to the first `HelloAck`.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fleetd::{proto, Client, Reply, Request, ServeOptions, Started, STAGE_HISTOGRAMS};
use fleetstate::{
    append_snapshot, decode_fleet_state, parse_journal, recover_fleet, scan_snapshots, FleetConfig,
    FleetRunner, JOURNAL_FILE, SNAPSHOT_FILE,
};

use crate::measure::{median, peak_rss_mb, time_unstolen, Inputs, OpLog, Spans};
use crate::{Ctx, Outcome};

/// The uptime set-up journals: `snapshots` snapshots `snapshot_every`
/// steps apart, then a tail of `tail` steps the snapshots do not cover.
#[derive(Clone, Copy)]
struct Shape {
    lanes: usize,
    snapshot_every: u64,
    snapshots: u64,
    tail: u64,
    /// Steps per submitted block; divides `snapshot_every` and `tail`.
    block_steps: usize,
    threads: usize,
}

const FULL: Shape = Shape {
    lanes: 1024,
    snapshot_every: 1024,
    snapshots: 16,
    tail: 320,
    block_steps: 64,
    threads: 2,
};

const TINY: Shape =
    Shape { lanes: 32, snapshot_every: 16, snapshots: 4, tail: 8, block_steps: 8, threads: 2 };

impl Shape {
    fn steps(&self) -> u64 {
        self.snapshot_every * self.snapshots + self.tail
    }
}

/// Journaled uptimes built per run; `setup_s` is the median of their
/// steal-scaled times.
const SETUP_REPS: usize = 3;
/// Block size of the daemon's full-journal risk rebuild.
const REBUILD_CHUNK: usize = 4096;
const ROWS_SALT: u64 = 0x5ec0;

fn options(shape: &Shape, seed: u64, dir: &Path, recover: bool) -> ServeOptions {
    let config = FleetConfig {
        lanes: shape.lanes,
        break_even: 28.0,
        window: Some(64),
        min_history: 8,
        seed,
        trace_stream_base: 0,
    };
    let mut options = ServeOptions::new(&dir.join("fleet"), config);
    options.threads = shape.threads;
    options.snapshot_every = shape.snapshot_every;
    options.emit_trace = false;
    options.recover = recover;
    options
}

/// Journals the whole uptime through a fresh daemon, stops it, and
/// returns its exported state.
fn journal_uptime(shape: &Shape, seed: u64, dir: &Path) -> Result<Vec<u8>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let socket = dir.join("fleetd.sock");
    let started = fleetd::serve(&options(shape, seed, dir, false), &socket, None)?;
    let result = (|| {
        let mut client = Client::connect_unix(&socket).map_err(|e| e.to_string())?;
        client.hello("perfbench-setup").map_err(|e| e.to_string())?;
        let mut inputs = Inputs::new(seed, ROWS_SALT);
        let mut step = 0u64;
        while step < shape.steps() {
            let rows = inputs.block(shape.block_steps, shape.lanes);
            match client.submit(step, &rows).map_err(|e| e.to_string())? {
                Reply::Decisions { .. } => step += shape.block_steps as u64,
                other => return Err(format!("set-up submit at step {step}: {other:?}")),
            }
        }
        client.export_state().map_err(|e| e.to_string())
    })();
    started.handle.stop();
    result
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let shape = if ctx.tiny { TINY } else { FULL };
    let mut out = Outcome::default();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut exported: Option<Vec<u8>> = None;
    let dir = ctx.dir.join("uptime");
    for _ in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(&dir);
        let (state, secs) = time_unstolen(|| journal_uptime(&shape, ctx.seed, &dir));
        let state = state?;
        setup.push(secs);
        // Set-up is deterministic: every rep must journal the same state.
        if let Some(first) = &exported {
            out.check(*first == state);
        }
        exported = Some(state);
    }
    let expected = exported.ok_or("no set-up ran")?;

    let socket = ctx.dir.join("fleetd.sock");
    let mut spans = Spans::new(ctx.trace);
    let mut probe = Probe::default();
    let mut log = OpLog::new(1);
    let started = Instant::now();
    let mut op = 0u64;
    while log.len() == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        spans.begin_op(op, "recovery");
        log.before_op();
        let (recovered, secs) = spans.time("serve_recover_hello", || -> Result<_, String> {
            let daemon = fleetd::serve(&options(&shape, ctx.seed, &dir, true), &socket, None)?;
            let mut client = Client::connect_unix(&socket).map_err(|e| e.to_string())?;
            let hello = client.hello("perfbench").map_err(|e| e.to_string())?;
            Ok((daemon, client, hello))
        });
        let (daemon, mut client, hello) = recovered?;
        log.push(secs);
        let checked = verify(&shape, &daemon, &mut client, &expected);
        let scraped = if ctx.trace { Some(stage_means(&mut client)) } else { None };
        drop(client);
        daemon.handle.stop();
        out.check(checked?);
        if let Some(stages) = scraped {
            probe.stages.push(stages?);
            probe.measure(&mut spans, &shape, &dir, &expected, hello)?;
        }
        spans.end_op();
        op += 1;
    }

    let decisions = shape.steps() as f64 * shape.lanes as f64;
    out.e2e.insert("setup_s", median(&setup));
    log.record(&mut out, decisions);
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    if ctx.trace {
        probe.ledger(&mut out, &spans, decisions);
        let path = PathBuf::from(format!("perfbench/out/spans-recover-seed{}.jsonl", ctx.seed));
        spans.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out)
}

/// The recovered daemon resumed where set-up stopped, replayed exactly
/// the journal tail past the last snapshot, and holds the exported
/// state byte for byte.
fn verify(
    shape: &Shape,
    daemon: &Started,
    client: &mut Client,
    expected: &[u8],
) -> Result<bool, String> {
    let outcome = daemon.recovery.ok_or("serve(recover) reported no recovery")?;
    let state = client.export_state().map_err(|e| e.to_string())?;
    Ok(outcome.resumed_step == shape.steps()
        && outcome.frames_replayed == shape.tail
        && outcome.snapshot_step == shape.steps() - shape.tail
        && state == expected)
}

/// Mean seconds of each daemon stage histogram with samples.
fn stage_means(client: &mut Client) -> Result<Vec<f64>, String> {
    let text = client.telemetry().map_err(|e| e.to_string())?;
    let scrape = obsv::telemetry::parse(&text)?;
    Ok(STAGE_HISTOGRAMS
        .iter()
        .map(|name| {
            scrape.histograms.get(*name).map_or(0.0, |h| {
                if h.count > 0.0 {
                    h.sum / h.count
                } else {
                    0.0
                }
            })
        })
        .collect())
}

/// The traced run's direct calls into the recovery path's layers.
#[derive(Default)]
struct Probe {
    stages: Vec<Vec<f64>>,
    frames_replayed: u64,
    journal_bytes: u64,
    request_bytes: u64,
    reply_bytes: u64,
}

impl Probe {
    fn measure(
        &mut self,
        spans: &mut Spans,
        shape: &Shape,
        dir: &Path,
        exported: &[u8],
        hello: (FleetConfig, u64, u64),
    ) -> Result<(), String> {
        let fleet = dir.join("fleet");
        let journal_path = fleet.join(JOURNAL_FILE);
        let snapshot_path = fleet.join(SNAPSHOT_FILE);
        let config = hello.0;

        let (recovered, _) = spans.time("recovery.recover_fleet", || {
            recover_fleet(&journal_path, &snapshot_path, &config, shape.threads)
        });
        let (_, outcome) = recovered.map_err(|e| e.to_string())?;
        self.frames_replayed = outcome.frames_replayed;

        let bytes = std::fs::read(&journal_path).map_err(|e| e.to_string())?;
        self.journal_bytes = bytes.len() as u64;
        let (crc, _) = spans.time("numeric.crc32", || numeric::crc32::crc32(&bytes));
        black_box(crc);
        let (parsed, _) = spans.time("journal.parse_journal", || parse_journal(&bytes));
        let journal = parsed.map_err(|e| e.to_string())?;
        drop(bytes);

        let snapshots = std::fs::read(&snapshot_path).map_err(|e| e.to_string())?;
        let (scan, _) =
            spans.time("snapshot.scan_snapshots", || scan_snapshots(&snapshots, &config));
        black_box(scan);

        // The daemon's full-journal risk rebuild, with the risk hub
        // recording as it does in the daemon.
        let hub = obsv::risk::global();
        hub.reset();
        hub.enable();
        let (rebuilt, _) = spans.time("recovery.risk_rebuild", || -> Result<(), String> {
            let mut runner = FleetRunner::new(&config, shape.threads).map_err(|e| e.to_string())?;
            for block in journal.steps.chunks(REBUILD_CHUNK) {
                runner.run_block(block, false).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        hub.disable();
        rebuilt?;
        drop(journal);

        let state = decode_fleet_state(exported, 0).map_err(|e| e.to_string())?;
        let probe_path = dir.join("probe.snapshots");
        let (written, _) =
            spans.time("snapshot.append_snapshot", || append_snapshot(&probe_path, &state));
        written.map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&probe_path);

        let (request, _) = spans.time("proto.encode_request", || {
            proto::encode_request(&Request::Hello { name: "perfbench".into() })
        });
        let reply =
            proto::encode_reply(&Reply::HelloAck { config, step: hello.1, client_id: hello.2 });
        let (decoded, _) = spans.time("proto.decode_reply", || proto::decode_reply(&reply));
        black_box(decoded.map_err(|e| e.to_string())?);
        self.request_bytes = request.len() as u64;
        self.reply_bytes = reply.len() as u64;
        Ok(())
    }

    fn ledger(&self, out: &mut Outcome, spans: &Spans, decisions: f64) {
        let l = &mut out.layers;
        let secs = |name: &str| spans.mean_us(name) / 1e6;
        l.insert("client.encode_us", spans.mean_us("proto.encode_request"));
        l.insert("client.decode_us", spans.mean_us("proto.decode_reply"));
        l.insert("proto.request_bytes", self.request_bytes as f64);
        l.insert("proto.reply_bytes", self.reply_bytes as f64);
        l.insert("crc.ns_per_byte", secs("numeric.crc32") / self.journal_bytes as f64 * 1e9);
        let names = [
            "server.queue_wait_us",
            "server.frame_decode_us",
            "server.engine_decide_us",
            "server.journal_append_us",
            "server.journal_fsync_us",
            "server.reply_write_us",
        ];
        for (i, name) in names.iter().enumerate() {
            let means: Vec<f64> = self.stages.iter().map(|s| s[i]).collect();
            l.insert(name, median(&means) * 1e6);
        }
        l.insert("recovery.recover_fleet_s", secs("recovery.recover_fleet"));
        l.insert("recovery.parse_journal_s", secs("journal.parse_journal"));
        l.insert("recovery.scan_snapshots_s", secs("snapshot.scan_snapshots"));
        let rebuild_s = secs("recovery.risk_rebuild");
        l.insert("recovery.risk_rebuild_s", rebuild_s);
        l.insert("runner.ns_per_decision", rebuild_s / decisions * 1e9);
        l.insert("recovery.frames_replayed", self.frames_replayed as f64);
        l.insert("recovery.journal_bytes", self.journal_bytes as f64);
        l.insert("snapshot.write_ms", spans.mean_us("snapshot.append_snapshot") / 1e3);
    }
}
