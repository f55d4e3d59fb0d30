//! The two daemon workloads: an in-process `fleetd` on a unix socket and
//! one client thread in a closed loop — `Client::submit` blocks, and the
//! next block goes out only after the previous block's decisions came
//! back. Every reply is checked against an in-process
//! `FleetRunner::run_block_decided` fed the same rows.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fleetd::{proto, Client, Reply, Request, ServeOptions, ServerHandle, STAGE_HISTOGRAMS};
use fleetstate::{append_snapshot, BlockDecisions, FleetConfig, FleetRunner, Journal};
use obsv::TraceEvent;
use skirental::batch::{BatchStore, CounterRng, VertexKind};
use skirental::BreakEven;

use crate::measure::{median, peak_rss_mb, time_unstolen, Inputs, OpLog, Spans};
use crate::{check, Ctx, Outcome};

/// One daemon workload's traffic and daemon configuration.
#[derive(Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub lanes: usize,
    /// Steps per submitted block.
    pub steps: usize,
    pub window: Option<usize>,
    pub min_history: usize,
    pub threads: usize,
    pub emit_trace: bool,
    pub snapshot_every: u64,
    pub queue: usize,
    /// Blocks submitted (and checked) before timing starts.
    pub warmup: u64,
    /// Traced runs time one `append_snapshot` every this many submits.
    pub snapshot_probe_every: u64,
    /// Submits per steal window of the [`OpLog`] (about 0.25 s).
    pub window_ops: usize,
}

/// Throughput-bound: large frames, so the kernel, settle, frame codec
/// and CRC are most of the work. The daemon is configured as the
/// `perf_gate` daemon phase configures it, at two engine threads.
pub const BULK: Shape = Shape {
    name: "daemon_bulk",
    lanes: 2048,
    steps: 8,
    window: Some(50),
    min_history: 3,
    threads: 2,
    emit_trace: false,
    snapshot_every: 0,
    queue: 64,
    warmup: 8,
    snapshot_probe_every: 64,
    window_ops: 50,
};

/// Latency-bound: tiny frames, so per-request fixed costs dominate. The
/// daemon runs with the shipped `fleetd` binary's defaults.
pub const SMALL: Shape = Shape {
    name: "daemon_small",
    lanes: 64,
    steps: 1,
    window: Some(64),
    min_history: 8,
    threads: 2,
    emit_trace: true,
    snapshot_every: 4096,
    queue: 64,
    warmup: 200,
    snapshot_probe_every: 1024,
    window_ops: 1000,
};

impl Shape {
    fn tiny(mut self) -> Self {
        self.lanes = self.lanes.min(16);
        self.steps = self.steps.min(2);
        self.warmup = 2;
        self.snapshot_every = self.snapshot_every.min(8);
        self.snapshot_probe_every = 4;
        self.window_ops = 4;
        self
    }

    fn decisions_per_block(&self) -> u64 {
        (self.lanes * self.steps) as u64
    }
}

/// Daemon start-ups per run; `setup_s` is the median of their
/// steal-scaled times.
const SETUP_REPS: usize = 15;
const BREAK_EVEN_S: f64 = 28.0;
/// Salt of the block-input stream.
const ROWS_SALT: u64 = 0xb10c;
/// Trace-stream base of the benchmark's own runners, far from the
/// daemon's lanes so their risk sketches and trace records never mix.
const PROBE_STREAM_BASE: u64 = 1 << 40;

fn config(shape: &Shape, seed: u64, trace_stream_base: u64) -> FleetConfig {
    FleetConfig {
        lanes: shape.lanes,
        break_even: BREAK_EVEN_S,
        window: shape.window,
        min_history: shape.min_history,
        seed,
        trace_stream_base,
    }
}

struct Daemon {
    handle: ServerHandle,
    client: Client,
    dir: PathBuf,
}

impl Daemon {
    fn start(shape: &Shape, seed: u64, dir: &Path) -> Result<Self, String> {
        let options = ServeOptions {
            dir: dir.join("fleet"),
            config: config(shape, seed, 0),
            threads: shape.threads,
            snapshot_every: shape.snapshot_every,
            queue_capacity: shape.queue,
            emit_trace: shape.emit_trace,
            engine_delay_ms: 0,
            recover: false,
            telemetry_addr: None,
        };
        let socket = dir.join("fleetd.sock");
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let started = fleetd::serve(&options, &socket, None)?;
        let mut client = Client::connect_unix(&socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        client.hello("perfbench").map_err(|e| format!("hello: {e}"))?;
        Ok(Self { handle: started.handle, client, dir: dir.to_path_buf() })
    }

    fn stop(self) {
        drop(self.client);
        self.handle.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `(sum seconds, count)` of each daemon stage histogram, in
/// [`STAGE_HISTOGRAMS`] order, read through the public telemetry call.
fn stage_totals(client: &mut Client) -> Result<Vec<(f64, f64)>, String> {
    let text = client.telemetry().map_err(|e| format!("telemetry: {e}"))?;
    let scrape = obsv::telemetry::parse(&text)?;
    STAGE_HISTOGRAMS
        .iter()
        .map(|name| {
            scrape
                .histograms
                .get(*name)
                .map(|h| (h.sum, h.count))
                .ok_or_else(|| format!("telemetry page lacks {name}"))
        })
        .collect()
}

/// The traced run's probes: each times one more layer call on the block
/// the daemon just decided.
struct Probes {
    runner_1t: FleetRunner,
    kernel: BatchStore,
    kernel_rngs: Vec<CounterRng>,
    kernel_thresholds: Vec<f64>,
    kernel_vertices: Vec<VertexKind>,
    journal: Journal,
    snapshot_path: PathBuf,
    request_bytes: u64,
    reply_bytes: u64,
    crc_bytes: u64,
    journal_write_s: f64,
    journal_sync_s: f64,
    journal_bytes: u64,
    trace_records: u64,
}

impl Probes {
    fn new(shape: &Shape, seed: u64, dir: &Path) -> Result<Self, String> {
        let cfg = config(shape, seed, PROBE_STREAM_BASE);
        let store = match shape.window {
            Some(w) => BatchStore::with_window(BreakEven::SSV, shape.lanes, w),
            None => BatchStore::new(BreakEven::SSV, shape.lanes),
        }
        .min_history(shape.min_history);
        Ok(Self {
            runner_1t: FleetRunner::new(&cfg, 1).map_err(|e| e.to_string())?,
            kernel: store,
            kernel_rngs: (0..shape.lanes).map(|i| CounterRng::for_stream(seed, i as u64)).collect(),
            kernel_thresholds: vec![0.0; shape.lanes],
            kernel_vertices: vec![VertexKind::ColdStart; shape.lanes],
            journal: Journal::create(&dir.join("probe.journal"), &cfg)
                .map_err(|e| e.to_string())?,
            snapshot_path: dir.join("probe.snapshots"),
            request_bytes: 0,
            reply_bytes: 0,
            crc_bytes: 0,
            journal_write_s: 0.0,
            journal_sync_s: 0.0,
            journal_bytes: 0,
            trace_records: 0,
        })
    }

    /// Times the layer calls of one block before it is submitted, so the
    /// probes' CPU work never overlaps the daemon's handling of the
    /// block. Returns whether the single-thread runner agrees with the
    /// reference. Outside the timed phase (`spans` off) the probes only
    /// keep their state in step.
    fn before_submit(
        &mut self,
        spans: &mut Spans,
        shape: &Shape,
        rows: &[Vec<f64>],
        step: u64,
        reference: &BlockDecisions,
        submit: u64,
    ) -> Result<bool, String> {
        let timed = spans.tracing();
        let request = Request::Submit { first_step: step, rows: rows.to_vec() };
        let (frame, _) = spans.time("proto.encode_request", || proto::encode_request(&request));
        let (crc, _) = spans.time("numeric.crc32", || numeric::crc32::crc32(&frame));
        black_box(crc);

        let (one, _) = spans
            .time("runner.run_block_decided_1t", || self.runner_1t.run_block_decided(rows, false));
        let agrees = one.map_err(|e| e.to_string())? == *reference;

        for row in rows {
            let (decided, _) = spans.time("batch.decide_batch", || {
                self.kernel.decide_batch(
                    &mut self.kernel_rngs,
                    &mut self.kernel_thresholds,
                    &mut self.kernel_vertices,
                )
            });
            decided.map_err(|e| e.to_string())?;
            let (observed, _) =
                spans.time("batch.observe_batch", || self.kernel.observe_batch(row));
            observed.map_err(|e| e.to_string())?;
        }

        let at = self.journal.steps_recorded();
        let bytes_before = self.journal.bytes_written();
        let (appended, _) =
            spans.time("journal.append_block_timed", || self.journal.append_block_timed(at, rows));
        let timing = appended.map_err(|e| e.to_string())?;

        if shape.emit_trace {
            let (records, _) = spans.time("tracer.emit", || emit_stop_costs(rows, reference, step));
            obsv::tracer::global().clear();
            if timed {
                self.trace_records += records;
            }
        }
        if submit.is_multiple_of(shape.snapshot_probe_every) {
            let state = self.runner_1t.export_state();
            let (written, _) = spans
                .time("snapshot.append_snapshot", || append_snapshot(&self.snapshot_path, &state));
            written.map_err(|e| e.to_string())?;
        }
        if timed {
            self.request_bytes += frame.len() as u64;
            self.crc_bytes += frame.len() as u64;
            self.journal_write_s += timing.write_s;
            self.journal_sync_s += timing.sync_s;
            self.journal_bytes += self.journal.bytes_written() - bytes_before;
        }
        Ok(agrees)
    }

    /// Times the client's decode of the reply it just received.
    fn after_submit(&mut self, spans: &mut Spans, reply: &Reply) -> Result<(), String> {
        let reply_frame = proto::encode_reply(reply);
        let (decoded, _) = spans.time("proto.decode_reply", || proto::decode_reply(&reply_frame));
        black_box(decoded.map_err(|e| e.to_string())?);
        if spans.tracing() {
            self.reply_bytes += reply_frame.len() as u64;
        }
        Ok(())
    }
}

/// Emits one `StopCost` record per decision through the global tracer,
/// as the engine does with tracing on; returns the record count.
fn emit_stop_costs(rows: &[Vec<f64>], decisions: &BlockDecisions, step0: u64) -> u64 {
    let b = BreakEven::SSV;
    let mut records = 0;
    for (t, row) in rows.iter().enumerate() {
        for (lane, &y) in row.iter().enumerate() {
            let x = decisions.threshold(lane, t);
            obsv::tracer::set_stream(PROBE_STREAM_BASE + lane as u64);
            obsv::tracer::begin_stop(step0 + t as u64);
            obsv::tracer::emit(TraceEvent::StopCost {
                threshold_b: x,
                stop_s: y,
                online_s: if x.is_infinite() { y } else { b.online_cost(x, y) },
                offline_s: b.offline_cost(y),
                restarted: !x.is_infinite() && y >= x,
            });
            records += 1;
        }
    }
    records
}

pub fn run(ctx: &Ctx, shape: &Shape) -> Result<Outcome, String> {
    let shape = if ctx.tiny { shape.tiny() } else { *shape };
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let (started, secs) = time_unstolen(|| {
            Daemon::start(&shape, ctx.seed, &ctx.dir.join(format!("daemon{rep}")))
        });
        let started = started?;
        setup.push(secs);
        if rep + 1 < SETUP_REPS {
            started.stop();
        } else {
            daemon = Some(started);
        }
    }
    let mut daemon = daemon.ok_or("no daemon started")?;
    let result = drive(ctx, &shape, &mut daemon, median(&setup));
    daemon.stop();
    result
}

fn drive(ctx: &Ctx, shape: &Shape, daemon: &mut Daemon, setup_s: f64) -> Result<Outcome, String> {
    let mut reference =
        FleetRunner::new(&config(shape, ctx.seed, PROBE_STREAM_BASE), shape.threads)
            .map_err(|e| e.to_string())?;
    let mut probes = if ctx.trace { Some(Probes::new(shape, ctx.seed, &ctx.dir)?) } else { None };
    let mut inputs = Inputs::new(ctx.seed, ROWS_SALT);
    let mut out = Outcome::default();
    let mut spans = Spans::new(false);
    let mut log = OpLog::new(shape.window_ops);
    let mut stages_before = Vec::new();
    let mut started: Option<Instant> = None;
    let mut step = 0u64;
    let mut submit = 0u64;
    loop {
        if submit == shape.warmup {
            if ctx.trace {
                stages_before = stage_totals(&mut daemon.client)?;
            }
            spans = Spans::new(ctx.trace);
            started = Some(Instant::now());
        }
        if started.is_some_and(|t| t.elapsed().as_secs_f64() >= ctx.seconds) {
            break;
        }
        let rows = inputs.block(shape.steps, shape.lanes);
        spans.begin_op(submit, "block");
        // The reference and the probes run before the submit, while the
        // daemon is idle.
        let (decided, _) =
            spans.time("runner.run_block_decided", || reference.run_block_decided(&rows, false));
        let decided = decided.map_err(|e| e.to_string())?;
        if let Some(p) = probes.as_mut() {
            let agrees = p.before_submit(&mut spans, shape, &rows, step, &decided, submit)?;
            out.check(agrees);
        }
        if started.is_some() {
            log.before_op();
        }
        let (reply, rtt) = spans.time("client.submit", || daemon.client.submit(step, &rows));
        let mut reply = match reply {
            Ok(reply) => reply,
            Err(fleetd::client::ClientError::Daemon(message)) => {
                // The daemon refused the block; its state and ours no
                // longer agree, so the run ends here.
                eprintln!("perfbench: {}: submit {submit}: daemon error: {message}", shape.name);
                out.check(false);
                break;
            }
            Err(e) => return Err(format!("submit {submit}: {e}")),
        };
        if let Reply::Busy { .. } = reply {
            // One client in a closed loop never fills the queue; a Busy
            // answer is a failure, and the block was not journaled.
            eprintln!("perfbench: {}: submit {submit}: daemon answered Busy", shape.name);
            out.check(false);
            break;
        }
        if ctx.plant_flip && submit == shape.warmup {
            check::plant_bit_flip(&mut reply);
        }
        out.check(check::decisions_match(&reply, step, &decided));
        if let Some(p) = probes.as_mut() {
            p.after_submit(&mut spans, &reply)?;
        }
        spans.end_op();
        if started.is_some() {
            log.push(rtt);
        }
        step += shape.steps as u64;
        submit += 1;
    }
    let submits = log.len() as u64;
    if submits == 0 {
        return Err("no timed submits".into());
    }
    out.e2e.insert("setup_s", setup_s);
    log.record(&mut out, shape.decisions_per_block() as f64);
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    if let Some(p) = probes {
        let stages_after = stage_totals(&mut daemon.client)?;
        ledger(&mut out, shape, &spans, &p, &stages_before, &stages_after, submits);
        let path =
            PathBuf::from(format!("perfbench/out/spans-{}-seed{}.jsonl", shape.name, ctx.seed));
        spans.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out)
}

/// The per-layer ledger of a traced daemon run.
fn ledger(
    out: &mut Outcome,
    shape: &Shape,
    spans: &Spans,
    p: &Probes,
    before: &[(f64, f64)],
    after: &[(f64, f64)],
    submits: u64,
) {
    let n = submits as f64;
    let per_block = shape.decisions_per_block() as f64;
    let l = &mut out.layers;
    let encode_us = spans.mean_us("proto.encode_request");
    let decode_us = spans.mean_us("proto.decode_reply");
    l.insert("client.encode_us", encode_us);
    l.insert("client.decode_us", decode_us);
    l.insert("proto.request_bytes", p.request_bytes as f64 / n);
    l.insert("proto.reply_bytes", p.reply_bytes as f64 / n);
    l.insert("crc.ns_per_byte", spans.total("numeric.crc32").0 / p.crc_bytes as f64 * 1e9);

    let names = [
        "server.queue_wait_us",
        "server.frame_decode_us",
        "server.engine_decide_us",
        "server.journal_append_us",
        "server.journal_fsync_us",
        "server.reply_write_us",
    ];
    let mut staged_us = 0.0;
    for (i, name) in names.iter().enumerate() {
        let count = after[i].1 - before[i].1;
        let mean_us = if count > 0.0 { (after[i].0 - before[i].0) / count * 1e6 } else { 0.0 };
        staged_us += mean_us;
        l.insert(name, mean_us);
    }
    let rtt_us = spans.mean_us("client.submit");
    let attributed_us = encode_us + decode_us + staged_us;
    l.insert("server.unattributed_us", rtt_us - attributed_us);
    l.insert("attribution_ratio", attributed_us / rtt_us);

    let block_us = spans.mean_us("runner.run_block_decided");
    let block_us_1t = spans.mean_us("runner.run_block_decided_1t");
    let (decide_s, decide_n) = spans.total("batch.decide_batch");
    let (observe_s, observe_n) = spans.total("batch.observe_batch");
    let decide_ns = decide_s / (decide_n as f64 * shape.lanes as f64) * 1e9;
    let observe_ns = observe_s / (observe_n as f64 * shape.lanes as f64) * 1e9;
    l.insert("runner.ns_per_decision", block_us * 1e3 / per_block);
    l.insert("runner.block_us", block_us);
    l.insert("runner.block_us_1t", block_us_1t);
    l.insert(
        "runner.settle_ns_per_decision",
        block_us_1t * 1e3 / per_block - decide_ns - observe_ns,
    );
    l.insert("kernel.decide_ns_per_lane", decide_ns);
    l.insert("kernel.observe_ns_per_lane", observe_ns);
    l.insert("journal.write_us", p.journal_write_s / n * 1e6);
    l.insert("journal.fsync_us", p.journal_sync_s / n * 1e6);
    l.insert("journal.bytes_per_decision", p.journal_bytes as f64 / (n * per_block));
    if p.trace_records > 0 {
        l.insert(
            "tracer.ns_per_record",
            spans.total("tracer.emit").0 / p.trace_records as f64 * 1e9,
        );
    }
    l.insert("snapshot.write_ms", spans.mean_us("snapshot.append_snapshot") / 1e3);
}
