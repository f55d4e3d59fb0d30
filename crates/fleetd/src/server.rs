//! The daemon: listener threads, bounded ingest queue, and the single
//! engine thread that owns the journaled fleet.
//!
//! # Architecture
//!
//! ```text
//! clients ──► connection threads ──► bounded job queue ──► engine thread
//!                  │   ▲                 (try_send →            │
//!                  │   └─ replies ◄──────  Busy on full)        │
//!                  └─ Subscribe: event batches ◄── broadcast ◄──┘
//! ```
//!
//! * One **engine thread** owns the [`fleetstate::PersistentFleet`]:
//!   every block is journaled before it is processed (write-ahead), so a
//!   SIGKILL at any instant recovers `(μ̂_B⁻, q̂_B⁺)` bit-identically.
//!   Being the only thread that touches the engine, it needs no locks
//!   and keeps the canonical trace deterministic.
//! * **Connection threads** (one per client) decode request frames and
//!   either answer directly (stats snapshots of shared atomics) or hand
//!   an `EngineJob` to the queue. The queue is a
//!   `std::sync::mpsc::sync_channel` with fixed capacity: a full queue
//!   answers [`Reply::Busy`] immediately — explicit backpressure, the
//!   client decides whether to retry — rather than buffering without
//!   bound or stalling the socket.
//! * **Subscribers** register a bounded channel; after each block the
//!   engine drains the global tracer and broadcasts the batch. A
//!   subscriber that falls behind its channel capacity is dropped (a
//!   tail is a *view*; the journal, not the tail, is the record).
//! * **Telemetry** rides a daemon-owned [`crate::telemetry::Telemetry`]
//!   registry: each request stage (queue wait, frame decode, engine
//!   decide, journal append, fsync, reply write) records into a
//!   log-bucketed latency histogram, and health gauges track the queue,
//!   journal, subscribers, and recovery. Exposed two ways — the
//!   [`Request::Telemetry`] protocol message, and an optional plain-HTTP
//!   listener ([`ServeOptions::telemetry_addr`]) serving `GET /metrics`
//!   (Prometheus text exposition) and `GET /healthz`. Timing feeds
//!   histograms only; it never touches the canonical trace, so the
//!   byte-identity contract is unaffected.
//! * **Risk series** (`fleet_cr_*`) are read at scrape time from the
//!   fleet's own per-lane realized-CR sketches
//!   ([`fleetstate::FleetRunner::risk_sketches`]), shared with the
//!   engine thread that records them. Recovery restores them, so they
//!   count every decision this daemon's fleet made since step 0, and
//!   nothing else run in the same process.
//!
//! # Trace streams
//!
//! With tracing on, the daemon lays out streams as: `base + lane` for
//! per-lane decision records, `base + lanes` (the meta stream) for
//! checkpoint/recovery events, and `base + lanes + 1 + client_id` for
//! per-connection [`obsv::TraceEvent::Session`] events. Offline tooling
//! compares lane streams only, so session chatter never perturbs the
//! byte-identical replay contract.

use crate::proto::{self, Reply, Request, StatsInfo};
use crate::telemetry::Telemetry;
use fleetstate::{FleetConfig, PersistError, PersistentFleet, RecoveryOutcome, JOURNAL_FILE};
use obsv::{CrSketch, RiskReport, TraceEvent, TraceRecord};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Records per [`Reply::Events`] frame when chunking a replay answer.
const EVENTS_CHUNK: usize = 4096;

/// Bounded batches a subscriber may fall behind before it is dropped.
const SUBSCRIBER_QUEUE: usize = 64;

/// How often the accept loop polls the shutdown flag.
const ACCEPT_POLL: std::time::Duration = std::time::Duration::from_millis(25);

/// Everything configurable about a daemon instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Persistence directory (journal + snapshots).
    pub dir: PathBuf,
    /// The fleet configuration.
    pub config: FleetConfig,
    /// At most this many engine threads (must be positive). Blocks under
    /// [`skirental::parallel::DECISIONS_PER_WORKER`] decisions per
    /// thread run on fewer, down to the engine thread alone.
    pub threads: usize,
    /// Snapshot cadence in steps (`0` = only on explicit request).
    pub snapshot_every: u64,
    /// Ingest queue capacity, blocks (must be positive). A full queue
    /// answers [`Reply::Busy`].
    pub queue_capacity: usize,
    /// Emit canonical trace events through the global tracer (enables
    /// subscribe tails and `--record`; costs a per-stop record).
    pub emit_trace: bool,
    /// Debug throttle: sleep this long before each ingested block.
    /// Drills use it (with a tiny queue) to make backpressure
    /// deterministic; production leaves it 0.
    pub engine_delay_ms: u64,
    /// Recover from an existing journal instead of starting fresh.
    pub recover: bool,
    /// Bind a plain-HTTP telemetry listener on this address
    /// (`GET /metrics` = Prometheus exposition, `GET /healthz` =
    /// readiness). `None` = no listener; the [`Request::Telemetry`]
    /// protocol message works either way.
    pub telemetry_addr: Option<String>,
}

impl ServeOptions {
    /// Defaults for a fresh daemon: 2 engine threads, queue of 64
    /// blocks, snapshots every 4096 steps, tracing on.
    #[must_use]
    pub fn new(dir: &Path, config: FleetConfig) -> Self {
        Self {
            dir: dir.to_path_buf(),
            config,
            threads: 2,
            snapshot_every: 4096,
            queue_capacity: 64,
            emit_trace: true,
            engine_delay_ms: 0,
            recover: false,
            telemetry_addr: None,
        }
    }
}

/// A job handed to the engine thread. Replies travel back over the
/// per-request channel; a dropped receiver (client gone) is ignored.
enum EngineJob {
    Submit {
        client: u64,
        first_step: u64,
        rows: Vec<Vec<f64>>,
        reply: SyncSender<Reply>,
        /// When the connection thread queued the job; the engine records
        /// the queue-wait stage from it at dequeue.
        enqueued: Instant,
    },
    ExportState {
        reply: SyncSender<Reply>,
    },
    Snapshot {
        reply: SyncSender<Reply>,
    },
    Replay {
        reply: SyncSender<Reply>,
    },
    Shutdown {
        reply: SyncSender<Reply>,
    },
}

/// Counters shared between the engine, connections, and stats replies.
///
/// # Memory orderings
///
/// Every statistic here is an independent scalar: no reader derives an
/// invariant from *two* of them being mutually consistent (a `Stats`
/// reply is a racy point-in-time sample by design), so the counters use
/// `Relaxed` — each atomic is individually coherent, which is all a
/// monotone counter or last-write-wins sample needs. The exceptions are
/// documented on their fields.
struct Shared {
    /// Immutable after startup; connections read it lock-free.
    config: FleetConfig,
    step: AtomicU64,
    queue_depth: AtomicUsize,
    /// High-watermark of `queue_depth` (updated with `fetch_max` right
    /// after each enqueue).
    queue_depth_peak: AtomicUsize,
    connections: AtomicU32,
    subscribers: AtomicU32,
    busy_rejections: AtomicU64,
    blocks_ingested: AtomicU64,
    /// `Release` store / `Acquire` load: the flag is the *publication*
    /// that the engine finished mutating its state (or was asked to),
    /// so threads that observe it true must also observe everything the
    /// engine wrote before setting it.
    shutdown: AtomicBool,
    /// Cleared (`Release`) by the engine thread on exit; `/healthz`
    /// reads it (`Acquire`) as the liveness half of readiness.
    engine_alive: AtomicBool,
    /// Cleared when a block fails to persist ([`fleetstate::PersistError`]):
    /// the write-ahead guarantee is gone, so readiness drops. `Relaxed`
    /// — a lone health bit with no dependent data.
    journal_ok: AtomicBool,
    /// Bit totals of the fleet cost ledgers, updated after each block.
    online_bits: AtomicU64,
    offline_bits: AtomicU64,
    journal_frames: AtomicU64,
    /// The daemon's metrics plane (its own registry — the process-wide
    /// [`obsv::global`] registry stays untouched).
    telemetry: Telemetry,
    /// The fleet's per-lane realized-CR sketches, which the engine
    /// thread records into; scrapes read them.
    risk: Arc<[CrSketch]>,
}

impl Shared {
    fn new(config: FleetConfig, risk: Arc<[CrSketch]>) -> Self {
        Self {
            config,
            step: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            queue_depth_peak: AtomicUsize::new(0),
            connections: AtomicU32::new(0),
            subscribers: AtomicU32::new(0),
            busy_rejections: AtomicU64::new(0),
            blocks_ingested: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            engine_alive: AtomicBool::new(true),
            journal_ok: AtomicBool::new(true),
            online_bits: AtomicU64::new(0),
            offline_bits: AtomicU64::new(0),
            journal_frames: AtomicU64::new(0),
            telemetry: Telemetry::new(),
            risk,
        }
    }

    /// Readiness for `/healthz`: the engine thread is alive, the journal
    /// still accepts appends, and nobody asked us to stop.
    fn ready(&self) -> bool {
        self.engine_alive.load(Ordering::Acquire)
            && self.journal_ok.load(Ordering::Relaxed)
            && !self.shutdown.load(Ordering::Acquire)
    }
}

/// One registered event tail.
struct Subscriber {
    client: u64,
    tx: SyncSender<Arc<Vec<TraceRecord>>>,
    /// Batches handed to `tx` but not yet written to the client socket —
    /// the tail's *lag*, surfaced as a telemetry gauge.
    in_flight: Arc<AtomicU64>,
}

type Subscribers = Arc<Mutex<Vec<Subscriber>>>;

/// A running daemon: join it, or stop it programmatically.
pub struct ServerHandle {
    engine: Option<JoinHandle<()>>,
    accept: Vec<JoinHandle<()>>,
    jobs: SyncSender<EngineJob>,
    shared: Arc<Shared>,
    /// The unix socket path (removed on graceful stop).
    socket_path: Option<PathBuf>,
}

impl ServerHandle {
    /// Signals shutdown and waits for the engine and accept loops to
    /// finish. Detached connection threads exit when their clients
    /// disconnect.
    pub fn stop(mut self) {
        let (tx, _rx) = std::sync::mpsc::sync_channel(1);
        let _ = self.jobs.send(EngineJob::Shutdown { reply: tx });
        self.join_inner();
    }

    /// Waits for the daemon to stop (e.g. a client sent `Shutdown`).
    pub fn wait(mut self) {
        self.join_inner();
    }

    /// Whether the daemon has been told to shut down.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    fn join_inner(&mut self) {
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
        for h in self.accept.drain(..) {
            let _ = h.join();
        }
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// What [`serve`] reports about daemon startup.
pub struct Started {
    /// The running daemon.
    pub handle: ServerHandle,
    /// The recovery outcome when `recover` was set.
    pub recovery: Option<RecoveryOutcome>,
    /// The bound telemetry listener address, when
    /// [`ServeOptions::telemetry_addr`] was set (resolves an `:0` port
    /// request to the actual port).
    pub telemetry_addr: Option<std::net::SocketAddr>,
}

/// Why [`serve`] did not start a daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A [`ServeOptions`] field is out of range. Nothing was touched.
    BadOption {
        /// The offending field and its constraint.
        what: &'static str,
    },
    /// The persistence directory could not be opened or recovered, or a
    /// listener could not be bound. A tracer `serve` switched on has
    /// been switched back off.
    Start(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadOption { what } => write!(f, "bad option: {what}"),
            Self::Start(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ServeError> for String {
    fn from(e: ServeError) -> Self {
        e.to_string()
    }
}

/// Starts the daemon: opens (or recovers) the persistent fleet in
/// `options.dir`, binds `socket_path` (an existing socket file is
/// replaced — the expected leftover of a SIGKILL), optionally binds a
/// TCP listener, and spawns the engine + accept threads.
///
/// The options are checked before anything process-wide changes, and a
/// start that fails later leaves the global tracer as it found it. The
/// only process-wide state `serve` touches is that tracer, and only with
/// [`ServeOptions::emit_trace`].
///
/// # Errors
///
/// [`ServeError::BadOption`] on `threads == 0` or `queue_capacity == 0`;
/// [`ServeError::Start`] on a fresh start in a journaled directory,
/// persistence failure ([`fleetstate::PersistError`] text) or bind
/// failure (`std::io::Error` text).
pub fn serve(
    options: &ServeOptions,
    socket_path: &Path,
    tcp_addr: Option<&str>,
) -> Result<Started, ServeError> {
    if options.threads == 0 {
        return Err(ServeError::BadOption { what: "threads (must be positive)" });
    }
    if options.queue_capacity == 0 {
        return Err(ServeError::BadOption { what: "queue_capacity (must be positive)" });
    }
    if !options.recover && options.dir.join(JOURNAL_FILE).exists() {
        return Err(ServeError::Start(format!(
            "{} already holds a journal; pass recover to resume it (or point the daemon at a fresh directory)",
            options.dir.display()
        )));
    }
    let tracer_was_on = obsv::tracer::active();
    start(options, socket_path, tcp_addr).map_err(|why| {
        if !tracer_was_on {
            obsv::tracer::global().disable();
        }
        ServeError::Start(why)
    })
}

/// [`serve`] past its option checks: with `emit_trace` switches the
/// global tracer on, then opens the fleet and starts the threads.
fn start(
    options: &ServeOptions,
    socket_path: &Path,
    tcp_addr: Option<&str>,
) -> Result<Started, String> {
    if options.emit_trace {
        let tracer = obsv::tracer::global();
        // Capacity covers the largest block between drains; the engine
        // drains after every block. On before the fleet opens, so a
        // recovery's event reaches the meta stream.
        tracer.set_capacity((options.config.lanes * 8).max(1 << 16));
        tracer.enable();
    }
    let (dir, config) = (&options.dir, &options.config);
    let opened = if options.recover {
        PersistentFleet::recover(dir, config, options.threads, options.snapshot_every)
            .map(|(fleet, outcome)| (fleet, Some(outcome)))
            .map_err(|e| format!("recover {}: {e}", dir.display()))
    } else {
        PersistentFleet::create(dir, config, options.threads, options.snapshot_every)
            .map(|fleet| (fleet, None))
            .map_err(|e| format!("create {}: {e}", dir.display()))
    };
    let (fleet, recovery) = opened?;

    let shared = Arc::new(Shared::new(options.config, Arc::clone(fleet.runner().risk_sketches())));
    shared.step.store(fleet.runner().step(), Ordering::Relaxed);
    shared.journal_frames.store(fleet.journal().frames_written(), Ordering::Relaxed);
    let totals = fleet.runner().totals();
    shared.online_bits.store(totals.0.to_bits(), Ordering::Relaxed);
    shared.offline_bits.store(totals.1.to_bits(), Ordering::Relaxed);
    publish_journal_gauges(&shared.telemetry, &fleet);
    shared.telemetry.set_gauge("fleetd_recovered", f64::from(u8::from(recovery.is_some())));
    if let Some(outcome) = &recovery {
        let t = &shared.telemetry;
        t.set_gauge("fleetd_recovery_resumed_step", outcome.resumed_step as f64);
        t.set_gauge("fleetd_recovery_snapshot_step", outcome.snapshot_step as f64);
        t.set_gauge("fleetd_recovery_frames_replayed", outcome.frames_replayed as f64);
        t.set_gauge("fleetd_recovery_snapshots_rejected", outcome.snapshots_rejected as f64);
        t.set_gauge("fleetd_recovery_duplicates_skipped", outcome.duplicates_skipped as f64);
        t.set_gauge(
            "fleetd_recovery_torn_tail_dropped",
            f64::from(u8::from(outcome.torn_tail_dropped)),
        );
        t.set_gauge("fleetd_recovery_journal_bytes_read", outcome.journal_bytes_read as f64);
    }

    // Every listener binds before any thread starts, so a failed bind
    // leaves nothing running.
    if socket_path.exists() {
        std::fs::remove_file(socket_path)
            .map_err(|e| format!("remove stale socket {}: {e}", socket_path.display()))?;
    }
    let listener = UnixListener::bind(socket_path)
        .map_err(|e| format!("bind {}: {e}", socket_path.display()))?;
    listener.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
    let tcp = tcp_addr.map(bind_tcp).transpose()?;
    let http = options.telemetry_addr.as_deref().map(bind_tcp).transpose()?;
    let telemetry_addr = http.as_ref().and_then(|http| http.local_addr().ok());

    let subscribers: Subscribers = Arc::new(Mutex::new(Vec::new()));
    let (jobs_tx, jobs_rx) = std::sync::mpsc::sync_channel(options.queue_capacity);

    let engine = {
        let shared = Arc::clone(&shared);
        let subscribers = Arc::clone(&subscribers);
        let options = options.clone();
        std::thread::Builder::new()
            .name("fleetd-engine".to_string())
            .spawn(move || engine_loop(fleet, &jobs_rx, &shared, &subscribers, &options))
            .map_err(|e| format!("spawn engine thread: {e}"))?
    };

    let mut accept = Vec::new();
    let unix = move || listener.accept().map(|(s, _)| Conn::Unix(s));
    let capacity = options.queue_capacity;
    accept.push(spawn_accept_loop("unix", unix, &shared, &subscribers, &jobs_tx, capacity)?);
    if let Some(tcp) = tcp {
        let tcp = move || tcp.accept().map(|(s, _)| Conn::Tcp(s));
        accept.push(spawn_accept_loop("tcp", tcp, &shared, &subscribers, &jobs_tx, capacity)?);
    }
    if let Some(http) = http {
        let shared = Arc::clone(&shared);
        let subscribers = Arc::clone(&subscribers);
        let capacity = options.queue_capacity;
        accept.push(
            std::thread::Builder::new()
                .name("fleetd-telemetry".to_string())
                .spawn(move || http_loop(&http, &shared, &subscribers, capacity))
                .map_err(|e| format!("spawn telemetry thread: {e}"))?,
        );
    }

    Ok(Started {
        handle: ServerHandle {
            engine: Some(engine),
            accept,
            jobs: jobs_tx,
            shared,
            socket_path: Some(socket_path.to_path_buf()),
        },
        recovery,
        telemetry_addr,
    })
}

/// A non-blocking TCP listener on `addr`.
fn bind_tcp(addr: &str) -> Result<std::net::TcpListener, String> {
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    listener.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
    Ok(listener)
}

/// Either transport, unified for the connection handler.
enum Conn {
    Unix(UnixStream),
    Tcp(std::net::TcpStream),
}

impl Conn {
    fn set_blocking(&self) -> std::io::Result<()> {
        match self {
            Self::Unix(s) => s.set_nonblocking(false),
            Self::Tcp(s) => s.set_nonblocking(false),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Self::Unix(s) => s.read(buf),
            Self::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Self::Unix(s) => s.write(buf),
            Self::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Self::Unix(s) => s.flush(),
            Self::Tcp(s) => s.flush(),
        }
    }
}

/// Spawns the `fleetd-accept-{transport}` thread: it hands each
/// connection `accept` yields to a connection thread of its own until
/// shutdown.
fn spawn_accept_loop<F>(
    transport: &str,
    mut accept: F,
    shared: &Arc<Shared>,
    subscribers: &Subscribers,
    jobs: &SyncSender<EngineJob>,
    queue_capacity: usize,
) -> Result<JoinHandle<()>, String>
where
    F: FnMut() -> std::io::Result<Conn> + Send + 'static,
{
    let (shared, subscribers, jobs) = (Arc::clone(shared), Arc::clone(subscribers), jobs.clone());
    std::thread::Builder::new()
        .name(format!("fleetd-accept-{transport}"))
        .spawn(move || accept_loop(&mut accept, &shared, &subscribers, &jobs, queue_capacity))
        .map_err(|e| format!("spawn accept thread: {e}"))
}

fn accept_loop(
    accept: &mut dyn FnMut() -> std::io::Result<Conn>,
    shared: &Arc<Shared>,
    subscribers: &Subscribers,
    jobs: &SyncSender<EngineJob>,
    queue_capacity: usize,
) {
    // Acquire pairs with the engine's Release store: once the loop sees
    // shutdown it also sees the engine's final state.
    while !shared.shutdown.load(Ordering::Acquire) {
        match accept() {
            Ok(conn) => {
                // Relaxed: the id only needs to be unique, which a
                // single atomic guarantees at any ordering.
                let client_id = u64::from(shared.connections.fetch_add(1, Ordering::Relaxed));
                let shared = Arc::clone(shared);
                let subscribers = Arc::clone(subscribers);
                let jobs = jobs.clone();
                // Connection threads are detached: they end when their
                // client disconnects (or the process exits).
                let _ = std::thread::Builder::new().name(format!("fleetd-conn-{client_id}")).spawn(
                    move || {
                        handle_conn(conn, client_id, &shared, &subscribers, &jobs, queue_capacity);
                    },
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
}

/// Emits a session trace event on the connection's own stream
/// (`meta + 1 + client_id`), so concurrent connections never collide on
/// `(stream, stop, seq)` keys.
fn session_event(shared: &Shared, client: u64, what: &'static str, detail: String) {
    if !obsv::tracer::observing() {
        return;
    }
    // Relaxed: the step only decorates the event; session streams are
    // keyed by client id, so a stale read cannot collide records.
    let step = shared.step.load(Ordering::Relaxed);
    obsv::tracer::set_stream(shared.config.meta_stream() + 1 + client);
    obsv::tracer::begin_stop(step);
    obsv::tracer::emit(TraceEvent::Session { what: what.into(), client, step, detail });
}

#[allow(clippy::too_many_lines)]
fn handle_conn(
    mut conn: Conn,
    client_id: u64,
    shared: &Arc<Shared>,
    subscribers: &Subscribers,
    jobs: &SyncSender<EngineJob>,
    queue_capacity: usize,
) {
    if conn.set_blocking().is_err() {
        return;
    }
    let mut client_name = String::new();
    while let Ok(Some(frame)) = proto::read_frame(&mut conn) {
        let decode_span = shared.telemetry.frame_decode.start();
        let decoded = proto::decode_request(&frame);
        decode_span.finish();
        let request = match decoded {
            Ok(r) => r,
            Err(e) => {
                // A typed decode error is an answer, not a disconnect:
                // the framing is intact (CRC verified), only the payload
                // or kind was wrong.
                let reply = Reply::Error { message: e.to_string() };
                if proto::write_frame(&mut conn, &proto::encode_reply(&reply)).is_err() {
                    break;
                }
                continue;
            }
        };
        let reply = match request {
            Request::Hello { name } => {
                client_name = name;
                session_event(shared, client_id, "hello", client_name.clone());
                Reply::HelloAck {
                    config: shared.config,
                    step: shared.step.load(Ordering::Relaxed),
                    client_id,
                }
            }
            Request::Submit { first_step, rows } => {
                let (tx, rx) = std::sync::mpsc::sync_channel(1);
                let depth = shared.queue_depth.load(Ordering::Relaxed);
                let job = EngineJob::Submit {
                    client: client_id,
                    first_step,
                    rows,
                    reply: tx,
                    enqueued: Instant::now(),
                };
                // Counted in before the send: the engine thread may take
                // the job and decrement before `try_send` even returns.
                // Relaxed: depth is advisory (Stats + Busy echo); the
                // queue itself is the synchronizing structure.
                let queued = shared.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
                match jobs.try_send(job) {
                    Ok(()) => {
                        shared.queue_depth_peak.fetch_max(queued, Ordering::Relaxed);
                        rx.recv().unwrap_or(Reply::Error { message: "daemon stopped".into() })
                    }
                    Err(TrySendError::Full(_)) => {
                        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                        session_event(
                            shared,
                            client_id,
                            "busy_rejected",
                            format!("queue {depth}/{queue_capacity}"),
                        );
                        Reply::Busy { queued: depth as u32, capacity: queue_capacity as u32 }
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        Reply::Error { message: "daemon stopped".into() }
                    }
                }
            }
            // Relaxed throughout: a stats reply is a racy point-in-time
            // sample; no pair of fields carries a joint invariant.
            Request::Stats => Reply::Stats(StatsInfo {
                step: shared.step.load(Ordering::Relaxed),
                lanes: shared.config.lanes as u32,
                queue_depth: shared.queue_depth.load(Ordering::Relaxed) as u32,
                queue_capacity: queue_capacity as u32,
                connections: shared.connections.load(Ordering::Relaxed),
                subscribers: shared.subscribers.load(Ordering::Relaxed),
                busy_rejections: shared.busy_rejections.load(Ordering::Relaxed),
                blocks_ingested: shared.blocks_ingested.load(Ordering::Relaxed),
                journal_frames: shared.journal_frames.load(Ordering::Relaxed),
                online_total: f64::from_bits(shared.online_bits.load(Ordering::Relaxed)),
                offline_total: f64::from_bits(shared.offline_bits.load(Ordering::Relaxed)),
            }),
            Request::Telemetry => {
                Reply::Telemetry { text: render_metrics(shared, subscribers, queue_capacity) }
            }
            Request::ExportState => send_job(jobs, |tx| EngineJob::ExportState { reply: tx }),
            Request::Snapshot => send_job(jobs, |tx| EngineJob::Snapshot { reply: tx }),
            Request::ReplayEvents => {
                session_event(shared, client_id, "replay", client_name.clone());
                // Replay streams multiple Events frames; forward them
                // all, then continue serving this connection.
                let (tx, rx) = std::sync::mpsc::sync_channel(4);
                if jobs.send(EngineJob::Replay { reply: tx }).is_err() {
                    Reply::Error { message: "daemon stopped".into() }
                } else {
                    let mut failed = false;
                    for reply in rx {
                        let done = !matches!(reply, Reply::Events { last: false, .. });
                        if proto::write_frame(&mut conn, &proto::encode_reply(&reply)).is_err() {
                            failed = true;
                            break;
                        }
                        if done {
                            break;
                        }
                    }
                    if failed {
                        break;
                    }
                    continue;
                }
            }
            Request::Subscribe => {
                session_event(shared, client_id, "subscribe", client_name.clone());
                let (tx, rx) = std::sync::mpsc::sync_channel(SUBSCRIBER_QUEUE);
                let in_flight = Arc::new(AtomicU64::new(0));
                subscribers.lock().unwrap_or_else(PoisonError::into_inner).push(Subscriber {
                    client: client_id,
                    tx,
                    in_flight: Arc::clone(&in_flight),
                });
                shared.subscribers.fetch_add(1, Ordering::Relaxed);
                run_subscriber(&mut conn, &rx, &in_flight);
                shared.subscribers.fetch_sub(1, Ordering::Relaxed);
                subscribers
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .retain(|s| s.client != client_id);
                break;
            }
            Request::Shutdown => {
                session_event(shared, client_id, "shutdown", client_name.clone());
                send_job(jobs, |tx| EngineJob::Shutdown { reply: tx })
            }
        };
        let frame = proto::encode_reply(&reply);
        let write_span = shared.telemetry.reply_write.start();
        let wrote = proto::write_frame(&mut conn, &frame);
        write_span.finish();
        if wrote.is_err() {
            break;
        }
    }
    session_event(shared, client_id, "disconnected", client_name);
}

/// Sends a single-reply job to the engine, waiting for its answer.
fn send_job<F>(jobs: &SyncSender<EngineJob>, make: F) -> Reply
where
    F: FnOnce(SyncSender<Reply>) -> EngineJob,
{
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    if jobs.send(make(tx)).is_err() {
        return Reply::Error { message: "daemon stopped".into() };
    }
    rx.recv().unwrap_or(Reply::Error { message: "daemon stopped".into() })
}

/// Forwards event batches to a subscribed connection until the client
/// disconnects or the daemon stops. `in_flight` mirrors the channel's
/// backlog for the lag gauge: broadcast increments on enqueue, this
/// decrements once the batch reaches the socket.
fn run_subscriber(conn: &mut Conn, rx: &Receiver<Arc<Vec<TraceRecord>>>, in_flight: &AtomicU64) {
    for batch in rx {
        let jsonl = obsv::event::to_jsonl(&batch);
        let reply = Reply::Events { last: false, jsonl };
        let sent = proto::write_frame(conn, &proto::encode_reply(&reply));
        in_flight.fetch_sub(1, Ordering::Relaxed);
        if sent.is_err() {
            return;
        }
    }
}

fn engine_loop(
    mut fleet: PersistentFleet,
    jobs: &Receiver<EngineJob>,
    shared: &Arc<Shared>,
    subscribers: &Subscribers,
    options: &ServeOptions,
) {
    let emit = options.emit_trace;
    while let Ok(job) = jobs.recv() {
        match job {
            EngineJob::Submit { client, first_step, rows, reply, enqueued } => {
                // Queue wait ends at dequeue, before any debug throttle.
                shared.telemetry.queue_wait.record_duration(enqueued.elapsed());
                if options.engine_delay_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(options.engine_delay_ms));
                }
                let step = fleet.runner().step();
                let answer = if first_step != u64::MAX && first_step != step {
                    Reply::Error {
                        message: format!(
                            "step mismatch: daemon is at step {step}, block starts at {first_step}"
                        ),
                    }
                } else {
                    match fleet.run_block_decided_timed(&rows, emit) {
                        Ok((decisions, timing)) => {
                            let t = &shared.telemetry;
                            t.journal_append.record_seconds(timing.journal_write_s);
                            t.journal_fsync.record_seconds(timing.journal_sync_s);
                            t.engine_decide.record_seconds(timing.decide_s);
                            if timing.workers > 1 {
                                t.fanout_blocks.inc();
                            }
                            if timing.snapshot_error.is_some() {
                                t.snapshot_failures.inc();
                            }
                            publish_journal_gauges(t, &fleet);
                            shared.blocks_ingested.fetch_add(1, Ordering::Relaxed);
                            shared.step.store(fleet.runner().step(), Ordering::Relaxed);
                            shared
                                .journal_frames
                                .store(fleet.journal().frames_written(), Ordering::Relaxed);
                            let totals = fleet.runner().totals();
                            shared.online_bits.store(totals.0.to_bits(), Ordering::Relaxed);
                            shared.offline_bits.store(totals.1.to_bits(), Ordering::Relaxed);
                            Reply::Decisions {
                                first_step: step,
                                steps: decisions.steps() as u32,
                                lanes: decisions.lanes() as u32,
                                thresholds: decisions.thresholds().to_vec(),
                                vertices: decisions.vertices().to_vec(),
                            }
                        }
                        Err(e) => {
                            // A rejected block (bad width or stop) wrote
                            // nothing. Any other failure voids the
                            // write-ahead guarantee: flag the journal
                            // unhealthy so /healthz flips to unready.
                            let rejected = matches!(
                                e,
                                PersistError::BadPayload { .. } | PersistError::Engine(_)
                            );
                            if !rejected {
                                shared.journal_ok.store(false, Ordering::Relaxed);
                            }
                            Reply::Error { message: format!("client {client}: {e}") }
                        }
                    }
                };
                shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                let _ = reply.send(answer);
                broadcast(subscribers, shared);
            }
            EngineJob::ExportState { reply } => {
                let bytes = fleetstate::encode_fleet_state(&fleet.runner().export_state());
                let _ = reply.send(Reply::State(bytes));
            }
            EngineJob::Snapshot { reply } => {
                let answer = match fleet.snapshot() {
                    Ok(()) => {
                        Reply::Ack { info: format!("snapshot at step {}", fleet.runner().step()) }
                    }
                    Err(e) => {
                        shared.telemetry.snapshot_failures.inc();
                        Reply::Error { message: e.to_string() }
                    }
                };
                let _ = reply.send(answer);
                broadcast(subscribers, shared);
            }
            EngineJob::Replay { reply } => {
                run_replay(options, &reply);
                broadcast(subscribers, shared);
            }
            EngineJob::Shutdown { reply } => {
                // Release: publishes every engine write above to threads
                // that Acquire-load the flag (accept loops, /healthz).
                shared.shutdown.store(true, Ordering::Release);
                let _ = reply.send(Reply::Ack {
                    info: format!("stopping at step {}", fleet.runner().step()),
                });
                break;
            }
        }
    }
    shared.shutdown.store(true, Ordering::Release);
    shared.engine_alive.store(false, Ordering::Release);
    // Dropping the subscriber senders ends each tail's receive loop, so
    // subscribed connections observe EOF instead of hanging.
    subscribers.lock().unwrap_or_else(PoisonError::into_inner).clear();
}

/// Replays the complete journal through a fresh engine (the journal
/// holds every step since creation — snapshots never truncate it) and
/// streams the regenerated canonical events back in chunks. The fresh
/// engine records into risk sketches of its own, dropped with it, so the
/// live fleet's sketches are untouched.
fn run_replay(options: &ServeOptions, reply: &SyncSender<Reply>) {
    // The replay emits through the global tracer; the engine drains it
    // after every block, so whatever is pending now belongs to earlier
    // work — flush it to subscribers is already done, and the tracer is
    // empty here. Run, then drain everything the replay produced.
    if !options.emit_trace {
        let _ = reply.send(Reply::Error {
            message: "daemon runs with tracing disabled; no events to replay".into(),
        });
        return;
    }
    let journal_path = options.dir.join(JOURNAL_FILE);
    match fleetstate::replay_session(&journal_path, &options.config, options.threads) {
        Ok(_runner) => {
            let records = obsv::tracer::global().drain_sorted();
            if records.is_empty() {
                let _ = reply.send(Reply::Events { last: true, jsonl: String::new() });
                return;
            }
            let chunks: Vec<&[TraceRecord]> = records.chunks(EVENTS_CHUNK).collect();
            let n = chunks.len();
            for (i, chunk) in chunks.into_iter().enumerate() {
                let msg = Reply::Events { last: i + 1 == n, jsonl: obsv::event::to_jsonl(chunk) };
                if reply.send(msg).is_err() {
                    return;
                }
            }
        }
        Err(e) => {
            let _ = reply.send(Reply::Error { message: format!("replay: {e}") });
        }
    }
}

/// Drains the global tracer and fans the batch out to subscribers; a
/// subscriber whose queue is full (or gone) is dropped.
fn broadcast(subscribers: &Subscribers, shared: &Arc<Shared>) {
    if !obsv::tracer::active() {
        return;
    }
    let records = obsv::tracer::global().drain_sorted();
    if records.is_empty() {
        return;
    }
    let batch = Arc::new(records);
    let mut subs = subscribers.lock().unwrap_or_else(PoisonError::into_inner);
    let before = subs.len();
    subs.retain(|s| {
        let kept = s.tx.try_send(Arc::clone(&batch)).is_ok();
        if kept {
            s.in_flight.fetch_add(1, Ordering::Relaxed);
        }
        kept
    });
    let dropped = before - subs.len();
    if dropped > 0 {
        shared.subscribers.fetch_sub(dropped as u32, Ordering::Relaxed);
        shared.telemetry.subscriber_drops.add(dropped as u64);
    }
}

/// Publishes the engine-owned journal health gauges (journal length,
/// write-ahead backlog, snapshot age). Called from the engine thread
/// after each block and once at startup.
fn publish_journal_gauges(telemetry: &Telemetry, fleet: &PersistentFleet) {
    telemetry.journal_bytes.set(fleet.journal().bytes_written() as f64);
    telemetry.frames_since_snapshot.set(fleet.frames_since_snapshot() as f64);
    telemetry.snapshot_age_steps.set(fleet.snapshot_age_steps() as f64);
}

/// Refreshes the scrape-time series from the shared atomics and renders
/// the full Prometheus exposition page. Stage histograms and the
/// engine's journal gauges are already live in the registry; this adds
/// the point-in-time service gauges and syncs the mirrored counters.
fn render_metrics(shared: &Shared, subscribers: &Subscribers, queue_capacity: usize) -> String {
    let t = &shared.telemetry;
    t.sync_counter(
        "fleetd_connections_total",
        u64::from(shared.connections.load(Ordering::Relaxed)),
    );
    t.sync_counter("fleetd_busy_rejections_total", shared.busy_rejections.load(Ordering::Relaxed));
    t.sync_counter("fleetd_blocks_ingested_total", shared.blocks_ingested.load(Ordering::Relaxed));
    t.sync_counter("fleetd_journal_frames_total", shared.journal_frames.load(Ordering::Relaxed));
    t.set_gauge("fleetd_step", shared.step.load(Ordering::Relaxed) as f64);
    t.set_gauge("fleetd_queue_depth", shared.queue_depth.load(Ordering::Relaxed) as f64);
    t.set_gauge("fleetd_queue_depth_peak", shared.queue_depth_peak.load(Ordering::Relaxed) as f64);
    t.set_gauge("fleetd_queue_capacity", queue_capacity as f64);
    t.set_gauge("fleetd_subscribers", f64::from(shared.subscribers.load(Ordering::Relaxed)));
    let lag = subscribers
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|s| s.in_flight.load(Ordering::Relaxed))
        .max()
        .unwrap_or(0);
    t.set_gauge("fleetd_subscriber_lag", lag as f64);
    t.set_gauge(
        "fleetd_engine_alive",
        f64::from(u8::from(shared.engine_alive.load(Ordering::Acquire))),
    );
    t.set_gauge(
        "fleetd_journal_writable",
        f64::from(u8::from(shared.journal_ok.load(Ordering::Relaxed))),
    );
    t.set_gauge(
        "fleetd_online_cost_total",
        f64::from_bits(shared.online_bits.load(Ordering::Relaxed)),
    );
    t.set_gauge(
        "fleetd_offline_cost_total",
        f64::from_bits(shared.offline_bits.load(Ordering::Relaxed)),
    );
    publish_risk_series(t, &shared.risk);
    t.render_text()
}

/// Cardinality of the `fleet_cr_top_*` rank gauges: the k riskiest
/// vehicles exported per scrape.
const TOP_RISK_K: usize = 3;

/// Publishes the fleet tail-risk series from the fleet's lane sketches:
/// fleet CVaR/quantile gauges, per-ladder-rung exceedance counters, and
/// fixed-cardinality top-k riskiest-vehicle rank gauges. Label values
/// are the default `{}` float rendering — the exact strings `fleetctl
/// risk` looks up.
fn publish_risk_series(t: &Telemetry, sketches: &[CrSketch]) {
    let report = RiskReport::from_sketches(
        sketches.iter().enumerate().map(|(lane, sketch)| (lane as u64, sketch)),
    );
    let fleet = &report.fleet;
    t.sync_counter("fleet_cr_samples_total", fleet.count);
    for tau in obsv::risk::TAU_LADDER {
        t.sync_counter(&format!("fleet_cr_exceed_total{{tau=\"{tau}\"}}"), fleet.exceed_count(tau));
    }
    for alpha in [0.95, 0.99] {
        if let Some(v) = fleet.cvar(alpha) {
            t.set_gauge(&format!("fleet_cr_cvar{{alpha=\"{alpha}\"}}"), v);
        }
    }
    for q in [0.5, 0.9, 0.99] {
        if let Some(v) = fleet.quantile(q) {
            t.set_gauge(&format!("fleet_cr_quantile{{q=\"{q}\"}}"), v);
        }
    }
    // Top-k by per-vehicle CVaR95; ties break toward the lower lane so
    // the ranking (and the rendered page) is deterministic.
    let mut ranked: Vec<(u64, f64)> = report
        .vehicles
        .iter()
        .filter_map(|(&lane, digest)| digest.cvar(0.95).map(|v| (lane, v)))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for (i, (lane, cvar)) in ranked.into_iter().take(TOP_RISK_K).enumerate() {
        let rank = i + 1;
        t.set_gauge(&format!("fleet_cr_top_lane{{rank=\"{rank}\"}}"), lane as f64);
        t.set_gauge(&format!("fleet_cr_top_cvar{{rank=\"{rank}\"}}"), cvar);
    }
}

/// Cap on an HTTP request head (request line + headers) the telemetry
/// responder will buffer.
const HTTP_HEAD_MAX: usize = 8 * 1024;

/// Accept loop for the `--telemetry-addr` listener: answers
/// `GET /metrics` and `GET /healthz` over HTTP/1.0, one short-lived
/// thread per connection.
fn http_loop(
    listener: &std::net::TcpListener,
    shared: &Arc<Shared>,
    subscribers: &Subscribers,
    queue_capacity: usize,
) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                let subscribers = Arc::clone(subscribers);
                let _ =
                    std::thread::Builder::new().name("fleetd-http".to_string()).spawn(move || {
                        let _ = serve_http(stream, &shared, &subscribers, queue_capacity);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
}

/// Answers one HTTP request and closes the connection (HTTP/1.0
/// semantics: no keep-alive, `Content-Length` always set).
fn serve_http(
    mut stream: std::net::TcpStream,
    shared: &Shared,
    subscribers: &Subscribers,
    queue_capacity: usize,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(2)))?;
    let head = read_http_head(&mut stream)?;
    let line = head.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain; charset=utf-8", "method not allowed\n".to_string())
    } else {
        match target {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render_metrics(shared, subscribers, queue_capacity),
            ),
            "/healthz" => {
                if shared.ready() {
                    ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string())
                } else {
                    (
                        "503 Service Unavailable",
                        "text/plain; charset=utf-8",
                        "unready\n".to_string(),
                    )
                }
            }
            _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
        }
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Reads until the blank line ending the request head (or the size cap).
fn read_http_head(stream: &mut std::net::TcpStream) -> std::io::Result<String> {
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= HTTP_HEAD_MAX {
            break;
        }
    }
    Ok(String::from_utf8_lossy(&head).into_owned())
}
