//! In-process integration tests for the daemon: handshake, decision
//! round-trips against a reference engine, backpressure, event
//! recording vs. journal replay, and graceful-stop recovery.
//!
//! Tests share the process-global tracer, so every test takes `LOCK`
//! and trace-sensitive ones reset the tracer before use.

use fleetd::client::{Client, ClientError, SessionRecorder};
use fleetd::proto::Reply;
use fleetd::server::{serve, ServeOptions};
use fleetstate::{FleetConfig, FleetRunner};
use std::path::PathBuf;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

const LANES: usize = 12;
const STEPS: usize = 8;

fn config() -> FleetConfig {
    FleetConfig {
        lanes: LANES,
        break_even: 28.0,
        window: Some(16),
        min_history: 2,
        seed: 7,
        trace_stream_base: 0,
    }
}

/// A fresh scratch directory + unix socket path for one test.
fn scratch(name: &str) -> (PathBuf, PathBuf) {
    let root = std::env::temp_dir().join(format!("fleetd-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    (root.join("fleet"), root.join("fleetd.sock"))
}

/// Deterministic workload, time-major: `rows[t][lane]`, straddling the
/// 28 s break-even so decisions exercise multiple vertices.
fn rows(first_step: u64, steps: usize) -> Vec<Vec<f64>> {
    (0..steps)
        .map(|t| {
            (0..LANES)
                .map(|lane| {
                    let x = (first_step as usize + t) * 31 + lane * 17;
                    (x % 113) as f64
                })
                .collect()
        })
        .collect()
}

fn options(dir: &std::path::Path, emit_trace: bool) -> ServeOptions {
    ServeOptions {
        dir: dir.to_path_buf(),
        config: config(),
        threads: 2,
        snapshot_every: 0,
        queue_capacity: 8,
        emit_trace,
        engine_delay_ms: 0,
        recover: false,
        telemetry_addr: None,
    }
}

#[test]
fn handshake_submit_and_state_match_reference_engine() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, socket) = scratch("basic");
    let started = serve(&options(&dir, false), &socket, None).unwrap();

    let mut client = Client::connect_unix(&socket).unwrap();
    let (cfg, step, _id) = client.hello("it-basic").unwrap();
    assert_eq!(cfg, config());
    assert_eq!(step, 0);

    // Reference: the same engine, run locally without a daemon.
    let mut reference = FleetRunner::new(&config(), 2).unwrap();
    let block = rows(0, STEPS);
    let expected = reference.run_block_decided(&block, false).unwrap();

    let reply = client.submit(0, &block).unwrap();
    let Reply::Decisions { first_step, steps, lanes, thresholds, vertices } = reply else {
        panic!("wanted Decisions, got {reply:?}");
    };
    assert_eq!((first_step, steps as usize, lanes as usize), (0, STEPS, LANES));
    assert_eq!(thresholds, expected.thresholds());
    assert_eq!(vertices, expected.vertices());

    // The exported state is byte-identical to the reference engine's.
    let daemon_state = client.export_state().unwrap();
    let reference_state = fleetstate::encode_fleet_state(&reference.export_state());
    assert_eq!(daemon_state, reference_state);

    let info = client.stats().unwrap();
    assert_eq!(info.step, STEPS as u64);
    assert_eq!(info.blocks_ingested, 1);
    assert_eq!(info.lanes as usize, LANES);

    // Step continuity is enforced: resubmitting step 0 is an error.
    let err = client.submit(0, &rows(0, 1)).unwrap_err();
    assert!(err.to_string().contains("step mismatch"), "{err}");
    // ... but u64::MAX skips the check.
    assert!(matches!(client.submit(u64::MAX, &rows(8, 1)), Ok(Reply::Decisions { .. })));

    started.handle.stop();
}

#[test]
fn bad_stop_submit_is_an_error_and_the_next_submit_is_answered() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, socket) = scratch("bad-stop");
    let started = serve(&options(&dir, false), &socket, None).unwrap();
    let mut client = Client::connect_unix(&socket).unwrap();
    client.hello("it-bad-stop").unwrap();

    let mut reference = FleetRunner::new(&config(), 2).unwrap();
    let first = rows(0, 2);
    reference.run_block(&first, false).unwrap();
    client.submit(0, &first).unwrap();

    // A NaN anywhere in the block is answered with `Reply::Error`.
    let mut bad = rows(2, 2);
    bad[1][3] = f64::NAN;
    let err = client.submit(2, &bad).unwrap_err();
    assert!(matches!(err, ClientError::Daemon(_)), "{err}");

    // The daemon is still at step 2, still healthy, and answers the next
    // block at that step with the reference engine's decisions.
    let next = rows(2, 3);
    let expected = reference.run_block_decided(&next, false).unwrap();
    let Reply::Decisions { first_step, thresholds, vertices, .. } =
        client.submit(2, &next).unwrap()
    else {
        panic!("wanted Decisions");
    };
    assert_eq!(first_step, 2);
    assert_eq!(thresholds, expected.thresholds());
    assert_eq!(vertices, expected.vertices());
    let scrape = obsv::telemetry::parse(&client.telemetry().unwrap()).unwrap();
    assert_eq!(scrape.gauge("fleetd_journal_writable"), Some(1.0));
    assert_eq!(
        client.export_state().unwrap(),
        fleetstate::encode_fleet_state(&reference.export_state())
    );

    started.handle.stop();
}

/// A ragged block is refused by the client before it is sent: the frame
/// carries one width, so the daemon would otherwise decode and journal
/// a reshaped block the client never meant.
#[test]
fn ragged_submit_is_refused_and_nothing_is_journaled() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, socket) = scratch("ragged");
    let started = serve(&options(&dir, false), &socket, None).unwrap();
    let mut client = Client::connect_unix(&socket).unwrap();
    client.hello("it-ragged").unwrap();
    client.submit(0, &rows(0, 2)).unwrap();
    let journal = dir.join(fleetstate::JOURNAL_FILE);
    let before = std::fs::read(&journal).unwrap();

    // Widths LANES, LANES - 1, LANES + 1: 3 * LANES cells in all, which
    // a width-times-steps check alone would accept as a 3-step block.
    let mut ragged = rows(2, 3);
    let moved = ragged[1].pop().unwrap();
    ragged[2].push(moved);
    let err = client.submit(2, &ragged).unwrap_err();
    assert!(matches!(err, ClientError::RaggedRows { row: 1 }), "{err}");
    assert_eq!(client.stats().unwrap().step, 2);
    assert_eq!(std::fs::read(&journal).unwrap(), before);

    // The connection is still in step: the next block is answered.
    assert!(matches!(client.submit(2, &rows(2, 1)), Ok(Reply::Decisions { first_step: 2, .. })));
    started.handle.stop();
}

#[test]
fn full_queue_answers_busy_not_block() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, socket) = scratch("busy");
    let mut opts = options(&dir, false);
    opts.queue_capacity = 1;
    opts.engine_delay_ms = 120;
    let started = serve(&opts, &socket, None).unwrap();

    const CLIENTS: usize = 4;
    let outcomes: Vec<&'static str> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let socket = socket.clone();
                scope.spawn(move || {
                    let mut client = Client::connect_unix(&socket).unwrap();
                    match client.submit(u64::MAX, &rows(0, 2)).unwrap() {
                        Reply::Decisions { .. } => "decisions",
                        Reply::Busy { capacity, .. } => {
                            assert_eq!(capacity, 1);
                            "busy"
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let busy = outcomes.iter().filter(|o| **o == "busy").count();
    let served = outcomes.iter().filter(|o| **o == "decisions").count();
    assert_eq!(busy + served, CLIENTS);
    assert!(served >= 1, "someone must get through");
    assert!(busy >= 1, "a 1-deep queue under 4 concurrent submits must reject");

    let mut client = Client::connect_unix(&socket).unwrap();
    let info = client.stats().unwrap();
    assert_eq!(info.busy_rejections, busy as u64);
    assert_eq!(info.queue_capacity, 1);
    started.handle.stop();
}

#[test]
fn live_capture_union_replay_equals_offline_golden() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tracer = obsv::tracer::global();
    tracer.set_capacity(1 << 16);
    tracer.enable();
    tracer.clear();

    // Golden: the canonical lane-event history of this workload,
    // generated by a local engine before any daemon exists.
    let mut golden_engine = FleetRunner::new(&config(), 2).unwrap();
    let blocks: Vec<Vec<Vec<f64>>> = (0..3).map(|i| rows(i * STEPS as u64, STEPS)).collect();
    for block in &blocks {
        golden_engine.run_block(block, true).unwrap();
    }
    let meta = config().meta_stream();
    let golden: Vec<_> = tracer.drain_sorted().into_iter().filter(|r| r.stream < meta).collect();
    assert!(!golden.is_empty());

    let (dir, socket) = scratch("capture");
    let started = serve(&options(&dir, true), &socket, None).unwrap();

    // A tailing subscriber records batches as the daemon processes.
    let tail_socket = socket.clone();
    let tail = std::thread::spawn(move || {
        let tail_client = Client::connect_unix(&tail_socket).unwrap();
        let mut recorder = SessionRecorder::new();
        tail_client
            .subscribe(|batch| {
                recorder.absorb(batch);
                true // until the daemon closes the stream
            })
            .unwrap();
        recorder
    });

    let mut client = Client::connect_unix(&socket).unwrap();
    client.hello("it-capture").unwrap();
    // Wait for the tail's subscription to register, so the live capture
    // sees every batch (and stopping cannot reset a never-accepted
    // connection still sitting in the listen backlog).
    for _ in 0..400 {
        if client.stats().unwrap().subscribers >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(client.stats().unwrap().subscribers, 1, "tail never registered");
    for (i, block) in blocks.iter().enumerate() {
        let reply = client.submit(i as u64 * STEPS as u64, block).unwrap();
        assert!(matches!(reply, Reply::Decisions { .. }), "block {i}: {reply:?}");
    }

    // Full offline replay over the wire: every event since step 0.
    let replayed = client.replay_events().unwrap();
    let mut recorder = SessionRecorder::new();
    recorder.absorb(replayed);
    assert_eq!(recorder.records_below_stream(meta), golden, "replay ≠ golden");

    started.handle.stop();
    let live = tail.join().unwrap();

    // The live capture united with the replay is exactly the golden
    // history on lane streams — byte-identical once serialized.
    let mut union = SessionRecorder::new();
    union.absorb(live.records());
    union.absorb(recorder.records());
    assert_eq!(union.records_below_stream(meta), golden, "live ∪ replay ≠ golden");
    let golden_jsonl = obsv::event::to_jsonl(&golden);
    let union_lane_jsonl = obsv::event::to_jsonl(&union.records_below_stream(meta));
    assert_eq!(union_lane_jsonl, golden_jsonl);

    // Session chatter exists but lives above the meta stream.
    assert!(union.records().iter().any(|r| r.stream > meta));
    obsv::tracer::global().disable();
}

/// Minimal HTTP/1.0 GET against the daemon's telemetry listener:
/// `(status, body)`.
fn http_get(addr: std::net::SocketAddr, target: &str) -> std::io::Result<(u16, String)> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)?;
    write!(stream, "GET {target} HTTP/1.0\r\nHost: fleetd\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response.split_whitespace().nth(1).unwrap_or("0").parse().unwrap_or(0);
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

#[test]
fn telemetry_exposition_over_proto_and_http() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, socket) = scratch("telemetry");
    let mut opts = options(&dir, false);
    opts.telemetry_addr = Some("127.0.0.1:0".to_string());
    let started = serve(&opts, &socket, None).unwrap();
    let addr = started.telemetry_addr.expect("telemetry listener bound");

    let mut client = Client::connect_unix(&socket).unwrap();
    client.hello("it-telemetry").unwrap();
    client.submit(0, &rows(0, STEPS)).unwrap();

    // Over the protocol: a parseable exposition with live stage spans.
    let text = client.telemetry().unwrap();
    let scrape = obsv::telemetry::parse(&text).unwrap();
    for name in fleetd::STAGE_HISTOGRAMS {
        assert!(scrape.histograms.contains_key(*name), "missing stage series {name}");
    }
    assert!(scrape.histograms["fleetd_stage_queue_wait_seconds"].count >= 1.0);
    assert!(scrape.histograms["fleetd_stage_frame_decode_seconds"].count >= 1.0);
    assert!(scrape.histograms["fleetd_stage_engine_decide_seconds"].count >= 1.0);
    assert!(scrape.histograms["fleetd_stage_journal_append_seconds"].count >= 1.0);
    assert!(scrape.histograms["fleetd_stage_journal_fsync_seconds"].count >= 1.0);
    assert_eq!(scrape.gauge("fleetd_step"), Some(STEPS as f64));
    assert_eq!(scrape.gauge("fleetd_engine_alive"), Some(1.0));
    assert_eq!(scrape.gauge("fleetd_journal_writable"), Some(1.0));
    assert_eq!(scrape.counter("fleetd_blocks_ingested_total"), Some(1.0));
    assert!(scrape.gauge("fleetd_journal_bytes").unwrap() > 0.0);
    assert_eq!(scrape.gauge("fleetd_recovered"), Some(0.0));

    // Over HTTP: /metrics parses identically and counters are monotone
    // across scrapes; /healthz is ready; bad paths are typed.
    let (status, body) = http_get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let first = obsv::telemetry::parse(&body).unwrap();
    client.submit(STEPS as u64, &rows(STEPS as u64, STEPS)).unwrap();
    let (status, body) = http_get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let second = obsv::telemetry::parse(&body).unwrap();
    for (name, value) in &first.counters {
        assert!(second.counters[name] >= *value, "{name} went backwards");
    }
    assert_eq!(second.counter("fleetd_blocks_ingested_total"), Some(2.0));

    let (status, body) = http_get(addr, "/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, _) = http_get(addr, "/nope").unwrap();
    assert_eq!(status, 404);

    // Reply-write spans cover every request kind handled above.
    let text = client.telemetry().unwrap();
    let scrape = obsv::telemetry::parse(&text).unwrap();
    assert!(scrape.histograms["fleetd_stage_reply_write_seconds"].count >= 4.0);

    started.handle.stop();
    // After shutdown the listener is gone: readiness flips to a refused
    // connection (or an explicit 503 if a raced request slips through).
    match http_get(addr, "/healthz") {
        Err(_) => {}
        Ok((status, _)) => assert_eq!(status, 503),
    }
}

#[test]
fn recovered_daemon_resumes_bit_identically() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, socket) = scratch("recover");

    // Uninterrupted reference across both halves of the workload.
    let mut reference = FleetRunner::new(&config(), 2).unwrap();
    reference.run_block(&rows(0, STEPS), false).unwrap();
    reference.run_block(&rows(STEPS as u64, STEPS), false).unwrap();
    let want = fleetstate::encode_fleet_state(&reference.export_state());

    // First daemon: ingest half, stop (the journal survives).
    let started = serve(&options(&dir, false), &socket, None).unwrap();
    let mut client = Client::connect_unix(&socket).unwrap();
    client.submit(0, &rows(0, STEPS)).unwrap();
    let ack = client.shutdown().unwrap();
    assert!(ack.contains("stopping"), "{ack}");
    started.handle.wait();

    // A fresh start on the same directory must refuse.
    let Err(err) = serve(&options(&dir, false), &socket, None) else {
        panic!("fresh start on a journaled directory must refuse");
    };
    assert!(err.contains("already holds a journal"), "{err}");

    // Second daemon: recover, check the step, ingest the second half.
    let mut opts = options(&dir, false);
    opts.recover = true;
    let restarted = serve(&opts, &socket, None).unwrap();
    let outcome = restarted.recovery.expect("recovery outcome");
    assert_eq!(outcome.resumed_step, STEPS as u64);

    let mut client = Client::connect_unix(&socket).unwrap();
    let (_, step, _) = client.hello("it-recover").unwrap();
    assert_eq!(step, STEPS as u64);
    client.submit(STEPS as u64, &rows(STEPS as u64, STEPS)).unwrap();
    let got = client.export_state().unwrap();
    assert_eq!(got, want, "recovered + resumed state diverged from uninterrupted run");
    restarted.handle.stop();
}
