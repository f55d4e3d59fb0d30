//! A Submit frame sizes its decode from its own `steps × lanes` header,
//! so a header that declares rows without lanes must be refused before
//! anything is allocated: `steps · 0 · 8` matches an empty payload at
//! any step count. The daemon answers such a frame with an error and
//! keeps serving.

use automotive_idling::fleetstate::format::WIRE;
use automotive_idling::fleetstate::FleetConfig;
use fleetd::client::Client;
use fleetd::proto::{decode_request, encode_request, Reply, Request, WireError};
use fleetd::server::{serve, ServeOptions};
use std::os::unix::net::UnixStream;

/// A CRC-valid Submit frame whose payload is only the block header.
fn zero_width_submit(steps: u32) -> Vec<u8> {
    let kind = encode_request(&Request::Submit { first_step: 0, rows: Vec::new() })[6];
    let mut frame = Vec::new();
    WIRE.append(&mut frame, kind, |p| {
        p.extend_from_slice(&0u64.to_le_bytes());
        p.extend_from_slice(&steps.to_le_bytes());
        p.extend_from_slice(&0u32.to_le_bytes());
    });
    frame
}

#[test]
fn zero_width_submit_with_steps_is_a_typed_error() {
    for steps in [1, 1 << 20, u32::MAX] {
        let err = decode_request(&zero_width_submit(steps)).unwrap_err();
        assert!(matches!(err, WireError::BadPayload { .. }), "steps {steps}: {err:?}");
    }
    // The empty 0 × 0 block still decodes.
    let empty = Request::Submit { first_step: 0, rows: Vec::new() };
    assert_eq!(decode_request(&zero_width_submit(0)).unwrap(), empty);
}

#[test]
fn daemon_answers_a_zero_width_submit_and_keeps_serving() {
    let root = std::env::temp_dir().join(format!("submit-limits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let socket = root.join("fleetd.sock");
    let config = FleetConfig {
        lanes: 4,
        break_even: 28.0,
        window: Some(8),
        min_history: 2,
        seed: 11,
        trace_stream_base: 0,
    };
    let options = ServeOptions {
        dir: root.join("fleet"),
        config,
        threads: 1,
        snapshot_every: 0,
        queue_capacity: 4,
        emit_trace: false,
        engine_delay_ms: 0,
        recover: false,
        telemetry_addr: None,
    };
    let started = serve(&options, &socket, None).unwrap();

    let mut raw = UnixStream::connect(&socket).unwrap();
    fleetd::proto::write_frame(&mut raw, &zero_width_submit(u32::MAX)).unwrap();
    let reply = fleetd::proto::read_frame(&mut raw).unwrap().expect("daemon answers");
    let reply = fleetd::proto::decode_reply(&reply).unwrap();
    assert!(
        matches!(&reply, Reply::Error { message } if message.contains("no lanes")),
        "{reply:?}"
    );

    let mut client = Client::connect_unix(&socket).unwrap();
    client.hello("after-zero-width").unwrap();
    let rows = vec![vec![3.0, 30.0, 12.0, 90.0]; 2];
    let reply = client.submit(0, &rows).unwrap();
    assert!(matches!(reply, Reply::Decisions { steps: 2, lanes: 4, .. }), "{reply:?}");

    started.handle.stop();
    let _ = std::fs::remove_dir_all(&root);
}
