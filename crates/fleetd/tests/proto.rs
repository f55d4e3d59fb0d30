//! Property tests for the daemon wire protocol: arbitrary bytes never
//! panic the decoder (every failure is a typed, offset-carrying
//! [`fleetd::proto::WireError`]), encode→decode round-trips are
//! lossless, and a frame torn at any byte boundary is rejected with the
//! right error.

use fleetd::proto::{
    self, decode_frame, decode_reply, decode_request, encode_reply, encode_request, Reply, Request,
    StatsInfo, WireError, HEADER_LEN, MAGIC, TRAILER_LEN,
};
use fleetstate::FleetConfig;
use proptest::prelude::*;
use skirental::batch::VertexKind;

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u16..256, 0..max).prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

/// Builds an arbitrary request from primitive inputs. `kind` selects
/// the variant (the vendored proptest has no `prop_oneof`).
fn request_of(
    kind: usize,
    name: String,
    first_step: u64,
    steps: usize,
    lanes: usize,
    cells: Vec<f64>,
) -> Request {
    match kind % 9 {
        0 => Request::Hello { name },
        1 => {
            // Rows without lanes are refused on decode; zero lanes means
            // the empty block.
            let steps = if lanes == 0 { 0 } else { steps };
            let rows = (0..steps)
                .map(|t| (0..lanes).map(|l| cells[(t * lanes + l) % cells.len().max(1)]).collect())
                .collect();
            Request::Submit { first_step, rows }
        }
        2 => Request::Stats,
        3 => Request::ExportState,
        4 => Request::Subscribe,
        5 => Request::ReplayEvents,
        6 => Request::Snapshot,
        7 => Request::Telemetry,
        _ => Request::Shutdown,
    }
}

/// Builds an arbitrary reply from primitive inputs.
fn reply_of(kind: usize, text: String, a: u64, b: u64, cells: Vec<f64>, raw: Vec<u8>) -> Reply {
    match kind % 9 {
        0 => Reply::HelloAck {
            config: FleetConfig {
                lanes: (a % 10_000) as usize + 1,
                break_even: 28.0 + cells.first().copied().unwrap_or(0.0),
                window: if b % 2 == 0 { None } else { Some((b % 512) as usize) },
                min_history: (a % 64) as usize,
                seed: b,
                trace_stream_base: a % 1000,
            },
            step: b,
            client_id: a,
        },
        1 => {
            let lanes = (a % 5 + 1) as usize;
            let steps = (b % 4 + 1) as usize;
            let cells_n = lanes * steps;
            Reply::Decisions {
                first_step: a,
                steps: steps as u32,
                lanes: lanes as u32,
                thresholds: (0..cells_n).map(|i| cells[i % cells.len().max(1)]).collect(),
                vertices: (0..cells_n)
                    .map(|i| VertexKind::from_u8((i % 5) as u8).unwrap_or(VertexKind::ColdStart))
                    .collect(),
            }
        }
        2 => Reply::Busy { queued: (a % 1000) as u32, capacity: (b % 1000) as u32 },
        3 => Reply::Stats(StatsInfo {
            step: a,
            lanes: (b % 100_000) as u32,
            queue_depth: (a % 64) as u32,
            queue_capacity: (b % 64) as u32,
            connections: (a % 1024) as u32,
            subscribers: (b % 16) as u32,
            busy_rejections: a.rotate_left(7),
            blocks_ingested: b.rotate_left(3),
            journal_frames: a ^ b,
            online_total: cells.first().copied().unwrap_or(0.0),
            offline_total: cells.last().copied().unwrap_or(0.0),
        }),
        4 => Reply::State(raw),
        5 => Reply::Events { last: a % 2 == 0, jsonl: text },
        6 => Reply::Ack { info: text },
        7 => Reply::Telemetry { text },
        _ => Reply::Error { message: text },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic any decoder entry point — every
    /// failure is a typed `WireError`. A second pass grafts a valid
    /// magic + version prefix so deeper header/payload paths are hit,
    /// not just the magic check.
    #[test]
    fn arbitrary_bytes_never_panic(raw in bytes(160)) {
        let _ = decode_frame(&raw);
        let _ = decode_request(&raw);
        let _ = decode_reply(&raw);
        let _ = proto::decode_header(&raw);

        let mut grafted = MAGIC.to_vec();
        grafted.extend_from_slice(&1u16.to_le_bytes());
        grafted.extend_from_slice(&raw);
        let _ = decode_frame(&grafted);
        let _ = decode_request(&grafted);
        let _ = decode_reply(&grafted);
    }

    /// Requests survive encode→decode losslessly.
    #[test]
    fn request_roundtrip(
        (kind, first_step) in (0usize..9, 0u64..u64::MAX),
        name in "\\PC*",
        (steps, lanes) in (0usize..5, 0usize..6),
        cells in prop::collection::vec(-1.0e6f64..1.0e6, 1..30),
    ) {
        let request = request_of(kind, name, first_step, steps, lanes, cells);
        let decoded = decode_request(&encode_request(&request));
        prop_assert_eq!(decoded.as_ref(), Ok(&request));
    }

    /// Replies survive encode→decode losslessly — including the float
    /// payloads, which travel as raw bits, not text.
    #[test]
    fn reply_roundtrip(
        (kind, a, b) in (0usize..9, 0u64..u64::MAX, 0u64..u64::MAX),
        text in "\\PC*",
        cells in prop::collection::vec(-1.0e9f64..1.0e9, 1..20),
        raw in bytes(100),
    ) {
        let reply = reply_of(kind, text, a, b, cells, raw);
        let decoded = decode_reply(&encode_reply(&reply));
        prop_assert_eq!(decoded.as_ref(), Ok(&reply));
    }

    /// A frame truncated at ANY byte boundary is rejected with
    /// `Truncated` — never a panic, never a bogus success — and the
    /// error's `needed`/`available` fields are consistent.
    #[test]
    fn torn_frames_are_typed_truncations(
        (kind, first_step) in (0usize..9, 0u64..1_000_000),
        name in "\\PC*",
        (steps, lanes) in (0usize..4, 0usize..5),
        cells in prop::collection::vec(-100.0f64..100.0, 1..10),
    ) {
        let frame = encode_request(&request_of(kind, name, first_step, steps, lanes, cells));
        for cut in 0..frame.len() {
            match decode_request(&frame[..cut]) {
                Err(WireError::Truncated { needed, available, .. }) => {
                    prop_assert_eq!(available as usize, cut);
                    prop_assert!(needed as usize > cut);
                    prop_assert!(needed as usize <= frame.len());
                }
                other => return Err(TestCaseError::fail(format!(
                    "cut at {cut}/{} gave {other:?}, want Truncated", frame.len()
                ))),
            }
        }
        prop_assert!(decode_request(&frame).is_ok());
    }

    /// Flipping any single byte of a valid frame is caught: the CRC
    /// covers header and payload, so no corruption decodes silently.
    #[test]
    fn single_byte_corruption_is_always_caught(
        (kind, a, b) in (0usize..9, 0u64..1_000_000, 0u64..1_000_000),
        text in "\\PC*",
        cells in prop::collection::vec(-100.0f64..100.0, 1..10),
        raw in bytes(40),
        (pos_pick, flip) in (0u64..u64::MAX, 1u16..256),
    ) {
        let frame = encode_reply(&reply_of(kind, text, a, b, cells, raw));
        let pos = (pos_pick % frame.len() as u64) as usize;
        let mut bad = frame.clone();
        bad[pos] ^= flip as u8;
        prop_assert!(decode_reply(&bad).is_err(), "flip at {pos} decoded silently");
    }

    /// Appending trailing garbage after a valid frame does not break
    /// decoding of the frame itself when read through a stream: the
    /// reader consumes exactly one frame and leaves the rest.
    #[test]
    fn stream_reader_consumes_exactly_one_frame(
        (kind, first_step) in (0usize..9, 0u64..1_000_000),
        name in "\\PC*",
        trailing in bytes(50),
    ) {
        let request = request_of(kind, name, first_step, 1, 2, vec![1.0, 2.0]);
        let frame = encode_request(&request);
        let mut wire = frame.clone();
        wire.extend_from_slice(&trailing);
        let mut cursor = std::io::Cursor::new(wire);
        let got = proto::read_frame(&mut cursor)
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .ok_or_else(|| TestCaseError::fail("clean EOF on a full frame"))?;
        prop_assert_eq!(&got, &frame);
        prop_assert_eq!(cursor.position() as usize, frame.len());
        let reparsed = decode_request(&got);
        prop_assert_eq!(reparsed.as_ref(), Ok(&request));
    }
}

/// The header check rejects an oversized length before any allocation:
/// feeding a 12-byte header claiming a huge payload fails fast.
#[test]
fn oversized_header_is_rejected_without_reading_body() {
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&1u16.to_le_bytes());
    header.push(1);
    header.push(0);
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        proto::decode_header(&header),
        Err(WireError::OversizedPayload { len: u32::MAX, .. })
    ));
    // And through the stream reader: InvalidData, not an allocation.
    let mut cursor = std::io::Cursor::new(header);
    let err = proto::read_frame(&mut cursor).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// Sanity: the sizes the tests rely on.
#[test]
fn frame_geometry() {
    let frame = encode_request(&Request::Stats);
    assert_eq!(frame.len(), HEADER_LEN + TRAILER_LEN);
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Golden wire bytes: a fixed `Submit` request and `Decisions` reply
/// encode to these exact frames, CRC-32 trailer included. A round-trip
/// test cannot catch a checksum (or codec) change made on both the
/// writing and the reading side; these constants can.
#[test]
fn golden_submit_and_decisions_frames() {
    let submit = Request::Submit {
        first_step: 5,
        rows: vec![vec![0.0, 12.5, 28.0], vec![31.25, 1e-3, 600.0]],
    };
    let frame = encode_request(&submit);
    assert_eq!(
        hex(&frame),
        concat!(
            "464c54440100020040000000", // header: magic, version, kind, payload length
            "0500000000000000020000000300000000000000000000000000000000002940",
            "0000000000003c400000000000403f40fca9f1d24d62503f0000000000c08240",
            "f21221ba", // CRC-32 trailer
        )
    );
    assert_eq!(decode_request(&frame).as_ref(), Ok(&submit));

    let decisions = Reply::Decisions {
        first_step: 5,
        steps: 2,
        lanes: 3,
        thresholds: vec![28.0, f64::INFINITY, 0.0, 17.5, 28.0, 3.75],
        vertices: vec![
            VertexKind::ColdStart,
            VertexKind::NRand,
            VertexKind::Toi,
            VertexKind::BDet,
            VertexKind::Det,
            VertexKind::ColdStart,
        ],
    };
    let frame = encode_reply(&decisions);
    assert_eq!(
        hex(&frame),
        concat!(
            "464c54440100410046000000", // header: magic, version, kind, payload length
            "050000000000000002000000030000000000000000003c40000000000000f07f",
            "000000000000000000000000008031400000000000003c400000000000000e40",
            "000402030100",
            "de8dd325", // CRC-32 trailer
        )
    );
    assert_eq!(decode_reply(&frame).as_ref(), Ok(&decisions));
}
