//! The `fleetd` wire protocol: CRC-framed binary messages over a byte
//! stream.
//!
//! Every message is one frame of the [`fleetstate::format`] codec under
//! its [`WIRE`] spec: the same 12-byte header, payload and CRC-32
//! trailer that snapshots and the journal use, with magic `FLTD` where
//! they have `FLST`, so the two can never be confused. The kind byte is
//! the message kind (see [`Request`] / [`Reply`]). Payloads use the
//! codec's `put_*` writers and bounds-checked reader, so floats travel
//! as raw IEEE-754 bits.
//!
//! Request kinds live in `[1, 63]`, reply kinds in `[64, 127]`, so a
//! stray reply can never parse as a request. The decoder is total:
//! arbitrary bytes produce a typed, offset-carrying [`WireError`] —
//! never a panic, never an unbounded allocation (the payload length is
//! capped at [`WIRE`]'s `max_payload` *before* any buffer is sized).

use fleetstate::format::{put_f64, put_f64s, put_string, put_u32, put_u64, Reader, WIRE};
pub use fleetstate::format::{FrameError as WireError, HEADER_LEN, TRAILER_LEN};
use fleetstate::state::{decode_config, encode_config};
use fleetstate::FleetConfig;
use skirental::batch::VertexKind;
use std::io::{Read, Write};

/// The four magic bytes opening every protocol frame.
pub const MAGIC: [u8; 4] = WIRE.magic;

// ---------------------------------------------------------------------
// Messages.
// ---------------------------------------------------------------------

/// A client → daemon message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: identify the client, learn the fleet configuration and
    /// current step.
    Hello {
        /// A short client name (for session trace events).
        name: String,
    },
    /// Ingest a block of observations, time-major: `rows[t][lane]` is
    /// lane `lane`'s stop duration at step `first_step + t`. Answered
    /// with [`Reply::Decisions`], [`Reply::Busy`] (backpressure), or
    /// [`Reply::Error`].
    ///
    /// The rows must be rectangular: all as wide as `rows[0]`. The frame
    /// carries one width and the cells back to back, so a ragged block
    /// would decode reshaped; [`crate::Client::submit`] refuses one.
    Submit {
        /// The step the client believes the block starts at
        /// (`u64::MAX` = don't check). The daemon rejects a mismatch so
        /// a resumed client can't silently double-feed.
        first_step: u64,
        /// The observation rows.
        rows: Vec<Vec<f64>>,
    },
    /// Serving statistics. Answered with [`Reply::Stats`].
    Stats,
    /// The complete fleet state ([`fleetstate::encode_fleet_state`]
    /// bytes) — the byte-comparison oracle drills use. Answered with
    /// [`Reply::State`].
    ExportState,
    /// Switch this connection into an event tail: the daemon pushes
    /// [`Reply::Events`] frames (never `last`) until the connection
    /// closes. No further requests are read.
    Subscribe,
    /// Replay the complete journal through a fresh engine, regenerating
    /// the canonical event history of the whole session. Answered with a
    /// sequence of [`Reply::Events`] frames, the final one marked
    /// `last`.
    ReplayEvents,
    /// Take a snapshot now. Answered with [`Reply::Ack`].
    Snapshot,
    /// The daemon's telemetry page (Prometheus text exposition:
    /// per-stage latency histograms, health gauges). Answered with
    /// [`Reply::Telemetry`].
    Telemetry,
    /// Gracefully stop the daemon. Answered with [`Reply::Ack`], then
    /// the daemon exits.
    Shutdown,
}

/// Serving statistics carried by [`Reply::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsInfo {
    /// Steps processed per lane so far.
    pub step: u64,
    /// Vehicles in the fleet.
    pub lanes: u32,
    /// Ingest blocks currently queued.
    pub queue_depth: u32,
    /// Ingest queue capacity (blocks).
    pub queue_capacity: u32,
    /// Connections accepted so far.
    pub connections: u32,
    /// Live event subscribers.
    pub subscribers: u32,
    /// Submits rejected with [`Reply::Busy`] so far.
    pub busy_rejections: u64,
    /// Blocks ingested so far.
    pub blocks_ingested: u64,
    /// Journal frames written so far.
    pub journal_frames: u64,
    /// Total online cost across the fleet.
    pub online_total: f64,
    /// Total offline (clairvoyant) cost across the fleet.
    pub offline_total: f64,
}

/// A daemon → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Handshake answer: the fleet configuration, the current step, and
    /// the id the daemon assigned this client (its session trace events
    /// ride stream `meta_stream + 1 + client_id`).
    HelloAck {
        /// The daemon's fleet configuration.
        config: FleetConfig,
        /// Steps processed per lane so far.
        step: u64,
        /// This connection's client id.
        client_id: u64,
    },
    /// The decisions for a submitted block, lane-major: index
    /// `lane * steps + t` holds lane `lane`'s decision at block-relative
    /// step `t`.
    Decisions {
        /// First step the block covered.
        first_step: u64,
        /// Steps in the block.
        steps: u32,
        /// Lanes in the fleet.
        lanes: u32,
        /// Idle-threshold decisions, seconds (`+inf` = never restart).
        thresholds: Vec<f64>,
        /// The vertex each decision came from.
        vertices: Vec<VertexKind>,
    },
    /// Explicit backpressure: the ingest queue is full, nothing was
    /// journaled or processed — resubmit later.
    Busy {
        /// Blocks queued at rejection time.
        queued: u32,
        /// The queue's capacity.
        capacity: u32,
    },
    /// Serving statistics.
    Stats(StatsInfo),
    /// The complete fleet state, [`fleetstate::encode_fleet_state`]
    /// bytes.
    State(Vec<u8>),
    /// A batch of trace events as canonical JSONL (one record per
    /// line). Subscribe tails never set `last`; replay answers end with
    /// `last = true`.
    Events {
        /// Whether this is the final frame of a replay answer.
        last: bool,
        /// Canonical JSONL, possibly empty.
        jsonl: String,
    },
    /// Command acknowledged.
    Ack {
        /// Human-readable detail (e.g. the snapshot step).
        info: String,
    },
    /// The daemon's telemetry page.
    Telemetry {
        /// Prometheus text exposition ([`obsv::telemetry::render`]
        /// output; parse with [`obsv::telemetry::parse`]).
        text: String,
    },
    /// The request failed; nothing changed.
    Error {
        /// What went wrong.
        message: String,
    },
}

const KIND_HELLO: u8 = 1;
const KIND_SUBMIT: u8 = 2;
const KIND_STATS: u8 = 3;
const KIND_EXPORT_STATE: u8 = 4;
const KIND_SUBSCRIBE: u8 = 5;
const KIND_REPLAY_EVENTS: u8 = 6;
const KIND_SNAPSHOT: u8 = 7;
const KIND_SHUTDOWN: u8 = 8;
const KIND_TELEMETRY: u8 = 9;

const KIND_HELLO_ACK: u8 = 64;
const KIND_DECISIONS: u8 = 65;
const KIND_BUSY: u8 = 66;
const KIND_STATS_REPLY: u8 = 67;
const KIND_STATE: u8 = 68;
const KIND_EVENTS: u8 = 69;
const KIND_ACK: u8 = 70;
const KIND_ERROR: u8 = 71;
const KIND_TELEMETRY_REPLY: u8 = 72;

impl Request {
    fn kind(&self) -> u8 {
        match self {
            Self::Hello { .. } => KIND_HELLO,
            Self::Submit { .. } => KIND_SUBMIT,
            Self::Stats => KIND_STATS,
            Self::ExportState => KIND_EXPORT_STATE,
            Self::Subscribe => KIND_SUBSCRIBE,
            Self::ReplayEvents => KIND_REPLAY_EVENTS,
            Self::Snapshot => KIND_SNAPSHOT,
            Self::Telemetry => KIND_TELEMETRY,
            Self::Shutdown => KIND_SHUTDOWN,
        }
    }

    fn put_payload(&self, out: &mut Vec<u8>) {
        match self {
            Self::Hello { name } => put_string(out, name),
            Self::Submit { first_step, rows } => put_submit(out, *first_step, rows),
            Self::Stats
            | Self::ExportState
            | Self::Subscribe
            | Self::ReplayEvents
            | Self::Snapshot
            | Self::Telemetry
            | Self::Shutdown => {}
        }
    }

    fn decode_payload(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let req = match kind {
            KIND_HELLO => Self::Hello { name: r.string()? },
            KIND_SUBMIT => {
                let first_step = r.u64()?;
                let steps = r.u32()? as usize;
                let lanes = r.u32()? as usize;
                // Zero-width rows would pass the length check at any `steps`.
                if lanes == 0 && steps > 0 {
                    return Err(r.err("block has steps but no lanes"));
                }
                let cells = steps
                    .checked_mul(lanes)
                    .and_then(|c| c.checked_mul(8))
                    .ok_or(r.err("block size overflow"))?;
                if cells != r.remaining() {
                    return Err(r.err("block size does not match payload length"));
                }
                let mut rows = Vec::with_capacity(steps);
                for _ in 0..steps {
                    rows.push(r.f64s(lanes)?);
                }
                Self::Submit { first_step, rows }
            }
            KIND_STATS => Self::Stats,
            KIND_EXPORT_STATE => Self::ExportState,
            KIND_SUBSCRIBE => Self::Subscribe,
            KIND_REPLAY_EVENTS => Self::ReplayEvents,
            KIND_SNAPSHOT => Self::Snapshot,
            KIND_TELEMETRY => Self::Telemetry,
            KIND_SHUTDOWN => Self::Shutdown,
            other => return Err(WireError::UnknownKind { offset: 6, kind: other }),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Reply {
    fn kind(&self) -> u8 {
        match self {
            Self::HelloAck { .. } => KIND_HELLO_ACK,
            Self::Decisions { .. } => KIND_DECISIONS,
            Self::Busy { .. } => KIND_BUSY,
            Self::Stats(_) => KIND_STATS_REPLY,
            Self::State(_) => KIND_STATE,
            Self::Events { .. } => KIND_EVENTS,
            Self::Ack { .. } => KIND_ACK,
            Self::Error { .. } => KIND_ERROR,
            Self::Telemetry { .. } => KIND_TELEMETRY_REPLY,
        }
    }

    fn put_payload(&self, out: &mut Vec<u8>) {
        match self {
            Self::HelloAck { config, step, client_id } => {
                encode_config(out, config);
                put_u64(out, *step);
                put_u64(out, *client_id);
            }
            Self::Decisions { first_step, steps, lanes, thresholds, vertices } => {
                put_u64(out, *first_step);
                put_u32(out, *steps);
                put_u32(out, *lanes);
                out.reserve(thresholds.len() * 9 + TRAILER_LEN);
                put_f64s(out, thresholds);
                out.extend(vertices.iter().map(|&v| v as u8));
            }
            Self::Busy { queued, capacity } => {
                put_u32(out, *queued);
                put_u32(out, *capacity);
            }
            Self::Stats(s) => {
                put_u64(out, s.step);
                put_u32(out, s.lanes);
                put_u32(out, s.queue_depth);
                put_u32(out, s.queue_capacity);
                put_u32(out, s.connections);
                put_u32(out, s.subscribers);
                put_u64(out, s.busy_rejections);
                put_u64(out, s.blocks_ingested);
                put_u64(out, s.journal_frames);
                put_f64(out, s.online_total);
                put_f64(out, s.offline_total);
            }
            Self::State(bytes) => out.extend_from_slice(bytes),
            Self::Events { last, jsonl } => {
                out.push(u8::from(*last));
                put_u32(out, jsonl.len() as u32);
                out.extend_from_slice(jsonl.as_bytes());
            }
            Self::Ack { info } => put_string(out, info),
            Self::Error { message } => put_string(out, message),
            Self::Telemetry { text } => {
                // A full exposition page can exceed the short-string cap,
                // so it rides as length-prefixed raw bytes like `Events`.
                put_u32(out, text.len() as u32);
                out.extend_from_slice(text.as_bytes());
            }
        }
    }

    fn decode_payload(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let reply = match kind {
            KIND_HELLO_ACK => Self::HelloAck {
                config: decode_config(&mut r)?,
                step: r.u64()?,
                client_id: r.u64()?,
            },
            KIND_DECISIONS => {
                let first_step = r.u64()?;
                let steps = r.u32()?;
                let lanes = r.u32()?;
                let cells = (steps as usize)
                    .checked_mul(lanes as usize)
                    .ok_or(r.err("decision count overflow"))?;
                if cells.checked_mul(9).ok_or(r.err("decision count overflow"))? != r.remaining() {
                    return Err(r.err("decision count does not match payload length"));
                }
                let thresholds = r.f64s(cells)?;
                let codes = r.take(cells)?;
                if let Some(bad) = codes.iter().position(|&c| VertexKind::from_u8(c).is_none()) {
                    // The offset just past the bad byte, as a byte-wise
                    // read names it.
                    let offset = (payload.len() - cells + bad + 1) as u64;
                    return Err(WireError::BadPayload {
                        offset,
                        what: "unknown vertex discriminant",
                    });
                }
                // Every code is valid, so the fallback is never taken.
                let vertices = codes
                    .iter()
                    .map(|&c| VertexKind::from_u8(c).unwrap_or(VertexKind::ColdStart))
                    .collect();
                Self::Decisions { first_step, steps, lanes, thresholds, vertices }
            }
            KIND_BUSY => Self::Busy { queued: r.u32()?, capacity: r.u32()? },
            KIND_STATS_REPLY => Self::Stats(StatsInfo {
                step: r.u64()?,
                lanes: r.u32()?,
                queue_depth: r.u32()?,
                queue_capacity: r.u32()?,
                connections: r.u32()?,
                subscribers: r.u32()?,
                busy_rejections: r.u64()?,
                blocks_ingested: r.u64()?,
                journal_frames: r.u64()?,
                online_total: r.f64()?,
                offline_total: r.f64()?,
            }),
            KIND_STATE => return Ok(Self::State(payload.to_vec())),
            KIND_EVENTS => {
                let last = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(r.err("last flag is not 0 or 1")),
                };
                let len = r.u32()?;
                let bytes = r.take(len as usize)?;
                let jsonl = String::from_utf8(bytes.to_vec())
                    .map_err(|_| WireError::BadPayload { offset: 5, what: "jsonl is not UTF-8" })?;
                Self::Events { last, jsonl }
            }
            KIND_ACK => Self::Ack { info: r.string()? },
            KIND_ERROR => Self::Error { message: r.string()? },
            KIND_TELEMETRY_REPLY => {
                let len = r.u32()?;
                let bytes = r.take(len as usize)?;
                let text = String::from_utf8(bytes.to_vec())
                    .map_err(|_| WireError::BadPayload { offset: 4, what: "text is not UTF-8" })?;
                Self::Telemetry { text }
            }
            other => return Err(WireError::UnknownKind { offset: 6, kind: other }),
        };
        r.finish()?;
        Ok(reply)
    }
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Appends a Submit payload straight from the caller's rows; the width
/// is `rows[0]`'s (see [`Request::Submit`]).
fn put_submit(out: &mut Vec<u8>, first_step: u64, rows: &[Vec<f64>]) {
    let lanes = rows.first().map_or(0, Vec::len);
    out.reserve(16 + rows.len() * lanes * 8 + TRAILER_LEN);
    put_u64(out, first_step);
    put_u32(out, rows.len() as u32);
    put_u32(out, lanes as u32);
    for row in rows {
        put_f64s(out, row);
    }
}

/// One [`WIRE`] frame of `kind` whose payload `payload` writes.
fn frame(kind: u8, payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    WIRE.append(&mut out, kind, payload);
    out
}

/// A Submit frame encoded from borrowed rows, without a [`Request`].
pub(crate) fn encode_submit(first_step: u64, rows: &[Vec<f64>]) -> Vec<u8> {
    frame(KIND_SUBMIT, |out| put_submit(out, first_step, rows))
}

/// [`WIRE`]`.check_header`: `(kind, payload_len)` from a header alone.
///
/// # Errors
///
/// A header [`WireError`].
pub fn decode_header(bytes: &[u8]) -> Result<(u8, u32), WireError> {
    WIRE.check_header(bytes)
}

/// [`WIRE`]`.decode`: verifies a whole frame, returns `(kind, payload)`.
///
/// # Errors
///
/// A header, truncation or checksum [`WireError`].
pub fn decode_frame(bytes: &[u8]) -> Result<(u8, &[u8]), WireError> {
    WIRE.decode(bytes)
}

/// Encodes a request as one frame.
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    frame(req.kind(), |out| req.put_payload(out))
}

/// Decodes a complete request frame.
///
/// # Errors
///
/// Any [`decode_frame`] error, `UnknownKind`, or `BadPayload`.
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let (kind, payload) = decode_frame(bytes)?;
    Request::decode_payload(kind, payload)
}

/// Encodes a reply as one frame.
#[must_use]
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    frame(reply.kind(), |out| reply.put_payload(out))
}

/// Decodes a complete reply frame.
///
/// # Errors
///
/// Any [`decode_frame`] error, `UnknownKind`, or `BadPayload`.
pub fn decode_reply(bytes: &[u8]) -> Result<Reply, WireError> {
    let (kind, payload) = decode_frame(bytes)?;
    Reply::decode_payload(kind, payload)
}

/// [`WIRE`]`.read_frame`: one whole frame from a stream, or
/// `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// Transport failure, or a header error as `InvalidData`.
pub fn read_frame<R: Read>(stream: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    WIRE.read_frame(stream)
}

/// Writes one already-encoded frame to a stream and flushes it.
///
/// # Errors
///
/// `std::io::Error` on transport failure.
pub fn write_frame<W: Write>(stream: &mut W, frame: &[u8]) -> std::io::Result<()> {
    stream.write_all(frame)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello { name: "drill".to_string() },
            Request::Submit {
                first_step: 7,
                rows: vec![vec![1.0, 2.5, f64::INFINITY], vec![0.0, 4.25, 9.75]],
            },
            Request::Submit { first_step: u64::MAX, rows: Vec::new() },
            Request::Stats,
            Request::ExportState,
            Request::Subscribe,
            Request::ReplayEvents,
            Request::Snapshot,
            Request::Telemetry,
            Request::Shutdown,
        ]
    }

    fn sample_replies() -> Vec<Reply> {
        let config = FleetConfig {
            lanes: 3,
            break_even: 28.0,
            window: Some(8),
            min_history: 4,
            seed: 99,
            trace_stream_base: 1000,
        };
        vec![
            Reply::HelloAck { config, step: 41, client_id: 2 },
            Reply::Decisions {
                first_step: 41,
                steps: 2,
                lanes: 3,
                thresholds: vec![28.0, f64::INFINITY, 0.0, 1.5, 2.5, 3.5],
                vertices: vec![
                    VertexKind::ColdStart,
                    VertexKind::Det,
                    VertexKind::Toi,
                    VertexKind::BDet,
                    VertexKind::NRand,
                    VertexKind::Det,
                ],
            },
            Reply::Busy { queued: 8, capacity: 8 },
            Reply::Stats(StatsInfo {
                step: 41,
                lanes: 3,
                queue_depth: 1,
                queue_capacity: 8,
                connections: 4,
                subscribers: 1,
                busy_rejections: 2,
                blocks_ingested: 20,
                journal_frames: 41,
                online_total: 123.5,
                offline_total: 100.25,
            }),
            Reply::State(vec![1, 2, 3, 250]),
            Reply::Events { last: true, jsonl: "{\"a\":1}\n".to_string() },
            Reply::Events { last: false, jsonl: String::new() },
            Reply::Ack { info: "snapshot at step 41".to_string() },
            Reply::Error { message: "step mismatch".to_string() },
            Reply::Telemetry {
                text: "# TYPE fleetd_queue_depth gauge\nfleetd_queue_depth 3\n".to_string(),
            },
        ]
    }

    #[test]
    fn request_roundtrip() {
        for req in sample_requests() {
            let frame = encode_request(&req);
            assert_eq!(decode_request(&frame).unwrap(), req, "{req:?}");
        }
        // A name over the string cap is cut at a char boundary, so it
        // still decodes: 21,845 three-byte chars fill 65,535 bytes.
        let long = encode_request(&Request::Hello { name: "€".repeat(30_000) });
        assert_eq!(decode_request(&long).unwrap(), Request::Hello { name: "€".repeat(21_845) });
        // The borrowed-rows encoder writes the same bytes.
        let rows = vec![vec![1.0, 2.5, f64::INFINITY], vec![0.0, 4.25, 9.75]];
        let owned = encode_request(&Request::Submit { first_step: 7, rows: rows.clone() });
        assert_eq!(encode_submit(7, &rows), owned);
    }

    #[test]
    fn reply_roundtrip() {
        for reply in sample_replies() {
            let frame = encode_reply(&reply);
            assert_eq!(decode_reply(&frame).unwrap(), reply, "{reply:?}");
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_typed() {
        let frame = encode_request(&Request::Submit {
            first_step: 3,
            rows: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        });
        for cut in 0..frame.len() {
            let err = decode_request(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut {cut}: expected Truncated, got {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let frame = encode_reply(&Reply::Busy { queued: 1, capacity: 2 });
        // Payload flip → checksum mismatch.
        let mut bad = frame.clone();
        bad[HEADER_LEN] ^= 0x10;
        assert!(matches!(decode_reply(&bad), Err(WireError::ChecksumMismatch { .. })));
        // Magic flip → bad magic before anything else.
        let mut bad = frame.clone();
        bad[0] ^= 0x01;
        assert!(matches!(decode_reply(&bad), Err(WireError::BadMagic { offset: 0 })));
        // Version flip → unsupported version.
        let mut bad = frame;
        bad[4] = 9;
        assert!(matches!(
            decode_reply(&bad),
            Err(WireError::UnsupportedVersion { version: 9, .. })
        ));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = encode_request(&Request::Stats);
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&frame),
            Err(WireError::OversizedPayload { len: u32::MAX, .. })
        ));
    }

    #[test]
    fn request_reply_kind_spaces_disjoint() {
        let frame = encode_reply(&Reply::Ack { info: String::new() });
        assert!(matches!(decode_request(&frame), Err(WireError::UnknownKind { .. })));
        let frame = encode_request(&Request::Stats);
        assert!(matches!(decode_reply(&frame), Err(WireError::UnknownKind { .. })));
        // A journal frame is not a message, whatever its kind byte.
        let mut store = Vec::new();
        fleetstate::format::STORE.append(&mut store, KIND_HELLO, |out| put_string(out, "x"));
        assert_eq!(decode_request(&store), Err(WireError::BadMagic { offset: 0 }));
    }

    #[test]
    fn stream_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &encode_request(&Request::Hello { name: "x".into() })).unwrap();
        write_frame(&mut buf, &encode_request(&Request::Stats)).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let f1 = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(decode_request(&f1).unwrap(), Request::Hello { name: "x".into() });
        let f2 = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(decode_request(&f2).unwrap(), Request::Stats);
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn mid_frame_eof_is_unexpected_eof() {
        let frame = encode_request(&Request::Stats);
        let mut cursor = std::io::Cursor::new(frame[..5].to_vec());
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
