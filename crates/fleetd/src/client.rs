//! Blocking client for the fleet daemon, plus the session recorder
//! that makes a live session byte-identically replayable offline.

use crate::proto::{self, Reply, Request, StatsInfo};
use fleetstate::FleetConfig;
use obsv::TraceRecord;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// Client-side failure: transport, framing, or a daemon-reported error.
#[derive(Debug)]
pub enum ClientError {
    /// Socket I/O failed (includes wrapped framing errors from
    /// [`proto::read_frame`]).
    Io(std::io::Error),
    /// A frame arrived intact but was not decodable as a reply.
    Wire(proto::WireError),
    /// The daemon answered with [`Reply::Error`].
    Daemon(String),
    /// The daemon answered with a reply kind the call did not expect.
    Unexpected(&'static str),
    /// A submitted block whose rows are not all as wide as `rows[0]`;
    /// nothing was sent.
    RaggedRows {
        /// Index of the first row of another width.
        row: usize,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o: {e}"),
            Self::Wire(e) => write!(f, "wire: {e}"),
            Self::Daemon(msg) => write!(f, "daemon: {msg}"),
            Self::Unexpected(what) => write!(f, "unexpected reply: {what}"),
            Self::RaggedRows { row } => write!(f, "ragged block: row {row} differs in width"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<proto::WireError> for ClientError {
    fn from(e: proto::WireError) -> Self {
        Self::Wire(e)
    }
}

/// Either transport, unified behind the client.
enum Transport {
    Unix(UnixStream),
    Tcp(std::net::TcpStream),
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Self::Unix(s) => s.read(buf),
            Self::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
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

/// A blocking connection to a fleet daemon.
pub struct Client {
    transport: Transport,
}

impl Client {
    /// Connects over a unix socket.
    ///
    /// # Errors
    ///
    /// I/O error if the socket does not exist or refuses.
    pub fn connect_unix(path: &Path) -> Result<Self, ClientError> {
        Ok(Self { transport: Transport::Unix(UnixStream::connect(path)?) })
    }

    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// I/O error if the address does not resolve or refuses.
    pub fn connect_tcp(addr: &str) -> Result<Self, ClientError> {
        Ok(Self { transport: Transport::Tcp(std::net::TcpStream::connect(addr)?) })
    }

    /// One request → one reply. `Reply::Error` becomes
    /// [`ClientError::Daemon`] so callers only match success shapes.
    fn call(&mut self, request: &Request) -> Result<Reply, ClientError> {
        proto::write_frame(&mut self.transport, &proto::encode_request(request))?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> Result<Reply, ClientError> {
        let frame = proto::read_frame(&mut self.transport)?.ok_or_else(|| {
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ))
        })?;
        match proto::decode_reply(&frame)? {
            Reply::Error { message } => Err(ClientError::Daemon(message)),
            reply => Ok(reply),
        }
    }

    /// Introduces the client; returns the daemon's fleet configuration,
    /// its current step, and this connection's client id.
    ///
    /// # Errors
    ///
    /// Transport, framing, or daemon error.
    pub fn hello(&mut self, name: &str) -> Result<(FleetConfig, u64, u64), ClientError> {
        match self.call(&Request::Hello { name: name.to_string() })? {
            Reply::HelloAck { config, step, client_id } => Ok((config, step, client_id)),
            _ => Err(ClientError::Unexpected("hello wants HelloAck")),
        }
    }

    /// Submits a block of per-step idle rows (time-major,
    /// `rows[t][lane]`). Returns the raw reply so callers can
    /// distinguish `Decisions` from `Busy` backpressure. Pass
    /// `u64::MAX` as `first_step` to skip the step-continuity check.
    ///
    /// # Errors
    ///
    /// [`ClientError::RaggedRows`] (before anything is sent) if the rows
    /// are not all the same width; otherwise transport, framing, or
    /// daemon error (e.g. step mismatch).
    pub fn submit(&mut self, first_step: u64, rows: &[Vec<f64>]) -> Result<Reply, ClientError> {
        let lanes = rows.first().map_or(0, Vec::len);
        if let Some(row) = rows.iter().position(|r| r.len() != lanes) {
            return Err(ClientError::RaggedRows { row });
        }
        proto::write_frame(&mut self.transport, &proto::encode_submit(first_step, rows))?;
        match self.read_reply()? {
            reply @ (Reply::Decisions { .. } | Reply::Busy { .. }) => Ok(reply),
            _ => Err(ClientError::Unexpected("submit wants Decisions or Busy")),
        }
    }

    /// Fetches the daemon's live counters.
    ///
    /// # Errors
    ///
    /// Transport, framing, or daemon error.
    pub fn stats(&mut self) -> Result<StatsInfo, ClientError> {
        match self.call(&Request::Stats)? {
            Reply::Stats(info) => Ok(info),
            _ => Err(ClientError::Unexpected("stats wants Stats")),
        }
    }

    /// Exports the full estimator state in the canonical
    /// `fleetstate` byte encoding — the byte-comparison oracle the
    /// service drill uses to prove recovery was lossless.
    ///
    /// # Errors
    ///
    /// Transport, framing, or daemon error.
    pub fn export_state(&mut self) -> Result<Vec<u8>, ClientError> {
        match self.call(&Request::ExportState)? {
            Reply::State(bytes) => Ok(bytes),
            _ => Err(ClientError::Unexpected("export wants State")),
        }
    }

    /// Asks the daemon to write a snapshot now; returns the ack text.
    ///
    /// # Errors
    ///
    /// Transport, framing, or daemon error.
    pub fn snapshot(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Snapshot)? {
            Reply::Ack { info } => Ok(info),
            _ => Err(ClientError::Unexpected("snapshot wants Ack")),
        }
    }

    /// Fetches the daemon's telemetry page (Prometheus text exposition;
    /// parse with [`obsv::telemetry::parse`]).
    ///
    /// # Errors
    ///
    /// Transport, framing, or daemon error.
    pub fn telemetry(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Telemetry)? {
            Reply::Telemetry { text } => Ok(text),
            _ => Err(ClientError::Unexpected("telemetry wants Telemetry")),
        }
    }

    /// Asks the daemon to shut down gracefully; returns the ack text.
    ///
    /// # Errors
    ///
    /// Transport, framing, or daemon error.
    pub fn shutdown(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Shutdown)? {
            Reply::Ack { info } => Ok(info),
            _ => Err(ClientError::Unexpected("shutdown wants Ack")),
        }
    }

    /// Replays the daemon's complete journal into canonical trace
    /// records: every event since the fleet was created, regenerated
    /// deterministically (the journal is never truncated by
    /// snapshots). Streams arrive chunked; this collects them all.
    ///
    /// # Errors
    ///
    /// Transport, framing, daemon error, or malformed JSONL.
    pub fn replay_events(&mut self) -> Result<Vec<TraceRecord>, ClientError> {
        proto::write_frame(&mut self.transport, &proto::encode_request(&Request::ReplayEvents))?;
        let mut records = Vec::new();
        loop {
            match self.read_reply()? {
                Reply::Events { last, jsonl } => {
                    let batch = obsv::event::parse_jsonl(&jsonl)
                        .map_err(|e| ClientError::Daemon(format!("bad event stream: {e}")))?;
                    records.extend(batch);
                    if last {
                        return Ok(records);
                    }
                }
                _ => return Err(ClientError::Unexpected("replay wants Events")),
            }
        }
    }

    /// Switches the connection to push mode: the daemon streams event
    /// batches as it processes blocks. `on_batch` is called per batch;
    /// return `false` to stop tailing (the connection is consumed
    /// either way — subscribing is the connection's final act).
    ///
    /// Returns normally when the daemon closes the stream or the
    /// callback stops it.
    ///
    /// # Errors
    ///
    /// Transport or framing error, or malformed JSONL.
    pub fn subscribe<F>(mut self, mut on_batch: F) -> Result<(), ClientError>
    where
        F: FnMut(Vec<TraceRecord>) -> bool,
    {
        proto::write_frame(&mut self.transport, &proto::encode_request(&Request::Subscribe))?;
        loop {
            let frame = match proto::read_frame(&mut self.transport)? {
                Some(f) => f,
                None => return Ok(()),
            };
            match proto::decode_reply(&frame)? {
                Reply::Events { jsonl, .. } => {
                    let batch = obsv::event::parse_jsonl(&jsonl)
                        .map_err(|e| ClientError::Daemon(format!("bad event stream: {e}")))?;
                    if !on_batch(batch) {
                        return Ok(());
                    }
                }
                Reply::Error { message } => return Err(ClientError::Daemon(message)),
                _ => return Err(ClientError::Unexpected("subscribe wants Events")),
            }
        }
    }
}

/// Accumulates trace records from a live session, deduplicated by their
/// canonical `(stream, stop, seq)` key, so the capture can be compared
/// byte-for-byte against an offline replay of the same journal.
#[derive(Debug, Default)]
pub struct SessionRecorder {
    records: BTreeMap<(u64, u64, u64), TraceRecord>,
}

impl SessionRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs a batch. Records seen twice (e.g. a tail overlapping a
    /// replay) collapse onto one copy — the keys are globally unique
    /// per event, so duplicates are identical.
    pub fn absorb(&mut self, batch: Vec<TraceRecord>) {
        for record in batch {
            self.records.insert(record.key(), record);
        }
    }

    /// Number of distinct records captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in canonical key order.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.values().cloned().collect()
    }

    /// Records on streams strictly below `limit` — pass the fleet's
    /// meta stream to keep only per-lane decision records (dropping
    /// checkpoint and session chatter) for byte-identity comparison.
    #[must_use]
    pub fn records_below_stream(&self, limit: u64) -> Vec<TraceRecord> {
        self.records.values().filter(|r| r.stream < limit).cloned().collect()
    }

    /// Serializes the capture (key order) as canonical JSONL.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let records = self.records();
        obsv::event::to_jsonl(&records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obsv::TraceEvent;

    fn rec(stream: u64, stop: u64, seq: u64) -> TraceRecord {
        TraceRecord {
            stream,
            stop,
            seq,
            event: TraceEvent::Session {
                what: "hello".into(),
                client: 0,
                step: stop,
                detail: String::new(),
            },
        }
    }

    #[test]
    fn recorder_dedupes_and_sorts() {
        let mut recorder = SessionRecorder::new();
        recorder.absorb(vec![rec(2, 0, 0), rec(1, 5, 1)]);
        recorder.absorb(vec![rec(1, 5, 1), rec(1, 5, 0)]);
        assert_eq!(recorder.len(), 3);
        let keys: Vec<_> = recorder.records().iter().map(TraceRecord::key).collect();
        assert_eq!(keys, vec![(1, 5, 0), (1, 5, 1), (2, 0, 0)]);
    }

    #[test]
    fn stream_filter_drops_meta() {
        let mut recorder = SessionRecorder::new();
        recorder.absorb(vec![rec(0, 1, 0), rec(7, 1, 0), rec(9, 1, 0)]);
        let lanes = recorder.records_below_stream(7);
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].stream, 0);
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut recorder = SessionRecorder::new();
        recorder.absorb(vec![rec(3, 2, 1), rec(0, 0, 0)]);
        let text = recorder.to_jsonl();
        let parsed = obsv::event::parse_jsonl(&text).unwrap();
        assert_eq!(parsed, recorder.records());
    }
}
