//! Fleet decision daemon for the idling-reduction stack.
//!
//! `fleetd` turns the batch engine ([`skirental::batch`] sharded
//! estimators under a [`fleetstate::PersistentFleet`] write-ahead
//! journal) into a long-running service: clients stream per-step idle
//! observations for a fleet of vehicles over a unix socket (TCP
//! optional) and get back, per vehicle, the stop/start threshold and
//! the four-vertex policy ([`skirental::batch::VertexKind`]) that
//! produced it.
//!
//! The crate splits into three layers:
//!
//! * [`proto`] — the wire format: CRC-framed binary messages in the
//!   one frame codec, `fleetstate::format`, under its wire spec (magic
//!   `FLTD`; snapshots and the journal use `FLST`). Decoding arbitrary
//!   bytes never panics; every failure is a typed, offset-carrying
//!   [`proto::WireError`].
//! * [`server`] — the daemon: a single engine thread owning the
//!   journaled fleet, a bounded ingest queue with explicit
//!   [`proto::Reply::Busy`] backpressure, and per-connection threads.
//!   Because every block is journaled before it is processed, a
//!   SIGKILL at any instant loses nothing: restart with recovery and
//!   the estimator state `(μ̂_B⁻, q̂_B⁺)` is bit-identical.
//! * [`client`] — a thin blocking client used by `fleetctl`, the
//!   load generator, and the CI service drill; includes a session
//!   recorder that captures every event batch as canonical JSONL so a
//!   live session is byte-identically replayable offline.
//! * [`telemetry`] — the daemon's service-metrics plane: per-stage
//!   latency histograms and health gauges in a `fleetd`-owned
//!   [`obsv::MetricsRegistry`], rendered as a Prometheus text
//!   exposition via the [`Request::Telemetry`] message or the optional
//!   `--telemetry-addr` HTTP listener (`/metrics`, `/healthz`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod proto;
pub mod server;
pub mod telemetry;

pub use client::{Client, SessionRecorder};
pub use proto::{Reply, Request, StatsInfo, WireError};
pub use server::{serve, ServeOptions, ServerHandle, Started};
pub use telemetry::{Telemetry, STAGE_HISTOGRAMS};
