//! Crash-safe state persistence for the idling-reduction fleet engine.
//!
//! The batched decision engine ([`skirental::batch`]) holds all of its
//! state in memory: per-vehicle moment estimates, eviction rings, RNG
//! stream positions, and cost ledgers. This crate makes that state
//! durable with two complementary files:
//!
//! * **Snapshots** ([`snapshot`]): periodic full copies of a
//!   [`state::FleetState`], appended to one file, each framed with
//!   magic/version/length/CRC-32 by [`format`](mod@crate::format), the
//!   frame codec `fleetd`'s wire protocol shares, and each followed by a
//!   [`snapshot::Checkpoint`]: the journal offset at the snapshot's step
//!   and the lanes' realized-CR sketch digests.
//! * **Write-ahead journal** ([`journal`]): every block of stop
//!   observations is appended (and flushed) *before* the engine
//!   processes it — a redo log.
//!
//! Recovery ([`recovery`]) = newest snapshot + checkpoint pair, then a
//! replay of the journal tail past the checkpoint's offset (the only
//! journal bytes it reads besides the header). It is **bit-identical**:
//! the resumed fleet's state, costs, RNG positions, risk sketches and
//! decision trace are byte-for-byte what an uninterrupted run would
//! have produced, at any thread count. The tolerance envelope over the
//! bytes it reads is exactly what a crash can cause (torn tail,
//! duplicated append); anything else fails with a typed,
//! offset-carrying [`PersistError`] — never by silently installing
//! corrupt state.
//! [`faults`] provides the storage fault injector the recovery drill
//! uses to enforce that contract.
//!
//! Scalar controllers persist too: [`state::encode_ladder_state`] /
//! [`state::decode_ladder_state`] capture a degraded-ladder controller
//! ([`skirental::degraded::LadderState`]) — ladder position, hysteresis
//! counters, and the wrapped estimator — in the same frame format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod faults;
pub mod format;
pub mod journal;
mod obs;
pub mod recovery;
pub mod runner;
pub mod snapshot;
pub mod state;

pub use error::PersistError;
pub use faults::{FaultTarget, StorageFault, StorageFaultPlan};
pub use journal::{parse_journal, AppendTiming, Journal, JournalContents};
pub use recovery::{recover_fleet, replay_session, RecoveryOutcome};
pub use runner::{
    BlockDecisions, BlockTiming, FleetRunner, PersistentFleet, JOURNAL_FILE, SNAPSHOT_FILE,
};
pub use snapshot::{append_snapshot, scan_snapshots, Checkpoint, SnapshotScan};
pub use state::{
    decode_fleet_state, decode_ladder_state, encode_fleet_state, encode_ladder_state, FleetConfig,
    FleetState, LaneSnapshot,
};
