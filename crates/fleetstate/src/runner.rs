//! The resumable batched fleet runner and its journaled wrapper.
//!
//! [`FleetRunner`] is the second caller of the block engine,
//! [`skirental::batch::ShardEngine`] (the first is
//! [`skirental::batch::run_fleet_batch`]). It keeps one engine per shard
//! for its lifetime, so the fleet's *complete* state — per-lane
//! estimator state, RNG stream positions, and cost ledgers — can be
//! exported and restored. Its per-stop hook adds what serving needs:
//! the lane-major [`BlockDecisions`], the realized-CR risk sketches, and
//! `StopCost` trace events. The sketches, one per lane, are fleet state
//! like the estimators: the runner always records them, snapshots carry
//! them, and [`FleetRunner::risk_sketches`] hands out a shared handle
//! that a scrape thread can read while the runner records. Lane
//! arithmetic is lane-local and RNG streams are keyed by global vehicle
//! index, so results are bit-identical for any thread count and across
//! any export/restore/replay boundary — a resumed run's decision trace
//! is byte-for-byte the trace the uninterrupted run would have written.
//!
//! The thread count fixes the shard partition, and caps the parallelism
//! of a block: each block runs on
//! [`skirental::parallel::plan_workers`] workers, one per
//! `DECISIONS_PER_WORKER` decisions, through
//! [`skirental::parallel::fan_out`]. The first worker is the calling
//! thread, so a small block (a 64-lane daemon step) spawns nothing and
//! runs every shard there in order.
//!
//! [`PersistentFleet`] wraps a runner with a write-ahead [`Journal`] and
//! periodic snapshots: observations are journaled (and flushed) *before*
//! the engine processes them, so a crash at any instant loses nothing
//! that cannot be replayed.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use obsv::risk::{CrSketch, SketchDigest};
use skirental::batch::{BatchConfig, CounterRng, ShardEngine, ShardPlan, VertexKind};
use skirental::parallel::{fan_out, plan_workers};
use skirental::BreakEven;

use crate::error::{io_err, PersistError};
use crate::journal::{check_rows, AppendTiming, Journal};
use crate::recovery::{recover_fleet, RecoveryOutcome};
use crate::snapshot::{append_frames, Checkpoint};
use crate::state::{FleetConfig, FleetState, LaneSnapshot};

/// Per-step decisions captured from a block run, lane-major: lane `i`'s
/// decisions for the whole block are contiguous, so each contiguous
/// shard of the fleet writes one contiguous region. Returned by
/// [`FleetRunner::run_block_decided`] for callers (the `fleetd` daemon)
/// that must *serve* the decisions rather than only settle their costs.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDecisions {
    steps: usize,
    lanes: usize,
    thresholds: Vec<f64>,
    vertices: Vec<VertexKind>,
}

impl BlockDecisions {
    /// Steps covered by the block.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Lanes covered by the block (the fleet width).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Lane `lane`'s threshold at block-relative step `t` (seconds;
    /// `+inf` = never restart).
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `t` is out of range.
    #[must_use]
    pub fn threshold(&self, lane: usize, t: usize) -> f64 {
        assert!(lane < self.lanes && t < self.steps, "decision index out of range");
        self.thresholds[lane * self.steps + t]
    }

    /// Lane `lane`'s vertex at block-relative step `t`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `t` is out of range.
    #[must_use]
    pub fn vertex(&self, lane: usize, t: usize) -> VertexKind {
        assert!(lane < self.lanes && t < self.steps, "decision index out of range");
        self.vertices[lane * self.steps + t]
    }

    /// All thresholds, lane-major (`lane * steps + t`).
    #[must_use]
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// All vertices, lane-major (`lane * steps + t`).
    #[must_use]
    pub fn vertices(&self) -> &[VertexKind] {
        &self.vertices
    }

    /// The thresholds and vertices, lane-major, moved out without a copy.
    #[must_use]
    pub fn into_parts(self) -> (Vec<f64>, Vec<VertexKind>) {
        (self.thresholds, self.vertices)
    }
}

/// A resumable batched fleet: every piece of state that decisions depend
/// on can be exported and restored bit-identically.
pub struct FleetRunner {
    config: FleetConfig,
    /// Stops per vehicle processed so far.
    step: u64,
    shards: Vec<ShardEngine>,
    /// Every lane's realized-CR sketch, in global lane order.
    risk: Arc<[CrSketch]>,
}

fn validate_config(config: &FleetConfig) -> Result<BreakEven, PersistError> {
    if config.lanes == 0 {
        return Err(PersistError::ConfigMismatch { what: "lanes (must be positive)" });
    }
    if config.window == Some(0) {
        return Err(PersistError::ConfigMismatch { what: "window (must be positive)" });
    }
    Ok(BreakEven::new(config.break_even)?)
}

impl FleetRunner {
    /// A cold-start fleet at step zero, its lanes partitioned into (at
    /// most) `threads` shards. `threads` caps the workers a block runs
    /// on; a block smaller than `threads` ×
    /// [`skirental::parallel::DECISIONS_PER_WORKER`] decisions runs on
    /// fewer.
    ///
    /// # Errors
    ///
    /// [`PersistError::ConfigMismatch`] on a degenerate configuration or
    /// [`PersistError::Engine`] on an invalid break-even.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(config: &FleetConfig, threads: usize) -> Result<Self, PersistError> {
        assert!(threads > 0, "need at least one thread");
        let break_even = validate_config(config)?;
        let cfg = BatchConfig {
            window: config.window,
            min_history: config.min_history,
            seed: config.seed,
            trace_stream_base: config.trace_stream_base,
        };
        let shards: Vec<ShardEngine> = ShardPlan::new(config.lanes, threads)
            .ranges()
            .map(|(base, n)| ShardEngine::new(break_even, &cfg, base, n))
            .collect();
        let risk = (0..config.lanes).map(|_| CrSketch::new()).collect();
        Ok(Self { config: *config, step: 0, shards, risk })
    }

    /// Restores a fleet from a snapshot, resuming at the snapshot's
    /// step. The thread count need not match the run that wrote the
    /// snapshot — lane state is partition-independent.
    ///
    /// # Errors
    ///
    /// [`PersistError::BadPayload`] if the snapshot's lane list does not
    /// match its own configuration, or [`PersistError::Engine`] if the
    /// engine rejects a lane's state.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn from_state(state: &FleetState, threads: usize) -> Result<Self, PersistError> {
        if state.lanes.len() != state.config.lanes {
            return Err(PersistError::BadPayload {
                offset: 0,
                what: "snapshot lane list does not match its configuration",
            });
        }
        let mut runner = Self::new(&state.config, threads)?;
        runner.step = state.step;
        for shard in &mut runner.shards {
            for i in 0..shard.lanes() {
                let snap = &state.lanes[shard.base() + i];
                let rng = CounterRng::from_state(snap.rng_key, snap.rng_ctr);
                shard.restore_lane(i, &snap.lane, rng, (snap.online, snap.offline))?;
            }
        }
        Ok(runner)
    }

    /// Exports the fleet's complete state, lanes in global order.
    #[must_use]
    pub fn export_state(&self) -> FleetState {
        let mut lanes = Vec::with_capacity(self.config.lanes);
        for shard in &self.shards {
            for i in 0..shard.lanes() {
                let (lane, rng) = shard.export_lane(i);
                let (rng_key, rng_ctr) = rng.state();
                let (online, offline) = shard.ledger(i);
                lanes.push(LaneSnapshot { lane, rng_key, rng_ctr, online, offline });
            }
        }
        FleetState { config: self.config, step: self.step, lanes }
    }

    /// The configuration this fleet runs under.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Stops per vehicle processed so far.
    #[must_use]
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Total `(online, offline)` cost across the fleet so far.
    #[must_use]
    pub fn totals(&self) -> (f64, f64) {
        let mut on = 0.0;
        let mut off = 0.0;
        for shard in &self.shards {
            on += (0..shard.lanes()).map(|i| shard.ledger(i).0).sum::<f64>();
            off += (0..shard.lanes()).map(|i| shard.ledger(i).1).sum::<f64>();
        }
        (on, off)
    }

    /// Every lane's realized-CR sketch, in lane order: one sample per
    /// stop the lane has settled since step 0, restored ones included.
    /// Clone the handle to read the sketches from another thread while
    /// the runner records.
    #[must_use]
    pub fn risk_sketches(&self) -> &Arc<[CrSketch]> {
        &self.risk
    }

    /// Every lane's realized-CR digest, in lane order.
    #[must_use]
    pub fn risk_digests(&self) -> Vec<SketchDigest> {
        self.risk.iter().map(CrSketch::digest).collect()
    }

    /// Adds `digests[lane]` into each lane's sketch, the inverse of
    /// [`FleetRunner::risk_digests`].
    pub(crate) fn add_risk(&self, digests: &[SketchDigest]) {
        for (sketch, digest) in self.risk.iter().zip(digests) {
            sketch.add_digest(digest);
        }
    }

    /// Processes a block of steps, time-major: `rows[t][i]` is lane
    /// `i`'s stop duration at step `self.step() + t`. With `emit` set
    /// (and a tracer active), every stop emits a
    /// [`obsv::TraceEvent::StopCost`] on stream
    /// `trace_stream_base + lane` at the stop's global step index —
    /// replay after recovery passes `emit = false` so the merged
    /// pre-crash + post-recovery trace equals the uninterrupted one.
    ///
    /// The whole block is validated before any lane mutates, so a
    /// failed call leaves the fleet untouched.
    ///
    /// # Errors
    ///
    /// [`PersistError::BadPayload`] on a row of the wrong width or
    /// [`PersistError::Engine`] on a negative/non-finite stop.
    pub fn run_block(&mut self, rows: &[Vec<f64>], emit: bool) -> Result<(), PersistError> {
        check_rows(rows, self.config.lanes)?;
        self.run_checked_block(rows, emit, None).map(|_| ())
    }

    /// [`FleetRunner::run_block`] that additionally captures every
    /// per-step decision — the thresholds and vertices the engine played
    /// — lane-major, so a serving layer can answer "what did you decide
    /// for vehicle `i` at step `t`" without re-deriving it. Identical
    /// state evolution and trace emission to `run_block`; only the
    /// capture differs.
    ///
    /// # Errors
    ///
    /// Exactly the [`FleetRunner::run_block`] errors; a failed call
    /// leaves the fleet untouched.
    pub fn run_block_decided(
        &mut self,
        rows: &[Vec<f64>],
        emit: bool,
    ) -> Result<BlockDecisions, PersistError> {
        check_rows(rows, self.config.lanes)?;
        self.run_checked_block_decided(rows, emit).map(|(decisions, _)| decisions)
    }

    /// [`FleetRunner::run_block_decided`] for a block that already passed
    /// [`check_rows`] (the journal checks it before writing), with the
    /// number of workers that ran it.
    fn run_checked_block_decided(
        &mut self,
        rows: &[Vec<f64>],
        emit: bool,
    ) -> Result<(BlockDecisions, usize), PersistError> {
        let steps = rows.len();
        let lanes = self.config.lanes;
        let mut thresholds = vec![0.0f64; lanes * steps];
        let mut vertices = vec![VertexKind::ColdStart; lanes * steps];
        let workers = self.run_checked_block(rows, emit, Some((&mut thresholds, &mut vertices)))?;
        Ok((BlockDecisions { steps, lanes, thresholds, vertices }, workers))
    }

    /// Runs a checked block on as many workers as its size pays for
    /// ([`plan_workers`], capped by the shard count) and returns that
    /// number. Each worker runs a contiguous group of shards in order,
    /// the first group on the calling thread; errors surface in shard
    /// order.
    fn run_checked_block(
        &mut self,
        rows: &[Vec<f64>],
        emit: bool,
        out: Option<(&mut [f64], &mut [VertexKind])>,
    ) -> Result<usize, PersistError> {
        if rows.is_empty() {
            return Ok(0);
        }
        let steps = rows.len();
        let step0 = self.step;
        let trace_base = self.config.trace_stream_base;
        let lanes = self.config.lanes;
        let workers = plan_workers(lanes, lanes * steps, self.shards.len());
        let per_worker = self.shards.len().div_ceil(workers);
        // Each contiguous group of shards owns the contiguous lane-major
        // output region of its lanes.
        let mut rest = out;
        let groups = self.shards.chunks_mut(per_worker).map(|engines| {
            let group_lanes: usize = engines.iter().map(ShardEngine::lanes).sum();
            (engines, split_region(&mut rest, group_lanes * steps))
        });
        let risk = &self.risk;
        fan_out(groups, |(engines, mut region)| {
            for engine in engines {
                let mine = split_region(&mut region, engine.lanes() * steps);
                run_shard(engine, risk, rows, step0, trace_base, emit, mine)?;
            }
            Ok::<_, skirental::Error>(())
        })?;
        self.step += steps as u64;
        Ok(workers)
    }
}

/// Splits the first `len` entries off a lane-major output region,
/// leaving the remainder in `region`; `None` when nothing is captured.
fn split_region<'a>(
    region: &mut Option<(&'a mut [f64], &'a mut [VertexKind])>,
    len: usize,
) -> Option<(&'a mut [f64], &'a mut [VertexKind])> {
    let (th, vx) = region.take()?;
    let (th, th_rest) = th.split_at_mut(len);
    let (vx, vx_rest) = vx.split_at_mut(len);
    *region = Some((th_rest, vx_rest));
    Some((th, vx))
}

/// Runs one shard's engine through a block of steps. The hook captures
/// decisions lane-major into `out`, records the shard's lanes in the
/// fleet's `risk` sketches, and emits `StopCost` events; the engine
/// flushes its counters once per block.
fn run_shard(
    engine: &mut ShardEngine,
    risk: &[CrSketch],
    rows: &[Vec<f64>],
    step0: u64,
    trace_base: u64,
    emit: bool,
    mut out: Option<(&mut [f64], &mut [VertexKind])>,
) -> Result<(), skirental::Error> {
    let (base, lanes, steps) = (engine.base(), engine.lanes(), rows.len());
    let sketches = &risk[base..base + lanes];
    let tracing = emit && obsv::tracer::observing();
    // Risk sketches are *state*, not trace: they record even when trace
    // emission is suppressed (journal-tail replay after recovery), so a
    // recovered daemon's risk counters are monotone across the crash.
    for (t, row) in rows.iter().enumerate() {
        let row = &row[base..base + lanes];
        let step = step0 + t as u64;
        engine.step(
            move |lane| row[lane],
            |s| {
                if let Some((th, vx)) = &mut out {
                    th[s.lane * steps + t] = s.threshold;
                    vx[s.lane * steps + t] = s.vertex;
                }
                sketches[s.lane].record_ratio(s.online, s.offline);
                if tracing {
                    // One record per (lane, step): stream identifies the
                    // lane, stop the step, so the merged sort order is
                    // independent of thread count and crash boundaries.
                    obsv::tracer::set_stream(trace_base + (base + s.lane) as u64);
                    obsv::tracer::begin_stop(step);
                    obsv::tracer::emit(obsv::TraceEvent::StopCost {
                        threshold_b: s.threshold,
                        stop_s: s.stop,
                        online_s: s.online,
                        offline_s: s.offline,
                        restarted: !s.threshold.is_infinite() && s.stop >= s.threshold,
                    });
                }
            },
        )?;
    }
    engine.flush();
    Ok(())
}

/// Where the wall time of one [`PersistentFleet::run_block_decided_timed`]
/// call went, and whether its snapshot failed. Measurement-only: state
/// evolution, journal bytes, and the canonical trace are identical
/// whether or not a caller looks at this.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockTiming {
    /// Journal buffered-write seconds (see [`AppendTiming::write_s`]).
    pub journal_write_s: f64,
    /// Journal `sync_data` seconds (see [`AppendTiming::sync_s`]).
    pub journal_sync_s: f64,
    /// Decision-engine seconds for the block.
    pub decide_s: f64,
    /// Workers the engine ran the block on: 1 (the calling thread
    /// alone) unless the block is large enough to pay for a fan-out
    /// (see [`skirental::parallel::plan_workers`]).
    pub workers: usize,
    /// Whether this block crossed a snapshot boundary and snapshotted.
    pub snapshotted: bool,
    /// Why the snapshot this block was due for failed. The block itself
    /// was journaled and decided all the same; the next boundary tries
    /// again.
    pub snapshot_error: Option<PersistError>,
}

/// A [`FleetRunner`] wrapped with crash safety: a write-ahead journal of
/// every observation and periodic full snapshots.
pub struct PersistentFleet {
    runner: FleetRunner,
    journal: Journal,
    snapshot_path: PathBuf,
    /// Snapshot cadence in steps (`0` = never snapshot automatically).
    snapshot_every: u64,
    /// Engine step of the most recent snapshot (0 if none yet — a fresh
    /// fleet's implicit snapshot is its empty initial state).
    last_snapshot_step: u64,
    /// `journal.frames_written()` at the most recent snapshot; the
    /// difference to the current frame count is the replay debt a crash
    /// right now would incur.
    frames_at_snapshot: u64,
}

/// The journal file's name inside a persistence directory.
pub const JOURNAL_FILE: &str = "fleet.journal";

/// The snapshot file's name inside a persistence directory.
pub const SNAPSHOT_FILE: &str = "fleet.snapshots";

impl PersistentFleet {
    /// Starts a fresh persistent fleet in `dir` (created if missing),
    /// truncating any previous journal/snapshot files there.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failure, or the
    /// [`FleetRunner::new`] errors.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn create(
        dir: &Path,
        config: &FleetConfig,
        threads: usize,
        snapshot_every: u64,
    ) -> Result<Self, PersistError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        let runner = FleetRunner::new(config, threads)?;
        let journal = Journal::create(&dir.join(JOURNAL_FILE), config)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        if snapshot_path.exists() {
            std::fs::remove_file(&snapshot_path).map_err(|e| io_err(&snapshot_path, &e))?;
        }
        let frames_at_snapshot = journal.frames_written();
        Ok(Self {
            runner,
            journal,
            snapshot_path,
            snapshot_every,
            last_snapshot_step: 0,
            frames_at_snapshot,
        })
    }

    /// Recovers a persistent fleet from `dir`: latest valid snapshot
    /// plus journal-tail replay (see [`crate::recovery::recover_fleet`]).
    /// The journal is truncated to its clean prefix and reopened for
    /// appending, so processing continues where the journal ends.
    ///
    /// # Errors
    ///
    /// Everything [`crate::recovery::recover_fleet`] can return.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn recover(
        dir: &Path,
        config: &FleetConfig,
        threads: usize,
        snapshot_every: u64,
    ) -> Result<(Self, RecoveryOutcome), PersistError> {
        let journal_path = dir.join(JOURNAL_FILE);
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let (runner, outcome) = recover_fleet(&journal_path, &snapshot_path, config, threads)?;
        let journal =
            Journal::reopen(&journal_path, config, outcome.resumed_step, outcome.journal_frames)?;
        // The replayed tail is exactly the frames the last snapshot had
        // not yet covered, so the post-recovery replay debt starts where
        // the snapshot left it.
        let frames_at_snapshot = outcome.journal_frames.saturating_sub(outcome.frames_replayed);
        let fleet = Self {
            runner,
            journal,
            snapshot_path,
            snapshot_every,
            last_snapshot_step: outcome.snapshot_step,
            frames_at_snapshot,
        };
        Ok((fleet, outcome))
    }

    /// Journals a block of steps, then processes it — in that order, so
    /// the journal is a redo log: a crash at any instant between the two
    /// loses nothing. Crossing a `snapshot_every` boundary triggers a
    /// snapshot after the block.
    ///
    /// The journal checks the whole block (width, finite and `>= 0`
    /// stops) before it writes a byte, so a rejected block leaves the
    /// journal and the runner untouched and the next block goes through.
    ///
    /// # Errors
    ///
    /// The [`FleetRunner::run_block`] validation errors
    /// ([`PersistError::BadPayload`], [`PersistError::Engine`]) with
    /// nothing written, or journal append errors: [`PersistError::Io`]
    /// when a write or flush fails, and [`PersistError::JournalPoisoned`]
    /// (nothing written) for every block after that.
    pub fn run_block(&mut self, rows: &[Vec<f64>], emit: bool) -> Result<(), PersistError> {
        self.run_block_decided(rows, emit).map(|_| ())
    }

    /// [`PersistentFleet::run_block`] that returns the block's captured
    /// decisions (see [`FleetRunner::run_block_decided`]) — the serving
    /// path: journal first, decide, reply.
    ///
    /// # Errors
    ///
    /// Journal append errors ([`PersistError::Io`] among them) or the
    /// [`FleetRunner::run_block`] errors.
    pub fn run_block_decided(
        &mut self,
        rows: &[Vec<f64>],
        emit: bool,
    ) -> Result<BlockDecisions, PersistError> {
        self.run_block_decided_timed(rows, emit).map(|(decisions, _)| decisions)
    }

    /// [`PersistentFleet::run_block_decided`] that also reports the
    /// block's wall-time split (journal write, fsync, engine decide).
    /// The clock reads bracket existing calls — they never change what
    /// is journaled, decided, or traced.
    ///
    /// A failed snapshot does not fail the block, which is journaled and
    /// decided by then: it is reported in
    /// [`BlockTiming::snapshot_error`] instead.
    ///
    /// # Errors
    ///
    /// Same as [`PersistentFleet::run_block_decided`].
    pub fn run_block_decided_timed(
        &mut self,
        rows: &[Vec<f64>],
        emit: bool,
    ) -> Result<(BlockDecisions, BlockTiming), PersistError> {
        let before = self.runner.step();
        let AppendTiming { write_s, sync_s } = self.journal.append_block_timed(before, rows)?;
        crate::obs::metrics().journal_frames.add(rows.len() as u64);
        let decide_start = std::time::Instant::now();
        let (decisions, workers) = self.runner.run_checked_block_decided(rows, emit)?;
        let decide_s = decide_start.elapsed().as_secs_f64();
        let after = self.runner.step();
        let mut timing = BlockTiming {
            journal_write_s: write_s,
            journal_sync_s: sync_s,
            decide_s,
            workers,
            ..BlockTiming::default()
        };
        if self.snapshot_every > 0 && after / self.snapshot_every > before / self.snapshot_every {
            match self.snapshot() {
                Ok(()) => timing.snapshotted = true,
                Err(e) => timing.snapshot_error = Some(e),
            }
        }
        Ok((decisions, timing))
    }

    /// Takes a snapshot of the current state now, appending it and its
    /// [`Checkpoint`] (the journal's length now, and the lanes' risk
    /// digests) to the snapshot file, and emitting a checkpoint trace
    /// event (on the configuration's meta stream) plus `persist.*`
    /// counters.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failure, also counted in
    /// `persist.snapshot_failures`, or [`PersistError::JournalPoisoned`]
    /// (nothing written) once a journal append has failed: the
    /// checkpoint would name a journal offset that may not hold.
    pub fn snapshot(&mut self) -> Result<(), PersistError> {
        self.journal.check_writable()?;
        let state = self.runner.export_state();
        let checkpoint = Checkpoint {
            step: state.step,
            journal_offset: self.journal.bytes_written(),
            journal_frames: self.journal.frames_written(),
            risk: Some(self.runner.risk_digests()),
        };
        let bytes = append_frames(&self.snapshot_path, &state, Some(&checkpoint)).map_err(|e| {
            crate::obs::snapshot_failures().inc();
            e
        })?;
        let m = crate::obs::metrics();
        m.snapshots_written.inc();
        m.snapshot_bytes.add(bytes);
        if obsv::tracer::observing() {
            obsv::tracer::set_stream(self.runner.config.meta_stream());
            obsv::tracer::begin_stop(state.step);
            obsv::tracer::emit(obsv::TraceEvent::Checkpoint {
                step: state.step,
                lanes: state.config.lanes as u64,
                journal_frames: self.journal.frames_written(),
                bytes,
            });
        }
        self.last_snapshot_step = state.step;
        self.frames_at_snapshot = self.journal.frames_written();
        Ok(())
    }

    /// The wrapped runner.
    #[must_use]
    pub fn runner(&self) -> &FleetRunner {
        &self.runner
    }

    /// The journal handle.
    #[must_use]
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Engine step of the most recent snapshot (0 if none yet).
    #[must_use]
    pub fn last_snapshot_step(&self) -> u64 {
        self.last_snapshot_step
    }

    /// Journal frames appended since the most recent snapshot — the
    /// replay debt a crash right now would incur.
    #[must_use]
    pub fn frames_since_snapshot(&self) -> u64 {
        self.journal.frames_written().saturating_sub(self.frames_at_snapshot)
    }

    /// Engine ticks (steps) since the most recent snapshot.
    #[must_use]
    pub fn snapshot_age_steps(&self) -> u64 {
        self.runner.step().saturating_sub(self.last_snapshot_step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(lanes: usize, window: Option<usize>) -> FleetConfig {
        FleetConfig {
            lanes,
            break_even: 28.0,
            window,
            min_history: 4,
            seed: 20_140_601,
            trace_stream_base: 0,
        }
    }

    /// Deterministic synthetic stop rows (no RNG: persistence tests pin
    /// bytes, so the inputs must be reproducible from arithmetic alone).
    fn rows(lanes: usize, steps: usize, phase: u64) -> Vec<Vec<f64>> {
        (0..steps)
            .map(|t| {
                (0..lanes)
                    .map(|i| {
                        let k = (phase + t as u64 * 31 + i as u64 * 7) % 97;
                        0.5 + (k as f64) * 0.9
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn thread_count_does_not_change_state() {
        let config = cfg(7, Some(5));
        let block = rows(7, 40, 3);
        let mut a = FleetRunner::new(&config, 1).unwrap();
        let mut b = FleetRunner::new(&config, 3).unwrap();
        a.run_block(&block, false).unwrap();
        b.run_block(&block, false).unwrap();
        let (sa, sb) = (a.export_state(), b.export_state());
        assert_eq!(sa, sb);
        assert_eq!(crate::state::encode_fleet_state(&sa), crate::state::encode_fleet_state(&sb));
    }

    #[test]
    fn export_restore_replay_is_bit_identical() {
        let config = cfg(5, None);
        let block = rows(5, 60, 11);
        // Uninterrupted reference.
        let mut whole = FleetRunner::new(&config, 2).unwrap();
        whole.run_block(&block, false).unwrap();
        // Cut at step 23, export, restore at a different thread count,
        // replay the tail.
        let mut first = FleetRunner::new(&config, 1).unwrap();
        first.run_block(&block[..23], false).unwrap();
        let mid = first.export_state();
        let mut resumed = FleetRunner::from_state(&mid, 4).unwrap();
        resumed.run_block(&block[23..], false).unwrap();
        assert_eq!(
            crate::state::encode_fleet_state(&whole.export_state()),
            crate::state::encode_fleet_state(&resumed.export_state())
        );
    }

    #[test]
    fn run_block_rejects_bad_rows_without_mutation() {
        let config = cfg(3, None);
        let mut r = FleetRunner::new(&config, 1).unwrap();
        let before = crate::state::encode_fleet_state(&r.export_state());
        assert!(matches!(
            r.run_block(&[vec![1.0, 2.0]], false),
            Err(PersistError::BadPayload { .. })
        ));
        assert!(matches!(
            r.run_block(&[vec![1.0, f64::NAN, 2.0]], false),
            Err(PersistError::Engine(_))
        ));
        assert_eq!(before, crate::state::encode_fleet_state(&r.export_state()));
        assert_eq!(r.step(), 0);
    }

    #[test]
    fn persistent_fleet_writes_journal_and_snapshots() {
        let dir = std::env::temp_dir()
            .join("fleetstate-runner-tests")
            .join(format!("persist-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = cfg(4, Some(6));
        let mut fleet = PersistentFleet::create(&dir, &config, 2, 16).unwrap();
        for chunk in rows(4, 48, 5).chunks(8) {
            fleet.run_block(chunk, false).unwrap();
        }
        assert_eq!(fleet.runner().step(), 48);
        assert_eq!(fleet.journal().steps_recorded(), 48);
        // Snapshot-age accounting: the last block crossed the 48
        // boundary, so the replay debt is zero right now.
        assert_eq!(fleet.last_snapshot_step(), 48);
        assert_eq!(fleet.snapshot_age_steps(), 0);
        assert_eq!(fleet.frames_since_snapshot(), 0);
        assert_eq!(
            fleet.journal().bytes_written(),
            std::fs::read(dir.join(JOURNAL_FILE)).unwrap().len() as u64
        );
        let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let parsed = crate::journal::parse_journal(&bytes).unwrap();
        assert_eq!(parsed.steps.len(), 48);
        let snaps = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        let scan = crate::snapshot::scan_snapshots(&snaps, &config);
        assert_eq!(scan.states.iter().map(|s| s.step).collect::<Vec<_>>(), vec![16, 32, 48]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decided_run_matches_plain_run_at_any_thread_count() {
        let config = cfg(9, Some(6));
        let block = rows(9, 30, 17);
        let mut plain = FleetRunner::new(&config, 2).unwrap();
        plain.run_block(&block, false).unwrap();
        let mut one = FleetRunner::new(&config, 1).unwrap();
        let d1 = one.run_block_decided(&block, false).unwrap();
        let mut four = FleetRunner::new(&config, 4).unwrap();
        let d4 = four.run_block_decided(&block, false).unwrap();
        // Capturing decisions changes nothing about the state evolution,
        // and the captured decisions are thread-count-independent.
        assert_eq!(
            crate::state::encode_fleet_state(&plain.export_state()),
            crate::state::encode_fleet_state(&one.export_state())
        );
        assert_eq!(
            crate::state::encode_fleet_state(&one.export_state()),
            crate::state::encode_fleet_state(&four.export_state())
        );
        assert_eq!(d1, d4);
        assert_eq!(d1.steps(), 30);
        assert_eq!(d1.lanes(), 9);
        assert_eq!(d1.thresholds().len(), 9 * 30);
        // Cold-start decisions (min_history 4) are the B fallback.
        assert_eq!(d1.vertex(0, 0), VertexKind::ColdStart);
        for t in 0..30 {
            for lane in 0..9 {
                let x = d1.threshold(lane, t);
                assert!(x.is_infinite() || x >= 0.0);
            }
        }
        // Past min_history the engine leaves cold start.
        assert_ne!(d1.vertex(0, 29), VertexKind::ColdStart);
    }

    #[test]
    fn persistent_decided_run_journals_and_matches() {
        let dir = std::env::temp_dir()
            .join("fleetstate-runner-tests")
            .join(format!("decided-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = cfg(5, Some(6));
        let block = rows(5, 24, 9);
        let mut reference = FleetRunner::new(&config, 1).unwrap();
        let want = reference.run_block_decided(&block, false).unwrap();

        let mut fleet = PersistentFleet::create(&dir, &config, 2, 0).unwrap();
        let mut got_thresholds = Vec::new();
        for chunk in block.chunks(8) {
            let (d, timing) = fleet.run_block_decided_timed(chunk, false).unwrap();
            assert!(timing.journal_write_s >= 0.0 && timing.journal_sync_s >= 0.0);
            assert!(timing.decide_s >= 0.0);
            assert!(!timing.snapshotted, "snapshot_every 0 never snapshots");
            got_thresholds.push(d);
        }
        assert_eq!(fleet.journal().steps_recorded(), 24);
        // No snapshot ever: the whole journal is replay debt.
        assert_eq!(fleet.frames_since_snapshot(), 24);
        assert_eq!(fleet.snapshot_age_steps(), 24);
        // Reassemble the chunked decisions lane-major and compare.
        for lane in 0..5 {
            let mut t_global = 0usize;
            for d in &got_thresholds {
                for t in 0..d.steps() {
                    assert_eq!(want.threshold(lane, t_global).to_bits(), {
                        d.threshold(lane, t).to_bits()
                    });
                    assert_eq!(want.vertex(lane, t_global), d.vertex(lane, t));
                    t_global += 1;
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_snapshot_is_reported_and_retried_at_the_next_boundary() {
        let dir = std::env::temp_dir()
            .join("fleetstate-runner-tests")
            .join(format!("snapshot-fails-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = cfg(3, Some(4));
        let block = rows(3, 12, 2);
        let mut fleet = PersistentFleet::create(&dir, &config, 1, 4).unwrap();
        std::fs::create_dir(dir.join(SNAPSHOT_FILE)).unwrap();
        let (_, timing) = fleet.run_block_decided_timed(&block[..5], false).unwrap();
        assert!(!timing.snapshotted);
        assert!(matches!(timing.snapshot_error, Some(PersistError::Io { .. })));
        assert_eq!((fleet.runner().step(), fleet.last_snapshot_step()), (5, 0));
        // The cadence is unchanged: the next boundary tries again.
        std::fs::remove_dir(dir.join(SNAPSHOT_FILE)).unwrap();
        let (_, timing) = fleet.run_block_decided_timed(&block[5..7], false).unwrap();
        assert_eq!((timing.snapshotted, timing.snapshot_error), (false, None));
        let (_, timing) = fleet.run_block_decided_timed(&block[7..], false).unwrap();
        assert_eq!((timing.snapshotted, timing.snapshot_error), (true, None));
        assert_eq!(fleet.last_snapshot_step(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Once the journal fails an append, the fleet neither decides nor
    /// snapshots again: both return the poison error, write nothing and
    /// leave the runner where the failure found it.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_poisoned_journal_stops_blocks_and_snapshots() {
        let dir = std::env::temp_dir()
            .join("fleetstate-runner-tests")
            .join(format!("poisoned-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = cfg(3, Some(4));
        let block = rows(3, 6, 5);
        let mut fleet = PersistentFleet::create(&dir, &config, 1, 2).unwrap();
        fleet.run_block(&block[..2], false).unwrap();
        let snapshot_len = || std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len();
        let snapshots = snapshot_len();
        let (step, frames) = (fleet.runner().step(), fleet.journal().frames_written());
        fleet.journal = Journal::reopen(Path::new("/dev/full"), &config, step, frames).unwrap();
        let state = crate::encode_fleet_state(&fleet.runner().export_state());

        assert!(matches!(fleet.run_block(&block[2..4], false), Err(PersistError::Io { .. })));
        let poisoned = |r| matches!(r, Err(PersistError::JournalPoisoned { .. }));
        assert!(poisoned(fleet.run_block(&block[2..4], false)));
        assert!(poisoned(fleet.snapshot()));
        assert_eq!(fleet.runner().step(), step);
        assert_eq!(crate::encode_fleet_state(&fleet.runner().export_state()), state);
        assert_eq!(snapshot_len(), snapshots);
        assert_eq!(fleet.last_snapshot_step(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_config_rejects_degenerate_fleets() {
        let bad_lanes = FleetConfig { lanes: 0, ..cfg(1, None) };
        assert!(FleetRunner::new(&bad_lanes, 1).is_err());
        let bad_window = FleetConfig { window: Some(0), ..cfg(1, None) };
        assert!(FleetRunner::new(&bad_window, 1).is_err());
        let bad_b = FleetConfig { break_even: -1.0, ..cfg(1, None) };
        assert!(matches!(FleetRunner::new(&bad_b, 1), Err(PersistError::Engine(_))));
    }
}
