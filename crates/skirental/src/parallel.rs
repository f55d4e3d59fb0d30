//! Deterministic chunked map-reduce on scoped OS threads (std-only).
//!
//! The fleet experiments are embarrassingly parallel over vehicles,
//! bootstrap resamples, and sweep grid points, and the decision engine
//! over the lanes of a block. This module holds the one scoped fan-out
//! they all share ([`fan_out`]) and the one rule that sizes the engine's
//! ([`plan_workers`]), with two guarantees the experiments rely on:
//!
//! 1. **Input order is preserved.** Results come back in the order of the
//!    input slice regardless of which worker computed them, so downstream
//!    reductions see the same sequence a serial loop would.
//! 2. **Bit-identical output for any thread count.** Each item's result
//!    depends only on the item (and its index) — never on chunk
//!    boundaries — so `threads = 1` and `threads = 64` produce the exact
//!    same bytes. `tests/determinism.rs` locks this in for the fleet
//!    evaluator and the parallel bootstrap.
//!
//! Work is split into `ceil(n / threads)`-sized contiguous chunks (no
//! work stealing — the per-item cost in this codebase is uniform enough
//! that static sharding is within noise of a dynamic queue, and it keeps
//! the module dependency-free). The first chunk runs on the calling
//! thread and every other chunk on a scoped thread of its own, so a
//! single chunk never spawns; [`chunked_map`] runs inputs with
//! `n < 2·threads` as that single chunk.
//!
//! When the [`obsv::global`] registry is enabled, each call records chunk
//! wall times (`skirental.parallel.chunk_seconds`), item/chunk counters,
//! and a thread-utilization gauge (busy time over `threads × wall`).
//! Instrumentation never touches the per-item computation, so the
//! bit-identical guarantee is unaffected; with the registry disabled the
//! overhead is a handful of relaxed atomic loads per call.

use crate::obs;
use std::time::Instant;

/// Decisions a worker must have before the engine fans a job out to it:
/// a job of `d` decisions runs on `⌈d / W⌉` workers at most.
///
/// Read off the `perfbench` ledger on a 2-vCPU VM: one thread decides,
/// settles and observes at ≈ 65–83 ns per decision, and one scoped
/// spawn plus its join costs ≈ 36–44 µs. Splitting `d` decisions over
/// two workers saves `d/2 · (65–83 ns)`, which covers the spawn from
/// about 1000 decisions up, so `W = 1024`. A 64×1 daemon block (64
/// decisions) therefore never spawns, while a 2048×8 block (16,384)
/// still runs on two workers.
pub const DECISIONS_PER_WORKER: usize = 1024;

/// Workers for a job of `decisions` decisions over `lanes` lanes with at
/// most `threads` threads: `min(threads, lanes, ⌈decisions / W⌉)`, and
/// at least one ([`DECISIONS_PER_WORKER`] is `W`). A lane is never
/// split, so there are never more workers than lanes.
///
/// # Panics
///
/// Panics if `threads == 0`.
#[must_use]
pub fn plan_workers(lanes: usize, decisions: usize, threads: usize) -> usize {
    assert!(threads > 0, "need at least one thread");
    threads.min(lanes).min(decisions.div_ceil(DECISIONS_PER_WORKER)).max(1)
}

/// Runs `f` on every job — the first on the calling thread, each other
/// on a scoped thread of its own — and returns the results in job
/// order. One job never spawns a thread.
///
/// Every job runs to completion before this returns, so the reported
/// error does not depend on which worker failed first.
///
/// # Errors
///
/// Returns the error of the earliest job (in iteration order) for which
/// `f` fails.
///
/// # Panics
///
/// Re-raises a panic from `f`, once every job has finished.
pub fn fan_out<J, R, E, F>(jobs: impl IntoIterator<Item = J>, f: F) -> Result<Vec<R>, E>
where
    J: Send,
    R: Send,
    E: Send,
    F: Fn(J) -> Result<R, E> + Sync,
{
    std::thread::scope(|scope| {
        let f = &f;
        let mut jobs = jobs.into_iter();
        let first = jobs.next();
        let spawned: Vec<_> = jobs.map(|job| scope.spawn(move || f(job))).collect();
        let mut results = Vec::with_capacity(spawned.len() + 1);
        results.extend(first.map(f));
        results.extend(
            spawned.into_iter().map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
        );
        results.into_iter().collect()
    })
}

/// Maps `f` over `items` on up to `threads` scoped threads, returning
/// results in input order. `f` receives `(index, &item)` with `index`
/// the item's position in `items`.
///
/// # Panics
///
/// Panics if `threads == 0`, or propagates a panic from `f`.
pub fn chunked_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let res: Result<Vec<R>, std::convert::Infallible> =
        try_chunked_map(items, threads, |i, item| Ok(f(i, item)));
    match res {
        Ok(v) => v,
        Err(e) => match e {},
    }
}

/// Fallible variant of [`chunked_map`]: maps `f` over `items` and returns
/// the first error in **input order**, or all results in input order.
///
/// [`try_shard_map`] with one `f` call per item of each shard; an input
/// with fewer than two items per thread runs as a single shard on the
/// caller's thread. Each shard short-circuits at its first error and
/// the earliest shard's error is reported, so the observable `Err` value
/// is independent of the thread count.
///
/// # Errors
///
/// Returns the error of the earliest-indexed item for which `f` fails.
///
/// # Panics
///
/// Panics if `threads == 0`, or propagates a panic from `f`.
pub fn try_chunked_map<T, R, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let threads = if items.len() < 2 * threads { 1 } else { threads };
    let shards = try_shard_map(items, threads, |base, shard| {
        shard.iter().enumerate().map(|(i, item)| f(base + i, item)).collect::<Result<Vec<R>, E>>()
    })?;
    Ok(shards.into_iter().flatten().collect())
}

/// Maps `f` over contiguous **shards** of `items` on up to `threads`
/// workers ([`fan_out`]), returning one result per shard in input
/// order, or the error of the shard with the earliest base index for
/// which `f` fails. `f` receives `(base, shard)` where `base` is the
/// index of the shard's first item in `items`.
///
/// Unlike [`chunked_map`], which calls `f` once per item and therefore
/// shards *items*, this shards *calls*: callers that amortize work
/// across a whole shard (the batched decision engine flushes metrics
/// and evaluates its SoA kernel per shard, not per vehicle) get one
/// `f` invocation per chunk. The shard layout — `ceil(n / threads)`
/// items per shard — is the same as [`chunked_map`]'s, and results
/// concatenate in input order. Bit-identical output across thread
/// counts is the *caller's* responsibility: `f` must derive per-item
/// state from global indices (`base + i`), never from shard boundaries.
///
/// Every shard runs to completion and the earliest-based error is
/// reported, so the observable `Err` is independent of the thread count
/// **when `f`'s error for a given shard layout is deterministic**.
///
/// # Errors
///
/// Returns the error of the earliest-based shard for which `f` fails.
///
/// # Panics
///
/// Panics if `threads == 0`, or propagates a panic from `f`.
pub fn try_shard_map<T, R, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &[T]) -> Result<R, E> + Sync,
{
    assert!(threads > 0, "need at least one thread");
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let m = obs::metrics();
    m.parallel_calls.inc();
    m.parallel_items.add(items.len() as u64);
    let chunk = items.len().div_ceil(threads);
    let shard_count = items.len().div_ceil(chunk);
    m.parallel_chunks.add(shard_count as u64);
    if shard_count == 1 {
        m.parallel_serial_calls.inc();
        return Ok(vec![f(0, items)?]);
    }
    m.parallel_threads.set(threads as f64);
    // Utilization = Σ chunk busy time / (threads × wall). Busy time goes
    // through a shared counter so concurrent calls stay approximately
    // right; the clock is only read when the registry is enabled.
    let instrumented = m.parallel_calls.is_enabled();
    let busy_before = m.parallel_busy_micros.get();
    let wall_start = instrumented.then(Instant::now);
    let out = fan_out(items.chunks(chunk).enumerate(), |(ci, shard)| {
        let chunk_start = instrumented.then(Instant::now);
        let out = f(ci * chunk, shard);
        if let Some(start) = chunk_start {
            let secs = start.elapsed().as_secs_f64();
            m.parallel_chunk_seconds.record_seconds(secs);
            m.parallel_busy_micros.add((secs * 1e6) as u64);
        }
        out
    });
    if let Some(start) = wall_start {
        let wall = start.elapsed().as_secs_f64();
        if wall > 0.0 {
            let busy = m.parallel_busy_micros.get().saturating_sub(busy_before) as f64 / 1e6;
            m.parallel_utilization.set(busy / (threads as f64 * wall));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..103).collect();
        for threads in [1, 2, 4, 7, 64] {
            let out = chunked_map(&items, threads, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>(), "t={threads}");
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // Floating-point work whose result would change if chunking
        // leaked into the per-item computation.
        let items: Vec<f64> = (0..1000).map(|i| 1.0 + i as f64 * 0.37).collect();
        let reference = chunked_map(&items, 1, |i, &x| (x.sin() + i as f64).to_bits());
        for threads in [2, 3, 4, 7, 64] {
            let out = chunked_map(&items, threads, |i, &x| (x.sin() + i as f64).to_bits());
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn small_inputs_run_serially() {
        let items = [1, 2, 3];
        let out = chunked_map(&items, 64, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn error_is_earliest_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 7] {
            let res: Result<Vec<usize>, usize> =
                try_chunked_map(
                    &items,
                    threads,
                    |_, &x| {
                        if x == 13 || x == 77 {
                            Err(x)
                        } else {
                            Ok(x)
                        }
                    },
                );
            assert_eq!(res, Err(13), "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = chunked_map(&[1], 0, |_, &x: &i32| x);
    }

    #[test]
    fn empty_input_ok() {
        let out: Vec<i32> = chunked_map(&[] as &[i32], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn try_shard_map_covers_input_in_order() {
        let items: Vec<usize> = (0..103).collect();
        for threads in [1, 2, 4, 7, 64] {
            let shards = try_shard_map(&items, threads, |base, shard| {
                // Every shard sees its global base index.
                assert_eq!(shard[0], base, "t={threads}");
                Ok::<_, ()>((base, shard.to_vec()))
            })
            .unwrap();
            let flat: Vec<usize> = shards.into_iter().flat_map(|(_, s)| s).collect();
            assert_eq!(flat, items, "t={threads}");
        }
    }

    #[test]
    fn try_shard_map_empty_input_ok() {
        let out: Result<Vec<usize>, ()> = try_shard_map(&[] as &[i32], 4, |base, _| Ok(base));
        assert_eq!(out, Ok(Vec::new()));
    }

    #[test]
    fn try_shard_map_reports_earliest_shard_error() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [2, 4, 7] {
            let res: Result<Vec<()>, usize> =
                try_shard_map(&items, threads, |base, _| if base > 0 { Err(base) } else { Ok(()) });
            let first_failing_base = items.len().div_ceil(threads);
            assert_eq!(res, Err(first_failing_base), "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn try_shard_map_zero_threads_rejected() {
        let _ = try_shard_map(&[1], 0, |_, s: &[i32]| Ok::<_, ()>(s.len()));
    }

    #[test]
    fn planner_sizes_workers_from_the_work() {
        const W: usize = DECISIONS_PER_WORKER;
        // (lanes, steps, threads, workers)
        let table = [
            (64, 1, 2, 1),      // a daemon_small block never spawns
            (2048, 8, 2, 2),    // daemon_bulk keeps its two workers
            (1024, 320, 2, 2),  // a recovery tail replay too
            (W, 1, 2, 1),       // exactly W decisions: one worker
            (W + 1, 1, 2, 2),   // one more: a second pays
            (W + 1, 1, 8, 2),   // ⌈(W + 1) / W⌉ caps the threads
            (8 * W, 1, 4, 4),   // plenty of work: threads cap
            (3, 100 * W, 8, 3), // fewer lanes than threads
            (1, 10 * W, 4, 1),  // one lane is never split
            (4096, 64, 1, 1),   // threads = 1
            (5, 0, 4, 1),       // no work still runs one worker
        ];
        for (lanes, steps, threads, want) in table {
            assert_eq!(
                plan_workers(lanes, lanes * steps, threads),
                want,
                "{lanes}×{steps} at {threads} threads"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn planner_rejects_zero_threads() {
        let _ = plan_workers(64, 64, 0);
    }

    #[test]
    fn fan_out_runs_the_first_job_on_the_caller_and_keeps_order() {
        let caller = std::thread::current().id();
        let ran_on: Vec<(usize, bool)> =
            fan_out(0..5, |j| Ok::<_, ()>((j, std::thread::current().id() == caller))).unwrap();
        assert_eq!(ran_on, vec![(0, true), (1, false), (2, false), (3, false), (4, false)]);
        let one: Vec<bool> =
            fan_out([()], |()| Ok::<_, ()>(std::thread::current().id() == caller)).unwrap();
        assert_eq!(one, vec![true], "a single job never spawns");
        let none: Result<Vec<()>, ()> = fan_out(std::iter::empty::<()>(), |()| Ok(()));
        assert_eq!(none, Ok(Vec::new()));
    }

    #[test]
    fn fan_out_reports_the_earliest_error_whichever_worker_fails_first() {
        use std::sync::{Condvar, Mutex};
        // The failing jobs take turns in the listed order: each waits
        // until every job listed before it has failed. The earliest
        // *job* must be reported, and every job must run to the end.
        for failing in [[1usize, 3], [3, 1], [0, 2], [2, 0]] {
            let failed = (Mutex::new(Vec::new()), Condvar::new());
            let res: Result<Vec<usize>, usize> = fan_out(0..4usize, |j| {
                let Some(turn) = failing.iter().position(|&f| f == j) else {
                    return Ok(j);
                };
                let mut order = failed.0.lock().unwrap();
                while order.len() < turn {
                    order = failed.1.wait(order).unwrap();
                }
                order.push(j);
                failed.1.notify_all();
                Err(j)
            });
            assert_eq!(failed.0.into_inner().unwrap(), failing, "jobs failed out of turn");
            assert_eq!(res, Err(*failing.iter().min().unwrap()), "failing order {failing:?}");
        }
    }

    #[test]
    #[should_panic(expected = "worker 2 failed")]
    fn fan_out_reraises_a_workers_panic() {
        let _ = fan_out(0..4, |j| {
            assert!(j != 2, "worker {j} failed");
            Ok::<_, ()>(j)
        });
    }
}
