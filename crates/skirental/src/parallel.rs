//! Deterministic chunked map-reduce on scoped OS threads (std-only).
//!
//! The fleet experiments are embarrassingly parallel over vehicles,
//! bootstrap resamples, and sweep grid points, but each call site used to
//! hand-roll its own `std::thread::scope` sharding. This module extracts
//! that pattern once, with two guarantees the experiments rely on:
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
//! Work is split into `ceil(n / threads)`-sized contiguous chunks, one
//! scoped thread per chunk (no work stealing — the per-item cost in this
//! codebase is uniform enough that static sharding is within noise of a
//! dynamic queue, and it keeps the module dependency-free). Small inputs
//! (`n < 2·threads`) skip thread spawning entirely.
//!
//! When the [`obsv::global`] registry is enabled, each call records chunk
//! wall times (`skirental.parallel.chunk_seconds`), item/chunk counters,
//! and a thread-utilization gauge (busy time over `threads × wall`).
//! Instrumentation never touches the per-item computation, so the
//! bit-identical guarantee is unaffected; with the registry disabled the
//! overhead is a handful of relaxed atomic loads per call.

use crate::obs;
use std::time::Instant;

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
/// With `threads == 1` (or an input too small to shard) the map runs
/// serially on the caller's thread and short-circuits at the first error;
/// the sharded path evaluates every chunk but still reports the
/// earliest-indexed error, so the observable `Err` value is independent
/// of the thread count.
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
    assert!(threads > 0, "need at least one thread");
    let m = obs::metrics();
    m.parallel_calls.inc();
    m.parallel_items.add(items.len() as u64);
    if threads == 1 || items.len() < 2 * threads {
        m.parallel_serial_calls.inc();
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    m.parallel_chunks.add(items.len().div_ceil(chunk) as u64);
    m.parallel_threads.set(threads as f64);
    // Utilization = Σ chunk busy time / (threads × wall). Busy time goes
    // through a shared counter so concurrent calls stay approximately
    // right; the clock is only read when the registry is enabled.
    let instrumented = m.parallel_calls.is_enabled();
    let busy_before = m.parallel_busy_micros.get();
    let wall_start = instrumented.then(Instant::now);
    let shards: Vec<Result<Vec<R>, E>> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, shard)| {
                scope.spawn(move || {
                    let chunk_start = instrumented.then(Instant::now);
                    let out = shard
                        .iter()
                        .enumerate()
                        .map(|(i, item)| f(ci * chunk + i, item))
                        .collect::<Result<Vec<R>, E>>();
                    if let Some(start) = chunk_start {
                        let secs = start.elapsed().as_secs_f64();
                        m.parallel_chunk_seconds.record_seconds(secs);
                        m.parallel_busy_micros.add((secs * 1e6) as u64);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    if let Some(start) = wall_start {
        let wall = start.elapsed().as_secs_f64();
        if wall > 0.0 {
            let busy = m.parallel_busy_micros.get().saturating_sub(busy_before) as f64 / 1e6;
            m.parallel_utilization.set(busy / (threads as f64 * wall));
        }
    }
    let mut out = Vec::with_capacity(items.len());
    for shard in shards {
        out.extend(shard?);
    }
    Ok(out)
}

/// Maps `f` over contiguous **shards** of `items` on up to `threads`
/// scoped threads, returning one result per shard in input order, or
/// the error of the shard with the earliest base index for which `f`
/// fails. `f` receives `(base, shard)` where `base` is the index of the
/// shard's first item in `items`.
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
/// With `threads == 1` the map runs serially on the caller's thread
/// (still as one shard per `ceil(n / threads)` items — i.e. a single
/// shard) and short-circuits at the first error; the threaded path
/// evaluates every shard but reports the earliest-based error, so the
/// observable `Err` is independent of the thread count **when `f`'s
/// error for a given shard layout is deterministic**.
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
    if threads == 1 || shard_count == 1 {
        m.parallel_serial_calls.inc();
        return Ok(vec![f(0, items)?]);
    }
    m.parallel_threads.set(threads as f64);
    let instrumented = m.parallel_calls.is_enabled();
    let busy_before = m.parallel_busy_micros.get();
    let wall_start = instrumented.then(Instant::now);
    let shards: Vec<Result<R, E>> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, shard)| {
                scope.spawn(move || {
                    let chunk_start = instrumented.then(Instant::now);
                    let out = f(ci * chunk, shard);
                    if let Some(start) = chunk_start {
                        let secs = start.elapsed().as_secs_f64();
                        m.parallel_chunk_seconds.record_seconds(secs);
                        m.parallel_busy_micros.add((secs * 1e6) as u64);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    if let Some(start) = wall_start {
        let wall = start.elapsed().as_secs_f64();
        if wall > 0.0 {
            let busy = m.parallel_busy_micros.get().saturating_sub(busy_before) as f64 / 1e6;
            m.parallel_utilization.set(busy / (threads as f64 * wall));
        }
    }
    shards.into_iter().collect()
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
}
