//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The workspace builds without network access, so `criterion` is
//! `[patch.crates-io]`-ed to this implementation of the API subset the
//! benches use: [`Criterion`], [`black_box`], [`BenchmarkId`], benchmark
//! groups with `bench_function` / `bench_with_input` / `sample_size` /
//! `throughput` ([`Throughput::Bytes`] only), and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement model: each benchmark is warmed up for ~50 ms, then timed
//! in batches until ~300 ms of samples accumulate; the median batch
//! ns/iter is reported to stdout as
//! `group/name  time: <median> ns/iter (min .. max)`. That is deliberately
//! simpler than criterion's bootstrapped analysis but more than enough to
//! compare a naive path against an optimized one on the same machine.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

const WARMUP: Duration = Duration::from_millis(50);
const MEASURE: Duration = Duration::from_millis(300);
const BATCHES: usize = 24;

/// Identifier for a parameterized benchmark, rendered as `name/param`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates `name/param`.
    pub fn new<P: fmt::Display>(name: &str, param: P) -> Self {
        Self { id: format!("{name}/{param}") }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Work done per iteration, reported as a rate next to the time.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration; reported as GiB/s.
    Bytes(u64),
}

/// The timing loop handed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    /// Collected per-iteration nanosecond samples (one per batch).
    samples: Vec<f64>,
}

impl Bencher {
    /// Runs `f` repeatedly: warmup, then timed batches.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warmup while estimating a batch size that lasts ≈ MEASURE/BATCHES.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < WARMUP || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let batch = ((MEASURE.as_secs_f64() / BATCHES as f64 / per_iter).ceil() as u64).max(1);

        let deadline = Instant::now() + MEASURE;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = t0.elapsed().as_secs_f64();
            self.samples.push(dt * 1e9 / batch as f64);
            if Instant::now() >= deadline && self.samples.len() >= 3 {
                break;
            }
        }
    }
}

fn report(label: &str, samples: &mut [f64], throughput: Option<Throughput>) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = samples[samples.len() / 2];
    let min = samples[0];
    let max = samples[samples.len() - 1];
    let rate = match throughput {
        Some(Throughput::Bytes(n)) => {
            format!("  thrpt: {:.2} GiB/s", n as f64 / median / 1.073_741_824)
        }
        None => String::new(),
    };
    println!("{label:<56} time: {median:>12.1} ns/iter  ({min:.1} .. {max:.1}){rate}");
}

/// A named collection of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the stand-in sizes batches by time.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Sets the work per iteration for the benchmarks that follow.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<ID: fmt::Display, F>(&mut self, id: ID, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher { samples: Vec::new() };
        f(&mut bencher);
        let label = format!("{}/{}", self.name, id);
        if bencher.samples.is_empty() {
            println!("{label:<56} time: (no samples)");
        } else {
            report(&label, &mut bencher.samples, self.throughput);
        }
        self
    }

    /// Runs one parameterized benchmark in the group.
    pub fn bench_with_input<ID: fmt::Display, I: ?Sized, F>(
        &mut self,
        id: ID,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (no-op beyond API compatibility).
    pub fn finish(&mut self) {}
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), throughput: None, _parent: self }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher { samples: Vec::new() };
        f(&mut bencher);
        if bencher.samples.is_empty() {
            println!("{name:<56} time: (no samples)");
        } else {
            report(name, &mut bencher.samples, None);
        }
        self
    }

    /// Accepted for API compatibility with `criterion_main!`'s default.
    #[must_use]
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn final_summary(&mut self) {}
}

/// Declares a function that runs the listed benchmark functions in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` for a `harness = false` bench binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` forwards harness flags (e.g. `--bench`); they
            // carry no information for this stand-in.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("mc", 128).to_string(), "mc/128");
    }

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("demo");
        let mut ran = false;
        g.bench_function("noop", |b| {
            ran = true;
            b.iter(|| black_box(1 + 1));
        });
        g.finish();
        assert!(ran);
    }
}
