//! Measurement plumbing shared by every workload: seeded inputs, order
//! statistics, the span recorder, and process memory.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// SplitMix64 over a seed and a per-use salt: every input the benchmark
/// feeds the program comes from one of these, so a seed fixes the inputs.
pub struct Inputs {
    state: u64,
}

impl Inputs {
    pub fn new(seed: u64, salt: u64) -> Self {
        Self { state: seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform on `[0, 1)` with 53 random mantissa bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// One time-major block (`rows[t][lane]`) of stop lengths, uniform on
    /// `[0, 120)` s: about three quarters fall below the 28 s break-even,
    /// which keeps all four policy vertices live.
    pub fn block(&mut self, steps: usize, lanes: usize) -> Vec<Vec<f64>> {
        (0..steps).map(|_| (0..lanes).map(|_| 120.0 * self.uniform()).collect()).collect()
    }
}

/// Nearest-rank quantile (`q` in `[0, 1]`) of unsorted samples; 0 when
/// there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// CPU time the hypervisor gave to other guests while this one's CPUs
/// wanted to run (`steal` in `/proc/stat`), in clock ticks summed over
/// CPUs; 0 where the kernel does not report it.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Linux reports CPU times in clock ticks of 1/100 s.
const TICKS_PER_S: f64 = 100.0;

/// Share of the machine's CPU time the host stole over `wall` seconds in
/// which the steal counter advanced by `ticks`.
fn steal_share(ticks: u64, wall: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    (ticks as f64 / (TICKS_PER_S * cpus * wall.max(1e-9))).min(0.9)
}

/// Times `f` and scales the time by one minus the share of CPU time the
/// host stole meanwhile — how set-up reps are timed (see [`OpLog`]).
pub fn time_unstolen<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (start, ticks) = (Instant::now(), steal_ticks());
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    (out, wall * (1.0 - steal_share(steal_ticks().saturating_sub(ticks), wall)))
}

/// Consecutive operations of a run and the share of the machine's CPU
/// time the host stole while they ran.
struct Window {
    end: usize,
    steal: f64,
}

/// A run's operation times in run order, cut into windows of
/// `per_window` operations, each tagged with the host's CPU steal.
///
/// On a shared host, other tenants take CPU in bursts of seconds to
/// minutes — up to a third of CPU time on the 2-vCPU VM this benchmark
/// was built on — and such bursts moved whole-run medians by up to 80 %
/// from one run to the next. Window medians grew with the window's steal
/// share, faster than in proportion to it. The bounded metrics therefore
/// come from the windows with the least steal, each operation scaled
/// down by its window's steal share (see [`OpLog::calm`]).
pub struct OpLog {
    ops: Vec<f64>,
    per_window: usize,
    windows: Vec<Window>,
    /// When the open window started, and the steal counter then.
    open: Option<(Instant, u64)>,
    /// When the first window opened, and the steal counter then.
    first: Option<(Instant, u64)>,
}

impl OpLog {
    pub fn new(per_window: usize) -> Self {
        Self {
            ops: Vec::new(),
            per_window: per_window.max(1),
            windows: Vec::new(),
            open: None,
            first: None,
        }
    }

    fn window_start(&self) -> usize {
        self.windows.last().map_or(0, |w| w.end)
    }

    /// Call before every operation: closes the open window once it holds
    /// `per_window` operations and opens the next.
    pub fn before_op(&mut self) {
        if self.open.is_some() && self.ops.len() - self.window_start() < self.per_window {
            return;
        }
        self.close();
        let now = (Instant::now(), steal_ticks());
        self.first.get_or_insert(now);
        self.open = Some(now);
    }

    pub fn push(&mut self, secs: f64) {
        self.ops.push(secs);
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    fn close(&mut self) {
        if let Some((since, steal0)) = self.open.take() {
            if self.ops.len() > self.window_start() {
                let ticks = steal_ticks().saturating_sub(steal0);
                let steal = steal_share(ticks, since.elapsed().as_secs_f64());
                self.windows.push(Window { end: self.ops.len(), steal });
            }
        }
    }

    /// The operations of the calmest windows — every window that saw no
    /// steal, and at least the quarter of the windows with the least —
    /// each scaled by one minus its window's steal share; and how many
    /// windows that is.
    fn calm(&self) -> (Vec<f64>, usize) {
        let mut starts = vec![0];
        starts.extend(self.windows.iter().map(|w| w.end));
        let mut order: Vec<usize> = (0..self.windows.len()).collect();
        order.sort_by(|&a, &b| self.windows[a].steal.total_cmp(&self.windows[b].steal));
        let quiet = self.windows.iter().filter(|w| w.steal == 0.0).count();
        let keep = quiet.max(self.windows.len().div_ceil(4));
        let ops = order[..keep]
            .iter()
            .flat_map(|&i| {
                let w = &self.windows[i];
                self.ops[starts[i]..w.end].iter().map(move |op| op * (1.0 - w.steal))
            })
            .collect();
        (ops, keep)
    }

    /// Records the end-to-end timing metrics: the median of the calmest
    /// windows' steal-scaled operation times, and throughput at that
    /// median (work per operation over it). The whole run's p99 is the
    /// per-layer figure `op.p99_us`; the summary also prints the whole
    /// run's raw median, mean throughput and steal share.
    pub fn record(mut self, out: &mut crate::Outcome, work_per_op: f64) {
        self.close();
        let (calm, kept) = self.calm();
        let p50 = median(&calm);
        out.e2e.insert("decisions_per_s", work_per_op / p50);
        out.e2e.insert("op_p50_us", p50 * 1e6);
        let ops = &self.ops;
        let p99 = quantile(ops, 0.99);
        out.layers.insert("op.p99_us", p99 * 1e6);
        let beyond = ops.iter().filter(|&&x| x > p99).count();
        let steal = self.first.map_or(0.0, |(t, ticks)| {
            steal_share(steal_ticks().saturating_sub(ticks), t.elapsed().as_secs_f64())
        });
        out.notes.push(format!(
            "{} timed operations in {} windows, {} operations in the calmest {kept}; whole run: \
             p50 {:.3} us, p99 {:.3} us ({beyond} beyond it), mean throughput {:.1}/s; \
             host CPU steal {:.1} %",
            ops.len(),
            self.windows.len(),
            calm.len(),
            median(ops) * 1e6,
            p99 * 1e6,
            work_per_op * ops.len() as f64 / ops.iter().sum::<f64>(),
            100.0 * steal
        ));
    }
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One timed call into a layer. Spans of one operation share `op`; the
/// operation's root span (the one with no parent) covers its children.
struct Span {
    op: u64,
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Times calls into the program's layers. Always returns the elapsed
/// time; records the span (kept in memory, written at the end) only when
/// tracing is on.
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    op: u64,
    root: Option<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self { on, t0: Instant::now(), spans: Vec::new(), op: 0, root: None }
    }

    pub fn tracing(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens operation `op`: later spans share its id and hang under its
    /// root span `name` until [`Spans::end_op`].
    pub fn begin_op(&mut self, op: u64, name: &'static str) {
        self.op = op;
        if self.on {
            let id = self.spans.len();
            let start_ns = self.now_ns();
            self.spans.push(Span { op, id, parent: None, name, start_ns, end_ns: start_ns });
            self.root = Some(id);
        }
    }

    pub fn end_op(&mut self) {
        if let Some(root) = self.root.take() {
            self.spans[root].end_ns = self.now_ns();
        }
    }

    /// Runs `f` as a span named after the layer call it wraps; returns
    /// its result and the elapsed seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.on {
            let start_ns = (start - self.t0).as_nanos() as u64;
            let end_ns = (end - self.t0).as_nanos() as u64;
            let id = self.spans.len();
            self.spans.push(Span { op: self.op, id, parent: self.root, name, start_ns, end_ns });
        }
        (out, (end - start).as_secs_f64())
    }

    /// Total seconds and count of the recorded spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + (s.end_ns - s.start_ns) as f64 * 1e-9, n + 1))
    }

    /// Mean duration of the spans named `name`, µs (0 if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (total, n) = self.total(name);
        if n == 0 {
            0.0
        } else {
            total / n as f64 * 1e6
        }
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
