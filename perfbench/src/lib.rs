//! End-to-end and per-layer benchmark of the cloudalloc `solve` and
//! `serve` paths at their CLI defaults.
//!
//! Three workloads: `solve_paper` (flat `solve` on the paper's regime),
//! `solve_scale` (`solve_hierarchical` on a 10-cluster scale scenario)
//! and `serve_churn` (the TCP admission server under a churn mix). A
//! plain run measures the end-to-end metrics of one workload; a traced
//! run — built with the `telemetry` feature — measures its per-layer
//! metrics. Both check every output and print one JSON result line.

pub mod metrics;
pub mod probe;
pub mod script;
pub mod serve_wl;
pub mod solve_wl;
pub mod stats;

use std::time::Instant;

use metrics::Report;

/// Solver and engine worker threads the benchmark pins.
pub const THREADS: usize = 2;

/// Set-ups a run measures at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 51;

/// Seconds a run's set-ups span at least. One set-up takes 0.1 to 2 ms,
/// while the machine switches between two speeds every 0.1 to 1 s, so a
/// short burst of set-ups reads only the speed it had then.
pub const SETUP_SECONDS: f64 = 1.0;

/// Whether a run measures another set-up, having made `reps` since
/// `start`.
pub fn another_setup(start: Instant, reps: usize) -> bool {
    reps < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS
}

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// The plain build's median call time for the same workload and
    /// seed, in ms; a traced run reports its own median minus this.
    pub plain_p50_ms: Option<f64>,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["solve_paper", "solve_scale", "serve_churn"];

/// A tail statistic of per-call times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// A nearest-rank percentile, in whole percent.
    Percentile(u32),
    /// The slowest call: for runs too short for any percentile to have
    /// ten samples beyond it.
    Max,
}

impl Tail {
    /// The statistic over `samples`.
    pub fn of(self, samples: &[f64]) -> f64 {
        match self {
            Tail::Percentile(pct) => stats::percentile(samples, pct),
            Tail::Max => stats::max(samples),
        }
    }

    /// `p99`, `max`, …
    pub fn label(self) -> String {
        match self {
            Tail::Percentile(pct) => format!("p{pct}"),
            Tail::Max => "max".to_owned(),
        }
    }
}

/// Mixes a run seed and an index into a derived seed (splitmix64).
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whole passes a plain run makes at least. A call's time is the median
/// over the passes of the same input, so no single slow pass moves it.
pub const MIN_PASSES: usize = 3;

/// Whether a run starts another whole pass: while it has made fewer than
/// `min_passes`, then while one more pass of average length still ends
/// within `seconds`.
pub fn another_pass(start: Instant, passes: usize, seconds: f64, min_passes: usize) -> bool {
    if passes < min_passes.max(1) {
        return true;
    }
    let used = start.elapsed().as_secs_f64();
    used + used / passes as f64 <= seconds
}

/// Call times per distinct input, across the passes of a run.
#[derive(Debug, Clone)]
pub struct Samples(Vec<Vec<f64>>);

impl Samples {
    /// No samples yet for `inputs` distinct inputs.
    pub fn new(inputs: usize) -> Self {
        Self(vec![Vec::new(); inputs])
    }

    /// Records one call of input `i`.
    pub fn push(&mut self, i: usize, seconds: f64) {
        self.0[i].push(seconds);
    }

    /// Each input's median call time, in input order (inputs never called
    /// are left out).
    pub fn per_input(&self) -> Vec<f64> {
        self.0.iter().filter(|v| !v.is_empty()).map(|v| stats::median(v)).collect()
    }

    /// Calls recorded.
    pub fn calls(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    /// The tail statistic of the per-input medians: the highest
    /// percentile with ten of them beyond it, else the slowest. The input
    /// count is fixed per workload, so the choice is too.
    pub fn tail(&self) -> Tail {
        stats::tail_percentile(self.per_input().len()).map_or(Tail::Max, Tail::Percentile)
    }

    /// Records `p50_ms`, `tail_ms` and `calls_per_s` over the per-input
    /// medians.
    pub fn report(&self, report: &mut Report) {
        let per_input = self.per_input();
        report.set("p50_ms", stats::median(&per_input) * 1e3);
        report.set("tail_ms", self.tail().of(&per_input) * 1e3);
        report.set("calls_per_s", stats::ratio(per_input.len() as f64, per_input.iter().sum()));
    }
}

/// Runs `f`, returning its value and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB; `0`
/// where `/proc` does not report it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The machine's CPU time so far, from `/proc/stat`: `(busy, stolen)`
/// in clock ticks, where busy is user, system and stolen time together.
/// `None` where `/proc` does not report it.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let (user, system, steal) = (*fields.first()?, *fields.get(2)?, *fields.get(7)?);
    Some((user + system + steal, steal))
}

/// The share of the busy CPU time between two [`cpu_ticks`] readings
/// that the hypervisor gave to other guests.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    stats::ratio(after.1.saturating_sub(before.1) as f64, after.0.saturating_sub(before.0) as f64)
}

/// Runs one workload and returns its report.
///
/// # Errors
///
/// An unknown workload name, or a traced run in a build without the
/// `telemetry` feature (or the reverse).
pub fn run(run: &Run) -> Result<Report, String> {
    if run.trace != cloudalloc_telemetry::ENABLED {
        return Err(format!(
            "--trace {} needs a build {} the telemetry feature",
            u8::from(run.trace),
            if run.trace { "with" } else { "without" }
        ));
    }
    let mut report = Report::default();
    let (spec, unused): (Option<solve_wl::SolveSpec>, &[&str]) = match run.workload.as_str() {
        "solve_paper" => {
            (Some(solve_wl::SolveSpec::paper()), &["server.", "protocol.", "net.", "core.hier."])
        }
        "solve_scale" => (Some(solve_wl::SolveSpec::scale()), &["server.", "protocol.", "net."]),
        "serve_churn" => (None, &["core.hier."]),
        other => return Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    };
    match (&spec, run.trace) {
        (Some(spec), false) => solve_wl::run_plain(spec, run, &mut report),
        (Some(spec), true) => solve_wl::run_traced(spec, run, &mut report),
        (None, false) => serve_wl::run_plain(run, &mut report),
        (None, true) => serve_wl::run_traced(run, &mut report),
    }
    if run.trace {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        report.set("run.threads", solve_wl::cli_solver().effective_threads() as f64);
        report.set("run.nproc", nproc as f64);
        let traced = report.get("trace.p50_ms").unwrap_or(0.0);
        let (overhead, share) = match run.plain_p50_ms {
            Some(plain) => (traced - plain, stats::ratio(traced - plain, plain)),
            None => (0.0, 0.0),
        };
        report.set("trace.overhead_ms", overhead);
        report.set("trace.overhead_share", share);
        report.zero_unused(unused);
    }
    Ok(report)
}
