//! What the three workloads share: the op record, the pass loop, the
//! seeded draw of inputs, and the metrics computed from timed ops.

use crate::trace::{Layer, Tracer};
use psi_tools::quantile::percentile;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("msteps_per_s", "Msteps/s"),
    ("req_ms_p50", "ms"),
    ("req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in the order `BENCHMARK.json` lists them. A
/// workload that never calls a layer reports 0 for it. `req_ms_p99` is
/// here rather than end to end: on the shared host its run-to-run
/// spread exceeds the largest bound an end-to-end metric may have.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("req_ms_p99", "ms"),
    ("kl0.parse.us_p50", "us"),
    ("kl0.parse.share", "%"),
    ("machine.load.us_p50", "us"),
    ("machine.load.share", "%"),
    ("machine.fork.us_p50", "us"),
    ("machine.fork.share", "%"),
    ("machine.solve.ns_per_step", "ns"),
    ("machine.solve.share", "%"),
    ("pmms.replay.ns_per_access", "ns"),
    ("pmms.replay.share", "%"),
    ("client.connect.us_p50", "us"),
    ("client.connect.us_p99", "us"),
    ("client.consult.us_p50", "us"),
    ("client.consult.us_p99", "us"),
    ("client.solve.us_p50", "us"),
    ("client.solve.us_p99", "us"),
    ("client.close.us_p50", "us"),
    ("sim.steps", "count"),
    ("mem.accesses", "count"),
    ("cache.hit_pct", "%"),
    ("pool.repeat_share", "%"),
    ("pool.templates", "count"),
    ("pool.idle", "count"),
    ("replies.wrong", "count"),
    ("replies.error", "count"),
    ("trace.overhead.msteps_per_s", "%"),
    ("trace.overhead.req_ms_p50", "%"),
    ("trace.overhead.req_ms_p99", "%"),
    ("trace.overhead.req_per_s", "%"),
];

/// Root span name of a measured op.
pub const OP: &str = "op";
/// Root span name of one set-up repetition.
pub const SETUP: &str = "setup";

/// How an op failed its check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The op completed but its output disagrees with the reference.
    Wrong,
    /// The op returned an error (typed wire error, transport error or
    /// engine error) instead of an output.
    Error,
}

/// One failed op, with what was expected and what came back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    pub kind: FailKind,
    /// Row name or corpus family.
    pub item: String,
    /// The seed that replays the input (corpus seed, or the run seed
    /// for suite rows).
    pub seed: u64,
    pub expected: String,
    pub actual: String,
}

/// How an op's host time enters the speed metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Timing {
    /// As measured.
    Raw,
    /// Each op counts at the given quantile of its row's op times in
    /// the run. This host's speed swings about twofold on a scale of
    /// seconds and drifts on a scale of minutes, so a median over ops
    /// jumps between the fast and the slow regime from run to run; a
    /// quantile on the side of the regime that every run contains
    /// does not (see README.md, Noise).
    RowQuantile(f64),
}

impl Timing {
    /// The quantile that summarises a set of times (set-up samples).
    pub fn quantile(self) -> f64 {
        match self {
            Timing::Raw => 0.5,
            Timing::RowQuantile(q) => q,
        }
    }
}

/// One timed op.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the op's input row (suite row or corpus program).
    pub row: usize,
    pub ns: u64,
    /// Simulated microsteps of the op, when it produced any.
    pub steps: Option<u64>,
    /// Memory accesses the op recorded for replay.
    pub accesses: u64,
    pub traced: bool,
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<Failure>,
    /// Ops for which no reference existed, so no check could run.
    pub unchecked: u64,
    pub setup_ns: Vec<u64>,
    pub samples: Vec<Sample>,
    pub passes: usize,
    /// Peak resident memory of each pass in kB, for a workload that
    /// resets the peak between passes; `peak_rss_mb` is then their
    /// median rather than the peak of the whole process.
    pub pass_peak_kb: Vec<u64>,
    pub timing: Timing,
    pub tracer: Tracer,
    /// Workload-specific per-layer counts (per pass).
    pub counts: Vec<Metric>,
    /// Human-readable lines for the report.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn new(origin: Instant, timing: Timing) -> Outcome {
        Outcome {
            attempted: 0,
            failures: Vec::new(),
            unchecked: 0,
            setup_ns: Vec::new(),
            samples: Vec::new(),
            passes: 0,
            pass_peak_kb: Vec::new(),
            timing,
            tracer: Tracer::new(origin),
            counts: Vec::new(),
            report: Vec::new(),
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Every op was checked against its reference and none disagreed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.unchecked == 0 && self.failures.is_empty()
    }
}

/// Runs whole passes until `seconds` have gone by (at least one; at
/// least two when tracing, which alternates untraced and traced
/// passes so both see the same host conditions). Returns the count.
///
/// `pass(traced, setup_due)`: `setup_due` is set on the first pass and
/// then once a second, so a workload can time its set-up again and
/// spread the set-up samples over the run like the ops.
pub fn run_passes(seconds: u64, trace: bool, mut pass: impl FnMut(bool, bool)) -> usize {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let min = if trace { 2 } else { 1 };
    let mut last_setup: Option<Instant> = None;
    let mut n = 0;
    while n < min || start.elapsed() < budget {
        let setup_due = last_setup.is_none_or(|t| t.elapsed() >= Duration::from_secs(1));
        if setup_due {
            last_setup = Some(Instant::now());
        }
        pass(trace && n % 2 == 1, setup_due);
        n += 1;
    }
    n
}

/// Nanoseconds elapsed between two instants.
pub fn ns_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// xorshift64*: the benchmark's own seeded draw of inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Peak resident memory of this process in kB (`VmHWM`).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .unwrap_or(0)
}

extern "C" {
    /// glibc: gives the free memory of every allocator arena back to
    /// the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Gives the memory the allocator holds free back to the system, so
/// that the resident size is what the process still uses.
pub fn release_free_memory() {
    // SAFETY: malloc_trim takes no pointers and only walks glibc's own
    // free lists, under its own locks.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets the peak resident memory (`VmHWM`) to the current resident
/// size, so that `peak_rss_mb` leaves out what ran before, such as the
/// benchmark's own reference computations.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The host-speed metrics over one set of ops: per-row throughput,
/// request latency and request rate.
struct Speed {
    msteps_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    per_s: f64,
}

fn speed<'a>(samples: impl Iterator<Item = &'a Sample>, timing: Timing) -> Speed {
    let samples: Vec<&Sample> = samples.collect();
    let mut by_row: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for s in &samples {
        by_row.entry(s.row).or_default().push(s.ns);
    }
    let row_time: BTreeMap<usize, u64> = match timing {
        Timing::Raw => BTreeMap::new(),
        Timing::RowQuantile(q) => by_row
            .iter()
            .map(|(&r, ns)| (r, percentile(ns, q)))
            .collect(),
    };
    let ns_of = |s: &Sample| row_time.get(&s.row).copied().unwrap_or(s.ns);
    let mut all_ns = Vec::new();
    let mut rows: BTreeMap<usize, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for s in samples {
        all_ns.push(ns_of(s));
        if let Some(steps) = s.steps {
            let row = rows.entry(s.row).or_default();
            row.0.push(steps);
            row.1.push(ns_of(s));
        }
    }
    // Each row counts equally: its median steps over its median op
    // time, then the geometric mean over rows.
    let logs: Vec<f64> = rows
        .values()
        .map(|(steps, ns)| {
            let rate = percentile(steps, 0.5) as f64 * 1e3 / percentile(ns, 0.5).max(1) as f64;
            rate.max(f64::MIN_POSITIVE).ln()
        })
        .collect();
    let msteps_per_s = if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    };
    let total_ns: u64 = all_ns.iter().sum();
    Speed {
        msteps_per_s,
        p50_ms: percentile(&all_ns, 0.5) as f64 / 1e6,
        p99_ms: percentile(&all_ns, 0.99) as f64 / 1e6,
        per_s: all_ns.len() as f64 * 1e9 / total_ns.max(1) as f64,
    }
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
pub fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let s = speed(out.samples.iter().filter(|s| !s.traced), out.timing);
    let peak_kb = if out.pass_peak_kb.is_empty() {
        peak_rss_kb()
    } else {
        percentile(&out.pass_peak_kb, 0.5)
    };
    let values = [
        s.msteps_per_s,
        s.p50_ms,
        s.per_s,
        percentile(&out.setup_ns, out.timing.quantile()) as f64 / 1e9,
        peak_kb as f64 / 1024.0,
    ];
    named(&END_TO_END, &values)
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(out: &Outcome) -> Vec<Metric> {
    let layers = out.tracer.layers(OP);
    let op_ns = layers.get(OP).map_or(0, Layer::total_ns).max(1) as f64;
    let layer = |name: &str| layers.get(name);
    let us = |name: &str, q: f64| layer(name).map_or(0.0, |l| l.us(q));
    let share = |name: &str| layer(name).map_or(0.0, |l| l.self_ns as f64 * 100.0 / op_ns);
    let total = |name: &str| layer(name).map_or(0, Layer::total_ns) as f64;

    let traced: Vec<&Sample> = out.samples.iter().filter(|s| s.traced).collect();
    let traced_steps: u64 = traced.iter().filter_map(|s| s.steps).sum();
    let traced_accesses: u64 = traced.iter().map(|s| s.accesses).sum();
    // Each access is replayed once per geometry.
    let replays = layer("pmms.replay").map_or(0, |l| l.durations_ns.len()) as f64;
    let replayed = traced_accesses as f64 * replays / traced.len().max(1) as f64;

    let passes = out.passes.max(1) as f64;
    let all_steps: u64 = out.samples.iter().filter_map(|s| s.steps).sum();
    let all_accesses: u64 = out.samples.iter().map(|s| s.accesses).sum();
    let count = |kind| out.failures.iter().filter(|f| f.kind == kind).count() as f64;

    let plain = speed(out.samples.iter().filter(|s| !s.traced), out.timing);
    let with = speed(traced.iter().copied(), out.timing);
    let overhead = |a: f64, b: f64| if a > 0.0 { (b / a - 1.0) * 100.0 } else { 0.0 };

    let lookup = |name: &str| {
        out.counts
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let values = [
        plain.p99_ms,
        us("kl0.parse", 0.5),
        share("kl0.parse"),
        us("machine.load", 0.5),
        share("machine.load"),
        us("machine.fork", 0.5),
        share("machine.fork"),
        if traced_steps > 0 {
            total("machine.solve") / traced_steps as f64
        } else {
            0.0
        },
        share("machine.solve"),
        if replayed > 0.0 {
            total("pmms.replay") / replayed
        } else {
            0.0
        },
        share("pmms.replay"),
        us("client.connect", 0.5),
        us("client.connect", 0.99),
        us("client.consult", 0.5),
        us("client.consult", 0.99),
        us("client.solve", 0.5),
        us("client.solve", 0.99),
        us("client.close", 0.5),
        all_steps as f64 / passes,
        all_accesses as f64 / passes,
        lookup("cache.hit_pct"),
        lookup("pool.repeat_share"),
        lookup("pool.templates"),
        lookup("pool.idle"),
        count(FailKind::Wrong) / passes,
        count(FailKind::Error) / passes,
        overhead(plain.msteps_per_s, with.msteps_per_s),
        overhead(plain.p50_ms, with.p50_ms),
        overhead(plain.p99_ms, with.p99_ms),
        overhead(plain.per_s, with.per_s),
    ];
    named(&PER_LAYER, &values)
}

fn named(names: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    names
        .iter()
        .zip(values)
        .map(|(&(name, unit), &value)| Metric { name, value, unit })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(7);
        let b: Vec<u64> = (0..64).map(|_| r.next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(8).next_u64(), a[0]);
        let mut p = Rng::new(3).permutation(19);
        p.sort_unstable();
        assert_eq!(p, (0..19).collect::<Vec<_>>());
    }

    #[test]
    fn latency_percentiles_are_the_shared_estimator() {
        let samples: Vec<Sample> = (1..=200u64)
            .map(|i| Sample {
                row: (i % 3) as usize,
                ns: i * 1_000_000,
                steps: Some(1000),
                accesses: 0,
                traced: false,
            })
            .collect();
        let ns: Vec<u64> = samples.iter().map(|s| s.ns).collect();
        let s = speed(samples.iter(), Timing::Raw);
        assert_eq!(s.p50_ms, percentile(&ns, 0.5) as f64 / 1e6);
        assert_eq!(s.p99_ms, percentile(&ns, 0.99) as f64 / 1e6);
        assert!((s.per_s - 200.0 / ns.iter().sum::<u64>() as f64 * 1e9).abs() < 1e-9);
    }

    #[test]
    fn row_quantile_counts_every_op_at_its_rows_quantile() {
        let sample = |row, ns| Sample {
            row,
            ns,
            steps: Some(1_000_000),
            accesses: 0,
            traced: false,
        };
        let samples = [
            sample(0, 4_000_000),
            sample(0, 2_000_000),
            sample(1, 8_000_000),
            sample(1, 9_000_000),
        ];
        let s = speed(samples.iter(), Timing::RowQuantile(0.0));
        // Rows run at 1 Mstep / 2 ms and 1 Mstep / 8 ms.
        assert!((s.msteps_per_s - (500.0f64 * 125.0).sqrt()).abs() < 1e-9);
        assert_eq!(s.p50_ms, 5.0);
        assert!((s.per_s - 4.0 / 0.020).abs() < 1e-9);
        let raw = speed(samples.iter(), Timing::Raw);
        assert_eq!(raw.p50_ms, 6.0);
        let slow = speed(samples.iter(), Timing::RowQuantile(1.0));
        assert_eq!((slow.p50_ms, slow.p99_ms), (6.5, 9.0));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
