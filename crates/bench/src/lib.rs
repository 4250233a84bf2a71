//! Std-only micro-benchmark harness (the workspace's criterion
//! replacement) plus the benchmarks under `benches/`.
//!
//! The harness measures wall-clock time with [`std::time::Instant`]:
//! each benchmark is warmed up, the iterations-per-sample count is
//! calibrated so a sample takes roughly 10 ms, then `sample_size`
//! samples are collected. [`Harness::finish`] prints a summary table
//! and writes `BENCH_<label>.json` (via `simcore::json`) with the raw
//! numbers so runs can be diffed by tooling. Every bench, harness-driven
//! or custom, writes its file through [`write_bench_json`], which stamps
//! the run with the cores available and the build profile.

use simcore::json::Json;
use std::io;
use std::time::{Duration, Instant};

/// Per-iteration work amount, used to derive a throughput figure.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// Batching hint for [`Bencher::iter_batched`]; kept for API parity, both
/// variants pre-generate one input per iteration.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs are cheap to hold; all are generated up front.
    SmallInput,
    /// Inputs are large; still generated up front (simulation inputs
    /// in this workspace are small enough).
    LargeInput,
}

/// Passed to each benchmark closure; runs the routine `iters` times per
/// sample and accumulates only the measured time.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `f` over this sample's iterations.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed += start.elapsed();
    }

    /// Time `routine` over per-iteration inputs built by `setup`; setup
    /// time is excluded from the measurement.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let inputs: Vec<I> = (0..self.iters).map(|_| setup()).collect();
        let start = Instant::now();
        for input in inputs {
            std::hint::black_box(routine(input));
        }
        self.elapsed += start.elapsed();
    }
}

struct Record {
    group: String,
    name: String,
    samples: u64,
    iters_per_sample: u64,
    min_ns: f64,
    mean_ns: f64,
    median_ns: f64,
    throughput: Option<(Throughput, f64)>, // amount + per-second at median
}

/// Collects benchmark results for one label (one `[[bench]]` target).
pub struct Harness {
    label: String,
    records: Vec<Record>,
}

/// Warm-up budget before calibration.
const WARMUP: Duration = Duration::from_millis(30);
/// Target wall time for one sample.
const TARGET_SAMPLE: Duration = Duration::from_millis(10);
/// Default number of samples per benchmark.
const DEFAULT_SAMPLES: u64 = 20;
/// Soft cap on measured time per benchmark: stop sampling early past
/// this once a minimum number of samples is in.
const TIME_BUDGET: Duration = Duration::from_secs(5);
const MIN_SAMPLES: u64 = 3;

impl Harness {
    /// New harness; `label` names the output file (`BENCH_<label>.json`).
    pub fn new(label: &str) -> Self {
        Harness {
            label: label.to_string(),
            records: Vec::new(),
        }
    }

    /// Start a named benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_string(),
            throughput: None,
            samples: DEFAULT_SAMPLES,
        }
    }

    /// Run a single ungrouped benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) {
        let mut g = self.group("");
        g.bench_function(name, f);
        g.finish();
    }

    /// Print the summary table and write `BENCH_<label>.json`.
    pub fn finish(self) -> io::Result<()> {
        let width = self
            .records
            .iter()
            .map(|r| full_name(r).len())
            .max()
            .unwrap_or(0)
            .max(9);
        println!(
            "\n{:<width$}  {:>12}  {:>12}",
            "benchmark", "median", "throughput"
        );
        for r in &self.records {
            let thr = match r.throughput {
                Some((Throughput::Bytes(_), per_sec)) => format_bytes_per_sec(per_sec),
                Some((Throughput::Elements(_), per_sec)) => {
                    format!("{} elem/s", format_si(per_sec))
                }
                None => "-".to_string(),
            };
            println!(
                "{:<width$}  {:>12}  {:>12}",
                full_name(r),
                format_ns(r.median_ns),
                thr
            );
        }
        let results = Json::Arr(self.records.iter().map(record_json).collect());
        write_bench_json(&self.label, [("results", results)])
    }
}

/// Write `BENCH_<label>.json` into the working directory: the label, the
/// cores this machine makes available (`simcore::par::available_jobs`)
/// and the build profile, then `fields`.
pub fn write_bench_json<'a>(
    label: &str,
    fields: impl IntoIterator<Item = (&'a str, Json)>,
) -> io::Result<()> {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut all: Vec<(&str, Json)> = vec![
        ("label", Json::Str(label.to_string())),
        (
            "cores_available",
            Json::U64(simcore::par::available_jobs() as u64),
        ),
        ("profile", Json::Str(profile.to_string())),
    ];
    all.extend(fields);
    let path = format!("BENCH_{label}.json");
    std::fs::write(&path, Json::obj(all).dump() + "\n")?;
    println!("\nwrote {path}");
    Ok(())
}

fn full_name(r: &Record) -> String {
    if r.group.is_empty() {
        r.name.clone()
    } else {
        format!("{}/{}", r.group, r.name)
    }
}

fn record_json(r: &Record) -> Json {
    let (unit, per_sec) = match r.throughput {
        Some((Throughput::Bytes(_), v)) => (Json::Str("bytes".into()), Json::F64(v)),
        Some((Throughput::Elements(_), v)) => (Json::Str("elements".into()), Json::F64(v)),
        None => (Json::Null, Json::Null),
    };
    Json::obj([
        ("group", Json::Str(r.group.clone())),
        ("name", Json::Str(r.name.clone())),
        ("samples", Json::U64(r.samples)),
        ("iters_per_sample", Json::U64(r.iters_per_sample)),
        (
            "ns_per_iter",
            Json::obj([
                ("min", Json::F64(r.min_ns)),
                ("mean", Json::F64(r.mean_ns)),
                ("median", Json::F64(r.median_ns)),
            ]),
        ),
        ("throughput_unit", unit),
        ("throughput_per_sec", per_sec),
    ])
}

/// A benchmark group: shared throughput and sample-size settings.
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    throughput: Option<Throughput>,
    samples: u64,
}

impl Group<'_> {
    /// Set the per-iteration work amount for throughput reporting.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Set the number of samples for subsequent benchmarks.
    pub fn sample_size(&mut self, n: usize) {
        self.samples = (n as u64).max(1);
    }

    /// Measure one benchmark.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        let (iters, ns) = measure(&mut f, self.samples);
        let mut sorted = ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let min_ns = sorted[0];
        let median_ns = sorted[sorted.len() / 2];
        let mean_ns = ns.iter().sum::<f64>() / ns.len() as f64;
        let throughput = self.throughput.map(|t| {
            let amount = match t {
                Throughput::Bytes(n) | Throughput::Elements(n) => n,
            };
            (t, amount as f64 / (median_ns * 1e-9))
        });
        self.harness.records.push(Record {
            group: self.name.clone(),
            name: name.to_string(),
            samples: ns.len() as u64,
            iters_per_sample: iters,
            min_ns,
            mean_ns,
            median_ns,
            throughput,
        });
    }

    /// End the group (kept for criterion API parity; dropping works too).
    pub fn finish(self) {}
}

/// Warm up, calibrate iterations per sample, then collect samples.
/// Returns (iters_per_sample, ns-per-iteration samples).
fn measure(f: &mut impl FnMut(&mut Bencher), samples: u64) -> (u64, Vec<f64>) {
    let mut warm_time = Duration::ZERO;
    let mut warm_calls = 0u64;
    while warm_time < WARMUP && warm_calls < 1024 {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        warm_time += b.elapsed.max(Duration::from_nanos(1));
        warm_calls += 1;
    }
    let per_iter = warm_time.as_secs_f64() / warm_calls as f64;
    let iters = if per_iter > 0.0 {
        ((TARGET_SAMPLE.as_secs_f64() / per_iter) as u64).clamp(1, 10_000_000)
    } else {
        1
    };
    let mut ns = Vec::new();
    let mut spent = Duration::ZERO;
    for _ in 0..samples {
        if spent > TIME_BUDGET && ns.len() as u64 >= MIN_SAMPLES {
            break;
        }
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        spent += b.elapsed;
        ns.push(b.elapsed.as_nanos() as f64 / iters as f64);
    }
    (iters, ns)
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn format_si(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

fn format_bytes_per_sec(v: f64) -> String {
    const MIB: f64 = 1024.0 * 1024.0;
    if v >= MIB * 1024.0 {
        format!("{:.2} GiB/s", v / (MIB * 1024.0))
    } else if v >= MIB {
        format!("{:.2} MiB/s", v / MIB)
    } else {
        format!("{:.1} KiB/s", v / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_counts_iterations() {
        let mut b = Bencher {
            iters: 100,
            elapsed: Duration::ZERO,
        };
        let mut calls = 0u64;
        b.iter(|| calls += 1);
        assert_eq!(calls, 100);
    }

    #[test]
    fn iter_batched_excludes_setup_and_runs_each_input() {
        let mut b = Bencher {
            iters: 10,
            elapsed: Duration::ZERO,
        };
        let mut setups = 0u64;
        let mut runs = 0u64;
        b.iter_batched(
            || {
                setups += 1;
                setups
            },
            |x| {
                runs += 1;
                x
            },
            BatchSize::SmallInput,
        );
        assert_eq!(setups, 10);
        assert_eq!(runs, 10);
    }

    #[test]
    fn group_records_results_with_throughput() {
        let mut h = Harness::new("selftest");
        let mut g = h.group("g");
        g.throughput(Throughput::Bytes(1024));
        g.sample_size(3);
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.finish();
        assert_eq!(h.records.len(), 1);
        let r = &h.records[0];
        assert_eq!(r.group, "g");
        assert_eq!(r.name, "noop");
        assert!(r.samples >= 1);
        assert!(r.median_ns >= 0.0);
        assert!(r.throughput.is_some());
        // Intentionally not calling finish(): tests must not write files.
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(format_ns(12.0), "12.0 ns");
        assert_eq!(format_ns(12_500.0), "12.50 µs");
        assert_eq!(format_ns(2_500_000.0), "2.50 ms");
        assert_eq!(format_ns(1.5e9), "1.500 s");
        assert_eq!(format_si(2.5e6), "2.50M");
        assert_eq!(format_bytes_per_sec(3.0 * 1024.0 * 1024.0), "3.00 MiB/s");
    }
}
