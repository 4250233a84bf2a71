//! Streaming-summary benchmark: simulates the paper capture, then
//! measures the single-pass [`experiments::CaptureSummary`] — records/sec
//! through the pipeline and the end-of-pass accumulator state (the peak:
//! accumulator state only grows during a pass) — and writes
//! `BENCH_stream.json`.
//!
//! Knobs: `BENCH_STREAM_SCALES` (comma-separated population scales,
//! default `0.1,1.0`).

use experiments::{run_capture, CaptureSummary};
use simcore::json::Json;
use std::time::Instant;
use workload::FaultPlan;

fn main() {
    let scales: Vec<f64> = std::env::var("BENCH_STREAM_SCALES")
        .unwrap_or_else(|_| "0.1,1.0".into())
        .split(',')
        .map(|s| s.trim().parse().expect("scale"))
        .collect();
    let seed = 2012u64;
    let jobs = simcore::par::available_jobs();

    let mut rows: Vec<Json> = Vec::new();
    println!(
        "{:<8}  {:>10}  {:>10}  {:>12}  {:>14}",
        "scale", "records", "pass", "records/s", "state"
    );
    for &scale in &scales {
        let t0 = Instant::now();
        let cap = run_capture(scale, seed, &FaultPlan::none(), jobs);
        let capture_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let sum = CaptureSummary::compute(&cap);
        let pass_secs = t1.elapsed().as_secs_f64();
        let records = sum.records();
        let state = sum.state_bytes();
        let rate = records as f64 / pass_secs.max(1e-9);
        std::hint::black_box(&sum);
        println!(
            "{scale:<8}  {records:>10}  {pass_secs:>9.2}s  {rate:>12.0}  {:>11} kB",
            state / 1024
        );
        rows.push(Json::obj([
            ("scale", Json::F64(scale)),
            ("capture_seconds", Json::F64(capture_secs)),
            ("records", Json::U64(records)),
            ("summary_seconds", Json::F64(pass_secs)),
            ("records_per_second", Json::F64(rate)),
            ("accumulator_state_bytes", Json::U64(state as u64)),
            ("pipeline_stages", Json::U64(sum.stages() as u64)),
        ]));
    }

    let fields = [
        ("seed", Json::U64(seed)),
        ("jobs", Json::U64(jobs as u64)),
        (
            "note",
            Json::Str(
                "summary_seconds times the single shared pass that feeds every table and \
                 figure (previously ~20 scans of the flow vectors); accumulator_state_bytes \
                 is the end-of-pass total across all five vantage pipelines"
                    .into(),
            ),
        ),
        ("runs", Json::Arr(rows)),
    ];
    bench::write_bench_json("stream", fields).expect("write benchmark results");
}
