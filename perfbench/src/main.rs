//! One run of one benchmark workload, or the generation of its inputs.
//!
//! ```text
//! perfbench rep --workload W --seed N --scale S [--trace] [--logs DIR]
//!               [--pins FILE] [--results DIR] [--spans FILE]
//! perfbench gen --seed N --scale S --dir DIR
//! ```
//!
//! `rep` runs the pipeline once in this process and prints one JSON line:
//! the end-to-end figures of the timed interval, the per-layer counts,
//! per-layer times when `--trace` is given, and one verdict per rendered
//! artifact. `gen` writes the anonymised flow logs `trace-replay` reads.
//! `run.py` drives both; see README.md.

mod artifacts;
mod calib;
mod pipeline;
mod procfs;
mod trace;

use artifacts::Digests;
use dropbox_analysis::chunks::estimate_chunks;
use dropbox_analysis::classify::{dropbox_role, storage_tag, DropboxRole, StorageTag};
use pipeline::{Outcome, Workload};
use simcore::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Span, SpanId, Tracer};

/// Seed and scale of the committed `results/` directory.
const RESULTS_SEED: u64 = 2012;
const RESULTS_SCALE: f64 = 0.1;

struct Args {
    mode: String,
    workload: Option<Workload>,
    seed: u64,
    scale: f64,
    trace: bool,
    logs: Option<PathBuf>,
    pins: Option<PathBuf>,
    results: Option<PathBuf>,
    spans: Option<PathBuf>,
    dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("usage: perfbench rep|gen [options]")?;
    let mut a = Args {
        mode,
        workload: None,
        seed: 0,
        scale: 0.0,
        trace: false,
        logs: None,
        pins: None,
        results: None,
        spans: None,
        dir: None,
    };
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            a.trace = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                a.workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad("seed"))?,
            "--scale" => a.scale = value.parse().map_err(|_| bad("scale"))?,
            "--logs" => a.logs = Some(value.into()),
            "--pins" => a.pins = Some(value.into()),
            "--results" => a.results = Some(value.into()),
            "--spans" => a.spans = Some(value.into()),
            "--dir" => a.dir = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.scale.is_nan() || a.scale <= 0.0 {
        return Err("--scale must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    // The origin of every time below: set-up runs from here to the first
    // pipeline call.
    let origin = Instant::now();
    let result = parse_args().and_then(|args| match args.mode.as_str() {
        "rep" => rep(&args, origin),
        "gen" => gen(&args),
        other => Err(format!("unknown mode `{other}`")),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn gen(args: &Args) -> Result<String, String> {
    let dir = args.dir.as_ref().ok_or("gen needs --dir")?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let records = pipeline::write_logs(dir, args.scale, args.seed).map_err(|e| e.to_string())?;
    Ok(Json::obj([("records", Json::U64(records))]).dump())
}

/// A named metric value with its unit.
struct Metric(&'static str, f64, &'static str);

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|Metric(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("value", Json::F64(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn rep(args: &Args, origin: Instant) -> Result<String, String> {
    let workload = args.workload.ok_or("rep needs --workload")?;
    let setup = pipeline::setup(workload, args.scale, args.seed, args.logs.as_deref())
        .map_err(|e| format!("set-up: {e}"))?;
    let jobs = setup.jobs;
    let log_bytes: u64 = setup.logs.iter().map(|(_, bytes)| bytes).sum();

    // Timed interval: first pipeline call to last rendered artifact.
    let mut tracer = Tracer::new(origin, args.trace);
    let cpu_start = procfs::self_cpu_seconds();
    let setup_s = tracer.now();
    tracer.push(Span {
        name: "setup".into(),
        start: 0.0,
        end: setup_s,
        parent: None,
        worker: 0,
    });
    let root = tracer.open("run", None);
    let outcome =
        pipeline::execute(setup, &mut tracer, root).map_err(|e| format!("pipeline: {e}"))?;
    tracer.close(root);
    let wall_s = tracer.now() - setup_s;
    let cpu_s = procfs::self_cpu_seconds() - cpu_start;
    let peak_rss_mib = procfs::self_status_mib("VmHWM");

    // Everything below is outside the timed interval.
    let produced: Digests = outcome
        .artifacts
        .iter()
        .map(|(name, bytes)| (name.clone(), artifacts::digest(bytes.as_bytes())))
        .collect();
    let (reference_kind, reference) = reference(args, workload)?;
    let verdicts = artifacts::judge(&produced, reference.as_ref(), &outcome.lost);
    let failed = verdicts.values().filter(|v| v.failed()).count();

    let households: usize = match workload {
        Workload::TraceReplay => 0,
        Workload::Paper | Workload::PaperLossy => workload::ShardPlan::paper()
            .household_shards(args.scale)
            .iter()
            .map(|h| h.households.len())
            .sum(),
    };
    let mut per_layer = counts(&outcome, jobs, households, log_bytes);
    if args.trace {
        per_layer.extend(layer_times(
            tracer.spans(),
            root,
            jobs,
            &per_layer,
            log_bytes,
            &outcome,
        ));
        let cal = calib::calibrate();
        per_layer.push(Metric(
            "tcpmodel.ns_per_segment",
            cal.tcpmodel_ns_per_segment,
            "ns",
        ));
        per_layer.push(Metric(
            "tstat.ns_per_segment",
            cal.tstat_ns_per_segment,
            "ns",
        ));
        if let Some(path) = &args.spans {
            std::fs::write(path, tracer.to_jsonl())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    let records = outcome.summary.records();
    let end_to_end = [
        Metric("wall_s", wall_s, "s"),
        Metric("cpu_s", cpu_s, "s"),
        Metric("records_per_s", records as f64 / wall_s, "1/s"),
        Metric("peak_rss_mb", peak_rss_mib, "MiB"),
        Metric("setup_s", setup_s, "s"),
    ];
    let artifacts_json = Json::Obj(
        verdicts
            .iter()
            .map(|(name, v)| {
                let digest = produced
                    .get(name)
                    .map_or(Json::Null, |d| Json::Str(d.clone()));
                (
                    name.clone(),
                    Json::Arr(vec![digest, Json::Str(v.name().into())]),
                )
            })
            .collect(),
    );
    Ok(Json::obj([
        ("workload", Json::Str(workload.name().into())),
        ("seed", Json::U64(args.seed)),
        ("scale", Json::F64(args.scale)),
        ("traced", Json::Bool(args.trace)),
        ("reference", Json::Str(reference_kind.into())),
        ("attempted", Json::U64(verdicts.len() as u64)),
        ("failed", Json::U64(failed as u64)),
        ("end_to_end", metrics_json(&end_to_end)),
        ("per_layer", metrics_json(&per_layer)),
        ("artifacts", artifacts_json),
    ])
    .dump())
}

/// The reference the artifacts are judged against: the committed
/// `results/` for the `paper` run that made them, else the pin file.
fn reference(args: &Args, workload: Workload) -> Result<(&'static str, Option<Digests>), String> {
    if let Some(dir) = &args.results {
        if workload == Workload::Paper && args.seed == RESULTS_SEED && args.scale == RESULTS_SCALE {
            let r =
                artifacts::results_reference(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            return Ok(("results", Some(r)));
        }
    }
    let Some(path) = &args.pins else {
        return Ok(("none", None));
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let pinned = artifacts::pinned(&text, args.scale, args.seed);
    Ok((if pinned.is_some() { "pinned" } else { "none" }, pinned))
}

/// Per-layer work counts. They come from the run's outputs, so they
/// repeat exactly for a seed, traced or not. Engine, TCP-model and monitor
/// counts cover the flows this run simulated (those with ground truth);
/// background records are synthesised without the TCP model, and a replay
/// simulates nothing, so those layers count zero there.
fn counts(o: &Outcome, jobs: usize, households: usize, log_bytes: u64) -> Vec<Metric> {
    let outputs = || o.capture.vantages.iter().chain([&o.capture.campus1_v14]);
    let (mut segments, mut rtx, mut payload, mut rtx_bytes, mut rtt, mut aborted) =
        (0, 0, 0, 0, 0, 0);
    let (mut storage, mut store_bytes, mut retrieve_bytes, mut chunks) = (0u64, 0, 0, 0u64);
    let (mut records, mut simulated) = (0u64, 0u64);
    for (f, truth) in outputs().flat_map(|out| out.dataset.flows.iter().zip(&out.truths)) {
        records += 1;
        if truth.is_none() {
            continue;
        }
        simulated += 1;
        segments += f.up.packets + f.down.packets;
        rtx += f.up.retransmissions + f.down.retransmissions;
        payload += f.up.bytes + f.down.bytes;
        rtx_bytes += f.up.rtx_bytes + f.down.rtx_bytes;
        rtt += u64::from(f.rtt_samples);
        aborted += u64::from(f.aborted);
        if dropbox_role(f) == Some(DropboxRole::ClientStorage) {
            storage += 1;
            chunks += u64::from(estimate_chunks(f));
            match storage_tag(f) {
                StorageTag::Store => store_bytes += f.total_bytes(),
                StorageTag::Retrieve => retrieve_bytes += f.total_bytes(),
            }
        }
    }
    let mut faults = workload::FaultStats::default();
    let mut lan_synced = 0;
    for out in outputs() {
        faults.absorb(out.fault_stats);
        lan_synced += out.lan_synced;
    }
    let f = |x: u64| x as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let artifact_bytes: usize = o.artifacts.iter().map(|(_, b)| b.len()).sum();
    vec![
        Metric("workload.records", f(records), "count"),
        Metric("workload.households", households as f64, "count"),
        Metric("par.jobs", jobs as f64, "count"),
        Metric("dropbox.storage_flows", f(storage), "count"),
        Metric("dropbox.store_bytes", f(store_bytes), "B"),
        Metric("dropbox.retrieve_bytes", f(retrieve_bytes), "B"),
        Metric("dropbox.chunks_est", f(chunks), "count"),
        Metric("dropbox.lan_synced", f(lan_synced), "count"),
        Metric("dropbox.sync_retries", f(faults.sync_retries), "count"),
        Metric("dropbox.aborted_flows", f(faults.aborted_flows), "count"),
        Metric("dropbox.notify_aborts", f(faults.notify_aborts), "count"),
        Metric(
            "dropbox.retry_ratio",
            ratio(faults.sync_retries, storage),
            "ratio",
        ),
        Metric("tcpmodel.segments", f(segments), "count"),
        Metric("tcpmodel.retransmissions", f(rtx), "count"),
        Metric(
            "tcpmodel.goodput_ratio",
            ratio(payload, payload + rtx_bytes),
            "ratio",
        ),
        Metric(
            "tcpmodel.segments_per_record",
            ratio(segments, simulated),
            "count",
        ),
        Metric("tstat.rtt_samples", f(rtt), "count"),
        Metric("tstat.aborted_records", f(aborted), "count"),
        Metric("core.records", f(o.summary.records()), "count"),
        Metric("core.stages", o.summary.stages() as f64, "count"),
        Metric(
            "core.state_mb",
            o.summary.state_bytes() as f64 / procfs::MIB,
            "MiB",
        ),
        Metric("experiments.reports", o.reports as f64, "count"),
        Metric("experiments.artifact_bytes", artifact_bytes as f64, "B"),
        Metric("nettrace.flowlog_mb", log_bytes as f64 / procfs::MIB, "MiB"),
    ]
}

/// The span `name` whose parent is `parent` (`None`: a top-level span).
fn phase(spans: &[Span], parent: Option<SpanId>, name: &str) -> Option<SpanId> {
    spans
        .iter()
        .position(|s| s.parent == parent && s.name == name)
}

/// Per-layer times of a traced run, from its spans.
fn layer_times(
    spans: &[Span],
    root: Option<SpanId>,
    jobs: usize,
    counts: &[Metric],
    log_bytes: u64,
    o: &Outcome,
) -> Vec<Metric> {
    let dur = |id: Option<SpanId>| id.map_or(0.0, |i| spans[i].dur());
    let count = |name: &str| counts.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    let per = |t: f64, n: f64| if n > 0.0 { t * 1e9 / n } else { 0.0 };
    let capture = phase(spans, root, "capture");
    let fork = capture.and_then(|c| phase(spans, Some(c), "fork_join"));
    let (busy, longest) = fork.map_or((0.0, 0.0), |f| {
        trace::children(spans, f).fold((0.0, 0.0f64), |(b, m), s| (b + s.dur(), m.max(s.dur())))
    });
    let summary = phase(spans, root, "summary");
    let slowest_vantage = summary.map_or(0.0, |s| {
        trace::children(spans, s).map(Span::dur).fold(0.0, f64::max)
    });
    let read_s = dur(phase(spans, root, "flowlog_read"));
    let log_mib = log_bytes as f64 / procfs::MIB;
    vec![
        Metric("workload.capture_s", dur(capture), "s"),
        Metric("workload.span_busy_s", busy, "s"),
        Metric("workload.span_max_s", longest, "s"),
        Metric(
            "workload.merge_s",
            dur(capture.and_then(|c| phase(spans, Some(c), "merge"))),
            "s",
        ),
        Metric(
            "workload.ns_per_segment",
            per(busy, count("tcpmodel.segments")),
            "ns",
        ),
        Metric(
            "par.worker_idle_s",
            fork.map_or(0.0, |f| trace::worker_idle(spans, f, jobs)),
            "s",
        ),
        Metric("core.summary_s", dur(summary), "s"),
        Metric("core.summary_max_vantage_s", slowest_vantage, "s"),
        Metric(
            "core.ns_per_record",
            per(dur(summary), count("core.records")),
            "ns",
        ),
        Metric(
            "experiments.render_s",
            dur(phase(spans, root, "render")),
            "s",
        ),
        Metric(
            "experiments.validation_s",
            dur(phase(spans, root, "validation")),
            "s",
        ),
        Metric("nettrace.flowlog_read_s", read_s, "s"),
        Metric(
            "nettrace.flowlog_mb_per_s",
            if read_s > 0.0 { log_mib / read_s } else { 0.0 },
            "MiB/s",
        ),
        Metric("mem.rss_after_capture_mb", o.rss_after_capture_mib, "MiB"),
        Metric("mem.rss_after_summary_mb", o.rss_after_summary_mib, "MiB"),
        Metric(
            "trace.uncovered_s",
            root.map_or(0.0, |r| trace::self_time(spans, r)),
            "s",
        ),
    ]
}
