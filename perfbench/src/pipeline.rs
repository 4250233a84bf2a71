//! The three workloads, driven through the same public calls `repro`
//! makes: set-up, then capture (or flow-log read), summary, rendering and
//! validation. The traced run records a span around each call.

use crate::procfs;
use crate::trace::{Span, SpanId, Tracer};
use experiments::run::run_capture_with_plan;
use experiments::summary::{SummarySpec, VantageSummary};
use experiments::{figures, tables, validation, Capture, CaptureSummary, Report};
use nettrace::flowlog;
use std::fs::File;
use std::io::{self, BufReader, BufWriter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::thread::{self, ThreadId};
use workload::{simulate_vantage_span, FaultPlan, OutageKnobs, ShardPlan, SimOutput, VantageKind};

/// Days covered by the lossy plan's outage schedule: the longest capture
/// (the 42-day Mar–May window), as `repro --faults` uses.
const FAULT_HORIZON_DAYS: u32 = 42;

/// A named set of inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `repro all`: the five captures fault-free, summary, every table
    /// and figure, validation.
    Paper,
    /// The same pipeline under `FaultPlan::lossy_tuned(seed, 42, default)`,
    /// as `repro --seed S --faults S` runs it.
    PaperLossy,
    /// Anonymised flow logs of the five captures parsed back, summarised
    /// and rendered (no validation: logs carry no ground truth).
    TraceReplay,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::PaperLossy, Workload::TraceReplay];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::PaperLossy => "paper-lossy",
            Workload::TraceReplay => "trace-replay",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// File name of the flow log of merge slot `slot` (the capture order of
/// [`Capture`]: four vantage points, then the Campus 1 re-capture).
pub fn log_name(slot: usize) -> String {
    match VantageKind::ALL.get(slot) {
        Some(kind) => format!("{}.jsonl", kind.name().to_lowercase().replace(' ', "")),
        None => "campus1_v14.jsonl".to_string(),
    }
}

/// Everything built before the first pipeline call.
pub struct Setup {
    /// Workload run.
    pub workload: Workload,
    /// Population scale factor.
    pub scale: f64,
    /// Simulation seed.
    pub seed: u64,
    /// Worker threads of the capture (`min(available cores, affinity)`).
    pub jobs: usize,
    /// Shard plan of the five captures.
    pub plan: ShardPlan,
    /// Fault plan of the captures.
    pub faults: FaultPlan,
    /// Opened flow logs with their sizes in bytes, in `plan.shards` order
    /// (trace-replay only).
    pub logs: Vec<(File, u64)>,
}

/// Build the plans and open the inputs of `workload`.
pub fn setup(
    workload: Workload,
    scale: f64,
    seed: u64,
    logs_dir: Option<&Path>,
) -> io::Result<Setup> {
    let plan = ShardPlan::paper();
    let faults = match workload {
        Workload::PaperLossy => {
            FaultPlan::lossy_tuned(seed, FAULT_HORIZON_DAYS, &OutageKnobs::default())
        }
        Workload::Paper | Workload::TraceReplay => FaultPlan::none(),
    };
    let mut logs = Vec::new();
    if workload == Workload::TraceReplay {
        let dir = logs_dir.ok_or_else(|| io::Error::other("trace-replay needs --logs DIR"))?;
        for shard in &plan.shards {
            let file = File::open(dir.join(log_name(shard.merge_slot)))?;
            let bytes = file.metadata()?.len();
            logs.push((file, bytes));
        }
    }
    Ok(Setup {
        workload,
        scale,
        seed,
        jobs: simcore::par::available_jobs(),
        plan,
        faults,
        logs,
    })
}

/// What one run produced, kept until it has been judged and counted.
pub struct Outcome {
    /// The capture (simulated, or rebuilt from the flow logs).
    pub capture: Capture,
    /// Its summary.
    pub summary: CaptureSummary,
    /// Rendered artifacts: `<id>.txt` per report plus its CSVs.
    pub artifacts: Vec<(String, String)>,
    /// Reports rendered.
    pub reports: usize,
    /// `<id>.txt` of every report whose generator panicked.
    pub lost: Vec<String>,
    /// Resident set after the capture (or read) and after the summary, MiB
    /// (traced runs only).
    pub rss_after_capture_mib: f64,
    /// See `rss_after_capture_mib`.
    pub rss_after_summary_mib: f64,
}

type Gen = fn(&Capture, &CaptureSummary) -> Report;

/// Reports rendered without a capture (the testbed figures and Table 1).
const STANDALONE: &[(&str, Gen)] = &[
    ("fig1", |_, _| figures::fig1()),
    ("fig19", |_, _| figures::fig19()),
    ("table1", |_, _| tables::table1()),
];

/// Reports rendered from the capture summary, in `repro` order.
const FROM_SUMMARY: &[(&str, Gen)] = &[
    ("table2", |_, s| tables::table2(s)),
    ("table3", |_, s| tables::table3(s)),
    ("table4", |_, s| tables::table4(s)),
    ("table5", |_, s| tables::table5_report(s)),
    ("fig2", |_, s| figures::fig2(s)),
    ("fig3", |_, s| figures::fig3(s)),
    ("fig4", |_, s| figures::fig4(s)),
    ("fig5", |_, s| figures::fig5(s)),
    ("fig6", |_, s| figures::fig6(s)),
    ("fig7", |_, s| figures::fig7(s)),
    ("fig8", |_, s| figures::fig8(s)),
    ("fig9", |_, s| figures::fig9(s)),
    ("fig10", |_, s| figures::fig10(s)),
    ("fig11", |_, s| figures::fig11(s)),
    ("fig12", |_, s| figures::fig12(s)),
    ("fig13", |_, s| figures::fig13(s)),
    ("fig14", |_, s| figures::fig14(s)),
    ("fig15", |_, s| figures::fig15(s)),
    ("fig16", |_, s| figures::fig16(s)),
    ("fig17", |_, s| figures::fig17(s)),
    ("fig18", |_, s| figures::fig18(s)),
    ("fig20", |_, s| figures::fig20(s)),
    ("fig21", |_, s| figures::fig21(s)),
];

/// Ground-truth scoring; needs the capture itself.
const VALIDATION: &[(&str, Gen)] = &[("validation", |c, _| validation::validate(c))];

/// Run the pipeline of `setup` from its first call to its last rendered
/// artifact, recording spans under `root` when `tracer` is enabled.
pub fn execute(setup: Setup, tracer: &mut Tracer, root: Option<SpanId>) -> io::Result<Outcome> {
    let traced = tracer.enabled();
    let Setup {
        workload,
        scale,
        seed,
        jobs,
        plan,
        faults,
        logs,
    } = setup;

    let capture = match workload {
        Workload::TraceReplay => {
            let span = tracer.open("flowlog_read", root);
            let cap = read_logs(&plan, scale, seed, logs, tracer, span)?;
            tracer.close(span);
            cap
        }
        Workload::Paper | Workload::PaperLossy => {
            let span = tracer.open("capture", root);
            let cap = if traced {
                traced_capture(&plan, scale, seed, &faults, jobs, tracer, span)
            } else {
                run_capture_with_plan(&plan, scale, seed, &faults, jobs)
            };
            tracer.close(span);
            cap
        }
    };
    let rss = || {
        if traced {
            procfs::self_status_mib("VmRSS")
        } else {
            0.0
        }
    };
    let rss_after_capture_mib = rss();

    let span = tracer.open("summary", root);
    let summary = if traced {
        traced_summary(&capture, tracer, span)
    } else {
        CaptureSummary::compute(&capture)
    };
    tracer.close(span);
    let rss_after_summary_mib = rss();

    let mut rendered = Rendered::default();
    let span = tracer.open("render", root);
    if workload != Workload::TraceReplay {
        rendered.run(STANDALONE, &capture, &summary, tracer, span);
    }
    rendered.run(FROM_SUMMARY, &capture, &summary, tracer, span);
    tracer.close(span);
    if workload != Workload::TraceReplay {
        let span = tracer.open("validation", root);
        rendered.run(VALIDATION, &capture, &summary, tracer, span);
        tracer.close(span);
    }

    Ok(Outcome {
        capture,
        summary,
        artifacts: rendered.artifacts,
        reports: rendered.reports,
        lost: rendered.lost,
        rss_after_capture_mib,
        rss_after_summary_mib,
    })
}

#[derive(Default)]
struct Rendered {
    artifacts: Vec<(String, String)>,
    reports: usize,
    lost: Vec<String>,
}

impl Rendered {
    /// Render each report; a panicking generator loses its artifacts
    /// instead of ending the run.
    fn run(
        &mut self,
        gens: &[(&str, Gen)],
        cap: &Capture,
        sum: &CaptureSummary,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
    ) {
        for (id, gen) in gens {
            let span = tracer.open(id, parent);
            match catch_unwind(AssertUnwindSafe(|| gen(cap, sum))) {
                Ok(rep) => {
                    self.artifacts
                        .push((format!("{}.txt", rep.id), rep.render()));
                    self.artifacts.extend(rep.artifacts);
                    self.reports += 1;
                }
                Err(_) => self.lost.push(format!("{id}.txt")),
            }
            tracer.close(span);
        }
    }
}

/// Dense worker numbers (1..) for the executor's threads, in order of
/// first appearance.
fn worker_numbers(ids: &[ThreadId]) -> Vec<usize> {
    let mut seen: Vec<ThreadId> = Vec::new();
    ids.iter()
        .map(|id| match seen.iter().position(|s| s == id) {
            Some(i) => i + 1,
            None => {
                seen.push(*id);
                seen.len()
            }
        })
        .collect()
}

/// `simulate_shards` + `run_capture_with_plan` with a span around each
/// household range: the same `fork_join` over the same
/// `household_shards`, and the same ordered merge.
fn traced_capture(
    plan: &ShardPlan,
    scale: f64,
    seed: u64,
    faults: &FaultPlan,
    jobs: usize,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Capture {
    let work = plan.household_shards(scale);
    let fork = tracer.open("fork_join", parent);
    let clock = &*tracer;
    let timed = simcore::par::fork_join(jobs, &work, |_, hs| {
        let start = clock.now();
        let shard = &plan.shards[hs.capture];
        let span = simulate_vantage_span(
            &shard.config(scale),
            shard.version,
            shard.capture_seed(seed),
            faults,
            hs.households.clone(),
        );
        (span, start, clock.now(), thread::current().id())
    });
    tracer.close(fork);
    let ids: Vec<ThreadId> = timed.iter().map(|t| t.3).collect();
    let mut spans = Vec::with_capacity(timed.len());
    for ((hs, (span, start, end, _)), worker) in work.iter().zip(timed).zip(worker_numbers(&ids)) {
        tracer.push(Span {
            name: format!("hh/{}/{:?}", plan.shards[hs.capture].label, hs.households),
            start,
            end,
            parent: fork,
            worker,
        });
        spans.push((hs, span));
    }

    let merge = tracer.open("merge", parent);
    let mut per_capture: Vec<Vec<_>> = (0..plan.shards.len()).map(|_| Vec::new()).collect();
    for (hs, span) in spans {
        per_capture[hs.capture].push((hs.households.start, span));
    }
    let mut slots: Vec<Option<SimOutput>> = (0..plan.shards.len()).map(|_| None).collect();
    for (ci, shard) in plan.shards.iter().enumerate() {
        let mut spans = std::mem::take(&mut per_capture[ci]);
        spans.sort_by_key(|(start, _)| *start);
        let mut merge = nettrace::SpanMerge::new(spans.len());
        let mut out = empty_output(shard.config(scale).expose_dns, shard.kind, shard.days);
        for (slot, (_, span)) in spans.into_iter().enumerate() {
            merge.accept_span(slot, span.flows);
            out.truths.extend(span.truths);
            out.lan_synced += span.stats.lan_synced;
            out.truth_users.extend(span.stats.truth_users);
            out.fault_stats.absorb(span.stats.fault_stats);
        }
        out.dataset.flows = merge.into_flows();
        slots[shard.merge_slot] = Some(out);
    }
    let mut outputs: Vec<SimOutput> = slots
        .into_iter()
        .map(|s| s.expect("every merge slot assigned"))
        .collect();
    tracer.close(merge);
    let campus1_v14 = outputs.pop().expect("plan ends with the re-capture");
    Capture {
        scale,
        seed,
        vantages: outputs,
        campus1_v14,
    }
}

fn empty_output(expose_dns: bool, kind: VantageKind, days: u32) -> SimOutput {
    SimOutput {
        dataset: dropbox_analysis::Dataset::new(kind.name(), expose_dns, days),
        truths: Vec::new(),
        lan_synced: 0,
        truth_users: Vec::new(),
        fault_stats: workload::FaultStats::default(),
    }
}

/// `CaptureSummary::compute` with a span around each vantage point's
/// `VantageSummary::compute`.
fn traced_summary(cap: &Capture, tracer: &mut Tracer, parent: Option<SpanId>) -> CaptureSummary {
    let mut one = |out: &SimOutput, spec: &SummarySpec| {
        let span = tracer.open(&out.dataset.name, parent);
        let v = VantageSummary::compute(out, spec);
        tracer.close(span);
        v
    };
    let vantages = VantageKind::ALL
        .iter()
        .zip(&cap.vantages)
        .map(|(&kind, out)| one(out, &SummarySpec::for_kind(kind)))
        .collect();
    let campus1_v14 = one(&cap.campus1_v14, &SummarySpec::recapture());
    CaptureSummary {
        scale: cap.scale,
        seed: cap.seed,
        vantages,
        campus1_v14,
    }
}

/// Parse the five flow logs back into a [`Capture`] without ground
/// truth (logs carry none: no truths, LAN-sync counts or fault counters).
fn read_logs(
    plan: &ShardPlan,
    scale: f64,
    seed: u64,
    logs: Vec<(File, u64)>,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> io::Result<Capture> {
    let mut slots: Vec<Option<SimOutput>> = (0..plan.shards.len()).map(|_| None).collect();
    for (shard, (file, _)) in plan.shards.iter().zip(logs) {
        let span = tracer.open(&log_name(shard.merge_slot), parent);
        let mut out = empty_output(shard.config(scale).expose_dns, shard.kind, shard.days);
        out.dataset.flows = flowlog::read_jsonl(BufReader::new(file))?;
        tracer.close(span);
        slots[shard.merge_slot] = Some(out);
    }
    let mut outputs: Vec<SimOutput> = slots
        .into_iter()
        .map(|s| s.expect("every merge slot assigned"))
        .collect();
    let campus1_v14 = outputs.pop().expect("plan ends with the re-capture");
    Ok(Capture {
        scale,
        seed,
        vantages: outputs,
        campus1_v14,
    })
}

/// Write the anonymised flow logs of the fault-free capture of (`scale`,
/// `seed`) into `dir`, one JSONL file per capture; returns the records
/// written.
pub fn write_logs(dir: &Path, scale: f64, seed: u64) -> io::Result<u64> {
    let plan = ShardPlan::paper();
    let outputs = workload::simulate_shards(
        &plan,
        scale,
        seed,
        &FaultPlan::none(),
        simcore::par::available_jobs(),
    );
    let mut records = 0;
    for (slot, mut out) in outputs.into_iter().enumerate() {
        flowlog::anonymise_clients(&mut out.dataset.flows);
        let path = dir.join(log_name(slot));
        let tmp = dir.join(format!("{}.tmp", log_name(slot)));
        let mut w = BufWriter::new(File::create(&tmp)?);
        flowlog::write_jsonl(&mut w, &out.dataset.flows)?;
        // On disk before any measured run reads it, so no write-back
        // competes with the replay.
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, &path)?;
        records += out.dataset.flows.len() as u64;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn log_names_follow_merge_slots() {
        let names: Vec<String> = (0..5).map(log_name).collect();
        assert_eq!(
            names,
            [
                "campus1.jsonl",
                "campus2.jsonl",
                "home1.jsonl",
                "home2.jsonl",
                "campus1_v14.jsonl"
            ]
        );
    }

    #[test]
    fn worker_numbers_are_dense_in_first_appearance_order() {
        let main = thread::current().id();
        let other = thread::spawn(|| thread::current().id())
            .join()
            .expect("join");
        assert_eq!(worker_numbers(&[other, main, other, main]), [1, 2, 1, 2]);
    }

    #[test]
    fn traced_capture_matches_run_capture_with_plan() {
        let plan = ShardPlan::paper().truncated(2);
        let faults = FaultPlan::none();
        let plain = run_capture_with_plan(&plan, 0.012, 3, &faults, 2);
        let mut tracer = Tracer::new(Instant::now(), true);
        let traced = traced_capture(&plan, 0.012, 3, &faults, 2, &mut tracer, None);
        let jsonl = |o: &SimOutput| {
            let mut buf = Vec::new();
            flowlog::write_jsonl(&mut buf, &o.dataset.flows).expect("serialise");
            (
                buf,
                o.dataset.name.clone(),
                o.lan_synced,
                o.truths.len(),
                o.truth_users.clone(),
            )
        };
        for (a, b) in plain
            .vantages
            .iter()
            .chain([&plain.campus1_v14])
            .zip(traced.vantages.iter().chain([&traced.campus1_v14]))
        {
            assert!(jsonl(a) == jsonl(b), "{} differs", a.dataset.name);
        }
        let households = plan.household_shards(0.012).len();
        assert_eq!(
            tracer.spans().len(),
            households + 2,
            "fork_join + merge + one per range"
        );
    }
}
