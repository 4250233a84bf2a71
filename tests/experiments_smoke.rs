//! Smoke test: every report generator produces a non-empty body and
//! well-formed CSV artifacts on a tiny capture, and the reports rendered
//! from the single-pass summary are pinned to a golden digest.

use experiments::registry::{Source, REPORTS};
use experiments::run::run_capture;
use experiments::summary::VantageSummary;
use experiments::{ablations, recommendations, Capture, CaptureSummary, Report};
use std::sync::OnceLock;

/// The tiny capture every test here renders from, with its summary.
fn capture() -> &'static (Capture, CaptureSummary) {
    static CAP: OnceLock<(Capture, CaptureSummary)> = OnceLock::new();
    CAP.get_or_init(|| {
        let cap = run_capture(0.012, 21, &workload::FaultPlan::none(), 2);
        let sum = CaptureSummary::compute(&cap);
        (cap, sum)
    })
}

/// FNV-1a over `bytes`, continued from state `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn every_report_generates() {
    let (cap, sum) = capture();
    let reports: Vec<Report> = REPORTS
        .iter()
        .flat_map(|(_, src)| src.render(cap, sum))
        .collect();

    assert!(reports.len() >= 27, "reports: {}", reports.len());
    for rep in &reports {
        assert!(!rep.body.trim().is_empty(), "{} empty", rep.id);
        assert!(!rep.render().is_empty());
        for (name, csv) in &rep.artifacts {
            assert!(name.ends_with(".csv"), "{name}");
            // `#` lines are comments (fig9's decimation digest header).
            let mut lines = csv.lines().filter(|l| !l.starts_with('#'));
            let header = lines.next().unwrap_or("");
            let cols = header.split(',').count();
            assert!(cols >= 2, "{}: {name} header {header}", rep.id);
            for (i, line) in lines.enumerate() {
                assert_eq!(
                    line.split(',').count(),
                    cols,
                    "{}:{name} line {} column mismatch",
                    rep.id,
                    i + 2
                );
            }
        }
    }
}

/// Golden pin of the single-pass summary: the summary-rendered reports
/// (text and CSV artifacts, in registry order) digest to a fixed value,
/// every pass reports fixed record, stage and state counts, and each
/// vantage-specific statistic is present exactly where a report consumes
/// it.
#[test]
fn summary_reports_match_the_golden_pin() {
    let (_, sum) = capture();
    let mut h = 0xcbf29ce484222325;
    for (id, src) in REPORTS {
        let Source::Summary(render) = src else {
            continue;
        };
        let rep = render(sum);
        assert_eq!(rep.id, *id);
        h = fnv1a(h, rep.render().as_bytes());
        for (name, csv) in &rep.artifacts {
            h = fnv1a(h, name.as_bytes());
            h = fnv1a(h, csv.as_bytes());
        }
    }
    assert_eq!(h, 0x9eca_e90b_20a0_ab6c, "summary report digest {h:#018x}");

    let passes: Vec<&VantageSummary> = sum
        .vantages
        .iter()
        .chain(std::iter::once(&sum.campus1_v14))
        .collect();
    let counts: Vec<(u64, usize, usize)> = passes
        .iter()
        .map(|v| (v.records, v.stages, v.state_bytes))
        .collect();
    assert_eq!(
        counts,
        [
            (7312, 13, 79327),    // Campus 1
            (42209, 16, 1067174), // Campus 2
            (35745, 15, 456600),  // Home 1
            (25343, 13, 254348),  // Home 2
            (1962, 11, 25500),    // Campus 1 re-capture
        ],
        "per-pass (records, stages, state_bytes)"
    );

    // One letter per vantage-specific statistic: Fig. 2 provider series,
    // Fig. 3 daily Dropbox/YouTube/total bytes, households, devices per
    // household, namespaces per device, Figs. 9, 10 and 20.
    let placement: Vec<String> = passes
        .iter()
        .map(|v| {
            [
                v.provider_series.is_some(),
                v.daily_dropbox.is_some(),
                v.daily_youtube.is_some(),
                v.daily_total.is_some(),
                v.households.is_some(),
                v.devices_per_household.is_some(),
                v.namespaces_per_device.is_some(),
                v.fig9.is_some(),
                v.fig10.is_some(),
                v.fig20.is_some(),
            ]
            .iter()
            .zip("pdytHDn9xz".chars())
            .map(|(&on, c)| if on { c } else { '-' })
            .collect()
        })
        .collect();
    assert_eq!(
        placement,
        [
            "------n--z", // Campus 1
            "-dyt---9x-", // Campus 2
            "p---HDn---", // Home 1
            "----HD----", // Home 2
            "----------", // Campus 1 re-capture
        ]
    );
}

#[test]
fn extension_reports_generate() {
    // The standalone extensions need no capture.
    let rec = recommendations::recommendations();
    assert!(rec.body.contains("bundling"));
    for rep in ablations::all() {
        assert!(!rep.body.trim().is_empty(), "{} empty", rep.id);
        assert!(!rep.artifacts.is_empty(), "{} lacks CSV", rep.id);
    }
}
