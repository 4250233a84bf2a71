//! Smoke test: every report generator produces a non-empty body and
//! well-formed CSV artifacts on a tiny capture.

use experiments::registry::REPORTS;
use experiments::run::run_capture;
use experiments::{ablations, recommendations, CaptureSummary, Report};

#[test]
fn every_report_generates() {
    let cap = run_capture(0.012, 21, &workload::FaultPlan::none(), 2);
    let sum = CaptureSummary::compute(&cap);
    let reports: Vec<Report> = REPORTS
        .iter()
        .flat_map(|(_, src)| src.render(&cap, &sum))
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
