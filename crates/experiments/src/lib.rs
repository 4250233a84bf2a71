//! Experiment harness: regenerates every table and figure of the paper.
//!
//! * [`run`] — simulates the four vantage points (and the Campus 1
//!   Jun/Jul re-capture with Dropbox 1.4.0) as shards of
//!   `workload::ShardPlan::paper` on `simcore::par`'s deterministic
//!   fork-join executor; `--jobs N` changes wall-clock time only, never
//!   a single output byte,
//! * [`summary`] — the single-pass streaming summary: per vantage, one
//!   [`dropbox_analysis::Pipeline`] owns every accumulator its reports
//!   need and feeds them all in one walk; tables/figures render from the
//!   resulting [`summary::CaptureSummary`] without re-scanning flows,
//! * [`report`] — plain-text/CSV report plumbing,
//! * [`tables`] — Tables 1–5,
//! * [`figures`] — Figures 1–21,
//! * [`validation`] — ground-truth scoring of the analysis methods
//!   (classification accuracy, chunk-estimation error, user inference),
//!   the check the original authors could only perform inside a testbed,
//! * [`recommendations`] — the Sec. 4.5 countermeasure ablation
//!   (bundling / delayed acks / closer data-centers), all three
//!   implemented and measured,
//! * [`ablations`] — parameter sweeps for the design choices DESIGN.md
//!   calls out (server initcwnd, loss rate, batch limit, outage knobs),
//! * [`chaos`] — the chaos-soak harness (`repro --chaos N`): many seeded
//!   control-plane fault scenarios, each audited by the driver and
//!   checked against the sync-convergence oracle (DESIGN.md §9),
//! * [`registry`] — the one list of report ids and what each renders
//!   from, shared by `repro` and the smoke test,
//! * [`providers`] — the provider matrix (`repro --provider-matrix`):
//!   competing [`dropbox::spec`] protocol specifications driven through
//!   the same Home 1 workload, plus the bundling-vs-RTT sweep
//!   (DESIGN.md §10).
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! repro all --scale 0.1 --seed 7 --jobs 4 --out results/
//! repro fig9 table5
//! ```

pub mod ablations;
pub mod chaos;
pub mod chart;
pub mod figures;
pub mod providers;
pub mod recommendations;
pub mod registry;
pub mod report;
pub mod run;
pub mod summary;
pub mod tables;
pub mod validation;

pub use report::Report;
pub use run::{run_capture, Capture};
pub use summary::CaptureSummary;
