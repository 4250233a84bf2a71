//! The one list of every report `repro` generates, in output order.
//!
//! `repro` selects from it by id, and the smoke test renders all of it,
//! so a report added here is both reachable and tested.

use crate::{ablations, figures, recommendations, tables, validation};
use crate::{Capture, CaptureSummary, Report};

/// What a report renders from.
pub enum Source {
    /// Testbed experiments and models that need no capture; one id may
    /// yield several reports.
    Standalone(fn() -> Vec<Report>),
    /// A pure renderer over the single-pass capture summary.
    Summary(fn(&CaptureSummary) -> Report),
    /// Ground-truth scoring, which needs the capture itself.
    Capture(fn(&Capture) -> Report),
}

impl Source {
    /// Render the report(s) of this entry.
    pub fn render(&self, cap: &Capture, sum: &CaptureSummary) -> Vec<Report> {
        match self {
            Source::Standalone(f) => f(),
            Source::Summary(f) => vec![f(sum)],
            Source::Capture(f) => vec![f(cap)],
        }
    }
}

/// Every report id with its source, in the order `repro all` writes them.
pub const REPORTS: &[(&str, Source)] = &[
    ("fig1", Source::Standalone(|| vec![figures::fig1()])),
    ("fig19", Source::Standalone(|| vec![figures::fig19()])),
    ("table1", Source::Standalone(|| vec![tables::table1()])),
    (
        "recommendations",
        Source::Standalone(|| vec![recommendations::recommendations()]),
    ),
    ("ablations", Source::Standalone(ablations::all)),
    ("table2", Source::Summary(tables::table2)),
    ("table3", Source::Summary(tables::table3)),
    ("table4", Source::Summary(tables::table4)),
    ("table5", Source::Summary(tables::table5_report)),
    ("fig2", Source::Summary(figures::fig2)),
    ("fig3", Source::Summary(figures::fig3)),
    ("fig4", Source::Summary(figures::fig4)),
    ("fig5", Source::Summary(figures::fig5)),
    ("fig6", Source::Summary(figures::fig6)),
    ("fig7", Source::Summary(figures::fig7)),
    ("fig8", Source::Summary(figures::fig8)),
    ("fig9", Source::Summary(figures::fig9)),
    ("fig10", Source::Summary(figures::fig10)),
    ("fig11", Source::Summary(figures::fig11)),
    ("fig12", Source::Summary(figures::fig12)),
    ("fig13", Source::Summary(figures::fig13)),
    ("fig14", Source::Summary(figures::fig14)),
    ("fig15", Source::Summary(figures::fig15)),
    ("fig16", Source::Summary(figures::fig16)),
    ("fig17", Source::Summary(figures::fig17)),
    ("fig18", Source::Summary(figures::fig18)),
    ("fig20", Source::Summary(figures::fig20)),
    ("fig21", Source::Summary(figures::fig21)),
    ("validation", Source::Capture(validation::validate)),
];

/// Whether report id `id` needs the simulated capture. Ids outside the
/// registry count as capture reports.
pub fn needs_capture(id: &str) -> bool {
    !REPORTS
        .iter()
        .any(|(i, src)| *i == id && matches!(src, Source::Standalone(_)))
}
