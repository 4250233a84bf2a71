//! Tables 1–5, rendered from the single-pass [`CaptureSummary`].

use crate::report::{fmt_bps, fmt_bytes, Report, TextTable};
use crate::summary::CaptureSummary;
use dropbox_analysis::classify::StorageTag;
use dropbox_analysis::groups::{table5, UserGroup};
use simcore::stats::median;
use workload::VantageKind;

/// Table 1: domain names used by the different Dropbox services.
pub fn table1() -> Report {
    let mut t = TextTable::new(vec!["sub-domain", "Data-center", "Description"]);
    let rows = [
        ("client-lb/clientX", "Dropbox", "Meta-data"),
        ("notifyX", "Dropbox", "Notifications"),
        ("api", "Dropbox", "API control"),
        ("www", "Dropbox", "Web servers"),
        ("d", "Dropbox", "Event logs"),
        ("dl", "Amazon", "Direct links"),
        ("dl-clientX", "Amazon", "Client storage"),
        ("dl-debugX", "Amazon", "Back-traces"),
        ("dl-web", "Amazon", "Web storage"),
        ("api-content", "Amazon", "API Storage"),
    ];
    for (a, b, c) in rows {
        t.row(vec![a, b, c]);
    }
    // Verify every row classifies to a role in the deployment's directory.
    let mut checks = String::new();
    for (name, role) in [
        ("client-lb.dropbox.com", "MetaData"),
        ("notify7.dropbox.com", "Notification"),
        ("dl-client33.dropbox.com", "ClientStorage"),
    ] {
        let got = dnssim::DnsDirectory::role_of_name(name);
        checks.push_str(&format!("  {name} -> {got:?} (expect {role})\n"));
    }
    Report::new(
        "table1",
        "Domain names used by different Dropbox services",
        format!("{}\nclassifier spot-checks:\n{checks}", t.render()),
    )
    .with_csv("table1.csv", t.csv())
}

/// Table 2: datasets overview.
pub fn table2(sum: &CaptureSummary) -> Report {
    let mut t = TextTable::new(vec!["Name", "Type", "IP Addrs.", "Vol."]);
    let types = ["Wired", "Wired/Wireless", "FTTH/ADSL", "ADSL"];
    for (v, ty) in sum.vantages.iter().zip(types) {
        t.row(vec![
            v.name.clone(),
            ty.to_string(),
            v.overview.ip_addrs.to_string(),
            fmt_bytes(v.overview.volume_bytes),
        ]);
    }
    Report::new(
        "table2",
        "Datasets overview (population scaled; see EXPERIMENTS.md)",
        t.render(),
    )
    .with_csv("table2.csv", t.csv())
}

/// Table 3: total Dropbox traffic in the datasets.
pub fn table3(sum: &CaptureSummary) -> Report {
    let mut t = TextTable::new(vec!["Name", "Flows", "Vol.", "Devices"]);
    let mut total_flows = 0usize;
    let mut total_vol = 0u64;
    let mut total_dev = 0usize;
    for v in &sum.vantages {
        let d = &v.dropbox_totals;
        total_flows += d.flows;
        total_vol += d.volume_bytes;
        total_dev += d.devices;
        t.row(vec![
            v.name.clone(),
            d.flows.to_string(),
            fmt_bytes(d.volume_bytes),
            d.devices.to_string(),
        ]);
    }
    t.row(vec![
        "Total".to_string(),
        total_flows.to_string(),
        fmt_bytes(total_vol),
        total_dev.to_string(),
    ]);
    Report::new(
        "table3",
        "Total Dropbox traffic in the datasets",
        t.render(),
    )
    .with_csv("table3.csv", t.csv())
}

/// Table 4: Campus 1 before and after the bundling deployment.
pub fn table4(sum: &CaptureSummary) -> Report {
    let eras = [
        ("Mar/Apr (v1.2.52)", sum.vantage(VantageKind::Campus1)),
        ("Jun/Jul (v1.4.0)", &sum.campus1_v14),
    ];
    let mut t = TextTable::new(vec!["Metric", "Era", "Median", "Average"]);
    let mut improvements: Vec<(String, f64, f64)> = Vec::new();
    for tag in [StorageTag::Store, StorageTag::Retrieve] {
        let mut era_stats: Vec<(f64, f64, f64, f64)> = Vec::new();
        for (label, v) in &eras {
            let samples = v.storage.tag(tag);
            let mut sizes = samples.transfer_sizes.clone();
            let mut thr = samples.throughputs.clone();
            sizes.sort_by(|a, b| a.partial_cmp(b).unwrap());
            thr.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let size_med = median(&sizes).unwrap_or(0.0);
            let size_avg = sizes.iter().sum::<f64>() / sizes.len().max(1) as f64;
            let thr_med = median(&thr).unwrap_or(0.0);
            let thr_avg = thr.iter().sum::<f64>() / thr.len().max(1) as f64;
            era_stats.push((size_med, size_avg, thr_med, thr_avg));
            t.row(vec![
                format!("Flow size ({tag:?})"),
                label.to_string(),
                fmt_bytes(size_med as u64),
                fmt_bytes(size_avg as u64),
            ]);
            t.row(vec![
                format!("Throughput ({tag:?})"),
                label.to_string(),
                fmt_bps(thr_med),
                fmt_bps(thr_avg),
            ]);
        }
        if era_stats.len() == 2 {
            let gain_med = era_stats[1].2 / era_stats[0].2.max(1.0) - 1.0;
            let gain_avg = era_stats[1].3 / era_stats[0].3.max(1.0) - 1.0;
            improvements.push((format!("{tag:?}"), gain_med, gain_avg));
        }
    }
    let mut body = t.render();
    body.push('\n');
    for (tag, gm, ga) in improvements {
        body.push_str(&format!(
            "{tag}: throughput median {:+.0}%, average {:+.0}% after bundling\n",
            gm * 100.0,
            ga * 100.0
        ));
    }
    Report::new(
        "table4",
        "Campus 1 performance before/after the bundling mechanism",
        body,
    )
    .with_csv("table4.csv", t.csv())
}

/// Table 5: user groups in Home 1 and Home 2.
pub fn table5_report(sum: &CaptureSummary) -> Report {
    let mut t = TextTable::new(vec![
        "Vantage", "Group", "Addr.", "Sess.", "Retr.", "Store", "Days", "Dev.",
    ]);
    for kind in [VantageKind::Home1, VantageKind::Home2] {
        let v = sum.vantage(kind);
        let households = v.households.as_ref().expect("home summary has households");
        let rows = table5(households);
        for g in UserGroup::ALL {
            let r = &rows[&g];
            t.row(vec![
                v.name.clone(),
                g.label().to_string(),
                format!("{:.2}", r.addr_frac),
                format!("{:.2}", r.session_frac),
                fmt_bytes(r.retrieve_bytes),
                fmt_bytes(r.store_bytes),
                format!("{:.2}", r.avg_days),
                format!("{:.2}", r.avg_devices),
            ]);
        }
    }
    Report::new(
        "table5",
        "User groups in the home datasets (fractions, volumes, presence)",
        t.render(),
    )
    .with_csv("table5.csv", t.csv())
}
