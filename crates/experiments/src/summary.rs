//! Single-pass capture summaries.
//!
//! Every flow-derived statistic the tables and figures consume is
//! computed here by fanning each vantage point's record stream through
//! **one** [`Pipeline`] — the experiment harness no longer re-scans
//! `dataset.flows` once per figure. A [`VantageSummary`] holds the
//! finished accumulator outputs; the figure/table generators are pure
//! renderers over it.
//!
//! Two kinds of state live in the accumulators:
//!
//! * *aggregates* (tables, daily series, per-role shares) — bounded by
//!   the analysis dimensions (addresses, days, roles), not by the flow
//!   count,
//! * *distributions* (ECDF sample vectors, scatter rows) — O(flows in
//!   the category), because the reports pin byte-identical ECDFs and
//!   CSV artifacts, which need the exact point sets in stream order.
//!
//! Vantage-specific statistics (the Campus 2 throughput scatter, the
//! home-network household tables, …) are only accumulated where a
//! consumer exists: each such stage names, on the line that adds it to
//! the pipeline, the vantage points whose reports read it.

use dropbox_analysis::chunks::{estimate_chunks, reverse_payload_per_chunk, ChunkGroup};
use dropbox_analysis::classify::{
    dropbox_role, ssl_adjusted, storage_tag, transfer_size, DropboxRole, Provider, StorageTag,
};
use dropbox_analysis::dataset::{
    DailyBytesAcc, DailyTotalAcc, DatasetOverview, DropboxTotals, DropboxTotalsAcc, OverviewAcc,
    ProviderDay, ProviderSeriesAcc, RoleBreakdownAcc, RoleShare, StorageServersAcc,
};
use dropbox_analysis::groups::{HouseholdUsage, HouseholdsAcc};
use dropbox_analysis::sessions::{
    DevicesPerHouseholdAcc, HolidayDipAcc, HourlyProfiles, HourlyProfilesAcc,
    NamespacesPerDeviceAcc, RawDurationsAcc, StartupsAcc,
};
use dropbox_analysis::stream::Pipeline;
use dropbox_analysis::throughput::{throughput_bps, transfer_duration, ThetaModel};
use dropbox_analysis::Accumulate;
use nettrace::{FlowRecord, Ipv4};
use simcore::stats::{LogBins, OrderlessSum};
use simcore::SimDuration;
use std::collections::BTreeMap;
use std::mem::size_of;
use workload::{SimOutput, VantageKind};

use crate::run::Capture;

/// Per-tag (store/retrieve) sample vectors of client-storage flows, in
/// stream order — the inputs of Figs. 7, 8, 21 and Table 4.
#[derive(Clone, Debug, Default)]
pub struct TagSamples {
    /// Whole-flow sizes (`total_bytes`), Fig. 7.
    pub sizes: Vec<f64>,
    /// Estimated chunks per flow, Fig. 8.
    pub chunks: Vec<f64>,
    /// Reverse payload per estimated chunk, Fig. 21.
    pub rev_payload: Vec<f64>,
    /// Payload transfer sizes (`transfer_size`), Table 4.
    pub transfer_sizes: Vec<f64>,
    /// Throughputs of flows with a defined duration, Table 4.
    pub throughputs: Vec<f64>,
}

/// All per-tag storage-flow statistics of one vantage point.
#[derive(Clone, Debug, Default)]
pub struct StorageFlows {
    /// Store-tagged flows.
    pub store: TagSamples,
    /// Retrieve-tagged flows.
    pub retrieve: TagSamples,
    /// SSL-adjusted uploaded bytes of store flows (Fig. 11 ratios).
    pub store_up_adj: u64,
    /// SSL-adjusted downloaded bytes of retrieve flows (Fig. 11 ratios).
    pub retrieve_down_adj: u64,
}

impl StorageFlows {
    /// Samples of one tag.
    pub fn tag(&self, tag: StorageTag) -> &TagSamples {
        match tag {
            StorageTag::Store => &self.store,
            StorageTag::Retrieve => &self.retrieve,
        }
    }
}

/// Streaming accumulator behind [`StorageFlows`].
#[derive(Default)]
pub struct StorageFlowsAcc {
    out: StorageFlows,
}

impl Accumulate for StorageFlowsAcc {
    type Output = StorageFlows;

    fn observe(&mut self, f: &FlowRecord) {
        if dropbox_role(f) != Some(DropboxRole::ClientStorage) {
            return;
        }
        let (up, down) = ssl_adjusted(f);
        let t = match storage_tag(f) {
            StorageTag::Store => {
                self.out.store_up_adj += up;
                &mut self.out.store
            }
            StorageTag::Retrieve => {
                self.out.retrieve_down_adj += down;
                &mut self.out.retrieve
            }
        };
        t.sizes.push(f.total_bytes() as f64);
        t.chunks.push(estimate_chunks(f) as f64);
        if let Some(p) = reverse_payload_per_chunk(f) {
            t.rev_payload.push(p);
        }
        t.transfer_sizes.push(transfer_size(f) as f64);
        if let Some(x) = throughput_bps(f) {
            t.throughputs.push(x);
        }
    }

    fn finish(self) -> StorageFlows {
        self.out
    }

    fn state_bytes(&self) -> usize {
        let tag = |t: &TagSamples| {
            (t.sizes.len()
                + t.chunks.len()
                + t.rev_payload.len()
                + t.transfer_sizes.len()
                + t.throughputs.len())
                * size_of::<f64>()
        };
        size_of::<Self>() + tag(&self.out.store) + tag(&self.out.retrieve)
    }
}

/// Minimum-RTT samples of the storage and control planes (Fig. 6):
/// flows with ≥ 10 RTT samples, in stream order.
#[derive(Clone, Debug, Default)]
pub struct RttPlanes {
    /// Client-storage flows.
    pub storage: Vec<f64>,
    /// Client-control and notification flows.
    pub control: Vec<f64>,
}

/// Streaming accumulator behind [`RttPlanes`].
#[derive(Default)]
pub struct RttAcc {
    out: RttPlanes,
}

impl Accumulate for RttAcc {
    type Output = RttPlanes;

    fn observe(&mut self, f: &FlowRecord) {
        if f.rtt_samples < 10 {
            return;
        }
        let plane = match dropbox_role(f) {
            Some(DropboxRole::ClientStorage) => &mut self.out.storage,
            Some(DropboxRole::ClientControl) | Some(DropboxRole::NotifyControl) => {
                &mut self.out.control
            }
            _ => return,
        };
        if let Some(r) = f.min_rtt_ms {
            plane.push(r);
        }
    }

    fn finish(self) -> RttPlanes {
        self.out
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() + (self.out.storage.len() + self.out.control.len()) * size_of::<f64>()
    }
}

/// Web-interface statistics (Figs. 17–18): upload/download sizes of the
/// main interface (`dl-web`) and direct-link (`dl`) download sizes.
#[derive(Clone, Debug, Default)]
pub struct WebStats {
    /// Upload bytes of `dl-web.dropbox.com` flows.
    pub web_up: Vec<f64>,
    /// Download bytes of `dl-web.dropbox.com` flows.
    pub web_down: Vec<f64>,
    /// Download bytes of `dl.dropbox.com` flows (count = `len()`).
    pub direct_down: Vec<f64>,
    /// All web-storage flows (direct links + main interface + rest).
    pub web_storage_flows: usize,
}

/// Streaming accumulator behind [`WebStats`].
#[derive(Default)]
pub struct WebAcc {
    out: WebStats,
}

impl Accumulate for WebAcc {
    type Output = WebStats;

    fn observe(&mut self, f: &FlowRecord) {
        if dropbox_role(f) != Some(DropboxRole::WebStorage) {
            return;
        }
        self.out.web_storage_flows += 1;
        match f.server_name() {
            Some("dl-web.dropbox.com") => {
                self.out.web_up.push(f.up.bytes as f64);
                self.out.web_down.push(f.down.bytes as f64);
            }
            Some("dl.dropbox.com") => self.out.direct_down.push(f.down.bytes as f64),
            _ => {}
        }
    }

    fn finish(self) -> WebStats {
        self.out
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>()
            + (self.out.web_up.len() + self.out.web_down.len() + self.out.direct_down.len())
                * size_of::<f64>()
    }
}

/// One tag's share of the Fig. 9 throughput scatter.
#[derive(Clone, Debug, Default)]
pub struct Fig9Tag {
    /// CSV rows (`tag,bytes,throughput_bps,chunks,group`) in stream order.
    pub rows: String,
    /// Flows with a defined throughput.
    pub n: usize,
    /// Flows above the θ slow-start bound.
    pub above_theta: usize,
    /// Throughput sum (exact, order-insensitive accumulation — see
    /// [`Fig9Acc`]).
    pub thr_sum: f64,
    /// Maximum throughput.
    pub thr_max: f64,
}

/// Fig. 9 scatter statistics (Campus 2).
#[derive(Clone, Debug, Default)]
pub struct Fig9Data {
    /// Store-tagged flows.
    pub store: Fig9Tag,
    /// Retrieve-tagged flows.
    pub retrieve: Fig9Tag,
}

/// Streaming accumulator behind [`Fig9Data`]. Throughput sums accumulate
/// in `OrderlessSum`s so the reported means cannot depend on fold order;
/// `finish` rounds them once into [`Fig9Tag::thr_sum`].
pub struct Fig9Acc {
    theta: ThetaModel,
    out: Fig9Data,
    store_thr: OrderlessSum,
    retr_thr: OrderlessSum,
}

/// The RTT Fig. 9's θ reference uses (outer 88 ms + access).
pub fn fig9_theta() -> ThetaModel {
    ThetaModel::paper(SimDuration::from_millis(100))
}

impl Fig9Acc {
    /// New accumulator with the paper's θ model.
    pub fn new() -> Self {
        Fig9Acc {
            theta: fig9_theta(),
            out: Fig9Data::default(),
            store_thr: OrderlessSum::new(),
            retr_thr: OrderlessSum::new(),
        }
    }
}

impl Default for Fig9Acc {
    fn default() -> Self {
        Self::new()
    }
}

impl Accumulate for Fig9Acc {
    type Output = Fig9Data;

    fn observe(&mut self, f: &FlowRecord) {
        if dropbox_role(f) != Some(DropboxRole::ClientStorage) {
            return;
        }
        let tag = storage_tag(f);
        let bytes = transfer_size(f);
        let Some(x) = throughput_bps(f) else { return };
        let c = estimate_chunks(f);
        let (t, thr) = match tag {
            StorageTag::Store => (&mut self.out.store, &mut self.store_thr),
            StorageTag::Retrieve => (&mut self.out.retrieve, &mut self.retr_thr),
        };
        thr.add(x);
        t.thr_max = t.thr_max.max(x);
        t.n += 1;
        if x > self.theta.theta_bps(bytes) {
            t.above_theta += 1;
        }
        t.rows.push_str(&format!(
            "{tag:?},{bytes},{x:.0},{c},{}\n",
            ChunkGroup::of(c).label()
        ));
    }

    fn finish(self) -> Fig9Data {
        let mut out = self.out;
        out.store.thr_sum = self.store_thr.value();
        out.retrieve.thr_sum = self.retr_thr.value();
        out
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() + self.out.store.rows.len() + self.out.retrieve.rows.len()
    }
}

/// The size bins of Fig. 10's duration-floor grid.
pub fn fig10_bins() -> LogBins {
    LogBins::new(1_000.0, 400e6, 36)
}

/// Minimum flow duration per (chunk group, size bin), per tag (Fig. 10,
/// Campus 2). Indexed `[group][bin]`.
#[derive(Clone, Debug)]
pub struct Fig10Data {
    /// Store-tagged minima.
    pub store: Vec<Vec<Option<f64>>>,
    /// Retrieve-tagged minima.
    pub retrieve: Vec<Vec<Option<f64>>>,
}

/// Streaming accumulator behind [`Fig10Data`].
pub struct Fig10Acc {
    bins: LogBins,
    out: Fig10Data,
}

impl Fig10Acc {
    /// New accumulator over [`fig10_bins`].
    pub fn new() -> Self {
        let bins = fig10_bins();
        let grid = || vec![vec![None; bins.len()]; ChunkGroup::ALL.len()];
        Fig10Acc {
            out: Fig10Data {
                store: grid(),
                retrieve: grid(),
            },
            bins,
        }
    }
}

impl Default for Fig10Acc {
    fn default() -> Self {
        Self::new()
    }
}

impl Accumulate for Fig10Acc {
    type Output = Fig10Data;

    fn observe(&mut self, f: &FlowRecord) {
        if dropbox_role(f) != Some(DropboxRole::ClientStorage) {
            return;
        }
        let bytes = transfer_size(f);
        if bytes == 0 {
            return;
        }
        let Some(d) = transfer_duration(f) else {
            return;
        };
        let g = ChunkGroup::ALL
            .iter()
            .position(|&g| g == ChunkGroup::of(estimate_chunks(f)))
            .expect("group");
        let b = self.bins.index(bytes as f64);
        let grid = match storage_tag(f) {
            StorageTag::Store => &mut self.out.store,
            StorageTag::Retrieve => &mut self.out.retrieve,
        };
        let secs = d.as_secs_f64();
        grid[g][b] = Some(grid[g][b].map_or(secs, |m: f64| m.min(secs)));
    }

    fn finish(self) -> Fig10Data {
        self.out
    }

    fn state_bytes(&self) -> usize {
        let grid = |g: &[Vec<Option<f64>>]| {
            g.iter()
                .map(|r| r.len() * size_of::<Option<f64>>())
                .sum::<usize>()
        };
        size_of::<Self>() + grid(&self.out.store) + grid(&self.out.retrieve)
    }
}

/// Fig. 20 scatter (Campus 1): SSL-adjusted byte pairs in stream order
/// plus the store/retrieve split.
#[derive(Clone, Debug, Default)]
pub struct Fig20Data {
    /// CSV rows (`up_adj,down_adj,tag`), no header.
    pub rows: String,
    /// Store-tagged flows.
    pub store: usize,
    /// Retrieve-tagged flows.
    pub retrieve: usize,
}

/// Streaming accumulator behind [`Fig20Data`].
#[derive(Default)]
pub struct Fig20Acc {
    out: Fig20Data,
}

impl Accumulate for Fig20Acc {
    type Output = Fig20Data;

    fn observe(&mut self, f: &FlowRecord) {
        if dropbox_role(f) != Some(DropboxRole::ClientStorage) {
            return;
        }
        let (u, d) = ssl_adjusted(f);
        let tag = storage_tag(f);
        match tag {
            StorageTag::Store => self.out.store += 1,
            StorageTag::Retrieve => self.out.retrieve += 1,
        }
        self.out.rows.push_str(&format!("{u},{d},{tag:?}\n"));
    }

    fn finish(self) -> Fig20Data {
        self.out
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() + self.out.rows.len()
    }
}

/// Which capture a [`VantageSummary`] summarises. Each
/// vantage-specific stage of [`VantageSummary::compute`] names the
/// vantage points whose reports consume it, so statistics are only paid
/// for where a table or figure needs them.
#[derive(Clone, Copy, Debug)]
pub struct SummarySpec {
    /// `None` for the Campus 1 Jun/Jul re-capture.
    kind: Option<VantageKind>,
}

impl SummarySpec {
    /// The statistics the paper's reports consume at `kind`.
    pub fn for_kind(kind: VantageKind) -> Self {
        SummarySpec { kind: Some(kind) }
    }

    /// The Campus 1 Jun/Jul re-capture only feeds Table 4.
    pub fn recapture() -> Self {
        SummarySpec { kind: None }
    }

    /// Whether the summarised capture is one of the vantage points `kinds`.
    fn at(&self, kinds: &[VantageKind]) -> bool {
        self.kind.is_some_and(|k| kinds.contains(&k))
    }
}

/// Everything the reports need from one vantage point, computed in a
/// single pass over its flow records.
pub struct VantageSummary {
    /// Vantage point name ("Campus 1", …).
    pub name: String,
    /// Capture days.
    pub days: u32,
    /// Chunk transfers served by LAN Sync (from the driver, not flows).
    pub lan_synced: u64,
    /// Records the pipeline observed.
    pub records: u64,
    /// Accumulator stages in the pipeline.
    pub stages: usize,
    /// Accumulator state at the end of the pass (the peak: accumulator
    /// state only grows during a pass).
    pub state_bytes: usize,
    /// Table 2 row.
    pub overview: DatasetOverview,
    /// Table 3 row.
    pub dropbox_totals: DropboxTotals,
    /// Fig. 4 per-role shares.
    pub role_breakdown: BTreeMap<&'static str, RoleShare>,
    /// Fig. 5 storage servers per day.
    pub storage_servers: Vec<usize>,
    /// Figs. 7/8/21 + Table 4 storage-flow samples.
    pub storage: StorageFlows,
    /// Fig. 6 RTT samples.
    pub rtt: RttPlanes,
    /// Figs. 17–18 web-interface statistics.
    pub web: WebStats,
    /// Fig. 14 start-ups per day.
    pub startups: Vec<f64>,
    /// Fig. 14 holiday dip.
    pub holiday_dip: Option<f64>,
    /// Fig. 15 hourly weekday profiles.
    pub hourly: HourlyProfiles,
    /// Fig. 16 raw session durations.
    pub raw_durations: Vec<f64>,
    /// Fig. 2 per-provider series (Home 1 only).
    pub provider_series: Option<BTreeMap<Provider, Vec<ProviderDay>>>,
    /// Fig. 3 daily Dropbox bytes (Campus 2 only).
    pub daily_dropbox: Option<Vec<u64>>,
    /// Fig. 3 daily YouTube bytes.
    pub daily_youtube: Option<Vec<u64>>,
    /// Fig. 3 daily total bytes.
    pub daily_total: Option<Vec<u64>>,
    /// Figs. 11/12 + Table 5 households (home networks only).
    pub households: Option<BTreeMap<Ipv4, HouseholdUsage>>,
    /// Fig. 12 devices per household.
    pub devices_per_household: Option<BTreeMap<Ipv4, usize>>,
    /// Fig. 13 namespaces per device (Campus 1 and Home 1 only).
    pub namespaces_per_device: Option<BTreeMap<u64, usize>>,
    /// Fig. 9 scatter (Campus 2 only).
    pub fig9: Option<Fig9Data>,
    /// Fig. 10 grid (Campus 2 only).
    pub fig10: Option<Fig10Data>,
    /// Fig. 20 scatter (Campus 1 only).
    pub fig20: Option<Fig20Data>,
}

impl VantageSummary {
    /// Fan `out`'s record stream through every accumulator `spec` asks
    /// for — one pass, shared by all stages.
    pub fn compute(out: &SimOutput, spec: &SummarySpec) -> Self {
        use VantageKind::{Campus1, Campus2, Home1, Home2};
        let days = out.dataset.days;
        let mut p = Pipeline::new();
        let overview = p.add(OverviewAcc::default());
        let totals = p.add(DropboxTotalsAcc::default());
        let roles = p.add(RoleBreakdownAcc::default());
        let servers = p.add(StorageServersAcc::new(days));
        let storage = p.add(StorageFlowsAcc::default());
        let rtt = p.add(RttAcc::default());
        let web = p.add(WebAcc::default());
        let startups = p.add(StartupsAcc::new(days));
        let holiday = p.add(HolidayDipAcc::new(days));
        let hourly = p.add(HourlyProfilesAcc::new(days));
        let raw = p.add(RawDurationsAcc::default());
        // Vantage-specific stages, each added only at the vantage points
        // whose reports consume it.
        let provider_series = spec
            .at(&[Home1])
            .then(|| p.add(ProviderSeriesAcc::new(days)));
        let daily_dropbox = spec
            .at(&[Campus2])
            .then(|| p.add(DailyBytesAcc::new(Provider::Dropbox, days)));
        let daily_youtube = spec
            .at(&[Campus2])
            .then(|| p.add(DailyBytesAcc::new(Provider::YouTube, days)));
        let daily_total = spec.at(&[Campus2]).then(|| p.add(DailyTotalAcc::new(days)));
        let households = spec
            .at(&[Home1, Home2])
            .then(|| p.add(HouseholdsAcc::default()));
        let devices = spec
            .at(&[Home1, Home2])
            .then(|| p.add(DevicesPerHouseholdAcc::default()));
        let namespaces = spec
            .at(&[Campus1, Home1])
            .then(|| p.add(NamespacesPerDeviceAcc::default()));
        let fig9 = spec.at(&[Campus2]).then(|| p.add(Fig9Acc::new()));
        let fig10 = spec.at(&[Campus2]).then(|| p.add(Fig10Acc::new()));
        let fig20 = spec.at(&[Campus1]).then(|| p.add(Fig20Acc::default()));
        p.run(&out.dataset.flows);

        // Fields evaluate in the order written: the pass totals are read
        // before the first `finish` takes a stage out of the pipeline.
        VantageSummary {
            name: out.dataset.name.clone(),
            days,
            lan_synced: out.lan_synced,
            records: p.records(),
            stages: p.stages(),
            state_bytes: p.state_bytes(),
            overview: p.finish(overview),
            dropbox_totals: p.finish(totals),
            role_breakdown: p.finish(roles),
            storage_servers: p.finish(servers),
            storage: p.finish(storage),
            rtt: p.finish(rtt),
            web: p.finish(web),
            startups: p.finish(startups),
            holiday_dip: p.finish(holiday),
            hourly: p.finish(hourly),
            raw_durations: p.finish(raw),
            provider_series: provider_series.map(|h| p.finish(h)),
            daily_dropbox: daily_dropbox.map(|h| p.finish(h)),
            daily_youtube: daily_youtube.map(|h| p.finish(h)),
            daily_total: daily_total.map(|h| p.finish(h)),
            households: households.map(|h| p.finish(h)),
            devices_per_household: devices.map(|h| p.finish(h)),
            namespaces_per_device: namespaces.map(|h| p.finish(h)),
            fig9: fig9.map(|h| p.finish(h)),
            fig10: fig10.map(|h| p.finish(h)),
            fig20: fig20.map(|h| p.finish(h)),
        }
    }
}

/// Single-pass summaries of a whole reproduction run: the four Mar–May
/// vantage points plus the Campus 1 Jun/Jul re-capture.
pub struct CaptureSummary {
    /// Population scale factor of the run.
    pub scale: f64,
    /// Simulation seed of the run.
    pub seed: u64,
    /// Campus 1, Campus 2, Home 1, Home 2 (v1.2.52 era).
    pub vantages: Vec<VantageSummary>,
    /// Campus 1 re-capture (v1.4.0), Table 4's second era.
    pub campus1_v14: VantageSummary,
}

impl CaptureSummary {
    /// Summarise every vantage point of `cap` (one pass each).
    pub fn compute(cap: &Capture) -> Self {
        let vantages = VantageKind::ALL
            .iter()
            .zip(&cap.vantages)
            .map(|(&kind, out)| VantageSummary::compute(out, &SummarySpec::for_kind(kind)))
            .collect();
        let campus1_v14 = VantageSummary::compute(&cap.campus1_v14, &SummarySpec::recapture());
        CaptureSummary {
            scale: cap.scale,
            seed: cap.seed,
            vantages,
            campus1_v14,
        }
    }

    /// Summary of one vantage point.
    pub fn vantage(&self, kind: VantageKind) -> &VantageSummary {
        let idx = VantageKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("known vantage");
        &self.vantages[idx]
    }

    /// Total records observed across all five passes.
    pub fn records(&self) -> u64 {
        self.passes().map(|v| v.records).sum()
    }

    /// Total accumulator stages across all five passes.
    pub fn stages(&self) -> usize {
        self.passes().map(|v| v.stages).sum()
    }

    /// Total end-of-pass accumulator state across all five passes.
    pub fn state_bytes(&self) -> usize {
        self.passes().map(|v| v.state_bytes).sum()
    }

    /// The five passes: the four vantage points, then the re-capture.
    fn passes(&self) -> impl Iterator<Item = &VantageSummary> {
        self.vantages
            .iter()
            .chain(std::iter::once(&self.campus1_v14))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_capture;
    use std::sync::OnceLock;
    use workload::FaultPlan;

    fn capture() -> &'static Capture {
        static CAP: OnceLock<Capture> = OnceLock::new();
        CAP.get_or_init(|| run_capture(0.012, 3, &FaultPlan::none(), 2))
    }

    #[test]
    fn storage_samples_follow_stream_order() {
        let cap = capture();
        let sum = CaptureSummary::compute(cap);
        for (out, v) in cap.vantages.iter().zip(&sum.vantages) {
            assert_eq!(v.name, out.dataset.name);
            assert_eq!(v.records, out.dataset.flows.len() as u64, "{}", v.name);
            for tag in [StorageTag::Store, StorageTag::Retrieve] {
                let sizes: Vec<f64> = out
                    .dataset
                    .client_storage_flows()
                    .filter(|f| storage_tag(f) == tag)
                    .map(|f| f.total_bytes() as f64)
                    .collect();
                assert_eq!(v.storage.tag(tag).sizes, sizes, "{}", out.dataset.name);
                let chunks: Vec<f64> = out
                    .dataset
                    .client_storage_flows()
                    .filter(|f| storage_tag(f) == tag)
                    .map(|f| estimate_chunks(f) as f64)
                    .collect();
                assert_eq!(v.storage.tag(tag).chunks, chunks);
            }
        }
    }

    #[test]
    fn summary_is_deterministic_across_runs() {
        let cap = capture();
        let a = CaptureSummary::compute(cap);
        let b = CaptureSummary::compute(cap);
        assert_eq!(a.records(), b.records());
        assert_eq!(a.state_bytes(), b.state_bytes());
        for (x, y) in a.vantages.iter().zip(&b.vantages) {
            assert_eq!(x.overview, y.overview);
            assert_eq!(x.raw_durations, y.raw_durations);
            assert_eq!(
                x.fig9.as_ref().map(|d| &d.store.rows),
                y.fig9.as_ref().map(|d| &d.store.rows)
            );
        }
    }
}
