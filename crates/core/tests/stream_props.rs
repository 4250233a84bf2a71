//! Property tests of the streaming pipeline: one shared fan-out pass over
//! a randomized flow set must produce exactly what the legacy
//! materialised entry points compute in independent passes, and a second
//! pipeline pass over the same stream must be identical to the first
//! (the determinism half of the byte-identity contract — see
//! `dropbox_analysis::stream`).

use dropbox_analysis::dataset::{
    DailyTotalAcc, Dataset, DropboxTotalsAcc, OverviewAcc, ProviderSeriesAcc, RoleBreakdownAcc,
    StorageServersAcc,
};
use dropbox_analysis::groups::{aggregate_households, HouseholdsAcc};
use dropbox_analysis::sessions::{
    distinct_devices, merged_sessions, namespaces_per_device, raw_session_durations,
    startups_per_day, DeviceSession, DistinctDevicesAcc, MergedSessionsAcc, NamespacesPerDeviceAcc,
    RawDurationsAcc, StartupsAcc,
};
use dropbox_analysis::stream::Pipeline;
use dropbox_analysis::users::{infer_users, InferUsersAcc};
use nettrace::flow::{DirStats, FlowClose, NotifyMeta};
use nettrace::{Endpoint, FlowKey, FlowRecord, Ipv4};
use simcore::proptest::{any_u64, vec_of};
use simcore::{prop_assert_eq, proptest, SimDuration, SimTime};

const DAYS: u32 = 3;

/// Expand one random seed into a flow record, covering every traffic
/// kind the accumulators dispatch on: store/retrieve storage flows with
/// Appendix-A wire construction, notification flows carrying device
/// metadata, control and web flows, and non-Dropbox background traffic.
fn record_from_seed(s: u64) -> FlowRecord {
    let client = Ipv4::new(10, 0, 0, 1 + ((s >> 3) % 5) as u8);
    let day = ((s >> 6) % DAYS as u64) as u32;
    let start = SimTime::from_day_offset(day, SimDuration::from_secs(30_000 + (s >> 9) % 40_000));
    let mut f = FlowRecord {
        key: FlowKey::new(
            Endpoint::new(client, 40_000 + (s % 1_000) as u16),
            Endpoint::new(Ipv4::new(107, 22, 0, 1), 443),
        ),
        first_syn: start,
        last_packet: start.checked_add(SimDuration::from_secs(10)).unwrap(),
        up: DirStats::default(),
        down: DirStats::default(),
        min_rtt_ms: Some(20.0 + (s >> 11) as f64 % 180.0),
        rtt_samples: 4,
        tls_sni: None,
        tls_certificate_cn: None,
        http_host: None,
        server_fqdn: None,
        notify: None,
        close: FlowClose::Fin,
        aborted: false,
    };
    let chunks = 1 + (s >> 12) % 20;
    let chunk_bytes = 1 + (s >> 17) % 500_000;
    match s % 6 {
        0 => {
            // Store flow per Appendix A.2.
            f.tls_sni = Some("dl-client1.dropbox.com".into());
            f.up = DirStats {
                bytes: 294 + chunks * (634 + chunk_bytes),
                psh_segments: 2 + chunks,
                first_payload: Some(f.first_syn),
                last_payload: Some(f.last_packet),
                ..DirStats::default()
            };
            f.down = DirStats {
                bytes: 4103 + chunks * 309 + 37,
                psh_segments: 2 + chunks + 1,
                first_payload: Some(f.first_syn),
                last_payload: Some(f.last_packet),
                ..DirStats::default()
            };
        }
        1 => {
            // Retrieve flow.
            f.tls_sni = Some("dl-client2.dropbox.com".into());
            f.up = DirStats {
                bytes: 294 + chunks * 394,
                psh_segments: 2 + 2 * chunks,
                first_payload: Some(f.first_syn),
                last_payload: Some(f.last_packet),
                ..DirStats::default()
            };
            f.down = DirStats {
                bytes: 4103 + chunks * (309 + chunk_bytes),
                psh_segments: 2 + chunks,
                first_payload: Some(f.first_syn),
                last_payload: Some(f.last_packet),
                ..DirStats::default()
            };
        }
        2 => {
            // Notification flow: device metadata drives sessions, device
            // counts, namespace maps and user inference.
            f.key = FlowKey::new(
                Endpoint::new(client, 40_000 + (s % 1_000) as u16),
                Endpoint::new(Ipv4::new(199, 47, 216, 33), 80),
            );
            f.last_packet = start
                .checked_add(SimDuration::from_secs(30 + (s >> 21) % 5_000))
                .unwrap();
            f.server_fqdn = Some("notify1.dropbox.com".into());
            f.up.bytes = 400;
            f.down.bytes = 600;
            let mut namespaces = vec![100 + (s >> 15) % 6];
            if s & 1 << 22 != 0 {
                namespaces.push(100 + (s >> 24) % 6);
            }
            f.notify = Some(NotifyMeta {
                host_int: 1 + (s >> 12) % 8,
                namespaces,
            });
        }
        3 => {
            // Client control (meta-data).
            f.tls_sni = Some("client4.dropbox.com".into());
            f.up.bytes = 2_000 + (s >> 14) % 8_000;
            f.down.bytes = 3_000 + (s >> 18) % 8_000;
        }
        4 => {
            // Web control.
            f.tls_sni = Some("www.dropbox.com".into());
            f.up.bytes = 1_000;
            f.down.bytes = 20_000 + (s >> 14) % 100_000;
        }
        _ => {
            // Non-Dropbox background traffic.
            f.key = FlowKey::new(
                Endpoint::new(client, 40_000 + (s % 1_000) as u16),
                Endpoint::new(Ipv4::new(74, 125, 0, 1), 443),
            );
            f.tls_sni = Some("r3.youtube.com".into());
            f.up.bytes = 5_000;
            f.down.bytes = 100_000 + (s >> 14) % 2_000_000;
        }
    }
    f
}

/// A comparable projection of a merged session (`DeviceSession` carries
/// no `PartialEq` of its own).
fn session_key(s: &DeviceSession) -> (u64, Ipv4, SimTime, SimTime, Vec<u64>) {
    (
        s.host_int,
        s.household,
        s.start,
        s.end,
        s.namespaces.clone(),
    )
}

/// Run every accumulator under test through one shared pipeline pass and
/// render the finished results (plus the live-state total) into a
/// deterministic string.
fn shared_pass_digest(flows: &[FlowRecord]) -> String {
    let mut p = Pipeline::new();
    let overview = p.add(OverviewAcc::default());
    let totals = p.add(DropboxTotalsAcc::default());
    let roles = p.add(RoleBreakdownAcc::default());
    let servers = p.add(StorageServersAcc::new(DAYS));
    let providers = p.add(ProviderSeriesAcc::new(DAYS));
    let daily = p.add(DailyTotalAcc::new(DAYS));
    let raw = p.add(RawDurationsAcc::default());
    let merged = p.add(MergedSessionsAcc::default());
    let devices = p.add(DistinctDevicesAcc::default());
    let namespaces = p.add(NamespacesPerDeviceAcc::default());
    let startups = p.add(StartupsAcc::new(DAYS));
    let users = p.add(InferUsersAcc::default());
    let households = p.add(HouseholdsAcc::default());
    p.run(flows);
    let state_bytes = p.state_bytes();
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{state_bytes}",
        p.finish(overview),
        p.finish(totals),
        p.finish(roles),
        p.finish(servers),
        p.finish(providers),
        p.finish(daily),
        p.finish(raw),
        p.finish(merged).iter().map(session_key).collect::<Vec<_>>(),
        p.finish(devices),
        p.finish(namespaces),
        p.finish(startups),
        p.finish(users),
        p.finish(households),
    )
}

proptest! {
    #![cases(48)]

    /// One shared fan-out pass computes exactly what the legacy
    /// materialised entry points compute in independent whole-vector
    /// passes, for any mix of traffic kinds.
    #[test]
    fn shared_pipeline_matches_independent_legacy_passes(
        seeds in vec_of(any_u64(), 0..60),
    ) {
        let flows: Vec<FlowRecord> = seeds.iter().map(|&s| record_from_seed(s)).collect();
        let mut ds = Dataset::new("Prop", true, DAYS);
        ds.flows = flows.clone();

        let mut p = Pipeline::new();
        let overview = p.add(OverviewAcc::default());
        let totals = p.add(DropboxTotalsAcc::default());
        let roles = p.add(RoleBreakdownAcc::default());
        let servers = p.add(StorageServersAcc::new(DAYS));
        let providers = p.add(ProviderSeriesAcc::new(DAYS));
        let daily = p.add(DailyTotalAcc::new(DAYS));
        let raw = p.add(RawDurationsAcc::default());
        let merged = p.add(MergedSessionsAcc::default());
        let devices = p.add(DistinctDevicesAcc::default());
        let namespaces = p.add(NamespacesPerDeviceAcc::default());
        let startups = p.add(StartupsAcc::new(DAYS));
        let users = p.add(InferUsersAcc::default());
        let households = p.add(HouseholdsAcc::default());
        p.run(&ds.flows);
        let records = p.records();
        prop_assert_eq!(records, flows.len() as u64);

        prop_assert_eq!(p.finish(overview), ds.overview());
        prop_assert_eq!(p.finish(totals), ds.dropbox_totals());
        prop_assert_eq!(p.finish(roles), ds.role_breakdown());
        prop_assert_eq!(p.finish(servers), ds.storage_servers_per_day());
        prop_assert_eq!(p.finish(providers), ds.provider_series());
        prop_assert_eq!(p.finish(daily), ds.daily_total_bytes());
        prop_assert_eq!(p.finish(raw), raw_session_durations(&flows));
        prop_assert_eq!(
            p.finish(merged).iter().map(session_key).collect::<Vec<_>>(),
            merged_sessions(&flows).iter().map(session_key).collect::<Vec<_>>()
        );
        prop_assert_eq!(p.finish(devices), distinct_devices(&flows));
        prop_assert_eq!(p.finish(namespaces), namespaces_per_device(&flows));
        prop_assert_eq!(p.finish(startups), startups_per_day(&flows, DAYS));
        prop_assert_eq!(p.finish(users), infer_users(&flows));
        prop_assert_eq!(p.finish(households), aggregate_households(&flows));
    }

    /// Two pipeline passes over the same stream are identical — results
    /// and reported live state both (no hidden run-to-run state).
    #[test]
    fn pipeline_double_run_is_deterministic(seeds in vec_of(any_u64(), 0..60)) {
        let flows: Vec<FlowRecord> = seeds.iter().map(|&s| record_from_seed(s)).collect();
        prop_assert_eq!(shared_pass_digest(&flows), shared_pass_digest(&flows));
    }
}
