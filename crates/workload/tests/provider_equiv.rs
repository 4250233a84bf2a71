//! Provider-equivalence and spec-differentiation properties.
//!
//! The ProviderSpec refactor carved the protocol-invariant sync engine
//! out of the Dropbox-specific machinery. Two things must hold:
//!
//! 1. **Equivalence** — the generic engine parameterised with the Dropbox
//!    spec is the *same simulation* as before the refactor: explicitly
//!    setting `protocol: &spec::DROPBOX` reproduces the pinned
//!    `fault_identity` baseline digests, and stays byte-identical across
//!    the whole `(--jobs × --hh-shards)` grid.
//! 2. **Differentiation** — the competing specs actually change what the
//!    paper says they change: a no-dedup provider uploads strictly more
//!    bytes on duplicated content, and a forced access-link profile
//!    reshapes flow timing without touching flow *counts* (the workload
//!    plane is independent of the path plane).

use dropbox::client::ClientVersion;
use dropbox::spec;
use dropbox::FlowTruth;
use nettrace::FlowRecord;
use tcpmodel::params as access;
use workload::shard::ShardPlan;
use workload::{
    simulate_shards, simulate_vantage, FaultPlan, SimOutput, VantageConfig, VantageKind,
};

/// FNV-1a over the shape-defining fields of every record, in order (same
/// digest as `fault_identity.rs`).
fn digest(flows: &[FlowRecord]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for f in flows {
        for v in [
            f.first_syn.micros(),
            f.last_packet.micros(),
            f.up.bytes,
            f.down.bytes,
            f.up.packets,
            f.down.packets,
        ] {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// FNV-1a over every byte of a serialised capture: unlike [`digest`], it
/// covers server names, DNS labels and every other exported field.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

fn jsonl(out: &SimOutput) -> Vec<u8> {
    let mut buf = Vec::new();
    nettrace::flowlog::write_jsonl(&mut buf, &out.dataset.flows).expect("serialise flows");
    buf
}

#[test]
fn explicit_dropbox_spec_reproduces_the_pinned_baseline() {
    // Same run as fault_identity's pinned baseline, but with the protocol
    // spelled out instead of defaulted: the spec indirection must cost
    // zero RNG draws and zero behaviour.
    let mut config = VantageConfig::paper(VantageKind::Home1, 0.02);
    config.days = 7;
    config.protocol = &spec::DROPBOX;
    let home = simulate_vantage(&config, ClientVersion::V1_2_52, 42, &FaultPlan::none());
    assert_eq!(home.dataset.flows.len(), 9727);
    assert_eq!(digest(&home.dataset.flows), 0x24a187552ac6cc36);

    let mut config = VantageConfig::paper(VantageKind::Campus1, 0.02);
    config.days = 7;
    config.protocol = &spec::DROPBOX;
    let campus = simulate_vantage(&config, ClientVersion::V1_2_52, 42, &FaultPlan::none());
    assert_eq!(campus.dataset.flows.len(), 808);
    assert_eq!(digest(&campus.dataset.flows), 0x1677cb9ce0b2216f);
}

#[test]
fn flat_specs_reproduce_their_pinned_captures() {
    // The competing specs get the same Home 1 run as the Dropbox
    // baseline, pinned over the full serialised JSONL so that a change of
    // server name (the spec's naming decision) moves the pin too.
    for (prov, flows, pin) in [
        (&spec::SKYDRIVE_LIKE, 15364usize, 0x7686be17921006e2u64),
        (&spec::GDRIVE_LIKE, 9721, 0x7207dabfd0981b28),
    ] {
        let mut config = VantageConfig::paper(VantageKind::Home1, 0.02);
        config.days = 7;
        config.protocol = prov;
        let out = simulate_vantage(&config, ClientVersion::V1_2_52, 42, &FaultPlan::none());
        assert_eq!(out.dataset.flows.len(), flows, "{}", prov.slug);
        assert_eq!(fnv1a(&jsonl(&out)), pin, "{}", prov.slug);
    }
}

#[test]
fn flat_specs_keep_sync_clients_off_the_dropbox_zone() {
    // The spec alone decides where a sync client connects: control,
    // notification, storage and system-log flows of a flat-named
    // provider never reach a `*.dropbox.com` server. (Web, API and
    // direct-link usage is the household's Dropbox activity and stays.)
    for prov in [&spec::SKYDRIVE_LIKE, &spec::GDRIVE_LIKE] {
        let mut config = VantageConfig::paper(VantageKind::Home1, 0.02);
        config.days = 7;
        config.protocol = prov;
        let out = simulate_vantage(&config, ClientVersion::V1_2_52, 42, &FaultPlan::none());
        let mut logs = 0;
        for (f, truth) in out.flows_with_truth() {
            let Some(truth) = truth else { continue };
            let client = matches!(
                truth,
                FlowTruth::Store { .. }
                    | FlowTruth::Retrieve { .. }
                    | FlowTruth::Control
                    | FlowTruth::Notification
                    | FlowTruth::SystemLog
            );
            let name = f.server_name().unwrap_or_default();
            assert!(
                !client || !name.ends_with(".dropbox.com"),
                "{}: {truth:?} flow to {name}",
                prov.slug
            );
            if *truth == FlowTruth::SystemLog {
                assert!(
                    name.starts_with("telemetry."),
                    "{}: log to {name}",
                    prov.slug
                );
                logs += 1;
            }
        }
        assert!(logs > 0, "{}: no system-log flows", prov.slug);
    }
}

#[test]
fn every_spec_is_byte_identical_across_jobs_and_shards() {
    // The provider-matrix cells inherit the determinism contract: for
    // each spec (and a forced access link), the serial unsharded run is
    // the canonical form and every (jobs, sub-shards) cell must match.
    let scale = 0.01;
    let seed = 77;
    for prov in spec::ALL {
        let mut base = ShardPlan::paper().truncated(3).with_protocol(prov);
        if prov.slug != "dropbox" {
            base = base.with_link(&access::LTE);
        }
        let serial = simulate_shards(&base.with_sub_shards(1), scale, seed, &FaultPlan::none(), 1);
        let baseline: Vec<Vec<u8>> = serial.iter().map(jsonl).collect();
        assert!(
            baseline.iter().any(|b| !b.is_empty()),
            "{}: degenerate run",
            prov.slug
        );
        for (sub_shards, jobs) in [(8usize, 3usize), (16, 1)] {
            let par = simulate_shards(
                &base.with_sub_shards(sub_shards),
                scale,
                seed,
                &FaultPlan::none(),
                jobs,
            );
            for (a, b) in par.iter().zip(&baseline) {
                assert_eq!(
                    &jsonl(a),
                    b,
                    "{}: jobs {jobs} / hh-shards {sub_shards} diverges",
                    prov.slug
                );
            }
        }
    }
}

#[test]
fn forced_access_link_changes_timing_not_workload() {
    // The access-link override sits ahead of the TCP model: what the
    // households *do* (flow counts, upload intent) is unchanged; how long
    // transfers take is not.
    let mut wired = VantageConfig::paper(VantageKind::Campus1, 0.02);
    wired.days = 5;
    wired.link = Some(&access::WIRED);
    let mut lte = wired.clone();
    lte.link = Some(&access::LTE);
    let a = simulate_vantage(&wired, ClientVersion::V1_2_52, 9, &FaultPlan::none());
    let b = simulate_vantage(&lte, ClientVersion::V1_2_52, 9, &FaultPlan::none());
    assert_eq!(
        a.dataset.flows.len(),
        b.dataset.flows.len(),
        "flow counts are workload-plane, not path-plane"
    );
    let span = |o: &SimOutput| -> u64 {
        o.dataset
            .flows
            .iter()
            .map(|f| f.last_packet.micros() - f.first_syn.micros())
            .sum()
    };
    assert!(
        span(&b) > span(&a),
        "LTE must stretch transfers: {} vs {}",
        span(&b),
        span(&a)
    );
}
