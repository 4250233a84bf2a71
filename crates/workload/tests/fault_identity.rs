//! Zero-fault identity and faulty-run determinism.
//!
//! The fault-injection substrate must be invisible when disabled: a run
//! with [`FaultPlan::none`] has to reproduce, byte for byte, the
//! canonical baseline output. The digests pinned below were captured from
//! the per-household-stream baseline (the sub-capture sharding refactor);
//! if they move, either a fault decision fired or drew under an inactive
//! plan (an extra RNG draw is enough) or a change perturbed the
//! per-household seed derivation — both break the reproducibility
//! contract and need a deliberate re-pin.
//!
//! An *active* plan, in turn, must stay a pure function of its inputs:
//! the same `(config, seed, plan)` triple serialises to identical JSONL
//! on every run, and the lossy and chaos captures are pinned the same way
//! as the fault-free one, fault counters included.

use dropbox::client::ClientVersion;
use nettrace::FlowRecord;
use workload::{
    simulate_vantage, simulate_vantage_audited, FaultPlan, FaultStats, OutageKnobs, SimOutput,
    VantageConfig, VantageKind,
};

fn run(kind: VantageKind, plan: &FaultPlan) -> SimOutput {
    let mut config = VantageConfig::paper(kind, 0.02);
    config.days = 7;
    simulate_vantage(&config, ClientVersion::V1_2_52, 42, plan)
}

/// FNV-1a over the shape-defining fields of every record, in order.
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

#[test]
fn none_plan_reproduces_the_pinned_baseline() {
    let home = run(VantageKind::Home1, &FaultPlan::none());
    assert_eq!(home.dataset.flows.len(), 9727);
    let bytes: u64 = home.dataset.flows.iter().map(|f| f.total_bytes()).sum();
    assert_eq!(bytes, 1_014_154_257_606);
    assert_eq!(digest(&home.dataset.flows), 0x24a187552ac6cc36);

    let campus = run(VantageKind::Campus1, &FaultPlan::none());
    assert_eq!(campus.dataset.flows.len(), 808);
    let bytes: u64 = campus.dataset.flows.iter().map(|f| f.total_bytes()).sum();
    assert_eq!(bytes, 26_181_183_100);
    assert_eq!(digest(&campus.dataset.flows), 0x1677cb9ce0b2216f);
}

#[test]
fn lossy_plan_is_deterministic_down_to_the_serialised_bytes() {
    let plan = FaultPlan::lossy(7, 7);
    let jsonl = |out: &SimOutput| {
        let mut buf = Vec::new();
        nettrace::flowlog::write_jsonl(&mut buf, &out.dataset.flows).unwrap();
        buf
    };
    let a = run(VantageKind::Campus1, &plan);
    let b = run(VantageKind::Campus1, &plan);
    assert_eq!(a.fault_stats, b.fault_stats);
    assert_eq!(
        jsonl(&a),
        jsonl(&b),
        "faulty runs must serialise identically"
    );
    assert!(a.fault_stats.sync_retries > 0 || a.fault_stats.aborted_flows > 0);
}

#[test]
fn lossy_plan_reproduces_the_pinned_capture() {
    let campus = run(VantageKind::Campus1, &FaultPlan::lossy(7, 7));
    assert_eq!(campus.dataset.flows.len(), 853);
    let bytes: u64 = campus.dataset.flows.iter().map(|f| f.total_bytes()).sum();
    assert_eq!(bytes, 26_200_295_453);
    assert_eq!(digest(&campus.dataset.flows), 0x84089b3e0268c488);
    assert_eq!(
        campus.fault_stats,
        FaultStats {
            sync_retries: 32,
            aborted_flows: 32,
            notify_aborts: 7,
            reconnect_attempts: 0,
            reconnects: 0,
            fallback_polls: 0,
            offline_commits: 0,
        }
    );
}

#[test]
fn chaos_plan_reproduces_the_pinned_capture() {
    let plan = FaultPlan::chaos(7, 7, &OutageKnobs::default());
    let campus = run(VantageKind::Campus1, &plan);
    assert_eq!(campus.dataset.flows.len(), 873);
    let bytes: u64 = campus.dataset.flows.iter().map(|f| f.total_bytes()).sum();
    assert_eq!(bytes, 26_194_939_692);
    assert_eq!(digest(&campus.dataset.flows), 0xd6b1daf45b79f67d);
    assert_eq!(
        campus.fault_stats,
        FaultStats {
            sync_retries: 24,
            aborted_flows: 22,
            notify_aborts: 12,
            reconnect_attempts: 20,
            reconnects: 3,
            fallback_polls: 9,
            offline_commits: 1,
        }
    );
}

#[test]
fn chaos_plan_reproduces_the_pinned_audit_ledger() {
    // The sync audit is what the convergence oracle judges; pin its
    // shape so the propagation and login-burst bookkeeping cannot drift
    // while the record stream stays put.
    let mut config = VantageConfig::paper(VantageKind::Home1, 0.02);
    config.days = 7;
    let plan = FaultPlan::chaos(7, 7, &OutageKnobs::default());
    let (_, audit) = simulate_vantage_audited(&config, ClientVersion::V1_2_52, 42, &plan);
    let deferred = audit.commits().iter().filter(|c| c.deferred).count();
    let lags = audit.sync_lags_secs();
    let lag_digest = lags.iter().fold(0xcbf29ce484222325u64, |h, l| {
        (h ^ l.to_bits()).wrapping_mul(0x100000001b3)
    });
    assert_eq!(audit.commit_count(), 809);
    assert_eq!(deferred, 0);
    assert_eq!(audit.reconnect_attempt_events().len(), 390);
    assert_eq!(audit.reconnect_events().len(), 51);
    assert_eq!(audit.fallback_poll_count(), 286);
    assert_eq!(audit.residual_batch_count(), 0);
    assert_eq!(lags.len(), 1302);
    assert_eq!(lag_digest, 0x86925b0c473854ea);
    let violations = workload::oracle::check(&audit);
    assert!(
        violations.is_empty(),
        "oracle violations: {:?}",
        violations.iter().map(|v| v.render()).collect::<Vec<_>>()
    );
}
