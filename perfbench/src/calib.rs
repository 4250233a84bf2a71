//! Modelled hot-path cost: nanoseconds per segment of `tcpmodel` and of
//! the `tstat` monitor, timed outside the pipeline on a fixed flow set
//! built by the sync engine. These are calibrations, not measurements of
//! the run: in-program probes replace them once the pipeline has its own.

use dropbox::client::{ChunkWork, SyncConfig, SyncEngine};
use dropbox::content::ChunkId;
use dropbox::storage::ChunkStore;
use dropbox::FlowSpec;
use nettrace::{Endpoint, FlowKey, Ipv4, Packet};
use simcore::{Rng, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;
use tcpmodel::{simulate_faulty, PathParams, TcpParams};
use tstat::Monitor;

/// Minimum timing rounds, and the time after which rounds stop.
const MIN_ROUNDS: usize = 9;
const BUDGET_S: f64 = 0.2;

/// Calibrated costs, each the median over timing rounds.
pub struct Calibration {
    /// `tcpmodel::simulate_faulty` nanoseconds per emitted segment.
    pub tcpmodel_ns_per_segment: f64,
    /// `tstat::Monitor::process_flow` nanoseconds per observed segment.
    pub tstat_ns_per_segment: f64,
}

/// A session start, a 40-chunk upload and a 20-chunk download of one
/// device: control flows plus storage flows of mixed sizes.
fn flow_set() -> Vec<FlowSpec> {
    let dns = dnssim::DnsDirectory::new();
    let store = ChunkStore::new();
    let mut engine = SyncEngine::new(&dns, &store, SyncConfig::default(), 1);
    let mut rng = Rng::new(2012);
    let chunks: Vec<ChunkWork> = (0..40u64)
        .map(|i| {
            let bytes = 2_000 + (i * 7_919 % 40) * 5_000;
            ChunkWork {
                id: ChunkId(i),
                wire_bytes: bytes,
                raw_bytes: bytes,
            }
        })
        .collect();
    let mut flows = engine.session_start_flows(10, &mut rng);
    flows.extend(engine.upload_transaction(&chunks, 0, &mut rng, None, SimTime::EPOCH));
    flows.extend(engine.download_transaction(&chunks[..20], 0, &mut rng, None, SimTime::EPOCH));
    flows
}

fn key(i: usize) -> FlowKey {
    FlowKey::new(
        Endpoint::new(Ipv4::new(10, 0, 0, 1), 40_000 + i as u16),
        Endpoint::new(Ipv4::new(107, 22, 0, 1), 443),
    )
}

fn path() -> PathParams {
    PathParams {
        inner_rtt: SimDuration::from_millis(10),
        outer_rtt: SimDuration::from_millis(90),
        jitter: 0.05,
        loss_up: 0.001,
        loss_down: 0.001,
        up_rate: None,
        down_rate: None,
    }
}

/// Simulate every flow once with a fixed seed; returns the packets per flow.
fn simulate_all(flows: &[FlowSpec], packets: &mut [Vec<Packet>]) {
    let tcp = TcpParams::era_2012_v1();
    let path = path();
    let mut rng = Rng::new(7);
    for (i, (f, out)) in flows.iter().zip(packets.iter_mut()).enumerate() {
        out.clear();
        simulate_faulty(
            SimTime::from_secs(1),
            key(i),
            black_box(&f.dialogue),
            &path,
            &tcp,
            f.faults.as_ref(),
            &mut rng,
            out,
        );
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Time `round` repeatedly; median nanoseconds per segment.
fn ns_per_segment(segments: usize, mut round: impl FnMut()) -> f64 {
    let mut per_round = Vec::new();
    let t0 = Instant::now();
    while per_round.len() < MIN_ROUNDS || t0.elapsed().as_secs_f64() < BUDGET_S {
        let t = Instant::now();
        round();
        per_round.push(t.elapsed().as_nanos() as f64 / segments as f64);
    }
    median(per_round)
}

/// Run both calibrations.
pub fn calibrate() -> Calibration {
    let flows = flow_set();
    let mut packets: Vec<Vec<Packet>> = vec![Vec::new(); flows.len()];
    simulate_all(&flows, &mut packets);
    let segments: usize = packets.iter().map(Vec::len).sum();
    let tcpmodel_ns_per_segment = ns_per_segment(segments, || simulate_all(&flows, &mut packets));
    let tstat_ns_per_segment = ns_per_segment(segments, || {
        for p in &packets {
            let mut monitor = Monitor::new(true);
            black_box(monitor.process_flow(black_box(p)));
        }
    });
    Calibration {
        tcpmodel_ns_per_segment,
        tstat_ns_per_segment,
    }
}
