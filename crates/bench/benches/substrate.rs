//! Micro-benchmarks of the hot substrate paths.

use bench::{BatchSize, Harness, Throughput};
use dropbox::client::{ChunkWork, SyncConfig, SyncEngine};
use dropbox::content::ChunkId;
use dropbox::storage::ChunkStore;
use nettrace::{Endpoint, FlowKey, Ipv4};
use simcore::{Rng, SimDuration, SimTime};
use tcpmodel::{
    simulate, simulate_segments, tls, Dialogue, Direction, Message, PathParams, TcpParams,
};
use tstat::Monitor;

fn bench_sha256(c: &mut Harness) {
    let data = vec![0xabu8; 1 << 20];
    let mut g = c.group("sha256");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("1MiB", |b| {
        b.iter(|| contenthash::sha256(std::hint::black_box(&data)))
    });
    g.finish();
}

fn bench_lzss(c: &mut Harness) {
    let data: Vec<u8> = (0..256usize * 1024)
        .map(|i| ((i / 7) % 251) as u8)
        .collect();
    let mut g = c.group("lzss");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("compress_256KiB", |b| {
        b.iter(|| contenthash::lzss::compress(std::hint::black_box(&data)))
    });
    let compressed = contenthash::lzss::compress(&data);
    g.bench_function("decompress_256KiB", |b| {
        b.iter(|| contenthash::lzss::decompress(std::hint::black_box(&compressed)).unwrap())
    });
    g.finish();
}

fn bench_delta(c: &mut Harness) {
    let mut rng = Rng::new(1);
    let old: Vec<u8> = (0..256 * 1024).map(|_| rng.next_u64() as u8).collect();
    let mut new = old.clone();
    for b in &mut new[100_000..108_000] {
        *b ^= 0x55;
    }
    let mut g = c.group("rsync_delta");
    g.throughput(Throughput::Bytes(new.len() as u64));
    g.bench_function("signature_256KiB", |b| {
        b.iter(|| contenthash::signature(std::hint::black_box(&old), 2048))
    });
    let sig = contenthash::signature(&old, 2048);
    g.bench_function("delta_256KiB_small_edit", |b| {
        b.iter(|| contenthash::compute_delta(std::hint::black_box(&sig), &new))
    });
    g.finish();
}

fn store_dialogue(chunks: u64, bytes: u32) -> Dialogue {
    let mut m = tls::handshake(
        "dl-client1.dropbox.com",
        "*.dropbox.com",
        SimDuration::from_millis(60),
    );
    for _ in 0..chunks {
        m.push(Message::simple(
            Direction::Up,
            SimDuration::from_millis(30),
            634 + bytes,
        ));
        m.push(Message::simple(
            Direction::Down,
            SimDuration::from_millis(90),
            309,
        ));
    }
    Dialogue::new(m)
}

fn key() -> FlowKey {
    FlowKey::new(
        Endpoint::new(Ipv4::new(10, 0, 0, 1), 40_000),
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

fn bench_tcp_simulate(c: &mut Harness) {
    let mut g = c.group("tcpmodel");
    let d = store_dialogue(10, 100_000);
    g.throughput(Throughput::Bytes(d.bytes_up() + d.bytes_down()));
    g.bench_function("store_10x100kB", |b| {
        b.iter_batched(
            || (Rng::new(7), Vec::with_capacity(2_000)),
            |(mut rng, mut out)| {
                simulate(
                    SimTime::from_secs(1),
                    key(),
                    &d,
                    &path(),
                    &TcpParams::era_2012_v1(),
                    &mut rng,
                    &mut out,
                );
                out
            },
            BatchSize::SmallInput,
        )
    });
    // The capture's form of the same run: compact segments into buffers
    // that are reused from flow to flow.
    let (mut segments, mut markers) = (Vec::new(), Vec::new());
    g.bench_function("segments_store_10x100kB", |b| {
        b.iter_batched(
            || Rng::new(7),
            |mut rng| {
                let summary = simulate_segments(
                    SimTime::from_secs(1),
                    &d,
                    &path(),
                    &TcpParams::era_2012_v1(),
                    None,
                    &mut rng,
                    &mut segments,
                    &mut markers,
                );
                std::hint::black_box(&segments);
                summary
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_monitor(c: &mut Harness) {
    let d = store_dialogue(10, 100_000);
    let mut out = Vec::new();
    simulate(
        SimTime::from_secs(1),
        key(),
        &d,
        &path(),
        &TcpParams::era_2012_v1(),
        &mut Rng::new(7),
        &mut out,
    );
    let mut g = c.group("tstat");
    g.throughput(Throughput::Elements(out.len() as u64));
    g.bench_function("process_flow", |b| {
        b.iter(|| {
            let mut m = Monitor::new(true);
            m.process_flow(std::hint::black_box(&out))
        })
    });
    let (mut segments, mut markers) = (Vec::new(), Vec::new());
    simulate_segments(
        SimTime::from_secs(1),
        &d,
        &path(),
        &TcpParams::era_2012_v1(),
        None,
        &mut Rng::new(7),
        &mut segments,
        &mut markers,
    );
    g.bench_function("process_segments", |b| {
        b.iter(|| {
            let mut m = Monitor::new(true);
            m.process_segments(key(), std::hint::black_box(&segments), &markers)
        })
    });
    g.finish();
}

fn bench_sync_engine(c: &mut Harness) {
    let dns = dnssim::DnsDirectory::new();
    c.bench_function("sync_engine/upload_transaction_100", |b| {
        b.iter_batched(
            || {
                let store = ChunkStore::new();
                let chunks: Vec<ChunkWork> = (0..100)
                    .map(|i| ChunkWork {
                        id: ChunkId(i),
                        wire_bytes: 50_000,
                        raw_bytes: 50_000,
                    })
                    .collect();
                (store, chunks, Rng::new(3))
            },
            |(store, chunks, mut rng)| {
                let mut engine = SyncEngine::new(&dns, &store, SyncConfig::default(), 1);
                engine.upload_transaction(&chunks, 0, &mut rng, None, SimTime::EPOCH)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_classification(c: &mut Harness) {
    // Classify a realistic record set.
    let mut config = workload::VantageConfig::paper(workload::VantageKind::Home1, 0.01);
    config.days = 3;
    let out = workload::simulate_vantage(
        &config,
        dropbox::client::ClientVersion::V1_2_52,
        1,
        &workload::FaultPlan::none(),
    );
    let flows = out.dataset.flows;
    let mut g = c.group("analysis");
    g.throughput(Throughput::Elements(flows.len() as u64));
    g.bench_function("classify_flows", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for f in &flows {
                if dropbox_analysis::classify::provider_of(std::hint::black_box(f))
                    == dropbox_analysis::classify::Provider::Dropbox
                {
                    n += 1;
                }
            }
            n
        })
    });
    g.finish();
}

fn main() {
    let mut c = Harness::new("substrate");
    bench_sha256(&mut c);
    bench_lzss(&mut c);
    bench_delta(&mut c);
    bench_tcp_simulate(&mut c);
    bench_monitor(&mut c);
    bench_sync_engine(&mut c);
    bench_classification(&mut c);
    c.finish().expect("write benchmark results");
}
