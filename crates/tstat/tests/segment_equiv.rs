//! The capture hot path is exact: over random dialogues, paths and fault
//! profiles, `tcpmodel::simulate_segments` emits exactly the packets of
//! `simulate_faulty` (same summary, same randomness consumed), and
//! `Monitor::process_segments` returns exactly what `process_flow` returns
//! for them and leaves the monitor in the same state.

use nettrace::{
    AppMarker, Endpoint, FlowKey, FlowRecord, Ipv4, MarkerRef, Packet, Segment, TcpFlags,
};
use simcore::faults::FlowFaults;
use simcore::proptest::from_fn;
use simcore::{prop_assert_eq, proptest};
use simcore::{Rng, SimDuration, SimTime};
use tcpmodel::{
    simulate_faulty, simulate_segments, tls, AccessLink, CloseMode, Dialogue, Direction, Message,
    PathParams, TcpParams, Write,
};
use tstat::Monitor;

/// One randomly drawn connection: everything both paths are fed.
#[derive(Debug)]
struct Case {
    dialogue: Dialogue,
    path: PathParams,
    tcp: TcpParams,
    faults: Option<FlowFaults>,
    seed: u64,
}

fn key() -> FlowKey {
    FlowKey::new(
        Endpoint::new(Ipv4::new(10, 0, 0, 9), 40_123),
        Endpoint::new(Ipv4::new(107, 22, 0, 3), 443),
    )
}

fn marker(rng: &mut Rng) -> AppMarker {
    match rng.below(4) {
        0 => AppMarker::HttpRequest {
            host: "dl-web.dropbox.com".into(),
            path: "/get".into(),
        },
        1 => AppMarker::HttpResponse { status: 200 },
        2 => AppMarker::NotifyRequest {
            host: "notify3.dropbox.com".into(),
            host_int: rng.next_u64(),
            namespaces: (0..rng.below(4)).collect(),
        },
        _ => AppMarker::TlsClientHello {
            sni: "client-lb.dropbox.com".into(),
        },
    }
}

fn write(rng: &mut Rng) -> Write {
    // Mostly sub-MSS to a few segments, sometimes a bulk chunk.
    let size = if rng.chance(0.2) {
        rng.range_u64(20_000, 250_000)
    } else {
        rng.range_u64(1, 5_000)
    } as u32;
    if rng.chance(0.3) {
        Write::marked(size, marker(rng))
    } else {
        Write::plain(size)
    }
}

fn dialogue(rng: &mut Rng) -> Dialogue {
    let mut messages = if rng.chance(0.5) {
        tls::handshake(
            "dl-client7.dropbox.com",
            "*.dropbox.com",
            SimDuration::from_millis(rng.range_u64(0, 60)),
        )
    } else {
        Vec::new()
    };
    for _ in 0..rng.range_u64(1, 6) {
        messages.push(Message {
            dir: if rng.chance(0.5) {
                Direction::Up
            } else {
                Direction::Down
            },
            delay: SimDuration::from_millis(rng.range_u64(0, 3_000)),
            writes: (0..rng.range_u64(1, 4)).map(|_| write(rng)).collect(),
        });
    }
    let close = match rng.below(4) {
        0 => CloseMode::ServerIdleTimeout {
            idle: SimDuration::from_secs(60),
            alert_size: tls::ALERT_BYTES,
        },
        1 => CloseMode::ClientFin {
            delay: SimDuration::from_millis(rng.range_u64(0, 500)),
        },
        2 => CloseMode::ClientRst {
            delay: SimDuration::from_millis(rng.range_u64(0, 500)),
        },
        _ => CloseMode::LeftOpen,
    };
    Dialogue::new(messages).with_close(close)
}

fn case(rng: &mut Rng) -> Case {
    let name = *rng.pick(&["wired", "wifi", "lte"]);
    let link = AccessLink::by_name(name).expect("known profile");
    let mut path = link.path(SimDuration::from_millis(rng.range_u64(1, 200)), rng);
    if rng.chance(0.3) {
        path.loss_up = rng.range_f64(0.0, 0.08);
        path.loss_down = rng.range_f64(0.0, 0.08);
    }
    let tcp = if rng.chance(0.5) {
        TcpParams::era_2012_v1()
    } else {
        TcpParams::era_2012_v14()
    };
    let faults = rng.chance(0.5).then(|| FlowFaults {
        extra_loss: if rng.chance(0.5) {
            rng.range_f64(0.0, 0.2)
        } else {
            0.0
        },
        latency_spike: rng
            .chance(0.3)
            .then(|| SimDuration::from_millis(rng.range_u64(1, 2_000))),
        reset_after_bytes: rng.chance(0.6).then(|| rng.range_u64(1, 300_000)),
    });
    Case {
        dialogue: dialogue(rng),
        path,
        tcp,
        faults,
        seed: rng.next_u64(),
    }
}

/// `process_flow` and `process_segments` of connection `key` on two
/// monitors with the same DNS view that have both observed `before`: each
/// returned record, then whatever else each monitor emits at end of
/// capture.
type Outcome = (Option<FlowRecord>, Vec<FlowRecord>);

fn monitors_after(
    key: FlowKey,
    before: &[Packet],
    segs: &[Segment],
    markers: &[AppMarker],
) -> (Outcome, Outcome) {
    let packets: Vec<_> = segs.iter().map(|s| s.to_packet(key, markers)).collect();
    let run = |fold: bool| {
        let mut mon = Monitor::new(true);
        mon.observe_dns("dl-client7.dropbox.com", key.server.ip);
        for p in before {
            mon.observe(p);
        }
        let rec = if fold {
            mon.process_segments(key, segs, markers)
        } else {
            mon.process_flow(&packets)
        };
        let mut rest = Vec::new();
        mon.flush_into(&mut rest);
        (rec, rest)
    };
    (run(false), run(true))
}

fn both_monitors(segs: &[Segment], markers: &[AppMarker]) -> (Outcome, Outcome) {
    monitors_after(key(), &[], segs, markers)
}

proptest! {
    #![cases(256)]

    /// The packet API is the expansion of the segment API.
    #[test]
    fn packets_are_the_expansion_of_segments(c in from_fn(case)) {
        let start = SimTime::from_secs(3);
        let mut rng_p = Rng::new(c.seed);
        let mut packets = Vec::new();
        let sum_p = simulate_faulty(start, key(), &c.dialogue, &c.path, &c.tcp,
            c.faults.as_ref(), &mut rng_p, &mut packets);
        let mut rng_s = Rng::new(c.seed);
        let (mut segs, mut markers) = (Vec::new(), Vec::new());
        let sum_s = simulate_segments(start, &c.dialogue, &c.path, &c.tcp,
            c.faults.as_ref(), &mut rng_s, &mut segs, &mut markers);
        let expanded: Vec<_> = segs.iter().map(|s| s.to_packet(key(), &markers)).collect();
        prop_assert_eq!(expanded, packets);
        prop_assert_eq!(sum_s, sum_p);
        prop_assert_eq!(rng_s.next_u64(), rng_p.next_u64());
    }

    /// Folding a simulated trace equals processing its packets.
    #[test]
    fn segment_fold_equals_packet_processing(c in from_fn(case)) {
        let mut rng = Rng::new(c.seed);
        let (mut segs, mut markers) = (Vec::new(), Vec::new());
        simulate_segments(SimTime::from_secs(3), &c.dialogue, &c.path, &c.tcp,
            c.faults.as_ref(), &mut rng, &mut segs, &mut markers);
        let (by_packets, by_segments) = both_monitors(&segs, &markers);
        prop_assert_eq!(by_segments, by_packets);
    }
}

fn seg(ms: u64, up: bool, flags: TcpFlags, seq: u32, ack_no: u32, len: u32) -> Segment {
    Segment {
        ts: SimTime::from_millis(ms),
        seq,
        ack_no,
        payload_len: len,
        flags,
        up,
        marker: None,
    }
}

/// The shapes the fold cannot take exactly go to `process_flow`. The first
/// is what reset faults produce when the server's last ACK reaches the
/// probe after the client's RST; there `process_flow` returns a one-packet
/// stub for the trailing ACK and keeps the aborted record queued.
#[test]
fn unfoldable_shapes_fall_back_to_packet_processing() {
    let ack = TcpFlags::ACK;
    let data = TcpFlags::ACK.union(TcpFlags::PSH);
    let opening = [
        seg(0, true, TcpFlags::SYN, 0, 0, 0),
        seg(50, false, TcpFlags::SYN.union(ack), 0, 1, 0),
        seg(60, true, ack, 1, 1, 0),
    ];
    let then = |rest: &[Segment]| -> Vec<Segment> { opening.iter().chain(rest).copied().collect() };
    let client_rst_then_server_ack = then(&[
        seg(70, true, ack, 1, 1, 1_430),
        seg(80, true, TcpFlags::RST, 1_431, 1, 0),
        seg(90, false, ack, 1, 1_431, 0),
    ]);
    let second_syn = then(&[
        seg(70, true, data, 1, 1, 500),
        seg(90, true, TcpFlags::SYN, 0, 0, 0),
        seg(95, true, data, 1, 1, 200),
    ]);
    let clean = &second_syn[..4];
    // A client port below the server's: Tstat's port heuristic orients a
    // mid-flow first packet the other way round.
    let low_port_client = FlowKey::new(
        Endpoint::new(Ipv4::new(10, 0, 0, 9), 80),
        Endpoint::new(Ipv4::new(107, 22, 0, 3), 8_080),
    );
    // A monitor already tracking the reversed 4-tuple (a connection the
    // server opened) would take the new flow's server packets.
    let reversed_open = seg(0, false, TcpFlags::SYN, 0, 0, 0).to_packet(key(), &[]);
    let cases: [(FlowKey, &[Packet], &[Segment]); 5] = [
        (key(), &[], &client_rst_then_server_ack),
        (key(), &[], &second_syn),
        // The first packet is the server's SYN.
        (
            key(),
            &[],
            &[seg(0, false, TcpFlags::SYN, 0, 0, 0), clean[2], clean[3]],
        ),
        // The first packet is a mid-flow client segment.
        (low_port_client, &[], &clean[2..]),
        (key(), &[reversed_open], clean),
    ];
    for (key, before, segs) in cases {
        let (by_packets, by_segments) = monitors_after(key, before, segs, &[]);
        assert_eq!(by_segments, by_packets, "{segs:?} after {before:?}");
    }
    // The reset case really is the stub-plus-stranded-record shape.
    let ((stub, stranded), _) = both_monitors(&client_rst_then_server_ack, &[]);
    let stub = stub.expect("trailing-ACK record");
    assert_eq!((stub.up.packets, stub.down.packets), (0, 1));
    assert_eq!(stranded.len(), 1);
    assert!(stranded[0].aborted);
}

/// Markers resolve through the per-flow list, on the fold as on packets.
#[test]
fn fold_resolves_markers_by_index() {
    let markers = [
        AppMarker::TlsClientHello {
            sni: "a.dropbox.com".into(),
        },
        AppMarker::HttpRequest {
            host: "b.dropbox.com".into(),
            path: "/".into(),
        },
    ];
    let data = TcpFlags::ACK.union(TcpFlags::PSH);
    let mut segs = vec![
        seg(0, true, TcpFlags::SYN, 0, 0, 0),
        seg(50, false, TcpFlags::SYN.union(TcpFlags::ACK), 0, 1, 0),
        seg(60, true, data, 1, 1, 300),
        seg(70, true, data, 301, 1, 300),
    ];
    segs[2].marker = Some(MarkerRef::new(1));
    segs[3].marker = Some(MarkerRef::new(0));
    let ((rec, _), (folded, _)) = both_monitors(&segs, &markers);
    assert_eq!(folded, rec);
    let folded = folded.expect("record");
    assert_eq!(folded.http_host.as_deref(), Some("b.dropbox.com"));
    assert_eq!(folded.tls_sni.as_deref(), Some("a.dropbox.com"));
}
