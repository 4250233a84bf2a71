//! Robustness: the monitor must accept arbitrary packet streams without
//! panicking, conserve counters, and tolerate reordering.

use nettrace::{Endpoint, FlowKey, Ipv4, Packet, TcpFlags};
use simcore::proptest::{any_u16, any_u32, any_u64, any_u8, vec_of};
use simcore::{prop_assert, prop_assert_eq, proptest};
use simcore::{Rng, SimDuration, SimTime};
use tcpmodel::{simulate, CloseMode, Dialogue, Direction, Message, PathParams, TcpParams};
use tstat::Monitor;

fn arbitrary_packet(seed: (u64, u16, u16, u8, u32, u32, u32)) -> Packet {
    let (ts, sport, dport, flags, seq, ack, len) = seed;
    Packet {
        ts: SimTime::from_micros(ts % 1_000_000_000),
        src: Endpoint::new(Ipv4::new(10, 0, 0, (sport % 7) as u8), 1 + sport % 1000),
        dst: Endpoint::new(Ipv4::new(107, 22, 0, (dport % 5) as u8), 1 + dport % 1000),
        seq,
        ack_no: ack,
        flags: TcpFlags(flags),
        payload_len: len % 100_000,
        marker: None,
    }
}

proptest! {
    #![cases(64)]

    /// Garbage in, no panic out — and every record keeps its invariants.
    #[test]
    fn monitor_never_panics_on_garbage(
        seeds in vec_of(
            (any_u64(), any_u16(), any_u16(), any_u8(), any_u32(), any_u32(), any_u32()),
            0..200
        )
    ) {
        let mut mon = Monitor::new(true);
        for s in &seeds {
            mon.observe(&arbitrary_packet(*s));
        }
        let mut records = Vec::new();
        mon.flush_into(&mut records);
        for r in &records {
            prop_assert!(r.last_packet >= r.first_syn);
            prop_assert!(r.up.psh_segments <= r.up.packets);
            prop_assert!(r.down.psh_segments <= r.down.packets);
        }
    }

    /// Mild reordering of a real connection's packets must not change the
    /// unique byte totals or PSH counts.
    #[test]
    fn reordering_preserves_byte_and_psh_counters(
        swap_at in vec_of(0usize..400, 0..24),
        size in 10_000u32..200_000,
    ) {
        let d = Dialogue::new(vec![
            Message::simple(Direction::Up, SimDuration::ZERO, size),
            Message::simple(Direction::Down, SimDuration::from_millis(20), size / 2),
        ])
        .with_close(CloseMode::ClientFin { delay: SimDuration::from_millis(10) });
        let path = PathParams {
            inner_rtt: SimDuration::from_millis(10),
            outer_rtt: SimDuration::from_millis(90),
            jitter: 0.0,
            loss_up: 0.0,
            loss_down: 0.0,
            up_rate: None,
            down_rate: None,
        };
        let key = FlowKey::new(
            Endpoint::new(Ipv4::new(10, 0, 0, 9), 45_000),
            Endpoint::new(Ipv4::new(107, 22, 0, 9), 443),
        );
        let mut packets = Vec::new();
        simulate(SimTime::from_secs(1), key, &d, &path, &TcpParams::era_2012_v1(),
                 &mut Rng::new(1), &mut packets);

        let mut mon = Monitor::new(false);
        let base = mon.process_flow(&packets).unwrap();

        // Swap adjacent same-direction packets at the given positions.
        let mut shuffled = packets.clone();
        for &i in &swap_at {
            if i + 1 < shuffled.len() && shuffled[i].src == shuffled[i + 1].src {
                shuffled.swap(i, i + 1);
            }
        }
        let mut mon = Monitor::new(false);
        let rec = mon.process_flow(&shuffled).unwrap();
        // Unique-byte accounting may reclassify a swapped segment as a
        // retransmission; bytes + rtx·MSS together must be stable.
        prop_assert_eq!(rec.up.bytes + 1430 * rec.up.retransmissions,
                        base.up.bytes + 1430 * base.up.retransmissions);
        prop_assert_eq!(rec.up.psh_segments, base.up.psh_segments);
        prop_assert_eq!(rec.down.psh_segments, base.down.psh_segments);
    }
}

#[test]
fn idle_eviction_flushes_stale_flows() {
    let mut mon = Monitor::new(false);
    let mk = |ts: u64, port: u16| Packet {
        ts: SimTime::from_secs(ts),
        src: Endpoint::new(Ipv4::new(10, 0, 0, 1), port),
        dst: Endpoint::new(Ipv4::new(107, 22, 0, 1), 443),
        seq: 0,
        ack_no: 0,
        flags: TcpFlags::SYN,
        payload_len: 0,
        marker: None,
    };
    mon.observe(&mk(100, 1000));
    mon.observe(&mk(4_000, 1001));
    assert_eq!(mon.active_flows(), 2);
    // Evict flows idle for > 1 h at t = 4100 s: only the first qualifies.
    mon.evict_idle(SimTime::from_secs(4_100), SimDuration::from_hours(1));
    assert_eq!(mon.active_flows(), 1);
    let mut done = Vec::new();
    mon.drain_into(&mut done);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].first_syn, SimTime::from_secs(100));
}
