//! A Tstat-like passive monitor.
//!
//! [`Monitor`] reconstructs per-TCP-flow metrics from the traffic crossing
//! the vantage point, exactly as the paper's instrumented Tstat does
//! (Sec. 3.1). It has two inputs that share one per-segment body
//! (`FlowState::observe`):
//!
//! * the capture's hot path, [`Monitor::process_segments`]: the compact
//!   segment trace of one connection, as the TCP model emits it, folded
//!   into a local flow state with no map lookups (shapes the fold cannot
//!   take exactly, such as a packet after an RST, go to the packet input);
//! * the general packet input, [`Monitor::observe`] and
//!   [`Monitor::process_flow`], which orients each self-describing
//!   packet onto a tracked flow (port reuse, trimmed captures, interleaved
//!   connections) and serves the packet tee: pcap export, protocol ladders
//!   and tests.
//!
//! Per flow it measures:
//!
//! * byte/packet/PSH counters per direction and payload timestamps,
//! * retransmission detection from sequence numbers,
//! * **external RTT** estimation (probe ↔ server): samples are taken from
//!   client-sent SYN/data segments and the server's covering ACKs, with a
//!   Karn-style rule that suspends sampling while a retransmission is
//!   outstanding,
//! * TLS server-name extraction from ClientHello/Certificate records,
//! * FQDN labelling of server addresses from observed DNS answers
//!   ("DNS to the Rescue", \[2\]) — available only at vantage points whose
//!   DNS traffic passes the probe (not Campus 2),
//! * notification-payload inspection: device `host_int` and namespace
//!   lists are cleartext (Sec. 2.3.1).
//!
//! The monitor never reads opaque payload bytes: everything comes from
//! headers, sizes, timing, and the cleartext/handshake fields a real DPI
//! probe could parse.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nettrace::flow::{DirStats, FlowClose, NotifyMeta};
use nettrace::{AppMarker, FlowKey, FlowRecord, Ipv4, Packet, Segment};
use simcore::SimTime;
use std::collections::BTreeMap;

/// Maximum outstanding (unacknowledged) client segments tracked for RTT
/// sampling per flow.
const RTT_WINDOW: usize = 64;

/// Per-flow reconstruction state.
struct FlowState {
    key: FlowKey,
    first_syn: SimTime,
    last_packet: SimTime,
    up: DirStats,
    down: DirStats,
    max_seq_end_up: u32,
    max_seq_end_down: u32,
    seen_up_data: bool,
    seen_down_data: bool,
    outstanding: Vec<(u32, SimTime)>, // client seq_end -> probe ts
    karn_suspended: bool,
    min_rtt: Option<f64>,
    rtt_samples: u32,
    tls_sni: Option<String>,
    tls_cn: Option<String>,
    http_host: Option<String>,
    notify: Option<NotifyMeta>,
    fin_up: bool,
    fin_down: bool,
    rst: bool,
    // PSH state of the most recent payload segment in either direction.
    // Application writes always end with PSH, so an RST arriving while
    // this is false means a write was cut mid-transfer.
    last_data_psh: bool,
}

impl FlowState {
    fn new(key: FlowKey, ts: SimTime) -> Self {
        FlowState {
            key,
            first_syn: ts,
            last_packet: ts,
            up: DirStats::default(),
            down: DirStats::default(),
            max_seq_end_up: 0,
            max_seq_end_down: 0,
            seen_up_data: false,
            seen_down_data: false,
            outstanding: Vec::new(),
            karn_suspended: false,
            min_rtt: None,
            rtt_samples: 0,
            tls_sni: None,
            tls_cn: None,
            http_host: None,
            notify: None,
            fin_up: false,
            fin_down: false,
            rst: false,
            last_data_psh: true,
        }
    }

    /// Fold one segment of this flow (`seg.up`: sent by the client) into
    /// the state; `marker` is the segment's DPI-visible content, already
    /// looked up (`seg.marker` is not read). Returns whether the flow has
    /// seen a reset.
    fn observe(&mut self, seg: &Segment, marker: Option<&AppMarker>) -> bool {
        self.last_packet = self.last_packet.max(seg.ts);

        // --- RTT sampling (probe ↔ server semi-connection) -------------
        if seg.up {
            if seg.flags.syn() || seg.payload_len > 0 {
                let seq_end = seg
                    .seq
                    .wrapping_add(seg.payload_len.max(if seg.flags.syn() { 1 } else { 0 }));
                // Retransmission? (seen this sequence range before)
                let is_rtx = seg.payload_len > 0
                    && self.seen_up_data
                    && seq_le(seq_end, self.max_seq_end_up);
                if is_rtx {
                    // Karn: stop sampling until acks pass the rtx point.
                    self.karn_suspended = true;
                    self.outstanding.clear();
                } else if self.outstanding.len() < RTT_WINDOW && !self.karn_suspended {
                    self.outstanding.push((seq_end, seg.ts));
                }
            }
        } else if seg.flags.ack() {
            // Server ACK: sample every outstanding segment it covers.
            let mut i = 0;
            while i < self.outstanding.len() {
                let (seq_end, t_data) = self.outstanding[i];
                if seq_le(seq_end, seg.ack_no) {
                    let sample_ms = (seg.ts - t_data).as_secs_f64() * 1_000.0;
                    self.min_rtt = Some(match self.min_rtt {
                        Some(m) => m.min(sample_ms),
                        None => sample_ms,
                    });
                    self.rtt_samples += 1;
                    self.outstanding.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            if self.karn_suspended && self.outstanding.is_empty() {
                self.karn_suspended = false;
            }
        }

        // --- Per-direction counters -------------------------------------
        let (dir, max_seq_end, seen_data) = if seg.up {
            (
                &mut self.up,
                &mut self.max_seq_end_up,
                &mut self.seen_up_data,
            )
        } else {
            (
                &mut self.down,
                &mut self.max_seq_end_down,
                &mut self.seen_down_data,
            )
        };
        dir.packets += 1;
        if seg.payload_len > 0 {
            let seq_end = seg.seq.wrapping_add(seg.payload_len);
            if *seen_data && seq_le(seq_end, *max_seq_end) {
                dir.retransmissions += 1;
                dir.rtx_bytes += seg.payload_len as u64;
            } else {
                dir.bytes += seg.payload_len as u64;
                *max_seq_end = seq_end;
                *seen_data = true;
            }
            if seg.flags.psh() {
                dir.psh_segments += 1;
            }
            if dir.first_payload.is_none() {
                dir.first_payload = Some(seg.ts);
            }
            dir.last_payload = Some(seg.ts);
        }
        if seg.payload_len > 0 {
            self.last_data_psh = seg.flags.psh();
        }

        // --- DPI-visible content ----------------------------------------
        if let Some(marker) = marker {
            match marker {
                AppMarker::TlsClientHello { sni } => {
                    self.tls_sni.get_or_insert_with(|| sni.clone());
                }
                AppMarker::TlsCertificate { common_name } => {
                    self.tls_cn.get_or_insert_with(|| common_name.clone());
                }
                AppMarker::HttpRequest { host, .. } => {
                    self.http_host.get_or_insert_with(|| host.clone());
                }
                AppMarker::HttpResponse { .. } => {}
                AppMarker::NotifyRequest {
                    host,
                    host_int,
                    namespaces,
                } => {
                    self.http_host.get_or_insert_with(|| host.clone());
                    self.notify = Some(NotifyMeta {
                        host_int: *host_int,
                        namespaces: namespaces.clone(),
                    });
                }
            }
        }

        // --- Close tracking ----------------------------------------------
        if seg.flags.rst() {
            self.rst = true;
        }
        if seg.flags.fin() {
            if seg.up {
                self.fin_up = true;
            } else {
                self.fin_down = true;
            }
        }
        self.rst
    }

    fn finalize(self, server_fqdn: Option<String>) -> FlowRecord {
        let close = if self.rst {
            FlowClose::Rst
        } else if self.fin_up || self.fin_down {
            FlowClose::Fin
        } else {
            FlowClose::Timeout
        };
        // Cut mid-transfer: reset while the last data segment lacked PSH.
        // Idle NAT resets after complete (PSH-terminated) writes, and
        // resets on data-free flows, are not aborts.
        let aborted = self.rst && (self.seen_up_data || self.seen_down_data) && !self.last_data_psh;
        FlowRecord {
            key: self.key,
            first_syn: self.first_syn,
            last_packet: self.last_packet,
            up: self.up,
            down: self.down,
            min_rtt_ms: self.min_rtt,
            rtt_samples: self.rtt_samples,
            tls_sni: self.tls_sni,
            tls_certificate_cn: self.tls_cn,
            http_host: self.http_host,
            server_fqdn,
            notify: self.notify,
            close,
            aborted,
        }
    }
}

/// Wrapping sequence-space comparison: is `a <= b`?
#[inline]
fn seq_le(a: u32, b: u32) -> bool {
    b.wrapping_sub(a) < 0x8000_0000
}

/// The passive monitor of one vantage point.
pub struct Monitor {
    flows: BTreeMap<FlowKey, FlowState>,
    dns_view: BTreeMap<Ipv4, String>,
    expose_dns: bool,
    done: Vec<FlowRecord>,
}

impl Monitor {
    /// Create a monitor. `expose_dns` states whether the vantage point's
    /// DNS traffic passes the probe (false in Campus 2, Sec. 3.2).
    pub fn new(expose_dns: bool) -> Self {
        Monitor {
            flows: BTreeMap::new(),
            dns_view: BTreeMap::new(),
            expose_dns,
            done: Vec::new(),
        }
    }

    /// Record a DNS answer seen on the wire (name → address). Ignored when
    /// the vantage point does not expose DNS.
    pub fn observe_dns(&mut self, name: &str, ip: Ipv4) {
        if self.expose_dns {
            self.dns_view.insert(ip, name.to_owned());
        }
    }

    /// Number of flows currently being tracked.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Feed one packet.
    pub fn observe(&mut self, pkt: &Packet) {
        // Determine orientation: a pure SYN identifies the client side.
        let pure_syn = pkt.flags.syn() && !pkt.flags.ack();
        let (key, from_client) = if pure_syn {
            (FlowKey::new(pkt.src, pkt.dst), true)
        } else if let Some(key) = self.orient(pkt) {
            key
        } else {
            // Mid-flow packet for an unknown connection (trimmed capture):
            // assume the lower port is the server, as Tstat's heuristics do.
            if pkt.src.port > pkt.dst.port {
                ((FlowKey::new(pkt.src, pkt.dst)), true)
            } else {
                ((FlowKey::new(pkt.dst, pkt.src)), false)
            }
        };

        // A fresh SYN for a key already tracked (port reuse) finalizes the
        // previous incarnation.
        if pure_syn {
            self.finish(key);
        }

        let state = self
            .flows
            .entry(key)
            .or_insert_with(|| FlowState::new(key, pkt.ts));
        let seg = Segment {
            ts: pkt.ts,
            seq: pkt.seq,
            ack_no: pkt.ack_no,
            payload_len: pkt.payload_len,
            flags: pkt.flags,
            up: from_client,
            marker: None,
        };
        // A reset is the last packet of a connection: finalize eagerly.
        // Orderly FIN closes are finalized lazily (at flush or on port
        // reuse) because the final ACK still belongs to the flow.
        if state.observe(&seg, pkt.marker.as_ref()) {
            self.finish(key);
        }
    }

    /// Stop tracking `key`, if it is tracked, and queue its finalized
    /// record, labelled with the server name the DNS view holds for it.
    /// Returns whether a record was queued.
    fn finish(&mut self, key: FlowKey) -> bool {
        let Some(state) = self.flows.remove(&key) else {
            return false;
        };
        let fqdn = self.dns_view.get(&key.server.ip).cloned();
        self.done.push(state.finalize(fqdn));
        true
    }

    /// Orient a non-SYN packet onto a tracked flow.
    fn orient(&self, pkt: &Packet) -> Option<(FlowKey, bool)> {
        let as_client = FlowKey::new(pkt.src, pkt.dst);
        if self.flows.contains_key(&as_client) {
            return Some((as_client, true));
        }
        let as_server = FlowKey::new(pkt.dst, pkt.src);
        if self.flows.contains_key(&as_server) {
            return Some((as_server, false));
        }
        None
    }

    /// Stream the flows completed so far into a sink, in finalisation
    /// order. `Vec<FlowRecord>` is a sink, for callers that want them
    /// materialised.
    pub fn drain_into(&mut self, sink: &mut dyn nettrace::FlowSink) {
        for rec in self.done.drain(..) {
            sink.accept(rec);
        }
    }

    /// End of capture: finalize all remaining flows, in key order, and
    /// emit everything not yet drained into `sink`.
    pub fn flush_into(&mut self, sink: &mut dyn nettrace::FlowSink) {
        while let Some(&key) = self.flows.keys().next() {
            self.finish(key);
        }
        self.drain_into(sink);
    }

    /// Evict flows idle since before `now - idle`: real Tstat flushes
    /// long-silent connections so state does not grow over a 42-day
    /// capture. Evicted flows are finalized as their observed close state.
    pub fn evict_idle(&mut self, now: simcore::SimTime, idle: simcore::SimDuration) {
        let keys: Vec<FlowKey> = self
            .flows
            .iter()
            .filter(|(_, st)| now.saturating_since(st.last_packet) > idle)
            .map(|(&k, _)| k)
            .collect();
        for key in keys {
            self.finish(key);
        }
    }

    /// Convenience: process the complete packet trace of a single
    /// connection and return its record. Equivalent to `observe`ing every
    /// packet and flushing. DNS labelling uses the monitor's current view.
    pub fn process_flow(&mut self, packets: &[Packet]) -> Option<FlowRecord> {
        for p in packets {
            self.observe(p);
        }
        // The flow either completed eagerly or is still tracked.
        if let Some(last) = packets.last() {
            if !self.finish(FlowKey::new(last.src, last.dst)) {
                self.finish(FlowKey::new(last.dst, last.src));
            }
        }
        self.done.pop()
    }

    /// Process the complete segment trace of connection `key`
    /// (`Segment::up`: sent by `key.client`), with the content its
    /// segments refer to in `markers`, and return its record.
    ///
    /// Returns exactly what [`Monitor::process_flow`] returns for the
    /// expanded packets and leaves the monitor in the same state. A trace
    /// of one connection incarnation, opened by the client's SYN and ended
    /// by at most one RST, on a monitor that tracks no flow, is folded
    /// into a local flow state with no map lookups. Any other shape (a
    /// packet after an RST, a second pure SYN, a first packet that is not
    /// the client's pure SYN, or an empty trace) is expanded to packets
    /// and handed to `process_flow`.
    pub fn process_segments(
        &mut self,
        key: FlowKey,
        segments: &[Segment],
        markers: &[AppMarker],
    ) -> Option<FlowRecord> {
        if !self.folds(key, segments) {
            let packets: Vec<Packet> = segments.iter().map(|s| s.to_packet(key, markers)).collect();
            return self.process_flow(&packets);
        }
        let mut state = FlowState::new(key, segments[0].ts);
        for seg in segments {
            state.observe(seg, seg.marker.map(|m| &markers[m.index()]));
        }
        let fqdn = self.dns_view.get(&key.server.ip).cloned();
        Some(state.finalize(fqdn))
    }

    /// Whether `process_flow` would turn `segments` into exactly one
    /// record of `key`, built from a fresh state and touching no other
    /// monitor state: see [`Monitor::process_segments`].
    fn folds(&self, key: FlowKey, segments: &[Segment]) -> bool {
        let pure_syn = |s: &Segment| s.flags.syn() && !s.flags.ack();
        let Some((first, rest)) = segments.split_first() else {
            return false;
        };
        // A key whose two ends coincide orients every packet as the
        // client's, which the direction bit cannot express.
        self.flows.is_empty()
            && key.client != key.server
            && first.up
            && pure_syn(first)
            && !rest.iter().any(pure_syn)
            && !segments[..segments.len() - 1].iter().any(|s| s.flags.rst())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::{Endpoint, TcpFlags};
    use simcore::{Rng, SimDuration};
    use tcpmodel::tls;
    use tcpmodel::{simulate, CloseMode, Dialogue, Direction, Message, PathParams, TcpParams};

    fn key() -> FlowKey {
        FlowKey::new(
            Endpoint::new(Ipv4::new(10, 0, 0, 5), 42_000),
            Endpoint::new(Ipv4::new(107, 22, 1, 2), 443),
        )
    }

    fn path(outer_ms: u64) -> PathParams {
        PathParams {
            inner_rtt: SimDuration::from_millis(12),
            outer_rtt: SimDuration::from_millis(outer_ms),
            jitter: 0.02,
            loss_up: 0.0,
            loss_down: 0.0,
            up_rate: None,
            down_rate: None,
        }
    }

    fn play(dialogue: Dialogue, p: PathParams, seed: u64) -> FlowRecord {
        let mut out = Vec::new();
        let mut rng = Rng::new(seed);
        simulate(
            SimTime::from_secs(5),
            key(),
            &dialogue,
            &p,
            &TcpParams::era_2012_v1(),
            &mut rng,
            &mut out,
        );
        let mut mon = Monitor::new(true);
        mon.observe_dns("dl-client9.dropbox.com", key().server.ip);
        mon.process_flow(&out).expect("flow record")
    }

    fn store_like_dialogue(chunks: usize, chunk_bytes: u32) -> Dialogue {
        let mut messages = tls::handshake(
            "dl-client9.dropbox.com",
            "*.dropbox.com",
            SimDuration::from_millis(50),
        );
        for _ in 0..chunks {
            messages.push(Message::simple(
                Direction::Up,
                SimDuration::from_millis(30),
                634 + chunk_bytes,
            ));
            messages.push(Message::simple(
                Direction::Down,
                SimDuration::from_millis(60),
                309,
            ));
        }
        Dialogue::new(messages)
    }

    #[test]
    fn byte_counters_match_dialogue() {
        let d = store_like_dialogue(3, 10_000);
        let rec = play(d.clone(), path(90), 1);
        assert_eq!(rec.up.bytes, d.bytes_up());
        // Down includes the 37-byte close alert.
        assert_eq!(rec.down.bytes, d.bytes_down() + 37);
    }

    #[test]
    fn external_rtt_measured_not_total() {
        let rec = play(store_like_dialogue(5, 5_000), path(90), 2);
        let rtt = rec.min_rtt_ms.expect("rtt measured");
        // Probe↔server RTT is 90 ms; client access adds 12 ms that must
        // NOT appear in the estimate.
        assert!((rtt - 90.0).abs() < 3.0, "rtt = {rtt}");
        assert!(rec.rtt_samples >= 10);
    }

    #[test]
    fn psh_counting_matches_appendix_a() {
        // Store flow with c chunks closed by the server: the server sends
        // 2 handshake PSH + c OK PSH + 1 alert PSH => c = s - 3 (A.3).
        let c = 7;
        let rec = play(store_like_dialogue(c, 2_000), path(90), 3);
        assert_eq!(rec.down.psh_segments as usize, c + 3);
        // Client side: 2 handshake PSH + c data-chunk PSH.
        assert_eq!(rec.up.psh_segments as usize, c + 2);
    }

    #[test]
    fn tls_names_extracted() {
        let rec = play(store_like_dialogue(1, 500), path(90), 4);
        assert_eq!(rec.tls_sni.as_deref(), Some("dl-client9.dropbox.com"));
        assert_eq!(rec.tls_certificate_cn.as_deref(), Some("*.dropbox.com"));
        assert_eq!(rec.server_fqdn.as_deref(), Some("dl-client9.dropbox.com"));
        assert_eq!(rec.server_name(), Some("dl-client9.dropbox.com"));
    }

    #[test]
    fn dns_hidden_when_not_exposed() {
        let mut out = Vec::new();
        let mut rng = Rng::new(5);
        simulate(
            SimTime::from_secs(5),
            key(),
            &store_like_dialogue(1, 500),
            &path(90),
            &TcpParams::era_2012_v1(),
            &mut rng,
            &mut out,
        );
        let mut mon = Monitor::new(false);
        mon.observe_dns("dl-client9.dropbox.com", key().server.ip);
        let rec = mon.process_flow(&out).unwrap();
        assert!(rec.server_fqdn.is_none());
        // TLS still identifies the service.
        assert_eq!(rec.tls_sni.as_deref(), Some("dl-client9.dropbox.com"));
    }

    #[test]
    fn retransmissions_counted_once_bytes_not_double_counted() {
        let mut p = path(90);
        p.loss_up = 0.03;
        let d = Dialogue::new(vec![Message::simple(
            Direction::Up,
            SimDuration::ZERO,
            400_000,
        )])
        .with_close(CloseMode::ClientFin {
            delay: SimDuration::from_millis(50),
        });
        let mut out = Vec::new();
        let mut rng = Rng::new(6);
        let sum = simulate(
            SimTime::from_secs(5),
            key(),
            &d,
            &p,
            &TcpParams::era_2012_v1(),
            &mut rng,
            &mut out,
        );
        let mut mon = Monitor::new(true);
        let rec = mon.process_flow(&out).unwrap();
        assert!(sum.rtx_up > 0);
        assert_eq!(rec.up.retransmissions, sum.rtx_up);
        assert_eq!(rec.up.bytes, 400_000, "unique bytes only");
        assert_eq!(rec.up.rtx_bytes, sum.rtx_bytes_up);
        assert!(!rec.aborted);
    }

    #[test]
    fn mid_flow_reset_flagged_as_aborted() {
        let d = Dialogue::new(vec![Message::simple(
            Direction::Up,
            SimDuration::ZERO,
            400_000,
        )]);
        let faults = simcore::faults::FlowFaults {
            reset_after_bytes: Some(60_000),
            ..Default::default()
        };
        let mut out = Vec::new();
        let mut rng = Rng::new(12);
        let sum = tcpmodel::simulate_faulty(
            SimTime::from_secs(5),
            key(),
            &d,
            &path(90),
            &TcpParams::era_2012_v1(),
            Some(&faults),
            &mut rng,
            &mut out,
        );
        assert!(sum.aborted);
        let mut mon = Monitor::new(true);
        let rec = mon.process_flow(&out).unwrap();
        assert_eq!(rec.close, FlowClose::Rst);
        assert!(rec.aborted, "truncated write must be wire-detectable");
        assert!(rec.up.bytes < 400_000);
    }

    #[test]
    fn idle_timeout_rst_is_not_flagged_as_aborted() {
        // The normal server-idle-timeout close ends with a client RST, but
        // every application write completed (PSH-terminated): not an abort.
        let rec = play(store_like_dialogue(2, 1_000), path(90), 13);
        assert_eq!(rec.close, FlowClose::Rst);
        assert!(!rec.aborted);
    }

    #[test]
    fn close_classification() {
        // Server idle timeout ends with a client RST.
        let rec = play(store_like_dialogue(1, 100), path(90), 7);
        assert_eq!(rec.close, FlowClose::Rst);
        // Client FIN close.
        let d = Dialogue::new(vec![Message::simple(Direction::Up, SimDuration::ZERO, 100)])
            .with_close(CloseMode::ClientFin {
                delay: SimDuration::from_millis(10),
            });
        let rec = play(d, path(90), 8);
        assert_eq!(rec.close, FlowClose::Fin);
        // Left open: timeout at flush.
        let d = Dialogue::new(vec![Message::simple(Direction::Up, SimDuration::ZERO, 100)])
            .with_close(CloseMode::LeftOpen);
        let rec = play(d, path(90), 9);
        assert_eq!(rec.close, FlowClose::Timeout);
    }

    #[test]
    fn notify_metadata_extracted() {
        let mut messages = vec![Message {
            dir: Direction::Up,
            delay: SimDuration::from_millis(10),
            writes: vec![tcpmodel::Write::marked(
                350,
                AppMarker::NotifyRequest {
                    host: "notify5.dropbox.com".into(),
                    host_int: 777,
                    namespaces: vec![1, 2, 3],
                },
            )],
        }];
        messages.push(Message::simple(
            Direction::Down,
            SimDuration::from_secs(60),
            160,
        ));
        // A later request advertises one more namespace.
        messages.push(Message {
            dir: Direction::Up,
            delay: SimDuration::from_millis(5),
            writes: vec![tcpmodel::Write::marked(
                368,
                AppMarker::NotifyRequest {
                    host: "notify5.dropbox.com".into(),
                    host_int: 777,
                    namespaces: vec![1, 2, 3, 4],
                },
            )],
        });
        let d = Dialogue::new(messages).with_close(CloseMode::ClientFin {
            delay: SimDuration::from_millis(10),
        });
        let rec = play(d, path(150), 10);
        assert_eq!(rec.http_host.as_deref(), Some("notify5.dropbox.com"));
        let notify = rec.notify.expect("notify meta");
        assert_eq!(notify.host_int, 777);
        assert_eq!(notify.namespaces, vec![1, 2, 3, 4], "last list wins");
    }

    #[test]
    fn multiple_interleaved_flows_tracked() {
        // Two connections from different client ports, packets interleaved.
        let mut out1 = Vec::new();
        let mut out2 = Vec::new();
        let mut rng = Rng::new(11);
        let k2 = FlowKey::new(Endpoint::new(Ipv4::new(10, 0, 0, 5), 42_001), key().server);
        simulate(
            SimTime::from_secs(5),
            key(),
            &store_like_dialogue(2, 1_000),
            &path(90),
            &TcpParams::era_2012_v1(),
            &mut rng,
            &mut out1,
        );
        simulate(
            SimTime::from_secs(5),
            k2,
            &store_like_dialogue(3, 1_000),
            &path(90),
            &TcpParams::era_2012_v1(),
            &mut rng,
            &mut out2,
        );
        let mut all: Vec<Packet> = out1.into_iter().chain(out2).collect();
        all.sort_by_key(|p| p.ts);
        let mut mon = Monitor::new(true);
        for p in &all {
            mon.observe(p);
        }
        let mut recs = Vec::new();
        mon.flush_into(&mut recs);
        assert_eq!(recs.len(), 2);
        let mut psh: Vec<u64> = recs.iter().map(|r| r.down.psh_segments).collect();
        psh.sort_unstable();
        assert_eq!(psh, vec![2 + 3, 3 + 3]); // c+3 each
    }

    #[test]
    fn syn_reuse_splits_flows() {
        let mut mon = Monitor::new(false);
        let mk = |ts: u64, flags: TcpFlags, payload: u32| Packet {
            ts: SimTime::from_secs(ts),
            src: key().client,
            dst: key().server,
            seq: 1,
            ack_no: 0,
            flags,
            payload_len: payload,
            marker: None,
        };
        mon.observe(&mk(1, TcpFlags::SYN, 0));
        mon.observe(&mk(2, TcpFlags::PSH.union(TcpFlags::ACK), 100));
        // New SYN on the same 4-tuple.
        mon.observe(&mk(100, TcpFlags::SYN, 0));
        let mut completed = Vec::new();
        mon.drain_into(&mut completed);
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].up.bytes, 100);
        assert_eq!(mon.active_flows(), 1);
    }
}
