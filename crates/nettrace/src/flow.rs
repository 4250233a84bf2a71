//! The Tstat-style per-flow record.
//!
//! One [`FlowRecord`] is exported per observed TCP connection, carrying the
//! metrics the paper's analysis consumes (a subset of Tstat's ~100 TCP-log
//! columns, plus the Dropbox-specific extensions the authors added: TLS
//! server names, DNS FQDN labels, and notification-payload fields). The
//! record converts to and from JSON via `simcore::json`; the experiment
//! harness exports JSON-lines files mirroring the anonymised traces the
//! authors published.

use crate::endpoint::FlowKey;
use simcore::json::{FromJson, Json, JsonError, ToJson};
use simcore::{SimDuration, SimTime};

/// Per-direction packet/byte counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Segments observed (including pure ACKs and control segments).
    pub packets: u64,
    /// Payload bytes (TCP payload only, headers excluded).
    pub bytes: u64,
    /// Data segments with the PSH flag set.
    pub psh_segments: u64,
    /// Retransmitted data segments.
    pub retransmissions: u64,
    /// Payload bytes carried by retransmitted segments. `bytes` counts
    /// unique payload only, so goodput math uses `bytes` directly and
    /// `bytes + rtx_bytes` gives the wire volume.
    pub rtx_bytes: u64,
    /// Timestamp of the first payload-carrying segment.
    pub first_payload: Option<SimTime>,
    /// Timestamp of the last payload-carrying segment.
    pub last_payload: Option<SimTime>,
}

impl ToJson for DirStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("packets", self.packets.to_json()),
            ("bytes", self.bytes.to_json()),
            ("psh_segments", self.psh_segments.to_json()),
            ("retransmissions", self.retransmissions.to_json()),
            ("rtx_bytes", self.rtx_bytes.to_json()),
            ("first_payload", self.first_payload.to_json()),
            ("last_payload", self.last_payload.to_json()),
        ])
    }
}

impl FromJson for DirStats {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(DirStats {
            packets: v.field("packets")?,
            bytes: v.field("bytes")?,
            psh_segments: v.field("psh_segments")?,
            retransmissions: v.field("retransmissions")?,
            // Absent in logs written before fault support: default to zero.
            rtx_bytes: v.field_or("rtx_bytes", 0)?,
            first_payload: v.field("first_payload")?,
            last_payload: v.field("last_payload")?,
        })
    }
}

/// Dropbox-specific notification metadata (cleartext, Sec. 2.3.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NotifyMeta {
    /// Device identifier observed in notification requests.
    pub host_int: u64,
    /// Last namespace list observed on this flow.
    pub namespaces: Vec<u64>,
}

impl ToJson for NotifyMeta {
    fn to_json(&self) -> Json {
        Json::obj([
            ("host_int", self.host_int.to_json()),
            ("namespaces", self.namespaces.to_json()),
        ])
    }
}

impl FromJson for NotifyMeta {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(NotifyMeta {
            host_int: v.field("host_int")?,
            namespaces: v.field("namespaces")?,
        })
    }
}

/// How the connection ended, as visible on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowClose {
    /// Orderly FIN exchange.
    Fin,
    /// Reset.
    Rst,
    /// Still open when the capture (or flow timeout) ended.
    Timeout,
}

impl ToJson for FlowClose {
    fn to_json(&self) -> Json {
        let name = match self {
            FlowClose::Fin => "Fin",
            FlowClose::Rst => "Rst",
            FlowClose::Timeout => "Timeout",
        };
        Json::Str(name.to_string())
    }
}

impl FromJson for FlowClose {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => match s.as_str() {
                "Fin" => Ok(FlowClose::Fin),
                "Rst" => Ok(FlowClose::Rst),
                "Timeout" => Ok(FlowClose::Timeout),
                other => Err(JsonError::new(format!(
                    "unknown FlowClose variant `{other}`"
                ))),
            },
            other => Err(JsonError::new(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }
}

/// A reconstructed TCP flow with the monitor's measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowRecord {
    /// Client and server endpoints (client address anonymised on export).
    pub key: FlowKey,
    /// Time of the first SYN from the client.
    pub first_syn: SimTime,
    /// Time of the last packet in either direction.
    pub last_packet: SimTime,
    /// Client → server direction counters.
    pub up: DirStats,
    /// Server → client direction counters.
    pub down: DirStats,
    /// Minimum external RTT (probe ↔ server) in milliseconds, when at least
    /// one sample was obtained.
    pub min_rtt_ms: Option<f64>,
    /// Number of valid RTT samples (the paper requires ≥ 10 for Fig. 6).
    pub rtt_samples: u32,
    /// Server name from the TLS SNI extension, if the flow carried TLS.
    pub tls_sni: Option<String>,
    /// Certificate common name from the TLS handshake.
    pub tls_certificate_cn: Option<String>,
    /// Host header of cleartext HTTP, if any.
    pub http_host: Option<String>,
    /// Server FQDN obtained by correlating DNS responses with the server
    /// address ("DNS to the Rescue" labelling, Sec. 3.1).
    pub server_fqdn: Option<String>,
    /// Notification metadata when the flow is a notification long-poll.
    pub notify: Option<NotifyMeta>,
    /// How the flow terminated.
    pub close: FlowClose,
    /// Whether the flow looks cut mid-transfer: it ended in an RST while
    /// the last payload segment lacked a PSH flag (application writes end
    /// with PSH, so a missing one means the write never finished). Idle
    /// NAT resets after complete writes are not flagged.
    pub aborted: bool,
}

impl ToJson for FlowRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("key", self.key.to_json()),
            ("first_syn", self.first_syn.to_json()),
            ("last_packet", self.last_packet.to_json()),
            ("up", self.up.to_json()),
            ("down", self.down.to_json()),
            ("min_rtt_ms", self.min_rtt_ms.to_json()),
            ("rtt_samples", self.rtt_samples.to_json()),
            ("tls_sni", self.tls_sni.to_json()),
            ("tls_certificate_cn", self.tls_certificate_cn.to_json()),
            ("http_host", self.http_host.to_json()),
            ("server_fqdn", self.server_fqdn.to_json()),
            ("notify", self.notify.to_json()),
            ("close", self.close.to_json()),
            ("aborted", self.aborted.to_json()),
        ])
    }
}

impl FromJson for FlowRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(FlowRecord {
            key: v.field("key")?,
            first_syn: v.field("first_syn")?,
            last_packet: v.field("last_packet")?,
            up: v.field("up")?,
            down: v.field("down")?,
            min_rtt_ms: v.field("min_rtt_ms")?,
            rtt_samples: v.field("rtt_samples")?,
            tls_sni: v.field("tls_sni")?,
            tls_certificate_cn: v.field("tls_certificate_cn")?,
            http_host: v.field("http_host")?,
            server_fqdn: v.field("server_fqdn")?,
            notify: v.field("notify")?,
            close: v.field("close")?,
            // Absent in logs written before fault support: default to false.
            aborted: v.field_or("aborted", false)?,
        })
    }
}

impl FlowRecord {
    /// Flow duration from first SYN to last packet.
    pub fn duration(&self) -> SimDuration {
        self.last_packet.saturating_since(self.first_syn)
    }

    /// Total payload bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.up.bytes + self.down.bytes
    }

    /// Best server name available for classification, in the priority order
    /// the paper uses: DNS FQDN, then TLS SNI, then certificate CN, then
    /// the HTTP Host header.
    pub fn server_name(&self) -> Option<&str> {
        self.server_fqdn
            .as_deref()
            .or(self.tls_sni.as_deref())
            .or(self.tls_certificate_cn.as_deref())
            .or(self.http_host.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{Endpoint, Ipv4};

    fn record() -> FlowRecord {
        FlowRecord {
            key: FlowKey::new(
                Endpoint::new(Ipv4::new(10, 0, 0, 1), 40_000),
                Endpoint::new(Ipv4::new(199, 47, 216, 10), 443),
            ),
            first_syn: SimTime::from_secs(100),
            last_packet: SimTime::from_secs(160),
            up: DirStats::default(),
            down: DirStats::default(),
            min_rtt_ms: Some(95.0),
            rtt_samples: 12,
            tls_sni: Some("client-lb.dropbox.com".into()),
            tls_certificate_cn: Some("*.dropbox.com".into()),
            http_host: None,
            server_fqdn: None,
            notify: None,
            close: FlowClose::Fin,
            aborted: false,
        }
    }

    #[test]
    fn duration_and_totals() {
        let mut r = record();
        r.up.bytes = 1000;
        r.down.bytes = 5000;
        assert_eq!(r.duration().secs(), 60);
        assert_eq!(r.total_bytes(), 6000);
    }

    #[test]
    fn server_name_priority() {
        let mut r = record();
        assert_eq!(r.server_name(), Some("client-lb.dropbox.com"));
        r.server_fqdn = Some("client1.dropbox.com".into());
        assert_eq!(r.server_name(), Some("client1.dropbox.com"));
        r.server_fqdn = None;
        r.tls_sni = None;
        assert_eq!(r.server_name(), Some("*.dropbox.com"));
        r.tls_certificate_cn = None;
        assert_eq!(r.server_name(), None);
    }
}
