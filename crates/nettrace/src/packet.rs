//! Packets as observed at the vantage point.
//!
//! A [`Packet`] is self-describing: endpoints, header fields and its own
//! copy of any DPI-visible content. A [`Segment`] is the compact form of
//! one packet of a connection whose key is known: a direction bit instead
//! of endpoints, and an index into the connection's marker list instead
//! of the content. The TCP model emits segments and the monitor folds
//! them; [`Segment::to_packet`] expands one into the packet it stands for.

use crate::endpoint::{Endpoint, FlowKey};
use simcore::json::{FromJson, Json, JsonError, ToJson};
use simcore::SimTime;
use std::fmt;
use std::num::NonZeroU16;

/// TCP header flags (the subset the monitor cares about).
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct TcpFlags(pub u8);

impl ToJson for TcpFlags {
    fn to_json(&self) -> Json {
        Json::U64(self.0 as u64)
    }
}

impl FromJson for TcpFlags {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        u8::from_json(v).map(TcpFlags)
    }
}

impl TcpFlags {
    /// FIN flag bit.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag bit.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag bit.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag bit.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag bit.
    pub const ACK: TcpFlags = TcpFlags(0x10);

    /// Union of two flag sets.
    pub const fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    /// True when all bits of `other` are present.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Convenience predicates.
    pub const fn syn(self) -> bool {
        self.contains(TcpFlags::SYN)
    }
    /// True when the ACK bit is set.
    pub const fn ack(self) -> bool {
        self.contains(TcpFlags::ACK)
    }
    /// True when the PSH bit is set.
    pub const fn psh(self) -> bool {
        self.contains(TcpFlags::PSH)
    }
    /// True when the FIN bit is set.
    pub const fn fin(self) -> bool {
        self.contains(TcpFlags::FIN)
    }
    /// True when the RST bit is set.
    pub const fn rst(self) -> bool {
        self.contains(TcpFlags::RST)
    }
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.syn() {
            parts.push("SYN");
        }
        if self.fin() {
            parts.push("FIN");
        }
        if self.rst() {
            parts.push("RST");
        }
        if self.psh() {
            parts.push("PSH");
        }
        if self.ack() {
            parts.push("ACK");
        }
        if parts.is_empty() {
            write!(f, "∅")
        } else {
            write!(f, "{}", parts.join("|"))
        }
    }
}

/// DPI-visible application content of a packet.
///
/// This models exactly what the paper's instrumented Tstat could read from
/// a real packet: TLS handshake fields (cleartext by design), cleartext
/// HTTP (notification protocol and some direct-link downloads), and the
/// notification payload (device id + namespace list, Sec. 2.3.1). Encrypted
/// application data carries `None`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AppMarker {
    /// TLS ClientHello; SNI extension carries the requested server name.
    TlsClientHello {
        /// Server name from the SNI extension.
        sni: String,
    },
    /// TLS ServerHello + Certificate; the certificate common name is
    /// readable (`*.dropbox.com` for all Dropbox services).
    TlsCertificate {
        /// Certificate common name.
        common_name: String,
    },
    /// Cleartext HTTP request line + Host header.
    HttpRequest {
        /// Value of the Host header.
        host: String,
        /// Request path.
        path: String,
    },
    /// Cleartext HTTP response status line.
    HttpResponse {
        /// HTTP status code.
        status: u16,
    },
    /// Dropbox notification long-poll request payload. The protocol is
    /// plain HTTP: the Host header, the device id (`host_int`) and the
    /// current namespace list are all readable on the wire.
    NotifyRequest {
        /// HTTP Host header (`notifyX.dropbox.com`).
        host: String,
        /// Unique device identifier.
        host_int: u64,
        /// Namespace (shared-folder) identifiers registered on the device.
        namespaces: Vec<u64>,
    },
}

// Externally-tagged representation, `{"VariantName": {fields...}}` — the
// same wire format the serde derive this replaces produced.
impl ToJson for AppMarker {
    fn to_json(&self) -> Json {
        let (tag, body) = match self {
            AppMarker::TlsClientHello { sni } => {
                ("TlsClientHello", Json::obj([("sni", sni.to_json())]))
            }
            AppMarker::TlsCertificate { common_name } => (
                "TlsCertificate",
                Json::obj([("common_name", common_name.to_json())]),
            ),
            AppMarker::HttpRequest { host, path } => (
                "HttpRequest",
                Json::obj([("host", host.to_json()), ("path", path.to_json())]),
            ),
            AppMarker::HttpResponse { status } => {
                ("HttpResponse", Json::obj([("status", status.to_json())]))
            }
            AppMarker::NotifyRequest {
                host,
                host_int,
                namespaces,
            } => (
                "NotifyRequest",
                Json::obj([
                    ("host", host.to_json()),
                    ("host_int", host_int.to_json()),
                    ("namespaces", namespaces.to_json()),
                ]),
            ),
        };
        Json::obj([(tag, body)])
    }
}

impl FromJson for AppMarker {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let (tag, body) = match v {
            Json::Obj(fields) if fields.len() == 1 => (&fields[0].0, &fields[0].1),
            other => {
                return Err(JsonError::new(format!(
                    "expected single-key variant object, found {}",
                    other.kind()
                )))
            }
        };
        match tag.as_str() {
            "TlsClientHello" => Ok(AppMarker::TlsClientHello {
                sni: body.field("sni")?,
            }),
            "TlsCertificate" => Ok(AppMarker::TlsCertificate {
                common_name: body.field("common_name")?,
            }),
            "HttpRequest" => Ok(AppMarker::HttpRequest {
                host: body.field("host")?,
                path: body.field("path")?,
            }),
            "HttpResponse" => Ok(AppMarker::HttpResponse {
                status: body.field("status")?,
            }),
            "NotifyRequest" => Ok(AppMarker::NotifyRequest {
                host: body.field("host")?,
                host_int: body.field("host_int")?,
                namespaces: body.field("namespaces")?,
            }),
            other => Err(JsonError::new(format!(
                "unknown AppMarker variant `{other}`"
            ))),
        }
    }
}

/// One TCP segment crossing the monitored link.
#[derive(Clone, Debug, PartialEq)]
pub struct Packet {
    /// Capture timestamp at the probe.
    pub ts: SimTime,
    /// Sender endpoint.
    pub src: Endpoint,
    /// Receiver endpoint.
    pub dst: Endpoint,
    /// TCP sequence number (byte offset of the first payload byte).
    pub seq: u32,
    /// TCP acknowledgment number.
    pub ack_no: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// TCP payload bytes carried by this segment.
    pub payload_len: u32,
    /// DPI-visible content, when the payload is parseable on the wire.
    pub marker: Option<AppMarker>,
}

impl Packet {
    /// Total on-wire length: Ethernet (14) + IPv4 (20) + TCP (20) + payload.
    pub fn wire_len(&self) -> u32 {
        54 + self.payload_len
    }

    /// True when this segment carries payload.
    pub fn has_payload(&self) -> bool {
        self.payload_len > 0
    }
}

/// Index of a segment's DPI-visible content in its connection's marker
/// list (see [`Segment`]). Stored in 16 bits, so a connection carries at
/// most 65 535 marked writes; [`MarkerRef::new`] checks the bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MarkerRef(NonZeroU16);

impl MarkerRef {
    /// Refer to entry `index` of the marker list.
    ///
    /// # Panics
    /// When `index` is 65 535 or more.
    pub fn new(index: usize) -> MarkerRef {
        let stored = index
            .checked_add(1)
            .and_then(|i| u16::try_from(i).ok())
            .and_then(NonZeroU16::new)
            .expect("a connection carries at most 65535 marked writes");
        MarkerRef(stored)
    }

    /// The referenced index into the marker list.
    pub fn index(self) -> usize {
        usize::from(self.0.get()) - 1
    }
}

/// One TCP segment of a connection whose [`FlowKey`] is known: a
/// [`Packet`] without its endpoints and without its own copy of the
/// DPI-visible content.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Capture timestamp at the probe.
    pub ts: SimTime,
    /// TCP sequence number (byte offset of the first payload byte).
    pub seq: u32,
    /// TCP acknowledgment number.
    pub ack_no: u32,
    /// TCP payload bytes carried by this segment.
    pub payload_len: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Sent by the client (`key.client`), rather than by the server.
    pub up: bool,
    /// DPI-visible content, as an index into the connection's marker list.
    pub marker: Option<MarkerRef>,
}

impl Segment {
    /// The packet this segment stands for on connection `key`, with its
    /// content looked up in the connection's `markers`.
    pub fn to_packet(&self, key: FlowKey, markers: &[AppMarker]) -> Packet {
        let (src, dst) = if self.up {
            (key.client, key.server)
        } else {
            (key.server, key.client)
        };
        Packet {
            ts: self.ts,
            src,
            dst,
            seq: self.seq,
            ack_no: self.ack_no,
            flags: self.flags,
            payload_len: self.payload_len,
            marker: self.marker.map(|m| markers[m.index()].clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{Endpoint, Ipv4};

    fn pkt(flags: TcpFlags, len: u32) -> Packet {
        Packet {
            ts: SimTime::EPOCH,
            src: Endpoint::new(Ipv4::new(10, 0, 0, 1), 1234),
            dst: Endpoint::new(Ipv4::new(10, 0, 0, 2), 443),
            seq: 0,
            ack_no: 0,
            flags,
            payload_len: len,
            marker: None,
        }
    }

    #[test]
    fn flag_predicates() {
        let f = TcpFlags::SYN.union(TcpFlags::ACK);
        assert!(f.syn() && f.ack());
        assert!(!f.psh() && !f.fin() && !f.rst());
        assert_eq!(format!("{f:?}"), "SYN|ACK");
    }

    #[test]
    fn wire_len_includes_headers() {
        assert_eq!(pkt(TcpFlags::ACK, 0).wire_len(), 54);
        assert_eq!(pkt(TcpFlags::ACK, 1460).wire_len(), 1514);
    }

    #[test]
    fn segment_is_compact_and_expands_by_direction() {
        assert_eq!(std::mem::size_of::<Segment>(), 24);
        let key = FlowKey::new(
            Endpoint::new(Ipv4::new(10, 0, 0, 1), 1234),
            Endpoint::new(Ipv4::new(10, 0, 0, 2), 443),
        );
        let markers = [AppMarker::HttpResponse { status: 200 }];
        let seg = Segment {
            ts: SimTime::EPOCH,
            seq: 7,
            ack_no: 9,
            payload_len: 100,
            flags: TcpFlags::ACK,
            up: false,
            marker: Some(MarkerRef::new(0)),
        };
        let p = seg.to_packet(key, &markers);
        assert_eq!((p.src, p.dst), (key.server, key.client));
        assert_eq!((p.seq, p.ack_no, p.payload_len), (7, 9, 100));
        assert_eq!(p.marker, Some(markers[0].clone()));
        let up = Segment {
            up: true,
            marker: None,
            ..seg
        }
        .to_packet(key, &markers);
        assert_eq!((up.src, up.dst, up.marker), (key.client, key.server, None));
    }

    #[test]
    fn marker_ref_round_trips_and_rejects_overflow() {
        assert_eq!(MarkerRef::new(0).index(), 0);
        assert_eq!(MarkerRef::new(65_534).index(), 65_534);
        assert!(std::panic::catch_unwind(|| MarkerRef::new(65_535)).is_err());
    }

    #[test]
    fn payload_predicate() {
        assert!(!pkt(TcpFlags::SYN, 0).has_payload());
        assert!(pkt(TcpFlags::PSH.union(TcpFlags::ACK), 100).has_payload());
    }
}
