//! The LAN Sync Protocol (Secs. 2.5 and 5.2).
//!
//! Devices on the same LAN can exchange chunks directly instead of
//! retrieving duplicated content from the cloud. The real protocol has two
//! parts, both reproduced here:
//!
//! * **discovery** — periodic UDP broadcasts announcing the device's
//!   `host_int` and namespace list on the local subnet; peers cache the
//!   announcements and expire them,
//! * **serving** — a device holding a chunk serves it over a local TCP
//!   connection to a peer that shares a namespace with it.
//!
//! None of this traffic crosses the vantage-point probe (it stays inside
//! the household), which is precisely why the paper can only bound the
//! savings ("no more than 25% of the households are profiting"). The
//! simulation accounts savings explicitly through [`LanSync::try_serve`].

use crate::content::ChunkId;
use crate::metadata::{HostInt, NamespaceId};
use simcore::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Discovery announcements are broadcast at this period (the real client
/// uses 30 s).
pub const ANNOUNCE_PERIOD: SimDuration = SimDuration::from_secs(30);
/// A peer is considered gone when its announcement is older than this.
pub const PEER_TTL: SimDuration = SimDuration::from_secs(90);

/// One discovery announcement as seen on the local subnet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Announcement {
    /// Announcing device.
    pub host: HostInt,
    /// Namespaces the device is linked to.
    pub namespaces: Vec<NamespaceId>,
    /// Broadcast time.
    pub at: SimTime,
}

/// State of one device's LAN-sync engine within a household subnet.
#[derive(Clone, Debug, Default)]
struct PeerState {
    namespaces: BTreeSet<NamespaceId>,
    last_seen: Option<SimTime>,
    /// Chunks this peer is known to hold (it announced/synced them).
    chunks: BTreeSet<ChunkId>,
}

/// The LAN-sync coordinator of one household subnet.
///
/// Tracks discovery state and chunk availability for every local device
/// and decides whether a retrieval can be served locally.
#[derive(Clone, Debug, Default)]
pub struct LanSync {
    peers: BTreeMap<HostInt, PeerState>,
    /// Chunks served locally (the saving the paper cannot observe).
    served_chunks: u64,
    /// Bytes served locally.
    served_bytes: u64,
}

impl LanSync {
    /// New empty subnet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Process a discovery broadcast.
    pub fn announce(&mut self, a: Announcement) {
        let p = self.peers.entry(a.host).or_default();
        p.namespaces = a.namespaces.into_iter().collect();
        p.last_seen = Some(a.at);
    }

    /// A device finished obtaining a chunk (from the cloud or locally):
    /// record availability for future peers.
    pub fn chunk_available(&mut self, host: HostInt, chunk: ChunkId) {
        self.peers.entry(host).or_default().chunks.insert(chunk);
    }

    /// A device went off-line: its announcements stop; state is kept so a
    /// later announcement revives the chunk inventory (the client persists
    /// its cache), but it cannot serve while off-line.
    pub fn offline(&mut self, host: HostInt) {
        if let Some(p) = self.peers.get_mut(&host) {
            p.last_seen = None;
        }
    }

    /// Whether `host` is currently discoverable at time `now`.
    fn is_live(&self, host: HostInt, now: SimTime) -> bool {
        self.peers
            .get(&host)
            .and_then(|p| p.last_seen)
            .map(|t| now.saturating_since(t) <= PEER_TTL)
            .unwrap_or(false)
    }

    /// Try to serve `chunks` of namespace `ns` to `requester` from a live
    /// peer sharing that namespace. Returns the serving peer when the
    /// whole batch could be served locally (the client falls back to the
    /// cloud otherwise, as partial local transfers still require a storage
    /// connection for the rest — we model the common all-or-nothing case).
    pub fn try_serve(
        &mut self,
        requester: HostInt,
        ns: NamespaceId,
        chunks: &[(ChunkId, u64)],
        now: SimTime,
    ) -> Option<HostInt> {
        let server = self.peers.iter().find_map(|(&host, p)| {
            if host == requester
                || !p.namespaces.contains(&ns)
                || p.last_seen
                    .map(|t| now.saturating_since(t) > PEER_TTL)
                    .unwrap_or(true)
            {
                return None;
            }
            chunks
                .iter()
                .all(|(id, _)| p.chunks.contains(id))
                .then_some(host)
        })?;
        // Transfer happens on the LAN; the requester now also holds the
        // chunks and can serve future peers.
        for &(id, bytes) in chunks {
            self.served_chunks += 1;
            self.served_bytes += bytes;
            self.peers.entry(requester).or_default().chunks.insert(id);
        }
        let _ = self.is_live(server, now); // liveness re-checked above
        Some(server)
    }

    /// Chunks served locally so far.
    pub fn served_chunks(&self) -> u64 {
        self.served_chunks
    }

    /// Bytes served locally so far.
    pub fn served_bytes(&self) -> u64 {
        self.served_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ann(host: u64, nss: &[u64], at_s: u64) -> Announcement {
        Announcement {
            host: HostInt(host),
            namespaces: nss.iter().map(|&n| NamespaceId(n)).collect(),
            at: SimTime::from_secs(at_s),
        }
    }

    #[test]
    fn serves_from_live_peer_sharing_namespace() {
        let mut lan = LanSync::new();
        lan.announce(ann(1, &[10, 11], 100));
        lan.chunk_available(HostInt(1), ChunkId(7));
        lan.chunk_available(HostInt(1), ChunkId(8));
        let served = lan.try_serve(
            HostInt(2),
            NamespaceId(10),
            &[(ChunkId(7), 1_000), (ChunkId(8), 2_000)],
            SimTime::from_secs(120),
        );
        assert_eq!(served, Some(HostInt(1)));
        assert_eq!(lan.served_chunks(), 2);
        assert_eq!(lan.served_bytes(), 3_000);
    }

    #[test]
    fn requester_becomes_a_server_afterwards() {
        let mut lan = LanSync::new();
        lan.announce(ann(1, &[10], 100));
        lan.chunk_available(HostInt(1), ChunkId(7));
        lan.try_serve(
            HostInt(2),
            NamespaceId(10),
            &[(ChunkId(7), 500)],
            SimTime::from_secs(110),
        )
        .expect("served");
        // Device 1 disappears; device 3 can now fetch from device 2 once
        // device 2 announces.
        lan.offline(HostInt(1));
        lan.announce(ann(2, &[10], 200));
        let served = lan.try_serve(
            HostInt(3),
            NamespaceId(10),
            &[(ChunkId(7), 500)],
            SimTime::from_secs(210),
        );
        assert_eq!(served, Some(HostInt(2)));
    }

    #[test]
    fn no_service_across_namespaces() {
        let mut lan = LanSync::new();
        lan.announce(ann(1, &[10], 100));
        lan.chunk_available(HostInt(1), ChunkId(7));
        assert_eq!(
            lan.try_serve(
                HostInt(2),
                NamespaceId(99),
                &[(ChunkId(7), 1)],
                SimTime::from_secs(110)
            ),
            None,
            "namespace membership is required"
        );
    }

    #[test]
    fn stale_peers_do_not_serve() {
        let mut lan = LanSync::new();
        lan.announce(ann(1, &[10], 100));
        lan.chunk_available(HostInt(1), ChunkId(7));
        // 5 minutes later, no new announcements: peer expired.
        assert_eq!(
            lan.try_serve(
                HostInt(2),
                NamespaceId(10),
                &[(ChunkId(7), 1)],
                SimTime::from_secs(400)
            ),
            None
        );
        // A fresh announcement revives it (chunk cache persisted).
        lan.announce(ann(1, &[10], 500));
        assert!(lan
            .try_serve(
                HostInt(2),
                NamespaceId(10),
                &[(ChunkId(7), 1)],
                SimTime::from_secs(510)
            )
            .is_some());
    }

    #[test]
    fn offline_peer_does_not_serve() {
        let mut lan = LanSync::new();
        lan.announce(ann(1, &[10], 100));
        lan.chunk_available(HostInt(1), ChunkId(7));
        lan.offline(HostInt(1));
        assert_eq!(
            lan.try_serve(
                HostInt(2),
                NamespaceId(10),
                &[(ChunkId(7), 1)],
                SimTime::from_secs(110)
            ),
            None
        );
    }

    #[test]
    fn partial_batches_fall_back_to_cloud() {
        let mut lan = LanSync::new();
        lan.announce(ann(1, &[10], 100));
        lan.chunk_available(HostInt(1), ChunkId(7));
        // Peer holds only one of two chunks: whole batch goes to the cloud.
        assert_eq!(
            lan.try_serve(
                HostInt(2),
                NamespaceId(10),
                &[(ChunkId(7), 1), (ChunkId(8), 1)],
                SimTime::from_secs(110)
            ),
            None
        );
        assert_eq!(lan.served_chunks(), 0);
    }

    #[test]
    fn devices_do_not_serve_themselves() {
        let mut lan = LanSync::new();
        lan.announce(ann(1, &[10], 100));
        lan.chunk_available(HostInt(1), ChunkId(7));
        assert_eq!(
            lan.try_serve(
                HostInt(1),
                NamespaceId(10),
                &[(ChunkId(7), 1)],
                SimTime::from_secs(110)
            ),
            None
        );
    }
}
