//! The notification protocol (Sec. 2.3.1).
//!
//! Each client keeps one TCP connection to a `notifyX.dropbox.com` server
//! open for its whole session. The protocol is plain HTTP long-polling:
//! the client sends a request carrying its `host_int` and its current
//! namespace list **in clear text**; the server answers ~60 s later when
//! nothing changed, or immediately when a change was committed elsewhere.
//! The client then issues the next request at once.
//!
//! Because the payload is cleartext, the probe can read device identifiers
//! and namespace lists — the paper's source for device counts (Table 3),
//! devices per household (Fig. 12), namespaces per device (Fig. 13) and
//! session durations (Fig. 16).

use crate::client::SyncEngine;
use crate::metadata::NamespaceId;
use crate::{FlowSpec, FlowTruth};
use dnssim::ServerRole;
use nettrace::AppMarker;
use simcore::{Rng, SimDuration};
use tcpmodel::{CloseMode, Dialogue, Direction, Message, Write};

/// Long-poll response delay when no change is pending.
pub const POLL_PERIOD: SimDuration = SimDuration::from_secs(60);

/// How a notification session ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionEnd {
    /// Normal client shutdown (FIN).
    ClientShutdown,
    /// Killed by a home gateway / NAT idle timeout (abrupt RST) — the
    /// source of the <1 min notification flows in the home datasets
    /// (Sec. 5.5). The client immediately re-establishes a new connection.
    NatReset,
    /// Cut by a network fault mid-poll: the connection dies with an RST
    /// *before* the outstanding long-poll completes, and the client
    /// reconnects after a backoff. Unlike [`SessionEnd::NatReset`], the
    /// reset here lands right after a request write, so reconnect churn
    /// produces the retry-storm pattern of a flaky access link.
    Aborted,
}

/// The long-poll request every notification connection writes: the
/// device's `host_int` and namespace list in clear text, addressed to the
/// notification front the spec resolved for the connection.
struct NotifyRequest {
    server: String,
    write: Write,
}

impl NotifyRequest {
    /// The request written after `delay`.
    fn message(&self, delay: SimDuration) -> Message {
        Message {
            dir: Direction::Up,
            delay,
            writes: vec![self.write.clone()],
        }
    }

    /// The connection carrying `messages`, closed by `close`.
    fn flow(self, messages: Vec<Message>, close: CloseMode) -> FlowSpec {
        FlowSpec {
            server_name: self.server,
            port: ServerRole::Notification.port(),
            dialogue: Dialogue::new(messages).with_close(close),
            truth: FlowTruth::Notification,
            faults: None,
        }
    }
}

impl SyncEngine<'_> {
    /// Resolve the notification front (Dropbox draws its `notifyX` pool
    /// pick from `rng` here) and build the request advertising
    /// `namespaces`. The request grows with the namespace list.
    fn notify_request(&self, namespaces: &[NamespaceId], rng: &mut Rng) -> NotifyRequest {
        let server = self.config().spec.notify_name(self.dns, rng);
        let ns_list: Vec<u64> = namespaces.iter().map(|n| n.0).collect();
        let size = 310 + 18 * ns_list.len() as u32;
        let marker = AppMarker::NotifyRequest {
            host: server.clone(),
            host_int: self.device_id,
            namespaces: ns_list,
        };
        NotifyRequest {
            server,
            write: Write::marked(size, marker),
        }
    }

    /// The notification connection for a session (or session fragment)
    /// of duration `span`. `changes` is the number of poll cycles that
    /// were answered early because a change was signalled.
    pub fn notification_flow(
        &self,
        namespaces: &[NamespaceId],
        span: SimDuration,
        changes: u32,
        end: SessionEnd,
        rng: &mut Rng,
    ) -> FlowSpec {
        let request = self.notify_request(namespaces, rng);
        let mut messages = Vec::new();
        let total_cycles = (span.secs() / POLL_PERIOD.secs()).max(1);
        // Keep long sessions affordable: the wire pattern is strictly
        // periodic, so sessions longer than 50 cycles are represented by
        // proportionally spaced cycles with identical per-cycle sizes (the
        // monitor sees the same byte totals, durations, and endpoints).
        let modeled_cycles = total_cycles.min(50);
        let cycle_gap = SimDuration::from_micros(span.micros() / modeled_cycles);
        for i in 0..modeled_cycles {
            let first = if i == 0 { 50 } else { 30 };
            messages.push(request.message(SimDuration::from_millis(rng.range_u64(5, first))));
            let delay = if (i as u32) < changes {
                // A change elsewhere triggers an immediate response
                // somewhere inside the window.
                SimDuration::from_millis(rng.range_u64(500, 30_000))
            } else {
                cycle_gap - SimDuration::from_millis(rng.range_u64(40, 90)).min(cycle_gap)
            };
            messages.push(Message {
                dir: Direction::Down,
                delay,
                writes: vec![Write::plain(160)],
            });
        }
        if end == SessionEnd::Aborted {
            // The fragment dies with a long-poll outstanding: one final
            // request that never gets its response.
            messages.push(request.message(SimDuration::from_millis(rng.range_u64(5, 30))));
        }
        let close = match end {
            SessionEnd::ClientShutdown => CloseMode::ClientFin {
                delay: SimDuration::from_millis(150),
            },
            SessionEnd::NatReset => CloseMode::ClientRst {
                delay: SimDuration::from_millis(20),
            },
            SessionEnd::Aborted => CloseMode::ClientRst {
                delay: SimDuration::from_millis(5),
            },
        };
        request.flow(messages, close)
    }

    /// A failed notification reconnect probe during a server-side outage:
    /// the client opens a connection, writes one long-poll request, and
    /// the dead plane never answers — the probe dies by client RST after a
    /// short patience window. Fleet-wide, the probes (and the successful
    /// reconnects that follow the outage end) are the reconnect-storm
    /// signature the chaos experiments measure.
    pub fn reconnect_probe_flow(&self, namespaces: &[NamespaceId], rng: &mut Rng) -> FlowSpec {
        let request = self.notify_request(namespaces, rng);
        let messages = vec![request.message(SimDuration::from_millis(rng.range_u64(5, 50)))];
        let close = CloseMode::ClientRst {
            delay: SimDuration::from_millis(rng.range_u64(800, 3_000)),
        };
        request.flow(messages, close)
    }

    /// One periodic change-poll connection of a *polling* provider (see
    /// [`crate::spec::NotifyStyle::Poll`]): unlike the Dropbox long-poll,
    /// each check is its own short request/response connection, so a
    /// polling client produces many small notification flows instead of
    /// one session-long connection.
    pub fn poll_check_flow(&self, namespaces: &[NamespaceId], rng: &mut Rng) -> FlowSpec {
        let request = self.notify_request(namespaces, rng);
        let messages = vec![
            request.message(SimDuration::from_millis(rng.range_u64(5, 50))),
            Message {
                dir: Direction::Down,
                delay: SimDuration::from_millis(rng.range_u64(60, 400)),
                writes: vec![Write::plain(160)],
            },
        ];
        let close = CloseMode::ClientFin {
            delay: SimDuration::from_millis(100),
        };
        request.flow(messages, close)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SyncConfig;
    use crate::storage::ChunkStore;
    use dnssim::DnsDirectory;

    /// Run `f` against the notification side of device `host`'s engine
    /// under `spec`.
    fn with_engine<T>(
        spec: &'static crate::spec::ProviderSpec,
        host: u64,
        f: impl FnOnce(&SyncEngine) -> T,
    ) -> T {
        let mut dns = DnsDirectory::new();
        for (name, ip) in spec.dns_entries() {
            dns.register(name, ip);
        }
        let store = ChunkStore::new();
        let config = SyncConfig {
            spec,
            ..SyncConfig::default()
        };
        f(&SyncEngine::new(&dns, &store, config, host))
    }

    /// A Dropbox notification flow of device 1 over namespace 1.
    fn dropbox_flow(span: SimDuration, end: SessionEnd, seed: u64) -> FlowSpec {
        with_engine(&crate::spec::DROPBOX, 1, |e| {
            e.notification_flow(&[NamespaceId(1)], span, 0, end, &mut Rng::new(seed))
        })
    }

    #[test]
    fn poll_check_is_one_short_answered_connection() {
        let mut rng = Rng::new(9);
        let f = with_engine(&crate::spec::SKYDRIVE_LIKE, 5, |e| {
            e.poll_check_flow(&[NamespaceId(2)], &mut rng)
        });
        assert_eq!(f.server_name, "notify.skydrive-like.example");
        assert_eq!(f.port, 80);
        assert_eq!(f.dialogue.messages.len(), 2, "request + response");
        assert!(matches!(f.dialogue.close, CloseMode::ClientFin { .. }));
        assert_eq!(f.truth, FlowTruth::Notification);
    }

    #[test]
    fn reconnect_probe_is_a_short_unanswered_rst_flow() {
        let mut rng = Rng::new(8);
        let f = with_engine(&crate::spec::DROPBOX, 3, |e| {
            e.reconnect_probe_flow(&[NamespaceId(9)], &mut rng)
        });
        assert!(f.server_name.starts_with("notify"));
        assert_eq!(f.port, 80);
        assert_eq!(f.dialogue.messages.len(), 1, "one request, no response");
        assert_eq!(f.dialogue.messages[0].dir, Direction::Up);
        assert!(matches!(f.dialogue.close, CloseMode::ClientRst { .. }));
    }

    #[test]
    fn flow_targets_notify_server_on_port_80() {
        let f = dropbox_flow(SimDuration::from_mins(10), SessionEnd::ClientShutdown, 1);
        assert!(f.server_name.starts_with("notify"));
        assert_eq!(f.port, 80);
        assert_eq!(f.truth, FlowTruth::Notification);
    }

    #[test]
    fn requests_carry_host_int_and_namespaces() {
        let mut rng = Rng::new(2);
        let nss = [NamespaceId(11), NamespaceId(22), NamespaceId(33)];
        let f = with_engine(&crate::spec::DROPBOX, 99, |e| {
            e.notification_flow(
                &nss,
                SimDuration::from_mins(5),
                0,
                SessionEnd::ClientShutdown,
                &mut rng,
            )
        });
        let first_up = f
            .dialogue
            .messages
            .iter()
            .find(|m| m.dir == Direction::Up)
            .unwrap();
        match &first_up.writes[0].marker {
            Some(AppMarker::NotifyRequest {
                host,
                host_int,
                namespaces,
            }) => {
                assert!(host.starts_with("notify"));
                assert_eq!(*host_int, 99);
                assert_eq!(namespaces, &vec![11, 22, 33]);
            }
            other => panic!("unexpected marker: {other:?}"),
        }
    }

    #[test]
    fn session_span_sets_cycle_count() {
        let f = dropbox_flow(SimDuration::from_mins(10), SessionEnd::ClientShutdown, 3);
        let ups = f
            .dialogue
            .messages
            .iter()
            .filter(|m| m.dir == Direction::Up)
            .count();
        assert_eq!(ups, 10, "one poll per minute");
    }

    #[test]
    fn very_long_sessions_are_subsampled_not_truncated() {
        let f = dropbox_flow(SimDuration::from_hours(8), SessionEnd::ClientShutdown, 4);
        let ups = f
            .dialogue
            .messages
            .iter()
            .filter(|m| m.dir == Direction::Up)
            .count();
        assert_eq!(ups, 50, "capped cycle count");
        // Total modelled span still ≈ 8 h: gaps between cycles stretch.
        let span: SimDuration = f
            .dialogue
            .messages
            .iter()
            .map(|m| m.delay)
            .fold(SimDuration::ZERO, |acc, d| acc + d);
        assert!(span.secs() > 7 * 3600, "span {span}");
    }

    #[test]
    fn aborted_fragment_ends_with_unanswered_poll_and_rst() {
        let f = dropbox_flow(SimDuration::from_mins(3), SessionEnd::Aborted, 6);
        assert!(matches!(f.dialogue.close, CloseMode::ClientRst { .. }));
        // One more request than responses: the last poll goes unanswered.
        let ups = f
            .dialogue
            .messages
            .iter()
            .filter(|m| m.dir == Direction::Up)
            .count();
        let downs = f
            .dialogue
            .messages
            .iter()
            .filter(|m| m.dir == Direction::Down)
            .count();
        assert_eq!(ups, downs + 1);
        assert_eq!(f.dialogue.messages.last().unwrap().dir, Direction::Up);
    }

    #[test]
    fn nat_reset_closes_with_rst() {
        let f = dropbox_flow(SimDuration::from_secs(45), SessionEnd::NatReset, 5);
        assert!(matches!(f.dialogue.close, CloseMode::ClientRst { .. }));
    }
}
