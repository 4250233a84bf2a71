//! Deployment-level integration: two devices of one account plus a
//! stranger, exercising metadata journals, dedup, the reference server
//! endpoints, LAN sync and the notification payloads together.

use dnssim::DnsDirectory;
use dropbox::client::{ChunkWork, SyncConfig, SyncEngine};
use dropbox::content::{Content, ContentKind};
use dropbox::lan_sync::{Announcement, LanSync};
use dropbox::metadata::{FileId, HostInt, MetadataServer, UserId};
use dropbox::protocol::ProtocolTrace;
use dropbox::server::replay_accepts;
use dropbox::storage::ChunkStore;
use dropbox::FlowTruth;
use simcore::{Rng, SimTime};

/// One full sync cycle: laptop commits, journal advances, desktop reads
/// the increment, the stranger's duplicate upload deduplicates, and the
/// protocol trace replays against the reference endpoints.
#[test]
fn end_to_end_sync_cycle() {
    let dns = DnsDirectory::new();
    let store = ChunkStore::new();
    let mut md = MetadataServer::new();
    let mut rng = Rng::new(42);

    let user = UserId(7);
    let laptop = HostInt(70);
    let desktop = HostInt(71);
    let root = md.register_host(user, laptop);
    assert_eq!(md.register_host(user, desktop), root, "shared root");

    // Laptop commits a 3-chunk file.
    let content = Content::new(0xC0FFEE, 9 * 1024 * 1024, ContentKind::Document);
    let ids = content.chunk_ids();
    assert_eq!(ids.len(), 3);
    let work: Vec<ChunkWork> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| ChunkWork {
            id,
            wire_bytes: content.wire_chunk_size(i as u32),
            raw_bytes: content.chunk_size(i as u32),
        })
        .collect();

    let mut engine = SyncEngine::new(&dns, &store, SyncConfig::default(), laptop.0);
    let mut trace = ProtocolTrace::new();
    let flows = engine.upload_transaction(&work, 0, &mut rng, Some(&mut trace), SimTime::EPOCH);
    assert!(flows
        .iter()
        .any(|f| matches!(f.truth, FlowTruth::Store { chunks: 3, .. })));

    // The trace is accepted verbatim by the reference server endpoints.
    let sizes: Vec<_> = work.iter().map(|w| (w.id, w.raw_bytes)).collect();
    replay_accepts(&trace, laptop, user, &sizes).expect("protocol conformance");

    // Journal: the desktop's incremental list sees exactly one update.
    let seq0 = md.namespace(root).unwrap().seq();
    md.namespace_mut(root)
        .unwrap()
        .commit(FileId(1), content, ids.clone());
    let updates = md.namespace(root).unwrap().updates_since(seq0);
    assert_eq!(updates.len(), 1);
    assert_eq!(updates[0].chunk_ids, ids);

    // All chunks are now held by the store.
    for w in &work {
        assert!(store.has(w.id));
        assert_eq!(store.size_of(w.id), Some(w.raw_bytes));
    }

    // LAN sync: the desktop fetches from the laptop locally.
    let mut lan = LanSync::new();
    lan.announce(Announcement {
        host: laptop,
        namespaces: vec![root],
        at: SimTime::from_secs(10),
    });
    for w in &work {
        lan.chunk_available(laptop, w.id);
    }
    let pairs: Vec<_> = work.iter().map(|w| (w.id, w.raw_bytes)).collect();
    assert_eq!(
        lan.try_serve(desktop, root, &pairs, SimTime::from_secs(20)),
        Some(laptop)
    );
    assert_eq!(lan.served_chunks(), 3);

    // A stranger uploading the same content generates no storage flow.
    let mut stranger = SyncEngine::new(&dns, &store, SyncConfig::default(), 999);
    let flows = stranger.upload_transaction(&work, 0, &mut rng, None, SimTime::EPOCH);
    assert!(flows.iter().all(|f| matches!(f.truth, FlowTruth::Control)));
    assert_eq!(store.stats().dedup_hits, 3);
}

/// An edit produces delta-sized work for only the touched chunks, and the
/// journal exposes the new version to members.
#[test]
fn edit_propagates_deltas_through_journal() {
    let mut md = MetadataServer::new();
    let user = UserId(1);
    let host = HostInt(10);
    let root = md.register_host(user, host);

    let v0 = Content::new(5, 12 * 1024 * 1024, ContentKind::Text);
    let mut ids = v0.chunk_ids();
    md.namespace_mut(root)
        .unwrap()
        .commit(FileId(1), v0, ids.clone());
    let cursor = md.namespace(root).unwrap().seq();

    // Edit ~1 chunk of 3.
    let (v1, changed) = v0.edit(0.3, &mut Rng::new(3));
    assert_eq!(changed.len(), 1);
    let ci = changed[0];
    let new_id = v1.chunk_id(ci);
    assert_ne!(ids[ci as usize], new_id);
    ids[ci as usize] = new_id;
    md.namespace_mut(root)
        .unwrap()
        .commit(FileId(1), v1, ids.clone());

    let updates = md.namespace(root).unwrap().updates_since(cursor);
    assert_eq!(updates.len(), 1);
    assert_eq!(updates[0].content.version, 1);
    // Untouched chunk ids survive -> a member only downloads the delta.
    let unchanged: Vec<_> = (0..3u32)
        .filter(|i| *i != ci)
        .map(|i| v0.chunk_id(i))
        .collect();
    for id in unchanged {
        assert!(updates[0].chunk_ids.contains(&id));
    }
    // And the delta wire size is a fraction of the chunk.
    let delta = v1.delta_wire_size(ci, 0.3);
    assert!(delta < v1.wire_chunk_size(ci), "{delta}");
}

/// Notification payloads expose exactly the device's namespace list.
#[test]
fn notification_advertises_metadata_state() {
    let dns = DnsDirectory::new();
    let mut md = MetadataServer::new();
    let host = HostInt(50);
    let root = md.register_host(UserId(2), host);
    let shared = md.create_namespace(host);

    let store = ChunkStore::new();
    let engine = SyncEngine::new(&dns, &store, SyncConfig::default(), host.0);
    let spec = engine.notification_flow(
        md.namespaces_of(host),
        simcore::SimDuration::from_mins(3),
        0,
        dropbox::notification::SessionEnd::ClientShutdown,
        &mut Rng::new(1),
    );
    let marker = spec
        .dialogue
        .messages
        .iter()
        .find_map(|m| m.writes[0].marker.as_ref())
        .expect("notify marker");
    match marker {
        nettrace::AppMarker::NotifyRequest {
            host_int,
            namespaces,
            ..
        } => {
            assert_eq!(*host_int, host.0);
            assert_eq!(namespaces, &vec![root.0, shared.0]);
        }
        other => panic!("unexpected marker: {other:?}"),
    }
}
