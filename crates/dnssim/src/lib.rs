//! DNS substrate for the simulated Dropbox deployment.
//!
//! Table 1 of the paper maps `dropbox.com` sub-domains to service roles;
//! this crate owns that mapping and the address plan behind it:
//!
//! * meta-data servers: `client-lb.dropbox.com` plus `clientX.dropbox.com`
//!   over a fixed pool of 10 addresses in the Dropbox data-center,
//! * notification servers: `notifyX.dropbox.com` over 20 addresses
//!   (plain HTTP, port 80),
//! * storage servers: more than 500 `dl-clientX.dropbox.com` aliases over
//!   more than 600 Amazon addresses; every device periodically receives a
//!   subset of aliases and rotates through it (Sec. 2.4),
//! * web (`www`), API (`api`, `api-content`), direct links (`dl`), web
//!   storage (`dl-web`), event logs (`d`) and back-traces (`dl-debugX`).
//!
//! The probe labels server addresses with the FQDN the client actually
//! resolved ("DNS to the Rescue"); [`DnsDirectory::reverse`] provides that
//! view. The PlanetLab experiment of Sec. 4.2.1 is reproduced by
//! [`planetlab::resolve_worldwide`], and [`resolver`] implements the
//! response-rotation + TTL-caching half of the load-balancing story.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod planetlab;
pub mod resolver;

use nettrace::Ipv4;
use simcore::Rng;
use std::collections::BTreeMap;

/// Functional role of a Dropbox server, mirroring Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ServerRole {
    /// `client-lb` / `clientX` — meta-data administration (Dropbox DC).
    MetaData,
    /// `notifyX` — notification long-poll servers (Dropbox DC, HTTP).
    Notification,
    /// `api` — API control (Dropbox DC).
    ApiControl,
    /// `www` — main web servers (Dropbox DC).
    Www,
    /// `d` — event-log collection (Dropbox DC).
    EventLog,
    /// `dl` — public direct-link downloads (Amazon).
    DirectLink,
    /// `dl-clientX` — client storage (Amazon).
    ClientStorage,
    /// `dl-debugX` — exception back-traces (Amazon).
    BackTrace,
    /// `dl-web` — web-interface storage (Amazon).
    WebStorage,
    /// `api-content` — API storage (Amazon).
    ApiStorage,
}

impl ServerRole {
    /// Whether the role is hosted on Amazon (storage side) or in the
    /// Dropbox-controlled data-center (control side).
    pub fn is_amazon(self) -> bool {
        matches!(
            self,
            ServerRole::DirectLink
                | ServerRole::ClientStorage
                | ServerRole::BackTrace
                | ServerRole::WebStorage
                | ServerRole::ApiStorage
        )
    }

    /// TCP port used by the service (everything is HTTPS except the
    /// notification protocol).
    pub fn port(self) -> u16 {
        match self {
            ServerRole::Notification => 80,
            _ => 443,
        }
    }
}

/// Number of meta-data server addresses (paper: "a fixed pool of 10").
pub const META_POOL: usize = 10;
/// Number of notification server addresses (paper: "a pool of 20").
pub const NOTIFY_POOL: usize = 20;
/// Number of `dl-clientX` storage aliases (paper: "more than 500").
pub const STORAGE_NAMES: usize = 620;
/// Number of Amazon storage addresses (paper: "more than 600").
pub const STORAGE_POOL: usize = 680;
/// Aliases handed to each device for rotation (Sec. 2.4).
pub const DEVICE_ALIAS_LIST: usize = 16;

/// The authoritative name ↔ address directory of the simulated deployment.
#[derive(Clone, Debug)]
pub struct DnsDirectory {
    forward: BTreeMap<String, Ipv4>,
    reverse: BTreeMap<Ipv4, String>,
}

/// Dropbox-controlled address block (control plane).
fn dropbox_ip(idx: u32) -> Ipv4 {
    // 199.47.216.0/22-like block.
    Ipv4::new(199, 47, 216 + (idx / 256) as u8, (idx % 256) as u8)
}

/// Amazon EC2/S3-like address block (storage plane).
fn amazon_ip(idx: u32) -> Ipv4 {
    Ipv4::new(107, 22, (idx / 256) as u8, (idx % 256) as u8)
}

impl DnsDirectory {
    /// Build the full deployment directory.
    pub fn new() -> Self {
        let mut forward = BTreeMap::new();
        let mut add = |name: String, ip: Ipv4| {
            forward.insert(name, ip);
        };

        // Control plane (Dropbox DC).
        add("client-lb.dropbox.com".into(), dropbox_ip(0));
        for i in 0..META_POOL {
            add(format!("client{}.dropbox.com", i + 1), dropbox_ip(i as u32));
        }
        for i in 0..NOTIFY_POOL {
            add(
                format!("notify{}.dropbox.com", i + 1),
                dropbox_ip(32 + i as u32),
            );
        }
        add("api.dropbox.com".into(), dropbox_ip(64));
        add("www.dropbox.com".into(), dropbox_ip(65));
        add("d.dropbox.com".into(), dropbox_ip(66));

        // Storage plane (Amazon). `dl-clientX` aliases spread over the
        // storage pool; several names can share an address, and the pool is
        // larger than the alias count because `dl`, `dl-web`, `api-content`
        // and the web front also live there.
        for i in 0..STORAGE_NAMES {
            // Deterministic spread reaching the whole pool.
            let ip_idx = ((i as u32) * 7919) % (STORAGE_POOL as u32 - 40);
            add(format!("dl-client{}.dropbox.com", i + 1), amazon_ip(ip_idx));
        }
        add("dl.dropbox.com".into(), amazon_ip(STORAGE_POOL as u32 - 1));
        add(
            "dl-web.dropbox.com".into(),
            amazon_ip(STORAGE_POOL as u32 - 2),
        );
        add(
            "api-content.dropbox.com".into(),
            amazon_ip(STORAGE_POOL as u32 - 3),
        );
        for i in 0..4 {
            add(
                format!("dl-debug{}.dropbox.com", i + 1),
                amazon_ip(STORAGE_POOL as u32 - 10 - i),
            );
        }

        let reverse = forward.iter().map(|(n, &ip)| (ip, n.clone())).collect();
        DnsDirectory { forward, reverse }
    }

    /// Register an additional name → address mapping (reverse included).
    /// Used to overlay non-Dropbox provider deployments on the directory;
    /// the Dropbox zone of [`DnsDirectory::new`] is never touched.
    pub fn register(&mut self, name: String, ip: Ipv4) {
        self.reverse.insert(ip, name.clone());
        self.forward.insert(name, ip);
    }

    /// Resolve a name to its address (what the client's resolver returns;
    /// identical worldwide, see [`planetlab`]).
    pub fn resolve(&self, name: &str) -> Option<Ipv4> {
        self.forward.get(name).copied()
    }

    /// Reverse lookup used by the probe's DNS-labelling feature.
    pub fn reverse(&self, ip: Ipv4) -> Option<&str> {
        self.reverse.get(&ip).map(String::as_str)
    }

    /// Classify a fully-qualified domain name into its server role
    /// (Table 1). Names outside `dropbox.com` return `None`.
    pub fn role_of_name(name: &str) -> Option<ServerRole> {
        let host = name.strip_suffix(".dropbox.com")?;
        let role = if host == "client-lb"
            || (host.starts_with("client") && !host.starts_with("client-"))
        {
            ServerRole::MetaData
        } else if host.starts_with("notify") {
            ServerRole::Notification
        } else if host == "api" {
            ServerRole::ApiControl
        } else if host == "www" {
            ServerRole::Www
        } else if host == "d" {
            ServerRole::EventLog
        } else if host == "dl" {
            ServerRole::DirectLink
        } else if host.starts_with("dl-client") {
            ServerRole::ClientStorage
        } else if host.starts_with("dl-debug") {
            ServerRole::BackTrace
        } else if host == "dl-web" {
            ServerRole::WebStorage
        } else if host == "api-content" {
            ServerRole::ApiStorage
        } else {
            return None;
        };
        Some(role)
    }

    /// The meta-data server name a client uses for a given operation
    /// (commit-style commands go through `client-lb`, list-style through a
    /// `clientX`, Sec. 4.2.1 footnote).
    pub fn meta_name(&self, via_lb: bool, rng: &mut Rng) -> String {
        if via_lb {
            "client-lb.dropbox.com".to_owned()
        } else {
            format!("client{}.dropbox.com", rng.range_u64(1, META_POOL as u64))
        }
    }

    /// A notification server name for a new session.
    pub fn notify_name(&self, rng: &mut Rng) -> String {
        format!("notify{}.dropbox.com", rng.range_u64(1, NOTIFY_POOL as u64))
    }

    /// The system-log collector a client reports to: `d.dropbox.com` for
    /// event logs, a `dl-debugX` front (drawn from `rng`) for exception
    /// back-traces (Sec. 2.3).
    pub fn log_name(&self, backtrace: bool, rng: &mut Rng) -> String {
        if backtrace {
            format!("dl-debug{}.dropbox.com", rng.range_u64(1, 4))
        } else {
            "d.dropbox.com".to_owned()
        }
    }

    /// The alias list distributed to a device on a given day (Sec. 2.4:
    /// "a subset of those aliases are sent to clients regularly; clients
    /// rotate in the received lists").
    pub fn storage_aliases_for(&self, device_id: u64, day: u32) -> Vec<String> {
        let mut rng = Rng::new(device_id ^ ((day as u64) << 40) ^ 0x5707_a6e5);
        let idx = rng.sample_indices(STORAGE_NAMES, DEVICE_ALIAS_LIST);
        idx.into_iter()
            .map(|i| format!("dl-client{}.dropbox.com", i + 1))
            .collect()
    }

    /// Total number of distinct storage-plane addresses.
    pub fn storage_pool_size(&self) -> usize {
        let mut ips: Vec<Ipv4> = self
            .forward
            .iter()
            .filter(|(n, _)| Self::role_of_name(n).is_some_and(|r| r.is_amazon()))
            .map(|(_, &ip)| ip)
            .collect();
        ips.sort_unstable();
        ips.dedup();
        ips.len()
    }
}

impl Default for DnsDirectory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_roles_classified() {
        let cases = [
            ("client-lb.dropbox.com", ServerRole::MetaData),
            ("client7.dropbox.com", ServerRole::MetaData),
            ("notify3.dropbox.com", ServerRole::Notification),
            ("api.dropbox.com", ServerRole::ApiControl),
            ("www.dropbox.com", ServerRole::Www),
            ("d.dropbox.com", ServerRole::EventLog),
            ("dl.dropbox.com", ServerRole::DirectLink),
            ("dl-client42.dropbox.com", ServerRole::ClientStorage),
            ("dl-debug1.dropbox.com", ServerRole::BackTrace),
            ("dl-web.dropbox.com", ServerRole::WebStorage),
            ("api-content.dropbox.com", ServerRole::ApiStorage),
        ];
        for (name, role) in cases {
            assert_eq!(DnsDirectory::role_of_name(name), Some(role), "{name}");
        }
        assert_eq!(DnsDirectory::role_of_name("www.youtube.com"), None);
        assert_eq!(DnsDirectory::role_of_name("evil.example.org"), None);
    }

    #[test]
    fn amazon_vs_dropbox_split_matches_table1() {
        for (name, amazon) in [
            ("client-lb.dropbox.com", false),
            ("notify1.dropbox.com", false),
            ("dl-client1.dropbox.com", true),
            ("dl-web.dropbox.com", true),
            ("api-content.dropbox.com", true),
        ] {
            let role = DnsDirectory::role_of_name(name).unwrap();
            assert_eq!(role.is_amazon(), amazon, "{name}");
        }
    }

    #[test]
    fn notification_is_plain_http() {
        assert_eq!(ServerRole::Notification.port(), 80);
        assert_eq!(ServerRole::MetaData.port(), 443);
        assert_eq!(ServerRole::ClientStorage.port(), 443);
    }

    #[test]
    fn every_name_resolves_and_reverses() {
        let dir = DnsDirectory::new();
        for name in [
            "client-lb.dropbox.com",
            "client1.dropbox.com",
            "notify20.dropbox.com",
            "dl-client520.dropbox.com",
            "dl.dropbox.com",
        ] {
            let ip = dir.resolve(name).unwrap_or_else(|| panic!("{name}"));
            // Reverse gives *a* name at that address (aliases may share).
            assert!(dir.reverse(ip).is_some());
        }
        assert!(dir.resolve("dl-client621.dropbox.com").is_none());
    }

    #[test]
    fn storage_pool_exceeds_600_addresses() {
        let dir = DnsDirectory::new();
        let n = dir.storage_pool_size();
        assert!(n > 600, "storage pool too small: {n}");
    }

    #[test]
    fn alias_lists_rotate_daily() {
        let dir = DnsDirectory::new();
        let a = dir.storage_aliases_for(42, 0);
        let b = dir.storage_aliases_for(42, 1);
        let again = dir.storage_aliases_for(42, 0);
        assert_eq!(a.len(), DEVICE_ALIAS_LIST);
        assert_eq!(a, again, "alias list must be deterministic");
        assert_ne!(a, b, "alias list must rotate across days");
        for name in &a {
            assert!(dir.resolve(name).is_some());
        }
    }

    #[test]
    fn meta_name_pool() {
        let dir = DnsDirectory::new();
        let mut rng = Rng::new(3);
        assert_eq!(dir.meta_name(true, &mut rng), "client-lb.dropbox.com");
        for _ in 0..20 {
            let n = dir.meta_name(false, &mut rng);
            assert!(DnsDirectory::role_of_name(&n) == Some(ServerRole::MetaData));
            assert!(dir.resolve(&n).is_some());
        }
    }
}
