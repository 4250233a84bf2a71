//! Households, devices, and users (Secs. 5.1–5.3).
//!
//! Each monitored address hosts a household (home vantage points) or a
//! workstation/portable population (campuses). Households with the client
//! installed get a behaviour group with the shares reported in Table 5, a
//! device count matching Fig. 12's distribution (group-dependent, heavy
//! users own more devices), and per-device namespace counts matching
//! Fig. 13 (campus users hold more shared folders than home users).
//!
//! Generation is **per household**: [`generate_household`] is a pure
//! function of the population plane (one non-advancing [`Rng`] fork per
//! household index) plus two capture-wide constants ([`host_int_base`] and
//! the [`abnormal_household`] index), so any contiguous household range
//! can be built independently and concatenated — the invariant the
//! sub-capture shards of `workload::shard` rest on.

use crate::vantage::{Access, VantageConfig, VantageKind};
use dropbox::client::ClientVersion;
use nettrace::Ipv4;
use simcore::{dist, Rng};

/// Behaviour group of a household (workload-side ground truth; the
/// analysis layer re-derives groups from traffic alone).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Behavior {
    /// Client abandoned, hardly any data.
    Occasional,
    /// Mostly submits content (backups, hand-offs to third parties).
    UploadOnly,
    /// Mostly fetches content produced elsewhere.
    DownloadOnly,
    /// Active multi-device synchronisation in both directions.
    Heavy,
}

impl Behavior {
    /// Group shares per vantage point (Table 5 for the homes; campuses
    /// lean more active).
    pub fn shares(kind: VantageKind) -> [(Behavior, f64); 4] {
        let (o, u, d, h) = match kind {
            VantageKind::Home1 => (0.31, 0.06, 0.26, 0.37),
            VantageKind::Home2 => (0.32, 0.07, 0.28, 0.33),
            VantageKind::Campus1 => (0.22, 0.06, 0.28, 0.44),
            VantageKind::Campus2 => (0.27, 0.07, 0.28, 0.38),
        };
        [
            (Behavior::Occasional, o),
            (Behavior::UploadOnly, u),
            (Behavior::DownloadOnly, d),
            (Behavior::Heavy, h),
        ]
    }
}

/// One Dropbox-linked device.
#[derive(Clone, Debug)]
pub struct Device {
    /// Unique device identifier (`host_int`).
    pub host_int: u64,
    /// Number of namespaces this device advertises (root + shared folders).
    pub namespace_count: usize,
    /// Office workstation: long working-hour sessions (Campus 1 pattern).
    pub workstation: bool,
    /// Device never shuts down (tail of Fig. 16).
    pub always_on: bool,
    /// Home-gateway NAT kills its notification connections within a minute
    /// (the sub-minute flows of Fig. 16).
    pub nat_afflicted: bool,
    /// The Home 2 misbehaving uploader (Sec. 4.3.1).
    pub abnormal_uploader: bool,
    /// Probability the device comes on-line on any given day.
    pub daily_presence: f64,
    /// Client software generation.
    pub version: ClientVersion,
}

/// One monitored address.
#[derive(Clone, Debug)]
pub struct Household {
    /// Static client address.
    pub ip: Ipv4,
    /// Access technology.
    pub access: Access,
    /// Behaviour group, when the Dropbox client is installed.
    pub behavior: Option<Behavior>,
    /// Linked devices (empty without the client).
    pub devices: Vec<Device>,
    /// Household also uses competing cloud services / the web interface.
    pub uses_web: bool,
}

/// The complete population behind one vantage point.
#[derive(Clone, Debug)]
pub struct Population {
    /// All monitored addresses.
    pub households: Vec<Household>,
}

/// Sample a device count for a household of the given group (Fig. 12:
/// ~60% single-device overall; heavy households average >2 devices).
fn sample_device_count(kind: VantageKind, behavior: Behavior, rng: &mut Rng) -> usize {
    match kind {
        // Wired workstations, occasionally a second linked machine.
        VantageKind::Campus1 => return if rng.chance(0.12) { 2 } else { 1 },
        // An address at the campus border is an AP/NAT aggregating several
        // student devices (6609 devices behind 2528 addresses in Table 3).
        VantageKind::Campus2 => {
            return (1 + dist::poisson(rng, 1.8) as usize).min(8);
        }
        _ => {}
    }
    let weights: &[(usize, f64)] = match behavior {
        Behavior::Occasional => &[(1, 0.85), (2, 0.12), (3, 0.03)],
        Behavior::UploadOnly => &[(1, 0.72), (2, 0.20), (3, 0.08)],
        Behavior::DownloadOnly => &[(1, 0.62), (2, 0.26), (3, 0.09), (4, 0.03)],
        Behavior::Heavy => &[(1, 0.26), (2, 0.32), (3, 0.22), (4, 0.13), (5, 0.07)],
    };
    *dist::Categorical::new(
        &weights
            .iter()
            .map(|&(n, w)| (n, w))
            .collect::<Vec<(usize, f64)>>(),
    )
    .sample(rng)
}

/// Sample the namespace count of a device (Fig. 13: Campus 1 users hold
/// more shared folders — 13% with a single namespace and 50% with ≥5 —
/// than Home 1 users — 28% and 23%).
pub fn sample_namespace_count(kind: VantageKind, rng: &mut Rng) -> usize {
    let (p_single, extra_mean) = match kind {
        VantageKind::Campus1 => (0.13, 3.4),
        VantageKind::Campus2 => (0.18, 2.8),
        VantageKind::Home1 | VantageKind::Home2 => (0.28, 2.2),
    };
    if rng.chance(p_single) {
        1
    } else {
        // Root + at least one shared folder + a Poisson tail, giving the
        // broad upper halves of Fig. 13 (C1: 50% with ≥5, H1: 23%).
        (2 + dist::poisson(rng, extra_mean) as usize).min(14)
    }
}

/// Per-group probability of coming on-line on a given day, calibrated to
/// Table 5's "days on-line" column (16–28 of 42).
fn daily_presence(behavior: Behavior, rng: &mut Rng) -> f64 {
    let base = match behavior {
        Behavior::Occasional => 0.39,
        Behavior::UploadOnly => 0.47,
        Behavior::DownloadOnly => 0.49,
        Behavior::Heavy => 0.66,
    };
    (base + (rng.f64() - 0.5) * 0.2).clamp(0.05, 0.98)
}

/// Upper bound on devices per household across every vantage point (the
/// Campus 2 access-point model caps its Poisson draw at 8). `host_int`
/// allocation strides by this, so household `idx` owns the id block
/// `[base + 8*idx + 1, base + 8*idx + 8]` regardless of how many devices
/// its neighbours materialise.
pub const MAX_HOUSEHOLD_DEVICES: u64 = 8;

/// Capture-wide base for `host_int` allocation: a single draw from a
/// dedicated fork of the population plane. Non-advancing on `pop_root`,
/// so it can be computed by every household-range shard identically.
pub fn host_int_base(pop_root: &Rng) -> u64 {
    pop_root.fork_named("hostbase").next_u64() >> 32 // vantage-unique base
}

/// The cheap household-local prefix of generation: what the
/// [`abnormal_household`] scan needs without materialising devices.
struct Profile {
    access: Access,
    uses_web: bool,
    behavior: Option<Behavior>,
}

fn household_profile(config: &VantageConfig, pop_root: &Rng, idx: usize) -> Profile {
    let mut rng = pop_root.fork(idx as u64).fork_named("profile");
    let access = config.sample_access(&mut rng);
    let has_client = rng.chance(config.dropbox_penetration);
    let uses_web = rng.chance(if has_client { 0.25 } else { 0.04 });
    let behavior = if has_client {
        let shares = Behavior::shares(config.kind);
        let behavior_dist = dist::Categorical::new(
            &shares
                .iter()
                .map(|&(b, w)| (b, w))
                .collect::<Vec<(Behavior, f64)>>(),
        );
        Some(*behavior_dist.sample(&mut rng))
    } else {
        None
    };
    Profile {
        access,
        uses_web,
        behavior,
    }
}

/// Index of the household hosting the Home 2 misbehaving uploader
/// (Sec. 4.3.1): the first client household of the Heavy group. `None`
/// for vantage points without one, or when the scaled population happens
/// to contain no heavy household. The scan re-derives each household's
/// profile fork, so every household-range shard agrees on the answer
/// without seeing the other ranges.
pub fn abnormal_household(config: &VantageConfig, pop_root: &Rng) -> Option<usize> {
    if !config.has_abnormal_uploader {
        return None;
    }
    (0..config.addresses)
        .find(|&idx| household_profile(config, pop_root, idx).behavior == Some(Behavior::Heavy))
}

/// Build household `idx` — a pure function of the population plane
/// (`pop_root` is only forked, never advanced) and the two capture-wide
/// constants `host_base` ([`host_int_base`]) and `abnormal` (whether this
/// index is the [`abnormal_household`]).
pub fn generate_household(
    config: &VantageConfig,
    version: ClientVersion,
    pop_root: &Rng,
    idx: usize,
    host_base: u64,
    abnormal: bool,
) -> Household {
    let profile = household_profile(config, pop_root, idx);
    let ip = address_of(config.kind, idx);
    let Some(behavior) = profile.behavior else {
        return Household {
            ip,
            access: profile.access,
            behavior: None,
            devices: Vec::new(),
            uses_web: profile.uses_web,
        };
    };
    let mut rng = pop_root.fork(idx as u64).fork_named("devices");
    let n_devices = sample_device_count(config.kind, behavior, &mut rng);
    debug_assert!(n_devices as u64 <= MAX_HOUSEHOLD_DEVICES);
    let presence = daily_presence(behavior, &mut rng);
    let mut devices = Vec::with_capacity(n_devices);
    for k in 0..n_devices {
        // The first device of the designated heavy household becomes the
        // Home 2 misbehaving uploader; it ran for days on end.
        let is_abnormal = abnormal && k == 0;
        devices.push(Device {
            host_int: host_base + idx as u64 * MAX_HOUSEHOLD_DEVICES + k as u64 + 1,
            namespace_count: sample_namespace_count(config.kind, &mut rng),
            workstation: config.kind == VantageKind::Campus1 && rng.chance(0.85),
            always_on: is_abnormal
                || rng.chance(match config.kind {
                    VantageKind::Campus1 => 0.15,
                    _ => 0.06,
                }),
            // Deterministic per-household assignment so that even small
            // scaled populations contain the few devices with broken home
            // gateways (Sec. 5.5).
            nat_afflicted: config.kind.is_home() && idx % 40 == 5 && k == 0,
            abnormal_uploader: is_abnormal,
            daily_presence: presence,
            version,
        });
    }
    Household {
        ip,
        access: profile.access,
        behavior: Some(behavior),
        devices,
        uses_web: profile.uses_web,
    }
}

impl Population {
    /// Build the population of one vantage point: the serial sweep over
    /// [`generate_household`]. `rng` is the population plane (the driver's
    /// `root.fork_named("population")`); it is only forked per household,
    /// never advanced, so partial sweeps over household ranges concatenate
    /// to exactly this result.
    pub fn generate(config: &VantageConfig, version: ClientVersion, rng: &Rng) -> Population {
        let host_base = host_int_base(rng);
        let abnormal = abnormal_household(config, rng);
        let households = (0..config.addresses)
            .map(|idx| {
                generate_household(config, version, rng, idx, host_base, abnormal == Some(idx))
            })
            .collect();
        Population { households }
    }

    /// Households with the Dropbox client installed.
    pub fn with_client(&self) -> impl Iterator<Item = &Household> {
        self.households.iter().filter(|h| h.behavior.is_some())
    }
}

/// Stable client address of the idx-th monitored endpoint.
pub fn address_of(kind: VantageKind, idx: usize) -> Ipv4 {
    let base = match kind {
        VantageKind::Campus1 => Ipv4::new(130, 42, 0, 0),
        VantageKind::Campus2 => Ipv4::new(160, 80, 0, 0),
        VantageKind::Home1 => Ipv4::new(87, 10, 0, 0),
        VantageKind::Home2 => Ipv4::new(93, 60, 0, 0),
    };
    Ipv4(base.0 + idx as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population(kind: VantageKind, scale: f64, seed: u64) -> Population {
        let config = VantageConfig::paper(kind, scale);
        Population::generate(&config, ClientVersion::V1_2_52, &mut Rng::new(seed))
    }

    #[test]
    fn penetration_matches_config() {
        let p = population(VantageKind::Home1, 0.2, 1);
        let with = p.with_client().count();
        let frac = with as f64 / p.households.len() as f64;
        assert!((frac - 0.069).abs() < 0.02, "penetration {frac}");
    }

    #[test]
    fn campus1_is_single_device_workstations() {
        let p = population(VantageKind::Campus1, 1.0, 2);
        for h in p.with_client() {
            assert!(h.devices.len() <= 2);
        }
        let workstations = p.with_client().filter(|h| h.devices[0].workstation).count();
        assert!(workstations as f64 / p.with_client().count() as f64 > 0.7);
    }

    #[test]
    fn home_device_distribution_mostly_single() {
        let p = population(VantageKind::Home1, 1.0, 3);
        let mut single = 0usize;
        let mut multi = 0usize;
        let mut heavy_devs = Vec::new();
        for h in p.with_client() {
            if h.devices.len() == 1 {
                single += 1;
            } else {
                multi += 1;
            }
            if h.behavior == Some(Behavior::Heavy) {
                heavy_devs.push(h.devices.len());
            }
        }
        let frac_single = single as f64 / (single + multi) as f64;
        assert!((0.5..0.75).contains(&frac_single), "single {frac_single}");
        let heavy_avg = heavy_devs.iter().sum::<usize>() as f64 / heavy_devs.len() as f64;
        assert!(
            heavy_avg > 2.0,
            "heavy households average {heavy_avg} devices"
        );
    }

    #[test]
    fn namespace_counts_differ_campus_vs_home() {
        let mut rng = Rng::new(4);
        let n = 4_000;
        let mut campus_ge5 = 0;
        let mut home_ge5 = 0;
        let mut campus_single = 0;
        let mut home_single = 0;
        for _ in 0..n {
            let c = sample_namespace_count(VantageKind::Campus1, &mut rng);
            let h = sample_namespace_count(VantageKind::Home1, &mut rng);
            assert!((1..=14).contains(&c));
            if c >= 5 {
                campus_ge5 += 1;
            }
            if c == 1 {
                campus_single += 1;
            }
            if h >= 5 {
                home_ge5 += 1;
            }
            if h == 1 {
                home_single += 1;
            }
        }
        let f = |x: i32| x as f64 / n as f64;
        assert!(
            (f(campus_single) - 0.13).abs() < 0.04,
            "{}",
            f(campus_single)
        );
        assert!((f(home_single) - 0.28).abs() < 0.05, "{}", f(home_single));
        assert!(f(campus_ge5) > 0.40, "campus ≥5: {}", f(campus_ge5));
        assert!(f(home_ge5) < f(campus_ge5), "home fewer namespaces");
    }

    #[test]
    fn behavior_shares_sum_to_one() {
        for kind in VantageKind::ALL {
            let s: f64 = Behavior::shares(kind).iter().map(|&(_, w)| w).sum();
            assert!((s - 1.0).abs() < 1e-9, "{kind:?}");
        }
    }

    #[test]
    fn home2_gets_exactly_one_abnormal_uploader() {
        let p = population(VantageKind::Home2, 0.3, 5);
        let abnormal: usize = p
            .households
            .iter()
            .flat_map(|h| &h.devices)
            .filter(|d| d.abnormal_uploader)
            .count();
        assert_eq!(abnormal, 1);
        let p1 = population(VantageKind::Home1, 0.3, 5);
        assert_eq!(
            p1.households
                .iter()
                .flat_map(|h| &h.devices)
                .filter(|d| d.abnormal_uploader)
                .count(),
            0
        );
    }

    #[test]
    fn household_generation_is_range_independent() {
        // Rebuilding the population from arbitrary contiguous household
        // ranges must reproduce the serial sweep exactly — the invariant
        // the sub-capture shards rest on.
        let config = VantageConfig::paper(VantageKind::Home2, 0.05);
        let rng = Rng::new(11);
        let full = Population::generate(&config, ClientVersion::V1_2_52, &rng);
        let base = host_int_base(&rng);
        let ab = abnormal_household(&config, &rng);
        let cuts = [0, 3, config.addresses / 2, config.addresses];
        let mut rebuilt = Vec::new();
        for w in cuts.windows(2) {
            for idx in w[0]..w[1] {
                rebuilt.push(generate_household(
                    &config,
                    ClientVersion::V1_2_52,
                    &rng,
                    idx,
                    base,
                    ab == Some(idx),
                ));
            }
        }
        assert_eq!(full.households.len(), rebuilt.len());
        for (a, b) in full.households.iter().zip(&rebuilt) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn host_ints_are_unique() {
        let p = population(VantageKind::Campus2, 0.3, 6);
        let mut ids: Vec<u64> = p
            .households
            .iter()
            .flat_map(|h| &h.devices)
            .map(|d| d.host_int)
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn addresses_are_stable_and_distinct() {
        assert_eq!(
            address_of(VantageKind::Home1, 5),
            address_of(VantageKind::Home1, 5)
        );
        assert_ne!(
            address_of(VantageKind::Home1, 5),
            address_of(VantageKind::Home1, 6)
        );
        assert_ne!(
            address_of(VantageKind::Home1, 5),
            address_of(VantageKind::Home2, 5)
        );
    }
}
