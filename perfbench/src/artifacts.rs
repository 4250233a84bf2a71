//! Rendered artifacts as operations: digests, references and the
//! per-artifact verdict that `attempted`/`failed` count.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Hex digits kept from each SHA-256 (64 bits: ample to tell outputs
/// apart, short enough to pin many seeds).
pub const DIGEST_HEX: usize = 16;

/// Report ids of the committed `results/` directory that the benchmark
/// does not render (separate sweeps, not fed by the capture) plus files
/// that are not report artifacts. `INDEX.md` is excluded because it is
/// known to be stale.
const RESULTS_NOT_RENDERED: &[&str] = &["INDEX.md", "simlint_report.json"];
const RESULTS_NOT_RENDERED_PREFIXES: &[&str] = &["ablation_", "recommendations."];

/// Artifact name → digest.
pub type Digests = BTreeMap<String, String>;

/// Truncated SHA-256 of an artifact's bytes.
pub fn digest(bytes: &[u8]) -> String {
    let mut hex = contenthash::sha256(bytes).to_hex();
    hex.truncate(DIGEST_HEX);
    hex
}

/// How one artifact compared with its reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Bytes match the reference.
    Ok,
    /// No reference exists for this seed and size: the digest is printed
    /// so that two builds can be compared, and runs are compared with each
    /// other.
    Unpinned,
    /// Rendered, but the bytes differ from the reference.
    Differs,
    /// Expected by the reference but not rendered (its generator panicked
    /// or no longer produces it).
    Missing,
    /// Rendered but absent from the reference.
    Unexpected,
}

impl Verdict {
    /// Whether the operation failed.
    pub fn failed(self) -> bool {
        !matches!(self, Verdict::Ok | Verdict::Unpinned)
    }

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unpinned => "unpinned",
            Verdict::Differs => "differs",
            Verdict::Missing => "missing",
            Verdict::Unexpected => "unexpected",
        }
    }
}

/// Compare rendered artifacts (`name → digest`) with a reference. Every
/// name in either map is one operation. Without a reference, every
/// rendered artifact is [`Verdict::Unpinned`] and each entry of `lost`
/// (artifacts known to be missing, e.g. of a panicked report) is
/// [`Verdict::Missing`].
pub fn judge(
    produced: &Digests,
    reference: Option<&Digests>,
    lost: &[String],
) -> BTreeMap<String, Verdict> {
    let mut out = BTreeMap::new();
    match reference {
        Some(reference) => {
            for (name, want) in reference {
                let verdict = match produced.get(name) {
                    Some(got) if got == want => Verdict::Ok,
                    Some(_) => Verdict::Differs,
                    None => Verdict::Missing,
                };
                out.insert(name.clone(), verdict);
            }
            for name in produced.keys() {
                out.entry(name.clone()).or_insert(Verdict::Unexpected);
            }
        }
        None => {
            for name in produced.keys() {
                out.insert(name.clone(), Verdict::Unpinned);
            }
        }
    }
    for name in lost {
        out.entry(name.clone()).or_insert(Verdict::Missing);
    }
    out
}

/// Pinned digests at (`scale`, `seed`) from the pin file of one workload:
/// an `artifacts <name>...` line naming the columns, then one
/// `<scale> <seed> <digest>...` row per pinned run; `#` starts a comment.
/// `None` when the file pins nothing for that key or the row does not
/// match the column line.
pub fn pinned(text: &str, scale: f64, seed: u64) -> Option<Digests> {
    let mut names: Vec<&str> = Vec::new();
    for line in text.lines().filter(|l| !l.trim_start().starts_with('#')) {
        let mut f = line.split_whitespace();
        match f.next() {
            Some("artifacts") => names = f.collect(),
            Some(sc) if sc.parse::<f64>().ok() == Some(scale) => {
                if f.next().and_then(|sd| sd.parse::<u64>().ok()) != Some(seed) {
                    continue;
                }
                let digests: Vec<&str> = f.collect();
                if digests.len() != names.len() || names.is_empty() {
                    return None;
                }
                return Some(
                    names
                        .iter()
                        .zip(digests)
                        .map(|(n, d)| (n.to_string(), d.to_string()))
                        .collect(),
                );
            }
            _ => {}
        }
    }
    None
}

/// Digests of the committed `results/` artifacts this benchmark renders.
pub fn results_reference(dir: &Path) -> std::io::Result<Digests> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let skip = RESULTS_NOT_RENDERED.contains(&name.as_str())
            || RESULTS_NOT_RENDERED_PREFIXES
                .iter()
                .any(|p| name.starts_with(p));
        if !skip && entry.path().is_file() {
            out.insert(name, digest(&fs::read(entry.path())?));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rendered() -> Vec<(String, String)> {
        vec![
            ("table2.txt".into(), "== TABLE2 ==\nrow\n".into()),
            ("table2.csv".into(), "a,b\n1,2\n".into()),
            ("fig9.txt".into(), "== FIG9 ==\n".into()),
        ]
    }

    fn digests(arts: &[(String, String)]) -> Digests {
        arts.iter()
            .map(|(n, b)| (n.clone(), digest(b.as_bytes())))
            .collect()
    }

    fn failed(v: &BTreeMap<String, Verdict>) -> usize {
        v.values().filter(|v| v.failed()).count()
    }

    #[test]
    fn one_changed_byte_is_exactly_one_failed_operation() {
        let reference = digests(&rendered());
        let mut arts = rendered();
        arts[1].1 = "a,b\n1,3\n".into();
        let v = judge(&digests(&arts), Some(&reference), &[]);
        assert_eq!(v.len(), 3);
        assert_eq!(failed(&v), 1);
        assert_eq!(v["table2.csv"], Verdict::Differs);
        assert_eq!(v["table2.txt"], Verdict::Ok);
    }

    #[test]
    fn missing_and_unexpected_artifacts_fail() {
        let reference = digests(&rendered());
        let mut arts = rendered();
        arts.remove(2);
        arts.push(("fig99.csv".into(), String::new()));
        let v = judge(&digests(&arts), Some(&reference), &[]);
        assert_eq!(v.len(), 4);
        assert_eq!(v["fig9.txt"], Verdict::Missing);
        assert_eq!(v["fig99.csv"], Verdict::Unexpected);
        assert_eq!(failed(&v), 2);
    }

    #[test]
    fn unpinned_runs_fail_only_on_lost_artifacts() {
        let v = judge(&digests(&rendered()), None, &["fig5.txt".to_string()]);
        assert_eq!(v.len(), 4);
        assert_eq!(v["table2.txt"], Verdict::Unpinned);
        assert_eq!(v["fig5.txt"], Verdict::Missing);
        assert_eq!(failed(&v), 1);
    }

    #[test]
    fn pin_file_selects_scale_and_seed() {
        let text = "# sha256[:16] per artifact\n\
                    artifacts table2.csv table2.txt\n\
                    0.02 3 aaaa bbbb\n\
                    0.02 4 cccc dddd\n\
                    0.1 3 eeee ffff\n\
                    0.02 5 only-one\n";
        let p = pinned(text, 0.02, 3).expect("pinned");
        assert_eq!(p.len(), 2);
        assert_eq!(p["table2.csv"], "aaaa");
        assert_eq!(p["table2.txt"], "bbbb");
        assert_eq!(pinned(text, 0.1, 3).expect("0.1")["table2.txt"], "ffff");
        assert_eq!(pinned(text, 0.02, 6), None);
        // A row that does not fit the column line pins nothing.
        assert_eq!(pinned(text, 0.02, 5), None);
        assert_eq!(pinned("0.02 3 aaaa\n", 0.02, 3), None);
    }

    #[test]
    fn digest_is_truncated_sha256() {
        // SHA-256("abc") = ba7816bf8f01cfea…
        assert_eq!(digest(b"abc"), "ba7816bf8f01cfea");
    }
}
