//! Software environments: conda-like named package sets per site.
//!
//! §6.1 installs the docking stack ("AutoDock Vina v1.2.6, VMD v1.9.3,
//! MGLTools v1.5.7") via Conda on each site; §6.2 installs "PSI/J v0.9.9
//! within a Conda environment". Environment contents are captured verbatim
//! into provenance records — the paper's §7.4 names missing environment
//! information as the key gap in validating reproducibility.

use crate::error::ClusterError;
use std::collections::BTreeMap;

/// A single installed package at a pinned version.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Package {
    pub name: String,
    pub version: String,
}

impl Package {
    pub fn new(name: &str, version: &str) -> Self {
        Package {
            name: name.to_string(),
            version: version.to_string(),
        }
    }
}

/// A named environment (think `conda env`): package name → version.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SoftwareEnv {
    pub name: String,
    packages: BTreeMap<String, String>,
}

impl SoftwareEnv {
    pub fn new(name: &str) -> Self {
        SoftwareEnv {
            name: name.to_string(),
            packages: BTreeMap::new(),
        }
    }

    /// Install (or upgrade) a package.
    pub fn install(&mut self, name: &str, version: &str) -> &mut Self {
        self.packages.insert(name.to_string(), version.to_string());
        self
    }

    /// Version of an installed package.
    pub fn version_of(&self, name: &str) -> Option<&str> {
        self.packages.get(name).map(String::as_str)
    }

    pub fn has(&self, name: &str) -> bool {
        self.packages.contains_key(name)
    }

    /// Check a `name>=version` style requirement (only `>=`, `==` and bare
    /// names are supported — the forms the PSI/J requirements file uses).
    pub fn satisfies(&self, requirement: &str) -> bool {
        let (name, op, want) = parse_requirement(requirement);
        let Some(have) = self.version_of(name) else {
            return false;
        };
        match op {
            None => true,
            Some(">=") => compare_versions(have, want) >= std::cmp::Ordering::Equal,
            Some("==") => compare_versions(have, want) == std::cmp::Ordering::Equal,
            _ => false,
        }
    }

    /// Snapshot of every package, sorted by name — the provenance capture.
    pub fn freeze(&self) -> Vec<Package> {
        self.packages
            .iter()
            .map(|(n, v)| Package::new(n, v))
            .collect()
    }
}

fn parse_requirement(req: &str) -> (&str, Option<&str>, &str) {
    for op in [">=", "=="] {
        if let Some(ix) = req.find(op) {
            return (req[..ix].trim(), Some(op), req[ix + 2..].trim());
        }
    }
    (req.trim(), None, "")
}

/// Compare dotted version strings numerically segment by segment.
pub fn compare_versions(a: &str, b: &str) -> std::cmp::Ordering {
    let parse = |s: &str| -> Vec<u64> {
        s.split('.')
            .map(|seg| seg.chars().take_while(|c| c.is_ascii_digit()).collect::<String>())
            .map(|digits| digits.parse().unwrap_or(0))
            .collect()
    };
    let (va, vb) = (parse(a), parse(b));
    let n = va.len().max(vb.len());
    for i in 0..n {
        let x = va.get(i).copied().unwrap_or(0);
        let y = vb.get(i).copied().unwrap_or(0);
        match x.cmp(&y) {
            std::cmp::Ordering::Equal => continue,
            ord => return ord,
        }
    }
    std::cmp::Ordering::Equal
}

/// All named environments at one site.
#[derive(Debug, Clone, Default)]
pub struct EnvManager {
    envs: BTreeMap<String, SoftwareEnv>,
}

impl EnvManager {
    pub fn new() -> Self {
        EnvManager::default()
    }

    /// Create an environment (idempotent), returning a mutable handle.
    pub fn create(&mut self, name: &str) -> &mut SoftwareEnv {
        self.envs
            .entry(name.to_string())
            .or_insert_with(|| SoftwareEnv::new(name))
    }

    pub fn get(&self, name: &str) -> Result<&SoftwareEnv, ClusterError> {
        self.envs
            .get(name)
            .ok_or_else(|| ClusterError::UnknownEnv(name.to_string()))
    }

    pub fn get_mut(&mut self, name: &str) -> Result<&mut SoftwareEnv, ClusterError> {
        self.envs
            .get_mut(name)
            .ok_or_else(|| ClusterError::UnknownEnv(name.to_string()))
    }

    pub fn names(&self) -> Vec<&str> {
        self.envs.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_query() {
        let mut env = SoftwareEnv::new("docking");
        env.install("autodock-vina", "1.2.6")
            .install("vmd", "1.9.3")
            .install("mgltools", "1.5.7");
        assert_eq!(env.version_of("vmd"), Some("1.9.3"));
        assert!(env.has("mgltools"));
        assert!(!env.has("pytorch"));
        assert_eq!(env.freeze().len(), 3);
    }

    #[test]
    fn freeze_is_sorted_and_complete() {
        let mut env = SoftwareEnv::new("e");
        env.install("zlib", "1.3").install("abc", "0.1");
        let frozen = env.freeze();
        assert_eq!(frozen[0].name, "abc");
        assert_eq!(frozen[1].name, "zlib");
    }

    #[test]
    fn requirements_parsing() {
        let mut env = SoftwareEnv::new("psij");
        env.install("psutil", "5.9.8").install("pystache", "0.6.8");
        assert!(env.satisfies("psutil>=5.9"));
        assert!(env.satisfies("psutil"));
        assert!(env.satisfies("pystache>=0.6.0"));
        assert!(!env.satisfies("psutil>=6.0"));
        assert!(!env.satisfies("typeguard>=3.0.1"));
        assert!(env.satisfies("psutil==5.9.8"));
        assert!(!env.satisfies("psutil==5.9.7"));
    }

    #[test]
    fn version_comparison_is_numeric_not_lexical() {
        use std::cmp::Ordering::*;
        assert_eq!(compare_versions("1.10", "1.9"), Greater);
        assert_eq!(compare_versions("1.2.6", "1.2.6"), Equal);
        assert_eq!(compare_versions("0.9.9", "1.0"), Less);
        assert_eq!(compare_versions("2", "2.0.0"), Equal);
    }

    #[test]
    fn env_manager_create_is_idempotent() {
        let mut m = EnvManager::new();
        m.create("a").install("p", "1");
        m.create("a"); // does not wipe
        assert_eq!(m.get("a").unwrap().version_of("p"), Some("1"));
        assert!(m.get("missing").is_err());
        assert_eq!(m.names(), vec!["a"]);
    }
}
