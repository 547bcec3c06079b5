//! Research objects: RO-Crate-style bundles (§2).
//!
//! "Structured collections of digital resources related to a scientific
//! investigation" — code reference, data descriptors, environment capture,
//! and execution records, packaged with enough metadata to satisfy the
//! "Artifacts Available" checklist (§3.1.1).

use crate::capture::EnvironmentCapture;
use crate::record::ExecutionRecord;

/// A data resource referenced by the research object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataResource {
    pub name: String,
    /// Where the data lives (a permanent repository per §3.1.1).
    pub location: String,
    pub description: String,
    pub size_bytes: u64,
}

/// An RO-Crate-like research object.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResearchObject {
    pub title: String,
    pub license: String,
    /// Code reference: repository + commit.
    pub repo: String,
    pub commit: String,
    /// DOI-style persistent identifier, once archived.
    pub doi: Option<String>,
    pub data: Vec<DataResource>,
    pub environments: Vec<EnvironmentCapture>,
    pub executions: Vec<ExecutionRecord>,
    pub documentation: String,
}

impl ResearchObject {
    pub fn new(title: &str, repo: &str, commit: &str) -> Self {
        ResearchObject {
            title: title.to_string(),
            repo: repo.to_string(),
            commit: commit.to_string(),
            license: "MIT".to_string(),
            ..ResearchObject::default()
        }
    }

    pub fn with_documentation(mut self, docs: &str) -> Self {
        self.documentation = docs.to_string();
        self
    }

    pub fn add_data(&mut self, name: &str, location: &str, description: &str, size: u64) {
        self.data.push(DataResource {
            name: name.to_string(),
            location: location.to_string(),
            description: description.to_string(),
            size_bytes: size,
        });
    }

    pub fn add_execution(&mut self, record: ExecutionRecord) {
        if !self.environments.contains(&record.environment)
        {
            self.environments.push(record.environment.clone());
        }
        self.executions.push(record);
    }

    /// Archive to a permanent repository, assigning a persistent identifier
    /// (Zenodo-style).
    pub fn archive(&mut self, serial: u64) -> &str {
        self.doi.get_or_insert(format!("10.5281/hpcci.{serial}"));
        self.doi.as_deref().expect("just inserted")
    }

    /// The "Artifacts Available" checklist (§3.1.1): public location (DOI),
    /// open license, documentation, and described data.
    pub fn artifacts_available(&self) -> bool {
        self.doi.is_some()
            && !self.license.is_empty()
            && !self.documentation.is_empty()
            && self.data.iter().all(|d| !d.description.is_empty())
    }

    /// Do the execution records demonstrate at least one successful run at
    /// each of `n` distinct sites? (The multi-site evidence CORRECT exists
    /// to produce.)
    pub fn demonstrates_sites(&self, n: usize) -> bool {
        let mut sites: Vec<&str> = self
            .executions
            .iter()
            .filter(|r| r.success)
            .map(|r| r.environment.site.as_str())
            .collect();
        sites.sort_unstable();
        sites.dedup();
        sites.len() >= n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn execution(site: &str, success: bool) -> ExecutionRecord {
        ExecutionRecord {
            repo: "o/r".into(),
            commit: "c".into(),
            command: "pytest".into(),
            environment: EnvironmentCapture {
                site: site.into(),
                site_kind: "Hpc".into(),
                hostname: "h".into(),
                cores: 1,
                mem_gb: 1,
                cpu_speed: 1.0,
                env_name: None,
                packages: vec![],
                container: None,
            },
            ran_as: "u".into(),
            node: "h".into(),
            started_us: 0,
            ended_us: 1,
            success,
            stdout: String::new(),
            stderr: String::new(),
        }
    }

    #[test]
    fn availability_checklist() {
        let mut ro = ResearchObject::new("ParslDock", "o/r", "abc")
            .with_documentation("README with install and usage");
        ro.add_data("pdb", "zenodo.org/rec/1", "receptor structures", 1024);
        assert!(!ro.artifacts_available(), "no DOI yet");
        let doi = ro.archive(42).to_string();
        assert!(doi.starts_with("10.5281/"));
        assert!(ro.artifacts_available());
        // Archiving twice keeps the same DOI.
        assert_eq!(ro.archive(99), doi);
    }

    #[test]
    fn multi_site_evidence() {
        let mut ro = ResearchObject::new("t", "o/r", "c");
        ro.add_execution(execution("chameleon-tacc", true));
        ro.add_execution(execution("tamu-faster", true));
        ro.add_execution(execution("sdsc-expanse", false));
        assert!(ro.demonstrates_sites(2));
        assert!(!ro.demonstrates_sites(3), "failed run doesn't count");
        // Environments deduplicated per site.
        assert_eq!(ro.environments.len(), 3);
        ro.add_execution(execution("chameleon-tacc", true));
        assert_eq!(ro.environments.len(), 3);
    }
}
